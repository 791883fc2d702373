//! TreePM long/short-range force splitting (paper §5.1.2).
//!
//! The PM solver keeps the long-range field by tapering the Green's function
//! with `exp(-k² r_s²)`. In real space this corresponds to the pair potential
//! split
//!
//! ```text
//! φ_short(r) = -(m/4πr) · erfc(r / 2 r_s)
//! F_short(r) = -(m/4πr²) · [ erfc(r/2r_s) + (r/(r_s√π)) exp(-r²/4r_s²) ]
//! ```
//!
//! (the GADGET-2 convention). The tree sums `F_short` over neighbours inside
//! a cutoff where the factor is negligible; PM supplies the rest.

/// Complementary error function (Numerical-Recipes Chebyshev fit,
/// fractional error < 1.2 × 10⁻⁷ everywhere).
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// The long/short split at scale `r_s` (box units).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForceSplit {
    pub r_s: f64,
}

impl ForceSplit {
    pub fn new(r_s: f64) -> Self {
        assert!(r_s > 0.0);
        Self { r_s }
    }

    /// Multiplier of the Newtonian `1/r²` force kept by the *short-range*
    /// (tree) side. → 1 as `r → 0`, → 0 as `r → ∞`.
    #[inline]
    pub fn short_force_factor(&self, r: f64) -> f64 {
        if r <= 0.0 {
            return 1.0;
        }
        let x = r / (2.0 * self.r_s);
        erfc(x) + (r / (self.r_s * std::f64::consts::PI.sqrt())) * (-x * x).exp()
    }

    /// Radius beyond which the short-range factor drops below `eps`
    /// (bisection; used to size the tree-walk cutoff).
    pub fn cutoff_radius(&self, eps: f64) -> f64 {
        assert!(eps > 0.0 && eps < 1.0);
        let (mut lo, mut hi) = (self.r_s * 1e-3, self.r_s * 50.0);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.short_force_factor(mid) > eps {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
    }
}

#[cfg(test)]
impl ForceSplit {
    /// Complementary long-range force factor (what PM provides).
    #[inline]
    pub(crate) fn long_force_factor(&self, r: f64) -> f64 {
        1.0 - self.short_force_factor(r)
    }

    /// Multiplier of the Newtonian `1/r` potential kept by the short side.
    #[inline]
    pub(crate) fn short_potential_factor(&self, r: f64) -> f64 {
        erfc(r / (2.0 * self.r_s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erfc_reference_values() {
        // Abramowitz & Stegun tabulated values.
        let cases = [
            (0.0, 1.0),
            (0.5, 0.479_500_1),
            (1.0, 0.157_299_2),
            (2.0, 0.004_677_735),
            (-1.0, 2.0 - 0.157_299_2),
        ];
        for (x, expect) in cases {
            let got = erfc(x);
            assert!(
                (got - expect).abs() < 3e-7,
                "erfc({x}) = {got}, want {expect}"
            );
        }
    }

    #[test]
    fn erf_is_odd_and_saturates() {
        // `erf = 1 - erfc`: odd means `erfc(-x) + erfc(x) = 2`.
        assert!((erfc(0.0) - 1.0).abs() < 1e-6); // NR fit has ~1e-7 absolute error
        assert!(erfc(3.0).abs() < 1e-4);
        assert!((erfc(-1.3) + erfc(1.3) - 2.0).abs() < 1e-7);
    }

    #[test]
    fn short_factor_limits() {
        let s = ForceSplit::new(0.05);
        assert!((s.short_force_factor(1e-9) - 1.0).abs() < 1e-6);
        assert!(s.short_force_factor(1.0) < 1e-10);
    }

    #[test]
    fn short_factor_is_monotone_decreasing() {
        let s = ForceSplit::new(0.03);
        let mut prev = 1.0 + 1e-12;
        for i in 1..200 {
            let r = i as f64 * 0.002;
            let f = s.short_force_factor(r);
            assert!(f <= prev + 1e-12, "non-monotone at r = {r}");
            prev = f;
        }
    }

    #[test]
    fn short_plus_long_is_newtonian() {
        let s = ForceSplit::new(0.07);
        for &r in &[0.01, 0.05, 0.1, 0.3] {
            let total = s.short_force_factor(r) + s.long_force_factor(r);
            assert!((total - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn force_factor_is_minus_derivative_of_potential() {
        // F(r)/r² ∝ -d/dr [erfc(r/2rs)/r] · r² ... verify numerically:
        // d/dr [pot_factor(r)/r] = -force_factor(r)/r².
        let s = ForceSplit::new(0.06);
        let h = 1e-6;
        for &r in &[0.02, 0.05, 0.12, 0.2] {
            let phi = |r: f64| s.short_potential_factor(r) / r;
            let dphi = (phi(r + h) - phi(r - h)) / (2.0 * h);
            let expect = -s.short_force_factor(r) / (r * r);
            assert!(
                (dphi - expect).abs() < 1e-4 * dphi.abs().max(1e-10),
                "r = {r}: dφ/dr = {dphi}, want {expect}"
            );
        }
    }

    #[test]
    fn cutoff_radius_brackets_eps() {
        let s = ForceSplit::new(0.04);
        let rc = s.cutoff_radius(1e-5);
        assert!(s.short_force_factor(rc) <= 1e-5);
        assert!(s.short_force_factor(rc * 0.9) > 1e-5);
        // Rule of thumb: cutoff ≈ 4.5–7 r_s for eps in [1e-6, 1e-4].
        assert!(rc > 3.0 * s.r_s && rc < 10.0 * s.r_s, "rc = {rc}");
    }
}
