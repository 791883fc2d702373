//! Linear growth factor of matter perturbations.
//!
//! We use the exact ΛCDM integral solution
//!
//! ```text
//! D(a) ∝ H(a)/H0 ∫₀ᵃ da' / (a' E(a'))³
//! ```
//!
//! which solves the growth ODE exactly for matter + Λ (+ radiation treated as
//! smooth). The percent-level scale-dependent neutrino correction is applied
//! separately in the transfer function; the Zel'dovich initial conditions only
//! need the growth *ratio* between the starting redshift and today.

use crate::background::Background;
use crate::quad;

/// Linear growth factor utilities bound to a [`Background`].
#[derive(Debug, Clone)]
pub struct Growth<'a> {
    bg: &'a Background,
}

impl<'a> Growth<'a> {
    pub fn new(bg: &'a Background) -> Self {
        Self { bg }
    }

    /// Unnormalised growth factor `D(a)`.
    pub(crate) fn d_unnormalized(&self, a: f64) -> f64 {
        let integral = quad::simpson_adaptive(
            |ln_a| {
                let ap = ln_a.exp();
                // da'/(a' E)³ = a'² dln a' / (a' E)³ ... careful:
                // ∫ da / (a E)³ = ∫ dln a · a / (a E)³ = ∫ dln a / (a² E³)
                1.0 / (ap * ap * self.bg.e_of_a(ap).powi(3))
            },
            (1e-6f64).ln(),
            a.ln(),
            1e-10,
        );
        self.bg.e_of_a(a) * integral
    }

    /// Growth factor normalised to `D(a_ref) = 1`.
    pub fn d_relative(&self, a: f64, a_ref: f64) -> f64 {
        self.d_unnormalized(a) / self.d_unnormalized(a_ref)
    }

    /// Logarithmic growth rate `f = dlnD/dlna` (centred difference).
    pub fn growth_rate(&self, a: f64) -> f64 {
        let h = 1e-4;
        let (ap, am) = (a * (1.0 + h), a * (1.0 - h));
        (self.d_unnormalized(ap).ln() - self.d_unnormalized(am).ln()) / (ap.ln() - am.ln())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CosmologyParams;

    #[test]
    fn eds_growth_is_linear_in_a() {
        let bg = Background::new(CosmologyParams::eds());
        let g = Growth::new(&bg);
        for &a in &[0.1, 0.3, 1.0] {
            // In EdS `D_unnorm = (2/5) a`.
            let d = 2.5 * g.d_unnormalized(a);
            assert!((d / a - 1.0).abs() < 2e-3, "D({a}) = {d}");
        }
    }

    #[test]
    fn eds_growth_rate_is_unity() {
        let bg = Background::new(CosmologyParams::eds());
        let g = Growth::new(&bg);
        let f = g.growth_rate(0.5);
        assert!((f - 1.0).abs() < 1e-3, "f = {f}");
    }

    #[test]
    fn lambda_suppresses_late_growth() {
        let bg = Background::new(CosmologyParams::planck2015());
        let g = Growth::new(&bg);
        // In ΛCDM late-time growth is slower than a: D(1)/D(0.5) < 2.
        let ratio = g.d_relative(1.0, 0.5);
        assert!(ratio > 1.0 && ratio < 2.0, "ratio {ratio}");
        // And the growth rate today is roughly Ωm^0.55 ≈ 0.52.
        let f = g.growth_rate(1.0);
        let expect = bg.omega_m().powf(0.55);
        assert!((f - expect).abs() < 0.03, "f = {f}, Ωm^0.55 = {expect}");
    }

    #[test]
    fn growth_ratio_used_by_ics_is_monotone() {
        let bg = Background::new(CosmologyParams::planck2015());
        let g = Growth::new(&bg);
        let d10 = g.d_relative(1.0 / 11.0, 1.0);
        let d5 = g.d_relative(1.0 / 6.0, 1.0);
        assert!(d10 < d5 && d5 < 1.0);
    }
}
