//! FFT Poisson solver on the periodic unit box.

use rayon::prelude::*;
use vlasov6d_fft::{freq, Complex64, RealFft3};
use vlasov6d_mesh::stencil::{gradient_axis, GradientOrder};
use vlasov6d_mesh::Field3;

/// A reusable Poisson solve plan for one mesh size.
#[derive(Debug, Clone)]
pub struct PoissonSolver {
    dims: [usize; 3],
    rfft: RealFft3,
    /// Long-range taper scale `r_s` in box units; `None` = full potential.
    split_rs: Option<f64>,
    /// Compensate the CIC assignment+interpolation window (`W²`).
    deconvolve_cic: bool,
}

impl PoissonSolver {
    pub fn new(dims: [usize; 3]) -> Self {
        Self {
            dims,
            rfft: RealFft3::new(dims),
            split_rs: None,
            deconvolve_cic: false,
        }
    }

    pub fn cubic(n: usize) -> Self {
        Self::new([n, n, n])
    }

    /// Keep only the long-range part: multiply by `exp(-k² r_s²)`
    /// (`r_s` in box units). The complementary short-range force lives in
    /// [`crate::split`].
    pub fn with_long_range_split(mut self, r_s: f64) -> Self {
        assert!(r_s > 0.0);
        self.split_rs = Some(r_s);
        self
    }

    /// Divide by the squared CIC window `Π_d sinc²(π m_d/n_d)` to undo the
    /// smoothing of deposit + interpolation.
    pub fn with_cic_deconvolution(mut self) -> Self {
        self.deconvolve_cic = true;
        self
    }

    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// Solve `∇²φ = source_prefactor · field` on the unit box; the DC mode is
    /// set to zero (the mean source must vanish — Jeans swindle / periodic
    /// consistency, matching `ρ - ρ̄` in the paper's Eq. 2).
    pub fn solve(&self, source: &Field3, source_prefactor: f64) -> Field3 {
        assert_eq!(source.dims(), self.dims);
        let _obs = vlasov6d_obs::span!("poisson.solve", vlasov6d_obs::Bucket::Pm);
        let [n0, n1, n2] = self.dims;
        let nzh = self.rfft.spectrum_n2();
        let mut spec = vec![Complex64::ZERO; self.rfft.spectrum_len()];
        self.rfft.forward(source.as_slice(), &mut spec);

        let split_rs = self.split_rs;
        let deconv = self.deconvolve_cic;
        spec.par_iter_mut().enumerate().for_each(|(idx, z)| {
            let i2 = idx % nzh;
            let i1 = (idx / nzh) % n1;
            let i0 = idx / (nzh * n1);
            let m0 = freq(i0, n0);
            let m1 = freq(i1, n1);
            let m2 = i2 as f64; // last axis holds only non-negative freqs
            *z = match green([m0, m1, m2], source_prefactor, split_rs) {
                None => Complex64::ZERO,
                Some(mut g) => {
                    if deconv {
                        let w = cic_window(m0, n0) * cic_window(m1, n1) * cic_window(m2, n2);
                        g /= (w * w).max(1e-8);
                    }
                    z.scale(g)
                }
            };
        });

        let mut phi = Field3::zeros(self.dims);
        self.rfft.inverse(&spec, phi.as_mut_slice());
        phi
    }

    /// Force field `-∇φ` by 4-point finite differences of the mesh potential
    /// (the paper differentiates and interpolates the PM potential).
    pub fn force_from_potential(phi: &Field3) -> [Field3; 3] {
        let mut f = [
            gradient_axis(phi, 0, GradientOrder::Four),
            gradient_axis(phi, 1, GradientOrder::Four),
            gradient_axis(phi, 2, GradientOrder::Four),
        ];
        for g in f.iter_mut() {
            g.scale(-1.0);
        }
        f
    }
}

/// The spectral Green's-function multiplier of `∇²φ = C·source` at signed
/// mode `m`: `−C/k²` with `k = 2π m`, times the long-range taper
/// `exp(−k² r_s²)` when `split_rs` is set; `None` at the DC mode, which the
/// solve drops. [`PoissonSolver`] and [`crate::DistPoisson`] both apply it.
#[inline]
pub(crate) fn green(m: [f64; 3], prefactor: f64, split_rs: Option<f64>) -> Option<f64> {
    if m == [0.0; 3] {
        return None;
    }
    let two_pi = 2.0 * std::f64::consts::PI;
    let k2 = (two_pi * m[0]).powi(2) + (two_pi * m[1]).powi(2) + (two_pi * m[2]).powi(2);
    let mut g = -prefactor / k2;
    if let Some(rs) = split_rs {
        g *= (-k2 * rs * rs).exp();
    }
    Some(g)
}

/// CIC assignment window along one axis: `sinc²(π m/n)`.
#[inline]
fn cic_window(m: f64, n: usize) -> f64 {
    let x = std::f64::consts::PI * m / n as f64;
    if x.abs() < 1e-12 {
        1.0
    } else {
        (x.sin() / x).powi(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine_source(n: usize, m: [i32; 3]) -> Field3 {
        let mut f = Field3::zeros_cubic(n);
        for i0 in 0..n {
            for i1 in 0..n {
                for i2 in 0..n {
                    let phase = 2.0
                        * std::f64::consts::PI
                        * (m[0] as f64 * (i0 as f64 + 0.5)
                            + m[1] as f64 * (i1 as f64 + 0.5)
                            + m[2] as f64 * (i2 as f64 + 0.5))
                        / n as f64;
                    *f.at_mut(i0, i1, i2) = phase.cos();
                }
            }
        }
        f
    }

    #[test]
    fn plane_wave_potential_is_analytic() {
        // ∇²φ = cos(k·x) ⇒ φ = -cos(k·x)/k².
        let n = 32;
        let m = [2i32, 0, 1];
        let src = sine_source(n, m);
        let phi = PoissonSolver::cubic(n).solve(&src, 1.0);
        let k2 =
            (2.0 * std::f64::consts::PI).powi(2) * (m.iter().map(|&x| (x * x) as f64).sum::<f64>());
        let mut max_err = 0.0f64;
        for (a, b) in phi.as_slice().iter().zip(src.as_slice()) {
            max_err = max_err.max((a - (-b / k2)).abs());
        }
        assert!(max_err < 1e-12 / k2 * 1e6 + 1e-9, "max err {max_err}");
    }

    #[test]
    fn prefactor_scales_linearly() {
        let n = 16;
        let src = sine_source(n, [1, 1, 0]);
        let p1 = PoissonSolver::cubic(n).solve(&src, 1.0);
        let p2 = PoissonSolver::cubic(n).solve(&src, 2.5);
        for (a, b) in p1.as_slice().iter().zip(p2.as_slice()) {
            assert!((2.5 * a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn mean_of_potential_is_zero() {
        let n = 16;
        let mut src = Field3::zeros_cubic(n);
        for (i, v) in src.as_mut_slice().iter_mut().enumerate() {
            *v = ((i * 31 % 17) as f64) / 17.0 - 0.4;
        }
        // Note: the DC mode of the source is simply dropped (Jeans swindle).
        let phi = PoissonSolver::cubic(n).solve(&src, 1.0);
        assert!(phi.mean().abs() < 1e-12);
    }

    #[test]
    fn long_range_split_suppresses_small_scales() {
        let n = 32;
        let rs = 2.0 / n as f64;
        let solver_full = PoissonSolver::cubic(n);
        let solver_long = PoissonSolver::cubic(n).with_long_range_split(rs);
        // High-k mode: strongly suppressed.
        let hi = sine_source(n, [0, 0, 12]);
        let p_full = solver_full.solve(&hi, 1.0);
        let p_long = solver_long.solve(&hi, 1.0);
        assert!(p_long.rms() < 0.01 * p_full.rms());
        // Low-k mode: mildly tapered — exp(-(2π·2/32)²) ≈ 0.857.
        let lo = sine_source(n, [1, 0, 0]);
        let q_full = solver_full.solve(&lo, 1.0);
        let q_long = solver_long.solve(&lo, 1.0);
        let ratio = q_long.rms() / q_full.rms();
        assert!(ratio > 0.8 && ratio < 1.0, "low-k ratio {ratio}");
    }

    #[test]
    fn cic_deconvolution_boosts_high_k() {
        let n = 32;
        let hi = sine_source(n, [0, 10, 0]);
        let plain = PoissonSolver::cubic(n).solve(&hi, 1.0);
        let deconv = PoissonSolver::cubic(n)
            .with_cic_deconvolution()
            .solve(&hi, 1.0);
        assert!(deconv.rms() > plain.rms() * 1.2);
    }

    #[test]
    fn force_points_downhill() {
        let n = 32;
        let src = sine_source(n, [1, 0, 0]);
        let phi = PoissonSolver::cubic(n).solve(&src, 1.0);
        let f = PoissonSolver::force_from_potential(&phi);
        // F = -∇φ: where ∂φ/∂x > 0 the force must be negative.
        let g = gradient_axis(&phi, 0, GradientOrder::Four);
        for (a, b) in f[0].as_slice().iter().zip(g.as_slice()) {
            assert!((a + b).abs() < 1e-12);
        }
    }

    #[test]
    fn point_mass_potential_close_to_newtonian_at_mid_range() {
        // A single cell of "mass" on a fine grid: φ(r) ≈ -S/(4π r) away from
        // the cell and well inside the box (periodic images contribute ~%).
        let n = 64;
        let mut src = Field3::zeros_cubic(n);
        // delta with unit integral: value 1/cell_volume = n³.
        *src.at_mut(0, 0, 0) = (n * n * n) as f64;
        let phi = PoissonSolver::cubic(n).solve(&src, 1.0);
        // Periodic images shift φ by a constant (and O(r²/L³) corrections);
        // potential *differences* at small radii are Newtonian to a few %.
        let diff = |r1: usize, r2: usize| phi.at(r1, 0, 0) - phi.at(r2, 0, 0);
        // Leading Ewald expansion of the periodic point-mass potential with
        // neutralising background: ψ(r) = 1/r + (2π/3) r² + O(r⁴).
        let newton_diff = |r1: usize, r2: usize| {
            let f = |rc: usize| {
                let r = rc as f64 / n as f64;
                -(1.0 / r + 2.0 * std::f64::consts::PI / 3.0 * r * r) / (4.0 * std::f64::consts::PI)
            };
            f(r1) - f(r2)
        };
        for (r1, r2) in [(6usize, 12usize), (8, 16), (10, 20)] {
            let got = diff(r1, r2);
            let expect = newton_diff(r1, r2);
            assert!(
                (got / expect - 1.0).abs() < 0.04,
                "Δφ({r1},{r2}): {got} vs {expect}"
            );
        }
    }
}
