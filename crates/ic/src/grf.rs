//! Seeded Gaussian random fields with a prescribed power spectrum.
//!
//! Convention (box length 1): with the unscaled forward FFT `δ_k = Σ_x δ(x)
//! e^{-ik·x}`, the dimensionless code power spectrum is
//!
//! ```text
//! P_code(k) = <|δ_k|²> / N²,     N = n³ cells,   P_code = P_phys / L_box³.
//! ```
//!
//! Generation colours unit white noise in k-space: `δ_k = W_k √(P_code(k) N)`
//! (since `<|W_k|²> = N`), which respects Hermitian symmetry by construction
//! because the noise is drawn in real space.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vlasov6d_fft::{freq, Complex64, Fft3};
use vlasov6d_mesh::Field3;

/// A Gaussian random field generator bound to a grid size and seed.
#[derive(Debug, Clone)]
pub struct GaussianField {
    pub n: usize,
    pub seed: u64,
}

impl GaussianField {
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n >= 2);
        Self { n, seed }
    }

    /// Draw a real field with power `p_code(k_code)` where `k_code = 2π·|m|`
    /// (box units). The DC mode is zero.
    pub fn generate<P: Fn(f64) -> f64>(&self, p_code: P) -> Field3 {
        let n = self.n;
        let ntot = n * n * n;
        let mut rng = StdRng::seed_from_u64(self.seed);
        // Real-space unit white noise (Box–Muller via rand's StandardNormal
        // would need rand_distr; inline a Marsaglia polar for independence
        // from feature flags).
        let mut noise = vec![Complex64::ZERO; ntot];
        let mut gauss = || -> f64 {
            loop {
                let u: f64 = rng.gen_range(-1.0..1.0);
                let v: f64 = rng.gen_range(-1.0..1.0);
                let s = u * u + v * v;
                if s > 0.0 && s < 1.0 {
                    return u * (-2.0 * s.ln() / s).sqrt();
                }
            }
        };
        for z in noise.iter_mut() {
            *z = Complex64::real(gauss());
        }
        let plan = Fft3::new([n, n, n]);
        plan.forward(&mut noise);

        let two_pi = 2.0 * std::f64::consts::PI;
        let sqrt_n = (ntot as f64).sqrt();
        for i0 in 0..n {
            let m0 = freq(i0, n);
            for i1 in 0..n {
                let m1 = freq(i1, n);
                for i2 in 0..n {
                    let m2 = freq(i2, n);
                    let idx = (i0 * n + i1) * n + i2;
                    if m0 == 0.0 && m1 == 0.0 && m2 == 0.0 {
                        noise[idx] = Complex64::ZERO;
                        continue;
                    }
                    let k = two_pi * (m0 * m0 + m1 * m1 + m2 * m2).sqrt();
                    let amp = (p_code(k).max(0.0)).sqrt() * sqrt_n;
                    noise[idx] = noise[idx].scale(amp);
                }
            }
        }
        plan.inverse(&mut noise);
        Field3::from_vec([n, n, n], noise.into_iter().map(|z| z.re).collect())
    }
}

/// Shell-binned power-spectrum estimator consistent with the generation
/// convention: returns `(k_code bin centers, P_code(k), mode counts)`.
pub fn measure_power(field: &Field3, n_bins: usize) -> (Vec<f64>, Vec<f64>, Vec<usize>) {
    let [n, n1, n2] = field.dims();
    assert!(n == n1 && n == n2, "estimator assumes a cubic grid");
    let ntot = (n * n * n) as f64;
    let mut data: Vec<Complex64> = field
        .as_slice()
        .iter()
        .map(|&v| Complex64::real(v))
        .collect();
    Fft3::new([n, n, n]).forward(&mut data);

    let two_pi = 2.0 * std::f64::consts::PI;
    let k_max = two_pi * (n as f64 / 2.0) * 3.0f64.sqrt();
    let db = k_max / n_bins as f64;
    let mut power = vec![0.0f64; n_bins];
    let mut counts = vec![0usize; n_bins];
    for i0 in 0..n {
        let m0 = freq(i0, n);
        for i1 in 0..n {
            let m1 = freq(i1, n);
            for i2 in 0..n {
                let m2 = freq(i2, n);
                if m0 == 0.0 && m1 == 0.0 && m2 == 0.0 {
                    continue;
                }
                let k = two_pi * (m0 * m0 + m1 * m1 + m2 * m2).sqrt();
                let b = ((k / db) as usize).min(n_bins - 1);
                power[b] += data[(i0 * n + i1) * n + i2].norm_sqr() / (ntot * ntot);
                counts[b] += 1;
            }
        }
    }
    let centers: Vec<f64> = (0..n_bins).map(|b| (b as f64 + 0.5) * db).collect();
    let spectra = power
        .iter()
        .zip(&counts)
        .map(|(p, &c)| if c > 0 { p / c as f64 } else { 0.0 })
        .collect();
    (centers, spectra, counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_is_deterministic_per_seed() {
        let g = GaussianField::new(16, 42);
        let a = g.generate(|k| 1e-3 / (1.0 + k * k));
        let b = g.generate(|k| 1e-3 / (1.0 + k * k));
        assert_eq!(a.as_slice(), b.as_slice());
        let c = GaussianField::new(16, 43).generate(|k| 1e-3 / (1.0 + k * k));
        assert_ne!(a.as_slice(), c.as_slice());
    }

    #[test]
    fn field_has_zero_mean() {
        let g = GaussianField::new(16, 1);
        let f = g.generate(|_| 1e-4);
        assert!(f.mean().abs() < 1e-12, "{}", f.mean());
    }

    #[test]
    fn measured_power_matches_input_white_spectrum() {
        // Flat P(k) = const: every shell should scatter around the input.
        let p0 = 2.5e-4;
        let g = GaussianField::new(32, 7);
        let f = g.generate(|_| p0);
        let (_, power, counts) = measure_power(&f, 12);
        for (b, (&p, &c)) in power.iter().zip(&counts).enumerate() {
            if c < 100 {
                continue; // skip poorly-sampled shells
            }
            assert!(
                (p / p0 - 1.0).abs() < 0.35,
                "bin {b}: P = {p:e} vs {p0:e} ({c} modes)"
            );
        }
    }

    #[test]
    fn measured_power_tracks_sloped_spectrum() {
        let g = GaussianField::new(32, 3);
        let f = g.generate(|k| 1e-2 / (k * k));
        let (centers, power, counts) = measure_power(&f, 12);
        // Power must decrease with k roughly like k⁻².
        let valid: Vec<(f64, f64)> = centers
            .iter()
            .zip(&power)
            .zip(&counts)
            .filter(|((_, _), &c)| c > 200)
            .map(|((k, p), _)| (*k, *p))
            .collect();
        assert!(valid.len() >= 3);
        let (k_lo, p_lo) = valid[0];
        let (k_hi, p_hi) = valid[valid.len() - 1];
        let slope = (p_hi / p_lo).ln() / (k_hi / k_lo).ln();
        assert!((slope + 2.0).abs() < 0.5, "slope {slope}");
    }

    #[test]
    fn variance_matches_integrated_power() {
        // σ² = Σ_k P(k)/V = (1/N²)Σ|δ_k|²... with our convention the field
        // variance equals the sum of P over all modes.
        let p0 = 1e-4;
        let n = 16;
        let g = GaussianField::new(n, 11);
        let f = g.generate(|_| p0);
        let var: f64 = f.as_slice().iter().map(|v| v * v).sum::<f64>() / f.len() as f64;
        let expect = p0 * (n.pow(3) - 1) as f64; // all modes except DC
        assert!(
            (var / expect - 1.0).abs() < 0.15,
            "var {var:e} vs {expect:e}"
        );
    }
}
