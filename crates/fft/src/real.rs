//! Real ↔ half-complex transforms.
//!
//! A real signal of length `n` has a Hermitian-symmetric spectrum, fully
//! described by the first `n/2 + 1` bins. We use the standard "pack two real
//! points into one complex point" trick: an `n`-point real FFT costs one
//! `n/2`-point complex FFT plus an O(n) untangling pass — exactly what the PM
//! solver wants for its density grids.
//!
//! Requires even `n` (all PM/Vlasov grids in this workspace are even).

// Hot path (runs in pool tasks every step): no bare unwrap/panic outside tests.
#![deny(clippy::unwrap_used, clippy::panic)]

use crate::complex::Complex64;
use crate::plan::FftPlan;

/// Plan for forward/inverse real FFTs of fixed even length `n`.
#[derive(Debug, Clone)]
pub(crate) struct RealFftPlan {
    n: usize,
    half_plan: FftPlan,
    /// Twiddles e^{-2πi k/n} for k in 0..n/4+1 used in the untangling pass.
    twiddles: Vec<Complex64>,
}

impl RealFftPlan {
    pub fn new(n: usize) -> Self {
        assert!(
            n >= 2 && n.is_multiple_of(2),
            "real FFT length must be even and ≥ 2, got {n}"
        );
        let half_plan = FftPlan::new(n / 2);
        let twiddles = (0..n / 2 + 1)
            .map(|k| Complex64::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
            .collect();
        Self {
            n,
            half_plan,
            twiddles,
        }
    }

    /// Number of complex output bins, `n/2 + 1`.
    pub fn spectrum_len(&self) -> usize {
        self.n / 2 + 1
    }

    /// Forward transform: `input.len() == n`, `output.len() == n/2 + 1`.
    /// Unscaled (same convention as [`FftPlan::forward`]).
    pub fn forward(&self, input: &[f64], output: &mut [Complex64]) {
        let n = self.n;
        assert_eq!(input.len(), n);
        assert_eq!(output.len(), self.spectrum_len());
        let h = n / 2;
        // Pack x[2j] + i x[2j+1] and run the half-size complex FFT.
        let mut z: Vec<Complex64> = (0..h)
            .map(|j| Complex64::new(input[2 * j], input[2 * j + 1]))
            .collect();
        self.half_plan.forward(&mut z);
        // Untangle: X_k = (Z_k + conj(Z_{h-k}))/2 - i w^k (Z_k - conj(Z_{h-k}))/2.
        for k in 0..=h {
            let zk = if k == h { z[0] } else { z[k] };
            let zc = if k == 0 { z[0].conj() } else { z[h - k].conj() };
            let even = (zk + zc).scale(0.5);
            let odd = (zk - zc).scale(0.5);
            let w = self.twiddles[k];
            // -i * w * odd
            let rotated = Complex64::new(odd.im, -odd.re) * w;
            output[k] = even + rotated;
        }
    }

    /// Inverse transform: reconstructs `n` real samples from `n/2+1` bins,
    /// scaled by `1/n` so it inverts [`Self::forward`].
    pub fn inverse(&self, spectrum: &[Complex64], output: &mut [f64]) {
        let n = self.n;
        assert_eq!(spectrum.len(), self.spectrum_len());
        assert_eq!(output.len(), n);
        let h = n / 2;
        // Re-tangle into the half-size complex spectrum.
        let mut z = vec![Complex64::ZERO; h];
        for k in 0..h {
            let xk = spectrum[k];
            let xc = spectrum[h - k].conj();
            let even = xk + xc;
            let odd = xk - xc;
            let w = self.twiddles[k].conj();
            // +i * w * odd
            let rotated = Complex64::new(-odd.im, odd.re) * w;
            z[k] = (even + rotated).scale(0.5);
        }
        self.half_plan.inverse(&mut z);
        for j in 0..h {
            output[2 * j] = z[j].re;
            output[2 * j + 1] = z[j].im;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FftPlan;

    fn random_real(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(12345);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    #[test]
    fn matches_complex_fft() {
        for &n in &[4usize, 8, 12, 16, 64, 100] {
            let rplan = RealFftPlan::new(n);
            let sig = random_real(n, n as u64);
            let mut spec = vec![Complex64::ZERO; rplan.spectrum_len()];
            rplan.forward(&sig, &mut spec);

            let cplan = FftPlan::new(n);
            let mut full: Vec<Complex64> = sig.iter().map(|&x| Complex64::real(x)).collect();
            cplan.forward(&mut full);
            for k in 0..rplan.spectrum_len() {
                assert!(
                    (spec[k] - full[k]).abs() < 1e-10 * n as f64,
                    "n={n} k={k}: {:?} vs {:?}",
                    spec[k],
                    full[k]
                );
            }
        }
    }

    #[test]
    fn round_trip_is_identity() {
        for &n in &[2usize, 6, 8, 32, 90] {
            let plan = RealFftPlan::new(n);
            let sig = random_real(n, 17 * n as u64);
            let mut spec = vec![Complex64::ZERO; plan.spectrum_len()];
            plan.forward(&sig, &mut spec);
            let mut back = vec![0.0; n];
            plan.inverse(&spec, &mut back);
            for (a, b) in sig.iter().zip(&back) {
                assert!((a - b).abs() < 1e-11, "n = {n}");
            }
        }
    }

    #[test]
    fn dc_and_nyquist_bins_are_real() {
        let n = 16;
        let plan = RealFftPlan::new(n);
        let sig = random_real(n, 5);
        let mut spec = vec![Complex64::ZERO; plan.spectrum_len()];
        plan.forward(&sig, &mut spec);
        assert!(spec[0].im.abs() < 1e-12);
        assert!(spec[n / 2].im.abs() < 1e-12);
        let sum: f64 = sig.iter().sum();
        assert!((spec[0].re - sum).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_length_rejected() {
        let _ = RealFftPlan::new(9);
    }
}
