//! 1-D complex FFT plans.
//!
//! Power-of-two lengths use the classic iterative radix-2 decimation-in-time
//! Cooley–Tukey algorithm with a precomputed bit-reversal permutation and
//! per-stage twiddle tables. Other lengths fall back to Bluestein's chirp-z
//! algorithm, which reduces an arbitrary-length DFT to a cyclic convolution of
//! power-of-two length — O(n log n) for any `n`, so callers never need to care
//! about grid-size factorisations.

// Hot path (runs in pool tasks every step): no bare unwrap/panic outside tests.
#![deny(clippy::unwrap_used, clippy::panic)]

use crate::complex::Complex64;
use std::sync::Arc;

/// A reusable plan for forward/inverse complex FFTs of a fixed length.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    kind: PlanKind,
}

#[derive(Debug, Clone)]
enum PlanKind {
    /// n == 1: identity.
    Identity,
    Radix2(Radix2Plan),
    Bluestein(Arc<BluesteinPlan>),
}

#[derive(Debug, Clone)]
struct Radix2Plan {
    /// Bit-reversal permutation indices.
    rev: Arc<[u32]>,
    /// Twiddles e^{-2πi k / n} for k in 0..n/2 (forward sign).
    twiddles: Arc<[Complex64]>,
}

#[derive(Debug)]
struct BluesteinPlan {
    /// Chirp a_j = e^{-iπ j²/n} (forward sign).
    chirp: Vec<Complex64>,
    /// Forward FFT (length m, power of two ≥ 2n-1) of the zero-padded
    /// conjugate-chirp kernel b_j.
    kernel_fft: Vec<Complex64>,
    inner: FftPlan,
}

impl FftPlan {
    /// Build a plan for length `n ≥ 1`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "FFT length must be at least 1");
        let kind = if n == 1 {
            PlanKind::Identity
        } else if n.is_power_of_two() {
            PlanKind::Radix2(Radix2Plan::new(n))
        } else {
            PlanKind::Bluestein(Arc::new(BluesteinPlan::new(n)))
        };
        Self { n, kind }
    }

    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        false
    }

    /// In-place forward DFT (unscaled).
    pub fn forward(&self, data: &mut [Complex64]) {
        self.transform(data, false)
    }

    /// In-place inverse DFT, scaled by `1/n` so it inverts [`Self::forward`].
    pub fn inverse(&self, data: &mut [Complex64]) {
        self.transform(data, true);
        let s = 1.0 / self.n as f64;
        for z in data.iter_mut() {
            *z = z.scale(s);
        }
    }

    /// Unscaled transform with selectable sign.
    fn transform(&self, data: &mut [Complex64], inverse: bool) {
        assert_eq!(data.len(), self.n, "buffer length must equal plan length");
        match &self.kind {
            PlanKind::Identity => {}
            PlanKind::Radix2(p) => p.run(data, inverse),
            PlanKind::Bluestein(p) => p.run(data, inverse),
        }
    }
}

impl Radix2Plan {
    fn new(n: usize) -> Self {
        debug_assert!(n.is_power_of_two() && n >= 2);
        let bits = n.trailing_zeros();
        let rev: Vec<u32> = (0..n as u32)
            .map(|i| i.reverse_bits() >> (32 - bits))
            .collect();
        let twiddles: Vec<Complex64> = (0..n / 2)
            .map(|k| Complex64::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
            .collect();
        Self {
            rev: rev.into(),
            twiddles: twiddles.into(),
        }
    }

    fn run(&self, data: &mut [Complex64], inverse: bool) {
        let n = data.len();
        // Bit-reversal permutation (swap once per pair).
        for i in 0..n {
            let j = self.rev[i] as usize;
            if j > i {
                data.swap(i, j);
            }
        }
        // Iterative butterflies. Stage with half-size `half` uses twiddle
        // stride n / (2*half).
        let mut half = 1usize;
        while half < n {
            let stride = n / (2 * half);
            let mut base = 0usize;
            while base < n {
                for k in 0..half {
                    let mut w = self.twiddles[k * stride];
                    if inverse {
                        w = w.conj();
                    }
                    let lo = base + k;
                    let hi = lo + half;
                    let t = data[hi] * w;
                    data[hi] = data[lo] - t;
                    data[lo] += t;
                }
                base += 2 * half;
            }
            half *= 2;
        }
    }
}

impl BluesteinPlan {
    fn new(n: usize) -> Self {
        let m = (2 * n - 1).next_power_of_two();
        // Chirp with double-angle bookkeeping kept exact via modular j² to
        // avoid precision loss for large n: j² mod 2n determines the phase.
        let chirp: Vec<Complex64> = (0..n)
            .map(|j| {
                let jj = ((j as u128 * j as u128) % (2 * n as u128)) as f64;
                Complex64::cis(-std::f64::consts::PI * jj / n as f64)
            })
            .collect();
        let inner = FftPlan::new(m);
        // Kernel b_j = conj(chirp_j) for |j| < n, wrapped cyclically into m.
        let mut kernel = vec![Complex64::ZERO; m];
        kernel[0] = chirp[0].conj();
        for j in 1..n {
            let b = chirp[j].conj();
            kernel[j] = b;
            kernel[m - j] = b;
        }
        inner.forward(&mut kernel);
        Self {
            chirp,
            kernel_fft: kernel,
            inner,
        }
    }

    fn run(&self, data: &mut [Complex64], inverse: bool) {
        let n = data.len();
        let m = self.kernel_fft.len();
        // The inverse transform of sign +1 equals conj(forward(conj(x))).
        if inverse {
            for z in data.iter_mut() {
                *z = z.conj();
            }
        }
        let mut buf = vec![Complex64::ZERO; m];
        for j in 0..n {
            buf[j] = data[j] * self.chirp[j];
        }
        self.inner.forward(&mut buf);
        for (z, k) in buf.iter_mut().zip(self.kernel_fft.iter()) {
            *z *= *k;
        }
        self.inner.inverse(&mut buf);
        for j in 0..n {
            data[j] = buf[j] * self.chirp[j];
        }
        if inverse {
            for z in data.iter_mut() {
                *z = z.conj();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference O(n²) DFT for validation.
    fn dft(input: &[Complex64], inverse: bool) -> Vec<Complex64> {
        let n = input.len();
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut out = vec![Complex64::ZERO; n];
        for (k, o) in out.iter_mut().enumerate() {
            for (j, &x) in input.iter().enumerate() {
                let w = Complex64::cis(
                    sign * 2.0 * std::f64::consts::PI * (j * k % n) as f64 / n as f64,
                );
                *o += x * w;
            }
            if inverse {
                *o = o.scale(1.0 / n as f64);
            }
        }
        out
    }

    fn random_signal(n: usize, seed: u64) -> Vec<Complex64> {
        // Tiny deterministic LCG — keeps the test free of rand plumbing.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        (0..n).map(|_| Complex64::new(next(), next())).collect()
    }

    fn max_err(a: &[Complex64], b: &[Complex64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn matches_reference_dft_power_of_two() {
        for &n in &[2usize, 4, 8, 32, 128] {
            let plan = FftPlan::new(n);
            let sig = random_signal(n, n as u64);
            let mut got = sig.clone();
            plan.forward(&mut got);
            let expect = dft(&sig, false);
            assert!(max_err(&got, &expect) < 1e-9 * n as f64, "n = {n}");
        }
    }

    #[test]
    fn matches_reference_dft_arbitrary_lengths() {
        for &n in &[3usize, 5, 6, 12, 15, 17, 100, 243] {
            let plan = FftPlan::new(n);
            let sig = random_signal(n, 7 * n as u64 + 1);
            let mut got = sig.clone();
            plan.forward(&mut got);
            let expect = dft(&sig, false);
            assert!(
                max_err(&got, &expect) < 1e-8 * n as f64,
                "n = {n}: err {}",
                max_err(&got, &expect)
            );
        }
    }

    #[test]
    fn round_trip_is_identity() {
        for &n in &[1usize, 2, 7, 16, 48, 1024] {
            let plan = FftPlan::new(n);
            let sig = random_signal(n, 3 * n as u64 + 5);
            let mut buf = sig.clone();
            plan.forward(&mut buf);
            plan.inverse(&mut buf);
            assert!(max_err(&buf, &sig) < 1e-10 * (n as f64).max(1.0), "n = {n}");
        }
    }

    #[test]
    fn delta_transforms_to_constant() {
        let n = 64;
        let plan = FftPlan::new(n);
        let mut buf = vec![Complex64::ZERO; n];
        buf[0] = Complex64::ONE;
        plan.forward(&mut buf);
        for z in &buf {
            assert!((z.re - 1.0).abs() < 1e-12 && z.im.abs() < 1e-12);
        }
    }

    #[test]
    fn single_mode_lands_in_single_bin() {
        let n = 32;
        let k0 = 5;
        let plan = FftPlan::new(n);
        let mut buf: Vec<Complex64> = (0..n)
            .map(|j| Complex64::cis(2.0 * std::f64::consts::PI * (k0 * j) as f64 / n as f64))
            .collect();
        plan.forward(&mut buf);
        for (k, z) in buf.iter().enumerate() {
            let expect = if k == k0 { n as f64 } else { 0.0 };
            assert!(
                (z.re - expect).abs() < 1e-9 && z.im.abs() < 1e-9,
                "bin {k}: {z:?}"
            );
        }
    }

    #[test]
    fn parseval_theorem_holds() {
        let n = 100; // exercises Bluestein
        let plan = FftPlan::new(n);
        let sig = random_signal(n, 99);
        let mut buf = sig.clone();
        plan.forward(&mut buf);
        let time_energy: f64 = sig.iter().map(|z| z.norm_sqr()).sum();
        let freq_energy: f64 = buf.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-9 * time_energy);
    }

    #[test]
    fn linearity() {
        let n = 16;
        let plan = FftPlan::new(n);
        let a = random_signal(n, 1);
        let b = random_signal(n, 2);
        let mut fa = a.clone();
        let mut fb = b.clone();
        plan.forward(&mut fa);
        plan.forward(&mut fb);
        let mut sum: Vec<Complex64> = a.iter().zip(&b).map(|(x, y)| *x + y.scale(2.0)).collect();
        plan.forward(&mut sum);
        for i in 0..n {
            let expect = fa[i] + fb[i].scale(2.0);
            assert!((sum[i] - expect).abs() < 1e-10);
        }
    }
}
