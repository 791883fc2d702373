//! Cache-friendly, rayon-parallel 3-D FFTs.
//!
//! Layout convention (used by every grid in the workspace): row-major
//! `[n0][n1][n2]`, i.e. `index = (i0·n1 + i1)·n2 + i2` with `i2` fastest.
//!
//! * [`Fft3`] — complex-to-complex 3-D transform.
//! * [`RealFft3`] — real-to-half-complex transform in FFTW `r2c` layout:
//!   a real `[n0][n1][n2]` field maps to complex `[n0][n1][n2/2+1]`.
//!
//! Lines along the innermost axis are contiguous and parallelised with
//! `par_chunks_mut`; the middle axis is handled plane-by-plane (planes are
//! disjoint `&mut` chunks); only the outermost axis needs a raw-pointer
//! wrapper to hand rayon provably disjoint strided columns — the single
//! `unsafe` in this crate, with the disjointness argument documented inline.

// Hot path (runs in pool tasks every step): no bare unwrap/panic outside tests.
#![deny(clippy::unwrap_used, clippy::panic)]

use crate::complex::Complex64;
use crate::plan::FftPlan;
use crate::real::RealFftPlan;
use rayon::prelude::*;

/// Shared mutable base pointer for provably disjoint strided writes.
///
/// Safety contract: every parallel task derived from one `SendMutPtr` must
/// touch an index set disjoint from all other tasks'.
#[derive(Clone, Copy)]
struct SendMutPtr(*mut Complex64);
// SAFETY: [racecheck: fft.c2c.axis0.columns, fft.r2c.axis0.columns] — the
// wrapper only moves the raw pointer across pool workers; every dereference
// site upholds the contract above (disjoint index sets per task, proved by
// racecheck for the registered column regions).
unsafe impl Send for SendMutPtr {}
// SAFETY: [racecheck: fft.c2c.axis0.columns] — `&SendMutPtr` exposes only a
// `Copy` of the pointer; aliasing discipline is enforced at the dereference
// sites, as for `Send`.
unsafe impl Sync for SendMutPtr {}

/// One task of the axis-0 column regions (`fft.{c2c,r2c}.axis0.columns`):
/// transform every axis-0 column at fixed `i1` of an `[n0][n1][n2]` grid.
/// Tasks for different `i1` touch indices `(i0·n1 + i1)·n2 + i2`, which
/// carry `i1` — pairwise disjoint index sets (verified by racecheck).
fn axis0_column_task(
    base: SendMutPtr,
    plan: &FftPlan,
    inverse: bool,
    n0: usize,
    n1: usize,
    n2: usize,
    i1: usize,
) {
    let mut buf = vec![Complex64::ZERO; n0];
    for i2 in 0..n2 {
        for (i0, b) in buf.iter_mut().enumerate() {
            // SAFETY: disjointness by i1 as argued above; indices in bounds
            // because i0 < n0, i1 < n1, i2 < n2.
            *b = unsafe { *base.0.add((i0 * n1 + i1) * n2 + i2) };
        }
        if inverse {
            // Unscaled inverse: conj → forward → conj (scaling applied once
            // at the end by the caller).
            for z in buf.iter_mut() {
                *z = z.conj();
            }
            plan.forward(&mut buf);
            for z in buf.iter_mut() {
                *z = z.conj();
            }
        } else {
            plan.forward(&mut buf);
        }
        for (i0, b) in buf.iter().enumerate() {
            // SAFETY: same disjoint-by-i1 index set and bounds as the
            // gather above; no other task writes these elements.
            unsafe { *base.0.add((i0 * n1 + i1) * n2 + i2) = *b };
        }
    }
}

/// Complex 3-D FFT plan for fixed dimensions.
#[derive(Debug, Clone)]
pub struct Fft3 {
    dims: [usize; 3],
    plans: [FftPlan; 3],
}

impl Fft3 {
    pub fn new(dims: [usize; 3]) -> Self {
        assert!(dims.iter().all(|&d| d >= 1));
        Self {
            dims,
            plans: [
                FftPlan::new(dims[0]),
                FftPlan::new(dims[1]),
                FftPlan::new(dims[2]),
            ],
        }
    }

    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// In-place forward transform (unscaled).
    pub fn forward(&self, data: &mut [Complex64]) {
        let _obs = vlasov6d_obs::span!("fft.c2c3d.forward");
        self.transform(data, false);
    }

    /// In-place inverse transform (scaled by `1/(n0·n1·n2)`).
    pub fn inverse(&self, data: &mut [Complex64]) {
        let _obs = vlasov6d_obs::span!("fft.c2c3d.inverse");
        self.transform(data, true);
        let s = 1.0 / self.len() as f64;
        data.par_iter_mut().for_each(|z| *z = z.scale(s));
    }

    fn transform(&self, data: &mut [Complex64], inverse: bool) {
        assert_eq!(data.len(), self.len());
        let [n0, n1, n2] = self.dims;
        let run = |plan: &FftPlan, line: &mut [Complex64]| {
            if inverse {
                // Unscaled inverse: conj → forward → conj (scaling applied once
                // at the end by the caller).
                for z in line.iter_mut() {
                    *z = z.conj();
                }
                plan.forward(line);
                for z in line.iter_mut() {
                    *z = z.conj();
                }
            } else {
                plan.forward(line);
            }
        };

        // Axis 2: contiguous lines.
        data.par_chunks_mut(n2)
            .for_each(|line| run(&self.plans[2], line));

        // Axis 1: parallel over i0-planes, gather/scatter strided columns.
        data.par_chunks_mut(n1 * n2).for_each(|plane| {
            let mut buf = vec![Complex64::ZERO; n1];
            for i2 in 0..n2 {
                for i1 in 0..n1 {
                    buf[i1] = plane[i1 * n2 + i2];
                }
                run(&self.plans[1], &mut buf);
                for i1 in 0..n1 {
                    plane[i1 * n2 + i2] = buf[i1];
                }
            }
        });

        // Axis 0: parallel over i1. Tasks for different i1 touch indices
        // (i0·n1 + i1)·n2 + i2 which differ in the `i1·n2` component — the
        // index sets are disjoint, satisfying SendMutPtr's contract.
        let base = SendMutPtr(data.as_mut_ptr());
        (0..n1)
            .into_par_iter()
            .for_each(|i1| axis0_column_task(base, &self.plans[0], inverse, n0, n1, n2, i1));
    }
}

/// Real-to-half-complex 3-D FFT plan (FFTW `r2c` layout).
#[derive(Debug, Clone)]
pub struct RealFft3 {
    dims: [usize; 3],
    rplan: RealFftPlan,
    plans01: [FftPlan; 2],
}

impl RealFft3 {
    /// `dims = [n0, n1, n2]` with even `n2`.
    pub fn new(dims: [usize; 3]) -> Self {
        assert!(
            dims[2].is_multiple_of(2) && dims[2] >= 2,
            "innermost dimension must be even"
        );
        Self {
            dims,
            rplan: RealFftPlan::new(dims[2]),
            plans01: [FftPlan::new(dims[0]), FftPlan::new(dims[1])],
        }
    }

    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// Number of complex bins along the innermost axis, `n2/2 + 1`.
    pub fn spectrum_n2(&self) -> usize {
        self.dims[2] / 2 + 1
    }

    /// Total length of the half-complex spectrum buffer.
    pub fn spectrum_len(&self) -> usize {
        self.dims[0] * self.dims[1] * self.spectrum_n2()
    }

    /// Forward transform: real `[n0][n1][n2]` → complex `[n0][n1][n2/2+1]`.
    /// Unscaled.
    pub fn forward(&self, input: &[f64], spectrum: &mut [Complex64]) {
        let _obs = vlasov6d_obs::span!("fft.r2c3d.forward");
        let [n0, n1, n2] = self.dims;
        let nzh = self.spectrum_n2();
        assert_eq!(input.len(), n0 * n1 * n2);
        assert_eq!(spectrum.len(), self.spectrum_len());

        // Real FFT along axis 2, line by line.
        spectrum
            .par_chunks_mut(nzh)
            .zip(input.par_chunks(n2))
            .for_each(|(out_line, in_line)| self.rplan.forward(in_line, out_line));

        // Complex FFTs along axes 1 and 0 on the half-spectrum grid.
        self.transform01(spectrum, false);
    }

    /// Inverse transform: complex `[n0][n1][n2/2+1]` → real `[n0][n1][n2]`,
    /// scaled by `1/(n0·n1·n2)`. Consumes a scratch copy of the spectrum.
    pub fn inverse(&self, spectrum: &[Complex64], output: &mut [f64]) {
        let _obs = vlasov6d_obs::span!("fft.r2c3d.inverse");
        let [n0, n1, n2] = self.dims;
        let nzh = self.spectrum_n2();
        assert_eq!(spectrum.len(), self.spectrum_len());
        assert_eq!(output.len(), n0 * n1 * n2);
        let mut work = spectrum.to_vec();
        self.transform01(&mut work, true);
        // 1/(n0·n1) scaling was applied by transform01's inverse passes? No —
        // we run unscaled passes and apply the full 1/(n0 n1) here together
        // with RealFftPlan::inverse's built-in 1/n2.
        let s = 1.0 / (n0 * n1) as f64;
        work.par_iter_mut().for_each(|z| *z = z.scale(s));
        output
            .par_chunks_mut(n2)
            .zip(work.par_chunks(nzh))
            .for_each(|(out_line, in_line)| self.rplan.inverse(in_line, out_line));
    }

    /// Unscaled complex passes along axes 0 and 1 of the `[n0][n1][nzh]` grid.
    fn transform01(&self, data: &mut [Complex64], inverse: bool) {
        let [n0, n1, _] = self.dims;
        let nzh = self.spectrum_n2();
        let run = |plan: &FftPlan, line: &mut [Complex64]| {
            if inverse {
                for z in line.iter_mut() {
                    *z = z.conj();
                }
                plan.forward(line);
                for z in line.iter_mut() {
                    *z = z.conj();
                }
            } else {
                plan.forward(line);
            }
        };

        // Axis 1.
        data.par_chunks_mut(n1 * nzh).for_each(|plane| {
            let mut buf = vec![Complex64::ZERO; n1];
            for i2 in 0..nzh {
                for i1 in 0..n1 {
                    buf[i1] = plane[i1 * nzh + i2];
                }
                run(&self.plans01[1], &mut buf);
                for i1 in 0..n1 {
                    plane[i1 * nzh + i2] = buf[i1];
                }
            }
        });

        // Axis 0 — same disjoint-by-i1 argument as in `Fft3::transform`.
        let base = SendMutPtr(data.as_mut_ptr());
        (0..n1)
            .into_par_iter()
            .for_each(|i1| axis0_column_task(base, &self.plans01[0], inverse, n0, n1, nzh, i1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_field(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(99);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    /// Naive 3-D DFT reference.
    fn dft3(input: &[Complex64], dims: [usize; 3]) -> Vec<Complex64> {
        let [n0, n1, n2] = dims;
        let mut out = vec![Complex64::ZERO; input.len()];
        for k0 in 0..n0 {
            for k1 in 0..n1 {
                for k2 in 0..n2 {
                    let mut acc = Complex64::ZERO;
                    for j0 in 0..n0 {
                        for j1 in 0..n1 {
                            for j2 in 0..n2 {
                                let phase = -2.0 * std::f64::consts::PI * (j0 * k0) as f64
                                    / n0 as f64
                                    - 2.0 * std::f64::consts::PI * (j1 * k1) as f64 / n1 as f64
                                    - 2.0 * std::f64::consts::PI * (j2 * k2) as f64 / n2 as f64;
                                acc += input[(j0 * n1 + j1) * n2 + j2] * Complex64::cis(phase);
                            }
                        }
                    }
                    out[(k0 * n1 + k1) * n2 + k2] = acc;
                }
            }
        }
        out
    }

    #[test]
    fn complex_3d_matches_reference() {
        let dims = [4usize, 3, 8];
        let n: usize = dims.iter().product();
        let sig: Vec<Complex64> = random_field(2 * n, 11)
            .chunks(2)
            .map(|c| Complex64::new(c[0], c[1]))
            .collect();
        let plan = Fft3::new(dims);
        let mut got = sig.clone();
        plan.forward(&mut got);
        let expect = dft3(&sig, dims);
        for (a, b) in got.iter().zip(&expect) {
            assert!((*a - *b).abs() < 1e-9, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn complex_3d_round_trip() {
        let dims = [8usize, 8, 8];
        let n: usize = dims.iter().product();
        let sig: Vec<Complex64> = random_field(2 * n, 5)
            .chunks(2)
            .map(|c| Complex64::new(c[0], c[1]))
            .collect();
        let plan = Fft3::new(dims);
        let mut buf = sig.clone();
        plan.forward(&mut buf);
        plan.inverse(&mut buf);
        for (a, b) in buf.iter().zip(&sig) {
            assert!((*a - *b).abs() < 1e-11);
        }
    }

    /// Tiny-grid round trip sized for the Miri interpreter. This is the
    /// target of the CI job `cargo miri test -p vlasov6d-fft miri_smoke`,
    /// which validates the unsafe disjoint-column write-back through
    /// `SendMutPtr`.
    #[test]
    fn miri_smoke_round_trip() {
        let dims = [4usize, 4, 4];
        let n: usize = dims.iter().product();
        let sig: Vec<Complex64> = random_field(2 * n, 3)
            .chunks(2)
            .map(|c| Complex64::new(c[0], c[1]))
            .collect();
        let plan = Fft3::new(dims);
        let mut buf = sig.clone();
        plan.forward(&mut buf);
        plan.inverse(&mut buf);
        for (a, b) in buf.iter().zip(&sig) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn real_3d_matches_complex_3d() {
        let dims = [4usize, 6, 8];
        let n: usize = dims.iter().product();
        let sig = random_field(n, 21);
        let rplan = RealFft3::new(dims);
        let mut spec = vec![Complex64::ZERO; rplan.spectrum_len()];
        rplan.forward(&sig, &mut spec);

        let cplan = Fft3::new(dims);
        let mut full: Vec<Complex64> = sig.iter().map(|&x| Complex64::real(x)).collect();
        cplan.forward(&mut full);
        let nzh = rplan.spectrum_n2();
        for i0 in 0..dims[0] {
            for i1 in 0..dims[1] {
                for i2 in 0..nzh {
                    let a = spec[(i0 * dims[1] + i1) * nzh + i2];
                    let b = full[(i0 * dims[1] + i1) * dims[2] + i2];
                    assert!((a - b).abs() < 1e-9, "({i0},{i1},{i2}): {a:?} vs {b:?}");
                }
            }
        }
    }

    #[test]
    fn real_3d_round_trip() {
        let dims = [6usize, 4, 10];
        let n: usize = dims.iter().product();
        let sig = random_field(n, 3);
        let plan = RealFft3::new(dims);
        let mut spec = vec![Complex64::ZERO; plan.spectrum_len()];
        plan.forward(&sig, &mut spec);
        let mut back = vec![0.0; n];
        plan.inverse(&spec, &mut back);
        for (a, b) in sig.iter().zip(&back) {
            assert!((a - b).abs() < 1e-11);
        }
    }

    #[test]
    fn real_3d_dc_bin_is_total_sum() {
        let dims = [4usize, 4, 4];
        let sig = random_field(64, 8);
        let plan = RealFft3::new(dims);
        let mut spec = vec![Complex64::ZERO; plan.spectrum_len()];
        plan.forward(&sig, &mut spec);
        let sum: f64 = sig.iter().sum();
        assert!((spec[0].re - sum).abs() < 1e-10 && spec[0].im.abs() < 1e-12);
    }

    #[test]
    fn plane_wave_lands_in_one_bin() {
        let dims = [8usize, 8, 8];
        let (k0, k1, k2) = (2usize, 3, 1);
        let mut sig = vec![0.0; 512];
        for i0 in 0..8 {
            for i1 in 0..8 {
                for i2 in 0..8 {
                    let phase =
                        2.0 * std::f64::consts::PI * (k0 * i0 + k1 * i1 + k2 * i2) as f64 / 8.0;
                    sig[(i0 * 8 + i1) * 8 + i2] = phase.cos();
                }
            }
        }
        let plan = RealFft3::new(dims);
        let mut spec = vec![Complex64::ZERO; plan.spectrum_len()];
        plan.forward(&sig, &mut spec);
        let nzh = plan.spectrum_n2();
        // cos splits between (k) and (-k); only +k is stored in r2c layout.
        let hit = spec[(k0 * 8 + k1) * nzh + k2];
        assert!((hit.re - 256.0).abs() < 1e-9, "{hit:?}"); // N/2 = 512/2
        let mut energy_elsewhere = 0.0;
        for (i, z) in spec.iter().enumerate() {
            if i != (k0 * 8 + k1) * nzh + k2 {
                energy_elsewhere += z.norm_sqr();
            }
        }
        assert!(energy_elsewhere < 1e-12);
    }
}
