//! Fast Fourier transforms for the `vlasov6d` workspace, written from scratch.
//!
//! The paper's PM gravity solver relies on Fujitsu's SSL II parallel 3-D FFT;
//! no equivalent exists in the offline Rust crate set, so this crate provides
//! the substrate:
//!
//! * [`Complex64`] — a minimal `f64` complex number (no external deps).
//! * [`FftPlan`] — a 1-D complex FFT plan: iterative radix-2 Cooley–Tukey for
//!   power-of-two lengths and Bluestein's chirp-z algorithm for everything
//!   else, with precomputed twiddles.
//! * [`real`] — real↔half-complex transforms built on the complex plans.
//! * [`fft3d`] — cache-friendly, rayon-parallel 3-D transforms of complex and
//!   real fields, the entry point used by the Poisson solver.
//! * [`pencil`] — the distributed 3-D FFT over `vlasov6d-mpisim`: a 2-D
//!   pencil decomposition on a `Pr × Pc` rank grid, two overlapped
//!   split-phase transpose stages. The slab (1-D) decomposition
//!   `DistributedVlasov` runs is its `Pc = 1` case, `Pencil2D::new(dims, P, 1)`.
//! * [`layout`] — declarative descriptors of every distributed layout and
//!   repartition; byte accounting is derived from them and the
//!   `vlasov6d-verify`'s layoutcheck proves them bijective.
//!
//! Normalisation convention: `forward` computes `X_k = Σ_j x_j e^{-2πi jk/n}`
//! (unscaled), `inverse` computes `x_j = (1/n) Σ_k X_k e^{+2πi jk/n}`, so
//! `inverse(forward(x)) == x`.

pub mod complex;
pub mod fft3d;
pub mod layout;
pub mod pencil;
pub mod plan;
pub mod real;

pub use complex::Complex64;
pub use fft3d::{Fft3, RealFft3};
pub use pencil::{DistFft3, Pencil2D, PencilTimings, StageTimings};
pub use plan::FftPlan;

/// Signed integer frequency of bin `i` on an `n`-point axis: `i` up to the
/// Nyquist bin `n/2`, `i − n` above it.
#[inline]
pub fn freq(i: usize, n: usize) -> f64 {
    if i <= n / 2 {
        i as f64
    } else {
        i as f64 - n as f64
    }
}
