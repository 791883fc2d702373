//! Periodic Poisson solver and TreePM force splitting.
//!
//! The shared gravitational potential of the hybrid simulation (paper Eq. 2)
//! is solved spectrally on the PM mesh: in code units
//!
//! ```text
//! ∇²φ = S·δ(x)   ⇒   φ_k = -S δ_k / k²,   k = 2π m  (box length 1)
//! ```
//!
//! with `S = (3/2) Ω_m / a` supplied by the caller. The same machinery
//! provides the TreePM split (paper §5.1.2): the PM part keeps only the
//! long-range field (`exp(-k² r_s²)` taper) while the tree adds the
//! complementary short-range pair force ([`split`]).
//!
//! * [`solver`] — [`solver::PoissonSolver`]: FFT solve, optional CIC
//!   deconvolution, optional long-range taper, spectral or stencil gradients.
//! * [`split`] — the erfc-complementary short-range force/potential kernels
//!   and a from-scratch `erfc`.
//! * [`dist`] — the same solve over pencil-decomposed fields on the `mpisim`
//!   runtime (the parallel-PM code path of the paper's §5.1.3); the slab
//!   decomposition `DistributedVlasov` runs is the `P × 1` pencil grid.
//! * [`isolated`] — [`isolated::IsolatedPoisson`]: open-boundary solve by
//!   zero-padded Green's-function convolution (Hockney–Eastwood), used by
//!   the self-gravitating King-sphere scenarios.

pub mod dist;
pub mod isolated;
pub mod solver;
pub mod split;

pub use dist::DistPoisson;
pub use isolated::IsolatedPoisson;
pub use solver::{GreensForm, PoissonSolver};
pub use split::ForceSplit;
