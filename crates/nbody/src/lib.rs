//! TreePM N-body gravity for the cold-dark-matter component (paper §5.1.2).
//!
//! The CDM is "cold" — compactly supported in velocity space — so it is
//! represented by particles rather than a 6-D grid. Forces are split TreePM
//! style: a PM mesh (FFT Poisson with an `exp(-k²r_s²)` taper) carries the
//! long-range field shared with the Vlasov neutrinos, while a Barnes–Hut
//! octree sums the complementary short-range pair forces with the
//! erfc-complementary kernel of `vlasov6d-poisson::split`.
//!
//! * [`particles`] — the SoA particle store (f64, the paper's precision for
//!   N-body data) and lattice loaders.
//! * [`tree`] — the periodic Barnes–Hut octree and its short-range walks: the
//!   production group walk (one walk and one interaction list per cell of
//!   ≤ 32 particles, Barnes 1990) and the per-target scalar `f64` reference.
//! * [`pp`] — the lane-batched split-force pair kernel the group walk feeds,
//!   in the role of the paper's Phantom-GRAPE port (1.2×10⁹ interactions/s
//!   per A64FX core with SVE vs 2.4×10⁷ without): SoA `f32` lists relative
//!   to the group centre, the cutoff factor as one polynomial, minimum image
//!   and masks in the lanes.
//! * [`treepm`] — PM + tree composition returning canonical accelerations.
//! * [`integrator`] — comoving KDK leapfrog in `(x, u = a²ẋ)` variables.
//! * [`exchange`] — tree boundary (halo) particle exchange over the Cart3
//!   process grid, with a declarative, statically verified communication
//!   plan.
//!
//! The O(N²) and Ewald reference forces the tree and TreePM are validated
//! against live in the test-only `direct` module.

pub mod exchange;
pub mod integrator;
pub mod particles;
pub mod pp;
pub mod tree;
pub mod treepm;

pub use exchange::HaloExchange;
pub use particles::ParticleSet;
pub use tree::{Tree, WalkStats};
pub use treepm::TreePm;

#[cfg(test)]
mod direct;
