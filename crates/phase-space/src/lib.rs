//! The six-dimensional distribution function and its update machinery.
//!
//! Storage follows the paper's List 1 exactly: a single flat `f32` array with
//! layout `f[ix][iy][iz][iux][iuy][iuz]` (`iuz` fastest). The three spatial
//! axes may be a subdomain of a distributed run; the three velocity axes are
//! never decomposed (paper §5.1.3), which keeps every velocity moment a
//! rank-local reduction.
//!
//! * [`grid`] — the velocity-space grid `[-V, V)³` and axis metadata.
//! * [`dist_fn`] — [`PhaseSpace`]: storage, indexing, initialisation.
//! * [`moments`] — density / momentum / velocity-dispersion reductions.
//! * [`sweep`] — the directional-splitting line sweeps in the paper's three
//!   execution variants (scalar, SIMD lanes, SIMD + LAT transpose).
//! * [`plan`] — the task→footprint index plans of every parallel sweep
//!   region (single source of truth, re-checked by racecheck in `crates/verify`).
//! * [`probe`] — single-task replay entry points for racecheck's taint probe.
//! * [`exchange`] — spatial ghost-plane exchange and distributed sweeps over
//!   `vlasov6d-mpisim`.

pub mod dist_fn;
pub mod exchange;
pub mod grid;
pub mod moments;
pub mod plan;
pub mod probe;
pub mod sweep;

pub use dist_fn::PhaseSpace;
pub use grid::VelocityGrid;
pub use sweep::{partition_axis, AxisPartition, Exec};

/// The six phase-space axes in sweep order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    X,
    Y,
    Z,
    Ux,
    Uy,
    Uz,
}

impl Axis {
    /// Position of this axis in the storage layout (0..6).
    pub(crate) fn layout_index(self) -> usize {
        match self {
            Axis::X => 0,
            Axis::Y => 1,
            Axis::Z => 2,
            Axis::Ux => 3,
            Axis::Uy => 4,
            Axis::Uz => 5,
        }
    }

    /// The spatial (0..3) or velocity (0..3) component index.
    pub fn component(self) -> usize {
        self.layout_index() % 3
    }

    pub const ALL: [Axis; 6] = [Axis::X, Axis::Y, Axis::Z, Axis::Ux, Axis::Uy, Axis::Uz];
}
