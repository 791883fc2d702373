//! Single-task replay entry points for racecheck's taint probe.
//!
//! `crates/racecheck` validates the sweep regions by executing *one task at
//! a time* on a fresh copy of the initial state and diffing: every changed
//! element must lie inside the task's declared [`crate::plan`], no two
//! tasks may change the same element, and splicing the single-task diffs
//! together must reproduce the full parallel sweep bitwise (which proves
//! the tasks neither write nor read each other's footprints). These entry
//! points run exactly the same task bodies the parallel regions dispatch —
//! they are the probe's handle on the real kernels, not reimplementations.
//!
//! There is one spatial sweep with four windows (see [`crate::sweep`]), so
//! one entry, [`run_ghosted_region`], replays all of them: the periodic
//! window of `sweep_spatial` and the full, interior and edge windows of the
//! distributed sweeps in [`crate::exchange`].

use crate::dist_fn::PhaseSpace;
use crate::exchange::{save_inner_slabs, GHOST_WIDTH};
use crate::plan;
use crate::sweep::{margin, sweep_ghosted, velocity_cell_task, Exec, VelocityWork, Window};
use vlasov6d_advection::line::Scheme;
use vlasov6d_mesh::Field3;

/// The parallel regions of the spatial sweep, one per window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GhostedRegion {
    /// `sweep_spatial`: whole pencils, wrapped onto themselves.
    Periodic,
    /// The synchronous distributed sweep: whole pencils between the
    /// neighbours' planes.
    Sync,
    /// The overlapped sweep before the wait: cells `[GHOST_WIDTH, n − GHOST_WIDTH)`.
    Interior,
    /// The overlapped sweep after the wait: the `GHOST_WIDTH` cells at either end.
    Edges,
}

/// The cells along axis `d` one task of `region` writes on an `n`-cell block.
pub fn ghosted_out_cells(region: GhostedRegion, n: usize) -> Vec<usize> {
    let part = crate::partition_axis(n, GHOST_WIDTH);
    match region {
        GhostedRegion::Periodic | GhostedRegion::Sync => (0..n).collect(),
        GhostedRegion::Interior => part.interior.collect(),
        GhostedRegion::Edges => part.low.chain(part.high).collect(),
    }
}

/// Run `region` of a spatial sweep along `d` — every task on the live pool,
/// or (`task = Some(t)`) task `t` alone with fresh scratch — through exactly
/// the code `sweep_spatial` and the sweeps in [`crate::exchange`] dispatch,
/// asking for lanes as they do. The distributed regions read the given
/// neighbour planes ([`crate::exchange::extract_planes`] layout; `Periodic`
/// ignores them), and `Edges` takes its saved slabs from `ps` as passed in
/// (the pre-sweep state).
pub fn run_ghosted_region(
    ps: &mut PhaseSpace,
    d: usize,
    cfl_per_u: &[f64],
    scheme: Scheme,
    region: GhostedRegion,
    (low, high): (&[f32], &[f32]),
    task: Option<usize>,
) {
    assert!(d < 3);
    assert_eq!(cfl_per_u.len(), ps.vgrid.n[d]);
    let n = ps.sdims[d];
    let saved;
    let windows = match region {
        GhostedRegion::Periodic => vec![Window::periodic(n, margin(cfl_per_u))],
        GhostedRegion::Sync => vec![Window::full(n, low, high)],
        GhostedRegion::Interior => vec![Window::interior(n)],
        GhostedRegion::Edges => {
            saved = save_inner_slabs(ps, d);
            Window::edges(n, low, high, &saved).into()
        }
    };
    sweep_ghosted(ps, d, cfl_per_u, scheme, Exec::Simd, &windows, task);
}

/// Number of parallel tasks `sweep_velocity` would launch (one per cell).
pub fn velocity_task_count(ps: &PhaseSpace) -> usize {
    plan::velocity_task_count(&ps.dims6())
}

/// Execute exactly one task of the velocity-sweep region (one cell's block).
pub fn run_velocity_task(
    ps: &mut PhaseSpace,
    d: usize,
    cfl_per_cell: &Field3,
    scheme: Scheme,
    exec: Exec,
    cell: usize,
) {
    assert!(d < 3);
    assert_eq!(cfl_per_cell.dims(), ps.sdims);
    let dims = ps.dims6();
    assert!(cell < plan::velocity_task_count(&dims));
    let cfl = cfl_per_cell.as_slice()[cell];
    let block = &mut ps.as_mut_slice()[plan::velocity_block(&dims, cell)];
    let mut work = VelocityWork::new();
    velocity_cell_task(&dims, d, cfl, scheme, exec, &mut work, block);
}
