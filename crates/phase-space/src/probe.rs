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

use crate::dist_fn::PhaseSpace;
use crate::exchange::{save_inner_slabs, GHOST_WIDTH};
use crate::plan;
use crate::sweep::{
    spatial_bundle_task, spatial_scalar_task, spatial_tile_task, sweep_ghosted, velocity_cell_task,
    Exec, SendMutPtr, VelocityWork, Window,
};
use vlasov6d_advection::lanes::LanesWork;
use vlasov6d_advection::line::{LineWork, Scheme};
use vlasov6d_advection::simd::{f32x8, LANES};
use vlasov6d_mesh::Field3;

/// Number of parallel tasks `sweep_spatial` launches for `d` in the task
/// shape `exec` (an [`Exec::resolve`] answer).
pub fn spatial_task_count(ps: &PhaseSpace, d: usize, exec: Exec) -> usize {
    plan::spatial_task_count(&ps.dims6(), d, exec)
}

/// Execute exactly one task of the spatial-sweep region — the same body the
/// parallel region runs, with fresh scratch state. `exec` is the task shape,
/// which must be the one [`Exec::resolve`] selects on this grid.
pub fn run_spatial_task(
    ps: &mut PhaseSpace,
    d: usize,
    cfl_per_u: &[f64],
    scheme: Scheme,
    exec: Exec,
    task: usize,
) {
    assert!(d < 3);
    assert_eq!(cfl_per_u.len(), ps.vgrid.n[d]);
    let dims = ps.dims6();
    assert_eq!(
        exec.resolve(scheme, &dims, d),
        exec,
        "sweep_spatial would not run {exec:?} tasks here"
    );
    assert!(task < plan::spatial_task_count(&dims, d, exec));
    let n_line = dims[d];
    let base = SendMutPtr(ps.as_mut_slice().as_mut_ptr());
    match exec {
        Exec::Scalar => {
            let mut scratch = (vec![0.0f32; n_line], LineWork::new());
            spatial_scalar_task(base, &dims, d, cfl_per_u, scheme, &mut scratch, task);
        }
        Exec::Simd => {
            let bundles = plan::Bundles::spatial(&dims, d);
            let mut scratch = (vec![f32x8::ZERO; n_line], LanesWork::new());
            spatial_bundle_task(base, &bundles, cfl_per_u, scheme, &mut scratch, task);
        }
        Exec::Lat => {
            let mut scratch = (vec![f32x8::ZERO; n_line * LANES], LanesWork::new());
            spatial_tile_task(base, &dims, cfl_per_u, scheme, &mut scratch, task);
        }
    }
}

/// The three parallel regions of the distributed sweeps in
/// [`crate::exchange`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GhostedRegion {
    /// The synchronous sweep: whole pencils between the neighbours' planes.
    Sync,
    /// The overlapped sweep before the wait: cells `[GHOST_WIDTH, n − GHOST_WIDTH)`.
    Interior,
    /// The overlapped sweep after the wait: the `GHOST_WIDTH` cells at either end.
    Edges,
}

/// The task shape a distributed sweep along `d` runs on this grid — what
/// [`plan::spatial_task_count`] and the `plan::spatial_*` plans take.
pub fn ghosted_exec(ps: &PhaseSpace, d: usize, scheme: Scheme) -> Exec {
    Exec::Simd.resolve(scheme, &ps.dims6(), d)
}

/// The cells along axis `d` one task of `region` writes on an `n`-cell block.
pub fn ghosted_out_cells(region: GhostedRegion, n: usize) -> Vec<usize> {
    let part = crate::partition_axis(n, GHOST_WIDTH);
    match region {
        GhostedRegion::Sync => (0..n).collect(),
        GhostedRegion::Interior => part.interior.collect(),
        GhostedRegion::Edges => part.low.chain(part.high).collect(),
    }
}

/// Run `region` of a distributed sweep along `d` with the given neighbour
/// planes ([`crate::exchange::extract_planes`] layout) — every task on the live pool, or
/// (`task = Some(t)`) task `t` alone with fresh scratch — through exactly the
/// code the sweeps in [`crate::exchange`] dispatch. The saved slabs of
/// `Edges` are taken from `ps` as passed in (the pre-sweep state).
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
        GhostedRegion::Sync => vec![Window::full(n, low, high)],
        GhostedRegion::Interior => vec![Window::interior(n)],
        GhostedRegion::Edges => {
            saved = save_inner_slabs(ps, d);
            Window::edges(n, low, high, &saved).into()
        }
    };
    sweep_ghosted(ps, d, cfl_per_u, scheme, &windows, task);
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
