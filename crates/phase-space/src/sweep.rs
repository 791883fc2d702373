//! Directional-splitting sweeps over the 6-D grid.
//!
//! A sweep applies the 1-D conservative SL kernel along one axis to every
//! grid line. The three execution variants reproduce the paper's Table 1
//! code shapes:
//!
//! * [`Exec::Scalar`] — "w/o SIMD": one line at a time, element-wise strided
//!   gather/scatter into a line buffer, scalar kernel.
//! * [`Exec::Simd`] — "w/ SIMD inst.": lines ride the lanes of an
//!   [`f32x8`] or an [`f32x16`] (the paper's 16-lane SVE register). A
//!   spatial sweep loads sixteen consecutive cells of a velocity block per
//!   pencil cell, one packed load whatever their shifts: where the sixteen
//!   share a shift they are two bundles ([`plan::Bundles`]) at one shift
//!   (paper Fig. 1), elsewhere a strip ([`plan::Strips`]) whose lanes each
//!   take their own shift ([`LaneShifts`]). A velocity sweep shifts a whole
//!   block alike: a bundle is *any eight lines of the block*, where their
//!   cells are adjacent in memory each bundle element is one packed load
//!   (Fig. 1), where they are not it is eight element loads (paper Fig. 2 —
//!   the shape of the `u_z` axis on every grid and of `u_y` on the plasma
//!   scenarios' thin `[nv, 4, 4]` velocity grids). Two bundles of a block
//!   ride one `f32x16`, each loaded into and stored from its own half; a
//!   lone bundle stays an `f32x8`.
//! * [`Exec::Lat`] — "w/ LAT method": where `nuy` and `nuz` divide by 8, eight
//!   contiguous `u_z` lines are loaded as packed registers and transposed
//!   in-register ([`transpose8x8`], paper Fig. 3) into lane form, advected,
//!   and transposed back. Other axes fall back to [`Exec::Simd`].
//!
//! [`Exec::resolve`] is the one rule for which task shape a request really
//! runs: lanes whenever the scheme is SL5 / SL-MPP5 and — along a spatial
//! axis — a velocity block holds whole strips of sixteen, or — along a
//! velocity axis — the lines of a block come in multiples of eight ([`plan`]
//! module table). So `[64, 4, 4]` and `[6, 4, 4]` run in lanes along every
//! axis, and only ragged grids (`6³`, `[7, 4, 4]`) or the cheaper schemes
//! run the scalar task.
//!
//! **One spatial sweep, four windows.** Every spatial sweep is
//! `sweep_ghosted`: one task body per shape, each advecting a *window* of its
//! pencil through the ghost-extended kernels of `vlasov6d-advection`. A window
//! lists where the `GHOST`-extended cells come from and which cells it
//! writes: `periodic` — the block's own pencil wrapped, [`sweep_spatial`];
//! `full` — the pencil between the neighbours' ghost planes, the synchronous
//! sweep of [`crate::exchange`]; `interior` and `edges` — the two halves of
//! the overlapped sweep there. A periodic axis is the case where the block's
//! neighbour is itself; the integer part of a shift is an offset into the
//! wrapped window, so only the fraction reaches the kernel.
//!
//! The advection velocity is constant along every line by construction:
//! spatial sweeps depend only on the conjugate velocity index, velocity
//! sweeps only on the spatial cell. A bundle shares it across its lanes; a
//! strip carries one per lane, built once per sweep for each of its few lane
//! patterns.
//!
//! Every parallel region here runs on the real thread pool behind
//! `rayon::par_iter`. The per-task index sets are the plans of
//! [`crate::plan`]; `crates/racecheck` proves them pairwise write-disjoint
//! for all grid shapes (so the sweeps are bitwise deterministic at any
//! worker count) and replays single tasks via [`crate::probe`] to pin the
//! proof to this code.

// Hot path (runs in pool tasks every step): no bare unwrap/panic outside tests.
#![deny(clippy::unwrap_used, clippy::panic)]

use crate::dist_fn::PhaseSpace;
use crate::plan;
use rayon::prelude::*;
use vlasov6d_advection::lanes::{
    advect_lanes, advect_lanes_ext, advect_lanes_shifted, LaneShifts, LanesWork,
};
use vlasov6d_advection::line::{advect_line, advect_line_ext, LineWork, Scheme};
use vlasov6d_advection::simd::{f32x16, f32x8, transpose8x8, Lanes, LANES};
use vlasov6d_advection::{Boundary, GHOST};
use vlasov6d_mesh::Field3;

/// Kernel execution variant (paper Table 1 columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Exec {
    /// One line at a time, no lane batching.
    Scalar,
    /// Lanes: along a spatial axis sixteen consecutive velocity cells per
    /// `f32x16`, at one shift or one each; along a velocity axis bundles of
    /// eight lines, two per `f32x16`, packed where the layout allows and
    /// gathered where it does not.
    #[default]
    Simd,
    /// Load-and-transpose staging for the `u_z` axis.
    Lat,
}

impl Exec {
    /// The task shape a sweep along layout axis `axis` (0–2 spatial, 3–5
    /// velocity) of a `dims` grid really runs — the one place that decides
    /// whether the lane kernels apply: [`Exec::Scalar`] the scalar pencil
    /// task, [`Exec::Simd`] the lane tasks, [`Exec::Lat`] the
    /// load-and-transpose `u_z` task. The lane kernels implement `Sl5` /
    /// `SlMpp5` only; every other request runs the scalar task, which takes
    /// any scheme on any grid.
    ///
    /// A spatial sweep runs lanes where a velocity block holds whole strips
    /// of [`plan::STRIP`] cells (`nux·nuy·nuz % 16 == 0`); [`plan`] then runs
    /// packed bundle pairs where sixteen consecutive cells share a shift and
    /// strips elsewhere, whether lanes or LAT were asked for. A velocity
    /// sweep runs lanes where the lines of a block come in multiples of
    /// [`LANES`] — `nuy·nuz` for `u_x`, `nux·nuz` for `u_y`, `nux·nuy` for
    /// `u_z` — and LAT along `u_z` where asked and `nuy`, `nuz` divide by 8.
    /// Either way the answer depends on the velocity grid alone: every block
    /// of a decomposed run resolves as the whole box does, whatever its
    /// spatial extents, and distributed ≡ serial stays a statement about
    /// bits.
    pub fn resolve(self, scheme: Scheme, dims: &[usize; 6], axis: usize) -> Exec {
        let lanes = match axis {
            0..3 => dims[3..]
                .iter()
                .product::<usize>()
                .is_multiple_of(plan::STRIP),
            _ => (3..6)
                .filter(|&a| a != axis)
                .map(|a| dims[a])
                .product::<usize>()
                .is_multiple_of(LANES),
        };
        if self == Exec::Scalar || !matches!(scheme, Scheme::Sl5 | Scheme::SlMpp5) || !lanes {
            return Exec::Scalar;
        }
        // Table 1's transposed shape, exactly where it always ran.
        let tiles = dims[4].is_multiple_of(LANES) && dims[5].is_multiple_of(LANES);
        match axis {
            5 if tiles && self == Exec::Lat => Exec::Lat,
            _ => Exec::Simd,
        }
    }
}

/// Which shape each axis of a `dims` grid runs when layout axis `a` is swept
/// under `(scheme, exec(a))`, and at which lane width, one token per axis —
/// the `kernel.shape` value of the drivers' first step record: `x:packed16
/// y:mixed16 z:mixed16 ux:packed16 uy:gather16 uz:gather16` on a
/// `[nv, 4, 4]` velocity grid, `scalar` where [`Exec::resolve`] fell back.
/// A spatial axis runs `packed16` (two bundles at one shift) or `mixed16` (a
/// strip, a shift per lane); a velocity bundle task runs at 16 lanes where a
/// block holds two or more bundles and at 8 otherwise, LAT rows at 8.
pub fn lane_shapes(scheme: Scheme, dims: &[usize; 6], exec: impl Fn(usize) -> Exec) -> String {
    const AXES: [&str; 6] = ["x", "y", "z", "ux", "uy", "uz"];
    let shape = |axis: usize| {
        // Counted only where lanes run.
        let bundles = || plan::Bundles::block(dims, axis - 3);
        let width = || match bundles().free_count() / LANES {
            1 => LANES,
            _ => 2 * LANES,
        };
        match (exec(axis).resolve(scheme, dims, axis), axis) {
            (Exec::Scalar, _) => "scalar".to_string(),
            (_, 0..3) if plan::spatial_pairs(dims, axis) => format!("packed{}", plan::STRIP),
            (_, 0..3) => format!("mixed{}", plan::STRIP),
            (Exec::Lat, _) => format!("lat{LANES}"),
            (_, _) if bundles().packed() => format!("packed{}", width()),
            (_, _) => format!("gather{}", width()),
        }
    };
    let tokens: Vec<String> = (0..6)
        .map(|a| format!("{}:{}", AXES[a], shape(a)))
        .collect();
    tokens.join(" ")
}

/// Partition of one axis's cell range into the boundary slabs whose stencils
/// reach into ghost planes and the interior whose stencils stay local — the
/// split that lets the distributed sweep advect interior pencils while the
/// ghost exchange is still in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AxisPartition {
    /// Cells `[0, ghost)` (clamped): stencils reach the low ghost planes.
    pub low: std::ops::Range<usize>,
    /// Cells whose full `±ghost` stencil footprint stays inside `[0, n)`.
    pub interior: std::ops::Range<usize>,
    /// Cells `[n - ghost, n)` (clamped): stencils reach the high ghost planes.
    pub high: std::ops::Range<usize>,
}

/// Split `0..n` into low-boundary, interior and high-boundary ranges for a
/// stencil of half-width `ghost`. The three ranges are disjoint, contiguous
/// and cover `0..n` exactly for every input, including thin axes
/// (`n < 2·ghost`) where the interior is empty and the slabs share the cells
/// between them without overlap.
pub fn partition_axis(n: usize, ghost: usize) -> AxisPartition {
    let lo_end = ghost.min(n);
    let hi_start = n.saturating_sub(ghost).max(lo_end);
    AxisPartition {
        low: 0..lo_end,
        interior: lo_end..hi_start,
        high: hi_start..n,
    }
}

/// Base pointer of the flat `f` array, passed by value into sweep tasks.
#[derive(Clone, Copy)]
pub(crate) struct SendMutPtr(pub(crate) *mut f32);
// [racecheck: sweep.spatial.x.scalar, sweep.spatial.y.scalar,
// sweep.spatial.z.scalar, sweep.spatial.x.simd, sweep.spatial.y.simd,
// sweep.spatial.x.lat, sweep.spatial.y.lat, sweep.spatial.x.mixed,
// sweep.spatial.y.mixed, sweep.spatial.z.mixed,
// sweep.dist.x.sync.scalar, sweep.dist.x.sync.simd, sweep.dist.x.sync.mixed,
// sweep.dist.x.interior.scalar, sweep.dist.x.interior.simd,
// sweep.dist.x.interior.mixed, sweep.dist.x.edges.scalar,
// sweep.dist.x.edges.simd, sweep.dist.x.edges.mixed,
// sweep.dist.y.sync.scalar, sweep.dist.y.sync.simd, sweep.dist.y.sync.mixed,
// sweep.dist.y.interior.scalar, sweep.dist.y.interior.simd,
// sweep.dist.y.interior.mixed, sweep.dist.y.edges.scalar,
// sweep.dist.y.edges.simd, sweep.dist.y.edges.mixed,
// sweep.dist.z.sync.scalar, sweep.dist.z.sync.mixed,
// sweep.dist.z.interior.scalar, sweep.dist.z.interior.mixed,
// sweep.dist.z.edges.scalar, sweep.dist.z.edges.mixed]
// SAFETY: the wrapper only moves the raw pointer across pool workers; every
// dereference follows the task's `plan` index set, and racecheck proves the
// plans of distinct tasks pairwise disjoint for all grid shapes in the
// regions above (symbolic digit proof + taint-probe replay).
unsafe impl Send for SendMutPtr {}
// SAFETY: [racecheck: sweep.spatial.x.scalar] — `&SendMutPtr` exposes only
// a `Copy` of the pointer; aliasing discipline is enforced at the
// dereference sites by the same per-task plans as for `Send`.
unsafe impl Sync for SendMutPtr {}

/// Sweep along spatial axis `d` (0 = x, 1 = y, 2 = z) with periodic bounds.
///
/// `cfl_per_u[k]` is the shift (in cells) of velocity index `k` along axis
/// `d`: `u_d(k) · drift / Δx_d`. Shifts of any size are allowed (periodic
/// integer wrap is exact).
///
/// The block is its own neighbour: this is the ghosted sweep on the periodic
/// window of the axis, `GHOST` cells plus the largest integer shift wrapped
/// on either side.
pub fn sweep_spatial(ps: &mut PhaseSpace, d: usize, cfl_per_u: &[f64], scheme: Scheme, exec: Exec) {
    assert!(d < 3);
    const SPAN: [&str; 3] = ["sweep.spatial.x", "sweep.spatial.y", "sweep.spatial.z"];
    let _obs = vlasov6d_obs::span!(SPAN[d], vlasov6d_obs::Bucket::Vlasov);
    assert_eq!(cfl_per_u.len(), ps.vgrid.n[d]);
    let window = Window::periodic(ps.sdims[d], margin(cfl_per_u));
    sweep_ghosted(ps, d, cfl_per_u, scheme, exec, &[window], None);
}

/// The largest integer part of the shifts: how far past `GHOST` a periodic
/// window must wrap so that every line's stencil stays inside it.
pub(crate) fn margin(cfl_per_u: &[f64]) -> usize {
    assert!(
        cfl_per_u.iter().all(|c| c.is_finite()),
        "spatial shifts must be finite"
    );
    cfl_per_u
        .iter()
        .map(|c| c.abs() as usize)
        .max()
        .unwrap_or(0)
}

/// A run of cells along the swept axis feeding a ghosted task's `ext`: from
/// the block being swept, or from a plane buffer in
/// [`crate::exchange::extract_planes`] layout holding `GHOST` planes.
pub(crate) struct Segment<'a> {
    planes: Option<&'a [f32]>,
    cells: std::ops::Range<usize>,
}

impl<'a> Segment<'a> {
    fn block(cells: std::ops::Range<usize>) -> Self {
        Segment {
            planes: None,
            cells,
        }
    }

    fn planes(planes: &'a [f32]) -> Self {
        Segment {
            planes: Some(planes),
            cells: 0..GHOST,
        }
    }

    /// Where this segment's pencil lives: the array to read and the task's
    /// plan inside it (`block` in the swept array, `planes` in a buffer).
    fn source<'p, P>(&self, base: SendMutPtr, block: &'p P, planes: &'p P) -> (*const f32, &'p P) {
        match self.planes {
            Some(buf) => (buf.as_ptr(), planes),
            None => (base.0.cast_const(), block),
        }
    }
}

/// One kernel call of a ghosted task: the segments concatenate to the
/// ghost-extended `ext`, `margin` extra cells on either side of `GHOST`, and
/// the `ext.len() − 2·(GHOST + margin)` results land on the block's cells
/// `out_start..` along the swept axis. A line shifting by `cfl` reads the
/// `ext` of the kernel at `margin − trunc(cfl)`, so `|trunc(cfl)| ≤ margin`.
pub(crate) struct Window<'a> {
    ext: Vec<Segment<'a>>,
    out_start: usize,
    margin: usize,
}

impl<'a> Window<'a> {
    /// The block's own pencil, wrapped: cells `−GHOST − margin ..
    /// n + GHOST + margin` taken modulo `n`, one segment per run — more of
    /// them, each repeating the pencil, where `n < GHOST + margin`. The
    /// periodic sweep, whose neighbour along the axis is the block itself.
    pub(crate) fn periodic(n: usize, margin: usize) -> Self {
        let reach = GHOST + margin;
        let mut ext = Vec::new();
        let (mut from, mut left) = ((n - reach % n) % n, n + 2 * reach);
        while left > 0 {
            let run = (n - from).min(left);
            ext.push(Segment::block(from..from + run));
            (from, left) = (0, left - run);
        }
        Window {
            ext,
            out_start: 0,
            margin,
        }
    }

    /// The whole pencil between the neighbours' planes — the synchronous
    /// sweep, and the overlapped one on blocks too thin to have an interior.
    pub(crate) fn full(n: usize, low: &'a [f32], high: &'a [f32]) -> Self {
        Window {
            ext: vec![
                Segment::planes(low),
                Segment::block(0..n),
                Segment::planes(high),
            ],
            out_start: 0,
            margin: 0,
        }
    }

    /// The cells whose stencils stay inside the block: `ext` is the bare
    /// pencil, so no ghost plane is needed (or waited for).
    pub(crate) fn interior(n: usize) -> Self {
        assert!(n >= 2 * GHOST, "no interior on a {n}-cell axis");
        Window {
            ext: vec![Segment::block(0..n)],
            out_start: partition_axis(n, GHOST).interior.start,
            margin: 0,
        }
    }

    /// The `GHOST` cells at either end, after an interior pass: outside them
    /// the neighbours' planes, inside them `saved` — the pre-sweep copies of
    /// cells `[GHOST, 2·GHOST)` and `[n − 2·GHOST, n − GHOST)`, which the
    /// interior pass has overwritten.
    pub(crate) fn edges(
        n: usize,
        low: &'a [f32],
        high: &'a [f32],
        saved: &'a [Vec<f32>; 2],
    ) -> [Self; 2] {
        assert!(n >= 2 * GHOST, "no saved slabs on a {n}-cell axis");
        let part = partition_axis(n, GHOST);
        [
            Window {
                out_start: part.low.start,
                ext: vec![
                    Segment::planes(low),
                    Segment::block(part.low),
                    Segment::planes(&saved[0]),
                ],
                margin: 0,
            },
            Window {
                out_start: part.high.start,
                ext: vec![
                    Segment::planes(&saved[1]),
                    Segment::block(part.high),
                    Segment::planes(high),
                ],
                margin: 0,
            },
        ]
    }

    fn ext_len(&self) -> usize {
        self.ext.iter().map(|seg| seg.cells.len()).sum()
    }

    /// The number of cells this window writes.
    fn out_len(&self) -> usize {
        self.ext_len() - 2 * (GHOST + self.margin)
    }

    /// The block cells along the swept axis this window writes.
    fn out_cells(&self) -> std::ops::Range<usize> {
        self.out_start..self.out_start + self.out_len()
    }

    /// Does any of `windows` read a plane buffer? A lane task builds its
    /// plan in the buffers only then: the periodic sweep's loads need none.
    fn read_planes(windows: &[Self]) -> bool {
        windows
            .iter()
            .flat_map(|w| &w.ext)
            .any(|s| s.planes.is_some())
    }

    /// The kernel's `ext` for a line shifting by `cfl` inside this window's
    /// `ext` — it starts `margin − trunc(cfl)` cells in, so the integer part
    /// of the shift is an offset, exact by construction — and the fraction
    /// `cfl − trunc(cfl)` the kernel advects it by.
    #[inline(always)]
    fn kernel_ext<'e, T>(&self, ext: &'e [T], cfl: f64) -> (&'e [T], f64) {
        let k = cfl.trunc();
        assert!(k.abs() <= self.margin as f64, "shift {cfl} past the window");
        let at = (self.margin as f64 - k) as usize;
        (&ext[at..at + self.out_len() + 2 * GHOST], cfl - k)
    }
}

/// Per-worker scratch of a ghosted sweep: `ext`, `out` and kernel work space
/// for the scalar and the lane task shapes (a sweep uses one of the two).
#[derive(Default)]
pub(crate) struct GhostedWork {
    line: (Vec<f32>, Vec<f32>, LineWork),
    lanes: (Vec<f32x16>, Vec<f32x16>, LanesWork<f32x16>),
}

/// `dims` of a plane buffer for axis `d`: the block's, `GHOST` planes thick.
fn plane_dims(dims: &[usize; 6], d: usize) -> [usize; 6] {
    let mut g = *dims;
    g[d] = GHOST;
    g
}

/// The lane task of a spatial sweep along `d` ([`plan`] module table): two
/// bundles at one shift per `f32x16`, or strips with a shift per lane, in
/// their plans over the block and over a plane buffer.
enum LaneTask {
    Pairs([plan::Bundles; 2]),
    Strips([plan::Strips; 2], Vec<LaneShifts<f32x16>>),
}

/// One parallel region of a spatial sweep along axis `d`: every pencil task
/// advects each of `windows` through the ghost-extended kernels, in the task
/// shape [`Exec::resolve`] makes of `exec` on this grid — scalar pencils, or
/// sixteen consecutive velocity cells per `f32x16`: two bundles of eight
/// lines at one conjugate index where those cells share it (packed loads,
/// Fig. 1), a strip whose lanes each take their own shift elsewhere. The
/// strips' lane shifts are built here, once per lane pattern. Racecheck
/// regions `sweep.spatial.{x,y,z}.*` (the periodic window) and
/// `sweep.dist.{x,y,z}.{sync,interior,edges}.*`; `only` replays a single task
/// of the region for racecheck's taint probe.
pub(crate) fn sweep_ghosted(
    ps: &mut PhaseSpace,
    d: usize,
    cfl_per_u: &[f64],
    scheme: Scheme,
    exec: Exec,
    windows: &[Window<'_>],
    only: Option<usize>,
) {
    let dims = ps.dims6();
    let exec = exec.resolve(scheme, &dims, d);
    // The tasks read plane buffers through raw pointers at their plans'
    // offsets: every buffer must be a whole `GHOST`-plane array.
    let plane_len: usize = plane_dims(&dims, d).iter().product();
    for seg in windows.iter().flat_map(|w| &w.ext) {
        assert!(seg.planes.is_none_or(|buf| buf.len() == plane_len));
    }
    let base = SendMutPtr(ps.as_mut_slice().as_mut_ptr());
    let n_tasks = plan::spatial_task_count(&dims, d, exec);
    // A lane task reads the block and the plane buffers through the same
    // plan: the axes other than `d` are the block's in both.
    let grids = [dims, plane_dims(&dims, d)];
    let lanes = match exec {
        Exec::Scalar => None,
        _ if plan::spatial_pairs(&dims, d) => Some(LaneTask::Pairs(
            grids.map(|g| plan::Bundles::spatial(&g, d)),
        )),
        _ => {
            let strips = grids.map(|g| plan::Strips::spatial(&g, d));
            let shifts = (0..strips[0].patterns())
                .map(|p| LaneShifts::new(scheme, &strips[0].pattern(p).map(|iu| cfl_per_u[iu])))
                .collect();
            Some(LaneTask::Strips(strips, shifts))
        }
    };
    let run = |work: &mut GhostedWork, task: usize| match &lanes {
        None => ghosted_line_task(
            base,
            &dims,
            d,
            cfl_per_u,
            scheme,
            windows,
            &mut work.line,
            task,
        ),
        Some(LaneTask::Pairs(bundles)) => ghosted_pair_task(
            base,
            bundles,
            cfl_per_u,
            scheme,
            windows,
            &mut work.lanes,
            task,
        ),
        Some(LaneTask::Strips(strips, shifts)) => {
            ghosted_strip_task(base, strips, shifts, scheme, windows, &mut work.lanes, task)
        }
    };
    match only {
        Some(task) => {
            assert!(task < n_tasks);
            run(&mut GhostedWork::default(), task)
        }
        None => (0..n_tasks)
            .into_par_iter()
            .for_each_init(GhostedWork::default, run),
    }
}

fn ghosted_line_task(
    base: SendMutPtr,
    dims: &[usize; 6],
    d: usize,
    cfl_per_u: &[f64],
    scheme: Scheme,
    windows: &[Window<'_>],
    (ext, out, work): &mut (Vec<f32>, Vec<f32>, LineWork),
    task: usize,
) {
    let cfl = cfl_per_u[plan::spatial_line_conjugate(dims, d, task)];
    let block = plan::spatial_line(dims, d, task);
    let planes = plan::spatial_line(&plane_dims(dims, d), d, task);
    for w in windows {
        ext.clear();
        for seg in &w.ext {
            let (src, p) = seg.source(base, &block, &planes);
            // `p` is this task's plan in the segment's array — the block,
            // where racecheck proves the plans of distinct tasks disjoint and
            // in bounds, or a read-only plane buffer whose length
            // `sweep_ghosted` checked — and `seg.cells` lies inside it.
            // SAFETY: cell `i` of that plan is in bounds and not written by
            // any other task.
            let cell = |i: usize| unsafe { *src.add(p.base + i * p.stride) };
            ext.extend(seg.cells.clone().map(cell));
        }
        out.resize(w.out_len(), 0.0);
        let (ext, frac) = w.kernel_ext(ext, cfl);
        advect_line_ext(scheme, ext, out, frac, work);
        for (i, v) in w.out_cells().zip(out.iter()) {
            // SAFETY: cell `i` of this task's own pencil (plan as above).
            unsafe { *base.0.add(block.base + i * block.stride) = *v };
        }
    }
}

/// A bundle-pair task: its bundles in plan order, two consecutive ones — a
/// run of sixteen cells at one shift — as one `f32x16`, each in its own
/// half. Pairing inside the task leaves its write set the plan's.
fn ghosted_pair_task(
    base: SendMutPtr,
    [in_block, in_planes]: &[plan::Bundles; 2],
    cfl_per_u: &[f64],
    scheme: Scheme,
    windows: &[Window<'_>],
    (ext, out, work): &mut (Vec<f32x16>, Vec<f32x16>, LanesWork<f32x16>),
    task: usize,
) {
    let mut in_planes = Window::read_planes(windows).then(|| in_planes.task(task));
    let mut bundles = in_block.task(task).map(|(iu, block)| {
        let planes = in_planes
            .as_mut()
            .and_then(Iterator::next)
            .map_or(block, |(_, p)| p);
        (iu, [block, planes])
    });
    while let (Some((iu, first)), Some((next, second))) = (bundles.next(), bundles.next()) {
        debug_assert_eq!(iu, next, "a pair shares its shift");
        let pair = [first, second];
        for w in windows {
            ext.clear();
            for seg in &w.ext {
                let at = ext.len();
                ext.resize(at + seg.cells.len(), f32x16::ZERO);
                for (half, [block, planes]) in pair.iter().enumerate() {
                    let (src, p) = seg.source(base, block, planes);
                    // SAFETY: as in `ghosted_line_task`, one bundle element
                    // per cell.
                    unsafe { load_cells(src, p, seg.cells.clone(), &mut ext[at..], half) };
                }
            }
            out.resize(w.out_len(), f32x16::ZERO);
            let (ext, frac) = w.kernel_ext(ext, cfl_per_u[iu]);
            advect_lanes_ext(scheme, ext, out, frac, work);
            for (half, [block, _]) in pair.iter().enumerate() {
                // SAFETY: elements `out_cells()` of this task's own bundle
                // pencil.
                unsafe { store_cells(base.0, block, w.out_start, out, half) };
            }
        }
    }
}

/// A strip task: sixteen consecutive cells of a velocity block along the
/// pencil, loaded and stored packed, advected through every window with the
/// shifts of its lane pattern — each lane its own.
fn ghosted_strip_task(
    base: SendMutPtr,
    [in_block, in_planes]: &[plan::Strips; 2],
    shifts: &[LaneShifts<f32x16>],
    scheme: Scheme,
    windows: &[Window<'_>],
    (ext, out, work): &mut (Vec<f32x16>, Vec<f32x16>, LanesWork<f32x16>),
    task: usize,
) {
    let block = in_block.task(task);
    let planes = match Window::read_planes(windows) {
        true => in_planes.task(task),
        false => block,
    };
    let shifts = &shifts[block.pattern];
    for w in windows {
        ext.clear();
        for seg in &w.ext {
            let (src, p) = seg.source(base, &block, &planes);
            // SAFETY: as in `ghosted_line_task`, one strip element per cell.
            let cell = |i: usize| unsafe { load_strip(src.add(p.base + i * p.stride)) };
            ext.extend(seg.cells.clone().map(cell));
        }
        out.resize(w.out_len(), f32x16::ZERO);
        advect_lanes_shifted(scheme, ext, out, shifts, work);
        for (i, v) in w.out_cells().zip(out.iter()) {
            // SAFETY: cell `i` of this task's own strip pencil.
            unsafe { store_strip(base.0.add(block.base + i * block.stride), *v) };
        }
    }
}

/// Sweep along velocity axis `d` (0 = ux, 1 = uy, 2 = uz) with zero-inflow
/// bounds. `cfl_per_cell` gives the shift per *spatial* cell:
/// `-∂φ/∂x_d · Δt / Δu_d`.
pub fn sweep_velocity(
    ps: &mut PhaseSpace,
    d: usize,
    cfl_per_cell: &Field3,
    scheme: Scheme,
    exec: Exec,
) {
    assert!(d < 3);
    const SPAN: [&str; 3] = [
        "sweep.velocity.ux",
        "sweep.velocity.uy",
        "sweep.velocity.uz",
    ];
    let _obs = vlasov6d_obs::span!(SPAN[d], vlasov6d_obs::Bucket::Vlasov);
    assert_eq!(cfl_per_cell.dims(), ps.sdims);
    let dims = ps.dims6();
    let vlen = dims[3] * dims[4] * dims[5];
    let cfls = cfl_per_cell.as_slice();
    let data = ps.as_mut_slice();

    // Velocity blocks of different spatial cells are disjoint contiguous
    // chunks — safe rayon parallelism without raw pointers. Racecheck
    // region `sweep.velocity.blocks`.
    data.par_chunks_mut(vlen)
        .enumerate()
        .for_each_init(VelocityWork::new, |work, (cell, block)| {
            velocity_cell_task(&dims, d, cfls[cell], scheme, exec, work, block)
        });
}

/// One velocity-sweep task: advect one spatial cell's velocity block.
pub(crate) fn velocity_cell_task(
    dims: &[usize; 6],
    d: usize,
    cfl: f64,
    scheme: Scheme,
    exec: Exec,
    work: &mut VelocityWork,
    block: &mut [f32],
) {
    if cfl == 0.0 {
        return;
    }
    match exec.resolve(scheme, dims, 3 + d) {
        Exec::Scalar => sweep_block_lines(block, dims, d, cfl, scheme, work),
        Exec::Simd => {
            let bundles = plan::Bundles::block(dims, d);
            sweep_block_bundles(block, &bundles, cfl, scheme, work)
        }
        Exec::Lat => sweep_block_lat(block, dims, cfl, scheme, work),
    }
}

/// A velocity bundle and the kernel work space at lane type `V`.
type BlockScratch<V> = (Vec<V>, LanesWork<V>);

/// Per-thread scratch for velocity-block sweeps: lines, and bundles at both
/// widths — a lone bundle and the LAT rows at `f32x8`, a pair at `f32x16`.
pub(crate) struct VelocityWork {
    line: Vec<f32>,
    line_work: LineWork,
    x8: BlockScratch<f32x8>,
    x16: BlockScratch<f32x16>,
}

impl VelocityWork {
    pub(crate) fn new() -> Self {
        Self {
            line: Vec::new(),
            line_work: LineWork::new(),
            x8: Default::default(),
            x16: Default::default(),
        }
    }
}

/// Scalar velocity sweep along `d` of one block, line by line.
fn sweep_block_lines(
    block: &mut [f32],
    dims: &[usize; 6],
    d: usize,
    cfl: f64,
    scheme: Scheme,
    work: &mut VelocityWork,
) {
    work.line.resize(dims[3 + d], 0.0);
    for unit in 0..plan::block_unit_count(dims, d, Exec::Scalar) {
        let l = plan::block_line(dims, d, unit);
        if l.stride == 1 {
            // `u_z` lines are contiguous — no gather at all.
            let line = &mut block[l.base..l.base + l.len];
            advect_line(scheme, line, cfl, Boundary::Zero, &mut work.line_work);
            continue;
        }
        for i in 0..l.len {
            work.line[i] = block[l.base + i * l.stride];
        }
        advect_line(
            scheme,
            &mut work.line,
            cfl,
            Boundary::Zero,
            &mut work.line_work,
        );
        for i in 0..l.len {
            block[l.base + i * l.stride] = work.line[i];
        }
    }
}

/// Lane velocity sweep of one block, bundle by bundle — two at a time as one
/// `f32x16`, since every line of a block shares the cell's shift, the last
/// one alone where their number is odd: packed along `u_x` (and `u_y` where
/// `nuz` divides by 8, Fig. 1), element gathers otherwise — along `u_z` the
/// paper's Fig. 2, the deliberately inefficient variant measured in Table 1.
pub(crate) fn sweep_block_bundles(
    block: &mut [f32],
    bundles: &plan::Bundles,
    cfl: f64,
    scheme: Scheme,
    work: &mut VelocityWork,
) {
    let mut plans = bundles.task(0).map(|(_, b)| b);
    while let Some(first) = plans.next() {
        match plans.next() {
            Some(second) => block_bundles(block, &[first, second], cfl, scheme, &mut work.x16),
            None => block_bundles(block, &[first], cfl, scheme, &mut work.x8),
        }
    }
}

/// The bundles `bs` of one block, bundle `h` in lanes `8h..8h + 8` of `V`,
/// advected by `cfl`.
#[inline(always)]
fn block_bundles<V: Lanes>(
    block: &mut [f32],
    bs: &[plan::Bundle],
    cfl: f64,
    scheme: Scheme,
    (bundle, work): &mut BlockScratch<V>,
) {
    assert_eq!(bs.len() * LANES, V::WIDTH);
    let ptr = block.as_mut_ptr();
    bundle.clear();
    bundle.resize(bs[0].len, V::ZERO);
    for (half, b) in bs.iter().enumerate() {
        assert!(b.len == bundle.len() && b.bases[LANES - 1] + (b.len - 1) * b.stride < block.len());
        // SAFETY: the bases ascend, so the assert bounds every index of the
        // bundle inside `block`, which this task owns.
        unsafe { load_cells(ptr, b, 0..b.len, bundle, half) };
    }
    advect_lanes(scheme, bundle, cfl, Boundary::Zero, work);
    for (half, b) in bs.iter().enumerate() {
        // SAFETY: as above.
        unsafe { store_cells(ptr, b, 0, bundle, half) };
    }
}

/// Paper Fig. 3 along `u_z`: packed loads + in-register transpose, advect in
/// lane form, transpose back on the way out.
fn sweep_block_lat(
    block: &mut [f32],
    dims: &[usize; 6],
    cfl: f64,
    scheme: Scheme,
    work: &mut VelocityWork,
) {
    let nuz = dims[5];
    let bundles = plan::Bundles::block(dims, 2);
    work.x8.0.resize(nuz, f32x8::ZERO);
    for (_, rows) in bundles.task(0) {
        // Eight whole `iuz` rows.
        let rows = rows.bases;
        // Load & transpose into lane-major bundle.
        for zblock in 0..nuz / LANES {
            let z0 = zblock * LANES;
            let mut packed: [f32x8; LANES] =
                core::array::from_fn(|l| f32x8::load(&block[rows[l] + z0..]));
            transpose8x8(&mut packed);
            work.x8.0[z0..z0 + LANES].copy_from_slice(&packed);
        }
        advect_lanes(scheme, &mut work.x8.0, cfl, Boundary::Zero, &mut work.x8.1);
        // Transpose back & store packed.
        for zblock in 0..nuz / LANES {
            let z0 = zblock * LANES;
            let mut packed: [f32x8; LANES] = core::array::from_fn(|r| work.x8.0[z0 + r]);
            transpose8x8(&mut packed);
            for (l, row) in packed.iter().enumerate() {
                row.store(&mut block[rows[l] + z0..]);
            }
        }
    }
}

/// Load `cells` of the bundle `b` in the array at `src` into lanes
/// `8·half .. 8·half + 8` of `out[0..]`: one packed load per cell where the
/// plan says the lanes are adjacent, eight element loads otherwise.
///
/// # Safety
/// `b.cell_indices(i)` must be valid for reading from `src` for every `i`
/// in `cells`.
#[inline(always)]
unsafe fn load_cells<V: Lanes>(
    src: *const f32,
    b: &plan::Bundle,
    cells: std::ops::Range<usize>,
    out: &mut [V],
    half: usize,
) {
    /// # Safety
    /// `src + bases[l] + at` must be valid for reading, every lane.
    #[inline(always)]
    unsafe fn gather(src: *const f32, bases: [usize; LANES], at: usize) -> [f32; LANES] {
        bases.map(|base| *src.add(base + at))
    }
    let lanes = half * LANES..(half + 1) * LANES;
    let out = out.iter_mut().map(|v| &mut v.lanes_mut()[lanes.clone()]);
    if b.packed {
        let first = src.add(b.bases[0]);
        out.zip(cells)
            .for_each(|(v, i)| v.copy_from_slice(&load_lanes(first.add(i * b.stride)).0));
    } else if b.stride == 1 {
        // Contiguous lines (the `u_z` rows), spelled with a literal stride:
        // LLVM then moves runs of each row and shuffles, where a run-time
        // stride leaves it eight element moves per cell.
        out.zip(cells)
            .for_each(|(v, i)| v.copy_from_slice(&gather(src, b.bases, i)));
    } else {
        out.zip(cells)
            .for_each(|(v, i)| v.copy_from_slice(&gather(src, b.bases, i * b.stride)));
    }
}

/// Inverse of [`load_cells`]: lanes `8·half .. 8·half + 8` of `values` onto
/// the cells from `first_cell` on.
///
/// # Safety
/// `b.cell_indices(i)` must be valid for writing to `dst` for those cells,
/// and no other thread may touch them.
#[inline(always)]
unsafe fn store_cells<V: Lanes>(
    dst: *mut f32,
    b: &plan::Bundle,
    first_cell: usize,
    values: &[V],
    half: usize,
) {
    /// # Safety
    /// `dst + bases[l] + at` must be valid for writing, every lane.
    #[inline(always)]
    unsafe fn scatter(dst: *mut f32, bases: [usize; LANES], at: usize, v: &[f32]) {
        for (base, lane) in bases.into_iter().zip(v) {
            *dst.add(base + at) = *lane;
        }
    }
    let lanes = half * LANES..(half + 1) * LANES;
    let cells = (first_cell..).zip(values.iter().map(|v| &v.lanes()[lanes.clone()]));
    if b.packed {
        let first = dst.add(b.bases[0]);
        cells.for_each(|(i, v)| store_lanes(first.add(i * b.stride), f32x8::load(v)));
    } else if b.stride == 1 {
        // As in `load_cells`.
        cells.for_each(|(i, v)| scatter(dst, b.bases, i, v));
    } else {
        cells.for_each(|(i, v)| scatter(dst, b.bases, i * b.stride, v));
    }
}

/// # Safety
/// `p` must be valid for reading [`LANES`] values.
#[inline(always)]
unsafe fn load_lanes(p: *const f32) -> f32x8 {
    f32x8::load(std::slice::from_raw_parts(p, LANES))
}

/// # Safety
/// `p` must be valid for writing [`LANES`] values no other thread touches.
#[inline(always)]
unsafe fn store_lanes(p: *mut f32, v: f32x8) {
    v.store(std::slice::from_raw_parts_mut(p, LANES));
}

/// # Safety
/// `p` must be valid for reading [`plan::STRIP`] values.
#[inline(always)]
unsafe fn load_strip(p: *const f32) -> f32x16 {
    f32x16::load(std::slice::from_raw_parts(p, plan::STRIP))
}

/// # Safety
/// `p` must be valid for writing [`plan::STRIP`] values no other thread
/// touches.
#[inline(always)]
unsafe fn store_strip(p: *mut f32, v: f32x16) {
    v.store(std::slice::from_raw_parts_mut(p, plan::STRIP));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::VelocityGrid;

    fn test_ps() -> PhaseSpace {
        let vg = VelocityGrid::cubic(8, 1.0);
        let mut ps = PhaseSpace::zeros([8, 8, 8], vg);
        // A smooth positive filling varying in all six coordinates.
        ps.fill_with(|s, u| {
            let sx =
                (s[0] as f64 * 0.7).sin() + (s[1] as f64 * 0.4).cos() + (s[2] as f64 * 0.9).sin();
            let g = (-(u[0] * u[0] + u[1] * u[1] + u[2] * u[2]) / 0.18).exp();
            (3.2 + sx) * g + 0.01
        });
        ps
    }

    fn total(ps: &PhaseSpace) -> f64 {
        ps.as_slice().iter().map(|&v| v as f64).sum()
    }

    #[test]
    fn partition_covers_exactly_once() {
        for n in 0..40 {
            for ghost in 0..8 {
                let p = partition_axis(n, ghost);
                assert_eq!(p.low.start, 0);
                assert_eq!(p.low.end, p.interior.start, "n={n} ghost={ghost}");
                assert_eq!(p.interior.end, p.high.start, "n={n} ghost={ghost}");
                assert_eq!(p.high.end, n, "n={n} ghost={ghost}");
            }
        }
    }

    #[test]
    fn interior_stencils_stay_local() {
        let p = partition_axis(16, 3);
        assert_eq!(p.low, 0..3);
        assert_eq!(p.interior, 3..13);
        assert_eq!(p.high, 13..16);
        for i in p.interior {
            assert!(i >= 3 && i + 3 < 16);
        }
    }

    #[test]
    fn thin_axis_has_empty_interior() {
        let p = partition_axis(4, 3);
        assert_eq!(p.low, 0..3);
        assert!(p.interior.is_empty());
        assert_eq!(p.high, 3..4);
        let p = partition_axis(2, 3);
        assert_eq!(p.low, 0..2);
        assert!(p.interior.is_empty());
        assert!(p.high.is_empty());
    }

    #[test]
    fn spatial_sweep_execs_agree() {
        let cfl: Vec<f64> = (0..8).map(|k| 0.1 * k as f64 - 0.35).collect();
        for d in 0..3 {
            let mut scalar = test_ps();
            let mut simd = test_ps();
            sweep_spatial(&mut scalar, d, &cfl, Scheme::SlMpp5, Exec::Scalar);
            sweep_spatial(&mut simd, d, &cfl, Scheme::SlMpp5, Exec::Simd);
            let diff = scalar.l1_distance(&simd) / scalar.len() as f64;
            assert!(diff < 1e-5, "axis {d}: mean |Δ| = {diff}");
        }
    }

    /// One scheme rule: the lane kernels implement SL5 / SL-MPP5 only, so a
    /// SIMD request for a cheaper scheme runs the scalar task with *that*
    /// scheme — it does not quietly integrate with SL5 — and a SIMD request
    /// on a grid whose equal-shift lines do not come in eights runs the
    /// scalar task too.
    #[test]
    fn simd_request_for_a_scalar_only_scheme_runs_that_scheme() {
        let cfl: Vec<f64> = (0..8).map(|k| 0.1 * k as f64 - 0.35).collect();
        let mut accel = Field3::zeros([8, 8, 8]);
        for (i, v) in accel.as_mut_slice().iter_mut().enumerate() {
            *v = 0.8 * ((i as f64 * 0.13).sin());
        }
        for scheme in [Scheme::Upwind1, Scheme::Sl3] {
            for exec in [Exec::Simd, Exec::Lat] {
                for d in 0..3 {
                    let mut scalar = test_ps();
                    let mut simd = test_ps();
                    sweep_spatial(&mut scalar, d, &cfl, scheme, Exec::Scalar);
                    sweep_spatial(&mut simd, d, &cfl, scheme, exec);
                    sweep_velocity(&mut scalar, d, &accel, scheme, Exec::Scalar);
                    sweep_velocity(&mut simd, d, &accel, scheme, exec);
                    assert!(
                        scalar.as_slice() == simd.as_slice(),
                        "{scheme:?} {exec:?} axis {d}"
                    );
                }
            }
        }
        let resolved = |exec: Exec, dims: [usize; 6]| -> [Exec; 6] {
            core::array::from_fn(|axis| exec.resolve(Scheme::SlMpp5, &dims, axis))
        };
        use Exec::{Lat, Scalar, Simd};
        // Ragged everywhere, whatever the spatial extents; ragged along
        // `u_z` only; the plasma scenarios' thin grid; Table 1's shapes.
        assert_eq!(resolved(Simd, [4, 4, 4, 6, 6, 6]), [Scalar; 6]);
        assert_eq!(
            resolved(Lat, [3, 5, 7, 6, 2, 4]),
            [Simd, Simd, Simd, Simd, Simd, Scalar]
        );
        assert_eq!(resolved(Lat, [16, 4, 4, 64, 4, 4]), [Simd; 6]);
        let cubic = test_ps().dims6();
        assert_eq!(resolved(Simd, cubic), [Simd; 6]);
        assert_eq!(resolved(Lat, cubic), [Simd, Simd, Simd, Simd, Simd, Lat]);
        assert_eq!(
            lane_shapes(Scheme::SlMpp5, &cubic, |_| Lat),
            "x:packed16 y:mixed16 z:mixed16 ux:packed16 uy:packed16 uz:lat8"
        );
        assert_eq!(
            lane_shapes(Scheme::SlMpp5, &[16; 6], |_| Simd),
            "x:packed16 y:packed16 z:mixed16 ux:packed16 uy:packed16 uz:gather16"
        );
        assert_eq!(
            lane_shapes(Scheme::SlMpp5, &[16, 4, 4, 64, 4, 4], |_| Simd),
            "x:packed16 y:mixed16 z:mixed16 ux:packed16 uy:gather16 uz:gather16"
        );
        assert_eq!(
            lane_shapes(Scheme::SlMpp5, &[3, 5, 7, 6, 2, 4], |_| Simd),
            "x:mixed16 y:mixed16 z:mixed16 ux:packed8 uy:gather16 uz:scalar"
        );
        assert_eq!(
            lane_shapes(Scheme::Sl3, &cubic, |_| Simd),
            "x:scalar y:scalar z:scalar ux:scalar uy:scalar uz:scalar"
        );
    }

    fn assert_bits_eq(a: &PhaseSpace, b: &PhaseSpace, what: &str) {
        let same = a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "{what}: bits differ");
    }

    /// Lanes on every grid: on the plasma scenarios' thin velocity grids and
    /// on a ragged one, every axis under `Exec::Simd` tracks the scalar sweep
    /// within kerncheck's lanes-vs-line budget (2048 ULP of the data's scale,
    /// `kerncheck::equiv::lane_tolerance`) — and is the scalar sweep, bit for
    /// bit, where `resolve` says so.
    #[test]
    fn thin_and_ragged_grids_track_the_scalar_sweeps() {
        let shapes: [([usize; 3], [usize; 3]); 5] = [
            ([8, 4, 4], [64, 4, 4]),
            ([8, 4, 4], [8, 4, 4]),
            ([8, 4, 4], [6, 4, 4]),
            ([4, 3, 2], [6, 2, 4]),
            ([4, 4, 4], [6, 6, 6]),
        ];
        for (sdims, nv) in shapes {
            let build = || {
                let mut ps = PhaseSpace::zeros(sdims, VelocityGrid::new(nv, 1.0));
                ps.fill_with(|s, u| {
                    let sx = (s[0] as f64 * 0.7).sin()
                        + (s[1] as f64 * 0.4).cos()
                        + (s[2] as f64 * 0.9).sin();
                    (3.2 + sx) * (-(u[0] * u[0] + u[1] * u[1] + u[2] * u[2]) / 0.3).exp() + 0.01
                });
                ps
            };
            let dims = build().dims6();
            let scale = build().as_slice().iter().fold(0.0f32, |m, v| m.max(*v));
            let tol = 2048.0 * f32::EPSILON * scale;
            let mut accel = Field3::zeros(sdims);
            for (i, v) in accel.as_mut_slice().iter_mut().enumerate() {
                *v = 0.8 * ((i as f64 * 0.13).sin());
            }
            let mut lanes_ran = 0;
            for axis in 0..6 {
                let d = axis % 3;
                let cfl: Vec<f64> = (0..nv[d]).map(|k| 0.37 * k as f64 - 0.9).collect();
                let sweep = |exec: Exec| {
                    let mut ps = build();
                    if axis < 3 {
                        sweep_spatial(&mut ps, d, &cfl, Scheme::SlMpp5, exec);
                    } else {
                        sweep_velocity(&mut ps, d, &accel, Scheme::SlMpp5, exec);
                    }
                    ps
                };
                let (scalar, simd) = (sweep(Exec::Scalar), sweep(Exec::Simd));
                let what = format!("{sdims:?}×{nv:?} axis {axis}");
                if Exec::Simd.resolve(Scheme::SlMpp5, &dims, axis) == Exec::Scalar {
                    assert_bits_eq(&scalar, &simd, &what);
                    continue;
                }
                lanes_ran += 1;
                for (i, (a, b)) in scalar.as_slice().iter().zip(simd.as_slice()).enumerate() {
                    assert!((a - b).abs() <= tol, "{what} element {i}: {a} vs {b}");
                }
            }
            let expect = match nv {
                [6, 6, 6] => 0,
                [6, 2, 4] => 5,
                _ => 6,
            };
            assert_eq!(lanes_ran, expect, "{sdims:?}×{nv:?}");
        }
    }

    /// A spatial lane sweep is each line advected alone at its own shift, bit
    /// for bit: on a thin, a ragged and a cubic velocity grid, along every
    /// axis — strips or packed pairs — `sweep_spatial` equals a reference
    /// that takes each scalar pencil, cuts its window's `ext` at the pencil's
    /// integer shift and runs `advect_lanes_ext` on that one line, with
    /// shifts of mixed sign, exact zeros and integer parts up to 2 (a
    /// `margin > 0` window). Packing is only a load too: along the velocity
    /// axes the bundle task with element gathers throughout computes what
    /// the packed bundles and the LAT rows compute.
    #[test]
    fn strips_and_gathers_match_their_one_shift_references_bitwise() {
        const CFLS: [f64; 8] = [0.37, -1.2, 0.0, 2.45, -0.83, 1.0, -2.6, 0.11];
        for nv in [[6, 4, 4], [4, 2, 6], [8, 8, 8]] {
            let mut ps = PhaseSpace::zeros([5, 3, 4], VelocityGrid::new(nv, 1.0));
            for (i, v) in ps.as_mut_slice().iter_mut().enumerate() {
                *v = 0.01 + ((i * 37) % 29) as f32 / 29.0;
            }
            let dims = ps.dims6();
            for d in 0..3 {
                let cfl: Vec<f64> = (0..nv[d]).map(|k| CFLS[k % CFLS.len()]).collect();
                assert_eq!(Exec::Simd.resolve(Scheme::SlMpp5, &dims, d), Exec::Simd);
                let mut swept = ps.clone();
                sweep_spatial(&mut swept, d, &cfl, Scheme::SlMpp5, Exec::Simd);
                let mut want = ps.clone();
                let window = Window::periodic(dims[d], margin(&cfl));
                let f = want.as_mut_slice();
                let mut work = LanesWork::new();
                for task in 0..plan::spatial_task_count(&dims, d, Exec::Scalar) {
                    let line = plan::spatial_line(&dims, d, task);
                    let ext: Vec<f32x8> = (window.ext.iter())
                        .flat_map(|seg| seg.cells.clone())
                        .map(|i| f32x8::splat(ps.as_slice()[line.base + i * line.stride]))
                        .collect();
                    let cfl = cfl[plan::spatial_line_conjugate(&dims, d, task)];
                    let (ext, frac) = window.kernel_ext(&ext, cfl);
                    let mut out = vec![f32x8::ZERO; dims[d]];
                    advect_lanes_ext(Scheme::SlMpp5, ext, &mut out, frac, &mut work);
                    for (i, v) in out.iter().enumerate() {
                        f[line.base + i * line.stride] = v.0[0];
                    }
                }
                let shape = lane_shapes(Scheme::SlMpp5, &dims, |_| Exec::Simd);
                assert_bits_eq(&swept, &want, &format!("{nv:?} d={d} {shape}"));
            }
        }

        let mut accel = Field3::zeros([8, 8, 8]);
        for (i, v) in accel.as_mut_slice().iter_mut().enumerate() {
            *v = 0.8 * ((i as f64 * 0.13).sin());
        }
        let dims = test_ps().dims6();
        for d in 0..3 {
            let mut fast = test_ps();
            sweep_velocity(&mut fast, d, &accel, Scheme::SlMpp5, Exec::Lat);
            let mut gathered = test_ps();
            let bundles = plan::Bundles::block(&dims, d).gather_only();
            let vlen = dims[3] * dims[4] * dims[5];
            let mut work = VelocityWork::new();
            for (block, cfl) in gathered
                .as_mut_slice()
                .chunks_mut(vlen)
                .zip(accel.as_slice())
            {
                sweep_block_bundles(block, &bundles, *cfl, Scheme::SlMpp5, &mut work);
            }
            assert_bits_eq(&fast, &gathered, &format!("velocity axis {d}"));
        }
    }

    /// `ps` swept along `d` through the kernels' own periodic entries, in the
    /// task shape `exec`: `advect_line` on every pencil, `advect_lanes` on
    /// every bundle of [`plan::Bundles`] — or, on a strip grid, on every line
    /// alone at its own shift (in all eight lanes).
    fn periodic_reference(ps: &PhaseSpace, d: usize, cfl: &[f64], exec: Exec) -> PhaseSpace {
        let (dims, scheme) = (ps.dims6(), Scheme::SlMpp5);
        let mut out = ps.clone();
        let f = out.as_mut_slice();
        let lanes = |f: &mut [f32], cells: Vec<[usize; LANES]>, cfl: f64| {
            let mut bundle: Vec<f32x8> = cells.iter().map(|c| f32x8(c.map(|i| f[i]))).collect();
            advect_lanes(
                scheme,
                &mut bundle,
                cfl,
                Boundary::Periodic,
                &mut LanesWork::new(),
            );
            for (c, v) in cells.iter().zip(bundle) {
                c.iter().zip(v.0).for_each(|(&i, x)| f[i] = x);
            }
        };
        let strips = exec != Exec::Scalar && !plan::spatial_pairs(&dims, d);
        for task in 0..plan::spatial_task_count(&dims, d, exec) {
            match exec {
                Exec::Scalar => {
                    let l = plan::spatial_line(&dims, d, task);
                    let mut line: Vec<f32> = l.indices().map(|i| f[i]).collect();
                    let cfl = cfl[plan::spatial_line_conjugate(&dims, d, task)];
                    advect_line(
                        scheme,
                        &mut line,
                        cfl,
                        Boundary::Periodic,
                        &mut LineWork::new(),
                    );
                    l.indices().zip(line).for_each(|(i, v)| f[i] = v);
                }
                _ if strips => {
                    let plan = plan::Strips::spatial(&dims, d);
                    let strip = plan.task(task);
                    for (l, iu) in plan.pattern(strip.pattern).into_iter().enumerate() {
                        let cells =
                            (0..strip.len).map(|i| [strip.cell_indices(i).start + l; LANES]);
                        lanes(f, cells.collect(), cfl[iu]);
                    }
                }
                _ => {
                    for (iu, b) in plan::Bundles::spatial(&dims, d).task(task) {
                        let cells = (0..b.len).map(|i| b.bases.map(|l| l + i * b.stride));
                        lanes(f, cells.collect(), cfl[iu]);
                    }
                }
            }
        }
        out
    }

    /// The wrapped window is the kernels' own periodic entries, bit for bit:
    /// `sweep_spatial` at every `Exec` equals `advect_line` on each pencil
    /// (scalar shape) or `advect_lanes` at width 8 on each bundle or strip
    /// line (lane shapes) — on swept axes of 1, 2 and 4 cells, whose windows
    /// repeat the pencil, on a ragged, a thin, a cubic and a `[4, 4, 6]`
    /// velocity grid (strips along every axis), with shifts
    /// whose integer parts run from 0 to 3 within one sweep (the margin). The
    /// data holds no negative zero: an exact integer shift is a copy in the
    /// window and a zero-flux update in the periodic entries, which differ
    /// only in the sign of a zero.
    #[test]
    fn wrapped_window_is_the_periodic_kernels_bitwise() {
        const CFLS: [f64; 7] = [0.3, 0.999, -0.42, 1.0, -1.0, 2.7, -3.1];
        for nv in [[3usize, 3, 3], [6, 4, 4], [8, 8, 8], [4, 4, 6]] {
            for (d, n) in (0..3).flat_map(|d| [1usize, 2, 4].map(|n| (d, n))) {
                let mut sdims = [2, 3, 2];
                sdims[d] = n;
                let mut ps = PhaseSpace::zeros(sdims, VelocityGrid::new(nv, 1.0));
                for (i, v) in ps.as_mut_slice().iter_mut().enumerate() {
                    *v = 0.01 + ((i * 37) % 29) as f32 / 29.0;
                }
                let dims = ps.dims6();
                for rot in 0..CFLS.len() {
                    let cfl: Vec<f64> = (0..nv[d]).map(|k| CFLS[(k + rot) % CFLS.len()]).collect();
                    for exec in [Exec::Scalar, Exec::Simd, Exec::Lat] {
                        let mut swept = ps.clone();
                        sweep_spatial(&mut swept, d, &cfl, Scheme::SlMpp5, exec);
                        let shape = exec.resolve(Scheme::SlMpp5, &dims, d);
                        let what = format!("{nv:?} d={d} n={n} {cfl:?} {exec:?}");
                        assert_bits_eq(&swept, &periodic_reference(&ps, d, &cfl, shape), &what);
                    }
                }
            }
        }
    }

    #[test]
    fn velocity_sweep_execs_agree() {
        let mut accel = Field3::zeros([8, 8, 8]);
        for (i, v) in accel.as_mut_slice().iter_mut().enumerate() {
            *v = 0.8 * ((i as f64 * 0.13).sin());
        }
        for d in 0..3 {
            let mut scalar = test_ps();
            let mut simd = test_ps();
            sweep_velocity(&mut scalar, d, &accel, Scheme::SlMpp5, Exec::Scalar);
            sweep_velocity(&mut simd, d, &accel, Scheme::SlMpp5, Exec::Simd);
            let diff = scalar.l1_distance(&simd) / scalar.len() as f64;
            assert!(diff < 1e-5, "axis u{d}: mean |Δ| = {diff}");
        }
    }

    #[test]
    fn lat_matches_strided_simd_on_uz() {
        let mut accel = Field3::zeros([8, 8, 8]);
        for (i, v) in accel.as_mut_slice().iter_mut().enumerate() {
            *v = 0.5 * ((i as f64 * 0.31).cos());
        }
        let mut simd = test_ps();
        let mut lat = test_ps();
        sweep_velocity(&mut simd, 2, &accel, Scheme::SlMpp5, Exec::Simd);
        sweep_velocity(&mut lat, 2, &accel, Scheme::SlMpp5, Exec::Lat);
        let diff = simd.l1_distance(&lat);
        assert!(diff < 1e-4, "LAT vs strided SIMD differ: {diff}");
    }

    /// Tiny-grid scalar sweeps sized for the Miri interpreter. This is the
    /// target of the CI job `cargo miri test -p vlasov6d-phase-space
    /// miri_smoke`, which validates the unsafe gather/scatter line access
    /// (disjoint-index raw-pointer writes through `SendMutPtr`).
    #[test]
    fn miri_smoke_scalar_sweeps() {
        let vg = VelocityGrid::cubic(6, 1.0);
        let mut ps = PhaseSpace::zeros([8, 2, 2], vg);
        ps.fill_with(|s, u| {
            let g = (-(u[0] * u[0] + u[1] * u[1] + u[2] * u[2]) / 0.3).exp();
            (1.0 + 0.2 * (s[0] as f64 * 0.8).sin()) * g + 0.01
        });
        let m0 = total(&ps);
        let cfl: Vec<f64> = (0..6).map(|k| 0.25 * (k as f64 - 2.5)).collect();
        sweep_spatial(&mut ps, 0, &cfl, Scheme::SlMpp5, Exec::Scalar);
        let m1 = total(&ps);
        assert!((m1 - m0).abs() < 1e-2 * m0, "{m0} -> {m1}");

        let mut accel = Field3::zeros([8, 2, 2]);
        for (i, v) in accel.as_mut_slice().iter_mut().enumerate() {
            *v = 0.4 * (i as f64 * 0.21).sin();
        }
        sweep_velocity(&mut ps, 0, &accel, Scheme::SlMpp5, Exec::Scalar);
        assert!(ps.as_slice().iter().all(|v| v.is_finite() && *v >= 0.0));
    }

    /// A strip and a gathered velocity bundle end to end, sized for the Miri
    /// interpreter: packed strip loads from the block and from plane
    /// buffers through raw pointers, short (2-cell) lines in the lanes, the
    /// strip stored back — the periodic window and the full one fed the
    /// periodic images as planes, which must then agree bit for bit — then a
    /// `u_y` sweep of element gathers and scatters.
    #[test]
    fn miri_smoke_gathered_bundle() {
        let mut ps = PhaseSpace::zeros([2, 2, 2], VelocityGrid::new([4, 2, 2], 1.0));
        for (i, v) in ps.as_mut_slice().iter_mut().enumerate() {
            *v = 0.01 + ((i * 37) % 29) as f32 / 29.0;
        }
        let dims = ps.dims6();
        assert_eq!(
            lane_shapes(Scheme::SlMpp5, &dims, |_| Exec::Simd),
            "x:mixed16 y:mixed16 z:mixed16 ux:scalar uy:gather8 uz:gather8"
        );
        let cfl = [0.4, -0.7];
        // Cells −3..0 and 2..5 of the periodic 2-cell `y` axis, in
        // `extract_planes` layout: per `x` slab, three planes.
        let images = |cells: [usize; 3]| -> Vec<f32> {
            let planes = cells.map(|c| crate::exchange::extract_planes(&ps, 1, c, 1));
            let slab = planes[0].len() / 2;
            let of_slab = |x: usize| planes.iter().flat_map(move |p| &p[x * slab..][..slab]);
            (0..2).flat_map(of_slab).copied().collect()
        };
        let (low, high) = (images([1, 0, 1]), images([0, 1, 0]));
        let mut ghosted = ps.clone();
        let full = Window::full(2, &low, &high);
        sweep_ghosted(
            &mut ghosted,
            1,
            &cfl,
            Scheme::SlMpp5,
            Exec::Simd,
            &[full],
            None,
        );
        sweep_spatial(&mut ps, 1, &cfl, Scheme::SlMpp5, Exec::Simd);
        assert_bits_eq(&ps, &ghosted, "ghosted vs periodic");

        let mut accel = Field3::zeros([2, 2, 2]);
        for (i, v) in accel.as_mut_slice().iter_mut().enumerate() {
            *v = 0.3 * (i as f64 - 3.5);
        }
        sweep_velocity(&mut ps, 1, &accel, Scheme::SlMpp5, Exec::Simd);
        assert!(ps.as_slice().iter().all(|v| v.is_finite() && *v >= 0.0));
    }

    /// Paired packed bundles end to end, sized for the Miri interpreter:
    /// along `x` and `u_x` of a `[2, 4, 4]` velocity grid every task holds
    /// two bundles at one shift, run as one `f32x16` — each loaded into and
    /// stored from its own half through raw pointers, from the block and
    /// from plane buffers. The periodic window and the full one fed the
    /// periodic images as planes must agree bit for bit.
    #[test]
    fn miri_smoke_paired_bundles() {
        let mut ps = PhaseSpace::zeros([2, 2, 2], VelocityGrid::new([2, 4, 4], 1.0));
        for (i, v) in ps.as_mut_slice().iter_mut().enumerate() {
            *v = 0.01 + ((i * 37) % 29) as f32 / 29.0;
        }
        let dims = ps.dims6();
        assert_eq!(
            lane_shapes(Scheme::SlMpp5, &dims, |_| Exec::Simd),
            "x:packed16 y:mixed16 z:mixed16 ux:packed16 uy:gather8 uz:gather8"
        );
        let cfl = [0.4, -0.7];
        // Cells −3..0 and 2..5 of the periodic 2-cell `x` axis, in
        // `extract_planes` layout: `x` is outermost, so plane after plane.
        let images = |cells: [usize; 3]| -> Vec<f32> {
            let planes = cells.map(|c| crate::exchange::extract_planes(&ps, 0, c, 1));
            planes.concat()
        };
        let (low, high) = (images([1, 0, 1]), images([0, 1, 0]));
        let mut ghosted = ps.clone();
        let full = Window::full(2, &low, &high);
        sweep_ghosted(
            &mut ghosted,
            0,
            &cfl,
            Scheme::SlMpp5,
            Exec::Simd,
            &[full],
            None,
        );
        sweep_spatial(&mut ps, 0, &cfl, Scheme::SlMpp5, Exec::Simd);
        assert_bits_eq(&ps, &ghosted, "ghosted vs periodic");

        let mut accel = Field3::zeros([2, 2, 2]);
        for (i, v) in accel.as_mut_slice().iter_mut().enumerate() {
            *v = 0.3 * (i as f64 - 3.5);
        }
        sweep_velocity(&mut ps, 0, &accel, Scheme::SlMpp5, Exec::Simd);
        assert!(ps.as_slice().iter().all(|v| v.is_finite() && *v >= 0.0));
    }

    /// Strips end to end, sized for the Miri interpreter, on a `[2, 2, 4]`
    /// velocity grid (one strip per cell): along `z` a periodic sweep whose
    /// lanes shift apart — both signs, an exact zero, integer parts up to 2,
    /// so a window two cells wider than the stencil — on two pool workers,
    /// bitwise equal to the one-worker run and to each line advected alone;
    /// then along `x` the full window fed the periodic images as planes,
    /// bitwise equal to the periodic window.
    #[test]
    fn miri_smoke_strips() {
        let build = || {
            let mut ps = PhaseSpace::zeros([2, 1, 3], VelocityGrid::new([2, 2, 4], 1.0));
            for (i, v) in ps.as_mut_slice().iter_mut().enumerate() {
                *v = 0.01 + ((i * 37) % 29) as f32 / 29.0;
            }
            ps
        };
        let dims = build().dims6();
        assert_eq!(
            lane_shapes(Scheme::SlMpp5, &dims, |_| Exec::Simd),
            "x:mixed16 y:mixed16 z:mixed16 ux:packed8 uy:gather8 uz:scalar"
        );
        let cfl = [0.4, -1.7, 0.0, 2.25];
        let mut oracle = build();
        rayon::with_num_threads(1, || {
            sweep_spatial(&mut oracle, 2, &cfl, Scheme::SlMpp5, Exec::Simd);
        });
        let mut threaded = build();
        rayon::with_num_threads(2, || {
            sweep_spatial(&mut threaded, 2, &cfl, Scheme::SlMpp5, Exec::Simd);
        });
        assert_bits_eq(&oracle, &threaded, "1 vs 2 workers");
        let reference = periodic_reference(&build(), 2, &cfl, Exec::Simd);
        assert_bits_eq(&oracle, &reference, "strips vs lines alone");

        let mut ps = build();
        let cfl = [0.4, -0.7];
        // Cells −3..0 and 2..5 of the periodic 2-cell `x` axis, in
        // `extract_planes` layout: `x` is outermost, so plane after plane.
        let images = |cells: [usize; 3]| -> Vec<f32> {
            let planes = cells.map(|c| crate::exchange::extract_planes(&ps, 0, c, 1));
            planes.concat()
        };
        let (low, high) = (images([1, 0, 1]), images([0, 1, 0]));
        let mut ghosted = ps.clone();
        let full = Window::full(2, &low, &high);
        sweep_ghosted(
            &mut ghosted,
            0,
            &cfl,
            Scheme::SlMpp5,
            Exec::Simd,
            &[full],
            None,
        );
        sweep_spatial(&mut ps, 0, &cfl, Scheme::SlMpp5, Exec::Simd);
        assert_bits_eq(&ps, &ghosted, "ghosted vs periodic");
    }

    /// Same shape as [`miri_smoke_scalar_sweeps`] but driven through real
    /// pool workers — the CI Miri data-race step. Two threads are enough
    /// for Miri to explore cross-thread interleavings of the raw-pointer
    /// writes; the sweep must also stay bitwise equal to the 1-thread run.
    #[test]
    fn miri_smoke_threaded_sweep() {
        let build = || {
            let vg = VelocityGrid::cubic(6, 1.0);
            let mut ps = PhaseSpace::zeros([8, 2, 2], vg);
            ps.fill_with(|s, u| {
                let g = (-(u[0] * u[0] + u[1] * u[1] + u[2] * u[2]) / 0.3).exp();
                (1.0 + 0.2 * (s[0] as f64 * 0.8).sin()) * g + 0.01
            });
            ps
        };
        let cfl: Vec<f64> = (0..6).map(|k| 0.25 * (k as f64 - 2.5)).collect();
        let mut oracle = build();
        rayon::with_num_threads(1, || {
            sweep_spatial(&mut oracle, 0, &cfl, Scheme::SlMpp5, Exec::Scalar);
        });
        let mut threaded = build();
        rayon::with_num_threads(2, || {
            sweep_spatial(&mut threaded, 0, &cfl, Scheme::SlMpp5, Exec::Scalar);
        });
        assert_eq!(oracle.as_slice(), threaded.as_slice());
    }

    #[test]
    fn spatial_sweep_conserves_mass() {
        let cfl: Vec<f64> = (0..8).map(|k| 0.3 * (k as f64 - 3.5)).collect();
        for exec in [Exec::Scalar, Exec::Simd] {
            let mut ps = test_ps();
            let m0 = total(&ps);
            for d in 0..3 {
                sweep_spatial(&mut ps, d, &cfl, Scheme::SlMpp5, exec);
            }
            let m1 = total(&ps);
            assert!((m1 - m0).abs() < 1e-2 * m0, "{exec:?}: {m0} -> {m1}");
        }
    }

    #[test]
    fn spatial_sweep_with_uniform_velocity_translates() {
        // cfl = 1 for every velocity: exact one-cell shift along x.
        let cfl = vec![1.0; 8];
        let mut ps = test_ps();
        let orig = ps.clone();
        sweep_spatial(&mut ps, 0, &cfl, Scheme::SlMpp5, Exec::Simd);
        for ix in 0..8 {
            let src = (ix + 7) % 8;
            for iu in 0..8 {
                let a = ps.get([ix, 3, 4], [iu, 2, 5]);
                let b = orig.get([src, 3, 4], [iu, 2, 5]);
                assert!((a - b).abs() < 1e-6, "ix {ix}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn velocity_sweep_shifts_distribution_peak() {
        let vg = VelocityGrid::cubic(16, 2.0);
        let mut ps = PhaseSpace::zeros([2, 2, 2], vg);
        ps.fill_with(|_, u| (-(u[0] * u[0] + u[1] * u[1] + u[2] * u[2]) / 0.25).exp());
        let mut accel = Field3::zeros([2, 2, 2]);
        accel.fill(4.0); // shift +4 cells = +1.0 in u units (du = 0.25)
        sweep_velocity(&mut ps, 0, &accel, Scheme::SlMpp5, Exec::Simd);
        // The peak along ux should now sit at u ≈ +1.0 (index 11 or 12).
        let mut best = (0, -1.0f32);
        for iux in 0..16 {
            let v = ps.get([0, 0, 0], [iux, 8, 8]);
            if v > best.1 {
                best = (iux, v);
            }
        }
        // u = 1.0 lies at index (1.0 + 2.0)/0.25 - 0.5 = 11.5 → 11 or 12.
        assert!(best.0 == 11 || best.0 == 12, "peak at {}", best.0);
    }

    #[test]
    fn velocity_sweep_drains_mass_at_large_accel() {
        let vg = VelocityGrid::cubic(8, 1.0);
        let mut ps = PhaseSpace::zeros([2, 2, 2], vg);
        ps.fill_with(|_, _| 1.0);
        let mut accel = Field3::zeros([2, 2, 2]);
        accel.fill(3.0);
        let m0 = total(&ps);
        sweep_velocity(&mut ps, 1, &accel, Scheme::SlMpp5, Exec::Scalar);
        // 3 of 8 cells' content pushed past the +V edge.
        let m1 = total(&ps);
        assert!(m1 < m0 * 0.70, "{m0} -> {m1}");
        assert!(m1 > m0 * 0.55);
    }

    #[test]
    fn sweeps_preserve_positivity() {
        let mut ps = test_ps();
        let cfl: Vec<f64> = (0..8).map(|k| 0.45 * (k as f64 - 3.5) / 3.5).collect();
        let mut accel = Field3::zeros([8, 8, 8]);
        for (i, v) in accel.as_mut_slice().iter_mut().enumerate() {
            *v = ((i * 37) % 17) as f64 / 17.0 - 0.5;
        }
        for _ in 0..3 {
            for d in 0..3 {
                sweep_spatial(&mut ps, d, &cfl, Scheme::SlMpp5, Exec::Simd);
                sweep_velocity(&mut ps, d, &accel, Scheme::SlMpp5, Exec::Lat);
            }
        }
        assert!(ps.min_value() >= 0.0, "min = {}", ps.min_value());
    }

    /// A NaN in `f` stays visible (ROADMAP aim 3): one spatial and one
    /// velocity sweep later it fills exactly the cells whose stencils held it
    /// — it is neither clamped to zero by the positivity limiter nor smeared
    /// past the stencil — on the lane kernels and on the scalar one.
    #[test]
    fn planted_nan_survives_a_spatial_and_a_velocity_sweep() {
        let mut accel = Field3::zeros([8, 8, 8]);
        accel.as_mut_slice().fill(0.4);
        for exec in [Exec::Simd, Exec::Scalar] {
            let mut ps = test_ps();
            ps.set([4, 2, 6], [3, 5, 1], f32::NAN);
            // Forward in x for every u_x, then forward in u_x everywhere: a
            // stencil reaches two cells upwind and three downwind.
            sweep_spatial(&mut ps, 0, &[0.3; 8], Scheme::SlMpp5, exec);
            sweep_velocity(&mut ps, 0, &accel, Scheme::SlMpp5, exec);
            for x in 2..=7 {
                for ux in 1..=6 {
                    assert!(
                        ps.get([x, 2, 6], [ux, 5, 1]).is_nan(),
                        "{exec:?}: cell x={x} ux={ux} lost the NaN"
                    );
                }
            }
            let found = ps.as_slice().iter().filter(|v| v.is_nan()).count();
            assert_eq!(found, 6 * 6, "{exec:?}: NaN outside the stencils' reach");
        }
    }

    /// Three rounds of all six sweeps on the 12³ × 8³ grid of
    /// `tests/distributed_consistency.rs`, as one FNV-1a hash of the bits of
    /// `f`, against the value the commit before the lane kernels were
    /// dispatched by instruction set produced — so whichever entry this host
    /// selects, it computes what the baseline build always did. The filling
    /// and the shifts are sums and products only: nothing here depends on
    /// the host's `libm`.
    #[test]
    fn sweeps_reproduce_the_pinned_bits_on_any_isa() {
        use std::io::Write;
        const PINNED: u64 = 0x92df_a25b_25e8_8741;
        // Raw stderr: the harness captures `println!`, and the log should
        // say which entry was held to the pinned bits.
        let isa = vlasov6d_advection::simd::Isa::detect().name();
        let _ = writeln!(
            std::io::stderr(),
            "sweep checksum: lane kernels entered as {isa}"
        );

        let vg = VelocityGrid::cubic(8, 1.0);
        let mut accel = Field3::zeros([12, 12, 12]);
        for (i, v) in accel.as_mut_slice().iter_mut().enumerate() {
            *v = ((i * 37) % 23) as f64 / 23.0 - 0.5;
        }
        for exec in [Exec::Simd, Exec::Lat] {
            let mut ps = PhaseSpace::zeros([12, 12, 12], vg);
            ps.fill_with(|s, u| {
                let bump = (1.0 - 0.9 * (u[0] * u[0] + u[1] * u[1] + u[2] * u[2])).max(0.0);
                let sx = ((s[0] * 5 + s[1] * 3 + s[2] * 7) % 11) as f64 / 11.0;
                (0.5 + sx) * bump * bump + 0.01
            });
            for round in 0..3 {
                for d in 0..3 {
                    let scale = 0.3 * (1.0 + 0.1 * d as f64 + 0.05 * round as f64);
                    let cfl: Vec<f64> = (0..8).map(|k| scale * (k as f64 - 3.5) / 3.5).collect();
                    sweep_spatial(&mut ps, d, &cfl, Scheme::SlMpp5, exec);
                    sweep_velocity(&mut ps, d, &accel, Scheme::SlMpp5, exec);
                }
            }
            let hash = ps.as_slice().iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
                (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3)
            });
            assert_eq!(hash, PINNED, "{exec:?}: {hash:#018x}");
        }
    }
}
