//! Concrete cross-validation: instantiate every symbolic model at sample
//! grid shapes and check it against (a) the plans the kernels actually
//! execute ([`vlasov6d_phase_space::plan`], `pool::chunk_ranges`, the FFT
//! column loop) and (b) a `ClaimMap` proving element-level disjointness
//! and exact cover.
//!
//! The symbolic pass proves the *models* race-free for all `n`; this pass
//! proves the models *are the code's plans* at enough shapes — including
//! thin axes and ragged chunk tails — that drift between model and kernel
//! cannot hide.

use crate::claims::ClaimMap;
use crate::report::Report;
use vlasov6d_advection::line::Scheme;
use vlasov6d_phase_space::plan;
use vlasov6d_phase_space::probe::{ghosted_out_cells, GhostedRegion};
use vlasov6d_phase_space::Exec;

use super::registry::{self, Shape, DIST_REGIONS};
use super::symbolic::RegionModel;

const PASS: &str = "concrete";

/// The plan-declared flat write set of one spatial-sweep task in the task
/// shape `exec`: the cells `region` updates, on the pencil `sweep_ghosted`
/// dispatches to the task.
pub(crate) fn declared_ghosted_indices(
    dims: &[usize; 6],
    d: usize,
    exec: Exec,
    region: GhostedRegion,
    task: usize,
) -> Vec<usize> {
    let cells = ghosted_out_cells(region, dims[d]);
    let cells = cells.iter().copied();
    match exec {
        Exec::Scalar => {
            let p = plan::spatial_line(dims, d, task);
            cells.flat_map(|i| p.cell_indices(i)).collect()
        }
        _ if plan::spatial_pairs(dims, d) => plan::Bundles::spatial(dims, d)
            .task(task)
            .flat_map(|(_, b)| cells.clone().flat_map(move |i| b.cell_indices(i)))
            .collect(),
        _ => {
            let p = plan::Strips::spatial(dims, d).task(task);
            cells.flat_map(|i| p.cell_indices(i)).collect()
        }
    }
}

/// The plan-declared write sets of the intra-block pencil units, in the
/// order a velocity sweep along `d` iterates them in the shape `exec`.
fn declared_block_units(dims: &[usize; 6], d: usize, exec: Exec) -> Vec<Vec<usize>> {
    match exec {
        Exec::Scalar => (0..plan::block_unit_count(dims, d, exec))
            .map(|unit| plan::block_line(dims, d, unit).indices().collect())
            .collect(),
        // The LAT task transposes the rows the bundle task gathers.
        Exec::Simd | Exec::Lat => plan::Bundles::block(dims, d)
            .task(0)
            .map(|(_, b)| b.indices().collect())
            .collect(),
    }
}

/// Check that `model` instantiated at `dims` matches `declared(task)` for
/// every task, and that the declared sets partition `0..total` exactly.
fn check_region_at(
    report: &mut Report,
    name: &str,
    model: &RegionModel,
    dims: &[usize],
    n_tasks: usize,
    total: usize,
    declared: impl FnMut(usize) -> Vec<usize>,
) {
    check_regions_at(report, &mut [(name, model, declared)], dims, n_tasks, total);
}

/// [`check_region_at`] for regions that tile the array *together* — the
/// interior and edge regions of an overlapped sweep share one task family,
/// and every cell must be updated by exactly one of them.
fn check_regions_at<D: FnMut(usize) -> Vec<usize>>(
    report: &mut Report,
    regions: &mut [(&str, &RegionModel, D)],
    dims: &[usize],
    n_tasks: usize,
    total: usize,
) {
    let witness = regions_witness(regions, dims, n_tasks, total);
    for (name, _, _) in regions.iter() {
        report.check(
            PASS,
            format!("{name}.dims{dims:?}"),
            format!("{n_tasks} task plans == symbolic sets; exact cover of {total} elements"),
            witness.clone(),
        );
    }
}

/// The first way the plans `regions` declare at `dims` differ from their
/// symbolic models or fail to partition `0..total` exactly, or `None`.
fn regions_witness<D: FnMut(usize) -> Vec<usize>>(
    regions: &mut [(&str, &RegionModel, D)],
    dims: &[usize],
    n_tasks: usize,
    total: usize,
) -> Option<String> {
    let mut claims = ClaimMap::new(total);
    for (r, (name, model, declared)) in regions.iter_mut().enumerate() {
        if model.task_count(dims) != n_tasks {
            let tasks = model.task_count(dims);
            return Some(format!(
                "{name}: model has {tasks} tasks, the kernel {n_tasks}"
            ));
        }
        for task in 0..n_tasks {
            let mut planned = declared(task);
            planned.sort_unstable();
            if planned != model.indices(dims, task) {
                return Some(format!(
                    "{name}: task {task}'s plan differs from its symbolic set"
                ));
            }
            if let Err(conflict) = claims.claim_all(r * n_tasks + task, planned) {
                return Some(format!("{name}: declared plans overlap: {conflict}"));
            }
        }
    }
    let gap = claims.exact_cover().err();
    gap.map(|idx| format!("declared plans leave index {idx} unclaimed"))
}

/// Sample shapes per task shape, including thin axes. The `mixed` shapes
/// are thin (`[2, 4, 4]`, the plasma scenarios' `[6, 4, 4]`), cubic (`8³`:
/// `y` strips) and ragged (`[4, 2, 6]`, `[4, 2, 4]`: strips along `x` too);
/// an axis uses those of them on which its sweep resolves to the shape.
fn spatial_shapes(shape: Shape) -> Vec<[usize; 6]> {
    match shape {
        Shape::Scalar => vec![[3, 2, 2, 2, 3, 2], [1, 4, 1, 3, 1, 2], [2, 1, 3, 1, 2, 1]],
        Shape::Simd => vec![[2, 3, 2, 2, 8, 8], [3, 1, 2, 1, 8, 16], [1, 2, 1, 2, 4, 16]],
        Shape::Mixed => vec![
            [2, 2, 2, 2, 4, 4],
            [3, 2, 4, 6, 4, 4],
            [1, 4, 2, 4, 2, 6],
            [2, 3, 1, 4, 2, 4],
            [1, 2, 3, 8, 8, 8],
        ],
    }
}

/// The task shape `sweep_spatial` resolves to along `d` of `dims` when asked
/// for lanes (scalar pencils when asked for those), provided it is `shape`.
fn resolved_as(dims: &[usize; 6], d: usize, shape: Shape) -> Option<Exec> {
    let request = match shape {
        Shape::Scalar => Exec::Scalar,
        _ => Exec::Simd,
    };
    let exec = request.resolve(Scheme::SlMpp5, dims, d);
    (Shape::of(dims, d, exec) == shape).then_some(exec)
}

pub fn run(report: &mut Report) {
    let regions = registry::regions();
    let find = |name: &str| {
        regions
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("region {name} not registered"))
    };

    // Spatial sweeps: 3 axes × (scalar, simd, lat, mixed); a `lat` request
    // runs the `simd` shapes.
    let tags = [
        (Shape::Scalar, "scalar"),
        (Shape::Simd, "simd"),
        (Shape::Simd, "lat"),
        (Shape::Mixed, "mixed"),
    ];
    for (d, axis) in ["x", "y", "z"].iter().enumerate() {
        for (shape, tag) in tags {
            if !shape.occurs_along(d) {
                continue;
            }
            let region = find(&format!("sweep.spatial.{axis}.{tag}"));
            for dims in spatial_shapes(shape) {
                let Some(exec) = resolved_as(&dims, d, shape) else {
                    continue;
                };
                let n_tasks = plan::spatial_task_count(&dims, d, exec);
                let total: usize = dims.iter().product();
                check_region_at(
                    report,
                    region.name,
                    &region.model,
                    &dims,
                    n_tasks,
                    total,
                    |t| declared_ghosted_indices(&dims, d, exec, GhostedRegion::Periodic, t),
                );
            }
        }
    }

    // Distributed sweeps: the synchronous region tiles the block alone, the
    // overlapped sweep's interior and edge regions tile it together. The
    // swept axis is at least 2·GHOST_WIDTH long wherever an interior exists.
    for (d, axis) in ["x", "y", "z"].iter().enumerate() {
        for (shape, tag) in Shape::ALL {
            if !shape.occurs_along(d) {
                continue;
            }
            let [sync, interior, edges] =
                DIST_REGIONS.map(|(_, name)| find(&format!("sweep.dist.{axis}.{name}.{tag}")));
            for mut dims in spatial_shapes(shape) {
                dims[d] += 5;
                let Some(exec) = resolved_as(&dims, d, shape) else {
                    continue;
                };
                let n_tasks = plan::spatial_task_count(&dims, d, exec);
                let total: usize = dims.iter().product();
                let declared =
                    |region| move |t| declared_ghosted_indices(&dims, d, exec, region, t);
                check_regions_at(
                    report,
                    &mut [(sync.name, &sync.model, declared(GhostedRegion::Sync))],
                    &dims,
                    n_tasks,
                    total,
                );
                check_regions_at(
                    report,
                    &mut [
                        (
                            interior.name,
                            &interior.model,
                            declared(GhostedRegion::Interior),
                        ),
                        (edges.name, &edges.model, declared(GhostedRegion::Edges)),
                    ],
                    &dims,
                    n_tasks,
                    total,
                );
            }
        }
    }

    // Velocity sweep: one contiguous block per spatial cell.
    {
        let region = find("sweep.velocity.blocks");
        for dims in [[3, 2, 2, 2, 3, 2], [1, 1, 4, 2, 8, 8]] {
            let n_tasks = plan::velocity_task_count(&dims);
            let total: usize = dims.iter().product();
            check_region_at(
                report,
                region.name,
                &region.model,
                &dims,
                n_tasks,
                total,
                |cell| plan::velocity_block(&dims, cell).collect(),
            );
        }
    }

    // Intra-block pencil partitions (Fig. 1-3 index arithmetic); `gather`:
    // thin and ragged blocks whose `u_y` / `u_z` bundles span several `iux`.
    let blocks: [(&str, usize, Exec); 9] = [
        ("sweep.block.ux.scalar", 0, Exec::Scalar),
        ("sweep.block.ux.simd", 0, Exec::Simd),
        ("sweep.block.uy.scalar", 1, Exec::Scalar),
        ("sweep.block.uy.simd", 1, Exec::Simd),
        ("sweep.block.uy.gather", 1, Exec::Simd),
        ("sweep.block.uz.scalar", 2, Exec::Scalar),
        ("sweep.block.uz.simd", 2, Exec::Simd),
        ("sweep.block.uz.lat", 2, Exec::Lat),
        ("sweep.block.uz.gather", 2, Exec::Simd),
    ];
    for (name, d, exec) in blocks {
        let region = find(name);
        let shapes: &[[usize; 3]] = match (exec, name.ends_with(".gather")) {
            (Exec::Scalar, _) => &[[2, 3, 2], [1, 1, 4], [3, 2, 1]],
            (_, false) => &[[2, 8, 8], [1, 8, 16], [3, 16, 8]],
            (_, true) => &[[6, 4, 4], [64, 4, 4], [4, 6, 2]],
        };
        for &[nux, nuy, nuz] in shapes {
            let dims = [1, 1, 1, nux, nuy, nuz];
            let units = declared_block_units(&dims, d, exec);
            check_region_at(
                report,
                region.name,
                &region.model,
                &[nux, nuy, nuz],
                plan::block_unit_count(&dims, d, exec),
                nux * nuy * nuz,
                |u| units.get(u).cloned().unwrap_or_default(),
            );
        }
    }

    // Moments: one output element per task (SliceMutSrc hands out indices).
    for name in [
        "moments.density",
        "moments.momentum",
        "moments.bulk_velocity",
        "moments.dispersion",
        "moments.step_sums",
    ] {
        let region = find(name);
        for cells in [1usize, 12, 30] {
            check_region_at(
                report,
                region.name,
                &region.model,
                &[cells],
                cells,
                cells,
                |t| vec![t],
            );
        }
    }

    // FFT axis-0 columns: mirror of `axis0_column_task`'s index loop,
    // `(i0 * n1 + i1) * n2 + i2` over all `(i0, i2)` for the task's `i1`.
    for name in ["fft.c2c.axis0.columns", "fft.r2c.axis0.columns"] {
        let region = find(name);
        for [n0, n1, n2] in [[4usize, 3, 2], [2, 5, 3], [1, 2, 4]] {
            check_region_at(
                report,
                region.name,
                &region.model,
                &[n0, n1, n2],
                n1,
                n0 * n1 * n2,
                |i1| {
                    (0..n0)
                        .flat_map(|i0| (0..n2).map(move |i2| (i0 * n1 + i1) * n2 + i2))
                        .collect()
                },
            );
        }
    }

    // Pool sources: per-element hand-out and aligned chunks.
    for name in ["pool.slice_mut", "pool.vec_into"] {
        let region = find(name);
        for len in [1usize, 7, 64] {
            check_region_at(report, region.name, &region.model, &[len], len, len, |t| {
                vec![t]
            });
        }
    }
    for name in ["pool.chunks_mut", "pool.chunk_claims"] {
        let region = find(name);
        // Divisible lengths: symbolic model and chunk plan must agree.
        for len in [8usize, 32, 64] {
            let n_chunks = len / 8;
            check_region_at(
                report,
                region.name,
                &region.model,
                &[len],
                n_chunks,
                len,
                |c| (c * 8..(c + 1) * 8).collect(),
            );
        }
    }
    // Ragged tails are outside the aligned symbolic family; prove them
    // directly from the pool's own chunk enumeration.
    for (len, grain) in [(10usize, 4usize), (7, 8), (1, 4), (13, 5), (4096, 1000)] {
        let chunks: Vec<_> = rayon::pool::chunk_ranges(len, grain).collect();
        let mut claims = ClaimMap::new(len);
        let overlap = chunks
            .iter()
            .enumerate()
            .try_for_each(|(task, r)| claims.claim_all(task, r.clone()));
        let witness = match overlap {
            Err(c) => Some(c.to_string()),
            Ok(()) => claims
                .exact_cover()
                .err()
                .map(|i| format!("index {i} unclaimed")),
        };
        report.check(
            PASS,
            format!("pool.chunk_claims.ragged.len{len}.grain{grain}"),
            format!("{} ragged chunks partition 0..{len} exactly", chunks.len()),
            witness,
        );
    }

    // Negative controls: the claim machinery must reject a deliberately
    // overlapping partition and a partition with a hole.
    {
        let mut claims = ClaimMap::new(16);
        let mut rejected = None;
        for task in 0..4 {
            // Stride-1 runs of length 5 every 4 elements: adjacent tasks
            // share their boundary element.
            if let Err(c) = claims.claim_all(task, task * 4..task * 4 + 5) {
                rejected = Some(c);
                break;
            }
        }
        report.control(
            PASS,
            "control.overlapping.partition",
            "length-5 runs on stride 4 must be caught as a double claim",
            rejected.is_some(),
            rejected.map(|c| c.to_string()),
        );
    }
    {
        let mut claims = ClaimMap::new(12);
        for task in 0..3 {
            // Claim only 3 of each task's 4 elements: cover must fail.
            claims.claim_all(task, task * 4..task * 4 + 3).unwrap();
        }
        let gap = claims.exact_cover().err();
        report.control(
            PASS,
            "control.gapped.partition",
            "a partition with holes must fail exact cover",
            gap.is_some(),
            gap.map(|i| format!("index {i} unclaimed")),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concrete_pass_is_clean() {
        let mut report = Report::new();
        run(&mut report);
        assert!(report.ok(), "{}", report.render_text("racecheck"));
        assert!(report.properties.len() > 60);
    }
}
