//! The region registry: every `par_iter`-shaped region in the workspace,
//! with its symbolic [`RegionModel`].
//!
//! This list is the contract between three enforcement layers:
//!
//! * the **symbolic pass** proves each model write-disjoint for all grid
//!   shapes ([`super::symbolic`]);
//! * the **concrete/probe passes** cross-check the models against the plans
//!   and kernels the code actually runs ([`super::concrete`],
//!   [`super::probe`]);
//! * the **`cargo xtask lint`** pass requires every `unsafe impl Send`/`Sync`
//!   in the workspace to cite at least one region here by name in its SAFETY
//!   comment (`[racecheck: name, …]`), and requires every region flagged
//!   [`Region::backs_unsafe_impl`] to be cited by some SAFETY comment —
//!   stale names in either direction fail the build.
//!
//! Intra-block partitions (`sweep.block.*`) and the moments reductions are
//! registered too, although they run inside a single task today: proving
//! them keeps the Fig. 1–3 index arithmetic pinned and makes them safe to
//! parallelise later without re-deriving anything.

use super::symbolic::{AxisFootprint, Divisibility, Extent, RegionModel};
use vlasov6d_advection::simd::LANES;
use vlasov6d_phase_space::exchange::GHOST_WIDTH;
use vlasov6d_phase_space::plan::{self, STRIP};
use vlasov6d_phase_space::probe::GhostedRegion;
use vlasov6d_phase_space::Exec;

/// One registered parallel (or partition-shaped) region.
#[derive(Debug, Clone)]
pub struct Region {
    /// Stable dotted name, cited by SAFETY comments and reports.
    pub name: &'static str,
    /// Where the region lives and what it partitions.
    pub about: &'static str,
    /// True when an `unsafe impl Send`/`Sync` somewhere in the workspace
    /// justifies itself by citing this region.
    pub backs_unsafe_impl: bool,
    /// Symbolic footprint model, proved by [`super::symbolic`].
    pub model: RegionModel,
}

/// Scalar spatial sweep along `d`: one pencil per remaining coordinate.
fn spatial_scalar_model(d: usize) -> RegionModel {
    let mut task_digits = Vec::new();
    let mut write = Vec::new();
    for a in 0..6 {
        if a == d {
            write.push(AxisFootprint::Full);
        } else {
            write.push(AxisFootprint::TaskDigit(task_digits.len()));
            task_digits.push(Extent::Axis(a));
        }
    }
    RegionModel {
        array_rank: 6,
        task_digits,
        write: write.clone(),
        read_same_array: Some(write),
        constraints: vec![],
        conjugate: None,
    }
}

/// The free axes of a spatial sweep along `d` after its conjugate one: one
/// *run* of the layout.
const RUN: [&[usize]; 3] = [&[4, 5], &[5], &[]];
/// The axes other than `d`, in layout order: what a strip flattens.
const ACROSS: [&[usize]; 3] = [&[1, 2, 3, 4, 5], &[0, 2, 3, 4, 5], &[0, 1, 3, 4, 5]];

/// Lane spatial sweep along `d < 2` where a run of the layout holds whole
/// bundles (paper Fig. 1; the sweep asks for whole pairs, `nuy·nuz % 16 == 0`
/// for `x`, `nuz % 16 == 0` for `y`): a task owns every bundle of one run at
/// every conjugate index, so its digits are the free axes ahead of the
/// conjugate one.
fn spatial_run_model(d: usize) -> RegionModel {
    assert!(d < 2);
    let mut task_digits = Vec::new();
    let mut write = Vec::new();
    for a in 0..6 {
        if a == d || a >= 3 + d {
            write.push(AxisFootprint::Full);
        } else {
            write.push(AxisFootprint::TaskDigit(task_digits.len()));
            task_digits.push(Extent::Axis(a));
        }
    }
    RegionModel {
        array_rank: 6,
        task_digits,
        write: write.clone(),
        read_same_array: Some(write),
        constraints: vec![Divisibility {
            axes: RUN[d],
            divisor: LANES,
        }],
        conjugate: Some(3 + d),
    }
}

/// Strip spatial sweep along `d` — every lane at its own shift, wherever
/// runs do not hold whole pairs: a task owns a run of [`STRIP`] consecutive
/// cells of the flattened axes other than `d` (`Exec::resolve` asks more:
/// the velocity extents alone supply the factor 16, so a strip never leaves
/// its spatial cell), along the whole pencil. Its lanes share no shift, so
/// there is no conjugate axis for a group to respect.
fn spatial_strip_model(d: usize) -> RegionModel {
    let write: Vec<_> = (0..6)
        .map(|a| match a == d {
            true => AxisFootprint::Full,
            false => AxisFootprint::Flat(0),
        })
        .collect();
    RegionModel {
        array_rank: 6,
        task_digits: vec![Extent::FlatDiv(ACROSS[d], STRIP)],
        write: write.clone(),
        read_same_array: Some(write),
        constraints: vec![Divisibility {
            axes: ACROSS[d],
            divisor: STRIP,
        }],
        conjugate: None,
    }
}

/// Velocity sweep: one task per spatial cell, owning the cell's whole
/// contiguous velocity block.
fn velocity_blocks_model() -> RegionModel {
    let write = vec![
        AxisFootprint::TaskDigit(0),
        AxisFootprint::TaskDigit(1),
        AxisFootprint::TaskDigit(2),
        AxisFootprint::Full,
        AxisFootprint::Full,
        AxisFootprint::Full,
    ];
    RegionModel {
        array_rank: 6,
        task_digits: vec![Extent::Axis(0), Extent::Axis(1), Extent::Axis(2)],
        write: write.clone(),
        read_same_array: Some(write),
        constraints: vec![],
        conjugate: None,
    }
}

/// Scalar intra-block pencil partition over one `[nux, nuy, nuz]` velocity
/// block, swept along `pencil`.
fn block_line_model(pencil: usize) -> RegionModel {
    let mut task_digits = Vec::new();
    let mut write = Vec::new();
    for a in 0..3 {
        if a == pencil {
            write.push(AxisFootprint::Full);
        } else {
            write.push(AxisFootprint::TaskDigit(task_digits.len()));
            task_digits.push(Extent::Axis(a));
        }
    }
    RegionModel {
        array_rank: 3,
        task_digits,
        write: write.clone(),
        read_same_array: Some(write),
        constraints: vec![],
        conjugate: None,
    }
}

/// Lane intra-block partition: bundles of eight consecutive lines of the
/// flattening of the two axes other than `pencil` — packed along `u_x`,
/// gathered or transposed along `u_z`, either along `u_y`.
fn block_bundle_model(pencil: usize) -> RegionModel {
    const FREE: [&[usize]; 3] = [&[1, 2], &[0, 2], &[0, 1]];
    let write: Vec<_> = (0..3)
        .map(|a| match a == pencil {
            true => AxisFootprint::Full,
            false => AxisFootprint::Flat(0),
        })
        .collect();
    RegionModel {
        array_rank: 3,
        task_digits: vec![Extent::FlatDiv(FREE[pencil], LANES)],
        write: write.clone(),
        read_same_array: Some(write),
        constraints: vec![Divisibility {
            axes: FREE[pencil],
            divisor: LANES,
        }],
        conjugate: None,
    }
}

/// Moments reduction: one task per element of the flat output field; the
/// distribution function is only read (a different array).
fn moments_model() -> RegionModel {
    RegionModel {
        array_rank: 1,
        task_digits: vec![Extent::Axis(0)],
        write: vec![AxisFootprint::TaskDigit(0)],
        read_same_array: None,
        constraints: vec![],
        conjugate: None,
    }
}

/// FFT axis-0 pass: one task per `i1` plane-column; each task owns the
/// columns `(·, i1, ·)` of the `[n0, n1, n2]` array.
fn fft_axis0_model() -> RegionModel {
    let write = vec![
        AxisFootprint::Full,
        AxisFootprint::TaskDigit(0),
        AxisFootprint::Full,
    ];
    RegionModel {
        array_rank: 3,
        task_digits: vec![Extent::Axis(1)],
        write: write.clone(),
        read_same_array: Some(write),
        constraints: vec![],
        conjugate: None,
    }
}

/// `SliceMutSrc` / `VecSrc`: the pool hands out element `i` to task `i`,
/// each index at most once.
fn per_element_model() -> RegionModel {
    RegionModel {
        array_rank: 1,
        task_digits: vec![Extent::Axis(0)],
        write: vec![AxisFootprint::TaskDigit(0)],
        read_same_array: None,
        constraints: vec![],
        conjugate: None,
    }
}

/// `ChunksMutSrc` / the pool's chunk claiming: aligned fixed-width blocks.
/// Ragged tails (len not divisible by the width) are covered by the concrete
/// pass, which exercises `pool::chunk_ranges` directly.
fn chunked_model(width: usize) -> RegionModel {
    RegionModel {
        array_rank: 1,
        task_digits: vec![Extent::AxisDiv(0, width)],
        write: vec![AxisFootprint::TaskBlock { digit: 0, width }],
        read_same_array: None,
        constraints: vec![Divisibility {
            axes: &[0],
            divisor: width,
        }],
        conjugate: None,
    }
}

/// The shape of a spatial-sweep region's tasks, as the region names spell
/// it: `scalar` pencils, `simd` (and `lat`) for the packed bundle pairs of
/// grids whose runs hold sixteen lines at one shift, `mixed` for the strips
/// of every other lane grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Scalar,
    Simd,
    Mixed,
}

impl Shape {
    pub const ALL: [(Shape, &'static str); 3] = [
        (Shape::Scalar, "scalar"),
        (Shape::Simd, "simd"),
        (Shape::Mixed, "mixed"),
    ];

    /// `z` never pairs: no velocity axis follows `u_z`, so no two of its
    /// consecutive cells share a shift.
    pub(crate) fn occurs_along(self, d: usize) -> bool {
        (self, d) != (Shape::Simd, 2)
    }

    /// The shape `sweep_spatial` / `sweep_ghosted` run along `d` of a `dims`
    /// grid in the task shape `exec` ([`Exec::resolve`]'s answer).
    pub fn of(dims: &[usize; 6], d: usize, exec: Exec) -> Shape {
        match exec {
            Exec::Scalar => Shape::Scalar,
            _ if plan::spatial_pairs(dims, d) => Shape::Simd,
            _ => Shape::Mixed,
        }
    }
}

/// Spatial sweep region, by axis and task shape.
pub(crate) fn spatial_model(d: usize, shape: Shape) -> RegionModel {
    match shape {
        Shape::Scalar => spatial_scalar_model(d),
        Shape::Simd => spatial_run_model(d),
        Shape::Mixed => spatial_strip_model(d),
    }
}

/// The three parallel regions of a distributed sweep (`phase-space`
/// `exchange.rs`), named as in the region registry.
pub(crate) const DIST_REGIONS: [(GhostedRegion, &str); 3] = [
    (GhostedRegion::Sync, "sync"),
    (GhostedRegion::Interior, "interior"),
    (GhostedRegion::Edges, "edges"),
];

/// Distributed-sweep region along `d`: the tasks and pencils of
/// [`spatial_model`], each reading its whole pencil of the block (the ghost
/// planes are other arrays) and writing the cells `region` updates.
pub(crate) fn dist_model(d: usize, shape: Shape, region: GhostedRegion) -> RegionModel {
    let mut model = spatial_model(d, shape);
    model.write[d] = match region {
        GhostedRegion::Periodic | GhostedRegion::Sync => AxisFootprint::Full,
        GhostedRegion::Interior => AxisFootprint::Inner(GHOST_WIDTH),
        GhostedRegion::Edges => AxisFootprint::Edges(GHOST_WIDTH),
    };
    model
}

/// Every registered region, in report order.
pub fn regions() -> Vec<Region> {
    let mut regions = Vec::new();
    // `lat` requests run the `simd` shapes on the spatial axes; `z` never
    // pairs.
    let spatial_names: [&[(&'static str, Shape)]; 3] = [
        &[
            ("sweep.spatial.x.scalar", Shape::Scalar),
            ("sweep.spatial.x.simd", Shape::Simd),
            ("sweep.spatial.x.lat", Shape::Simd),
            ("sweep.spatial.x.mixed", Shape::Mixed),
        ],
        &[
            ("sweep.spatial.y.scalar", Shape::Scalar),
            ("sweep.spatial.y.simd", Shape::Simd),
            ("sweep.spatial.y.lat", Shape::Simd),
            ("sweep.spatial.y.mixed", Shape::Mixed),
        ],
        &[
            ("sweep.spatial.z.scalar", Shape::Scalar),
            ("sweep.spatial.z.mixed", Shape::Mixed),
        ],
    ];
    for (d, names) in spatial_names.into_iter().enumerate() {
        for &(name, shape) in names {
            regions.push(Region {
                name,
                about: "phase-space sweep.rs sweep_spatial: one pencil, bundle-pair run or \
                        strip task per remaining coordinate of f",
                backs_unsafe_impl: true,
                model: spatial_model(d, shape),
            });
        }
    }
    // Axis-major, then region in `DIST_REGIONS` order, then `Shape::ALL`.
    let dist_names: [&'static str; 24] = [
        "sweep.dist.x.sync.scalar",
        "sweep.dist.x.sync.simd",
        "sweep.dist.x.sync.mixed",
        "sweep.dist.x.interior.scalar",
        "sweep.dist.x.interior.simd",
        "sweep.dist.x.interior.mixed",
        "sweep.dist.x.edges.scalar",
        "sweep.dist.x.edges.simd",
        "sweep.dist.x.edges.mixed",
        "sweep.dist.y.sync.scalar",
        "sweep.dist.y.sync.simd",
        "sweep.dist.y.sync.mixed",
        "sweep.dist.y.interior.scalar",
        "sweep.dist.y.interior.simd",
        "sweep.dist.y.interior.mixed",
        "sweep.dist.y.edges.scalar",
        "sweep.dist.y.edges.simd",
        "sweep.dist.y.edges.mixed",
        "sweep.dist.z.sync.scalar",
        "sweep.dist.z.sync.mixed",
        "sweep.dist.z.interior.scalar",
        "sweep.dist.z.interior.mixed",
        "sweep.dist.z.edges.scalar",
        "sweep.dist.z.edges.mixed",
    ];
    let mut dist_names = dist_names.into_iter();
    for d in 0..3 {
        for (region, _) in DIST_REGIONS {
            for (shape, _) in Shape::ALL {
                if !shape.occurs_along(d) {
                    continue;
                }
                regions.push(Region {
                    name: dist_names.next().expect("24 names: 3 × 3 × 3 less z.simd"),
                    about: "phase-space sweep.rs sweep_ghosted: the distributed sweeps' pencil \
                            tasks, writing the whole pencil (sync), its interior, or its edges",
                    backs_unsafe_impl: true,
                    model: dist_model(d, shape, region),
                });
            }
        }
    }
    regions.push(Region {
        name: "sweep.velocity.blocks",
        about: "phase-space sweep.rs sweep_velocity: par_chunks_mut — one task per spatial \
                cell's velocity block",
        backs_unsafe_impl: false,
        model: velocity_blocks_model(),
    });
    // `gather`: the same bundle partition on thin and ragged blocks, where
    // `u_y` / `u_z` bundles span several `iux`.
    let blocks: [(&'static str, usize, bool); 9] = [
        ("sweep.block.ux.scalar", 0, false),
        ("sweep.block.ux.simd", 0, true),
        ("sweep.block.uy.scalar", 1, false),
        ("sweep.block.uy.simd", 1, true),
        ("sweep.block.uy.gather", 1, true),
        ("sweep.block.uz.scalar", 2, false),
        ("sweep.block.uz.simd", 2, true),
        ("sweep.block.uz.lat", 2, true),
        ("sweep.block.uz.gather", 2, true),
    ];
    for (name, pencil, lanes) in blocks {
        regions.push(Region {
            name,
            about: "phase-space sweep.rs sweep_block_*: pencil partition of one velocity \
                    block (Fig. 1-3 index arithmetic)",
            backs_unsafe_impl: false,
            model: match lanes {
                true => block_bundle_model(pencil),
                false => block_line_model(pencil),
            },
        });
    }
    for name in [
        "moments.density",
        "moments.momentum",
        "moments.bulk_velocity",
        "moments.dispersion",
        "moments.step_sums",
    ] {
        regions.push(Region {
            name,
            about: "phase-space moments.rs: par_iter_mut over the output field, one cell \
                    reduction per task",
            backs_unsafe_impl: false,
            model: moments_model(),
        });
    }
    for name in ["fft.c2c.axis0.columns", "fft.r2c.axis0.columns"] {
        regions.push(Region {
            name,
            about: "fft fft3d.rs axis0_column_task: one i1 plane-column of the [n0,n1,n2] \
                    array per task",
            backs_unsafe_impl: true,
            model: fft_axis0_model(),
        });
    }
    regions.push(Region {
        name: "pool.slice_mut",
        about: "compat/rayon SliceMutSrc: par_iter_mut hands each element index to at most \
                one task",
        backs_unsafe_impl: true,
        model: per_element_model(),
    });
    regions.push(Region {
        name: "pool.chunks_mut",
        about: "compat/rayon ChunksMutSrc: par_chunks_mut hands out disjoint aligned chunks \
                (ragged tail checked concretely)",
        backs_unsafe_impl: true,
        model: chunked_model(LANES),
    });
    regions.push(Region {
        name: "pool.vec_into",
        about: "compat/rayon VecSrc: into_par_iter moves each element out exactly once",
        backs_unsafe_impl: true,
        model: per_element_model(),
    });
    regions.push(Region {
        name: "pool.chunk_claims",
        about: "compat/rayon pool::for_each_task: atomic fetch_add claims each grain-sized \
                chunk of the task range once",
        backs_unsafe_impl: false,
        model: chunked_model(LANES),
    });
    regions
}

/// All registered names, for the xtask SAFETY-tag lint.
pub fn region_names() -> Vec<&'static str> {
    regions().iter().map(|r| r.name).collect()
}

/// Names that must be cited by at least one `unsafe impl` SAFETY comment.
pub fn backing_region_names() -> Vec<&'static str> {
    regions()
        .iter()
        .filter(|r| r.backs_unsafe_impl)
        .map(|r| r.name)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_unique() {
        let regions = regions();
        assert_eq!(regions.len(), 55);
        let mut names: Vec<_> = regions.iter().map(|r| r.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 55, "duplicate region names");
        assert_eq!(backing_region_names().len(), 39);
    }

    #[test]
    fn every_model_proves_write_disjoint() {
        for r in regions() {
            crate::racecheck::symbolic::prove_write_disjoint(&r.model)
                .unwrap_or_else(|e| panic!("{}: {e}", r.name));
        }
    }
}
