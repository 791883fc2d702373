//! The region registry: every `par_iter`-shaped region in the workspace,
//! with its symbolic [`RegionModel`].
//!
//! This list is the contract between three enforcement layers:
//!
//! * the **symbolic pass** proves each model write-disjoint for all grid
//!   shapes ([`crate::symbolic`]);
//! * the **concrete/probe passes** cross-check the models against the plans
//!   and kernels the code actually runs ([`crate::concrete`],
//!   [`crate::probe`]);
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

use crate::symbolic::{AxisFootprint, Divisibility, Extent, RegionModel};
use vlasov6d_advection::simd::LANES;
use vlasov6d_phase_space::exchange::GHOST_WIDTH;
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
    /// Symbolic footprint model, proved by [`crate::symbolic`].
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
    }
}

/// SIMD/LAT spatial sweep along `d < 2`: pencils carry eight contiguous
/// `iuz` lanes (paper Fig. 1), so the last digit ranges over `nuz / 8`.
fn spatial_bundle_model(d: usize) -> RegionModel {
    assert!(d < 2);
    let mut task_digits = Vec::new();
    let mut write = Vec::new();
    for a in 0..6 {
        if a == d {
            write.push(AxisFootprint::Full);
        } else if a == 5 {
            write.push(AxisFootprint::TaskBlock {
                digit: task_digits.len(),
                width: LANES,
            });
            task_digits.push(Extent::AxisDiv(5, LANES));
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
            axis: 5,
            divisor: LANES,
        }],
    }
}

/// SIMD/LAT spatial sweep along `z`: 8×8 `(iuy, iuz)` tile pencils
/// (paper Fig. 3 applied to the spatial `z` axis).
fn spatial_tile_model() -> RegionModel {
    RegionModel {
        array_rank: 6,
        task_digits: vec![
            Extent::Axis(0),
            Extent::Axis(1),
            Extent::Axis(3),
            Extent::AxisDiv(4, LANES),
            Extent::AxisDiv(5, LANES),
        ],
        write: vec![
            AxisFootprint::TaskDigit(0),
            AxisFootprint::TaskDigit(1),
            AxisFootprint::Full,
            AxisFootprint::TaskDigit(2),
            AxisFootprint::TaskBlock {
                digit: 3,
                width: LANES,
            },
            AxisFootprint::TaskBlock {
                digit: 4,
                width: LANES,
            },
        ],
        read_same_array: Some(vec![
            AxisFootprint::TaskDigit(0),
            AxisFootprint::TaskDigit(1),
            AxisFootprint::Full,
            AxisFootprint::TaskDigit(2),
            AxisFootprint::TaskBlock {
                digit: 3,
                width: LANES,
            },
            AxisFootprint::TaskBlock {
                digit: 4,
                width: LANES,
            },
        ]),
        constraints: vec![
            Divisibility {
                axis: 4,
                divisor: LANES,
            },
            Divisibility {
                axis: 5,
                divisor: LANES,
            },
        ],
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
    }
}

/// Intra-block pencil partition over one `[nux, nuy, nuz]` velocity block.
/// `pencil` is the swept axis; `blocked` optionally turns one selecting axis
/// into aligned 8-wide blocks.
fn block_model(pencil: usize, blocked: Option<usize>) -> RegionModel {
    let mut task_digits = Vec::new();
    let mut write = Vec::new();
    let mut constraints = Vec::new();
    for a in 0..3 {
        if a == pencil {
            write.push(AxisFootprint::Full);
        } else if blocked == Some(a) {
            write.push(AxisFootprint::TaskBlock {
                digit: task_digits.len(),
                width: LANES,
            });
            task_digits.push(Extent::AxisDiv(a, LANES));
            constraints.push(Divisibility {
                axis: a,
                divisor: LANES,
            });
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
        constraints,
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
            axis: 0,
            divisor: width,
        }],
    }
}

/// Spatial sweep region, by axis and execution variant.
pub fn spatial_model(d: usize, exec: Exec) -> RegionModel {
    match exec {
        Exec::Scalar => spatial_scalar_model(d),
        Exec::Simd | Exec::Lat if d < 2 => spatial_bundle_model(d),
        Exec::Simd | Exec::Lat => spatial_tile_model(),
    }
}

/// The three parallel regions of a distributed sweep (`phase-space`
/// `exchange.rs`), named as in the region registry.
pub const DIST_REGIONS: [(GhostedRegion, &str); 3] = [
    (GhostedRegion::Sync, "sync"),
    (GhostedRegion::Interior, "interior"),
    (GhostedRegion::Edges, "edges"),
];

/// Distributed-sweep region along `d`: the tasks and pencils of
/// [`spatial_model`] (scalar pencils or lane bundles / tiles — `Exec::Simd`
/// and `Exec::Lat` coincide), each reading its whole pencil of the block (the
/// ghost planes are other arrays) and writing the cells `region` updates.
pub fn dist_model(d: usize, exec: Exec, region: GhostedRegion) -> RegionModel {
    let mut model = spatial_model(d, exec);
    model.write[d] = match region {
        GhostedRegion::Sync => AxisFootprint::Full,
        GhostedRegion::Interior => AxisFootprint::Inner(GHOST_WIDTH),
        GhostedRegion::Edges => AxisFootprint::Edges(GHOST_WIDTH),
    };
    model
}

/// Every registered region, in report order.
pub fn regions() -> Vec<Region> {
    let mut regions = Vec::new();
    let execs = [
        (Exec::Scalar, "scalar"),
        (Exec::Simd, "simd"),
        (Exec::Lat, "lat"),
    ];
    let spatial_names: [[&'static str; 3]; 3] = [
        [
            "sweep.spatial.x.scalar",
            "sweep.spatial.x.simd",
            "sweep.spatial.x.lat",
        ],
        [
            "sweep.spatial.y.scalar",
            "sweep.spatial.y.simd",
            "sweep.spatial.y.lat",
        ],
        [
            "sweep.spatial.z.scalar",
            "sweep.spatial.z.simd",
            "sweep.spatial.z.lat",
        ],
    ];
    for d in 0..3 {
        for (e, (exec, _)) in execs.iter().enumerate() {
            regions.push(Region {
                name: spatial_names[d][e],
                about: "phase-space sweep.rs sweep_spatial: one pencil task per remaining \
                        coordinate of f",
                backs_unsafe_impl: true,
                model: spatial_model(d, *exec),
            });
        }
    }
    // Axis-major, then region in `DIST_REGIONS` order, then scalar / simd.
    let dist_names: [&'static str; 18] = [
        "sweep.dist.x.sync.scalar",
        "sweep.dist.x.sync.simd",
        "sweep.dist.x.interior.scalar",
        "sweep.dist.x.interior.simd",
        "sweep.dist.x.edges.scalar",
        "sweep.dist.x.edges.simd",
        "sweep.dist.y.sync.scalar",
        "sweep.dist.y.sync.simd",
        "sweep.dist.y.interior.scalar",
        "sweep.dist.y.interior.simd",
        "sweep.dist.y.edges.scalar",
        "sweep.dist.y.edges.simd",
        "sweep.dist.z.sync.scalar",
        "sweep.dist.z.sync.simd",
        "sweep.dist.z.interior.scalar",
        "sweep.dist.z.interior.simd",
        "sweep.dist.z.edges.scalar",
        "sweep.dist.z.edges.simd",
    ];
    let mut dist_names = dist_names.into_iter();
    for d in 0..3 {
        for (region, _) in DIST_REGIONS {
            for exec in [Exec::Scalar, Exec::Simd] {
                regions.push(Region {
                    name: dist_names.next().expect("18 names for 3 × 3 × 2 regions"),
                    about: "phase-space sweep.rs sweep_ghosted: the distributed sweeps' pencil \
                            tasks, writing the whole pencil (sync), its interior, or its edges",
                    backs_unsafe_impl: true,
                    model: dist_model(d, exec, region),
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
    let blocks: [(&'static str, usize, Option<usize>); 7] = [
        ("sweep.block.ux.scalar", 0, None),
        ("sweep.block.ux.simd", 0, Some(2)),
        ("sweep.block.uy.scalar", 1, None),
        ("sweep.block.uy.simd", 1, Some(2)),
        ("sweep.block.uz.scalar", 2, None),
        ("sweep.block.uz.simd", 2, Some(1)),
        ("sweep.block.uz.lat", 2, Some(1)),
    ];
    for (name, pencil, blocked) in blocks {
        regions.push(Region {
            name,
            about: "phase-space sweep.rs sweep_block_u*: pencil partition of one velocity \
                    block (Fig. 1-3 index arithmetic)",
            backs_unsafe_impl: false,
            model: block_model(pencil, blocked),
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
        assert_eq!(regions.len(), 46);
        let mut names: Vec<_> = regions.iter().map(|r| r.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 46, "duplicate region names");
        assert_eq!(backing_region_names().len(), 32);
    }

    #[test]
    fn every_model_proves_write_disjoint() {
        for r in regions() {
            crate::symbolic::prove_write_disjoint(&r.model)
                .unwrap_or_else(|e| panic!("{}: {e}", r.name));
        }
    }
}
