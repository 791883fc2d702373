//! Task plans: the index arithmetic of every parallel sweep region.
//!
//! Each parallel region in [`crate::sweep`] enumerates tasks `0..count` and
//! each task touches a small structured set of flat indices of the `f`
//! array. This module is the *single source of truth* for that mapping: the
//! sweeps execute exactly the plans returned here, and `crates/racecheck`
//! re-enumerates the same plans to prove pairwise task disjointness (and to
//! cross-check the symbolic general-`n` models against the code). If a
//! sweep's addressing ever drifts from its plan, the racecheck taint probe
//! — which replays single tasks and compares observed writes against the
//! declared plan — fails.
//!
//! Plans come in three shapes, mirroring the paper's three access patterns:
//! a strided [`Line`] (scalar pencils), a strided [`Bundle`] of contiguous
//! lane groups (Fig. 1 packed SIMD), and a strided [`Tile`] pencil of 8×8
//! blocks (Fig. 3 load-and-transpose).

use crate::sweep::Exec;
use vlasov6d_advection::simd::LANES;

/// A strided pencil: flat indices `base + i*stride` for `i in 0..len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Line {
    pub base: usize,
    pub stride: usize,
    pub len: usize,
}

impl Line {
    /// Every flat index the plan touches, in traversal order.
    pub fn indices(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).flat_map(move |i| self.cell_indices(i))
    }

    /// The flat indices of cell `i` along the pencil — what a task that
    /// updates only some cells of its pencil (the distributed sweeps'
    /// interior and edge regions) touches there.
    pub fn cell_indices(&self, i: usize) -> impl Iterator<Item = usize> {
        std::iter::once(self.base + i * self.stride)
    }
}

/// A strided bundle pencil: for each `i in 0..len`, the `lanes` contiguous
/// indices starting at `base + i*stride`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bundle {
    pub base: usize,
    pub stride: usize,
    pub len: usize,
    pub lanes: usize,
}

impl Bundle {
    pub fn indices(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).flat_map(move |i| self.cell_indices(i))
    }

    /// As [`Line::cell_indices`]: the `lanes` indices of element `i`.
    pub fn cell_indices(&self, i: usize) -> impl Iterator<Item = usize> {
        let start = self.base + i * self.stride;
        start..start + self.lanes
    }
}

/// A strided tile pencil: for each `i in 0..len` and row `r in 0..rows`,
/// the `lanes` contiguous indices at `base + i*stride + r*row_stride`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    pub base: usize,
    pub stride: usize,
    pub len: usize,
    pub rows: usize,
    pub row_stride: usize,
    pub lanes: usize,
}

impl Tile {
    pub fn indices(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).flat_map(move |i| self.cell_indices(i))
    }

    /// As [`Line::cell_indices`]: the `rows × lanes` indices of tile `i`.
    pub fn cell_indices(&self, i: usize) -> impl Iterator<Item = usize> {
        let (start, row_stride, lanes) = (self.base + i * self.stride, self.row_stride, self.lanes);
        (0..self.rows).flat_map(move |r| (0..lanes).map(move |l| start + r * row_stride + l))
    }
}

/// Stride between consecutive cells along spatial axis `d`.
#[inline]
pub fn spatial_stride(dims: &[usize; 6], d: usize) -> usize {
    dims[d + 1..].iter().product()
}

/// Number of parallel tasks `sweep_spatial` launches for `(d, exec)`.
pub fn spatial_task_count(dims: &[usize; 6], d: usize, exec: Exec) -> usize {
    assert!(d < 3);
    let n_outer: usize = dims[..d].iter().product();
    let stride = spatial_stride(dims, d);
    match exec {
        Exec::Scalar => n_outer * stride,
        Exec::Simd | Exec::Lat if d < 2 => n_outer * (stride / LANES),
        Exec::Simd | Exec::Lat => n_outer * dims[3] * (dims[4] / LANES) * (dims[5] / LANES),
    }
}

/// Scalar spatial sweep, task → pencil. Task `t` decomposes as
/// `(outer, inner) = (t / stride, t % stride)`; the pencil runs over axis
/// `d` at fixed outer/inner coordinates.
pub fn spatial_line(dims: &[usize; 6], d: usize, task: usize) -> Line {
    let stride = spatial_stride(dims, d);
    let (outer, inner) = (task / stride, task % stride);
    Line {
        base: outer * dims[d] * stride + inner,
        stride,
        len: dims[d],
    }
}

/// SIMD/LAT spatial sweep along `d < 2`, task → bundle pencil: eight
/// contiguous `iuz` lanes ride each element (paper Fig. 1).
pub fn spatial_bundle(dims: &[usize; 6], d: usize, task: usize) -> Bundle {
    assert!(d < 2);
    let stride = spatial_stride(dims, d);
    let groups = stride / LANES;
    let (outer, group) = (task / groups, task % groups);
    Bundle {
        base: outer * dims[d] * stride + group * LANES,
        stride,
        len: dims[d],
        lanes: LANES,
    }
}

/// SIMD/LAT spatial sweep along `z`, task → 8×8 tile pencil: the tile index
/// decomposes as `(iux, yg, zg)` with `zg` fastest (paper Fig. 3 applied to
/// the spatial `z` axis).
pub fn spatial_tile(dims: &[usize; 6], task: usize) -> Tile {
    let (nux, nuy, nuz) = (dims[3], dims[4], dims[5]);
    let stride = spatial_stride(dims, 2);
    let tiles = nux * (nuy / LANES) * (nuz / LANES);
    let (outer, tile) = (task / tiles, task % tiles);
    let zg = tile % (nuz / LANES);
    let yg = (tile / (nuz / LANES)) % (nuy / LANES);
    let iux = tile / ((nuz / LANES) * (nuy / LANES));
    Tile {
        base: outer * dims[2] * stride + (iux * nuy + yg * LANES) * nuz + zg * LANES,
        stride,
        len: dims[2],
        rows: LANES,
        row_stride: nuz,
        lanes: LANES,
    }
}

/// The conjugate-velocity index (into `cfl_per_u`) of a spatial task. For
/// the z-tile shape this is the index of the tile's *first* row; row `r`
/// advects with `spatial_conjugate_u(..) + r`.
pub fn spatial_conjugate_u(dims: &[usize; 6], d: usize, exec: Exec, task: usize) -> usize {
    let stride = spatial_stride(dims, d);
    match exec {
        Exec::Scalar => velocity_index_of_inner(d, task % stride, dims),
        Exec::Simd | Exec::Lat if d < 2 => {
            let groups = stride / LANES;
            velocity_index_of_inner(d, (task % groups) * LANES, dims)
        }
        Exec::Simd | Exec::Lat => {
            let (nuy, nuz) = (dims[4], dims[5]);
            let tiles = dims[3] * (nuy / LANES) * (nuz / LANES);
            (task % tiles) % (nuz / LANES) * LANES
        }
    }
}

/// Extract the velocity index conjugate to spatial axis `d` from an "inner"
/// flat index (the part of the flat index after axis `d`).
#[inline]
pub fn velocity_index_of_inner(d: usize, inner: usize, dims: &[usize; 6]) -> usize {
    // inner spans dims[d+1..6]; velocity axis 3+d has stride prod(dims[3+d+1..]).
    let stride_ud: usize = dims[3 + d + 1..].iter().product();
    (inner / stride_ud) % dims[3 + d]
}

/// Number of parallel tasks `sweep_velocity` launches: one per spatial cell.
pub fn velocity_task_count(dims: &[usize; 6]) -> usize {
    dims[0] * dims[1] * dims[2]
}

/// Velocity sweep, task → contiguous velocity block of spatial cell `cell`.
pub fn velocity_block(dims: &[usize; 6], cell: usize) -> std::ops::Range<usize> {
    let vlen = dims[3] * dims[4] * dims[5];
    cell * vlen..(cell + 1) * vlen
}

// ---------------------------------------------------------------------------
// Intra-block pencil partitions (serial loops inside one velocity task).
//
// These describe how `sweep_block_u{x,y,z}` partition one cell's velocity
// block into pencils. They are not parallel tasks — each block is owned by
// a single worker — but racecheck proves the same property for them: the
// pencil write sets of one block partition it exactly, which pins down the
// Fig. 1–3 index arithmetic.
// ---------------------------------------------------------------------------

/// Number of pencil units `sweep_block_u<d>` iterates for one block.
pub fn block_unit_count(nux: usize, nuy: usize, nuz: usize, d: usize, exec: Exec) -> usize {
    match (d, exec) {
        (0, Exec::Scalar) => nuy * nuz,
        (0, _) => nuy * nuz / LANES,
        (1, Exec::Scalar) => nux * nuz,
        (1, _) => nux * (nuz / LANES),
        (2, Exec::Scalar) => nux * nuy,
        (2, _) => nux * (nuy / LANES),
        _ => panic!("velocity axis {d} out of range"),
    }
}

/// `sweep_block_ux`, scalar: unit = inner index over (iuy, iuz).
pub fn block_ux_line(nuy: usize, nuz: usize, nux: usize, unit: usize) -> Line {
    Line {
        base: unit,
        stride: nuy * nuz,
        len: nux,
    }
}

/// `sweep_block_ux`, SIMD: unit = 8-lane inner group (Fig. 1 shape).
pub fn block_ux_bundle(nuy: usize, nuz: usize, nux: usize, unit: usize) -> Bundle {
    Bundle {
        base: unit * LANES,
        stride: nuy * nuz,
        len: nux,
        lanes: LANES,
    }
}

/// `sweep_block_uy`, scalar: unit = `iux * nuz + iuz`.
pub fn block_uy_line(nuy: usize, nuz: usize, unit: usize) -> Line {
    let (iux, iuz) = (unit / nuz, unit % nuz);
    Line {
        base: iux * nuy * nuz + iuz,
        stride: nuz,
        len: nuy,
    }
}

/// `sweep_block_uy`, SIMD: unit = `iux * (nuz/8) + zgroup`.
pub fn block_uy_bundle(nuy: usize, nuz: usize, unit: usize) -> Bundle {
    let groups = nuz / LANES;
    let (iux, group) = (unit / groups, unit % groups);
    Bundle {
        base: iux * nuy * nuz + group * LANES,
        stride: nuz,
        len: nuy,
        lanes: LANES,
    }
}

/// `sweep_block_uz`, scalar: unit = contiguous line `(iux, iuy)`.
pub fn block_uz_line(nuz: usize, unit: usize) -> Line {
    Line {
        base: unit * nuz,
        stride: 1,
        len: nuz,
    }
}

/// `sweep_block_uz`, SIMD (Fig. 2 gathers) and LAT (Fig. 3 transpose):
/// unit = `iux * (nuy/8) + ygroup`, footprint = eight whole `iuz` rows.
pub fn block_uz_rows(nuy: usize, nuz: usize, unit: usize) -> Bundle {
    let groups = nuy / LANES;
    let (iux, group) = (unit / groups, unit % groups);
    Bundle {
        base: (iux * nuy + group * LANES) * nuz,
        stride: nuz,
        len: LANES,
        lanes: nuz,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_lines_tile_the_array() {
        let dims = [3, 2, 2, 2, 3, 2];
        let total: usize = dims.iter().product();
        for d in 0..3 {
            let mut seen = vec![false; total];
            for t in 0..spatial_task_count(&dims, d, Exec::Scalar) {
                for idx in spatial_line(&dims, d, t).indices() {
                    assert!(!seen[idx], "d={d} t={t} idx={idx} double-claimed");
                    seen[idx] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "d={d}: not covered");
        }
    }

    #[test]
    fn bundle_and_tile_plans_tile_the_array() {
        let dims = [2, 3, 2, 2, 8, 8];
        let total: usize = dims.iter().product();
        for d in 0..2 {
            let mut seen = vec![false; total];
            for t in 0..spatial_task_count(&dims, d, Exec::Simd) {
                for idx in spatial_bundle(&dims, d, t).indices() {
                    assert!(!seen[idx], "d={d} t={t} idx={idx}");
                    seen[idx] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "d={d}");
        }
        let mut seen = vec![false; total];
        for t in 0..spatial_task_count(&dims, 2, Exec::Lat) {
            for idx in spatial_tile(&dims, t).indices() {
                assert!(!seen[idx], "z-tile t={t} idx={idx}");
                seen[idx] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    type UnitIndices<'a> = &'a dyn Fn(usize) -> Vec<usize>;

    #[test]
    fn block_partitions_tile_the_block() {
        let (nux, nuy, nuz) = (2, 8, 8);
        let vlen = nux * nuy * nuz;
        let cases: [(usize, Exec, UnitIndices); 7] = [
            (0, Exec::Scalar, &|u| {
                block_ux_line(nuy, nuz, nux, u).indices().collect()
            }),
            (0, Exec::Simd, &|u| {
                block_ux_bundle(nuy, nuz, nux, u).indices().collect()
            }),
            (1, Exec::Scalar, &|u| {
                block_uy_line(nuy, nuz, u).indices().collect()
            }),
            (1, Exec::Simd, &|u| {
                block_uy_bundle(nuy, nuz, u).indices().collect()
            }),
            (2, Exec::Scalar, &|u| {
                block_uz_line(nuz, u).indices().collect()
            }),
            (2, Exec::Simd, &|u| {
                block_uz_rows(nuy, nuz, u).indices().collect()
            }),
            (2, Exec::Lat, &|u| {
                block_uz_rows(nuy, nuz, u).indices().collect()
            }),
        ];
        for (d, exec, plan) in cases {
            let mut seen = vec![false; vlen];
            for u in 0..block_unit_count(nux, nuy, nuz, d, exec) {
                for idx in plan(u) {
                    assert!(!seen[idx], "u{d} {exec:?} unit {u} idx {idx}");
                    seen[idx] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "u{d} {exec:?}: not covered");
        }
    }
}
