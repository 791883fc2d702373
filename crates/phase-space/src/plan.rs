//! Task plans: the index arithmetic of every parallel sweep region.
//!
//! Each parallel region in [`crate::sweep`] enumerates tasks `0..count` and
//! each task touches a small structured set of flat indices of the `f`
//! array. This module is the *single source of truth* for that mapping: the
//! sweeps execute exactly the plans returned here, and racecheck (`crates/verify`)
//! re-enumerates the same plans to prove pairwise task disjointness (and to
//! cross-check the symbolic general-`n` models against the code). If a
//! sweep's addressing ever drifts from its plan, the racecheck taint probe
//! — which replays single tasks and compares observed writes against the
//! declared plan — fails.
//!
//! Plans come in three shapes, mirroring the paper's three access patterns:
//! a strided [`Line`] (scalar pencils), a [`Bundle`] of eight lines that
//! share the sweep's shift (Fig. 1 packed SIMD where their cells are
//! adjacent in memory, Fig. 2 element gathers where they are not), and a
//! strided [`Tile`] pencil of 8×8 blocks (Fig. 3 load-and-transpose).
//!
//! **The bundle rule** ([`Bundles`]). Which lines may share a bundle is a
//! property of the sweep, not of the layout: a spatial sweep along `d` shifts
//! a line by its conjugate velocity index `iu_d`, a velocity sweep shifts
//! every line of a cell's block alike. So the *free* axes — every axis but
//! the swept one and, for spatial sweeps, the conjugate one — are flattened
//! in layout order (last axis fastest) and group `g` holds free indices
//! `8g … 8g+7`, advected at every `iu_d` in turn. [`Exec::resolve`] runs
//! lanes whenever the free *velocity* extents multiply to a multiple of
//! [`LANES`] — a rule about the velocity grid alone, under which a bundle
//! never leaves its spatial cell:
//!
//! | sweep | free axes | lanes when | packed when |
//! |---|---|---|---|
//! | `x` | `y z u_y u_z` | `nuy·nuz % 8 == 0` | always |
//! | `y` | `x z u_x u_z` | `nux·nuz % 8 == 0` | `nuz % 8 == 0` |
//! | `z` | `x y u_x u_y` | `nux·nuy % 8 == 0` | never (8×8 tiles instead where `nuy`, `nuz` divide by 8) |
//! | `u_x` | `u_y u_z` | `nuy·nuz % 8 == 0` | always |
//! | `u_y` | `u_x u_z` | `nux·nuz % 8 == 0` | `nuz % 8 == 0` |
//! | `u_z` | `u_x u_y` | `nux·nuy % 8 == 0` | never (Fig. 2 rows; LAT where `nuy`, `nuz` divide by 8) |

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

/// A bundle pencil: lane `l` is the line `bases[l] + i*stride`, `i in
/// 0..len`. `bases` ascend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bundle {
    pub bases: [usize; LANES],
    pub stride: usize,
    pub len: usize,
    /// Cell `i` of all lanes is one 8-wide access at `bases[0] + i*stride`
    /// (set only where the bases are consecutive); element gathers otherwise.
    pub packed: bool,
}

impl Bundle {
    pub fn indices(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).flat_map(move |i| self.cell_indices(i))
    }

    /// As [`Line::cell_indices`]: cell `i` of every lane.
    pub fn cell_indices(&self, i: usize) -> impl Iterator<Item = usize> {
        let at = i * self.stride;
        self.bases.into_iter().map(move |b| b + at)
    }

    /// The same bundle `by` flat indices further on.
    #[inline]
    pub fn offset(mut self, by: usize) -> Bundle {
        for base in &mut self.bases {
            *base += by;
        }
        self
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

/// The bundle partition of a sweep (module doc). A task visits its bundles
/// in memory order: the groups of one *run* — the free lines between two
/// steps of the conjugate index in the layout, where a run holds whole
/// groups, a single group where it does not — at every conjugate index in
/// turn. One index decode serves the whole task, and neighbouring loads stay
/// neighbours.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bundles {
    /// `(extent, stride)` of the free axes in layout order, padded at the
    /// front with `(1, 0)`.
    free: [(usize, usize); 4],
    /// `(extent, stride)` of the conjugate axis; `(1, 0)` without one.
    conj: (usize, usize),
    /// Groups per task.
    run: usize,
    stride: usize,
    len: usize,
    /// Hand out no packed bundle — the tests' proof that packing is only a
    /// load.
    gather_only: bool,
}

impl Bundles {
    /// Sweep along `axis` of a row-major `dims` array whose lines shift by
    /// their index along `conj` (or all alike).
    fn new(dims: &[usize], axis: usize, conj: Option<usize>) -> Self {
        let stride_of = |a: usize| dims[a + 1..].iter().product::<usize>();
        let free_axes = (0..dims.len()).filter(|&a| a != axis && Some(a) != conj);
        let mut free = [(1, 0); 4];
        let n_free = dims.len() - 1 - usize::from(conj.is_some());
        let pad = free
            .len()
            .checked_sub(n_free)
            .expect("at most four free axes");
        // Free lines after the conjugate axis in the layout (all, without
        // one).
        let mut run = 1;
        for (slot, a) in free[pad..].iter_mut().zip(free_axes) {
            *slot = (dims[a], stride_of(a));
            if conj.is_none_or(|c| a > c) {
                run *= dims[a];
            }
        }
        Bundles {
            free,
            conj: conj.map_or((1, 0), |a| (dims[a], stride_of(a))),
            run: if run % LANES == 0 { run / LANES } else { 1 },
            stride: stride_of(axis),
            len: dims[axis],
            gather_only: false,
        }
    }

    #[cfg(test)]
    pub(crate) fn gather_only(mut self) -> Self {
        self.gather_only = true;
        self
    }

    /// Spatial sweep along `d` of the 6-D array: conjugate axis `3 + d`.
    pub fn spatial(dims: &[usize; 6], d: usize) -> Self {
        assert!(d < 3);
        Self::new(dims, d, Some(3 + d))
    }

    /// Velocity sweep along `d` inside one cell's `[nux, nuy, nuz]` block
    /// (indices relative to the block).
    pub fn block(dims: &[usize; 6], d: usize) -> Self {
        assert!(d < 3);
        Self::new(&dims[3..], d, None)
    }

    /// Number of lines sharing one shift; a multiple of [`LANES`] wherever
    /// the lines of one cell (what [`Exec::resolve`] counts) are.
    pub fn free_count(&self) -> usize {
        self.free.iter().map(|&(n, _)| n).product()
    }

    /// Number of tasks.
    pub fn count(&self) -> usize {
        debug_assert_eq!(self.free_count() % LANES, 0);
        self.free_count() / LANES / self.run
    }

    /// Is every bundle packed — does the run of free axes that ends the
    /// layout hold whole bundles?
    pub fn packed(&self) -> bool {
        let mut run = 1;
        for &(n, stride) in self.free.iter().rev() {
            if n > 1 && stride != run {
                break;
            }
            run *= n;
        }
        run % LANES == 0
    }

    /// The bundles of task `task` with their conjugate indices, in memory
    /// order: one mixed-radix decode of the first free index, then an
    /// odometer step per lane — a division per axis once per task, none per
    /// bundle.
    pub fn task(&self, task: usize) -> impl Iterator<Item = (usize, Bundle)> + '_ {
        assert!(task < self.count(), "task {task} out of range");
        let mut rest = task * self.run * LANES;
        let mut base = 0;
        let mut digits = [0; 4];
        for (digit, &(n, stride)) in digits.iter_mut().zip(&self.free).rev() {
            *digit = rest % n;
            rest /= n;
            base += *digit * stride;
        }
        let groups = (0..self.run).map(move |_| {
            let bases: [usize; LANES] = core::array::from_fn(|_| {
                let lane = base;
                for (digit, &(n, stride)) in digits.iter_mut().zip(&self.free).rev() {
                    *digit += 1;
                    base += stride;
                    if *digit < n {
                        break;
                    }
                    *digit = 0;
                    base -= n * stride;
                }
                lane
            });
            Bundle {
                bases,
                stride: self.stride,
                len: self.len,
                // The bases ascend, so the ends decide.
                packed: !self.gather_only && bases[LANES - 1] - bases[0] == LANES - 1,
            }
        });
        let (n_conj, stride) = self.conj;
        (0..n_conj).flat_map(move |iu| groups.clone().map(move |b| (iu, b.offset(iu * stride))))
    }
}

/// Stride between consecutive cells along spatial axis `d`.
#[inline]
pub fn spatial_stride(dims: &[usize; 6], d: usize) -> usize {
    dims[d + 1..].iter().product()
}

/// Number of parallel tasks `sweep_spatial` launches for `d` in the task
/// shape `exec` ([`Exec::resolve`]'s answer: scalar pencils, bundles, or —
/// along `z` only — 8×8 tiles).
pub fn spatial_task_count(dims: &[usize; 6], d: usize, exec: Exec) -> usize {
    assert!(d < 3);
    match exec {
        Exec::Scalar => dims[..d].iter().product::<usize>() * spatial_stride(dims, d),
        Exec::Simd => Bundles::spatial(dims, d).count(),
        Exec::Lat => {
            assert_eq!(d, 2, "tiles are the z sweep's shape");
            dims[0] * dims[1] * dims[3] * (dims[4] / LANES) * (dims[5] / LANES)
        }
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

/// Spatial sweep along `z` where `nuy` and `nuz` divide by 8, task → 8×8
/// tile pencil: the tile index decomposes as `(iux, yg, zg)` with `zg`
/// fastest (paper Fig. 3 applied to the spatial `z` axis).
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

/// The conjugate-velocity index (into `cfl_per_u`) of a scalar spatial task.
pub fn spatial_line_conjugate(dims: &[usize; 6], d: usize, task: usize) -> usize {
    velocity_index_of_inner(d, task % spatial_stride(dims, d), dims)
}

/// The conjugate-velocity index of a z-tile task's *first* row; row `r`
/// advects with `spatial_tile_conjugate(..) + r`.
pub fn spatial_tile_conjugate(dims: &[usize; 6], task: usize) -> usize {
    let (nuy, nuz) = (dims[4], dims[5]);
    let tiles = dims[3] * (nuy / LANES) * (nuz / LANES);
    (task % tiles) % (nuz / LANES) * LANES
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

/// Number of pencil units a velocity sweep along `d` iterates for one block
/// in the shape `exec`: lines, or the bundles of [`Bundles::block`]'s one
/// task (the LAT task transposes the same eight `iuz` rows the Fig. 2 task
/// gathers).
pub fn block_unit_count(dims: &[usize; 6], d: usize, exec: Exec) -> usize {
    let lines = dims[3..].iter().product::<usize>() / dims[3 + d];
    match exec {
        Exec::Scalar => lines,
        Exec::Simd | Exec::Lat => lines / LANES,
    }
}

/// Scalar velocity sweep along `d`, unit → line of the block: the units
/// enumerate the two other velocity axes in layout order.
pub fn block_line(dims: &[usize; 6], d: usize, unit: usize) -> Line {
    let (nuy, nuz) = (dims[4], dims[5]);
    let base = match d {
        0 => unit,
        1 => unit / nuz * nuy * nuz + unit % nuz,
        2 => unit * nuz,
        _ => panic!("velocity axis {d} out of range"),
    };
    Line {
        base,
        stride: dims[3 + d + 1..].iter().product(),
        len: dims[3 + d],
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

    /// Bundles tile the array on packed, thin (gathered) and mixed shapes,
    /// every lane of a bundle shares the task's conjugate index, and
    /// `is_packed` means what the loads assume.
    #[test]
    fn bundle_and_tile_plans_tile_the_array() {
        for dims in [
            [2, 3, 2, 2, 8, 8],
            [2, 2, 2, 4, 4, 4],
            [4, 2, 3, 6, 4, 4],
            [2, 2, 2, 2, 2, 6],
        ] {
            let total: usize = dims.iter().product();
            for d in 0..3 {
                let bundles = Bundles::spatial(&dims, d);
                assert_eq!(bundles.free_count() % LANES, 0, "{dims:?} d={d}");
                let stride_u: usize = dims[3 + d + 1..].iter().product();
                let mut seen = vec![false; total];
                let mut all_packed = true;
                for t in 0..spatial_task_count(&dims, d, Exec::Simd) {
                    for (iu, b) in bundles.task(t) {
                        all_packed &= b.packed;
                        assert_eq!(b.packed, (0..LANES).all(|l| b.bases[l] == b.bases[0] + l));
                        for idx in b.indices() {
                            assert_eq!(idx / stride_u % dims[3 + d], iu);
                            assert!(!seen[idx], "{dims:?} d={d} t={t} idx={idx}");
                            seen[idx] = true;
                        }
                    }
                }
                assert!(seen.iter().all(|&s| s), "{dims:?} d={d}");
                assert_eq!(all_packed, bundles.packed(), "{dims:?} d={d}");
            }
        }
        let dims = [2, 3, 2, 2, 8, 8];
        let total: usize = dims.iter().product();
        let mut seen = vec![false; total];
        for t in 0..spatial_task_count(&dims, 2, Exec::Lat) {
            for idx in spatial_tile(&dims, t).indices() {
                assert!(!seen[idx], "z-tile t={t} idx={idx}");
                seen[idx] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn block_partitions_tile_the_block() {
        for vdims in [[2, 8, 8], [6, 4, 4], [4, 2, 3]] {
            let dims = [1, 1, 1, vdims[0], vdims[1], vdims[2]];
            let vlen: usize = vdims.iter().product();
            for d in 0..3 {
                for exec in [Exec::Scalar, Exec::Simd] {
                    if exec == Exec::Simd
                        && !Bundles::block(&dims, d).free_count().is_multiple_of(LANES)
                    {
                        continue;
                    }
                    let mut seen = vec![false; vlen];
                    let units: Vec<Vec<usize>> = match exec {
                        Exec::Scalar => (0..block_unit_count(&dims, d, exec))
                            .map(|u| block_line(&dims, d, u).indices().collect())
                            .collect(),
                        _ => Bundles::block(&dims, d)
                            .task(0)
                            .map(|(_, b)| b.indices().collect())
                            .collect(),
                    };
                    assert_eq!(units.len(), block_unit_count(&dims, d, exec));
                    for (u, indices) in units.into_iter().enumerate() {
                        for idx in indices {
                            assert!(!seen[idx], "{vdims:?} u{d} {exec:?} unit {u} idx {idx}");
                            seen[idx] = true;
                        }
                    }
                    assert!(seen.iter().all(|&s| s), "{vdims:?} u{d} {exec:?}");
                }
            }
        }
    }
}
