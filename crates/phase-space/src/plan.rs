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
//! Plans come in three shapes, mirroring the paper's access patterns: a
//! strided [`Line`] (scalar pencils), a [`Bundle`] of eight lines that share
//! a shift (Fig. 1 packed SIMD where their cells are adjacent in memory,
//! Fig. 2 element gathers where they are not — velocity sweeps only), and a
//! [`Strip`]: sixteen consecutive cells of a velocity block carried along a
//! spatial pencil, every lane at its own shift — one packed load per cell
//! whatever the shifts.
//!
//! **The bundle rule** ([`Bundles`]). Which lines may share a bundle is a
//! property of the sweep, not of the layout: a spatial sweep along `d` shifts
//! a line by its conjugate velocity index `iu_d`, a velocity sweep shifts
//! every line of a cell's block alike. So the *free* axes — every axis but
//! the swept one and, for spatial sweeps, the conjugate one — are flattened
//! in layout order (last axis fastest) and group `g` holds free indices
//! `8g … 8g+7`, advected at every `iu_d` in turn.
//!
//! **The strip rule** ([`Strips`]). A spatial sweep needs no shared shift:
//! its lanes take theirs one by one (`vlasov6d_advection::lanes::LaneShifts`).
//! It pairs two packed bundles at one shift where sixteen consecutive cells
//! share it — where the velocity axes after `u_d` hold whole runs of
//! [`STRIP`] ([`spatial_pairs`]) — and runs strips everywhere else that a
//! velocity block holds whole strips. [`Exec::resolve`] runs lanes by rules
//! about the velocity grid alone, under which neither shape leaves its
//! spatial cell:
//!
//! | sweep | lanes when | task |
//! |---|---|---|
//! | `x` | `nux·nuy·nuz % 16 == 0` | packed pairs where `nuy·nuz % 16 == 0`, strips otherwise |
//! | `y` | `nux·nuy·nuz % 16 == 0` | packed pairs where `nuz % 16 == 0`, strips otherwise |
//! | `z` | `nux·nuy·nuz % 16 == 0` | strips |
//! | `u_x` | `nuy·nuz % 8 == 0` | packed bundles |
//! | `u_y` | `nux·nuz % 8 == 0` | packed where `nuz % 8 == 0`, gathered otherwise |
//! | `u_z` | `nux·nuy % 8 == 0` | gathered (Fig. 2 rows; LAT where `nuy`, `nuz` divide by 8) |

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

/// Cells per strip: one `f32x16`, the paper's 16-lane register.
pub const STRIP: usize = 2 * LANES;

/// A strip pencil: for each `i in 0..len`, the [`STRIP`] consecutive indices
/// from `base + i*stride`. Its lanes shift as lane pattern `pattern` of its
/// [`Strips`] says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Strip {
    pub base: usize,
    pub stride: usize,
    pub len: usize,
    pub pattern: usize,
}

impl Strip {
    /// As [`Line::cell_indices`]: the [`STRIP`] indices of cell `i`.
    pub fn cell_indices(&self, i: usize) -> std::ops::Range<usize> {
        let at = self.base + i * self.stride;
        at..at + STRIP
    }
}

/// The strip partition of a spatial sweep along `d` (module doc): the axes
/// other than `d` flattened in layout order, task `t` holding their indices
/// `16t … 16t+15` along the whole pencil. A velocity block holds whole strips,
/// so a strip never leaves its spatial cell, and lane `l` of strip `t` has
/// the conjugate index of block cell `16t + l` (mod the block): strips repeat
/// their lane patterns every `Strips::patterns` tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Strips {
    stride: usize,
    len: usize,
    /// `(extent, stride)` of the conjugate axis inside a velocity block.
    conj: (usize, usize),
    count: usize,
    patterns: usize,
}

impl Strips {
    /// Spatial sweep along `d` of the 6-D array.
    ///
    /// # Panics
    /// Panics unless the velocity block holds whole strips.
    pub fn spatial(dims: &[usize; 6], d: usize) -> Self {
        assert!(d < 3);
        let vlen: usize = dims[3..].iter().product();
        assert!(
            vlen.is_multiple_of(STRIP),
            "{vlen}-cell blocks hold no whole strips"
        );
        let stride = spatial_stride(dims, d);
        let conj = (dims[3 + d], dims[4 + d..].iter().product::<usize>());
        // A pattern repeats when the block cell advances by a common
        // multiple of `STRIP` and the conjugate axis's period
        // `extent · stride`.
        let period = conj.0 * conj.1;
        let (mut a, mut b) = (period, STRIP);
        while b != 0 {
            (a, b) = (b, a % b);
        }
        Strips {
            stride,
            len: dims[d],
            conj,
            count: dims[..d].iter().product::<usize>() * stride / STRIP,
            patterns: period / a,
        }
    }

    /// Number of tasks.
    pub(crate) fn count(&self) -> usize {
        self.count
    }

    /// The number of distinct lane patterns: strip `t` shifts as strip
    /// `t mod patterns()` — one pattern where the conjugate axis's period
    /// divides 16.
    pub(crate) fn patterns(&self) -> usize {
        self.patterns
    }

    /// The conjugate velocity index of every lane of lane pattern `p`.
    pub(crate) fn pattern(&self, p: usize) -> [usize; STRIP] {
        let (n, stride) = self.conj;
        core::array::from_fn(|l| (p * STRIP + l) / stride % n)
    }

    /// The strip pencil of task `task`.
    pub fn task(&self, task: usize) -> Strip {
        assert!(task < self.count, "task {task} out of range");
        let flat = task * STRIP;
        Strip {
            base: flat / self.stride * self.len * self.stride + flat % self.stride,
            stride: self.stride,
            len: self.len,
            pattern: task % self.patterns,
        }
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

/// Do the velocity axes after `u_d` hold whole runs of [`STRIP`] cells — do
/// sixteen consecutive cells share a shift, so that a spatial sweep along `d`
/// runs packed bundle pairs ([`Bundles::spatial`]) rather than strips
/// ([`Strips::spatial`])? `x` on `nuy·nuz % 16 == 0`, `y` on
/// `nuz % 16 == 0`, never `z`.
pub fn spatial_pairs(dims: &[usize; 6], d: usize) -> bool {
    assert!(d < 3);
    dims[4 + d..]
        .iter()
        .product::<usize>()
        .is_multiple_of(STRIP)
}

/// Number of parallel tasks `sweep_spatial` launches for `d` in the task
/// shape `exec` ([`Exec::resolve`]'s answer): scalar pencils, or lanes —
/// packed bundle pairs where [`spatial_pairs`] says so, strips elsewhere.
pub fn spatial_task_count(dims: &[usize; 6], d: usize, exec: Exec) -> usize {
    assert!(d < 3);
    match exec {
        Exec::Scalar => dims[..d].iter().product::<usize>() * spatial_stride(dims, d),
        _ if spatial_pairs(dims, d) => Bundles::spatial(dims, d).count(),
        _ => Strips::spatial(dims, d).count(),
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

/// The conjugate-velocity index (into `cfl_per_u`) of a scalar spatial task.
pub fn spatial_line_conjugate(dims: &[usize; 6], d: usize, task: usize) -> usize {
    velocity_index_of_inner(d, task % spatial_stride(dims, d), dims)
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
    /// `is_packed` means what the loads assume; strips tile it wherever a
    /// velocity block holds whole strips, each lane at the conjugate index
    /// its pattern gives it; and the spatial task count is the shape's.
    #[test]
    fn bundle_and_strip_plans_tile_the_array() {
        for dims in [
            [2, 3, 2, 2, 8, 8],
            [2, 2, 2, 4, 4, 4],
            [4, 2, 3, 6, 4, 4],
            [2, 2, 2, 2, 2, 6],
            [3, 1, 2, 4, 2, 6],
            [1, 2, 2, 2, 16, 16],
        ] {
            let total: usize = dims.iter().product();
            for d in 0..3 {
                let stride_u: usize = dims[3 + d + 1..].iter().product();
                let conj = |idx: usize| idx / stride_u % dims[3 + d];
                let bundles = Bundles::spatial(&dims, d);
                if bundles.free_count().is_multiple_of(LANES) {
                    let mut seen = vec![false; total];
                    let mut all_packed = true;
                    for t in 0..bundles.count() {
                        for (iu, b) in bundles.task(t) {
                            all_packed &= b.packed;
                            assert_eq!(b.packed, (0..LANES).all(|l| b.bases[l] == b.bases[0] + l));
                            for idx in b.indices() {
                                assert_eq!(conj(idx), iu);
                                assert!(!seen[idx], "{dims:?} d={d} t={t} idx={idx}");
                                seen[idx] = true;
                            }
                        }
                    }
                    assert!(seen.iter().all(|&s| s), "{dims:?} d={d}");
                    assert_eq!(all_packed, bundles.packed(), "{dims:?} d={d}");
                }
                if !dims[3..].iter().product::<usize>().is_multiple_of(STRIP) {
                    continue;
                }
                let strips = Strips::spatial(&dims, d);
                let mut seen = vec![false; total];
                for t in 0..strips.count() {
                    let strip = strips.task(t);
                    let lanes = strips.pattern(strip.pattern);
                    for i in 0..strip.len {
                        for (l, idx) in strip.cell_indices(i).enumerate() {
                            assert_eq!(conj(idx), lanes[l], "{dims:?} d={d} t={t} lane {l}");
                            assert!(!seen[idx], "{dims:?} d={d} t={t} idx={idx}");
                            seen[idx] = true;
                        }
                    }
                }
                assert!(seen.iter().all(|&s| s), "{dims:?} d={d}");
                let count = match spatial_pairs(&dims, d) {
                    true => bundles.count(),
                    false => strips.count(),
                };
                assert_eq!(spatial_task_count(&dims, d, Exec::Simd), count);
            }
        }
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
