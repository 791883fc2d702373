//! Distributed-layout descriptors: the single source of truth for how the
//! distributed FFT partitions a global `[n0][n1][n2]` grid across ranks.
//!
//! Every repartition (transpose) in [`crate::pencil`] is index permutation —
//! the most bug-prone layer of the stack. This module states each layout
//! *declaratively*: per global axis, which rank-grid axis (if any) blocks it
//! ([`AxisPart`]), and in which permuted order the locally-owned coordinates
//! flatten into the rank's buffer ([`LayoutMap::order`]). Everything the
//! transform does with an index is *evaluated* from that declaration:
//!
//! * [`LayoutMap::owner`] / [`LayoutMap::coords`] — the global ↔ (rank,
//!   flat) maps every caller uses to address a z-pencil input or an x-pencil
//!   spectrum, and [`LayoutMap::for_each_coord`], the same map walked over a
//!   whole block (the distributed Poisson solve's k-space multiply);
//! * `Repartition::packet` — the global box two ranks share in one batch,
//!   walked through both maps' strides: the pencil transform's pack and
//!   unpack;
//! * [`Repartition::pair_elems`] — per-(src, dst) element counts, computed as
//!   the per-axis intersection of the two ranks' owned ranges, from which the
//!   pencil plans (`add_forward`, `add_inverse`) take their byte accounting;
//! * [`pencil_stages`] — the stage list the transform runs and the verifier
//!   registers.
//!
//! A slab decomposition is not a separate family: it is the `P × 1` rank
//! grid, on which the z- and y-pencils are the slab `[n0/P][n1][n2]` and the
//! x-pencil is the row-transposed `[n1/P][n0][n2]`.
//!
//! `vlasov6d-verify`'s layoutcheck proves the registered maps bijective for
//! *all* conforming shapes (mixed-radix digit argument), diffs the derived
//! counts against enumeration and the transform's `CommPlan`s at concrete
//! shapes, and runs sentinel-value probes through the live exchange — the
//! packets above, since the transform has no other pack or unpack.

/// One axis of the `Pr × Pc` rank grid (a slab decomposition is `P × 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridAxis {
    /// The first rank-grid axis (extent [`RankGrid::rows`]).
    Row,
    /// The second rank-grid axis (extent [`RankGrid::cols`]).
    Col,
}

/// How one global axis is distributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AxisPart {
    /// The axis is fully local to every rank.
    Full,
    /// The axis is split into `G` contiguous equal blocks, indexed by the
    /// rank's digit along the named grid axis (requires `dims[a] % G == 0`).
    Block(GridAxis),
}

/// A 2-D grid of ranks; rank id is `pr · cols + pc` (row-major).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankGrid {
    pub rows: usize,
    pub cols: usize,
}

impl RankGrid {
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows >= 1 && cols >= 1);
        Self { rows, cols }
    }

    pub fn n_ranks(&self) -> usize {
        self.rows * self.cols
    }

    pub fn extent(&self, axis: GridAxis) -> usize {
        match axis {
            GridAxis::Row => self.rows,
            GridAxis::Col => self.cols,
        }
    }

    /// Rank id of grid position `(pr, pc)`.
    pub(crate) fn rank_of(&self, pr: usize, pc: usize) -> usize {
        debug_assert!(pr < self.rows && pc < self.cols);
        pr * self.cols + pc
    }

    /// Grid position `(pr, pc)` of `rank`.
    pub(crate) fn coords_of(&self, rank: usize) -> (usize, usize) {
        debug_assert!(rank < self.n_ranks());
        (rank / self.cols, rank % self.cols)
    }

    /// The rank's digit along `axis`.
    pub fn digit(&self, rank: usize, axis: GridAxis) -> usize {
        let (pr, pc) = self.coords_of(rank);
        match axis {
            GridAxis::Row => pr,
            GridAxis::Col => pc,
        }
    }

    /// The ranks sharing every digit of `rank` but the one along `axis`, in
    /// digit order (`rank` among them).
    pub(crate) fn group(&self, rank: usize, axis: GridAxis) -> impl Iterator<Item = usize> + '_ {
        let (pr, pc) = self.coords_of(rank);
        (0..self.extent(axis)).map(move |q| match axis {
            GridAxis::Row => self.rank_of(q, pc),
            GridAxis::Col => self.rank_of(pr, q),
        })
    }
}

/// A declarative distributed layout of a global `[n0][n1][n2]` grid.
///
/// `parts[a]` says how global axis `a` is distributed; `order` is the
/// permutation of global axes giving the local storage order (`order[0]`
/// slowest, `order[2]` fastest). The local flat index of a rank's element is
/// the mixed-radix number of its local per-axis offsets in that order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayoutMap {
    pub name: &'static str,
    pub parts: [AxisPart; 3],
    pub order: [usize; 3],
}

impl LayoutMap {
    /// Does `(dims, grid)` satisfy the divisibility this layout needs?
    pub fn conforms(&self, dims: [usize; 3], grid: RankGrid) -> bool {
        self.parts.iter().enumerate().all(|(a, p)| match p {
            AxisPart::Full => true,
            AxisPart::Block(g) => dims[a].is_multiple_of(grid.extent(*g)),
        })
    }

    /// Locally-owned extent per global axis.
    pub(crate) fn local_extents(&self, dims: [usize; 3], grid: RankGrid) -> [usize; 3] {
        let mut e = [0; 3];
        for a in 0..3 {
            e[a] = match self.parts[a] {
                AxisPart::Full => dims[a],
                AxisPart::Block(g) => dims[a] / grid.extent(g),
            };
        }
        e
    }

    /// Elements owned by each rank.
    pub fn local_len(&self, dims: [usize; 3], grid: RankGrid) -> usize {
        self.local_extents(dims, grid).iter().product()
    }

    /// Local flat-index stride of each global axis: its mixed-radix place
    /// value in [`Self::order`].
    pub(crate) fn strides(&self, dims: [usize; 3], grid: RankGrid) -> [usize; 3] {
        let ext = self.local_extents(dims, grid);
        let [o0, o1, o2] = self.order;
        let mut stride = [0; 3];
        stride[o2] = 1;
        stride[o1] = ext[o2];
        stride[o0] = ext[o1] * ext[o2];
        stride
    }

    /// The contiguous global range of axis `a` owned by `rank`.
    pub(crate) fn owned_range(
        &self,
        dims: [usize; 3],
        grid: RankGrid,
        rank: usize,
        a: usize,
    ) -> std::ops::Range<usize> {
        match self.parts[a] {
            AxisPart::Full => 0..dims[a],
            AxisPart::Block(g) => {
                let e = dims[a] / grid.extent(g);
                let q = grid.digit(rank, g);
                q * e..(q + 1) * e
            }
        }
    }

    /// `(rank, local flat index)` of the global coordinate `g`.
    pub fn owner(&self, dims: [usize; 3], grid: RankGrid, g: [usize; 3]) -> (usize, usize) {
        debug_assert!(self.conforms(dims, grid));
        let ext = self.local_extents(dims, grid);
        let mut pr = 0;
        let mut pc = 0;
        let mut local = [0usize; 3];
        for a in 0..3 {
            debug_assert!(g[a] < dims[a]);
            match self.parts[a] {
                AxisPart::Full => local[a] = g[a],
                AxisPart::Block(ga) => {
                    let q = g[a] / ext[a];
                    local[a] = g[a] % ext[a];
                    match ga {
                        GridAxis::Row => pr = q,
                        GridAxis::Col => pc = q,
                    }
                }
            }
        }
        let stride = self.strides(dims, grid);
        let flat = (0..3).map(|a| local[a] * stride[a]).sum();
        (grid.rank_of(pr, pc), flat)
    }

    /// Call `f(flat, coords)` for every element of `rank`'s block, in
    /// flat-index order — [`Self::coords`] of each `(rank, flat)` without a
    /// division per element.
    pub fn for_each_coord(
        &self,
        dims: [usize; 3],
        grid: RankGrid,
        rank: usize,
        mut f: impl FnMut(usize, [usize; 3]),
    ) {
        let range = [0, 1, 2].map(|a| self.owned_range(dims, grid, rank, a));
        let [o0, o1, o2] = self.order;
        let mut g = [0; 3];
        let mut flat = 0;
        for x in range[o0].clone() {
            g[o0] = x;
            for y in range[o1].clone() {
                g[o1] = y;
                for z in range[o2].clone() {
                    g[o2] = z;
                    f(flat, g);
                    flat += 1;
                }
            }
        }
    }

    /// Global coordinates of `(rank, flat)` — the inverse of [`Self::owner`].
    pub fn coords(&self, dims: [usize; 3], grid: RankGrid, rank: usize, flat: usize) -> [usize; 3] {
        debug_assert!(self.conforms(dims, grid));
        let ext = self.local_extents(dims, grid);
        let [o0, o1, o2] = self.order;
        let mut local = [0usize; 3];
        local[o2] = flat % ext[o2];
        local[o1] = (flat / ext[o2]) % ext[o1];
        local[o0] = flat / (ext[o2] * ext[o1]);
        debug_assert!(local[o0] < ext[o0], "flat index out of range");
        let mut g = [0usize; 3];
        for a in 0..3 {
            g[a] = match self.parts[a] {
                AxisPart::Full => local[a],
                AxisPart::Block(ga) => grid.digit(rank, ga) * ext[a] + local[a],
            };
        }
        g
    }
}

/// A registered repartition: the same global grid described by two layouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repartition {
    pub name: &'static str,
    pub src: LayoutMap,
    pub dst: LayoutMap,
}

impl Repartition {
    /// Elements rank `s` (in `src`) hands to rank `d` (in `dst`): the
    /// whole-block `packet`, the product over global axes of the
    /// intersection of the two owned ranges. This is the derived byte
    /// accounting every transpose plan builder uses.
    pub fn pair_elems(&self, dims: [usize; 3], grid: RankGrid, s: usize, d: usize) -> usize {
        let extent = self.src.local_extents(dims, grid)[self.batch_axis()];
        self.packet(dims, grid, s, d, 0..extent).len()
    }

    /// The global axis a transpose stage pipelines along: the source's
    /// slowest storage axis, so each batch is a contiguous slice of it.
    pub(crate) fn batch_axis(&self) -> usize {
        self.src.order[0]
    }

    /// The rank-grid axis whose block moves from one global axis to another:
    /// a rank exchanges only with the ranks of its `RankGrid::group` along
    /// it.
    pub(crate) fn peer_axis(&self) -> GridAxis {
        (0..3)
            .find_map(|a| match self.src.parts[a] {
                AxisPart::Block(g) if self.dst.parts[a] != AxisPart::Block(g) => Some(g),
                _ => None,
            })
            .expect("a repartition moves at least one grid axis")
    }

    /// The packet rank `s` (in `src`) sends rank `d` (in `dst`) for `batch`,
    /// a range of `s`'s local indices along [`Self::batch_axis`]: the global
    /// box the two ranks share, cut to the batch.
    pub(crate) fn packet(
        &self,
        dims: [usize; 3],
        grid: RankGrid,
        s: usize,
        d: usize,
        batch: std::ops::Range<usize>,
    ) -> Packet {
        let mut lo = [0; 3];
        let mut len = [0; 3];
        for a in 0..3 {
            let sr = self.src.owned_range(dims, grid, s, a);
            let dr = self.dst.owned_range(dims, grid, d, a);
            let (mut start, mut end) = (sr.start.max(dr.start), sr.end.min(dr.end));
            if a == self.batch_axis() {
                start = start.max(sr.start + batch.start);
                end = end.min(sr.start + batch.end);
            }
            lo[a] = start;
            len[a] = end.saturating_sub(start);
        }
        Packet {
            walk: self.src.order,
            lo,
            len,
        }
    }
}

/// A global box of a repartition's grid and the one order both ends walk it
/// in: the source's storage order, so the batch axis is slowest. Packing and
/// unpacking are the same walk through two layouts' strides, which is why
/// the element sent `k`-th lands in the `k`-th slot the receiver visits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Packet {
    /// Global axes, slowest first.
    walk: [usize; 3],
    /// First global coordinate per axis.
    lo: [usize; 3],
    /// Extent per axis.
    len: [usize; 3],
}

impl Packet {
    /// Elements in the box.
    pub(crate) fn len(&self) -> usize {
        self.len.iter().product()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Call `f` with the local flat index, in `map`'s block on `rank`, of
    /// every element of the box, in walk order. `rank` must own the box.
    pub(crate) fn for_each_index(
        &self,
        map: &LayoutMap,
        dims: [usize; 3],
        grid: RankGrid,
        rank: usize,
        mut f: impl FnMut(usize),
    ) {
        if self.is_empty() {
            return;
        }
        let stride = map.strides(dims, grid);
        let base: usize = (0..3)
            .map(|a| (self.lo[a] - map.owned_range(dims, grid, rank, a).start) * stride[a])
            .sum();
        let [w0, w1, w2] = self.walk;
        for i in 0..self.len[w0] {
            for j in 0..self.len[w1] {
                let row = base + i * stride[w0] + j * stride[w1];
                for k in 0..self.len[w2] {
                    f(row + k * stride[w2]);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The registered layouts. Storage orders are the real buffers': z/y-pencil
// blocks are stored in natural [i0][i1][i2] order; the spectral block puts
// the owned i1 rows slowest ([i1l][i0][i2l]), where the axis-0 FFT's lines
// are.
// ---------------------------------------------------------------------------

/// Input z-pencil of the 2-D decomposition: `[n0/Pr][n1/Pc][n2]`.
pub fn zpencil() -> LayoutMap {
    LayoutMap {
        name: "layout.zpencil",
        parts: [
            AxisPart::Block(GridAxis::Row),
            AxisPart::Block(GridAxis::Col),
            AxisPart::Full,
        ],
        order: [0, 1, 2],
    }
}

/// Mid-stage y-pencil: `[n0/Pr][n1][n2/Pc]`.
pub(crate) fn ypencil() -> LayoutMap {
    LayoutMap {
        name: "layout.ypencil",
        parts: [
            AxisPart::Block(GridAxis::Row),
            AxisPart::Full,
            AxisPart::Block(GridAxis::Col),
        ],
        order: [0, 1, 2],
    }
}

/// Spectral x-pencil: `[n1/Pr][n0][n2/Pc]`, stored `[i1l][i0][i2l]` (on a
/// `P × 1` grid, the row-transposed slab `[n1/P][n0][n2]`).
pub fn xpencil() -> LayoutMap {
    LayoutMap {
        name: "layout.xpencil",
        parts: [
            AxisPart::Full,
            AxisPart::Block(GridAxis::Row),
            AxisPart::Block(GridAxis::Col),
        ],
        order: [1, 0, 2],
    }
}

/// Every repartition [`crate::Pencil2D`] runs, in pipeline order — the one
/// stage list the transform reads and `vlasov6d-verify`'s layoutcheck registers:
///
/// 1. `fft.pencil.stage1` (forward): z-pencil → y-pencil, all-to-all within
///    each row group (ranks sharing `pr`);
/// 2. `fft.pencil.stage2` (forward): y-pencil → x-pencil, all-to-all within
///    each column group (ranks sharing `pc`);
/// 3. `fft.pencil.stage2.inv`: x-pencil → y-pencil;
/// 4. `fft.pencil.stage1.inv`: y-pencil → z-pencil.
pub fn pencil_stages() -> [Repartition; 4] {
    let stage = |name, src, dst| Repartition { name, src, dst };
    [
        stage("fft.pencil.stage1", zpencil(), ypencil()),
        stage("fft.pencil.stage2", ypencil(), xpencil()),
        stage("fft.pencil.stage2.inv", xpencil(), ypencil()),
        stage("fft.pencil.stage1.inv", ypencil(), zpencil()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_bijection(layout: &LayoutMap, dims: [usize; 3], grid: RankGrid) {
        assert!(layout.conforms(dims, grid), "{}", layout.name);
        let len = layout.local_len(dims, grid);
        let mut seen = vec![false; grid.n_ranks() * len];
        for i0 in 0..dims[0] {
            for i1 in 0..dims[1] {
                for i2 in 0..dims[2] {
                    let (rank, flat) = layout.owner(dims, grid, [i0, i1, i2]);
                    assert!(rank < grid.n_ranks() && flat < len);
                    assert!(!seen[rank * len + flat], "{}: collision", layout.name);
                    seen[rank * len + flat] = true;
                    assert_eq!(layout.coords(dims, grid, rank, flat), [i0, i1, i2]);
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "{}: not surjective", layout.name);
        for rank in 0..grid.n_ranks() {
            let mut walked = Vec::new();
            layout.for_each_coord(dims, grid, rank, |flat, g| walked.push((flat, g)));
            let direct: Vec<_> = (0..len)
                .map(|f| (f, layout.coords(dims, grid, rank, f)))
                .collect();
            assert_eq!(walked, direct, "{}: block walk", layout.name);
        }
    }

    #[test]
    fn all_layouts_are_concrete_bijections() {
        for layout in [zpencil(), ypencil(), xpencil()] {
            check_bijection(&layout, [4, 6, 4], RankGrid::new(2, 1));
            check_bijection(&layout, [4, 4, 4], RankGrid::new(2, 2));
            check_bijection(&layout, [2, 6, 8], RankGrid::new(2, 2));
        }
    }

    #[test]
    fn pair_elems_conserves_local_lengths() {
        let dims = [4usize, 8, 6];
        let grid = RankGrid::new(2, 2);
        for rep in pencil_stages() {
            for s in 0..grid.n_ranks() {
                let sent: usize = (0..grid.n_ranks())
                    .map(|d| rep.pair_elems(dims, grid, s, d))
                    .sum();
                assert_eq!(sent, rep.src.local_len(dims, grid), "{}", rep.name);
            }
            for d in 0..grid.n_ranks() {
                let recvd: usize = (0..grid.n_ranks())
                    .map(|s| rep.pair_elems(dims, grid, s, d))
                    .sum();
                assert_eq!(recvd, rep.dst.local_len(dims, grid), "{}", rep.name);
            }
        }
    }

    #[test]
    fn stage1_is_block_diagonal_in_rows() {
        let dims = [4usize, 4, 4];
        let grid = RankGrid::new(2, 2);
        let [rep, ..] = pencil_stages();
        for s in 0..4 {
            for d in 0..4 {
                let elems = rep.pair_elems(dims, grid, s, d);
                let (sr, _) = grid.coords_of(s);
                let (dr, _) = grid.coords_of(d);
                if sr == dr {
                    assert_eq!(elems, (4 / 2) * (4 / 2) * (4 / 2));
                } else {
                    assert_eq!(elems, 0);
                }
            }
        }
    }
}
