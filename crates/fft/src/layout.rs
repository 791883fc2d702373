//! Distributed-layout descriptors: the single source of truth for how the
//! distributed FFT partitions a global `[n0][n1][n2]` grid across ranks.
//!
//! Every repartition (transpose) in [`crate::pencil`] is pure
//! index-permutation code — the most bug-prone layer of the stack. This
//! module states each layout *declaratively*: per global axis, which rank-grid
//! axis (if any) blocks it ([`AxisPart`]), and in which permuted order the
//! locally-owned coordinates flatten into the rank's buffer
//! ([`LayoutMap::order`]). From that declaration everything else is *derived*:
//!
//! * [`LayoutMap::owner`] / [`LayoutMap::coords`] — the global ↔ (rank, flat)
//!   maps the accessors (`zpencil_coords`, `spectral_coords`) must agree
//!   with;
//! * [`Repartition::pair_elems`] — per-(src, dst) element counts, computed as
//!   the per-axis intersection of the two ranks' owned ranges. The pencil
//!   plans (`add_forward`, `add_inverse`) take their byte accounting from
//!   here instead of hand-written products.
//!
//! A slab decomposition is not a separate family: it is the `P × 1` rank
//! grid, on which the z- and y-pencils are the slab `[n0/P][n1][n2]` and the
//! x-pencil is the row-transposed `[n1/P][n0][n2]`.
//!
//! The `vlasov6d-layoutcheck` crate proves the registered maps bijective for
//! *all* conforming shapes (mixed-radix digit argument), cross-checks these
//! derivations against the real pack/unpack loops at concrete shapes, and
//! runs sentinel-value probes through the live exchange. `cargo xtask lint`'s
//! `layout-index-arith` pass requires the pack/unpack loops to cite these
//! maps by registered name.

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
    pub fn rank_of(&self, pr: usize, pc: usize) -> usize {
        debug_assert!(pr < self.rows && pc < self.cols);
        pr * self.cols + pc
    }

    /// Grid position `(pr, pc)` of `rank`.
    pub fn coords_of(&self, rank: usize) -> (usize, usize) {
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
    pub fn local_extents(&self, dims: [usize; 3], grid: RankGrid) -> [usize; 3] {
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

    /// The contiguous global range of axis `a` owned by `rank`.
    pub fn owned_range(
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
        let [o0, o1, o2] = self.order;
        let flat = (local[o0] * ext[o1] + local[o1]) * ext[o2] + local[o2];
        (grid.rank_of(pr, pc), flat)
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
    /// Elements rank `s` (in `src`) hands to rank `d` (in `dst`): the product
    /// over global axes of the intersection of the two owned ranges. This is
    /// the derived byte-accounting every transpose plan builder uses.
    pub fn pair_elems(&self, dims: [usize; 3], grid: RankGrid, s: usize, d: usize) -> usize {
        (0..3)
            .map(|a| {
                let sr = self.src.owned_range(dims, grid, s, a);
                let dr = self.dst.owned_range(dims, grid, d, a);
                sr.end.min(dr.end).saturating_sub(sr.start.max(dr.start))
            })
            .product()
    }
}

// ---------------------------------------------------------------------------
// The registered layouts. Storage orders mirror the real buffers:
// z/y-pencil blocks are stored in natural [i0][i1][i2] order; the spectral
// block puts the owned i1 rows slowest ([i1l][i0][i2l]), matching
// `spectral_coords`.
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
pub fn ypencil() -> LayoutMap {
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

/// Pencil stage 1 (forward): z-pencil → y-pencil, all-to-all within each
/// row group (ranks sharing `pr`).
pub fn pencil_stage1() -> Repartition {
    Repartition {
        name: "fft.pencil.stage1",
        src: zpencil(),
        dst: ypencil(),
    }
}

/// Pencil stage 2 (forward): y-pencil → x-pencil, all-to-all within each
/// column group (ranks sharing `pc`).
pub fn pencil_stage2() -> Repartition {
    Repartition {
        name: "fft.pencil.stage2",
        src: ypencil(),
        dst: xpencil(),
    }
}

/// Pencil stage 2 reversed (inverse path): x-pencil → y-pencil.
pub fn pencil_stage2_inv() -> Repartition {
    Repartition {
        name: "fft.pencil.stage2.inv",
        src: xpencil(),
        dst: ypencil(),
    }
}

/// Pencil stage 1 reversed (inverse path): y-pencil → z-pencil.
pub fn pencil_stage1_inv() -> Repartition {
    Repartition {
        name: "fft.pencil.stage1.inv",
        src: ypencil(),
        dst: zpencil(),
    }
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
        for rep in [pencil_stage1(), pencil_stage2()] {
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
        let rep = pencil_stage1();
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
