//! Block domain decomposition index math.
//!
//! The paper decomposes the three *spatial* axes of the 6-D phase space across
//! MPI processes as an `n_x × n_y × n_z` process grid (their §5.1.3), keeping
//! the velocity axes local. The same block decomposition carries the N-body
//! particles. This module is the single source of truth for "which rank owns
//! which cells" — both the thread-rank runtime and the performance model use
//! it, so communication volumes counted in tests match the real exchanges.

/// A 3-D block decomposition of a periodic grid over a process grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decomp3 {
    /// Global grid dimensions.
    pub global: [usize; 3],
    /// Process grid `(p0, p1, p2)`.
    pub procs: [usize; 3],
}

impl Decomp3 {
    pub fn new(global: [usize; 3], procs: [usize; 3]) -> Self {
        assert!(procs.iter().all(|&p| p >= 1));
        for a in 0..3 {
            assert!(
                procs[a] <= global[a],
                "axis {a}: more processes ({}) than cells ({})",
                procs[a],
                global[a]
            );
        }
        Self { global, procs }
    }

    /// Total number of ranks.
    pub fn n_ranks(&self) -> usize {
        self.procs.iter().product()
    }

    /// Rank id of process-grid coordinates (row-major, axis 2 fastest —
    /// matching the field layout).
    pub(crate) fn rank_of_coords(&self, c: [usize; 3]) -> usize {
        debug_assert!(c[0] < self.procs[0] && c[1] < self.procs[1] && c[2] < self.procs[2]);
        (c[0] * self.procs[1] + c[1]) * self.procs[2] + c[2]
    }

    /// Process-grid coordinates of a rank id.
    pub fn coords_of_rank(&self, rank: usize) -> [usize; 3] {
        debug_assert!(rank < self.n_ranks());
        let c2 = rank % self.procs[2];
        let rest = rank / self.procs[2];
        let c1 = rest % self.procs[1];
        let c0 = rest / self.procs[1];
        [c0, c1, c2]
    }

    /// Cell range `[start, end)` owned along `axis` by process coordinate `c`.
    /// Remainder cells are spread over the leading processes so block sizes
    /// differ by at most one.
    pub fn range(&self, axis: usize, c: usize) -> std::ops::Range<usize> {
        split_even(self.global[axis], self.procs[axis], c)
    }

    /// Local block dimensions of a rank.
    pub fn local_dims(&self, rank: usize) -> [usize; 3] {
        let c = self.coords_of_rank(rank);
        [
            self.range(0, c[0]).len(),
            self.range(1, c[1]).len(),
            self.range(2, c[2]).len(),
        ]
    }

    /// Global offset (first owned cell per axis) of a rank's block.
    pub fn local_offset(&self, rank: usize) -> [usize; 3] {
        let c = self.coords_of_rank(rank);
        [
            self.range(0, c[0]).start,
            self.range(1, c[1]).start,
            self.range(2, c[2]).start,
        ]
    }

    /// Rank that owns global cell `(g0, g1, g2)`.
    pub fn owner_of_cell(&self, g: [usize; 3]) -> usize {
        let mut c = [0usize; 3];
        for a in 0..3 {
            debug_assert!(g[a] < self.global[a]);
            c[a] = owner_coord(self.global[a], self.procs[a], g[a]);
        }
        self.rank_of_coords(c)
    }

    /// Rank that owns the cell containing position `x ∈ [0,1)` per axis.
    pub fn owner_of_position(&self, x: [f64; 3]) -> usize {
        let mut g = [0usize; 3];
        for a in 0..3 {
            let xi = x[a].rem_euclid(1.0);
            g[a] = ((xi * self.global[a] as f64) as usize).min(self.global[a] - 1);
        }
        self.owner_of_cell(g)
    }

    /// Neighbouring rank in direction `±1` along `axis` (periodic).
    pub fn neighbor(&self, rank: usize, axis: usize, dir: i64) -> usize {
        let mut c = self.coords_of_rank(rank);
        let p = self.procs[axis] as i64;
        c[axis] = (c[axis] as i64 + dir).rem_euclid(p) as usize;
        self.rank_of_coords(c)
    }
}

/// Even split of `n` cells over `p` blocks: block `i` gets `n/p` cells plus
/// one extra if `i < n % p`.
pub(crate) fn split_even(n: usize, p: usize, i: usize) -> std::ops::Range<usize> {
    debug_assert!(i < p);
    let base = n / p;
    let rem = n % p;
    let start = i * base + i.min(rem);
    let len = base + usize::from(i < rem);
    start..start + len
}

/// Block coordinate owning global index `g` under [`split_even`].
fn owner_coord(n: usize, p: usize, g: usize) -> usize {
    let base = n / p;
    let rem = n % p;
    let big = (base + 1) * rem; // cells covered by the `rem` bigger blocks
    if g < big {
        g / (base + 1)
    } else {
        rem + (g - big) / base.max(1)
    }
}

#[cfg(test)]
impl Decomp3 {
    /// Choose a near-cubic process grid for `n_ranks` ranks (largest factors
    /// first along axis 0) — mirrors how the paper lays out its runs when no
    /// explicit `(n_x, n_y, n_z)` is given.
    pub(crate) fn factor_ranks(n_ranks: usize) -> [usize; 3] {
        assert!(n_ranks >= 1);
        let mut best = [n_ranks, 1, 1];
        let mut best_score = usize::MAX;
        for p0 in 1..=n_ranks {
            if !n_ranks.is_multiple_of(p0) {
                continue;
            }
            let rem = n_ranks / p0;
            for p1 in 1..=rem {
                if !rem.is_multiple_of(p1) {
                    continue;
                }
                let p2 = rem / p1;
                // surface-to-volume proxy: sum of pairwise products.
                let score = p0 * p1 + p1 * p2 + p0 * p2;
                if score < best_score {
                    best_score = score;
                    best = [p0, p1, p2];
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_even_covers_everything_once() {
        for n in [7usize, 8, 16, 100] {
            for p in [1usize, 2, 3, 5, 7] {
                if p > n {
                    continue;
                }
                let mut covered = vec![false; n];
                for i in 0..p {
                    for g in split_even(n, p, i) {
                        assert!(!covered[g], "n={n} p={p}: cell {g} covered twice");
                        covered[g] = true;
                    }
                }
                assert!(covered.iter().all(|&c| c), "n={n} p={p}");
            }
        }
    }

    #[test]
    fn block_sizes_differ_by_at_most_one() {
        for n in [10usize, 17, 64] {
            for p in [3usize, 4, 7] {
                let sizes: Vec<usize> = (0..p).map(|i| split_even(n, p, i).len()).collect();
                let (mn, mx) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(mx - mn <= 1, "n={n} p={p}: {sizes:?}");
            }
        }
    }

    #[test]
    fn rank_coords_round_trip() {
        let d = Decomp3::new([32, 32, 32], [2, 3, 4]);
        for r in 0..d.n_ranks() {
            assert_eq!(d.rank_of_coords(d.coords_of_rank(r)), r);
        }
    }

    #[test]
    fn owner_of_cell_agrees_with_ranges() {
        let d = Decomp3::new([19, 8, 8], [3, 2, 2]);
        for g0 in 0..19 {
            let owner = d.owner_of_cell([g0, 0, 0]);
            let c = d.coords_of_rank(owner);
            assert!(d.range(0, c[0]).contains(&g0), "g0 = {g0}: coords {c:?}");
        }
    }

    #[test]
    fn owner_of_position_wraps() {
        let d = Decomp3::new([16, 16, 16], [2, 2, 2]);
        assert_eq!(
            d.owner_of_position([0.1, 0.1, 0.1]),
            d.owner_of_position([1.1, -0.9, 2.1])
        );
    }

    #[test]
    fn neighbors_are_periodic() {
        let d = Decomp3::new([16, 16, 16], [4, 1, 1]);
        let r0 = d.rank_of_coords([0, 0, 0]);
        assert_eq!(d.neighbor(r0, 0, -1), d.rank_of_coords([3, 0, 0]));
        assert_eq!(d.neighbor(d.rank_of_coords([3, 0, 0]), 0, 1), r0);
    }

    #[test]
    fn factor_ranks_prefers_cubes() {
        assert_eq!(Decomp3::factor_ranks(8), [2, 2, 2]);
        assert_eq!(Decomp3::factor_ranks(27), [3, 3, 3]);
        let f = Decomp3::factor_ranks(12);
        assert_eq!(f.iter().product::<usize>(), 12);
        // No dimension should be 12 (that would be a pencil, worse surface).
        assert!(f.iter().all(|&p| p < 12));
    }

    #[test]
    fn local_dims_sum_to_global() {
        let d = Decomp3::new([20, 21, 22], [2, 3, 2]);
        let total: usize = (0..d.n_ranks())
            .map(|r| {
                let l = d.local_dims(r);
                l[0] * l[1] * l[2]
            })
            .sum();
        assert_eq!(total, 20 * 21 * 22);
    }
}
