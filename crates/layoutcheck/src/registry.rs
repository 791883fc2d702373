//! The registry of distributed repartitions under verification.
//!
//! Every all-to-all transpose the runtime performs must appear here; the
//! `layout-index-arith` lint in `cargo xtask lint` cross-checks in both
//! directions (each pack/unpack loop cites a registered name, each
//! registered name backing a pack loop is cited somewhere).

use vlasov6d_fft::layout::{self, RankGrid, Repartition};

/// One registered repartition.
#[derive(Debug, Clone)]
pub struct Entry {
    pub rep: Repartition,
    /// Does a runtime pack/unpack loop implement this map? (All current
    /// entries — the lint's reverse direction relies on this flag.)
    pub backs_pack_loop: bool,
}

/// Every repartition the distributed FFT performs, in pipeline order.
pub fn entries() -> Vec<Entry> {
    [
        layout::pencil_stage1(),
        layout::pencil_stage2(),
        layout::pencil_stage2_inv(),
        layout::pencil_stage1_inv(),
    ]
    .into_iter()
    .map(|rep| Entry {
        rep,
        backs_pack_loop: true,
    })
    .collect()
}

/// Registered repartition names (the identifiers `[layoutcheck: ...]` tags
/// must cite).
pub fn repartition_names() -> Vec<&'static str> {
    entries().iter().map(|e| e.rep.name).collect()
}

/// Concrete (dims, rank-grid) samples every repartition is enumerated at:
/// thin axes, ragged (non-square) boxes, prime factors, a rank count past
/// `n0`, and the `P × 1` (slab) grids `DistributedVlasov` runs.
pub fn sample_shapes() -> Vec<([usize; 3], RankGrid)> {
    vec![
        ([4, 4, 4], RankGrid::new(2, 2)),
        ([2, 6, 8], RankGrid::new(2, 2)),
        ([4, 12, 6], RankGrid::new(2, 3)),
        ([3, 15, 5], RankGrid::new(3, 5)),
        ([4, 8, 4], RankGrid::new(4, 2)),
        ([8, 8, 8], RankGrid::new(4, 1)),
        ([4, 12, 6], RankGrid::new(2, 1)),
        ([2, 2, 5], RankGrid::new(2, 1)),
        ([3, 9, 7], RankGrid::new(3, 1)),
        ([10, 5, 3], RankGrid::new(5, 1)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_sample_shape_conforms() {
        for e in entries() {
            for (dims, grid) in sample_shapes() {
                assert!(
                    e.rep.src.conforms(dims, grid) && e.rep.dst.conforms(dims, grid),
                    "{}: {:?} on {}x{} does not conform",
                    e.rep.name,
                    dims,
                    grid.rows,
                    grid.cols
                );
            }
        }
    }

    #[test]
    fn names_are_unique() {
        let names = repartition_names();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }
}
