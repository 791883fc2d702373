//! The registry of distributed repartitions under verification.
//!
//! It is [`layout::pencil_stages`], the stage list `Pencil2D` itself runs:
//! a stage the transform performs cannot be missing here, and a stage
//! registered here cannot be one the transform does not perform.

use vlasov6d_fft::layout::{self, RankGrid, Repartition};

/// Every repartition the distributed FFT performs, in pipeline order.
pub fn entries() -> [Repartition; 4] {
    layout::pencil_stages()
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
        for rep in entries() {
            for (dims, grid) in sample_shapes() {
                assert!(
                    rep.src.conforms(dims, grid) && rep.dst.conforms(dims, grid),
                    "{}: {:?} on {}x{} does not conform",
                    rep.name,
                    dims,
                    grid.rows,
                    grid.cols
                );
            }
        }
    }

    #[test]
    fn names_are_unique() {
        let names: Vec<&str> = entries().iter().map(|rep| rep.name).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }
}
