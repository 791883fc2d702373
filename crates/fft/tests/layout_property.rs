//! Property tests for the distributed-FFT layout maps every caller addresses
//! its blocks through: for arbitrary conforming dims and rank grids
//! (`cols = 1`, the slab decomposition, included), (rank, flat) → global
//! coords → owner must be the identity on the blocks `Pencil2D` allocates,
//! and the per-pair counts must conserve each block.

use proptest::prelude::*;
use vlasov6d_fft::layout::{self, RankGrid};
use vlasov6d_fft::Pencil2D;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pencil_accessors_round_trip_for_arbitrary_grids(
        rows in 1usize..5,
        cols in 1usize..5,
        a in 1usize..4,
        b in 1usize..3,
        c in 1usize..4,
        salt in 0u64..u64::MAX,
    ) {
        let dims = [rows * a, rows * cols * b, cols * c];
        let fft = Pencil2D::new(dims, rows, cols);
        let grid = RankGrid::new(rows, cols);
        let rank = (salt % (rows * cols) as u64) as usize;

        let model = layout::xpencil();
        prop_assert_eq!(model.local_len(dims, grid), fft.spectral_len());
        let flat = ((salt >> 8) % fft.spectral_len() as u64) as usize;
        let c = model.coords(dims, grid, rank, flat);
        prop_assert_eq!(model.owner(dims, grid, c), (rank, flat));

        let zmodel = layout::zpencil();
        prop_assert_eq!(zmodel.local_len(dims, grid), fft.zpencil_len());
        let zflat = ((salt >> 16) % fft.zpencil_len() as u64) as usize;
        let zc = zmodel.coords(dims, grid, rank, zflat);
        prop_assert_eq!(zmodel.owner(dims, grid, zc), (rank, zflat));
    }

    #[test]
    fn model_pair_elems_conserve_for_arbitrary_grids(
        rows in 1usize..4,
        cols in 1usize..4,
        a in 1usize..3,
        b in 1usize..3,
        c in 1usize..3,
    ) {
        let dims = [rows * a, rows * cols * b, cols * c];
        let grid = RankGrid::new(rows, cols);
        for rep in layout::pencil_stages() {
            for s in 0..grid.n_ranks() {
                let sent: usize = (0..grid.n_ranks())
                    .map(|d| rep.pair_elems(dims, grid, s, d))
                    .sum();
                prop_assert_eq!(sent, rep.src.local_len(dims, grid));
            }
        }
    }
}
