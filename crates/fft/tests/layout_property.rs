//! Property tests for the distributed-FFT coordinate accessors: for
//! arbitrary conforming dims and rank grids (`cols = 1`, the slab
//! decomposition, included), (rank, flat) → global coords → owner must be
//! the identity, and the accessors must agree with the declarative layout
//! model in `vlasov6d_fft::layout`.

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

        let flat = ((salt >> 8) % fft.spectral_len() as u64) as usize;
        let [i1, i0, i2] = fft.spectral_coords(rank, flat);
        prop_assert_eq!(fft.spectral_owner([i1, i0, i2]), (rank, flat));
        let model = layout::xpencil();
        prop_assert_eq!(model.owner(dims, grid, [i0, i1, i2]), (rank, flat));
        prop_assert_eq!(model.coords(dims, grid, rank, flat), [i0, i1, i2]);

        let zflat = ((salt >> 16) % fft.zpencil_len() as u64) as usize;
        let zc = fft.zpencil_coords(rank, zflat);
        prop_assert_eq!(fft.zpencil_owner(zc), (rank, zflat));
        let zmodel = layout::zpencil();
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
        for rep in [
            layout::pencil_stage1(),
            layout::pencil_stage2(),
            layout::pencil_stage2_inv(),
            layout::pencil_stage1_inv(),
        ] {
            for s in 0..grid.n_ranks() {
                let sent: usize = (0..grid.n_ranks())
                    .map(|d| rep.pair_elems(dims, grid, s, d))
                    .sum();
                prop_assert_eq!(sent, rep.src.local_len(dims, grid));
            }
        }
    }
}
