//! The acceptance bar for intra-rank threading: a distributed run with the
//! pool at 4 workers per rank must be **bitwise** identical to the same run
//! with every sweep serialized. Racecheck proves the per-task write sets
//! disjoint and all reductions bridge to sequential order, so not a single
//! bit may move — across the full step (gravity, Poisson transposes, ghost
//! exchanges, sweeps, moments).

use vlasov6d::dist_sim::{DistributedVlasov, OverlapPolicy};
use vlasov6d_cosmology::{Background, CosmologyParams};
use vlasov6d_mesh::Decomp3;
use vlasov6d_mpisim::Universe;
use vlasov6d_phase_space::{PhaseSpace, VelocityGrid};

fn fill(s: [usize; 3], u: [f64; 3]) -> f64 {
    let sx = (s[0] as f64 * 0.55).sin() + (s[1] as f64 * 0.35).cos() + (s[2] as f64 * 0.75).sin();
    0.002 * (2.5 + sx) * (-(u[0] * u[0] + u[1] * u[1] + u[2] * u[2]) / 0.03).exp()
}

/// Two-rank, four-step run (the cached force crosses three step boundaries);
/// returns every rank's final `f` as raw bits.
fn run(threads: usize, overlap: OverlapPolicy) -> Vec<Vec<u32>> {
    rayon::with_num_threads(threads, || {
        let sglobal = [8usize, 8, 8];
        let vg = VelocityGrid::cubic(8, 0.6);
        Universe::run(2, move |comm| {
            let decomp = Decomp3::new(sglobal, [comm.size(), 1, 1]);
            let off = decomp.local_offset(comm.rank());
            let dims = decomp.local_dims(comm.rank());
            let mut local = PhaseSpace::zeros_block(dims, off, sglobal, vg);
            local.fill_with(fill);
            let bg = Background::new(CosmologyParams::planck2015());
            let mut sim = DistributedVlasov::new(comm, local, bg, 0.2, 1.0).with_overlap(overlap);
            for _ in 0..4 {
                sim.step(comm);
            }
            sim.ps.as_slice().iter().map(|v| v.to_bits()).collect()
        })
    })
}

#[test]
fn four_thread_distributed_run_is_bitwise_serial() {
    let oracle = run(1, OverlapPolicy::Synchronous);
    assert_eq!(oracle, run(4, OverlapPolicy::Synchronous));
    // The overlapped path interleaves ghost communication with interior
    // sweeps on top of the pool; it must hit the same bits too.
    assert_eq!(oracle, run(4, OverlapPolicy::Overlapped));
}
