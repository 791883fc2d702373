//! The hybrid driver's thread-count bar. `threaded_distributed.rs` pins the
//! distributed Vlasov driver bitwise across pool sizes; this does the same
//! for the path only the hybrid driver runs — the TreePM tree pass, whose
//! groups are summed in parallel — and for the coupled step around it.
//! Each group is walked and summed by one thread in list order, so not a
//! bit may move with the number of workers.

use std::path::PathBuf;
use vlasov6d::{HybridSimulation, SimulationConfig};
use vlasov6d_ckpt::CheckpointStore;
use vlasov6d_nbody::TreePm;

/// `small_test` with fewer particles: seconds per run, and a 16³ PM mesh —
/// the tree cutoff reaches past half a box.
fn config() -> SimulationConfig {
    SimulationConfig {
        n_cdm: 12,
        ..SimulationConfig::small_test()
    }
}

/// Everything a step evolves, as raw bits.
type Fingerprint = (Vec<u32>, Vec<[u64; 3]>, Vec<[u64; 3]>);

fn fingerprint(sim: &HybridSimulation) -> Fingerprint {
    let bits = |v: &[[f64; 3]]| v.iter().map(|p| p.map(f64::to_bits)).collect();
    let nu = sim.neutrinos.as_ref().expect("ν enabled");
    let cdm = sim.cdm.as_ref().expect("CDM enabled");
    (
        nu.as_slice().iter().map(|v| v.to_bits()).collect(),
        bits(&cdm.pos),
        bits(&cdm.vel),
    )
}

#[test]
fn tree_accelerations_are_bitwise_independent_of_thread_count() {
    let cdm = HybridSimulation::new(SimulationConfig {
        with_neutrinos: false,
        ..config()
    })
    .cdm
    .expect("CDM enabled");
    let treepm = TreePm::new(16, 2e-3);
    let run = |threads| {
        rayon::with_num_threads(threads, || {
            let (acc, stats) = treepm.tree_accelerations_counted(&cdm, 0.1);
            let bits: Vec<[u64; 3]> = acc.iter().map(|a| a.map(f64::to_bits)).collect();
            (bits, stats)
        })
    };
    let oracle = run(1);
    assert!(oracle.1.groups > 1, "one group would prove nothing");
    assert_eq!(oracle, run(2));
    assert_eq!(oracle, run(3));
}

#[test]
fn three_step_hybrid_run_is_bitwise_independent_of_thread_count() {
    let run = |threads| {
        rayon::with_num_threads(threads, || {
            let mut sim = HybridSimulation::new(config());
            for _ in 0..3 {
                sim.step();
            }
            fingerprint(&sim)
        })
    };
    let oracle = run(1);
    assert!(oracle == run(2), "2 threads moved a bit");
    assert!(oracle == run(3), "3 threads moved a bit");
}

#[test]
fn resumed_step_matches_the_uninterrupted_one() {
    let root: PathBuf =
        std::env::temp_dir().join(format!("vlasov6d-hybrid-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = CheckpointStore::new(&root);

    let mut sim = HybridSimulation::new(config());
    sim.step();
    sim.step();
    sim.save_checkpoint(&store).expect("checkpoint written");
    sim.step();
    let (f, pos, vel) = (
        sim.neutrinos.as_ref().expect("ν").as_slice().to_vec(),
        sim.cdm.as_ref().expect("CDM").pos.clone(),
        sim.cdm.as_ref().expect("CDM").vel.clone(),
    );

    // The checkpoint carries the cached ν force meshes and CDM
    // accelerations, so a fresh simulation that restores it takes the very
    // step the uninterrupted one took, bit for bit.
    let mut resumed = HybridSimulation::new(config());
    assert_eq!(resumed.restore_checkpoint(&store).expect("restored"), 2);
    resumed.step();
    let _ = std::fs::remove_dir_all(&root);

    let now_f = resumed.neutrinos.as_ref().expect("ν").as_slice();
    let same_f = f.iter().zip(now_f).all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(same_f && f.len() == now_f.len(), "f bits moved");
    let same = |a: &[[f64; 3]], b: &[[f64; 3]]| {
        let bits = |v: &[[f64; 3]]| v.iter().flatten().map(|x| x.to_bits()).collect::<Vec<_>>();
        bits(a) == bits(b)
    };
    let now = resumed.cdm.as_ref().expect("CDM");
    assert!(same(&pos, &now.pos), "positions moved");
    assert!(same(&vel, &now.vel), "velocities moved");
}
