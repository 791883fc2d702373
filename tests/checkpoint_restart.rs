//! End-to-end checkpoint/restart: a distributed run interrupted at step 3
//! and resumed from disk must reproduce the uninterrupted run bit for bit —
//! under the default cosmological dynamics and under a scenario's, whose
//! configuration the caller re-applies on the resumed driver; a torn newest
//! generation must fall back to the previous one; a rank killed mid-step
//! must surface as a structured error while the on-disk state stays
//! resumable; and the hybrid driver, restored in place, must repeat the step
//! it had already taken bit for bit.

use std::path::PathBuf;
use vlasov6d::scenario::plasma;
use vlasov6d::{DistributedVlasov, HybridSimulation, KineticScenario, SimulationConfig};
use vlasov6d_ckpt::{fault, CheckpointPolicy, CheckpointStore, Encoding, Record};
use vlasov6d_cosmology::{Background, CosmologyParams};
use vlasov6d_mesh::Decomp3;
use vlasov6d_mpisim::{KillSwitch, SimError, SimOptions, Universe};
use vlasov6d_phase_space::{PhaseSpace, VelocityGrid};

const SGLOBAL: [usize; 3] = [8, 8, 8];
const N_RANKS: usize = 2;

fn fill(s: [usize; 3], u: [f64; 3]) -> f64 {
    let sx = (s[0] as f64 * 0.55).sin() + (s[1] as f64 * 0.35).cos() + (s[2] as f64 * 0.75).sin();
    0.002 * (2.5 + sx) * (-(u[0] * u[0] + u[1] * u[1] + u[2] * u[2]) / 0.03).exp()
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vck-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fresh_sim(comm: &vlasov6d_mpisim::Comm) -> DistributedVlasov {
    let vg = VelocityGrid::cubic(8, 0.6);
    let decomp = Decomp3::new(SGLOBAL, [comm.size(), 1, 1]);
    let off = decomp.local_offset(comm.rank());
    let dims = decomp.local_dims(comm.rank());
    let mut local = PhaseSpace::zeros_block(dims, off, SGLOBAL, vg);
    local.fill_with(fill);
    let bg = Background::new(CosmologyParams::planck2015());
    DistributedVlasov::new(comm, local, bg, 0.2, 1.0)
}

/// This rank's full state fingerprint: every f32 of the distribution
/// function as raw bits, plus the scale factor bits and the step index.
fn fingerprint(sim: &DistributedVlasov) -> (Vec<u32>, u64, u64) {
    let bits: Vec<u32> = sim.ps.as_slice().iter().map(|v| v.to_bits()).collect();
    (bits, sim.a.to_bits(), sim.step_index())
}

/// Uninterrupted `steps`-step run; per-rank fingerprints.
fn uninterrupted(steps: usize) -> Vec<(Vec<u32>, u64, u64)> {
    Universe::run(N_RANKS, move |comm| {
        let mut sim = fresh_sim(comm);
        for _ in 0..steps {
            sim.step(comm);
        }
        fingerprint(&sim)
    })
}

#[test]
fn resume_is_bitwise_identical_to_uninterrupted_run() {
    let reference = uninterrupted(6);
    let root = scratch("bitwise");
    let policy = CheckpointPolicy {
        every_steps: 3,
        keep: 2,
        encoding: Encoding::ShuffleRle,
    };

    // First life: run to step 3, cadence fires, then the universe is
    // dropped (simulating a job kill after the commit).
    let store = CheckpointStore::new(&root);
    let s = store.clone();
    Universe::run(N_RANKS, move |comm| {
        let mut sim = fresh_sim(comm);
        for _ in 0..3 {
            sim.step(comm);
            if let Some(result) = sim.maybe_checkpoint(comm, &s, &policy) {
                result.expect("checkpoint commit");
            }
        }
        assert_eq!(sim.step_index(), 3);
    });

    // Second life: resume from disk and finish the run.
    let s = store.clone();
    let resumed = Universe::run(N_RANKS, move |comm| {
        let bg = Background::new(CosmologyParams::planck2015());
        let mut sim = DistributedVlasov::resume_from(comm, &s, bg).expect("resume");
        assert_eq!(sim.step_index(), 3, "resume must land on the checkpoint");
        for _ in 0..3 {
            sim.step(comm);
        }
        fingerprint(&sim)
    });

    for (rank, (got, want)) in resumed.iter().zip(&reference).enumerate() {
        assert_eq!(got.2, want.2, "rank {rank} step count");
        assert_eq!(got.1, want.1, "rank {rank} scale-factor bits");
        assert_eq!(got.0, want.0, "rank {rank} distribution-function bits");
    }
    std::fs::remove_dir_all(&root).unwrap();
}

/// Everything `resume_from` cannot know: the scenario's force law / time
/// axis and the kernel backend its thin velocity grid needs.
fn as_scenario(sim: DistributedVlasov, sc: &KineticScenario) -> DistributedVlasov {
    sim.with_dynamics(sc.dynamics()).with_exec(sc.grid.exec)
}

/// One rank's end state of [`landau_on_ranks`].
#[derive(Debug, PartialEq)]
struct LandauEnd {
    f_bits: Vec<u32>,
    /// `(t, Δt)` bits of every step.
    clocks: Vec<(u64, u64)>,
    /// The tag counter the run ends on (read back from a final checkpoint).
    tag_counter: u64,
}

/// Six steps of 2-rank Landau damping (electrostatic force, static time
/// axis, thin-grid lanes), optionally torn down after step 3 and resumed from
/// its checkpoint; one end state per rank.
fn landau_on_ranks(root: PathBuf, interrupt: bool) -> Vec<LandauEnd> {
    let policy = CheckpointPolicy::every(1);
    Universe::run(N_RANKS, move |comm| {
        let sc = plasma::landau_damping();
        let bg = || Background::new(CosmologyParams::planck2015());
        let decomp = Decomp3::new(sc.grid.sdims, [comm.size(), 1, 1]);
        let mut local = PhaseSpace::zeros_block(
            decomp.local_dims(comm.rank()),
            decomp.local_offset(comm.rank()),
            sc.grid.sdims,
            sc.grid.vgrid,
        );
        sc.fill(&mut local);
        let mut sim = as_scenario(DistributedVlasov::new(comm, local, bg(), 0.0, 0.0), &sc)
            .with_scheme(sc.grid.scheme);
        sim.max_dln_a = sc.max_step;
        sim.cfl_spatial = sc.cfl_spatial;

        let mid = CheckpointStore::new(root.join("mid"));
        let mut clocks = Vec::new();
        for step in 0..6 {
            if interrupt && step == 3 {
                sim.checkpoint(comm, &mid, &policy).expect("mid-run commit");
                let resumed = DistributedVlasov::resume_from(comm, &mid, bg()).expect("resume");
                sim = as_scenario(resumed, &sc);
            }
            let (t, dt) = sim.step(comm);
            clocks.push((t.to_bits(), dt.to_bits()));
        }

        let end = CheckpointStore::new(root.join("end"));
        sim.checkpoint(comm, &end, &policy).expect("final commit");
        let tag_counter = end
            .load_collective(comm)
            .expect("final generation loads")
            .records
            .iter()
            .find_map(|r| match r {
                Record::SimState(s) => Some(s.tag_counter),
                _ => None,
            })
            .expect("sim-state record");
        LandauEnd {
            f_bits: sim.ps.as_slice().iter().map(|v| v.to_bits()).collect(),
            clocks,
            tag_counter,
        }
    })
}

#[test]
fn scenario_resume_on_ranks_is_bitwise_identical_to_uninterrupted_run() {
    let root = scratch("landau");
    let reference = landau_on_ranks(root.join("whole"), false);
    let resumed = landau_on_ranks(root.join("resumed"), true);
    for (rank, (got, want)) in resumed.iter().zip(&reference).enumerate() {
        assert_eq!(got.clocks, want.clocks, "rank {rank} clock stream");
        assert_eq!(got.tag_counter, want.tag_counter, "rank {rank} tag counter");
        assert!(got.f_bits == want.f_bits, "rank {rank} f bits diverged");
    }
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn torn_newest_generation_falls_back_and_still_matches() {
    let reference = uninterrupted(6);
    let root = scratch("torn");
    let policy = CheckpointPolicy {
        every_steps: 1,
        keep: 3,
        encoding: Encoding::ShuffleRle,
    };

    // Checkpoint after every step up to 4 → generations at steps 1..4.
    let store = CheckpointStore::new(&root);
    let s = store.clone();
    Universe::run(N_RANKS, move |comm| {
        let mut sim = fresh_sim(comm);
        for _ in 0..4 {
            sim.step(comm);
            sim.maybe_checkpoint(comm, &s, &policy)
                .expect("cadence fires every step")
                .expect("checkpoint commit");
        }
    });

    // Tear the newest generation: truncate rank 0's file mid-write.
    let gens = store.list_generations();
    let newest = *gens.last().unwrap();
    let victim = store
        .gen_dir(newest)
        .join(CheckpointStore::rank_file_name(0));
    fault::truncate_tail(&victim, 17).unwrap();

    // Resume: every rank must agree to skip the torn generation and land on
    // the previous one (step 3), then finish bit-identically.
    let s = store.clone();
    let resumed = Universe::run(N_RANKS, move |comm| {
        let bg = Background::new(CosmologyParams::planck2015());
        let mut sim = DistributedVlasov::resume_from(comm, &s, bg).expect("fallback resume");
        assert_eq!(
            sim.step_index(),
            3,
            "must fall back to the step-3 generation"
        );
        for _ in 0..3 {
            sim.step(comm);
        }
        fingerprint(&sim)
    });

    for (rank, (got, want)) in resumed.iter().zip(&reference).enumerate() {
        assert_eq!(got.0, want.0, "rank {rank} distribution-function bits");
    }
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn killed_rank_surfaces_as_structured_error_and_run_resumes() {
    let reference = uninterrupted(6);
    let root = scratch("kill");
    let policy = CheckpointPolicy {
        every_steps: 3,
        keep: 2,
        encoding: Encoding::ShuffleRle,
    };

    // Arm the switch: rank 1 dies at its 5th per-step check, i.e. mid-run
    // after the step-3 checkpoint committed.
    let switch = KillSwitch::new();
    switch.arm(1, 4);
    let store = CheckpointStore::new(&root);
    let s = store.clone();
    let sw = switch.clone();
    let err = Universe::run_checked(N_RANKS, SimOptions::default(), move |comm| {
        let mut sim = fresh_sim(comm);
        for _ in 0..6 {
            sw.check(comm);
            sim.step(comm);
            if let Some(result) = sim.maybe_checkpoint(comm, &s, &policy) {
                result.expect("checkpoint commit");
            }
        }
    })
    .expect_err("the armed rank must take the run down");
    match err {
        SimError::RankPanic { rank, message } => {
            assert_eq!(rank, 1);
            assert!(message.contains("fault injection"), "{message}");
        }
        other => panic!("expected RankPanic, got {other:?}"),
    }

    // The step-3 generation survived the crash; a fresh job completes the
    // run with the same bits as the uninterrupted one.
    let s = store.clone();
    let resumed = Universe::run(N_RANKS, move |comm| {
        let bg = Background::new(CosmologyParams::planck2015());
        let mut sim = DistributedVlasov::resume_from(comm, &s, bg).expect("resume after kill");
        assert_eq!(sim.step_index(), 3);
        for _ in 0..3 {
            sim.step(comm);
        }
        fingerprint(&sim)
    });
    for (rank, (got, want)) in resumed.iter().zip(&reference).enumerate() {
        assert_eq!(got.0, want.0, "rank {rank} distribution-function bits");
    }
    std::fs::remove_dir_all(&root).unwrap();
}

/// Every evolving bit of a hybrid run: `f`, positions, velocities, `a`.
fn hybrid_bits(sim: &HybridSimulation) -> (Vec<u32>, Vec<u64>, Vec<u64>, u64) {
    let nu = sim.neutrinos.as_ref().expect("ν component");
    let cdm = sim.cdm.as_ref().expect("CDM component");
    let bits = |v: &[[f64; 3]]| v.iter().flatten().map(|x| x.to_bits()).collect();
    (
        nu.as_slice().iter().map(|v| v.to_bits()).collect(),
        bits(&cdm.pos),
        bits(&cdm.vel),
        sim.a.to_bits(),
    )
}

#[test]
fn hybrid_restore_then_step_is_bitwise_identical_to_uninterrupted_step() {
    let root = scratch("hybrid");
    let store = CheckpointStore::new(&root);
    let mut config = SimulationConfig::small_test();
    config.z_init = 5.0;
    config.max_dln_a = 0.1;

    let mut sim = HybridSimulation::new(config);
    sim.step();
    sim.step();
    sim.save_checkpoint(&store).expect("checkpoint commit");
    sim.step();
    let uninterrupted = hybrid_bits(&sim);

    // The cached ν force meshes and CDM accelerations come back with the
    // state, so the repeated step starts from the very kick the first one
    // did — no gravity re-solve, no last-ulp drift.
    assert_eq!(sim.restore_checkpoint(&store).expect("restore"), 2);
    assert_eq!(sim.step_count, 2);
    sim.step();
    let resumed = hybrid_bits(&sim);
    assert!(resumed.0 == uninterrupted.0, "f bits diverged");
    assert!(resumed.1 == uninterrupted.1, "position bits diverged");
    assert!(resumed.2 == uninterrupted.2, "velocity bits diverged");
    assert_eq!(resumed.3, uninterrupted.3, "scale-factor bits");
    std::fs::remove_dir_all(&root).unwrap();
}
