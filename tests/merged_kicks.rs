//! The merged kick of the shared stepper (`strang.rs`): every step of every
//! driver runs three velocity and three spatial sweeps — the first step of a
//! fresh or a restored driver too — because each step's trailing half kick
//! stays pending and runs inside the next step's kick; `synchronize()` costs
//! three velocity sweeps, and a second one nothing. A pending kick is part
//! of the state: a run checkpointed with one resumes bit for bit.

use std::path::PathBuf;
use vlasov6d::scenario::plasma;
use vlasov6d::{DistributedVlasov, HybridSimulation, OverlapPolicy, SimulationConfig};
use vlasov6d_ckpt::{CheckpointPolicy, CheckpointStore};
use vlasov6d_cosmology::{Background, CosmologyParams};
use vlasov6d_mesh::Decomp3;
use vlasov6d_mpisim::{Comm, Universe};
use vlasov6d_obs::{visit_spans, SpanNode, StepScope};
use vlasov6d_phase_space::{PhaseSpace, VelocityGrid};

/// `(velocity, spatial)` sweeps in a span tree: `sweep.velocity.*` nodes,
/// and the rank-local, blocking-ghost and overlapped spatial sweeps.
fn sweeps(roots: &[SpanNode]) -> (usize, usize) {
    let (mut velocity, mut spatial) = (0, 0);
    visit_spans(roots, |node| {
        let name = node.name.as_str();
        if name.starts_with("sweep.velocity.") {
            velocity += 1;
        } else if ["sweep.spatial.", "sweep.dist.", "sweep.overlap."]
            .iter()
            .any(|p| name.starts_with(p))
        {
            spatial += 1;
        }
    });
    (velocity, spatial)
}

/// The sweeps `f` runs, read off a step scope of its own.
fn sweeps_in<R>(f: impl FnOnce() -> R) -> (usize, usize) {
    let scope = StepScope::begin(0);
    let _ = f();
    sweeps(&scope.finish().roots)
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vck-merged-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bits(f: &[f32]) -> Vec<u32> {
    f.iter().map(|v| v.to_bits()).collect()
}

fn tiny_hybrid() -> SimulationConfig {
    SimulationConfig {
        z_init: 4.0,
        ..SimulationConfig::small_test()
    }
}

fn fill(s: [usize; 3], u: [f64; 3]) -> f64 {
    let sx = (s[0] as f64 * 0.55).sin() + (s[1] as f64 * 0.35).cos() + (s[2] as f64 * 0.75).sin();
    0.002 * (2.5 + sx) * (-(u[0] * u[0] + u[1] * u[1] + u[2] * u[2]) / 0.03).exp()
}

/// This rank's block of the `[16, 8, 8] × 8³` run under the overlapped
/// ghost exchange.
fn ranked(comm: &Comm) -> DistributedVlasov {
    let sglobal = [16, 8, 8];
    let decomp = Decomp3::new(sglobal, [comm.size(), 1, 1]);
    let mut block = PhaseSpace::zeros_block(
        decomp.local_dims(comm.rank()),
        decomp.local_offset(comm.rank()),
        sglobal,
        VelocityGrid::cubic(8, 0.6),
    );
    block.fill_with(fill);
    DistributedVlasov::new(comm, block, bg(), 0.2, 1.0).with_overlap(OverlapPolicy::Overlapped)
}

fn bg() -> Background {
    Background::new(CosmologyParams::planck2015())
}

const STEP: (usize, usize) = (3, 3);
const SYNC: (usize, usize) = (3, 0);
const NOTHING: (usize, usize) = (0, 0);

#[test]
fn every_step_runs_three_velocity_and_three_spatial_sweeps() {
    // Hybrid: each step opens its own scope and keeps its span tree.
    let mut sim = HybridSimulation::new(tiny_hybrid());
    for _ in 0..3 {
        assert_eq!(sweeps(&sim.step().spans), STEP, "hybrid step");
    }
    assert_eq!(sweeps_in(|| sim.synchronize()), SYNC, "hybrid synchronize");
    assert_eq!(sweeps_in(|| sim.synchronize()), NOTHING, "hybrid again");
    assert_eq!(sweeps(&sim.step().spans), STEP, "hybrid step after sync");

    // Two ranks: a fresh driver's first step also solves for the force it
    // arrived without, and still sweeps 3 + 3; so does a resumed one.
    let root = scratch("count-ranks");
    let store = CheckpointStore::new(&root);
    Universe::run(2, |comm| {
        let mut sim = ranked(comm);
        for _ in 0..2 {
            let (_, _, telemetry) = sim.step_traced(comm);
            assert_eq!(sweeps(&telemetry.spans.roots), STEP, "ranked step");
        }
        sim.checkpoint(comm, &store, &CheckpointPolicy::every(1))
            .expect("checkpoint");
        assert_eq!(sweeps_in(|| sim.synchronize()), SYNC, "ranked synchronize");
        assert_eq!(sweeps_in(|| sim.synchronize()), NOTHING, "ranked again");
        let mut resumed = DistributedVlasov::resume_from(comm, &store, bg())
            .expect("resume")
            .with_overlap(OverlapPolicy::Overlapped);
        let (_, _, telemetry) = resumed.step_traced(comm);
        assert_eq!(sweeps(&telemetry.spans.roots), STEP, "resumed step");
    });
    std::fs::remove_dir_all(&root).unwrap();

    // Kinetic: the engine opens no scope of its own.
    let root = scratch("count-kinetic");
    let store = CheckpointStore::new(&root);
    let sc = plasma::landau_damping_with([8, 4, 4], 16);
    let mut sim = sc.build();
    for _ in 0..3 {
        assert_eq!(sweeps_in(|| sim.step()), STEP, "kinetic step");
    }
    sim.save_checkpoint(&store).expect("checkpoint");
    let mut resumed = vlasov6d::KineticSimulation::resume(&sc, &store).expect("resume");
    assert_eq!(sweeps_in(|| resumed.step()), STEP, "resumed step");
    assert_eq!(sweeps_in(|| sim.synchronize()), SYNC, "kinetic synchronize");
    assert_eq!(sweeps_in(|| sim.synchronize()), NOTHING, "kinetic again");
    std::fs::remove_dir_all(&root).unwrap();
}

/// `synchronize()` applies the pending kick once: the first call moves `f`,
/// the second leaves every bit where it was.
#[test]
fn a_second_synchronize_is_a_bitwise_noop() {
    let mut hybrid = HybridSimulation::new(tiny_hybrid());
    hybrid.step();
    let state = |sim: &HybridSimulation| {
        let nu = sim.neutrinos.as_ref().expect("ν component");
        let cdm = sim.cdm.as_ref().expect("CDM component");
        let vel: Vec<u64> = cdm.vel.iter().flatten().map(|v| v.to_bits()).collect();
        (bits(nu.as_slice()), vel)
    };
    let pending = state(&hybrid);
    hybrid.synchronize();
    let once = state(&hybrid);
    assert!(
        once.0 != pending.0 && once.1 != pending.1,
        "nothing was pending"
    );
    hybrid.synchronize();
    assert!(
        state(&hybrid) == once,
        "hybrid: the second synchronize moved bits"
    );

    Universe::run(2, |comm| {
        let mut sim = ranked(comm);
        sim.step(comm);
        let pending = bits(sim.ps.as_slice());
        sim.synchronize();
        let once = bits(sim.ps.as_slice());
        assert!(once != pending, "rank {}: nothing was pending", comm.rank());
        sim.synchronize();
        assert!(bits(sim.ps.as_slice()) == once, "rank {}", comm.rank());
    });

    let mut kinetic = plasma::landau_damping_with([8, 4, 4], 16).build();
    kinetic.step();
    let pending = bits(kinetic.phase_space().as_slice());
    kinetic.synchronize();
    let once = bits(kinetic.phase_space().as_slice());
    assert!(once != pending, "kinetic: nothing was pending");
    kinetic.synchronize();
    assert!(bits(kinetic.phase_space().as_slice()) == once, "kinetic");
}

/// A checkpoint taken with a kick pending restores it: the resumed driver's
/// `synchronize()` lands on the uninterrupted one's bits, and so does a step
/// after it — on two ranks, the hybrid and the kinetic path.
#[test]
fn a_run_checkpointed_with_a_pending_kick_resumes_bitwise() {
    // Two ranks.
    let root = scratch("resume-ranks");
    let store = CheckpointStore::new(&root);
    Universe::run(2, |comm| {
        let mut sim = ranked(comm);
        sim.step(comm);
        sim.step(comm);
        sim.checkpoint(comm, &store, &CheckpointPolicy::every(1))
            .expect("checkpoint");
        let pending = bits(sim.ps.as_slice());
        let mut resumed = DistributedVlasov::resume_from(comm, &store, bg())
            .expect("resume")
            .with_overlap(OverlapPolicy::Overlapped);
        for s in [&mut sim, &mut resumed] {
            s.synchronize();
        }
        let synced = bits(sim.ps.as_slice());
        assert!(
            synced != pending,
            "rank {}: nothing was pending",
            comm.rank()
        );
        assert!(
            bits(resumed.ps.as_slice()) == synced,
            "rank {}",
            comm.rank()
        );
        for s in [&mut sim, &mut resumed] {
            s.step(comm);
            s.synchronize();
        }
        assert!(bits(resumed.ps.as_slice()) == bits(sim.ps.as_slice()));
    });
    std::fs::remove_dir_all(&root).unwrap();

    // Hybrid, restored in place after the uninterrupted run went on.
    let root = scratch("resume-hybrid");
    let store = CheckpointStore::new(&root);
    let mut sim = HybridSimulation::new(tiny_hybrid());
    sim.step();
    sim.step();
    sim.save_checkpoint(&store).expect("checkpoint");
    let snapshot = |sim: &HybridSimulation| {
        let cdm = sim.cdm.as_ref().expect("CDM component");
        let vel: Vec<u64> = cdm.vel.iter().flatten().map(|v| v.to_bits()).collect();
        (bits(sim.neutrinos.as_ref().expect("ν").as_slice()), vel)
    };
    let pending = snapshot(&sim);
    sim.synchronize();
    let synced = snapshot(&sim);
    assert!(synced.0 != pending.0 && synced.1 != pending.1);
    sim.step();
    sim.synchronize();
    let stepped = snapshot(&sim);
    sim.restore_checkpoint(&store).expect("restore");
    assert!(
        snapshot(&sim) == pending,
        "restore must bring back f before K₂"
    );
    sim.synchronize();
    assert!(
        snapshot(&sim) == synced,
        "hybrid: the restored kick differs"
    );
    sim.step();
    sim.synchronize();
    assert!(
        snapshot(&sim) == stepped,
        "hybrid: the step after it differs"
    );
    std::fs::remove_dir_all(&root).unwrap();

    // Kinetic.
    let root = scratch("resume-kinetic");
    let store = CheckpointStore::new(&root);
    let sc = plasma::landau_damping_with([8, 4, 4], 16);
    let mut sim = sc.build();
    for _ in 0..3 {
        sim.step();
    }
    sim.save_checkpoint(&store).expect("checkpoint");
    let pending = bits(sim.phase_space().as_slice());
    let mut resumed = vlasov6d::KineticSimulation::resume(&sc, &store).expect("resume");
    for s in [&mut sim, &mut resumed] {
        s.synchronize();
    }
    let synced = bits(sim.phase_space().as_slice());
    assert!(synced != pending, "kinetic: nothing was pending");
    assert!(bits(resumed.phase_space().as_slice()) == synced, "kinetic");
    for s in [&mut sim, &mut resumed] {
        s.step();
        s.synchronize();
    }
    assert!(bits(resumed.phase_space().as_slice()) == bits(sim.phase_space().as_slice()));
    std::fs::remove_dir_all(&root).unwrap();
}
