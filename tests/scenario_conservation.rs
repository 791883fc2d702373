//! Conservation property suite over the scenario registry: every registered
//! scenario must hold the invariant bands it declares — mass to near
//! roundoff, energy drift bounded, L2 norm non-growing (the monotone
//! limiter may only dissipate) — plus scenario-specific symmetries
//! (zero net momentum through the King merger) and a bitwise
//! checkpoint/resume smoke run.

use proptest::prelude::*;
use vlasov6d::scenario::{jeans, king, plasma};
use vlasov6d::{HybridSimulation, KineticScenario, Scenario, ScenarioRegistry};
use vlasov6d_ckpt::CheckpointStore;

fn temp_store(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("vck-scen-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run a kinetic scenario for its declared number of steps and assert its
/// declared invariant bands.
fn assert_invariants(sc: &KineticScenario) {
    let mut sim = sc.build();
    let start = sim.diagnose(0.0);
    assert!(start.mass > 0.0, "{}: empty initial condition", sc.name);
    for _ in 0..sc.invariants.steps {
        sim.step();
    }
    // The end row of the synchronized state: the kinetic energy is the one
    // at the end time, not before the last step's pending half kick.
    sim.synchronize();
    let end = sim.diagnose(0.0);

    let mass_drift = (end.mass / start.mass - 1.0).abs();
    assert!(
        mass_drift <= sc.invariants.mass_rel,
        "{}: mass drift {mass_drift:.3e} exceeds band {:.1e} \
         ({} -> {} over {} steps)",
        sc.name,
        sc.invariants.mass_rel,
        start.mass,
        end.mass,
        sc.invariants.steps
    );

    // Energy drift relative to the *energy scale* (|KE| + |PE|), not the
    // total — a bound virialised system's total can sit near zero.
    let scale = start.kinetic.abs() + start.potential.abs();
    let energy_drift = (end.energy - start.energy).abs() / scale.max(1e-300);
    assert!(
        energy_drift <= sc.invariants.energy_rel,
        "{}: energy drift {energy_drift:.3e} exceeds band {:.1e} \
         (E {} -> {}, scale {scale})",
        sc.name,
        sc.invariants.energy_rel,
        start.energy,
        end.energy
    );

    // The SL-MPP5 limiter is dissipative: Σf² may shrink, never grow.
    let l2_growth = end.l2 / start.l2 - 1.0;
    assert!(
        l2_growth <= sc.invariants.l2_growth_rel,
        "{}: L2 norm grew by {l2_growth:.3e} (band {:.1e})",
        sc.name,
        sc.invariants.l2_growth_rel
    );

    // Positivity rides along for free with the monotone scheme.
    assert!(
        end.f_min >= 0.0,
        "{}: f went negative ({})",
        sc.name,
        end.f_min
    );
}

#[test]
fn landau_damping_holds_declared_invariants() {
    assert_invariants(&plasma::landau_damping());
}

#[test]
fn two_stream_holds_declared_invariants() {
    assert_invariants(&plasma::two_stream());
}

#[test]
fn bump_on_tail_holds_declared_invariants() {
    assert_invariants(&plasma::bump_on_tail());
}

#[test]
fn king_sphere_holds_declared_invariants() {
    assert_invariants(&king::king_sphere());
}

#[test]
fn king_merger_holds_declared_invariants() {
    assert_invariants(&king::king_merger());
}

#[test]
fn jeans_instability_holds_declared_invariants() {
    assert_invariants(&jeans::jeans_instability());
}

#[test]
fn jeans_damping_holds_declared_invariants() {
    assert_invariants(&jeans::jeans_damping());
}

/// The registry's scenario set is what the per-scenario tests above cover —
/// this fails if someone registers a new kinetic scenario without wiring it
/// into the conservation suite.
#[test]
fn conservation_suite_covers_the_whole_registry() {
    let covered = [
        "cosmological-neutrino",
        "landau-damping",
        "two-stream",
        "bump-on-tail",
        "king-sphere",
        "king-merger",
        "jeans-instability",
        "jeans-damping",
    ];
    for sc in ScenarioRegistry::builtin().iter() {
        assert!(
            covered.contains(&sc.name()),
            "scenario {:?} is registered but not in the conservation suite",
            sc.name()
        );
    }
}

/// The King merger's equal-and-opposite bulk velocities make the exact net
/// momentum zero; the symmetric grid must keep it there through the
/// collision.
#[test]
fn king_merger_conserves_zero_net_momentum() {
    let sc = king::king_merger();
    let mut sim = sc.build();
    let start = sim.diagnose(0.0);
    // Momentum scale: mass × bulk speed (0.1) of one sphere.
    let scale = start.mass * 0.1;
    for _ in 0..sc.invariants.steps {
        let d = sim.step();
        for (axis, p) in d.momentum.iter().enumerate() {
            assert!(
                p.abs() <= 1e-6 * scale,
                "step {}: net momentum[{axis}] = {p:.3e} (scale {scale:.3e})",
                d.step
            );
        }
    }
}

/// The cosmological registry entry: the hybrid driver's neutrino mass only
/// drains through the velocity-space boundary and must stay inside the
/// registry's declared band over its smoke run.
#[test]
fn cosmological_scenario_holds_registry_bands() {
    let reg = ScenarioRegistry::builtin();
    let sc = reg.get("cosmological-neutrino").expect("registered");
    let inv = sc.invariants();
    let config = match sc {
        Scenario::Cosmological(c) => c.clone(),
        _ => panic!("cosmological entry has the wrong variant"),
    };
    let mut sim = HybridSimulation::new(config);
    let mass0 = sim
        .neutrinos
        .as_ref()
        .expect("small_test runs neutrinos")
        .total_mass();
    let mut mass = mass0;
    for _ in 0..inv.steps {
        mass = sim.step().nu_mass;
    }
    let drift = (mass / mass0 - 1.0).abs();
    assert!(
        drift <= inv.mass_rel,
        "cosmological ν mass drift {drift:.3e} exceeds {:.1e}",
        inv.mass_rel
    );
}

/// Checkpoint/resume smoke for a plasma scenario: saving mid-run, stepping
/// on, then resuming and re-stepping must reproduce the phase space
/// bitwise — the cached force is a pure function of `(f, t)`.
#[test]
fn landau_checkpoint_resume_is_bitwise() {
    let root = temp_store("landau");
    let store = CheckpointStore::new(&root);
    let sc = plasma::landau_damping();
    let mut sim = sc.build();
    for _ in 0..5 {
        sim.step();
    }
    sim.save_checkpoint(&store).expect("checkpoint writes");
    for _ in 0..3 {
        sim.step();
    }

    let mut resumed = vlasov6d::KineticSimulation::resume(&sc, &store).expect("resume");
    assert_eq!(resumed.step_count(), 5);
    assert_eq!(resumed.time().to_bits(), {
        // The resumed clock must be the saved one, bit for bit.
        let mut probe = sc.build();
        for _ in 0..5 {
            probe.step();
        }
        probe.time().to_bits()
    });
    for _ in 0..3 {
        resumed.step();
    }

    assert_eq!(sim.time().to_bits(), resumed.time().to_bits());
    for (i, (a, b)) in sim
        .phase_space()
        .as_slice()
        .iter()
        .zip(resumed.phase_space().as_slice())
        .enumerate()
    {
        assert!(
            a.to_bits() == b.to_bits(),
            "resume diverged at flat index {i}: {a:?} vs {b:?}"
        );
    }
    std::fs::remove_dir_all(&root).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Mass and L2 monotonicity hold on arbitrary grid shapes — thin,
    /// ragged, non-power-of-two — not just the registered sizes. (5 steps:
    /// this sweeps shapes, the long-run bands are the per-scenario tests.)
    #[test]
    fn landau_invariants_hold_on_ragged_grids(
        nx in 6usize..14,
        ny in (0usize..4).prop_map(|i| [1usize, 3, 4, 5][i]),
        // Innermost spatial dim: the real-to-complex Poisson FFT requires
        // an even innermost length, so ragged-ness lives in nx/ny.
        nz in (0usize..2).prop_map(|i| [2usize, 4][i]),
        nv in (0usize..3).prop_map(|i| [16usize, 24, 32][i]),
    ) {
        let sc = plasma::landau_damping_with([nx, ny, nz], nv);
        let mut sim = sc.build();
        let start = sim.diagnose(0.0);
        prop_assert!(start.mass > 0.0);
        for _ in 0..5 {
            sim.step();
        }
        let end = sim.history().last().unwrap();
        let mass_drift = (end.mass / start.mass - 1.0).abs();
        prop_assert!(
            mass_drift <= 1e-6,
            "[{nx},{ny},{nz}]x{nv}: mass drift {mass_drift:.3e}"
        );
        prop_assert!(
            end.l2 <= start.l2 * (1.0 + 1e-6),
            "[{nx},{ny},{nz}]x{nv}: L2 grew {} -> {}",
            start.l2,
            end.l2
        );
        prop_assert!(end.f_min >= 0.0);
    }
}

/// Latent-assumption regression: the k-space filter used to assert cubic
/// grids; scenario spatial grids are ragged, so the identity filter must
/// round-trip a non-cubic field.
#[test]
fn kspace_filter_handles_non_cubic_grids() {
    use vlasov6d_mesh::Field3;
    let mut f = Field3::zeros([12, 6, 4]);
    for (i, v) in f.as_mut_slice().iter_mut().enumerate() {
        *v = (i as f64 * 0.37).sin();
    }
    let same = vlasov6d::fields::filter_kspace(&f, |_| 1.0);
    for (a, b) in f.as_slice().iter().zip(same.as_slice()) {
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
    }
}

/// Latent-assumption regression: the cosmological stepper clamps the scale
/// factor at `a = 1`; a static time axis has no such horizon, so a plasma
/// run must step straight through `t = 1` without the step collapsing.
#[test]
fn static_time_axis_runs_past_t_equals_one() {
    let sc = plasma::landau_damping_with([8, 4, 4], 16);
    let mut sim = sc.build();
    sim.run_to(1.2);
    assert!(
        sim.time() >= 1.2,
        "static axis stalled at t = {}",
        sim.time()
    );
    // No step may have collapsed near the crossing (the cosmological a = 1
    // cap leaking through would shrink steps to nothing as t → 1): the CFL
    // limits are slack here, so every step must take the full ceiling.
    for d in sim.history() {
        assert!(
            d.dt > 0.049,
            "step {} shrank to dt = {} near t = {}: the a=1 cap leaked",
            d.step,
            d.dt,
            d.t
        );
    }
}
