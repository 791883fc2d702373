//! Analytic-rate oracle regressions: measured damping/growth rates of the
//! electrostatic plasma scenarios and the self-gravitating Jeans pair must
//! land inside the tolerance band of their kinetic dispersion-relation roots — and a deliberately wrong
//! expected rate must *fail*, proving the oracle has teeth.

use vlasov6d::scenario::{jeans, plasma};
use vlasov6d::{ForceLaw, ScenarioRegistry};

/// Linear Landau damping at `kλ_D = 0.5`: the measured envelope decay of
/// the probed density mode must match `Im ω` of the Landau root (the
/// classic `γ = −0.1533 ω_p` benchmark) within the scenario's band.
#[test]
fn landau_damping_rate_matches_dispersion() {
    let sc = plasma::landau_damping();
    let oracle = sc.oracle.expect("landau scenario declares an oracle");
    let mut sim = sc.build();
    let check = sim.measure_rate(&sc);
    assert!(
        check.measured.is_finite() && check.measured < 0.0,
        "expected a damped mode, measured {}",
        check.measured
    );
    assert!(
        check.passed(),
        "landau-damping: measured {:.5}, dispersion {:.5}, rel_tol {}",
        check.measured,
        check.expected,
        check.rel_tol
    );
    // The oracle rate is itself pinned to the published benchmark value.
    assert!(
        (oracle.expected / (std::f64::consts::PI) + 0.15336).abs() < 0.01,
        "dispersion root drifted: γ/ω_p = {}",
        oracle.expected / std::f64::consts::PI
    );
}

/// Warm two-stream instability at the cold-limit maximum-growth wavenumber:
/// the probed mode must grow at the dispersion root's `Im ω`.
#[test]
fn two_stream_growth_matches_dispersion() {
    let sc = plasma::two_stream();
    let mut sim = sc.build();
    let check = sim.measure_rate(&sc);
    assert!(
        check.measured.is_finite() && check.measured > 0.0,
        "expected a growing mode, measured {}",
        check.measured
    );
    assert!(
        check.passed(),
        "two-stream: measured {:.5}, dispersion {:.5}, rel_tol {}",
        check.measured,
        check.expected,
        check.rel_tol
    );
}

/// Negative control: the same Landau measurement judged against a 3×
/// perturbed rate must fail in both directions. A tolerance band loose
/// enough to swallow a 3× error would make the oracle suite vacuous.
#[test]
fn oracle_negative_control_fails_on_wrong_rate() {
    let sc = plasma::landau_damping();
    let mut sim = sc.build();
    let check = sim.measure_rate(&sc);
    assert!(check.passed(), "control must pass before perturbing");
    assert!(
        !check.with_expected(check.expected * 3.0).passed(),
        "oracle accepted a 3× too-fast rate"
    );
    assert!(
        !check.with_expected(check.expected / 3.0).passed(),
        "oracle accepted a 3× too-slow rate"
    );
}

/// Every registered scenario declares either a rate oracle or finite
/// conservation bands (the King family's "oracle" *is* its conservation
/// band) — nothing registers unchecked.
#[test]
fn every_registered_scenario_is_checked() {
    let reg = ScenarioRegistry::builtin();
    assert!(reg.len() >= 5, "registry shrank: {:?}", reg.names());
    for sc in reg.iter() {
        let inv = sc.invariants();
        let has_oracle = sc.as_kinetic().is_some_and(|k| k.oracle.is_some());
        assert!(
            has_oracle || (inv.mass_rel.is_finite() && inv.steps > 0),
            "{} declares neither an oracle nor conservation bands",
            sc.name()
        );
    }
}

/// The kinetic Jeans instability at `k = k_J/2` (the Landau problem with the
/// coupling's sign flipped): the probed mode must grow at the purely
/// imaginary root's `Im ω`.
#[test]
fn jeans_growth_matches_dispersion() {
    let sc = jeans::jeans_instability();
    let check = sc.build().measure_rate(&sc);
    assert!(
        check.passed() && check.measured > 0.0,
        "jeans-instability: measured {:.5}, dispersion {:.5}, rel_tol {}",
        check.measured,
        check.expected,
        check.rel_tol
    );
}

/// Gravitational Landau damping at `k = 3k_J/2`: the mode must decay at the
/// purely damped root's rate.
#[test]
fn jeans_damping_matches_dispersion() {
    let sc = jeans::jeans_damping();
    let check = sc.build().measure_rate(&sc);
    assert!(
        check.passed() && check.measured < 0.0,
        "jeans-damping: measured {:.5}, dispersion {:.5}, rel_tol {}",
        check.measured,
        check.expected,
        check.rel_tol
    );
}

/// Negative controls on the gravity prefactor: the same runs with the
/// coupling's sign flipped (gravity repelling: the Langmuir problem) or
/// doubled must fail each Jeans entry's oracle.
#[test]
fn jeans_oracles_fail_with_the_wrong_sign_or_twice_the_coupling() {
    for entry in [jeans::jeans_instability, jeans::jeans_damping] {
        for (control, factor) in [("flipped sign", -1.0), ("2x coupling", 2.0)] {
            let mut sc = entry();
            let ForceLaw::Gravity { coupling } = sc.force else {
                panic!("{}: a Jeans entry runs ForceLaw::Gravity", sc.name)
            };
            sc.force = ForceLaw::Gravity {
                coupling: factor * coupling,
            };
            let check = sc.build().measure_rate(&sc);
            assert!(
                !check.passed(),
                "{} with the {control}: measured {:.5} passed the oracle {:.5}",
                sc.name,
                check.measured,
                check.expected
            );
        }
    }
}
