//! The electrostatic plasma scenario family: linear Landau damping,
//! two-stream and bump-on-tail, each shipping its analytic
//! dispersion-relation rate as the oracle.
//!
//! All three live on the periodic unit box with a static background and the
//! [`ForceLaw::Electrostatic`] coupling (`∇²φ = −ω_p² δρ`, unit mean
//! density). The expected rates are *solved at construction time* from the
//! same `super::dispersion` machinery the unit tests validate against
//! textbook benchmarks — nothing in the oracle chain is hard-coded to the
//! grid parameters.
//!
//! Velocity grids are deliberately thin transverse to the perturbed axis
//! (the dynamics is 1-D), which is what keeps these scenarios cheap enough
//! for per-commit CI. They run in lanes all the same ([`Exec::Simd`]): a
//! bundle is any eight lines that share a shift, so on `[nv, 4, 4]` the `x`
//! and `u_x` sweeps load packed and the four others gather — f32 lane
//! arithmetic throughout, judged by the dispersion oracles and invariant
//! bands below, with [`Exec::Scalar`] (f64 flux weights) kept as the oracle
//! kernel.

use std::sync::Arc;

use vlasov6d_advection::line::Scheme;
use vlasov6d_ic::kinetic::{load_plasma_beams, PlasmaBeam};
use vlasov6d_phase_space::{Exec, VelocityGrid};

use super::dispersion::{bump_on_tail_root, landau_root, two_stream_root, MaxwellianComponent};
use super::dynamics::{ForceLaw, TimeAxis};
use super::measure::{ProbeSpec, RateKind, RateOracle};
use super::{Family, GridSpec, InvariantBands, KineticScenario};

/// Linear Landau damping at the textbook operating point `kλ_D = 0.5`
/// (mode m = 1, so `k = 2π`; σ = 0.25 puts `ω_p = π`). The expected rate is
/// the least-damped Langmuir root of the kinetic dispersion relation,
/// `γ/ω_p ≈ −0.153`.
pub fn landau_damping() -> KineticScenario {
    landau_damping_with([16, 4, 4], 48)
}

/// The Landau scenario on an arbitrary spatial grid / velocity resolution —
/// the conservation property suite sweeps this over thin and ragged shapes.
pub fn landau_damping_with(sdims: [usize; 3], nv: usize) -> KineticScenario {
    let sigma = 0.25;
    let k = 2.0 * std::f64::consts::PI;
    let omega_p = std::f64::consts::PI; // kλ_D = k σ / ω_p = 0.5
    let coupling = omega_p * omega_p;
    let root = landau_root(k, coupling, sigma).expect("Landau root must converge");
    assert!(root.im < 0.0, "Landau root must be damped, got {root:?}");

    let beams = [PlasmaBeam {
        density: 1.0,
        drift: [0.0; 3],
        sigma,
    }];
    KineticScenario {
        name: "landau-damping",
        family: Family::Plasma,
        force: ForceLaw::Electrostatic { omega_p2: coupling },
        time: TimeAxis::Static,
        grid: GridSpec {
            sdims,
            vgrid: VelocityGrid::new([nv, 4, 4], 6.0 * sigma),
            scheme: Scheme::SlMpp5,
            exec: Exec::Simd,
        },
        max_step: 0.05,
        cfl_spatial: 0.9,
        init: Arc::new(move |ps| load_plasma_beams(ps, &beams, 0, 1, 0.02)),
        probe: ProbeSpec { axis: 0, mode: 1 },
        oracle: Some(RateOracle {
            kind: RateKind::Damping,
            expected: root.im,
            rel_tol: 0.2,
            window: (0.2, 4.0),
            t_end: 4.0,
        }),
        invariants: InvariantBands {
            mass_rel: 1e-6,
            energy_rel: 1e-3,
            l2_growth_rel: 1e-6,
            steps: 50,
        },
    }
}

/// The symmetric warm two-stream instability near the cold-beam maximum
/// growth point (`(k v₀)² = (3/8) ω_p²` gives `γ = ω_p/√8` cold; the warm
/// kinetic root is solved exactly).
pub fn two_stream() -> KineticScenario {
    two_stream_with([16, 4, 4], 64)
}

pub fn two_stream_with(sdims: [usize; 3], nv: usize) -> KineticScenario {
    let k = 2.0 * std::f64::consts::PI;
    let v0 = 0.2;
    let sigma = 0.04;
    // ω_p chosen so k v₀ sits at the cold maximum-growth point.
    let omega_p = k * v0 * (8.0f64 / 3.0).sqrt();
    let coupling = omega_p * omega_p;
    let root = two_stream_root(k, coupling, v0, sigma).expect("two-stream root must converge");
    assert!(root.im > 0.0, "two-stream root must grow, got {root:?}");

    let beams = [
        PlasmaBeam {
            density: 0.5,
            drift: [v0, 0.0, 0.0],
            sigma,
        },
        PlasmaBeam {
            density: 0.5,
            drift: [-v0, 0.0, 0.0],
            sigma,
        },
    ];
    let gamma = root.im;
    KineticScenario {
        name: "two-stream",
        family: Family::Plasma,
        force: ForceLaw::Electrostatic { omega_p2: coupling },
        time: TimeAxis::Static,
        grid: GridSpec {
            sdims,
            vgrid: VelocityGrid::new([nv, 4, 4], 0.4),
            scheme: Scheme::SlMpp5,
            exec: Exec::Simd,
        },
        max_step: 0.1,
        cfl_spatial: 0.9,
        init: Arc::new(move |ps| load_plasma_beams(ps, &beams, 0, 1, 1e-4)),
        probe: ProbeSpec { axis: 0, mode: 1 },
        oracle: Some(RateOracle {
            kind: RateKind::Growth,
            expected: gamma,
            rel_tol: 0.2,
            window: (2.0 / gamma, 6.0 / gamma),
            t_end: 6.0 / gamma,
        }),
        invariants: InvariantBands {
            mass_rel: 1e-5,
            energy_rel: 1e-3,
            l2_growth_rel: 1e-6,
            steps: 50,
        },
    }
}

/// The bump-on-tail (gentle-beam) instability: a warm core plus a 15% beam
/// drifting a few thermal speeds out, unstable where the beam's positive
/// slope sits at the wave's phase velocity.
pub fn bump_on_tail() -> KineticScenario {
    bump_on_tail_with([16, 4, 4], 64)
}

pub(crate) fn bump_on_tail_with(sdims: [usize; 3], nv: usize) -> KineticScenario {
    let k = 2.0 * std::f64::consts::PI;
    let sigma = 0.05;
    let v_beam = 0.3;
    let core = MaxwellianComponent {
        density: 0.85,
        drift: 0.0,
        sigma,
    };
    let beam = MaxwellianComponent {
        density: 0.15,
        drift: v_beam,
        sigma,
    };
    // Put the Langmuir phase velocity ω_p/k on the beam's rising slope.
    let omega_p = k * (v_beam - 1.2 * sigma);
    let coupling = omega_p * omega_p;
    let root = bump_on_tail_root(k, coupling, core, beam).expect("bump-on-tail root must converge");
    assert!(root.im > 0.0, "bump-on-tail root must grow, got {root:?}");

    let beams = [
        PlasmaBeam {
            density: core.density,
            drift: [core.drift, 0.0, 0.0],
            sigma,
        },
        PlasmaBeam {
            density: beam.density,
            drift: [beam.drift, 0.0, 0.0],
            sigma,
        },
    ];
    let gamma = root.im;
    KineticScenario {
        name: "bump-on-tail",
        family: Family::Plasma,
        force: ForceLaw::Electrostatic { omega_p2: coupling },
        time: TimeAxis::Static,
        grid: GridSpec {
            sdims,
            vgrid: VelocityGrid::new([nv, 4, 4], 0.5),
            scheme: Scheme::SlMpp5,
            exec: Exec::Simd,
        },
        max_step: 0.1,
        cfl_spatial: 0.9,
        init: Arc::new(move |ps| load_plasma_beams(ps, &beams, 0, 1, 1e-4)),
        probe: ProbeSpec { axis: 0, mode: 1 },
        oracle: Some(RateOracle {
            kind: RateKind::Growth,
            expected: gamma,
            rel_tol: 0.3,
            window: (2.0 / gamma, 6.0 / gamma),
            t_end: 6.0 / gamma,
        }),
        invariants: InvariantBands {
            mass_rel: 1e-5,
            energy_rel: 1e-3,
            l2_growth_rel: 1e-6,
            steps: 50,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn landau_oracle_matches_textbook_ratio() {
        let sc = landau_damping();
        let oracle = sc.oracle.unwrap();
        // γ/ω_p ≈ −0.15336 at kλ_D = 0.5, ω_p = π here.
        let ratio = oracle.expected / std::f64::consts::PI;
        assert!((ratio + 0.15336).abs() < 2e-3, "γ/ω_p = {ratio}");
    }

    #[test]
    fn two_stream_oracle_is_near_the_cold_maximum() {
        let sc = two_stream();
        let oracle = sc.oracle.unwrap();
        let omega_p = 2.0 * std::f64::consts::PI * 0.2 * (8.0f64 / 3.0).sqrt();
        let cold_max = omega_p / 8.0f64.sqrt();
        // Warm corrections reduce the rate but not by more than ~40%.
        assert!(oracle.expected > 0.6 * cold_max, "γ = {}", oracle.expected);
        assert!(oracle.expected < cold_max, "γ = {}", oracle.expected);
    }

    #[test]
    fn bump_on_tail_oracle_grows_fast_enough_to_measure() {
        let sc = bump_on_tail();
        let oracle = sc.oracle.unwrap();
        // The oracle run length is 6/γ; keep it tractable for CI.
        assert!(oracle.expected > 0.15, "γ = {}", oracle.expected);
        assert!(oracle.t_end < 45.0, "t_end = {}", oracle.t_end);
    }

    /// The two-stream engine's `kernel.shape`, pinned on any host: on its
    /// `[nv, 4, 4]` velocity grid bundle pairs run along `x` and `u_x`,
    /// strips with a shift per lane along `y` and `z`, gathers along `u_y`
    /// and `u_z`.
    #[test]
    fn two_stream_sweeps_run_strips_along_y_and_z() {
        let sim = two_stream().build();
        assert_eq!(
            sim.lane_shapes(),
            "x:packed16 y:mixed16 z:mixed16 ux:packed16 uy:gather16 uz:gather16"
        );
    }

    #[test]
    fn velocity_grids_resolve_the_thermal_scale() {
        for sc in [landau_damping(), two_stream(), bump_on_tail()] {
            let du = sc.grid.vgrid.du(0);
            // Every registered plasma scenario keeps ≥ 2.5 cells per σ.
            let sigma = match sc.name {
                "landau-damping" => 0.25,
                _ => 0.04,
            };
            assert!(sigma / du > 2.5, "{}: σ/Δu = {}", sc.name, sigma / du);
        }
    }
}
