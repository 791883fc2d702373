//! The kinetic Jeans pair: a self-gravitating Maxwellian on the periodic
//! box, one mode along x, static time axis — growing at `k = k_J/2` and
//! Landau-damped at `k = 3k_J/2`.
//!
//! The problem is the Landau problem with the coupling's sign flipped, and
//! `super::dispersion` solves both. [`ForceLaw::Gravity`] drops the mean
//! density from the source (the Jeans swindle), so these two entries judge
//! the gravity prefactor, its sign and the swindle against an exact rate —
//! the only rate oracle on a gravitating law. Grids, loader and probe are
//! the Landau scenario's; only the law and `σ`'s relation to `k` differ.

use std::sync::Arc;

use vlasov6d_advection::line::Scheme;
use vlasov6d_ic::kinetic::{load_plasma_beams, PlasmaBeam};
use vlasov6d_phase_space::{Exec, VelocityGrid};

use super::dispersion::jeans_root;
use super::dynamics::{ForceLaw, TimeAxis};
use super::measure::{ProbeSpec, RateKind, RateOracle};
use super::{Family, GridSpec, InvariantBands, KineticScenario};

/// Thermal spread of both entries.
const SIGMA: f64 = 0.25;

/// The Jeans instability at `k = k_J/2` (mode m = 1, `k = 2π`, so
/// `ω_J = 4πσ = π`): the purely growing root, `γ ≈ 0.69 ω_J`.
pub fn jeans_instability() -> KineticScenario {
    let k = 2.0 * std::f64::consts::PI;
    let coupling = (2.0 * k * SIGMA).powi(2);
    let root = jeans_root(k, coupling, SIGMA).expect("Jeans root must converge");
    assert!(root.im > 0.0, "k < k_J must grow, got {root:?}");
    let gamma = root.im;
    KineticScenario {
        name: "jeans-instability",
        oracle: Some(RateOracle {
            kind: RateKind::Growth,
            expected: gamma,
            rel_tol: 0.05,
            window: (2.0 / gamma, 6.0 / gamma),
            t_end: 6.0 / gamma,
        }),
        ..jeans_with(coupling, 1e-4)
    }
}

/// Gravitational Landau damping at `k = 3k_J/2`: the least-damped root is
/// purely damped (`Re ω = 0`), so the mode decays without oscillating and
/// its rate is the log-slope of the amplitude, not of an envelope.
pub fn jeans_damping() -> KineticScenario {
    let k = 2.0 * std::f64::consts::PI;
    let coupling = (k * SIGMA / 1.5).powi(2);
    let root = jeans_root(k, coupling, SIGMA).expect("Jeans root must converge");
    assert!(root.im < 0.0, "k > k_J must be damped, got {root:?}");
    let gamma = root.im;
    KineticScenario {
        name: "jeans-damping",
        oracle: Some(RateOracle {
            kind: RateKind::Growth,
            expected: gamma,
            rel_tol: 0.05,
            window: (1.0 / -gamma, 4.0 / -gamma),
            t_end: 4.0 / -gamma,
        }),
        ..jeans_with(coupling, 0.02)
    }
}

/// A Maxwellian of spread [`SIGMA`] perturbed by `amp · cos 2πx`, under
/// [`ForceLaw::Gravity`] with `coupling` (`ω_J² = coupling`).
fn jeans_with(coupling: f64, amp: f64) -> KineticScenario {
    let beams = [PlasmaBeam {
        density: 1.0,
        drift: [0.0; 3],
        sigma: SIGMA,
    }];
    KineticScenario {
        name: "jeans",
        family: Family::SelfGravitating,
        force: ForceLaw::Gravity { coupling },
        time: TimeAxis::Static,
        grid: GridSpec {
            sdims: [16, 4, 4],
            vgrid: VelocityGrid::new([48, 4, 4], 6.0 * SIGMA),
            scheme: Scheme::SlMpp5,
            exec: Exec::Simd,
        },
        max_step: 0.05,
        cfl_spatial: 0.9,
        init: Arc::new(move |ps| load_plasma_beams(ps, &beams, 0, 1, amp)),
        probe: ProbeSpec { axis: 0, mode: 1 },
        oracle: None,
        // Measured over the 50 steps: |Δm/m| ≤ 1.5e-8, |ΔE|/(|KE| + |PE|)
        // ≤ 2.2e-8, L2 shrinking by 1e-7 to 6e-7.
        invariants: InvariantBands {
            mass_rel: 1e-7,
            energy_rel: 1e-6,
            l2_growth_rel: 1e-6,
            steps: 50,
        },
    }
}
