//! The self-gravitating King-sphere family (Yoshikawa et al. 2013
//! validation problems): a stationary lowered-isothermal sphere held over
//! many dynamical times, and a two-sphere merger that must conserve mass,
//! energy and momentum through the collision.
//!
//! Both run the open-boundary [`ForceLaw::IsolatedGravity`] solve — the
//! sphere sits in vacuum, not in a periodic lattice of images — on a static
//! time axis. There is no linear-rate oracle here; the oracle *is* the
//! conservation band: a stationary equilibrium that drifts in energy or
//! grows in L2 is a solver bug.

use std::sync::Arc;

use vlasov6d_advection::line::Scheme;
use vlasov6d_ic::kinetic::{load_king_spheres, KingModel, KingSpherePlacement};
use vlasov6d_phase_space::{Exec, VelocityGrid};

use super::dynamics::{ForceLaw, TimeAxis};
use super::measure::ProbeSpec;
use super::{Family, GridSpec, InvariantBands, KineticScenario};

/// The stationary King sphere: `W₀ = 1` — a low-concentration sphere whose
/// core radius (`r_c ≈ 0.18`) spans a couple of grid cells, so the held
/// equilibrium is a resolution-honest statement, not a smoothing race. The
/// smoke run covers several central dynamical times (`t_dyn ≈ 0.41`).
pub fn king_sphere() -> KineticScenario {
    king_sphere_with([12, 12, 12], 8)
}

pub fn king_sphere_with(sdims: [usize; 3], nv: usize) -> KineticScenario {
    let model = KingModel::solve(1.0, 0.15, 6.0, 1.0);
    let coupling = model.coupling;
    // The cubic velocity grid covers the escape speed with margin; at the
    // registered `nv = 8` every bundle is packed or an 8×8 tile, the shapes
    // the thin plasma grids do not reach.
    let vmax = 1.2 * model.v_escape();
    let spheres = vec![KingSpherePlacement {
        center: [0.5; 3],
        bulk_velocity: [0.0; 3],
    }];
    KineticScenario {
        name: "king-sphere",
        family: Family::SelfGravitating,
        force: ForceLaw::IsolatedGravity { coupling },
        time: TimeAxis::Static,
        grid: GridSpec {
            sdims,
            vgrid: VelocityGrid::cubic(nv, vmax),
            scheme: Scheme::SlMpp5,
            exec: Exec::Simd,
        },
        max_step: 0.05,
        cfl_spatial: 0.9,
        init: Arc::new(move |ps| load_king_spheres(ps, &model, &spheres)),
        probe: ProbeSpec { axis: 0, mode: 1 },
        oracle: None,
        invariants: InvariantBands {
            mass_rel: 1e-4,
            // Resolution-limited: at 12³ spatial cells the monotone limiter
            // dissipates the sphere's fine velocity structure, and the energy
            // drift tracks that L2 loss (halving dt leaves it unchanged).
            // The band is the measured dissipation with headroom, not a
            // solver-error allowance.
            energy_rel: 0.12,
            l2_growth_rel: 1e-6,
            steps: 50,
        },
    }
}

/// Two equal King spheres on a head-on collision course. The interesting
/// invariants are global: total mass, total energy and — because the bulk
/// velocities are equal and opposite — exactly zero net momentum.
pub fn king_merger() -> KineticScenario {
    let model = KingModel::solve(1.0, 0.09, 10.0, 1.0);
    let coupling = model.coupling;
    let bulk = 0.1;
    let vmax = 1.2 * (model.v_escape() + bulk);
    let spheres = vec![
        KingSpherePlacement {
            center: [0.3, 0.5, 0.5],
            bulk_velocity: [bulk, 0.0, 0.0],
        },
        KingSpherePlacement {
            center: [0.7, 0.5, 0.5],
            bulk_velocity: [-bulk, 0.0, 0.0],
        },
    ];
    KineticScenario {
        name: "king-merger",
        family: Family::SelfGravitating,
        force: ForceLaw::IsolatedGravity { coupling },
        time: TimeAxis::Static,
        grid: GridSpec {
            sdims: [12, 12, 12],
            vgrid: VelocityGrid::cubic(8, vmax),
            scheme: Scheme::SlMpp5,
            exec: Exec::Simd,
        },
        max_step: 0.05,
        cfl_spatial: 0.9,
        init: Arc::new(move |ps| load_king_spheres(ps, &model, &spheres)),
        probe: ProbeSpec { axis: 0, mode: 1 },
        oracle: None,
        invariants: InvariantBands {
            mass_rel: 1e-4,
            // Like the sphere, dissipation-limited at this resolution; the
            // collision sharpens gradients, so the band is wider.
            energy_rel: 0.25,
            l2_growth_rel: 1e-6,
            steps: 30,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn king_sphere_fits_inside_box_and_velocity_grid() {
        let model = KingModel::solve(1.0, 0.15, 6.0, 1.0);
        assert!(
            model.r_tidal < 0.5,
            "r_t = {} overflows the box",
            model.r_tidal
        );
        // The core must span at least two cells of the default grid — the
        // "held equilibrium" claim is vacuous on an unresolved core.
        let r_core = (9.0 * 0.15f64.powi(2) / 6.0).sqrt();
        assert!(r_core * 12.0 > 2.0, "core {r_core} under-resolved");
        let sc = king_sphere();
        assert!(sc.grid.vgrid.vmax > model.v_escape());
    }

    #[test]
    fn merger_spheres_do_not_overlap_initially() {
        let model = KingModel::solve(1.0, 0.09, 10.0, 1.0);
        // Centres 0.4 apart, each truncated at r_t.
        assert!(2.0 * model.r_tidal < 0.4, "r_t = {}", model.r_tidal);
    }
}
