//! Physics validation against closed-form solutions.

use vlasov6d::{HybridSimulation, SimulationConfig};
use vlasov6d_advection::line::Scheme;
use vlasov6d_cosmology::{Background, CosmologyParams, Growth};
use vlasov6d_phase_space::{moments, sweep, Exec, PhaseSpace, VelocityGrid};

/// Free streaming: with gravity off, `f(x,u,t) = f0(x - uD, u)` exactly; the
/// density wave of a Maxwellian plasma damps as `exp(-k²σ²D²/2)`.
#[test]
fn collisionless_damping_matches_analytic_rate() {
    let nx = 32;
    let nu = 16;
    let sigma = 0.06;
    let amp = 0.01;
    let vg = VelocityGrid::cubic(nu, 5.0 * sigma);
    let mut ps = PhaseSpace::zeros([nx, nx, nx], vg);
    let k = 2.0 * std::f64::consts::PI;
    ps.fill_with(|s, u| {
        let x = (s[0] as f64 + 0.5) / nx as f64;
        let g = (-(u[0] * u[0] + u[1] * u[1] + u[2] * u[2]) / (2.0 * sigma * sigma)).exp();
        (1.0 + amp * (k * x).cos()) * g
    });
    let amp_of = |ps: &PhaseSpace| {
        let rho = moments::density(ps);
        let mut acc = 0.0;
        for i in 0..nx {
            let x = (i as f64 + 0.5) / nx as f64;
            let mut line = 0.0;
            for j in 0..nx {
                for l in 0..nx {
                    line += rho.at(i, j, l);
                }
            }
            acc += line / (nx * nx) as f64 * (k * x).cos();
        }
        2.0 * acc / nx as f64
    };
    let a0 = amp_of(&ps);

    // Stream to D = 2.0 in 10 sub-steps.
    let dt = 0.2;
    for _ in 0..10 {
        for axis in 0..3 {
            let cfl: Vec<f64> = (0..nu)
                .map(|j| vg.center(axis, j) * dt * nx as f64)
                .collect();
            sweep::sweep_spatial(&mut ps, axis, &cfl, Scheme::SlMpp5, Exec::Simd);
        }
    }
    let d_total = 2.0;
    let expected = (-0.5 * (k * sigma * d_total) * (k * sigma * d_total)).exp();
    let measured = amp_of(&ps) / a0;
    assert!(
        (measured - expected).abs() < 0.05 * expected + 0.01,
        "damping: measured {measured}, analytic {expected}"
    );
}

/// Translation exactness: an integer total shift returns the distribution to
/// a lattice translate of itself, to f32 accuracy.
#[test]
fn free_streaming_integer_shift_is_exact() {
    let nx = 16;
    let vg = VelocityGrid::cubic(8, 1.0);
    let mut ps = PhaseSpace::zeros([nx, nx, nx], vg);
    ps.fill_with(|s, u| {
        ((s[0] * 3 + s[1] * 5 + s[2] * 7) % 11) as f64
            * 0.1
            * (-(u[0] * u[0] + u[1] * u[1] + u[2] * u[2])).exp()
            + 0.01
    });
    let orig = ps.clone();
    // Every velocity shifts by exactly cfl = velocity index - 3.5... choose a
    // uniform integer shift instead: cfl = 2 for all velocities.
    let cfl = vec![2.0; 8];
    sweep::sweep_spatial(&mut ps, 0, &cfl, Scheme::SlMpp5, Exec::Simd);
    for ix in 0..nx {
        let src = (ix + nx - 2) % nx;
        let a = ps.get([ix, 3, 4], [2, 5, 1]);
        let b = orig.get([src, 3, 4], [2, 5, 1]);
        assert!((a - b).abs() < 1e-6, "ix {ix}: {a} vs {b}");
    }
}

/// Linear growth: a CDM-only hybrid run must grow δ by D(a₂)/D(a₁).
#[test]
fn linear_growth_matches_growth_factor() {
    let mut config = SimulationConfig::small_test();
    config.with_neutrinos = false;
    config.cosmology = CosmologyParams {
        m_nu_total_ev: 0.0,
        ..CosmologyParams::planck2015()
    };
    config.n_cdm = 16;
    config.n_pm = 16;
    config.z_init = 20.0; // deeply linear
    config.seed = 31415;
    let mut sim = HybridSimulation::new(config);

    let contrast_rms = |sim: &HybridSimulation| {
        let f = sim.cdm_density().unwrap();
        let m = f.mean();
        (f.as_slice()
            .iter()
            .map(|v| (v / m - 1.0).powi(2))
            .sum::<f64>()
            / f.len() as f64)
            .sqrt()
    };
    let a1 = sim.a;
    let d1 = contrast_rms(&sim);
    sim.run_to_redshift(9.0, |_| {});
    let a2 = sim.a;
    let d2 = contrast_rms(&sim);

    let bg = Background::new(sim.config.cosmology);
    let growth = Growth::new(&bg);
    let expected_ratio = growth.d_relative(a2, a1);
    let measured_ratio = d2 / d1;
    assert!(
        (measured_ratio / expected_ratio - 1.0).abs() < 0.12,
        "growth: measured ×{measured_ratio:.3}, linear theory ×{expected_ratio:.3}"
    );
}

/// The joint system conserves total canonical momentum (Newton's third law
/// across the grid/particle coupling).
#[test]
fn hybrid_momentum_is_conserved() {
    let mut config = SimulationConfig::small_test();
    config.z_init = 5.0;
    let mut sim = HybridSimulation::new(config);
    let p0 = sim.total_momentum();
    sim.run_to_redshift(3.0, |_| {});
    sim.synchronize();
    let p1 = sim.total_momentum();
    // Scale: typical per-component momentum magnitude.
    let scale = sim.cdm.as_ref().unwrap().rms_speed() * sim.cdm.as_ref().unwrap().total_mass();
    for i in 0..3 {
        assert!(
            (p1[i] - p0[i]).abs() < 0.05 * scale.max(1e-6),
            "axis {i}: Δp = {} (scale {scale})",
            p1[i] - p0[i]
        );
    }
}

/// Cosmology cross-check: the hybrid clock agrees with the background age.
#[test]
fn simulation_clock_tracks_background() {
    let mut config = SimulationConfig::small_test();
    config.z_init = 6.0;
    let mut sim = HybridSimulation::new(config);
    let bg = Background::new(sim.config.cosmology);
    let t_start = bg.time_of_a(sim.a);
    sim.run_to_redshift(4.0, |_| {});
    let t_end = bg.time_of_a(sim.a);
    let dt_records: f64 = sim.records.iter().map(|r| r.dt).sum();
    // The background's t(a) table interpolation carries ~1e-5 relative error.
    assert!(
        (dt_records / (t_end - t_start) - 1.0).abs() < 1e-4,
        "Σdt = {dt_records}, background Δt = {}",
        t_end - t_start
    );
}

/// Static-universe self-gravitating Vlasov–Poisson: total energy
/// `E = ∫ f u²/2 + ½ ∫ δρ φ` is conserved by the Strang-split update.
#[test]
fn static_vlasov_poisson_conserves_energy() {
    use vlasov6d_poisson::PoissonSolver;

    let nx = 16;
    let nu = 16;
    let sigma = 0.06;
    let coupling = 0.4; // ∇²φ = coupling · δρ (attractive, Jeans-stable)
    let vg = VelocityGrid::cubic(nu, 5.0 * sigma);
    let mut ps = PhaseSpace::zeros([nx, nx, nx], vg);
    ps.fill_with(|s, u| {
        let x = (s[0] as f64 + 0.5) / nx as f64;
        let y = (s[1] as f64 + 0.5) / nx as f64;
        let g = (-(u[0] * u[0] + u[1] * u[1] + u[2] * u[2]) / (2.0 * sigma * sigma)).exp();
        (1.0 + 0.05 * (2.0 * std::f64::consts::PI * x).cos()
            + 0.03 * (2.0 * std::f64::consts::PI * y).sin())
            * g
    });
    let solver = PoissonSolver::cubic(nx);

    let energy = |ps: &PhaseSpace| -> f64 {
        // Kinetic: Σ f u²/2 Δu³ Δx³ — use the dispersion+bulk decomposition
        // through moments for an exact grid quadrature.
        let dv = ps.vgrid.cell_volume();
        let dx3 = 1.0 / (nx as f64).powi(3);
        let vg = ps.vgrid;
        let mut kinetic = 0.0;
        for ix in 0..nx {
            for iy in 0..nx {
                for iz in 0..nx {
                    let block = ps.velocity_block([ix, iy, iz]);
                    let mut idx = 0;
                    for iux in 0..nu {
                        let ux = vg.center(0, iux);
                        for iuy in 0..nu {
                            let uy = vg.center(1, iuy);
                            for iuz in 0..nu {
                                let uz = vg.center(2, iuz);
                                kinetic += block[idx] as f64 * 0.5 * (ux * ux + uy * uy + uz * uz);
                                idx += 1;
                            }
                        }
                    }
                }
            }
        }
        kinetic *= dv * dx3;
        // Potential: ½ ∫ δρ φ.
        let mut rho = moments::density(ps);
        let mean = rho.mean();
        for v in rho.as_mut_slice() {
            *v -= mean;
        }
        let phi = solver.solve(&rho, coupling);
        let pot: f64 = rho
            .as_slice()
            .iter()
            .zip(phi.as_slice())
            .map(|(d, p)| 0.5 * d * p)
            .sum::<f64>()
            * dx3;
        kinetic + pot
    };

    let e0 = energy(&ps);
    let dt = 0.04;
    for _ in 0..25 {
        // Strang: half kick, drift, half kick with refreshed field.
        let half_kick = |ps: &mut PhaseSpace| {
            let mut rho = moments::density(ps);
            let mean = rho.mean();
            for v in rho.as_mut_slice() {
                *v -= mean;
            }
            let phi = solver.solve(&rho, coupling);
            let force = PoissonSolver::force_from_potential(&phi);
            for d in 0..3 {
                let mut cfl = force[d].clone();
                cfl.scale(0.5 * dt / ps.vgrid.du(d));
                sweep::sweep_velocity(ps, d, &cfl, Scheme::SlMpp5, Exec::Simd);
            }
        };
        half_kick(&mut ps);
        for d in 0..3 {
            let cfl: Vec<f64> = (0..nu)
                .map(|j| ps.vgrid.center(d, j) * dt * nx as f64)
                .collect();
            sweep::sweep_spatial(&mut ps, d, &cfl, Scheme::SlMpp5, Exec::Simd);
        }
        half_kick(&mut ps);
    }
    let e1 = energy(&ps);
    assert!(
        ((e1 - e0) / e0).abs() < 0.01,
        "energy drifted: {e0} → {e1} ({:+.2}%)",
        100.0 * (e1 - e0) / e0
    );
    assert!(ps.min_value() >= 0.0);
}
