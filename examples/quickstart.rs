//! Quickstart: a small hybrid Vlasov/N-body run from z = 10 to z = 2.
//!
//! Demonstrates the whole public API surface in ~40 lines: configure,
//! construct (initial conditions are generated internally), evolve with a
//! per-step callback, inspect diagnostics and fields at the end.
//!
//! ```text
//! cargo run --release -p vlasov6d-suite --example quickstart
//! ```

use vlasov6d::{HybridSimulation, SimulationConfig};
use vlasov6d_phase_space::moments;

fn main() {
    let mut config = SimulationConfig::laptop_s();
    config.z_init = 10.0;
    println!(
        "hybrid run: {}³ spatial × {}³ velocity Vlasov cells (= {} phase-space cells),",
        config.nx,
        config.nu,
        vlasov6d_suite::human_count(config.n_phase_space() as f64)
    );
    println!(
        "            {}³ CDM particles, {}³ PM mesh, box {} Mpc/h, Mν = {} eV\n",
        config.n_cdm, config.n_pm, config.box_mpc_h, config.cosmology.m_nu_total_ev
    );

    let mut sim = HybridSimulation::new(config);
    println!(
        "{}",
        vlasov6d_suite::table_header(
            &["step", "z", "dt[1/H0]", "nu mass", "min f", "t_step[s]"],
            &[5, 7, 9, 10, 10, 9]
        )
    );
    sim.run_to_redshift(2.0, |s| {
        let r = s.records.last().unwrap();
        if r.step % 5 == 0 || s.redshift() <= 2.0 {
            println!(
                "{}",
                vlasov6d_suite::table_row(
                    &[
                        r.step.to_string(),
                        format!("{:.2}", r.redshift()),
                        format!("{:.4}", r.dt),
                        format!("{:.5}", r.nu_mass),
                        format!("{:.2e}", r.f_min),
                        format!("{:.2}", r.timers.total()),
                    ],
                    &[5, 7, 9, 10, 10, 9]
                )
            );
        }
    });

    // Final-state summary, with the last step's pending half kick applied
    // so the velocities are those at the final redshift.
    sim.synchronize();
    let nu_rho = sim.neutrino_density().expect("neutrinos enabled");
    let cdm_rho = sim.cdm_density().expect("CDM enabled");
    let nu_contrast = nu_rho.max_abs() / nu_rho.mean() - 1.0;
    let cdm_contrast = cdm_rho.max_abs() / cdm_rho.mean() - 1.0;
    println!("\nfinal state at z = {:.2}:", sim.redshift());
    println!("  CDM density contrast max δ = {cdm_contrast:.2}");
    println!("  ν   density contrast max δ = {nu_contrast:.3}");
    println!(
        "  ν/CDM clustering ratio      = {:.3}  (≪ 1: free streaming suppresses ν clustering)",
        nu_contrast / cdm_contrast
    );
    let sigma = moments::velocity_dispersion(sim.neutrinos.as_ref().unwrap(), 1e-12);
    println!(
        "  mean ν velocity dispersion  = {:.1} km/s",
        sim.units.code_to_kms(sigma.mean().sqrt())
    );
    let timings = vlasov6d::diagnostics::RunTimings::accumulate(&sim.records);
    let per = timings.per_step();
    println!(
        "\ntimings per step: vlasov {:.2}s ({:.0}%), tree {:.2}s, pm {:.2}s  ({} steps)",
        per.vlasov,
        100.0 * per.vlasov / per.total().max(1e-12),
        per.tree,
        per.pm,
        timings.steps
    );
}
