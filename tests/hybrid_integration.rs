//! End-to-end integration tests of the hybrid simulation.

use vlasov6d::{HybridSimulation, SimulationConfig};
use vlasov6d_ckpt::{Encoding, Record, RecordRef};
use vlasov6d_phase_space::moments;

fn fast_config() -> SimulationConfig {
    let mut c = SimulationConfig::small_test();
    c.z_init = 5.0;
    c.max_dln_a = 0.1;
    c
}

#[test]
fn multi_step_run_conserves_neutrino_mass_and_positivity() {
    let mut sim = HybridSimulation::new(fast_config());
    let m0 = sim.neutrinos.as_ref().unwrap().total_mass();
    sim.run_to_redshift(2.0, |_| {});
    assert!(
        sim.step_count >= 3,
        "expected several steps, got {}",
        sim.step_count
    );
    for rec in &sim.records {
        assert!(rec.f_min >= 0.0, "step {}: f_min = {}", rec.step, rec.f_min);
    }
    let m1 = sim.neutrinos.as_ref().unwrap().total_mass();
    // Mass leaves only through the velocity boundary; with a 3-RMS box the
    // leak stays at the permille level over a few expansion steps.
    assert!((m1 / m0 - 1.0).abs() < 5e-3, "ν mass {m0} → {m1}");
}

#[test]
fn gravity_grows_structure_in_both_components() {
    let mut sim = HybridSimulation::new(fast_config());
    let contrast = |f: &vlasov6d_mesh::Field3| {
        let m = f.mean();
        (f.as_slice()
            .iter()
            .map(|v| (v / m - 1.0).powi(2))
            .sum::<f64>()
            / f.len() as f64)
            .sqrt()
    };
    let cdm0 = contrast(&sim.cdm_density().unwrap());
    let nu0 = contrast(&sim.neutrino_density().unwrap());
    sim.run_to_redshift(1.5, |_| {});
    let cdm1 = contrast(&sim.cdm_density().unwrap());
    let nu1 = contrast(&sim.neutrino_density().unwrap());
    assert!(cdm1 > cdm0, "CDM contrast must grow: {cdm0} → {cdm1}");
    assert!(
        nu1 > nu0 * 0.5,
        "ν contrast should not collapse: {nu0} → {nu1}"
    );
    // Free streaming: neutrinos always cluster less than CDM.
    assert!(nu1 < cdm1, "ν ({nu1}) must cluster less than CDM ({cdm1})");
}

#[test]
fn velocity_dispersion_stays_near_fermi_dirac() {
    let mut sim = HybridSimulation::new(fast_config());
    let s2_initial = moments::velocity_dispersion(sim.neutrinos.as_ref().unwrap(), 1e-12).mean();
    sim.run_to_redshift(3.0, |_| {});
    let s2_final = moments::velocity_dispersion(sim.neutrinos.as_ref().unwrap(), 1e-12).mean();
    // Canonical velocities are conserved under free streaming; gravity only
    // perturbs them at the few-percent level over this interval.
    assert!(
        (s2_final / s2_initial - 1.0).abs() < 0.1,
        "σ²: {s2_initial} → {s2_final}"
    );
}

#[test]
fn snapshot_roundtrip_preserves_state() {
    let mut sim = HybridSimulation::new(fast_config());
    sim.step();
    let nu = sim.neutrinos.as_ref().unwrap();
    let cdm = sim.cdm.as_ref().unwrap();

    let nu_frame = RecordRef::PhaseSpace(nu).encode(Encoding::Raw);
    let cdm_frame = RecordRef::Particles(cdm).encode(Encoding::Raw);
    let Ok(Record::PhaseSpace(nu2)) = Record::decode(&nu_frame.bytes) else {
        panic!("phase-space frame did not decode to a phase space");
    };
    let Ok(Record::Particles(cdm2)) = Record::decode(&cdm_frame.bytes) else {
        panic!("particle frame did not decode to particles");
    };
    assert_eq!(nu2.as_slice(), nu.as_slice());
    assert_eq!(cdm2.pos, cdm.pos);
    assert_eq!(cdm2.vel, cdm.vel);
}

#[test]
fn heavier_neutrinos_cluster_more() {
    // The Fig. 4 effect, asserted quantitatively at small scale.
    let run = |m_nu: f64| {
        let mut c = fast_config();
        c.cosmology.m_nu_total_ev = m_nu;
        c.seed = 777;
        let mut sim = HybridSimulation::new(c);
        sim.run_to_redshift(2.0, |_| {});
        let rho = sim.neutrino_density().unwrap();
        let mean = rho.mean();
        let cdm = sim.cdm_density().unwrap();
        let cdm_mean = cdm.mean();
        let d_nu = (rho
            .as_slice()
            .iter()
            .map(|v| (v / mean - 1.0).powi(2))
            .sum::<f64>()
            / rho.len() as f64)
            .sqrt();
        let d_cdm = (cdm
            .as_slice()
            .iter()
            .map(|v| (v / cdm_mean - 1.0).powi(2))
            .sum::<f64>()
            / cdm.len() as f64)
            .sqrt();
        d_nu / d_cdm
    };
    let heavy = run(0.4);
    let light = run(0.2);
    assert!(
        heavy > light,
        "relative ν clustering: 0.4 eV → {heavy:.4}, 0.2 eV → {light:.4}"
    );
}

#[test]
fn records_are_monotone_in_scale_factor() {
    let mut sim = HybridSimulation::new(fast_config());
    sim.run_to_redshift(2.5, |_| {});
    let mut prev = 0.0;
    for rec in &sim.records {
        assert!(rec.a > prev, "a must increase monotonically");
        assert!(rec.dt > 0.0);
        prev = rec.a;
    }
    assert_eq!(sim.records.len(), sim.step_count);
}
