//! Simulation configuration.

use vlasov6d_advection::line::Scheme;
use vlasov6d_cosmology::CosmologyParams;
use vlasov6d_phase_space::Exec;

/// Full configuration of a hybrid run.
///
/// The paper's naming: a run has `N_x = nx³` Vlasov spatial cells,
/// `N_u = nu³` velocity cells, `N_CDM = n_cdm³` particles and an
/// `n_pm³` PM mesh (their production ratio is `n_pm = 3·nx`,
/// `n_cdm = 9·nx`; laptop-scale configs use gentler ratios).
#[derive(Debug, Clone)]
pub struct SimulationConfig {
    pub cosmology: CosmologyParams,
    /// Comoving box size \[Mpc/h\].
    pub box_mpc_h: f64,
    /// Vlasov spatial cells per dimension.
    pub nx: usize,
    /// Vlasov velocity cells per dimension.
    pub nu: usize,
    /// PM mesh cells per dimension.
    pub n_pm: usize,
    /// CDM particles per dimension.
    pub n_cdm: usize,
    /// Velocity-space half-width in units of the FD RMS speed.
    pub vmax_in_rms: f64,
    /// Starting redshift.
    pub z_init: f64,
    /// Maximum spatial CFL per step (must stay < 1 for distributed sweeps).
    pub cfl_spatial: f64,
    /// Maximum velocity-space CFL per (half-)step.
    pub cfl_velocity: f64,
    /// Maximum Δln a per step.
    pub max_dln_a: f64,
    /// Advection scheme (SL-MPP5 in production).
    pub scheme: Scheme,
    /// Kernel execution variant.
    pub exec: Exec,
    /// Random seed for the initial conditions.
    pub seed: u64,
    /// Include the neutrino component (false → pure CDM N-body run).
    pub with_neutrinos: bool,
    /// Include CDM particles (false → pure Vlasov run, used in tests).
    pub with_cdm: bool,
    /// Plummer softening in units of the mean CDM inter-particle spacing.
    pub softening_frac: f64,
    /// Checkpoint cadence in steps (0 disables checkpointing).
    pub checkpoint_every_steps: u64,
    /// Checkpoint generations to retain on disk (≥ 1 when checkpointing).
    pub checkpoint_keep: usize,
}

impl SimulationConfig {
    /// A seconds-scale smoke-test configuration.
    pub fn small_test() -> Self {
        Self {
            cosmology: CosmologyParams::planck2015(),
            box_mpc_h: 200.0,
            nx: 8,
            nu: 8,
            n_pm: 16,
            n_cdm: 16,
            vmax_in_rms: 3.0,
            z_init: 10.0,
            cfl_spatial: 0.45,
            cfl_velocity: 0.9,
            max_dln_a: 0.08,
            scheme: Scheme::SlMpp5,
            exec: Exec::Simd,
            seed: 12345,
            with_neutrinos: true,
            with_cdm: true,
            softening_frac: 0.04,
            checkpoint_every_steps: 0,
            checkpoint_keep: 2,
        }
    }

    /// A minutes-scale configuration comparable (in structure, not size) to
    /// the paper's S-group runs.
    pub fn laptop_s() -> Self {
        Self {
            nx: 16,
            nu: 16,
            n_pm: 32,
            n_cdm: 32,
            ..Self::small_test()
        }
    }

    /// Number of spatial Vlasov cells `N_x`.
    pub fn n_spatial(&self) -> usize {
        self.nx.pow(3)
    }

    /// Number of velocity cells `N_u`.
    pub fn n_velocity(&self) -> usize {
        self.nu.pow(3)
    }

    /// Total phase-space cells.
    pub fn n_phase_space(&self) -> usize {
        self.n_spatial() * self.n_velocity()
    }

    /// Number of CDM particles.
    pub fn n_particles(&self) -> usize {
        if self.with_cdm {
            self.n_cdm.pow(3)
        } else {
            0
        }
    }

    /// Plummer softening in box units.
    pub fn softening(&self) -> f64 {
        self.softening_frac / self.n_cdm as f64
    }

    /// Memory footprint of the distribution function in bytes (f32).
    pub fn phase_space_bytes(&self) -> usize {
        self.n_phase_space() * 4
    }

    /// The checkpoint cadence as a `vlasov6d-ckpt` policy
    /// (disabled when `checkpoint_every_steps` is 0).
    pub fn checkpoint_policy(&self) -> vlasov6d_ckpt::CheckpointPolicy {
        vlasov6d_ckpt::CheckpointPolicy {
            every_steps: self.checkpoint_every_steps,
            keep: self.checkpoint_keep.max(1),
            ..vlasov6d_ckpt::CheckpointPolicy::disabled()
        }
    }

    pub fn validate(&self) -> Result<(), String> {
        self.cosmology.validate()?;
        if self.nx < 4 || self.nu < 8 {
            return Err(format!(
                "grid too small: nx = {}, nu = {}",
                self.nx, self.nu
            ));
        }
        if !(0.0 < self.cfl_spatial && self.cfl_spatial < 1.0) {
            return Err(format!(
                "cfl_spatial must be in (0, 1), got {}",
                self.cfl_spatial
            ));
        }
        if self.z_init <= 0.0 {
            return Err("z_init must be positive".into());
        }
        if self.with_neutrinos && self.cosmology.m_nu_total_ev <= 0.0 {
            return Err("neutrino run needs a positive neutrino mass".into());
        }
        if !self.with_neutrinos && !self.with_cdm {
            return Err("nothing to simulate".into());
        }
        if self.checkpoint_every_steps > 0 && self.checkpoint_keep == 0 {
            return Err("checkpointing needs checkpoint_keep >= 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_test_is_valid() {
        assert!(SimulationConfig::small_test().validate().is_ok());
        assert!(SimulationConfig::laptop_s().validate().is_ok());
    }

    #[test]
    fn counts_are_consistent() {
        let c = SimulationConfig::small_test();
        assert_eq!(c.n_phase_space(), 8usize.pow(3) * 8usize.pow(3));
        assert_eq!(c.n_particles(), 16usize.pow(3));
        assert_eq!(c.phase_space_bytes(), c.n_phase_space() * 4);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = SimulationConfig::small_test();
        c.cfl_spatial = 1.5;
        assert!(c.validate().is_err());

        let mut c = SimulationConfig::small_test();
        c.with_neutrinos = false;
        c.with_cdm = false;
        assert!(c.validate().is_err());
    }

    /// No divisibility rule on `nu`: `Exec::resolve` picks lanes or the
    /// scalar task per axis, so any velocity resolution validates and steps
    /// under every `Exec`.
    #[test]
    fn any_nu_from_8_validates_and_steps() {
        for (nu, exec) in [(10, Exec::Simd), (12, Exec::Lat), (9, Exec::Scalar)] {
            let mut c = SimulationConfig::small_test();
            c.nu = nu;
            c.exec = exec;
            assert!(c.validate().is_ok(), "nu = {nu} under {exec:?}");
            let mut sim = crate::HybridSimulation::new(c);
            let record = sim.step();
            assert!(record.nu_mass.is_finite() && record.nu_mass > 0.0);
        }
        let mut c = SimulationConfig::small_test();
        c.nu = 7;
        assert!(c.validate().is_err());
    }
}
