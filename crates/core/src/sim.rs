//! The coupled hybrid driver — a façade over the shared stepper
//! (`strang.rs`) that contributes the TreePM + PM-mesh gravity solve
//! and the CDM particles.
//!
//! One step from `a₁` to `a₂` follows the paper's Eq. (5) for the neutrinos —
//! velocity half-sweeps, spatial full sweeps, velocity half-sweeps — run in
//! lockstep with a KDK leapfrog for the CDM particles, with **one** shared
//! gravity solve per step (forces are cached across the step boundary):
//!
//! ```text
//! ν:   Dux(K₁) Duy(K₁) Duz(K₁) · Dx(D) Dy(D) Dz(D) · Dux(K₂) Duy(K₂) Duz(K₂)
//! CDM: kick(K₁)                 · drift(D)          · kick(K₂)
//!                                 ↑ gravity recomputed here (positions at a₂)
//! ```
//!
//! `D = ∫dt/a²` and `K = ∫dt` are the exact background integrals, so both
//! components see identical drift/kick phases.

use crate::config::SimulationConfig;
use crate::diagnostics::{dt_metrics, kernel_isa_metric, kernel_shape_metric, StepRecord};
use crate::fields;
use crate::scenario::dynamics::{FieldSolver, ForceLaw, TimeAxis};
use crate::strang;
use vlasov6d_ckpt::{CheckpointStore, CkptError, CkptStats};
use vlasov6d_cosmology::{Background, FermiDirac, Growth, PowerSpectrum, TransferFunction, Units};
use vlasov6d_ic::{load_neutrino_phase_space, GaussianField, ZeldovichIc};
use vlasov6d_mesh::Field3;
use vlasov6d_nbody::integrator;
use vlasov6d_nbody::{ParticleSet, TreePm, WalkStats};
use vlasov6d_obs::{span, Bucket, MetricValue, StepScope};
use vlasov6d_phase_space::{moments, PhaseSpace, VelocityGrid};
use vlasov6d_poisson::PoissonSolver;

/// The coupled Vlasov/N-body simulation state.
pub struct HybridSimulation {
    pub config: SimulationConfig,
    pub background: Background,
    pub units: Units,
    /// Current scale factor.
    pub a: f64,
    pub step_count: usize,
    /// The neutrino distribution function (if enabled).
    pub neutrinos: Option<PhaseSpace>,
    /// The CDM particles (if enabled).
    pub cdm: Option<ParticleSet>,
    /// Per-step records.
    pub records: Vec<StepRecord>,
    treepm: TreePm,
    /// The ν's untapered, CIC-deconvolved comoving-gravity solve.
    full_solver: FieldSolver<PoissonSolver>,
    /// Cached CDM accelerations (canonical du/dt) at the current positions.
    cdm_accel: Vec<[f64; 3]>,
    /// Counts of the tree walk behind `cdm_accel`.
    tree_walk: WalkStats,
    /// Cached force fields -∂φ/∂x at Vlasov cell centres.
    nu_force: Option<[Field3; 3]>,
    /// FD thermal velocity in code units.
    pub u_thermal_code: f64,
}

impl HybridSimulation {
    /// Build the simulation: background, initial conditions, first forces.
    pub fn new(config: SimulationConfig) -> Self {
        config.validate().expect("invalid configuration");
        let background = Background::new(config.cosmology);
        let units = Units::new(config.box_mpc_h, config.cosmology.h);
        let a_init = 1.0 / (1.0 + config.z_init);

        // Linear density field at z = 0, scaled back to the start.
        let ps_lin = PowerSpectrum::new(config.cosmology, TransferFunction::EisensteinHu);
        let growth = Growth::new(&background);
        let d_ratio = growth.d_relative(a_init, 1.0);
        let box_l = config.box_mpc_h;
        let p_code = move |k_code: f64| {
            let k_h_mpc = k_code / box_l;
            ps_lin.power(k_h_mpc) / box_l.powi(3) * d_ratio * d_ratio
        };
        let delta_pm = GaussianField::new(config.n_pm, config.seed).generate(p_code);

        // CDM: Zel'dovich-displaced lattice.
        let omega_nu = if config.with_neutrinos {
            config.cosmology.omega_nu()
        } else {
            0.0
        };
        let cdm = config.with_cdm.then(|| {
            let zel = ZeldovichIc::new(delta_pm.clone());
            zel.load_particles(
                config.n_cdm,
                config.cosmology.omega_m - omega_nu,
                &background,
                a_init,
            )
        });

        // Neutrinos: linear FD load with free-streaming-suppressed contrast
        // and Zel'dovich bulk flow.
        let (neutrinos, u_thermal_code) = if config.with_neutrinos {
            let fd = FermiDirac::new(config.cosmology.m_nu_ev());
            let ut = fd.u_thermal_kms / units.velocity_unit_kms();
            let vmax = config.vmax_in_rms * fd.rms_speed() / units.velocity_unit_kms();
            let vgrid = VelocityGrid::cubic(config.nu, vmax);
            let mut ps = PhaseSpace::zeros([config.nx; 3], vgrid);

            // δ_ν(k) ≈ δ_m(k) / (1 + (k/k_fs)²) — linear free streaming.
            let ps_for_kfs = PowerSpectrum::new(config.cosmology, TransferFunction::EisensteinHu);
            let kfs_code = ps_for_kfs.k_free_streaming() * config.box_mpc_h;
            let delta_nu_pm =
                fields::filter_kspace(&delta_pm, |k| 1.0 / (1.0 + (k / kfs_code).powi(2)));
            let delta_nu = fields::sample_at_coarse_centers(&delta_nu_pm, [config.nx; 3]);

            let zel_nu = ZeldovichIc::new(fields::sample_at_coarse_centers(
                &delta_nu_pm,
                [config.nx; 3],
            ));
            let vel_factor =
                a_init * a_init * background.hubble(a_init) * growth.growth_rate(a_init);
            let bulk = [
                scaled(&zel_nu.psi[0], vel_factor),
                scaled(&zel_nu.psi[1], vel_factor),
                scaled(&zel_nu.psi[2], vel_factor),
            ];
            load_neutrino_phase_space(
                &mut ps,
                ut,
                config.cosmology.omega_nu(),
                &delta_nu,
                Some(&bulk),
            );
            (Some(ps), ut)
        } else {
            (None, 0.0)
        };

        let treepm = TreePm::new(config.n_pm, config.softening());
        let full_solver = FieldSolver::new(ForceLaw::CosmologicalGravity, [config.n_pm; 3], |g| {
            PoissonSolver::new(g).with_cic_deconvolution()
        });

        let mut sim = Self {
            config,
            background,
            units,
            a: a_init,
            step_count: 0,
            neutrinos,
            cdm,
            records: Vec::new(),
            treepm,
            full_solver,
            cdm_accel: Vec::new(),
            tree_walk: WalkStats::default(),
            nu_force: None,
            u_thermal_code,
        };
        sim.compute_gravity();
        sim
    }

    /// Current redshift.
    pub fn redshift(&self) -> f64 {
        1.0 / self.a - 1.0
    }

    /// Total comoving matter density on the PM mesh (ρ_crit units).
    pub fn total_density_pm(&self) -> Field3 {
        let mut rho = Field3::zeros([self.config.n_pm; 3]);
        if let Some(cdm) = &self.cdm {
            rho.axpy(
                1.0,
                &fields::particle_density(&cdm.pos, cdm.mass, rho.dims()),
            );
        }
        if let Some(nu) = &self.neutrinos {
            let rho_nu = moments::density(nu);
            rho.axpy(1.0, &fields::deposit_density_to_pm(&rho_nu, rho.dims()));
        }
        rho
    }

    /// Neutrino comoving density on the Vlasov spatial grid.
    pub fn neutrino_density(&self) -> Option<Field3> {
        self.neutrinos.as_ref().map(moments::density)
    }

    /// CDM comoving density on the Vlasov spatial grid (for comparisons).
    pub fn cdm_density(&self) -> Option<Field3> {
        self.cdm
            .as_ref()
            .map(|c| fields::particle_density(&c.pos, c.mass, [self.config.nx; 3]))
    }

    /// Recompute the shared gravity: CDM TreePM accelerations and the force
    /// fields driving the ν velocity sweeps. Timing is recorded through the
    /// span layer when the caller runs under a `StepScope`.
    fn compute_gravity(&mut self) {
        let rho_nu_pm = {
            let _s = span!("gravity.nu_deposit", Bucket::Pm);
            self.neutrinos.as_ref().map(|nu| {
                let rho = moments::density(nu);
                fields::deposit_density_to_pm(&rho, [self.config.n_pm; 3])
            })
        };

        // CDM: TreePM with the ν density sharing the mesh. The total density
        // deposited here is also the ν solve's right-hand side.
        let mut rho_total = rho_nu_pm;
        if let Some(cdm) = &self.cdm {
            let mut acc = {
                let _s = span!("gravity.cdm.pm", Bucket::Pm);
                let mut rho = self.treepm.deposit_density(cdm);
                if let Some(nu) = &rho_total {
                    rho.axpy(1.0, nu);
                }
                let phi_long = self.treepm.long_range_potential(&rho, self.a);
                rho_total = Some(rho);
                self.treepm.pm_accelerations(&phi_long, &cdm.pos)
            };

            {
                let _s = span!("gravity.cdm.tree", Bucket::Tree);
                let (tree_acc, walk) = self.treepm.tree_accelerations_counted(cdm, self.a);
                self.tree_walk = walk;
                for (a, t) in acc.iter_mut().zip(&tree_acc) {
                    for i in 0..3 {
                        a[i] += t[i];
                    }
                }
            }
            self.cdm_accel = acc;
        }

        // ν: full (untapered) potential for the velocity sweeps.
        if self.neutrinos.is_some() {
            let _s = span!("gravity.nu.pm", Bucket::Pm);
            let mut rho = rho_total.expect("ν density deposited above");
            let phi = self.full_solver.potential(&mut rho, self.a);
            let force_pm = PoissonSolver::force_from_potential(&phi);
            self.nu_force = Some([
                fields::sample_at_coarse_centers(&force_pm[0], [self.config.nx; 3]),
                fields::sample_at_coarse_centers(&force_pm[1], [self.config.nx; 3]),
                fields::sample_at_coarse_centers(&force_pm[2], [self.config.nx; 3]),
            ]);
        }
    }

    /// The step policy this configuration asks of the shared stepper.
    fn policy(&self) -> strang::Policy {
        strang::Policy {
            time: TimeAxis::Expanding,
            scheme: self.config.scheme,
            exec: self.config.exec,
            cfl_spatial: self.config.cfl_spatial,
            cfl_velocity: self.config.cfl_velocity,
            max_step: self.config.max_dln_a,
        }
    }

    /// Advance one full Strang-split step. Returns the record.
    pub fn step(&mut self) -> &StepRecord {
        let scope = StepScope::begin(self.step_count as u64 + 1);
        let (policy, a1) = (self.policy(), self.a);
        let interval = strang::step(self, &policy, a1);

        self.step_count += 1;
        let (nu_mass, f_min, momentum) = {
            let _s = span!("diagnostics", Bucket::Other);
            let nu = self.neutrinos.as_ref().map(moments::step_sums);
            (
                nu.map_or(0.0, |s| s.mass),
                nu.map_or(0.0, |s| s.min),
                self.momentum_with(nu),
            )
        };
        let spans = scope.finish();
        // The step's one gravity solve ran under `gravity.cdm.tree`: these
        // over that span's seconds are the tree's interactions/s.
        let mut metrics = Vec::new();
        if self.records.is_empty() {
            metrics.push(kernel_isa_metric());
            if let Some(ps) = &self.neutrinos {
                let (scheme, exec) = (self.config.scheme, self.config.exec);
                metrics.push(kernel_shape_metric(ps, scheme, exec, false));
            }
        }
        metrics.extend(dt_metrics(interval.limiter.name(), interval.halvings));
        if self.cdm.is_some() {
            metrics.push((
                "nbody.tree.groups".to_string(),
                MetricValue::Counter(self.tree_walk.groups),
            ));
            metrics.push((
                "nbody.tree.interactions".to_string(),
                MetricValue::Counter(self.tree_walk.interactions),
            ));
        }
        self.records.push(StepRecord {
            step: self.step_count,
            a: self.a,
            dt: interval.dt,
            timers: spans.buckets,
            spans: spans.roots,
            metrics,
            nu_mass,
            f_min,
            momentum,
        });
        self.records.last().unwrap()
    }

    /// Total canonical momentum: CDM `m Σu` plus the ν momentum integral.
    pub fn total_momentum(&self) -> [f64; 3] {
        self.momentum_with(self.neutrinos.as_ref().map(moments::step_sums))
    }

    /// CDM momentum plus the ν momentum of an already made reduction pass.
    fn momentum_with(&self, nu: Option<moments::StepSums>) -> [f64; 3] {
        let mut total = nu.map_or([0.0; 3], |s| s.momentum);
        if let Some(cdm) = &self.cdm {
            let p = cdm.total_momentum();
            for i in 0..3 {
                total[i] += p[i];
            }
        }
        total
    }

    /// Write a checkpoint of the full hybrid state (serial driver: one
    /// implicit rank) using the config's checkpoint policy for codec and
    /// retention.
    pub fn save_checkpoint(&self, store: &CheckpointStore) -> Result<CkptStats, CkptError> {
        let policy = self.config.checkpoint_policy();
        let state = strang::sim_state(
            &self.policy(),
            self.step_count as u64,
            0,
            self.a,
            self.config.cosmology.omega_nu(),
        );
        // Both halves of the cached gravity ride along, so a restore
        // continues bit for bit instead of re-solving.
        let records = strang::records(
            self.neutrinos.as_ref(),
            self.nu_force.as_ref(),
            &state,
            self.cdm.as_ref().map(|cdm| (cdm, &self.cdm_accel[..])),
        );
        store.write_serial(
            self.step_count as u64,
            self.a,
            &records,
            policy.encoding,
            policy.keep,
        )
    }

    /// Checkpoint iff the config's cadence is due after the last completed
    /// step; returns `None` when not due (or checkpointing is disabled).
    pub fn maybe_checkpoint(
        &self,
        store: &CheckpointStore,
    ) -> Option<Result<CkptStats, CkptError>> {
        self.config
            .checkpoint_policy()
            .due(self.step_count as u64)
            .then(|| self.save_checkpoint(store))
    }

    /// Restore state from the newest intact generation in `store`, cached
    /// gravity included, so the next step equals the uninterrupted run's bit
    /// for bit. Returns the restored step count. On error the simulation is
    /// left as it was.
    ///
    /// The simulation must have been built with the same configuration that
    /// wrote the checkpoint (the store only holds evolving state, not the
    /// grids or cosmology).
    pub fn restore_checkpoint(&mut self, store: &CheckpointStore) -> Result<u64, CkptError> {
        let saved = strang::restore(store.load_serial()?, false)?;
        if let Some(nu) = saved.ps {
            self.neutrinos = Some(nu);
        }
        if let Some(cdm) = saved.particles {
            self.cdm = Some(cdm);
        }
        self.a = saved.state.a;
        self.step_count = saved.state.step as usize;
        self.records.truncate(self.step_count);
        // The saved gravity of each component present; a generation that
        // lacks either (written by an older build) re-solves both.
        let n_cdm = self.cdm.as_ref().map_or(0, |c| c.len());
        let accel = saved.cdm_accel.filter(|a| a.len() == n_cdm);
        let complete =
            (saved.force.is_some() || self.neutrinos.is_none()) && (accel.is_some() || n_cdm == 0);
        if complete {
            self.nu_force = saved.force;
            self.cdm_accel = accel.unwrap_or_default();
        } else {
            self.compute_gravity();
        }
        Ok(saved.state.step)
    }

    /// Run until redshift `z_final`, invoking `callback` after every step.
    pub fn run_to_redshift<F: FnMut(&HybridSimulation)>(&mut self, z_final: f64, mut callback: F) {
        let a_final = 1.0 / (1.0 + z_final);
        while self.a < a_final - 1e-9 {
            self.step();
            callback(self);
            if self.step_count > 100_000 {
                panic!("runaway step count — check the Δt controller");
            }
        }
    }
}

fn scaled(f: &Field3, s: f64) -> Field3 {
    let mut out = f.clone();
    out.scale(s);
    out
}

/// What the hybrid run contributes to the shared step: the TreePM + PM-mesh
/// gravity solve and the CDM particles riding along as the companion species.
impl strang::Driver for HybridSimulation {
    fn background(&self) -> &Background {
        &self.background
    }

    fn vlasov(&mut self) -> Option<(&mut PhaseSpace, Option<&[Field3; 3]>)> {
        let force = self.nu_force.as_ref();
        self.neutrinos.as_mut().map(|nu| (nu, force))
    }

    fn solve(&mut self, a: f64) {
        self.a = a;
        self.compute_gravity();
    }

    fn kick_companion(&mut self, kick: f64) {
        if let (Some(cdm), false) = (&mut self.cdm, self.cdm_accel.is_empty()) {
            let _s = span!("kick.cdm", Bucket::Other);
            integrator::kick(cdm, &self.cdm_accel, kick);
        }
    }

    fn drift_companion(&mut self, drift: f64) {
        if let Some(cdm) = &mut self.cdm {
            let _s = span!("drift.cdm", Bucket::Other);
            integrator::drift(cdm, drift);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> SimulationConfig {
        SimulationConfig {
            z_init: 4.0,
            ..SimulationConfig::small_test()
        }
    }

    #[test]
    fn construction_initialises_both_components() {
        let sim = HybridSimulation::new(tiny_config());
        assert!(sim.neutrinos.is_some());
        assert!(sim.cdm.is_some());
        assert!(!sim.cdm_accel.is_empty());
        assert!(sim.nu_force.is_some());
        assert!((sim.redshift() - 4.0).abs() < 1e-9);
        // Neutrino mass on the grid ≈ Ω_ν.
        let m = sim.neutrinos.as_ref().unwrap().total_mass();
        let onu = sim.config.cosmology.omega_nu();
        assert!((m / onu - 1.0).abs() < 1e-3, "ν mass {m} vs Ω_ν {onu}");
    }

    #[test]
    fn one_cdm_deposit_serves_both_solves() {
        // The tapered (CDM) and the full (ν) solve share one deposited
        // density. Rebuild the ν force the way it used to be built — from a
        // second CIC deposit of the same particles — and find the same bits.
        let sim = HybridSimulation::new(tiny_config());
        let (cdm, nu) = (sim.cdm.as_ref().unwrap(), sim.neutrinos.as_ref().unwrap());
        let pm = [sim.config.n_pm; 3];
        assert_eq!(
            sim.treepm.deposit_density(cdm).as_slice(),
            fields::particle_density(&cdm.pos, cdm.mass, pm).as_slice()
        );
        let mut rho = Field3::zeros(pm);
        rho.axpy(1.0, &fields::particle_density(&cdm.pos, cdm.mass, pm));
        rho.axpy(
            1.0,
            &fields::deposit_density_to_pm(&moments::density(nu), pm),
        );
        let phi = sim.full_solver.potential(&mut rho, sim.a);
        let force_pm = PoissonSolver::force_from_potential(&phi);
        let cached = sim.nu_force.as_ref().unwrap();
        for axis in 0..3 {
            let twice = fields::sample_at_coarse_centers(&force_pm[axis], [sim.config.nx; 3]);
            assert_eq!(twice.as_slice(), cached[axis].as_slice(), "axis {axis}");
        }
    }

    #[test]
    fn step_records_the_tree_walk_counts() {
        let mut sim = HybridSimulation::new(tiny_config());
        let rec = sim.step().clone();
        let count = |name: &str| match rec.metrics.iter().find(|(n, _)| n == name) {
            Some((_, MetricValue::Counter(n))) => *n,
            other => panic!("{name}: {other:?}"),
        };
        let n_cdm = sim.cdm.as_ref().unwrap().len() as u64;
        assert!(count("nbody.tree.groups") >= 1);
        // Every particle meets at least its own cell's leaf.
        assert!(count("nbody.tree.interactions") >= 8 * n_cdm);
        // The counts ride the JSONL event next to the span that timed them.
        let event = rec.to_event(0);
        assert!(event.to_jsonl().contains("nbody.tree.interactions"));
        assert!(event.to_jsonl().contains("kernel.isa"));
        assert!(rec
            .spans
            .iter()
            .any(|s| s.find("gravity.cdm.tree").is_some()));

        let mut nu_only = HybridSimulation::new(SimulationConfig {
            with_cdm: false,
            ..tiny_config()
        });
        // Without CDM there is no walk to count: the run's first record
        // carries the two kernel labels and the Δt controller's answer, later
        // ones the controller's answer alone.
        let first = nu_only.step().metrics.clone();
        assert!(
            matches!(first.as_slice(), [(name, MetricValue::Text(isa)), (shape, MetricValue::Text(axes)), _, _]
                if name == "kernel.isa" && ["avx512f", "avx2", "baseline"].contains(&isa.as_str())
                    && shape == "kernel.shape"
                    && axes == "x:packed16 y:packed8 z:tile8 ux:packed16 uy:packed16 uz:gather16"),
            "{first:?}"
        );
        let later = nu_only.step().metrics.clone();
        assert!(
            matches!(later.as_slice(), [(limiter, MetricValue::Text(by)), (halvings, MetricValue::Counter(_))]
                if limiter == "dt.limiter" && ["max_step", "spatial", "velocity"].contains(&by.as_str())
                    && halvings == "dt.halvings"),
            "{later:?}"
        );
        assert_eq!((&*first[2].0, &*first[3].0), ("dt.limiter", "dt.halvings"));
    }

    #[test]
    fn single_step_advances_and_conserves() {
        let mut sim = HybridSimulation::new(tiny_config());
        let m0 = sim.neutrinos.as_ref().unwrap().total_mass();
        let rec = sim.step().clone();
        assert!(rec.a > 1.0 / 5.0);
        assert!(rec.f_min >= 0.0, "SL-MPP5 must keep f ≥ 0: {}", rec.f_min);
        // ν mass can only drain through the velocity boundary — tiny for a
        // well-sized velocity box.
        assert!(
            (rec.nu_mass / m0 - 1.0).abs() < 1e-3,
            "ν mass {m0} → {}",
            rec.nu_mass
        );
        assert_eq!(sim.step_count, 1);
    }

    #[test]
    fn several_steps_stay_stable() {
        let mut sim = HybridSimulation::new(tiny_config());
        for _ in 0..5 {
            sim.step();
        }
        let rec = sim.records.last().unwrap();
        assert!(rec.a > 0.2 && rec.a <= 1.0);
        assert!(rec.f_min >= 0.0);
        // Momentum stays near zero (isotropic ICs, opposite kicks cancel).
        let p_scale = sim.neutrinos.as_ref().unwrap().vgrid.vmax * sim.config.cosmology.omega_nu();
        for c in rec.momentum {
            assert!(c.abs() < 0.05 * p_scale, "momentum {c} vs scale {p_scale}");
        }
    }

    #[test]
    fn pure_vlasov_run_works() {
        let mut cfg = tiny_config();
        cfg.with_cdm = false;
        let mut sim = HybridSimulation::new(cfg);
        assert!(sim.cdm.is_none());
        sim.step();
        assert!(sim.records[0].f_min >= 0.0);
    }

    /// A poisoned field must not report a clean minimum: every caller's
    /// `f_min >= 0` gate has to fail on it.
    #[test]
    fn a_nan_in_f_reaches_the_step_record() {
        let mut cfg = tiny_config();
        cfg.with_cdm = false;
        let mut sim = HybridSimulation::new(cfg);
        sim.neutrinos
            .as_mut()
            .unwrap()
            .set([1, 2, 3], [3, 2, 1], f32::NAN);
        let rec = sim.step();
        assert!(rec.f_min.is_nan(), "f_min = {}", rec.f_min);
    }

    #[test]
    fn pure_nbody_run_works() {
        let mut cfg = tiny_config();
        cfg.with_neutrinos = false;
        let mut sim = HybridSimulation::new(cfg);
        assert!(sim.neutrinos.is_none());
        sim.step();
        assert_eq!(sim.records.len(), 1);
    }

    #[test]
    fn run_to_redshift_reaches_target() {
        let mut cfg = tiny_config();
        cfg.nx = 8;
        cfg.nu = 8;
        cfg.n_cdm = 8;
        cfg.n_pm = 8;
        let mut sim = HybridSimulation::new(cfg);
        let mut called = 0;
        sim.run_to_redshift(2.0, |_| called += 1);
        assert!(sim.redshift() <= 2.0 + 1e-6);
        assert_eq!(called, sim.step_count);
    }

    #[test]
    fn timers_are_populated() {
        let mut sim = HybridSimulation::new(tiny_config());
        sim.step();
        let t = sim.records[0].timers;
        assert!(t.vlasov > 0.0);
        assert!(t.pm > 0.0);
        assert!(t.tree > 0.0);
    }

    #[test]
    fn step_records_span_tree_consistent_with_timers() {
        let mut sim = HybridSimulation::new(tiny_config());
        sim.step();
        let rec = &sim.records[0];
        // The structured trace is present and covers the expected phases.
        let names: Vec<&str> = rec.spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"drift"), "roots: {names:?}");
        assert!(names.contains(&"kick"), "roots: {names:?}");
        assert!(names.contains(&"gravity.cdm.tree"), "roots: {names:?}");
        // Folding the tree reproduces the four-bucket timers exactly —
        // they are two views of the same measurement.
        let fold = vlasov6d_obs::span::fold_buckets(&rec.spans);
        assert!((fold.vlasov - rec.timers.vlasov).abs() < 1e-12);
        assert!((fold.tree - rec.timers.tree).abs() < 1e-12);
        assert!((fold.pm - rec.timers.pm).abs() < 1e-12);
        assert!((fold.other - rec.timers.other).abs() < 1e-12);
        // And the record exports to a parseable JSONL event.
        let line = rec.to_event(0).to_jsonl();
        let back = vlasov6d_obs::StepEvent::parse(&line).unwrap();
        assert_eq!(back.step, 1);
        assert!(back.buckets.vlasov > 0.0);
    }
}
