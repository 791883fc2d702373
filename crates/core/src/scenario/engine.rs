//! The generic serial kinetic engine: the shared Strang stepper
//! (`strang.rs`) driven by a [`KineticScenario`]'s
//! [`ForceLaw`](super::dynamics::ForceLaw)/[`TimeAxis`] through the serial
//! [`FieldSolver`] that law picks.
//!
//! This is the single-rank oracle the distributed differential tests run
//! against, and the measurement engine behind the analytic-rate oracles:
//! every step appends a [`KineticDiag`] row (mass, momentum, energies,
//! L2 norm, probed mode amplitude), so a scenario run *is* its diagnostic
//! history.

use vlasov6d_ckpt::{CheckpointStore, CkptError, CkptStats, Encoding};
use vlasov6d_cosmology::{Background, CosmologyParams};
use vlasov6d_mesh::Field3;
use vlasov6d_obs::{span, Bucket};
use vlasov6d_phase_space::{moments, PhaseSpace};
use vlasov6d_poisson::PoissonSolver;

use super::dynamics::{FieldSolver, TimeAxis};
use super::measure::{ProbeSpec, RateCheck};
use super::KineticScenario;
use crate::strang;

/// Per-step diagnostics of a kinetic scenario run.
#[derive(Debug, Clone, Copy)]
pub struct KineticDiag {
    pub step: usize,
    /// Time (or scale factor, for an expanding axis) after the step.
    pub t: f64,
    /// Kick integral of the full step (Δt for a static axis).
    pub dt: f64,
    pub mass: f64,
    pub momentum: [f64; 3],
    pub kinetic: f64,
    pub potential: f64,
    /// `kinetic + potential` — conserved for static-background force laws.
    pub energy: f64,
    /// Probed density-mode amplitude (per [`ProbeSpec`]).
    pub mode_amp: f64,
    pub f_min: f32,
    /// Squared L2 norm `Σ f² Δu³ Δx³` (monotone schemes may only shrink it).
    pub l2: f64,
}

/// A serial Vlasov–Poisson run of one registered scenario.
pub struct KineticSimulation {
    ps: PhaseSpace,
    t: f64,
    step_count: usize,
    background: Background,
    policy: strang::Policy,
    solver: FieldSolver<PoissonSolver>,
    probe: ProbeSpec,
    /// Cached `−∇φ` on the spatial grid, recomputed after each drift.
    force: [Field3; 3],
    /// `½ Σ source·φ·Δx³` of the last solve (see module docs for why this
    /// expression is the conserved potential energy for *both* force signs).
    potential: f64,
    history: Vec<KineticDiag>,
}

impl KineticSimulation {
    /// Build the engine around an already-filled phase space. Most callers
    /// want [`KineticScenario::build`], which fills the initial condition.
    pub fn new(ps: PhaseSpace, sc: &KineticScenario) -> Self {
        assert_eq!(ps.sdims, ps.sglobal, "the serial engine takes whole grids");
        let sdims = ps.sdims;
        let t0 = match sc.time {
            // Scale factor and code time both start at 1 by convention for
            // static axes; expanding scenarios override via `set_time`.
            TimeAxis::Expanding => 1.0,
            TimeAxis::Static => 0.0,
        };
        let mut sim = Self {
            ps,
            t: t0,
            step_count: 0,
            background: Background::new(CosmologyParams::planck2015()),
            policy: strang::Policy {
                time: sc.time,
                scheme: sc.grid.scheme,
                exec: sc.grid.exec,
                cfl_spatial: sc.cfl_spatial,
                cfl_velocity: 1.0,
                max_step: sc.max_step,
            },
            solver: FieldSolver::new(sc.force, sdims, PoissonSolver::new),
            probe: sc.probe,
            force: [
                Field3::zeros(sdims),
                Field3::zeros(sdims),
                Field3::zeros(sdims),
            ],
            potential: 0.0,
            history: Vec::new(),
        };
        sim.compute_force();
        sim
    }

    /// Override the starting time / scale factor (expanding scenarios start
    /// deep in the matter era, not at `a = 1`). Recomputes the cached force.
    pub fn set_time(&mut self, t: f64) {
        self.t = t;
        self.compute_force();
    }

    pub fn time(&self) -> f64 {
        self.t
    }

    pub fn step_count(&self) -> usize {
        self.step_count
    }

    pub fn phase_space(&self) -> &PhaseSpace {
        &self.ps
    }

    pub fn history(&self) -> &[KineticDiag] {
        &self.history
    }

    /// The task shape each sweep axis runs on this scenario's grid — the
    /// drivers' `kernel.shape` label
    /// ([`vlasov6d_phase_space::sweep::lane_shapes`]).
    pub fn lane_shapes(&self) -> String {
        let (scheme, exec) = (self.policy.scheme, self.policy.exec);
        vlasov6d_phase_space::sweep::lane_shapes(scheme, &self.ps.dims6(), |_| exec)
    }

    /// Solve the scenario's Poisson problem at the current state and cache
    /// `−∇φ` plus the potential energy `½ Σ source·φ·Δx³`.
    fn compute_force(&mut self) {
        let _s = span!("gravity", Bucket::Pm);
        let mut rho = moments::density(&self.ps);
        let dx3 = 1.0 / rho.len() as f64;
        let phi = self.solver.potential(&mut rho, self.t);
        let mut pe = 0.0;
        for (s, p) in rho.as_slice().iter().zip(phi.as_slice()) {
            pe += s * p;
        }
        self.potential = 0.5 * pe * dx3;
        self.force = PoissonSolver::force_from_potential(&phi);
    }

    /// Advance one Strang-split step (K₁ · D · K₂ with the solve at the
    /// post-drift state) and append the diagnostics row.
    pub fn step(&mut self) -> &KineticDiag {
        let (policy, t1) = (self.policy, self.t);
        let interval = strang::step(self, &policy, t1);
        self.step_count += 1;
        let diag = self.diagnose(interval.dt);
        self.history.push(diag);
        self.history.last().unwrap()
    }

    /// Step until `t ≥ t_end` (the CFL controller sets the actual step
    /// sizes). Returns the number of steps taken.
    pub fn run_to(&mut self, t_end: f64) -> usize {
        let mut n = 0;
        while self.t < t_end - 1e-12 {
            self.step();
            n += 1;
            assert!(n < 100_000, "run_to({t_end}) failed to terminate");
        }
        n
    }

    /// The current diagnostics row (without stepping).
    pub fn diagnose(&self, dt: f64) -> KineticDiag {
        let _s = span!("scenario.diagnostics", Bucket::Other);
        // One reduction pass; the density is only for the mode probe.
        let sums = moments::step_sums(&self.ps);
        let kinetic = 0.5 * sums.sq_sum;
        KineticDiag {
            step: self.step_count,
            t: self.t,
            dt,
            mass: sums.mass,
            momentum: sums.momentum,
            kinetic,
            potential: self.potential,
            energy: kinetic + self.potential,
            mode_amp: self.probe.amplitude(&moments::density(&self.ps)),
            f_min: sums.min,
            l2: sums.l2,
        }
    }

    /// Run the scenario's oracle measurement: step to the oracle's `t_end`
    /// and judge the mode-amplitude history against the expected rate.
    pub fn measure_rate(&mut self, sc: &KineticScenario) -> RateCheck {
        let oracle = sc.oracle.expect("scenario declares no rate oracle");
        if self.history.is_empty() {
            let d = self.diagnose(0.0);
            self.history.push(d);
        }
        self.run_to(self.history[0].t + oracle.t_end);
        let times: Vec<f64> = self.history.iter().map(|d| d.t).collect();
        let amps: Vec<f64> = self.history.iter().map(|d| d.mode_amp).collect();
        oracle.judge(&times, &amps)
    }

    /// Checkpoint the full engine state into `store`; the cached force rides
    /// along, so [`KineticSimulation::resume`] continues bit for bit.
    pub fn save_checkpoint(&self, store: &CheckpointStore) -> Result<CkptStats, CkptError> {
        // No Ω for a generic kinetic run — the slot carries the cached
        // potential energy of the last solve instead.
        let state = strang::sim_state(
            &self.policy,
            self.step_count as u64,
            0,
            self.t,
            self.potential,
        );
        let records = strang::records(Some(&self.ps), Some(&self.force), &state, None);
        store.write_serial(self.step_count as u64, self.t, &records, Encoding::Raw, 2)
    }

    /// Rebuild an engine from the newest intact checkpoint generation. The
    /// saved force meshes (not a recompute) restore the cached force, so
    /// the continuation is bitwise identical to the uninterrupted run.
    pub fn resume(sc: &KineticScenario, store: &CheckpointStore) -> Result<Self, CkptError> {
        let saved = strang::restore(store.load_serial()?, true)?;
        let mut sim = KineticSimulation::new(saved.ps.expect("checked by restore"), sc);
        sim.policy.scheme = saved.scheme;
        sim.policy.cfl_spatial = saved.state.cfl_spatial;
        sim.policy.max_step = saved.state.max_dln_a;
        sim.step_count = saved.state.step as usize;
        sim.t = saved.state.a;
        match saved.force {
            Some(force) => {
                sim.force = force;
                sim.potential = saved.state.omega_component;
            }
            // Older checkpoints without force meshes: recompute (correct to
            // rounding, though not bitwise against the uninterrupted run).
            None => sim.compute_force(),
        }
        Ok(sim)
    }
}

/// What the scenario engine contributes to the shared step: the serial
/// periodic or isolated Poisson solve of its force law.
impl strang::Driver for KineticSimulation {
    fn background(&self) -> &Background {
        &self.background
    }

    fn vlasov(&mut self) -> Option<(&mut PhaseSpace, Option<&[Field3; 3]>)> {
        Some((&mut self.ps, Some(&self.force)))
    }

    fn solve(&mut self, t: f64) {
        self.t = t;
        self.compute_force();
    }
}
