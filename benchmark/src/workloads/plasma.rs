//! `plasma_two_stream` — the scenario engine on the two-stream instability.
//!
//! `plasma::two_stream_with([32, 4, 4], 64)`: 0.52 M phase-space cells,
//! `Exec::Scalar`, static time axis, electrostatic force. The same sweep and
//! Poisson layers as the other workloads, used differently: scalar kernel,
//! 4-cell axes on the short-line continuation path, a 512-cell Poisson solve
//! every step — fixed per-call cost dominates, not bandwidth. It is the one
//! workload judged against an analytic answer: stepped to the oracle's end
//! point (exactly 175 steps), the fitted growth rate must match the kinetic
//! dispersion root.

use super::{serve_local, Size};
use crate::lifecycle::{fingerprint_f32, Driver, Rig, Served, StepInfo, FINGERPRINT_SEED};
use crate::record::Recorder;
use std::sync::Arc;
use vlasov6d::scenario::plasma;
use vlasov6d::{KineticScenario, KineticSimulation};
use vlasov6d_ckpt::{CheckpointStore, CkptStats};
use vlasov6d_obs::StepScope;
use vlasov6d_phase_space::moments;
use vlasov6d_query::{finalize_region, RegionMomentsReply, Request};

/// Steps the CFL controller takes to the oracle's end point on the full grid.
pub const STEPS_TO_SOLUTION: usize = 175;

pub fn scenario(size: Size) -> KineticScenario {
    match size {
        Size::Full => plasma::two_stream_with([32, 4, 4], 64),
        Size::Quick => plasma::two_stream_with([8, 4, 4], 16),
    }
}

pub struct PlasmaRig {
    pub scenario: Arc<KineticScenario>,
    pub store: CheckpointStore,
    /// The quick self-test steps a fixed few times and skips the oracle.
    pub to_solution: bool,
}

pub struct PlasmaDriver {
    sim: KineticSimulation,
    scenario: Arc<KineticScenario>,
    store: CheckpointStore,
    t_start: f64,
    /// `(t, mode amplitude)` of the trajectory, from its start; a step
    /// redone after a restore lands on a time already recorded and is not
    /// added twice.
    trail: Vec<(f64, f64)>,
    net_steps: usize,
    /// `net_steps` when the trajectory first reached the oracle's end point
    /// (the run may step on past it until its time budget is spent).
    steps_to_solution: Option<usize>,
    to_solution: bool,
}

impl PlasmaDriver {
    fn fingerprint(&self) -> u64 {
        fingerprint_f32(FINGERPRINT_SEED, self.sim.phase_space().as_slice())
    }

    fn reached_end(&self) -> bool {
        let oracle = self.scenario.oracle.expect("two-stream declares an oracle");
        self.sim.time() >= self.t_start + oracle.t_end - 1e-12
    }
}

impl Driver for PlasmaDriver {
    fn step(&mut self) -> StepInfo {
        if self.trail.is_empty() {
            let start = self.sim.diagnose(0.0);
            self.trail.push((start.t, start.mode_amp));
        }
        // The engine opens no step scope of its own; ours collects the
        // bucket times of the spans inside it.
        let scope = StepScope::begin(self.sim.step_count() as u64 + 1);
        let diag = *self.sim.step();
        let b = scope.finish().buckets;
        if diag.t
            > self
                .trail
                .last()
                .expect("trail starts before the first step")
                .0
        {
            self.trail.push((diag.t, diag.mode_amp));
            self.net_steps += 1;
            if self.steps_to_solution.is_none() && self.reached_end() {
                self.steps_to_solution = Some(self.net_steps);
            }
        }
        StepInfo {
            buckets: [b.vlasov, b.tree, b.pm, b.other + b.io],
            ..StepInfo::default()
        }
    }

    fn checkpoint(&mut self) -> Result<CkptStats, String> {
        self.sim
            .save_checkpoint(&self.store)
            .map_err(|e| e.to_string())
    }

    fn restore(&mut self) -> Result<(), String> {
        self.sim =
            KineticSimulation::resume(&self.scenario, &self.store).map_err(|e| e.to_string())?;
        Ok(())
    }

    type Mark = u64;

    fn mark(&self) -> u64 {
        self.fingerprint()
    }

    fn reproduces(&self, mark: &u64) -> Result<(), String> {
        let now = self.fingerprint();
        if now == *mark {
            Ok(())
        } else {
            Err(format!("fingerprints {mark:016x} vs {now:016x}"))
        }
    }

    fn net_steps(&self) -> u64 {
        self.steps_to_solution.unwrap_or(self.net_steps) as u64
    }

    fn finished(&self) -> bool {
        !self.to_solution || self.reached_end()
    }

    fn gates(&self, rec: &mut Recorder) {
        if !self.to_solution {
            return;
        }
        let oracle = self.scenario.oracle.expect("two-stream declares an oracle");
        let (times, amps): (Vec<f64>, Vec<f64>) = self.trail.iter().copied().unzip();
        let check = oracle.judge(&times, &amps);
        rec.gate(
            "growth rate matches the dispersion root",
            check.passed(),
            || format!("{check:?}"),
        );
        rec.gate(
            "steps to solution",
            self.steps_to_solution == Some(STEPS_TO_SOLUTION),
            || {
                format!(
                    "{:?} steps, expected {STEPS_TO_SOLUTION}",
                    self.steps_to_solution
                )
            },
        );
    }
}

impl Rig for PlasmaRig {
    type D = PlasmaDriver;

    fn build(&self) -> PlasmaDriver {
        let sim = self.scenario.build();
        PlasmaDriver {
            t_start: sim.time(),
            sim,
            scenario: Arc::clone(&self.scenario),
            store: self.store.clone(),
            trail: Vec::new(),
            net_steps: 0,
            steps_to_solution: None,
            to_solution: self.to_solution,
        }
    }

    fn sync(&self) {}

    fn agree(&self, ok: bool) -> bool {
        ok
    }

    fn sglobal(&self) -> [usize; 3] {
        self.scenario.grid.sdims
    }

    fn region_oracle(
        &self,
        driver: &PlasmaDriver,
        lo: [usize; 3],
        hi: [usize; 3],
    ) -> Option<RegionMomentsReply> {
        let sums = moments::region_sums(driver.sim.phase_space(), lo, hi);
        Some(finalize_region(&[sums]))
    }

    fn serve(&self, requests: &[Request], untimed: usize, rec: &mut Recorder) -> Served {
        serve_local(&self.store, requests, untimed, rec)
    }

    fn replay_step(&self, driver: &PlasmaDriver, rec: &mut Recorder) -> f64 {
        use vlasov6d_phase_space::sweep;
        use vlasov6d_poisson::PoissonSolver;

        let sc = &driver.scenario;
        let mut ps = driver.sim.phase_space().clone();
        let solver = PoissonSolver::new(ps.sdims);
        let prefactor = sc
            .force
            .periodic_prefactor(driver.sim.time())
            .expect("the electrostatic force law is periodic");
        let mut total = 0.0;
        let mut probe = |rec: &mut Recorder, name: &'static str, f: &mut dyn FnMut()| {
            total += rec.span(name, |_| f()).1;
        };

        let mut force = None;
        probe(rec, "poisson.force", &mut || {
            let mut rho = moments::density(&ps);
            let mean = rho.mean();
            for v in rho.as_mut_slice() {
                *v -= mean;
            }
            let phi = solver.solve(&rho, prefactor);
            force = Some(PoissonSolver::force_from_potential(&phi));
        });
        let force = force.expect("probe ran");
        let dt = sc.max_step;
        for _ in 0..2 {
            probe(rec, "sweep.velocity", &mut || {
                for d in 0..3 {
                    let mut cfl = force[d].clone();
                    cfl.scale(0.5 * dt / ps.vgrid.du(d));
                    sweep::sweep_velocity(&mut ps, d, &cfl, sc.grid.scheme, sc.grid.exec);
                }
            });
        }
        probe(rec, "sweep.spatial", &mut || {
            for d in 0..3 {
                let n_d = ps.sglobal[d] as f64;
                let cfl: Vec<f64> = (0..ps.vgrid.n[d])
                    .map(|k| ps.vgrid.center(d, k) * dt * n_d)
                    .collect();
                sweep::sweep_spatial(&mut ps, d, &cfl, sc.grid.scheme, sc.grid.exec);
            }
        });
        probe(rec, "scenario.diagnostics", &mut || {
            std::hint::black_box(driver.sim.diagnose(dt));
        });
        total
    }
}
