//! `hybrid16` — the coupled Vlasov-ν / TreePM-CDM stepper.
//!
//! `SimulationConfig::laptop_s()` with 24³ CDM particles: 16³ spatial cells,
//! a 16³ velocity grid (16.8 M phase-space cells, 67 MB of `f`), a 32³ PM
//! mesh and 13,824 particles, SL-MPP5 under `Exec::Simd`. The only workload
//! where the tree, the PM mesh, the particles and the serial checkpoint path
//! run, and the one whose `f` is far larger than the L2s, so its sweeps
//! stream. The particle count is chosen so one step splits Vlasov / tree /
//! PM / other close to the paper's Table 3 shape (51 / 41 / 2 / 6 %; 32³
//! particles make it three quarters tree, 16³ a tenth).

use super::{serve_local, Size};
use crate::lifecycle::{Driver, Rig, Served, StepInfo};
use crate::record::Recorder;
use vlasov6d::{HybridSimulation, SimulationConfig};
use vlasov6d_ckpt::{CheckpointStore, CkptStats};
use vlasov6d_phase_space::moments;
use vlasov6d_query::{finalize_region, RegionMomentsReply, Request};

/// Largest `|Δf| / max f` and `|Δx|` (box units) between a resumed step and
/// the uninterrupted one.
const RESUME_F_TOL: f32 = 1e-5;
const RESUME_X_TOL: f64 = 1e-9;
/// ν mass may drain through the velocity boundary only this much per run.
const MASS_DRIFT_MAX: f64 = 1e-4;

pub fn config(size: Size) -> SimulationConfig {
    match size {
        Size::Full => SimulationConfig {
            n_cdm: 24,
            ..SimulationConfig::laptop_s()
        },
        Size::Quick => SimulationConfig {
            n_cdm: 8,
            ..SimulationConfig::small_test()
        },
    }
}

pub struct HybridRig {
    pub config: SimulationConfig,
    pub store: CheckpointStore,
}

pub struct HybridDriver {
    pub sim: HybridSimulation,
    store: CheckpointStore,
    /// ν mass before the first step (taken then, so set-up stays set-up).
    initial_mass: Option<f64>,
    /// Lowest `f` any step has reported.
    f_min: f64,
}

impl Driver for HybridDriver {
    fn step(&mut self) -> StepInfo {
        if self.initial_mass.is_none() {
            self.initial_mass = Some(self.nu_mass());
        }
        let record = self.sim.step();
        self.f_min = self.f_min.min(f64::from(record.f_min));
        let t = record.timers;
        StepInfo {
            buckets: [t.vlasov, t.tree, t.pm, t.other + t.io],
            ..StepInfo::default()
        }
    }

    fn checkpoint(&mut self) -> Result<CkptStats, String> {
        self.sim
            .save_checkpoint(&self.store)
            .map_err(|e| e.to_string())
    }

    fn restore(&mut self) -> Result<(), String> {
        self.sim
            .restore_checkpoint(&self.store)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    /// `restore_checkpoint` recomputes the cached forces from the restored
    /// state, where the uninterrupted run carries the ones it solved before
    /// its last kick; the two differ in the last ulps of the density, so the
    /// resumed step is compared within a tolerance, not bit for bit.
    type Mark = (Vec<f32>, Vec<[f64; 3]>);

    fn mark(&self) -> Self::Mark {
        let f = self
            .sim
            .neutrinos
            .as_ref()
            .map_or(Vec::new(), |nu| nu.as_slice().to_vec());
        let pos = self
            .sim
            .cdm
            .as_ref()
            .map_or(Vec::new(), |cdm| cdm.pos.clone());
        (f, pos)
    }

    fn reproduces(&self, (f, pos): &Self::Mark) -> Result<(), String> {
        let (now_f, now_pos) = self.mark();
        let scale = f.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let df = f
            .iter()
            .zip(&now_f)
            .fold(0.0f32, |m, (a, b)| m.max((a - b).abs()));
        let dx = pos
            .iter()
            .flatten()
            .zip(now_pos.iter().flatten())
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        let same_shape = f.len() == now_f.len() && pos.len() == now_pos.len();
        if same_shape && df <= RESUME_F_TOL * scale && dx <= RESUME_X_TOL {
            Ok(())
        } else {
            Err(format!(
                "max |Δf| = {df:.3e} of {scale:.3e}, max |Δx| = {dx:.3e}"
            ))
        }
    }

    fn net_steps(&self) -> u64 {
        self.sim.step_count as u64
    }

    fn gates(&self, rec: &mut Recorder) {
        let initial = self.initial_mass.unwrap_or(f64::NAN);
        let drift = (self.nu_mass() / initial - 1.0).abs();
        rec.gate("nu mass drift", drift <= MASS_DRIFT_MAX, || {
            format!("|Δm/m| = {drift:.3e} > {MASS_DRIFT_MAX:.0e}")
        });
        rec.gate("f stays non-negative", self.f_min >= 0.0, || {
            format!("f_min = {:.3e}", self.f_min)
        });
    }
}

impl HybridDriver {
    fn nu_mass(&self) -> f64 {
        self.sim
            .neutrinos
            .as_ref()
            .map_or(0.0, |nu| nu.total_mass())
    }
}

impl Rig for HybridRig {
    type D = HybridDriver;

    fn build(&self) -> HybridDriver {
        HybridDriver {
            sim: HybridSimulation::new(self.config.clone()),
            store: self.store.clone(),
            initial_mass: None,
            f_min: f64::INFINITY,
        }
    }

    fn sync(&self) {}

    fn agree(&self, ok: bool) -> bool {
        ok
    }

    fn sglobal(&self) -> [usize; 3] {
        [self.config.nx; 3]
    }

    fn region_oracle(
        &self,
        driver: &HybridDriver,
        lo: [usize; 3],
        hi: [usize; 3],
    ) -> Option<RegionMomentsReply> {
        let nu = driver.sim.neutrinos.as_ref()?;
        Some(finalize_region(&[moments::region_sums(nu, lo, hi)]))
    }

    fn serve(&self, requests: &[Request], untimed: usize, rec: &mut Recorder) -> Served {
        serve_local(&self.store, requests, untimed, rec)
    }

    fn replay_step(&self, driver: &HybridDriver, rec: &mut Recorder) -> f64 {
        use vlasov6d::fields;
        use vlasov6d_nbody::{integrator, TreePm};
        use vlasov6d_phase_space::sweep;
        use vlasov6d_poisson::PoissonSolver;

        let sim = &driver.sim;
        let cfg = &sim.config;
        let (Some(mut nu), Some(mut cdm)) = (sim.neutrinos.clone(), sim.cdm.clone()) else {
            return 0.0;
        };
        let treepm = TreePm::new(cfg.n_pm, cfg.softening());
        let solver = PoissonSolver::cubic(cfg.n_pm).with_cic_deconvolution();
        let (a, pm, nx) = (sim.a, [cfg.n_pm; 3], [cfg.nx; 3]);
        let mut total = 0.0;
        let mut probe = |rec: &mut Recorder, name: &'static str, f: &mut dyn FnMut()| {
            total += rec.span(name, |_| f()).1;
        };

        // Gravity, in the stepper's order.
        let mut rho_nu_pm = None;
        probe(rec, "moments.density", &mut || {
            rho_nu_pm = Some(fields::deposit_density_to_pm(&moments::density(&nu), pm));
        });
        let rho_nu_pm = rho_nu_pm.expect("probe ran");
        let mut acc = Vec::new();
        probe(rec, "nbody.pm", &mut || {
            let mut rho = treepm.deposit_density(&cdm);
            rho.axpy(1.0, &rho_nu_pm);
            let phi = treepm.long_range_potential(&rho, a);
            acc = treepm.pm_accelerations(&phi, &cdm.pos);
        });
        probe(rec, "nbody.tree", &mut || {
            let tree = treepm.tree_accelerations(&cdm, a);
            for (a, t) in acc.iter_mut().zip(&tree) {
                for i in 0..3 {
                    a[i] += t[i];
                }
            }
        });
        let mut force = None;
        probe(rec, "poisson.nu_force", &mut || {
            let mut rho = fields::particle_density(&cdm.pos, cdm.mass, pm);
            rho.axpy(1.0, &rho_nu_pm);
            let mean = rho.mean();
            for v in rho.as_mut_slice() {
                *v -= mean;
            }
            let phi = solver.solve(&rho, 1.5 / a);
            force = Some(
                PoissonSolver::force_from_potential(&phi)
                    .map(|f| fields::sample_at_coarse_centers(&f, nx)),
            );
        });
        let force = force.expect("probe ran");

        // Two half kicks and the drift. The factors are nominal: a sweep costs
        // the same whatever the shift, as long as it stays inside the CFL cap.
        let kick = 0.25 * nu.vgrid.du(0) / force.iter().map(|f| f.max_abs()).fold(1e-30, f64::max);
        for _ in 0..2 {
            probe(rec, "sweep.velocity", &mut || {
                for d in 0..3 {
                    let mut cfl = force[d].clone();
                    cfl.scale(kick / nu.vgrid.du(d));
                    sweep::sweep_velocity(&mut nu, d, &cfl, cfg.scheme, cfg.exec);
                }
            });
            probe(rec, "nbody.kick", &mut || {
                integrator::kick(&mut cdm, &acc, 1e-6)
            });
        }
        probe(rec, "sweep.spatial", &mut || {
            for d in 0..3 {
                let cfl: Vec<f64> = (0..nu.vgrid.n[d])
                    .map(|k| 0.4 * nu.vgrid.center(d, k) / nu.vgrid.vmax)
                    .collect();
                sweep::sweep_spatial(&mut nu, d, &cfl, cfg.scheme, cfg.exec);
            }
        });
        probe(rec, "nbody.drift", &mut || {
            integrator::drift(&mut cdm, 1e-6)
        });
        probe(rec, "diagnostics", &mut || {
            std::hint::black_box((nu.total_mass(), nu.min_value(), cdm.total_momentum()));
            for d in 0..3 {
                std::hint::black_box(moments::momentum(&nu, d).sum());
            }
        });
        total
    }
}
