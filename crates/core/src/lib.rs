//! `vlasov6d` — a hybrid 6-D Vlasov / N-body simulation of cosmic structure
//! formation with massive neutrinos.
//!
//! This crate is the top of the workspace: it couples the 6-D Vlasov solver
//! for relic neutrinos (`vlasov6d-phase-space` + `vlasov6d-advection`) to a
//! TreePM N-body integrator for cold dark matter (`vlasov6d-nbody`) through a
//! shared FFT gravitational potential (`vlasov6d-poisson`), reproducing the
//! architecture of Yoshikawa, Tanaka & Yoshida (SC '21).
//!
//! # Quick start
//!
//! ```no_run
//! use vlasov6d::{HybridSimulation, SimulationConfig};
//!
//! let config = SimulationConfig::small_test();
//! let mut sim = HybridSimulation::new(config);
//! sim.run_to_redshift(0.0, |state| {
//!     println!("z = {:.2}, steps = {}", state.redshift(), state.step_count);
//! });
//! ```
//!
//! Modules:
//! * [`config`] — [`SimulationConfig`]: grids, cosmology, scheme choices.
//! * `strang` (crate-private) — the one Strang-split step every driver
//!   takes: Δt controller, kick, drift, `K₁ · D · solve · K₂` with one field
//!   solve per step, and the checkpoint records of a stepper.
//! * [`sim`] — [`HybridSimulation`]: the coupled run (paper Eq. 5 for the
//!   neutrinos, KDK leapfrog for the CDM riding along, one shared TreePM +
//!   PM-mesh solve per step).
//! * [`fields`] — helpers moving densities and forces between the Vlasov
//!   spatial grid and the PM mesh, and k-space filters.
//! * [`diagnostics`] — conserved-quantity tracking and step records.
//! * [`noise`] — the paper's shot-noise ↔ effective-resolution model
//!   (Eq. 9–10) and Vlasov-vs-particle comparison metrics (Figs. 5–6).
//! * [`maps`] — projected density maps and PGM/CSV writers (Figs. 4, 8).
//! * [`snapshot`] — compat shims over the `vlasov6d-ckpt` container format
//!   (checkpoint I/O is counted in time-to-solution, §7.2); the drivers'
//!   `checkpoint`/`resume_from` methods use the ckpt store directly.
//! * [`spectrum`] — power-spectrum estimation of component fields.
//! * [`dist_sim`] — the multi-rank Vlasov–Poisson driver over `mpisim`
//!   (slab field solve, ghost-exchange sweep along the decomposed axis).
//! * [`scenario`] — the scenario registry: data-driven initial conditions,
//!   force laws, time axes, conservation bands and analytic-rate oracles
//!   (cosmological, electrostatic plasma, self-gravitating King spheres).

pub mod config;
pub mod diagnostics;
pub mod dist_sim;
pub mod fields;
pub mod maps;
pub mod noise;
pub mod scenario;
pub mod sim;
pub mod snapshot;
pub mod spectrum;
mod strang;

pub use config::SimulationConfig;
pub use diagnostics::StepRecord;
pub use dist_sim::{DistributedVlasov, OverlapPolicy};
pub use scenario::dynamics::{Dynamics, ForceLaw, TimeAxis};
pub use scenario::engine::{KineticDiag, KineticSimulation};
pub use scenario::{KineticScenario, Scenario, ScenarioRegistry};
pub use sim::HybridSimulation;
pub use spectrum::Spectrum;
