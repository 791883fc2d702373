//! The scenario registry: initial conditions, force laws, background
//! evolution and diagnostics as *data*, not forks of `sim.rs`.
//!
//! A [`Scenario`] bundles everything one physics setup needs — the grid, a
//! block-decomposable initial condition, a [`ForceLaw`]/[`TimeAxis`] pair,
//! conservation tolerance bands and (where linear theory provides one) an
//! analytic-rate oracle. The same machinery underneath runs them all: the
//! serial [`KineticSimulation`] engine, the
//! distributed [`DistributedVlasov`](crate::DistributedVlasov) driver via
//! [`Dynamics`](dynamics::Dynamics), `obs` spans, `ckpt` snapshots and the
//! kerncheck-verified sweep kernels.
//!
//! * [`dynamics`] — [`ForceLaw`] / [`TimeAxis`]: electrostatic vs.
//!   gravitational coupling, periodic vs. isolated boundaries, static vs.
//!   expanding background; and the one place a law picks its Poisson
//!   solver.
//! * `dispersion` — kinetic dispersion relations (plasma `Z` function,
//!   multi-Maxwellian dielectric, Newton root solver): the analytic oracles.
//! * [`measure`] — mode-amplitude probes and damping/growth-rate fits.
//! * [`engine`] — the generic serial stepper for registered scenarios.
//! * [`plasma`] — Landau damping, two-stream, bump-on-tail.
//! * [`king`] — stationary King sphere and two-sphere merger
//!   (Yoshikawa et al. 2013 validation problems).
//! * [`jeans`] — the kinetic Jeans instability and gravitational Landau
//!   damping on the periodic box: the rate oracles of a gravitating law.

mod dispersion;
pub mod dynamics;
pub mod engine;
pub mod jeans;
pub mod king;
pub mod measure;
pub mod plasma;

use vlasov6d_advection::line::Scheme;
use vlasov6d_phase_space::{Exec, PhaseSpace, VelocityGrid};

use dynamics::{ForceLaw, TimeAxis};
use engine::KineticSimulation;
use measure::RateOracle;

/// Which physics family a scenario belongs to (drives reporting only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// The paper's cosmological neutrino setup.
    Cosmological,
    /// Electrostatic plasma on a periodic box, static background.
    Plasma,
    /// Self-gravitating kinetic system: the King family with open
    /// (isolated) boundaries, the Jeans pair on the periodic box.
    SelfGravitating,
}

/// Grid sizes of a kinetic scenario (spatial dims, velocity grid, kernels).
#[derive(Debug, Clone, Copy)]
pub struct GridSpec {
    pub sdims: [usize; 3],
    pub vgrid: VelocityGrid,
    pub scheme: Scheme,
    pub exec: Exec,
}

/// Conservation tolerance bands a scenario declares once; the conservation
/// suite and the `scenario_suite` bench assert them for every registered
/// scenario.
#[derive(Debug, Clone, Copy)]
pub struct InvariantBands {
    /// Relative |Δ mass| bound over the declared smoke run.
    pub mass_rel: f64,
    /// Relative |Δ energy| bound over the declared smoke run.
    pub energy_rel: f64,
    /// Relative L2-norm *growth* bound (the monotone limiter may only
    /// dissipate; growth beyond roundoff is a bug).
    pub l2_growth_rel: f64,
    /// Steps the conservation suite runs.
    pub steps: usize,
}

/// A data-driven kinetic scenario: everything needed to build, run and
/// check it, in one value.
pub struct KineticScenario {
    pub name: &'static str,
    pub family: Family,
    pub force: ForceLaw,
    pub time: TimeAxis,
    pub grid: GridSpec,
    /// Δt ceiling per step (CFL control may shrink below it).
    pub max_step: f64,
    pub cfl_spatial: f64,
    /// Initial condition, written in *global* coordinates so the same
    /// closure fills serial grids and distributed blocks identically.
    #[allow(clippy::type_complexity)]
    pub init: std::sync::Arc<dyn Fn(&mut PhaseSpace) + Send + Sync>,
    /// Fourier mode of δρ tracked by the per-step diagnostics.
    pub probe: measure::ProbeSpec,
    /// Analytic linear-rate oracle, where linear theory provides one.
    pub oracle: Option<RateOracle>,
    pub invariants: InvariantBands,
}

impl KineticScenario {
    /// Build the serial engine with the scenario's initial condition.
    pub fn build(&self) -> KineticSimulation {
        let mut ps = PhaseSpace::zeros(self.grid.sdims, self.grid.vgrid);
        (self.init)(&mut ps);
        KineticSimulation::new(ps, self)
    }

    /// Fill a (possibly block-decomposed) phase space with the scenario's
    /// initial condition; global coordinates, so every decomposition of the
    /// same global grid agrees bitwise.
    pub fn fill(&self, ps: &mut PhaseSpace) {
        (self.init)(ps);
    }

    /// The distributed-driver dynamics equivalent to this scenario.
    pub fn dynamics(&self) -> dynamics::Dynamics {
        dynamics::Dynamics {
            force: self.force,
            time: self.time,
        }
    }
}

/// A registered scenario: either a generic kinetic setup or the paper's
/// coupled hybrid (Vlasov ν + N-body CDM) cosmological run.
pub enum Scenario {
    Kinetic(Box<KineticScenario>),
    /// The cosmological neutrino scenario wraps [`crate::HybridSimulation`]
    /// behind its [`crate::SimulationConfig`].
    Cosmological(crate::SimulationConfig),
}

impl Scenario {
    pub fn name(&self) -> &'static str {
        match self {
            Scenario::Kinetic(k) => k.name,
            Scenario::Cosmological(_) => "cosmological-neutrino",
        }
    }

    pub fn family(&self) -> Family {
        match self {
            Scenario::Kinetic(k) => k.family,
            Scenario::Cosmological(_) => Family::Cosmological,
        }
    }

    pub fn as_kinetic(&self) -> Option<&KineticScenario> {
        match self {
            Scenario::Kinetic(k) => Some(k),
            Scenario::Cosmological(_) => None,
        }
    }

    /// Conservation bands (the cosmological run reuses the hybrid suite's
    /// historical mass bound; its energy is not conserved — the background
    /// expands — so only mass and L2 are asserted).
    pub fn invariants(&self) -> InvariantBands {
        match self {
            Scenario::Kinetic(k) => k.invariants,
            Scenario::Cosmological(_) => InvariantBands {
                mass_rel: 1e-3,
                energy_rel: f64::INFINITY,
                l2_growth_rel: 1e-6,
                steps: 5,
            },
        }
    }
}

/// The scenario registry: name → [`Scenario`], iteration in insertion
/// order. [`ScenarioRegistry::builtin`] registers the full suite.
#[derive(Default)]
pub struct ScenarioRegistry {
    entries: Vec<Scenario>,
}

impl ScenarioRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// All built-in scenarios: the cosmological neutrino run, the
    /// electrostatic plasma family and the self-gravitating King and Jeans
    /// families.
    pub fn builtin() -> Self {
        let mut r = Self::new();
        r.register(Scenario::Cosmological(crate::SimulationConfig::small_test()));
        r.register(Scenario::Kinetic(Box::new(plasma::landau_damping())));
        r.register(Scenario::Kinetic(Box::new(plasma::two_stream())));
        r.register(Scenario::Kinetic(Box::new(plasma::bump_on_tail())));
        r.register(Scenario::Kinetic(Box::new(king::king_sphere())));
        r.register(Scenario::Kinetic(Box::new(king::king_merger())));
        r.register(Scenario::Kinetic(Box::new(jeans::jeans_instability())));
        r.register(Scenario::Kinetic(Box::new(jeans::jeans_damping())));
        r
    }

    pub fn register(&mut self, s: Scenario) {
        assert!(
            self.get(s.name()).is_none(),
            "duplicate scenario name {:?}",
            s.name()
        );
        self.entries.push(s);
    }

    pub fn get(&self, name: &str) -> Option<&Scenario> {
        self.entries.iter().find(|s| s.name() == name)
    }

    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|s| s.name()).collect()
    }

    pub fn iter(&self) -> impl Iterator<Item = &Scenario> {
        self.entries.iter()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_registry_has_the_full_suite() {
        let r = ScenarioRegistry::builtin();
        let names = r.names();
        for expected in [
            "cosmological-neutrino",
            "landau-damping",
            "two-stream",
            "bump-on-tail",
            "king-sphere",
            "king-merger",
            "jeans-instability",
            "jeans-damping",
        ] {
            assert!(names.contains(&expected), "missing {expected} in {names:?}");
        }
        assert!(r.len() >= 5);
    }

    #[test]
    #[should_panic(expected = "duplicate scenario name")]
    fn duplicate_names_are_rejected() {
        let mut r = ScenarioRegistry::new();
        r.register(Scenario::Kinetic(Box::new(plasma::landau_damping())));
        r.register(Scenario::Kinetic(Box::new(plasma::landau_damping())));
    }
}
