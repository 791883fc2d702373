//! Force laws and time axes: the two knobs that turn one Strang-split
//! stepper into a cosmological, electrostatic or self-gravitating run.
//!
//! The sweep machinery only ever sees drift/kick factors and a force field
//! `−∇φ`; everything scenario-specific funnels through these two enums.
//! [`crate::DistributedVlasov`] takes them via
//! [`crate::DistributedVlasov::with_dynamics`], the serial
//! [`super::engine::KineticSimulation`] directly.
//!
//! A force law picks its Poisson solver in one place, `FieldSolver::new`:
//! a periodic spectral solve (serial [`PoissonSolver`] or ranked
//! [`vlasov6d_poisson::DistPoisson`]) or the isolated one
//! ([`IsolatedPoisson`]). Every driver holds what it returns.

use vlasov6d_cosmology::Background;
use vlasov6d_mesh::Field3;
use vlasov6d_poisson::{IsolatedPoisson, PoissonSolver};

/// How the potential couples to the density.
///
/// Sign conventions (acceleration is always `−∇φ`):
/// * gravity attracts: `∇²φ = +C (ρ − ρ̄)` (periodic) or `∇²φ = +C ρ`
///   (isolated),
/// * electrostatics repels like charges: `∇²φ = −ω_p² (ρ − ρ̄)` for an
///   electron plasma against a neutralising background, unit mean density.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ForceLaw {
    /// The paper's comoving cosmological gravity: periodic, source
    /// `ρ − ρ̄`, prefactor `(3/2)/a` in code units.
    CosmologicalGravity,
    /// Static-background self-gravity on the periodic box (Jeans swindle:
    /// the mean density does not gravitate).
    Gravity { coupling: f64 },
    /// Electron electrostatics on the periodic box; `omega_p2` is the
    /// squared plasma frequency of the unit mean density.
    Electrostatic { omega_p2: f64 },
    /// Self-gravity with open (isolated) boundaries: the full density
    /// gravitates, solved by zero-padded convolution
    /// ([`vlasov6d_poisson::IsolatedPoisson`]).
    IsolatedGravity { coupling: f64 },
}

impl ForceLaw {
    /// The Poisson prefactor for the *periodic* spectral solve at scale
    /// factor (or time) `a`; `None` for the isolated solve.
    pub fn periodic_prefactor(&self, a: f64) -> Option<f64> {
        match self.problem() {
            Problem::Periodic(prefactor) => Some(prefactor.at(a)),
            Problem::Isolated { .. } => None,
        }
    }

    /// The Poisson problem the law poses — the one place a law's constants
    /// are read.
    fn problem(&self) -> Problem {
        match *self {
            ForceLaw::CosmologicalGravity => Problem::Periodic(Prefactor::OverScaleFactor(1.5)),
            ForceLaw::Gravity { coupling } => Problem::Periodic(Prefactor::Constant(coupling)),
            ForceLaw::Electrostatic { omega_p2 } => {
                Problem::Periodic(Prefactor::Constant(-omega_p2))
            }
            ForceLaw::IsolatedGravity { coupling } => Problem::Isolated { coupling },
        }
    }
}

/// `∇²φ = C(t)·(ρ − ρ̄)` on the periodic box, or `∇²φ = coupling·ρ` with open
/// boundaries.
enum Problem {
    Periodic(Prefactor),
    Isolated { coupling: f64 },
}

/// The periodic solve's prefactor `C` as a function of the time variable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Prefactor {
    /// `C = c` at every time.
    Constant(f64),
    /// `C = c / a` on an expanding background (comoving gravity).
    OverScaleFactor(f64),
}

impl Prefactor {
    /// `C` at time (or scale factor) `t`.
    pub fn at(self, t: f64) -> f64 {
        match self {
            Prefactor::Constant(c) => c,
            Prefactor::OverScaleFactor(c) => c / t,
        }
    }
}

/// A force law's field solver, generic over the periodic backend `P`
/// ([`PoissonSolver`] on one rank, [`vlasov6d_poisson::DistPoisson`] on
/// many). Each arm carries what its solve needs, so a solver built for one
/// law cannot be asked to solve another's problem.
#[derive(Debug, Clone)]
pub(crate) enum FieldSolver<P> {
    /// Spectral solve of `∇²φ = prefactor(t)·(ρ − ρ̄)` on the periodic box.
    Periodic { solver: P, prefactor: Prefactor },
    /// Zero-padded convolution solve of `∇²φ = coupling·ρ` (open boundaries),
    /// on the whole grid.
    Isolated {
        solver: Box<IsolatedPoisson>,
        coupling: f64,
    },
}

impl<P> FieldSolver<P> {
    /// The solver `law` needs on the global spatial grid `grid`; `periodic`
    /// builds the periodic backend, and runs only for a periodic law.
    pub fn new(law: ForceLaw, grid: [usize; 3], periodic: impl FnOnce([usize; 3]) -> P) -> Self {
        match law.problem() {
            Problem::Periodic(prefactor) => FieldSolver::Periodic {
                solver: periodic(grid),
                prefactor,
            },
            Problem::Isolated { coupling } => FieldSolver::Isolated {
                solver: Box::new(IsolatedPoisson::new(grid)),
                coupling,
            },
        }
    }
}

impl FieldSolver<PoissonSolver> {
    /// `φ` of the whole-grid density `rho` at time (or scale factor) `t`. The
    /// periodic solve subtracts the mean first, so `rho` is left holding the
    /// source `φ` answers.
    pub fn potential(&self, rho: &mut Field3, t: f64) -> Field3 {
        match self {
            FieldSolver::Periodic { solver, prefactor } => {
                let mean = rho.mean();
                for v in rho.as_mut_slice() {
                    *v -= mean;
                }
                solver.solve(rho, prefactor.at(t))
            }
            FieldSolver::Isolated { solver, coupling } => solver.solve(rho, *coupling),
        }
    }
}

/// How drift/kick factors derive from the step interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeAxis {
    /// Comoving coordinates on an expanding background: the independent
    /// variable is the scale factor and drift/kick are the exact background
    /// integrals `∫dt/a²`, `∫dt`.
    Expanding,
    /// Plain Newtonian time: drift = kick = Δt, midpoint = arithmetic mean.
    Static,
}

impl TimeAxis {
    /// Propose the next step endpoint from `t1` under the per-step ceiling
    /// (`Δln a` when expanding, `Δt` when static).
    pub(crate) fn propose(&self, bg: &Background, t1: f64, max_step: f64) -> f64 {
        let _ = bg;
        match self {
            TimeAxis::Expanding => t1 * (1.0 + max_step),
            TimeAxis::Static => t1 + max_step,
        }
    }

    pub fn drift_factor(&self, bg: &Background, t1: f64, t2: f64) -> f64 {
        match self {
            TimeAxis::Expanding => bg.drift_factor(t1, t2),
            TimeAxis::Static => t2 - t1,
        }
    }

    pub fn kick_factor(&self, bg: &Background, t1: f64, t2: f64) -> f64 {
        match self {
            TimeAxis::Expanding => bg.kick_factor(t1, t2),
            TimeAxis::Static => t2 - t1,
        }
    }

    /// The Strang-split midpoint (equal kick integrals on both halves).
    pub fn midpoint(&self, bg: &Background, t1: f64, t2: f64) -> f64 {
        match self {
            TimeAxis::Expanding => {
                let t = 0.5 * (bg.time_of_a(t1) + bg.time_of_a(t2));
                bg.a_of_time(t)
            }
            TimeAxis::Static => 0.5 * (t1 + t2),
        }
    }
}

/// A scenario's complete dynamical specification for the steppers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dynamics {
    pub force: ForceLaw,
    pub time: TimeAxis,
}

impl Dynamics {
    /// The paper's default: comoving cosmological gravity.
    pub fn cosmological() -> Self {
        Self {
            force: ForceLaw::CosmologicalGravity,
            time: TimeAxis::Expanding,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlasov6d_cosmology::CosmologyParams;

    #[test]
    fn static_axis_is_plain_time() {
        let bg = Background::new(CosmologyParams::planck2015());
        let t = TimeAxis::Static;
        assert_eq!(t.propose(&bg, 2.0, 0.25), 2.25);
        assert_eq!(t.drift_factor(&bg, 1.0, 1.5), 0.5);
        assert_eq!(t.kick_factor(&bg, 1.0, 1.5), 0.5);
        assert_eq!(t.midpoint(&bg, 1.0, 2.0), 1.5);
    }

    #[test]
    fn expanding_axis_matches_background_integrals() {
        let bg = Background::new(CosmologyParams::planck2015());
        let t = TimeAxis::Expanding;
        assert!((t.drift_factor(&bg, 0.2, 0.21) - bg.drift_factor(0.2, 0.21)).abs() < 1e-15);
        assert!((t.kick_factor(&bg, 0.2, 0.21) - bg.kick_factor(0.2, 0.21)).abs() < 1e-15);
    }

    #[test]
    fn force_law_signs() {
        assert_eq!(
            ForceLaw::Electrostatic { omega_p2: 4.0 }.periodic_prefactor(1.0),
            Some(-4.0)
        );
        assert_eq!(
            ForceLaw::Gravity { coupling: 2.0 }.periodic_prefactor(0.5),
            Some(2.0)
        );
        assert_eq!(
            ForceLaw::CosmologicalGravity.periodic_prefactor(0.5),
            Some(3.0)
        );
        assert!(ForceLaw::IsolatedGravity { coupling: 1.0 }
            .periodic_prefactor(1.0)
            .is_none());
    }
}
