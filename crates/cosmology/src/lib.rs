//! Background cosmology and linear-theory substrate for the `vlasov6d` hybrid
//! Vlasov/N-body simulation.
//!
//! This crate provides everything the simulation needs to know about the
//! expanding Universe without ever touching a grid:
//!
//! * [`constants`] — CODATA/astronomical constants in the Mpc–km/s–M☉–eV system.
//! * [`params`] — [`CosmologyParams`], the Planck-2015-like parameter set used by
//!   the paper (§6.1), including the summed neutrino mass `M_ν`.
//! * [`background`] — [`Background`]: Friedmann integration `a(t)`, Hubble rates,
//!   and the exact comoving drift/kick integrals used by both the Vlasov and the
//!   N-body time steppers.
//! * [`growth`] — linear growth factor `D(a)` and growth rate `f = dlnD/dlna`.
//! * [`transfer`] — BBKS and Eisenstein–Hu transfer functions and the normalised
//!   linear matter power spectrum.
//! * [`neutrino`] — relativistic Fermi–Dirac thermodynamics of the cosmic
//!   neutrino background: number density, energy density `Ω_ν(a)`, thermal
//!   velocities and the phase-space distribution `f(u)` loaded onto the 6-D grid.
//! * [`units`] — the internal code-unit system (`L_box = 1`, `1/H0 = 1`) and the
//!   conversions to physical Mpc/h – km/s – eV quantities.
//!
//! # Conventions
//!
//! Positions `x` are comoving, velocities are *canonical*, `u = a² dx/dt`, the
//! variable in which the collisionless dynamics takes the clean form used by the
//! paper's Eq. (1):
//!
//! ```text
//! dx/dt = u / a²,        du/dt = -∂φ/∂x,
//! ∇²φ = 4πG a² (ρ_proper - ρ̄_proper) = (3/2) Ωm H0² δ / a   (code units)
//! ```
//!
//! In code units (`H0 = 1`, box length `= 1`, critical density today `= 1`) the
//! right-hand side of the Poisson equation is `(3/2) Ωm δ(x) / a`.

pub mod background;
pub mod constants;
pub mod growth;
pub mod neutrino;
pub mod params;
pub mod transfer;
pub mod units;

pub use background::Background;
pub use growth::Growth;
pub use neutrino::{FermiDirac, NeutrinoBackground};
pub use params::CosmologyParams;
pub use transfer::{PowerSpectrum, TransferFunction};
pub use units::Units;

/// Numerical integration helpers shared across the crate (composite Simpson and
/// adaptive trapezoid on smooth integrands).
pub(crate) mod quad {
    /// Composite Simpson rule on `[a, b]` with `n` (even, ≥ 2) panels.
    pub(crate) fn simpson<F: Fn(f64) -> f64>(f: F, a: f64, b: f64, n: usize) -> f64 {
        let n = if n.is_multiple_of(2) { n.max(2) } else { n + 1 };
        let h = (b - a) / n as f64;
        let mut s = f(a) + f(b);
        for i in 1..n {
            let x = a + h * i as f64;
            s += f(x) * if i % 2 == 1 { 4.0 } else { 2.0 };
        }
        s * h / 3.0
    }

    /// Simpson with automatic panel doubling until the result is stable to
    /// `rel_tol` (or `max_doublings` is reached). Good enough for the smooth
    /// cosmological integrands in this crate.
    pub(crate) fn simpson_adaptive<F: Fn(f64) -> f64 + Copy>(
        f: F,
        a: f64,
        b: f64,
        rel_tol: f64,
    ) -> f64 {
        let mut n = 64;
        let mut prev = simpson(f, a, b, n);
        for _ in 0..12 {
            n *= 2;
            let next = simpson(f, a, b, n);
            if (next - prev).abs() <= rel_tol * next.abs().max(1e-300) {
                return next;
            }
            prev = next;
        }
        prev
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn simpson_integrates_cubic_exactly() {
            // Simpson is exact for polynomials up to degree 3.
            let got = simpson(|x| 3.0 * x * x * x - x + 2.0, -1.0, 2.0, 2);
            let exact = |x: f64| 0.75 * x.powi(4) - 0.5 * x * x + 2.0 * x;
            assert!((got - (exact(2.0) - exact(-1.0))).abs() < 1e-12);
        }

        #[test]
        fn adaptive_simpson_handles_exponential() {
            let got = simpson_adaptive(|x| (-x).exp(), 0.0, 20.0, 1e-12);
            assert!((got - (1.0 - (-20.0f64).exp())).abs() < 1e-10);
        }
    }
}
