//! FLRW background evolution: `a(t)`, `H(a)` and the exact drift/kick
//! integrals used by the comoving-coordinate time steppers.
//!
//! Everything here works in *code units*: `H0 = 1` and times are measured in
//! Hubble times `1/H0`. The Friedmann equation is
//!
//! ```text
//! E²(a) = H²(a)/H0² = Ω_r a⁻⁴ + Ω_cb a⁻³ + Ω_ν(a) + Ω_Λ
//! ```
//!
//! with the exact (interpolated) massive-neutrino density `Ω_ν(a)` from
//! [`crate::neutrino::NeutrinoBackground`].

use crate::neutrino::NeutrinoBackground;
use crate::params::CosmologyParams;
use crate::quad;

/// Precomputed background evolution for one parameter set.
#[derive(Debug, Clone)]
pub struct Background {
    params: CosmologyParams,
    nu: NeutrinoBackground,
    /// `ln a` grid for the `t(a)` table (uniform).
    ln_a: Vec<f64>,
    /// Cosmic time `t(a)` in units of `1/H0` on the `ln_a` grid.
    t_of_a: Vec<f64>,
}

impl Background {
    /// Build the background, tabulating `t(a)` from deep in the radiation era
    /// (`a = 10⁻⁸`) to `a = 10`.
    pub fn new(params: CosmologyParams) -> Self {
        params.validate().expect("invalid cosmological parameters");
        let nu = NeutrinoBackground::new(&params);
        let n = 2048;
        let (ln_min, ln_max) = ((1e-8f64).ln(), (10.0f64).ln());
        let mut ln_a = Vec::with_capacity(n);
        let mut t_of_a = Vec::with_capacity(n);
        // Radiation-dominated analytic start: t ≈ a²/(2√Ω_r) (if Ω_r > 0),
        // otherwise matter-dominated t = (2/3) a^{3/2}/√Ω_m.
        let a0 = ln_min.exp();
        let t0 = if params.omega_r > 0.0 {
            a0 * a0 / (2.0 * params.omega_r.sqrt())
        } else {
            // Matter-dominated start: t = (2/3) a^{3/2} / √Ω_m.
            2.0 / 3.0 * a0.powf(1.5) / params.omega_m.sqrt()
        };
        let mut t = t0;
        ln_a.push(ln_min);
        t_of_a.push(t);
        let dln = (ln_max - ln_min) / (n - 1) as f64;
        let mut prev_ln = ln_min;
        for i in 1..n {
            let cur_ln = ln_min + dln * i as f64;
            // dt = da/(a E) = dln a / E.
            t += quad::simpson(
                |l| 1.0 / Self::e_squared_static(&params, &nu, l.exp()).sqrt(),
                prev_ln,
                cur_ln,
                8,
            );
            ln_a.push(cur_ln);
            t_of_a.push(t);
            prev_ln = cur_ln;
        }
        Self {
            params,
            nu,
            ln_a,
            t_of_a,
        }
    }

    fn e_squared_static(p: &CosmologyParams, nu: &NeutrinoBackground, a: f64) -> f64 {
        p.omega_r / (a * a * a * a)
            + p.omega_cb() / (a * a * a)
            + nu.omega_nu_of_a(a)
            + p.omega_lambda()
    }

    /// `E²(a) = H²(a)/H0²`.
    pub(crate) fn e_squared(&self, a: f64) -> f64 {
        Self::e_squared_static(&self.params, &self.nu, a)
    }

    /// Dimensionless Hubble rate `E(a) = H(a)/H0`.
    pub(crate) fn e_of_a(&self, a: f64) -> f64 {
        self.e_squared(a).sqrt()
    }

    /// Hubble rate in code units (`H0 = 1`).
    pub fn hubble(&self, a: f64) -> f64 {
        self.e_of_a(a)
    }

    /// Cosmic time `t(a)` in units of `1/H0`.
    pub fn time_of_a(&self, a: f64) -> f64 {
        let ln_a = a.ln();
        let (lo, hi) = (self.ln_a[0], *self.ln_a.last().unwrap());
        assert!(
            ln_a >= lo - 1e-12 && ln_a <= hi + 1e-12,
            "a = {a} outside the tabulated range"
        );
        let step = (hi - lo) / (self.ln_a.len() - 1) as f64;
        let i = (((ln_a - lo) / step) as usize).min(self.ln_a.len() - 2);
        let w = ((ln_a - self.ln_a[i]) / step).clamp(0.0, 1.0);
        self.t_of_a[i] * (1.0 - w) + self.t_of_a[i + 1] * w
    }

    /// Invert `t(a)` by bisection on the monotone table.
    pub fn a_of_time(&self, t: f64) -> f64 {
        let ts = &self.t_of_a;
        assert!(
            t >= ts[0] && t <= *ts.last().unwrap(),
            "t = {t} outside the tabulated range [{}, {}]",
            ts[0],
            ts.last().unwrap()
        );
        let mut lo = 0usize;
        let mut hi = ts.len() - 1;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if ts[mid] <= t {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let w = if ts[hi] > ts[lo] {
            (t - ts[lo]) / (ts[hi] - ts[lo])
        } else {
            0.0
        };
        (self.ln_a[lo] * (1.0 - w) + self.ln_a[hi] * w).exp()
    }

    /// Exact comoving drift integral `∫ dt/a² = ∫ da / (a³ E(a))` over
    /// `[a1, a2]`: a canonical velocity `u` displaces by `u × drift`.
    pub fn drift_factor(&self, a1: f64, a2: f64) -> f64 {
        quad::simpson_adaptive(
            |ln_a| {
                let a = ln_a.exp();
                1.0 / (a * a * self.e_of_a(a))
            },
            a1.ln(),
            a2.ln(),
            1e-11,
        )
    }

    /// Cosmic-time interval `Δt = ∫ da/(a E(a))`: in canonical variables the
    /// kick is `Δu = -∇φ × kick_factor`.
    pub fn kick_factor(&self, a1: f64, a2: f64) -> f64 {
        quad::simpson_adaptive(
            |ln_a| 1.0 / self.e_of_a(ln_a.exp()),
            a1.ln(),
            a2.ln(),
            1e-11,
        )
    }

    /// Matter (cb + ν, non-relativistic) density parameter today.
    pub fn omega_m(&self) -> f64 {
        self.params.omega_m
    }

    pub fn params(&self) -> &CosmologyParams {
        &self.params
    }

    pub fn neutrino(&self) -> &NeutrinoBackground {
        &self.nu
    }

    /// Redshift corresponding to scale factor `a`.
    pub fn redshift(a: f64) -> f64 {
        1.0 / a - 1.0
    }
}

#[cfg(test)]
impl Background {
    /// Scale factor a time `dt` (code units) after `a` — single Runge–Kutta-4
    /// step of `da/dt = a E(a)`, accurate enough for step-size control.
    pub(crate) fn advance_a(&self, a: f64, dt: f64) -> f64 {
        let f = |a: f64| a * self.e_of_a(a);
        let k1 = f(a);
        let k2 = f(a + 0.5 * dt * k1);
        let k3 = f(a + 0.5 * dt * k2);
        let k4 = f(a + dt * k3);
        a + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    }

    /// Poisson source prefactor in code units:
    /// `∇²φ = (3/2) Ω_m δ / a` (see crate docs). Returns `(3/2) Ω_m / a`.
    pub(crate) fn poisson_prefactor(&self, a: f64) -> f64 {
        1.5 * self.params.omega_m / a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eds() -> Background {
        Background::new(CosmologyParams::eds())
    }

    #[test]
    fn eds_age_is_two_thirds_hubble() {
        let bg = eds();
        let t0 = bg.time_of_a(1.0);
        assert!((t0 - 2.0 / 3.0).abs() < 1e-3, "t0 = {t0}");
    }

    #[test]
    fn eds_scale_factor_powerlaw() {
        let bg = eds();
        // a ∝ t^{2/3}: t(a=0.5)/t(a=1) = 0.5^{3/2}.
        let ratio = bg.time_of_a(0.5) / bg.time_of_a(1.0);
        assert!((ratio - 0.5f64.powf(1.5)).abs() < 1e-3, "ratio {ratio}");
    }

    #[test]
    fn a_of_time_inverts_time_of_a() {
        let bg = Background::new(CosmologyParams::planck2015());
        for &a in &[1e-3, 0.05, 0.2, 0.5, 0.9, 1.0] {
            let t = bg.time_of_a(a);
            let back = bg.a_of_time(t);
            assert!((back / a - 1.0).abs() < 1e-6, "a = {a}, back = {back}");
        }
    }

    #[test]
    fn e_of_a_today_is_unity() {
        let bg = Background::new(CosmologyParams::planck2015());
        // By construction Ω's sum to 1 at a=1 (ν slightly off non-rel, so ~%).
        assert!((bg.e_of_a(1.0) - 1.0).abs() < 0.01, "{}", bg.e_of_a(1.0));
    }

    #[test]
    fn drift_and_kick_factors_eds_closed_form() {
        // EdS: E = a^{-3/2};  kick = ∫ da a^{1/2} = (2/3)(a2^{3/2}-a1^{3/2});
        // drift = ∫ da a^{-3/2}... wait: da/(a³E) = da a^{-3/2}:
        // drift = 2 (a1^{-1/2} - a2^{-1/2}).
        let bg = eds();
        let (a1, a2) = (0.25, 1.0);
        let kick = bg.kick_factor(a1, a2);
        let drift = bg.drift_factor(a1, a2);
        let kick_exact = 2.0 / 3.0 * (a2.powf(1.5) - a1.powf(1.5));
        let drift_exact = 2.0 * (a1.powf(-0.5) - a2.powf(-0.5));
        assert!(
            (kick - kick_exact).abs() < 1e-8,
            "kick {kick} vs {kick_exact}"
        );
        assert!(
            (drift - drift_exact).abs() < 1e-8,
            "drift {drift} vs {drift_exact}"
        );
    }

    #[test]
    fn advance_a_consistent_with_table() {
        let bg = Background::new(CosmologyParams::planck2015());
        let a = 0.3;
        let dt = 1e-3;
        let a2 = bg.advance_a(a, dt);
        let t2 = bg.time_of_a(a) + dt;
        let a2_table = bg.a_of_time(t2);
        assert!((a2 / a2_table - 1.0).abs() < 1e-4, "{a2} vs {a2_table}");
    }

    #[test]
    fn massive_nu_raises_early_expansion_rate() {
        let with_nu = Background::new(CosmologyParams::planck2015());
        let without = Background::new(CosmologyParams {
            m_nu_total_ev: 0.0,
            ..CosmologyParams::planck2015()
        });
        // At z=9 massive neutrinos carry more energy than their z=0 rest mass
        // share, so E(a) should be at least as large.
        let a = 0.1;
        assert!(with_nu.e_of_a(a) >= without.e_of_a(a) * 0.999);
    }

    #[test]
    fn poisson_prefactor_scales_inverse_a() {
        let bg = Background::new(CosmologyParams::planck2015());
        let r = bg.poisson_prefactor(0.5) / bg.poisson_prefactor(1.0);
        assert!((r - 2.0).abs() < 1e-12);
    }
}
