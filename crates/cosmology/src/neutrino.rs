//! Thermodynamics and phase-space distribution of the cosmic neutrino
//! background.
//!
//! Relic neutrinos decouple while ultra-relativistic, so their *comoving*
//! momentum distribution is a frozen relativistic Fermi–Dirac,
//!
//! ```text
//! f(q) ∝ 1 / (exp(q c / k_B T_ν0) + 1)
//! ```
//!
//! with `q = a p` the comoving momentum and `T_ν0` the present-day neutrino
//! temperature. In the canonical velocity variable used by the simulation,
//! `u = a² dx/dt = q/m` (non-relativistic), this distribution is *independent
//! of time*: free streaming in the expanding background is exactly captured by
//! the `u/a²` advection term of the Vlasov equation (paper Eq. 1). That is why
//! the 6-D grid is loaded once at the initial redshift with [`FermiDirac`] and
//! never rescaled.

use crate::constants::{C_KM_S, FD_RMS_Q, K_B_EV_K, T_NU_K, ZETA3};
use crate::params::CosmologyParams;
use crate::quad;

/// `∫₀^∞ x²/(eˣ+1) dx = (3/2) ζ(3)` — the Fermi–Dirac number-density integral.
pub(crate) const FD_NUMBER_INTEGRAL: f64 = 1.5 * ZETA3;

/// The frozen Fermi–Dirac distribution of one massive-neutrino species,
/// expressed in the canonical velocity `u` \[km/s\].
#[derive(Debug, Clone, Copy)]
pub struct FermiDirac {
    /// Thermal velocity scale `u_T = k_B T_ν0 c / (m c²)` \[km/s\]: the
    /// canonical velocity of a neutrino carrying comoving momentum
    /// `q = k_B T_ν0 / c`.
    pub u_thermal_kms: f64,
    /// Neutrino eigenstate mass \[eV\].
    pub m_nu_ev: f64,
}

impl FermiDirac {
    /// Distribution for a single eigenstate of mass `m_nu_ev` \[eV\].
    ///
    /// # Panics
    /// Panics if the mass is not strictly positive — a massless species never
    /// becomes non-relativistic and cannot be put on the velocity grid.
    pub fn new(m_nu_ev: f64) -> Self {
        assert!(
            m_nu_ev > 0.0,
            "FermiDirac requires a positive neutrino mass"
        );
        let kt_ev = K_B_EV_K * T_NU_K;
        Self {
            u_thermal_kms: kt_ev / m_nu_ev * C_KM_S,
            m_nu_ev,
        }
    }

    /// Unnormalised occupation `1/(exp(u/u_T) + 1)` at canonical speed `u` \[km/s\].
    #[inline]
    pub fn occupation(&self, u_kms: f64) -> f64 {
        1.0 / ((u_kms.abs() / self.u_thermal_kms).exp() + 1.0)
    }

    /// Probability *density* in 3-D canonical-velocity space \[ (km/s)⁻³ \],
    /// normalised so `∫ f d³u = 1`.
    #[inline]
    pub fn density(&self, u_kms: [f64; 3]) -> f64 {
        let u = (u_kms[0] * u_kms[0] + u_kms[1] * u_kms[1] + u_kms[2] * u_kms[2]).sqrt();
        self.occupation(u) / self.norm()
    }

    /// Normalisation `∫ occupation d³u = 4π u_T³ (3/2)ζ(3)`.
    #[inline]
    pub fn norm(&self) -> f64 {
        4.0 * core::f64::consts::PI * self.u_thermal_kms.powi(3) * FD_NUMBER_INTEGRAL
    }

    /// RMS canonical speed `<u²>^{1/2} = 3.5970 u_T` \[km/s\].
    pub fn rms_speed(&self) -> f64 {
        FD_RMS_Q * self.u_thermal_kms
    }

    /// One-dimensional velocity dispersion `σ_1D = <u²>^{1/2}/√3` \[km/s\].
    pub fn sigma_1d(&self) -> f64 {
        self.rms_speed() / 3.0f64.sqrt()
    }
}

/// Exact (numerically integrated) evolution of the neutrino energy density,
/// smoothly interpolating between the relativistic `a⁻⁴` and non-relativistic
/// `a⁻³` regimes. Used by [`crate::Background`] in the Friedmann equation.
#[derive(Debug, Clone)]
pub struct NeutrinoBackground {
    omega_nu_nr: f64,
    m_nu_ev: f64,
    /// Cached `(ln a, Ω_ν(a)·a³/Ω_ν,nr)` table for fast interpolation.
    table_ln_a: Vec<f64>,
    table_ratio: Vec<f64>,
}

impl NeutrinoBackground {
    pub fn new(params: &CosmologyParams) -> Self {
        let omega_nu_nr = params.omega_nu();
        let m_nu_ev = params.m_nu_ev();
        let n = 256;
        let (ln_a_min, ln_a_max) = ((1e-9f64).ln(), (10.0f64).ln());
        let mut table_ln_a = Vec::with_capacity(n);
        let mut table_ratio = Vec::with_capacity(n);
        for i in 0..n {
            let ln_a = ln_a_min + (ln_a_max - ln_a_min) * i as f64 / (n - 1) as f64;
            table_ln_a.push(ln_a);
            table_ratio.push(Self::energy_ratio(m_nu_ev, ln_a.exp()));
        }
        Self {
            omega_nu_nr,
            m_nu_ev,
            table_ln_a,
            table_ratio,
        }
    }

    /// `<E(a)> / (m c²)`: mean neutrino energy in units of its rest mass.
    /// → 1 deep in the non-relativistic regime, ∝ 1/a when relativistic.
    fn energy_ratio(m_nu_ev: f64, a: f64) -> f64 {
        if m_nu_ev <= 0.0 {
            return 1.0;
        }
        // x = q c / (k_B T_ν0); proper momentum p c = x k_B T_ν0 / a  [eV].
        let kt = K_B_EV_K * T_NU_K;
        let num = quad::simpson(
            |x| {
                let pc = x * kt / a;
                x * x * (pc * pc + m_nu_ev * m_nu_ev).sqrt() / (x.exp() + 1.0)
            },
            1e-8,
            40.0,
            512,
        );
        let den = FD_NUMBER_INTEGRAL * m_nu_ev;
        num / den
    }

    /// `Ω_ν(a)`: neutrino energy density at scale factor `a` relative to the
    /// *present-day* critical density (so the Friedmann equation reads
    /// `E²(a) = ... + Ω_ν(a) + ...` with no extra powers of `a`).
    pub(crate) fn omega_nu_of_a(&self, a: f64) -> f64 {
        if self.omega_nu_nr == 0.0 {
            return 0.0;
        }
        self.omega_nu_nr * self.energy_ratio_interp(a) / (a * a * a)
    }

    fn energy_ratio_interp(&self, a: f64) -> f64 {
        let ln_a = a.ln();
        let t = &self.table_ln_a;
        if ln_a <= t[0] {
            // Deep radiation era: extrapolate the 1/a behaviour.
            return self.table_ratio[0] * (t[0].exp() / a);
        }
        if ln_a >= *t.last().unwrap() {
            return *self.table_ratio.last().unwrap();
        }
        let step = (t[t.len() - 1] - t[0]) / (t.len() - 1) as f64;
        let i = (((ln_a - t[0]) / step) as usize).min(t.len() - 2);
        let w = (ln_a - t[i]) / (t[i + 1] - t[i]);
        self.table_ratio[i] * (1.0 - w) + self.table_ratio[i + 1] * w
    }

    /// Per-eigenstate Fermi–Dirac distribution, or `None` for massless ν.
    pub fn fermi_dirac(&self) -> Option<FermiDirac> {
        (self.m_nu_ev > 0.0).then(|| FermiDirac::new(self.m_nu_ev))
    }
}

#[cfg(test)]
impl FermiDirac {
    /// A velocity-space cube half-width `V` that contains all but a fraction
    /// `~exp(-V/u_T)` of the distribution. The paper's production runs use a
    /// fixed `[-V, V)³` box; six thermal scales keeps the truncated mass below
    /// 10⁻³ while the grid still resolves the thermal core.
    pub(crate) fn suggested_vmax(&self, n_thermal: f64) -> f64 {
        n_thermal * self.rms_speed()
    }

    /// Fraction of the norm carried by speeds `|u| > v` — used to check how
    /// much mass the truncation at the velocity-box edge discards.
    pub(crate) fn tail_fraction(&self, v_kms: f64) -> f64 {
        let x0 = v_kms / self.u_thermal_kms;
        let tail = quad::simpson_adaptive(|x| x * x / (x.exp() + 1.0), x0, x0 + 60.0, 1e-10);
        tail / FD_NUMBER_INTEGRAL
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::FD_MEAN_Q;
    use crate::quad;

    #[test]
    fn fd_number_integral_value() {
        let got = quad::simpson_adaptive(|x| x * x / (x.exp() + 1.0), 1e-10, 60.0, 1e-12);
        assert!((got - FD_NUMBER_INTEGRAL).abs() < 1e-8, "got {got}");
    }

    #[test]
    fn thermal_velocity_matches_rule_of_thumb() {
        // v_th ≈ 158 km/s for m = 0.1 eV per the <q>=3.15 k_B T rule... more
        // precisely u_T*3.151 ≈ 1583 km/s for 0.1 eV? Check against first
        // principles: u_T = kT c/m.
        let fd = FermiDirac::new(0.1);
        let expect_ut = K_B_EV_K * T_NU_K / 0.1 * C_KM_S;
        assert!((fd.u_thermal_kms - expect_ut).abs() < 1e-9);
        // Mean speed for 0.1 eV neutrinos today is ~1500-1600 km/s.
        let mean_speed = FD_MEAN_Q * fd.u_thermal_kms;
        assert!(mean_speed > 1400.0 && mean_speed < 1700.0, "{mean_speed}");
    }

    #[test]
    fn fd_density_normalises_to_one() {
        let fd = FermiDirac::new(0.13);
        // ∫ f d³u over radius via 4π u² du.
        let got = quad::simpson_adaptive(
            |u| 4.0 * core::f64::consts::PI * u * u * fd.density([u, 0.0, 0.0]),
            0.0,
            60.0 * fd.u_thermal_kms,
            1e-10,
        );
        assert!((got - 1.0).abs() < 1e-6, "norm {got}");
    }

    #[test]
    fn moments_match_tabulated_constants() {
        let fd = FermiDirac::new(0.2);
        let ut = fd.u_thermal_kms;
        let mean = quad::simpson_adaptive(|x| x * x * x / (x.exp() + 1.0), 1e-10, 80.0, 1e-12)
            / FD_NUMBER_INTEGRAL;
        assert!((FD_MEAN_Q - mean).abs() < 1e-6);
        let msq = quad::simpson_adaptive(|x| x * x * x * x / (x.exp() + 1.0), 1e-10, 80.0, 1e-12)
            / FD_NUMBER_INTEGRAL;
        assert!((fd.rms_speed() / ut - msq.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn tail_fraction_decreases_and_is_small_at_suggested_vmax() {
        let fd = FermiDirac::new(0.4 / 3.0);
        let v6 = fd.suggested_vmax(3.0);
        let f1 = fd.tail_fraction(v6);
        let f2 = fd.tail_fraction(v6 * 1.5);
        assert!(f1 < 5e-3, "tail at 3 rms speeds should be small, got {f1}");
        assert!(f2 < f1);
    }

    #[test]
    fn omega_nu_limits() {
        let p = CosmologyParams::planck2015();
        let nb = NeutrinoBackground::new(&p);
        // Today: equals the non-relativistic value to better than a percent
        // (0.4 eV neutrinos are safely non-relativistic at z=0).
        let today = nb.omega_nu_of_a(1.0);
        assert!((today / nb.omega_nu_nr - 1.0).abs() < 0.02, "{today}");
        // Deep in the radiation era the density scales like a⁻⁴:
        let r1 = nb.omega_nu_of_a(1e-7) * (1e-7f64).powi(4);
        let r2 = nb.omega_nu_of_a(1e-8) * (1e-8f64).powi(4);
        assert!((r1 / r2 - 1.0).abs() < 0.05, "{r1} vs {r2}");
        // And it is monotonically decreasing with a:
        assert!(nb.omega_nu_of_a(0.1) > nb.omega_nu_of_a(0.5));
        assert!(nb.omega_nu_of_a(0.5) > nb.omega_nu_of_a(1.0));
    }

    #[test]
    fn massless_background_is_zero() {
        let mut p = CosmologyParams::planck2015();
        p.m_nu_total_ev = 0.0;
        let nb = NeutrinoBackground::new(&p);
        assert_eq!(nb.omega_nu_of_a(0.5), 0.0);
        assert!(nb.fermi_dirac().is_none());
    }
}
