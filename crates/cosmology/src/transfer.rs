//! Linear matter transfer functions and the normalised power spectrum used to
//! draw Gaussian initial conditions.
//!
//! Two classic analytic transfer functions are provided:
//!
//! * [`TransferFunction::Bbks`] — Bardeen, Bond, Kaiser & Szalay (1986) with
//!   the Sugiyama (1995) shape parameter; simple and robust.
//! * [`TransferFunction::EisensteinHu`] — the Eisenstein & Hu (1998)
//!   zero-baryon ("no-wiggle") form, which captures the baryon suppression of
//!   the small-scale slope without the acoustic oscillations.
//!
//! Massive neutrinos suppress small-scale power; for the *linear* input
//! spectrum we apply the standard approximation `ΔP/P → -8 f_ν` below the
//! free-streaming scale with a smooth interpolation (Hu, Eisenstein &
//! Tegmark 1998). This is the level of realism the simulation's initial
//! conditions need — the nonlinear ν dynamics is what the Vlasov solver itself
//! computes.

use crate::constants::T_CMB_K;
use crate::params::CosmologyParams;
use crate::quad;

/// Analytic transfer-function family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferFunction {
    /// BBKS (1986) CDM transfer function with the Sugiyama (1995) Γ.
    Bbks,
    /// Eisenstein & Hu (1998) no-wiggle transfer function.
    EisensteinHu,
}

impl TransferFunction {
    /// Evaluate `T(k)` with `k` in h/Mpc; normalised so `T(k→0) = 1`.
    pub fn evaluate(&self, k_h_mpc: f64, p: &CosmologyParams) -> f64 {
        if k_h_mpc <= 0.0 {
            return 1.0;
        }
        match self {
            TransferFunction::Bbks => {
                let gamma = p.omega_m
                    * p.h
                    * (-p.omega_b - (2.0 * p.h).sqrt() * p.omega_b / p.omega_m).exp();
                let q = k_h_mpc / gamma;
                let l = (1.0 + 2.34 * q).ln() / (2.34 * q);
                l * (1.0 + 3.89 * q + (16.1 * q).powi(2) + (5.46 * q).powi(3) + (6.71 * q).powi(4))
                    .powf(-0.25)
            }
            TransferFunction::EisensteinHu => {
                let theta = T_CMB_K / 2.7;
                let om_h2 = p.omega_m * p.h * p.h;
                let ob_h2 = p.omega_b * p.h * p.h;
                let fb = p.omega_b / p.omega_m;
                // Sound horizon (EH98 eq. 26), Mpc.
                let s = 44.5 * (9.83 / om_h2).ln() / (1.0 + 10.0 * ob_h2.powf(0.75)).sqrt();
                // α_Γ (eq. 31).
                let alpha =
                    1.0 - 0.328 * (431.0 * om_h2).ln() * fb + 0.38 * (22.3 * om_h2).ln() * fb * fb;
                // Effective shape (eq. 30); k s with k in 1/Mpc = k_h * h.
                let ks = k_h_mpc * p.h * s;
                let gamma_eff =
                    p.omega_m * p.h * (alpha + (1.0 - alpha) / (1.0 + (0.43 * ks).powi(4)));
                let q = k_h_mpc * theta * theta / gamma_eff;
                let l0 = (2.0 * core::f64::consts::E + 1.8 * q).ln();
                let c0 = 14.2 + 731.0 / (1.0 + 62.5 * q);
                l0 / (l0 + c0 * q * q)
            }
        }
    }
}

/// Normalised linear matter power spectrum `P(k)` at `z = 0`, in
/// (Mpc/h)³ with `k` in h/Mpc.
#[derive(Debug, Clone)]
pub struct PowerSpectrum {
    params: CosmologyParams,
    transfer: TransferFunction,
    /// Amplitude fixed by σ8.
    amplitude: f64,
}

impl PowerSpectrum {
    /// Build and normalise to `params.sigma8`.
    pub fn new(params: CosmologyParams, transfer: TransferFunction) -> Self {
        let mut ps = Self {
            params,
            transfer,
            amplitude: 1.0,
        };
        let s8 = ps.sigma_r(8.0);
        ps.amplitude = (params.sigma8 / s8).powi(2);
        ps
    }

    /// Approximate linear free-streaming wavenumber \[h/Mpc\] at z=0 for the
    /// (degenerate) neutrino eigenstate: `k_fs ≈ 0.82 √(ΩΛ+Ωm) (m/1eV)/(1+z)²`
    /// in h/Mpc (Lesgourgues & Pastor 2006 eq. 114 evaluated today).
    pub fn k_free_streaming(&self) -> f64 {
        let m = self.params.m_nu_ev();
        if m <= 0.0 {
            return f64::INFINITY;
        }
        0.82 * (self.params.omega_lambda() + self.params.omega_m).sqrt() * (m / 1.0)
    }

    /// Scale-dependent neutrino suppression factor on *power* (not amplitude):
    /// smoothly goes from 1 at `k ≪ k_fs` to `1 - 8 f_ν` at `k ≫ k_fs`.
    pub(crate) fn nu_suppression_factor(&self, k_h_mpc: f64) -> f64 {
        if self.params.m_nu_total_ev <= 0.0 {
            return 1.0;
        }
        let fnu = self.params.f_nu();
        let kfs = self.k_free_streaming();
        let x = (k_h_mpc / kfs).powi(2);
        1.0 - 8.0 * fnu * x / (1.0 + x)
    }

    /// `P(k)` \[(Mpc/h)³\] at z = 0.
    pub fn power(&self, k_h_mpc: f64) -> f64 {
        if k_h_mpc <= 0.0 {
            return 0.0;
        }
        let t = self.transfer.evaluate(k_h_mpc, &self.params);
        self.amplitude * k_h_mpc.powf(self.params.n_s) * t * t * self.nu_suppression_factor(k_h_mpc)
    }

    /// Dimensionless power `Δ²(k) = k³ P(k) / 2π²`.
    pub(crate) fn delta2(&self, k_h_mpc: f64) -> f64 {
        k_h_mpc.powi(3) * self.power(k_h_mpc) / (2.0 * core::f64::consts::PI.powi(2))
    }

    /// RMS linear fluctuation in a top-hat sphere of radius `r` \[Mpc/h\].
    pub(crate) fn sigma_r(&self, r: f64) -> f64 {
        let integrand = |ln_k: f64| {
            let k = ln_k.exp();
            let x = k * r;
            let w = if x < 1e-3 {
                1.0 - x * x / 10.0
            } else {
                3.0 * (x.sin() - x * x.cos()) / (x * x * x)
            };
            // dσ²/dlnk = Δ²(k) W²(kR)
            self.delta2(k) * w * w
        };
        quad::simpson_adaptive(integrand, (1e-5f64).ln(), (1e3f64).ln(), 1e-8).sqrt()
    }

    pub fn params(&self) -> &CosmologyParams {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_functions_limit_to_unity() {
        let p = CosmologyParams::planck2015();
        for tf in [TransferFunction::Bbks, TransferFunction::EisensteinHu] {
            let t = tf.evaluate(1e-5, &p);
            assert!((t - 1.0).abs() < 0.01, "{tf:?}: {t}");
        }
    }

    #[test]
    fn transfer_functions_decay_at_small_scales() {
        let p = CosmologyParams::planck2015();
        for tf in [TransferFunction::Bbks, TransferFunction::EisensteinHu] {
            let t1 = tf.evaluate(0.1, &p);
            let t2 = tf.evaluate(1.0, &p);
            let t3 = tf.evaluate(10.0, &p);
            assert!(t1 > t2 && t2 > t3, "{tf:?}: {t1} {t2} {t3}");
            assert!(t3 < 1e-2);
        }
    }

    #[test]
    fn sigma8_normalisation_holds() {
        let p = CosmologyParams::planck2015();
        let ps = PowerSpectrum::new(p, TransferFunction::EisensteinHu);
        let s8 = ps.sigma_r(8.0);
        assert!((s8 / p.sigma8 - 1.0).abs() < 1e-6, "σ8 = {s8}");
    }

    #[test]
    fn power_peaks_near_equality_scale() {
        let p = CosmologyParams::planck2015();
        let ps = PowerSpectrum::new(p, TransferFunction::EisensteinHu);
        // P(k) should rise at k < k_eq (~0.01 h/Mpc) and fall at k > 0.1.
        assert!(ps.power(0.02) > ps.power(0.002));
        assert!(ps.power(0.02) > ps.power(1.0));
    }

    #[test]
    fn nu_suppression_reaches_8fnu() {
        let p = CosmologyParams::planck2015();
        let ps = PowerSpectrum::new(p, TransferFunction::EisensteinHu);
        let deep = ps.nu_suppression_factor(100.0);
        assert!((deep - (1.0 - 8.0 * p.f_nu())).abs() < 0.02, "{deep}");
        let large = ps.nu_suppression_factor(1e-4);
        assert!((large - 1.0).abs() < 1e-3);
    }

    #[test]
    fn heavier_neutrinos_suppress_more() {
        let heavy = PowerSpectrum::new(
            CosmologyParams::planck2015(),
            TransferFunction::EisensteinHu,
        );
        let light = PowerSpectrum::new(
            CosmologyParams::planck2015_light_nu(),
            TransferFunction::EisensteinHu,
        );
        // At fixed σ8 both integrate to the same σ8, but the *shape* differs:
        // the ratio P_heavy/P_light decreases with k.
        let r_small = heavy.power(0.01) / light.power(0.01);
        let r_large = heavy.power(5.0) / light.power(5.0);
        assert!(r_large < r_small, "{r_large} !< {r_small}");
    }
}
