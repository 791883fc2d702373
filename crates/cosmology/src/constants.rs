//! Physical and astronomical constants in the Mpc – km/s – M☉ – eV system used
//! throughout the workspace.

/// Speed of light \[km/s\].
pub(crate) const C_KM_S: f64 = 299_792.458;

/// Boltzmann constant \[eV / K\].
pub(crate) const K_B_EV_K: f64 = 8.617_333_262e-5;

/// Present-day CMB temperature \[K\] (Fixsen 2009).
pub(crate) const T_CMB_K: f64 = 2.7255;

/// Present-day relic-neutrino temperature \[K\]: `T_ν = (4/11)^{1/3} T_CMB`.
///
/// The instantaneous-decoupling value; the few-permille non-instantaneous
/// correction is absorbed into `N_eff` and irrelevant at the precision of the
/// simulation.
pub(crate) const T_NU_K: f64 = 1.945_368_839_175_084; // (4/11)^(1/3) * 2.7255

/// `Ω_ν h² = M_ν / NU_OMEGA_EV` for non-relativistic neutrinos
/// (the familiar 93.14 eV rule; Lesgourgues & Pastor 2006).
pub(crate) const NU_OMEGA_EV: f64 = 93.14;

/// Riemann ζ(3), used in Fermi–Dirac number-density normalisations.
pub(crate) const ZETA3: f64 = 1.202_056_903_159_594;

/// Mean Fermi–Dirac momentum in units of `k_B T_ν / c`:
/// `<q> = (7π⁴/180) / (3ζ(3)/2) ≈ 3.1514`.
pub const FD_MEAN_Q: f64 = 3.151_374_371_738_908;

/// RMS Fermi–Dirac momentum in units of `k_B T_ν / c`: `<q²>^{1/2} ≈ 3.5970`.
pub const FD_RMS_Q: f64 = 3.597_140_206_477_916;

/// Newton's constant \[Mpc (km/s)² / M☉\].
///
/// `G = 6.674e-11 m³ kg⁻¹ s⁻²` converted: this is the value standard in
/// cosmological N-body codes (e.g. GADGET uses 43007.1 in 10¹⁰M☉/h, kpc/h units).
#[cfg(test)]
pub(crate) const G_MPC_KMS2_MSUN: f64 = 4.300_917_270e-9;

/// Critical density today divided by h² \[M☉ / Mpc³\]:
/// `ρ_crit = 3 H0² / (8πG)` with `H0 = 100 km/s/Mpc`.
#[cfg(test)]
pub(crate) const RHO_CRIT_H2_MSUN_MPC3: f64 =
    3.0 * 100.0 * 100.0 / (8.0 * core::f64::consts::PI * G_MPC_KMS2_MSUN);

/// Seconds per (Mpc / (km/s)) — converts inverse Hubble rates to seconds.
#[cfg(test)]
pub(crate) const MPC_OVER_KMS_S: f64 = 3.085_677_581_491_367e19;

/// Years per (Mpc / (km/s)).
#[cfg(test)]
pub(crate) const MPC_OVER_KMS_YR: f64 = MPC_OVER_KMS_S / 3.155_76e7;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn critical_density_matches_textbook_value() {
        // ρ_crit/h² ≈ 2.775e11 M☉/Mpc³.
        assert!((RHO_CRIT_H2_MSUN_MPC3 / 2.775e11 - 1.0).abs() < 1e-3);
    }

    #[test]
    fn neutrino_temperature_is_four_elevenths_cubed() {
        let expect = (4.0f64 / 11.0).powf(1.0 / 3.0) * T_CMB_K;
        assert!((T_NU_K - expect).abs() < 1e-12);
    }

    #[test]
    fn hubble_time_order_of_magnitude() {
        // 1/H0 for h = 0.7 ≈ 14 Gyr.
        let t_hubble_yr = MPC_OVER_KMS_YR / 70.0;
        assert!(t_hubble_yr > 1.3e10 && t_hubble_yr < 1.5e10);
    }
}
