//! The internal code-unit system and conversions to physical units.
//!
//! Code units are chosen so the equations of motion carry no dimensional
//! constants (see crate docs):
//!
//! * length: the comoving box size `L_box` (so positions live in `[0, 1)`),
//! * time: the Hubble time `1/H0`,
//! * density: the critical density today `ρ_crit,0` (so mean total matter
//!   density is `Ω_m` in code units),
//! * velocity: `L_box · H0 = 100 · L_box[Mpc/h] km/s` — note the `h` cancels.
//!
//! Canonical velocities `u = a² dx/dt` use the same velocity unit.

/// Converter between code units and physical units for one box size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Units {
    /// Comoving box size \[Mpc/h\].
    pub box_mpc_h: f64,
    /// Normalised Hubble constant.
    pub h: f64,
}

impl Units {
    pub fn new(box_mpc_h: f64, h: f64) -> Self {
        assert!(box_mpc_h > 0.0 && h > 0.0);
        Self { box_mpc_h, h }
    }

    /// Velocity unit in km/s: `H0 × L_box = 100 L_box[Mpc/h]` km/s.
    pub fn velocity_unit_kms(&self) -> f64 {
        100.0 * self.box_mpc_h
    }

    /// Convert a velocity from code units to km/s.
    pub fn code_to_kms(&self, v_code: f64) -> f64 {
        v_code * self.velocity_unit_kms()
    }
}

#[cfg(test)]
impl Units {
    /// Convert a velocity from km/s to code units.
    pub(crate) fn kms_to_code(&self, v_kms: f64) -> f64 {
        v_kms / self.velocity_unit_kms()
    }

    /// Convert a comoving length from Mpc/h to code units (fraction of box).
    pub(crate) fn mpch_to_code(&self, l_mpc_h: f64) -> f64 {
        l_mpc_h / self.box_mpc_h
    }

    /// Convert a comoving length from code units to Mpc/h.
    pub(crate) fn code_to_mpch(&self, l_code: f64) -> f64 {
        l_code * self.box_mpc_h
    }

    /// Convert a wavenumber from h/Mpc to code units (`k_code = k · L_box`).
    pub(crate) fn k_to_code(&self, k_h_mpc: f64) -> f64 {
        k_h_mpc * self.box_mpc_h
    }

    /// Time unit in years: `1/H0 = (Mpc/(km/s))/(100 h)` converted to years.
    pub(crate) fn time_unit_yr(&self) -> f64 {
        crate::constants::MPC_OVER_KMS_YR / (100.0 * self.h)
    }

    /// Mass unit \[M☉/h\]: `ρ_crit,0 · L_box³` expressed per `h` (the natural
    /// N-body convention: ρ_crit = 2.775e11 h² M☉/Mpc³, L in Mpc/h).
    pub(crate) fn mass_unit_msun_h(&self) -> f64 {
        crate::constants::RHO_CRIT_H2_MSUN_MPC3 * self.box_mpc_h.powi(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn velocity_unit_is_100_lbox() {
        let u = Units::new(200.0, 0.6774);
        assert!((u.velocity_unit_kms() - 20_000.0).abs() < 1e-9);
        assert!((u.code_to_kms(u.kms_to_code(1234.5)) - 1234.5).abs() < 1e-9);
    }

    #[test]
    fn length_round_trip() {
        let u = Units::new(200.0, 0.7);
        assert!((u.code_to_mpch(u.mpch_to_code(8.0)) - 8.0).abs() < 1e-12);
        assert!((u.mpch_to_code(200.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn wavenumber_is_inverse_of_length() {
        let u = Units::new(500.0, 0.7);
        // The fundamental mode of the box, k = 2π/L in h/Mpc, is 2π in code.
        let k_fund = 2.0 * std::f64::consts::PI / 500.0;
        assert!((u.k_to_code(k_fund) - 2.0 * std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn hubble_time_in_years() {
        let u = Units::new(100.0, 0.7);
        let t = u.time_unit_yr();
        assert!(t > 1.3e10 && t < 1.5e10, "{t}");
    }

    #[test]
    fn mass_unit_matches_mean_density() {
        // A 200 Mpc/h box at critical density holds ~2.2e18 M☉/h.
        let u = Units::new(200.0, 0.7);
        let m = u.mass_unit_msun_h();
        assert!(m > 2.0e18 && m < 2.4e18, "{m:e}");
    }
}
