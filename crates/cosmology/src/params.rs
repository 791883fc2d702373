//! Cosmological parameter sets.

use crate::constants::NU_OMEGA_EV;

/// A flat ΛCDM + massive-neutrino parameter set.
///
/// The paper (§6.1) adopts the Planck-2015 cosmology with a summed neutrino
/// mass of `M_ν = 0.4 eV` (their fiducial) or `0.2 eV` (the comparison run of
/// Fig. 4). [`CosmologyParams::planck2015`] reproduces that setup.
///
/// Flatness is enforced: `Ω_Λ = 1 - Ω_cb - Ω_ν - Ω_r`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CosmologyParams {
    /// Normalised Hubble constant `h = H0 / (100 km/s/Mpc)`.
    pub h: f64,
    /// Total *matter* density parameter today, `Ω_m = Ω_c + Ω_b + Ω_ν`.
    pub omega_m: f64,
    /// Baryon density parameter today (only used by the transfer function).
    pub omega_b: f64,
    /// Radiation (photons + massless ν) density parameter today.
    pub omega_r: f64,
    /// Summed neutrino mass `M_ν = Σ m_i` \[eV\], shared equally among
    /// `n_nu_species` degenerate eigenstates (the paper's convention).
    pub m_nu_total_ev: f64,
    /// Number of massive neutrino eigenstates sharing `M_ν`.
    pub n_nu_species: usize,
    /// Scalar spectral index of the primordial spectrum.
    pub n_s: f64,
    /// Power-spectrum normalisation `σ8`.
    pub sigma8: f64,
}

impl CosmologyParams {
    /// Planck-2015-like parameters with the paper's fiducial `M_ν = 0.4 eV`.
    pub fn planck2015() -> Self {
        Self {
            h: 0.6774,
            omega_m: 0.3089,
            omega_b: 0.0486,
            omega_r: 9.16e-5,
            m_nu_total_ev: 0.4,
            n_nu_species: 3,
            n_s: 0.9667,
            sigma8: 0.8159,
        }
    }

    /// Same background, lighter neutrinos (`M_ν = 0.2 eV`) — the right-hand
    /// panel of the paper's Fig. 4.
    pub fn planck2015_light_nu() -> Self {
        Self {
            m_nu_total_ev: 0.2,
            ..Self::planck2015()
        }
    }

    /// An Einstein–de-Sitter toy cosmology (`Ω_m = 1`, no Λ, no ν) — handy in
    /// tests because it has closed-form solutions `a ∝ t^{2/3}`, `D(a) = a`.
    pub fn eds() -> Self {
        Self {
            h: 0.7,
            omega_m: 1.0,
            omega_b: 0.05,
            omega_r: 0.0,
            m_nu_total_ev: 0.0,
            n_nu_species: 3,
            n_s: 1.0,
            sigma8: 0.8,
        }
    }

    /// Mass of one neutrino eigenstate \[eV\].
    pub fn m_nu_ev(&self) -> f64 {
        if self.n_nu_species == 0 {
            0.0
        } else {
            self.m_nu_total_ev / self.n_nu_species as f64
        }
    }

    /// Neutrino density parameter today (non-relativistic limit),
    /// `Ω_ν = M_ν / (93.14 h² eV)`.
    pub fn omega_nu(&self) -> f64 {
        self.m_nu_total_ev / (NU_OMEGA_EV * self.h * self.h)
    }

    /// Neutrino mass fraction `f_ν = Ω_ν / Ω_m`.
    pub fn f_nu(&self) -> f64 {
        self.omega_nu() / self.omega_m
    }

    /// CDM+baryon ("cb") density parameter, i.e. the matter that the N-body
    /// particles represent: `Ω_cb = Ω_m - Ω_ν`.
    pub(crate) fn omega_cb(&self) -> f64 {
        self.omega_m - self.omega_nu()
    }

    /// Dark-energy density parameter from flatness.
    pub(crate) fn omega_lambda(&self) -> f64 {
        1.0 - self.omega_m - self.omega_r
    }

    /// Basic sanity checks; call once when a simulation is configured.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.h > 0.2 && self.h < 1.5) {
            return Err(format!("h = {} out of range", self.h));
        }
        if !(self.omega_m > 0.0 && self.omega_m <= 1.5) {
            return Err(format!("omega_m = {} out of range", self.omega_m));
        }
        if self.omega_b < 0.0 || self.omega_b > self.omega_m {
            return Err(format!("omega_b = {} out of range", self.omega_b));
        }
        if self.m_nu_total_ev < 0.0 {
            return Err("negative neutrino mass".into());
        }
        if self.omega_nu() > self.omega_m {
            return Err("omega_nu exceeds omega_m".into());
        }
        Ok(())
    }
}

impl Default for CosmologyParams {
    fn default() -> Self {
        Self::planck2015()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planck_omega_nu_is_about_one_percent() {
        let p = CosmologyParams::planck2015();
        let onu = p.omega_nu();
        assert!(onu > 0.008 && onu < 0.011, "omega_nu = {onu}");
        assert!((p.f_nu() - onu / p.omega_m).abs() < 1e-15);
    }

    #[test]
    fn flatness_closes_the_budget() {
        let p = CosmologyParams::planck2015();
        let total = p.omega_m + p.omega_r + p.omega_lambda();
        assert!((total - 1.0).abs() < 1e-14);
    }

    #[test]
    fn per_species_mass_split() {
        let p = CosmologyParams::planck2015();
        assert!((p.m_nu_ev() * 3.0 - 0.4).abs() < 1e-14);
    }

    #[test]
    fn validation_catches_nonsense() {
        let mut p = CosmologyParams::planck2015();
        assert!(p.validate().is_ok());
        p.m_nu_total_ev = -1.0;
        assert!(p.validate().is_err());
        p = CosmologyParams {
            omega_m: 2.0,
            ..CosmologyParams::planck2015()
        };
        assert!(p.validate().is_err());
    }
}
