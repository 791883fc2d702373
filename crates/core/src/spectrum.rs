//! Power-spectrum measurement of simulation fields.
//!
//! The physical observable the paper's programme feeds (its §1–2): massive
//! neutrinos suppress the small-scale matter power spectrum, and measuring
//! that suppression in galaxy surveys weighs the neutrino. This module turns
//! component density fields into `P(k)` and the suppression ratio between
//! runs.
//!
//! The estimator matches the IC generator's convention
//! (`vlasov6d-ic::grf`): `P_code(k) = <|δ_k|²>/N²` with box length 1, so a
//! measured spectrum of the initial conditions reproduces the input linear
//! spectrum by construction (tested there).

use vlasov6d_ic::measure_power;
use vlasov6d_mesh::Field3;

/// A binned auto-spectrum of a density field's *contrast* `δ = ρ/ρ̄ - 1`.
#[derive(Debug, Clone)]
pub struct Spectrum {
    /// Bin-centre wavenumbers (code units, `k = 2π|m|`).
    pub k: Vec<f64>,
    /// Binned power.
    pub p: Vec<f64>,
    /// Modes per bin.
    pub modes: Vec<usize>,
}

impl Spectrum {
    /// Measure the contrast spectrum of a (positive-mean) density field.
    pub fn of_density(rho: &Field3, n_bins: usize) -> Self {
        let mut delta = rho.clone();
        delta.to_density_contrast();
        let (k, p, modes) = measure_power(&delta, n_bins);
        Self { k, p, modes }
    }

    /// Convert bin wavenumbers to h/Mpc for a box of `box_mpc_h`.
    pub fn k_h_mpc(&self, box_mpc_h: f64) -> Vec<f64> {
        self.k
            .iter()
            .map(|k| k / (2.0 * std::f64::consts::PI) * (2.0 * std::f64::consts::PI) / box_mpc_h)
            .collect()
    }

    /// Bin-wise ratio against another spectrum on the same binning
    /// (0 where either is empty) — the suppression observable.
    pub fn ratio(&self, other: &Spectrum) -> Vec<f64> {
        assert_eq!(self.k.len(), other.k.len(), "ratio needs identical binning");
        self.p
            .iter()
            .zip(&other.p)
            .map(|(&a, &b)| if b > 0.0 { a / b } else { 0.0 })
            .collect()
    }
}

#[cfg(test)]
impl Spectrum {
    /// Bins carrying at least `min_modes` modes (the usable range).
    pub(crate) fn well_sampled(&self, min_modes: usize) -> Vec<(f64, f64)> {
        self.k
            .iter()
            .zip(&self.p)
            .zip(&self.modes)
            .filter(|(_, &m)| m >= min_modes)
            .map(|((&k, &p), _)| (k, p))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single_mode_field(n: usize, m: usize, amp: f64) -> Field3 {
        let mut f = Field3::zeros_cubic(n);
        for i0 in 0..n {
            let x = (i0 as f64 + 0.5) / n as f64;
            let v = 1.0 + amp * (2.0 * std::f64::consts::PI * m as f64 * x).cos();
            for i1 in 0..n {
                for i2 in 0..n {
                    *f.at_mut(i0, i1, i2) = v;
                }
            }
        }
        f
    }

    #[test]
    fn single_mode_lands_in_the_right_bin() {
        let n = 32;
        let m = 4;
        let amp = 0.1;
        let spec = Spectrum::of_density(&single_mode_field(n, m, amp), 16);
        // All power concentrated near k = 2π·4.
        let k_target = 2.0 * std::f64::consts::PI * m as f64;
        let (i_max, _) = spec
            .p
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        assert!(
            (spec.k[i_max] - k_target).abs() < spec.k[1] - spec.k[0],
            "peak at k = {} want {k_target}",
            spec.k[i_max]
        );
        // Amplitude: a cos mode of contrast amp has |δ_k|²/N² = amp²/4 in
        // each of the ±k bins.
        let binned: f64 = spec
            .p
            .iter()
            .zip(&spec.modes)
            .map(|(&p, &c)| p * c as f64)
            .sum();
        assert!(
            (binned / (amp * amp / 4.0 * 2.0) - 1.0).abs() < 1e-9,
            "{binned}"
        );
    }

    #[test]
    fn constant_field_has_zero_power() {
        let mut f = Field3::zeros_cubic(16);
        f.fill(3.0);
        let spec = Spectrum::of_density(&f, 8);
        assert!(spec.p.iter().all(|&p| p < 1e-25));
    }

    #[test]
    fn ratio_of_scaled_fields() {
        let base = single_mode_field(16, 2, 0.05);
        let strong = single_mode_field(16, 2, 0.10);
        let s1 = Spectrum::of_density(&base, 8);
        let s2 = Spectrum::of_density(&strong, 8);
        let r = s2.ratio(&s1);
        // Power ratio = amplitude² ratio = 4 in the populated bin.
        let (i_max, _) =
            s1.p.iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap();
        assert!((r[i_max] - 4.0).abs() < 1e-6, "{}", r[i_max]);
    }

    #[test]
    fn well_sampled_filters_empty_bins() {
        let spec = Spectrum::of_density(&single_mode_field(16, 2, 0.1), 8);
        let all = spec.well_sampled(1).len();
        let strict = spec.well_sampled(10_000).len();
        assert!(all > strict);
    }
}
