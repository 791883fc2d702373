//! Shot noise, effective resolution and Vlasov-vs-particle comparison
//! metrics — the quantitative backbone of the paper's §5.4 and §7.2.
//!
//! The paper's argument (their Eq. 9–10): an N-body representation of a hot
//! component must smooth over `N_s` particles to beat shot noise down to
//! `1/√N_s`, which degrades its effective resolution to
//!
//! ```text
//! ΔL = N_s^{1/3} · L / N_ν^{1/3} = (L / N_ν^{1/3}) (S/N)^{2/3}.
//! ```
//!
//! A Vlasov grid has *no* shot noise, so its resolution is simply `L / N_x`.
//! [`equivalent_grid_resolution`] inverts the relation to find which Vlasov
//! grid an N-body run matches at a required S/N — reproducing the paper's
//! "TianNu ≈ H group at S/N = 100, ≈ U group at S/N = 50" equivalence.

use vlasov6d_mesh::Field3;

/// Effective spatial resolution (fraction of the box) of an N-body component
/// with `n_per_dim³` particles smoothed to signal-to-noise `s_over_n`
/// (paper Eq. 9).
pub fn effective_resolution(n_per_dim: usize, s_over_n: f64) -> f64 {
    assert!(n_per_dim > 0 && s_over_n > 0.0);
    s_over_n.powf(2.0 / 3.0) / n_per_dim as f64
}

/// The Vlasov grid size (cells per dimension) whose resolution matches an
/// N-body run of `n_per_dim³` particles at signal-to-noise `s_over_n`.
pub fn equivalent_grid_resolution(n_per_dim: usize, s_over_n: f64) -> f64 {
    1.0 / effective_resolution(n_per_dim, s_over_n)
}

/// Comparison metrics between a Vlasov density field and a particle-sampled
/// density field of the same component (paper Fig. 6).
#[derive(Debug, Clone, Copy)]
pub struct FieldComparison {
    /// RMS of the relative difference `(a-b)/mean`.
    pub rms_relative_diff: f64,
    /// Pearson correlation of the two fields.
    pub correlation: f64,
    /// Fraction of cells where the particle field is exactly empty — the
    /// starkest shot-noise symptom (the Vlasov field is never empty).
    pub empty_fraction_b: f64,
}

/// Compare two density fields cell by cell.
pub fn compare_fields(a: &Field3, b: &Field3) -> FieldComparison {
    assert_eq!(a.dims(), b.dims());
    let n = a.len() as f64;
    let (ma, mb) = (a.mean(), b.mean());
    // Relative scale: the mean for positive fields (densities), the rms for
    // sign-indefinite ones (velocity fields) — avoids dividing by ~0.
    let scale = ma.abs().max(a.rms()).max(1e-300);
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    let mut diff2 = 0.0;
    let mut empty = 0usize;
    for (&x, &y) in a.as_slice().iter().zip(b.as_slice()) {
        let (dx, dy) = (x - ma, y - mb);
        cov += dx * dy;
        va += dx * dx;
        vb += dy * dy;
        let rel = (x - y) / scale;
        diff2 += rel * rel;
        if y == 0.0 {
            empty += 1;
        }
    }
    FieldComparison {
        rms_relative_diff: (diff2 / n).sqrt(),
        correlation: if va > 0.0 && vb > 0.0 {
            cov / (va * vb).sqrt()
        } else {
            0.0
        },
        empty_fraction_b: empty as f64 / n,
    }
}

/// Fraction of *velocity-space* cells that are empty in a particle-based
/// representation with `n_particles` per spatial cell spread over `n_vel`
/// velocity cells (Poisson expectation `exp(-λ)` per cell on average is a
/// lower bound; we report the naive bound `max(0, 1 - n_particles/n_vel)`).
pub fn velocity_space_empty_bound(particles_per_cell: f64, n_velocity_cells: usize) -> f64 {
    (1.0 - particles_per_cell / n_velocity_cells as f64).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_equivalence_numbers() {
        // TianNu: 13824³ ν particles. At S/N = 100 → ΔL ≈ L/640 (paper);
        // at S/N = 50 → ΔL ≈ L/1018.
        let res100 = equivalent_grid_resolution(13824, 100.0);
        let res50 = equivalent_grid_resolution(13824, 50.0);
        assert!((res100 - 640.0).abs() / 640.0 < 0.01, "{res100}");
        assert!((res50 - 1018.0).abs() / 1018.0 < 0.01, "{res50}");
    }

    #[test]
    fn smoothing_more_particles_costs_resolution() {
        let hi_sn = effective_resolution(1024, 100.0);
        let lo_sn = effective_resolution(1024, 10.0);
        assert!(hi_sn > lo_sn, "higher S/N demands coarser resolution");
    }

    #[test]
    fn identical_fields_compare_perfectly() {
        let mut f = Field3::zeros_cubic(8);
        for (i, v) in f.as_mut_slice().iter_mut().enumerate() {
            *v = 1.0 + 0.3 * ((i as f64) * 0.17).sin();
        }
        let c = compare_fields(&f, &f);
        assert!(c.rms_relative_diff < 1e-14);
        assert!((c.correlation - 1.0).abs() < 1e-12);
        assert_eq!(c.empty_fraction_b, 0.0);
    }

    #[test]
    fn noisy_field_correlates_less() {
        let mut a = Field3::zeros_cubic(8);
        for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
            *v = 1.0 + 0.3 * ((i as f64) * 0.17).sin();
        }
        // b = a + strong deterministic "noise".
        let mut b = a.clone();
        for (i, v) in b.as_mut_slice().iter_mut().enumerate() {
            *v += 0.8 * (((i * 7919) % 101) as f64 / 101.0 - 0.5);
        }
        let c = compare_fields(&a, &b);
        assert!(c.correlation < 0.9);
        assert!(c.rms_relative_diff > 0.1);
    }

    #[test]
    fn empty_fraction_counts_zeros() {
        let a = Field3::from_vec([1, 1, 4], vec![1.0, 1.0, 1.0, 1.0]);
        let b = Field3::from_vec([1, 1, 4], vec![2.0, 0.0, 0.0, 2.0]);
        let c = compare_fields(&a, &b);
        assert_eq!(c.empty_fraction_b, 0.5);
    }

    #[test]
    fn velocity_space_emptiness_bound() {
        // The paper's Fig. 5 situation: ~8 particles per spatial cell vs
        // 64³ velocity cells → essentially all velocity cells empty.
        let bound = velocity_space_empty_bound(8.0, 64 * 64 * 64);
        assert!(bound > 0.9999);
        assert_eq!(velocity_space_empty_bound(1e9, 64), 0.0);
    }
}
