//! Reference force calculations: O(N²) direct summation and an Ewald sum.
//!
//! These are the ground truth the tree and TreePM are validated against —
//! slow, simple, and written independently of the tree code.

use crate::particles::min_image;
use rayon::prelude::*;
use vlasov6d_poisson::split::erfc;
use vlasov6d_poisson::ForceSplit;

/// Direct min-image summation of the *short-range* kernel (same physics the
/// tree approximates): `acc_i = Σ_j m S(r_ij) d_ij / (r_ij² + ε²)^{3/2}`.
pub(crate) fn short_range_direct(
    positions: &[[f64; 3]],
    mass: f64,
    split: &ForceSplit,
    eps: f64,
    r_cut: f64,
) -> Vec<[f64; 3]> {
    positions
        .par_iter()
        .map(|&p| {
            let mut acc = [0.0f64; 3];
            for &q in positions {
                let d = min_image(p, q);
                let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                if r2 == 0.0 || r2 > r_cut * r_cut {
                    continue;
                }
                let r = r2.sqrt();
                let f = mass * split.short_force_factor(r) / (r2 + eps * eps).powf(1.5);
                for i in 0..3 {
                    acc[i] += f * d[i];
                }
            }
            acc
        })
        .collect()
}

/// Exact periodic (Ewald-summed) Newtonian acceleration factor `A(d)` such
/// that the acceleration of a target due to a unit-mass source displaced by
/// `d = x_source - x_target` is `g·A(d)`; `A(d) → d/|d|³` as `d → 0`.
///
/// Internal split scale `rs`, real-space images within `±n_img`, k-space
/// modes with `|m_i| ≤ m_max`. Defaults suitable for 1e-4 accuracy:
/// `rs = 0.05, n_img = 1, m_max = 10`.
pub(crate) fn ewald_accel_factor(d: [f64; 3], rs: f64, n_img: i32, m_max: i32) -> [f64; 3] {
    let mut acc = [0.0f64; 3];
    // Real-space image sum with the erfc-complementary short-range kernel.
    for nx in -n_img..=n_img {
        for ny in -n_img..=n_img {
            for nz in -n_img..=n_img {
                let s = [d[0] + nx as f64, d[1] + ny as f64, d[2] + nz as f64];
                let r2 = s[0] * s[0] + s[1] * s[1] + s[2] * s[2];
                if r2 == 0.0 {
                    continue;
                }
                let r = r2.sqrt();
                let x = r / (2.0 * rs);
                let fac =
                    (erfc(x) + r / (rs * std::f64::consts::PI.sqrt()) * (-x * x).exp()) / (r2 * r);
                for i in 0..3 {
                    acc[i] += fac * s[i];
                }
            }
        }
    }
    // k-space sum: A_k(d) = Σ_{m≠0} (4π/k²) e^{-k² rs²} k sin(k·d),
    // k = 2π m (box length 1, unit volume).
    let two_pi = 2.0 * std::f64::consts::PI;
    for mx in -m_max..=m_max {
        for my in -m_max..=m_max {
            for mz in -m_max..=m_max {
                if mx == 0 && my == 0 && mz == 0 {
                    continue;
                }
                let k = [two_pi * mx as f64, two_pi * my as f64, two_pi * mz as f64];
                let k2 = k[0] * k[0] + k[1] * k[1] + k[2] * k[2];
                let phase = k[0] * d[0] + k[1] * d[1] + k[2] * d[2];
                let amp = 4.0 * std::f64::consts::PI / k2 * (-k2 * rs * rs).exp() * phase.sin();
                for i in 0..3 {
                    acc[i] += amp * k[i];
                }
            }
        }
    }
    acc
}

/// Fully periodic Newtonian accelerations by pairwise Ewald summation —
/// O(N² · Ewald cost); testing sizes only.
pub(crate) fn ewald_direct(positions: &[[f64; 3]], mass: f64) -> Vec<[f64; 3]> {
    positions
        .par_iter()
        .map(|&p| {
            let mut acc = [0.0f64; 3];
            for &q in positions {
                if p == q {
                    continue;
                }
                let d = min_image(p, q);
                let a = ewald_accel_factor(d, 0.05, 1, 10);
                for i in 0..3 {
                    acc[i] += mass * a[i];
                }
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewald_factor_is_newtonian_at_small_separation() {
        let d = [0.01, 0.0, 0.0];
        let a = ewald_accel_factor(d, 0.05, 1, 10);
        let newton = 1.0 / (0.01f64 * 0.01);
        assert!((a[0] / newton - 1.0).abs() < 2e-3, "{} vs {newton}", a[0]);
        assert!(a[1].abs() < 1e-9 && a[2].abs() < 1e-9);
    }

    #[test]
    fn ewald_factor_is_antisymmetric() {
        let d = [0.13, -0.21, 0.32];
        let a = ewald_accel_factor(d, 0.05, 1, 10);
        let b = ewald_accel_factor([-d[0], -d[1], -d[2]], 0.05, 1, 10);
        for i in 0..3 {
            assert!((a[i] + b[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn ewald_factor_is_insensitive_to_internal_split_scale() {
        // The Ewald sum must not depend on the (arbitrary) internal rs.
        let d = [0.2, 0.1, -0.05];
        let a = ewald_accel_factor(d, 0.05, 1, 12);
        let b = ewald_accel_factor(d, 0.07, 1, 12);
        for i in 0..3 {
            assert!(
                (a[i] - b[i]).abs() < 1e-4 * (1.0 + a[i].abs()),
                "axis {i}: {} vs {}",
                a[i],
                b[i]
            );
        }
    }

    #[test]
    fn ewald_force_at_half_box_vanishes_by_symmetry() {
        // A source displaced by exactly (1/2, 1/2, 1/2) pulls equally from
        // all images — zero net force.
        let a = ewald_accel_factor([0.5, 0.5, 0.5], 0.05, 1, 10);
        for c in a {
            assert!(c.abs() < 1e-8, "{a:?}");
        }
    }

    #[test]
    fn total_momentum_change_vanishes_direct() {
        let pos = vec![
            [0.1, 0.2, 0.3],
            [0.4, 0.5, 0.6],
            [0.75, 0.15, 0.9],
            [0.33, 0.88, 0.44],
        ];
        let acc = ewald_direct(&pos, 0.25);
        for i in 0..3 {
            let total: f64 = acc.iter().map(|a| a[i]).sum();
            assert!(total.abs() < 1e-8, "axis {i}: {total}");
        }
    }
}
