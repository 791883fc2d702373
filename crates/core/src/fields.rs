//! Field plumbing between the Vlasov spatial grid and the PM mesh.
//!
//! The paper runs the PM mesh finer than the Vlasov spatial grid
//! (`N_PM = 27 N_x`, i.e. 3× per dimension), so densities and forces must
//! cross resolutions: the neutrino density is CIC-deposited from Vlasov cell
//! centres onto the PM mesh, and the mesh force fields are CIC-interpolated
//! back at Vlasov cell centres.

use rayon::prelude::*;
use vlasov6d_fft::{freq, Complex64, Fft3};
use vlasov6d_mesh::assign::{deposit_equal_mass_par, interpolate, Scheme};
use vlasov6d_mesh::Field3;

/// Prolong a density field from a coarse grid (values = comoving density,
/// ρ_crit units) onto the finer PM mesh: trilinear interpolation at PM cell
/// centres, rescaled so the mean (= total mass, box volume 1) is conserved
/// exactly. Point-mass CIC deposit would leave comb artefacts at the paper's
/// 3× grid ratio; interpolation keeps the field smooth at the scales the
/// coarse grid actually resolves.
pub fn deposit_density_to_pm(coarse: &Field3, pm_dims: [usize; 3]) -> Field3 {
    let mut pm = sample_at_coarse_centers(coarse, pm_dims);
    let (coarse_mean, pm_mean) = (coarse.mean(), pm.mean());
    if pm_mean.abs() > 1e-300 {
        pm.scale(coarse_mean / pm_mean);
    }
    pm
}

/// Interpolate a PM-mesh field at the centres of a coarse grid's cells.
pub fn sample_at_coarse_centers(pm_field: &Field3, coarse_dims: [usize; 3]) -> Field3 {
    let [n0, n1, n2] = coarse_dims;
    let mut out = Field3::zeros(coarse_dims);
    out.as_mut_slice()
        .par_iter_mut()
        .enumerate()
        .for_each(|(idx, v)| {
            let i2 = idx % n2;
            let i1 = (idx / n2) % n1;
            let i0 = idx / (n1 * n2);
            let p = [
                (i0 as f64 + 0.5) / n0 as f64,
                (i1 as f64 + 0.5) / n1 as f64,
                (i2 as f64 + 0.5) / n2 as f64,
            ];
            *v = interpolate(pm_field, Scheme::Cic, p);
        });
    out
}

/// Deposit particles as a comoving density field (ρ_crit units).
pub fn particle_density(positions: &[[f64; 3]], particle_mass: f64, dims: [usize; 3]) -> Field3 {
    let cell_volume = 1.0 / (dims[0] * dims[1] * dims[2]) as f64;
    let mut rho = Field3::zeros(dims);
    deposit_equal_mass_par(
        &mut rho,
        Scheme::Cic,
        positions,
        particle_mass / cell_volume,
    );
    rho
}

/// Apply an isotropic k-space filter `t(k_code)` to a field (k in box units,
/// `k = 2π|m|`). Used for the ν free-streaming suppression of the ICs.
pub fn filter_kspace<T: Fn(f64) -> f64>(field: &Field3, t: T) -> Field3 {
    let dims = field.dims();
    let [n0, n1, n2] = dims;
    let mut data: Vec<Complex64> = field
        .as_slice()
        .iter()
        .map(|&v| Complex64::real(v))
        .collect();
    let plan = Fft3::new(dims);
    plan.forward(&mut data);
    let two_pi = 2.0 * std::f64::consts::PI;
    for i0 in 0..n0 {
        let m0 = freq(i0, n0);
        for i1 in 0..n1 {
            let m1 = freq(i1, n1);
            for i2 in 0..n2 {
                let m2 = freq(i2, n2);
                let k = two_pi * (m0 * m0 + m1 * m1 + m2 * m2).sqrt();
                let idx = (i0 * n1 + i1) * n2 + i2;
                data[idx] = data[idx].scale(t(k));
            }
        }
    }
    plan.inverse(&mut data);
    Field3::from_vec(dims, data.into_iter().map(|z| z.re).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deposit_conserves_total_mass() {
        let mut coarse = Field3::zeros_cubic(8);
        for (i, v) in coarse.as_mut_slice().iter_mut().enumerate() {
            *v = 0.5 + ((i * 7) % 13) as f64 / 13.0;
        }
        let pm = deposit_density_to_pm(&coarse, [16, 16, 16]);
        // Mean density (= total mass since box volume is 1) must match.
        assert!(
            (pm.mean() - coarse.mean()).abs() < 1e-12,
            "{} vs {}",
            pm.mean(),
            coarse.mean()
        );
    }

    #[test]
    fn uniform_density_stays_uniform_across_grids() {
        let mut coarse = Field3::zeros_cubic(8);
        coarse.fill(2.0);
        let pm = deposit_density_to_pm(&coarse, [24, 24, 24]);
        for &v in pm.as_slice() {
            assert!((v - 2.0).abs() < 1e-9, "{v}");
        }
    }

    #[test]
    fn sampling_recovers_smooth_fields() {
        let n_pm = 32;
        let mut pm = Field3::zeros_cubic(n_pm);
        for i0 in 0..n_pm {
            let x = (i0 as f64 + 0.5) / n_pm as f64;
            let v = (2.0 * std::f64::consts::PI * x).sin();
            for i1 in 0..n_pm {
                for i2 in 0..n_pm {
                    *pm.at_mut(i0, i1, i2) = v;
                }
            }
        }
        let coarse = sample_at_coarse_centers(&pm, [8, 8, 8]);
        for i0 in 0..8 {
            let x = (i0 as f64 + 0.5) / 8.0;
            let expect = (2.0 * std::f64::consts::PI * x).sin();
            assert!(
                (coarse.at(i0, 0, 0) - expect).abs() < 0.02,
                "{} vs {expect}",
                coarse.at(i0, 0, 0)
            );
        }
    }

    #[test]
    fn particle_density_mean_is_total_mass() {
        let positions = vec![[0.1, 0.2, 0.3], [0.7, 0.8, 0.9], [0.5, 0.5, 0.5]];
        let rho = particle_density(&positions, 0.1, [8, 8, 8]);
        assert!((rho.mean() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn kspace_filter_identity_and_zero() {
        let mut f = Field3::zeros_cubic(8);
        for (i, v) in f.as_mut_slice().iter_mut().enumerate() {
            *v = (i as f64 * 0.11).sin();
        }
        let same = filter_kspace(&f, |_| 1.0);
        for (a, b) in f.as_slice().iter().zip(same.as_slice()) {
            assert!((a - b).abs() < 1e-12);
        }
        let zero = filter_kspace(&f, |_| 0.0);
        assert!(zero.max_abs() < 1e-12);
    }

    #[test]
    fn kspace_filter_kills_selected_mode() {
        let n = 16;
        let mut f = Field3::zeros_cubic(n);
        for i0 in 0..n {
            let x = i0 as f64 / n as f64;
            let v = (2.0 * std::f64::consts::PI * x).sin()
                + (2.0 * std::f64::consts::PI * 5.0 * x).sin();
            for i1 in 0..n {
                for i2 in 0..n {
                    *f.at_mut(i0, i1, i2) = v;
                }
            }
        }
        // Low-pass below k = 2π·3.
        let lp = filter_kspace(&f, |k| {
            if k < 2.0 * std::f64::consts::PI * 3.0 {
                1.0
            } else {
                0.0
            }
        });
        for i0 in 0..n {
            let x = i0 as f64 / n as f64;
            let expect = (2.0 * std::f64::consts::PI * x).sin();
            assert!((lp.at(i0, 4, 4) - expect).abs() < 1e-10);
        }
    }
}
