//! The TreePM force composition (paper §5.1.2).
//!
//! The PM mesh solves the *long-range* potential for the **total** matter
//! density — CDM deposited from particles plus whatever extra comoving
//! density field the caller supplies (the Vlasov neutrinos, in the hybrid
//! driver). The Barnes–Hut tree adds the complementary short-range pair
//! forces between particles. In code units the coupling is
//!
//! ```text
//! ∇²φ = (3/2) (ρ_c - ρ̄_c) / a   ⇒   pair coupling g = 3 / (8π a)
//! ```
//!
//! (see `vlasov6d-cosmology` crate docs for the derivation).

use crate::particles::ParticleSet;
use crate::tree::{Tree, WalkStats};
use rayon::prelude::*;
use vlasov6d_mesh::assign::{deposit_equal_mass_par, interpolate, Scheme};
use vlasov6d_mesh::Field3;
use vlasov6d_poisson::{ForceSplit, PoissonSolver};

/// TreePM configuration and reusable plans.
#[derive(Debug, Clone)]
pub struct TreePm {
    /// PM mesh size per dimension.
    pub pm_dims: [usize; 3],
    /// Long/short split scale in box units (typically 1.25 PM cells).
    pub split: ForceSplit,
    /// Barnes–Hut opening angle.
    pub theta: f64,
    /// Plummer softening in box units.
    pub eps: f64,
    /// Tree-walk hard cutoff (where the short-range factor is negligible).
    pub r_cut: f64,
    solver: PoissonSolver,
}

impl TreePm {
    /// Standard configuration: split at 1.25 PM cells, cutoff at the 1e-5
    /// force-factor radius, θ = 0.5.
    pub fn new(pm_per_dim: usize, eps: f64) -> Self {
        let r_s = 1.25 / pm_per_dim as f64;
        let split = ForceSplit::new(r_s);
        let r_cut = split.cutoff_radius(1e-5);
        let solver = PoissonSolver::cubic(pm_per_dim)
            .with_long_range_split(r_s)
            .with_cic_deconvolution();
        Self {
            pm_dims: [pm_per_dim; 3],
            split,
            theta: 0.5,
            eps,
            r_cut,
            solver,
        }
    }

    pub fn with_theta(mut self, theta: f64) -> Self {
        self.theta = theta;
        self
    }

    /// Comoving CDM density field (ρ_crit units) from the particle set.
    pub fn deposit_density(&self, particles: &ParticleSet) -> Field3 {
        let mut rho = Field3::zeros(self.pm_dims);
        let cell_volume = 1.0 / (self.pm_dims[0] * self.pm_dims[1] * self.pm_dims[2]) as f64;
        deposit_equal_mass_par(
            &mut rho,
            Scheme::Cic,
            &particles.pos,
            particles.mass / cell_volume,
        );
        rho
    }

    /// Long-range potential of a total comoving density field (ρ_crit units)
    /// at expansion factor `a`: solves `∇²φ = (3/2)(ρ - ρ̄)/a` with the
    /// long-range taper.
    pub fn long_range_potential(&self, total_density: &Field3, a: f64) -> Field3 {
        let mut delta = total_density.clone();
        let mean = delta.mean();
        for v in delta.as_mut_slice() {
            *v -= mean;
        }
        self.solver.solve(&delta, 1.5 / a)
    }

    /// PM accelerations (canonical `du/dt`) of the particles in the given
    /// long-range potential.
    pub fn pm_accelerations(&self, phi: &Field3, positions: &[[f64; 3]]) -> Vec<[f64; 3]> {
        let force = PoissonSolver::force_from_potential(phi);
        positions
            .par_iter()
            .map(|&p| {
                [
                    interpolate(&force[0], Scheme::Cic, p),
                    interpolate(&force[1], Scheme::Cic, p),
                    interpolate(&force[2], Scheme::Cic, p),
                ]
            })
            .collect()
    }

    /// Tree (short-range) accelerations at expansion factor `a`.
    pub fn tree_accelerations(&self, particles: &ParticleSet, a: f64) -> Vec<[f64; 3]> {
        self.tree_accelerations_counted(particles, a).0
    }

    /// [`Self::tree_accelerations`] with the walk's counts, for callers that
    /// report interactions/s.
    pub fn tree_accelerations_counted(
        &self,
        particles: &ParticleSet,
        a: f64,
    ) -> (Vec<[f64; 3]>, WalkStats) {
        let tree = Tree::build(&particles.pos, particles.mass);
        let g = 3.0 / (8.0 * std::f64::consts::PI * a);
        tree.short_range_walk(
            &particles.pos,
            &self.split,
            self.theta,
            self.eps,
            self.r_cut,
            g,
        )
    }

    /// Full TreePM accelerations for the particles, with an optional extra
    /// comoving density field (the neutrinos) sharing the PM potential.
    /// Returns `(accelerations, long_range_potential)` — the potential is
    /// reused by the Vlasov velocity kicks.
    pub fn accelerations(
        &self,
        particles: &ParticleSet,
        extra_density: Option<&Field3>,
        a: f64,
    ) -> (Vec<[f64; 3]>, Field3) {
        let mut rho = self.deposit_density(particles);
        if let Some(extra) = extra_density {
            assert_eq!(
                extra.dims(),
                self.pm_dims,
                "extra density must live on the PM mesh"
            );
            rho.axpy(1.0, extra);
        }
        let phi = self.long_range_potential(&rho, a);
        let mut acc = self.pm_accelerations(&phi, &particles.pos);
        let tree_acc = self.tree_accelerations(particles, a);
        acc.par_iter_mut()
            .zip(tree_acc.par_iter())
            .for_each(|(a, t)| {
                for i in 0..3 {
                    a[i] += t[i];
                }
            });
        (acc, phi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::ewald_direct;

    fn random_particles(n: usize, seed: u64) -> ParticleSet {
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let pos: Vec<[f64; 3]> = (0..n).map(|_| [next(), next(), next()]).collect();
        ParticleSet {
            vel: vec![[0.0; 3]; n],
            pos,
            mass: 0.3 / n as f64,
        }
    }

    #[test]
    fn treepm_matches_ewald_reference() {
        // The decisive validation: tree-short + PM-long must reproduce the
        // exact periodic Newtonian force (Ewald sum) with the standard
        // few-percent TreePM accuracy.
        let particles = random_particles(64, 11);
        let tp = TreePm::new(32, 1e-4).with_theta(0.2);
        let (got, _) = tp.accelerations(&particles, None, 1.0);

        let g = 3.0 / (8.0 * std::f64::consts::PI);
        let reference: Vec<[f64; 3]> = ewald_direct(&particles.pos, particles.mass)
            .into_iter()
            .map(|a| [g * a[0], g * a[1], g * a[2]])
            .collect();

        let mut err2 = 0.0;
        let mut norm2 = 0.0;
        for (a, b) in got.iter().zip(&reference) {
            for i in 0..3 {
                err2 += (a[i] - b[i]).powi(2);
                norm2 += b[i].powi(2);
            }
        }
        let rel = (err2 / norm2).sqrt();
        assert!(rel < 0.05, "rms relative TreePM error vs Ewald: {rel}");
    }

    #[test]
    fn uniform_lattice_feels_no_force() {
        let particles = ParticleSet::lattice(8, 0.3);
        let tp = TreePm::new(16, 1e-4);
        let (acc, _) = tp.accelerations(&particles, None, 1.0);
        let max: f64 = acc
            .iter()
            .flat_map(|a| a.iter().map(|c| c.abs()))
            .fold(0.0, f64::max);
        // Symmetric configuration: residual forces are discretisation noise,
        // far below the force of a typical perturbation (~0.1 in these units).
        assert!(max < 1e-3, "max residual force {max}");
    }

    #[test]
    fn extra_density_sources_gravity() {
        // Drop a neutrino overdensity blob at the box centre with a single
        // test particle off-centre: the particle must be pulled toward it.
        let mut particles = random_particles(1, 7);
        particles.pos[0] = [0.3, 0.5, 0.5];
        particles.mass = 1e-9; // test mass: self-gravity negligible
        let tp = TreePm::new(32, 1e-4);
        let mut nu = Field3::zeros([32, 32, 32]);
        *nu.at_mut(16, 16, 16) = 1000.0;
        let (acc, _) = tp.accelerations(&particles, Some(&nu), 1.0);
        assert!(acc[0][0] > 0.0, "pull toward +x blob: {:?}", acc[0]);
        assert!(acc[0][1].abs() < 0.1 * acc[0][0]);
    }

    #[test]
    fn deeper_potential_at_higher_redshift() {
        // The 1/a factor: same configuration, a = 0.5 doubles accelerations.
        let particles = random_particles(32, 3);
        let tp = TreePm::new(16, 1e-4);
        let (a1, _) = tp.accelerations(&particles, None, 1.0);
        let (a05, _) = tp.accelerations(&particles, None, 0.5);
        for (x, y) in a1.iter().zip(&a05) {
            for i in 0..3 {
                assert!((2.0 * x[i] - y[i]).abs() < 1e-10 * (1.0 + x[i].abs() * 2.0));
            }
        }
    }

    #[test]
    fn momentum_is_nearly_conserved() {
        let particles = random_particles(128, 17);
        let tp = TreePm::new(32, 1e-4);
        let (acc, _) = tp.accelerations(&particles, None, 1.0);
        let typical: f64 = (acc
            .iter()
            .flat_map(|a| a.iter().map(|c| c * c))
            .sum::<f64>()
            / acc.len() as f64)
            .sqrt();
        for i in 0..3 {
            let total: f64 = acc.iter().map(|a| a[i]).sum();
            assert!(
                total.abs() < 0.05 * typical * (acc.len() as f64).sqrt(),
                "axis {i}: Σa = {total}, typical |a| = {typical}"
            );
        }
    }
}
