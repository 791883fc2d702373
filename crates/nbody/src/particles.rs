//! Particle storage and loaders.

use rayon::prelude::*;

/// Equal-mass particle set in the periodic unit box.
///
/// Positions are comoving box coordinates in `[0, 1)`; velocities are
/// canonical (`u = a² dx/dt`) in code units — the same variables the Vlasov
/// grid uses, so drift/kick factors are shared. Stored as two SoA arrays of
/// `[f64; 3]` (the paper keeps N-body data in double precision).
#[derive(Debug, Clone)]
pub struct ParticleSet {
    pub pos: Vec<[f64; 3]>,
    pub vel: Vec<[f64; 3]>,
    /// Mass of each particle (code units, ρ_crit·box³ = 1).
    pub mass: f64,
}

impl ParticleSet {
    /// Empty set with a given per-particle mass.
    pub fn new(mass: f64) -> Self {
        Self {
            pos: Vec::new(),
            vel: Vec::new(),
            mass,
        }
    }

    /// `n³` particles on a regular lattice at rest, total mass `total_mass`.
    /// The standard pre-initial-condition load for cosmological runs.
    pub fn lattice(n_per_dim: usize, total_mass: f64) -> Self {
        let n3 = n_per_dim.pow(3);
        let mut pos = Vec::with_capacity(n3);
        for i in 0..n_per_dim {
            for j in 0..n_per_dim {
                for k in 0..n_per_dim {
                    pos.push([
                        (i as f64 + 0.5) / n_per_dim as f64,
                        (j as f64 + 0.5) / n_per_dim as f64,
                        (k as f64 + 0.5) / n_per_dim as f64,
                    ]);
                }
            }
        }
        Self {
            vel: vec![[0.0; 3]; n3],
            pos,
            mass: total_mass / n3 as f64,
        }
    }

    pub fn len(&self) -> usize {
        self.pos.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    pub fn total_mass(&self) -> f64 {
        self.mass * self.len() as f64
    }

    /// Total canonical momentum `m Σ u`.
    pub fn total_momentum(&self) -> [f64; 3] {
        let mut p = [0.0f64; 3];
        for v in &self.vel {
            for d in 0..3 {
                p[d] += v[d];
            }
        }
        for d in 0..3 {
            p[d] *= self.mass;
        }
        p
    }

    /// RMS canonical speed.
    pub fn rms_speed(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let s: f64 = self
            .vel
            .par_iter()
            .map(|v| v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
            .sum();
        (s / self.len() as f64).sqrt()
    }
}

/// Minimum-image displacement `b - a` in the periodic unit box.
#[inline]
pub fn min_image(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
    let mut d = [0.0f64; 3];
    for i in 0..3 {
        let mut x = b[i] - a[i];
        if x > 0.5 {
            x -= 1.0;
        } else if x < -0.5 {
            x += 1.0;
        }
        d[i] = x;
    }
    d
}

#[cfg(test)]
impl ParticleSet {
    /// Wrap all positions back into `[0, 1)`.
    pub(crate) fn wrap_positions(&mut self) {
        self.pos.par_iter_mut().for_each(|p| {
            for x in p.iter_mut() {
                *x = x.rem_euclid(1.0);
                // rem_euclid(1.0) of -1e-17 returns 1.0 exactly; fold it back.
                if *x >= 1.0 {
                    *x = 0.0;
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_is_uniform_and_massive() {
        let p = ParticleSet::lattice(4, 0.25);
        assert_eq!(p.len(), 64);
        assert!((p.total_mass() - 0.25).abs() < 1e-15);
        assert!(p
            .pos
            .iter()
            .all(|x| x.iter().all(|&c| (0.0..1.0).contains(&c))));
        // Centre of mass sits at the box centre.
        let com: [f64; 3] = p.pos.iter().fold([0.0; 3], |mut acc, x| {
            for d in 0..3 {
                acc[d] += x[d] / 64.0;
            }
            acc
        });
        for c in com {
            assert!((c - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn wrap_positions_brings_strays_home() {
        let mut p = ParticleSet::new(1.0);
        p.pos = vec![[1.25, -0.25, 0.5], [3.0, -2.0, 0.999]];
        p.vel = vec![[0.0; 3]; 2];
        p.wrap_positions();
        for x in &p.pos {
            assert!(x.iter().all(|&c| (0.0..1.0).contains(&c)), "{x:?}");
        }
        assert!((p.pos[0][0] - 0.25).abs() < 1e-12);
        assert!((p.pos[0][1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn min_image_takes_shortest_path() {
        let d = min_image([0.9, 0.1, 0.5], [0.1, 0.9, 0.5]);
        assert!((d[0] - 0.2).abs() < 1e-15);
        assert!((d[1] + 0.2).abs() < 1e-15);
        assert_eq!(d[2], 0.0);
    }

    #[test]
    fn momentum_of_opposite_pair_vanishes() {
        let mut p = ParticleSet::new(2.0);
        p.pos = vec![[0.2; 3], [0.8; 3]];
        p.vel = vec![[1.0, -2.0, 3.0], [-1.0, 2.0, -3.0]];
        let m = p.total_momentum();
        assert!(m.iter().all(|&c| c.abs() < 1e-14));
        assert!((p.rms_speed() - (14.0f64).sqrt()).abs() < 1e-12);
    }
}
