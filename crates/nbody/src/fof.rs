//! Friends-of-friends (FoF) halo finder.
//!
//! The paper's closing argument is that the hybrid approach "resolv\[es\]
//! nonlinear objects such as galaxy clusters" while covering survey volumes;
//! a halo catalogue is how that claim is consumed downstream. Standard FoF:
//! particles closer than `b` times the mean inter-particle spacing join the
//! same group (periodic box), groups above a minimum size form the catalogue.
//!
//! Implementation: a cell-linked grid of side `≥ linking length` makes
//! neighbour queries O(1); union–find with path compression merges pairs.

use crate::particles::min_image;
use crate::particles::ParticleSet;

/// One FoF group.
#[derive(Debug, Clone)]
pub struct Halo {
    /// Member particle indices.
    pub members: Vec<u32>,
    /// Centre of mass (periodic-aware, box units).
    pub center: [f64; 3],
    /// Total mass.
    pub mass: f64,
    /// RMS extent around the centre.
    pub radius: f64,
}

/// Disjoint-set forest with path halving and union by size.
struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
    }
}

/// Find FoF groups with linking parameter `b` (canonically 0.2) and a
/// minimum group size. Positions must lie in the unit box.
pub fn find_halos(particles: &ParticleSet, b: f64, min_members: usize) -> Vec<Halo> {
    let n = particles.len();
    if n == 0 {
        return Vec::new();
    }
    let spacing = 1.0 / (n as f64).cbrt();
    let link = b * spacing;
    assert!(link < 0.5, "linking length must stay below half a box");

    // Cell-linked list on a grid of side ≥ link.
    let n_cells = ((1.0 / link).floor() as usize).clamp(1, 256);
    let cell_of = |p: &[f64; 3]| -> [usize; 3] {
        [
            ((p[0] * n_cells as f64) as usize).min(n_cells - 1),
            ((p[1] * n_cells as f64) as usize).min(n_cells - 1),
            ((p[2] * n_cells as f64) as usize).min(n_cells - 1),
        ]
    };
    let flat = |c: [usize; 3]| (c[0] * n_cells + c[1]) * n_cells + c[2];
    let mut heads: Vec<i64> = vec![-1; n_cells * n_cells * n_cells];
    let mut next: Vec<i64> = vec![-1; n];
    for (i, p) in particles.pos.iter().enumerate() {
        let c = flat(cell_of(p));
        next[i] = heads[c];
        heads[c] = i as i64;
    }

    // Link pairs within 27 neighbouring cells (periodic).
    let mut uf = UnionFind::new(n);
    let link2 = link * link;
    for (i, p) in particles.pos.iter().enumerate() {
        let c = cell_of(p);
        for dx in -1i64..=1 {
            for dy in -1i64..=1 {
                for dz in -1i64..=1 {
                    let nc = [
                        (c[0] as i64 + dx).rem_euclid(n_cells as i64) as usize,
                        (c[1] as i64 + dy).rem_euclid(n_cells as i64) as usize,
                        (c[2] as i64 + dz).rem_euclid(n_cells as i64) as usize,
                    ];
                    let mut j = heads[flat(nc)];
                    while j >= 0 {
                        let ju = j as usize;
                        if ju > i {
                            let d = min_image(*p, particles.pos[ju]);
                            if d[0] * d[0] + d[1] * d[1] + d[2] * d[2] <= link2 {
                                uf.union(i as u32, j as u32);
                            }
                        }
                        j = next[ju];
                    }
                }
            }
        }
    }

    // Collect groups.
    let mut groups: std::collections::HashMap<u32, Vec<u32>> = std::collections::HashMap::new();
    for i in 0..n as u32 {
        groups.entry(uf.find(i)).or_default().push(i);
    }
    let mut halos: Vec<Halo> = groups
        .into_values()
        .filter(|m| m.len() >= min_members)
        .map(|members| halo_properties(particles, members))
        .collect();
    halos.sort_by(|a, b| b.mass.partial_cmp(&a.mass).unwrap());
    halos
}

/// Periodic-aware centre of mass and extent.
fn halo_properties(particles: &ParticleSet, members: Vec<u32>) -> Halo {
    // Accumulate displacements relative to the first member (min-image),
    // which is safe as long as the halo is much smaller than the box.
    let anchor = particles.pos[members[0] as usize];
    let mut acc = [0.0f64; 3];
    for &m in &members {
        let d = min_image(anchor, particles.pos[m as usize]);
        for i in 0..3 {
            acc[i] += d[i];
        }
    }
    let nm = members.len() as f64;
    let mut center = [0.0f64; 3];
    for i in 0..3 {
        center[i] = (anchor[i] + acc[i] / nm).rem_euclid(1.0);
    }
    let mut r2 = 0.0;
    for &m in &members {
        let d = min_image(center, particles.pos[m as usize]);
        r2 += d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
    }
    Halo {
        mass: particles.mass * nm,
        center,
        radius: (r2 / nm).sqrt(),
        members,
    }
}

/// A simple cumulative halo mass function: `(mass thresholds, counts ≥ m)`.
pub fn mass_function(halos: &[Halo], n_bins: usize) -> (Vec<f64>, Vec<usize>) {
    if halos.is_empty() {
        return (Vec::new(), Vec::new());
    }
    let m_max = halos[0].mass;
    let m_min = halos.last().unwrap().mass;
    let thresholds: Vec<f64> = (0..n_bins)
        .map(|i| m_min * (m_max / m_min).powf(i as f64 / (n_bins - 1).max(1) as f64))
        .collect();
    let counts = thresholds
        .iter()
        .map(|&t| halos.iter().filter(|h| h.mass >= t).count())
        .collect();
    (thresholds, counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster_at(center: [f64; 3], n: usize, r: f64, seed: u64) -> Vec<[f64; 3]> {
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        (0..n)
            .map(|_| {
                [
                    (center[0] + r * next()).rem_euclid(1.0),
                    (center[1] + r * next()).rem_euclid(1.0),
                    (center[2] + r * next()).rem_euclid(1.0),
                ]
            })
            .collect()
    }

    fn set(pos: Vec<[f64; 3]>) -> ParticleSet {
        let n = pos.len();
        ParticleSet {
            pos,
            vel: vec![[0.0; 3]; n],
            mass: 1.0 / n as f64,
        }
    }

    #[test]
    fn two_well_separated_clusters_found() {
        let mut pos = cluster_at([0.25, 0.25, 0.25], 60, 0.01, 1);
        pos.extend(cluster_at([0.75, 0.75, 0.75], 40, 0.01, 2));
        let p = set(pos);
        let halos = find_halos(&p, 0.2, 10);
        assert_eq!(halos.len(), 2, "found {} halos", halos.len());
        assert_eq!(halos[0].members.len(), 60);
        assert_eq!(halos[1].members.len(), 40);
        // Centres recovered.
        let d = min_image(halos[0].center, [0.25, 0.25, 0.25]);
        assert!(d.iter().all(|&c| c.abs() < 0.01), "{:?}", halos[0].center);
    }

    #[test]
    fn uniform_lattice_has_no_halos_at_small_b() {
        // Lattice spacing = mean spacing; b = 0.2 links nothing.
        let p = ParticleSet::lattice(8, 1.0);
        let halos = find_halos(&p, 0.2, 2);
        assert!(halos.is_empty(), "{} spurious halos", halos.len());
    }

    #[test]
    fn uniform_lattice_is_one_group_at_large_b() {
        // b ≥ 1 links every lattice neighbour: one percolating group.
        let p = ParticleSet::lattice(6, 1.0);
        let halos = find_halos(&p, 1.05, 2);
        assert_eq!(halos.len(), 1);
        assert_eq!(halos[0].members.len(), 216);
    }

    #[test]
    fn halo_across_the_periodic_seam() {
        let pos = cluster_at([0.999, 0.5, 0.5], 50, 0.008, 3);
        let p = set(pos);
        let halos = find_halos(&p, 0.25, 10);
        assert_eq!(halos.len(), 1);
        // Centre near the seam, not dragged to the box middle.
        let d = min_image(halos[0].center, [0.999, 0.5, 0.5]);
        assert!(d.iter().all(|&c| c.abs() < 0.02), "{:?}", halos[0].center);
    }

    #[test]
    fn min_members_filters_field_particles() {
        let mut pos = cluster_at([0.3, 0.3, 0.3], 50, 0.01, 5);
        // Lone wanderers.
        pos.push([0.9, 0.1, 0.5]);
        pos.push([0.1, 0.9, 0.2]);
        let p = set(pos);
        let halos = find_halos(&p, 0.2, 10);
        assert_eq!(halos.len(), 1);
        assert_eq!(halos[0].members.len(), 50);
    }

    #[test]
    fn mass_function_is_monotone() {
        let mut pos = cluster_at([0.2, 0.2, 0.2], 80, 0.01, 7);
        pos.extend(cluster_at([0.6, 0.6, 0.6], 40, 0.01, 8));
        pos.extend(cluster_at([0.9, 0.2, 0.7], 20, 0.01, 9));
        let p = set(pos);
        let halos = find_halos(&p, 0.2, 10);
        assert_eq!(halos.len(), 3);
        let (thresholds, counts) = mass_function(&halos, 5);
        assert_eq!(thresholds.len(), 5);
        for w in counts.windows(2) {
            assert!(w[1] <= w[0], "cumulative counts must decrease");
        }
        assert_eq!(counts[0], 3);
        assert_eq!(*counts.last().unwrap(), 1);
    }
}
