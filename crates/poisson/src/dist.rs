//! Distributed Poisson solve on pencil-decomposed density fields.
//!
//! Mirrors [`crate::solver::PoissonSolver`] (the same spectral Green's
//! function, zero DC mode, optional long-range taper) but runs over
//! `vlasov6d-mpisim` with the distributed FFT [`vlasov6d_fft::Pencil2D`] — the
//! structure of the paper's parallel PM part: local transforms, all-to-all
//! transposes, k-space multiply, inverse. [`DistPoisson::new`] is the slab decomposition
//! `DistributedVlasov` runs, the `P × 1` rank grid (capped at `min(n0, n1)`
//! ranks); [`DistPoisson::new_pencil`] takes any `Pr × Pc` grid, whose
//! overlapped transpose stages let the PM grid spread over rank counts a
//! slab cannot reach.

use vlasov6d_fft::{freq, Complex64, Pencil2D};
use vlasov6d_mpisim::{Comm, CommPlan};

use crate::solver::green;

/// Distributed spectral Poisson plan (see `vlasov6d-fft::pencil` for the
/// layouts).
#[derive(Debug, Clone)]
pub struct DistPoisson {
    fft: Pencil2D,
    split_rs: Option<f64>,
}

impl DistPoisson {
    /// Slab decomposition over `n_ranks` ranks: the `n_ranks × 1` pencil grid.
    pub fn new(dims: [usize; 3], n_ranks: usize) -> Self {
        Self::new_pencil(dims, n_ranks, 1)
    }

    /// 2-D pencil decomposition over a `rows × cols` rank grid.
    pub fn new_pencil(dims: [usize; 3], rows: usize, cols: usize) -> Self {
        Self {
            fft: Pencil2D::new(dims, rows, cols),
            split_rs: None,
        }
    }

    /// Keep only the long-range part (`exp(-k² r_s²)` taper, box units).
    pub fn with_long_range_split(mut self, r_s: f64) -> Self {
        assert!(r_s > 0.0);
        self.split_rs = Some(r_s);
        self
    }

    /// Local input length in real values (the z-pencil block).
    pub fn local_len(&self) -> usize {
        self.fft.zpencil_len()
    }

    /// Global `[i0, i1, i2]` coordinate of a flat index in this rank's local
    /// input block.
    pub fn local_coords(&self, rank: usize, flat: usize) -> [usize; 3] {
        self.fft.zpencil_coords(rank, flat)
    }

    /// Tags consumed by one [`Self::solve`] call starting at `tag`.
    pub fn tag_span(&self) -> u64 {
        2 * self.fft.tag_span()
    }

    /// Declarative communication plan of one [`Self::solve`] call at `tag`:
    /// the forward transposes starting at `tag`, the inverse transposes in
    /// the following tag window. Verify with volume symmetry (the
    /// transposes are all-to-all, so no Cartesian topology applies).
    pub fn solve_plan(&self, tag: u64) -> CommPlan {
        let mut plan = CommPlan::new("poisson.dist_solve", self.fft.n_ranks());
        self.fft.add_forward(&mut plan, tag);
        self.fft.add_inverse(&mut plan, tag + self.fft.tag_span());
        plan
    }

    /// Solve `∇²φ = prefactor · source` for this rank's block of the source
    /// (which must have zero global mean up to the dropped DC mode).
    pub fn solve(&self, comm: &Comm, local_source: &[f64], prefactor: f64, tag: u64) -> Vec<f64> {
        assert_eq!(local_source.len(), self.local_len());
        let _obs = vlasov6d_obs::span!("poisson.dist_solve", vlasov6d_obs::Bucket::Pm);
        let complex: Vec<Complex64> = local_source.iter().map(|&v| Complex64::real(v)).collect();
        let me = comm.rank();

        let mut spec = self.fft.forward(comm, &complex, tag);
        let [n0, n1, n2] = self.fft.dims();
        for (flat, z) in spec.iter_mut().enumerate() {
            let [i1, i0, i2] = self.fft.spectral_coords(me, flat);
            let m = [freq(i0, n0), freq(i1, n1), freq(i2, n2)];
            *z = green(m, prefactor, self.split_rs).map_or(Complex64::ZERO, |g| z.scale(g));
        }
        let back = self.fft.inverse(comm, &spec, tag + self.fft.tag_span());
        back.into_iter().map(|z| z.re).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::PoissonSolver;
    use vlasov6d_mesh::Field3;
    use vlasov6d_mpisim::Universe;

    fn random_zero_mean(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut v: Vec<f64> = (0..n).map(|_| next()).collect();
        let mean = v.iter().sum::<f64>() / n as f64;
        for x in v.iter_mut() {
            *x -= mean;
        }
        v
    }

    #[test]
    fn distributed_solve_matches_serial() {
        let dims = [8usize, 8, 8];
        let source = random_zero_mean(512, 3);
        let serial = PoissonSolver::new(dims).solve(&Field3::from_vec(dims, source.clone()), 1.5);

        for n_ranks in [1usize, 2, 4] {
            let source = source.clone();
            let serial = serial.clone();
            Universe::run(n_ranks, move |comm| {
                let solver = DistPoisson::new(dims, comm.size());
                let chunk = solver.local_len();
                let me = comm.rank();
                let local = source[me * chunk..(me + 1) * chunk].to_vec();
                let phi = solver.solve(comm, &local, 1.5, 100);
                for (i, v) in phi.iter().enumerate() {
                    let want = serial.as_slice()[me * chunk + i];
                    assert!(
                        (v - want).abs() < 1e-10,
                        "ranks {n_ranks}, slab idx {i}: {v} vs {want}"
                    );
                }
            });
        }
    }

    #[test]
    fn pencil_solve_matches_serial() {
        let dims = [8usize, 8, 8];
        let source = random_zero_mean(512, 5);
        let serial = PoissonSolver::new(dims).solve(&Field3::from_vec(dims, source.clone()), 1.5);

        for (rows, cols) in [(2usize, 2usize), (4, 2), (2, 4)] {
            let source = source.clone();
            let serial = serial.clone();
            Universe::run(rows * cols, move |comm| {
                let solver = DistPoisson::new_pencil(dims, rows, cols);
                let me = comm.rank();
                let local: Vec<f64> = (0..solver.local_len())
                    .map(|flat| {
                        let [i0, i1, i2] = solver.local_coords(me, flat);
                        source[(i0 * 8 + i1) * 8 + i2]
                    })
                    .collect();
                let phi = solver.solve(comm, &local, 1.5, 100);
                for (flat, v) in phi.iter().enumerate() {
                    let [i0, i1, i2] = solver.local_coords(me, flat);
                    let want = serial.as_slice()[(i0 * 8 + i1) * 8 + i2];
                    assert!(
                        (v - want).abs() < 1e-10,
                        "grid {rows}x{cols}, ({i0},{i1},{i2}): {v} vs {want}"
                    );
                }
            });
        }
    }

    #[test]
    fn solve_plan_verifies() {
        use vlasov6d_mpisim::PlanChecks;
        let solver = DistPoisson::new([8, 8, 8], 4);
        let stats = solver.solve_plan(100).assert_valid(&PlanChecks {
            topology: None,
            volume_symmetry: true,
        });
        // The 4 × 1 grid's stage 1 stays on the rank; its stage 2, forward
        // and inverse, is the slab all-to-all: 2 transposes · 12 directed
        // edges · 2 batches, each edge's 2·2·8 complex values split evenly.
        assert_eq!(stats.sends, 48);
        assert_eq!(stats.recvs, 48);
        assert_eq!(stats.bytes, 2 * 12 * 2 * 2 * 8 * 16);

        let pencil = DistPoisson::new_pencil([8, 8, 8], 2, 2);
        pencil.solve_plan(100).assert_valid(&PlanChecks {
            topology: None,
            volume_symmetry: true,
        });
    }

    #[test]
    fn distributed_taper_matches_serial_taper() {
        let dims = [8usize, 8, 8];
        let rs = 0.08;
        let source = random_zero_mean(512, 9);
        let serial = PoissonSolver::new(dims)
            .with_long_range_split(rs)
            .solve(&Field3::from_vec(dims, source.clone()), 1.0);
        let source2 = source;
        Universe::run(2, move |comm| {
            let solver = DistPoisson::new(dims, comm.size()).with_long_range_split(rs);
            let chunk = solver.local_len();
            let me = comm.rank();
            let local = source2[me * chunk..(me + 1) * chunk].to_vec();
            let phi = solver.solve(comm, &local, 1.0, 300);
            for (i, v) in phi.iter().enumerate() {
                let want = serial.as_slice()[me * chunk + i];
                assert!((v - want).abs() < 1e-10);
            }
        });
    }
}
