//! Per-shard execution and root-side finalization of the query families.
//!
//! Every family follows the same two-phase shape: each shard computes a
//! **partial** from only its own blocks, and the root **finalizes** the
//! partials — always folding them in ascending rank order, so the `f64`
//! reductions are bitwise reproducible (the contract pinned by the
//! distributed differential test, see
//! [`vlasov6d_phase_space::moments::RegionSums`]).

use crate::pixel::{ang2dir, EqualAreaPixels};
use crate::request::{BacktrackReply, QueryError, RegionMomentsReply, SkyMapReply};
use crate::shard::SnapshotShard;
use vlasov6d_mesh::{assign, Field3, Scheme};
use vlasov6d_nbody::integrator::kdk_step;
use vlasov6d_nbody::particles::{min_image, ParticleSet};
use vlasov6d_phase_space::moments::{self, RegionSums};
use vlasov6d_poisson::PoissonSolver;

/// Density floor below which bulk velocity / dispersion report zero.
pub(crate) const DENSITY_FLOOR: f64 = 1e-30;

// ---------------------------------------------------------------------------
// Region moments
// ---------------------------------------------------------------------------

/// This shard's contribution to a region-moment query: the region clipped
/// to each of the shard's blocks, folded in ascending block order.
pub(crate) fn region_partial(
    shard: &mut SnapshotShard,
    lo: [usize; 3],
    hi: [usize; 3],
) -> Result<RegionSums, QueryError> {
    let sglobal = shard.sglobal();
    let hi = [
        hi[0].min(sglobal[0]),
        hi[1].min(sglobal[1]),
        hi[2].min(sglobal[2]),
    ];
    if (0..3).any(|d| lo[d] >= hi[d]) {
        return Err(QueryError::BadRequest(format!(
            "empty region {lo:?}..{hi:?} (global dims {sglobal:?})"
        )));
    }
    let mut acc = RegionSums::default();
    for i in 0..shard.blocks().len() {
        if !shard.blocks()[i].intersects(lo, hi) {
            continue;
        }
        let ps = shard.block(i)?;
        acc.combine(&moments::region_sums(&ps, lo, hi));
    }
    Ok(acc)
}

/// Fold per-rank partials (ascending rank order!) into the reply.
pub fn finalize_region(partials: &[RegionSums]) -> RegionMomentsReply {
    let mut acc = RegionSums::default();
    for p in partials {
        acc.combine(p);
    }
    RegionMomentsReply {
        cells: acc.cells,
        mean_density: acc.mean_density(),
        bulk_velocity: acc.bulk_velocity(DENSITY_FLOOR),
        dispersion: acc.dispersion(DENSITY_FLOOR),
    }
}

// ---------------------------------------------------------------------------
// All-sky η map
// ---------------------------------------------------------------------------

/// This shard's contribution to an η map: per-pixel density sums and cell
/// counts, plus the global-mean accumulators.
#[derive(Debug, Clone, PartialEq)]
pub struct SkyPartial {
    pub pix_sum: Vec<f64>,
    pub pix_count: Vec<u64>,
    pub n_sum: f64,
    pub cells: u64,
}

impl SkyPartial {
    fn zeros(npix: usize) -> SkyPartial {
        SkyPartial {
            pix_sum: vec![0.0; npix],
            pix_count: vec![0; npix],
            n_sum: 0.0,
            cells: 0,
        }
    }

    /// Fold another partial in (caller fixes the order).
    pub fn combine(&mut self, rhs: &SkyPartial) {
        assert_eq!(self.pix_sum.len(), rhs.pix_sum.len());
        for (a, b) in self.pix_sum.iter_mut().zip(&rhs.pix_sum) {
            *a += b;
        }
        for (a, b) in self.pix_count.iter_mut().zip(&rhs.pix_count) {
            *a += b;
        }
        self.n_sum += rhs.n_sum;
        self.cells += rhs.cells;
    }
}

/// Bin each of this shard's cells onto the sky as seen from `observer`
/// (box units): the pixel is the minimum-image direction from the observer
/// to the cell centre.
pub(crate) fn sky_partial(
    shard: &mut SnapshotShard,
    nside: usize,
    observer: [f64; 3],
) -> Result<SkyPartial, QueryError> {
    if nside == 0 {
        return Err(QueryError::BadRequest("nside must be ≥ 1".into()));
    }
    let pix = EqualAreaPixels::new(nside);
    let sglobal = shard.sglobal();
    let mut out = SkyPartial::zeros(pix.npix());
    for i in 0..shard.blocks().len() {
        let info = shard.blocks()[i];
        let ps = shard.block(i)?;
        let n = moments::density(&ps);
        let [lx, ly, lz] = info.sdims;
        for ix in 0..lx {
            for iy in 0..ly {
                for iz in 0..lz {
                    let centre = [
                        (info.soffset[0] + ix) as f64 + 0.5,
                        (info.soffset[1] + iy) as f64 + 0.5,
                        (info.soffset[2] + iz) as f64 + 0.5,
                    ];
                    let pos = [
                        centre[0] / sglobal[0] as f64,
                        centre[1] / sglobal[1] as f64,
                        centre[2] / sglobal[2] as f64,
                    ];
                    let d = min_image(observer, pos);
                    let p = pix.dir2pix(d);
                    let val = n.get(ix as i64, iy as i64, iz as i64);
                    out.pix_sum[p] += val;
                    out.pix_count[p] += 1;
                    out.n_sum += val;
                    out.cells += 1;
                }
            }
        }
    }
    Ok(out)
}

/// Fold per-rank partials (ascending rank order) into the η map.
pub fn finalize_sky(nside: usize, partials: &[SkyPartial]) -> Result<SkyMapReply, QueryError> {
    let pix = EqualAreaPixels::new(nside);
    let mut acc = SkyPartial::zeros(pix.npix());
    for p in partials {
        acc.combine(p);
    }
    if acc.cells == 0 {
        return Err(QueryError::Snapshot("snapshot has no cells".into()));
    }
    let n_bar = acc.n_sum / acc.cells as f64;
    let mut eta = vec![0.0; pix.npix()];
    let mut covered = 0usize;
    for (p, e) in eta.iter_mut().enumerate() {
        if acc.pix_count[p] > 0 {
            covered += 1;
            let pixel_mean = acc.pix_sum[p] / acc.pix_count[p] as f64;
            *e = if n_bar > DENSITY_FLOOR {
                pixel_mean / n_bar
            } else {
                0.0
            };
        }
    }
    Ok(SkyMapReply {
        nside,
        eta,
        covered,
        mean_density: n_bar,
    })
}

// ---------------------------------------------------------------------------
// Backtrack bundles
// ---------------------------------------------------------------------------

/// One block's density field with its placement — the wire-friendly partial
/// the root assembles the global PM source from.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DensityPartial {
    pub soffset: [usize; 3],
    pub sdims: [usize; 3],
    pub data: Vec<f64>,
}

/// This shard's density blocks, in block order.
pub(crate) fn density_partial(
    shard: &mut SnapshotShard,
) -> Result<Vec<DensityPartial>, QueryError> {
    let mut out = Vec::with_capacity(shard.blocks().len());
    for i in 0..shard.blocks().len() {
        let info = shard.blocks()[i];
        let ps = shard.block(i)?;
        let n = moments::density(&ps);
        out.push(DensityPartial {
            soffset: info.soffset,
            sdims: info.sdims,
            data: n.as_slice().to_vec(),
        });
    }
    Ok(out)
}

/// Parameters of the backward integration, fixed per service instance so
/// repeated queries are exactly repeatable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BacktrackParams {
    /// Poisson source prefactor (`1.5 Ω / a` in the PM convention).
    pub source_prefactor: f64,
    /// Time step of the backward KDK integration (box units).
    pub dt: f64,
    /// Largest launch speed of a bundle (velocity-grid units).
    pub vmax: f64,
    /// Fermi–Dirac temperature in the same velocity units.
    pub temperature: f64,
}

impl Default for BacktrackParams {
    fn default() -> BacktrackParams {
        BacktrackParams {
            source_prefactor: 1.5,
            dt: 0.02,
            vmax: 1.0,
            temperature: 0.5,
        }
    }
}

/// The snapshot's frozen PM force field, built once per generation and
/// shared by every backtrack query.
#[derive(Debug)]
pub struct BacktrackEngine {
    forces: [Field3; 3],
    params: BacktrackParams,
}

impl BacktrackEngine {
    /// Assemble the global density from per-rank partials (**ascending rank
    /// order**, blocks in block order within each rank), subtract the mean,
    /// solve for the potential and take its gradient.
    pub(crate) fn from_partials(
        sglobal: [usize; 3],
        partials: &[DensityPartial],
        params: BacktrackParams,
    ) -> Result<BacktrackEngine, QueryError> {
        let mut rho = Field3::zeros(sglobal);
        let mut filled = 0usize;
        for p in partials {
            if p.data.len() != p.sdims[0] * p.sdims[1] * p.sdims[2] {
                return Err(QueryError::Snapshot(format!(
                    "density partial at {:?} has {} values for dims {:?}",
                    p.soffset,
                    p.data.len(),
                    p.sdims
                )));
            }
            let mut idx = 0usize;
            for ix in 0..p.sdims[0] {
                for iy in 0..p.sdims[1] {
                    for iz in 0..p.sdims[2] {
                        *rho.get_mut(
                            (p.soffset[0] + ix) as i64,
                            (p.soffset[1] + iy) as i64,
                            (p.soffset[2] + iz) as i64,
                        ) = p.data[idx];
                        idx += 1;
                    }
                }
            }
            filled += p.data.len();
        }
        if filled != sglobal[0] * sglobal[1] * sglobal[2] {
            return Err(QueryError::Snapshot(format!(
                "density partials cover {filled} of {} cells",
                sglobal[0] * sglobal[1] * sglobal[2]
            )));
        }
        let mean = rho.as_slice().iter().sum::<f64>() / rho.len() as f64;
        for v in rho.as_mut_slice() {
            *v -= mean;
        }
        let phi = PoissonSolver::new(sglobal).solve(&rho, params.source_prefactor);
        Ok(BacktrackEngine {
            forces: PoissonSolver::force_from_potential(&phi),
            params,
        })
    }

    /// Integrate a bundle of `n_traj` trajectories arriving at `observer`
    /// from sky direction `(theta, phi)` backwards for `steps` KDK steps,
    /// and reduce to the Fermi–Dirac-weighted per-direction density.
    ///
    /// Backward in time ≡ forward with reversed velocity: an arrival from
    /// direction `d` means the particle travels along `−d`, so the
    /// backtracked trajectory leaves the observer along `+d`. Launch speeds
    /// sample `(0, vmax]` uniformly at midpoints. Everything is sequential
    /// `f64` on a frozen force field, so the reply is a pure function of
    /// `(snapshot, request)` — byte-identical on repeat, cold or warm cache.
    pub fn backtrack(
        &self,
        theta: f64,
        phi: f64,
        observer: [f64; 3],
        n_traj: usize,
        steps: usize,
    ) -> Result<BacktrackReply, QueryError> {
        if n_traj == 0 {
            return Err(QueryError::BadRequest("n_traj must be ≥ 1".into()));
        }
        let dir = ang2dir(theta, phi);
        let p = self.params;
        let du = p.vmax / n_traj as f64;
        let launch_speeds: Vec<f64> = (0..n_traj).map(|j| (j as f64 + 0.5) * du).collect();
        let mut particles = ParticleSet {
            pos: vec![[observer[0], observer[1], observer[2]]; n_traj],
            vel: launch_speeds
                .iter()
                .map(|&u| [u * dir[0], u * dir[1], u * dir[2]])
                .collect(),
            mass: 0.0,
        };
        let forces = &self.forces;
        for _ in 0..steps {
            kdk_step(&mut particles, 0.5 * p.dt, p.dt, 0.5 * p.dt, |ps| {
                ps.pos
                    .iter()
                    .map(|&pos| {
                        [
                            assign::interpolate(&forces[0], Scheme::Cic, pos),
                            assign::interpolate(&forces[1], Scheme::Cic, pos),
                            assign::interpolate(&forces[2], Scheme::Cic, pos),
                        ]
                    })
                    .collect()
            });
        }
        let fermi_dirac = |u: f64| 1.0 / ((u / p.temperature).exp() + 1.0);
        let final_speeds: Vec<f64> = particles
            .vel
            .iter()
            .map(|v| (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt())
            .collect();
        // n ∝ Σ u₀² w(u_final) Δu: by Liouville, f along the trajectory is
        // the unperturbed Fermi–Dirac at the *early-time* (backtracked)
        // momentum, while the phase-space factor u² du is the arrival one.
        let mut n = 0.0f64;
        let mut n0 = 0.0f64;
        for (u0, uf) in launch_speeds.iter().zip(&final_speeds) {
            n += u0 * u0 * fermi_dirac(*uf) * du;
            n0 += u0 * u0 * fermi_dirac(*u0) * du;
        }
        Ok(BacktrackReply {
            n_traj,
            number_density: n,
            clustering_ratio: if n0 > 0.0 { n / n0 } else { 0.0 },
            final_speeds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_partials(sglobal: [usize; 3], value: f64) -> Vec<DensityPartial> {
        vec![DensityPartial {
            soffset: [0, 0, 0],
            sdims: sglobal,
            data: vec![value; sglobal.iter().product()],
        }]
    }

    #[test]
    fn uniform_density_gives_no_force_and_unit_clustering() {
        let engine =
            BacktrackEngine::from_partials([8, 8, 8], &uniform_partials([8, 8, 8], 2.0), {
                BacktrackParams::default()
            })
            .expect("build");
        let reply = engine
            .backtrack(1.0, 0.5, [0.5; 3], 8, 10)
            .expect("backtrack");
        // No force ⇒ speeds unchanged ⇒ clustering ratio exactly 1.
        for (j, &u) in reply.final_speeds.iter().enumerate() {
            let u0 = (j as f64 + 0.5) * (1.0 / 8.0);
            assert!((u - u0).abs() < 1e-12, "traj {j}: {u} vs {u0}");
        }
        assert!((reply.clustering_ratio - 1.0).abs() < 1e-12);
        assert!(reply.number_density > 0.0);
    }

    #[test]
    fn backtrack_is_deterministic_across_repeats() {
        let mut partials = uniform_partials([8, 8, 8], 1.0);
        // A blob off-centre so forces are non-trivial.
        partials[0].data[3 * 64 + 4 * 8 + 5] = 50.0;
        let engine =
            BacktrackEngine::from_partials([8, 8, 8], &partials, BacktrackParams::default())
                .expect("build");
        let a = engine.backtrack(0.7, 2.0, [0.5; 3], 16, 25).expect("a");
        let b = engine.backtrack(0.7, 2.0, [0.5; 3], 16, 25).expect("b");
        assert_eq!(a, b, "pure function of (snapshot, request)");
        // The blob actually deflected something.
        assert!(
            a.final_speeds
                .iter()
                .enumerate()
                .any(|(j, &u)| (u - (j as f64 + 0.5) / 16.0).abs() > 1e-9),
            "expected non-trivial deflection"
        );
    }

    #[test]
    fn incomplete_density_coverage_is_rejected() {
        let partials = vec![DensityPartial {
            soffset: [0, 0, 0],
            sdims: [4, 8, 8],
            data: vec![1.0; 4 * 8 * 8],
        }];
        let err = BacktrackEngine::from_partials([8, 8, 8], &partials, BacktrackParams::default())
            .unwrap_err();
        assert!(matches!(err, QueryError::Snapshot(_)));
    }

    #[test]
    fn region_finalize_matches_single_partial() {
        let sums = RegionSums {
            cells: 4,
            n_sum: 8.0,
            mom: [8.0, 0.0, -4.0],
            sq_sum: 40.0,
        };
        let reply = finalize_region(&[sums]);
        assert_eq!(reply.cells, 4);
        assert!((reply.mean_density - 2.0).abs() < 1e-15);
        assert!((reply.bulk_velocity[0] - 1.0).abs() < 1e-15);
        assert!((reply.dispersion - (5.0 - 1.25)).abs() < 1e-15);
    }
}
