//! Velocity moments of the distribution function.
//!
//! Because the velocity space is never decomposed (paper §5.1.3), every
//! moment is a purely local reduction over each spatial cell's contiguous
//! velocity block — no communication. The moments feed the Poisson source
//! (density) and the Fig. 6 diagnostics (bulk velocity, velocity dispersion).

use crate::dist_fn::{nan_min, PhaseSpace};
use rayon::prelude::*;
use vlasov6d_advection::simd::LANES;
use vlasov6d_mesh::Field3;

/// Number density per spatial cell: `n(x) = Σ_u f Δu³` (code units; multiply
/// by the species mass outside). Returned on the local spatial dims.
pub fn density(ps: &PhaseSpace) -> Field3 {
    let dv = ps.vgrid.cell_volume();
    let mut out = Field3::zeros(ps.sdims);
    let vlen = ps.vlen();
    out.as_mut_slice()
        .par_iter_mut()
        .enumerate()
        .for_each(|(cell, o)| {
            let block = &ps.as_slice()[cell * vlen..(cell + 1) * vlen];
            let mut acc = 0.0f64;
            for &v in block {
                acc += v as f64;
            }
            *o = acc * dv;
        });
    out
}

/// Momentum density `Σ_u f u_d Δu³` along component `d` (0, 1, 2).
pub fn momentum(ps: &PhaseSpace, d: usize) -> Field3 {
    assert!(d < 3);
    let dv = ps.vgrid.cell_volume();
    let [_, nuy, nuz] = ps.vgrid.n;
    let centers = ps.vgrid.centers(d);
    let mut out = Field3::zeros(ps.sdims);
    let vlen = ps.vlen();
    out.as_mut_slice()
        .par_iter_mut()
        .enumerate()
        .for_each(|(cell, o)| {
            let block = &ps.as_slice()[cell * vlen..(cell + 1) * vlen];
            // One running sum in layout order; only where `u_d` is looked up
            // depends on `d`.
            let mut acc = 0.0f64;
            for (r, row) in block.chunks_exact(nuz).enumerate() {
                if d == 2 {
                    for (&f, &u) in row.iter().zip(&centers) {
                        acc += f as f64 * u;
                    }
                } else {
                    let u = centers[if d == 0 { r / nuy } else { r % nuy }];
                    for &f in row {
                        acc += f as f64 * u;
                    }
                }
            }
            *o = acc * dv;
        });
    out
}

/// Bulk velocity `<u_d> = momentum_d / density` with a floor on the density to
/// avoid dividing by empty cells.
pub fn bulk_velocity(ps: &PhaseSpace, d: usize, density_floor: f64) -> Field3 {
    let n = density(ps);
    let p = momentum(ps, d);
    let mut out = Field3::zeros(ps.sdims);
    out.as_mut_slice()
        .par_iter_mut()
        .zip(n.as_slice().par_iter().zip(p.as_slice().par_iter()))
        .for_each(|(o, (&nn, &pp))| {
            *o = if nn > density_floor { pp / nn } else { 0.0 };
        });
    out
}

/// Scalar velocity dispersion `σ² = (Σ_u f |u - <u>|² Δu³)/n` (the trace of
/// the dispersion tensor / 3 is `σ_1D²`). Returns σ² per cell.
pub fn velocity_dispersion(ps: &PhaseSpace, density_floor: f64) -> Field3 {
    let dv = ps.vgrid.cell_volume();
    let [_, nuy, nuz] = ps.vgrid.n;
    let [cx, cy, cz] = [0, 1, 2].map(|d| ps.vgrid.centers(d));
    let vlen = ps.vlen();
    let n = density(ps);
    let ubar: [Field3; 3] = [
        bulk_velocity(ps, 0, density_floor),
        bulk_velocity(ps, 1, density_floor),
        bulk_velocity(ps, 2, density_floor),
    ];
    let mut out = Field3::zeros(ps.sdims);
    out.as_mut_slice()
        .par_iter_mut()
        .enumerate()
        .for_each(|(cell, o)| {
            let nn = n.as_slice()[cell];
            if nn <= density_floor {
                *o = 0.0;
                return;
            }
            let (u0, u1, u2) = (
                ubar[0].as_slice()[cell],
                ubar[1].as_slice()[cell],
                ubar[2].as_slice()[cell],
            );
            let block = &ps.as_slice()[cell * vlen..(cell + 1) * vlen];
            let mut acc = 0.0f64;
            for (r, row) in block.chunks_exact(nuz).enumerate() {
                let dx = cx[r / nuy] - u0;
                let dy = cy[r % nuy] - u1;
                for (&f, &uz) in row.iter().zip(&cz) {
                    let dz = uz - u2;
                    acc += f as f64 * (dx * dx + dy * dy + dz * dz);
                }
            }
            *o = acc * dv / nn;
        });
    out
}

/// The scalars every driver reports after a step — mass, momentum, kinetic
/// and L2 sums, minimum — from one pass over `f` ([`step_sums`]). Sums carry
/// `Δu³ Δx³` with `Δx³` from the *global* grid, so partials of the blocks of a
/// decomposed run [`combine`](Self::combine) to the whole-box value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepSums {
    /// `Σ f Δu³ Δx³` — what [`PhaseSpace::total_mass`] returns.
    pub mass: f64,
    /// `Σ f u_d Δu³ Δx³` per axis.
    pub momentum: [f64; 3],
    /// `Σ f |u|² Δu³ Δx³` — twice the kinetic energy.
    pub sq_sum: f64,
    /// `Σ f² Δu³ Δx³`.
    pub l2: f64,
    /// Smallest value of `f`; NaN when `f` holds one anywhere.
    pub min: f32,
}

impl StepSums {
    /// The sums of no cells: the identity of [`Self::combine`].
    pub(crate) const EMPTY: Self = Self {
        mass: 0.0,
        momentum: [0.0; 3],
        sq_sum: 0.0,
        l2: 0.0,
        min: f32::INFINITY,
    };

    /// Fold another partial into this one (plain `f64` addition, so a fixed
    /// order — ascending cell, ascending rank — gives fixed bits).
    pub fn combine(&mut self, rhs: &StepSums) {
        self.mass += rhs.mass;
        for d in 0..3 {
            self.momentum[d] += rhs.momentum[d];
        }
        self.sq_sum += rhs.sq_sum;
        self.l2 += rhs.l2;
        self.min = nan_min(self.min, rhs.min);
    }
}

impl vlasov6d_mpisim::Payload for StepSums {
    fn byte_len(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

/// Every per-step scalar reduction of this block in one parallel pass.
///
/// One task per spatial cell reduces its contiguous velocity block in `f64`
/// lanes (lane = `iuz mod 8`, the short last chunk of a row in its leading
/// lanes); the per-cell partials are folded serially in ascending cell
/// order, so the result does not depend on the thread count. It is a
/// different summation tree from [`PhaseSpace::total_mass`] and
/// [`momentum`]`.sum()` and agrees with them to rounding.
pub fn step_sums(ps: &PhaseSpace) -> StepSums {
    let [_, nuy, nuz] = ps.vgrid.n;
    let centers = [0, 1, 2].map(|d| ps.vgrid.centers(d));
    let vlen = ps.vlen();
    let mut cells = vec![StepSums::EMPTY; ps.len() / vlen];
    cells.par_iter_mut().enumerate().for_each_init(
        || vec![0.0f64; nuz],
        |columns, (cell, out)| {
            let block = &ps.as_slice()[cell * vlen..(cell + 1) * vlen];
            *out = cell_sums(block, nuy, &centers, columns);
        },
    );
    let mut total = StepSums::EMPTY;
    for cell in &cells {
        total.combine(cell);
    }
    let [gx, gy, gz] = ps.sglobal;
    let scale = ps.vgrid.cell_volume() / (gx as f64 * gy as f64 * gz as f64);
    total.mass *= scale;
    for p in &mut total.momentum {
        *p *= scale;
    }
    total.sq_sum *= scale;
    total.l2 *= scale;
    total
}

/// One cell's unscaled [`StepSums`]. No weight is applied per element: `u_x`
/// multiplies the sum of its `iux` plane, `u_y` the sum of its row, `u_z`
/// the per-`iuz` column sums (`columns`, scratch of length `nuz`) at the end.
fn cell_sums(block: &[f32], nuy: usize, centers: &[Vec<f64>; 3], columns: &mut [f64]) -> StepSums {
    /// One chunk of a row into the lane accumulators; `f32x8::min`'s
    /// compare-select for the minimum (a NaN in `chunk` is dropped here and
    /// caught through `squares`).
    #[inline(always)]
    fn fold_chunk(
        chunk: &[f32],
        columns: &mut [f64],
        row: &mut [f64; LANES],
        squares: &mut [f64; LANES],
        min: &mut [f32; LANES],
    ) {
        for (l, (&f, column)) in chunk.iter().zip(columns).enumerate() {
            let v = f as f64;
            row[l] += v;
            *column += v;
            squares[l] += v * v;
            min[l] = if f < min[l] { f } else { min[l] };
        }
    }

    let [cx, cy, cz] = centers;
    let nuz = cz.len();
    columns.fill(0.0);
    let mut squares = [0.0f64; LANES];
    let mut min = [f32::INFINITY; LANES];
    let (mut mass, mut px, mut py, mut sq_xy) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for (plane, &ux) in block.chunks_exact(nuy * nuz).zip(cx) {
        let mut plane_sum = 0.0f64;
        for (row, &uy) in plane.chunks_exact(nuz).zip(cy) {
            let mut lanes = [0.0f64; LANES];
            // Whole chunks at a constant length, so the lanes vectorise; the
            // short last chunk of a row lands in its leading lanes.
            let (full, tail) = row.split_at(nuz - nuz % LANES);
            let (full_cols, tail_cols) = columns.split_at_mut(full.len());
            for (chunk, col) in full
                .chunks_exact(LANES)
                .zip(full_cols.chunks_exact_mut(LANES))
            {
                fold_chunk(chunk, col, &mut lanes, &mut squares, &mut min);
            }
            fold_chunk(tail, tail_cols, &mut lanes, &mut squares, &mut min);
            let row_sum: f64 = lanes.iter().sum();
            plane_sum += row_sum;
            py += uy * row_sum;
            sq_xy += uy * uy * row_sum;
        }
        mass += plane_sum;
        px += ux * plane_sum;
        sq_xy += ux * ux * plane_sum;
    }
    let (mut pz, mut sq_z) = (0.0f64, 0.0f64);
    for (&column, &uz) in columns.iter().zip(cz) {
        pz += uz * column;
        sq_z += uz * uz * column;
    }
    let l2: f64 = squares.iter().sum();
    // `f²` is NaN exactly where `f` is and no sum of squares cancels into
    // one, so `l2` says whether the lane minimum above skipped a NaN.
    let min = if l2.is_nan() {
        f32::NAN
    } else {
        min.iter().copied().fold(f32::INFINITY, f32::min)
    };
    StepSums {
        mass,
        momentum: [px, py, pz],
        sq_sum: sq_xy + sq_z,
        l2,
        min,
    }
}

/// Deterministic partial sums of the moment hierarchy over a spatial region.
///
/// Everything a region-moment query needs, accumulated so that partials from
/// different blocks (or ranks) reduce reproducibly: [`region_sums`] iterates
/// cells in ascending global `(x, y, z)` order single-threaded, and
/// [`RegionSums::combine`] is plain `f64` addition. Given the same partition
/// of the region into blocks and the same combine order, the result is
/// identical to the bit — whether the blocks live in memory or were decoded
/// from checkpoint records. (Different partitions are different summation
/// trees and agree only to rounding.)
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RegionSums {
    /// Spatial cells of the region covered by this partial.
    pub cells: u64,
    /// `Σ_cells n(x)` — number density summed over covered cells.
    pub n_sum: f64,
    /// `Σ_cells Σ_u f u_d Δu³` — momentum density summed over covered cells.
    pub mom: [f64; 3],
    /// `Σ_cells Σ_u f |u|² Δu³` — second velocity moment.
    pub sq_sum: f64,
}

impl RegionSums {
    /// Fold another partial into this one. Order matters for bitwise
    /// reproducibility: callers must combine partials in a fixed order
    /// (ascending rank, ascending block).
    pub fn combine(&mut self, rhs: &RegionSums) {
        self.cells += rhs.cells;
        self.n_sum += rhs.n_sum;
        for d in 0..3 {
            self.mom[d] += rhs.mom[d];
        }
        self.sq_sum += rhs.sq_sum;
    }

    /// Mean number density over the covered cells (0 when empty).
    pub fn mean_density(&self) -> f64 {
        if self.cells == 0 {
            0.0
        } else {
            self.n_sum / self.cells as f64
        }
    }

    /// Region-aggregate bulk velocity `Σmom / Σn`, guarded by a density floor.
    pub fn bulk_velocity(&self, density_floor: f64) -> [f64; 3] {
        if self.n_sum > density_floor {
            [
                self.mom[0] / self.n_sum,
                self.mom[1] / self.n_sum,
                self.mom[2] / self.n_sum,
            ]
        } else {
            [0.0; 3]
        }
    }

    /// Region-aggregate velocity dispersion
    /// `σ² = Σ f|u|²Δu³ / Σn − |<u>|²` (3-D trace), floored at zero.
    pub fn dispersion(&self, density_floor: f64) -> f64 {
        if self.n_sum <= density_floor {
            return 0.0;
        }
        let u = self.bulk_velocity(density_floor);
        let s2 = self.sq_sum / self.n_sum - (u[0] * u[0] + u[1] * u[1] + u[2] * u[2]);
        s2.max(0.0)
    }
}

/// Moment partial sums over the intersection of `[lo, hi)` (global cell
/// coordinates, `hi` exclusive) with this block.
///
/// Per covered cell, the velocity block is reduced in one pass in layout
/// order; cells are visited in ascending global `(x, y, z)` order. Both
/// orders are fixed and single-threaded so the result is bitwise
/// deterministic — the property the query-service differential test pins.
pub fn region_sums(ps: &PhaseSpace, lo: [usize; 3], hi: [usize; 3]) -> RegionSums {
    let dv = ps.vgrid.cell_volume();
    let [nux, nuy, nuz] = ps.vgrid.n;
    let vgrid = ps.vgrid;
    let mut out = RegionSums::default();
    // Clip the region to this block, in local coordinates.
    let mut clo = [0usize; 3];
    let mut chi = [0usize; 3];
    for d in 0..3 {
        let blo = ps.soffset[d];
        let bhi = ps.soffset[d] + ps.sdims[d];
        let l = lo[d].max(blo);
        let h = hi[d].min(bhi);
        if l >= h {
            return out;
        }
        clo[d] = l - blo;
        chi[d] = h - blo;
    }
    for ix in clo[0]..chi[0] {
        for iy in clo[1]..chi[1] {
            for iz in clo[2]..chi[2] {
                let block = ps.velocity_block([ix, iy, iz]);
                let mut n = 0.0f64;
                let mut mom = [0.0f64; 3];
                let mut sq = 0.0f64;
                let mut idx = 0;
                for iux in 0..nux {
                    let ux = vgrid.center(0, iux);
                    for iuy in 0..nuy {
                        let uy = vgrid.center(1, iuy);
                        for iuz in 0..nuz {
                            let uz = vgrid.center(2, iuz);
                            let f = block[idx] as f64;
                            n += f;
                            mom[0] += f * ux;
                            mom[1] += f * uy;
                            mom[2] += f * uz;
                            sq += f * (ux * ux + uy * uy + uz * uz);
                            idx += 1;
                        }
                    }
                }
                out.cells += 1;
                out.n_sum += n * dv;
                for d in 0..3 {
                    out.mom[d] += mom[d] * dv;
                }
                out.sq_sum += sq * dv;
            }
        }
    }
    out
}

/// 1-D speed distribution at one spatial cell: histogram of `f` over `|u|`
/// shells — the paper's Fig. 5 observable. Returns `(bin_centers, f(|u|))`
/// where `f(|u|)` is the shell-averaged distribution value.
pub fn speed_distribution(ps: &PhaseSpace, s: [usize; 3], n_bins: usize) -> (Vec<f64>, Vec<f64>) {
    let block = ps.velocity_block(s);
    let vg = &ps.vgrid;
    let umax =
        (vg.max_center(0).powi(2) + vg.max_center(1).powi(2) + vg.max_center(2).powi(2)).sqrt();
    let db = umax / n_bins as f64;
    let mut sums = vec![0.0f64; n_bins];
    let mut counts = vec![0usize; n_bins];
    let mut idx = 0;
    for iux in 0..vg.n[0] {
        let ux = vg.center(0, iux);
        for iuy in 0..vg.n[1] {
            let uy = vg.center(1, iuy);
            for iuz in 0..vg.n[2] {
                let uz = vg.center(2, iuz);
                let speed = (ux * ux + uy * uy + uz * uz).sqrt();
                let b = ((speed / db) as usize).min(n_bins - 1);
                sums[b] += block[idx] as f64;
                counts[b] += 1;
                idx += 1;
            }
        }
    }
    let centers = (0..n_bins).map(|b| (b as f64 + 0.5) * db).collect();
    let values = sums
        .iter()
        .zip(&counts)
        .map(|(s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
        .collect();
    (centers, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::VelocityGrid;

    /// An isotropic Gaussian in u, uniform in x.
    fn gaussian_ps(sigma: f64, drift: [f64; 3]) -> PhaseSpace {
        let vg = VelocityGrid::cubic(24, 6.0 * sigma);
        let mut ps = PhaseSpace::zeros([2, 2, 2], vg);
        let norm = 1.0 / ((2.0 * std::f64::consts::PI).powf(1.5) * sigma.powi(3));
        ps.fill_with(|_, u| {
            let r2 =
                (u[0] - drift[0]).powi(2) + (u[1] - drift[1]).powi(2) + (u[2] - drift[2]).powi(2);
            norm * (-0.5 * r2 / (sigma * sigma)).exp()
        });
        ps
    }

    #[test]
    fn density_of_unit_gaussian_is_one() {
        let ps = gaussian_ps(0.5, [0.0; 3]);
        let n = density(&ps);
        for &v in n.as_slice() {
            assert!((v - 1.0).abs() < 1e-3, "{v}");
        }
    }

    #[test]
    fn momentum_vanishes_for_centred_gaussian() {
        let ps = gaussian_ps(0.5, [0.0; 3]);
        for d in 0..3 {
            let p = momentum(&ps, d);
            assert!(p.max_abs() < 1e-6, "d = {d}: {}", p.max_abs());
        }
    }

    #[test]
    fn bulk_velocity_recovers_drift() {
        let drift = [0.3, -0.2, 0.1];
        let ps = gaussian_ps(0.4, drift);
        for d in 0..3 {
            let u = bulk_velocity(&ps, d, 1e-12);
            for &v in u.as_slice() {
                assert!((v - drift[d]).abs() < 1e-3, "d = {d}: {v} vs {}", drift[d]);
            }
        }
    }

    #[test]
    fn dispersion_recovers_3_sigma_squared() {
        let sigma = 0.5;
        let ps = gaussian_ps(sigma, [0.1, 0.0, -0.1]);
        let s2 = velocity_dispersion(&ps, 1e-12);
        for &v in s2.as_slice() {
            assert!((v - 3.0 * sigma * sigma).abs() < 2e-2, "{v}");
        }
    }

    /// A rough, sign-changing field on an awkward grid: `nuy = 3`, and
    /// `nuz` below, at, between and at twice the lane width.
    fn rough_ps(nuz: usize) -> PhaseSpace {
        let vg = VelocityGrid::new([4, 3, nuz], 1.5);
        let mut ps = PhaseSpace::zeros_block([2, 3, 2], [2, 0, 0], [4, 3, 2], vg);
        ps.fill_with(|s, u| {
            let phase = 1.3 * s[0] as f64 + 0.7 * s[1] as f64 - 2.1 * s[2] as f64;
            (-(u[0] * u[0] + u[1] * u[1] + u[2] * u[2])).exp() * (1.2 + phase.sin())
                + 0.05 * (7.0 * u[2] + 3.0 * u[1] - 5.0 * u[0] + phase).sin()
        });
        ps
    }

    #[test]
    fn step_sums_match_the_separate_passes_on_any_grid() {
        for nuz in [5, 8, 12, 16] {
            let ps = rough_ps(nuz);
            let got = step_sums(&ps);
            let dx3 = 1.0 / 24.0;
            let mass = ps.total_mass();
            assert!(
                (got.mass - mass).abs() <= 1e-12 * mass.abs(),
                "nuz {nuz}: mass"
            );
            for d in 0..3 {
                let want = momentum(&ps, d).sum() * dx3;
                let tol = 1e-9 * ps.vgrid.vmax * mass.abs();
                assert!((got.momentum[d] - want).abs() <= tol, "nuz {nuz}: p[{d}]");
            }
            let sq = region_sums(&ps, [0; 3], ps.sglobal).sq_sum * dx3;
            assert!((got.sq_sum - sq).abs() <= 1e-12 * sq, "nuz {nuz}: sq_sum");
            let l2 = ps
                .as_slice()
                .iter()
                .map(|&f| f as f64 * f as f64)
                .sum::<f64>()
                * ps.vgrid.cell_volume()
                * dx3;
            assert!((got.l2 - l2).abs() <= 1e-12 * l2, "nuz {nuz}: l2");
            assert_eq!(
                got.min.to_bits(),
                ps.min_value().to_bits(),
                "nuz {nuz}: min"
            );
            assert!(got.min < 0.0, "the field must exercise the sign");

            for threads in [1, 2, 3] {
                let again = rayon::with_num_threads(threads, || step_sums(&ps));
                assert_eq!(again, got, "nuz {nuz}: {threads} threads");
            }
        }
    }

    #[test]
    fn a_nan_in_f_shows_in_every_minimum() {
        for nuz in [5, 16] {
            let mut ps = rough_ps(nuz);
            assert!(!step_sums(&ps).min.is_nan() && !ps.min_value().is_nan());
            // Mid-row, mid-block: neither the first nor the last value any
            // reduction sees.
            ps.set([1, 1, 0], [2, 1, 3], f32::NAN);
            assert!(step_sums(&ps).min.is_nan());
            assert!(ps.min_value().is_nan() && ps.max_value().is_nan());
            // ±∞ are values, not poison: they order like any other.
            ps.set([1, 1, 0], [2, 1, 3], f32::NEG_INFINITY);
            ps.set([0, 2, 1], [0, 0, 0], f32::INFINITY);
            assert_eq!(step_sums(&ps).min, f32::NEG_INFINITY);
            assert_eq!(ps.min_value(), f32::NEG_INFINITY);
            assert_eq!(ps.max_value(), f32::INFINITY);
        }
    }

    /// `momentum` and `velocity_dispersion` look their weights up per row;
    /// the operands and their order are those of the per-element form, so
    /// the Fig. 6 / sky-map values keep their bits.
    #[test]
    fn hoisted_weights_keep_the_per_element_bits() {
        let ps = rough_ps(12);
        let (vg, vlen) = (ps.vgrid, ps.vlen());
        let per_element = |cell: usize, weight: &dyn Fn([f64; 3]) -> f64| {
            let mut acc = 0.0f64;
            let mut idx = cell * vlen;
            for iux in 0..vg.n[0] {
                for iuy in 0..vg.n[1] {
                    for iuz in 0..vg.n[2] {
                        let u = [vg.center(0, iux), vg.center(1, iuy), vg.center(2, iuz)];
                        acc += ps.as_slice()[idx] as f64 * weight(u);
                        idx += 1;
                    }
                }
            }
            acc * vg.cell_volume()
        };
        for d in 0..3 {
            let p = momentum(&ps, d);
            for (cell, got) in p.as_slice().iter().enumerate() {
                assert_eq!(
                    got.to_bits(),
                    per_element(cell, &|u| u[d]).to_bits(),
                    "p[{d}]"
                );
            }
        }
        let (n, s2) = (density(&ps), velocity_dispersion(&ps, 1e-12));
        let ubar = [0, 1, 2].map(|d| bulk_velocity(&ps, d, 1e-12));
        for (cell, got) in s2.as_slice().iter().enumerate() {
            let [u0, u1, u2] = [0, 1, 2].map(|d| ubar[d].as_slice()[cell]);
            let want = per_element(cell, &|u| {
                let (dx, dy, dz) = (u[0] - u0, u[1] - u1, u[2] - u2);
                dx * dx + dy * dy + dz * dz
            }) / n.as_slice()[cell];
            assert_eq!(got.to_bits(), want.to_bits(), "dispersion, cell {cell}");
        }
    }

    #[test]
    fn region_sums_full_box_matches_per_cell_moments() {
        let ps = gaussian_ps(0.4, [0.3, -0.2, 0.1]);
        let sums = region_sums(&ps, [0, 0, 0], ps.sdims);
        assert_eq!(sums.cells, 8);
        let n = density(&ps);
        let n_direct: f64 = n.as_slice().iter().sum();
        assert!(
            (sums.n_sum - n_direct).abs() < 1e-12 * n_direct.abs(),
            "{} vs {n_direct}",
            sums.n_sum
        );
        let u = sums.bulk_velocity(1e-12);
        for (d, want) in [0.3, -0.2, 0.1].into_iter().enumerate() {
            assert!((u[d] - want).abs() < 1e-3, "d = {d}: {} vs {want}", u[d]);
        }
        let s2 = sums.dispersion(1e-12);
        assert!((s2 - 3.0 * 0.4 * 0.4).abs() < 2e-2, "{s2}");
    }

    #[test]
    fn region_sums_same_partition_is_bitwise_reproducible() {
        let ps = gaussian_ps(0.5, [0.1, 0.2, -0.3]);
        // Same partition + same combine order ⇒ bitwise identical results.
        let split = |ps: &PhaseSpace| {
            let mut acc = region_sums(ps, [0, 0, 0], [1, 2, 2]);
            acc.combine(&region_sums(ps, [1, 0, 0], [2, 2, 2]));
            acc
        };
        assert_eq!(split(&ps), split(&ps));
        // A different partition (one flat pass) is a different f64 summation
        // tree: equal only to rounding, and that is the documented contract.
        let whole = region_sums(&ps, [0, 0, 0], ps.sdims);
        let merged = split(&ps);
        assert!((merged.n_sum - whole.n_sum).abs() < 1e-12 * whole.n_sum.abs());
        for d in 0..3 {
            assert!((merged.mom[d] - whole.mom[d]).abs() < 1e-12 * whole.n_sum.abs());
        }
        assert!((merged.sq_sum - whole.sq_sum).abs() < 1e-12 * whole.sq_sum.abs());
    }

    #[test]
    fn region_sums_clips_to_block_and_ignores_disjoint_regions() {
        let vg = VelocityGrid::cubic(8, 2.0);
        let mut ps = PhaseSpace::zeros_block([2, 2, 2], [2, 0, 0], [4, 2, 2], vg);
        ps.fill_with(|_, _| 1.0);
        // Region entirely left of the block.
        let empty = region_sums(&ps, [0, 0, 0], [2, 2, 2]);
        assert_eq!(empty.cells, 0);
        assert_eq!(empty.mean_density(), 0.0);
        // Region straddling the block boundary covers only the overlap.
        let overlap = region_sums(&ps, [1, 0, 0], [3, 2, 2]);
        assert_eq!(overlap.cells, 4);
        // Uniform f = 1 ⇒ n = (2 vmax)³ per cell.
        let n_cell = (2.0 * 2.0f64).powi(3);
        assert!((overlap.mean_density() - n_cell).abs() < 1e-9 * n_cell);
    }

    #[test]
    fn speed_distribution_peaks_at_low_speeds_for_gaussian() {
        let ps = gaussian_ps(0.5, [0.0; 3]);
        let (centers, values) = speed_distribution(&ps, [0, 0, 0], 16);
        assert_eq!(centers.len(), 16);
        // f(|u|) is monotone decreasing for a centred Gaussian.
        assert!(values[0] > values[4]);
        assert!(values[4] > values[10]);
    }
}
