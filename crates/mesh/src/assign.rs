//! Particle–mesh transfer: mass assignment (deposit) and force interpolation.
//!
//! Positions are in box units `[0, 1)³`; grid values live at *cell centres*
//! `(i + 1/2)/n`. Deposit and interpolation use the same kernel — the standard
//! requirement for momentum-conserving, self-force-free PM schemes
//! (Hockney & Eastwood 1981, the paper's Ref. \[11\]).

use crate::field::Field3;
use rayon::prelude::*;

/// Assignment kernel order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheme {
    /// Nearest grid point (order 1).
    Ngp,
    /// Cloud-in-cell (order 2) — the paper's PM scheme.
    #[default]
    Cic,
    /// Triangular-shaped cloud (order 3).
    Tsc,
}

impl Scheme {
    /// Number of cells the kernel touches per axis.
    pub fn support(&self) -> usize {
        match self {
            Scheme::Ngp => 1,
            Scheme::Cic => 2,
            Scheme::Tsc => 3,
        }
    }

    /// Per-axis weights: returns (`base_index`, weights) where the kernel
    /// covers cells `base_index .. base_index + support` (unwrapped).
    #[inline]
    fn weights(&self, x: f64, n: usize, w: &mut [f64; 3]) -> i64 {
        // Position in grid coordinates relative to cell centres.
        let s = x * n as f64 - 0.5;
        match self {
            Scheme::Ngp => {
                w[0] = 1.0;
                // Nearest centre.
                (s + 0.5).floor() as i64
            }
            Scheme::Cic => {
                let i = s.floor();
                let d = s - i;
                w[0] = 1.0 - d;
                w[1] = d;
                i as i64
            }
            Scheme::Tsc => {
                let i = (s + 0.5).floor(); // nearest centre
                let d = s - i;
                w[0] = 0.5 * (0.5 - d) * (0.5 - d);
                w[1] = 0.75 - d * d;
                w[2] = 0.5 * (0.5 + d) * (0.5 + d);
                i as i64 - 1
            }
        }
    }
}

/// Deposit particles with individual masses onto `field` (accumulating).
///
/// `positions` are `[x, y, z]` in box units; periodic wrapping is applied.
pub fn deposit(field: &mut Field3, scheme: Scheme, positions: &[[f64; 3]], masses: &[f64]) {
    assert_eq!(positions.len(), masses.len());
    for (p, &m) in positions.iter().zip(masses) {
        deposit_one(field, scheme, *p, m);
    }
}

/// Deposit particles of equal mass `mass` onto `field` (accumulating).
pub fn deposit_equal_mass(field: &mut Field3, scheme: Scheme, positions: &[[f64; 3]], mass: f64) {
    for p in positions {
        deposit_one(field, scheme, *p, mass);
    }
}

/// Rayon-parallel equal-mass deposit: folds into per-thread partial grids and
/// reduces. Worth it once `positions.len()` dwarfs the grid size.
pub fn deposit_equal_mass_par(
    field: &mut Field3,
    scheme: Scheme,
    positions: &[[f64; 3]],
    mass: f64,
) {
    let dims = field.dims();
    let partial = positions
        .par_chunks(16_384)
        .fold(
            || Field3::zeros(dims),
            |mut acc, chunk| {
                for p in chunk {
                    deposit_one(&mut acc, scheme, *p, mass);
                }
                acc
            },
        )
        .reduce(
            || Field3::zeros(dims),
            |mut a, b| {
                a.axpy(1.0, &b);
                a
            },
        );
    field.axpy(1.0, &partial);
}

#[inline]
fn deposit_one(field: &mut Field3, scheme: Scheme, p: [f64; 3], m: f64) {
    let [n0, n1, n2] = field.dims();
    let (mut w0, mut w1, mut w2) = ([0.0; 3], [0.0; 3], [0.0; 3]);
    let b0 = scheme.weights(p[0], n0, &mut w0);
    let b1 = scheme.weights(p[1], n1, &mut w1);
    let b2 = scheme.weights(p[2], n2, &mut w2);
    let s = scheme.support();
    for (a, &wa) in w0.iter().enumerate().take(s) {
        for (b, &wb) in w1.iter().enumerate().take(s) {
            let wab = wa * wb;
            for (c, &wc) in w2.iter().enumerate().take(s) {
                *field.get_mut(b0 + a as i64, b1 + b as i64, b2 + c as i64) += m * wab * wc;
            }
        }
    }
}

/// Interpolate `field` at one position with the given kernel.
#[inline]
pub fn interpolate(field: &Field3, scheme: Scheme, p: [f64; 3]) -> f64 {
    let [n0, n1, n2] = field.dims();
    let (mut w0, mut w1, mut w2) = ([0.0; 3], [0.0; 3], [0.0; 3]);
    let b0 = scheme.weights(p[0], n0, &mut w0);
    let b1 = scheme.weights(p[1], n1, &mut w1);
    let b2 = scheme.weights(p[2], n2, &mut w2);
    let s = scheme.support();
    let mut acc = 0.0;
    for (a, &wa) in w0.iter().enumerate().take(s) {
        for (b, &wb) in w1.iter().enumerate().take(s) {
            let wab = wa * wb;
            for (c, &wc) in w2.iter().enumerate().take(s) {
                acc += wab * wc * field.get(b0 + a as i64, b1 + b as i64, b2 + c as i64);
            }
        }
    }
    acc
}

/// Interpolate `field` at many positions in parallel.
#[cfg(test)]
pub(crate) fn interpolate_many(
    field: &Field3,
    scheme: Scheme,
    positions: &[[f64; 3]],
    out: &mut [f64],
) {
    assert_eq!(positions.len(), out.len());
    positions
        .par_iter()
        .zip(out.par_iter_mut())
        .for_each(|(p, o)| *o = interpolate(field, scheme, *p));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_positions(n: usize, seed: u64) -> Vec<[f64; 3]> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(7);
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n).map(|_| [next(), next(), next()]).collect()
    }

    #[test]
    fn all_schemes_conserve_total_mass() {
        let positions = random_positions(500, 42);
        for scheme in [Scheme::Ngp, Scheme::Cic, Scheme::Tsc] {
            let mut f = Field3::zeros_cubic(8);
            deposit_equal_mass(&mut f, scheme, &positions, 2.5);
            assert!(
                (f.sum() - 500.0 * 2.5).abs() < 1e-9,
                "{scheme:?}: total {}",
                f.sum()
            );
        }
    }

    #[test]
    fn kernel_weights_are_a_partition_of_unity() {
        for scheme in [Scheme::Ngp, Scheme::Cic, Scheme::Tsc] {
            for k in 0..100 {
                let x = k as f64 / 100.0;
                let mut w = [0.0; 3];
                let _ = scheme.weights(x, 16, &mut w);
                let total: f64 = w.iter().take(scheme.support()).sum();
                assert!((total - 1.0).abs() < 1e-12, "{scheme:?} at {x}");
            }
        }
    }

    #[test]
    fn particle_at_cell_centre_hits_single_cell() {
        for scheme in [Scheme::Ngp, Scheme::Cic, Scheme::Tsc] {
            let mut f = Field3::zeros_cubic(4);
            // Centre of cell (1,2,3) is ((1.5)/4, (2.5)/4, (3.5)/4).
            deposit_equal_mass(&mut f, scheme, &[[1.5 / 4.0, 2.5 / 4.0, 3.5 / 4.0]], 1.0);
            // For NGP and CIC the full mass lands in that one cell; TSC leaves
            // 0.75³ there.
            let centre = f.at(1, 2, 3);
            match scheme {
                Scheme::Ngp | Scheme::Cic => assert!((centre - 1.0).abs() < 1e-12, "{scheme:?}"),
                Scheme::Tsc => assert!((centre - 0.421875).abs() < 1e-12),
            }
        }
    }

    #[test]
    fn deposit_wraps_periodically() {
        let mut f = Field3::zeros_cubic(4);
        // A particle just inside the box edge spreads CIC mass to the first cell.
        deposit_equal_mass(&mut f, Scheme::Cic, &[[0.999, 0.5, 0.5]], 1.0);
        assert!((f.sum() - 1.0).abs() < 1e-12);
        // The wrapped cell (0, 2, 2) must carry part of the mass.
        assert!(f.at(0, 2, 2) > 0.0);
    }

    #[test]
    fn interpolation_of_constant_field_is_exact() {
        let mut f = Field3::zeros_cubic(8);
        f.fill(3.25);
        for scheme in [Scheme::Ngp, Scheme::Cic, Scheme::Tsc] {
            for p in random_positions(50, 9) {
                assert!(
                    (interpolate(&f, scheme, p) - 3.25).abs() < 1e-12,
                    "{scheme:?}"
                );
            }
        }
    }

    #[test]
    fn cic_interpolation_of_linear_field_is_exact_inside() {
        // CIC reproduces linear functions exactly between cell centres.
        let n = 16;
        let mut f = Field3::zeros_cubic(n);
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let x = (i as f64 + 0.5) / n as f64;
                    *f.at_mut(i, j, k) = 2.0 * x;
                }
            }
        }
        for k in 1..(2 * n - 1) {
            // Probe away from the periodic seam where linearity breaks.
            let x = (k as f64 + 0.6) / (2 * n) as f64;
            if !(0.05..=0.95).contains(&x) {
                continue;
            }
            let got = interpolate(&f, Scheme::Cic, [x, 0.5, 0.5]);
            assert!((got - 2.0 * x).abs() < 1e-12, "x = {x}: {got}");
        }
    }

    #[test]
    fn parallel_deposit_matches_serial() {
        let positions = random_positions(3000, 77);
        let mut serial = Field3::zeros_cubic(8);
        deposit_equal_mass(&mut serial, Scheme::Cic, &positions, 1.0);
        let mut par = Field3::zeros_cubic(8);
        deposit_equal_mass_par(&mut par, Scheme::Cic, &positions, 1.0);
        for (a, b) in serial.as_slice().iter().zip(par.as_slice()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn adjointness_of_deposit_and_interpolation() {
        // <deposit(p), g> == m * interpolate(g, p) for any field g — deposit
        // and interpolation are adjoint, the momentum-conservation condition.
        let g = {
            let mut g = Field3::zeros_cubic(6);
            for (i, v) in g.as_mut_slice().iter_mut().enumerate() {
                *v = (i as f64 * 0.7).sin();
            }
            g
        };
        for scheme in [Scheme::Ngp, Scheme::Cic, Scheme::Tsc] {
            for p in random_positions(20, 123) {
                let mut d = Field3::zeros_cubic(6);
                deposit_equal_mass(&mut d, scheme, &[p], 2.0);
                let lhs: f64 = d
                    .as_slice()
                    .iter()
                    .zip(g.as_slice())
                    .map(|(a, b)| a * b)
                    .sum();
                let rhs = 2.0 * interpolate(&g, scheme, p);
                assert!((lhs - rhs).abs() < 1e-10, "{scheme:?}: {lhs} vs {rhs}");
            }
        }
    }

    #[test]
    fn interpolate_many_matches_single() {
        let mut f = Field3::zeros_cubic(8);
        for (i, v) in f.as_mut_slice().iter_mut().enumerate() {
            *v = i as f64;
        }
        let ps = random_positions(40, 5);
        let mut out = vec![0.0; ps.len()];
        interpolate_many(&f, Scheme::Tsc, &ps, &mut out);
        for (p, o) in ps.iter().zip(&out) {
            assert_eq!(*o, interpolate(&f, Scheme::Tsc, *p));
        }
    }
}
