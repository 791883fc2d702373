//! Storage and indexing of the discretised distribution function.

use crate::grid::VelocityGrid;
use rayon::prelude::*;

/// The discretised 6-D distribution function of one rank's spatial block.
///
/// Layout (paper List 1): `f[ix][iy][iz][iux][iuy][iuz]`, `iuz` contiguous.
/// `f` holds *cell-averaged phase-space density* in code units; the mass in a
/// phase-space cell is `f · Δx³ Δu³` (the Δ factors live in the moment
/// routines, not in the stored values).
#[derive(Debug, Clone)]
pub struct PhaseSpace {
    data: Vec<f32>,
    /// Local spatial dims `[nx, ny, nz]`.
    pub sdims: [usize; 3],
    /// Global offset of this block (all zeros for a serial run).
    pub soffset: [usize; 3],
    /// Global spatial dims.
    pub sglobal: [usize; 3],
    /// Velocity grid (identical on every rank).
    pub vgrid: VelocityGrid,
}

impl PhaseSpace {
    /// Zero-filled block covering the whole (serial) domain.
    pub fn zeros(sdims: [usize; 3], vgrid: VelocityGrid) -> Self {
        Self::zeros_block(sdims, [0, 0, 0], sdims, vgrid)
    }

    /// Zero-filled block of a decomposed domain.
    pub fn zeros_block(
        sdims: [usize; 3],
        soffset: [usize; 3],
        sglobal: [usize; 3],
        vgrid: VelocityGrid,
    ) -> Self {
        let len = sdims[0] * sdims[1] * sdims[2] * vgrid.len();
        assert!(len > 0, "empty phase-space block");
        Self {
            data: vec![0.0; len],
            sdims,
            soffset,
            sglobal,
            vgrid,
        }
    }

    /// Total number of phase-space cells in this block.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// The six dims in layout order `[nx, ny, nz, nux, nuy, nuz]`.
    #[inline]
    pub fn dims6(&self) -> [usize; 6] {
        [
            self.sdims[0],
            self.sdims[1],
            self.sdims[2],
            self.vgrid.n[0],
            self.vgrid.n[1],
            self.vgrid.n[2],
        ]
    }

    /// Flat index of `(ix, iy, iz, iux, iuy, iuz)`.
    #[inline]
    pub fn index(&self, s: [usize; 3], u: [usize; 3]) -> usize {
        let d = self.dims6();
        debug_assert!(s[0] < d[0] && s[1] < d[1] && s[2] < d[2]);
        debug_assert!(u[0] < d[3] && u[1] < d[4] && u[2] < d[5]);
        ((((s[0] * d[1] + s[1]) * d[2] + s[2]) * d[3] + u[0]) * d[4] + u[1]) * d[5] + u[2]
    }

    #[inline]
    pub fn get(&self, s: [usize; 3], u: [usize; 3]) -> f32 {
        self.data[self.index(s, u)]
    }

    #[inline]
    pub fn set(&mut self, s: [usize; 3], u: [usize; 3], v: f32) {
        let i = self.index(s, u);
        self.data[i] = v;
    }

    /// Number of velocity cells per spatial cell.
    #[inline]
    pub fn vlen(&self) -> usize {
        self.vgrid.len()
    }

    /// Velocity-space block of one spatial cell (contiguous).
    pub fn velocity_block(&self, s: [usize; 3]) -> &[f32] {
        let start = self.index(s, [0, 0, 0]);
        &self.data[start..start + self.vlen()]
    }

    /// Mutable velocity-space block of one spatial cell.
    pub fn velocity_block_mut(&mut self, s: [usize; 3]) -> &mut [f32] {
        let start = self.index(s, [0, 0, 0]);
        let len = self.vlen();
        &mut self.data[start..start + len]
    }

    /// Fill from a function of (global spatial cell, velocity cell centres):
    /// `g(x_global_cell, [ux, uy, uz]) -> f`.
    pub fn fill_with<F>(&mut self, g: F)
    where
        F: Fn([usize; 3], [f64; 3]) -> f64 + Sync,
    {
        let d = self.dims6();
        let (off, vgrid) = (self.soffset, self.vgrid);
        let vblock = d[3] * d[4] * d[5];
        self.data
            .par_chunks_mut(vblock)
            .enumerate()
            .for_each(|(cell, block)| {
                let iz = cell % d[2];
                let iy = (cell / d[2]) % d[1];
                let ix = cell / (d[2] * d[1]);
                let gcell = [ix + off[0], iy + off[1], iz + off[2]];
                let mut idx = 0;
                for iux in 0..d[3] {
                    let ux = vgrid.center(0, iux);
                    for iuy in 0..d[4] {
                        let uy = vgrid.center(1, iuy);
                        for iuz in 0..d[5] {
                            let uz = vgrid.center(2, iuz);
                            block[idx] = g(gcell, [ux, uy, uz]) as f32;
                            idx += 1;
                        }
                    }
                }
            });
    }

    /// Total phase-space mass `Σ f · Δx³ Δu³` of this block, with spatial cell
    /// volume from the *global* grid (box = unit volume).
    pub fn total_mass(&self) -> f64 {
        let dv = self.vgrid.cell_volume();
        let dx3 = 1.0 / (self.sglobal[0] as f64 * self.sglobal[1] as f64 * self.sglobal[2] as f64);
        let sum: f64 = self.data.par_iter().map(|&v| v as f64).sum();
        sum * dv * dx3
    }

    /// Minimum value (negativity check); NaN when `f` holds one anywhere.
    pub fn min_value(&self) -> f32 {
        self.data
            .par_iter()
            .copied()
            .reduce(|| f32::INFINITY, nan_min)
    }

    /// Maximum value; NaN when `f` holds one anywhere.
    pub fn max_value(&self) -> f32 {
        self.data.par_iter().copied().reduce(
            || f32::NEG_INFINITY,
            |a, b| if b > a || b.is_nan() { b } else { a },
        )
    }

    /// L1 difference against another block (diagnostics / tests).
    pub fn l1_distance(&self, other: &PhaseSpace) -> f64 {
        assert_eq!(self.dims6(), other.dims6());
        self.data
            .par_iter()
            .zip(other.data.par_iter())
            .map(|(a, b)| (a - b).abs() as f64)
            .sum()
    }
}

/// The smaller of two values, NaN if either is one (`f32::min` returns the
/// other operand, and a poisoned field must not report a clean minimum).
#[inline]
pub(crate) fn nan_min(a: f32, b: f32) -> f32 {
    if b < a || b.is_nan() {
        b
    } else {
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> PhaseSpace {
        PhaseSpace::zeros([2, 3, 4], VelocityGrid::cubic(4, 1.0))
    }

    #[test]
    fn layout_is_list1() {
        let ps = small();
        // iuz is fastest, then iuy, iux, iz, iy, ix.
        assert_eq!(ps.index([0, 0, 0], [0, 0, 1]), 1);
        assert_eq!(ps.index([0, 0, 0], [0, 1, 0]), 4);
        assert_eq!(ps.index([0, 0, 0], [1, 0, 0]), 16);
        assert_eq!(ps.index([0, 0, 1], [0, 0, 0]), 64);
        assert_eq!(ps.index([0, 1, 0], [0, 0, 0]), 256);
        assert_eq!(ps.index([1, 0, 0], [0, 0, 0]), 768);
        assert_eq!(ps.len(), 2 * 3 * 4 * 64);
    }

    #[test]
    fn velocity_block_is_contiguous_per_cell() {
        let mut ps = small();
        ps.set([1, 2, 3], [2, 1, 3], 7.0);
        let block = ps.velocity_block([1, 2, 3]);
        assert_eq!(block.len(), 64);
        assert_eq!(block[(2 * 4 + 1) * 4 + 3], 7.0);
    }

    #[test]
    fn fill_with_sees_global_coordinates() {
        let vg = VelocityGrid::cubic(2, 1.0);
        let mut ps = PhaseSpace::zeros_block([2, 2, 2], [4, 0, 0], [8, 2, 2], vg);
        ps.fill_with(|s, _| s[0] as f64);
        assert_eq!(ps.get([0, 0, 0], [0, 0, 0]), 4.0);
        assert_eq!(ps.get([1, 1, 1], [1, 1, 1]), 5.0);
    }

    #[test]
    fn total_mass_of_uniform_f_is_f_times_volume() {
        let vg = VelocityGrid::cubic(4, 2.0); // velocity volume (4)³ = 64
        let mut ps = PhaseSpace::zeros([4, 4, 4], vg);
        ps.fill_with(|_, _| 0.5);
        // mass = 0.5 × (unit box) × (4.0)³ velocity volume
        assert!((ps.total_mass() - 0.5 * 64.0).abs() < 1e-9);
    }

    #[test]
    fn min_max_track_extremes() {
        let mut ps = small();
        ps.set([0, 0, 0], [0, 0, 0], -2.0);
        ps.set([1, 2, 3], [3, 3, 3], 9.0);
        assert_eq!(ps.min_value(), -2.0);
        assert_eq!(ps.max_value(), 9.0);
    }
}
