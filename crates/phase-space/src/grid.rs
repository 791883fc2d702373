//! The velocity-space grid.
//!
//! A uniform Cartesian grid over the cube `[-V, V)³` with cell centres
//! `u_k = -V + (k + 1/2) Δu`. Velocities are *canonical* (`u = a² dx/dt`) in
//! code units; `V` is chosen from the Fermi–Dirac thermal scale at setup.

/// Uniform velocity grid (per-axis count may differ, the paper uses cubes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VelocityGrid {
    /// Cells per axis.
    pub n: [usize; 3],
    /// Half-width `V` of the velocity cube (code units).
    pub vmax: f64,
}

impl VelocityGrid {
    pub fn new(n: [usize; 3], vmax: f64) -> Self {
        assert!(
            n.iter().all(|&d| d >= 2),
            "velocity grid needs ≥ 2 cells per axis"
        );
        assert!(vmax > 0.0);
        Self { n, vmax }
    }

    pub fn cubic(n: usize, vmax: f64) -> Self {
        Self::new([n, n, n], vmax)
    }

    /// Cell width along `axis`.
    #[inline]
    pub fn du(&self, axis: usize) -> f64 {
        2.0 * self.vmax / self.n[axis] as f64
    }

    /// Cell-centre velocity of index `k` along `axis`.
    #[inline]
    pub fn center(&self, axis: usize, k: usize) -> f64 {
        debug_assert!(k < self.n[axis]);
        -self.vmax + (k as f64 + 0.5) * self.du(axis)
    }

    /// Every cell-centre velocity along `axis`, in index order.
    pub fn centers(&self, axis: usize) -> Vec<f64> {
        (0..self.n[axis]).map(|k| self.center(axis, k)).collect()
    }

    /// Total number of velocity cells.
    pub fn len(&self) -> usize {
        self.n[0] * self.n[1] * self.n[2]
    }

    pub fn is_empty(&self) -> bool {
        false
    }

    /// Velocity-space cell volume `Δu³`.
    pub fn cell_volume(&self) -> f64 {
        self.du(0) * self.du(1) * self.du(2)
    }

    /// Largest |velocity| representable on the grid along `axis`
    /// (outermost cell centre).
    pub fn max_center(&self, axis: usize) -> f64 {
        self.center(axis, self.n[axis] - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn centers_are_symmetric_about_zero() {
        let g = VelocityGrid::cubic(8, 2.0);
        for k in 0..8 {
            let lo = g.center(0, k);
            let hi = g.center(0, 7 - k);
            assert!((lo + hi).abs() < 1e-14, "{lo} {hi}");
        }
    }

    #[test]
    fn centers_span_the_open_cube() {
        let g = VelocityGrid::cubic(16, 3.0);
        assert!((g.center(0, 0) - (-3.0 + 0.5 * g.du(0))).abs() < 1e-14);
        assert!(g.max_center(0) < 3.0);
        assert!((g.max_center(0) - (3.0 - 0.5 * g.du(0))).abs() < 1e-14);
    }

    #[test]
    fn cell_volume_matches_du_product() {
        let g = VelocityGrid::new([4, 8, 16], 1.0);
        let v = g.du(0) * g.du(1) * g.du(2);
        assert!((g.cell_volume() - v).abs() < 1e-15);
        assert!((g.du(0) - 0.5).abs() < 1e-15);
        assert!((g.du(2) - 0.125).abs() < 1e-15);
    }
}
