//! A periodic 3-D scalar field.

use rayon::prelude::*;

/// Row-major periodic 3-D field: `index = (i0·n1 + i1)·n2 + i2`.
///
/// All index accessors accept *unwrapped* signed indices and apply periodic
/// wrapping, which is what every stencil and assignment kernel wants.
#[derive(Debug, Clone, PartialEq)]
pub struct Field3 {
    dims: [usize; 3],
    data: Vec<f64>,
}

impl Field3 {
    /// Zero-filled field.
    pub fn zeros(dims: [usize; 3]) -> Self {
        assert!(dims.iter().all(|&d| d >= 1), "dimensions must be ≥ 1");
        Self {
            dims,
            data: vec![0.0; dims[0] * dims[1] * dims[2]],
        }
    }

    /// Cubic zero-filled field.
    pub fn zeros_cubic(n: usize) -> Self {
        Self::zeros([n, n, n])
    }

    /// Build from existing storage (must match `n0·n1·n2`).
    pub fn from_vec(dims: [usize; 3], data: Vec<f64>) -> Self {
        assert_eq!(data.len(), dims[0] * dims[1] * dims[2]);
        Self { dims, data }
    }

    #[inline]
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Flat index of an in-range cell.
    #[inline]
    pub fn index(&self, i0: usize, i1: usize, i2: usize) -> usize {
        debug_assert!(i0 < self.dims[0] && i1 < self.dims[1] && i2 < self.dims[2]);
        (i0 * self.dims[1] + i1) * self.dims[2] + i2
    }

    /// Periodic wrap of a signed index along axis `axis`.
    #[inline]
    pub fn wrap(&self, i: i64, axis: usize) -> usize {
        let n = self.dims[axis] as i64;
        i.rem_euclid(n) as usize
    }

    /// Value with periodic wrapping.
    #[inline]
    pub fn get(&self, i0: i64, i1: i64, i2: i64) -> f64 {
        let idx = self.index(self.wrap(i0, 0), self.wrap(i1, 1), self.wrap(i2, 2));
        self.data[idx]
    }

    /// Mutable access with periodic wrapping.
    #[inline]
    pub fn get_mut(&mut self, i0: i64, i1: i64, i2: i64) -> &mut f64 {
        let idx = self.index(self.wrap(i0, 0), self.wrap(i1, 1), self.wrap(i2, 2));
        &mut self.data[idx]
    }

    /// In-range value without wrapping (fast path).
    #[inline]
    pub fn at(&self, i0: usize, i1: usize, i2: usize) -> f64 {
        self.data[self.index(i0, i1, i2)]
    }

    /// In-range mutable access without wrapping.
    #[inline]
    pub fn at_mut(&mut self, i0: usize, i1: usize, i2: usize) -> &mut f64 {
        let idx = self.index(i0, i1, i2);
        &mut self.data[idx]
    }

    /// Sum of all cells.
    pub fn sum(&self) -> f64 {
        self.data.par_iter().sum()
    }

    /// Mean of all cells.
    pub fn mean(&self) -> f64 {
        self.sum() / self.len() as f64
    }

    /// Maximum absolute value.
    pub fn max_abs(&self) -> f64 {
        self.data
            .par_iter()
            .map(|v| v.abs())
            .reduce(|| 0.0, f64::max)
    }

    /// RMS of all cells.
    pub fn rms(&self) -> f64 {
        (self.data.par_iter().map(|v| v * v).sum::<f64>() / self.len() as f64).sqrt()
    }

    /// `self[i] += s · other[i]`.
    pub fn axpy(&mut self, s: f64, other: &Field3) {
        assert_eq!(self.dims, other.dims);
        self.data
            .par_iter_mut()
            .zip(other.data.par_iter())
            .for_each(|(a, b)| *a += s * b);
    }

    /// Multiply every cell by `s`.
    pub fn scale(&mut self, s: f64) {
        self.data.par_iter_mut().for_each(|v| *v *= s);
    }

    /// Set every cell to `v`.
    pub fn fill(&mut self, v: f64) {
        self.data.par_iter_mut().for_each(|x| *x = v);
    }

    /// Convert a density field to a contrast field `δ = ρ/ρ̄ - 1` in place;
    /// returns the mean that was divided out.
    pub fn to_density_contrast(&mut self) -> f64 {
        let mean = self.mean();
        assert!(mean != 0.0, "cannot form contrast of a zero-mean field");
        let inv = 1.0 / mean;
        self.data.par_iter_mut().for_each(|v| *v = *v * inv - 1.0);
        mean
    }

    /// Project (sum) along axis 0, producing an `[n1][n2]` map — used for the
    /// paper's Fig. 4/8 style surface-density images.
    pub fn project_axis0(&self) -> Vec<f64> {
        let [n0, n1, n2] = self.dims;
        let mut map = vec![0.0; n1 * n2];
        for i0 in 0..n0 {
            let plane = &self.data[i0 * n1 * n2..(i0 + 1) * n1 * n2];
            for (m, v) in map.iter_mut().zip(plane.iter()) {
                *m += v;
            }
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::identity_op)] // keep the full row-major index arithmetic visible
    fn indexing_is_row_major_with_last_axis_fastest() {
        let mut f = Field3::zeros([2, 3, 4]);
        *f.at_mut(1, 2, 3) = 5.0;
        assert_eq!(f.as_slice()[(1 * 3 + 2) * 4 + 3], 5.0);
    }

    #[test]
    fn periodic_wrapping_both_directions() {
        let mut f = Field3::zeros_cubic(4);
        *f.at_mut(0, 0, 0) = 7.0;
        assert_eq!(f.get(4, -4, 8), 7.0);
        assert_eq!(f.get(-1, 0, 0), f.at(3, 0, 0));
    }

    #[test]
    fn reductions() {
        let f = Field3::from_vec([1, 2, 2], vec![1.0, -2.0, 3.0, -4.0]);
        assert_eq!(f.sum(), -2.0);
        assert_eq!(f.mean(), -0.5);
        assert_eq!(f.max_abs(), 4.0);
        assert!((f.rms() - (30.0f64 / 4.0).sqrt()).abs() < 1e-15);
    }

    #[test]
    fn density_contrast_has_zero_mean() {
        let mut f = Field3::from_vec([1, 1, 4], vec![1.0, 2.0, 3.0, 2.0]);
        let mean = f.to_density_contrast();
        assert_eq!(mean, 2.0);
        assert!(f.mean().abs() < 1e-15);
        assert!((f.at(0, 0, 2) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Field3::from_vec([1, 1, 3], vec![1.0, 2.0, 3.0]);
        let b = Field3::from_vec([1, 1, 3], vec![1.0, 1.0, 1.0]);
        a.axpy(2.0, &b);
        assert_eq!(a.as_slice(), &[3.0, 4.0, 5.0]);
        a.scale(0.5);
        assert_eq!(a.as_slice(), &[1.5, 2.0, 2.5]);
    }

    #[test]
    fn projection_sums_along_first_axis() {
        let mut f = Field3::zeros([2, 2, 2]);
        *f.at_mut(0, 1, 1) = 1.0;
        *f.at_mut(1, 1, 1) = 2.0;
        let map = f.project_axis0();
        assert_eq!(map, vec![0.0, 0.0, 0.0, 3.0]);
    }
}
