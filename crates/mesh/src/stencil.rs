//! Finite-difference stencils on periodic fields.
//!
//! The PM force is obtained by differentiating the potential on the mesh; the
//! paper's pipeline (and GADGET-family codes) use the 4-point centred
//! difference for its smaller truncation error, so both 2- and 4-point
//! gradients are provided. Grid spacing is `1/n` per axis (box units).

use crate::field::Field3;
use rayon::prelude::*;

/// Gradient stencil order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GradientOrder {
    /// `(f_{i+1} - f_{i-1}) / 2h` — O(h²).
    Two,
    /// `(8(f_{i+1} - f_{i-1}) - (f_{i+2} - f_{i-2})) / 12h` — O(h⁴).
    #[default]
    Four,
}

impl GradientOrder {
    /// Stencil access radius in cells — the farthest neighbour each gradient
    /// reads along its axis (cross-checked against black-box probing by
    /// kerncheck's footprint pass).
    pub const fn radius(self) -> usize {
        match self {
            GradientOrder::Two => 1,
            GradientOrder::Four => 2,
        }
    }
}

/// The `order` centred difference at one point, `sample(s)` being the
/// field `s` cells along the axis and `h` the spacing. The one definition
/// of the gradient stencil: [`gradient_axis`] and the distributed driver's
/// ghost-plane gradient both evaluate it.
#[inline]
pub fn centred_difference(order: GradientOrder, h: f64, sample: impl Fn(i64) -> f64) -> f64 {
    match order {
        GradientOrder::Two => (sample(1) - sample(-1)) / (2.0 * h),
        GradientOrder::Four => {
            (8.0 * (sample(1) - sample(-1)) - (sample(2) - sample(-2))) / (12.0 * h)
        }
    }
}

/// Access radius of the 7-point [`laplacian`] stencil.
pub const LAPLACIAN_RADIUS: usize = 1;

/// Differentiate `field` along `axis` (0, 1 or 2). Returns a new field.
pub fn gradient_axis(field: &Field3, axis: usize, order: GradientOrder) -> Field3 {
    assert!(axis < 3);
    let dims = field.dims();
    let h = 1.0 / dims[axis] as f64;
    let mut out = Field3::zeros(dims);
    let [_n0, n1, n2] = dims;
    // Parallel over i0-planes; writes into disjoint chunks of `out`.
    out.as_mut_slice()
        .par_chunks_mut(n1 * n2)
        .enumerate()
        .for_each(|(i0, plane)| {
            for i1 in 0..n1 {
                for i2 in 0..n2 {
                    let (j0, j1, j2) = (i0 as i64, i1 as i64, i2 as i64);
                    let sample = |s: i64| match axis {
                        0 => field.get(j0 + s, j1, j2),
                        1 => field.get(j0, j1 + s, j2),
                        _ => field.get(j0, j1, j2 + s),
                    };
                    plane[i1 * n2 + i2] = centred_difference(order, h, sample);
                }
            }
        });
    out
}

/// All three gradient components at once.
pub fn gradient(field: &Field3, order: GradientOrder) -> [Field3; 3] {
    [
        gradient_axis(field, 0, order),
        gradient_axis(field, 1, order),
        gradient_axis(field, 2, order),
    ]
}

/// 7-point Laplacian `∇²f` with spacing `1/n` per axis.
pub fn laplacian(field: &Field3) -> Field3 {
    let dims = field.dims();
    let [n0, n1, n2] = dims;
    let h2 = [
        (n0 as f64) * (n0 as f64),
        (n1 as f64) * (n1 as f64),
        (n2 as f64) * (n2 as f64),
    ];
    let mut out = Field3::zeros(dims);
    out.as_mut_slice()
        .par_chunks_mut(n1 * n2)
        .enumerate()
        .for_each(|(i0, plane)| {
            for i1 in 0..n1 {
                for i2 in 0..n2 {
                    let (j0, j1, j2) = (i0 as i64, i1 as i64, i2 as i64);
                    let c = field.get(j0, j1, j2);
                    let lap = (field.get(j0 + 1, j1, j2) - 2.0 * c + field.get(j0 - 1, j1, j2))
                        * h2[0]
                        + (field.get(j0, j1 + 1, j2) - 2.0 * c + field.get(j0, j1 - 1, j2)) * h2[1]
                        + (field.get(j0, j1, j2 + 1) - 2.0 * c + field.get(j0, j1, j2 - 1)) * h2[2];
                    plane[i1 * n2 + i2] = lap;
                }
            }
        });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine_field(n: usize, k: usize, axis: usize) -> Field3 {
        let mut f = Field3::zeros_cubic(n);
        for i0 in 0..n {
            for i1 in 0..n {
                for i2 in 0..n {
                    let idx = [i0, i1, i2][axis];
                    let x = (idx as f64 + 0.5) / n as f64;
                    *f.at_mut(i0, i1, i2) = (2.0 * std::f64::consts::PI * k as f64 * x).sin();
                }
            }
        }
        f
    }

    #[test]
    fn gradient_of_sine_is_cosine() {
        let n = 64;
        let k = 2;
        for axis in 0..3 {
            let f = sine_field(n, k, axis);
            let g = gradient_axis(&f, axis, GradientOrder::Four);
            let kk = 2.0 * std::f64::consts::PI * k as f64;
            let mut max_err = 0.0f64;
            for i0 in 0..n {
                for i1 in 0..n {
                    for i2 in 0..n {
                        let idx = [i0, i1, i2][axis];
                        let x = (idx as f64 + 0.5) / n as f64;
                        let expect = kk
                            * (kk * x / (2.0 * std::f64::consts::PI) * 2.0 * std::f64::consts::PI)
                                .cos();
                        max_err = max_err.max((g.at(i0, i1, i2) - expect).abs());
                    }
                }
            }
            // O(h⁴) with h = 1/64 and k=2: error ≪ 1e-3 relative to amplitude kk.
            assert!(max_err / kk < 1e-4, "axis {axis}: rel err {}", max_err / kk);
        }
    }

    #[test]
    fn fourth_order_beats_second_order() {
        let n = 32;
        let f = sine_field(n, 3, 0);
        let kk = 2.0 * std::f64::consts::PI * 3.0;
        let err = |order| {
            let g = gradient_axis(&f, 0, order);
            let mut e = 0.0f64;
            for i in 0..n {
                let x = (i as f64 + 0.5) / n as f64;
                e = e.max((g.at(i, 0, 0) - kk * (kk * x).cos() * 1.0).abs());
            }
            e
        };
        // Reference derivative must use same phase convention as sine_field:
        // d/dx sin(2πkx) = 2πk cos(2πkx); our closure above matches.
        assert!(err(GradientOrder::Four) < err(GradientOrder::Two));
    }

    #[test]
    fn gradient_of_constant_is_zero() {
        let mut f = Field3::zeros_cubic(8);
        f.fill(4.2);
        for axis in 0..3 {
            for order in [GradientOrder::Two, GradientOrder::Four] {
                let g = gradient_axis(&f, axis, order);
                assert!(g.max_abs() < 1e-14);
            }
        }
    }

    #[test]
    fn laplacian_of_sine_is_minus_k2_sine() {
        let n = 64;
        let k = 2;
        let f = sine_field(n, k, 1);
        let lap = laplacian(&f);
        let kk2 = (2.0 * std::f64::consts::PI * k as f64).powi(2);
        let mut max_rel = 0.0f64;
        for i1 in 0..n {
            let expect = -kk2 * f.at(0, i1, 0);
            let got = lap.at(0, i1, 0);
            if expect.abs() > 1.0 {
                max_rel = max_rel.max((got - expect).abs() / expect.abs());
            }
        }
        // 2nd-order Laplacian at k=2, n=64: relative error ~ (kh)²/12 ≈ 3e-3.
        assert!(max_rel < 5e-3, "{max_rel}");
    }

    #[test]
    fn gradient_sums_to_zero_over_periodic_box() {
        // ∮ ∇f = 0 for periodic f.
        let f = sine_field(16, 1, 2);
        for axis in 0..3 {
            let g = gradient_axis(&f, axis, GradientOrder::Four);
            assert!(g.sum().abs() < 1e-9);
        }
    }
}
