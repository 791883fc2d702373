//! Semi-Lagrangian flux weights and the monotonicity-preserving limiter.
//!
//! # Flux weights
//!
//! For a fractional upwind shift `s ∈ [0, 1]` (positive velocity), the flux
//! through interface `i+1/2` is the integral of the reconstructed solution
//! over the swept interval `[x_{i+1/2} - sΔx, x_{i+1/2}]`. Reconstructing the
//! *primitive* function `W` with the unique degree-(K) polynomial through the
//! K+1 surrounding interface values gives the conservative high-order flux
//! (Qiu & Christlieb 2010; Qiu & Shu 2011 — the paper's refs [19, 20]):
//!
//! ```text
//! F(s) = W(0) - W(-s) = Σ_k w_k(s) f_{i+k}
//! ```
//!
//! The weights come from Lagrange interpolation on the interface nodes; they
//! are evaluated *per line* (the shift is constant along a line), so the
//! per-cell cost is a K-term dot product.
//!
//! # MP limiter
//!
//! [`mp5_bracket`] computes the Suresh & Huynh (1997) monotonicity-preserving
//! interval for the interface value; the SL-MPP5 scheme (Tanaka et al. 2017 —
//! the paper's ref \[23\]) clips the semi-Lagrangian interface average into this
//! bracket and then enforces positivity by clamping the flux to the available
//! upwind mass. One stage, no Runge–Kutta.

/// Line boundary condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Boundary {
    /// Periodic wrap (spatial axes).
    #[default]
    Periodic,
    /// Zero inflow / free outflow (velocity axes: `f → 0` at the box edge).
    Zero,
}

/// Fifth-order upwind SL flux weights for cells `i-2 .. i+2` at fractional
/// shift `s ∈ [0, 1]`. `F_{i+1/2}(s) = Σ_{k=-2}^{2} w[k+2] · f_{i+k}`.
pub fn sl5_weights(s: f64) -> [f64; 5] {
    // Interface nodes relative to x_{i+1/2}, in Δx units.
    const NODES: [f64; 6] = [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0];
    let x = -s;
    let mut lag = [0.0f64; 6];
    for (m, l) in lag.iter_mut().enumerate() {
        let mut p = 1.0;
        for (j, &nj) in NODES.iter().enumerate() {
            if j != m {
                p *= (x - nj) / (NODES[m] - nj);
            }
        }
        *l = p;
    }
    // Cell k contributes to W(node m) when k ≤ m; weight of f_k in F is
    // [k ≤ 0] - Σ_{m ≥ k} lag[m+3].
    let mut w = [0.0f64; 5];
    for k in -2i32..=2 {
        let mut tail = 0.0;
        for m in k..=2 {
            tail += lag[(m + 3) as usize];
        }
        w[(k + 2) as usize] = f64::from(k <= 0) - tail;
    }
    w
}

/// Third-order upwind SL flux weights for cells `i-1 .. i+1`:
/// `F_{i+1/2}(s) = Σ_{k=-1}^{1} w[k+1] · f_{i+k}`.
pub fn sl3_weights(s: f64) -> [f64; 3] {
    const NODES: [f64; 4] = [-2.0, -1.0, 0.0, 1.0];
    let x = -s;
    let mut lag = [0.0f64; 4];
    for (m, l) in lag.iter_mut().enumerate() {
        let mut p = 1.0;
        for (j, &nj) in NODES.iter().enumerate() {
            if j != m {
                p *= (x - nj) / (NODES[m] - nj);
            }
        }
        *l = p;
    }
    let mut w = [0.0f64; 3];
    for k in -1i32..=1 {
        let mut tail = 0.0;
        for m in k..=1 {
            tail += lag[(m + 2) as usize];
        }
        w[(k + 1) as usize] = f64::from(k <= 0) - tail;
    }
    w
}

#[inline]
pub fn minmod(a: f64, b: f64) -> f64 {
    if a * b <= 0.0 {
        0.0
    } else if a.abs() < b.abs() {
        a
    } else {
        b
    }
}

#[inline]
pub fn minmod4(a: f64, b: f64, c: f64, d: f64) -> f64 {
    minmod(minmod(a, b), minmod(c, d))
}

/// CFL-aware MP steepness parameter: Suresh & Huynh's monotonicity analysis
/// requires `α · c ≤ 1`; the SL adaptation therefore shrinks the classic
/// `α = 4` as the fractional shift grows (Tanaka et al. 2017).
#[inline]
pub fn mp_alpha(s: f64) -> f64 {
    if s <= 0.2 {
        4.0
    } else {
        (1.0 - s) / s
    }
}

/// Suresh–Huynh MP bracket `[lo, hi]` for the interface value at `i+1/2`
/// (positive-velocity orientation) from the five upwind-biased cell values
/// `f = [f_{i-2}, f_{i-1}, f_i, f_{i+1}, f_{i+2}]`.
pub fn mp5_bracket(f: &[f64; 5], alpha: f64) -> (f64, f64) {
    let (fm2, fm1, f0, fp1, fp2) = (f[0], f[1], f[2], f[3], f[4]);
    // Curvatures d_j = f_{j+1} - 2 f_j + f_{j-1}.
    let d_m1 = f0 - 2.0 * fm1 + fm2;
    let d_0 = fp1 - 2.0 * f0 + fm1;
    let d_p1 = fp2 - 2.0 * fp1 + f0;
    let dm4_ph = minmod4(4.0 * d_0 - d_p1, 4.0 * d_p1 - d_0, d_0, d_p1); // at i+1/2
    let dm4_mh = minmod4(4.0 * d_m1 - d_0, 4.0 * d_0 - d_m1, d_m1, d_0); // at i-1/2
    let f_ul = f0 + alpha * (f0 - fm1);
    let f_md = 0.5 * (f0 + fp1) - 0.5 * dm4_ph;
    let f_lc = f0 + 0.5 * (f0 - fm1) + (4.0 / 3.0) * dm4_mh;
    let f_min = f0.min(fp1).min(f_md).max(f0.min(f_ul).min(f_lc));
    let f_max = f0.max(fp1).max(f_md).min(f0.max(f_ul).max(f_lc));
    (f_min, f_max)
}

/// Median of three (as used by the MP clip): clips `v` into `[lo, hi]` with
/// the convention that an inverted bracket collapses to its nearest bound.
#[inline]
pub fn median_clip(v: f64, lo: f64, hi: f64) -> f64 {
    v + minmod(lo - v, hi - v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sl5_weights_vanish_at_zero_shift() {
        let w = sl5_weights(0.0);
        for x in w {
            assert!(x.abs() < 1e-14, "{w:?}");
        }
    }

    #[test]
    fn sl5_weights_select_upwind_cell_at_unit_shift() {
        let w = sl5_weights(1.0);
        let expect = [0.0, 0.0, 1.0, 0.0, 0.0];
        for (a, b) in w.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-13, "{w:?}");
        }
    }

    #[test]
    fn sl5_weights_sum_to_s_on_constant_field() {
        // For f ≡ 1 the exact flux is s·1.
        for &s in &[0.1, 0.25, 0.5, 0.75, 0.9] {
            let total: f64 = sl5_weights(s).iter().sum();
            assert!((total - s).abs() < 1e-13, "s = {s}: {total}");
        }
    }

    #[test]
    fn sl5_flux_exact_for_quartic_cell_averages() {
        // Cell averages of p(x) = x⁴ over [k-1, k]; exact swept integral
        // ∫_{-s}^{0} p = s⁵/5 ... compute both sides for several s.
        let prim = |x: f64| x.powi(5) / 5.0; // primitive of x⁴
        let avg: Vec<f64> = (-2i32..=2)
            .map(|k| prim(k as f64) - prim(k as f64 - 1.0))
            .collect();
        for &s in &[0.2, 0.5, 0.8, 1.0] {
            let w = sl5_weights(s);
            let flux: f64 = w.iter().zip(&avg).map(|(wk, fk)| wk * fk).sum();
            let exact = prim(0.0) - prim(-s);
            assert!((flux - exact).abs() < 1e-12, "s = {s}: {flux} vs {exact}");
        }
    }

    #[test]
    fn sl3_flux_exact_for_quadratic_cell_averages() {
        let prim = |x: f64| x.powi(3) / 3.0;
        let avg: Vec<f64> = (-1i32..=1)
            .map(|k| prim(k as f64) - prim(k as f64 - 1.0))
            .collect();
        for &s in &[0.3, 0.6, 1.0] {
            let w = sl3_weights(s);
            let flux: f64 = w.iter().zip(&avg).map(|(wk, fk)| wk * fk).sum();
            let exact = prim(0.0) - prim(-s);
            assert!((flux - exact).abs() < 1e-13, "s = {s}");
        }
    }

    #[test]
    fn minmod_properties() {
        assert_eq!(minmod(1.0, 2.0), 1.0);
        assert_eq!(minmod(-3.0, -2.0), -2.0);
        assert_eq!(minmod(1.0, -1.0), 0.0);
        assert_eq!(minmod(0.0, 5.0), 0.0);
    }

    #[test]
    fn minmod4_zero_if_signs_disagree() {
        assert_eq!(minmod4(1.0, -1.0, 1.0, 1.0), 0.0);
        assert_eq!(minmod4(2.0, 3.0, 4.0, 5.0), 2.0);
        assert_eq!(minmod4(-2.0, -3.0, -4.0, -5.0), -2.0);
    }

    #[test]
    fn mp_bracket_contains_smooth_interface_value() {
        // For smooth monotone data the 5th-order interface value must lie
        // inside the bracket (limiter inactive).
        let f = |x: f64| (0.5 * x).sin();
        let cells: [f64; 5] = core::array::from_fn(|i| f(i as f64 - 2.0));
        let (lo, hi) = mp5_bracket(&cells, 4.0);
        // Interface value between cells index 2 and 3 (i and i+1).
        let interface = f(0.5);
        assert!(
            interface > lo - 1e-9 && interface < hi + 1e-9,
            "{interface} not in [{lo}, {hi}]"
        );
    }

    #[test]
    fn median_clip_behaves() {
        assert_eq!(median_clip(5.0, 0.0, 1.0), 1.0);
        assert_eq!(median_clip(-5.0, 0.0, 1.0), 0.0);
        assert_eq!(median_clip(0.5, 0.0, 1.0), 0.5);
    }
}
