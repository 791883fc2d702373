//! Semi-Lagrangian flux weights, the monotonicity-preserving limiter, and the
//! one flux/update body every kernel instantiates.
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
//!
//! # One body
//!
//! [`flux_update`] — every scheme's interface fluxes and the flux-form update
//! — is written once, over a [`Value`]. The line kernels instantiate it at
//! `f64` (`f64::min`/`max`, the branchy [`minmod`] nested into `minmod4`,
//! `f64::clamp`, the result narrowed to `f32`), the lane kernels at
//! [`f32x8`](crate::f32x8) and [`f32x16`](crate::simd::f32x16)
//! (compare-select `min`/`max`; `minmod` and a fused `minmod4` as
//! compare-selects that return the sign-product form's bits on every finite
//! input; constants rounded to `f32`), and `vlasov6d-verify`'s kerncheck
//! at its interval, taint, operation-count and expression-tree domains — so its proofs are about this code, not a
//! copy of it. Those domains keep the nested `minmod4`; kerncheck's
//! `limiter.*` properties hold the lane forms to it, bit for bit. SL-MPP5's
//! curvatures and `minmod4` stacks are each evaluated
//! once and carried to the next interface; [`slmpp5_flux`] rebuilds one
//! interface from its own five cells through [`mp5_bracket`], the reference
//! the carried loop must equal (kerncheck shows both build the same
//! expression).

use crate::line::{Scheme, GHOST};

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

/// `0` where the signs of `a` and `b` differ, else the one of smaller
/// magnitude — the `f64` instantiation's `minmod`.
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

/// What [`flux_update`] computes with. On the concrete types every method is
/// one individually rounded IEEE operation (nothing fuses); an abstract
/// domain must over-approximate it — an interval contain it, a taint include
/// every input that can influence it, a count cost it.
pub trait Value: Clone {
    /// What an updated cell is stored as.
    type Out;
    /// A per-line constant (a weight, `1/s`, `0.5`, …) in this type.
    fn c(x: f64) -> Self;
    /// `self + o`.
    fn add(&self, o: &Self) -> Self;
    /// `self − o`.
    fn sub(&self, o: &Self) -> Self;
    /// `self · o`.
    fn mul(&self, o: &Self) -> Self;
    /// The smaller of the two.
    fn min(&self, o: &Self) -> Self;
    /// The larger of the two.
    fn max(&self, o: &Self) -> Self;
    /// `0` where the signs differ, else the argument of smaller magnitude.
    ///
    /// The lane types compute it with compare-selects, `f64` by a sign test;
    /// both return the bits of the sign-product form
    /// `(sgn a + sgn b) · ½ · min(|a|, |b|)`, signed zeros included, on every
    /// finite pair. The lane form parts from it on infinities and NaN: the
    /// sign product reads a NaN as a zero sign, so `minmod(1, NaN)` is `0.5`
    /// there and `1` in the lane form (whose `min`/`max` return `self` for a
    /// NaN argument), and `minmod(+∞, −∞)` is NaN there and `+0` here. A NaN
    /// cell still reaches every flux whose stencil holds it, through the
    /// flux's linear part.
    fn minmod(&self, o: &Self) -> Self;
    /// `minmod(minmod(self, b), minmod(c, d))`, the `minmod4` stack. The
    /// lane types fuse it into one compare-select form of the same bits on
    /// finite inputs; every other domain keeps this nesting.
    #[inline(always)]
    fn minmod4(&self, b: &Self, c: &Self, d: &Self) -> Self {
        self.minmod(b).minmod(&c.minmod(d))
    }
    /// `self` clamped into `[lo, hi]`, `lo ≤ hi`.
    #[inline(always)]
    fn clamp(&self, lo: &Self, hi: &Self) -> Self {
        self.max(lo).min(hi)
    }
    /// The updated cell in its storage type.
    fn narrow(self) -> Self::Out;
}

impl Value for f64 {
    type Out = f32;
    #[inline(always)]
    fn c(x: f64) -> f64 {
        x
    }
    #[inline(always)]
    fn add(&self, o: &f64) -> f64 {
        self + o
    }
    #[inline(always)]
    fn sub(&self, o: &f64) -> f64 {
        self - o
    }
    #[inline(always)]
    fn mul(&self, o: &f64) -> f64 {
        self * o
    }
    #[inline(always)]
    fn min(&self, o: &f64) -> f64 {
        f64::min(*self, *o)
    }
    #[inline(always)]
    fn max(&self, o: &f64) -> f64 {
        f64::max(*self, *o)
    }
    #[inline(always)]
    fn minmod(&self, o: &f64) -> f64 {
        minmod(*self, *o)
    }
    #[inline(always)]
    fn clamp(&self, lo: &f64, hi: &f64) -> f64 {
        f64::clamp(*self, *lo, *hi)
    }
    #[inline(always)]
    fn narrow(self) -> f32 {
        self as f32
    }
}

/// Median of three (as used by the MP clip): clips `v` into `[lo, hi]` with
/// the convention that an inverted bracket collapses to its nearest bound.
#[inline(always)]
pub fn median_clip<D: Value>(v: D, lo: D, hi: D) -> D {
    v.add(&lo.sub(&v).minmod(&hi.sub(&v)))
}

/// Curvature `f_{j+1} − 2 f_j + f_{j−1}` at the middle of three cells.
#[inline(always)]
fn curvature<D: Value>(fm: &D, f0: &D, fp: &D) -> D {
    fp.sub(&D::c(2.0).mul(f0)).add(fm)
}

/// The `minmod4` stack between the neighbouring curvatures `d_l`, `d_r`.
#[inline(always)]
fn dm4<D: Value>(d_l: &D, d_r: &D) -> D {
    let four = D::c(4.0);
    four.mul(d_l)
        .sub(d_r)
        .minmod4(&four.mul(d_r).sub(d_l), d_l, d_r)
}

/// The Suresh–Huynh bracket `[lo, hi]` at the interface downwind of `g[2]`,
/// given the `minmod4` stacks at its upwind (`dm4_mh`) and own (`dm4_ph`)
/// interface.
#[inline(always)]
fn bracket<D: Value>(g: &[D; 5], alpha: &D, dm4_mh: &D, dm4_ph: &D) -> (D, D) {
    let (fm1, f0, fp1) = (&g[1], &g[2], &g[3]);
    let half = D::c(0.5);
    let f_ul = f0.add(&alpha.mul(&f0.sub(fm1)));
    let f_md = half.mul(&f0.add(fp1)).sub(&half.mul(dm4_ph));
    let f_lc = f0
        .add(&half.mul(&f0.sub(fm1)))
        .add(&D::c(4.0 / 3.0).mul(dm4_mh));
    let f_min = f0.min(fp1).min(&f_md).max(&f0.min(&f_ul).min(&f_lc));
    let f_max = f0.max(fp1).max(&f_md).min(&f0.max(&f_ul).max(&f_lc));
    (f_min, f_max)
}

/// Suresh–Huynh MP bracket `[lo, hi]` for the interface value at `i+1/2`
/// (positive-velocity orientation) from the five upwind-biased cell values
/// `f = [f_{i-2}, f_{i-1}, f_i, f_{i+1}, f_{i+2}]`.
pub fn mp5_bracket<D: Value>(f: &[D; 5], alpha: D) -> (D, D) {
    let d_m1 = curvature(&f[0], &f[1], &f[2]);
    let d_0 = curvature(&f[1], &f[2], &f[3]);
    let d_p1 = curvature(&f[2], &f[3], &f[4]);
    bracket(f, &alpha, &dm4(&d_m1, &d_0), &dm4(&d_0, &d_p1))
}

/// The per-line quantities of a fractional shift `s`, in the body's type.
#[derive(Clone)]
pub struct Weights<D> {
    /// The fractional shift `s`.
    pub s: D,
    /// `1 / s`.
    pub inv_s: D,
    /// [`mp_alpha`]`(s)`.
    pub alpha: D,
    /// The scheme's flux weights on the five-cell stencil: [`sl5_weights`],
    /// or for SL3 [`sl3_weights`] in the first three slots.
    pub w: [D; 5],
}

impl<D: Value> Weights<D> {
    /// The weights of the fractional shift `s ∈ [0, 1)`, or `None` for a
    /// pure integer shift (`s < 1e-12`), which moves nothing across an
    /// interface — one rule for every scheme and every instantiation.
    #[inline(always)]
    pub fn at(scheme: Scheme, s: f64) -> Option<Self> {
        if s < 1e-12 {
            return None;
        }
        let w = match scheme {
            Scheme::Sl3 => {
                let [a, b, c] = sl3_weights(s);
                [a, b, c, 0.0, 0.0]
            }
            _ => sl5_weights(s),
        };
        Some(Weights {
            s: D::c(s),
            inv_s: D::c(1.0 / s),
            alpha: D::c(mp_alpha(s)),
            w: [D::c(w[0]), D::c(w[1]), D::c(w[2]), D::c(w[3]), D::c(w[4])],
        })
    }
}

/// `Σ_k g[k]·w[k]`, summed left to right.
#[inline(always)]
fn f_high<D: Value>(g: &[D; 5], w: &[D; 5]) -> D {
    g[0].mul(&w[0])
        .add(&g[1].mul(&w[1]))
        .add(&g[2].mul(&w[2]))
        .add(&g[3].mul(&w[3]))
        .add(&g[4].mul(&w[4]))
}

/// The SL-MPP5 flux out of the cell holding `f0`: its SL interface average
/// `f_sl` clipped into the bracket `[lo, hi]`, times `s`, clamped into
/// `[0, max(f0, 0)]` — never negative and never more than the cell holds
/// (`s ≤ 1` ⇒ swept mass ≤ cell mass).
#[inline(always)]
fn limited<D: Value>(f_sl: D, f0: &D, w: &Weights<D>, lo: D, hi: D) -> D {
    let zero = D::c(0.0);
    w.s.mul(&median_clip(f_sl, lo, hi))
        .clamp(&zero, &f0.max(&zero))
}

/// One SL-MPP5 interface flux rebuilt from its own five cells through
/// [`mp5_bracket`] — the per-stencil reference of the carried loop in
/// [`flux_update`].
pub fn slmpp5_flux<D: Value>(g: &[D; 5], w: &Weights<D>) -> D {
    let f_sl = f_high(g, &w.w).mul(&w.inv_s);
    let (lo, hi) = mp5_bracket(g, w.alpha.clone());
    limited(f_sl, &g[2], w, lo, hi)
}

/// The five cells behind interface `j`, at an index opaque to LLVM — which
/// otherwise re-vectorises the lane arithmetic across positions, shuffles and
/// spills instead of one instruction per operation (see [`crate::simd`]).
#[inline(always)]
fn stencil<D: Clone>(up: &[D], j: usize) -> [D; 5] {
    let g = &up[std::hint::black_box(j)..][..5];
    [
        g[0].clone(),
        g[1].clone(),
        g[2].clone(),
        g[3].clone(),
        g[4].clone(),
    ]
}

/// The one flux/update body. `up` is a ghost-extended line in upwind order
/// (`up[GHOST + i]` is the donor-side value of cell `i`), `weights` gives the
/// weights of its fractional shift (`None`: no flux) — called once `flux` is
/// sized, so the lane weights go to registers, not across the zero-fill
/// call; `out` receives the new values of the `up.len() − 2·GHOST` cells, in
/// upwind order too, and `flux[j]` is left holding `F_{j−1/2}`, the flux out
/// of cell `j − 1` (stencil `up[j..j + 5]`).
#[inline(always)]
pub fn flux_update<D: Value>(
    scheme: Scheme,
    weights: impl FnOnce() -> Option<Weights<D>>,
    up: &[D],
    flux: &mut Vec<D>,
    out: &mut [D::Out],
) {
    let m = out.len();
    debug_assert_eq!(up.len(), m + 2 * GHOST);
    flux.clear();
    flux.resize(m + 1, D::c(0.0));
    if let Some(w) = weights() {
        match scheme {
            Scheme::Upwind1 => {
                for (j, fl) in flux.iter_mut().enumerate() {
                    *fl = w.s.mul(&stencil(up, j)[2]);
                }
            }
            Scheme::Sl3 => {
                for (j, fl) in flux.iter_mut().enumerate() {
                    let g = stencil(up, j);
                    *fl = g[1]
                        .mul(&w.w[0])
                        .add(&g[2].mul(&w.w[1]))
                        .add(&g[3].mul(&w.w[2]));
                }
            }
            Scheme::Sl5 => {
                for (j, fl) in flux.iter_mut().enumerate() {
                    *fl = f_high(&stencil(up, j), &w.w);
                }
            }
            Scheme::SlMpp5 => {
                // `mp5_bracket` with each curvature and `minmod4` stack
                // evaluated once: interface j's `d_m1`, `d_0` and `dm4_mh`
                // are interface j−1's `d_0`, `d_p1` and `dm4_ph` (same
                // operands, same order), so the loop carries two of them.
                let mut d_0 = curvature(&up[1], &up[2], &up[3]);
                let mut dm4_mh = dm4(&curvature(&up[0], &up[1], &up[2]), &d_0);
                for (j, fl) in flux.iter_mut().enumerate() {
                    let g = stencil(up, j);
                    let f_sl = f_high(&g, &w.w).mul(&w.inv_s);
                    let d_p1 = curvature(&g[2], &g[3], &g[4]);
                    let dm4_ph = dm4(&d_0, &d_p1);
                    let (lo, hi) = bracket(&g, &w.alpha, &dm4_mh, &dm4_ph);
                    *fl = limited(f_sl, &g[2], &w, lo, hi);
                    (d_0, dm4_mh) = (d_p1, dm4_ph);
                }
            }
        }
    }
    for (i, v) in out.iter_mut().enumerate() {
        // The same opaque index as `stencil`: a transparent one lets LLVM
        // re-vectorise this loop across positions (gathers at width 16).
        let i = std::hint::black_box(i);
        *v = up[i + GHOST].sub(&flux[i + 1]).add(&flux[i]).narrow();
    }
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
        let minmod4 = |a: f64, b, c, d| a.minmod4(&b, &c, &d);
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
