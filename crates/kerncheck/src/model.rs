//! A generic, domain-parameterised model of the flux kernels.
//!
//! The shipped kernels in `advection::line` are monomorphic over `f64`, so
//! they cannot be abstract-interpreted directly. [`flux_model`] re-states the
//! per-interface flux computation *operation for operation* over an abstract
//! domain [`Dom`]; [`advect_line_model`] wraps it into a whole-line update
//! mirroring `advect_line` (ghost build, integer shift, mirror trick, flux
//! form).
//!
//! The model is only evidence about the real kernels if it computes the same
//! thing, so the crate **pins** it: instantiated at `D = f64` (where every
//! trait op is the literal `f64` op the kernel uses, in the same association
//! order) the model must reproduce `advect_line` *bit for bit* on dense
//! random inputs — see `model_matches_real_kernel_bitwise`. Every other
//! domain (intervals, taint, op counts) then analyses the *same* dataflow
//! graph, and its conclusions transfer.
//!
//! SL-MPP5 is modelled twice. [`flux_model`] is the *per-stencil* form: each
//! interface flux a function of its own five cells, which is what the
//! positivity, conservation and footprint arguments reason about. The shipped
//! loops evaluate the *carried* form, [`slmpp5_flux_carried`]: interface `j`'s
//! `d_m1`, `d_0` and `dm4_mh` are interface `j−1`'s `d_0`, `d_p1` and `dm4_ph`
//! — same operands, same order — so two of them ride along in a [`Carry`] and
//! each curvature and `minmod4` stack is evaluated once. The parity check pins
//! the carried form to the kernel, the operation count is taken from it, and
//! the equivalence pass holds the two forms equal (as expression trees, hence
//! bit for bit on every input), so per-stencil results transfer.
//!
//! One deliberate divergence: `f64::clamp(x, lo, hi)` is written here as
//! `x.max(lo).min(hi)`. For `lo ≤ hi` and non-NaN `x` the two agree (up to
//! the sign of a zero, which compares equal), and the decomposition is what
//! exposes the clamp's upper bound to the taint/interval domains — the heart
//! of the positivity argument.

use crate::report::Report;
use vlasov6d_advection::flux::{mp_alpha, sl3_weights, sl5_weights, Boundary};
use vlasov6d_advection::line::GHOST;
use vlasov6d_advection::Scheme;

/// An abstract domain: the value set the model computes over.
///
/// Laws the analyses rely on (all hold for `f64` itself, the concretisation):
/// every op must *over-approximate* the corresponding `f64` op — for
/// intervals, soundly contain it; for taint, include every input that can
/// influence the result; for counts, cost it.
pub trait Dom: Clone {
    /// Lift a compile-time constant (weights, `0.5`, `4/3`, …).
    fn c(x: f64) -> Self;
    /// `a + b`.
    fn add(&self, o: &Self) -> Self;
    /// `a - b`.
    fn sub(&self, o: &Self) -> Self;
    /// `a * b`.
    fn mul(&self, o: &Self) -> Self;
    /// `f64::min`.
    fn min(&self, o: &Self) -> Self;
    /// `f64::max`.
    fn max(&self, o: &Self) -> Self;
    /// `flux::minmod` — kept abstract because the branchy definition admits a
    /// much tighter interval transfer function than its composition.
    fn minmod(&self, o: &Self) -> Self;
}

/// Per-line precomputed quantities, lifted into the domain. Mirrors what
/// `advect_positive` hoists out of the per-cell loop.
#[derive(Clone)]
pub struct Weights<D> {
    /// Fractional shift `s`.
    pub s: D,
    /// `1 / s` (only meaningful when the SL-MPP5 fractional branch runs,
    /// i.e. `s ≥ 1e-12`).
    pub inv_s: D,
    /// `mp_alpha(s)`.
    pub alpha: D,
    /// `sl5_weights(s)`.
    pub w5: [D; 5],
    /// `sl3_weights(s)`.
    pub w3: [D; 3],
}

impl Weights<f64> {
    /// The concrete weights exactly as the kernel computes them.
    pub fn concrete(s: f64) -> Weights<f64> {
        Weights {
            s,
            inv_s: if s >= 1e-12 { 1.0 / s } else { 0.0 },
            alpha: mp_alpha(s),
            w5: sl5_weights(s),
            w3: sl3_weights(s),
        }
    }
}

/// One interface flux plus the provenance the positivity argument needs.
#[derive(Clone)]
pub struct FluxTrace<D> {
    /// The interface flux `F_{j-1/2}`.
    pub flux: D,
    /// For SL-MPP5 only: the upper clamp bound `max(stencil[2], 0)` the flux
    /// was `min`-ed with. `stencil[2]` is the upwind cell the flux drains, so
    /// `flux ≤ clamp_hi` is exactly "a cell never gives away more than it
    /// holds" — the lemma positivity rests on.
    pub clamp_hi: Option<D>,
}

/// `flux::minmod4` over the model.
pub fn minmod4_model<D: Dom>(a: &D, b: &D, c: &D, d: &D) -> D {
    a.minmod(b).minmod(&c.minmod(d))
}

/// `flux::median_clip` over the model: `v + minmod(lo - v, hi - v)`.
pub fn median_clip_model<D: Dom>(v: &D, lo: &D, hi: &D) -> D {
    v.add(&lo.sub(v).minmod(&hi.sub(v)))
}

/// Curvature `d_j = f_{j+1} - 2 f_j + f_{j-1}`, parsed as `(a - b) + c`.
fn curvature_model<D: Dom>(fm: &D, f0: &D, fp: &D) -> D {
    fp.sub(&D::c(2.0).mul(f0)).add(fm)
}

/// The `minmod4` stack of `flux::mp5_bracket` between the neighbouring
/// curvatures `d_l`, `d_r`.
fn dm4_model<D: Dom>(d_l: &D, d_r: &D) -> D {
    let four = D::c(4.0);
    minmod4_model(&four.mul(d_l).sub(d_r), &four.mul(d_r).sub(d_l), d_l, d_r)
}

/// `flux::mp5_bracket` over the model, association order preserved.
pub fn mp5_bracket_model<D: Dom>(f: &[D; 5], alpha: &D) -> (D, D) {
    let d_m1 = curvature_model(&f[0], &f[1], &f[2]);
    let d_0 = curvature_model(&f[1], &f[2], &f[3]);
    let d_p1 = curvature_model(&f[2], &f[3], &f[4]);
    let dm4_ph = dm4_model(&d_0, &d_p1); // at i+1/2
    let dm4_mh = dm4_model(&d_m1, &d_0); // at i-1/2
    bracket_from(f, alpha, &dm4_mh, &dm4_ph)
}

/// The bracket proper, given the two `minmod4` stacks.
fn bracket_from<D: Dom>(f: &[D; 5], alpha: &D, dm4_mh: &D, dm4_ph: &D) -> (D, D) {
    let (fm1, f0, fp1) = (&f[1], &f[2], &f[3]);
    let half = D::c(0.5);
    let four_thirds = D::c(4.0 / 3.0);
    let f_ul = f0.add(&alpha.mul(&f0.sub(fm1)));
    let f_md = half.mul(&f0.add(fp1)).sub(&half.mul(dm4_ph));
    let f_lc = f0
        .add(&half.mul(&f0.sub(fm1)))
        .add(&four_thirds.mul(dm4_mh));
    let f_min = f0.min(fp1).min(&f_md).max(&f0.min(&f_ul).min(&f_lc));
    let f_max = f0.max(fp1).max(&f_md).min(&f0.max(&f_ul).max(&f_lc));
    (f_min, f_max)
}

/// What the shipped SL-MPP5 loops carry from one interface to the next.
#[derive(Clone)]
pub struct Carry<D> {
    /// The curvature at the upwind cell (the previous interface's `d_p1`).
    pub d_0: D,
    /// The `minmod4` stack at `i-1/2` (the previous interface's `dm4_ph`).
    pub dm4_mh: D,
}

impl<D: Dom> Carry<D> {
    /// The loop prologue: what interface 0 of a ghost-extended line starts
    /// from (`ghost[0..4]`) — once per line, like the weights.
    pub fn start(ghost: &[D]) -> Carry<D> {
        let d_0 = curvature_model(&ghost[1], &ghost[2], &ghost[3]);
        let d_m1 = curvature_model(&ghost[0], &ghost[1], &ghost[2]);
        Carry {
            dm4_mh: dm4_model(&d_m1, &d_0),
            d_0,
        }
    }
}

/// One SL-MPP5 interface flux as the shipped loops evaluate it: one new
/// curvature, one new `minmod4` stack, the rest from `carry`. Returns the
/// flux and the carry of the next interface.
pub fn slmpp5_flux_carried<D: Dom>(
    stencil: &[D; 5],
    w: &Weights<D>,
    carry: &Carry<D>,
) -> (FluxTrace<D>, Carry<D>) {
    let d_p1 = curvature_model(&stencil[2], &stencil[3], &stencil[4]);
    let dm4_ph = dm4_model(&carry.d_0, &d_p1);
    let (lo, hi) = bracket_from(stencil, &w.alpha, &carry.dm4_mh, &dm4_ph);
    let next = Carry {
        d_0: d_p1,
        dm4_mh: dm4_ph,
    };
    (limited_flux(stencil, w, &lo, &hi), next)
}

/// Clip the SL interface average into `[lo, hi]`, then the positivity clamp.
fn limited_flux<D: Dom>(stencil: &[D; 5], w: &Weights<D>, lo: &D, hi: &D) -> FluxTrace<D> {
    let f_sl = f_high(stencil, w).mul(&w.inv_s);
    let f_lim = median_clip_model(&f_sl, lo, hi);
    // (s * f_lim).clamp(0, max(stencil[2], 0)), clamp decomposed.
    let clamp_hi = stencil[2].max(&D::c(0.0));
    let flux = w.s.mul(&f_lim).max(&D::c(0.0)).min(&clamp_hi);
    FluxTrace {
        flux,
        clamp_hi: Some(clamp_hi),
    }
}

/// Every interface flux of a ghost-extended SL-MPP5 line (the kernel's
/// `m + 1` for `m + 2·GHOST` values), in the carried form or, as the
/// reference, stencil by stencil.
pub fn slmpp5_fluxes_model<D: Dom>(ghost: &[D], w: &Weights<D>, carried: bool) -> Vec<D> {
    let stencil = |j: usize| -> [D; 5] { core::array::from_fn(|k| ghost[j + k].clone()) };
    let interfaces = ghost.len() - 2 * GHOST + 1;
    if !carried {
        return (0..interfaces)
            .map(|j| flux_model(Scheme::SlMpp5, &stencil(j), w).flux)
            .collect();
    }
    let mut carry = Carry::start(ghost);
    (0..interfaces)
        .map(|j| {
            let (trace, next) = slmpp5_flux_carried(&stencil(j), w, &carry);
            carry = next;
            trace.flux
        })
        .collect()
}

/// One interface flux, mirroring the per-`j` body of `advect_positive`.
/// `stencil = ghost[j .. j+5]`; schemes narrower than five cells index into
/// the middle of it exactly as the kernel indexes `ghost`.
///
/// The SL-MPP5 integer-shift branch (`s < 1e-12` → zero flux) is *not*
/// modelled here — it is data-independent and handled at the line level;
/// domain analyses cover the fractional branch it guards.
pub fn flux_model<D: Dom>(scheme: Scheme, stencil: &[D; 5], w: &Weights<D>) -> FluxTrace<D> {
    match scheme {
        Scheme::Upwind1 => FluxTrace {
            flux: w.s.mul(&stencil[2]),
            clamp_hi: None,
        },
        Scheme::Sl3 => FluxTrace {
            flux: w.w3[0]
                .mul(&stencil[1])
                .add(&w.w3[1].mul(&stencil[2]))
                .add(&w.w3[2].mul(&stencil[3])),
            clamp_hi: None,
        },
        Scheme::Sl5 => FluxTrace {
            flux: f_high(stencil, w),
            clamp_hi: None,
        },
        Scheme::SlMpp5 => {
            let (lo, hi) = mp5_bracket_model(stencil, &w.alpha);
            limited_flux(stencil, w, &lo, &hi)
        }
    }
}

fn f_high<D: Dom>(stencil: &[D; 5], w: &Weights<D>) -> D {
    w.w5[0]
        .mul(&stencil[0])
        .add(&w.w5[1].mul(&stencil[1]))
        .add(&w.w5[2].mul(&stencil[2]))
        .add(&w.w5[3].mul(&stencil[3]))
        .add(&w.w5[4].mul(&stencil[4]))
}

/// Flux-form cell update: `ghost_center - flux_out + flux_in`, parsed as
/// `(a - b) + c` like the kernel.
pub fn update_model<D: Dom>(ghost_center: &D, flux_out: &D, flux_in: &D) -> D {
    ghost_center.sub(flux_out).add(flux_in)
}

/// Whole-line model at `D = f64`: mirrors `advect_line` (mirror trick,
/// integer shift, ghost sampling, flux form, final `f32` cast) but routes all
/// per-cell arithmetic through [`flux_model`] (SL-MPP5: the carried form,
/// [`slmpp5_fluxes_model`]) and [`update_model`]. Used to pin the model to the
/// real kernel bitwise.
pub fn advect_line_model(scheme: Scheme, line: &mut [f32], cfl: f64, bc: Boundary) {
    let n = line.len();
    if n == 0 || cfl == 0.0 {
        return;
    }
    assert!(n >= 2 * GHOST, "line too short for the stencil: {n}");
    if cfl < 0.0 {
        line.reverse();
        advect_positive_model(scheme, line, -cfl, bc);
        line.reverse();
    } else {
        advect_positive_model(scheme, line, cfl, bc);
    }
}

fn advect_positive_model(scheme: Scheme, line: &mut [f32], cfl: f64, bc: Boundary) {
    let n = line.len();
    let n_int = cfl.floor() as i64;
    let s = cfl - n_int as f64;
    let ghost = ghost_line(line, n_int, bc);
    let w = Weights::concrete(s);
    let flux: Vec<f64> = match scheme {
        Scheme::SlMpp5 if s < 1e-12 => vec![0.0; n + 1],
        // The form the kernel ships: this is what pins it.
        Scheme::SlMpp5 => slmpp5_fluxes_model(&ghost, &w, true),
        _ => (0..n + 1)
            .map(|j| {
                let stencil: [f64; 5] = core::array::from_fn(|k| ghost[j + k]);
                flux_model(scheme, &stencil, &w).flux
            })
            .collect(),
    };
    for (i, v) in line.iter_mut().enumerate() {
        *v = update_model(&ghost[i + GHOST], &flux[i + 1], &flux[i]) as f32;
    }
}

/// The ghost-extended, integer-shifted upwind copy `advect_line` works on.
pub fn ghost_line(line: &[f32], n_int: i64, bc: Boundary) -> Vec<f64> {
    (0..line.len() + 2 * GHOST)
        .map(|j| sample(line, j as i64 - GHOST as i64 - n_int, bc))
        .collect()
}

fn sample(line: &[f32], idx: i64, bc: Boundary) -> f64 {
    let n = line.len() as i64;
    match bc {
        Boundary::Periodic => line[idx.rem_euclid(n) as usize] as f64,
        Boundary::Zero => {
            if idx < 0 || idx >= n {
                0.0
            } else {
                line[idx as usize] as f64
            }
        }
    }
}

// ------------------------------------------------------------------------
// Concretisation domain: f64 itself.
// ------------------------------------------------------------------------

impl Dom for f64 {
    fn c(x: f64) -> f64 {
        x
    }
    fn add(&self, o: &f64) -> f64 {
        self + o
    }
    fn sub(&self, o: &f64) -> f64 {
        self - o
    }
    fn mul(&self, o: &f64) -> f64 {
        self * o
    }
    fn min(&self, o: &f64) -> f64 {
        f64::min(*self, *o)
    }
    fn max(&self, o: &f64) -> f64 {
        f64::max(*self, *o)
    }
    fn minmod(&self, o: &f64) -> f64 {
        vlasov6d_advection::flux::minmod(*self, *o)
    }
}

// ------------------------------------------------------------------------
// Taint domain: which stencil inputs can influence a value.
// ------------------------------------------------------------------------

/// Dependency taint: a bitmask of input slots. Constants are untainted; every
/// operation unions its operands (a sound over-approximation of influence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Taint(pub u32);

impl Taint {
    /// The taint of input slot `i`.
    pub fn input(i: usize) -> Taint {
        Taint(1 << i)
    }

    /// Which slots are present.
    pub fn slots(&self) -> Vec<usize> {
        (0..32).filter(|i| self.0 & (1 << i) != 0).collect()
    }
}

impl Dom for Taint {
    fn c(_: f64) -> Taint {
        Taint(0)
    }
    fn add(&self, o: &Taint) -> Taint {
        Taint(self.0 | o.0)
    }
    fn sub(&self, o: &Taint) -> Taint {
        Taint(self.0 | o.0)
    }
    fn mul(&self, o: &Taint) -> Taint {
        Taint(self.0 | o.0)
    }
    fn min(&self, o: &Taint) -> Taint {
        Taint(self.0 | o.0)
    }
    fn max(&self, o: &Taint) -> Taint {
        Taint(self.0 | o.0)
    }
    fn minmod(&self, o: &Taint) -> Taint {
        Taint(self.0 | o.0)
    }
}

/// Taint trace of one interface flux: `stencil[k]` carries taint bit `k`, and
/// the per-line weights carry *no* taint (they depend on `s`, not the data).
pub fn flux_taint(scheme: Scheme) -> FluxTrace<Taint> {
    let stencil: [Taint; 5] = core::array::from_fn(Taint::input);
    let w = Weights {
        s: Taint(0),
        inv_s: Taint(0),
        alpha: Taint(0),
        w5: [Taint(0); 5],
        w3: [Taint(0); 3],
    };
    flux_model(scheme, &stencil, &w)
}

/// Pin the model to the real kernel: every scheme, both boundaries, a sweep
/// of integer+fractional shifts, random lines — outputs must agree to the
/// bit (`f32` equality; both paths do their arithmetic in `f64` and cast
/// once). This is the load-bearing check that transfers every abstract
/// result back to the shipped code.
pub fn check_model_parity(report: &mut Report) {
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) as f32
    };
    let schemes = [Scheme::Upwind1, Scheme::Sl3, Scheme::Sl5, Scheme::SlMpp5];
    let cfls = [
        0.0,
        1e-13,
        0.1,
        0.2,
        0.25,
        0.5,
        0.75,
        0.999,
        1.0,
        2.3,
        5.0 + 1.0 / 3.0,
        -0.4,
        -2.7,
    ];
    let mut cases = 0usize;
    let mut mismatch = None;
    for scheme in schemes {
        for &cfl in &cfls {
            for bc in [Boundary::Periodic, Boundary::Zero] {
                let base: Vec<f32> = (0..48).map(|_| next() * 2.0).collect();
                let mut real = base.clone();
                let mut modeled = base.clone();
                let mut work = vlasov6d_advection::line::LineWork::new();
                vlasov6d_advection::advect_line(scheme, &mut real, cfl, bc, &mut work);
                advect_line_model(scheme, &mut modeled, cfl, bc);
                cases += 1;
                if mismatch.is_none() {
                    for (i, (a, b)) in real.iter().zip(&modeled).enumerate() {
                        let same = a == b || (a.is_nan() && b.is_nan());
                        if !same {
                            mismatch = Some(format!(
                                "{scheme:?} cfl={cfl} {bc:?} cell {i}: kernel {a} vs model {b}"
                            ));
                            break;
                        }
                    }
                }
            }
        }
    }
    match mismatch {
        None => report.verified(
            "interval",
            "model.f64_parity",
            format!(
                "domain model reproduces advect_line bit-for-bit on {cases} \
                 (scheme × cfl × boundary) random-line cases — abstract results transfer"
            ),
        ),
        Some(w) => report.violated(
            "interval",
            "model.f64_parity",
            "domain model diverges from the shipped kernel; abstract results do not transfer",
            Some(w),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_matches_real_kernel_bitwise() {
        let mut report = Report::new();
        check_model_parity(&mut report);
        assert!(report.ok(), "{}", report.render_text("kerncheck"));
    }

    #[test]
    fn miri_smoke_taint_of_clamp_is_the_upwind_cell() {
        // The SL-MPP5 clamp bound depends on stencil slot 2 (the upwind
        // cell) and nothing else — the structural half of the positivity
        // argument.
        let trace = flux_taint(Scheme::SlMpp5);
        assert_eq!(trace.clamp_hi.unwrap().slots(), vec![2]);
        // And the flux reads the whole five-cell stencil.
        assert_eq!(trace.flux.slots(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn miri_smoke_structural_footprints() {
        assert_eq!(flux_taint(Scheme::Upwind1).flux.slots(), vec![2]);
        assert_eq!(flux_taint(Scheme::Sl3).flux.slots(), vec![1, 2, 3]);
        assert_eq!(flux_taint(Scheme::Sl5).flux.slots(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn miri_smoke_f64_flux_matches_direct_computation() {
        // Spot-check one interface against hand-rolled kernel arithmetic.
        let s = 0.37;
        let w = Weights::concrete(s);
        let stencil = [0.2f64, 1.4, 0.9, 0.1, 0.8];
        let t = flux_model(Scheme::SlMpp5, &stencil, &w);
        let w5 = sl5_weights(s);
        let f_high: f64 = (0..5).map(|k| w5[k] * stencil[k]).sum();
        let f_sl = f_high / s;
        let (lo, hi) = vlasov6d_advection::flux::mp5_bracket(&stencil, mp_alpha(s));
        let expect = (s * vlasov6d_advection::flux::median_clip(f_sl, lo, hi))
            .clamp(0.0, stencil[2].max(0.0));
        assert_eq!(t.flux, expect);
        assert_eq!(t.clamp_hi, Some(stencil[2].max(0.0)));
    }
}
