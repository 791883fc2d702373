//! Pass 2 — interval abstract interpretation of the flux kernels.
//!
//! Instantiates the shipped flux body (see [`super::model`]) at a sound
//! floating-point interval domain and sweeps the whole admissible parameter
//! space: fractional shift `s` partitioned into ~1000 sub-intervals
//! (geometric near the `s → 0` singular end where `1/s` blows up, uniform
//! above), inputs in `[0, M]`. Every `+`, `−`, `×` is widened outward by one
//! ULP so the interval *contains every rounding the real kernel can commit*;
//! `min`/`max` are exact (they introduce no rounding), which is what lets the
//! SL-MPP5 clamp bounds survive the analysis un-widened, and the update is
//! narrowed to `f32` bound by bound (rounding is monotone), as the line
//! kernel stores it.
//!
//! Proved here:
//! * **NaN/overflow-freedom** for every scheme over all `s`, at `M = 1` and
//!   `M = 1e30` (a value becomes *poisoned* if any reachable bound is
//!   non-finite; no output is);
//! * **SL-MPP5 flux containment** `F ∈ [0, max(f_upwind, 0)] ⊆ [0, M]` —
//!   exact, because the clamp's `max`/`min` transfer functions are exact;
//! * **SL-MPP5 positivity** of the cell update for all `|cfl| < 1` — the
//!   clamp bound is tainted only by the upwind cell (structural, from the
//!   taint domain), the flux never exceeds it (interval), both analyses ran
//!   the kernel's own body, and IEEE-754 subtraction/addition are monotone with
//!   exact cancellation, so `center − flux_out + flux_in ≥ 0` in `f64` and
//!   the `f32` cast preserves sign;
//! * **Upwind1 monotonicity** — both update coefficients `1 − s`, `s` are
//!   provably nonnegative on `[0, 1]` (exact rational endpoints, degree ≤ 1);
//! * **negative controls** — unlimited SL3/SL5 *cannot* be positivity
//!   preserving (Godunov's barrier): the pass finds a negative update
//!   coefficient, builds the indicator-function counterexample, runs the
//!   *real* `advect_line` on it, and confirms a negative output cell. A
//!   counterexample shift is emitted either way.

use super::model::{run_body, slots, taint_line};
use super::weights::{sl3_symbolic, sl5_symbolic, SymbolicWeights};
use crate::rational::{Poly, Rat};
use crate::report::Report;
use vlasov6d_advection::flux::{Value, Weights};
use vlasov6d_advection::line::{LineWork, GHOST};
use vlasov6d_advection::{advect_line, Boundary, Scheme};

/// Next representable `f64` toward `+∞` (finite and NaN inputs pass through
/// at the extremes; implemented over bits for MSRV independence).
pub(crate) fn next_up(x: f64) -> f64 {
    if x.is_nan() || x == f64::INFINITY {
        return x;
    }
    if x == 0.0 {
        return f64::from_bits(1);
    }
    if x > 0.0 {
        f64::from_bits(x.to_bits() + 1)
    } else {
        f64::from_bits(x.to_bits() - 1)
    }
}

/// Next representable `f64` toward `−∞`.
pub(crate) fn next_down(x: f64) -> f64 {
    -next_up(-x)
}

/// A floating-point interval `[lo, hi]` with a poison flag.
///
/// Poison means "not proven NaN-free and finite": it is set when a bound
/// leaves the finite range or an operation could produce NaN, and it
/// propagates through *every* operation — including `min`/`max`, which could
/// otherwise mask an infinity computed upstream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    pub lo: f64,
    pub hi: f64,
    pub poisoned: bool,
}

impl Interval {
    fn mk(lo: f64, hi: f64, poisoned: bool) -> Interval {
        let poisoned = poisoned || !lo.is_finite() || !hi.is_finite() || lo > hi;
        Interval { lo, hi, poisoned }
    }

    /// Exact interval from bounds (no widening).
    pub(crate) fn from_bounds(lo: f64, hi: f64) -> Interval {
        Interval::mk(lo, hi, false)
    }

    /// Smallest interval containing both.
    pub(crate) fn hull(&self, o: &Interval) -> Interval {
        Interval::mk(
            self.lo.min(o.lo),
            self.hi.max(o.hi),
            self.poisoned || o.poisoned,
        )
    }

    /// Widen both bounds outward by an absolute `eps`.
    pub fn pad(&self, eps: f64) -> Interval {
        Interval::mk(self.lo - eps, self.hi + eps, self.poisoned)
    }
}

impl Value for Interval {
    type Out = Interval;
    fn c(x: f64) -> Interval {
        Interval::mk(x, x, false)
    }
    fn add(&self, o: &Interval) -> Interval {
        Interval::mk(
            next_down(self.lo + o.lo),
            next_up(self.hi + o.hi),
            self.poisoned || o.poisoned,
        )
    }
    fn sub(&self, o: &Interval) -> Interval {
        Interval::mk(
            next_down(self.lo - o.hi),
            next_up(self.hi - o.lo),
            self.poisoned || o.poisoned,
        )
    }
    fn mul(&self, o: &Interval) -> Interval {
        let corners = [
            self.lo * o.lo,
            self.lo * o.hi,
            self.hi * o.lo,
            self.hi * o.hi,
        ];
        let nan = corners.iter().any(|c| c.is_nan());
        let lo = corners.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = corners.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Interval::mk(
            next_down(lo),
            next_up(hi),
            self.poisoned || o.poisoned || nan,
        )
    }
    fn min(&self, o: &Interval) -> Interval {
        // f64::min is exact: no widening needed.
        Interval::mk(
            self.lo.min(o.lo),
            self.hi.min(o.hi),
            self.poisoned || o.poisoned,
        )
    }
    fn max(&self, o: &Interval) -> Interval {
        Interval::mk(
            self.lo.max(o.lo),
            self.hi.max(o.hi),
            self.poisoned || o.poisoned,
        )
    }
    fn minmod(&self, o: &Interval) -> Interval {
        // minmod(a, b) is 0 when signs disagree, else the argument of
        // smaller magnitude — so the result always lies between 0 and each
        // argument. Sound (and exact, as selection introduces no rounding):
        //   lo = min(0, max(a.lo, b.lo)),  hi = max(0, min(a.hi, b.hi)).
        // If the result is negative it equals max(a, b) ≥ max(a.lo, b.lo);
        // if positive it equals min(a, b) ≤ min(a.hi, b.hi).
        Interval::mk(
            0.0f64.min(self.lo.max(o.lo)),
            0.0f64.max(self.hi.min(o.hi)),
            self.poisoned || o.poisoned,
        )
    }
    fn narrow(self) -> Interval {
        // Round-to-nearest is monotone, so the rounded bounds contain the
        // rounding of every value between them; an overflow poisons.
        Interval::mk(self.lo as f32 as f64, self.hi as f32 as f64, self.poisoned)
    }
}

/// Absolute padding applied to symbolic-polynomial weight intervals so they
/// also contain the *computed* `f64` weights: the weights pass proves the
/// shipped evaluators stay within `max(1e-14, 16 ULP)` of the exact
/// polynomials, and `1e-13` dominates that for the `|w| ≤ 3` range.
pub(crate) const WEIGHT_INTERVAL_PAD: f64 = 1e-13;

/// Sound interval Horner evaluation of an exact polynomial over `s`,
/// with each coefficient widened to cover its `f64` conversion and the
/// result padded by [`WEIGHT_INTERVAL_PAD`].
pub(crate) fn poly_interval(p: &Poly, s: &Interval) -> Interval {
    let mut acc = Interval::c(0.0);
    for c in p.coeffs().iter().rev() {
        let cf = c.to_f64();
        let ci = Interval::from_bounds(next_down(cf), next_up(cf));
        acc = acc.mul(s).add(&ci);
    }
    acc.pad(WEIGHT_INTERVAL_PAD)
}

/// Interval for `mp_alpha` over `[s_lo, s_hi]`: constant 4 below the 0.2
/// branch point, the (monotone decreasing) `(1 − s)/s` above it, and the
/// hull of both across it.
fn alpha_interval(s_lo: f64, s_hi: f64) -> Interval {
    let upper_branch =
        |a: f64, b: f64| Interval::from_bounds(next_down((1.0 - b) / b), next_up((1.0 - a) / a));
    if s_hi <= 0.2 {
        Interval::c(4.0)
    } else if s_lo > 0.2 {
        upper_branch(s_lo, s_hi)
    } else {
        Interval::c(4.0).hull(&upper_branch(0.2, s_hi))
    }
}

/// The exact weights [`Weights::at`] puts in the body for `scheme`.
fn symbolic(scheme: Scheme) -> SymbolicWeights {
    if scheme == Scheme::Sl3 {
        sl3_symbolic()
    } else {
        sl5_symbolic()
    }
}

/// Per-line weights `sym` lifted to intervals over the shift range
/// `[s_lo, s_hi]`.
fn interval_weights(sym: &SymbolicWeights, s_lo: f64, s_hi: f64) -> Weights<Interval> {
    let s = Interval::from_bounds(s_lo, s_hi);
    let inv_s = if s_lo >= 1e-12 {
        Interval::from_bounds(next_down(1.0 / s_hi), next_up(1.0 / s_lo))
    } else {
        Interval::c(0.0)
    };
    let w = core::array::from_fn(|i| {
        sym.weights
            .get(i)
            .map_or(Interval::c(0.0), |p| poly_interval(p, &s))
    });
    Weights {
        inv_s,
        alpha: alpha_interval(s_lo, s_hi),
        w,
        s,
    }
}

/// Shift-range partition cut points for a scheme. SL-MPP5's fractional
/// branch only runs for `s ≥ 1e-12` (below, the kernel emits zero flux), and
/// `1/s` demands geometric resolution near that end; the linear schemes
/// start at 0.
pub(crate) fn s_cuts(scheme: Scheme) -> Vec<f64> {
    let mut cuts = Vec::new();
    if matches!(scheme, Scheme::SlMpp5) {
        let mut s = 1e-12;
        while s < 1.0 / 1024.0 {
            cuts.push(s);
            s *= 2.0;
        }
    } else {
        cuts.push(0.0);
    }
    for k in 1..=1024 {
        cuts.push(k as f64 / 1024.0);
    }
    cuts
}

/// Result of sweeping one scheme at one input magnitude.
struct SchemeSweep {
    /// First sub-interval whose flux or update was poisoned, if any.
    poisoned_at: Option<(f64, f64)>,
    /// First sub-interval violating SL-MPP5 flux containment `[0, M]`.
    containment_fail: Option<(f64, f64)>,
    /// Hull of all flux intervals.
    flux: Interval,
    /// Hull of all update intervals.
    update: Interval,
    /// Number of sub-intervals analysed.
    pieces: usize,
}

/// Sweep every `s` sub-interval for `scheme` with inputs in `[0, m]`: the
/// shipped body over a line of `2·GHOST + 1` such cells, one updated cell
/// and its two face fluxes.
fn sweep_scheme(scheme: Scheme, m: f64) -> SchemeSweep {
    let sym = symbolic(scheme);
    let cuts = s_cuts(scheme);
    let line = [Interval::from_bounds(0.0, m); 2 * GHOST + 1];
    let mut out = SchemeSweep {
        poisoned_at: None,
        containment_fail: None,
        flux: Interval::c(0.0),
        update: Interval::c(0.0),
        pieces: 0,
    };
    for pair in cuts.windows(2) {
        let (s_lo, s_hi) = (pair[0], pair[1]);
        let (fluxes, cells) = run_body(scheme, &interval_weights(&sym, s_lo, s_hi), &line);
        let flux = fluxes[0].hull(&fluxes[1]);
        let update = cells[0];
        out.pieces += 1;
        if (flux.poisoned || update.poisoned) && out.poisoned_at.is_none() {
            out.poisoned_at = Some((s_lo, s_hi));
        }
        if matches!(scheme, Scheme::SlMpp5)
            && (flux.lo < 0.0 || flux.hi > m)
            && out.containment_fail.is_none()
        {
            out.containment_fail = Some((s_lo, s_hi));
        }
        out.flux = out.flux.hull(&flux);
        out.update = out.update.hull(&update);
    }
    out
}

/// Update coefficient polynomials for a *linear* scheme: the contribution of
/// `f_{i+d}` to the update of cell `i` (at zero integer shift) is
/// `c_d(s) = δ_{d,0} − w_d(s) + w_{d+1}(s)`, with out-of-stencil weights
/// zero. Offsets run `cell_lo − 1 ..= cell_hi`.
pub(crate) fn update_coefficient_polys(sym: &SymbolicWeights) -> Vec<(i64, Poly)> {
    let cell_hi = sym.cell_lo() + sym.weights.len() as i64 - 1;
    let weight = |k: i64| -> Poly {
        if k >= sym.cell_lo() && k <= cell_hi {
            sym.weights[(k - sym.cell_lo()) as usize].clone()
        } else {
            Poly::zero()
        }
    };
    (sym.cell_lo() - 1..=cell_hi)
        .map(|d| {
            let delta = if d == 0 { Rat::ONE } else { Rat::ZERO };
            let c = Poly::constant(delta).sub(&weight(d)).add(&weight(d + 1));
            (d, c)
        })
        .collect()
}

/// Find the most negative update coefficient of a linear scheme on a dense
/// rational shift grid. Returns `(offset, shift, value)`.
fn most_negative_coefficient(sym: &SymbolicWeights) -> Option<(i64, Rat, Rat)> {
    let coeffs = update_coefficient_polys(sym);
    let mut best: Option<(i64, Rat, Rat)> = None;
    for k in 1..64i128 {
        let s = Rat::new(k, 64);
        for (d, p) in &coeffs {
            let v = p.eval_rat(&s);
            if v.num() < 0
                && best
                    .as_ref()
                    .is_none_or(|(_, _, b)| v.to_f64() < b.to_f64())
            {
                best = Some((*d, s, v));
            }
        }
    }
    best
}

/// Build the indicator-function counterexample for a negative update
/// coefficient and run the *real* kernel on it: a line that is 1 in one cell
/// and 0 elsewhere must come out negative at offset `−d`.
fn kernel_negativity_witness(scheme: Scheme, d: i64, s: f64) -> Option<(usize, f32)> {
    let n = 32usize;
    let j = 16usize;
    let mut line = vec![0.0f32; n];
    line[j] = 1.0;
    let mut work = LineWork::new();
    advect_line(scheme, &mut line, s, Boundary::Periodic, &mut work);
    let i = (j as i64 - d).rem_euclid(n as i64) as usize;
    (line[i] < 0.0).then_some((i, line[i]))
}

/// Tolerance factor for the reported update-growth bound (the interval sweep
/// widens every operation by one ULP and rounds the update to `f32`, so the
/// exact `[−M, 2M]` envelope picks up an `f32` rounding).
const GROWTH_TOL: f64 = 1.0 + f32::EPSILON as f64;

/// Run the whole pass.
pub fn run(report: &mut Report) {
    // Structural half of the positivity argument: the clamp's upper bound is
    // tainted only by the upwind cell (stencil slot 2 = ghost[j+2], the cell
    // the flux drains), so "flux ≤ clamp bound" means "a cell never gives
    // away more mass than it holds".
    let clamp_slots = slots(taint_line(Scheme::SlMpp5).0.clamp_hi);
    let taint_ok = clamp_slots == vec![2];
    report.check(
        "interval",
        "slmpp5.clamp_taint",
        "the positivity clamp's upper bound depends only on the upwind cell (taint = {2})",
        (!taint_ok).then(|| format!("taint slots = {clamp_slots:?}")),
    );

    // Interval sweeps: NaN/overflow-freedom for every scheme at two input
    // magnitudes, plus SL-MPP5 flux containment and update growth.
    let schemes = [Scheme::Upwind1, Scheme::Sl3, Scheme::Sl5, Scheme::SlMpp5];
    let mut containment_ok = true;
    for scheme in schemes {
        for m in [1.0, 1e30] {
            let sweep = sweep_scheme(scheme, m);
            let m_tag = if m == 1.0 { "1" } else { "1e30" };
            let shift_range =
                |(a, b): (f64, f64)| format!("counterexample shift range s ∈ [{a}, {b}]");
            report.check(
                "interval",
                format!("{scheme:?}.nan_free.m{m_tag}"),
                format!(
                    "no NaN/overflow reachable over {} shift sub-intervals, inputs [0, {m:.0e}] \
                     (flux ⊆ [{:.3e}, {:.3e}])",
                    sweep.pieces, sweep.flux.lo, sweep.flux.hi
                ),
                sweep.poisoned_at.map(shift_range),
            );
            if matches!(scheme, Scheme::SlMpp5) {
                containment_ok &= sweep.containment_fail.is_none();
                report.check(
                    "interval",
                    format!("slmpp5.flux_containment.m{m_tag}"),
                    format!(
                        "flux ∈ [0, M] for all s (exact: the clamp's min/max transfer functions \
                         introduce no widening); update ⊆ [{:.3e}, {:.3e}] ⊆ [−M, 2M]·(1+ε_f32)",
                        sweep.update.lo, sweep.update.hi
                    ),
                    sweep.containment_fail.map(shift_range),
                );
                let growth_ok =
                    sweep.update.lo >= -m * GROWTH_TOL && sweep.update.hi <= 2.0 * m * GROWTH_TOL;
                if !growth_ok {
                    containment_ok = false;
                    let update = format!(
                        "update ⊆ [{:.3e}, {:.3e}]",
                        sweep.update.lo, sweep.update.hi
                    );
                    report.check(
                        "interval",
                        format!("slmpp5.update_growth.m{m:.0e}"),
                        "a single-step update stays in the [−M, 2M] envelope",
                        Some(update),
                    );
                }
            }
        }
    }

    // The positivity conclusion, assembled from the verified links.
    report.check(
        "interval",
        "slmpp5.positivity",
        "for all |cfl| < 1 and nonnegative inputs the SL-MPP5 update is nonnegative: \
         flux ∈ [0, max(center, 0)] with the bound tainted only by the drained cell \
         (verified above), IEEE-754 subtraction is monotone with exact cancellation so \
         center − flux_out ≥ 0, adding flux_in ≥ 0 preserves the sign, and the f32 cast \
         is sign-preserving (mirror trick extends this to cfl < 0); every link was \
         derived from the kernel's own body",
        (!(taint_ok && containment_ok)).then(|| {
            "a link in the positivity chain failed (see slmpp5.clamp_taint / \
             slmpp5.flux_containment above)"
                .into()
        }),
    );

    // Upwind1 monotonicity: both update coefficients are degree ≤ 1 with
    // nonnegative exact endpoints, hence nonnegative on [0, 1].
    let upwind_w = symbolic_upwind1();
    let upwind_coeffs = update_coefficient_polys(&upwind_w);
    let nonneg = |p: &Poly| {
        p.degree().unwrap_or(0) <= 1
            && p.eval_rat(&Rat::ZERO).num() >= 0
            && p.eval_rat(&Rat::ONE).num() >= 0
    };
    let coefficients = || {
        let c: Vec<String> = upwind_coeffs
            .iter()
            .map(|(d, p)| format!("c_{d} = {p}"))
            .collect();
        c.join("; ")
    };
    report.check(
        "interval",
        "upwind1.monotone",
        "all update coefficients (1 − s at offset 0, s at offset −1) are provably \
         nonnegative on s ∈ [0, 1]: first-order upwind is monotone",
        (!upwind_coeffs.iter().all(|(_, p)| nonneg(p))).then(coefficients),
    );

    // Negative controls: by Godunov's barrier the *unlimited* high-order
    // linear schemes cannot preserve positivity. Find the negative
    // coefficient and confirm it against the real kernel.
    for (scheme, sym) in [(Scheme::Sl3, sl3_symbolic()), (Scheme::Sl5, sl5_symbolic())] {
        let name = format!("{scheme:?}.positivity");
        match most_negative_coefficient(&sym) {
            Some((d, s, v)) => {
                let sf = s.to_f64();
                let witness = kernel_negativity_witness(scheme, d, sf);
                match witness {
                    Some((cell, got)) => report.control(
                        "interval",
                        name,
                        format!(
                            "unlimited {scheme:?} is not positivity-preserving (Godunov barrier)"
                        ),
                        true,
                        Some(format!(
                            "update coefficient c_{d}({s}) = {v} < 0; indicator line advected by \
                             cfl = {sf} goes negative at cell {cell}: {got}"
                        )),
                    ),
                    None => report.check(
                        "interval",
                        name,
                        "symbolic analysis predicts a negative cell but the real kernel does not \
                         reproduce it — model and kernel disagree",
                        Some(format!("offset {d}, shift {sf}")),
                    ),
                }
            }
            None => report.control(
                "interval",
                name,
                format!("unlimited {scheme:?} is not positivity-preserving"),
                false,
                None,
            ),
        }
    }
}

/// Upwind1's flux weight as a symbolic family: a single cell with `w_0 = s`.
fn symbolic_upwind1() -> SymbolicWeights {
    SymbolicWeights {
        label: "upwind1",
        order: 1,
        node_lo: -1,
        cardinals: Vec::new(),
        weights: vec![Poly::var()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miri_smoke_interval_arithmetic_is_sound() {
        let a = Interval::from_bounds(1.0, 2.0);
        let b = Interval::from_bounds(-3.0, 0.5);
        let s = a.add(&b);
        assert!(s.lo <= -2.0 && s.hi >= 2.5 && !s.poisoned);
        let p = a.mul(&b);
        assert!(p.lo <= -6.0 && p.hi >= 1.0 && !p.poisoned);
        // min/max are exact.
        assert_eq!(a.max(&b).lo, 1.0);
        assert_eq!(a.max(&b).hi, 2.0);
        // minmod: disagreeing signs collapse to zero...
        let m = Interval::from_bounds(1.0, 2.0).minmod(&Interval::from_bounds(-4.0, -3.0));
        assert_eq!((m.lo, m.hi), (0.0, 0.0));
        // ... agreeing signs stay within the smaller magnitude.
        let m = Interval::from_bounds(1.0, 2.0).minmod(&Interval::from_bounds(3.0, 4.0));
        assert_eq!((m.lo, m.hi), (0.0, 2.0));
        // Overflow poisons.
        let big = Interval::from_bounds(1e308, 1e308);
        assert!(big.add(&big).poisoned);
    }

    #[test]
    fn miri_smoke_concrete_values_stay_inside_intervals() {
        // One sub-interval, many concrete shifts inside it: the interval
        // run of the body must contain every concrete flux and update.
        let (s_lo, s_hi) = (0.25, 0.3);
        let w = interval_weights(&sl5_symbolic(), s_lo, s_hi);
        let line = [Interval::from_bounds(0.0, 1.0); 2 * GHOST + 1];
        let (flux, cells) = run_body(Scheme::SlMpp5, &w, &line);
        let up = [0.9f64, 0.1, 0.7, 1.0, 0.3, 0.6, 0.2];
        for k in 0..8 {
            let s = s_lo + (s_hi - s_lo) * (k as f64 / 7.0);
            let wc = Weights::at(Scheme::SlMpp5, s).expect("fractional shift");
            let (cf, cc) = run_body(Scheme::SlMpp5, &wc, &up);
            let inside = |v: f64, i: &Interval| v >= i.lo && v <= i.hi;
            assert!(
                inside(cf[0], &flux[0]),
                "s = {s}: {} outside {:?}",
                cf[0],
                flux[0]
            );
            assert!(
                inside(cf[1], &flux[1]),
                "s = {s}: {} outside {:?}",
                cf[1],
                flux[1]
            );
            assert!(inside(cc[0] as f64, &cells[0]), "s = {s}: {}", cc[0]);
        }
    }

    #[test]
    fn full_interval_pass_verifies() {
        let mut report = Report::new();
        run(&mut report);
        assert!(report.ok(), "{}", report.render_text("kerncheck"));
    }

    #[test]
    fn sl5_negative_coefficient_exists_and_reproduces() {
        let (d, s, v) = most_negative_coefficient(&sl5_symbolic()).expect("Godunov barrier");
        assert!(v.to_f64() < 0.0);
        let witness = kernel_negativity_witness(Scheme::Sl5, d, s.to_f64());
        assert!(
            witness.is_some(),
            "kernel does not reproduce c_{d}({s}) < 0"
        );
    }

    #[test]
    fn slmpp5_sweep_is_clean_and_contained() {
        let sweep = sweep_scheme(Scheme::SlMpp5, 1.0);
        assert!(sweep.poisoned_at.is_none());
        assert!(sweep.containment_fail.is_none());
        assert!(sweep.flux.lo >= 0.0 && sweep.flux.hi <= 1.0);
        assert!(sweep.update.lo >= -GROWTH_TOL && sweep.update.hi <= 2.0 * GROWTH_TOL);
        assert!(sweep.pieces > 1000);
    }
}
