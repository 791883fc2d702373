//! Pass 4 — SIMD/scalar equivalence.
//!
//! Two claims tie the LAT SIMD path to the scalar reference:
//!
//! * [`transpose8x8`] is **exactly** the 8×8 transposition permutation. The
//!   shuffle network is data-independent, so running it on a symbolic
//!   lane-index matrix decides the claim for *all* inputs: the 64 indicator
//!   matrices (a one-hot per slot) enumerate the permutation matrix itself,
//!   and two distinct integer labelings (exact in `f32`, values < 2²⁴) catch
//!   any aliasing an indicator sweep could mask. Involution is checked on
//!   random data as a redundant independent witness.
//!
//! * `advect_lanes` (all-`f32`, at `f32x8` and at `f32x16`) tracks
//!   `advect_line` (weights and limiter in `f64`) within a per-element hybrid
//!   ULP budget over a seeded adversarial corpus: uniform random lines,
//!   isolated spikes (limiter corners), denormal-magnitude lines
//!   (flush/underflow paths), and near-clamp plateaus (the positivity
//!   clamp's `min`/`max` ties), at 40 cells and at every length below the
//!   stencil's (1–5). The tolerance is
//!   `BUDGET_ULPS · ε_f32 · scale + 2 · f32::MIN_POSITIVE` with `scale` the
//!   line's max magnitude — relative in the normal range, absolute at the
//!   denormal floor.
//!
//! A third ties the form of SL-MPP5 the kernels execute to the form the
//! limiter is defined by: the body's *carried* loop — each curvature and
//! `minmod4` stack evaluated once and handed to the next interface — must
//! compute the *per-stencil* reference `flux::slmpp5_flux` (each interface
//! from its own five cells through `mp5_bracket`), bit for bit. It is decided
//! for all inputs by running both over a domain of expression trees (every
//! interface flux must come out as the same tree, node for node), and
//! witnessed independently at `f64` on the adversarial corpus.
//!
//! A fourth ties the lane types' limiter to the rule it replaced: their
//! compare-select `minmod` and `minmod4` must return the bits of the
//! sign-product form `(sgn a + sgn b) · ½ · min(|a|, |b|)` (nested for
//! `minmod4`), signed zeros included, at both widths — on every pair and
//! quadruple of a grid of signed zeros, subnormals, normals and `f32::MAX`,
//! and on seeded random ones. The forms without their sign-bit fix are a
//! negative control: `minmod(+0, −1)` is `−0` by the sign product and `+0`
//! without the fix, and the check must say so.

use super::model::run_body;
use crate::report::Report;
use vlasov6d_advection::flux::{slmpp5_flux, Value, Weights};
use vlasov6d_advection::lanes::{advect_lanes, adversarial_corpus as corpus, LanesWork};
use vlasov6d_advection::line::{advect_line, LineWork, GHOST};
use vlasov6d_advection::simd::{f32x16, transpose8x8, Lanes, LANES};
use vlasov6d_advection::{f32x8, Boundary, Scheme};

/// ULP budget for the lanes-vs-line comparison. The f32 kernel loses
/// precision against the f64-weighted scalar path mainly through the cast
/// weights and the `1/s` amplification; ~2⁻¹² relative (2048 ULP) bounds the
/// worst adversarial case with ~4× headroom while still catching any
/// structural divergence (a wrong weight or stencil slot shows up at ≥ 2⁻⁸).
pub const BUDGET_ULPS: f64 = 2048.0;

/// Per-element tolerance for a line whose magnitude scale is `scale`.
pub fn lane_tolerance(scale: f32) -> f32 {
    (BUDGET_ULPS * f32::EPSILON as f64 * scale as f64) as f32 + 2.0 * f32::MIN_POSITIVE
}

/// The first way `transpose8x8` departs from the transposition permutation,
/// or `None`.
fn transpose_witness() -> Option<String> {
    // Indicator sweep: the full permutation matrix, one slot at a time.
    for r in 0..8 {
        for c in 0..8 {
            let mut m: [f32x8; 8] = [f32x8::ZERO; 8];
            m[r].0[c] = 1.0;
            transpose8x8(&mut m);
            for rr in 0..8 {
                for cc in 0..8 {
                    let expect = if (rr, cc) == (c, r) { 1.0 } else { 0.0 };
                    if m[rr].0[cc] != expect {
                        let got = m[rr].0[cc];
                        return Some(format!(
                            "indicator at ({r},{c}) landed wrong at ({rr},{cc}): {got}"
                        ));
                    }
                }
            }
        }
    }

    // Two independent integer labelings (injective over the 64 slots, exact
    // in f32), plus involution on each.
    let labelings: [&dyn Fn(usize, usize) -> f32; 2] = [&|r, c| (r * 8 + c) as f32, &|r, c| {
        (1000 + 17 * r + 53 * c) as f32
    }];
    for (k, f) in labelings.into_iter().enumerate() {
        let mut m: [f32x8; 8] = core::array::from_fn(|r| f32x8(core::array::from_fn(|c| f(r, c))));
        let orig = m;
        transpose8x8(&mut m);
        let transposed = (0..64).all(|i| m[i / 8].0[i % 8] == f(i % 8, i / 8));
        transpose8x8(&mut m);
        if !transposed || m != orig {
            return Some(format!(
                "labeling {k}: transposed {transposed}, involution {}",
                m == orig
            ));
        }
    }
    None
}

/// The corpus line lane `l` carries: the eight lines in lane order, rotated
/// by one in each further eight lanes — every lane of an `f32x16` holds a
/// corpus line, and its two halves hold them in different lanes.
fn line_of(l: usize) -> usize {
    (l + l / LANES) % LANES
}

fn pack<V: Lanes>(lines: &[Vec<f32>]) -> Vec<V> {
    (0..lines[0].len())
        .map(|i| {
            let mut v = V::ZERO;
            for (l, x) in v.lanes_mut().iter_mut().enumerate() {
                *x = lines[line_of(l)][i];
            }
            v
        })
        .collect()
}

/// Differential-test `advect_lanes` at lane type `V` against `advect_line`
/// over the corpus at line length `n`, as property `name`.
fn check_lanes<V: Lanes>(report: &mut Report, n: usize, name: &str) {
    let cfls = [0.3, 0.85, 0.999, -0.42, 2.7, 1e-13, 0.2];
    let mut worst: f64 = 0.0;
    let mut failure = None;
    let mut cases = 0usize;
    for scheme in [Scheme::Sl5, Scheme::SlMpp5] {
        for (shape, lines) in corpus(n) {
            let scale = lines
                .iter()
                .flat_map(|l| l.iter())
                .fold(0.0f32, |m, &v| m.max(v.abs()));
            let tol = lane_tolerance(scale);
            for &cfl in &cfls {
                for bc in [Boundary::Periodic, Boundary::Zero] {
                    cases += 1;
                    let mut bundle = pack::<V>(&lines);
                    let mut lwork = LanesWork::new();
                    advect_lanes(scheme, &mut bundle, cfl, bc, &mut lwork);
                    let mut swork = LineWork::new();
                    for l in 0..V::WIDTH {
                        let mut scalar = lines[line_of(l)].clone();
                        advect_line(scheme, &mut scalar, cfl, bc, &mut swork);
                        let lane = bundle.iter().map(|v| v.lanes()[l]);
                        for (i, (v, s)) in lane.zip(&scalar).enumerate() {
                            let err = (v - s).abs();
                            worst = worst.max((err / tol) as f64);
                            if err > tol && failure.is_none() {
                                failure = Some(format!(
                                    "{scheme:?} {shape} cfl={cfl} {bc:?} lane {l} cell {i}: \
                                     lanes {v} vs scalar {s} (|Δ| = {err:.3e} > tol {tol:.3e})"
                                ));
                            }
                        }
                    }
                }
            }
        }
    }
    report.check(
        "equivalence",
        name,
        format!(
            "f32x{} kernels track the scalar path within {BUDGET_ULPS:.0} ULP · scale + \
             2·MIN_POSITIVE over {cases} (scheme × shape × cfl × boundary) corpus cases \
             (worst {:.1}% of budget)",
            V::WIDTH,
            worst * 100.0
        ),
        failure,
    );
}

/// Expression trees as a domain: a value is the parenthesised text of the
/// computation that produced it, so two values are equal exactly when the
/// same operations were applied to the same operands in the same order.
#[derive(Clone, PartialEq)]
struct Expr(String);

impl Expr {
    fn op(name: &str, a: &Expr, b: &Expr) -> Expr {
        Expr(format!("{name}({},{})", a.0, b.0))
    }
}

impl Value for Expr {
    type Out = Expr;
    fn c(x: f64) -> Expr {
        Expr(format!("{x:?}"))
    }
    fn add(&self, o: &Expr) -> Expr {
        Expr::op("add", self, o)
    }
    fn sub(&self, o: &Expr) -> Expr {
        Expr::op("sub", self, o)
    }
    fn mul(&self, o: &Expr) -> Expr {
        Expr::op("mul", self, o)
    }
    fn min(&self, o: &Expr) -> Expr {
        Expr::op("min", self, o)
    }
    fn max(&self, o: &Expr) -> Expr {
        Expr::op("max", self, o)
    }
    fn minmod(&self, o: &Expr) -> Expr {
        Expr::op("minmod", self, o)
    }
    fn narrow(self) -> Expr {
        self
    }
}

/// The five cells `up[j..j + 5]`.
fn window<D: Clone>(up: &[D], j: usize) -> [D; 5] {
    core::array::from_fn(|k| up[j + k].clone())
}

/// The body's carried SL-MPP5 loop computes the per-stencil reference: as
/// expression trees (all inputs), and `to_bits` at `f64` over the corpus.
fn check_carried(report: &mut Report) {
    let interfaces = 12usize;
    let ghost: Vec<Expr> = (0..interfaces + 2 * GHOST - 1)
        .map(|k| Expr(format!("g{k}")))
        .collect();
    let w = Weights {
        s: Expr("s".into()),
        inv_s: Expr("inv_s".into()),
        alpha: Expr("alpha".into()),
        w: core::array::from_fn(|k| Expr(format!("w{k}"))),
    };
    let (carried, _) = run_body(Scheme::SlMpp5, &w, &ghost);
    let differs = |&j: &usize| carried[j] != slmpp5_flux(&window(&ghost, j), &w);
    report.check(
        "equivalence",
        "slmpp5.carried.expression_identity",
        format!(
            "the body's carried loop (one new curvature and minmod4 stack per interface) \
             builds the per-stencil flux expression, node for node, at each of \
             {interfaces} consecutive interfaces of a symbolic line — equal bits on every input"
        ),
        (0..interfaces)
            .find(differs)
            .map(|j| format!("first differing interface: {j}")),
    );

    let mut failure = None;
    let mut fluxes = 0usize;
    for (shape, lines) in corpus(40) {
        for line in &lines {
            // Both orientations of the line as its own ghost-extended copy.
            let fwd: Vec<f64> = line.iter().map(|&v| v as f64).collect();
            let bwd: Vec<f64> = fwd.iter().rev().copied().collect();
            for (dir, up) in [("fwd", &fwd), ("bwd", &bwd)] {
                for s in [0.3f64, 0.85, 0.999, 0.2, 0.7, 0.42, 0.1] {
                    let w = Weights::at(Scheme::SlMpp5, s).expect("fractional shift");
                    let (a, _) = run_body(Scheme::SlMpp5, &w, up);
                    fluxes += a.len();
                    let want = |j: usize| slmpp5_flux(&window(up, j), &w);
                    if let Some(j) = (0..a.len()).find(|&j| a[j].to_bits() != want(j).to_bits()) {
                        failure.get_or_insert(format!(
                            "{shape} {dir} s={s} interface {j}: carried {:e} vs per-stencil {:e}",
                            a[j],
                            want(j)
                        ));
                    }
                }
            }
        }
    }
    report.check(
        "equivalence",
        "slmpp5.carried.corpus_bitwise",
        format!(
            "carried and per-stencil f64 fluxes agree to the bit on {fluxes} interfaces \
             of the adversarial corpus (shape × line × orientation × shift)"
        ),
        failure,
    );
}

/// The sign-product `minmod`, the lane types' former form (the `f64` sign
/// test gives the same bits): the reference of their compare-select form.
fn sign_product(a: f32, b: f32) -> f32 {
    let sgn = |v: f32| {
        if v > 0.0 {
            1.0
        } else if v < 0.0 {
            -1.0
        } else {
            0.0
        }
    };
    (sgn(a) + sgn(b)) * 0.5 * a.abs().min(b.abs())
}

/// A lane `minmod` / `minmod4` under test: the shipped one, or its
/// compare-selects without the sign-bit fix (the negative control).
#[derive(Clone, Copy)]
enum Limiter {
    Shipped,
    Unfixed,
}

impl Limiter {
    fn minmod<V: Lanes>(self, [a, b]: &[V; 2]) -> V {
        match self {
            Limiter::Shipped => a.minmod(b),
            Limiter::Unfixed => unfixed(a.min(b), a.max(b)),
        }
    }

    fn minmod4<V: Lanes>(self, [a, b, c, d]: &[V; 4]) -> V {
        match self {
            Limiter::Shipped => a.minmod4(b, c, d),
            Limiter::Unfixed => unfixed(a.min(b).min(&c.min(d)), a.max(b).max(&c.max(d))),
        }
    }

    /// The first pair, then the first quadruple, on which this limiter at
    /// `f32x8` or `f32x16` departs from the sign-product reference in bits.
    fn witness(self, pairs: &[[f32; 2]], quads: &[[f32; 4]]) -> Option<String> {
        let m2 = |[a, b]: &[f32; 2]| sign_product(*a, *b);
        let m4 = |[a, b, c, d]: &[f32; 4]| sign_product(sign_product(*a, *b), sign_product(*c, *d));
        (lanes_witness::<f32x8, 2>(pairs, |x| self.minmod(x), m2))
            .or_else(|| lanes_witness::<f32x16, 2>(pairs, |x| self.minmod(x), m2))
            .or_else(|| lanes_witness::<f32x8, 4>(quads, |x| self.minmod4(x), m4))
            .or_else(|| lanes_witness::<f32x16, 4>(quads, |x| self.minmod4(x), m4))
    }
}

/// `max(min(m, +0), p) + 0`: the compare-select form without the sign bit
/// it sets where the sign product gives `−0`.
fn unfixed<V: Lanes>(p: V, m: V) -> V {
    m.min(&V::c(0.0)).max(&p).add(&V::c(0.0))
}

/// The first case on which `form`, run at `V` with the cases packed `WIDTH`
/// to a call (a case per lane), differs in bits from `reference`.
fn lanes_witness<V: Lanes, const K: usize>(
    cases: &[[f32; K]],
    form: impl Fn(&[V; K]) -> V,
    reference: impl Fn(&[f32; K]) -> f32,
) -> Option<String> {
    cases.chunks(V::WIDTH).find_map(|chunk| {
        let args: [V; K] = core::array::from_fn(|k| {
            let mut v = V::ZERO;
            for (x, case) in v.lanes_mut().iter_mut().zip(chunk) {
                *x = case[k];
            }
            v
        });
        let got = form(&args);
        chunk.iter().zip(got.lanes()).find_map(|(case, &got)| {
            let want = reference(case);
            (got.to_bits() != want.to_bits()).then(|| {
                let name = if K == 2 { "minmod" } else { "minmod4" };
                format!(
                    "x{} {name}{case:?} = {got:?}, sign product {want:?}",
                    V::WIDTH
                )
            })
        })
    })
}

/// Every pair and quadruple of `grid`, then `random` seeded pairs and
/// quadruples whose entries are grid values or random finite `f32`s.
fn limiter_cases(grid: &[f32], random: usize) -> (Vec<[f32; 2]>, Vec<[f32; 4]>) {
    let mut pairs: Vec<[f32; 2]> = grid
        .iter()
        .flat_map(|&a| grid.iter().map(move |&b| [a, b]))
        .collect();
    let mut quads: Vec<[f32; 4]> = pairs
        .iter()
        .flat_map(|&[a, b]| pairs.iter().map(move |&[c, d]| [a, b, c, d]))
        .collect();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 32) as u32
    };
    let mut entry = || loop {
        let bits = next();
        let x = if bits & 1 == 0 {
            grid[(bits >> 1) as usize % grid.len()]
        } else {
            f32::from_bits(next())
        };
        if x.is_finite() {
            return x;
        }
    };
    for _ in 0..random {
        pairs.push([entry(), entry()]);
        quads.push([entry(), entry(), entry(), entry()]);
    }
    (pairs, quads)
}

/// The grid of the limiter properties: ±0, ±the smallest subnormal,
/// ±`f32::MIN_POSITIVE`, ±0.5, ±1, ±2, ±3, ±`f32::MAX` — in an order that
/// makes `minmod(+0, −1)` the first case the unfixed form gets wrong.
const LIMITER_GRID: [f32; 16] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    0.5,
    -0.5,
    2.0,
    -2.0,
    3.0,
    -3.0,
    f32::MIN_POSITIVE,
    -f32::MIN_POSITIVE,
    f32::from_bits(1),
    -f32::from_bits(1),
    f32::MAX,
    -f32::MAX,
];

/// The lane `minmod` and `minmod4` are the sign-product form, bit for bit,
/// and the forms without the sign-bit fix are caught.
fn check_limiter(report: &mut Report, grid: &[f32], random: usize) {
    let (pairs, quads) = limiter_cases(grid, random);
    let (p, q) = (pairs.len() - random, quads.len() - random);
    report.check(
        "equivalence",
        "limiter.minmod.sign_product_bitwise",
        format!(
            "f32x8 and f32x16 compare-select minmod returns the sign-product bits, signed \
             zeros included, on all {p} pairs of a {}-value grid and {random} seeded pairs",
            grid.len()
        ),
        Limiter::Shipped.witness(&pairs, &[]),
    );
    report.check(
        "equivalence",
        "limiter.minmod4.sign_product_bitwise",
        format!(
            "f32x8 and f32x16 compare-select minmod4 returns the nested sign-product bits \
             on all {q} quadruples of the grid and {random} seeded quadruples"
        ),
        Limiter::Shipped.witness(&[], &quads),
    );
    let (w2, w4) = (
        Limiter::Unfixed.witness(&pairs, &[]),
        Limiter::Unfixed.witness(&[], &quads),
    );
    report.control(
        "equivalence",
        "limiter.unfixed_sign.caught",
        "the compare-select minmod and minmod4 without their sign-bit fix must miss a -0",
        w2.is_some() && w4.is_some(),
        w2.zip(w4).map(|(w2, w4)| format!("{w2}; {w4}")),
    );
}

/// Run the whole pass.
pub fn run(report: &mut Report) {
    report.check(
        "equivalence",
        "transpose8x8.permutation",
        "all 64 indicator matrices and two injective labelings confirm the exact \
         transposition permutation (and its involution)",
        transpose_witness(),
    );
    check_lanes::<f32x8>(report, 40, "lanes.differential");
    // Lines shorter than the stencil — the thin axes of the plasma grids —
    // where both kernels sample their own periodic images or zeros.
    for n in 1..=5 {
        check_lanes::<f32x8>(report, n, &format!("lanes.differential.short{n}"));
    }
    // The same corpus at the paired width: two bundles in one `f32x16`.
    check_lanes::<f32x16>(report, 40, "lanes16.differential");
    for n in 1..=5 {
        check_lanes::<f32x16>(report, n, &format!("lanes16.differential.short{n}"));
    }
    check_carried(report);
    check_limiter(report, &LIMITER_GRID, 4096);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miri_smoke_transpose_is_exact_permutation() {
        assert_eq!(transpose_witness(), None);
    }

    #[test]
    fn full_equivalence_pass_verifies() {
        let mut report = Report::new();
        run(&mut report);
        assert!(report.ok(), "{}", report.render_text("kerncheck"));
    }

    #[test]
    fn miri_smoke_carried_form_is_the_per_stencil_form() {
        let mut report = Report::new();
        check_carried(&mut report);
        assert!(report.ok(), "{}", report.render_text("kerncheck"));
        // The tree domain has teeth: operand order is part of a value.
        let (a, b) = (Expr("a".into()), Expr("b".into()));
        assert!(a.add(&b) != b.add(&a));
    }

    #[test]
    fn miri_smoke_limiter_forms_are_the_sign_product() {
        use crate::Status;
        let mut report = Report::new();
        check_limiter(&mut report, &LIMITER_GRID[..4], 16);
        assert!(report.ok(), "{}", report.render_text("kerncheck"));
        assert_eq!(report.counts().controls, 1);
        let Status::RefutedAsExpected {
            counterexample: Some(w),
        } = &report.properties[2].status
        else {
            panic!("{}", report.render_text("kerncheck"));
        };
        assert!(
            w.starts_with("x8 minmod[0.0, -1.0] = 0.0, sign product -0.0"),
            "{w}"
        );
    }

    #[test]
    fn corrupted_lane_kernel_would_be_caught() {
        // Sanity-check the tolerance has teeth: a one-cell offset error in
        // the bundle (simulating a stencil slip) must exceed the budget.
        let n = 40;
        let lines: Vec<Vec<f32>> = corpus(n).remove(0).1;
        let scale = lines
            .iter()
            .flat_map(|l| l.iter())
            .fold(0.0f32, |m, &v| m.max(v.abs()));
        let tol = lane_tolerance(scale);
        let mut bundle = pack::<f32x8>(&lines);
        let mut work = LanesWork::new();
        advect_lanes(Scheme::Sl5, &mut bundle, 0.4, Boundary::Periodic, &mut work);
        // Shift the result by one cell: compare shifted vs straight.
        let mut swork = LineWork::new();
        let mut scalar = lines[0].clone();
        advect_line(
            Scheme::Sl5,
            &mut scalar,
            0.4,
            Boundary::Periodic,
            &mut swork,
        );
        let mut violations = 0;
        for i in 0..n - 1 {
            let wrong = bundle[i + 1].0[0];
            if (wrong - scalar[i]).abs() > tol {
                violations += 1;
            }
        }
        assert!(
            violations > n / 2,
            "only {violations} cells exceeded tolerance"
        );
    }
}
