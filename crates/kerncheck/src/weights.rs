//! Pass 1 — symbolic verification of the semi-Lagrangian flux weights.
//!
//! `sl3_weights` / `sl5_weights` in `vlasov6d-advection::flux` evaluate, in
//! `f64`, the exact rational polynomials
//!
//! ```text
//! w_k(s) = [k ≤ 0] − Σ_{m ≥ k} ℓ_m(−s)
//! ```
//!
//! where `ℓ_m` are the Lagrange cardinal polynomials on the interface nodes.
//! This pass rebuilds the same objects over ℚ (see [`crate::rational`]) and
//! machine-checks, with **zero tolerance**, the identities the paper's
//! conservation and accuracy claims rest on:
//!
//! * **partition of unity** — `Σ_m ℓ_m ≡ 1`: the anchor of the telescoping
//!   argument (the primitive reconstruction interpolates constants exactly);
//! * **telescoping structure** — `w_k − w_{k+1} ≡ Δ[k ≤ 0] − ℓ_k`: the
//!   weights are tail sums of the cardinals, so interface fluxes are
//!   differences of *one* primitive `W` and every periodic line sum
//!   telescopes to exactly zero, whatever the data;
//! * **moment conditions** — `Σ_k w_k μ_j(k) ≡ (−1)^j s^{j+1}/(j+1)` for
//!   `j < order`, with `μ_j(k)` the cell moments: the flux is exact for
//!   polynomial data through degree `order − 1`, i.e. the scheme really has
//!   its advertised order;
//! * **order barrier** (negative control) — the moment identity must *fail*
//!   at `j = order`; if it ever "passes" the checker has lost its teeth;
//! * **endpoints** — `w(0) ≡ 0` (zero shift moves nothing) and
//!   `w(1) = δ_{k,0}` (unit shift is an exact cell copy).
//!
//! Finally the shipped `f64` implementations are compared against the exact
//! polynomials at dense sample points under a tight hybrid ULP/absolute
//! bound, and [`check_weight_samples`] re-runs the moment conditions
//! *numerically* against any candidate weight function — the hook the
//! corruption tests (and CI) use to prove a single perturbed coefficient is
//! rejected.

use crate::rational::{Poly, Rat};
use crate::report::Report;
use crate::ulp::ulp_diff_f64;
use vlasov6d_advection::flux::{sl3_weights, sl5_weights};

/// Symbolic description of one weight family.
pub struct SymbolicWeights {
    /// `"sl3"` / `"sl5"`.
    pub label: &'static str,
    /// Formal order of accuracy (3 or 5).
    pub order: usize,
    /// Lowest interface node (e.g. −3 for SL5).
    pub node_lo: i64,
    /// Cardinal polynomials `ℓ_m(−s)` as polynomials in `s`, for nodes
    /// `node_lo ..` in ascending order.
    pub cardinals: Vec<Poly>,
    /// Weight polynomials `w_k(s)` for cells `node_lo + 1 ..` ascending.
    pub weights: Vec<Poly>,
}

impl SymbolicWeights {
    /// Lowest stencil cell offset.
    pub fn cell_lo(&self) -> i64 {
        self.node_lo + 1
    }

    /// Stencil cell offsets, ascending.
    pub fn cells(&self) -> impl Iterator<Item = i64> + '_ {
        (0..self.weights.len() as i64).map(|i| self.cell_lo() + i)
    }
}

/// Build the weight polynomials on interface nodes `node_lo ..= node_hi`,
/// mirroring the construction in `advection::flux` exactly but over ℚ.
pub fn symbolic_weights(
    label: &'static str,
    order: usize,
    node_lo: i64,
    node_hi: i64,
) -> SymbolicWeights {
    let nodes: Vec<i64> = (node_lo..=node_hi).collect();
    // ℓ_m(x) = Π_{j≠m} (x − n_j)/(n_m − n_j), evaluated at x = −s:
    // each factor becomes the degree-1 polynomial (−n_j) + (−1)·s in s.
    let cardinals: Vec<Poly> = nodes
        .iter()
        .map(|&nm| {
            let mut p = Poly::constant(Rat::ONE);
            for &nj in &nodes {
                if nj != nm {
                    let factor = Poly::from_coeffs(vec![Rat::int(-nj as i128), Rat::int(-1)]);
                    p = p.mul(&factor).scale(&Rat::new(1, (nm - nj) as i128));
                }
            }
            p
        })
        .collect();
    // w_k = [k ≤ 0] − Σ_{m ≥ k} ℓ_m, for cells k = node_lo+1 ..= node_hi.
    let weights: Vec<Poly> = (node_lo + 1..=node_hi)
        .map(|k| {
            let mut tail = Poly::zero();
            for (i, &m) in nodes.iter().enumerate() {
                if m >= k {
                    tail = tail.add(&cardinals[i]);
                }
            }
            let indicator = if k <= 0 { Rat::ONE } else { Rat::ZERO };
            Poly::constant(indicator).sub(&tail)
        })
        .collect();
    SymbolicWeights {
        label,
        order,
        node_lo,
        cardinals,
        weights,
    }
}

/// The SL5 family (nodes −3..2, cells −2..2), as shipped.
pub fn sl5_symbolic() -> SymbolicWeights {
    symbolic_weights("sl5", 5, -3, 2)
}

/// The SL3 family (nodes −2..1, cells −1..1), as shipped.
pub fn sl3_symbolic() -> SymbolicWeights {
    symbolic_weights("sl3", 3, -2, 1)
}

/// Cell moment `μ_j(k) = ∫_{k−1}^{k} x^j dx`, exact.
pub fn cell_moment(j: u32, k: i64) -> Rat {
    let up = Rat::int(k as i128).pow(j + 1);
    let lo = Rat::int(k as i128 - 1).pow(j + 1);
    up.sub(&lo).div(&Rat::int(j as i128 + 1))
}

/// Exact swept moment `∫_{−s}^{0} x^j dx = (−1)^j s^{j+1}/(j+1)` as a
/// polynomial in `s`.
pub fn swept_moment(j: u32) -> Poly {
    let sign = if j.is_multiple_of(2) { 1 } else { -1 };
    let mut coeffs = vec![Rat::ZERO; j as usize + 2];
    coeffs[j as usize + 1] = Rat::new(sign, j as i128 + 1);
    Poly::from_coeffs(coeffs)
}

/// The moment residual polynomial `Σ_k w_k μ_j(k) − ∫_{−s}^0 x^j` — the
/// identically-zero polynomial iff the flux is exact for degree-`j` data.
pub fn moment_residual(sym: &SymbolicWeights, j: u32) -> Poly {
    let mut lhs = Poly::zero();
    for (i, k) in sym.cells().enumerate() {
        lhs = lhs.add(&sym.weights[i].scale(&cell_moment(j, k)));
    }
    lhs.sub(&swept_moment(j))
}

/// Run every symbolic identity for one weight family into `report`.
pub fn check_symbolic_family(report: &mut Report, sym: &SymbolicWeights) {
    let lbl = sym.label;

    // Partition of unity of the cardinals.
    let mut sum = Poly::zero();
    for c in &sym.cardinals {
        sum = sum.add(c);
    }
    let residual = sum.sub(&Poly::constant(Rat::ONE));
    if residual.is_zero() {
        report.verified(
            "weights",
            format!("{lbl}.partition_of_unity"),
            "Σ_m ℓ_m(−s) ≡ 1 as an exact polynomial identity",
        );
    } else {
        report.violated(
            "weights",
            format!("{lbl}.partition_of_unity"),
            "cardinal polynomials do not sum to 1",
            Some(format!("Σℓ − 1 = {residual}")),
        );
    }

    // Telescoping structure: w_k − w_{k+1} ≡ Δ[k ≤ 0] − ℓ_k.
    let mut telescoping_ok = true;
    let mut witness = None;
    for (i, k) in sym.cells().enumerate().take(sym.weights.len() - 1) {
        let lhs = sym.weights[i].sub(&sym.weights[i + 1]);
        let ind = |k: i64| if k <= 0 { Rat::ONE } else { Rat::ZERO };
        let delta = ind(k).sub(&ind(k + 1));
        // ℓ_k: the cardinal at node value k.
        let card = &sym.cardinals[(k - sym.node_lo) as usize];
        let rhs = Poly::constant(delta).sub(card);
        if lhs != rhs {
            telescoping_ok = false;
            witness = Some(format!("k = {k}: w_k − w_{{k+1}} = {lhs} ≠ {rhs}"));
            break;
        }
    }
    if telescoping_ok {
        report.verified(
            "weights",
            format!("{lbl}.telescoping"),
            "w_k − w_{k+1} ≡ Δ[k ≤ 0] − ℓ_k: fluxes are differences of one primitive, \
             so periodic line sums telescope to exactly zero",
        );
    } else {
        report.violated(
            "weights",
            format!("{lbl}.telescoping"),
            "weights are not tail sums of the cardinal polynomials",
            witness,
        );
    }

    // Moment / order-of-accuracy conditions through order − 1.
    for j in 0..sym.order as u32 {
        let residual = moment_residual(sym, j);
        if residual.is_zero() {
            report.verified(
                "weights",
                format!("{lbl}.moment.j{j}"),
                format!("Σ_k w_k μ_{j}(k) ≡ ∫_{{−s}}^0 x^{j} dx exactly (degree-{j} data advects exactly)"),
            );
        } else {
            report.violated(
                "weights",
                format!("{lbl}.moment.j{j}"),
                format!("moment condition of degree {j} fails"),
                Some(format!("residual = {residual}")),
            );
        }
    }
    // Order barrier: degree = order must NOT be exact.
    let barrier = moment_residual(sym, sym.order as u32);
    report.control(
        "weights",
        format!("{lbl}.moment.j{}", sym.order),
        format!(
            "the moment ladder stops exactly at degree {} (order barrier)",
            sym.order
        ),
        !barrier.is_zero(),
        Some(format!("residual = {barrier}")),
    );

    // Endpoints: w(0) ≡ 0, w(1) = unit-shift selector δ_{k,0}.
    let zero_ok = sym.weights.iter().all(|w| w.eval_rat(&Rat::ZERO).is_zero());
    let one_ok = sym.cells().enumerate().all(|(i, k)| {
        let expect = if k == 0 { Rat::ONE } else { Rat::ZERO };
        sym.weights[i].eval_rat(&Rat::ONE) == expect
    });
    if zero_ok && one_ok {
        report.verified(
            "weights",
            format!("{lbl}.endpoints"),
            "w(0) ≡ 0 and w(1) = δ_{k,0} exactly (zero shift is identity, unit shift an exact copy)",
        );
    } else {
        report.violated(
            "weights",
            format!("{lbl}.endpoints"),
            "endpoint values wrong",
            Some(format!("w(0) zero: {zero_ok}, w(1) selector: {one_ok}")),
        );
    }
}

/// Hybrid closeness bound for comparing shipped `f64` weights against the
/// exact polynomials: within `max_ulp` ULPs, or within `abs_floor` absolutely
/// (the weights pass through ~10 rounded operations and vanish at `s = 0`,
/// where a pure ULP bound is meaningless).
pub const WEIGHT_MAX_ULP: u64 = 16;
/// Absolute floor of the hybrid bound.
pub const WEIGHT_ABS_FLOOR: f64 = 1e-14;

/// Sample points for numeric comparisons: the dense uniform grid
/// `k/1024, k = 0..=1024` plus a handful of awkward off-grid shifts.
pub fn sample_shifts() -> Vec<f64> {
    let mut s: Vec<f64> = (0..=1024).map(|k| k as f64 / 1024.0).collect();
    s.extend([1e-12, 1e-9, 1e-6, 0.1234567890123, 0.2, 1.0 - 1e-12]);
    s
}

/// A shipped weight evaluator under test.
type WeightFn<'a> = &'a dyn Fn(f64) -> Vec<f64>;

/// Compare the shipped `f64` weight evaluators against the exact polynomials
/// at [`sample_shifts`].
pub fn check_f64_agreement(report: &mut Report) {
    let families: [(&SymbolicWeights, WeightFn); 2] = [
        (&sl5_symbolic(), &|s| sl5_weights(s).to_vec()),
        (&sl3_symbolic(), &|s| sl3_weights(s).to_vec()),
    ];
    for (sym, f) in families {
        let mut worst_ulp = 0u64;
        let mut worst_abs = 0.0f64;
        let mut failure = None;
        for &s in &sample_shifts() {
            let got = f(s);
            for (i, w) in sym.weights.iter().enumerate() {
                let exact = w.eval_f64(s);
                let abs = (got[i] - exact).abs();
                let ulp = ulp_diff_f64(got[i], exact);
                // Near-zero weights legitimately sit many ULPs apart while
                // being absolutely tiny; track worst-ULP only where the
                // absolute floor doesn't already account for the sample.
                if abs > WEIGHT_ABS_FLOOR {
                    worst_ulp = worst_ulp.max(ulp);
                }
                worst_abs = worst_abs.max(abs);
                if abs > WEIGHT_ABS_FLOOR && ulp > WEIGHT_MAX_ULP && failure.is_none() {
                    failure = Some(format!(
                        "s = {s}, k = {}: impl {} vs exact {exact} ({ulp} ULP)",
                        sym.cell_lo() + i as i64,
                        got[i]
                    ));
                }
            }
        }
        let name = format!("{}.f64_agreement", sym.label);
        match failure {
            None => report.verified(
                "weights",
                name,
                format!(
                    "{} samples within {WEIGHT_MAX_ULP} ULP / {WEIGHT_ABS_FLOOR:.0e} of the exact \
                     polynomials (worst {worst_ulp} ULP, {worst_abs:.2e} abs)",
                    sample_shifts().len()
                ),
            ),
            Some(w) => report.violated(
                "weights",
                name,
                "shipped f64 weights stray from the exact polynomials",
                Some(w),
            ),
        }
    }
}

/// Numerically re-check the moment + endpoint conditions for an arbitrary
/// candidate weight function (`order` 3 or 5; `f(s)` returns the stencil
/// weights ascending). This is the corruption detector: a single perturbed
/// coefficient leaves a residual the tolerance cannot absorb.
///
/// Returns `Ok(())` or the first violated condition.
pub fn check_weight_samples(order: usize, f: &dyn Fn(f64) -> Vec<f64>) -> Result<(), String> {
    let sym = match order {
        3 => sl3_symbolic(),
        5 => sl5_symbolic(),
        _ => return Err(format!("unsupported order {order}")),
    };
    const TOL: f64 = 1e-11;
    for &s in &sample_shifts() {
        let w = f(s);
        if w.len() != sym.weights.len() {
            return Err(format!(
                "wrong stencil width {} (expected {})",
                w.len(),
                sym.weights.len()
            ));
        }
        for j in 0..order as u32 {
            let lhs: f64 = sym
                .cells()
                .enumerate()
                .map(|(i, k)| w[i] * cell_moment(j, k).to_f64())
                .sum();
            let rhs = swept_moment(j).eval_f64(s);
            if (lhs - rhs).abs() > TOL {
                return Err(format!(
                    "moment condition j = {j} violated at s = {s}: Σ w μ = {lhs} vs exact {rhs}"
                ));
            }
        }
    }
    // Endpoints.
    for (i, k) in sym.cells().enumerate() {
        let expect = if k == 0 { 1.0 } else { 0.0 };
        if (f(0.0)[i]).abs() > TOL || (f(1.0)[i] - expect).abs() > TOL {
            return Err(format!("endpoint values wrong for cell offset {k}"));
        }
    }
    Ok(())
}

/// Run the whole pass.
pub fn run(report: &mut Report) {
    check_symbolic_family(report, &sl5_symbolic());
    check_symbolic_family(report, &sl3_symbolic());
    check_f64_agreement(report);
    // The shipped implementations must also pass the sampled detector the
    // corruption tests rely on (so the detector and the kernels never drift).
    for (order, f) in [
        (
            5usize,
            &(|s| sl5_weights(s).to_vec()) as &dyn Fn(f64) -> Vec<f64>,
        ),
        (
            3usize,
            &(|s| sl3_weights(s).to_vec()) as &dyn Fn(f64) -> Vec<f64>,
        ),
    ] {
        match check_weight_samples(order, f) {
            Ok(()) => report.verified(
                "weights",
                format!("sl{order}.sampled_detector"),
                "shipped implementation passes the sampled moment/endpoint detector",
            ),
            Err(e) => report.violated(
                "weights",
                format!("sl{order}.sampled_detector"),
                "shipped implementation fails the sampled detector",
                Some(e),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miri_smoke_symbolic_identities_hold() {
        let mut report = Report::new();
        check_symbolic_family(&mut report, &sl5_symbolic());
        check_symbolic_family(&mut report, &sl3_symbolic());
        assert!(report.ok(), "{}", report.render_text("kerncheck"));
        // 5 + 1 moment rungs + partition + telescoping + endpoints for sl5,
        // 3 + 1 + 3 others for sl3.
        assert_eq!(report.properties.len(), 9 + 7);
    }

    #[test]
    fn exact_weights_match_known_values() {
        // w(1/2) for SL3 on cells −1..1 — classic quadratic-reconstruction
        // values: F(1/2) with f ≡ 1 must give 1/2 and the weights are
        // symmetric rationals with denominator dividing 16·3.
        let sym = sl3_symbolic();
        let half = Rat::new(1, 2);
        let total = sym
            .weights
            .iter()
            .fold(Rat::ZERO, |acc, w| acc.add(&w.eval_rat(&half)));
        assert_eq!(total, half, "Σ w(1/2) = s");
        // And the f64 kernel agrees to the last bit or two.
        let w = sl3_weights(0.5);
        for (i, wp) in sym.weights.iter().enumerate() {
            assert!((w[i] - wp.eval_rat(&half).to_f64()).abs() < 1e-15);
        }
    }

    #[test]
    fn f64_agreement_and_detector_pass_on_shipped_kernels() {
        let mut report = Report::new();
        run(&mut report);
        assert!(report.ok(), "{}", report.render_text("kerncheck"));
    }

    #[test]
    fn corrupted_sl5_coefficient_is_rejected() {
        // The acceptance-criterion demonstration: perturb ONE coefficient of
        // the shipped sl5 weights by 1e−6 and the conservation/moment
        // detector must reject it.
        let corrupted = |s: f64| {
            let mut w = sl5_weights(s).to_vec();
            w[1] += 1e-6;
            w
        };
        let err = check_weight_samples(5, &corrupted).expect_err("corruption must be detected");
        assert!(err.contains("moment condition"), "{err}");

        // A subtler corruption: scale one weight by (1 + 1e−9). Still caught.
        let subtle = |s: f64| {
            let mut w = sl5_weights(s).to_vec();
            w[3] *= 1.0 + 1e-9;
            w
        };
        assert!(check_weight_samples(5, &subtle).is_err());
    }

    #[test]
    fn corrupted_sl3_rejected_and_wrong_width_rejected() {
        let corrupted = |s: f64| {
            let mut w = sl3_weights(s).to_vec();
            w[0] -= 2e-7;
            w
        };
        assert!(check_weight_samples(3, &corrupted).is_err());
        let narrow = |s: f64| sl3_weights(s)[..2].to_vec();
        let err = check_weight_samples(3, &narrow).unwrap_err();
        assert!(err.contains("stencil width"), "{err}");
    }

    #[test]
    fn order_barrier_is_a_live_control() {
        // Degree-5 data must NOT advect exactly under SL5 — the residual
        // polynomial is nonzero. (If someone "improves" the nodes this
        // breaks loudly instead of silently changing the scheme.)
        assert!(!moment_residual(&sl5_symbolic(), 5).is_zero());
        assert!(!moment_residual(&sl3_symbolic(), 3).is_zero());
    }
}
