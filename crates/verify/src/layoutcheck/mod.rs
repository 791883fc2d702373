//! Static layout-bijectivity verification of every distributed repartition in
//! the workspace — the analysis that gates the 2-D pencil-decomposed FFT.
//!
//! The distributed transpose is pure index arithmetic: packet boxes,
//! mixed-radix flattening, per-peer byte counts, split-phase tags. A single
//! off-by-one silently corrupts data *only on some rank counts*, the class of
//! bug integration tests at convenient shapes never see. This crate
//! discharges the obligation in three layers:
//!
//! 1. **Symbolic** ([`symbolic`], [`registry`]) — every registered
//!    repartition's source and destination [`vlasov6d_fft::layout::LayoutMap`]
//!    is proved a global ↔ (rank, flat) bijection *for all conforming
//!    `(grid shape × rank grid)` pairs at once* by the mixed-radix digit
//!    argument; per-(src, dst) traffic is derived as a symbolic monomial ×
//!    block-diagonal indicator, with mass conservation proven by exact
//!    exponent bookkeeping. Forward/inverse pairs are proven to compose to
//!    the identity.
//! 2. **Concrete** ([`concrete`]) — the models are enumerated at thin,
//!    ragged and prime-factor shapes and diffed, rank pair by rank pair,
//!    against the runtime's derived byte accounting
//!    (`Repartition::pair_elems`) *and* the actual [`vlasov6d_mpisim::CommPlan`]s
//!    the FFTs verify before communicating.
//! 3. **Probe** ([`probe`]) / **exact** ([`exact`]) — sentinel values
//!    encoding global indices run through the **live** mpisim exchange and
//!    must land exactly where the maps predict (plus bitwise forward∘inverse
//!    round-trips); and the transform itself is re-derived in exact
//!    cyclotomic arithmetic over ℚ(ζ_n) — unitarity, Parseval, the 3-D axis
//!    factorization — with the shipped `Fft3` and a live distributed
//!    `Pencil2D` run pinned inside fixed ULP budgets.
//!
//! There is no second copy of the index arithmetic to cross-check: the
//! registry is the stage list `Pencil2D` runs ([`registry`]), its packets
//! and plan bytes are evaluated from these maps, and every caller addresses
//! its blocks through them.
//!
//! Every layer carries live negative controls — swapped strides, off-by-one
//! splits, colliding tag windows, scaled twiddles — that the analysis *must*
//! reject, so a regression in the verifier is as loud as a regression in the
//! FFTs. `cargo xtask verify` renders the combined report and gates CI.

pub mod concrete;
pub mod exact;
pub mod probe;
pub mod registry;
pub mod symbolic;

use crate::report::Report;

use symbolic::{
    prove_composition_identity, prove_layout_bijective, prove_repartition_bijective, ProofError,
};
use vlasov6d_fft::layout::{self, AxisPart, GridAxis, LayoutMap};

const PASS: &str = "symbolic";

/// Prove every registered repartition bijective and conserving for all
/// conforming shapes, every forward/inverse pair an identity, plus negative
/// controls on the prover itself.
pub(crate) fn symbolic_pass(report: &mut Report) {
    for rep in registry::entries() {
        let (detail, witness) = match prove_repartition_bijective(&rep) {
            Ok((narrative, _)) => (narrative, None),
            Err(e) => (
                "bijectivity/conservation proof failed".into(),
                Some(e.to_string()),
            ),
        };
        report.check(PASS, rep.name, detail, witness);
    }

    // Forward ∘ inverse composition identities.
    let [s1, s2, s2i, s1i] = registry::entries();
    for (fwd, inv) in [(s1, s1i), (s2, s2i)] {
        let (detail, witness) = match prove_composition_identity(&fwd, &inv) {
            Ok(narrative) => (narrative, None),
            Err(e) => (
                "forward ∘ inverse is not the identity".into(),
                Some(e.to_string()),
            ),
        };
        report.check(PASS, format!("{}.composition", fwd.name), detail, witness);
    }

    // Control: a pencil layout that consumes no Col digit — two ranks
    // differing only in pc would own identical coordinates. The prover must
    // reject it.
    let unconsumed = LayoutMap {
        name: "layout.control.unconsumed-col",
        parts: [
            AxisPart::Block(GridAxis::Row),
            AxisPart::Full,
            AxisPart::Full,
        ],
        order: [0, 1, 2],
    };
    let rejected = matches!(
        prove_layout_bijective(&unconsumed),
        Err(ProofError::DigitUnused(GridAxis::Col))
    );
    report.control(
        PASS,
        "control.unconsumed.digit",
        "a pencil layout consuming no Col digit must fail the injectivity check",
        rejected,
        Some("ranks (pr, 0) and (pr, 1) would own the same coords".into()),
    );

    // Control: a repartition splitting one global axis by *different* grid
    // divisors on the two sides — its traffic is not a uniform monomial and
    // any single-product byte accounting would be wrong. The derivation must
    // refuse it.
    let mixed = layout::Repartition {
        name: "fft.control.mixed-divisor",
        src: layout::zpencil(),
        dst: LayoutMap {
            name: "layout.control.colsplit-planes",
            parts: [
                AxisPart::Block(GridAxis::Col),
                AxisPart::Block(GridAxis::Row),
                AxisPart::Full,
            ],
            order: [0, 1, 2],
        },
    };
    let rejected = matches!(
        symbolic::derive_pair_count(&mixed),
        Err(ProofError::MixedDivisorAxis(0))
    );
    report.control(
        PASS,
        "control.mixed.divisor",
        "a repartition re-splitting axis 0 by a different grid divisor must be refused",
        rejected,
        Some("axis 0: Block(Row) vs Block(Col)".into()),
    );

    // Control: a mis-declared inverse (stage 2's inverse chained after
    // stage 1) must fail the composition check.
    let rejected = matches!(
        prove_composition_identity(&s1, &s2i),
        Err(ProofError::CompositionMismatch)
    );
    report.control(
        PASS,
        "control.composition.chain",
        "an inverse that does not start where the forward lands must be rejected",
        rejected,
        Some("stage1 lands on y-pencil, stage2.inv starts on x-pencil".into()),
    );
}

/// Run all layers.
pub fn run(report: &mut Report) {
    symbolic_pass(report);
    concrete::run(report);
    probe::run(report);
    exact::run(report);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_passes_verify_on_the_shipped_layouts() {
        let passes = ["symbolic", "concrete", "probe", "exact"];
        let names: Vec<&str> = registry::entries().iter().map(|rep| rep.name).collect();
        crate::tests::assert_family_verifies("layoutcheck", &passes, &names);
    }

    #[test]
    fn miri_smoke_symbolic_pass() {
        let mut report = Report::new();
        symbolic_pass(&mut report);
        assert!(report.ok(), "{}", report.render_text("layoutcheck"));
    }
}
