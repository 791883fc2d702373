//! Static layout-bijectivity verification of every distributed repartition in
//! the workspace — the analysis that gates the 2-D pencil-decomposed FFT.
//!
//! The distributed transpose code is pure index arithmetic: pack loops,
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
//!    the FFTs verify before communicating; the k-space coordinate accessors
//!    are pinned to the registered maps element by element.
//! 3. **Probe** ([`probe`]) / **exact** ([`exact`]) — sentinel values
//!    encoding global indices run through the **live** mpisim exchange and
//!    must land exactly where the maps predict (plus bitwise forward∘inverse
//!    round-trips); and the transform itself is re-derived in exact
//!    cyclotomic arithmetic over ℚ(ζ_n) — unitarity, Parseval, the 3-D axis
//!    factorization — with the shipped `Fft3` and a live distributed
//!    `Pencil2D` run pinned inside fixed ULP budgets.
//!
//! Every layer carries live negative controls — swapped strides, off-by-one
//! splits, colliding tag windows, scaled twiddles — that the analysis *must*
//! reject, so a regression in the verifier is as loud as a regression in the
//! FFTs. `cargo xtask verify-layouts` renders the combined report and gates
//! CI; `cargo xtask lint`'s `layout-index-arith` pass cross-checks the
//! registry against every pack/unpack loop in both directions.

pub mod concrete;
pub mod exact;
pub mod probe;
pub mod registry;
pub mod symbolic;

use kerncheck::report::Report;
use vlasov6d_kerncheck as kerncheck;

use symbolic::{
    prove_composition_identity, prove_layout_bijective, prove_repartition_bijective, ProofError,
};
use vlasov6d_fft::layout::{self, AxisPart, GridAxis, LayoutMap};

const PASS: &str = "symbolic";

/// Prove every registered repartition bijective and conserving for all
/// conforming shapes, every forward/inverse pair an identity, plus negative
/// controls on the prover itself.
pub fn symbolic_pass(report: &mut Report) {
    for entry in registry::entries() {
        match prove_repartition_bijective(&entry.rep) {
            Ok((narrative, _)) => report.verified(PASS, entry.rep.name.to_string(), narrative),
            Err(e) => report.violated(
                PASS,
                entry.rep.name.to_string(),
                "bijectivity/conservation proof failed",
                Some(e.to_string()),
            ),
        }
    }

    // Forward ∘ inverse composition identities.
    let pairs = [
        (layout::pencil_stage1(), layout::pencil_stage1_inv()),
        (layout::pencil_stage2(), layout::pencil_stage2_inv()),
    ];
    for (fwd, inv) in pairs {
        let name = format!("{}.composition", fwd.name);
        match prove_composition_identity(&fwd, &inv) {
            Ok(narrative) => report.verified(PASS, name, narrative),
            Err(e) => report.violated(
                PASS,
                name,
                "forward ∘ inverse is not the identity",
                Some(e.to_string()),
            ),
        }
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
        prove_composition_identity(&layout::pencil_stage1(), &layout::pencil_stage2_inv()),
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

/// What [`run_all`] must produce: 203 verified properties and 9 refuted
/// negative controls. A change that adds or drops a repartition, property
/// or control moves this pin.
pub const PINNED: kerncheck::Counts = kerncheck::Counts {
    verified: 203,
    controls: 9,
};

/// Run all layers and collect the combined report.
pub fn run_all() -> Report {
    let mut report = Report::new();
    symbolic_pass(&mut report);
    concrete::run(&mut report);
    probe::run(&mut report);
    exact::run(&mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_passes_verify_on_the_shipped_layouts() {
        let report = run_all();
        assert!(report.ok(), "{}", report.render_text("layoutcheck"));
        for pass in ["symbolic", "concrete", "probe", "exact"] {
            assert!(
                report.properties.iter().any(|p| p.pass == pass),
                "pass {pass} produced no properties"
            );
        }
        // Exact counts, so a silently dropped property or control fails.
        assert_eq!(report.counts(), PINNED);
        // Every registered repartition shows up in the symbolic findings.
        for name in registry::repartition_names() {
            assert!(
                report
                    .properties
                    .iter()
                    .any(|p| p.pass == "symbolic" && p.name == name),
                "repartition {name} missing from the symbolic pass"
            );
        }
    }

    #[test]
    fn miri_smoke_symbolic_pass() {
        let mut report = Report::new();
        symbolic_pass(&mut report);
        assert!(report.ok(), "{}", report.render_text("layoutcheck"));
    }
}
