//! Static race/disjointness verification of every parallel region in the
//! workspace — the analysis that justifies running the pencil sweeps on a
//! real work-stealing thread pool.
//!
//! The pool in `compat/rayon` hands each task index to exactly one worker;
//! everything beyond that — that distinct tasks touch disjoint memory — is
//! the callers' obligation. This crate discharges it in three layers:
//!
//! 1. **Symbolic** ([`symbolic`], [`registry`]) — each registered region is
//!    modeled as a mixed-radix family of strided index sets over its flat
//!    array, and proved pairwise write-disjoint (and same-array-read
//!    non-interfering) *for all grid shapes* satisfying the region's
//!    divisibility constraints, by the digit-injectivity argument.
//! 2. **Concrete** ([`concrete`]) — the models are instantiated at sample
//!    shapes (thin axes, ragged chunk tails included) and checked, element
//!    by element through a `crate::claims::ClaimMap`, to coincide
//!    with the plans the kernels actually execute and to partition the
//!    array exactly.
//! 3. **Probe** ([`probe`]) — each sweep task is replayed *alone* on the
//!    real kernel; its observed writes must stay inside the declared plan,
//!    and splicing the isolated replays together must reproduce the full
//!    parallel run bitwise at 1/2/4 workers and under permuted schedules.
//!
//! Every layer carries live negative controls — deliberately racy
//! partitions and escaping tasks that the analysis *must* reject — so a
//! regression in the verifier itself is as loud as a regression in the
//! kernels. `cargo xtask verify` renders the combined report and gates CI; `cargo xtask lint` cross-checks the registry against every
//! `unsafe impl Send`/`Sync` SAFETY comment in the workspace.

pub mod concrete;
pub mod probe;
pub mod registry;
pub mod symbolic;

use crate::report::Report;

use symbolic::{prove_write_disjoint, AxisFootprint, Extent, ProofError, RegionModel};

const PASS: &str = "symbolic";

/// Prove every registered region's model write-disjoint for all conforming
/// grid shapes, plus negative controls on the prover itself.
pub(crate) fn symbolic_pass(report: &mut Report) {
    for region in registry::regions() {
        let (detail, witness) = match prove_write_disjoint(&region.model) {
            Ok(narrative) => (narrative, None),
            Err(e) => (
                "write-disjointness proof failed".into(),
                Some(e.to_string()),
            ),
        };
        report.check(PASS, region.name, detail, witness);
    }

    // Control: a pencil model that forgets to map one task digit — two
    // distinct tasks would then share an identical write set. The prover
    // must reject it.
    let unmapped = RegionModel {
        array_rank: 3,
        task_digits: vec![Extent::Axis(0), Extent::Axis(2)],
        write: vec![
            AxisFootprint::TaskDigit(0),
            AxisFootprint::Full,
            AxisFootprint::Full, // should have been TaskDigit(1)
        ],
        read_same_array: None,
        constraints: vec![],
        conjugate: None,
    };
    let rejected = matches!(
        prove_write_disjoint(&unmapped),
        Err(ProofError::DigitUnused(1))
    );
    report.control(
        PASS,
        "control.unmapped.digit",
        "a model with an unconsumed task digit must fail the injectivity check",
        rejected,
        Some("digit 1 maps to no axis".into()),
    );

    // Control: aligned blocks without the divisibility constraint — on a
    // non-conforming shape a block would straddle the axis end and alias a
    // neighbour through the flattening. The prover must demand the
    // constraint.
    let unconstrained = RegionModel {
        array_rank: 2,
        task_digits: vec![Extent::Axis(0), Extent::AxisDiv(1, 8)],
        write: vec![
            AxisFootprint::TaskDigit(0),
            AxisFootprint::TaskBlock { digit: 1, width: 8 },
        ],
        read_same_array: None,
        constraints: vec![], // missing Divisibility { axes: &[1], divisor: 8 }
        conjugate: None,
    };
    let rejected = matches!(
        prove_write_disjoint(&unconstrained),
        Err(ProofError::MissingDivisibility { axis: 1, width: 8 })
    );
    report.control(
        PASS,
        "control.missing.divisibility",
        "width-8 blocks without dims % 8 == 0 must be rejected",
        rejected,
        Some("no constraint covers axis 1".into()),
    );

    // Control: a same-array read wider than the write — pencils that read a
    // neighbouring pencil's output would not be schedule-independent.
    let wide_read = RegionModel {
        array_rank: 2,
        task_digits: vec![Extent::Axis(0)],
        write: vec![AxisFootprint::TaskDigit(0), AxisFootprint::Full],
        read_same_array: Some(vec![AxisFootprint::Full, AxisFootprint::Full]),
        constraints: vec![],
        conjugate: None,
    };
    let rejected = matches!(
        prove_write_disjoint(&wide_read),
        Err(ProofError::ReadWriteShapeMismatch { axis: 0 })
    );
    report.control(
        PASS,
        "control.read.escape",
        "a same-array read wider than the task's write must be rejected",
        rejected,
        Some("read spans all of axis 0".into()),
    );

    // Control: "any eight consecutive velocity elements" as a `y` bundle on a
    // `[·, ·, 4]` grid — the flattening takes in the conjugate axis `u_y`, so
    // the bundle holds two `iu_y`: two shifts, possibly two upwind directions.
    // Disjoint, and still not a bundle; the prover must say so.
    let flat = AxisFootprint::Flat(0);
    let straddling = RegionModel {
        array_rank: 6,
        task_digits: vec![Extent::FlatDiv(&[0, 2, 3, 4, 5], 8)],
        write: vec![flat, AxisFootprint::Full, flat, flat, flat, flat],
        read_same_array: None,
        constraints: vec![symbolic::Divisibility {
            axes: &[0, 2, 3, 4, 5],
            divisor: 8,
        }],
        conjugate: Some(4),
    };
    let rejected = matches!(
        prove_write_disjoint(&straddling),
        Err(ProofError::BundleMixesShifts { axis: 4 })
    );
    report.control(
        PASS,
        "control.bundle.straddles.conjugate",
        "a lane bundle flattened across the conjugate axis must be rejected",
        rejected,
        Some("lanes of one bundle at two iu_y".into()),
    );
}

/// Run all three layers.
pub fn run(report: &mut Report) {
    symbolic_pass(report);
    concrete::run(report);
    probe::run(report);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_passes_verify_on_the_shipped_regions() {
        let passes = ["symbolic", "concrete", "probe"];
        crate::tests::assert_family_verifies("racecheck", &passes, &registry::region_names());
    }

    #[test]
    fn miri_smoke_symbolic_pass() {
        let mut report = Report::new();
        symbolic_pass(&mut report);
        assert!(report.ok(), "{}", report.render_text("racecheck"));
    }
}
