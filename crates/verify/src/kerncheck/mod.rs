//! Static verification of the SL-MPP5 kernel stack.
//!
//! `kerncheck` proves properties of the advection kernels in
//! `vlasov6d-advection` (and their integration points in `vlasov6d-mesh`,
//! `vlasov6d-phase-space`, and `vlasov6d-mpisim`) that unit tests can only
//! sample:
//!
//! 1. **Symbolic weights** ([`weights`]) — the SL3/SL5 interface weights are
//!    reconstructed as exact rational polynomials in the fractional shift
//!    `s`; partition-of-unity, telescoping conservation, the moment
//!    conditions through the scheme's order, and the exact endpoint values
//!    are machine-checked as polynomial identities over ℚ, then the shipped
//!    `f64` implementations are pinned to the exact polynomials at dense
//!    samples within a tight ULP budget.
//! 2. **Interval abstract interpretation** ([`interval`]) — the kernel's own
//!    flux body is run over an outward-rounded interval domain to
//!    prove, for every scheme and all `|cfl| < 1`, freedom from NaN and
//!    overflow, and for SL-MPP5 the clamp-guaranteed nonnegativity of the
//!    update. Godunov's order barrier supplies live negative controls: the
//!    unlimited SL3/SL5 schemes *must* admit a negativity witness, which is
//!    reproduced through the real kernel.
//! 3. **Stencil footprints** ([`footprint`]) — each scheme's access radius
//!    is derived twice (taint analysis of the flux body, black-box probing
//!    of the real kernel) and cross-checked against `advection::GHOST`,
//!    `phase_space::exchange::GHOST_WIDTH`, the mesh stencil radii, and the
//!    per-edge byte volumes declared by ghost-exchange [`CommPlan`]s.
//! 4. **SIMD/scalar equivalence** ([`equiv`]) — `transpose8x8` is verified
//!    to be the exact transposition permutation, and the `f32x8` lane
//!    kernels are differential-tested against the scalar kernels over a
//!    seeded adversarial corpus with per-element ULP budgets; the body's
//!    carried SL-MPP5 loop is shown to build the per-stencil flux expression;
//!    the lane types' compare-select `minmod` and `minmod4` are held to the
//!    sign-product form's bits on a grid of signed zeros, subnormals and
//!    extremes and on seeded inputs.
//! 5. **Operation counts** ([`opcount`]) — `advection::flops_per_cell` is
//!    re-derived by running the flux body over a counting domain.
//!
//! There is no model of the kernels to keep in step with them: the flux body
//! is written once, generic over `advection::flux::Value`, and the passes
//! instantiate the kernel at their domains ([`model`]).
//!
//! All passes append [`Property`](crate::Property) records to a [`Report`];
//! `cargo xtask verify` renders the report and fails CI on any violation.
//!
//! [`CommPlan`]: vlasov6d_mpisim::CommPlan

pub mod equiv;
pub mod footprint;
pub mod interval;
pub mod model;
pub mod opcount;
pub mod weights;

use crate::report::Report;

/// Run every analysis pass.
pub fn run(report: &mut Report) {
    weights::run(report);
    interval::run(report);
    footprint::run(report);
    equiv::run(report);
    opcount::run(report);
}

#[cfg(test)]
mod tests {
    #[test]
    fn all_passes_verify_on_the_shipped_kernels() {
        let passes = ["weights", "interval", "footprint", "equivalence", "opcount"];
        crate::tests::assert_family_verifies("kerncheck", &passes, &[]);
    }
}
