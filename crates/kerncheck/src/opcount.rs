//! Pass 5 — operation counting over the shipped flux body.
//!
//! `advection::flops_per_cell` converts the Table 1 cell-throughput
//! measurements into Gflop/s; if its constants drift from the code they
//! silently inflate or deflate every reported Gflop/s number. This pass
//! *derives* the per-cell operation count by running the kernel's own body
//! (see [`crate::model`]) over a counting domain and asserts the shipped
//! table matches.
//!
//! Cost conventions (documented so the numbers are reproducible):
//! * `add`/`sub`/`mul`/`min`/`max` — 1 op each (one vector instruction in
//!   the SIMD kernels); a clamp is its `max` and `min`;
//! * `minmod` — 4 ops (sign-product test, magnitude compare, select — the
//!   same convention whether implemented branchy or branch-free);
//! * per cell = ops(`n + 1` cells) − ops(`n` cells): one more cell costs one
//!   more interface flux and one more flux-form update, while the per-line
//!   weight setup and the loop prologue (the two curvatures and one
//!   `minmod4` stack the SL-MPP5 loop starts from) cancel by construction —
//!   the paper's count of flux evaluation + update per cell. SL-MPP5 is thus
//!   counted in the carried form the kernels execute.

use crate::model::{run_body, uniform_weights};
use crate::report::Report;
use std::cell::Cell;
use vlasov6d_advection::flux::Value;
use vlasov6d_advection::line::GHOST;
use vlasov6d_advection::{flops_per_cell, Scheme};

thread_local! {
    static OPS: Cell<u64> = const { Cell::new(0) };
}

fn bump(n: u64) -> Count {
    OPS.with(|c| c.set(c.get() + n));
    Count
}

/// The counting domain: values carry nothing; every operation increments a
/// thread-local counter by its conventional cost.
#[derive(Debug, Clone, Copy)]
pub struct Count;

impl Value for Count {
    type Out = Count;
    fn c(_: f64) -> Count {
        Count
    }
    fn add(&self, _: &Count) -> Count {
        bump(1)
    }
    fn sub(&self, _: &Count) -> Count {
        bump(1)
    }
    fn mul(&self, _: &Count) -> Count {
        bump(1)
    }
    fn min(&self, _: &Count) -> Count {
        bump(1)
    }
    fn max(&self, _: &Count) -> Count {
        bump(1)
    }
    fn minmod(&self, _: &Count) -> Count {
        bump(4)
    }
    fn narrow(self) -> Count {
        self
    }
}

/// Operations the shipped body spends advancing a line of `cells` cells.
fn line_ops(scheme: Scheme, cells: usize) -> u64 {
    OPS.with(|c| c.set(0));
    run_body(
        scheme,
        &uniform_weights(Count),
        &vec![Count; cells + 2 * GHOST],
    );
    OPS.with(|c| c.get())
}

/// The derived per-cell operation count: the cost of one more cell.
pub fn per_cell_ops(scheme: Scheme) -> u64 {
    line_ops(scheme, 9) - line_ops(scheme, 8)
}

/// Run the pass: derived counts must match `advection::flops_per_cell`.
pub fn run(report: &mut Report) {
    for scheme in [Scheme::Upwind1, Scheme::Sl3, Scheme::Sl5, Scheme::SlMpp5] {
        let derived = per_cell_ops(scheme) as f64;
        let shipped = flops_per_cell(scheme);
        let name = format!("{scheme:?}.flops_per_cell");
        if derived == shipped {
            report.verified(
                "opcount",
                name,
                format!(
                    "the shipped body spends {derived} ops per cell (a 9-cell line less an \
                     8-cell one), matching the shipped table"
                ),
            );
        } else {
            report.violated(
                "opcount",
                name,
                "shipped flops_per_cell table drifted from the kernel's operation count",
                Some(format!("derived {derived}, table says {shipped}")),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miri_smoke_flux_ops_by_hand() {
        // Hand counts under the documented conventions: one interface flux,
        // then the update's subtract and add.
        assert_eq!(per_cell_ops(Scheme::Upwind1), 1 + 2); // s·f
        assert_eq!(per_cell_ops(Scheme::Sl3), 5 + 2); // 3 mul + 2 add
        assert_eq!(per_cell_ops(Scheme::Sl5), 9 + 2); // 5 mul + 4 add

        // SL-MPP5, carried form: f_high 9 + ·inv_s 1, one new curvature 3,
        // one new minmod4 stack (2+2+12), f_ul 3, f_md 4, f_lc 5, bracket
        // min/max 2·5, median_clip 7, clamp 4.
        assert_eq!(
            per_cell_ops(Scheme::SlMpp5),
            9 + 1 + 3 + 16 + 3 + 4 + 5 + 10 + 7 + 4 + 2
        );
    }

    #[test]
    fn miri_smoke_derived_counts_match_advection_table() {
        let mut report = Report::new();
        run(&mut report);
        assert!(report.ok(), "{}", report.render_text("kerncheck"));
    }
}
