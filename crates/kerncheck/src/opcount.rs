//! Pass 5 — operation counting over the kernel model.
//!
//! `advection::flops_per_cell` converts the Table 1 cell-throughput
//! measurements into Gflop/s; if its constants drift from the code they
//! silently inflate or deflate every reported Gflop/s number. This pass
//! *derives* the per-cell operation count by running the pinned kernel model
//! (see [`crate::model`]) over a counting domain and asserts the shipped
//! table matches.
//!
//! Cost conventions (documented so the numbers are reproducible):
//! * `add`/`sub`/`mul`/`min`/`max` — 1 op each (one vector instruction in
//!   the SIMD kernels);
//! * `minmod` — 4 ops (sign-product test, magnitude compare, select — the
//!   same convention whether implemented branchy or branch-free);
//! * the per-line weight/limiter setup (`sl5_weights`, `1/s`, `mp_alpha`, and
//!   the two curvatures and one `minmod4` stack the SL-MPP5 loop starts from)
//!   is **excluded**: it is amortised over the whole line, exactly as the
//!   paper counts flux evaluation + update per cell;
//! * SL-MPP5 is counted in the *carried* form the kernels execute
//!   ([`crate::model::slmpp5_flux_carried`]: one new curvature and one new
//!   `minmod4` stack per interface), not the per-stencil form the proofs use;
//! * the flux-form update contributes [`UPDATE_OPS`] = 2 (one subtract, one
//!   add).

use crate::model::{flux_model, slmpp5_flux_carried, Carry, Dom, Weights};
use crate::report::Report;
use std::cell::Cell;
use vlasov6d_advection::{flops_per_cell, Scheme};

thread_local! {
    static OPS: Cell<u64> = const { Cell::new(0) };
}

fn bump(n: u64) {
    OPS.with(|c| c.set(c.get() + n));
}

/// The counting domain: values carry nothing; every operation increments a
/// thread-local counter by its conventional cost.
#[derive(Debug, Clone, Copy)]
pub struct Count;

impl Dom for Count {
    fn c(_: f64) -> Count {
        Count
    }
    fn add(&self, _: &Count) -> Count {
        bump(1);
        Count
    }
    fn sub(&self, _: &Count) -> Count {
        bump(1);
        Count
    }
    fn mul(&self, _: &Count) -> Count {
        bump(1);
        Count
    }
    fn min(&self, _: &Count) -> Count {
        bump(1);
        Count
    }
    fn max(&self, _: &Count) -> Count {
        bump(1);
        Count
    }
    fn minmod(&self, _: &Count) -> Count {
        bump(4);
        Count
    }
}

/// Ops charged to the flux-form update (`center − flux_out + flux_in`).
pub const UPDATE_OPS: u64 = 2;

/// Operations in one interface-flux evaluation of `scheme` (weight setup
/// excluded — it is per line, not per cell).
pub fn flux_ops(scheme: Scheme) -> u64 {
    OPS.with(|c| c.set(0));
    let stencil = [Count; 5];
    let w = Weights {
        s: Count,
        inv_s: Count,
        alpha: Count,
        w5: [Count; 5],
        w3: [Count; 3],
    };
    if scheme == Scheme::SlMpp5 {
        let carry = Carry {
            d_0: Count,
            dm4_mh: Count,
        };
        let _ = slmpp5_flux_carried(&stencil, &w, &carry);
    } else {
        let _ = flux_model(scheme, &stencil, &w);
    }
    OPS.with(|c| c.get())
}

/// The derived per-cell operation count: one flux evaluation (each interface
/// flux is shared by two cells, but each cell update also consumes exactly
/// one *new* flux) plus the update.
pub fn derived_flops_per_cell(scheme: Scheme) -> f64 {
    (flux_ops(scheme) + UPDATE_OPS) as f64
}

/// Run the pass: derived counts must match `advection::flops_per_cell`.
pub fn run(report: &mut Report) {
    for scheme in [Scheme::Upwind1, Scheme::Sl3, Scheme::Sl5, Scheme::SlMpp5] {
        let flux = flux_ops(scheme);
        let derived = derived_flops_per_cell(scheme);
        let shipped = flops_per_cell(scheme);
        let name = format!("{scheme:?}.flops_per_cell");
        if derived == shipped {
            report.verified(
                "opcount",
                name,
                format!("derived {flux} flux ops + {UPDATE_OPS} update ops = {derived} matches the shipped table"),
            );
        } else {
            report.violated(
                "opcount",
                name,
                "shipped flops_per_cell table drifted from the kernel's operation count",
                Some(format!(
                    "derived {derived} (flux {flux} + update {UPDATE_OPS}), table says {shipped}"
                )),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miri_smoke_flux_ops_by_hand() {
        // Hand counts under the documented conventions.
        assert_eq!(flux_ops(Scheme::Upwind1), 1); // s·f
        assert_eq!(flux_ops(Scheme::Sl3), 5); // 3 mul + 2 add
        assert_eq!(flux_ops(Scheme::Sl5), 9); // 5 mul + 4 add

        // SL-MPP5, carried form: f_high 9 + ·inv_s 1, one new curvature 3,
        // one new minmod4 stack (2+2+12), f_ul 3, f_md 4, f_lc 5, bracket
        // min/max 2·5, median_clip 7, clamp 4.
        assert_eq!(
            flux_ops(Scheme::SlMpp5),
            9 + 1 + 3 + 16 + 3 + 4 + 5 + 10 + 7 + 4
        );
    }

    #[test]
    fn miri_smoke_derived_counts_match_advection_table() {
        let mut report = Report::new();
        run(&mut report);
        assert!(report.ok(), "{}", report.render_text("kerncheck"));
    }
}
