//! Static verification of the properties the paper's method rests on, proved
//! over all inputs or shapes rather than sampled:
//!
//! * [`kerncheck`] — the SL-MPP5 kernel stack: exact weight identities,
//!   interval positivity and NaN-freedom, stencil footprints against ghost
//!   widths and comm plans, SIMD/scalar equivalence, operation counts;
//! * [`racecheck`] — write-disjointness of every parallel region, the
//!   argument that lets the sweeps run on a work-stealing pool;
//! * [`layoutcheck`] — bijectivity and conservation of every distributed
//!   repartition of the 2-D-decomposed FFT, and the transform itself in exact
//!   cyclotomic arithmetic.
//!
//! The three families share one core at this root: every pass records its
//! findings through [`Report::check`] (or [`Report::control`] for a negative
//! control that must fail), element-level disjointness goes through
//! [`claims::ClaimMap`], and exact arithmetic through [`rational`] and
//! [`ulp`]. [`FAMILIES`] is the one pin table: `cargo xtask verify` runs each
//! family and fails on any violation or on counts other than its pin.

pub mod claims;
pub mod kerncheck;
pub mod layoutcheck;
pub mod racecheck;
pub mod rational;
pub mod report;
pub mod ulp;

pub use report::{Counts, Property, Report, Status};

/// One verifier family: its passes, which [`Family::report`] runs, and the
/// counts they must produce, which [`Family::gate`] holds a report to.
pub struct Family {
    /// The family's name, as reports and `cargo xtask verify` print it.
    pub name: &'static str,
    /// Run every pass of the family.
    run: fn(&mut Report),
    /// Verified properties and refuted controls a full run must produce. A
    /// change that adds or drops a property or control moves its pin.
    pinned: Counts,
}

/// The pin table. racecheck's periodic-sweep probe replays each of its
/// eleven regions on a 2-cell axis too.
pub const FAMILIES: [Family; 3] = [
    Family {
        name: "kerncheck",
        run: kerncheck::run,
        pinned: Counts {
            verified: 67,
            controls: 5,
        },
    },
    Family {
        name: "racecheck",
        run: racecheck::run,
        pinned: Counts {
            verified: 294,
            controls: 8,
        },
    },
    Family {
        name: "layoutcheck",
        run: layoutcheck::run,
        pinned: Counts {
            verified: 193,
            controls: 9,
        },
    },
];

impl Family {
    /// Run the family into a fresh report.
    pub fn report(&self) -> Report {
        let mut report = Report::new();
        (self.run)(&mut report);
        report
    }

    /// The gate: `report` passes when no property is violated and its counts
    /// equal the pin, so a silently dropped property or control fails as
    /// loudly as a refuted one.
    pub fn gate(&self, report: &Report) -> Result<(), String> {
        let (name, pin, got) = (self.name, self.pinned, report.counts());
        if !report.ok() {
            Err(format!("{name}: {} violation(s)", report.violations()))
        } else if got != pin {
            Err(format!(
                "{name}: {} verified + {} controls, but its pin says {} + {} — a property or \
                 negative control was dropped or added without moving the pin",
                got.verified, got.controls, pin.verified, pin.controls
            ))
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Run the family `name` and assert it passes its gate, that each of
    /// `passes` contributed, and that each of `registry` was proved by the
    /// symbolic pass.
    pub(crate) fn assert_family_verifies(name: &str, passes: &[&str], registry: &[&str]) {
        let family = FAMILIES.iter().find(|f| f.name == name).expect("a family");
        let report = family.report();
        if let Err(e) = family.gate(&report) {
            panic!("{e}\n{}", report.render_text(name));
        }
        let has = |pass: &str, name: Option<&str>| {
            let hit = |p: &Property| p.pass == pass && name.is_none_or(|n| p.name == n);
            report.properties.iter().any(hit)
        };
        for pass in passes {
            assert!(has(pass, None), "pass {pass} produced no properties");
        }
        for entry in registry {
            assert!(
                has("symbolic", Some(entry)),
                "{entry} missing from the symbolic pass"
            );
        }
    }

    fn clean(verified: usize, controls: usize) -> Report {
        let mut r = Report::new();
        for i in 0..verified {
            r.check("symbolic", format!("p{i}"), "holds", None);
        }
        for i in 0..controls {
            r.control("symbolic", format!("c{i}"), "must fail", true, None);
        }
        r
    }

    const FAMILY: Family = Family {
        name: "demo",
        run: |_| {},
        pinned: Counts {
            verified: 2,
            controls: 1,
        },
    };

    #[test]
    fn gate_fails_a_violated_property() {
        let mut r = clean(2, 1);
        r.check("symbolic", "p2", "holds", Some("witness".into()));
        let e = FAMILY.gate(&r).unwrap_err();
        assert_eq!(e, "demo: 1 violation(s)");
    }

    #[test]
    fn gate_fails_counts_off_the_pin_naming_family_and_counts() {
        for (verified, controls) in [(1, 1), (2, 0), (3, 1)] {
            let e = FAMILY.gate(&clean(verified, controls)).unwrap_err();
            let counts = format!("demo: {verified} verified + {controls} controls");
            assert!(e.starts_with(&counts), "{e}");
            assert!(e.contains("its pin says 2 + 1"), "{e}");
        }
    }

    #[test]
    fn gate_passes_a_clean_report_on_its_pin() {
        assert_eq!(FAMILY.gate(&clean(2, 1)), Ok(()));
    }
}
