//! Structured findings: one [`Property`] per verified (or refuted) claim,
//! folded into a [`Report`] that renders as text for humans and as
//! `vlasov6d-obs` JSON for CI artefacts.
//!
//! A property is *claimed* when the kernel stack is supposed to satisfy it
//! (SL-MPP5 positivity, moment conditions, footprint ≤ ghost width). The
//! verifier also runs *negative controls* — properties that must **fail**
//! exactly where theory says they stop (the moment ladder at degree = order,
//! unlimited SL5 positivity) — so a control that unexpectedly "passes" is
//! itself a finding: it means the analysis lost the power to detect the very
//! defects it exists for.

use std::fmt;
use vlasov6d_obs::Json;

/// Outcome of one checked property.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Status {
    /// A claimed property held.
    Verified,
    /// A claimed property failed — carries a human-readable witness
    /// (counterexample shift / input / cell) when one exists.
    Violated { counterexample: Option<String> },
    /// A negative control failed as predicted (and the analysis therefore
    /// still has teeth). The witness records *where* it failed.
    RefutedAsExpected { counterexample: Option<String> },
}

/// One verified claim with its provenance.
#[derive(Debug, Clone)]
pub struct Property {
    /// Which analysis pass produced it: `"weights"`, `"interval"`,
    /// `"footprint"`, `"equivalence"`, `"opcount"`.
    pub pass: &'static str,
    /// Short dotted identifier, e.g. `"sl5.moment.j3"`.
    pub name: String,
    /// Outcome.
    pub status: Status,
    /// One-line human explanation of what was checked and how.
    pub detail: String,
}

impl Property {
    /// Does this property leave the report passing?
    pub fn ok(&self) -> bool {
        !matches!(self.status, Status::Violated { .. })
    }
}

impl fmt::Display for Property {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (tag, witness) = match &self.status {
            Status::Verified => ("ok  ", None),
            Status::Violated { counterexample } => ("FAIL", counterexample.as_deref()),
            Status::RefutedAsExpected { counterexample } => ("ctrl", counterexample.as_deref()),
        };
        write!(
            f,
            "[{tag}] {:<12} {:<44} {}",
            self.pass, self.name, self.detail
        )?;
        if let Some(w) = witness {
            write!(f, " [witness: {w}]")?;
        }
        Ok(())
    }
}

/// How many properties a full verifier run verifies and how many negative
/// controls it refutes. Each verifier crate pins its own as `PINNED`, which
/// its `all_passes_verify…` test and `cargo xtask verify-*` both compare
/// against: a property or control dropped without moving the pin fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Properties with [`Status::Verified`].
    pub verified: usize,
    /// Negative controls with [`Status::RefutedAsExpected`].
    pub controls: usize,
}

/// All findings from one verifier run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every property, in execution order.
    pub properties: Vec<Property>,
}

impl Report {
    /// Start an empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Record a verified claim.
    pub fn verified(
        &mut self,
        pass: &'static str,
        name: impl Into<String>,
        detail: impl Into<String>,
    ) {
        self.properties.push(Property {
            pass,
            name: name.into(),
            status: Status::Verified,
            detail: detail.into(),
        });
    }

    /// Record a violated claim with an optional witness.
    pub fn violated(
        &mut self,
        pass: &'static str,
        name: impl Into<String>,
        detail: impl Into<String>,
        counterexample: Option<String>,
    ) {
        self.properties.push(Property {
            pass,
            name: name.into(),
            status: Status::Violated { counterexample },
            detail: detail.into(),
        });
    }

    /// Record the outcome of a negative control: `refuted == true` is the
    /// expected (passing) outcome, anything else is a violation.
    pub fn control(
        &mut self,
        pass: &'static str,
        name: impl Into<String>,
        detail: impl Into<String>,
        refuted: bool,
        counterexample: Option<String>,
    ) {
        let name = name.into();
        if refuted {
            self.properties.push(Property {
                pass,
                name,
                status: Status::RefutedAsExpected { counterexample },
                detail: detail.into(),
            });
        } else {
            self.violated(
                pass,
                name,
                format!(
                    "negative control unexpectedly passed — the analysis no longer detects \
                     this defect class ({})",
                    detail.into()
                ),
                None,
            );
        }
    }

    /// Merge another report's findings into this one.
    pub fn extend(&mut self, other: Report) {
        self.properties.extend(other.properties);
    }

    /// Did every claimed property hold (and every control refute)?
    pub fn ok(&self) -> bool {
        self.properties.iter().all(Property::ok)
    }

    /// Number of failing properties.
    pub fn violations(&self) -> usize {
        self.properties.iter().filter(|p| !p.ok()).count()
    }

    /// Verified properties and refuted controls, for comparison with a
    /// verifier's pinned [`Counts`].
    pub fn counts(&self) -> Counts {
        let count =
            |f: fn(&Status) -> bool| self.properties.iter().filter(|p| f(&p.status)).count();
        Counts {
            verified: count(|s| matches!(s, Status::Verified)),
            controls: count(|s| matches!(s, Status::RefutedAsExpected { .. })),
        }
    }

    /// JSON rendering: `{"ok": …, "properties": [...]}` with one object per
    /// property, reusing the `obs` JSON value so CI artefacts share one
    /// encoding with the telemetry layer.
    pub fn to_json(&self) -> Json {
        let props = self
            .properties
            .iter()
            .map(|p| {
                let (status, witness) = match &p.status {
                    Status::Verified => ("verified", None),
                    Status::Violated { counterexample } => ("violated", counterexample.clone()),
                    Status::RefutedAsExpected { counterexample } => {
                        ("refuted_as_expected", counterexample.clone())
                    }
                };
                Json::obj([
                    ("pass", Json::str(p.pass)),
                    ("name", Json::str(p.name.clone())),
                    ("status", Json::str(status)),
                    ("detail", Json::str(p.detail.clone())),
                    (
                        "counterexample",
                        witness.map(Json::str).unwrap_or(Json::Null),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("ok", Json::Bool(self.ok())),
            ("violations", Json::num_u64(self.violations() as u64)),
            ("properties", Json::Arr(props)),
        ])
    }

    /// Multi-line human rendering, one property per line plus a summary
    /// line naming the `verifier` that ran.
    pub fn render_text(&self, verifier: &str) -> String {
        let mut out = String::new();
        for p in &self.properties {
            out.push_str(&p.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{verifier}: {} properties, {} negative controls, {} violation(s)\n",
            self.properties.len(),
            self.counts().controls,
            self.violations()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miri_smoke_report_accounting_and_json() {
        let mut r = Report::new();
        r.verified("weights", "sl5.partition", "Σw ≡ s");
        r.control(
            "weights",
            "sl5.moment.j5",
            "order barrier",
            true,
            Some("j = 5".into()),
        );
        assert!(r.ok());
        assert_eq!(r.violations(), 0);

        r.violated(
            "interval",
            "sl5.positivity",
            "counterexample",
            Some("s = 0.5".into()),
        );
        assert!(!r.ok());
        assert_eq!(r.violations(), 1);

        let json = r.to_json().to_string_compact();
        let parsed = Json::parse(&json).expect("report JSON parses");
        assert_eq!(parsed.get("ok"), &Json::Bool(false));
        assert_eq!(parsed.get("properties").as_arr().unwrap().len(), 3);

        assert_eq!(
            r.counts(),
            Counts {
                verified: 1,
                controls: 1
            }
        );
        let text = r.render_text("kerncheck");
        assert!(text.contains("[FAIL]"), "{text}");
        assert!(
            text.ends_with("kerncheck: 3 properties, 1 negative controls, 1 violation(s)\n"),
            "{text}"
        );
    }

    #[test]
    fn unexpectedly_passing_control_is_a_violation() {
        let mut r = Report::new();
        r.control("weights", "sl5.moment.j5", "order barrier", false, None);
        assert!(!r.ok());
        assert!(r.render_text("kerncheck").contains("no longer detects"));
    }
}
