//! Per-step records: timings (the paper's Table 3/4 decomposition) and
//! conservation diagnostics.
//!
//! Timings come from the `vlasov6d-obs` span layer: the stepper runs under a
//! [`vlasov6d_obs::StepScope`], whose self-time attribution folds the recorded
//! span tree into per-bucket step timers, so the structured trace and
//! the paper-style decomposition are always consistent.

use vlasov6d_advection::line::Scheme;
use vlasov6d_obs::{BucketTotals, MetricValue, SpanNode, StepEvent};
use vlasov6d_phase_space::{sweep, Exec, PhaseSpace};

/// Wall-clock decomposition of one step, in seconds — the buckets the paper
/// reports (Vlasov, tree, PM) plus checkpoint I/O and everything else. It
/// *is* the span layer's bucket fold, under the name the drivers' records
/// have always used.
pub(crate) type StepTimers = BucketTotals;

/// One time step's record.
#[derive(Debug, Clone)]
pub struct StepRecord {
    pub step: usize,
    /// Scale factor after the step.
    pub a: f64,
    /// Step size in code time (1/H0).
    pub dt: f64,
    pub timers: StepTimers,
    /// Root spans of the step's timing tree (`timers` is their fold).
    pub spans: Vec<SpanNode>,
    /// The step's counts and labels, sorted by name (the hybrid driver's
    /// tree walk: `nbody.tree.groups`, `nbody.tree.interactions`; on a run's
    /// first step `kernel.isa` and, with a Vlasov component, `kernel.shape`).
    pub metrics: Vec<(String, MetricValue)>,
    /// Total neutrino mass on the grid (code units) — drains only through
    /// the velocity-space boundary.
    pub nu_mass: f64,
    /// Minimum of the distribution function (≥ 0 for SL-MPP5).
    pub f_min: f32,
    /// Total canonical momentum (CDM + ν), per axis, of the state before the
    /// step's trailing half kick `K₂`, which stays pending (`strang.rs`); it
    /// is the momentum at `a` only after `HybridSimulation::synchronize`.
    pub momentum: [f64; 3],
}

/// `kernel.isa` = `"avx512f"` / `"avx2"` / `"baseline"`: the entry of the
/// lane kernels this host's CPU selected ([`vlasov6d_advection::simd::Isa`]).
/// Every driver puts it on the first step a run takes, so a trace says which
/// register width produced its timings (`kernel.shape` says which lane
/// width each axis ran at).
pub(crate) fn kernel_isa_metric() -> (String, MetricValue) {
    let isa = vlasov6d_advection::simd::Isa::detect();
    (
        "kernel.isa".to_string(),
        MetricValue::Text(isa.name().to_string()),
    )
}

/// `dt.limiter` — which bound set the step: `max_step`, `spatial` or
/// `velocity` — and `dt.halvings`, how often the Δt controller halved the
/// proposal: on every step record of the hybrid and ranked drivers.
pub(crate) fn dt_metrics(limiter: &str, halvings: u64) -> [(String, MetricValue); 2] {
    [
        (
            "dt.limiter".to_string(),
            MetricValue::Text(limiter.to_string()),
        ),
        ("dt.halvings".to_string(), MetricValue::Counter(halvings)),
    ]
}

/// `kernel.shape`, beside `kernel.isa`: the task shape each of the six sweep
/// axes runs on this grid ([`sweep::lane_shapes`]), so a trace says which
/// axes are on lanes — packed, gathered or transposed — and which fell back
/// to the scalar kernel. `ghosted_x`: the driver sweeps `x` through its ghost
/// exchange, which asks for lanes whatever `exec` says.
pub(crate) fn kernel_shape_metric(
    ps: &PhaseSpace,
    scheme: Scheme,
    exec: Exec,
    ghosted_x: bool,
) -> (String, MetricValue) {
    let request = |axis: usize| match (axis, ghosted_x) {
        (0, true) => Exec::Simd,
        _ => exec,
    };
    (
        "kernel.shape".to_string(),
        MetricValue::Text(sweep::lane_shapes(scheme, &ps.dims6(), request)),
    )
}

impl StepRecord {
    pub fn redshift(&self) -> f64 {
        1.0 / self.a - 1.0
    }

    /// Convert to the observability layer's JSONL-serialisable event.
    /// `rank` is 0 for single-rank runs.
    pub fn to_event(&self, rank: usize) -> StepEvent {
        StepEvent {
            step: self.step as u64,
            rank,
            a: self.a,
            dt: self.dt,
            buckets: self.timers,
            spans: self.spans.clone(),
            metrics: self.metrics.clone(),
            nu_mass: self.nu_mass,
            f_min: self.f_min as f64,
            momentum: self.momentum,
        }
    }
}

/// Aggregate timing over a run, mirroring the paper's elapsed-time-per-step
/// tables.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunTimings {
    pub steps: usize,
    pub vlasov: f64,
    pub tree: f64,
    pub pm: f64,
    pub io: f64,
    pub other: f64,
}

impl RunTimings {
    pub fn accumulate(records: &[StepRecord]) -> Self {
        let mut t = Self {
            steps: records.len(),
            ..Default::default()
        };
        for r in records {
            t.vlasov += r.timers.vlasov;
            t.tree += r.timers.tree;
            t.pm += r.timers.pm;
            t.io += r.timers.io;
            t.other += r.timers.other;
        }
        t
    }

    pub fn total(&self) -> f64 {
        self.vlasov + self.tree + self.pm + self.io + self.other
    }

    /// Median-free mean time per step (the paper reports medians over 40
    /// steps; at our scales means over the recorded steps are equivalent).
    pub fn per_step(&self) -> StepTimers {
        let n = self.steps.max(1) as f64;
        StepTimers {
            vlasov: self.vlasov / n,
            tree: self.tree / n,
            pm: self.pm / n,
            io: self.io / n,
            other: self.other / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timers_total_sums_buckets() {
        let t = StepTimers {
            vlasov: 1.0,
            tree: 0.5,
            pm: 0.125,
            io: 0.125,
            other: 0.25,
        };
        assert_eq!(t.total(), 2.0);
    }

    #[test]
    fn accumulate_and_per_step() {
        let rec = |v: f64| StepRecord {
            step: 0,
            a: 0.5,
            dt: 0.01,
            timers: StepTimers {
                vlasov: v,
                tree: 1.0,
                pm: 0.5,
                io: 0.0,
                other: 0.0,
            },
            spans: Vec::new(),
            metrics: Vec::new(),
            nu_mass: 0.01,
            f_min: 0.0,
            momentum: [0.0; 3],
        };
        let records = vec![rec(2.0), rec(4.0)];
        let agg = RunTimings::accumulate(&records);
        assert_eq!(agg.steps, 2);
        assert_eq!(agg.vlasov, 6.0);
        assert_eq!(agg.per_step().vlasov, 3.0);
        assert_eq!(agg.per_step().tree, 1.0);
    }

    #[test]
    fn redshift_inverts_scale_factor() {
        let r = StepRecord {
            step: 1,
            a: 0.25,
            dt: 0.0,
            timers: StepTimers::default(),
            spans: Vec::new(),
            metrics: Vec::new(),
            nu_mass: 0.0,
            f_min: 0.0,
            momentum: [0.0; 3],
        };
        assert!((r.redshift() - 3.0).abs() < 1e-14);
    }

    #[test]
    fn record_converts_to_obs_event_and_back_through_jsonl() {
        let r = StepRecord {
            step: 7,
            a: 0.5,
            dt: 0.01,
            timers: StepTimers {
                vlasov: 1.0,
                tree: 0.5,
                pm: 0.25,
                io: 0.0,
                other: 0.0,
            },
            spans: vec![SpanNode {
                name: "drift".into(),
                bucket: vlasov6d_obs::Bucket::Vlasov,
                elapsed: 1.0,
                children: Vec::new(),
            }],
            metrics: vec![("nbody.tree.groups".into(), MetricValue::Counter(512))],
            nu_mass: 0.05,
            f_min: 0.0,
            momentum: [1e-9, 0.0, -1e-9],
        };
        let event = r.to_event(3);
        assert_eq!(event.rank, 3);
        assert_eq!(event.buckets.vlasov, 1.0);
        let back = StepEvent::parse(&event.to_jsonl()).unwrap();
        assert_eq!(back.spans[0].name, "drift");
        assert_eq!(back.metrics, r.metrics);
        assert_eq!(back.step, 7);
    }
}
