//! `vlasov6d-obs` — the workspace's observability layer.
//!
//! The paper's headline results are *measurements*: Table 3/4 wall-clock
//! decompositions, per-link Tofu traffic, and conservation diagnostics. This
//! crate provides the instrumentation those measurements rest on:
//!
//! * [`span`](mod@span) — hierarchical wall-clock spans. A [`span!`] guard times a
//!   region and records it into a per-thread (per-rank) tree; the tree folds
//!   down to the paper-compatible four buckets (Vlasov / tree / PM / other)
//!   by attributing each span's *self time* to its bucket, so nesting never
//!   double-counts. When no step scope is active a guard is an inert no-op.
//! * [`metrics`] — counters, gauges and log-spaced histograms backed by
//!   atomics: registration allocates once, the hot path never does.
//! * [`json`] + [`event`] — a dependency-free JSON codec and the per-step
//!   [`event::StepEvent`] JSONL record (span tree, metric deltas,
//!   conservation diagnostics) with a file [`event::JsonlSink`].
//! * [`report`] — [`report::RunReport`]: end-of-run tables in the paper's
//!   Table 3/4 layout plus a span hotspot ranking and per-rank load-imbalance
//!   summaries.
//! * [`trace`] — cross-rank flight recorder and critical-path profiler: a
//!   bounded per-rank ring buffer of span/message/barrier events, a stitcher
//!   matching send/recv edges into a happens-before DAG, per-step critical
//!   path extraction with span × rank blame, and a Chrome-trace/Perfetto
//!   exporter.
//!
//! # Example
//!
//! ```
//! use vlasov6d_obs::{span, Bucket, StepScope};
//!
//! let scope = StepScope::begin(0);
//! {
//!     let _g = span!("gravity.pm", Bucket::Pm);
//!     let _h = span!("gravity.pm.fft"); // inherits the Pm bucket
//! }
//! let spans = scope.finish();
//! assert!(spans.buckets.pm >= 0.0);
//! assert_eq!(spans.roots[0].name, "gravity.pm");
//! ```

#![deny(unused_must_use)]
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod metrics;
pub mod report;
pub mod span;
pub mod trace;

pub use event::{JsonlSink, StepEvent};
pub use json::Json;
pub use metrics::{Counter, Gauge, Histogram, MetricValue, Registry};
pub use report::{LineOutcome, OverlapSummary, RunReport};
pub use span::{visit_spans, Bucket, BucketTotals, SpanNode, StepScope, StepSpans, Stopwatch};
pub use trace::{
    CriticalPath, RankStepTrace, StepDag, TraceEvent, TraceEventKind, TraceReport, TraceSet,
};
