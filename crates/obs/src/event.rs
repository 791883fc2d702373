//! Per-step telemetry records and the JSONL sink.
//!
//! One [`StepEvent`] is one line of JSONL: everything a later analysis needs
//! to reconstruct a step — the span tree, the four-bucket fold, metric
//! readings (typically per-step deltas from [`crate::metrics::snapshot_delta`])
//! and the conservation diagnostics the paper tracks (Section 5: relative
//! mass error, minimum of f, total momentum). Records parse back losslessly
//! via [`StepEvent::parse`], which the trace tests rely on.

#![allow(
    clippy::disallowed_methods,
    reason = "the JSONL event sink writes telemetry, not simulation state"
)]

use crate::json::{Json, ParseError};
use crate::metrics::{HistogramSnapshot, MetricValue, HISTOGRAM_BINS};
use crate::span::{Bucket, BucketTotals, SpanNode};
use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// One step's telemetry on one rank; serialises to one JSONL line.
#[derive(Debug, Clone, PartialEq)]
pub struct StepEvent {
    /// Step index.
    pub step: u64,
    /// Emitting rank (0 for single-rank runs).
    pub rank: usize,
    /// Scale factor at the end of the step.
    pub a: f64,
    /// Step size in scale factor.
    pub dt: f64,
    /// Four-bucket fold of the step's spans, seconds.
    pub buckets: BucketTotals,
    /// Root spans recorded during the step.
    pub spans: Vec<SpanNode>,
    /// Metric readings, usually per-step deltas; sorted by name.
    pub metrics: Vec<(String, MetricValue)>,
    /// Total neutrino mass in the distribution function (conservation check).
    pub nu_mass: f64,
    /// Global minimum of f (positivity check).
    pub f_min: f64,
    /// Total momentum components (conservation check).
    pub momentum: [f64; 3],
}

fn span_to_json(node: &SpanNode) -> Json {
    Json::obj([
        ("name", Json::str(node.name.clone())),
        ("bucket", Json::str(node.bucket.label())),
        ("secs", Json::num(node.elapsed)),
        (
            "children",
            Json::Arr(node.children.iter().map(span_to_json).collect()),
        ),
    ])
}

fn span_from_json(v: &Json) -> Result<SpanNode, String> {
    Ok(SpanNode {
        name: v
            .get("name")
            .as_str()
            .ok_or("span missing name")?
            .to_string(),
        bucket: Bucket::from_label(v.get("bucket").as_str().unwrap_or("other")),
        elapsed: v.get("secs").as_f64().ok_or("span missing secs")?,
        children: v
            .get("children")
            .as_arr()
            .unwrap_or(&[])
            .iter()
            .map(span_from_json)
            .collect::<Result<_, _>>()?,
    })
}

fn metric_to_json(value: &MetricValue) -> Json {
    match value {
        MetricValue::Counter(n) => {
            Json::obj([("kind", Json::str("counter")), ("value", Json::num_u64(*n))])
        }
        MetricValue::Gauge(v) => {
            Json::obj([("kind", Json::str("gauge")), ("value", Json::num(*v))])
        }
        MetricValue::Histogram(h) => Json::obj([
            ("kind", Json::str("histogram")),
            ("count", Json::num_u64(h.count)),
            ("sum", Json::num_u64(h.sum)),
            // Sparse encoding: only non-empty bins, as [index, count] pairs.
            (
                "bins",
                Json::Arr(
                    h.bins
                        .iter()
                        .enumerate()
                        .filter(|(_, &c)| c > 0)
                        .map(|(i, &c)| Json::Arr(vec![Json::num_u64(i as u64), Json::num_u64(c)]))
                        .collect(),
                ),
            ),
        ]),
        MetricValue::Text(t) => Json::obj([("kind", Json::str("text")), ("value", Json::str(t))]),
    }
}

fn metric_from_json(v: &Json) -> Result<MetricValue, String> {
    match v.get("kind").as_str() {
        Some("counter") => Ok(MetricValue::Counter(
            v.get("value").as_u64().ok_or("counter missing value")?,
        )),
        Some("gauge") => Ok(MetricValue::Gauge(
            v.get("value").as_f64().ok_or("gauge missing value")?,
        )),
        Some("histogram") => {
            let mut bins = [0u64; HISTOGRAM_BINS];
            for pair in v.get("bins").as_arr().unwrap_or(&[]) {
                let pair = pair.as_arr().ok_or("histogram bin is not a pair")?;
                let idx = pair
                    .first()
                    .and_then(Json::as_u64)
                    .ok_or("histogram bin missing index")? as usize;
                let count = pair
                    .get(1)
                    .and_then(Json::as_u64)
                    .ok_or("histogram bin missing count")?;
                *bins
                    .get_mut(idx)
                    .ok_or("histogram bin index out of range")? = count;
            }
            Ok(MetricValue::Histogram(HistogramSnapshot {
                bins,
                count: v.get("count").as_u64().ok_or("histogram missing count")?,
                sum: v.get("sum").as_u64().ok_or("histogram missing sum")?,
            }))
        }
        Some("text") => Ok(MetricValue::Text(
            v.get("value")
                .as_str()
                .ok_or("text missing value")?
                .to_string(),
        )),
        _ => Err("metric missing kind".to_string()),
    }
}

impl StepEvent {
    /// Encode as a compact single-line JSON document (no trailing newline).
    pub fn to_json(&self) -> Json {
        let buckets = Json::Obj(
            Bucket::ALL
                .iter()
                .map(|&b| (b.label().to_string(), Json::num(self.buckets.get(b))))
                .collect(),
        );
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|(name, value)| (name.clone(), metric_to_json(value)))
                .collect::<BTreeMap<_, _>>(),
        );
        Json::obj([
            ("step", Json::num_u64(self.step)),
            ("rank", Json::num_u64(self.rank as u64)),
            ("a", Json::num(self.a)),
            ("dt", Json::num(self.dt)),
            ("buckets", buckets),
            (
                "spans",
                Json::Arr(self.spans.iter().map(span_to_json).collect()),
            ),
            ("metrics", metrics),
            ("nu_mass", Json::num(self.nu_mass)),
            ("f_min", Json::num(self.f_min)),
            (
                "momentum",
                Json::Arr(self.momentum.iter().map(|&p| Json::num(p)).collect()),
            ),
        ])
    }

    /// Serialise to one JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        self.to_json().to_string_compact()
    }

    /// Parse a line produced by [`StepEvent::to_jsonl`].
    pub fn parse(line: &str) -> Result<StepEvent, String> {
        let v = Json::parse(line).map_err(|e: ParseError| e.to_string())?;
        let buckets_json = v.get("buckets");
        let mut buckets = BucketTotals::default();
        for b in Bucket::ALL {
            buckets.add(b, buckets_json.get(b.label()).as_f64().unwrap_or(0.0));
        }
        let momentum_arr = v.get("momentum").as_arr().unwrap_or(&[]);
        let mut momentum = [0.0; 3];
        for (slot, p) in momentum.iter_mut().zip(momentum_arr) {
            *slot = p.as_f64().ok_or("momentum component is not a number")?;
        }
        Ok(StepEvent {
            step: v.get("step").as_u64().ok_or("event missing step")?,
            rank: v.get("rank").as_u64().unwrap_or(0) as usize,
            a: v.get("a").as_f64().ok_or("event missing a")?,
            dt: v.get("dt").as_f64().unwrap_or(0.0),
            buckets,
            spans: v
                .get("spans")
                .as_arr()
                .unwrap_or(&[])
                .iter()
                .map(span_from_json)
                .collect::<Result<_, _>>()?,
            metrics: v
                .get("metrics")
                .as_obj()
                .map(|m| {
                    m.iter()
                        .map(|(name, mv)| Ok((name.clone(), metric_from_json(mv)?)))
                        .collect::<Result<Vec<_>, String>>()
                })
                .transpose()?
                .unwrap_or_default(),
            nu_mass: v.get("nu_mass").as_f64().unwrap_or(0.0),
            // A NaN minimum is written as `null` (JSON has no NaN): a
            // present `null` reads back as NaN, only an absent key as 0.
            f_min: match v.as_obj().and_then(|m| m.get("f_min")) {
                Some(Json::Null) => f64::NAN,
                other => other.and_then(Json::as_f64).unwrap_or(0.0),
            },
            momentum,
        })
    }
}

enum SinkBackend {
    File(BufWriter<std::fs::File>),
    Memory(Vec<String>),
}

/// Line-oriented event sink: a buffered file or an in-memory buffer
/// (useful in tests and when ranks collect lines for rank 0 to merge).
pub struct JsonlSink {
    backend: SinkBackend,
}

impl JsonlSink {
    /// Sink appending lines to `path` (created or truncated).
    pub fn create(path: impl AsRef<Path>) -> io::Result<JsonlSink> {
        Ok(JsonlSink {
            backend: SinkBackend::File(BufWriter::new(std::fs::File::create(path)?)),
        })
    }

    /// Sink collecting lines in memory; read them back with [`JsonlSink::lines`].
    pub fn in_memory() -> JsonlSink {
        JsonlSink {
            backend: SinkBackend::Memory(Vec::new()),
        }
    }

    /// Append one event as one line.
    pub fn write_event(&mut self, event: &StepEvent) -> io::Result<()> {
        self.write_line(&event.to_jsonl())
    }

    /// Append one pre-encoded line (must not contain newlines).
    pub fn write_line(&mut self, line: &str) -> io::Result<()> {
        debug_assert!(!line.contains('\n'), "JSONL lines must be newline-free");
        match &mut self.backend {
            SinkBackend::File(w) => {
                w.write_all(line.as_bytes())?;
                w.write_all(b"\n")
            }
            SinkBackend::Memory(lines) => {
                lines.push(line.to_string());
                Ok(())
            }
        }
    }

    /// Flush buffered output (no-op for the in-memory sink).
    pub fn flush(&mut self) -> io::Result<()> {
        match &mut self.backend {
            SinkBackend::File(w) => w.flush(),
            SinkBackend::Memory(_) => Ok(()),
        }
    }

    /// Lines collected so far (in-memory sink only; empty for file sinks).
    pub fn lines(&self) -> &[String] {
        match &self.backend {
            SinkBackend::Memory(lines) => lines,
            SinkBackend::File(_) => &[],
        }
    }
}

impl Drop for JsonlSink {
    /// Best-effort flush so a sink dropped without an explicit
    /// [`JsonlSink::flush`] (early return, panic unwind) does not leave a
    /// torn trailing line beyond what the OS already accepted. Errors are
    /// ignored — there is no useful way to report them from a destructor,
    /// and the loader side tolerates a torn tail regardless.
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Histogram;

    fn sample_event() -> StepEvent {
        let h = Histogram::new();
        h.record(0);
        h.record(800);
        h.record(1 << 22);
        StepEvent {
            step: 12,
            rank: 3,
            a: 0.251,
            dt: 0.004,
            buckets: BucketTotals {
                vlasov: 1.25,
                tree: 0.5,
                pm: 0.125,
                io: 0.03125,
                other: 0.0625,
            },
            spans: vec![SpanNode {
                name: "gravity".to_string(),
                bucket: Bucket::Pm,
                elapsed: 0.1875,
                children: vec![SpanNode {
                    name: "gravity.fft".to_string(),
                    bucket: Bucket::Pm,
                    elapsed: 0.0625,
                    children: Vec::new(),
                }],
            }],
            metrics: vec![
                (
                    "comm.msg_size_bytes".to_string(),
                    MetricValue::Histogram(h.snapshot()),
                ),
                ("comm.sent_bytes".to_string(), MetricValue::Counter(123456)),
                ("kernel.isa".to_string(), MetricValue::Text("avx2".into())),
                ("load.imbalance".to_string(), MetricValue::Gauge(1.0625)),
            ],
            nu_mass: 0.9999999,
            f_min: -1.25e-9,
            momentum: [1e-12, -2e-12, 0.5e-12],
        }
    }

    #[test]
    fn step_event_round_trips_through_jsonl() {
        let event = sample_event();
        let line = event.to_jsonl();
        assert!(!line.contains('\n'));
        let back = StepEvent::parse(&line).unwrap();
        assert_eq!(back, event);
    }

    #[test]
    fn a_nan_minimum_survives_the_jsonl_round_trip() {
        let event = StepEvent {
            f_min: f64::NAN,
            ..sample_event()
        };
        let back = StepEvent::parse(&event.to_jsonl()).unwrap();
        assert!(back.f_min.is_nan(), "read back as {}", back.f_min);
    }

    #[test]
    fn span_tree_survives_round_trip_with_buckets() {
        let event = sample_event();
        let back = StepEvent::parse(&event.to_jsonl()).unwrap();
        assert_eq!(back.spans[0].children[0].name, "gravity.fft");
        assert_eq!(back.spans[0].bucket, Bucket::Pm);
        assert_eq!(back.buckets, event.buckets);
    }

    #[test]
    fn memory_sink_collects_lines() {
        let mut sink = JsonlSink::in_memory();
        let event = sample_event();
        sink.write_event(&event).unwrap();
        sink.write_event(&event).unwrap();
        assert_eq!(sink.lines().len(), 2);
        let parsed = StepEvent::parse(&sink.lines()[0]).unwrap();
        assert_eq!(parsed.step, 12);
    }

    #[test]
    fn file_sink_flushes_on_drop() {
        let path = std::env::temp_dir().join(format!("obs_sink_drop_{}.jsonl", std::process::id()));
        {
            let mut sink = JsonlSink::create(&path).unwrap();
            sink.write_event(&sample_event()).unwrap();
            // No explicit flush: the drop must push the buffered line out.
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(text.lines().count(), 1);
        assert_eq!(
            StepEvent::parse(text.lines().next().unwrap()).unwrap(),
            sample_event()
        );
    }

    #[test]
    fn file_sink_writes_parseable_lines() {
        let path = std::env::temp_dir().join(format!("obs_sink_test_{}.jsonl", std::process::id()));
        let mut sink = JsonlSink::create(&path).unwrap();
        sink.write_event(&sample_event()).unwrap();
        sink.flush().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(text.lines().count(), 1);
        let back = StepEvent::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(back, sample_event());
    }
}
