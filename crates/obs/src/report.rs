//! End-of-run rendering of collected step events.
//!
//! [`RunReport`] aggregates [`StepEvent`]s from any number of steps and
//! ranks and renders the run the way the paper reports it: a Table 3/4-style
//! per-bucket wall-clock decomposition (seconds per step and share of
//! total), a hotspot ranking over span self-times, per-rank load-imbalance
//! (max over mean of per-rank busy time), and the conservation diagnostics'
//! drift over the run.

use crate::event::StepEvent;
use crate::json::Json;
use crate::span::{visit_spans, Bucket, BucketTotals};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What [`RunReport::add_jsonl_line`] did with a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineOutcome {
    /// The line parsed as a [`StepEvent`] and was added.
    Added,
    /// The line was valid JSON of another record kind sharing the stream
    /// (e.g. a `"kind": "trace"` flight-recorder line) and was skipped.
    SkippedOtherKind,
    /// The line was truncated mid-document — the torn tail of a stream cut
    /// off mid-write. Skipped and counted in [`RunReport::render`]'s note.
    SkippedTorn,
}

/// Aggregator and renderer for a run's step events.
#[derive(Default)]
pub struct RunReport {
    events: Vec<StepEvent>,
    torn: usize,
    top_pairs: Vec<(usize, usize, u64)>,
}

impl RunReport {
    /// New empty report.
    pub fn new() -> RunReport {
        RunReport::default()
    }

    /// Add one step event (any rank, any order).
    pub fn add(&mut self, event: StepEvent) {
        self.events.push(event);
    }

    /// Parse and add one JSONL line.
    ///
    /// Tolerant of the stream it actually loads from: a line of another
    /// record kind (flight-recorder traces share the file) is skipped, and a
    /// line whose JSON breaks off at end-of-input — the torn tail left by a
    /// writer killed mid-write — is skipped and counted rather than failing
    /// the whole load. Malformed JSON *within* a line is still an error.
    pub fn add_jsonl_line(&mut self, line: &str) -> Result<LineOutcome, String> {
        let v = match Json::parse(line) {
            Ok(v) => v,
            Err(e) if e.offset >= line.len() => {
                self.torn += 1;
                return Ok(LineOutcome::SkippedTorn);
            }
            Err(e) => return Err(e.to_string()),
        };
        if v.get("kind").as_str().is_some() {
            // StepEvent lines carry no "kind" field; anything that does is a
            // different record sharing the stream.
            return Ok(LineOutcome::SkippedOtherKind);
        }
        self.add(StepEvent::parse(line)?);
        Ok(LineOutcome::Added)
    }

    /// Attach the heaviest communication pairs (from
    /// `Traffic::top_pairs`) so [`RunReport::render`] can show them next to
    /// the load-imbalance figure. Entries are `(src, dst, bytes)`.
    pub fn set_top_pairs(&mut self, pairs: Vec<(usize, usize, u64)>) {
        self.top_pairs = pairs;
    }

    /// Number of events added.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were added.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of distinct step indices seen.
    pub fn step_count(&self) -> usize {
        let mut steps: Vec<u64> = self.events.iter().map(|e| e.step).collect();
        steps.sort_unstable();
        steps.dedup();
        steps.len()
    }

    /// Bucket seconds summed over all events (all ranks, all steps).
    pub(crate) fn bucket_totals(&self) -> BucketTotals {
        let mut totals = BucketTotals::default();
        for e in &self.events {
            totals.accumulate(&e.buckets);
        }
        totals
    }

    /// Per-rank busy seconds (sum of that rank's bucket totals), by rank id.
    pub(crate) fn per_rank_totals(&self) -> BTreeMap<usize, f64> {
        let mut per_rank = BTreeMap::new();
        for e in &self.events {
            *per_rank.entry(e.rank).or_insert(0.0) += e.buckets.total();
        }
        per_rank
    }

    /// Load imbalance: max over mean of per-rank busy seconds. 1.0 means
    /// perfectly balanced; 0.0 when no events or no busy time was recorded.
    pub fn load_imbalance(&self) -> f64 {
        let per_rank = self.per_rank_totals();
        if per_rank.is_empty() {
            return 0.0;
        }
        let max = per_rank.values().cloned().fold(0.0, f64::max);
        let mean: f64 = per_rank.values().sum::<f64>() / per_rank.len() as f64;
        if mean > 0.0 {
            max / mean
        } else {
            0.0
        }
    }

    /// Hidden vs exposed communication time summed over all events, from the
    /// `comm.hidden` / `comm.exposed` spans the overlapped distributed sweep
    /// records ([`OverlapSummary::hidden`] is the exchange time spent behind
    /// interior compute; `exposed` is what remained on the critical path).
    pub fn comm_overlap(&self) -> OverlapSummary {
        let mut s = OverlapSummary::default();
        for e in &self.events {
            visit_spans(&e.spans, |node| match node.name.as_str() {
                "comm.hidden" => s.hidden += node.elapsed,
                "comm.exposed" => s.exposed += node.elapsed,
                _ => {}
            });
        }
        s
    }

    /// Top-`n` spans by summed self-time across all events:
    /// `(name, self seconds, occurrence count)`.
    pub fn hotspots(&self, n: usize) -> Vec<(String, f64, u64)> {
        let mut by_name: BTreeMap<&str, (f64, u64)> = BTreeMap::new();
        for e in &self.events {
            visit_spans(&e.spans, |node| {
                let slot = by_name.entry(node.name.as_str()).or_insert((0.0, 0));
                slot.0 += node.self_time();
                slot.1 += 1;
            });
        }
        let mut ranked: Vec<(String, f64, u64)> = by_name
            .into_iter()
            .map(|(name, (secs, count))| (name.to_string(), secs, count))
            .collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        ranked.truncate(n);
        ranked
    }

    /// Render the full report as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("run report: no step events recorded\n");
            return out;
        }
        let per_rank = self.per_rank_totals();
        let steps = self.step_count();
        let totals = self.bucket_totals();
        let wall = totals.total();
        let _ = writeln!(
            out,
            "run report: {steps} step(s), {} rank(s), {} event(s)",
            per_rank.len(),
            self.len()
        );

        // Table 3/4-style decomposition: per-bucket seconds per step and
        // share of the total, summed across ranks.
        out.push_str("\nwall-clock decomposition (all ranks)\n");
        let _ = writeln!(
            out,
            "  {:<22} {:>12} {:>12} {:>8}",
            "bucket", "total [s]", "s/step", "share"
        );
        for b in Bucket::ALL {
            let secs = totals.get(b);
            let share = if wall > 0.0 { 100.0 * secs / wall } else { 0.0 };
            let _ = writeln!(
                out,
                "  {:<22} {:>12.6} {:>12.6} {:>7.1}%",
                bucket_title(b),
                secs,
                secs / steps.max(1) as f64,
                share
            );
        }
        let _ = writeln!(
            out,
            "  {:<22} {:>12.6} {:>12.6} {:>7.1}%",
            "total",
            wall,
            wall / steps.max(1) as f64,
            100.0
        );

        // Hotspots by span self-time.
        let hotspots = self.hotspots(10);
        if !hotspots.is_empty() {
            out.push_str("\nhotspots (span self-time)\n");
            let _ = writeln!(
                out,
                "  {:<32} {:>12} {:>8} {:>8}",
                "span", "self [s]", "count", "share"
            );
            for (name, secs, count) in &hotspots {
                let share = if wall > 0.0 { 100.0 * secs / wall } else { 0.0 };
                let _ = writeln!(out, "  {name:<32} {secs:>12.6} {count:>8} {share:>7.1}%");
            }
        }

        // Per-rank balance.
        if per_rank.len() > 1 {
            out.push_str("\nper-rank busy time\n");
            for (rank, secs) in &per_rank {
                let _ = writeln!(out, "  rank {rank:<4} {secs:>12.6} s");
            }
            let _ = writeln!(
                out,
                "  load imbalance (max/mean): {:.4}",
                self.load_imbalance()
            );
        }

        // Heaviest communication pairs, when traffic data was attached.
        if !self.top_pairs.is_empty() {
            out.push_str("\nheaviest rank pairs (bytes sent)\n");
            for (src, dst, bytes) in &self.top_pairs {
                let _ = writeln!(out, "  {src:>4} -> {dst:<4} {bytes:>14} B");
            }
        }

        if self.torn > 0 {
            let _ = writeln!(
                out,
                "\nnote: skipped {} torn trailing line(s) while loading",
                self.torn
            );
        }

        // Communication overlap, when the overlapped sweep ran.
        let overlap = self.comm_overlap();
        if overlap.hidden + overlap.exposed > 0.0 {
            out.push_str("\ncommunication overlap\n");
            let _ = writeln!(out, "  hidden behind compute: {:>12.6} s", overlap.hidden);
            let _ = writeln!(out, "  exposed (waited):      {:>12.6} s", overlap.exposed);
            let _ = writeln!(
                out,
                "  overlap efficiency:    {:>11.1}%",
                100.0 * overlap.efficiency()
            );
        }

        // Conservation drift over the run, from the earliest to the latest
        // step (rank 0's records when present).
        let mut tracked: Vec<&StepEvent> = self.events.iter().filter(|e| e.rank == 0).collect();
        if tracked.is_empty() {
            tracked = self.events.iter().collect();
        }
        tracked.sort_by_key(|e| e.step);
        if let (Some(first), Some(last)) = (tracked.first(), tracked.last()) {
            out.push_str("\nconservation diagnostics\n");
            let drift = if first.nu_mass != 0.0 {
                (last.nu_mass - first.nu_mass) / first.nu_mass
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  nu mass drift: {drift:+.3e} (steps {}..{})",
                first.step, last.step
            );
            let f_min = tracked
                .iter()
                .map(|e| e.f_min)
                .fold(f64::INFINITY, f64::min);
            let _ = writeln!(out, "  min f over run: {f_min:.3e}");
            let _ = writeln!(
                out,
                "  final momentum: [{:+.3e}, {:+.3e}, {:+.3e}]",
                last.momentum[0], last.momentum[1], last.momentum[2]
            );
        }
        out
    }
}

/// Split of a run's ghost-exchange wall-clock into time hidden behind
/// interior compute and time exposed on the critical path.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OverlapSummary {
    /// Seconds of exchange time overlapped with interior advection
    /// (`comm.hidden` spans).
    pub hidden: f64,
    /// Seconds spent waiting on in-flight ghost planes (`comm.exposed`
    /// spans).
    pub exposed: f64,
}

impl OverlapSummary {
    /// Fraction of the exchange hidden behind compute: `hidden / (hidden +
    /// exposed)`, or 0.0 when no overlap spans were recorded.
    pub fn efficiency(&self) -> f64 {
        let total = self.hidden + self.exposed;
        if total > 0.0 {
            self.hidden / total
        } else {
            0.0
        }
    }
}

fn bucket_title(b: Bucket) -> &'static str {
    match b {
        Bucket::Vlasov => "Vlasov solver",
        Bucket::Tree => "tree force",
        Bucket::Pm => "particle-mesh force",
        Bucket::Io => "checkpoint I/O",
        Bucket::Other => "other",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanNode;

    fn event(step: u64, rank: usize, vlasov: f64, pm: f64) -> StepEvent {
        StepEvent {
            step,
            rank,
            a: 0.1 + step as f64 * 0.01,
            dt: 0.01,
            buckets: BucketTotals {
                vlasov,
                tree: 0.0,
                pm,
                io: 0.0,
                other: 0.0,
            },
            spans: vec![
                SpanNode {
                    name: "drift".into(),
                    bucket: Bucket::Vlasov,
                    elapsed: vlasov,
                    children: Vec::new(),
                },
                SpanNode {
                    name: "gravity.pm".into(),
                    bucket: Bucket::Pm,
                    elapsed: pm,
                    children: Vec::new(),
                },
            ],
            metrics: Vec::new(),
            nu_mass: 1.0 + step as f64 * 1e-9,
            f_min: -(step as f64) * 1e-10,
            momentum: [0.0; 3],
        }
    }

    #[test]
    fn aggregates_buckets_and_steps() {
        let mut r = RunReport::new();
        r.add(event(0, 0, 1.0, 0.5));
        r.add(event(1, 0, 1.0, 0.5));
        assert_eq!(r.step_count(), 2);
        let t = r.bucket_totals();
        assert!((t.vlasov - 2.0).abs() < 1e-12);
        assert!((t.pm - 1.0).abs() < 1e-12);
        assert!((t.total() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_is_max_over_mean() {
        let mut r = RunReport::new();
        r.add(event(0, 0, 3.0, 0.0)); // rank 0 busy 3 s
        r.add(event(0, 1, 1.0, 0.0)); // rank 1 busy 1 s
                                      // mean 2, max 3 → 1.5
        assert!((r.load_imbalance() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn hotspots_rank_by_self_time() {
        let mut r = RunReport::new();
        r.add(event(0, 0, 2.0, 0.5));
        r.add(event(1, 0, 2.0, 0.5));
        let h = r.hotspots(10);
        assert_eq!(h[0].0, "drift");
        assert!((h[0].1 - 4.0).abs() < 1e-12);
        assert_eq!(h[0].2, 2);
        assert_eq!(h[1].0, "gravity.pm");
    }

    #[test]
    fn render_mentions_every_section() {
        let mut r = RunReport::new();
        r.add(event(0, 0, 1.0, 0.5));
        r.add(event(0, 1, 1.2, 0.4));
        r.add(event(1, 0, 1.0, 0.5));
        r.add(event(1, 1, 1.1, 0.6));
        let text = r.render();
        assert!(text.contains("wall-clock decomposition"));
        assert!(text.contains("Vlasov solver"));
        assert!(text.contains("particle-mesh force"));
        assert!(text.contains("hotspots"));
        assert!(text.contains("load imbalance (max/mean)"));
        assert!(text.contains("nu mass drift"));
    }

    #[test]
    fn empty_report_renders_gracefully() {
        assert!(RunReport::new().render().contains("no step events"));
    }

    fn overlap_event(step: u64, hidden: f64, exposed: f64) -> StepEvent {
        let mut e = event(step, 0, hidden + exposed, 0.0);
        e.spans = vec![SpanNode {
            name: "sweep.overlap.x".into(),
            bucket: Bucket::Vlasov,
            elapsed: hidden + exposed,
            children: vec![
                SpanNode {
                    name: "comm.hidden".into(),
                    bucket: Bucket::Vlasov,
                    elapsed: hidden,
                    children: Vec::new(),
                },
                SpanNode {
                    name: "comm.exposed".into(),
                    bucket: Bucket::Vlasov,
                    elapsed: exposed,
                    children: Vec::new(),
                },
            ],
        }];
        e
    }

    #[test]
    fn comm_overlap_sums_hidden_and_exposed_spans() {
        let mut r = RunReport::new();
        r.add(overlap_event(0, 3.0, 1.0));
        r.add(overlap_event(1, 1.0, 1.0));
        let s = r.comm_overlap();
        assert!((s.hidden - 4.0).abs() < 1e-12);
        assert!((s.exposed - 2.0).abs() < 1e-12);
        assert!((s.efficiency() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn overlap_section_renders_only_when_present() {
        let mut plain = RunReport::new();
        plain.add(event(0, 0, 1.0, 0.5));
        assert!(!plain.render().contains("communication overlap"));

        let mut r = RunReport::new();
        r.add(overlap_event(0, 3.0, 1.0));
        let text = r.render();
        assert!(text.contains("communication overlap"));
        assert!(text.contains("overlap efficiency"));
        assert!(text.contains("75.0%"));
    }

    #[test]
    fn overlap_efficiency_is_zero_without_spans() {
        assert_eq!(OverlapSummary::default().efficiency(), 0.0);
        assert_eq!(RunReport::new().comm_overlap(), OverlapSummary::default());
    }

    #[test]
    fn jsonl_lines_feed_the_report() {
        let mut r = RunReport::new();
        let line = event(5, 0, 1.0, 0.25).to_jsonl();
        assert_eq!(r.add_jsonl_line(&line), Ok(LineOutcome::Added));
        assert_eq!(r.len(), 1);
        assert_eq!(r.step_count(), 1);
        assert!(r.add_jsonl_line("not json").is_err());
    }

    #[test]
    fn torn_trailing_line_is_skipped_and_counted() {
        let mut r = RunReport::new();
        let full = event(5, 0, 1.0, 0.25).to_jsonl();
        assert_eq!(r.add_jsonl_line(&full), Ok(LineOutcome::Added));
        // Cut the line mid-document, as a killed writer would leave it.
        let torn = &full[..full.len() / 2];
        assert_eq!(r.add_jsonl_line(torn), Ok(LineOutcome::SkippedTorn));
        assert_eq!(r.len(), 1);
        assert!(r.render().contains("skipped 1 torn trailing line"));
        // Garbage mid-line is still a hard error, not silently skipped.
        assert!(r.add_jsonl_line("{\"step\": ???}").is_err());
    }

    #[test]
    fn trace_kind_lines_are_skipped_not_errors() {
        let mut r = RunReport::new();
        assert_eq!(
            r.add_jsonl_line("{\"kind\":\"trace\",\"step\":1,\"rank\":0,\"events\":[]}"),
            Ok(LineOutcome::SkippedOtherKind)
        );
        assert!(r.is_empty());
        assert!(!r.render().contains("torn"));
    }

    #[test]
    fn top_pairs_render_next_to_imbalance() {
        let mut r = RunReport::new();
        r.add(event(0, 0, 3.0, 0.0));
        r.add(event(0, 1, 1.0, 0.0));
        r.set_top_pairs(vec![(0, 1, 4096), (1, 0, 1024)]);
        let text = r.render();
        assert!(text.contains("load imbalance (max/mean)"));
        assert!(text.contains("heaviest rank pairs"));
        assert!(text.contains("0 -> 1"));
        assert!(text.contains("4096"));
    }
}
