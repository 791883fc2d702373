//! What one run keeps: timing samples by name, operation and failure
//! counts, and — on a traced run — the benchmark's own spans.
//!
//! Spans are recorded around the calls the benchmark makes into each layer
//! (never inside the program), kept in memory, and written out once at the
//! end of the run. End-to-end numbers come from untraced runs only.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval, microseconds since the recorder's epoch.
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

pub struct Recorder {
    /// Non-root ranks run the same collective operations but keep nothing.
    keep: bool,
    traced: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed operation or gate, for the operator.
    pub failures: Vec<String>,
}

impl Recorder {
    pub fn new(keep: bool, traced: bool) -> Recorder {
        Recorder {
            keep,
            traced,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            samples: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    pub fn traced(&self) -> bool {
        self.traced
    }

    /// A recorder for one rank of a universe started under this one: same
    /// clock, same tracing; `keep` is true on the root rank only. Hand it
    /// back through [`Recorder::absorb`] when the universe has ended.
    pub fn fork(&self, keep: bool) -> Recorder {
        Recorder {
            epoch: self.epoch,
            ..Recorder::new(keep, self.traced && keep)
        }
    }

    /// Fold a forked recorder's samples, counts and spans into this one.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        let under = self.open.last().copied();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map_or(under, |p| Some(base + p)),
            ..s
        }));
        for (name, values) in other.samples {
            self.samples.entry(name).or_default().extend(values);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }

    /// Run `f` under a span named `name` (recorded only when tracing, nested
    /// under whatever span is open) and return its result and wall seconds.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> (R, f64) {
        let index = self.traced.then(|| {
            self.spans.push(Span {
                name,
                start_us: self.epoch.elapsed().as_secs_f64() * 1e6,
                end_us: f64::NAN,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let started = Instant::now();
        let out = f(self);
        let secs = started.elapsed().as_secs_f64();
        if let Some(i) = index {
            self.spans[i].end_us = self.epoch.elapsed().as_secs_f64() * 1e6;
            self.open.pop();
        }
        (out, secs)
    }

    /// [`Recorder::span`], with the wall time kept as one sample of `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let (out, secs) = self.span(name, f);
        self.push(name, secs);
        out
    }

    /// Add one sample measured elsewhere (a latency, a bucket time).
    pub fn push(&mut self, name: &'static str, value: f64) {
        if self.keep {
            self.samples.entry(name).or_default().push(value);
        }
    }

    /// Count one attempted operation; a failure is counted, never timed.
    pub fn attempt<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.failures.push(format!("{what}: {e}"));
                None
            }
        }
    }

    /// A correctness gate is an attempted operation that fails when `ok`
    /// does not hold.
    pub fn gate(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        let result = if ok { Ok(()) } else { Err(detail()) };
        self.attempt(what, result);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Write the spans as JSON lines: name, start, end, parent index.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent}}}",
                s.name, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_samples_pool_by_name() {
        let mut rec = Recorder::new(true, true);
        rec.time("outer", |rec| {
            rec.time("inner", |_| ());
            rec.time("inner", |_| ());
        });
        assert_eq!(rec.get("inner").len(), 2);
        assert_eq!(rec.get("outer").len(), 1);
        assert_eq!(rec.spans.len(), 3);
        assert_eq!(rec.spans[0].parent, None);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[2].parent, Some(0));
        assert!(rec.spans[0].end_us >= rec.spans[2].end_us);
    }

    #[test]
    fn failures_are_counted_not_timed() {
        let mut rec = Recorder::new(true, false);
        assert_eq!(rec.attempt("ok", Ok::<_, String>(3)), Some(3));
        assert_eq!(rec.attempt::<()>("bad", Err("boom".into())), None);
        rec.gate("gate", false, || "off by one".into());
        assert_eq!((rec.attempted, rec.failed), (3, 2));
        assert_eq!(rec.failures.len(), 2);
        assert!(rec.samples.is_empty());
    }

    #[test]
    fn a_fork_shares_the_clock_and_folds_back_in() {
        let mut rec = Recorder::new(true, true);
        rec.time("before", |_| ());
        let mut root = rec.fork(true);
        let mut peer = rec.fork(false);
        root.time("step", |r| r.time("inner", |_| ()));
        peer.time("step", |_| ());
        root.gate("gate", true, String::new);
        peer.gate("gate", false, String::new);
        rec.absorb(root);
        rec.absorb(peer);
        // Samples are the root's; a failure on the peer alone still counts.
        assert_eq!(rec.get("step").len(), 1);
        assert_eq!((rec.attempted, rec.failed), (2, 1));
        assert_eq!(rec.spans.len(), 3);
        assert_eq!(rec.spans[2].parent, Some(1));
        assert!(rec.spans[1].start_us >= rec.spans[0].end_us);
    }

    #[test]
    fn a_non_root_recorder_keeps_nothing() {
        let mut rec = Recorder::new(false, false);
        rec.time("step", |_| ());
        assert!(rec.get("step").is_empty());
    }
}
