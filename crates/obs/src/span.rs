//! Hierarchical wall-clock spans folding into the paper's four step buckets.
//!
//! The paper reports each step's cost split into four buckets (Table 3/4):
//! the Vlasov solver, the tree force, the particle-mesh force, and everything
//! else. Scattered `Instant::now()` pairs can reproduce that split but lose
//! the *structure* — which FFT inside which Poisson solve inside which
//! gravity phase. Spans keep the structure and recover the split:
//!
//! * [`StepScope::begin`] installs a per-thread collector for one step.
//! * [`span!`](macro@crate::span) opens a guard; dropping it records the region into the tree
//!   under whatever span was open at the time.
//! * [`StepScope::finish`] returns the [`StepSpans`] tree plus
//!   [`BucketTotals`] computed by *self-time attribution*: each span's
//!   elapsed time minus its children's goes to its own bucket, so a
//!   `Bucket::Pm` span containing a nested FFT span never double-counts.
//!
//! A span opened with no explicit bucket inherits its parent's; a root span
//! with no bucket lands in [`Bucket::Other`]. When no [`StepScope`] is active
//! on the thread, a guard is inert: one thread-local read, no allocation, no
//! timing — cheap enough to leave instrumentation in hot paths.
//!
//! The collector is thread-local on purpose: in `mpisim` every rank is a
//! thread, so "per-thread" *is* "per-rank" and ranks never contend.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::time::Instant;

/// The cost buckets of the paper's Table 3/4 decomposition, plus `Io` for
/// checkpoint/restart so its overhead is visible against the solver cost
/// (the paper budgets checkpointing at a few percent of a step).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bucket {
    /// Vlasov solver: phase-space advection sweeps (directional splitting).
    Vlasov,
    /// Short-range tree force over the particle component.
    Tree,
    /// Long-range particle-mesh force: deposit, FFT Poisson solve, gather.
    Pm,
    /// Durable-state I/O: checkpoint encode/commit and restart reads.
    Io,
    /// Everything else: diagnostics, reductions, bookkeeping.
    Other,
}

impl Bucket {
    /// Stable lowercase label used in JSON records and report tables.
    pub fn label(self) -> &'static str {
        match self {
            Bucket::Vlasov => "vlasov",
            Bucket::Tree => "tree",
            Bucket::Pm => "pm",
            Bucket::Io => "io",
            Bucket::Other => "other",
        }
    }

    /// Inverse of [`Bucket::label`]; unknown labels map to `Other`.
    pub(crate) fn from_label(label: &str) -> Bucket {
        match label {
            "vlasov" => Bucket::Vlasov,
            "tree" => Bucket::Tree,
            "pm" => Bucket::Pm,
            "io" => Bucket::Io,
            _ => Bucket::Other,
        }
    }

    /// All buckets in report order.
    pub const ALL: [Bucket; 5] = [
        Bucket::Vlasov,
        Bucket::Tree,
        Bucket::Pm,
        Bucket::Io,
        Bucket::Other,
    ];
}

/// Seconds accumulated per bucket; the folded form of a span tree.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BucketTotals {
    /// Seconds attributed to [`Bucket::Vlasov`].
    pub vlasov: f64,
    /// Seconds attributed to [`Bucket::Tree`].
    pub tree: f64,
    /// Seconds attributed to [`Bucket::Pm`].
    pub pm: f64,
    /// Seconds attributed to [`Bucket::Io`].
    pub io: f64,
    /// Seconds attributed to [`Bucket::Other`].
    pub other: f64,
}

impl BucketTotals {
    /// Total seconds across all buckets.
    pub fn total(&self) -> f64 {
        self.vlasov + self.tree + self.pm + self.io + self.other
    }

    /// Read one bucket.
    pub fn get(&self, b: Bucket) -> f64 {
        match b {
            Bucket::Vlasov => self.vlasov,
            Bucket::Tree => self.tree,
            Bucket::Pm => self.pm,
            Bucket::Io => self.io,
            Bucket::Other => self.other,
        }
    }

    /// Add seconds to one bucket.
    pub fn add(&mut self, b: Bucket, secs: f64) {
        match b {
            Bucket::Vlasov => self.vlasov += secs,
            Bucket::Tree => self.tree += secs,
            Bucket::Pm => self.pm += secs,
            Bucket::Io => self.io += secs,
            Bucket::Other => self.other += secs,
        }
    }

    /// Element-wise accumulate.
    pub fn accumulate(&mut self, rhs: &BucketTotals) {
        self.vlasov += rhs.vlasov;
        self.tree += rhs.tree;
        self.pm += rhs.pm;
        self.io += rhs.io;
        self.other += rhs.other;
    }
}

/// One timed region in the finished step tree.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Dotted region name, e.g. `"gravity.pm.fft"`.
    pub name: String,
    /// Bucket this span's *self time* is attributed to.
    pub bucket: Bucket,
    /// Wall-clock seconds from guard open to guard drop (children included).
    pub elapsed: f64,
    /// Nested spans, in completion order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Elapsed time not covered by children — the part attributed to
    /// `self.bucket`. Clamped at zero against timer jitter.
    pub(crate) fn self_time(&self) -> f64 {
        let nested: f64 = self.children.iter().map(|c| c.elapsed).sum();
        (self.elapsed - nested).max(0.0)
    }

    /// Depth-first search for the first span named `name`.
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    fn fold_into(&self, totals: &mut BucketTotals) {
        totals.add(self.bucket, self.self_time());
        for c in &self.children {
            c.fold_into(totals);
        }
    }

    fn visit<'a>(&'a self, f: &mut impl FnMut(&'a SpanNode)) {
        f(self);
        for c in &self.children {
            c.visit(f);
        }
    }
}

/// Fold a span forest down to per-bucket totals by self-time attribution.
pub fn fold_buckets(roots: &[SpanNode]) -> BucketTotals {
    let mut totals = BucketTotals::default();
    for r in roots {
        r.fold_into(&mut totals);
    }
    totals
}

/// Visit every span in a forest depth-first.
pub fn visit_spans<'a>(roots: &'a [SpanNode], mut f: impl FnMut(&'a SpanNode)) {
    for r in roots {
        r.visit(&mut f);
    }
}

/// The finished record of one step on one thread (= one rank under `mpisim`).
#[derive(Debug, Clone, PartialEq)]
pub struct StepSpans {
    /// Step index the scope was opened with.
    pub step: u64,
    /// Top-level spans recorded during the scope, in completion order.
    pub roots: Vec<SpanNode>,
    /// The four-bucket fold of `roots` (self-time attribution).
    pub buckets: BucketTotals,
}

struct Frame {
    name: &'static str,
    bucket: Bucket,
    explicit_bucket: bool,
    children: Vec<SpanNode>,
}

struct Collector {
    step: u64,
    /// `stack[0]` is the synthetic step root; real spans live above it.
    stack: Vec<Frame>,
}

thread_local! {
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// Scope installing the span collector on the current thread for one step.
///
/// Dropping a scope without calling [`StepScope::finish`] discards its
/// recordings; the next [`StepScope::begin`] replaces any scope still
/// installed on the thread.
#[must_use = "a StepScope that is never finished records nothing"]
pub struct StepScope {
    _not_send: PhantomData<*const ()>,
}

impl StepScope {
    /// Install a fresh collector on this thread for step `step`.
    pub fn begin(step: u64) -> StepScope {
        COLLECTOR.with(|c| {
            *c.borrow_mut() = Some(Collector {
                step,
                stack: vec![Frame {
                    name: "",
                    bucket: Bucket::Other,
                    explicit_bucket: false,
                    children: Vec::new(),
                }],
            });
        });
        StepScope {
            _not_send: PhantomData,
        }
    }

    /// Is a collector currently installed on this thread?
    pub fn is_active() -> bool {
        COLLECTOR.with(|c| c.borrow().is_some())
    }

    /// Uninstall the collector and return the recorded tree and its fold.
    ///
    /// Spans still open at this point (a guard kept alive across `finish`, a
    /// misuse) are closed with the time observed so far.
    pub fn finish(self) -> StepSpans {
        COLLECTOR.with(|c| {
            let mut collector = c
                .borrow_mut()
                .take()
                .expect("StepScope::finish: collector was replaced by a nested begin");
            // Close any dangling frames into their parents.
            while collector.stack.len() > 1 {
                let frame = collector.stack.pop().expect("len checked");
                let node = SpanNode {
                    name: frame.name.to_string(),
                    bucket: frame.bucket,
                    elapsed: 0.0,
                    children: frame.children,
                };
                collector
                    .stack
                    .last_mut()
                    .expect("root frame")
                    .children
                    .push(node);
            }
            let root = collector.stack.pop().expect("root frame");
            let roots = root.children;
            let buckets = fold_buckets(&roots);
            StepSpans {
                step: collector.step,
                roots,
                buckets,
            }
        })
    }
}

/// RAII guard for one timed region; created by the [`span!`](macro@crate::span) macro.
///
/// Inert (no timing, no allocation) when neither a [`StepScope`] nor a
/// [`crate::trace`] flight recorder is active on the thread. When a recorder
/// is active the guard also emits a trace event on drop, carrying the *same*
/// elapsed value that enters the span tree — so trace-derived and tree-derived
/// durations agree exactly. Not `Send`: a guard must drop on the thread that
/// opened it.
#[must_use = "dropping a span guard immediately records a zero-length span"]
pub struct SpanGuard {
    start: Option<Instant>,
    name: &'static str,
    bucket: Bucket,
    framed: bool,
    traced: bool,
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    /// Open a span. Prefer the [`span!`](macro@crate::span) macro.
    pub fn open(name: &'static str, bucket: Option<Bucket>) -> SpanGuard {
        let framed_bucket = COLLECTOR.with(|c| {
            let mut slot = c.borrow_mut();
            let collector = slot.as_mut()?;
            let parent = collector.stack.last().expect("root frame always present");
            let (bucket, explicit) = match bucket {
                Some(b) => (b, true),
                // Inherit only an *explicitly set* ancestor bucket so that a
                // bare root span folds to Other, not to a stale default.
                None if parent.explicit_bucket => (parent.bucket, true),
                None => (Bucket::Other, false),
            };
            collector.stack.push(Frame {
                name,
                bucket,
                explicit_bucket: explicit,
                children: Vec::new(),
            });
            Some(bucket)
        });
        let framed = framed_bucket.is_some();
        let traced = crate::trace::is_active();
        SpanGuard {
            start: (framed || traced).then(Instant::now),
            name,
            // Without a collector there is no parent to inherit from; the
            // trace event falls back to the explicit bucket or Other.
            bucket: framed_bucket.unwrap_or_else(|| bucket.unwrap_or(Bucket::Other)),
            framed,
            traced,
            _not_send: PhantomData,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let elapsed = start.elapsed().as_secs_f64();
        if self.traced {
            crate::trace::note_span(self.name, self.bucket, elapsed);
        }
        if !self.framed {
            return;
        }
        COLLECTOR.with(|c| {
            let mut slot = c.borrow_mut();
            let Some(collector) = slot.as_mut() else {
                // Scope finished (or replaced) while the guard was alive; the
                // frame was already folded by `finish`. Nothing left to do.
                return;
            };
            if collector.stack.len() <= 1 {
                return;
            }
            let frame = collector.stack.pop().expect("len checked");
            let node = SpanNode {
                name: frame.name.to_string(),
                bucket: frame.bucket,
                elapsed,
                children: frame.children,
            };
            collector
                .stack
                .last_mut()
                .expect("root frame")
                .children
                .push(node);
        });
    }
}

/// Open a timed span guard for the enclosing scope.
///
/// `span!("name")` inherits the parent span's bucket (or `Other` at the
/// root); `span!("name", Bucket::Pm)` pins the bucket explicitly. Bind the
/// result (`let _g = span!(...)`) — its drop closes the span.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::SpanGuard::open($name, ::core::option::Option::None)
    };
    ($name:expr, $bucket:expr) => {
        $crate::span::SpanGuard::open($name, ::core::option::Option::Some($bucket))
    };
}

/// Minimal wall-clock stopwatch for code that needs a raw interval rather
/// than a tree entry (benchmark drivers, report wall-time totals).
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Stopwatch {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Reset the origin to now.
    pub fn restart(&mut self) {
        self.start = Instant::now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(micros: u64) {
        let t0 = Instant::now();
        while t0.elapsed().as_micros() < micros as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn guards_are_inert_without_a_scope() {
        assert!(!StepScope::is_active());
        let g = span!("orphan", Bucket::Pm);
        assert!(g.start.is_none());
        drop(g);
        assert!(!StepScope::is_active());
    }

    #[test]
    fn nesting_builds_a_tree() {
        let scope = StepScope::begin(3);
        {
            let _a = span!("gravity", Bucket::Pm);
            {
                let _b = span!("gravity.fft");
            }
            {
                let _c = span!("gravity.tree", Bucket::Tree);
            }
        }
        {
            let _d = span!("drift", Bucket::Vlasov);
        }
        let spans = scope.finish();
        assert_eq!(spans.step, 3);
        assert_eq!(spans.roots.len(), 2);
        assert_eq!(spans.roots[0].name, "gravity");
        assert_eq!(spans.roots[0].children.len(), 2);
        assert_eq!(spans.roots[0].children[0].name, "gravity.fft");
        // Un-bucketed child inherits the parent's explicit Pm.
        assert_eq!(spans.roots[0].children[0].bucket, Bucket::Pm);
        assert_eq!(spans.roots[0].children[1].bucket, Bucket::Tree);
        assert_eq!(spans.roots[1].name, "drift");
        assert!(spans.roots[0].find("gravity.tree").is_some());
    }

    #[test]
    fn self_time_attribution_never_double_counts() {
        let scope = StepScope::begin(0);
        {
            let _outer = span!("pm", Bucket::Pm);
            spin(2000);
            {
                let _inner = span!("pm.fft", Bucket::Vlasov); // deliberately cross-bucket
                spin(2000);
            }
            spin(1000);
        }
        let spans = scope.finish();
        let outer = &spans.roots[0];
        let inner = &outer.children[0];
        // Parent self-time excludes the child.
        assert!(outer.self_time() <= outer.elapsed - inner.elapsed + 1e-9);
        // The fold's total equals the root's elapsed (one root, fully covered).
        let fold = spans.buckets;
        assert!((fold.total() - outer.elapsed).abs() < 1e-9);
        assert!(fold.pm > 0.0 && fold.vlasov > 0.0);
        assert!((fold.pm + fold.vlasov) - outer.elapsed < 1e-9);
    }

    #[test]
    fn unbucketed_root_folds_to_other() {
        let scope = StepScope::begin(0);
        {
            let _g = span!("misc");
            spin(500);
        }
        let spans = scope.finish();
        assert_eq!(spans.roots[0].bucket, Bucket::Other);
        assert!(spans.buckets.other > 0.0);
        assert_eq!(spans.buckets.vlasov, 0.0);
    }

    #[test]
    fn fresh_begin_replaces_a_dropped_scope() {
        let stale = StepScope::begin(1);
        let _g = span!("leaked", Bucket::Tree);
        drop(stale); // never finished: recordings discarded at next begin
        let scope = StepScope::begin(2);
        let spans = scope.finish();
        assert_eq!(spans.step, 2);
        assert!(spans.roots.is_empty());
    }

    #[test]
    fn bucket_labels_round_trip() {
        for b in Bucket::ALL {
            assert_eq!(Bucket::from_label(b.label()), b);
        }
        assert_eq!(Bucket::from_label("mystery"), Bucket::Other);
    }

    #[test]
    fn stopwatch_measures_forward_time() {
        let sw = Stopwatch::start();
        spin(200);
        assert!(sw.elapsed_secs() > 0.0);
    }
}
