//! Ranks, mailboxes and point-to-point messaging.
//!
//! Besides the plain [`Universe::run`] entry point, the runtime has a
//! *checked* mode ([`Universe::run_checked`]) used by the verification
//! tooling in [`crate::sched`]:
//!
//! * a **deadlock watchdog** that detects a wedged universe (every
//!   unfinished rank blocked in a receive or at the barrier with no message
//!   progress), aborts it cleanly and reports who was waiting on what
//!   instead of hanging the test suite;
//! * **unreceived-message leak detection** at teardown — a send whose
//!   message is still sitting in a mailbox when all ranks have exited is a
//!   miswired exchange;
//! * a **delivery schedule** that perturbs message visibility (seeded,
//!   deterministic) so schedule-exploration tests can replay a program under
//!   different message orders.

use crate::traffic::Traffic;
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use vlasov6d_obs::trace;

/// Types that can ride in a message. `byte_len` feeds the traffic counters —
/// it should return the wire size an MPI implementation would move.
pub trait Payload: Send + 'static {
    fn byte_len(&self) -> usize;
}

macro_rules! scalar_payload {
    ($($t:ty),*) => {
        $(impl Payload for $t {
            fn byte_len(&self) -> usize { std::mem::size_of::<$t>() }
        })*
    };
}
scalar_payload!(
    u8,
    u16,
    u32,
    u64,
    usize,
    i8,
    i16,
    i32,
    i64,
    isize,
    f32,
    f64,
    bool,
    ()
);

impl<T: Payload> Payload for Vec<T> {
    fn byte_len(&self) -> usize {
        // For fixed-size elements this folds to len · size_of::<T>().
        self.iter().map(Payload::byte_len).sum()
    }
}

impl<T: Payload, const N: usize> Payload for [T; N] {
    fn byte_len(&self) -> usize {
        self.iter().map(Payload::byte_len).sum()
    }
}

impl<A: Payload, B: Payload> Payload for (A, B) {
    fn byte_len(&self) -> usize {
        self.0.byte_len() + self.1.byte_len()
    }
}

impl<T: Payload> Payload for Option<T> {
    fn byte_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Payload::byte_len)
    }
}

type Key = (usize, u64); // (source, tag)

/// Options for [`Universe::run_checked`].
#[derive(Debug, Clone, Default)]
pub struct SimOptions {
    /// Fail teardown if any mailbox still holds undelivered or unreceived
    /// messages after every rank has returned.
    pub verify_leaks: bool,
    /// Abort and report (instead of hanging) when no rank makes progress for
    /// this long while at least one is blocked.
    pub deadlock_timeout: Option<Duration>,
    /// Deterministically delay message visibility according to this seed,
    /// exploring alternative delivery orders. Per-`(source, tag)` FIFO order
    /// is preserved (the non-overtaking guarantee holds under every
    /// schedule).
    pub schedule_seed: Option<u64>,
}

impl SimOptions {
    /// The configuration the schedule-exploration harness uses: leaks
    /// verified, watchdog armed, delivery perturbed by `seed`.
    pub fn checked(seed: u64, timeout: Duration) -> Self {
        Self {
            verify_leaks: true,
            deadlock_timeout: Some(timeout),
            schedule_seed: Some(seed),
        }
    }
}

/// Why a checked run failed.
#[derive(Debug, Clone)]
pub enum SimError {
    /// The watchdog declared the universe wedged; `blocked` lists every
    /// unfinished rank and what it was waiting on.
    Deadlock { blocked: Vec<BlockedOp> },
    /// Messages were never received ([`SimOptions::verify_leaks`]).
    Leak { leaks: Vec<LeakRecord> },
    /// Posted requests were never waited on ([`SimOptions::verify_leaks`]).
    RequestLeak { leaks: Vec<RequestLeak> },
    /// A rank panicked; the message is the panic payload's text.
    RankPanic { rank: usize, message: String },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { blocked } => {
                write!(f, "deadlock: ")?;
                for (i, b) in blocked.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    match b.kind {
                        BlockKind::Recv { source, tag } => write!(
                            f,
                            "rank {} blocked in recv(source {source}, tag {tag})",
                            b.rank
                        )?,
                        BlockKind::Barrier => write!(f, "rank {} blocked at barrier", b.rank)?,
                    }
                }
                Ok(())
            }
            SimError::Leak { leaks } => {
                write!(f, "unreceived messages at teardown: ")?;
                for (i, l) in leaks.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(
                        f,
                        "{} message(s) from rank {} tag {} still in rank {}'s mailbox",
                        l.count, l.source, l.tag, l.dest
                    )?;
                }
                Ok(())
            }
            SimError::RequestLeak { leaks } => {
                write!(f, "requests dropped without wait: ")?;
                for (i, l) in leaks.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    let kind = match l.kind {
                        RequestKind::Send => "isend",
                        RequestKind::Recv => "irecv",
                    };
                    write!(
                        f,
                        "rank {} dropped an un-waited {kind} (peer {}, tag {})",
                        l.rank, l.peer, l.tag
                    )?;
                }
                Ok(())
            }
            SimError::RankPanic { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
        }
    }
}

/// What a blocked rank was waiting on when the watchdog fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockedOp {
    /// The blocked rank.
    pub rank: usize,
    /// The blocking operation.
    pub kind: BlockKind,
}

/// The kind of operation a rank can block in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// Blocked in a receive (or a receive's wait) on `(source, tag)`.
    Recv { source: usize, tag: u64 },
    /// Blocked in [`Comm::barrier`].
    Barrier,
}

/// One mailbox queue that still held messages at teardown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeakRecord {
    /// Rank whose mailbox held the messages.
    pub dest: usize,
    /// Sender of the leaked messages.
    pub source: usize,
    /// Tag of the leaked messages.
    pub tag: u64,
    /// How many messages were stranded on this `(source, tag)` queue.
    pub count: usize,
}

/// Whether a leaked split-phase request was a send or a receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// A posted send.
    Send,
    /// A posted receive.
    Recv,
}

/// A request a posted program ([`crate::Posted`]) made and was dropped
/// before waiting on — the non-blocking analogue of a [`LeakRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestLeak {
    /// Rank that posted the request.
    pub rank: usize,
    /// Send or receive side.
    pub kind: RequestKind,
    /// The peer rank of the request (destination for sends, source for
    /// receives).
    pub peer: usize,
    /// Tag of the request.
    pub tag: u64,
}

/// Panic payload used to unwind ranks out of blocking calls after an abort.
/// Recognised (and swallowed) by the checked-run rank wrapper.
struct Aborted;

/// A message delayed by the delivery schedule, ordered by release epoch.
struct PendingMsg {
    release: u64,
    seq: u64,
    key: Key,
    msg: Box<dyn Any + Send>,
}

#[derive(Default)]
struct MailboxInner {
    queues: HashMap<Key, VecDeque<Box<dyn Any + Send>>>,
    /// Messages held back by the delivery schedule, sorted on demand.
    pending: Vec<PendingMsg>,
    /// Monotone per-key release floor preserving non-overtaking order.
    last_release: HashMap<Key, u64>,
}

/// One per rank: tag-matched unbounded queues plus a wakeup condvar.
#[derive(Default)]
struct Mailbox {
    inner: Mutex<MailboxInner>,
    cond: Condvar,
}

/// Shared bookkeeping for checked runs: abort flag, progress counter for the
/// watchdog, the schedule clock, and per-rank blocked-state slots.
struct Control {
    /// True when blocked-state tracking is on (watchdog or schedule active);
    /// plain runs skip all per-op bookkeeping.
    tracking: bool,
    schedule_seed: Option<u64>,
    aborted: AtomicBool,
    /// Bumped on every successful push/pop/barrier release; the watchdog
    /// declares deadlock when it stops moving.
    progress: AtomicU64,
    /// Logical clock for the delivery schedule; advances on sends and on
    /// blocked waits, so held-back messages are always eventually released.
    epoch: AtomicU64,
    seq: AtomicU64,
    blocked: Vec<Mutex<Option<BlockKind>>>,
    finished: AtomicUsize,
    /// Split-phase requests dropped without a `wait`, reported at teardown
    /// under [`SimOptions::verify_leaks`].
    request_leaks: Mutex<Vec<RequestLeak>>,
}

impl Control {
    fn new(n: usize, opts: &SimOptions) -> Self {
        Self {
            tracking: opts.deadlock_timeout.is_some() || opts.schedule_seed.is_some(),
            schedule_seed: opts.schedule_seed,
            aborted: AtomicBool::new(false),
            progress: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            blocked: (0..n).map(|_| Mutex::new(None)).collect(),
            finished: AtomicUsize::new(0),
            request_leaks: Mutex::new(Vec::new()),
        }
    }

    fn record_request_leak(&self, leak: RequestLeak) {
        self.request_leaks
            .lock()
            .expect("request-leak slot poisoned")
            .push(leak);
    }

    fn set_blocked(&self, rank: usize, kind: Option<BlockKind>) {
        if self.tracking {
            *self.blocked[rank].lock().expect("blocked slot poisoned") = kind;
        }
    }
}

/// SplitMix64 — the schedule's deterministic per-message hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Longest schedule-induced delivery delay, in epochs. Epochs advance on
/// every send and on every 1 ms of blocked waiting, so held messages release
/// promptly once the universe quiesces.
const MAX_DELAY_EPOCHS: u64 = 16;

/// How long a blocked rank waits between epoch bumps in tracking mode.
const TRACKING_WAIT: Duration = Duration::from_millis(1);

impl Mailbox {
    fn push(&self, key: Key, msg: Box<dyn Any + Send>, ctrl: &Control) {
        let mut inner = self.inner.lock().expect("mailbox poisoned");
        if let Some(seed) = ctrl.schedule_seed {
            let now = ctrl.epoch.fetch_add(1, Ordering::Relaxed);
            let h = splitmix64(seed ^ splitmix64(key.0 as u64 ^ (key.1 << 20) ^ (now << 40)));
            let mut release = now + h % MAX_DELAY_EPOCHS;
            // Never let a later message on the same key release before an
            // earlier one: per-(source, tag) FIFO must survive the schedule.
            let floor = inner.last_release.entry(key).or_insert(0);
            release = release.max(*floor);
            *floor = release;
            inner.pending.push(PendingMsg {
                release,
                seq: ctrl.seq.fetch_add(1, Ordering::Relaxed),
                key,
                msg,
            });
            Self::deliver_ready(&mut inner, ctrl.epoch.load(Ordering::Relaxed));
        } else {
            inner.queues.entry(key).or_default().push_back(msg);
        }
        ctrl.progress.fetch_add(1, Ordering::Relaxed);
        self.cond.notify_all();
    }

    /// Move schedule-held messages whose release epoch has passed into the
    /// visible queues, in (release, send-sequence) order.
    fn deliver_ready(inner: &mut MailboxInner, now: u64) {
        if inner.pending.is_empty() {
            return;
        }
        inner.pending.sort_by_key(|p| (p.release, p.seq));
        let ready = inner
            .pending
            .iter()
            .take_while(|p| p.release <= now)
            .count();
        for p in inner.pending.drain(..ready) {
            inner.queues.entry(p.key).or_default().push_back(p.msg);
        }
    }

    fn pop_blocking(
        &self,
        key: Key,
        ctrl: &Control,
        rank: usize,
    ) -> Result<Box<dyn Any + Send>, Aborted> {
        let mut inner = self.inner.lock().expect("mailbox poisoned");
        let mut announced = false;
        loop {
            Self::deliver_ready(&mut inner, ctrl.epoch.load(Ordering::Relaxed));
            if let Some(msg) = inner.queues.get_mut(&key).and_then(|q| q.pop_front()) {
                if announced {
                    ctrl.set_blocked(rank, None);
                }
                ctrl.progress.fetch_add(1, Ordering::Relaxed);
                return Ok(msg);
            }
            if ctrl.aborted.load(Ordering::SeqCst) {
                return Err(Aborted);
            }
            if ctrl.tracking {
                if !announced {
                    ctrl.set_blocked(
                        rank,
                        Some(BlockKind::Recv {
                            source: key.0,
                            tag: key.1,
                        }),
                    );
                    announced = true;
                }
                let (guard, timeout) = self
                    .cond
                    .wait_timeout(inner, TRACKING_WAIT)
                    .expect("mailbox poisoned");
                inner = guard;
                if timeout.timed_out() {
                    // Blocked time advances the schedule clock so held-back
                    // messages cannot starve a waiting receiver.
                    ctrl.epoch.fetch_add(1, Ordering::Relaxed);
                }
            } else {
                inner = self.cond.wait(inner).expect("mailbox poisoned");
            }
        }
    }

    /// Stranded messages, by queue — the leak check at teardown.
    fn leaks(&self, dest: usize) -> Vec<LeakRecord> {
        let mut inner = self.inner.lock().expect("mailbox poisoned");
        // Anything still pending would have been delivered eventually; count
        // it as stranded too.
        Self::deliver_ready(&mut inner, u64::MAX);
        let mut out: Vec<LeakRecord> = inner
            .queues
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(&(source, tag), q)| LeakRecord {
                dest,
                source,
                tag,
                count: q.len(),
            })
            .collect();
        out.sort_by_key(|l| (l.source, l.tag));
        out
    }
}

/// Condvar-based barrier that observes the abort flag, so a wedged universe
/// can be torn down even with ranks parked here (std's `Barrier` cannot be
/// interrupted).
struct SimBarrier {
    state: Mutex<(usize, u64)>, // (waiting count, generation)
    cond: Condvar,
    n: usize,
}

impl SimBarrier {
    fn new(n: usize) -> Self {
        Self {
            state: Mutex::new((0, 0)),
            cond: Condvar::new(),
            n,
        }
    }

    fn wait(&self, ctrl: &Control, rank: usize) -> Result<(), Aborted> {
        let mut state = self.state.lock().expect("barrier poisoned");
        state.0 += 1;
        if state.0 == self.n {
            state.0 = 0;
            state.1 = state.1.wrapping_add(1);
            ctrl.progress.fetch_add(1, Ordering::Relaxed);
            self.cond.notify_all();
            return Ok(());
        }
        let gen = state.1;
        ctrl.set_blocked(rank, Some(BlockKind::Barrier));
        while state.1 == gen {
            if ctrl.aborted.load(Ordering::SeqCst) {
                return Err(Aborted);
            }
            state = if ctrl.tracking {
                self.cond
                    .wait_timeout(state, TRACKING_WAIT)
                    .expect("barrier poisoned")
                    .0
            } else {
                self.cond.wait(state).expect("barrier poisoned")
            };
        }
        ctrl.set_blocked(rank, None);
        Ok(())
    }

    /// Wake every parked rank (used by the abort path).
    fn wake_all(&self) {
        let _guard = self.state.lock().expect("barrier poisoned");
        self.cond.notify_all();
    }
}

/// Shared state of one universe of ranks.
struct Shared {
    mailboxes: Vec<Mailbox>,
    traffic: Traffic,
    barrier: SimBarrier,
    ctrl: Control,
}

impl Shared {
    /// Set the abort flag and wake every blocked rank so teardown can join.
    fn abort(&self) {
        self.ctrl.aborted.store(true, Ordering::SeqCst);
        for mb in &self.mailboxes {
            let _guard = mb.inner.lock().expect("mailbox poisoned");
            mb.cond.notify_all();
        }
        self.barrier.wake_all();
    }
}

/// A rank's handle to the universe: its identity plus messaging operations.
///
/// `Comm` is intentionally `!Clone`: one handle per rank, like `MPI_COMM_WORLD`
/// seen from one process.
pub struct Comm {
    rank: usize,
    size: usize,
    shared: Arc<Shared>,
    /// Per-rank counter allotting unique tags to successive collective calls.
    /// All ranks execute collectives in the same order (an MPI requirement we
    /// inherit), so counters stay in lockstep.
    pub(crate) collective_seq: AtomicU64,
}

/// Tag bit reserved for internal collective traffic; user tags must stay below.
pub(crate) const COLLECTIVE_TAG_BASE: u64 = 1 << 62;

impl Comm {
    /// This rank's id in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the universe.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Buffered, non-blocking send of `value` to `dest` with a user `tag`.
    pub(crate) fn send<T: Payload>(&self, dest: usize, tag: u64, value: T) {
        assert!(dest < self.size, "send to rank {dest} of {}", self.size);
        assert!(tag < COLLECTIVE_TAG_BASE, "user tags must be < 2^62");
        self.send_internal(dest, tag, value);
    }

    pub(crate) fn send_internal<T: Payload>(&self, dest: usize, tag: u64, value: T) {
        let bytes = value.byte_len();
        self.shared.traffic.record(self.rank, dest, bytes);
        if tag < COLLECTIVE_TAG_BASE {
            // Collectives allot fresh tags by construction; only user tags
            // feed the reuse audit.
            self.shared.traffic.record_tag(self.rank, dest, tag);
        }
        // Trace the post *before* the mailbox push: the push's lock release
        // happens-before the matching receive's wakeup, so a traced receive
        // can never complete with an earlier timestamp than its send — the
        // ordering the cross-rank stitcher's happens-before DAG relies on.
        trace::note_send(dest, tag, bytes as u64);
        self.shared.mailboxes[dest].push((self.rank, tag), Box::new(value), &self.shared.ctrl);
    }

    /// Blocking receive of a `T` from `source` with matching `tag`.
    ///
    /// # Panics
    /// Panics if the arriving message is not a `T` — a type mismatch is a
    /// program bug, exactly like datatype mismatch in MPI.
    pub(crate) fn recv<T: Payload>(&self, source: usize, tag: u64) -> T {
        assert!(source < self.size);
        assert!(tag < COLLECTIVE_TAG_BASE, "user tags must be < 2^62");
        self.recv_internal(source, tag)
    }

    pub(crate) fn recv_internal<T: Payload>(&self, source: usize, tag: u64) -> T {
        let trace_t0 = trace::interval_start();
        let any = match self.shared.mailboxes[self.rank].pop_blocking(
            (source, tag),
            &self.shared.ctrl,
            self.rank,
        ) {
            Ok(msg) => msg,
            Err(Aborted) => std::panic::panic_any(Aborted),
        };
        let value = *any.downcast::<T>().unwrap_or_else(|_| {
            panic!(
                "rank {}: type mismatch receiving tag {tag} from rank {source}",
                self.rank
            )
        });
        if let Some(t0) = trace_t0 {
            trace::note_recv(t0, source, tag, value.byte_len() as u64);
        }
        value
    }

    /// Combined send-to-one / receive-from-another: the one point-to-point
    /// call outside a [`crate::CommPlan`], kept for the benchmark's
    /// `mpisim.sendrecv` latency probe. Safe against deadlock because sends
    /// never block.
    pub fn sendrecv<T: Payload>(
        &self,
        dest: usize,
        send_tag: u64,
        value: T,
        source: usize,
        recv_tag: u64,
    ) -> T {
        self.send(dest, send_tag, value);
        self.recv(source, recv_tag)
    }

    /// Synchronise all ranks.
    pub fn barrier(&self) {
        let trace_t0 = trace::interval_start();
        if self
            .shared
            .barrier
            .wait(&self.shared.ctrl, self.rank)
            .is_err()
        {
            std::panic::panic_any(Aborted);
        }
        if let Some(t0) = trace_t0 {
            trace::note_barrier(t0);
        }
    }

    /// Snapshot of the universe's traffic counters (shared by all ranks).
    pub fn traffic(&self) -> &Traffic {
        &self.shared.traffic
    }

    /// Record a request this rank's program posted and never waited on, for
    /// [`SimOptions::verify_leaks`].
    pub(crate) fn record_request_leak(&self, kind: RequestKind, peer: usize, tag: u64) {
        self.shared.ctrl.record_request_leak(RequestLeak {
            rank: self.rank,
            kind,
            peer,
            tag,
        });
    }
}

/// Factory for SPMD runs.
pub struct Universe;

/// Outcome of one rank in a checked run.
enum RankOutcome<R> {
    Ok(R),
    /// Original panic payload, re-raised by the plain entry points.
    Panicked(Box<dyn Any + Send>),
    /// Unwound by the abort path; the real error is recorded elsewhere.
    Aborted,
}

impl Universe {
    /// Run `f` on `n` ranks (threads); returns each rank's result, indexed by
    /// rank, plus the accumulated traffic statistics.
    pub fn run_with_traffic<R, F>(n: usize, f: F) -> (Vec<R>, Traffic)
    where
        R: Send,
        F: Fn(&Comm) -> R + Send + Sync,
    {
        match Self::run_inner(n, &SimOptions::default(), &f) {
            Ok(out) => out,
            Err(RunFailure::Panic { payload, .. }) => std::panic::resume_unwind(payload),
            // Watchdog and leak checks are off in the default options.
            Err(other) => unreachable!("unchecked run produced {:?}", other.kind()),
        }
    }

    /// Run `f` on `n` ranks, discarding traffic statistics.
    pub fn run<R, F>(n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Comm) -> R + Send + Sync,
    {
        Self::run_with_traffic(n, f).0
    }

    /// Run `f` on `n` ranks under verification `opts`, reporting deadlocks,
    /// message leaks and rank panics as errors instead of hanging or
    /// propagating.
    pub fn run_checked<R, F>(
        n: usize,
        opts: SimOptions,
        f: F,
    ) -> Result<(Vec<R>, Traffic), SimError>
    where
        R: Send,
        F: Fn(&Comm) -> R + Send + Sync,
    {
        Self::run_inner(n, &opts, &f).map_err(|failure| match failure {
            RunFailure::Deadlock { blocked } => SimError::Deadlock { blocked },
            RunFailure::Leak { leaks } => SimError::Leak { leaks },
            RunFailure::RequestLeak { leaks } => SimError::RequestLeak { leaks },
            RunFailure::Panic { rank, payload } => SimError::RankPanic {
                rank,
                message: panic_message(payload.as_ref()),
            },
        })
    }

    fn run_inner<R, F>(n: usize, opts: &SimOptions, f: &F) -> Result<(Vec<R>, Traffic), RunFailure>
    where
        R: Send,
        F: Fn(&Comm) -> R + Send + Sync,
    {
        assert!(n >= 1);
        let shared = Arc::new(Shared {
            mailboxes: (0..n).map(|_| Mailbox::default()).collect(),
            traffic: Traffic::new(n),
            barrier: SimBarrier::new(n),
            ctrl: Control::new(n, opts),
        });
        let deadlock: Mutex<Option<Vec<BlockedOp>>> = Mutex::new(None);
        let mut outcomes: Vec<RankOutcome<R>> = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for rank in 0..n {
                let shared = Arc::clone(&shared);
                handles.push(scope.spawn(move || {
                    let comm = Comm {
                        rank,
                        size: n,
                        shared: Arc::clone(&shared),
                        collective_seq: AtomicU64::new(0),
                    };
                    let result =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&comm)));
                    shared.ctrl.finished.fetch_add(1, Ordering::SeqCst);
                    match result {
                        Ok(r) => RankOutcome::Ok(r),
                        Err(payload) if payload.is::<Aborted>() => RankOutcome::Aborted,
                        Err(payload) => {
                            // Unblock peers waiting on this rank so teardown
                            // can join them; in unchecked mode the abort
                            // unwinds them with `Aborted`, which is swallowed
                            // and superseded by this panic.
                            shared.abort();
                            RankOutcome::Panicked(payload)
                        }
                    }
                }));
            }

            if let Some(timeout) = opts.deadlock_timeout {
                Self::watchdog(&shared, n, timeout, &deadlock);
            }
            outcomes = handles
                .into_iter()
                .map(|h| h.join().expect("rank thread itself never panics"))
                .collect();
        });

        // A real panic outranks the secondary Aborted unwinds it caused.
        let mut results: Vec<Option<R>> = Vec::with_capacity(n);
        let mut panic: Option<(usize, Box<dyn Any + Send>)> = None;
        for (rank, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                RankOutcome::Ok(r) => results.push(Some(r)),
                RankOutcome::Aborted => results.push(None),
                RankOutcome::Panicked(payload) => {
                    results.push(None);
                    if panic.is_none() {
                        panic = Some((rank, payload));
                    }
                }
            }
        }
        if let Some((rank, payload)) = panic {
            return Err(RunFailure::Panic { rank, payload });
        }
        if let Some(blocked) = deadlock.lock().expect("deadlock slot poisoned").take() {
            return Err(RunFailure::Deadlock { blocked });
        }
        if opts.verify_leaks {
            // Request leaks first: they name the culprit rank and side, which
            // is more actionable than the stranded-message view of the same
            // bug.
            let mut request_leaks = shared
                .ctrl
                .request_leaks
                .lock()
                .expect("request-leak slot poisoned")
                .clone();
            if !request_leaks.is_empty() {
                request_leaks.sort_by_key(|l| (l.rank, l.peer, l.tag));
                return Err(RunFailure::RequestLeak {
                    leaks: request_leaks,
                });
            }
            let leaks: Vec<LeakRecord> = shared
                .mailboxes
                .iter()
                .enumerate()
                .flat_map(|(dest, mb)| mb.leaks(dest))
                .collect();
            if !leaks.is_empty() {
                return Err(RunFailure::Leak { leaks });
            }
        }

        let traffic = shared.traffic.clone_snapshot();
        let results = results
            .into_iter()
            .map(|r| r.expect("non-Ok outcomes were returned as errors above"))
            .collect();
        Ok((results, traffic))
    }

    /// Monitor progress; when it stalls for `timeout` with every unfinished
    /// rank blocked, record the blocked set and abort the universe. Runs on
    /// the supervising thread (rank threads are already spawned).
    fn watchdog(
        shared: &Shared,
        n: usize,
        timeout: Duration,
        slot: &Mutex<Option<Vec<BlockedOp>>>,
    ) {
        let poll = Duration::from_millis(2)
            .min(timeout / 4)
            .max(Duration::from_millis(1));
        let mut last_progress = shared.ctrl.progress.load(Ordering::Relaxed);
        let mut stall_since = Instant::now();
        loop {
            std::thread::sleep(poll);
            if shared.ctrl.finished.load(Ordering::SeqCst) == n
                || shared.ctrl.aborted.load(Ordering::SeqCst)
            {
                return;
            }
            let progress = shared.ctrl.progress.load(Ordering::Relaxed);
            if progress != last_progress {
                last_progress = progress;
                stall_since = Instant::now();
                continue;
            }
            if stall_since.elapsed() < timeout {
                continue;
            }
            // Progress has stalled. It is a deadlock only if every rank that
            // has not finished is parked in a blocking operation.
            let finished = shared.ctrl.finished.load(Ordering::SeqCst);
            let blocked: Vec<BlockedOp> = shared
                .ctrl
                .blocked
                .iter()
                .enumerate()
                .filter_map(|(rank, b)| {
                    b.lock()
                        .expect("blocked slot poisoned")
                        .map(|kind| BlockedOp { rank, kind })
                })
                .collect();
            if blocked.len() + finished < n {
                // Some rank is computing (long kernel) — not a deadlock.
                stall_since = Instant::now();
                continue;
            }
            *slot.lock().expect("deadlock slot poisoned") = Some(blocked);
            shared.abort();
            return;
        }
    }
}

/// Internal failure carrying the raw panic payload (so the plain entry
/// points can re-raise it unchanged).
enum RunFailure {
    Deadlock {
        blocked: Vec<BlockedOp>,
    },
    Leak {
        leaks: Vec<LeakRecord>,
    },
    RequestLeak {
        leaks: Vec<RequestLeak>,
    },
    Panic {
        rank: usize,
        payload: Box<dyn Any + Send>,
    },
}

impl RunFailure {
    fn kind(&self) -> &'static str {
        match self {
            RunFailure::Deadlock { .. } => "deadlock",
            RunFailure::Leak { .. } => "leak",
            RunFailure::RequestLeak { .. } => "request leak",
            RunFailure::Panic { .. } => "panic",
        }
    }
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

impl Comm {
    pub(crate) fn next_collective_tag(&self) -> u64 {
        COLLECTIVE_TAG_BASE + self.collective_seq.fetch_add(1, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::tests::{posted_ring, split_phase, Value};
    use crate::CommPlan;

    // Polling, which only tests use: the `MPI_Iprobe`-style `try_recv`
    // builds `sched`'s order-dependent program.
    impl Mailbox {
        fn try_pop(&self, key: Key, ctrl: &Control) -> Option<Box<dyn Any + Send>> {
            let mut inner = self.inner.lock().expect("mailbox poisoned");
            Self::deliver_ready(&mut inner, ctrl.epoch.load(Ordering::Relaxed));
            let msg = inner.queues.get_mut(&key).and_then(|q| q.pop_front());
            if msg.is_some() {
                ctrl.progress.fetch_add(1, Ordering::Relaxed);
            } else if ctrl.schedule_seed.is_some() {
                // A failed probe advances the schedule clock: a polling loop
                // must eventually see a schedule-held message, just as
                // blocked waits bump the epoch over time.
                ctrl.epoch.fetch_add(1, Ordering::Relaxed);
            }
            msg
        }
    }

    impl Comm {
        /// Non-blocking receive: `Some(value)` if a matching message has already
        /// been delivered, `None` otherwise — the `MPI_Iprobe`+recv motif.
        /// Programs whose *results* depend on `try_recv` timing are
        /// order-dependent; the schedule-exploration harness ([`crate::sched`])
        /// exists to flag exactly that.
        pub(crate) fn try_recv<T: Payload>(&self, source: usize, tag: u64) -> Option<T> {
            assert!(source < self.size);
            assert!(tag < COLLECTIVE_TAG_BASE, "user tags must be < 2^62");
            let trace_t0 = trace::interval_start();
            let any = self.shared.mailboxes[self.rank].try_pop((source, tag), &self.shared.ctrl)?;
            let value = *any.downcast::<T>().unwrap_or_else(|_| {
                panic!(
                    "rank {}: type mismatch receiving tag {tag} from rank {source}",
                    self.rank
                )
            });
            // Only a successful poll becomes a receive edge; an empty poll is
            // not a wait and would pollute the timeline.
            if let Some(t0) = trace_t0 {
                trace::note_recv(t0, source, tag, value.byte_len() as u64);
            }
            Some(value)
        }
    }

    #[test]
    fn ranks_see_their_ids() {
        let out = Universe::run(4, |c| (c.rank(), c.size()));
        for (i, (r, s)) in out.iter().enumerate() {
            assert_eq!(*r, i);
            assert_eq!(*s, 4);
        }
    }

    #[test]
    fn ring_pass_accumulates() {
        // Each rank sends its id to the next; sums arrive intact.
        let out = Universe::run(5, |c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.send(next, 7, c.rank() as u64);
            c.recv::<u64>(prev, 7)
        });
        for (i, got) in out.iter().enumerate() {
            let prev = (i + 5 - 1) % 5;
            assert_eq!(*got, prev as u64);
        }
    }

    #[test]
    fn messages_are_order_preserving_per_pair() {
        let out = Universe::run(2, |c| {
            if c.rank() == 0 {
                for i in 0..100u64 {
                    c.send(1, 3, i);
                }
                Vec::new()
            } else {
                (0..100).map(|_| c.recv::<u64>(0, 3)).collect::<Vec<u64>>()
            }
        });
        assert_eq!(out[1], (0..100).collect::<Vec<u64>>());
    }

    #[test]
    fn tags_demultiplex() {
        let out = Universe::run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 1, 111u64);
                c.send(1, 2, 222u64);
                (0, 0)
            } else {
                // Receive in the opposite order of sending.
                let b = c.recv::<u64>(0, 2);
                let a = c.recv::<u64>(0, 1);
                (a, b)
            }
        });
        assert_eq!(out[1], (111, 222));
    }

    #[test]
    fn sendrecv_ring_rotates_vectors() {
        let out = Universe::run(3, |c| {
            let next = (c.rank() + 1) % 3;
            let prev = (c.rank() + 2) % 3;
            c.sendrecv(next, 9, vec![c.rank() as f64; 4], prev, 9)
        });
        assert_eq!(out[0], vec![2.0; 4]);
        assert_eq!(out[1], vec![0.0; 4]);
        assert_eq!(out[2], vec![1.0; 4]);
    }

    #[test]
    fn traffic_counts_bytes() {
        let (_, traffic) = Universe::run_with_traffic(2, |c| {
            if c.rank() == 0 {
                c.send(1, 0, vec![0f64; 100]);
            } else {
                let _: Vec<f64> = c.recv(0, 0);
            }
        });
        assert_eq!(traffic.bytes_between(0, 1), 800);
        assert_eq!(traffic.bytes_between(1, 0), 0);
        assert_eq!(traffic.messages_between(0, 1), 1);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn type_mismatch_panics() {
        Universe::run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 0, 1u64);
            } else {
                let _: f32 = c.recv(0, 0);
            }
        });
    }

    #[test]
    fn single_rank_universe_works() {
        let out = Universe::run(1, |c| {
            c.barrier();
            c.rank()
        });
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn checked_run_passes_clean_program() {
        let opts = SimOptions {
            verify_leaks: true,
            deadlock_timeout: Some(Duration::from_secs(2)),
            schedule_seed: None,
        };
        let (out, traffic) = Universe::run_checked(3, opts, |c| {
            let next = (c.rank() + 1) % 3;
            let prev = (c.rank() + 2) % 3;
            c.barrier();
            c.sendrecv(next, 4, c.rank() as u64, prev, 4)
        })
        .expect("clean exchange");
        assert_eq!(out, vec![2, 0, 1]);
        assert_eq!(traffic.messages_between(0, 1), 1);
    }

    #[test]
    fn recv_before_send_deadlock_is_caught_not_hung() {
        // Both ranks receive before sending — with addressed receives this
        // wedges forever; the watchdog must catch and report it.
        let opts = SimOptions {
            verify_leaks: false,
            deadlock_timeout: Some(Duration::from_millis(150)),
            schedule_seed: None,
        };
        let err = Universe::run_checked(2, opts, |c| {
            let other = 1 - c.rank();
            let got: u64 = c.recv(other, 1); // blocks: nobody has sent yet
            c.send(other, 1, got + 1);
            got
        })
        .expect_err("must deadlock");
        let SimError::Deadlock { blocked } = err else {
            panic!("expected deadlock, got {err}");
        };
        assert_eq!(blocked.len(), 2);
        for b in &blocked {
            assert!(matches!(b.kind, BlockKind::Recv { tag: 1, .. }), "{b:?}");
        }
    }

    #[test]
    fn unreceived_message_fails_teardown_in_verify_mode() {
        let opts = SimOptions {
            verify_leaks: true,
            ..SimOptions::default()
        };
        let err = Universe::run_checked(2, opts, |c| {
            if c.rank() == 0 {
                c.send(1, 9, 42u64); // nobody ever receives this
            }
            c.rank()
        })
        .expect_err("leak must fail teardown");
        let SimError::Leak { leaks } = err else {
            panic!("expected leak, got {err}");
        };
        assert_eq!(leaks.len(), 1);
        assert_eq!(
            leaks[0],
            LeakRecord {
                dest: 1,
                source: 0,
                tag: 9,
                count: 1
            }
        );
    }

    #[test]
    fn leaks_ignored_without_verify_mode() {
        let (out, _) = Universe::run_checked(2, SimOptions::default(), |c| {
            if c.rank() == 0 {
                c.send(1, 9, 42u64);
            }
            c.rank()
        })
        .expect("verify off: leak tolerated");
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn checked_run_reports_rank_panics() {
        let err = Universe::run_checked(2, SimOptions::default(), |c| {
            if c.rank() == 1 {
                panic!("boom on rank 1");
            }
            c.rank()
        })
        .expect_err("panic must be reported");
        let SimError::RankPanic { rank, message } = err else {
            panic!("expected rank panic, got {err}");
        };
        assert_eq!(rank, 1);
        assert!(message.contains("boom"), "{message}");
    }

    #[test]
    fn panic_unblocks_peers_waiting_on_the_dead_rank() {
        // Rank 0 waits on a message rank 1 never sends because it panics;
        // the abort path must unwind rank 0 rather than hang the join.
        let err = Universe::run_checked(2, SimOptions::default(), |c| {
            if c.rank() == 1 {
                panic!("early death");
            }
            c.recv::<u64>(1, 5)
        })
        .expect_err("panic reported");
        assert!(matches!(err, SimError::RankPanic { rank: 1, .. }), "{err}");
    }

    #[test]
    fn schedule_delays_preserve_per_key_order() {
        for seed in 0..6 {
            let opts = SimOptions::checked(seed, Duration::from_secs(2));
            let (out, _) = Universe::run_checked(2, opts, |c| {
                if c.rank() == 0 {
                    for i in 0..40u64 {
                        c.send(1, 3, i);
                    }
                    Vec::new()
                } else {
                    (0..40).map(|_| c.recv::<u64>(0, 3)).collect::<Vec<u64>>()
                }
            })
            .expect("ordered stream");
            assert_eq!(out[1], (0..40).collect::<Vec<u64>>(), "seed {seed}");
        }
    }

    #[test]
    fn split_phase_ring_overlaps_compute() {
        // Post the exchange, "compute" while in flight, then wait.
        let plan = posted_ring(4, 11);
        let out = Universe::run(4, |c| {
            let mut value = Value(c.rank() as u64, None);
            let posted = split_phase(c).post(&plan, 0, &mut value);
            let local: u64 = (0..100).sum(); // interior work while in flight
            assert_eq!(local, 4950);
            posted.finish(&mut value);
            value.1
        });
        for (i, got) in out.iter().enumerate() {
            assert_eq!(*got, Some(((i + 3) % 4) as u64));
        }
    }

    /// Rank 0 sends rank 1 one `u64` under `tag`, posted.
    fn posted_send(tag: u64) -> CommPlan {
        let mut plan = CommPlan::new("send", 2);
        plan.send(0, 1, tag, 8).recv(1, 0, tag, 8);
        plan.posted()
    }

    #[test]
    fn send_test_is_immediately_complete() {
        // Buffered sends complete locally: rank 0 finishes its posted send
        // before rank 1 has posted the receive.
        let plan = posted_send(4);
        Universe::run(2, |c| {
            let mut value = Value(1, None);
            if c.rank() == 0 {
                c.run_plan(&plan, 0, &mut value);
                c.barrier();
            } else {
                c.barrier();
                c.run_plan(&plan, 0, &mut value);
                assert_eq!(value.1, Some(1));
            }
        });
    }

    #[test]
    fn dropped_send_wait_is_caught() {
        let opts = SimOptions {
            verify_leaks: true,
            ..SimOptions::default()
        };
        let plan = posted_send(6);
        let err = Universe::run_checked(2, opts, |c| {
            let mut value = Value(5, None);
            if c.rank() == 0 {
                let _ = split_phase(c).post(&plan, 0, &mut value); // never finished
            } else {
                c.run_plan(&plan, 0, &mut value);
            }
        })
        .expect_err("dropped wait must fail teardown");
        let SimError::RequestLeak { leaks } = err else {
            panic!("expected request leak, got {err}");
        };
        assert_eq!(
            leaks,
            vec![RequestLeak {
                rank: 0,
                kind: RequestKind::Send,
                peer: 1,
                tag: 6
            }]
        );
    }

    #[test]
    fn dropped_recv_wait_is_caught() {
        let opts = SimOptions {
            verify_leaks: true,
            ..SimOptions::default()
        };
        let plan = posted_send(8);
        let err = Universe::run_checked(2, opts, |c| {
            let mut value = Value(5, None);
            if c.rank() == 0 {
                c.run_plan(&plan, 0, &mut value);
            } else {
                let _ = split_phase(c).post(&plan, 0, &mut value); // never finished
            }
        })
        .expect_err("dropped irecv must fail teardown");
        let SimError::RequestLeak { leaks } = err else {
            panic!("expected request leak, got {err}");
        };
        assert_eq!(
            leaks,
            vec![RequestLeak {
                rank: 1,
                kind: RequestKind::Recv,
                peer: 0,
                tag: 8
            }]
        );
    }

    #[test]
    fn completed_requests_pass_leak_check() {
        let opts = SimOptions {
            verify_leaks: true,
            deadlock_timeout: Some(Duration::from_secs(2)),
            schedule_seed: None,
        };
        let plan = posted_ring(3, 1);
        let (out, _) = Universe::run_checked(3, opts, |c| {
            let mut value = Value(c.rank() as u64, None);
            c.run_plan(&plan, 0, &mut value);
            value.1
        })
        .expect("clean split-phase exchange");
        assert_eq!(out, vec![Some(2), Some(0), Some(1)]);
    }

    #[test]
    fn split_phase_survives_schedule_perturbation() {
        let plan = posted_ring(4, 0);
        for seed in 0..6 {
            let opts = SimOptions::checked(seed, Duration::from_secs(2));
            let (out, _) = Universe::run_checked(4, opts, |c| {
                let mut got = Vec::new();
                for round in 0..5u64 {
                    let mut value = Value(c.rank() as u64 * 100 + round, None);
                    c.run_plan(&plan, 20 + round, &mut value);
                    got.extend(value.1);
                }
                got
            })
            .expect("split-phase under perturbed delivery");
            for (rank, got) in out.iter().enumerate() {
                let prev = (rank + 3) % 4;
                let want: Vec<u64> = (0..5).map(|r| prev as u64 * 100 + r).collect();
                assert_eq!(*got, want, "seed {seed}, rank {rank}");
            }
        }
    }

    #[test]
    fn schedule_mode_runs_collectives_correctly() {
        for seed in [1u64, 17, 99] {
            let opts = SimOptions::checked(seed, Duration::from_secs(5));
            let (out, _) = Universe::run_checked(4, opts, |c| {
                let s = c.allreduce_sum(c.rank() as f64 + 1.0);
                let g = c.allgather(c.rank() as u64);
                (s, g)
            })
            .expect("collectives under perturbed delivery");
            for (s, g) in out {
                assert_eq!(s, 10.0);
                assert_eq!(g, vec![0, 1, 2, 3]);
            }
        }
    }
}
