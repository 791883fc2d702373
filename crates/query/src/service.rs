//! The async request/response front of the query service.
//!
//! No external runtime: a [`Ticket`] is a plain poll-based
//! [`std::future::Future`], and [`block_on`] is a thread-parking executor
//! for callers without one. Submissions land in a queue; a single worker
//! thread drains it in arrival order, **batches up to `batch_max` requests
//! per round** (one fan-out round trip amortized over the whole batch on
//! the distributed backend), executes the batch on the backend and wakes
//! the tickets.
//!
//! Observability: the worker wraps its idle wait in a `query.wait` span and
//! each batch in a `query.exec` span (block decodes inside the backend emit
//! `query.decode`), and records three histogram families into the service
//! [`Registry`] — `query/wait_us`, `query/exec_us/<family>` and end-to-end
//! `query/latency_us/<family>` — which [`QueryService::latency_report`]
//! reduces to p50/p99 via `HistogramSnapshot::quantile`.

use crate::dist::QueryBackend;
use crate::request::{QueryError, Request, Response};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};
use std::thread;
use std::time::Instant;
use vlasov6d_obs::{span, Bucket, Registry};

/// Tunables of one service instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryConfig {
    /// Largest batch the worker drains per execution round.
    pub batch_max: usize,
    /// Decode-cache budget per shard, in bytes.
    pub cache_bytes: usize,
}

impl Default for QueryConfig {
    fn default() -> QueryConfig {
        QueryConfig {
            batch_max: 8,
            cache_bytes: 64 << 20,
        }
    }
}

struct TicketInner {
    result: Option<Result<Response, QueryError>>,
    waker: Option<Waker>,
}

struct TicketState {
    inner: Mutex<TicketInner>,
    cv: Condvar,
}

impl TicketState {
    fn fulfill(&self, result: Result<Response, QueryError>) {
        let mut inner = self.inner.lock().unwrap();
        inner.result = Some(result);
        if let Some(w) = inner.waker.take() {
            w.wake();
        }
        self.cv.notify_all();
    }
}

/// A pending reply: a [`Future`] resolving to the response, or a blocking
/// handle via [`Ticket::wait`].
pub struct Ticket {
    state: Arc<TicketState>,
}

impl Ticket {
    /// Block the calling thread until the reply lands.
    pub fn wait(self) -> Result<Response, QueryError> {
        let mut inner = self.state.inner.lock().unwrap();
        loop {
            if let Some(r) = inner.result.take() {
                return r;
            }
            inner = self.state.cv.wait(inner).unwrap();
        }
    }
}

impl Future for Ticket {
    type Output = Result<Response, QueryError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut inner = self.state.inner.lock().unwrap();
        match inner.result.take() {
            Some(r) => Poll::Ready(r),
            None => {
                inner.waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

struct QueueState {
    pending: VecDeque<(Request, Arc<TicketState>, Instant)>,
    closed: bool,
}

struct ServiceShared {
    queue: Mutex<QueueState>,
    cv: Condvar,
    registry: Registry,
}

/// The service: submit [`Request`]s, receive [`Ticket`]s. Generic over
/// the worker's join handle so the same machinery runs on an owned thread
/// ([`QueryService::start`], `'static` backends) or a scoped one
/// ([`ScopedQueryService::start_scoped`], backends borrowing e.g. a
/// `&Comm`).
pub struct QueryServiceCore<H: JoinWorker> {
    shared: Arc<ServiceShared>,
    worker: Option<H>,
}

/// Service on an owned worker thread.
pub type QueryService = QueryServiceCore<thread::JoinHandle<()>>;

/// Service on a scoped worker thread (backend may borrow from the scope).
pub type ScopedQueryService<'scope> = QueryServiceCore<thread::ScopedJoinHandle<'scope, ()>>;

/// Abstraction over the two join-handle flavours.
pub trait JoinWorker {
    fn join_worker(self);
}

impl JoinWorker for thread::JoinHandle<()> {
    fn join_worker(self) {
        let _ = self.join();
    }
}

impl JoinWorker for thread::ScopedJoinHandle<'_, ()> {
    fn join_worker(self) {
        let _ = self.join();
    }
}

fn new_shared() -> Arc<ServiceShared> {
    Arc::new(ServiceShared {
        queue: Mutex::new(QueueState {
            pending: VecDeque::new(),
            closed: false,
        }),
        cv: Condvar::new(),
        registry: Registry::new(),
    })
}

/// The worker loop: drain arrival-ordered batches of up to `batch_max`
/// onto the backend until closed and empty.
fn run_worker<B: QueryBackend>(shared: &ServiceShared, mut backend: B, batch_max: usize) {
    loop {
        let mut batch = Vec::with_capacity(batch_max);
        {
            let mut q = shared.queue.lock().unwrap();
            while q.pending.is_empty() && !q.closed {
                let _g = span!("query.wait", Bucket::Other);
                let waited = Instant::now();
                q = shared.cv.wait(q).unwrap();
                shared
                    .registry
                    .histogram("query/wait_us")
                    .record(waited.elapsed().as_micros() as u64);
            }
            if q.pending.is_empty() {
                return; // closed and drained
            }
            while batch.len() < batch_max {
                match q.pending.pop_front() {
                    Some(item) => batch.push(item),
                    None => break,
                }
            }
        }
        let requests: Vec<Request> = batch.iter().map(|(r, _, _)| r.clone()).collect();
        let exec_started = Instant::now();
        let results = {
            let _g = span!("query.exec", Bucket::Other);
            backend.execute(&requests)
        };
        let exec_us = exec_started.elapsed().as_micros() as u64;
        debug_assert_eq!(results.len(), requests.len());
        for ((req, ticket, submitted), result) in batch.into_iter().zip(results) {
            let fam = req.family();
            shared
                .registry
                .histogram(&format!("query/exec_us/{fam}"))
                .record(exec_us);
            shared
                .registry
                .histogram(&format!("query/latency_us/{fam}"))
                .record(submitted.elapsed().as_micros() as u64);
            ticket.fulfill(result);
        }
    }
}

impl QueryService {
    /// Start a service draining onto `backend` on a dedicated worker
    /// thread.
    pub fn start<B: QueryBackend + Send + 'static>(
        backend: B,
        config: QueryConfig,
    ) -> QueryService {
        let shared = new_shared();
        let worker_shared = Arc::clone(&shared);
        let batch_max = config.batch_max.max(1);
        let worker = thread::spawn(move || run_worker(&worker_shared, backend, batch_max));
        QueryServiceCore {
            shared,
            worker: Some(worker),
        }
    }
}

impl<'scope> ScopedQueryService<'scope> {
    /// Start the worker inside a [`std::thread::scope`], so the backend may
    /// borrow anything outliving the scope (a `&Comm`, a `&CheckpointStore`).
    /// Call [`QueryServiceCore::shutdown`] (or drop the service) before the
    /// scope closes — the scope's implicit join would otherwise deadlock
    /// waiting on a worker that is itself waiting for requests.
    pub fn start_scoped<'env, B: QueryBackend + Send + 'scope>(
        scope: &'scope thread::Scope<'scope, 'env>,
        backend: B,
        config: QueryConfig,
    ) -> ScopedQueryService<'scope> {
        let shared = new_shared();
        let worker_shared = Arc::clone(&shared);
        let batch_max = config.batch_max.max(1);
        let worker = scope.spawn(move || run_worker(&worker_shared, backend, batch_max));
        QueryServiceCore {
            shared,
            worker: Some(worker),
        }
    }
}

impl<H: JoinWorker> QueryServiceCore<H> {
    /// Enqueue a request; the ticket resolves when its batch executes.
    pub fn submit(&self, req: Request) -> Ticket {
        let state = Arc::new(TicketState {
            inner: Mutex::new(TicketInner {
                result: None,
                waker: None,
            }),
            cv: Condvar::new(),
        });
        {
            let mut q = self.shared.queue.lock().unwrap();
            if q.closed {
                state.fulfill(Err(QueryError::ServiceClosed));
            } else {
                q.pending
                    .push_back((req, Arc::clone(&state), Instant::now()));
            }
        }
        self.shared.cv.notify_one();
        Ticket { state }
    }

    /// The service's metric registry (latency/wait/exec histograms).
    pub fn registry(&self) -> &Registry {
        &self.shared.registry
    }

    /// Per-family `(family, count, p50_us, p99_us)` from the end-to-end
    /// latency histograms, upper-bound convention (see
    /// `HistogramSnapshot::quantile`).
    pub fn latency_report(&self) -> Vec<(String, u64, u64, u64)> {
        let mut rows = Vec::new();
        for family in ["region", "skymap", "backtrack"] {
            let snap = self
                .shared
                .registry
                .histogram(&format!("query/latency_us/{family}"))
                .snapshot();
            if snap.count > 0 {
                rows.push((
                    family.to_string(),
                    snap.count,
                    snap.quantile(0.50),
                    snap.quantile(0.99),
                ));
            }
        }
        rows
    }

    /// Stop accepting requests, drain the queue, and join the worker.
    pub fn shutdown(mut self) {
        self.close_and_join();
    }

    fn close_and_join(&mut self) {
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.closed = true;
        }
        self.shared.cv.notify_all();
        if let Some(w) = self.worker.take() {
            w.join_worker();
        }
    }
}

impl<H: JoinWorker> Drop for QueryServiceCore<H> {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

// ---------------------------------------------------------------------------
// block_on
// ---------------------------------------------------------------------------

struct ParkSignal {
    unparked: AtomicBool,
    thread: thread::Thread,
}

fn park_waker(signal: Arc<ParkSignal>) -> Waker {
    /// Bump the strong count and return an identical raw waker.
    ///
    /// # Safety
    /// `data` must come from `Arc::<ParkSignal>::into_raw` and still own
    /// one strong count.
    unsafe fn clone(data: *const ()) -> RawWaker {
        // SAFETY: per the contract `data` is a live `Arc<ParkSignal>`
        // pointer; the `forget` below hands its count back untouched.
        let arc = unsafe { Arc::from_raw(data as *const ParkSignal) };
        let cloned = Arc::clone(&arc);
        std::mem::forget(arc);
        RawWaker::new(Arc::into_raw(cloned) as *const (), &VTABLE)
    }
    /// Wake, consuming the strong count this waker holds.
    ///
    /// # Safety
    /// As `clone`; the count is released, so `data` is dead afterwards.
    unsafe fn wake(data: *const ()) {
        // SAFETY: per the contract; dropping `arc` consumes the waker's
        // count exactly once.
        let arc = unsafe { Arc::from_raw(data as *const ParkSignal) };
        arc.unparked.store(true, Ordering::SeqCst);
        arc.thread.unpark();
    }
    /// Wake, borrowing the strong count without consuming it.
    ///
    /// # Safety
    /// As `clone`.
    unsafe fn wake_by_ref(data: *const ()) {
        // SAFETY: per the contract; the `forget` below leaves the count as
        // it was.
        let arc = unsafe { Arc::from_raw(data as *const ParkSignal) };
        arc.unparked.store(true, Ordering::SeqCst);
        arc.thread.unpark();
        std::mem::forget(arc);
    }
    /// Release the strong count held by this waker.
    ///
    /// # Safety
    /// As `wake`.
    unsafe fn drop_waker(data: *const ()) {
        // SAFETY: per the contract; the count is dropped exactly once.
        drop(unsafe { Arc::from_raw(data as *const ParkSignal) });
    }
    static VTABLE: RawWakerVTable = RawWakerVTable::new(clone, wake, wake_by_ref, drop_waker);
    let raw = RawWaker::new(Arc::into_raw(signal) as *const (), &VTABLE);
    // SAFETY: the vtable functions above uphold the RawWaker contract for a
    // leaked-Arc data pointer.
    unsafe { Waker::from_raw(raw) }
}

/// Drive a future to completion by parking the current thread between
/// polls — the minimal executor the service API needs.
pub fn block_on<F: Future>(future: F) -> F::Output {
    let mut future = std::pin::pin!(future);
    let signal = Arc::new(ParkSignal {
        unparked: AtomicBool::new(false),
        thread: thread::current(),
    });
    let waker = park_waker(Arc::clone(&signal));
    let mut cx = Context::from_waker(&waker);
    loop {
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(out) => return out,
            Poll::Pending => {
                while !signal.unparked.swap(false, Ordering::SeqCst) {
                    thread::park();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RegionMomentsReply;

    /// Backend that answers every request with a canned reply and records
    /// the batch sizes it saw.
    struct EchoBackend {
        batches: Arc<Mutex<Vec<usize>>>,
        delay: std::time::Duration,
    }

    impl QueryBackend for EchoBackend {
        fn execute(&mut self, batch: &[Request]) -> Vec<Result<Response, QueryError>> {
            self.batches.lock().unwrap().push(batch.len());
            thread::sleep(self.delay);
            batch
                .iter()
                .map(|req| match req {
                    Request::RegionMoments { lo, .. } => {
                        Ok(Response::RegionMoments(RegionMomentsReply {
                            cells: lo[0] as u64,
                            mean_density: 1.0,
                            bulk_velocity: [0.0; 3],
                            dispersion: 0.0,
                        }))
                    }
                    _ => Err(QueryError::BadRequest("echo only does regions".into())),
                })
                .collect()
        }
    }

    fn region(i: usize) -> Request {
        Request::RegionMoments {
            lo: [i, 0, 0],
            hi: [i + 1, 1, 1],
        }
    }

    #[test]
    fn tickets_resolve_as_futures_and_blocking() {
        let batches = Arc::new(Mutex::new(Vec::new()));
        let service = QueryService::start(
            EchoBackend {
                batches: Arc::clone(&batches),
                delay: std::time::Duration::ZERO,
            },
            QueryConfig::default(),
        );
        let a = service.submit(region(3));
        let b = service.submit(region(5));
        let ra = block_on(a).expect("a");
        let rb = b.wait().expect("b");
        let (Response::RegionMoments(ra), Response::RegionMoments(rb)) = (ra, rb) else {
            panic!("wrong reply family");
        };
        assert_eq!(ra.cells, 3);
        assert_eq!(rb.cells, 5);
        service.shutdown();
    }

    #[test]
    fn queued_requests_are_batched() {
        let batches = Arc::new(Mutex::new(Vec::new()));
        // A slow first batch lets the queue build up behind it.
        let service = QueryService::start(
            EchoBackend {
                batches: Arc::clone(&batches),
                delay: std::time::Duration::from_millis(30),
            },
            QueryConfig {
                batch_max: 4,
                ..QueryConfig::default()
            },
        );
        let tickets: Vec<Ticket> = (0..9).map(|i| service.submit(region(i))).collect();
        for t in tickets {
            t.wait().expect("reply");
        }
        let sizes = batches.lock().unwrap().clone();
        assert_eq!(sizes.iter().sum::<usize>(), 9);
        assert!(
            sizes.iter().any(|&s| s > 1),
            "queue built up behind the slow batch, so some batch must be > 1: {sizes:?}"
        );
        assert!(
            sizes.iter().all(|&s| s <= 4),
            "batch_max respected: {sizes:?}"
        );
        let report = service.latency_report();
        assert_eq!(report.len(), 1, "only the region family was exercised");
        let (ref fam, count, p50, p99) = report[0];
        assert_eq!(fam, "region");
        assert_eq!(count, 9);
        assert!(p50 >= 1 && p50 <= p99, "p50 {p50} vs p99 {p99}");
        service.shutdown();
    }

    #[test]
    fn submit_after_shutdown_fails_fast() {
        let batches = Arc::new(Mutex::new(Vec::new()));
        let service = QueryService::start(
            EchoBackend {
                batches,
                delay: std::time::Duration::ZERO,
            },
            QueryConfig::default(),
        );
        // Close via the internal path Drop uses, then submit.
        {
            let mut q = service.shared.queue.lock().unwrap();
            q.closed = true;
        }
        let err = service.submit(region(0)).wait().unwrap_err();
        assert_eq!(err, QueryError::ServiceClosed);
    }

    #[test]
    fn block_on_runs_a_ready_future() {
        assert_eq!(block_on(async { 41 + 1 }), 42);
    }
}
