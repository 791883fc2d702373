//! The worker pool behind the parallel adapters.
//!
//! Every thread that opens a parallel region owns a *crew*: `threads - 1`
//! worker threads, started on its first region, parked between regions, and
//! restarted only when [`current_num_threads`] changes. A region hands the
//! crew its worker closure, wakes it by bumping a generation counter, runs as
//! worker 0 itself and returns only once every crew worker has finished.
//! Work is divided into contiguous task chunks ([`chunk_ranges`]) which
//! workers claim dynamically off a shared atomic counter — self-scheduling,
//! so a slow chunk steals no time from the fast ones.
//!
//! The crew is thread-local, so simulated MPI rank threads each get their
//! own, and it is dropped (its workers joined) when the owning thread exits.
//! A region opened while the crew is busy — from a task of a crew region,
//! on the caller or on a crew worker — runs on the calling thread alone. A
//! panic in any worker is re-raised in the caller once the region has
//! drained, and the crew stays usable.
//!
//! Correctness note: the pool only ever hands each task index to exactly one
//! worker. Everything else — that distinct task indices touch disjoint
//! memory — is the *callers'* obligation, discharged statically by
//! racecheck (`crates/verify`) for every registered region in this workspace.
//!
//! The worker count resolves, in order: the [`with_num_threads`] /
//! [`with_config`] override, the `RAYON_NUM_THREADS` environment variable,
//! then `std::thread::available_parallelism()` (read once per process). A
//! seeded schedule permutation ([`with_schedule_seed`]) lets tests drive
//! chunks in shuffled claim orders to demonstrate schedule-independence
//! empirically.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{JoinHandle, Thread};

/// Worker-count override installed by [`with_config`]; 0 means "unset".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);
/// Schedule-permutation seed installed by [`with_config`]; 0 means "natural
/// claim order".
static SCHEDULE_SEED: AtomicU64 = AtomicU64::new(0);
/// Serializes [`with_config`] callers so concurrent tests don't fight over
/// the process-global override. Not re-entrant: nested `with_config` on one
/// thread deadlocks (no call site nests it).
static CONFIG_LOCK: Mutex<()> = Mutex::new(());

/// Upper bound on the tasks-per-chunk grain: keeps claim granularity fine
/// enough that late-arriving workers still find work on huge regions.
const MAX_GRAIN: usize = 4096;
/// Chunks per worker the grain targets; >1 so dynamic claiming can balance
/// uneven task costs.
const CHUNKS_PER_WORKER: usize = 8;
/// Polls a waiting crew worker (or a caller waiting on its crew) makes before
/// it parks. Only spent when the crew fits the hardware threads; measured on
/// `hybrid16` and `plasma_two_stream` pairs (EXPERIMENTS "A persistent crew").
const SPIN_POLLS: u32 = 20_000;

/// `std::thread::available_parallelism()`, read once: it parses cgroup files
/// on every call (≈ 26 µs on a 2-vCPU Linux container).
fn hardware_threads() -> usize {
    static HARDWARE: OnceLock<usize> = OnceLock::new();
    *HARDWARE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The number of worker threads a parallel region started now would use.
pub fn current_num_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::Acquire);
    if forced != 0 {
        return forced;
    }
    if let Ok(s) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    hardware_threads()
}

/// Run `f` with the worker count pinned to `threads` and/or the chunk claim
/// order permuted by `schedule_seed`. Process-global and mutex-serialized;
/// the previous configuration is restored even if `f` panics.
pub fn with_config<R>(
    threads: Option<usize>,
    schedule_seed: Option<u64>,
    f: impl FnOnce() -> R,
) -> R {
    if let Some(n) = threads {
        assert!(n >= 1, "worker count must be at least 1");
    }
    let _guard = CONFIG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    struct Restore {
        threads: usize,
        seed: u64,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.store(self.threads, Ordering::Release);
            SCHEDULE_SEED.store(self.seed, Ordering::Release);
        }
    }
    let _restore = Restore {
        threads: THREAD_OVERRIDE.swap(threads.unwrap_or(0), Ordering::AcqRel),
        seed: SCHEDULE_SEED.swap(schedule_seed.unwrap_or(0), Ordering::AcqRel),
    };
    f()
}

/// Pin the worker count to `n` for the duration of `f` (tests and benches).
pub fn with_num_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    with_config(Some(n), None, f)
}

/// Permute the chunk claim order by `seed` (non-zero) for the duration of
/// `f` — the schedule-exploration hook used by determinism tests.
pub fn with_schedule_seed<R>(seed: u64, f: impl FnOnce() -> R) -> R {
    assert!(
        seed != 0,
        "seed 0 means natural order; pick a non-zero seed"
    );
    with_config(None, Some(seed), f)
}

/// The contiguous task ranges a region of `len` tasks is divided into at
/// claim grain `grain`. This is the single source of truth for the pool's
/// work partition: the worker loop executes exactly these ranges, and
/// racecheck's `pool.chunk_claims` region re-enumerates them to prove they
/// tile `0..len` exactly (including the ragged tail).
pub fn chunk_ranges(len: usize, grain: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    assert!(grain >= 1);
    (0..len.div_ceil(grain)).map(move |c| c * grain..((c + 1) * grain).min(len))
}

/// splitmix64 step — the usual seed expander; good enough to shuffle chunks.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fisher–Yates permutation of `0..n` from `seed`.
fn permuted_order(n: usize, seed: u64) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Execute tasks `0..n_tasks` across the pool. Each worker calls `init`
/// once for its private scratch state (rayon's `for_each_init` contract —
/// state is never shared between workers) and then claims chunks until the
/// region is exhausted. Each task index is executed exactly once; effects
/// are visible to the caller when this returns (the crew has drained).
pub(crate) fn for_each_task<T>(
    n_tasks: usize,
    init: impl Fn() -> T + Sync,
    body: impl Fn(&mut T, usize) + Sync,
) {
    if n_tasks == 0 {
        return;
    }
    let crew_size = if IN_REGION.get() {
        1
    } else {
        current_num_threads()
    };
    let grain = (n_tasks / (crew_size * CHUNKS_PER_WORKER).max(1)).clamp(1, MAX_GRAIN);
    let n_chunks = n_tasks.div_ceil(grain);
    let threads = crew_size.min(n_chunks);
    if threads <= 1 {
        let mut state = init();
        for t in 0..n_tasks {
            body(&mut state, t);
        }
        return;
    }

    let seed = SCHEDULE_SEED.load(Ordering::Acquire);
    let order = if seed != 0 {
        Some(permuted_order(n_chunks, seed))
    } else {
        None
    };
    let next_chunk = AtomicUsize::new(0);
    let worker = || {
        let mut state = init();
        loop {
            let claim = next_chunk.fetch_add(1, Ordering::Relaxed);
            if claim >= n_chunks {
                break;
            }
            let chunk = match &order {
                Some(o) => o[claim] as usize,
                None => claim,
            };
            let start = chunk * grain;
            let end = (start + grain).min(n_tasks);
            for t in start..end {
                body(&mut state, t);
            }
        }
    };
    let dispatched = CREW.try_with(|crew| {
        let mut crew = crew.borrow_mut();
        if crew.as_ref().map(Crew::size) != Some(crew_size) {
            // Join the old crew before the new one starts.
            *crew = None;
        }
        crew.get_or_insert_with(|| Crew::start(crew_size))
            .run(threads, &worker);
    });
    if dispatched.is_err() {
        // The owning thread is exiting and its crew is gone: worker 0 alone
        // claims every chunk.
        worker();
    }
}

thread_local! {
    /// This thread's crew, started by its first region.
    static CREW: RefCell<Option<Crew>> = const { RefCell::new(None) };
    /// Set on crew workers, and on a caller while its crew runs a region: a
    /// region opened here runs on this thread alone.
    static IN_REGION: Cell<bool> = const { Cell::new(false) };
}

/// One region as its crew sees it: the caller's worker closure behind an
/// erased pointer, the function that calls it, and how many workers
/// (caller included) take part. It lives on the caller's stack and is
/// published through [`Shared::job`]; the caller does not return or unwind
/// before every crew worker has counted itself out of [`Shared::pending`].
struct Job {
    worker: *const (),
    call: unsafe fn(*const ()),
    active: usize,
}

/// Calls the closure a [`Job`] erased.
///
/// # Safety
///
/// `worker` must point to a live `F`.
unsafe fn call_worker<F: Fn() + Sync>(worker: *const ()) {
    // SAFETY: the caller guarantees `worker` is a live `F`; `F: Sync`, so
    // calling it through a shared reference from this thread is sound.
    unsafe { (*worker.cast::<F>())() }
}

/// What a crew's threads share with its owner.
struct Shared {
    /// Bumped once per region (and once at shutdown); a worker runs the
    /// job each time it sees a new value.
    generation: AtomicU64,
    /// The current region's job; null tells the workers to exit.
    job: AtomicPtr<Job>,
    /// Crew workers that have not yet finished the current region.
    pending: AtomicUsize,
    /// The first panic a crew worker caught in the current region.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// The owning thread, unparked by the last worker to finish.
    owner: Thread,
    /// Whether waiting threads poll before they park: only when the crew
    /// fits the hardware threads, else the polls steal the time of the
    /// threads they wait for.
    spin: bool,
}

impl Shared {
    /// Spin (if this crew spins), then park, until `done` holds. Parking
    /// tolerates spurious and stale unparks: the condition is re-read.
    fn wait_until(&self, done: impl Fn() -> bool) {
        let mut polls = 0;
        while !done() {
            if self.spin && polls < SPIN_POLLS {
                polls += 1;
                std::hint::spin_loop();
            } else {
                std::thread::park();
            }
        }
    }
}

/// `size - 1` parked worker threads owned by one calling thread.
struct Crew {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Crew {
    fn start(size: usize) -> Crew {
        let shared = Arc::new(Shared {
            generation: AtomicU64::new(0),
            job: AtomicPtr::new(std::ptr::null_mut()),
            pending: AtomicUsize::new(0),
            panic: Mutex::new(None),
            owner: std::thread::current(),
            spin: size <= hardware_threads(),
        });
        let workers = (1..size)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rayon-crew-{id}"))
                    .spawn(move || crew_worker(&shared, id))
                    .expect("failed to start a pool worker thread")
            })
            .collect();
        Crew { shared, workers }
    }

    /// Workers including the owner.
    fn size(&self) -> usize {
        self.workers.len() + 1
    }

    /// Run `worker` on the owner and on crew workers `1..active`; return
    /// once every crew worker has finished, re-raising the owner's panic or
    /// else the first crew worker's.
    fn run<F: Fn() + Sync>(&self, active: usize, worker: &F) {
        let shared = &*self.shared;
        let job = Job {
            worker: (worker as *const F).cast(),
            call: call_worker::<F>,
            active,
        };
        // `pending` and `job` are published by the Release bump of
        // `generation`, which a worker loads with Acquire before it reads
        // them; its own writes reach this thread through its AcqRel
        // decrement of `pending` and the Acquire load that sees 0.
        shared.pending.store(self.workers.len(), Ordering::Relaxed);
        shared
            .job
            .store(&job as *const Job as *mut Job, Ordering::Relaxed);
        shared.generation.fetch_add(1, Ordering::Release);
        for w in &self.workers {
            w.thread().unpark();
        }
        IN_REGION.set(true);
        let own = catch_unwind(AssertUnwindSafe(worker));
        IN_REGION.set(false);
        shared.wait_until(|| shared.pending.load(Ordering::Acquire) == 0);
        // The slot is only ever set whole or taken, so a poisoned lock
        // still guards a valid value.
        let theirs = shared
            .panic
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Err(payload) = own {
            resume_unwind(payload);
        }
        if let Some(payload) = theirs {
            resume_unwind(payload);
        }
    }
}

impl Drop for Crew {
    fn drop(&mut self) {
        self.shared
            .job
            .store(std::ptr::null_mut(), Ordering::Relaxed);
        self.shared.generation.fetch_add(1, Ordering::Release);
        for w in &self.workers {
            w.thread().unpark();
        }
        for w in self.workers.drain(..) {
            // A worker catches every panic of the jobs it runs.
            let _ = w.join();
        }
    }
}

/// Crew worker `id`: wait for a new generation, run its job if `id` takes
/// part, count out of `pending`; exit on a null job.
fn crew_worker(shared: &Shared, id: usize) {
    IN_REGION.set(true);
    let mut seen = 0;
    loop {
        shared.wait_until(|| shared.generation.load(Ordering::Acquire) != seen);
        seen = shared.generation.load(Ordering::Acquire);
        let job = shared.job.load(Ordering::Relaxed);
        if job.is_null() {
            return;
        }
        // SAFETY: the owner published `job` before this generation and keeps
        // it (and the closure it points to) alive until `pending` reaches 0,
        // which needs this worker's decrement below; no new generation
        // starts before then, so `seen` is the job's own generation.
        let job = unsafe { &*job };
        if id < job.active {
            // SAFETY: `job.worker` is the live closure `job.call` was
            // instantiated for, alive for the reason above.
            let ran = catch_unwind(|| unsafe { (job.call)(job.worker) });
            if let Err(payload) = ran {
                let mut first = shared.panic.lock().unwrap_or_else(|e| e.into_inner());
                first.get_or_insert(payload);
            }
        }
        if shared.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            shared.owner.unpark();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_tile_exactly() {
        for len in [0usize, 1, 7, 8, 9, 100, 4096, 4097] {
            for grain in [1usize, 3, 8, 4096] {
                let mut next = 0;
                for r in chunk_ranges(len, grain) {
                    assert_eq!(r.start, next, "len={len} grain={grain}");
                    assert!(r.end > r.start && r.end - r.start <= grain);
                    next = r.end;
                }
                assert_eq!(next, len, "len={len} grain={grain}");
            }
        }
    }

    #[test]
    fn permutation_is_a_bijection() {
        for seed in [1u64, 42, 0xdead_beef] {
            let order = permuted_order(257, seed);
            let mut seen = vec![false; 257];
            for &c in &order {
                assert!(!seen[c as usize]);
                seen[c as usize] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn every_task_runs_exactly_once_threaded() {
        use std::sync::atomic::AtomicU8;
        let n = 10_000;
        let hits: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(0)).collect();
        with_num_threads(4, || {
            for_each_task(
                n,
                || (),
                |(), t| {
                    hits[t].fetch_add(1, Ordering::Relaxed);
                },
            );
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn schedule_seed_still_runs_every_task_once() {
        use std::sync::atomic::AtomicU8;
        let n = 1000;
        for seed in [1u64, 7, 99] {
            let hits: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(0)).collect();
            with_config(Some(3), Some(seed), || {
                for_each_task(
                    n,
                    || (),
                    |(), t| {
                        hits[t].fetch_add(1, Ordering::Relaxed);
                    },
                );
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            with_num_threads(2, || {
                for_each_task(
                    64,
                    || (),
                    |(), t| {
                        if t == 33 {
                            panic!("task 33 exploded");
                        }
                    },
                );
            });
        });
        assert!(caught.is_err());
    }

    #[test]
    fn config_restored_after_panic() {
        let _ = std::panic::catch_unwind(|| {
            with_config(Some(7), Some(11), || panic!("boom"));
        });
        // Read under the lock `with_config` serialises on: with it held no
        // sibling test's override is installed, so anything but "unset" is
        // the 7 / 11 above having leaked past the unwind.
        let _guard = CONFIG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert_eq!(THREAD_OVERRIDE.load(Ordering::Acquire), 0);
        assert_eq!(SCHEDULE_SEED.load(Ordering::Acquire), 0);
    }

    /// The threads whose `init` ran in one region of `n` tasks, after
    /// checking that every task ran exactly once.
    fn region_threads(n: usize) -> Vec<std::thread::ThreadId> {
        use std::sync::atomic::AtomicU8;
        let hits: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(0)).collect();
        let ids = Mutex::new(Vec::new());
        for_each_task(
            n,
            || ids.lock().unwrap().push(std::thread::current().id()),
            |(), t| {
                hits[t].fetch_add(1, Ordering::Relaxed);
            },
        );
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        let mut ids = ids.into_inner().unwrap();
        ids.sort_unstable_by_key(|id| format!("{id:?}"));
        ids
    }

    #[test]
    fn miri_smoke_consecutive_regions_reuse_the_crew() {
        with_num_threads(2, || {
            let first = region_threads(64);
            let second = region_threads(64);
            assert_eq!(first.len(), 2, "both workers ran init");
            assert!(first.contains(&std::thread::current().id()));
            assert_eq!(first, second, "no thread was started for the second region");
        });
    }

    #[test]
    fn miri_smoke_crew_survives_a_worker_panic() {
        with_num_threads(2, || {
            let owner = std::thread::current().id();
            let caught = std::panic::catch_unwind(|| {
                for_each_task(
                    64,
                    || {
                        if std::thread::current().id() != owner {
                            panic!("crew worker init");
                        }
                    },
                    |(), _| {},
                );
            });
            let payload = caught.expect_err("the worker's panic reaches the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"crew worker init"));
            assert_eq!(region_threads(64).len(), 2);
        });
    }

    #[test]
    fn miri_smoke_nested_region_runs_on_the_calling_thread() {
        use std::sync::atomic::AtomicU8;
        const OUTER: usize = 8;
        const INNER: usize = 32;
        let hits: Vec<AtomicU8> = (0..OUTER * INNER).map(|_| AtomicU8::new(0)).collect();
        with_num_threads(2, || {
            for_each_task(
                OUTER,
                || (),
                |(), outer| {
                    let here = std::thread::current().id();
                    for_each_task(
                        INNER,
                        || (),
                        |(), inner| {
                            assert_eq!(std::thread::current().id(), here);
                            hits[outer * INNER + inner].fetch_add(1, Ordering::Relaxed);
                        },
                    );
                },
            );
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn miri_smoke_thread_count_change_restarts_the_crew() {
        for threads in [2, 3, 2] {
            let ids = with_num_threads(threads, || region_threads(96));
            let mut distinct = ids.clone();
            distinct.dedup();
            assert_eq!(distinct.len(), threads, "{ids:?}");
        }
    }

    #[test]
    fn miri_smoke_owner_exit_joins_the_crew() {
        use std::sync::atomic::AtomicBool;
        /// Sets its flag when the thread holding it exits — late enough
        /// that a worker left to exit on its own, not joined, would miss
        /// the check after the owner's join.
        struct OnExit(Arc<AtomicBool>);
        impl Drop for OnExit {
            fn drop(&mut self) {
                std::thread::sleep(std::time::Duration::from_millis(20));
                self.0.store(true, Ordering::SeqCst);
            }
        }
        thread_local! {
            static EXIT: RefCell<Option<OnExit>> = const { RefCell::new(None) };
        }
        let worker_exited = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&worker_exited);
        std::thread::spawn(move || {
            let owner = std::thread::current().id();
            with_num_threads(2, || {
                for_each_task(
                    64,
                    || {
                        if std::thread::current().id() != owner {
                            EXIT.with(|e| *e.borrow_mut() = Some(OnExit(Arc::clone(&flag))));
                        }
                    },
                    |(), _| {},
                );
            });
            assert!(!flag.load(Ordering::SeqCst), "the crew outlives its region");
        })
        .join()
        .unwrap();
        assert!(worker_exited.load(Ordering::SeqCst));
    }
}
