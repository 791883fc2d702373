//! The worker pool behind the parallel adapters.
//!
//! Every parallel region runs on a fresh `std::thread::scope`: the calling
//! thread participates as worker 0 and `threads - 1` scoped workers are
//! spawned for the duration of the region. Work is divided into contiguous
//! task chunks ([`chunk_ranges`]) which workers claim dynamically off a
//! shared atomic counter — self-scheduling, so a slow chunk steals no time
//! from the fast ones. There is no global pool object: scoped threads borrow
//! the caller's stack directly, nested regions (e.g. inside simulated MPI
//! rank threads) just open their own scopes, and a panicking worker
//! propagates at scope exit.
//!
//! Correctness note: the pool only ever hands each task index to exactly one
//! worker. Everything else — that distinct task indices touch disjoint
//! memory — is the *callers'* obligation, discharged statically by
//! `crates/racecheck` for every registered region in this workspace.
//!
//! The worker count resolves, in order: the [`with_num_threads`] /
//! [`with_config`] override, the `RAYON_NUM_THREADS` environment variable,
//! then `std::thread::available_parallelism()`. A seeded schedule
//! permutation ([`with_schedule_seed`]) lets tests drive chunks in shuffled
//! claim orders to demonstrate schedule-independence empirically.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

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
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
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
/// are visible to the caller when this returns (scope join).
pub(crate) fn for_each_task<T>(
    n_tasks: usize,
    init: impl Fn() -> T + Sync,
    body: impl Fn(&mut T, usize) + Sync,
) {
    if n_tasks == 0 {
        return;
    }
    let threads = current_num_threads();
    let grain = (n_tasks / (threads * CHUNKS_PER_WORKER).max(1)).clamp(1, MAX_GRAIN);
    let n_chunks = n_tasks.div_ceil(grain);
    let threads = threads.min(n_chunks);
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
    std::thread::scope(|s| {
        for _ in 1..threads {
            s.spawn(worker);
        }
        worker();
    });
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
}
