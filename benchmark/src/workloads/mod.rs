//! The four workloads and what they share.
//!
//! | workload | driver | stresses |
//! |---|---|---|
//! | `hybrid16` | `HybridSimulation`, 2 pool threads | sweeps + tree + PM + CDM, serial checkpoint path |
//! | `dist2` | `DistributedVlasov`, 2 ranks × 1 thread | ghost exchange, slab FFT/Poisson, collective checkpoint |
//! | `plasma_two_stream` | `KineticSimulation`, 2 pool threads | scalar kernel, short lines, per-call overheads; analytic answer |
//! | `query_evict` | the `dist2` problem, blocked snapshot | decode path of the query service under LRU eviction |

pub mod hybrid;
pub mod plasma;
pub mod ranked;

use crate::lifecycle::{closed_loop, Served};
use crate::record::Recorder;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use vlasov6d_ckpt::CheckpointStore;
use vlasov6d_query::engine::BacktrackParams;
use vlasov6d_query::{
    CacheStats, DistBackend, LocalBackend, QueryBackend, QueryConfig, QueryError, Request,
    Response, ScopedQueryService,
};

/// Pool threads of a serial workload; ranked workloads run one per rank.
pub const THREADS: usize = 2;
/// Ranks of a ranked workload.
pub const RANKS: usize = 2;
/// Requests the service worker drains per round.
pub const BATCH_MAX: usize = 4;
/// Decode-cache budget of the warm workloads: every block stays resident.
pub const WARM_CACHE_BYTES: usize = 256 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Hybrid16,
    Dist2,
    PlasmaTwoStream,
    QueryEvict,
}

impl Workload {
    /// Round order of a full benchmark.
    pub const ALL: [Workload; 4] = [
        Workload::Hybrid16,
        Workload::Dist2,
        Workload::PlasmaTwoStream,
        Workload::QueryEvict,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Hybrid16 => "hybrid16",
            Workload::Dist2 => "dist2",
            Workload::PlasmaTwoStream => "plasma_two_stream",
            Workload::QueryEvict => "query_evict",
        }
    }

    /// Why the workload is in the benchmark, in one line.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Hybrid16 => {
                "coupled Vlasov/TreePM stepper at 2 threads: the only workload where tree, PM, \
                 CDM particles and the serial checkpoint path run"
            }
            Workload::Dist2 => {
                "the same sweeps on 2 ranks x 1 thread: ghost exchange, slab FFT/Poisson and the \
                 collective checkpoint, so a comm change shows here and not on hybrid16"
            }
            Workload::PlasmaTwoStream => {
                "scalar kernel on short lines with a small Poisson solve per step: per-call \
                 overheads dominate, and the answer is checked against an analytic growth rate"
            }
            Workload::QueryEvict => {
                "blocked snapshot served under LRU eviction: the decode path of the query \
                 service, where the other three serve cache hits"
            }
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Grid sizes: the measured ones, or tiny ones for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Quick,
}

/// A directory under the benchmark's scratch root, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(root: &Path, tag: &str) -> Scratch {
        let dir = root.join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the benchmark scratch directory");
        Scratch(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where checkpoint stores and span files go. The benchmark writes only
/// inside the directory it is run from; `VLASOV6D_BENCH_SCRATCH` overrides
/// the place (a tmpfs keeps disk behaviour out of a local comparison).
pub fn scratch_root() -> PathBuf {
    std::env::var_os("VLASOV6D_BENCH_SCRATCH")
        .map_or_else(|| PathBuf::from(".bench_scratch"), PathBuf::from)
}

/// Newest committed generation of `store`.
pub fn newest_generation(store: &CheckpointStore) -> Result<u64, String> {
    store
        .list_committed_generations()
        .last()
        .copied()
        .ok_or_else(|| format!("no committed generation under {}", store.root().display()))
}

/// Backends whose decode-cache counters can be read after a batch.
pub trait CacheCounters {
    fn counters(&self) -> CacheStats;
}

impl CacheCounters for LocalBackend {
    fn counters(&self) -> CacheStats {
        self.cache_stats()
    }
}

impl CacheCounters for DistBackend<'_> {
    fn counters(&self) -> CacheStats {
        self.cache_stats()
    }
}

/// The service takes its backend by value; this wrapper copies the cache
/// counters out after every batch so the benchmark can still read them.
struct Watched<B> {
    inner: B,
    seen: Arc<Mutex<CacheStats>>,
}

impl<B: QueryBackend + CacheCounters> QueryBackend for Watched<B> {
    fn execute(&mut self, batch: &[Request]) -> Vec<Result<Response, QueryError>> {
        let out = self.inner.execute(batch);
        *self.seen.lock().expect("cache counter lock") = self.inner.counters();
        out
    }
}

/// Start the scoped service on `backend` and drive the closed-loop client.
pub fn serve_on<B: QueryBackend + CacheCounters + Send>(
    backend: B,
    cache_bytes: usize,
    requests: &[Request],
    untimed: usize,
    rec: &mut Recorder,
) -> Served {
    let seen = Arc::new(Mutex::new(CacheStats::default()));
    let watched = Watched {
        inner: backend,
        seen: Arc::clone(&seen),
    };
    let replies = std::thread::scope(|scope| {
        let config = QueryConfig {
            batch_max: BATCH_MAX,
            cache_bytes,
        };
        let service = ScopedQueryService::start_scoped(scope, watched, config);
        let replies = closed_loop(&service, requests, untimed, rec);
        service.shutdown();
        replies
    });
    let cache = *seen.lock().expect("cache counter lock");
    Served { replies, cache }
}

/// Serve the newest generation of a serial driver's store in-process.
pub fn serve_local(
    store: &CheckpointStore,
    requests: &[Request],
    untimed: usize,
    rec: &mut Recorder,
) -> Served {
    let opened = newest_generation(store).and_then(|generation| {
        LocalBackend::open(
            store,
            generation,
            WARM_CACHE_BYTES,
            BacktrackParams::default(),
        )
        .map_err(|e| e.to_string())
    });
    match opened {
        Ok(backend) => serve_on(backend, WARM_CACHE_BYTES, requests, untimed, rec),
        Err(e) => Served {
            replies: requests.iter().map(|_| Err(e.clone())).collect(),
            cache: CacheStats::default(),
        },
    }
}
