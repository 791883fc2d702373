//! Query backends: in-process and sharded across `mpisim` ranks.
//!
//! A [`QueryBackend`] executes one batch of requests and is what the
//! service worker drives. Two implementations:
//!
//! * [`LocalBackend`] opens every rank file of a generation in-process —
//!   the single-node path and the differential oracle for the distributed
//!   one.
//! * [`DistBackend`]/[`serve_peer`] shard ownership across ranks exactly
//!   like the checkpoint: rank `r` serves `rank-000r.vck`. The root
//!   broadcasts each batch as one wire buffer, every rank computes partials
//!   from its own shard, and the root gathers and folds them **in
//!   ascending rank order** — the same combine order `LocalBackend` uses,
//!   which is why the two backends agree bitwise on `f64` results.
//!
//! The round is two collectives, `Comm::broadcast` and `Comm::gather`, so
//! like every collective it sits outside any `CommPlan`.

use crate::engine::{
    self, density_partial, region_partial, sky_partial, BacktrackEngine, BacktrackParams,
    DensityPartial, SkyPartial,
};
use crate::request::{self, decode_batch, encode_batch, QueryError, Request, Response};
use crate::shard::SnapshotShard;
use vlasov6d_ckpt::CheckpointStore;
use vlasov6d_mpisim::Comm;
use vlasov6d_phase_space::moments::RegionSums;

/// Executes batches of requests against a snapshot.
pub trait QueryBackend {
    /// Answer each request in the batch, same order, one entry per request.
    fn execute(&mut self, batch: &[Request]) -> Vec<Result<Response, QueryError>>;
}

// ---------------------------------------------------------------------------
// Partial wire codec (peer → root)
// ---------------------------------------------------------------------------

fn encode_region_sums(out: &mut Vec<u8>, s: &RegionSums) {
    request::put_u64(out, s.cells);
    request::put_f64(out, s.n_sum);
    for v in s.mom {
        request::put_f64(out, v);
    }
    request::put_f64(out, s.sq_sum);
}

fn decode_region_sums(c: &mut request::Cursor) -> Result<RegionSums, QueryError> {
    let mut s = RegionSums {
        cells: c.u64()?,
        n_sum: c.f64()?,
        ..RegionSums::default()
    };
    for v in &mut s.mom {
        *v = c.f64()?;
    }
    s.sq_sum = c.f64()?;
    Ok(s)
}

fn encode_sky(out: &mut Vec<u8>, s: &SkyPartial) {
    request::put_u64(out, s.pix_sum.len() as u64);
    for v in &s.pix_sum {
        request::put_f64(out, *v);
    }
    for v in &s.pix_count {
        request::put_u64(out, *v);
    }
    request::put_f64(out, s.n_sum);
    request::put_u64(out, s.cells);
}

fn decode_sky(c: &mut request::Cursor) -> Result<SkyPartial, QueryError> {
    let npix = c.u64()? as usize;
    let mut pix_sum = vec![0.0; npix];
    for v in &mut pix_sum {
        *v = c.f64()?;
    }
    let mut pix_count = vec![0u64; npix];
    for v in &mut pix_count {
        *v = c.u64()?;
    }
    Ok(SkyPartial {
        pix_sum,
        pix_count,
        n_sum: c.f64()?,
        cells: c.u64()?,
    })
}

fn encode_density(out: &mut Vec<u8>, partials: &[DensityPartial]) {
    request::put_u64(out, partials.len() as u64);
    for p in partials {
        for v in p.soffset.iter().chain(p.sdims.iter()) {
            request::put_u64(out, *v as u64);
        }
        request::put_u64(out, p.data.len() as u64);
        for v in &p.data {
            request::put_f64(out, *v);
        }
    }
}

fn decode_density(c: &mut request::Cursor) -> Result<Vec<DensityPartial>, QueryError> {
    let n = c.u64()? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let mut soffset = [0usize; 3];
        let mut sdims = [0usize; 3];
        for v in soffset.iter_mut().chain(sdims.iter_mut()) {
            *v = c.u64()? as usize;
        }
        let len = c.u64()? as usize;
        let mut data = vec![0.0f64; len];
        for v in &mut data {
            *v = c.f64()?;
        }
        out.push(DensityPartial {
            soffset,
            sdims,
            data,
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Round protocol
// ---------------------------------------------------------------------------

const ROUND_BATCH: u8 = 1;
const ROUND_SHUTDOWN: u8 = 2;

fn encode_round(need_density: bool, batch: &[Request]) -> Vec<u8> {
    let mut buf = vec![ROUND_BATCH, need_density as u8];
    buf.extend_from_slice(&encode_batch(batch));
    buf
}

/// Compute this rank's reply buffer for one round: the density section (if
/// requested) followed by one partial per request, batch order. Per-request
/// failures are encoded as an error flag so the root can fail just that
/// request instead of the whole round.
fn round_reply(
    shard: &mut SnapshotShard,
    need_density: bool,
    batch: &[Request],
) -> Result<Vec<u8>, QueryError> {
    let mut out = Vec::new();
    if need_density {
        let partials = density_partial(shard)?;
        encode_density(&mut out, &partials);
    }
    for req in batch {
        match req {
            Request::RegionMoments { lo, hi } => match region_partial(shard, *lo, *hi) {
                Ok(s) => {
                    out.push(1);
                    encode_region_sums(&mut out, &s);
                }
                Err(e) => {
                    out.push(0);
                    let msg = e.to_string().into_bytes();
                    request::put_u64(&mut out, msg.len() as u64);
                    out.extend_from_slice(&msg);
                }
            },
            Request::SkyMap { nside, observer } => match sky_partial(shard, *nside, *observer) {
                Ok(s) => {
                    out.push(1);
                    encode_sky(&mut out, &s);
                }
                Err(e) => {
                    out.push(0);
                    let msg = e.to_string().into_bytes();
                    request::put_u64(&mut out, msg.len() as u64);
                    out.extend_from_slice(&msg);
                }
            },
            // Backtrack is finalized root-side from the density section.
            Request::Backtrack { .. } => out.push(1),
        }
    }
    Ok(out)
}

enum PartialSlot {
    Region(RegionSums),
    Sky(SkyPartial),
    Backtrack,
    Failed(String),
}

/// Decode one rank's reply buffer against the batch that produced it.
fn decode_reply(
    buf: &[u8],
    need_density: bool,
    batch: &[Request],
) -> Result<(Vec<DensityPartial>, Vec<PartialSlot>), QueryError> {
    let mut c = request::Cursor { buf, pos: 0 };
    let density = if need_density {
        decode_density(&mut c)?
    } else {
        Vec::new()
    };
    let mut slots = Vec::with_capacity(batch.len());
    for req in batch {
        let ok = c.u8()? == 1;
        if !ok {
            let len = c.u64()? as usize;
            let msg = String::from_utf8_lossy(c.take(len)?).into_owned();
            slots.push(PartialSlot::Failed(msg));
            continue;
        }
        slots.push(match req {
            Request::RegionMoments { .. } => PartialSlot::Region(decode_region_sums(&mut c)?),
            Request::SkyMap { .. } => PartialSlot::Sky(decode_sky(&mut c)?),
            Request::Backtrack { .. } => PartialSlot::Backtrack,
        });
    }
    Ok((density, slots))
}

/// Fold per-rank slots (ascending rank order) and finalize each request.
/// `engine` must already be built if the batch contains backtracks.
fn finalize_batch(
    batch: &[Request],
    per_rank: &[Vec<PartialSlot>],
    engine: Option<&BacktrackEngine>,
) -> Vec<Result<Response, QueryError>> {
    batch
        .iter()
        .enumerate()
        .map(|(i, req)| {
            // A request fails if any rank failed it.
            for rank_slots in per_rank {
                if let PartialSlot::Failed(msg) = &rank_slots[i] {
                    return Err(QueryError::BadRequest(msg.clone()));
                }
            }
            match req {
                Request::RegionMoments { .. } => {
                    let sums: Vec<RegionSums> = per_rank
                        .iter()
                        .map(|slots| match &slots[i] {
                            PartialSlot::Region(s) => *s,
                            _ => unreachable!("slot family matches request"),
                        })
                        .collect();
                    Ok(Response::RegionMoments(engine::finalize_region(&sums)))
                }
                Request::SkyMap { nside, .. } => {
                    let partials: Vec<SkyPartial> = per_rank
                        .iter()
                        .map(|slots| match &slots[i] {
                            PartialSlot::Sky(s) => s.clone(),
                            _ => unreachable!("slot family matches request"),
                        })
                        .collect();
                    engine::finalize_sky(*nside, &partials).map(Response::SkyMap)
                }
                Request::Backtrack {
                    theta,
                    phi,
                    observer,
                    n_traj,
                    steps,
                } => {
                    let engine = engine.ok_or_else(|| {
                        QueryError::Snapshot("backtrack engine unavailable".into())
                    })?;
                    engine
                        .backtrack(*theta, *phi, *observer, *n_traj, *steps)
                        .map(Response::Backtrack)
                }
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Local backend
// ---------------------------------------------------------------------------

/// All shards of a generation opened in one process.
pub struct LocalBackend {
    shards: Vec<SnapshotShard>,
    params: BacktrackParams,
    engine: Option<BacktrackEngine>,
}

impl LocalBackend {
    /// Open every rank file of `generation` (ascending rank order) with a
    /// decode-cache budget of `cache_bytes` per shard.
    pub fn open(
        store: &CheckpointStore,
        generation: u64,
        cache_bytes: usize,
        params: BacktrackParams,
    ) -> Result<LocalBackend, QueryError> {
        let probe = SnapshotShard::open(store, generation, 0, cache_bytes)?;
        let n_ranks = probe.n_ranks();
        let mut shards = vec![probe];
        for rank in 1..n_ranks {
            shards.push(SnapshotShard::open(store, generation, rank, cache_bytes)?);
        }
        Ok(LocalBackend {
            shards,
            params,
            engine: None,
        })
    }

    /// Decode-cache counters summed over the shards.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        let mut acc = crate::cache::CacheStats::default();
        for s in &self.shards {
            let st = s.cache_stats();
            acc.hits += st.hits;
            acc.misses += st.misses;
            acc.evictions += st.evictions;
            acc.used_bytes += st.used_bytes;
        }
        acc
    }

    /// Drop every shard's decode cache (forces the next batch cold). The
    /// backtrack engine is kept — it is part of the snapshot, not the cache.
    pub fn clear_caches(&mut self) {
        for s in &mut self.shards {
            s.clear_cache();
        }
    }

    fn ensure_engine(&mut self) -> Result<&BacktrackEngine, QueryError> {
        if self.engine.is_none() {
            let sglobal = self.shards[0].sglobal();
            let mut partials = Vec::new();
            for shard in &mut self.shards {
                partials.extend(density_partial(shard)?);
            }
            self.engine = Some(BacktrackEngine::from_partials(
                sglobal,
                &partials,
                self.params,
            )?);
        }
        Ok(self.engine.as_ref().unwrap())
    }
}

impl QueryBackend for LocalBackend {
    fn execute(&mut self, batch: &[Request]) -> Vec<Result<Response, QueryError>> {
        if batch.iter().any(|r| matches!(r, Request::Backtrack { .. })) {
            if let Err(e) = self.ensure_engine() {
                return batch.iter().map(|_| Err(e.clone())).collect();
            }
        }
        // Compute per-shard partials in ascending rank order — the same
        // fold order the distributed reduce uses.
        let mut per_rank: Vec<Vec<PartialSlot>> = Vec::with_capacity(self.shards.len());
        for shard in &mut self.shards {
            let slots = batch
                .iter()
                .map(|req| match req {
                    Request::RegionMoments { lo, hi } => match region_partial(shard, *lo, *hi) {
                        Ok(s) => PartialSlot::Region(s),
                        Err(e) => PartialSlot::Failed(e.to_string()),
                    },
                    Request::SkyMap { nside, observer } => {
                        match sky_partial(shard, *nside, *observer) {
                            Ok(s) => PartialSlot::Sky(s),
                            Err(e) => PartialSlot::Failed(e.to_string()),
                        }
                    }
                    Request::Backtrack { .. } => PartialSlot::Backtrack,
                })
                .collect();
            per_rank.push(slots);
        }
        finalize_batch(batch, &per_rank, self.engine.as_ref())
    }
}

// ---------------------------------------------------------------------------
// Distributed backend
// ---------------------------------------------------------------------------

/// Root side of the sharded service: owns the comm, serves its own shard,
/// fans batches out to the peers running [`serve_peer`].
///
/// Shuts the peers down on drop (broadcasts the shutdown round).
pub struct DistBackend<'a> {
    comm: &'a Comm,
    shard: SnapshotShard,
    params: BacktrackParams,
    engine: Option<BacktrackEngine>,
    shut_down: bool,
}

impl<'a> DistBackend<'a> {
    /// Open rank 0's shard.
    pub fn new(
        comm: &'a Comm,
        store: &CheckpointStore,
        generation: u64,
        cache_bytes: usize,
        params: BacktrackParams,
    ) -> Result<DistBackend<'a>, QueryError> {
        assert_eq!(comm.rank(), 0, "DistBackend runs on the root rank");
        let shard = SnapshotShard::open(store, generation, 0, cache_bytes)?;
        Ok(DistBackend {
            comm,
            shard,
            params,
            engine: None,
            shut_down: false,
        })
    }

    /// This rank's decode-cache counters.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.shard.cache_stats()
    }

    /// Broadcast the shutdown round, releasing the peers' serve loops.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if !self.shut_down {
            self.shut_down = true;
            self.comm
                .broadcast::<Vec<u8>>(0, Some(vec![ROUND_SHUTDOWN]));
        }
    }
}

impl Drop for DistBackend<'_> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl QueryBackend for DistBackend<'_> {
    fn execute(&mut self, batch: &[Request]) -> Vec<Result<Response, QueryError>> {
        if self.shut_down {
            return batch
                .iter()
                .map(|_| Err(QueryError::ServiceClosed))
                .collect();
        }
        let need_density =
            self.engine.is_none() && batch.iter().any(|r| matches!(r, Request::Backtrack { .. }));
        self.comm
            .broadcast::<Vec<u8>>(0, Some(encode_round(need_density, batch)));
        let my_reply = match round_reply(&mut self.shard, need_density, batch) {
            Ok(r) => r,
            Err(e) => return batch.iter().map(|_| Err(e.clone())).collect(),
        };
        let replies = self
            .comm
            .gather(0, my_reply)
            .expect("root gather returns the per-rank buffers");
        // Decode in ascending rank order; build the engine from the density
        // sections the first time a backtrack shows up.
        let mut per_rank = Vec::with_capacity(replies.len());
        let mut density = Vec::new();
        for buf in &replies {
            match decode_reply(buf, need_density, batch) {
                Ok((d, slots)) => {
                    density.extend(d);
                    per_rank.push(slots);
                }
                Err(e) => return batch.iter().map(|_| Err(e.clone())).collect(),
            }
        }
        if need_density {
            match BacktrackEngine::from_partials(self.shard.sglobal(), &density, self.params) {
                Ok(engine) => self.engine = Some(engine),
                Err(e) => return batch.iter().map(|_| Err(e.clone())).collect(),
            }
        }
        finalize_batch(batch, &per_rank, self.engine.as_ref())
    }
}

/// Peer serve loop: every non-root rank parks here answering broadcast
/// rounds from its own shard until the root broadcasts shutdown.
pub fn serve_peer(
    comm: &Comm,
    store: &CheckpointStore,
    generation: u64,
    cache_bytes: usize,
) -> Result<(), QueryError> {
    assert_ne!(
        comm.rank(),
        0,
        "the root drives DistBackend, not serve_peer"
    );
    let mut shard = SnapshotShard::open(store, generation, comm.rank(), cache_bytes)?;
    loop {
        let round = comm.broadcast::<Vec<u8>>(0, None);
        match round.first().copied() {
            Some(ROUND_SHUTDOWN) => return Ok(()),
            Some(ROUND_BATCH) => {
                let need_density = round.get(1).copied() == Some(1);
                let batch = decode_batch(&round[2..])?;
                let reply = round_reply(&mut shard, need_density, &batch)?;
                comm.gather(0, reply);
            }
            other => {
                return Err(QueryError::Snapshot(format!(
                    "malformed round header {other:?}"
                )))
            }
        }
    }
}
