//! `dist2` and `query_evict` — the distributed Vlasov–Poisson driver on two
//! `mpisim` ranks × one pool thread each.
//!
//! Global grid `[32, 16, 16]` × 8³ velocity cells (4.2 M cells), slab
//! decomposed along x, `OverlapPolicy::Overlapped`, cosmological dynamics.
//! Ghost planes are 6/16 of each rank's block per x-sweep, on top of the slab
//! FFT/Poisson transposes and the collective two-phase checkpoint, so a
//! communication optimisation shows here and not on `hybrid16`.
//!
//! `dist2` serves queries from the driver's own checkpoint (one record per
//! rank, everything cached). `query_evict` re-writes the state as eight
//! `PhaseSpace` records per rank (two x-planes, 1 MiB decoded each) and
//! serves it with a decode-cache budget of seven: a sky map scans all eight
//! and defeats the LRU, a region query reads one block and finds it cached
//! seven times in eight — the decode path runs beside the moment path.
//!
//! The blocking is chosen for the percentiles, not the other way round. With
//! the 70/25/5 mix, two thirds of the requests are cache hits (p50 sits 16
//! points inside that mode), a quarter are sky maps (p90 sits in the middle
//! of that mode) and the one-block misses fall between the two. Four blocks
//! with a budget of three and regions crossing block edges put the p50 on
//! the boundary between hits and misses, where it jumped between 0.4 ms and
//! 7 ms from one run to the next.

use super::{newest_generation, serve_on, Size, WARM_CACHE_BYTES};
use crate::lifecycle::{fingerprint_f32, Driver, Rig, Served, StepInfo, FINGERPRINT_SEED};
use crate::record::Recorder;
use vlasov6d::dist_sim::{DistributedVlasov, OverlapPolicy};
use vlasov6d_ckpt::{CheckpointPolicy, CheckpointStore, CkptStats, Encoding, Record};
use vlasov6d_cosmology::{Background, CosmologyParams};
use vlasov6d_mesh::Decomp3;
use vlasov6d_mpisim::Comm;
use vlasov6d_obs::visit_spans;
use vlasov6d_phase_space::moments::{self, RegionSums};
use vlasov6d_phase_space::{PhaseSpace, VelocityGrid};
use vlasov6d_query::engine::BacktrackParams;
use vlasov6d_query::{
    finalize_region, serve_peer, CacheStats, DistBackend, RegionMomentsReply, Request,
};

/// `PhaseSpace` records per rank in the `query_evict` snapshot.
pub const EVICT_BLOCKS: usize = 8;
/// Blocks the `query_evict` decode cache may hold per shard.
pub const EVICT_CACHE_BLOCKS: usize = 7;

const A_INIT: f64 = 0.2;
const OMEGA: f64 = 1.0;

pub fn sglobal(size: Size) -> [usize; 3] {
    match size {
        Size::Full => [32, 16, 16],
        Size::Quick => [16, 8, 8],
    }
}

pub fn vgrid() -> VelocityGrid {
    VelocityGrid::cubic(8, 0.6)
}

/// Smooth spatial structure under a thermal velocity profile, in global
/// coordinates so every decomposition fills the same field.
pub fn initial_f(s: [usize; 3], u: [f64; 3]) -> f64 {
    let sx = (s[0] as f64 * 0.55).sin() + (s[1] as f64 * 0.35).cos() + (s[2] as f64 * 0.75).sin();
    0.002 * (2.5 + sx) * (-(u[0] * u[0] + u[1] * u[1] + u[2] * u[2]) / 0.03).exp()
}

/// This rank's slab of the initial condition.
pub fn initial_block(comm: &Comm, sglobal: [usize; 3]) -> PhaseSpace {
    let decomp = Decomp3::new(sglobal, [comm.size(), 1, 1]);
    let mut block = PhaseSpace::zeros_block(
        decomp.local_dims(comm.rank()),
        decomp.local_offset(comm.rank()),
        sglobal,
        vgrid(),
    );
    block.fill_with(initial_f);
    block
}

pub struct RankedRig<'a> {
    pub comm: &'a Comm,
    pub sglobal: [usize; 3],
    /// The driver's own checkpoint generations.
    pub store: CheckpointStore,
    /// `Some` on `query_evict`: where the blocked snapshot goes.
    pub blocks: Option<CheckpointStore>,
    /// Record the flight-recorder trace on every step (traced runs).
    pub tracing: bool,
}

pub struct RankedDriver<'a> {
    pub sim: DistributedVlasov,
    comm: &'a Comm,
    store: CheckpointStore,
    tracing: bool,
    /// The blocks last written by `snapshot`, as the oracle's in-memory copy.
    served: Vec<PhaseSpace>,
}

fn configure(sim: DistributedVlasov, tracing: bool) -> DistributedVlasov {
    let sim = sim.with_overlap(OverlapPolicy::Overlapped);
    if tracing {
        sim.with_tracing(1 << 14)
    } else {
        sim
    }
}

fn background() -> Background {
    Background::new(CosmologyParams::planck2015())
}

impl Driver for RankedDriver<'_> {
    fn step(&mut self) -> StepInfo {
        let traffic = self.comm.traffic();
        let before = [traffic.total_bytes(), traffic.total_messages()];
        let (_, _, telemetry) = self.sim.step_traced(self.comm);
        let t = telemetry.timers;
        let mut ghost = [0.0; 2];
        visit_spans(&telemetry.spans.roots, |node| match node.name.as_str() {
            "comm.hidden" => ghost[0] += node.elapsed,
            "comm.exposed" => ghost[1] += node.elapsed,
            _ => {}
        });
        StepInfo {
            buckets: [t.vlasov, t.tree, t.pm, t.other + t.io],
            ghost,
            comm: [
                (traffic.total_bytes() - before[0]) as f64,
                (traffic.total_messages() - before[1]) as f64,
            ],
        }
    }

    fn checkpoint(&mut self) -> Result<CkptStats, String> {
        self.sim
            .checkpoint(self.comm, &self.store, &CheckpointPolicy::every(1))
            .map_err(|e| e.to_string())
    }

    fn restore(&mut self) -> Result<(), String> {
        let sim = DistributedVlasov::resume_from(self.comm, &self.store, background())
            .map_err(|e| e.to_string())?;
        self.sim = configure(sim, self.tracing);
        Ok(())
    }

    type Mark = u64;

    fn mark(&self) -> u64 {
        self.fingerprint()
    }

    fn reproduces(&self, mark: &u64) -> Result<(), String> {
        let now = self.fingerprint();
        if now == *mark {
            Ok(())
        } else {
            Err(format!("fingerprints {mark:016x} vs {now:016x}"))
        }
    }

    fn net_steps(&self) -> u64 {
        self.sim.step_index()
    }
}

impl RankedDriver<'_> {
    /// Checksum of this rank's slab of the distribution function.
    pub fn fingerprint(&self) -> u64 {
        fingerprint_f32(FINGERPRINT_SEED, self.sim.ps.as_slice())
    }
}

/// Split a slab into `EVICT_BLOCKS` equal sub-slabs along x (contiguous in
/// memory, x being the slowest axis).
fn split_blocks(ps: &PhaseSpace) -> Vec<PhaseSpace> {
    let planes = ps.sdims[0] / EVICT_BLOCKS;
    assert!(
        planes * EVICT_BLOCKS == ps.sdims[0],
        "slab of {} planes does not split into {EVICT_BLOCKS} blocks",
        ps.sdims[0]
    );
    let cells = ps.len() / EVICT_BLOCKS;
    (0..EVICT_BLOCKS)
        .map(|b| {
            let mut block = PhaseSpace::zeros_block(
                [planes, ps.sdims[1], ps.sdims[2]],
                [ps.soffset[0] + b * planes, ps.soffset[1], ps.soffset[2]],
                ps.sglobal,
                ps.vgrid,
            );
            block
                .as_mut_slice()
                .copy_from_slice(&ps.as_slice()[b * cells..(b + 1) * cells]);
            block
        })
        .collect()
}

impl<'a> RankedRig<'a> {
    /// A rig whose drivers only step: nothing is ever written to its store.
    pub fn stepping_only(comm: &'a Comm, sglobal: [usize; 3]) -> RankedRig<'a> {
        RankedRig {
            comm,
            sglobal,
            store: CheckpointStore::new(""),
            blocks: None,
            tracing: false,
        }
    }

    fn is_root(&self) -> bool {
        self.comm.rank() == 0
    }

    /// The store the query phase serves and its decode-cache budget.
    fn served_store(&self) -> (&CheckpointStore, usize) {
        match &self.blocks {
            Some(blocks) => {
                let local = Decomp3::new(self.sglobal, [self.comm.size(), 1, 1]).local_dims(0);
                let block_bytes = local.iter().product::<usize>() / EVICT_BLOCKS
                    * vgrid().len()
                    * std::mem::size_of::<f32>();
                (blocks, EVICT_CACHE_BLOCKS * block_bytes)
            }
            None => (&self.store, WARM_CACHE_BYTES),
        }
    }
}

impl<'a> Rig for RankedRig<'a> {
    type D = RankedDriver<'a>;

    fn build(&self) -> RankedDriver<'a> {
        let block = initial_block(self.comm, self.sglobal);
        let sim = DistributedVlasov::new(self.comm, block, background(), A_INIT, OMEGA);
        RankedDriver {
            sim: configure(sim, self.tracing),
            comm: self.comm,
            store: self.store.clone(),
            tracing: self.tracing,
            served: Vec::new(),
        }
    }

    fn sync(&self) {
        self.comm.barrier();
    }

    fn agree(&self, ok: bool) -> bool {
        self.comm.allreduce_min(if ok { 1.0 } else { 0.0 }) > 0.5
    }

    fn sglobal(&self) -> [usize; 3] {
        self.sglobal
    }

    fn region_x_block(&self) -> Option<usize> {
        self.blocks
            .as_ref()
            .map(|_| self.sglobal[0] / self.comm.size() / EVICT_BLOCKS)
    }

    fn snapshot(&self, driver: &mut RankedDriver<'a>, rec: &mut Recorder) {
        // `dist2` serves the generation its driver has just committed.
        let Some(blocks) = &self.blocks else {
            return;
        };
        driver.served = split_blocks(&driver.sim.ps);
        let records: Vec<Record> = driver
            .served
            .iter()
            .cloned()
            .map(Record::PhaseSpace)
            .collect();
        let written = blocks
            .write_collective(
                self.comm,
                driver.sim.step_index(),
                driver.sim.a,
                &records,
                Encoding::ShuffleRle,
                1,
            )
            .map_err(|e| e.to_string());
        rec.attempt("blocked snapshot", written);
    }

    fn region_oracle(
        &self,
        driver: &RankedDriver<'a>,
        lo: [usize; 3],
        hi: [usize; 3],
    ) -> Option<RegionMomentsReply> {
        // Same fold as the service: this shard's intersecting blocks in
        // ascending order, then the shards in ascending rank order.
        let whole = std::slice::from_ref(&driver.sim.ps);
        let blocks = if driver.served.is_empty() {
            whole
        } else {
            &driver.served
        };
        let mut mine = RegionSums::default();
        for block in blocks {
            let intersects = (0..3).all(|d| {
                lo[d].max(block.soffset[d]) < hi[d].min(block.soffset[d] + block.sdims[d])
            });
            if intersects {
                mine.combine(&moments::region_sums(block, lo, hi));
            }
        }
        let wire = (
            mine.cells,
            [
                mine.n_sum,
                mine.mom[0],
                mine.mom[1],
                mine.mom[2],
                mine.sq_sum,
            ],
        );
        let gathered = self.comm.gather(0, wire)?;
        let partials: Vec<RegionSums> = gathered
            .into_iter()
            .map(|(cells, [n_sum, m0, m1, m2, sq_sum])| RegionSums {
                cells,
                n_sum,
                mom: [m0, m1, m2],
                sq_sum,
            })
            .collect();
        Some(finalize_region(&partials))
    }

    fn serve(&self, requests: &[Request], untimed: usize, rec: &mut Recorder) -> Served {
        let (store, cache_bytes) = self.served_store();
        // Every rank resolves the generation the same way before any of
        // them enters the service protocol, so a missing snapshot fails the
        // phase on all ranks instead of hanging the peers.
        let generation = match newest_generation(store) {
            Ok(g) => g,
            Err(e) => {
                return Served {
                    replies: requests.iter().map(|_| Err(e.clone())).collect(),
                    cache: CacheStats::default(),
                }
            }
        };
        if !self.is_root() {
            let served = serve_peer(self.comm, store, generation, cache_bytes);
            rec.attempt("serve_peer", served.map_err(|e| e.to_string()));
            return Served {
                replies: Vec::new(),
                cache: CacheStats::default(),
            };
        }
        let backend = DistBackend::new(
            self.comm,
            store,
            generation,
            cache_bytes,
            BacktrackParams::default(),
        )
        .expect("root shard of a generation that was just committed");
        serve_on(backend, cache_bytes, requests, untimed, rec)
    }

    /// The potential's two-plane gradient exchange has no public entry point
    /// and is left out; every probe is timed barrier to barrier.
    fn replay_step(&self, driver: &RankedDriver<'a>, rec: &mut Recorder) -> f64 {
        use vlasov6d_advection::line::Scheme;
        use vlasov6d_mesh::Field3;
        use vlasov6d_mpisim::Cart3;
        use vlasov6d_phase_space::exchange::sweep_spatial_overlapped;
        use vlasov6d_phase_space::{sweep, Exec};
        use vlasov6d_poisson::DistPoisson;

        let comm = driver.comm;
        let mut ps = driver.sim.ps.clone();
        let decomp = Decomp3::new(ps.sglobal, [comm.size(), 1, 1]);
        let cart = Cart3::new(comm, decomp);
        let poisson = DistPoisson::new(ps.sglobal, comm.size());
        let mut total = 0.0;
        let mut tag = 1 << 30;
        let mut probe = |rec: &mut Recorder, name: &'static str, f: &mut dyn FnMut(u64)| {
            tag += 64;
            comm.barrier();
            total += rec
                .span(name, |_| {
                    f(tag);
                    comm.barrier();
                })
                .1;
        };

        let mut force = Field3::zeros(ps.sdims);
        for _ in 0..2 {
            probe(rec, "poisson.dist", &mut |tag| {
                let rho = moments::density(&ps);
                let mean =
                    comm.allreduce_sum(rho.sum()) / ps.sglobal.iter().product::<usize>() as f64;
                let source: Vec<f64> = rho.as_slice().iter().map(|v| v - mean).collect();
                force = Field3::from_vec(ps.sdims, poisson.solve(comm, &source, 1.5 / A_INIT, tag));
            });
            let scale = 0.25 / force.max_abs().max(1e-30);
            probe(rec, "sweep.velocity", &mut |_| {
                let mut cfl = force.clone();
                cfl.scale(scale);
                for d in 0..3 {
                    sweep::sweep_velocity(&mut ps, d, &cfl, Scheme::SlMpp5, Exec::Simd);
                }
            });
        }
        let cfl: Vec<f64> = (0..ps.vgrid.n[0])
            .map(|k| 0.4 * ps.vgrid.center(0, k) / ps.vgrid.vmax)
            .collect();
        probe(rec, "sweep.overlapped", &mut |tag| {
            sweep_spatial_overlapped(&mut ps, &cart, 0, &cfl, Scheme::SlMpp5, tag);
        });
        probe(rec, "sweep.spatial", &mut |_| {
            for d in 1..3 {
                sweep::sweep_spatial(&mut ps, d, &cfl, Scheme::SlMpp5, Exec::Simd);
            }
        });
        total
    }
}
