//! One run of one workload: the lifecycle under the right pool and rank
//! configuration, the workload's own gates, and the metrics made from the
//! samples.
//!
//! `rayon::with_num_threads` takes a process-wide lock, so calling it inside
//! `Universe::run` deadlocks one rank against another's barrier. Every call
//! here wraps a whole `Universe::run` from outside, once.

use crate::layers;
use crate::lifecycle::{self, names, Driver, Plan, Rig};
use crate::record::Recorder;
use crate::stats::{highest_percentile, median, percentile, pooled_percentile, STEP_PERCENTILE};
use crate::workloads::hybrid::{self, HybridRig};
use crate::workloads::plasma::{self, PlasmaRig};
use crate::workloads::ranked::{self, RankedRig};
use crate::workloads::{scratch_root, Scratch, Size, Workload, RANKS, THREADS};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;
use vlasov6d_ckpt::CheckpointStore;
use vlasov6d_mpisim::Universe;
use vlasov6d_phase_space::exchange::{ghost_exchange_plan, GHOST_WIDTH};

/// Steps of the `dist2` trajectory compared against the one-rank run.
const REFERENCE_STEPS: usize = 2;
/// Replays of one step behind `core.closure`.
const REPLAYS: usize = 3;
/// Lifecycle rounds of the traced run — together the issue's round: 6
/// set-ups, 12 steps, 3 checkpoints, 3 restores — and the requests of each.
/// 900 latencies is the smallest pool whose p90 is the highest percentile
/// with ten samples beyond it; its p99 has nine and is reported for
/// information.
const TRACED_ROUNDS: usize = 3;
const TRACED_REQUESTS: usize = 300;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub size: Size,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// `(name, value)` in the order of [`crate::metrics`].
    pub metrics: Vec<(&'static str, f64)>,
    /// Raw samples by name, for pooling across rounds of a full benchmark.
    pub samples: BTreeMap<String, Vec<f64>>,
}

/// What the lifecycle leaves behind besides the recorder.
struct Extra {
    /// Phase-space cells one step updates (all ranks).
    cells: usize,
    /// Decoded bytes of one snapshot block.
    block_bytes: usize,
    net_steps: u64,
    ghost_bytes_per_step: f64,
    /// Summed probe seconds of one replayed step (traced runs).
    replay_secs: f64,
}

/// The lifecycle on `rig`, then the replayed step when asked for.
fn drive<R: Rig>(rig: &R, plan: &Plan, seed: u64, replay: bool, rec: &mut Recorder) -> (u64, f64) {
    let driver = lifecycle::run(rig, plan, seed, rec);
    // One replay is one sample of a noisy host; the closure uses the median.
    let replays: Vec<f64> = (0..if replay { REPLAYS } else { 0 })
        .map(|_| rig.replay_step(&driver, rec))
        .collect();
    (driver.net_steps(), median(&replays).unwrap_or(0.0))
}

/// Run the lifecycle of `args.workload` into `rec`. `replay` adds the
/// replayed step; `to_solution` lets the plasma trajectory run to its end.
fn execute(
    args: &Args,
    plan: &Plan,
    scratch: &Path,
    replay: bool,
    to_solution: bool,
    rec: &mut Recorder,
) -> Extra {
    let (seed, size) = (args.seed, args.size);
    let store = CheckpointStore::new(scratch.join("ckpt"));
    match args.workload {
        Workload::Hybrid16 => rayon::with_num_threads(THREADS, || {
            let config = hybrid::config(size);
            let cells = config.n_phase_space();
            let (net_steps, replay_secs) =
                drive(&HybridRig { config, store }, plan, seed, replay, rec);
            Extra {
                cells,
                block_bytes: cells * 4,
                net_steps,
                ghost_bytes_per_step: 0.0,
                replay_secs,
            }
        }),
        Workload::PlasmaTwoStream => rayon::with_num_threads(THREADS, || {
            let scenario = Arc::new(plasma::scenario(size));
            let cells = scenario.grid.sdims.iter().product::<usize>() * scenario.grid.vgrid.len();
            let rig = PlasmaRig {
                scenario,
                store,
                to_solution: to_solution && size == Size::Full,
            };
            let (net_steps, replay_secs) = drive(&rig, plan, seed, replay, rec);
            Extra {
                cells,
                block_bytes: cells * 4,
                net_steps,
                ghost_bytes_per_step: 0.0,
                replay_secs,
            }
        }),
        Workload::Dist2 | Workload::QueryEvict => {
            let sglobal = ranked::sglobal(size);
            let evict = args.workload == Workload::QueryEvict;
            let blocks = evict.then(|| CheckpointStore::new(scratch.join("blocks")));
            let tracing = rec.traced();
            let parent: &Recorder = rec;
            let per_rank = rayon::with_num_threads(1, || {
                Universe::run(RANKS, |comm| {
                    let rig = RankedRig {
                        comm,
                        sglobal,
                        store: store.clone(),
                        blocks: blocks.clone(),
                        tracing,
                    };
                    let mut rec = parent.fork(comm.rank() == 0);
                    let (net_steps, replay_secs) = drive(&rig, plan, seed, replay, &mut rec);
                    // The head of the trajectory again, for the comparison
                    // against the one-rank run below.
                    let reference = (!evict).then(|| {
                        let mut fresh = rig.build();
                        for _ in 0..REFERENCE_STEPS {
                            fresh.step();
                        }
                        fresh.fingerprint()
                    });
                    (rec, net_steps, replay_secs, reference)
                })
            });
            let slabs: Vec<Option<u64>> = per_rank.iter().map(|r| r.3).collect();
            let (net_steps, replay_secs) = (per_rank[0].1, per_rank[0].2);
            // Samples and spans are the root's (the other recorders keep
            // none); operations and failures are counted on every rank, so a
            // peer that fails alone still fails the run.
            for (local, ..) in per_rank {
                rec.absorb(local);
            }
            if !evict {
                let serial = one_rank_slabs(sglobal);
                let same = slabs.iter().copied().eq(serial.iter().copied().map(Some));
                rec.gate("two ranks reproduce the one-rank run", same, || {
                    format!("slab fingerprints {slabs:x?} vs {serial:x?}")
                });
            }
            let vlen = ranked::vgrid().len();
            let decomp = vlasov6d_mesh::Decomp3::new(sglobal, [RANKS, 1, 1]);
            let ghost_bytes: u64 = ghost_exchange_plan(&decomp, vlen, 0, GHOST_WIDTH, 0)
                .send_edges()
                .iter()
                .map(|edge| edge.3)
                .sum();
            let cells = sglobal.iter().product::<usize>() * vlen;
            Extra {
                cells,
                block_bytes: cells * 4 / RANKS / if evict { ranked::EVICT_BLOCKS } else { 1 },
                net_steps,
                ghost_bytes_per_step: ghost_bytes as f64,
                replay_secs,
            }
        }
    }
}

/// The `dist2` problem on one rank × [`THREADS`] threads for
/// [`REFERENCE_STEPS`] steps: the fingerprint of each x-slab a rank of the
/// two-rank run would own.
fn one_rank_slabs(sglobal: [usize; 3]) -> Vec<u64> {
    let mut out = rayon::with_num_threads(THREADS, || {
        Universe::run(1, |comm| {
            let mut driver = RankedRig::stepping_only(comm, sglobal).build();
            for _ in 0..REFERENCE_STEPS {
                driver.step();
            }
            let f = driver.sim.ps.as_slice();
            f.chunks_exact(f.len() / RANKS)
                .map(|slab| lifecycle::fingerprint_f32(lifecycle::FINGERPRINT_SEED, slab))
                .collect::<Vec<u64>>()
        })
    });
    out.swap_remove(0)
}

/// Median of a sample pool; NaN when nothing was sampled, which [`run`]
/// refuses to report.
fn med(rec: &Recorder, name: &str) -> f64 {
    median(rec.get(name)).unwrap_or(f64::NAN)
}

fn sum(rec: &Recorder, name: &str) -> f64 {
    rec.get(name).iter().sum()
}

/// `step_s` of one pool of step samples: its lower quartile (see
/// [`STEP_PERCENTILE`]); NaN for an empty pool, like [`med`].
fn step_time(rec: &Recorder) -> f64 {
    percentile(rec.get(names::STEP), STEP_PERCENTILE).unwrap_or(f64::NAN)
}

/// The end-to-end metrics from the samples pooled over `rounds` — one map
/// per child of a full benchmark, or the single map of one run, whose
/// lifecycle rounds are pooled already. `setup_s` is the median of its pool,
/// `step_s` the lower quartile. A metric without samples is an error, not a
/// zero: every operation behind it failed.
pub fn end_to_end(
    rounds: &[&BTreeMap<String, Vec<f64>>],
    peak_heap_mib: f64,
) -> Result<Vec<(&'static str, f64)>, String> {
    let pooled = |name: &str, pct: usize| {
        let pools: Vec<&[f64]> = rounds
            .iter()
            .filter_map(|samples| samples.get(name).map(Vec::as_slice))
            .collect();
        pooled_percentile(&pools, pct)
            .ok_or_else(|| format!("no successful operation left a {name} sample"))
    };
    Ok(vec![
        ("setup_s", pooled(names::SETUP, 50)?),
        ("step_s", pooled(names::STEP, STEP_PERCENTILE)?),
        ("peak_heap_mb", peak_heap_mib),
    ])
}

/// The per-layer metrics that come out of the traced lifecycle itself.
fn lifecycle_layers(rec: &Recorder, untraced_step_s: f64, extra: &Extra) -> layers::Values {
    let step_s = step_time(rec);
    let buckets: Vec<f64> = names::BUCKETS.iter().map(|b| sum(rec, b)).collect();
    let bucket_total: f64 = buckets.iter().sum::<f64>().max(f64::MIN_POSITIVE);
    let share = |i: usize| 100.0 * buckets[i] / bucket_total;
    let [hits, misses, evictions] = names::CACHE.map(|c| sum(rec, c));
    let family = |i: usize| med(rec, names::QUERY_FAMILY[i]) * 1e3;
    let served = rec.get(names::QUERY);
    // A percentile is reported only with ten samples beyond it.
    let latency = |pct: usize| {
        let carried = highest_percentile(served.len()) >= Some(pct);
        percentile(served, pct)
            .filter(|_| carried)
            .unwrap_or(f64::NAN)
            * 1e3
    };
    vec![
        ("core.step.vlasov_share", share(0)),
        ("core.step.tree_share", share(1)),
        ("core.step.pm_share", share(2)),
        ("core.step.other_share", share(3)),
        ("core.mcells_per_s", extra.cells as f64 / 1e6 / step_s),
        ("core.steps_to_solution", extra.net_steps as f64),
        ("core.tts_s", med(rec, names::SETUP) + sum(rec, names::STEP)),
        ("core.closure", extra.replay_secs / step_s),
        (
            "phase_space.ghost.bytes_per_step",
            extra.ghost_bytes_per_step,
        ),
        ("phase_space.ghost.hidden_s", med(rec, names::GHOST[0])),
        ("phase_space.ghost.exposed_s", med(rec, names::GHOST[1])),
        ("mpisim.bytes_per_step", med(rec, names::COMM[0])),
        ("mpisim.messages_per_step", med(rec, names::COMM[1])),
        ("ckpt.write_s", med(rec, names::CKPT_WRITE)),
        ("ckpt.restore_s", med(rec, names::CKPT_RESTORE)),
        ("ckpt.write.encode_s", med(rec, names::CKPT_ENCODE)),
        ("ckpt.write.commit_s", med(rec, names::CKPT_COMMIT)),
        ("ckpt.compression_ratio", med(rec, names::CKPT_RATIO)),
        ("ckpt.file_mb", med(rec, names::CKPT_FILE_BYTES) / 1e6),
        ("query.p50_ms", latency(50)),
        ("query.p90_ms", latency(90)),
        ("query.region.p50_ms", family(0)),
        ("query.sky.p50_ms", family(1)),
        ("query.backtrack.p50_ms", family(2)),
        ("query.cache.hit_ratio", hits / (hits + misses).max(1.0)),
        ("query.cache.evictions", evictions),
        ("query.decoded_mb", misses * extra.block_bytes as f64 / 1e6),
        (
            "query.p99_ms",
            percentile(served, 99).unwrap_or(f64::NAN) * 1e3,
        ),
        (
            "query.rps",
            served.len() as f64 / served.iter().sum::<f64>().max(f64::MIN_POSITIVE),
        ),
        (
            "obs.trace_overhead_pct",
            100.0 * (step_s / untraced_step_s - 1.0),
        ),
    ]
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let scratch = Scratch::new(&scratch_root(), args.workload.name());
    let mut rec = Recorder::new(true, args.trace);

    if !args.trace {
        let budget = Duration::from_secs(args.seconds);
        let plan = Plan::for_budget(budget);
        execute(args, &plan, scratch.path(), false, true, &mut rec);
        let mut out = outcome(rec, Vec::new());
        out.metrics = end_to_end(&[&out.samples], crate::heap::peak_mib())
            .map_err(|e| format!("{e} ({})", out.failures.join("; ")))?;
        return Ok(out);
    }

    // The traced run: a fixed number of rounds of the same lifecycle under
    // the benchmark's spans (and the driver's own tracing where it has one),
    // so its exact counters repeat; a short untraced stretch in the now warm
    // process to price the tracing; then the probes. `--seconds` does not
    // stretch it.
    let plan = match args.size {
        Size::Full => Plan {
            min_rounds: TRACED_ROUNDS,
            requests: TRACED_REQUESTS,
            ..Plan::for_budget(Duration::ZERO)
        },
        Size::Quick => Plan {
            requests: 100,
            ..Plan::for_budget(Duration::ZERO)
        },
    };
    let extra = execute(args, &plan, scratch.path(), true, true, &mut rec);
    let mut untraced = Recorder::new(true, false);
    let steps_only = Plan {
        min_rounds: 1,
        setups: 0,
        discarded_steps: 0,
        requests: 0,
        ..plan
    };
    execute(
        args,
        &steps_only,
        scratch.path(),
        false,
        false,
        &mut untraced,
    );
    let mut values = lifecycle_layers(&rec, step_time(&untraced), &extra);
    // Only the untraced stretch's operation counts belong in the result.
    untraced.samples.clear();
    rec.absorb(untraced);

    values.extend(layers::run(&mut rec, args.size, scratch.path()));
    let spans = scratch_root().join(format!("spans-{}.jsonl", args.workload.name()));
    if let Err(e) = rec.write_spans(&spans) {
        eprintln!("bench: cannot write {}: {e}", spans.display());
    }
    // Report in the registry's order; a metric no probe produced is a bug.
    let metrics: Vec<(&'static str, f64)> = crate::metrics::PER_LAYER
        .iter()
        .map(|m| {
            let value = values.iter().find(|(name, _)| *name == m.name);
            (
                m.name,
                value
                    .unwrap_or_else(|| panic!("no probe reports {}", m.name))
                    .1,
            )
        })
        .collect();
    // A metric whose every sample was lost to failed operations has no
    // value, and a made-up one would read as a result.
    if let Some((name, _)) = metrics.iter().find(|(_, value)| !value.is_finite()) {
        return Err(format!(
            "{name} has no value: no operation behind it succeeded ({})",
            rec.failures.join("; ")
        ));
    }
    Ok(outcome(rec, metrics))
}

fn outcome(rec: Recorder, metrics: Vec<(&'static str, f64)>) -> Outcome {
    Outcome {
        attempted: rec.attempted,
        failed: rec.failed,
        failures: rec.failures,
        metrics,
        samples: rec
            .samples
            .into_iter()
            .map(|(name, values)| (name.to_string(), values))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_metric_without_samples_is_an_error_not_a_zero() {
        let mut samples = BTreeMap::from([("setup".to_string(), vec![1.0])]);
        let missing = end_to_end(&[&samples], 1.0).unwrap_err();
        assert!(missing.contains("step"), "{missing}");
        samples.insert("step".to_string(), vec![2.0, 4.0, 3.0, 5.0]);
        let metrics = end_to_end(&[&samples, &samples], 1.0).expect("every pool has samples");
        // The lower quartile of the eight pooled steps, the median of the
        // two pooled set-ups.
        assert_eq!(metrics[0], ("setup_s", 1.0));
        assert_eq!(metrics[1], ("step_s", 2.0));
        assert_eq!(metrics.len(), crate::metrics::END_TO_END.len());
    }
}
