//! The lifecycle every workload goes through, written once:
//!
//! ```text
//! round:  set-up × K  →  step × S  →  checkpoint  →  query × Q  →  step  →  restore  →  step
//! ```
//!
//! A round is a third of the issue's (5 set-ups, 12 steps, 3 checkpoints, 3
//! restores) with one deck of requests, and rounds repeat until the run's
//! time budget is spent. That interleaves the phases in time, so a slow spell on the host
//! lands on a few samples of every metric instead of on all samples of one,
//! and it bounds the run's wall time on a host that has slowed down: a slower
//! host completes fewer rounds, not a longer run. The queries are served from
//! the generation the checkpoint has just committed, while the live state
//! still equals it, so the region oracle can be the in-memory state. The tail
//! of the round doubles as a correctness gate at no extra cost: the step
//! after the restore must reproduce the step before it.

use crate::record::Recorder;
use crate::requests;
use std::time::{Duration, Instant};
use vlasov6d_ckpt::CkptStats;
use vlasov6d_query::{
    CacheStats, JoinWorker, QueryServiceCore, RegionMomentsReply, Request, Response,
};

/// Sample names shared by the lifecycle, the reports and the probes.
pub mod names {
    pub const SETUP: &str = "setup";
    pub const STEP: &str = "step";
    pub const CKPT_WRITE: &str = "ckpt_write";
    pub const CKPT_RESTORE: &str = "ckpt_restore";
    pub const QUERY: &str = "query";
    /// Per-family latencies, in [`crate::requests::DECK`] order.
    pub const QUERY_FAMILY: [&str; 3] = ["query.region", "query.sky", "query.backtrack"];
    /// Seconds per step in the paper's buckets: Vlasov, tree, PM, other.
    pub const BUCKETS: [&str; 4] = ["step.vlasov", "step.tree", "step.pm", "step.other"];
    pub const GHOST: [&str; 2] = ["ghost.hidden", "ghost.exposed"];
    pub const COMM: [&str; 2] = ["comm.bytes", "comm.messages"];
    pub const CKPT_ENCODE: &str = "ckpt.encode";
    pub const CKPT_COMMIT: &str = "ckpt.commit";
    pub const CKPT_FILE_BYTES: &str = "ckpt.file_bytes";
    pub const CKPT_RATIO: &str = "ckpt.ratio";
    /// Decode-cache counters of the root's shard, one sample per round.
    pub const CACHE: [&str; 3] = ["cache.hits", "cache.misses", "cache.evictions"];
}

/// What one round performs, and for how long rounds are started. Inside a
/// round every count is fixed, so a traced run (a fixed number of rounds)
/// repeats its exact counters from run to run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Rounds performed whatever the budget.
    pub min_rounds: usize,
    /// Further rounds are started while less than this has elapsed.
    pub budget: Duration,
    /// Fresh set-ups per round, each timed and dropped.
    pub setups: usize,
    /// Plain steps per round, before the checkpoint; two more follow it.
    pub steps: usize,
    /// Steps at the head of the run whose time is discarded: the process is
    /// cold (page faults on first touch, lazily built plans).
    pub discarded_steps: usize,
    /// Requests per round; none skips the query phase.
    pub requests: usize,
    /// Region replies per round checked against the in-memory oracle.
    pub checked_regions: usize,
}

impl Plan {
    /// A third of the issue's round (5 set-ups, 12 steps, 3 checkpoints, 3
    /// restores), repeated for `budget`: it costs `hybrid16` about eleven
    /// seconds and the other workloads one to three. Latency is a per-layer
    /// metric, so an untraced round serves one deck of requests, enough for
    /// the reply gates; the traced round sets its own count.
    pub fn for_budget(budget: Duration) -> Plan {
        Plan {
            min_rounds: 1,
            budget,
            setups: 2,
            steps: 2,
            discarded_steps: 2,
            requests: 20,
            checked_regions: 10,
        }
    }
}

/// What the driver reports about one step, from its own public telemetry.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepInfo {
    pub buckets: [f64; 4],
    /// Ghost-exchange seconds hidden behind / exposed after the interior
    /// sweep (zero on serial drivers).
    pub ghost: [f64; 2],
    /// Bytes and messages all ranks sent during the step (zero when serial).
    pub comm: [f64; 2],
}

/// A live simulation of one workload (one rank's share, when ranked).
pub trait Driver {
    fn step(&mut self) -> StepInfo;
    /// One committed generation of the full state through the driver's own
    /// checkpoint path.
    fn checkpoint(&mut self) -> Result<CkptStats, String>;
    /// The newest generation back into a live driver.
    fn restore(&mut self) -> Result<(), String>;
    /// Enough of the evolving state (this rank's share) to tell later
    /// whether another state equals it.
    type Mark;
    fn mark(&self) -> Self::Mark;
    /// Does the current state reproduce the marked one? Bit for bit where
    /// the driver's restore path is bitwise; `Err` says what differs.
    fn reproduces(&self, mark: &Self::Mark) -> Result<(), String>;
    /// Steps of trajectory behind the current state (a step redone after a
    /// restore is not counted twice).
    fn net_steps(&self) -> u64;
    /// True once the trajectory has reached the workload's end point;
    /// workloads without one are always finished.
    fn finished(&self) -> bool {
        true
    }
    /// The workload's own answer checks, applied once the lifecycle is over.
    fn gates(&self, _rec: &mut Recorder) {}
}

/// What the root learns from one query phase.
pub struct Served {
    /// One entry per request, in order (empty on non-root ranks).
    pub replies: Vec<Result<Response, String>>,
    /// Decode-cache counters of the root's shard after the phase.
    pub cache: CacheStats,
}

/// Everything around the driver: how to build one, how ranks synchronise,
/// how the snapshot is served.
pub trait Rig {
    type D: Driver;
    /// Construct a driver to "ready for step 1".
    fn build(&self) -> Self::D;
    /// Barrier across the workload's ranks (no-op when serial).
    fn sync(&self);
    /// Logical AND across ranks.
    fn agree(&self, ok: bool) -> bool;
    /// Global spatial dims of the snapshot the query phase serves.
    fn sglobal(&self) -> [usize; 3];
    /// Planes per x-block when region requests are to stay inside one block
    /// of a blocked snapshot (see [`requests::stream`]).
    fn region_x_block(&self) -> Option<usize> {
        None
    }
    /// Prepare the snapshot the query phase serves, when it is not simply
    /// the generation the driver has just committed. Collective.
    fn snapshot(&self, _driver: &mut Self::D, _rec: &mut Recorder) {}
    /// The reply the in-memory state gives to a region request, folded in
    /// the service's order. `Some` on the root rank only. Collective.
    fn region_oracle(
        &self,
        driver: &Self::D,
        lo: [usize; 3],
        hi: [usize; 3],
    ) -> Option<RegionMomentsReply>;
    /// Serve `requests` from the snapshot: the root drives one closed-loop
    /// client through the service (see [`closed_loop`]), the other ranks
    /// serve their shard until the root is done. Collective.
    fn serve(&self, requests: &[Request], untimed: usize, rec: &mut Recorder) -> Served;
    /// Replay one Strang step out of the layers' public entry points, each
    /// call under a span of the benchmark's own, on a copy of the live state.
    /// Returns the summed seconds: divided by `step_s` it is the closure of
    /// the layer account (1 when the probes explain the whole step).
    /// Collective.
    fn replay_step(&self, driver: &Self::D, rec: &mut Recorder) -> f64;
}

/// FNV-1a over the bit patterns of `values`, continuing from `hash`.
pub fn fingerprint_f32(hash: u64, values: &[f32]) -> u64 {
    values.iter().fold(hash, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub const FINGERPRINT_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// One closed-loop client: the next request is submitted only after the
/// previous reply has returned. Latency is submit → `Ticket::wait` returns;
/// the first `untimed` requests warm the snapshot up and are not sampled.
pub fn closed_loop<H: JoinWorker>(
    service: &QueryServiceCore<H>,
    requests: &[Request],
    untimed: usize,
    rec: &mut Recorder,
) -> Vec<Result<Response, String>> {
    requests
        .iter()
        .enumerate()
        .map(|(i, request)| {
            let ask = || service.submit(request.clone()).wait();
            let reply = if i < untimed {
                ask()
            } else {
                let family = match request {
                    Request::RegionMoments { .. } => names::QUERY_FAMILY[0],
                    Request::SkyMap { .. } => names::QUERY_FAMILY[1],
                    Request::Backtrack { .. } => names::QUERY_FAMILY[2],
                };
                // A failed request gets no latency: it counts as missing
                // every percentile.
                let (reply, secs) = rec.span(family, |_| ask());
                if reply.is_ok() {
                    rec.push(family, secs);
                    rec.push(names::QUERY, secs);
                }
                reply
            };
            reply.map_err(|e| e.to_string())
        })
        .collect()
}

/// Time one collective operation barrier to barrier.
fn timed<R: Rig, T>(rig: &R, rec: &mut Recorder, name: &'static str, f: impl FnOnce() -> T) -> T {
    rig.sync();
    rec.time(name, |_| {
        let out = f();
        rig.sync();
        out
    })
}

/// [`timed`] for an operation that can fail: it is counted either way, and
/// leaves a sample only when it succeeded on every rank — a failure is
/// counted, never timed.
fn timed_attempt<R: Rig, T>(
    rig: &R,
    rec: &mut Recorder,
    name: &'static str,
    f: impl FnOnce() -> Result<T, String>,
) -> Option<T> {
    rig.sync();
    let (result, secs) = rec.span(name, |_| {
        let out = f();
        rig.sync();
        out
    });
    let everywhere = rig.agree(result.is_ok());
    let out = rec.attempt(name, result);
    if everywhere {
        rec.push(name, secs);
    }
    out
}

fn step<R: Rig>(rig: &R, driver: &mut R::D, rec: &mut Recorder, discard: bool) {
    rec.attempted += 1;
    if discard {
        driver.step();
        return;
    }
    let info = timed(rig, rec, names::STEP, || driver.step());
    let reported = (names::BUCKETS.iter().zip(info.buckets))
        .chain(names::GHOST.iter().zip(info.ghost))
        .chain(names::COMM.iter().zip(info.comm));
    for (name, value) in reported {
        rec.push(name, value);
    }
}

fn checkpoint<R: Rig>(rig: &R, driver: &mut R::D, rec: &mut Recorder) {
    if let Some(stats) = timed_attempt(rig, rec, names::CKPT_WRITE, || driver.checkpoint()) {
        rec.push(names::CKPT_ENCODE, stats.encode_secs);
        rec.push(names::CKPT_COMMIT, stats.write_secs);
        rec.push(names::CKPT_FILE_BYTES, stats.file_bytes as f64);
        rec.push(names::CKPT_RATIO, stats.compression_ratio());
    }
}

fn query_phase<R: Rig>(rig: &R, driver: &mut R::D, rec: &mut Recorder, plan: &Plan, seed: u64) {
    rig.snapshot(driver, rec);
    let mut requests = requests::warmup(rig.sglobal());
    let untimed = requests.len();
    requests.extend(requests::stream(
        seed,
        rig.sglobal(),
        plan.requests,
        rig.region_x_block(),
    ));

    // The oracle is collective, so every rank walks the same request list.
    let expected: Vec<(usize, Option<RegionMomentsReply>)> = requests
        .iter()
        .enumerate()
        .skip(untimed)
        .filter_map(|(i, r)| match r {
            Request::RegionMoments { lo, hi } => Some((i, *lo, *hi)),
            _ => None,
        })
        .take(plan.checked_regions)
        .map(|(i, lo, hi)| (i, rig.region_oracle(driver, lo, hi)))
        .collect();

    let served = rig.serve(&requests, untimed, rec);
    for (i, reply) in served.replies.iter().enumerate() {
        rec.attempt(&format!("request {i}"), reply.clone().map(|_| ()));
    }
    for (i, want) in expected {
        let (Some(want), Some(Ok(got))) = (want, served.replies.get(i)) else {
            continue;
        };
        rec.gate(
            "region reply equals the in-memory oracle",
            *got == Response::RegionMoments(want),
            || format!("request {i}: {got:?} vs {want:?}"),
        );
    }
    for (name, count) in names::CACHE.iter().zip([
        served.cache.hits,
        served.cache.misses,
        served.cache.evictions,
    ]) {
        rec.push(name, count as f64);
    }
}

/// Run `plan` on `rig`, leaving samples and counts in `rec`, and apply the
/// workload's own gates to the final state.
pub fn run<R: Rig>(rig: &R, plan: &Plan, seed: u64, rec: &mut Recorder) -> R::D {
    let started = Instant::now();
    let mut driver = rig.build();
    let mut to_discard = plan.discarded_steps;
    let mut discard = || {
        let cold = to_discard > 0;
        to_discard = to_discard.saturating_sub(1);
        cold
    };
    let mut round = 0;
    // Every rank must take the same number of rounds: another is started
    // only while every rank's clock still allows it.
    while rig.agree(round < plan.min_rounds || started.elapsed() < plan.budget) {
        for _ in 0..plan.setups {
            rec.attempted += 1;
            drop(timed(rig, rec, names::SETUP, || rig.build()));
        }
        for _ in 0..plan.steps {
            step(rig, &mut driver, rec, discard());
        }
        checkpoint(rig, &mut driver, rec);
        if plan.requests > 0 {
            query_phase(rig, &mut driver, rec, plan, seed.wrapping_add(round as u64));
        }
        // checkpoint → step → restore → step: the two steps must agree.
        step(rig, &mut driver, rec, discard());
        let uninterrupted = driver.mark();
        timed_attempt(rig, rec, names::CKPT_RESTORE, || driver.restore());
        step(rig, &mut driver, rec, discard());
        let outcome = driver.reproduces(&uninterrupted);
        let same = rig.agree(outcome.is_ok());
        rec.gate("restore-then-step equals uninterrupted", same, || {
            outcome
                .err()
                .unwrap_or_else(|| "another rank differs".into())
        });
        round += 1;
    }
    // A trajectory with an end point is always run to it, budget or not.
    while !driver.finished() {
        step(rig, &mut driver, rec, false);
    }
    driver.gates(rec);
    driver
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A driver that counts: its state is the number of net steps.
    struct Counter {
        steps: u64,
        saved: u64,
    }

    impl Driver for Counter {
        type Mark = u64;

        fn step(&mut self) -> StepInfo {
            self.steps += 1;
            StepInfo::default()
        }

        fn checkpoint(&mut self) -> Result<CkptStats, String> {
            self.saved = self.steps;
            Err("the counter has no store".into())
        }

        fn restore(&mut self) -> Result<(), String> {
            self.steps = self.saved;
            Ok(())
        }

        fn mark(&self) -> u64 {
            self.steps
        }

        fn reproduces(&self, mark: &u64) -> Result<(), String> {
            (self.steps == *mark).then_some(()).ok_or("differs".into())
        }

        fn net_steps(&self) -> u64 {
            self.steps
        }
    }

    #[derive(Default)]
    struct CounterRig {
        builds: Cell<usize>,
    }

    impl Rig for CounterRig {
        type D = Counter;

        fn build(&self) -> Counter {
            self.builds.set(self.builds.get() + 1);
            Counter { steps: 0, saved: 0 }
        }

        fn sync(&self) {}

        fn agree(&self, ok: bool) -> bool {
            ok
        }

        fn sglobal(&self) -> [usize; 3] {
            [8; 3]
        }

        fn region_oracle(
            &self,
            _: &Counter,
            _: [usize; 3],
            _: [usize; 3],
        ) -> Option<RegionMomentsReply> {
            None
        }

        fn serve(&self, requests: &[Request], _: usize, _: &mut Recorder) -> Served {
            Served {
                replies: requests
                    .iter()
                    .map(|_| Err("nobody serves".into()))
                    .collect(),
                cache: CacheStats::default(),
            }
        }

        fn replay_step(&self, _: &Counter, _: &mut Recorder) -> f64 {
            0.0
        }
    }

    const PLAN: Plan = Plan {
        min_rounds: 2,
        budget: Duration::ZERO,
        setups: 3,
        steps: 4,
        discarded_steps: 2,
        requests: 0,
        checked_regions: 0,
    };

    #[test]
    fn the_first_steps_of_a_run_are_taken_but_not_sampled() {
        let rig = CounterRig::default();
        let mut rec = Recorder::new(true, false);
        let driver = run(&rig, &PLAN, 1, &mut rec);
        // Per round: 4 plain steps and 2 around the restore, which net one;
        // the first 2 of the run are unsampled.
        assert_eq!(rec.get(names::STEP).len(), 2 * 6 - 2);
        assert_eq!(driver.net_steps(), 2 * (4 + 1));
        assert_eq!(rec.get(names::SETUP).len(), 2 * 3);
        assert_eq!(rig.builds.get(), 1 + 2 * 3);
        assert_eq!(rec.get(names::CKPT_RESTORE).len(), 2);
    }

    #[test]
    fn failed_operations_are_counted_not_timed_and_the_gate_holds() {
        let rig = CounterRig::default();
        let mut rec = Recorder::new(true, false);
        run(&rig, &PLAN, 1, &mut rec);
        // Every checkpoint fails; restores and gates pass.
        assert_eq!(rec.failed, 2);
        assert!(rec.get(names::CKPT_WRITE).is_empty());
        let steps = 2 * 6;
        let setups = 2 * 3;
        let io = 2 * 3; // per round: checkpoint, restore, gate
        assert_eq!(rec.attempted, steps + setups + io);
    }

    #[test]
    fn rounds_repeat_until_the_budget_is_spent() {
        let rig = CounterRig::default();
        let mut rec = Recorder::new(true, false);
        let plan = Plan {
            min_rounds: 1,
            budget: Duration::from_millis(30),
            ..PLAN
        };
        let started = Instant::now();
        let driver = run(&rig, &plan, 1, &mut rec);
        assert!(started.elapsed() >= Duration::from_millis(30));
        assert!(driver.net_steps() > 5, "only {} steps", driver.net_steps());
        assert_eq!(driver.net_steps() % 5, 0, "a round was cut short");
    }

    #[test]
    fn refused_requests_count_as_failures_and_carry_no_latency() {
        let rig = CounterRig::default();
        let mut rec = Recorder::new(true, false);
        let plan = Plan {
            min_rounds: 1,
            setups: 0,
            steps: 0,
            requests: 20,
            ..PLAN
        };
        run(&rig, &plan, 1, &mut rec);
        // Every request fails; the rest of the round attempts five
        // operations and fails its write.
        let asked = requests::warmup([8; 3]).len() as u64 + 20;
        assert_eq!((rec.attempted, rec.failed), (5 + asked, 1 + asked));
        assert!(rec.get(names::QUERY).is_empty());
    }
}
