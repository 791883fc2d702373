//! Cross-rank flight recorder + critical-path profiler, end to end.
//!
//! The structural bars from the tracing PR: on a 4-rank overlapped run
//! every recv edge must match exactly one send edge (stitched DAG acyclic,
//! nothing unmatched, nothing dropped), trace JSONL lines must round-trip,
//! and the trace's exposed-comm figure must agree with the span tree's
//! `RunReport::comm_overlap()`. Also exports the Chrome trace that CI uploads
//! as an artifact. The wall-clock bars (critical path tiles the trace wall
//! and lands within 5% of the measured step wall) are timing gates and live
//! in `cargo xtask perf-gate` (`path_cover`, `path_vs_wall_pct`).

#![allow(
    clippy::disallowed_methods,
    reason = "exports the Chrome trace as a CI artifact, not simulation state"
)]

use proptest::prelude::*;
use vlasov6d::dist_sim::{DistributedVlasov, OverlapPolicy};
use vlasov6d_cosmology::{Background, CosmologyParams};
use vlasov6d_mesh::Decomp3;
use vlasov6d_mpisim::Universe;
use vlasov6d_obs::trace::{RankStepTrace, TraceEvent, TraceEventKind, TraceReport, TraceSet};
use vlasov6d_obs::{Bucket, Json, RunReport};
use vlasov6d_phase_space::{PhaseSpace, VelocityGrid};

fn fill(s: [usize; 3], u: [f64; 3]) -> f64 {
    let sx = (s[0] as f64 * 0.55).sin() + (s[1] as f64 * 0.35).cos() + (s[2] as f64 * 0.75).sin();
    0.002 * (2.5 + sx) * (-(u[0] * u[0] + u[1] * u[1] + u[2] * u[2]) / 0.03).exp()
}

const RANKS: usize = 4;
const STEPS: usize = 2;

/// One traced 4-rank overlapped run: the merged step events and trace lines.
fn traced_run() -> (RunReport, TraceSet) {
    // 24 planes over 4 ranks = 6 per rank = 2 × GHOST_WIDTH, the minimum
    // for the genuinely overlapped (split-phase) drift pipeline.
    let sglobal = [24usize, 8, 8];
    let vg = VelocityGrid::cubic(8, 0.6);
    let per_rank = Universe::run(RANKS, move |comm| {
        let decomp = Decomp3::new(sglobal, [comm.size(), 1, 1]);
        let off = decomp.local_offset(comm.rank());
        let dims = decomp.local_dims(comm.rank());
        let mut local = PhaseSpace::zeros_block(dims, off, sglobal, vg);
        local.fill_with(fill);
        let bg = Background::new(CosmologyParams::planck2015());
        let mut sim = DistributedVlasov::new(comm, local, bg, 0.2, 1.0)
            .with_overlap(OverlapPolicy::Overlapped)
            .with_tracing(1 << 16);
        let mut events = Vec::new();
        for _ in 0..STEPS {
            let (_, dt, telemetry) = sim.step_traced(comm);
            events.push((sim.step_event(comm, dt, &telemetry, None), telemetry.trace));
        }
        events
    });
    let mut report = RunReport::new();
    let mut traces = TraceSet::new();
    for (event, trace) in per_rank.into_iter().flatten() {
        report.add(event);
        let trace = trace.expect("tracing enabled: every step drains a trace");
        // Round-trip every line through the JSONL codec on the way in.
        let line = trace.to_jsonl();
        let back = RankStepTrace::parse(&line).expect("trace line parses back");
        assert_eq!(back, trace, "trace JSONL round-trip must be lossless");
        traces.add(back);
    }
    (report, traces)
}

#[test]
fn four_rank_overlapped_run_traces_stitch() {
    let (report, traces) = traced_run();
    assert_eq!(traces.len(), RANKS * STEPS);
    assert_eq!(traces.total_dropped(), 0, "ring capacity must hold a step");

    let trace_report = TraceReport::from_set(&traces);
    assert_eq!(trace_report.steps, STEPS);
    assert_eq!(trace_report.unmatched_edges, 0);

    for step in traces.steps() {
        let dag = traces.stitch(step).expect("step present");
        assert_eq!(dag.unmatched_sends, 0, "step {step}: every send matched");
        assert_eq!(dag.unmatched_recvs, 0, "step {step}: every recv matched");
        dag.check_acyclic()
            .unwrap_or_else(|e| panic!("step {step}: {e}"));
    }

    // The trace's exposed-comm figure must agree with the span tree's: both
    // sum the same per-span elapsed values, so only summation order differs.
    let tree = report.comm_overlap();
    let denom = tree
        .exposed
        .max(trace_report.exposed_span_total)
        .max(1e-300);
    assert!(
        (tree.exposed - trace_report.exposed_span_total).abs() / denom < 1e-6,
        "exposed comm: span tree {:.9} s vs trace {:.9} s",
        tree.exposed,
        trace_report.exposed_span_total
    );
    assert!(
        (tree.hidden - trace_report.hidden_span_total).abs() / tree.hidden.max(1e-300) < 1e-6,
        "hidden comm: span tree {:.9} s vs trace {:.9} s",
        tree.hidden,
        trace_report.hidden_span_total
    );

    // The overlapped pipeline must put real overlap on record, and the
    // report must attribute the dominant sweeps.
    assert!(tree.hidden > 0.0, "overlapped run recorded no hidden comm");
    let text = trace_report.render();
    assert!(text.contains("blame ranking"));
    assert!(text.contains("sweep."), "blame table names the sweep spans");

    // Export the Perfetto/Chrome timeline for the CI artifact. Tests run
    // with the package as cwd, so anchor the path at the workspace root.
    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target")
        .join("trace-artifacts");
    std::fs::create_dir_all(&out_dir).expect("create artifact dir");
    let out = out_dir.join("chrome-trace-4rank.json");
    let chrome = traces.chrome_trace();
    let parsed = Json::parse(&chrome).expect("chrome trace is valid JSON");
    assert!(!parsed
        .get("traceEvents")
        .as_arr()
        .expect("traceEvents array")
        .is_empty());
    std::fs::write(&out, chrome + "\n").expect("write chrome trace artifact");
}

// ---------------------------------------------------------------------------
// Property tests over synthetic traces
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Msg {
    src: usize,
    dst: usize,
    tag: u64,
    bytes: u64,
}

fn msg_strategy(ranks: usize) -> impl Strategy<Value = Msg> {
    (0..ranks, 0..ranks.max(2) - 1, 0u64..4, 1u64..4096).prop_map(move |(src, d, tag, bytes)| {
        // Map `d` over 0..ranks-1 skipping `src`, so src != dst always.
        let dst = if d >= src { d + 1 } else { d };
        Msg {
            src,
            dst: dst % ranks,
            tag,
            bytes,
        }
    })
}

/// Build per-rank traces from a message list and barrier count. Send times
/// increase with message index and each recv completes just after its send,
/// so per-(src,dst,tag) FIFO order in the timelines mirrors the emission
/// order — the same invariant the real runtime guarantees.
fn synthetic_traces(ranks: usize, msgs: &[Msg], barriers: usize) -> TraceSet {
    let mut per_rank: Vec<Vec<TraceEvent>> = vec![Vec::new(); ranks];
    for (i, m) in msgs.iter().enumerate() {
        let t = i as f64 * 0.01;
        per_rank[m.src].push(TraceEvent {
            t0: t,
            t1: t,
            kind: TraceEventKind::Send {
                peer: m.dst,
                tag: m.tag,
                bytes: m.bytes,
            },
        });
        per_rank[m.dst].push(TraceEvent {
            t0: t - 0.003,
            t1: t + 0.005,
            kind: TraceEventKind::Recv {
                peer: m.src,
                tag: m.tag,
                bytes: m.bytes,
            },
        });
    }
    let base = msgs.len() as f64 * 0.01 + 1.0;
    for b in 0..barriers {
        let open = base + b as f64 * 0.1;
        // Ranks enter at staggered times; all leave when the last arrives.
        let release = open + ranks as f64 * 0.01;
        for (rank, evs) in per_rank.iter_mut().enumerate() {
            evs.push(TraceEvent {
                t0: open + rank as f64 * 0.01,
                t1: release,
                kind: TraceEventKind::Barrier,
            });
        }
    }
    let mut set = TraceSet::new();
    for (rank, events) in per_rank.into_iter().enumerate() {
        set.add(RankStepTrace {
            step: 1,
            rank,
            dropped: 0,
            events,
        });
    }
    set
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every recv edge matches exactly one send edge, and the stitched
    /// happens-before DAG is acyclic — for arbitrary message patterns
    /// (including heavy tag reuse) and barrier counts.
    #[test]
    fn every_recv_matches_exactly_one_send_and_dag_is_acyclic(
        ranks in 2usize..5,
        msgs in prop::collection::vec(msg_strategy(4), 0..40),
        barriers in 0usize..3,
    ) {
        let msgs: Vec<Msg> = msgs
            .into_iter()
            .map(|m| Msg { src: m.src % ranks, dst: m.dst % ranks, ..m })
            .filter(|m| m.src != m.dst)
            .collect();
        let set = synthetic_traces(ranks, &msgs, barriers);
        let dag = set.stitch(1).expect("step 1 present");

        prop_assert_eq!(dag.matches.len(), msgs.len());
        prop_assert_eq!(dag.unmatched_sends, 0);
        prop_assert_eq!(dag.unmatched_recvs, 0);
        // Exactly-one: no send and no recv event is used by two matches.
        let mut send_slots: Vec<(usize, usize)> =
            dag.matches.iter().map(|m| (m.src, m.send_idx)).collect();
        let mut recv_slots: Vec<(usize, usize)> =
            dag.matches.iter().map(|m| (m.dst, m.recv_idx)).collect();
        send_slots.sort_unstable();
        send_slots.dedup();
        recv_slots.sort_unstable();
        recv_slots.dedup();
        prop_assert_eq!(send_slots.len(), msgs.len());
        prop_assert_eq!(recv_slots.len(), msgs.len());
        // Matched pairs agree on tag and byte count, and a recv never
        // completes before its send was posted.
        for m in &dag.matches {
            prop_assert!(m.recv_t1 > m.send_t - 1e-12);
        }
        prop_assert!(dag.check_acyclic().is_ok());
    }

    /// Trace JSONL lines round-trip for arbitrary event mixes, including
    /// collective tags above 2^62 that would not survive an f64 encoding.
    #[test]
    fn trace_lines_round_trip(
        step in 0u64..1000,
        rank in 0usize..64,
        dropped in 0u64..10,
        rows in prop::collection::vec(
            (0u8..4, 0.0f64..100.0, 0.0f64..0.5, 0usize..8, 1u64..1_000_000),
            0..30,
        ),
    ) {
        let events: Vec<TraceEvent> = rows
            .into_iter()
            .map(|(kind, t0, dur, peer, bytes)| {
                let t1 = t0 + dur;
                let tag = (bytes % 8) + (u64::from(bytes % 2 == 0) << 62);
                match kind {
                    0 => TraceEvent {
                        t0,
                        t1,
                        kind: TraceEventKind::Span {
                            name: format!("span.{peer}"),
                            bucket: Bucket::ALL[peer % Bucket::ALL.len()],
                        },
                    },
                    1 => TraceEvent { t0, t1: t0, kind: TraceEventKind::Send { peer, tag, bytes } },
                    2 => TraceEvent { t0, t1, kind: TraceEventKind::Recv { peer, tag, bytes } },
                    _ => TraceEvent { t0, t1, kind: TraceEventKind::Barrier },
                }
            })
            .collect();
        let trace = RankStepTrace { step, rank, dropped, events };
        let line = trace.to_jsonl();
        prop_assert!(!line.contains('\n'));
        let back = RankStepTrace::parse(&line).unwrap();
        prop_assert_eq!(back, trace);
    }
}
