//! `cargo xtask perf-gate` — the trace-derived performance regression gate.
//!
//! Runs the 2-rank overlapped smoke simulation twice — flight recorder on
//! and off — and once more under the synchronous policy, stitches the
//! recorded trace into per-step critical paths, and compares a summary
//! (critical-path coverage of the trace wall and of the independently
//! measured step wall, what the overlapped x-sweep costs against the
//! synchronous one, exposed-comm agreement with the span-tree figure,
//! communication imbalance, tracing overhead, trace completeness) against a
//! checked-in baseline JSON with per-metric `[min, max]` bounds. Scale-free
//! ratios carry tight bounds; the one absolute figure (critical-path ms/step) carries wide bounds so
//! the gate trips on pathological regressions, not on machine speed.
//!
//! ```text
//! cargo xtask perf-gate                        # gate against perf-baseline.json
//! cargo xtask perf-gate --write-baseline       # regenerate the baseline bounds
//! cargo xtask perf-gate --trace-out t.json     # also export the Chrome trace
//! cargo xtask perf-gate --summary-out s.json   # also write the summary JSON
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use vlasov6d::dist_sim::{DistributedVlasov, OverlapPolicy};
use vlasov6d_cosmology::{Background, CosmologyParams};
use vlasov6d_mesh::Decomp3;
use vlasov6d_mpisim::{Traffic, Universe};
use vlasov6d_obs::trace::{epoch_now, TraceReport, TraceSet};
use vlasov6d_obs::{visit_spans, Json, RunReport, Stopwatch};
use vlasov6d_phase_space::{PhaseSpace, VelocityGrid};

const RANKS: usize = 2;
const STEPS: usize = 3;
/// Traced/untraced run pairs; best-of across repetitions denoises the
/// wall-clock figures.
const REPS: usize = 2;
const TRACE_CAPACITY: usize = 1 << 16;

fn fill(s: [usize; 3], u: [f64; 3]) -> f64 {
    let sx = (s[0] as f64 * 0.55).sin() + (s[1] as f64 * 0.35).cos() + (s[2] as f64 * 0.75).sin();
    0.002 * (2.5 + sx) * (-(u[0] * u[0] + u[1] * u[1] + u[2] * u[2]) / 0.03).exp()
}

struct SmokeRun {
    report: RunReport,
    traces: TraceSet,
    /// Minimum over steps of rank 0's step wall-clock (barrier-inclusive).
    min_step_wall: f64,
    /// Worst step's `|critical path − measured step wall| / wall`, in percent
    /// (0 for an untraced run).
    path_vs_wall_pct: f64,
    /// Minimum over steps of rank 0's distributed x-sweep span.
    min_x_sweep: f64,
    /// Minimum over steps of rank 0's `step_event` call: the ranked driver's
    /// diagnostics (one reduction pass over `f`, one allreduce).
    min_diagnostics: f64,
    traffic: Traffic,
}

/// Run the 2-rank smoke simulation under `overlap`, recorder on or off.
fn smoke_run(traced: bool, overlap: OverlapPolicy) -> SmokeRun {
    let sglobal = [16usize, 8, 8];
    let vg = VelocityGrid::cubic(8, 0.6);
    let (per_rank, traffic) = Universe::run_with_traffic(RANKS, move |comm| {
        let decomp = Decomp3::new(sglobal, [comm.size(), 1, 1]);
        let off = decomp.local_offset(comm.rank());
        let dims = decomp.local_dims(comm.rank());
        let mut local = PhaseSpace::zeros_block(dims, off, sglobal, vg);
        local.fill_with(fill);
        let bg = Background::new(CosmologyParams::planck2015());
        let mut sim = DistributedVlasov::new(comm, local, bg, 0.2, 1.0).with_overlap(overlap);
        if traced {
            sim = sim.with_tracing(TRACE_CAPACITY);
        }
        let mut out = Vec::new();
        let mut min_wall = f64::INFINITY;
        let mut min_x_sweep = f64::INFINITY;
        let mut min_diagnostics = f64::INFINITY;
        // A step's trace runs from the previous drain to its own (the
        // collectives between steps ride with the next drain), so its
        // measured window runs from the previous `step_traced` return to
        // this one's, on the epoch clock all ranks share.
        let mut windows = Vec::new();
        comm.barrier();
        let mut window_start = epoch_now();
        for _ in 0..STEPS {
            let sw = Stopwatch::start();
            let (_, dt, telemetry) = sim.step_traced(comm);
            let window_end = epoch_now();
            windows.push((window_start, window_end));
            window_start = window_end;
            comm.barrier();
            min_wall = min_wall.min(sw.elapsed_secs());
            visit_spans(&telemetry.spans.roots, |node| {
                if matches!(node.name.as_str(), "sweep.overlap.x" | "sweep.dist.x") {
                    min_x_sweep = min_x_sweep.min(node.elapsed);
                }
            });
            let sw = Stopwatch::start();
            let event = sim.step_event(comm, dt, &telemetry, None);
            min_diagnostics = min_diagnostics.min(sw.elapsed_secs());
            out.push((event, telemetry.trace));
        }
        (out, min_wall, min_x_sweep, min_diagnostics, windows)
    });
    let mut report = RunReport::new();
    let mut traces = TraceSet::new();
    let mut min_step_wall = f64::INFINITY;
    let mut min_x_sweep = f64::INFINITY;
    let mut min_diagnostics = f64::INFINITY;
    let mut walls = Vec::new();
    for (rank, (events, min_wall, x_sweep, diagnostics, windows)) in
        per_rank.into_iter().enumerate()
    {
        walls.push(windows);
        if rank == 0 {
            min_step_wall = min_wall;
            min_x_sweep = x_sweep;
            min_diagnostics = diagnostics;
        }
        for (event, trace) in events {
            report.add(event);
            if let Some(t) = trace {
                traces.add(t);
            }
        }
    }
    // The step's wall-clock is the global span of the per-rank windows: from
    // the first rank entering the step to the last rank leaving it.
    let mut path_vs_wall_pct = 0.0_f64;
    for (i, step) in traces.steps().into_iter().enumerate() {
        let path = traces.stitch(step).expect("step present").critical_path();
        let start = walls.iter().map(|w| w[i].0).fold(f64::INFINITY, f64::min);
        let end = walls.iter().map(|w| w[i].1).fold(0.0_f64, f64::max);
        let measured = end - start;
        path_vs_wall_pct =
            path_vs_wall_pct.max(100.0 * (path.length() - measured).abs() / measured);
    }
    SmokeRun {
        report,
        traces,
        min_step_wall,
        path_vs_wall_pct,
        min_x_sweep,
        min_diagnostics,
        traffic,
    }
}

/// Steady-state cost of one recorder event: a full ring (worst case, every
/// push evicts) fed by the same `note_*` calls the runtime hooks use.
fn recorder_cost_per_event() -> f64 {
    use vlasov6d_obs::trace;
    trace::enable(TRACE_CAPACITY);
    trace::begin_step(0);
    const N: usize = 1 << 18;
    let sw = Stopwatch::start();
    for i in 0..N / 2 {
        trace::note_span("perf.gate.probe", vlasov6d_obs::Bucket::Other, 1e-9);
        trace::note_send(0, (i % 7) as u64, 64);
    }
    let cost = sw.elapsed_secs() / N as f64;
    trace::disable();
    cost
}

struct Metric {
    name: &'static str,
    value: f64,
    /// Default `[min, max]` written by `--write-baseline`. `None` means the
    /// max is derived from the measured value (absolute, machine-scaled).
    default_bounds: Option<(f64, f64)>,
}

fn compute_metrics() -> (Vec<Metric>, TraceSet, String) {
    // Alternate the three kinds of run so slow phases of the host hit all
    // sides; the overhead compares best-of-REPS step walls, the overlap cost
    // best-of-REPS untraced x-sweep spans.
    let mut traced = smoke_run(true, OverlapPolicy::Overlapped);
    let mut untraced = smoke_run(false, OverlapPolicy::Overlapped);
    let mut sync_x_sweep = smoke_run(false, OverlapPolicy::Synchronous).min_x_sweep;
    let mut overlapped_x_sweep = untraced.min_x_sweep;
    let mut diagnostics = untraced.min_diagnostics;
    let mut path_vs_wall_pct = traced.path_vs_wall_pct;
    for _ in 1..REPS {
        let t = smoke_run(true, OverlapPolicy::Overlapped);
        path_vs_wall_pct = path_vs_wall_pct.min(t.path_vs_wall_pct);
        if t.min_step_wall < traced.min_step_wall {
            traced = t;
        }
        let u = smoke_run(false, OverlapPolicy::Overlapped);
        overlapped_x_sweep = overlapped_x_sweep.min(u.min_x_sweep);
        diagnostics = diagnostics.min(u.min_diagnostics);
        if u.min_step_wall < untraced.min_step_wall {
            untraced = u;
        }
        let s = smoke_run(false, OverlapPolicy::Synchronous);
        sync_x_sweep = sync_x_sweep.min(s.min_x_sweep);
    }

    let trace_report = TraceReport::from_set(&traced.traces);
    let steps = trace_report.steps.max(1) as f64;

    // Exposed comm: the trace's span-derived figure vs the span tree's.
    // Both sum the same `comm.exposed` elapsed values, so any disagreement
    // means the recorder and the tree diverged.
    let tree_exposed = traced.report.comm_overlap().exposed;
    let trace_exposed = trace_report.exposed_span_total;
    let exposed_agreement_pct = if tree_exposed.max(trace_exposed) > 0.0 {
        100.0 * (tree_exposed - trace_exposed).abs() / tree_exposed.max(trace_exposed)
    } else {
        0.0
    };
    // Recorder overhead, measured directly: per-event cost of the hot
    // recording path times the events a rank actually records per step,
    // against the untraced step wall. Differencing two whole-run walls
    // cannot resolve a <2% bar on a noisy host; this can.
    let mut n_events = 0usize;
    for step in traced.traces.steps() {
        if let Some(dag) = traced.traces.stitch(step) {
            n_events += dag.ranks.values().map(Vec::len).sum::<usize>();
        }
    }
    let events_per_rank_step = n_events as f64 / (steps * RANKS as f64);
    let overhead_pct = if untraced.min_step_wall > 0.0 {
        100.0 * events_per_rank_step * recorder_cost_per_event() / untraced.min_step_wall
    } else {
        0.0
    };

    let metrics = vec![
        Metric {
            // Path length over trace wall: ~1.0 when the critical path tiles
            // every step (the ISSUE bar is within 5%).
            name: "path_cover",
            value: trace_report.coverage(),
            default_bounds: Some((0.95, 1.02)),
        },
        Metric {
            // The path also reconstructs the step wall-clock measured
            // outside the recorder (best of the traced repetitions).
            name: "path_vs_wall_pct",
            value: path_vs_wall_pct,
            default_bounds: Some((0.0, 5.0)),
        },
        Metric {
            // What hiding the exchange costs: the overlapped x-sweep pays two
            // more flux evaluations per pencil and a second pass over the
            // edge cells: (n + 3) / (n + 1) = 1.22 at the smoke run's n = 8.
            // Measured 1.15–1.24 over four gate runs; the bar is the highest
            // plus that range.
            name: "overlap_cost_ratio",
            value: overlapped_x_sweep / sync_x_sweep,
            default_bounds: Some((0.0, 1.33)),
        },
        Metric {
            // What reporting a step costs against taking it: `step_event` is
            // one lane pass over `f` (`moments::step_sums`) and one
            // allreduce. 0.36–0.49 over six gate runs of the nine-sweep
            // step; the bar was the highest plus 30 %, 0.64. At opt-level 0
            // the sweeps slow down far more than a reduction does, so this
            // reads a fifth of the release share (2.5 % of a `hybrid16`
            // step, 12 % when it was five scalar passes — which read 0.60
            // here): it trips on a doubling, the benchmark's
            // `core.step.other_share` shows the rest. The six-sweep step and
            // the per-lane spatial sweeps shortened the step it divides by
            // 2952 → 2011 ms (critical path per step, medians of 3 and 5
            // runs alternated on a 2-vCPU x86-64 host), so the bar is
            // 0.64 · 2952 / 2011.
            name: "diagnostics_share_pct",
            value: 100.0 * diagnostics / untraced.min_step_wall,
            default_bounds: Some((0.0, 0.94)),
        },
        Metric {
            name: "exposed_agreement_pct",
            value: exposed_agreement_pct,
            default_bounds: Some((0.0, 5.0)),
        },
        Metric {
            name: "comm_imbalance",
            value: traced.traffic.imbalance(),
            default_bounds: Some((0.0, 1.5)),
        },
        Metric {
            name: "tracing_overhead_pct",
            value: overhead_pct,
            default_bounds: Some((0.0, 2.0)),
        },
        Metric {
            name: "unmatched_edges",
            value: trace_report.unmatched_edges as f64,
            default_bounds: Some((0.0, 0.0)),
        },
        Metric {
            name: "dropped_events",
            value: trace_report.dropped_events as f64,
            default_bounds: Some((0.0, 0.0)),
        },
        Metric {
            name: "critical_path_ms_per_step",
            value: 1e3 * trace_report.path / steps,
            default_bounds: None,
        },
    ];

    // Human-readable context for the gate log.
    let mut context = String::new();
    context.push_str(&trace_report.render());
    let mut run_report = traced.report;
    run_report.set_top_pairs(traced.traffic.top_pairs(6));
    context.push('\n');
    context.push_str(&run_report.render());
    (metrics, traced.traces, context)
}

fn bounds_of(baseline: &Json, name: &str) -> Option<(f64, f64)> {
    let entry = baseline.get(name);
    Some((entry.get("min").as_f64()?, entry.get("max").as_f64()?))
}

/// Entry point for `cargo xtask perf-gate`.
pub fn perf_gate(args: &[String]) -> ExitCode {
    let mut baseline_path = PathBuf::from("perf-baseline.json");
    let mut write_baseline = false;
    let mut trace_out: Option<PathBuf> = None;
    let mut summary_out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--baseline" => match it.next() {
                Some(p) => baseline_path = PathBuf::from(p),
                None => {
                    eprintln!("--baseline requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--write-baseline" => write_baseline = true,
            "--trace-out" => match it.next() {
                Some(p) => trace_out = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--trace-out requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--summary-out" => match it.next() {
                Some(p) => summary_out = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--summary-out requires a path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown perf-gate flag `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }

    println!(
        "perf-gate: {RANKS}-rank overlapped smoke run, {STEPS} steps, \
         {REPS}x traced + {REPS}x untraced + {REPS}x synchronous\n"
    );
    let (metrics, traces, context) = compute_metrics();
    println!("{context}");

    if let Some(path) = &trace_out {
        if let Err(e) = std::fs::write(path, traces.chrome_trace() + "\n") {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("chrome trace written to {}", path.display());
    }
    if let Some(path) = &summary_out {
        let doc = Json::Obj(
            metrics
                .iter()
                .map(|m| (m.name.to_string(), Json::num(m.value)))
                .collect(),
        );
        if let Err(e) = std::fs::write(path, doc.to_string_compact() + "\n") {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("summary written to {}", path.display());
    }

    if write_baseline {
        let mut entries: std::collections::BTreeMap<String, Json> = metrics
            .iter()
            .map(|m| {
                let (lo, hi) = m.default_bounds.unwrap_or_else(|| {
                    // Absolute metric: generous machine-speed headroom in
                    // both directions around the measured value.
                    (0.0, (m.value * 25.0).max(50.0))
                });
                (
                    m.name.to_string(),
                    Json::obj([("min", Json::num(lo)), ("max", Json::num(hi))]),
                )
            })
            .collect();
        // Other gates (e.g. the parallel_sweep speedup bar) keep their
        // bounds in the same file; regenerating ours must not drop theirs.
        if let Ok(Json::Obj(old)) = std::fs::read_to_string(&baseline_path)
            .map_err(|_| ())
            .and_then(|t| Json::parse(&t).map_err(|_| ()))
        {
            for (key, value) in old {
                entries.entry(key).or_insert(value);
            }
        }
        let doc = Json::Obj(entries);
        if let Err(e) = std::fs::write(&baseline_path, doc.to_string_compact() + "\n") {
            eprintln!("cannot write {}: {e}", baseline_path.display());
            return ExitCode::FAILURE;
        }
        println!("baseline written to {}", baseline_path.display());
        return ExitCode::SUCCESS;
    }

    let text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "cannot read baseline {}: {e}\nrun `cargo xtask perf-gate --write-baseline` first",
                baseline_path.display()
            );
            return ExitCode::FAILURE;
        }
    };
    let baseline = match Json::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!(
                "baseline {} is not valid JSON: {e}",
                baseline_path.display()
            );
            return ExitCode::FAILURE;
        }
    };

    println!(
        "gate vs {} ({} metric bounds)",
        baseline_path.display(),
        metrics
            .iter()
            .filter(|m| bounds_of(&baseline, m.name).is_some())
            .count()
    );
    println!(
        "  {:<28} {:>12} {:>12} {:>12}  status",
        "metric", "value", "min", "max"
    );
    let mut failures = 0usize;
    for m in &metrics {
        match bounds_of(&baseline, m.name) {
            Some((lo, hi)) => {
                let ok = m.value >= lo && m.value <= hi;
                if !ok {
                    failures += 1;
                }
                println!(
                    "  {:<28} {:>12.4} {:>12.4} {:>12.4}  {}",
                    m.name,
                    m.value,
                    lo,
                    hi,
                    if ok { "ok" } else { "FAIL" }
                );
            }
            None => {
                println!(
                    "  {:<28} {:>12.4} {:>12} {:>12}  (not gated)",
                    m.name, m.value, "-", "-"
                );
            }
        }
    }
    if failures > 0 {
        eprintln!("\nperf-gate: {failures} metric(s) out of bounds");
        ExitCode::FAILURE
    } else {
        println!("\nperf-gate: all gated metrics within bounds");
        ExitCode::SUCCESS
    }
}
