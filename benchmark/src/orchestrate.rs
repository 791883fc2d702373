//! The full benchmark: every workload over interleaved rounds, each
//! (round, workload) in a child process of its own, pooled afterwards.
//!
//! A child per round keeps `peak_heap_mb` per workload, lets a slow spell on
//! the host dilute across all workloads instead of owning one, and lets a
//! watchdog turn a hang into a counted failure instead of a stuck pipeline.

use crate::lifecycle::names;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::{end_to_end, Outcome};
use crate::stats::median;
use crate::workloads::{scratch_root, Workload};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use vlasov6d_obs::Json;

/// Rounds of a full benchmark, interleaved over the workloads.
const ROUNDS: u64 = 3;
/// Samples the rounds' children must pool behind each end-to-end timing.
const MIN_POOLED: [(&str, usize); 2] = [(names::SETUP, 15), (names::STEP, 30)];
/// A child still running after this long is killed and counted as failed.
const WATCHDOG: Duration = Duration::from_secs(170);
/// Per-layer counts that must repeat exactly between two sets of runs.
const EXACT: [&str; 6] = [
    "advection.flops_per_cell",
    "core.steps_to_solution",
    "mpisim.bytes_per_step",
    "mpisim.messages_per_step",
    "phase_space.ghost.bytes_per_step",
    "query.cache.evictions",
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

fn bound_of(name: &str) -> f64 {
    let metric = END_TO_END.iter().find(|m| m.name == name);
    metric.expect("every end-to-end metric is registered").bound
}

/// The one-line result object of a single run.
pub fn result_json(outcome: &Outcome) -> Json {
    let metrics = outcome
        .metrics
        .iter()
        .map(|(name, value)| {
            let entry = Json::obj([
                ("value", Json::num(*value)),
                ("unit", Json::str(unit_of(name))),
            ]);
            (name.to_string(), entry)
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::num_u64(outcome.attempted)),
        ("failed", Json::num_u64(outcome.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
}

pub fn samples_json(samples: &BTreeMap<String, Vec<f64>>) -> Json {
    Json::Obj(
        samples
            .iter()
            .map(|(name, values)| {
                let values = values.iter().copied().map(Json::num).collect();
                (name.clone(), Json::Arr(values))
            })
            .collect(),
    )
}

/// What the parent learns from one child.
#[derive(Debug, Default, Clone)]
pub struct ChildReport {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    pub samples: BTreeMap<String, Vec<f64>>,
}

impl ChildReport {
    /// A child that produced no report: its operations count as failed.
    fn lost(why: &str) -> ChildReport {
        eprintln!("bench: child lost: {why}");
        ChildReport {
            attempted: 1,
            failed: 1,
            ..ChildReport::default()
        }
    }

    fn parse(text: &str) -> Option<ChildReport> {
        let json = Json::parse(text).ok()?;
        let result = json.get("result");
        let metrics = result
            .get("metrics")
            .as_obj()?
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value").as_f64()?)))
            .collect();
        let samples = json
            .get("samples")
            .as_obj()?
            .iter()
            .map(|(name, values)| {
                let values = values.as_arr().unwrap_or(&[]);
                (
                    name.clone(),
                    values.iter().filter_map(Json::as_f64).collect(),
                )
            })
            .collect();
        Some(ChildReport {
            attempted: result.get("attempted").as_u64()?,
            failed: result.get("failed").as_u64()?,
            metrics,
            samples,
        })
    }
}

/// Run `command` to completion or until `watchdog` expires, then read the
/// report it was asked to write at `report`.
pub fn run_child(mut command: Command, report: &Path, watchdog: Duration) -> ChildReport {
    let _ = std::fs::remove_file(report);
    let mut child = match command.spawn() {
        Ok(child) => child,
        Err(e) => return ChildReport::lost(&format!("cannot start: {e}")),
    };
    let started = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if started.elapsed() < watchdog => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                return ChildReport::lost(&format!("killed by the watchdog after {watchdog:?}"));
            }
            Err(e) => return ChildReport::lost(&format!("cannot wait: {e}")),
        }
    };
    if !status.success() {
        return ChildReport::lost(&format!("exited with {status}"));
    }
    std::fs::read_to_string(report)
        .ok()
        .and_then(|text| ChildReport::parse(&text))
        .unwrap_or_else(|| ChildReport::lost("wrote no readable report"))
}

/// `--seconds` of one child of a full benchmark: what lets three of them
/// pool [`MIN_POOLED`]. A lifecycle round costs `hybrid16` eleven seconds and
/// the others one to three; on the self-test's grids, milliseconds.
fn child_seconds(workload: Workload, quick: bool) -> u64 {
    match workload {
        _ if quick => 1,
        Workload::Hybrid16 => crate::manifest::RUN_SECONDS,
        _ => crate::manifest::RUN_SECONDS / 3,
    }
}

fn child(workload: Workload, seed: u64, trace: bool, quick: bool) -> ChildReport {
    let seconds = child_seconds(workload, quick);
    let dir = scratch_root();
    std::fs::create_dir_all(&dir).expect("create the benchmark scratch directory");
    let report = dir.join(format!("report-{}.json", std::process::id()));
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--report")
        .arg(&report)
        .stdout(std::process::Stdio::null());
    if quick {
        command.arg("--quick");
    }
    let out = run_child(command, &report, WATCHDOG);
    let _ = std::fs::remove_file(&report);
    out
}

/// One workload's numbers in a full benchmark.
struct Row {
    workload: Workload,
    attempted: u64,
    failed: u64,
    /// Empty when the pooled samples cannot carry every metric.
    end_to_end: Vec<(&'static str, f64)>,
    per_layer: BTreeMap<String, f64>,
    /// Pooled samples behind each end-to-end timing.
    counts: BTreeMap<String, usize>,
}

/// `sets` full benchmarks at once: three rounds interleaved over the
/// workloads *and* over the sets, then the traced rounds; one row per
/// workload in each set. Interleaving the sets is what makes two of them an
/// A/A comparison on a host whose speed drifts over minutes: both sets see
/// every spell, instead of the second set owning the later, slower ones.
fn full(seed: u64, quick: bool, sets: usize) -> Vec<Vec<Row>> {
    let mut reports: Vec<Vec<Vec<ChildReport>>> = vec![vec![Vec::new(); Workload::ALL.len()]; sets];
    for round in 0..ROUNDS {
        for (w, workload) in Workload::ALL.iter().enumerate() {
            for (set, of_set) in reports.iter_mut().enumerate() {
                eprintln!(
                    "bench: set {} of {sets}, round {} of {ROUNDS}: {}",
                    set + 1,
                    round + 1,
                    workload.name()
                );
                of_set[w].push(child(*workload, seed + round, false, quick));
            }
        }
    }
    reports
        .into_iter()
        .map(|of_set| {
            Workload::ALL
                .iter()
                .zip(of_set)
                .map(|(&workload, reports)| {
                    eprintln!("bench: traced round: {}", workload.name());
                    let traced = child(workload, seed, true, quick);
                    let rounds: Vec<&BTreeMap<String, Vec<f64>>> =
                        reports.iter().map(|r| &r.samples).collect();
                    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
                    for (name, values) in rounds.iter().flat_map(|samples| samples.iter()) {
                        *counts.entry(name.clone()).or_default() += values.len();
                    }
                    let heap: Vec<f64> = reports
                        .iter()
                        .filter_map(|r| r.metrics.get("peak_heap_mb").copied())
                        .collect();
                    let count = |f: fn(&ChildReport) -> u64| {
                        reports.iter().map(f).sum::<u64>() + f(&traced)
                    };
                    for (name, min) in MIN_POOLED {
                        let pooled = counts.get(name).copied().unwrap_or(0);
                        if pooled < min && !quick {
                            eprintln!(
                                "bench: {}: {pooled} pooled {name} samples, fewer than {min}",
                                workload.name()
                            );
                        }
                    }
                    let pooled = median(&heap)
                        .ok_or_else(|| "no child reported".to_string())
                        .and_then(|heap| end_to_end(&rounds, heap));
                    let lost = u64::from(pooled.is_err());
                    Row {
                        workload,
                        attempted: count(|r| r.attempted) + lost,
                        failed: count(|r| r.failed) + lost,
                        end_to_end: pooled.unwrap_or_else(|e| {
                            eprintln!("bench: {}: {e}", workload.name());
                            Vec::new()
                        }),
                        per_layer: traced.metrics.clone(),
                        counts,
                    }
                })
                .collect()
        })
        .collect()
}

fn rows_json(rows: &[Row]) -> Json {
    let workloads = rows
        .iter()
        .map(|row| {
            let e2e = row
                .end_to_end
                .iter()
                .map(|(name, value)| (name.to_string(), Json::num(*value)))
                .collect();
            let layers = row
                .per_layer
                .iter()
                .map(|(name, value)| (name.clone(), Json::num(*value)))
                .collect();
            let counts = row
                .counts
                .iter()
                .map(|(name, n)| (name.clone(), Json::num_u64(*n as u64)))
                .collect();
            let entry = Json::obj([
                ("attempted", Json::num_u64(row.attempted)),
                ("failed", Json::num_u64(row.failed)),
                ("end_to_end", Json::Obj(e2e)),
                ("per_layer", Json::Obj(layers)),
                ("pooled_samples", Json::Obj(counts)),
            ]);
            (row.workload.name().to_string(), entry)
        })
        .collect();
    Json::obj([
        ("nproc", Json::num_u64(crate::layers::nproc() as u64)),
        (
            "scratch_root",
            Json::str(scratch_root().display().to_string()),
        ),
        ("rounds", Json::num_u64(ROUNDS)),
        ("workloads", Json::Obj(workloads)),
    ])
}

fn print_rows(rows: &[Row]) {
    for row in rows {
        println!(
            "\n== {} — {} operations attempted, {} failed",
            row.workload.name(),
            row.attempted,
            row.failed
        );
        for (name, value) in &row.end_to_end {
            println!("{name:<52} {value:>16.6} {}", unit_of(name));
        }
        for m in &PER_LAYER {
            if let Some(value) = row.per_layer.get(m.name) {
                println!("{:<52} {value:>16.6} {}", m.name, m.unit);
            }
        }
    }
}

fn write_out(out: Option<PathBuf>, json: &Json) -> Result<(), String> {
    match out {
        Some(path) => std::fs::write(&path, json.to_string_compact() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display())),
        None => Ok(()),
    }
}

fn any_failed(rows: &[Row]) -> bool {
    rows.iter().any(|row| row.failed > 0)
}

pub fn all(seed: u64, quick: bool, out: Option<PathBuf>) -> Result<ExitCode, String> {
    let rows = full(seed, quick, 1).remove(0);
    print_rows(&rows);
    write_out(out, &rows_json(&rows))?;
    Ok(if any_failed(&rows) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// The full benchmark twice on the same code, the two sets interleaved: the
/// relative difference of every workload × end-to-end metric beside its
/// bound, and the exact counts, which must not differ at all.
pub fn aa(seed: u64, quick: bool, out: Option<PathBuf>) -> Result<ExitCode, String> {
    let mut sets = full(seed, quick, 2);
    let (second, first) = (sets.remove(1), sets.remove(0));
    let mut excess = any_failed(&first) || any_failed(&second);
    let mut table = Vec::new();
    println!(
        "{:<20} {:<16} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (a, b) in first.iter().zip(&second) {
        for ((name, x), (_, y)) in a.end_to_end.iter().zip(&b.end_to_end) {
            let bound = bound_of(name);
            let diff = (y - x) / x;
            let within = diff.abs() <= bound;
            excess |= !within;
            println!(
                "{:<20} {:<16} {x:>14.6} {y:>14.6} {:>+8.2}% {:>6.0}%{}",
                a.workload.name(),
                name,
                100.0 * diff,
                100.0 * bound,
                if within { "" } else { "  EXCESS" }
            );
            table.push(Json::obj([
                ("workload", Json::str(a.workload.name())),
                ("metric", Json::str(*name)),
                ("first", Json::num(*x)),
                ("second", Json::num(*y)),
                ("relative_difference", Json::num(diff)),
                ("bound", Json::num(bound)),
                ("within_bound", Json::Bool(within)),
            ]));
        }
        for name in EXACT {
            let (x, y) = (a.per_layer.get(name), b.per_layer.get(name));
            if x != y || x.is_none() {
                excess = true;
                println!(
                    "{:<20} {name}: {x:?} vs {y:?}  NOT EXACT",
                    a.workload.name()
                );
            }
        }
    }
    println!("\n{}", if excess { "A/A FAILED" } else { "A/A passed" });
    write_out(
        out,
        &Json::obj([
            ("passed", Json::Bool(!excess)),
            ("comparisons", Json::Arr(table)),
            ("first", rows_json(&first)),
            ("second", rows_json(&second)),
        ]),
    )?;
    Ok(if excess {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_child_killed_by_the_watchdog_counts_as_failed_operations() {
        let mut hang = Command::new("sleep");
        hang.arg("30");
        let started = Instant::now();
        let report = run_child(
            hang,
            Path::new("/nonexistent/report.json"),
            Duration::from_millis(200),
        );
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the child was not killed"
        );
        assert!(report.failed >= 1 && report.failed == report.attempted);
        assert!(report.metrics.is_empty());
    }

    #[test]
    fn a_child_that_exits_without_a_report_counts_as_failed() {
        let report = run_child(
            Command::new("true"),
            Path::new("/nonexistent/report.json"),
            Duration::from_secs(5),
        );
        assert_eq!((report.attempted, report.failed), (1, 1));
    }

    #[test]
    fn a_report_round_trips() {
        let outcome = Outcome {
            attempted: 12,
            failed: 0,
            failures: Vec::new(),
            metrics: vec![("step_s", 0.25)],
            samples: BTreeMap::from([("step".to_string(), vec![0.25, 0.5])]),
        };
        let text = Json::obj([
            ("result", result_json(&outcome)),
            ("samples", samples_json(&outcome.samples)),
        ])
        .to_string_compact();
        let back = ChildReport::parse(&text).expect("parses");
        assert_eq!((back.attempted, back.failed), (12, 0));
        assert_eq!(back.metrics["step_s"], 0.25);
        assert_eq!(back.samples["step"], vec![0.25, 0.5]);
    }
}
