//! `bench` — the repository's lifecycle benchmark.
//!
//! ```text
//! bench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run
//! bench all [--seed <n>] [--out <file>]      3 interleaved rounds + traced round
//! bench aa  [--seed <n>] [--out <file>]      `all` twice, differences vs bounds
//! bench manifest                             print BENCHMARK.json
//! ```
//!
//! `--quick` swaps in tiny grids (the self-test). A single run prints every
//! metric by name and unit, then one JSON object as its last line.

mod heap;
mod layers;
mod lifecycle;
mod manifest;
mod metrics;
mod orchestrate;
mod record;
mod requests;
mod run;
mod stats;
mod workloads;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

use std::path::PathBuf;
use std::process::ExitCode;
use vlasov6d_obs::Json;
use workloads::{Size, Workload};

const USAGE: &str = "usage: bench --workload <hybrid16|dist2|plasma_two_stream|query_evict> \
--seed <n> --seconds <s> --trace <0|1> [--quick] [--report <file>]\n       \
bench <all|aa> [--seed <n>] [--out <file>] [--quick]\n       \
bench manifest";

/// Flags of every form of the command; which are required depends on it.
#[derive(Default)]
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: Option<u64>,
    quick: bool,
    report: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |text: &String| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {text:?}"))
        };
        match flag.as_str() {
            "--workload" => flags.workload = Some(value()?.clone()),
            "--seed" => flags.seed = Some(number(value()?)?),
            "--seconds" => flags.seconds = Some(number(value()?)?),
            "--trace" => flags.trace = Some(number(value()?)?),
            "--report" => flags.report = Some(PathBuf::from(value()?)),
            "--out" => flags.out = Some(PathBuf::from(value()?)),
            "--quick" => flags.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(flags)
}

fn single_run(flags: Flags) -> Result<ExitCode, String> {
    let name = flags.workload.ok_or("--workload is required")?;
    let args = run::Args {
        workload: Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
        seed: flags.seed.ok_or("--seed is required")?,
        seconds: flags.seconds.ok_or("--seconds is required")?,
        trace: match flags.trace.ok_or("--trace is required")? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace takes 0 or 1, got {other}")),
        },
        size: if flags.quick { Size::Quick } else { Size::Full },
    };
    let outcome = match run::run(&args) {
        Ok(outcome) => outcome,
        // Not a usage error: the run itself could not produce its numbers.
        Err(message) => {
            eprintln!("bench: {message}");
            return Ok(ExitCode::FAILURE);
        }
    };
    for failure in &outcome.failures {
        eprintln!("bench: FAILED {failure}");
    }
    let result = orchestrate::result_json(&outcome);
    if let Some(path) = flags.report {
        let report = Json::obj([
            ("result", result.clone()),
            ("samples", orchestrate::samples_json(&outcome.samples)),
        ]);
        std::fs::write(&path, report.to_string_compact())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    for (name, value) in &outcome.metrics {
        println!("{name:<52} {value:>16.6} {}", orchestrate::unit_of(name));
    }
    println!("{}", result.to_string_compact());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("all" | "aa" | "manifest")) => (Some(c), &args[1..]),
        _ => (None, &args[..]),
    };
    let done = parse_flags(rest).and_then(|flags| match command {
        Some("all") => orchestrate::all(flags.seed.unwrap_or(1), flags.quick, flags.out),
        Some("aa") => orchestrate::aa(flags.seed.unwrap_or(1), flags.quick, flags.out),
        Some("manifest") => {
            print!("{}", manifest::render());
            Ok(ExitCode::SUCCESS)
        }
        _ => single_run(flags),
    });
    done.unwrap_or_else(|message| {
        eprintln!("bench: {message}\n{USAGE}");
        ExitCode::from(2)
    })
}
