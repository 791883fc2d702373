//! The benchmark's self-test: `--quick` runs of every workload, and the
//! three files that must agree — the metric registry in `src/metrics.rs`,
//! `BENCHMARK.json` at the root of the repository, and the root manifest's
//! release profile.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use vlasov6d_obs::Json;

const BENCH: &str = env!("CARGO_BIN_EXE_bench");
const WORKLOADS: [&str; 4] = ["hybrid16", "dist2", "plasma_two_stream", "query_evict"];

fn repo_file(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `name → unit` of one metric list of `BENCHMARK.json`.
fn declared(manifest: &Json, list: &str) -> BTreeMap<String, String> {
    manifest
        .get(list)
        .as_arr()
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            let field = |key: &str| m.get(key).as_str().expect(key).to_string();
            assert!(["lower", "higher"].contains(&field("better").as_str()));
            (field("name"), field("unit"))
        })
        .collect()
}

/// One quick run; the parsed last line of its standard output.
fn quick_run(workload: &str, trace: &str) -> Json {
    let out = Command::new(BENCH)
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace, "--quick"])
        .env("VLASOV6D_BENCH_SCRATCH", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("start the benchmark");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} trace {trace}: {stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("{workload} trace {trace}: {e:?} in {last}"))
}

#[test]
fn quick_runs_finish_clean_and_print_exactly_the_declared_metrics() {
    let manifest = Json::parse(&repo_file("BENCHMARK.json")).expect("BENCHMARK.json parses");
    let declared_workloads: Vec<&str> = manifest
        .get("workloads")
        .as_arr()
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").as_str().expect("name"))
        .collect();
    assert_eq!(declared_workloads, WORKLOADS);

    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = declared(&manifest, list);
        for workload in WORKLOADS {
            let result = quick_run(workload, trace);
            let keys: Vec<&String> = result.as_obj().expect("an object").keys().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(
                result.get("correct"),
                &Json::Bool(true),
                "{workload} trace {trace}"
            );
            assert_eq!(
                result.get("failed").as_u64(),
                Some(0),
                "{workload} trace {trace}"
            );
            assert!(result.get("attempted").as_u64() >= Some(1));
            let got: BTreeMap<String, String> = result
                .get("metrics")
                .as_obj()
                .expect("metrics")
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").as_f64();
                    assert!(
                        value.is_some_and(f64::is_finite),
                        "{workload}: {name} = {value:?}"
                    );
                    (
                        name.clone(),
                        m.get("unit").as_str().expect("unit").to_string(),
                    )
                })
                .collect();
            assert_eq!(got, want, "{workload} trace {trace}");
        }
    }
}

#[test]
fn benchmark_json_is_what_the_registry_prints() {
    let out = Command::new(BENCH)
        .arg("manifest")
        .output()
        .expect("start the benchmark");
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8(out.stdout).expect("utf-8 output"),
        repo_file("BENCHMARK.json"),
        "regenerate with `bench manifest > BENCHMARK.json`"
    );
}

/// The `[profile.release]` table of a manifest, as written.
fn release_profile(manifest: &str) -> Vec<&str> {
    manifest
        .lines()
        .skip_while(|line| line.trim() != "[profile.release]")
        .skip(1)
        .take_while(|line| !line.trim_start().starts_with('['))
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .collect()
}

#[test]
fn the_release_profile_is_the_root_manifests() {
    let root = repo_file("Cargo.toml");
    let own = repo_file("benchmark/Cargo.toml");
    let profile = release_profile(&root);
    assert!(
        profile.iter().any(|line| line.starts_with("opt-level")),
        "{profile:?}"
    );
    assert_eq!(profile, release_profile(&own));
}
