//! `BENCHMARK.json`, printed from the registry so the file at the root of
//! the repository and the code cannot drift (`tests/quick.rs` compares them).

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workloads::Workload;

/// How long one run measures.
pub const RUN_SECONDS: u64 = 30;

/// The command as typed from the root of a checkout; the harness appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

fn list(items: Vec<String>, indent: &str) -> String {
    format!(
        "[\n{indent}  {}\n{indent}]",
        items.join(&format!(",\n{indent}  "))
    )
}

/// The manifest as pretty-printed JSON. Every string in it is plain ASCII
/// without quotes or backslashes, so no escaping is needed.
pub fn render() -> String {
    let quoted = |s: &str| format!("\"{s}\"");
    let command = COMMAND
        .iter()
        .map(|s| quoted(s))
        .collect::<Vec<_>>()
        .join(", ");
    let workloads = Workload::ALL
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), w.why()))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"lower\", \"bound\": {}}}",
                m.name, m.unit, m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.label()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{command}],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \
         \"per_layer\": {}\n}}\n",
        list(workloads, "  "),
        list(end_to_end, "  "),
        list(per_layer, "  "),
    )
}

#[cfg(test)]
mod tests {
    use vlasov6d_obs::Json;

    #[test]
    fn the_manifest_is_valid_json_within_the_contract_limits() {
        let text = super::render();
        assert!(text.len() <= 64 << 10);
        let json = Json::parse(&text).expect("valid JSON");
        let keys: Vec<&String> = json.as_obj().expect("an object").keys().collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        for w in json.get("workloads").as_arr().expect("workloads") {
            let why = w.get("why").as_str().expect("why");
            assert!(
                !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
                "{why}"
            );
        }
        let n = |key: &str| json.get(key).as_arr().map_or(0, <[Json]>::len);
        assert!((2..=8).contains(&n("workloads")));
        assert!((1..=16).contains(&n("end_to_end")));
        assert!((1..=128).contains(&n("per_layer")));
        assert!(n("command") <= 32);
        let setup = json.get("end_to_end").as_arr().expect("end_to_end")[0].clone();
        assert_eq!(setup.get("name").as_str(), Some("setup_s"));
        assert_eq!(setup.get("unit").as_str(), Some("s"));
        assert_eq!(setup.get("better").as_str(), Some("lower"));
    }
}
