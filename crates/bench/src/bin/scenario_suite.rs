//! Scenario-suite bench: run every registered kinetic scenario, record its
//! stepping rate, conservation drifts and (where declared) its measured
//! oracle rate as JSONL rows, and gate the lot against `perf-baseline.json`.
//!
//! Two layers of gating:
//!
//! * each scenario's **own declared invariant bands** (mass / energy / L2
//!   over its declared smoke run) — the same bands the conservation test
//!   suite asserts in debug, re-checked here at release speed,
//! * the flat **baseline bars**: worst oracle relative error
//!   (`scenario_oracle_rel_err`), worst mass drift (`scenario_mass_drift`),
//!   worst L2 growth (`scenario_l2_growth`) and the stepping-throughput
//!   floor (`scenario_min_mcells_per_s`).
//!
//! ```text
//! cargo run --release -p vlasov6d-bench --bin scenario_suite
//! ```

use std::process::ExitCode;
use std::time::Instant;

use vlasov6d::{KineticScenario, ScenarioRegistry};
use vlasov6d_obs::{Json, JsonlSink};
use vlasov6d_suite::{table_header, table_row};

struct ScenarioRow {
    name: &'static str,
    family: &'static str,
    steps: usize,
    cells: usize,
    secs: f64,
    mass_drift: f64,
    energy_drift: f64,
    l2_growth: f64,
    /// `(measured, expected, rel_err)` where the scenario declares an oracle.
    rate: Option<(f64, f64, f64)>,
    bands_ok: bool,
    /// `kernel.shape`: which sweep axes ran on lanes, and how they loaded.
    shape: String,
}

fn family_name(sc: &KineticScenario) -> &'static str {
    match sc.family {
        vlasov6d::scenario::Family::Cosmological => "cosmological",
        vlasov6d::scenario::Family::Plasma => "plasma",
        vlasov6d::scenario::Family::SelfGravitating => "self-gravitating",
    }
}

/// Run one scenario: its declared smoke steps for the conservation drifts,
/// then (if it declares an oracle) on to the oracle's `t_end` for the rate.
fn run_scenario(sc: &KineticScenario) -> ScenarioRow {
    let mut sim = sc.build();
    let cells = sc.grid.sdims.iter().product::<usize>() * sc.grid.vgrid.len();
    let start = sim.diagnose(0.0);
    let t0 = Instant::now();
    for _ in 0..sc.invariants.steps {
        sim.step();
    }
    let secs = t0.elapsed().as_secs_f64();
    let smoke = *sim.history().last().expect("ran at least one step");

    let rate = sc.oracle.map(|oracle| {
        // Continue the same run to the oracle's horizon; the amplitude
        // history already covers t = 0 onward.
        sim.run_to(start.t + oracle.t_end);
        let times: Vec<f64> = std::iter::once(start.t)
            .chain(sim.history().iter().map(|d| d.t))
            .collect();
        let amps: Vec<f64> = std::iter::once(start.mode_amp)
            .chain(sim.history().iter().map(|d| d.mode_amp))
            .collect();
        let check = oracle.judge(&times, &amps);
        let rel_err = (check.measured - check.expected).abs() / check.expected.abs();
        (check.measured, check.expected, rel_err)
    });

    let mass_drift = (smoke.mass / start.mass - 1.0).abs();
    let scale = start.kinetic.abs() + start.potential.abs();
    let energy_drift = (smoke.energy - start.energy).abs() / scale.max(1e-300);
    let l2_growth = smoke.l2 / start.l2 - 1.0;
    let bands_ok = mass_drift <= sc.invariants.mass_rel
        && energy_drift <= sc.invariants.energy_rel
        && l2_growth <= sc.invariants.l2_growth_rel
        && rate.is_none_or(|(m, e, _)| (m - e).abs() <= sc.oracle.unwrap().rel_tol * e.abs());

    ScenarioRow {
        name: sc.name,
        family: family_name(sc),
        steps: sc.invariants.steps,
        cells,
        secs,
        mass_drift,
        energy_drift,
        l2_growth,
        rate,
        bands_ok,
        shape: sim.lane_shapes(),
    }
}

fn main() -> ExitCode {
    let registry = ScenarioRegistry::builtin();
    let out_dir = std::env::temp_dir().join(format!("vscen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out_dir);
    std::fs::create_dir_all(&out_dir).expect("out dir");
    let out_path = out_dir.join("scenario_suite.jsonl");
    let mut sink = JsonlSink::create(&out_path).expect("jsonl sink");

    let widths = [14, 16, 6, 10, 10, 10, 10, 12, 12, 6];
    println!(
        "{}",
        table_header(
            &[
                "scenario", "family", "steps", "Mcell/s", "mass", "energy", "l2_grow", "rate",
                "expected", "bands"
            ],
            &widths
        )
    );

    let mut rows = Vec::new();
    for sc in registry.iter() {
        let Some(kin) = sc.as_kinetic() else {
            // The cosmological entry is driven by the hybrid suite and the
            // paper-table benches; this bin covers the kinetic families.
            continue;
        };
        let row = run_scenario(kin);
        let mcells = row.cells as f64 * row.steps as f64 / row.secs / 1e6;
        println!(
            "{}",
            table_row(
                &[
                    row.name.into(),
                    row.family.into(),
                    format!("{}", row.steps),
                    format!("{mcells:.1}"),
                    format!("{:.1e}", row.mass_drift),
                    format!("{:.1e}", row.energy_drift),
                    format!("{:.1e}", row.l2_growth),
                    row.rate.map_or("-".into(), |(m, _, _)| format!("{m:.4}")),
                    row.rate.map_or("-".into(), |(_, e, _)| format!("{e:.4}")),
                    if row.bands_ok { "ok" } else { "FAIL" }.into(),
                ],
                &widths
            )
        );
        println!("  kernel.shape  {}", row.shape);
        let mut fields = vec![
            ("bench", Json::str("scenario_suite")),
            ("scenario", Json::str(row.name)),
            ("family", Json::str(row.family)),
            ("steps", Json::num_u64(row.steps as u64)),
            ("cells", Json::num_u64(row.cells as u64)),
            ("time_s", Json::num(row.secs)),
            ("mcells_per_s", Json::num(mcells)),
            ("mass_drift", Json::num(row.mass_drift)),
            ("energy_drift", Json::num(row.energy_drift)),
            ("l2_growth", Json::num(row.l2_growth)),
            ("bands_ok", Json::num_u64(row.bands_ok as u64)),
            ("kernel_shape", Json::str(&row.shape)),
        ];
        if let Some((measured, expected, rel_err)) = row.rate {
            fields.push(("measured_rate", Json::num(measured)));
            fields.push(("expected_rate", Json::num(expected)));
            fields.push(("rate_rel_err", Json::num(rel_err)));
        }
        sink.write_line(&Json::obj(fields).to_string_compact())
            .expect("jsonl line");
        rows.push(row);
    }
    sink.flush().expect("jsonl flush");
    println!("\nrows written to {}", out_path.display());

    // ---- gates ---------------------------------------------------------
    let baseline = std::fs::read_to_string("perf-baseline.json")
        .ok()
        .and_then(|text| Json::parse(&text).ok());
    let Some(baseline) = baseline else {
        println!("no perf-baseline.json; nothing to gate");
        return ExitCode::SUCCESS;
    };
    let mut failed = false;
    for row in &rows {
        if !row.bands_ok {
            eprintln!("FAIL: {} violated its declared invariant bands", row.name);
            failed = true;
        }
    }
    let worst_mass = rows.iter().map(|r| r.mass_drift).fold(0.0, f64::max);
    let worst_l2 = rows.iter().map(|r| r.l2_growth).fold(0.0, f64::max);
    let worst_rate = rows
        .iter()
        .filter_map(|r| r.rate.map(|(_, _, e)| e))
        .fold(0.0, f64::max);
    let min_mcells = rows
        .iter()
        .map(|r| r.cells as f64 * r.steps as f64 / r.secs / 1e6)
        .fold(f64::INFINITY, f64::min);
    for (key, value, is_max) in [
        ("scenario_mass_drift", worst_mass, true),
        ("scenario_l2_growth", worst_l2, true),
        ("scenario_oracle_rel_err", worst_rate, true),
        ("scenario_min_mcells_per_s", min_mcells, false),
    ] {
        let bound = if is_max { "max" } else { "min" };
        if let Some(bar) = baseline.get(key).get(bound).as_f64() {
            let ok = if is_max { value <= bar } else { value >= bar };
            println!(
                "{key}: {value:.3e} (bar: {} {bar:.3e})",
                if is_max { "\u{2264}" } else { "\u{2265}" }
            );
            if !ok {
                eprintln!("FAIL: {key} = {value:.3e} breaks the {bar:.3e} bar");
                failed = true;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&out_dir);
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
