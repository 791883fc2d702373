//! §5.1.2: the TreePM short-range pass — pair-kernel throughput, scalar
//! reference vs the production lane kernel, and the full group walk on the
//! `hybrid16` particles. The paper reports 1.2×10⁹ vs 2.4×10⁷
//! interactions/s per A64FX core (×50) for its Phantom-GRAPE port.
//!
//! ```text
//! cargo run --release -p vlasov6d-bench --bin phantom_grape
//! ```
//!
//! Gates `tree_interactions_per_s` (the whole walk: bucketing, list
//! building and kernel, on the pool's threads) against `perf-baseline.json`.

use std::hint::black_box;
use std::process::ExitCode;
use vlasov6d::{HybridSimulation, SimulationConfig};
use vlasov6d_advection::simd::Isa;
use vlasov6d_bench::{rate_per_sec, time_median};
use vlasov6d_nbody::pp::{InteractionList, SplitKernel};
use vlasov6d_nbody::tree::pair_accel;
use vlasov6d_nbody::{Tree, TreePm};
use vlasov6d_obs::Json;

fn main() -> ExitCode {
    // The benchmark's `hybrid16` configuration: 24³ Zel'dovich particles on
    // a 32³ PM mesh.
    let config = SimulationConfig {
        n_cdm: 24,
        ..SimulationConfig::laptop_s()
    };
    let treepm = TreePm::new(config.n_pm, config.softening());
    let (split, eps, r_cut) = (treepm.split, treepm.eps, treepm.r_cut);
    let cdm = HybridSimulation::new(config)
        .cdm
        .expect("hybrid16 carries CDM particles");
    let tree = Tree::build(&cdm.pos, cdm.mass);

    // Kernel alone: one list (every particle within reach of the box
    // centre, relative to it), summed at the 64 first of them that lie near
    // the centre — a walk's list and its cell's targets, in all but size.
    let centre = [0.5; 3];
    let sources: Vec<[f64; 3]> = cdm
        .pos
        .iter()
        .map(|&p| [p[0] - centre[0], p[1] - centre[1], p[2] - centre[2]])
        .filter(|d| d.iter().all(|c| c.abs() < r_cut))
        .collect();
    let mut list = InteractionList::default();
    for &d in &sources {
        list.push(d, cdm.mass);
    }
    let targets: Vec<[f64; 3]> = sources
        .iter()
        .filter(|d| d.iter().all(|c| c.abs() < 0.1))
        .take(64)
        .copied()
        .collect();
    let pairs = sources.len() * targets.len();

    let t_scalar = time_median(
        || {
            for &t in &targets {
                let mut acc = [0.0f64; 3];
                for &s in &sources {
                    pair_accel(t, s, cdm.mass, &split, eps, r_cut, &mut acc);
                }
                black_box(acc);
            }
        },
        9,
    );
    let kernel = SplitKernel::new(&split, eps, r_cut);
    let t_lanes = time_median(
        || {
            for &t in &targets {
                black_box(kernel.accel(t.map(|c| c as f32), black_box(&list)));
            }
        },
        9,
    );
    let (r_scalar, r_lanes) = (rate_per_sec(pairs, t_scalar), rate_per_sec(pairs, t_lanes));
    let isa = Isa::detect().name();
    println!(
        "split-force pair kernel, one thread ({} targets × {} sources):\n",
        targets.len(),
        sources.len()
    );
    println!("  scalar f64 pair_accel : {r_scalar:.3e} interactions/s");
    println!("  f32x8 lane kernel     : {r_lanes:.3e} interactions/s (kernel.isa = {isa})");
    println!("  ratio                 : ×{:.1}", r_lanes / r_scalar);
    println!("\npaper (A64FX, SVE): 2.4e7 → 1.2e9 interactions/s/core, ×50.");

    // The whole pass, as `TreePm::tree_accelerations` runs it.
    let walk = || tree.short_range_walk(&cdm.pos, &split, treepm.theta, eps, r_cut, 1.0);
    let (_, stats) = walk();
    let t_walk = time_median(
        || {
            black_box(walk());
        },
        7,
    );
    let threads = rayon::current_num_threads();
    let rate = stats.interactions as f64 / t_walk;
    println!(
        "\ngroup walk, {} particles, {threads} thread(s): {:.1} ms",
        cdm.pos.len(),
        t_walk * 1e3
    );
    println!(
        "  {} groups, {:.0} list entries/group, {:.0} pair evaluations/target",
        stats.groups,
        stats.list_entries as f64 / stats.groups as f64,
        stats.interactions as f64 / cdm.pos.len() as f64
    );
    println!("  {rate:.3e} interactions/s");
    println!(
        "{}",
        Json::obj([
            ("bench", Json::str("phantom_grape")),
            ("kernel_isa", Json::str(isa)),
            ("scalar_interactions_per_s", Json::num(r_scalar)),
            ("lane_interactions_per_s", Json::num(r_lanes)),
            ("walk_ms", Json::num(t_walk * 1e3)),
            ("threads", Json::num_u64(threads as u64)),
            ("tree_interactions_per_s", Json::num(rate)),
        ])
        .to_string_compact()
    );

    let bar = std::fs::read_to_string("perf-baseline.json")
        .ok()
        .and_then(|t| Json::parse(&t).ok())
        .and_then(|doc| doc.get("tree_interactions_per_s").get("min").as_f64());
    match bar {
        None => {
            println!("no tree_interactions_per_s bar in perf-baseline.json; nothing to gate");
            ExitCode::SUCCESS
        }
        Some(min) if rate >= min => {
            println!("gate: tree_interactions_per_s {rate:.3e} ≥ {min:.3e} ✓");
            ExitCode::SUCCESS
        }
        Some(min) => {
            eprintln!("gate: tree_interactions_per_s {rate:.3e} below the bar {min:.3e}");
            ExitCode::FAILURE
        }
    }
}
