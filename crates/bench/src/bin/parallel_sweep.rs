//! Intra-rank shared-memory scaling of the pencil sweeps on the real
//! work-stealing pool: serial vs 2/4/8-thread throughput for a spatial
//! sweep, a velocity sweep, and the density moment.
//!
//! Every region exercised here is registered with racecheck (`crates/verify`)
//! and proven write-disjoint (`cargo xtask verify`), so the threaded
//! results are bitwise identical to serial — this binary asserts that on
//! every timed run before trusting the clock.
//!
//! Rows land in `parallel_sweep.jsonl` next to the other bench records.
//! When the host has ≥ 8 cores the 8-thread sweep speedup is gated against
//! the `parallel_sweep_speedup_8t` bar in `perf-baseline.json`; on smaller
//! hosts (CI containers are often 1-core) the bar is reported but skipped,
//! since a speedup measured on oversubscribed threads is noise.
//!
//! ```text
//! cargo run --release -p vlasov6d-bench --bin parallel_sweep
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use vlasov6d_advection::flops_per_cell;
use vlasov6d_advection::line::Scheme;
use vlasov6d_bench::{gflops, time_median};
use vlasov6d_mesh::Field3;
use vlasov6d_obs::{Json, JsonlSink};
use vlasov6d_phase_space::{moments, sweep, Exec, PhaseSpace, VelocityGrid};
use vlasov6d_suite::{table_header, table_row};

const THREADS: [usize; 4] = [1, 2, 4, 8];
const REPS: usize = 5;

fn test_ps(nx: usize, nu: usize) -> PhaseSpace {
    let vg = VelocityGrid::cubic(nu, 1.0);
    let mut ps = PhaseSpace::zeros([nx, nx, nx], vg);
    ps.fill_with(|s, u| {
        let sx = (s[0] as f64 * 0.7).sin() + (s[1] as f64 * 0.4).cos() + (s[2] as f64 * 0.9).sin();
        (2.5 + sx) * (-(u[0] * u[0] + u[1] * u[1] + u[2] * u[2]) / 0.3).exp() + 0.01
    });
    ps
}

fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vck-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// One timed kernel: `run` mutates `ps` in place starting from `ps0`; the
/// closure returns the flop estimate per invocation.
struct Kernel {
    name: &'static str,
    flops: f64,
    run: Box<dyn FnMut(&mut PhaseSpace)>,
}

fn main() -> ExitCode {
    let (nx, nu) = (12usize, 8usize);
    let cells = nx.pow(3) * nu.pow(3);
    let scheme = Scheme::SlMpp5;
    let fpc = flops_per_cell(scheme) as f64;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "parallel_sweep: {nx}\u{b3} spatial \u{d7} {nu}\u{b3} velocity = {} cells, \
         SL-MPP5, host has {cores} core(s)\n",
        vlasov6d_suite::human_count(cells as f64)
    );

    let ps0 = test_ps(nx, nu);
    let spatial_cfl: Vec<f64> = (0..nu)
        .map(|k| 0.35 * (k as f64 - nu as f64 / 2.0) / nu as f64)
        .collect();
    let mut accel = Field3::zeros([nx, nx, nx]);
    for (i, v) in accel.as_mut_slice().iter_mut().enumerate() {
        *v = 0.4 * ((i as f64 * 0.17).sin());
    }

    let cfl = spatial_cfl.clone();
    let acc = accel.clone();
    let mut kernels = vec![
        Kernel {
            name: "sweep.spatial.x.simd",
            flops: cells as f64 * fpc,
            run: Box::new(move |ps| sweep::sweep_spatial(ps, 0, &cfl, scheme, Exec::Simd)),
        },
        Kernel {
            name: "sweep.velocity.uy.simd",
            flops: cells as f64 * fpc,
            run: Box::new(move |ps| sweep::sweep_velocity(ps, 1, &acc, scheme, Exec::Simd)),
        },
        Kernel {
            name: "moments.density",
            // One multiply-add per phase-space cell into the cell's sum.
            flops: cells as f64 * 2.0,
            run: Box::new(|ps| {
                std::hint::black_box(moments::density(ps));
            }),
        },
    ];

    let widths = [24, 8, 12, 12, 10];
    println!(
        "{}",
        table_header(
            &["region", "threads", "time[ms]", "Gflop/s", "speedup"],
            &widths
        )
    );

    let root = scratch();
    let mut sink = JsonlSink::create(root.join("parallel_sweep.jsonl")).expect("jsonl sink");
    let mut sweep_speedup_8t = f64::INFINITY;

    for k in &mut kernels {
        // Serial oracle: the result every threaded run must reproduce bitwise.
        let mut oracle = ps0.clone();
        rayon::with_num_threads(1, || (k.run)(&mut oracle));
        let mut t_serial = 0.0;
        for &threads in &THREADS {
            let mut ps = ps0.clone();
            let t = rayon::with_num_threads(threads, || {
                time_median(
                    || {
                        ps.as_mut_slice().copy_from_slice(ps0.as_slice());
                        (k.run)(&mut ps);
                    },
                    REPS,
                )
            });
            assert_eq!(
                ps.as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                oracle
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "{} at {threads} threads diverged from the serial oracle",
                k.name
            );
            if threads == 1 {
                t_serial = t;
            }
            let speedup = t_serial / t;
            if threads == 8 && k.name.starts_with("sweep.") {
                sweep_speedup_8t = sweep_speedup_8t.min(speedup);
            }
            println!(
                "{}",
                table_row(
                    &[
                        k.name.to_string(),
                        format!("{threads}"),
                        format!("{:.3}", t * 1e3),
                        format!("{:.2}", gflops(1, k.flops, t)),
                        format!("{speedup:.2}\u{d7}"),
                    ],
                    &widths
                )
            );
            sink.write_line(
                &Json::obj([
                    ("bench", Json::str("parallel_sweep")),
                    ("region", Json::str(k.name)),
                    ("threads", Json::num_u64(threads as u64)),
                    ("host_cores", Json::num_u64(cores as u64)),
                    ("time_ms", Json::num(t * 1e3)),
                    ("gflops", Json::num(gflops(1, k.flops, t))),
                    ("speedup", Json::num(speedup)),
                ])
                .to_string_compact(),
            )
            .expect("jsonl line");
        }
    }
    sink.flush().expect("jsonl flush");
    println!(
        "\nrows written to {}",
        root.join("parallel_sweep.jsonl").display()
    );

    // Gate the worst sweep speedup at 8 threads against the checked-in bar.
    let bar = std::fs::read_to_string("perf-baseline.json")
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .and_then(|doc| doc.get("parallel_sweep_speedup_8t").get("min").as_f64());
    let Some(bar) = bar else {
        println!("no parallel_sweep_speedup_8t bar in perf-baseline.json; nothing to gate");
        return ExitCode::SUCCESS;
    };
    println!("sweep speedup at 8 threads: {sweep_speedup_8t:.2}\u{d7} (bar: \u{2265} {bar}\u{d7})");
    if cores < 8 {
        println!("host has {cores} < 8 cores: bar reported, not enforced (oversubscribed threads)");
        return ExitCode::SUCCESS;
    }
    if sweep_speedup_8t < bar {
        eprintln!("FAIL: 8-thread sweep speedup {sweep_speedup_8t:.2} below the {bar} bar");
        return ExitCode::FAILURE;
    }
    println!("gate passed");
    ExitCode::SUCCESS
}
