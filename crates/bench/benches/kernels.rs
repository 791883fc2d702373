//! Microbenches for the hot kernels: 1-D advection (per scheme), lane
//! kernels, the 8×8 LAT transpose, CIC deposit, FFT and tree walks.
//!
//! Self-timed (`harness = false`): criterion is unavailable in the offline
//! build environment, so each kernel runs a warm-up pass followed by timed
//! batches, and we report the median batch, ns/element and element
//! throughput.
//!
//! ```text
//! cargo bench -p vlasov6d-bench --bench kernels
//! ```

use std::hint::black_box;
use std::time::Instant;
use vlasov6d_advection::lanes::{advect_lanes, LanesWork};
use vlasov6d_advection::line::{advect_line, LineWork, Scheme};
use vlasov6d_advection::simd::{f32x8, transpose8x8};
use vlasov6d_advection::Boundary;
use vlasov6d_fft::{Complex64, FftPlan, RealFft3};
use vlasov6d_mesh::assign::{deposit_equal_mass, Scheme as AssignScheme};
use vlasov6d_mesh::Field3;
use vlasov6d_nbody::pp::{InteractionList, SplitKernel};
use vlasov6d_nbody::Tree;
use vlasov6d_poisson::ForceSplit;

/// Run `f` repeatedly: warm up, then time `batches` batches of `iters` calls
/// and print the median batch converted to per-call / per-element figures.
fn bench(name: &str, elements: u64, mut f: impl FnMut()) {
    let (warmup, iters, batches) = (3usize, 20usize, 9usize);
    for _ in 0..warmup {
        f();
    }
    let mut samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = samples[batches / 2];
    let per_elem_ns = median * 1e9 / elements.max(1) as f64;
    let throughput = elements as f64 / median / 1e6;
    println!(
        "{name:<28} {:>12.3} µs/call {per_elem_ns:>9.2} ns/elem {throughput:>9.1} Melem/s",
        median * 1e6
    );
}

fn bench_advect_line() {
    let n = 256;
    let base: Vec<f32> = (0..n)
        .map(|i| (2.0 + (2.0 * std::f64::consts::PI * i as f64 / n as f64).sin()) as f32)
        .collect();
    for (name, scheme) in [
        ("upwind1", Scheme::Upwind1),
        ("sl3", Scheme::Sl3),
        ("sl5", Scheme::Sl5),
        ("slmpp5", Scheme::SlMpp5),
    ] {
        let mut line = base.clone();
        let mut work = LineWork::new();
        bench(&format!("advect_line/{name}"), n as u64, || {
            advect_line(
                scheme,
                &mut line,
                black_box(0.37),
                Boundary::Periodic,
                &mut work,
            );
        });
    }
}

fn bench_advect_lanes() {
    let n = 256;
    let base: Vec<f32x8> = (0..n)
        .map(|i| f32x8::splat(2.0 + (i as f32 * 0.1).sin()))
        .collect();
    let mut bundle = base.clone();
    let mut work = LanesWork::new();
    bench("advect_lanes/slmpp5_8lanes", 8 * n as u64, || {
        advect_lanes(
            Scheme::SlMpp5,
            &mut bundle,
            black_box(0.37),
            Boundary::Periodic,
            &mut work,
        );
    });
}

fn bench_transpose() {
    let mut rows: [f32x8; 8] =
        core::array::from_fn(|r| f32x8(core::array::from_fn(|l| (r * 8 + l) as f32)));
    bench("transpose8x8", 64, || {
        transpose8x8(black_box(&mut rows));
    });
}

fn bench_cic() {
    let mut state = 1u64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let positions: Vec<[f64; 3]> = (0..10_000).map(|_| [next(), next(), next()]).collect();
    bench("cic_deposit/10k_32cube", positions.len() as u64, || {
        let mut f = Field3::zeros_cubic(32);
        deposit_equal_mass(&mut f, AssignScheme::Cic, black_box(&positions), 1.0);
        black_box(f.sum());
    });
}

fn bench_fft() {
    let n = 1024;
    let plan = FftPlan::new(n);
    let sig: Vec<Complex64> = (0..n)
        .map(|i| Complex64::new((i as f64).sin(), 0.0))
        .collect();
    bench("fft/c2c_1024", n as u64, || {
        let mut buf = sig.clone();
        plan.forward(&mut buf);
        black_box(buf[0]);
    });
    let plan3 = RealFft3::new([32, 32, 32]);
    let field: Vec<f64> = (0..32 * 32 * 32).map(|i| (i as f64 * 0.01).sin()).collect();
    let mut spec = vec![Complex64::ZERO; plan3.spectrum_len()];
    bench("fft/r2c_32cube", (32 * 32 * 32) as u64, || {
        plan3.forward(black_box(&field), &mut spec);
        black_box(spec[1]);
    });
}

fn bench_tree() {
    let mut state = 7u64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let positions: Vec<[f64; 3]> = (0..5_000).map(|_| [next(), next(), next()]).collect();
    let split = ForceSplit::new(0.04);
    let r_cut = split.cutoff_radius(1e-5);
    bench("tree/build_5k", positions.len() as u64, || {
        black_box(Tree::build(black_box(&positions), 2e-4));
    });
    let tree = Tree::build(&positions, 2e-4);
    bench("tree/walk_one_target", 1, || {
        black_box(tree.short_range_at(black_box([0.5, 0.5, 0.5]), &split, 0.5, 1e-4, r_cut));
    });
    // The production pass (per pair evaluation), then its kernel alone on
    // one list of the same length as a group's.
    let (_, stats) = tree.short_range_walk(&positions, &split, 0.5, 1e-4, r_cut, 1.0);
    bench("tree/group_walk_5k", stats.interactions, || {
        black_box(tree.short_range_many(black_box(&positions), &split, 0.5, 1e-4, r_cut));
    });
    let kernel = SplitKernel::new(&split, 1e-4, r_cut);
    let mut list = InteractionList::default();
    for p in &positions[..(stats.list_entries / stats.groups) as usize] {
        list.push(p.map(|c| 0.5 * (c - 0.5)), 2e-4);
    }
    bench("pp/lane_kernel", list.lanes() as u64, || {
        black_box(kernel.accel(black_box([0.01, -0.02, 0.03]), black_box(&list)));
    });
}

/// Span-layer overhead: per-guard cost inert (no collector armed — the cost
/// every library call pays outside a `StepScope`) and armed (inside a step),
/// then the implied fraction of a real single-rank step's wall clock. The
/// observability acceptance bar is < 2% of step time.
fn bench_obs_overhead() {
    const N: usize = 1000;
    bench("obs/span_inert", N as u64, || {
        for _ in 0..N {
            let g = vlasov6d_obs::span!("bench.noop");
            black_box(&g);
        }
    });
    let armed_cost = {
        let scope = vlasov6d_obs::StepScope::begin(1);
        let t0 = Instant::now();
        for _ in 0..50 * N {
            let g = vlasov6d_obs::span!("bench.noop");
            black_box(&g);
        }
        let cost = t0.elapsed().as_secs_f64() / (50 * N) as f64;
        drop(scope.finish());
        cost
    };
    println!(
        "{:<28} {:>12.3} µs/call {:>9.2} ns/elem {:>9.1} Melem/s",
        "obs/span_armed",
        armed_cost * 1e6 * N as f64,
        armed_cost * 1e9,
        1.0 / armed_cost / 1e6
    );

    // Real-step overhead: spans recorded per step × armed per-span cost,
    // against the step's wall clock.
    let mut config = vlasov6d::SimulationConfig::small_test();
    config.z_init = 6.0;
    let mut sim = vlasov6d::HybridSimulation::new(config);
    let t0 = Instant::now();
    let record = sim.step();
    let wall = t0.elapsed().as_secs_f64();
    let mut n_spans = 0u64;
    vlasov6d_obs::visit_spans(&record.spans, |_| n_spans += 1);
    let overhead = n_spans as f64 * armed_cost / wall;
    println!(
        "obs/step_overhead: {n_spans} spans/step × {:.0} ns = {:.4}% of {:.1} ms step ({})",
        armed_cost * 1e9,
        100.0 * overhead,
        wall * 1e3,
        if overhead < 0.02 {
            "< 2% ✓"
        } else {
            "≥ 2% ✗"
        }
    );
}

fn main() {
    println!(
        "{:<28} {:>17} {:>17} {:>17}",
        "kernel", "median", "per-element", "throughput"
    );
    bench_advect_line();
    bench_advect_lanes();
    bench_transpose();
    bench_cic();
    bench_fft();
    bench_tree();
    bench_obs_overhead();
}
