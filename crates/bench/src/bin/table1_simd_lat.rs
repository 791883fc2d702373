//! Table 1: per-direction sweep throughput with and without SIMD lanes and
//! with the LAT transpose on the memory-adverse `u_z` axis.
//!
//! The paper measures Gflop/s per CMG on A64FX; we measure the same three
//! code shapes on the host CPU. Absolute numbers differ, the *shape* must
//! hold: SIMD ≫ scalar on every axis, the strided-gather `u_z` variant far
//! below the other SIMD axes, and LAT restoring `u_z` to parity.
//!
//! ```text
//! cargo run --release -p vlasov6d-bench --bin table1_simd_lat
//! ```

use vlasov6d_advection::flops_per_cell;
use vlasov6d_advection::line::Scheme;
use vlasov6d_advection::simd::Isa;
use vlasov6d_bench::{gflops, time_median};
use vlasov6d_mesh::Field3;
use vlasov6d_phase_space::{sweep, Exec, PhaseSpace, VelocityGrid};
use vlasov6d_suite::{table_header, table_row};

fn test_ps(nx: usize, nu: usize) -> PhaseSpace {
    let vg = VelocityGrid::cubic(nu, 1.0);
    let mut ps = PhaseSpace::zeros([nx, nx, nx], vg);
    ps.fill_with(|s, u| {
        let sx = (s[0] as f64 * 0.7).sin() + (s[1] as f64 * 0.4).cos();
        (2.5 + sx) * (-(u[0] * u[0] + u[1] * u[1] + u[2] * u[2]) / 0.3).exp() + 0.01
    });
    ps
}

fn main() {
    let (nx, nu) = (8usize, 32usize);
    let cells = nx.pow(3) * nu.pow(3);
    let scheme = Scheme::SlMpp5;
    let fpc = flops_per_cell(scheme);
    println!(
        "Table 1 replica: {nx}³ spatial × {nu}³ velocity = {} cells, SL-MPP5 ({} flops/cell), \
         kernel.isa = {}\n",
        vlasov6d_suite::human_count(cells as f64),
        fpc,
        Isa::detect().name()
    );
    // Both units per entry: Mcell/s is what was measured and stays comparable
    // when the operation count changes (86 → 64 flops/cell in PR 18); Gflop/s
    // = Mcell/s · flops/cell is the paper's unit.
    let widths = [10, 20, 20, 20, 12];
    println!(
        "{}",
        table_header(
            &[
                "direction",
                "scalar[Mc/s|Gf/s]",
                "SIMD[Mc/s|Gf/s]",
                "LAT[Mc/s|Gf/s]",
                "SIMD/scalar"
            ],
            &widths
        )
    );

    let spatial_cfl: Vec<f64> = (0..nu)
        .map(|k| 0.35 * (k as f64 - nu as f64 / 2.0) / nu as f64)
        .collect();
    let mut accel = Field3::zeros([nx, nx, nx]);
    for (i, v) in accel.as_mut_slice().iter_mut().enumerate() {
        *v = 0.4 * ((i as f64 * 0.17).sin());
    }

    // Timing strategy: the sweep cost does not depend on the data values, so
    // we time repeated *in-place* sweeps on a pre-built grid — no per-rep
    // setup to subtract, no noise from allocation.
    let mut ps = test_ps(nx, nu);
    let mut results: Vec<(String, f64, f64, Option<f64>)> = Vec::new();

    // Velocity directions first (paper order: ux, uy, uz, x, y, z).
    for d in 0..3 {
        let label = ["u_x", "u_y", "u_z"][d];
        let t_scalar = time_median(
            || sweep::sweep_velocity(&mut ps, d, &accel, scheme, Exec::Scalar),
            5,
        );
        let t_simd = time_median(
            || sweep::sweep_velocity(&mut ps, d, &accel, scheme, Exec::Simd),
            5,
        );
        let t_lat = (d == 2).then(|| {
            time_median(
                || sweep::sweep_velocity(&mut ps, d, &accel, scheme, Exec::Lat),
                5,
            )
        });
        results.push((label.into(), t_scalar, t_simd, t_lat));
    }
    for d in 0..3 {
        let label = ["x", "y", "z"][d];
        let t_scalar = time_median(
            || sweep::sweep_spatial(&mut ps, d, &spatial_cfl, scheme, Exec::Scalar),
            5,
        );
        let t_simd = time_median(
            || sweep::sweep_spatial(&mut ps, d, &spatial_cfl, scheme, Exec::Simd),
            5,
        );
        results.push((label.into(), t_scalar, t_simd, None));
    }

    for (label, t_scalar, t_simd, t_lat) in &results {
        let both = |t: f64| {
            let t = t.max(1e-9);
            format!(
                "{:.1} | {:.2}",
                cells as f64 / t / 1e6,
                gflops(cells, fpc, t)
            )
        };
        println!(
            "{}",
            table_row(
                &[
                    label.clone(),
                    both(*t_scalar),
                    both(*t_simd),
                    t_lat.map_or("-".into(), both),
                    format!("×{:.1}", t_scalar / t_simd),
                ],
                &widths
            )
        );
    }

    // The paper's qualitative claims, reported as observations (absolute
    // factors are host-dependent; see EXPERIMENTS.md).
    let g = |t: f64| gflops(cells, fpc, t.max(1e-9));
    let uz_lat = g(results[2].3.unwrap());
    let uz_simd = g(results[2].2);
    let ux_simd = g(results[0].2);
    let uz_scalar = g(results[2].1);
    println!("\npaper shape checks:");
    println!(
        "  SIMD lanes beat scalar on every axis:       {}",
        if results.iter().all(|r| r.2 < r.1) {
            "✓"
        } else {
            "✗"
        }
    );
    println!(
        "  u_z strided-SIMD vs packed-lane u_x:        {uz_simd:.1} vs {ux_simd:.1} Gf/s {}",
        if uz_simd < ux_simd {
            "(slower ✓)"
        } else {
            "(host caches hide the stride)"
        }
    );
    println!(
        "  LAT u_z vs strided u_z / scalar u_z:        {uz_lat:.1} vs {uz_simd:.1} / {uz_scalar:.1} Gf/s {}",
        if uz_lat > uz_scalar { "✓" } else { "✗" }
    );
    println!("  (paper on A64FX SVE: u_z 7.4 scalar → 17.9 strided → 224.2 LAT Gf/s)");
}
