//! Pencil-FFT overlap: the distributed transform (`Pencil2D`) on slab
//! (`4x1`, what `DistributedVlasov` runs) and 2-D pencil rank grids, with
//! the per-stage hidden/exposed split of the split-phase transpose schedule
//! measured through `forward_timed` / `inverse_timed`. The measured overlap
//! efficiency (`hidden / (hidden + exposed)`) then feeds the PM part of the
//! scaling model ([`step_time_calibrated`]) to show what the hidden
//! transpose buys along the paper's Table 3 weak chain.
//!
//! The serial `Fft3` is the oracle: every row must agree with it
//! bitwise-modulo-rounding, and the batched rows must show `hidden > 0` once
//! there is more than one batch to pipeline.
//!
//! ```text
//! cargo run --release -p vlasov6d-bench --bin pencil_fft
//! ```

use std::time::{Duration, Instant};

use vlasov6d_fft::{layout, Complex64, Fft3, Pencil2D, PencilTimings};
use vlasov6d_mpisim::Universe;
use vlasov6d_perfmodel::model::{step_time, step_time_calibrated};
use vlasov6d_perfmodel::{overlap_eff_from_split, paper_runs, MachineModel};
use vlasov6d_suite::{table_header, table_row};

const DIMS: [usize; 3] = [32, 32, 32];
const REPS: usize = 8;

/// Deterministic, structured test field over the global grid.
fn field(g: [usize; 3]) -> Complex64 {
    let (x, y, z) = (g[0] as f64, g[1] as f64, g[2] as f64);
    Complex64::new(
        (0.37 * x).sin() + (0.21 * y).cos() * (0.11 * z).sin(),
        0.25 * (0.13 * (x + 2.0 * y - z)).cos(),
    )
}

/// Largest |forward spectrum − serial spectrum| over all elements, each
/// tagged with its global `[i0, i1, i2]` from the x-pencil map.
fn max_err(ours: &[(usize, [usize; 3], Complex64)], serial: &[Complex64]) -> f64 {
    ours.iter()
        .map(|&(_, [i0, i1, i2], v)| {
            let want = serial[(i0 * DIMS[1] + i1) * DIMS[2] + i2];
            (v - want).norm_sqr().sqrt()
        })
        .fold(0.0, f64::max)
}

fn serial_spectrum() -> Vec<Complex64> {
    let mut data: Vec<Complex64> = (0..DIMS[0] * DIMS[1] * DIMS[2])
        .map(|flat| {
            field([
                flat / (DIMS[1] * DIMS[2]),
                flat / DIMS[2] % DIMS[1],
                flat % DIMS[2],
            ])
        })
        .collect();
    Fft3::new(DIMS).forward(&mut data);
    data
}

struct PencilRow {
    label: String,
    wall: Duration,
    timings: PencilTimings,
    err: f64,
}

/// Run `REPS` forward+inverse pencil transforms on a live universe; report
/// the slowest rank's wall time, the summed per-stage overlap split and the
/// spectrum error against the serial oracle.
fn measure_pencil(rows: usize, cols: usize, batches: usize, serial: &[Complex64]) -> PencilRow {
    let fft = Pencil2D::new(DIMS, rows, cols).with_batches(batches);
    let span = 2 * fft.tag_span();
    let per_rank = Universe::run(rows * cols, {
        let fft = fft.clone();
        move |comm| {
            let me = comm.rank();
            let input: Vec<Complex64> = (0..fft.zpencil_len())
                .map(|flat| field(layout::zpencil().coords(DIMS, fft.grid(), me, flat)))
                .collect();
            let mut timings = PencilTimings::default();
            let mut spectrum = Vec::new();
            comm.barrier();
            let t0 = Instant::now();
            for rep in 0..REPS as u64 {
                spectrum = fft.forward_timed(comm, &input, 2 * rep * span, &mut timings);
                let back = fft.inverse_timed(comm, &spectrum, (2 * rep + 1) * span, &mut timings);
                assert_eq!(back.len(), input.len());
            }
            let wall = t0.elapsed();
            let tagged: Vec<_> = spectrum
                .iter()
                .enumerate()
                .map(|(flat, &v)| (me, layout::xpencil().coords(DIMS, fft.grid(), me, flat), v))
                .collect();
            (wall, timings, tagged)
        }
    });
    let wall = per_rank.iter().map(|r| r.0).max().unwrap();
    let mut timings = PencilTimings::default();
    let mut err: f64 = 0.0;
    for (_, t, tagged) in &per_rank {
        timings.stage1.hidden += t.stage1.hidden;
        timings.stage1.exposed += t.stage1.exposed;
        timings.stage2.hidden += t.stage2.hidden;
        timings.stage2.exposed += t.stage2.exposed;
        err = err.max(max_err(tagged, serial));
    }
    PencilRow {
        label: format!("pencil {rows}x{cols} b{batches}"),
        wall,
        timings,
        err,
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn main() {
    println!(
        "distributed FFT on slab and pencil rank grids, {}x{}x{} grid, {REPS} forward+inverse pairs\n",
        DIMS[0], DIMS[1], DIMS[2]
    );
    let serial = serial_spectrum();

    let widths = [16usize, 11, 13, 13, 13, 13, 11, 10];
    println!(
        "{}",
        table_header(
            &[
                "config",
                "wall [s]",
                "s1 hid [s]",
                "s1 exp [s]",
                "s2 hid [s]",
                "s2 exp [s]",
                "overlap",
                "max err"
            ],
            &widths
        )
    );

    let mut best: Option<(f64, PencilRow)> = None;
    for (rows, cols, batches) in [(4, 1, 1), (2, 2, 1), (2, 2, 4), (4, 2, 4), (2, 4, 4)] {
        let row = measure_pencil(rows, cols, batches, &serial);
        let t = &row.timings;
        let hidden = secs(t.stage1.hidden) + secs(t.stage2.hidden);
        let exposed = secs(t.stage1.exposed) + secs(t.stage2.exposed);
        let eff = overlap_eff_from_split(hidden, exposed);
        println!(
            "{}",
            table_row(
                &[
                    row.label.clone(),
                    format!("{:.4}", secs(row.wall)),
                    format!("{:.4}", secs(t.stage1.hidden)),
                    format!("{:.4}", secs(t.stage1.exposed)),
                    format!("{:.4}", secs(t.stage2.hidden)),
                    format!("{:.4}", secs(t.stage2.exposed)),
                    format!("{:.1}%", 100.0 * eff),
                    format!("{:.1e}", row.err),
                ],
                &widths
            )
        );
        assert!(
            row.err < 1e-9,
            "{}: pencil spectrum disagrees with the serial oracle ({:.3e})",
            row.label,
            row.err
        );
        if batches > 1 && best.as_ref().is_none_or(|(e, _)| eff > *e) {
            best = Some((eff, row));
        }
    }

    let (eff, row) = best.expect("at least one batched pencil config");
    println!(
        "\nsplit-phase verdict: best batched config {} hides {:.1}% of its transpose wait",
        row.label,
        100.0 * eff
    );

    // Feed the measured transpose overlap into the scaling model: the PM
    // part per step along the paper's weak chain with the pencil transposes
    // hidden at the measured efficiency (ghost overlap held at 0 so the
    // delta is the transpose term alone).
    let machine = MachineModel::fugaku_per_cmg();
    println!(
        "\nmodelled PM step time with the transpose hidden at {:.0}% efficiency",
        100.0 * eff
    );
    let widths = [8usize, 12, 14, 14, 10];
    println!(
        "{}",
        table_header(
            &["run", "nodes", "sync [s]", "overlap [s]", "saved"],
            &widths
        )
    );
    for run in paper_runs() {
        let t_sync = step_time(&run, &machine).pm;
        let t_cal = step_time_calibrated(&run, &machine, 0.0, eff).pm;
        println!(
            "{}",
            table_row(
                &[
                    run.id.to_string(),
                    run.nodes.to_string(),
                    format!("{t_sync:.4}"),
                    format!("{t_cal:.4}"),
                    format!("{:.1}%", 100.0 * (1.0 - t_cal / t_sync)),
                ],
                &widths
            )
        );
    }
}
