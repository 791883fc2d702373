//! Per-layer probes: the host's ceilings and a timing of each layer's public
//! entry points on the workloads' own shapes.
//!
//! These run in the traced round only and never feed an end-to-end number.
//! Every timing is the median of a few repetitions after one warm-up call,
//! recorded as a span of the benchmark's own around the call.

use crate::record::Recorder;
use crate::stats::median;
use crate::workloads::{hybrid, plasma, ranked, Size, RANKS, THREADS};
use rayon::prelude::*;
use std::hint::black_box;
use std::time::{Duration, Instant};
use vlasov6d::{HybridSimulation, KineticScenario};
use vlasov6d_advection::line::{advect_line, LineWork, Scheme};
use vlasov6d_advection::Boundary;
use vlasov6d_ckpt::codec::{decode, encode};
use vlasov6d_ckpt::{CheckpointStore, Encoding, Record};
use vlasov6d_fft::{Complex64, DistFft3, Fft3, Pencil2D, RealFft3};
use vlasov6d_mesh::{Decomp3, Field3};
use vlasov6d_mpisim::{Cart3, Comm, Universe};
use vlasov6d_nbody::{Tree, TreePm};
use vlasov6d_phase_space::exchange::{sweep_spatial_distributed, sweep_spatial_overlapped};
use vlasov6d_phase_space::{moments, sweep, Exec, PhaseSpace, VelocityGrid};
use vlasov6d_poisson::{DistPoisson, PoissonSolver};
use vlasov6d_query::request::{decode_batch, encode_batch};

/// Timed repetitions per probe (after one warm-up call), and of a probe
/// whose warm-up call took longer than [`LONG_CALL`].
const REPS: usize = 5;
const LONG_REPS: usize = 3;
const LONG_CALL: Duration = Duration::from_millis(250);

/// Probe results by metric name.
pub type Values = Vec<(&'static str, f64)>;

/// Median seconds of `f` over [`REPS`] calls, each under a span `name`.
fn med(rec: &mut Recorder, name: &'static str, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    f();
    let reps = if started.elapsed() > LONG_CALL {
        LONG_REPS
    } else {
        REPS
    };
    let secs: Vec<f64> = (0..reps).map(|_| rec.span(name, |_| f()).1).collect();
    median(&secs).expect("reps is positive")
}

/// [`med`] for a collective probe: every rank calls it, each repetition is
/// timed barrier to barrier.
fn med_ranked(rec: &mut Recorder, comm: &Comm, name: &'static str, f: impl FnMut(u64)) -> f64 {
    med_ranked_n(rec, comm, name, REPS, f)
}

fn med_ranked_n(
    rec: &mut Recorder,
    comm: &Comm,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut(u64),
) -> f64 {
    let mut tag = 1 << 20;
    let mut call = |rec: &mut Recorder| {
        tag += 64;
        comm.barrier();
        rec.span(name, |_| {
            f(tag);
            comm.barrier();
        })
        .1
    };
    call(rec);
    let secs: Vec<f64> = (0..reps).map(|_| call(rec)).collect();
    median(&secs).expect("reps is positive")
}

// ---------------------------------------------------------------------------
// Host ceilings
// ---------------------------------------------------------------------------

/// Last-level-cache size the bandwidth probe is sized against, from sysfs
/// (per-core L2 × cores sharing nothing; 0 when unreadable).
pub fn l2_mib() -> f64 {
    let text = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index2/size")
        .unwrap_or_default();
    let text = text.trim();
    let (digits, unit) = text.split_at(text.trim_end_matches(char::is_alphabetic).len());
    let scale = match unit {
        "K" => 1.0 / 1024.0,
        "M" => 1.0,
        _ => 0.0,
    };
    digits.parse::<f64>().unwrap_or(0.0) * scale
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// STREAM triad `a = b + s·c` over three f64 arrays of `len` each, split
/// across [`THREADS`] threads; GB/s counting 24 B per element.
fn triad_gbps(rec: &mut Recorder, len: usize) -> f64 {
    let mut a = vec![0.0f64; len];
    let b = vec![1.0f64; len];
    let c = vec![2.0f64; len];
    let chunk = len.div_ceil(THREADS);
    let secs = med(rec, "host.triad", || {
        std::thread::scope(|scope| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                scope.spawn(move || {
                    for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                        *a = b + 3.0 * c;
                    }
                });
            }
        });
        black_box(&mut a);
    });
    (len * 24) as f64 / secs / 1e9
}

/// Multiply-add throughput of [`THREADS`] threads on register-resident f32
/// lanes, as this build compiles it (no `target-cpu` flags: the ceiling the
/// kernels themselves are held to). Two flops per lane per iteration.
fn fma_gflops(rec: &mut Recorder, iters: usize) -> f64 {
    const LANES: usize = 64;
    let secs = med(rec, "host.fma", || {
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                scope.spawn(move || {
                    let mut acc = [1.0f32 + t as f32; LANES];
                    let (m, a) = (black_box(0.999_f32), black_box(0.001_f32));
                    for _ in 0..iters {
                        for v in &mut acc {
                            *v = *v * m + a;
                        }
                    }
                    black_box(acc);
                });
            }
        });
    });
    (THREADS * LANES * iters * 2) as f64 / secs / 1e9
}

// ---------------------------------------------------------------------------
// Shapes
// ---------------------------------------------------------------------------

fn filled(sdims: [usize; 3], vgrid: VelocityGrid) -> PhaseSpace {
    let mut ps = PhaseSpace::zeros(sdims, vgrid);
    ps.fill_with(ranked::initial_f);
    ps
}

/// Shifts of a spatial sweep: one per velocity index, inside ±0.45 cells.
fn spatial_cfl(n: usize) -> Vec<f64> {
    (0..n)
        .map(|k| 0.9 * ((k as f64 + 0.5) / n as f64 - 0.5))
        .collect()
}

/// Shifts of a velocity sweep: one per spatial cell, smooth, inside ±0.4.
fn velocity_cfl(sdims: [usize; 3]) -> Field3 {
    let mut cfl = Field3::zeros(sdims);
    for (i, v) in cfl.as_mut_slice().iter_mut().enumerate() {
        *v = 0.4 * (i as f64 * 0.37).sin();
    }
    cfl
}

/// One full sweep along `axis` (0–2 spatial, 3–5 velocity).
fn sweep_axis(ps: &mut PhaseSpace, axis: usize, vcfl: &Field3, exec: Exec) {
    if axis < 3 {
        let cfl = spatial_cfl(ps.vgrid.n[axis]);
        sweep::sweep_spatial(ps, axis, &cfl, Scheme::SlMpp5, exec);
    } else {
        sweep::sweep_velocity(ps, axis - 3, vcfl, Scheme::SlMpp5, exec);
    }
}

fn f32_bytes(values: &[f32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

// ---------------------------------------------------------------------------
// Serial probes
// ---------------------------------------------------------------------------

const SIMD_RATE: [&str; 6] = [
    "phase_space.sweep.x.simd.mcells_per_s",
    "phase_space.sweep.y.simd.mcells_per_s",
    "phase_space.sweep.z.simd.mcells_per_s",
    "phase_space.sweep.ux.simd.mcells_per_s",
    "phase_space.sweep.uy.simd.mcells_per_s",
    "phase_space.sweep.uz.simd.mcells_per_s",
];
const SIMD_BW: [&str; 6] = [
    "phase_space.sweep.x.simd.bw_frac",
    "phase_space.sweep.y.simd.bw_frac",
    "phase_space.sweep.z.simd.bw_frac",
    "phase_space.sweep.ux.simd.bw_frac",
    "phase_space.sweep.uy.simd.bw_frac",
    "phase_space.sweep.uz.simd.bw_frac",
];
const SIMD_SPAN: [&str; 6] = [
    "sweep.simd.x",
    "sweep.simd.y",
    "sweep.simd.z",
    "sweep.simd.ux",
    "sweep.simd.uy",
    "sweep.simd.uz",
];
/// Scalar sweeps on the plasma grid: axis index → metric and span name.
const SCALAR: [(usize, &str, &str); 4] = [
    (
        0,
        "phase_space.sweep.x.scalar.mcells_per_s",
        "sweep.scalar.x",
    ),
    (
        1,
        "phase_space.sweep.y.scalar.mcells_per_s",
        "sweep.scalar.y",
    ),
    (
        3,
        "phase_space.sweep.ux.scalar.mcells_per_s",
        "sweep.scalar.ux",
    ),
    (
        4,
        "phase_space.sweep.uy.scalar.mcells_per_s",
        "sweep.scalar.uy",
    ),
];

/// Host ceilings plus every probe that needs no ranks. Runs under the serial
/// workloads' pool width.
fn serial_probes(rec: &mut Recorder, size: Size, out: &mut Values) {
    let quick = size == Size::Quick;
    // 64 MiB per array: 8× the two 4 MiB L2s of the reference host.
    let triad = triad_gbps(rec, if quick { 1 << 18 } else { 8 << 20 });
    out.push(("host.triad_gbps", triad));
    out.push((
        "host.fma_gflops",
        fma_gflops(rec, if quick { 1 << 14 } else { 1 << 20 }),
    ));
    out.push(("host.nproc", nproc() as f64));
    out.push(("host.l2_mib", l2_mib()));

    // advect_line on the plasma grid's two line lengths.
    out.push((
        "advection.flops_per_cell",
        vlasov6d_advection::flops_per_cell(Scheme::SlMpp5),
    ));
    for (name, span, len) in [
        (
            "advection.line.slmpp5.ns_per_cell",
            "advect_line.64",
            64usize,
        ),
        (
            "advection.line.slmpp5.short4.ns_per_cell",
            "advect_line.4",
            4,
        ),
    ] {
        let cells = if quick { 1 << 12 } else { 1 << 18 };
        let mut data: Vec<f32> = (0..cells).map(|i| 1.0 + (i as f32 * 0.1).sin()).collect();
        let mut work = LineWork::new();
        let secs = med(rec, span, || {
            for line in data.chunks_exact_mut(len) {
                advect_line(Scheme::SlMpp5, line, 0.3, Boundary::Periodic, &mut work);
            }
        });
        out.push((name, secs * 1e9 / cells as f64));
    }

    // Sweeps and moments on the hybrid16 grid.
    let cfg = hybrid::config(size);
    let mut ps = filled([cfg.nx; 3], VelocityGrid::cubic(cfg.nu, 0.6));
    let vcfl = velocity_cfl(ps.sdims);
    let mcells = ps.len() as f64 / 1e6;
    for axis in 0..6 {
        let secs = med(rec, SIMD_SPAN[axis], || {
            sweep_axis(&mut ps, axis, &vcfl, Exec::Simd)
        });
        out.push((SIMD_RATE[axis], mcells / secs));
        // Computed, not measured: one f32 read and one written per cell.
        out.push((SIMD_BW[axis], 8.0 * mcells / 1e3 / secs / triad));
    }
    let secs = med(rec, "sweep.lat.uz", || {
        sweep_axis(&mut ps, 5, &vcfl, Exec::Lat)
    });
    out.push(("phase_space.sweep.uz.lat.mcells_per_s", mcells / secs));
    let secs = med(rec, "moments.density.hybrid16", || {
        black_box(moments::density(&ps));
    });
    out.push((
        "phase_space.moments.density.hybrid16.mcells_per_s",
        mcells / secs,
    ));

    // Pool: an empty region, and one sweep at one thread against two.
    let secs = med(rec, "pool.region", || {
        for _ in 0..100 {
            (0..THREADS).into_par_iter().for_each(|i| {
                black_box(i);
            });
        }
    });
    out.push(("pool.region_overhead_us", secs * 1e6 / 100.0));
    // Checkpoint codec on the same distribution function.
    let raw = f32_bytes(ps.as_slice());
    let mb = raw.len() as f64 / 1e6;
    let secs = med(rec, "ckpt.encode.raw", || {
        black_box(encode(Encoding::Raw, 4, &raw));
    });
    out.push(("ckpt.encode.raw.mb_per_s", mb / secs));
    let secs = med(rec, "ckpt.encode.shuffle_rle", || {
        black_box(encode(Encoding::ShuffleRle, 4, &raw));
    });
    out.push(("ckpt.encode.shuffle_rle.mb_per_s", mb / secs));
    let packed = encode(Encoding::ShuffleRle, 4, &raw);
    let secs = med(rec, "ckpt.decode.shuffle_rle", || {
        black_box(decode(Encoding::ShuffleRle, 4, &packed, raw.len()).expect("round trip"));
    });
    out.push(("ckpt.decode.shuffle_rle.mb_per_s", mb / secs));
    drop((raw, packed, ps));

    // Scalar sweeps and moments on the plasma grid.
    let sc: KineticScenario = plasma::scenario(size);
    let mut ps = filled(sc.grid.sdims, sc.grid.vgrid);
    let vcfl = velocity_cfl(ps.sdims);
    let mcells = ps.len() as f64 / 1e6;
    for (axis, name, span) in SCALAR {
        let secs = med(rec, span, || sweep_axis(&mut ps, axis, &vcfl, Exec::Scalar));
        out.push((name, mcells / secs));
    }
    let secs = med(rec, "moments.density.plasma", || {
        black_box(moments::density(&ps));
    });
    out.push((
        "phase_space.moments.density.plasma.mcells_per_s",
        mcells / secs,
    ));

    // FFT and Poisson on the PM mesh and on the plasma grid.
    let n = cfg.n_pm;
    let rfft = RealFft3::new([n; 3]);
    let field: Vec<f64> = (0..n * n * n).map(|i| (i as f64 * 0.01).sin()).collect();
    let mut spectrum = vec![Complex64::default(); rfft.spectrum_len()];
    let mut back = vec![0.0; field.len()];
    let secs = med(rec, "fft.real3", || {
        rfft.forward(&field, &mut spectrum);
        rfft.inverse(&spectrum, &mut back);
    });
    out.push(("fft.real3.n32.ms", secs * 1e3));
    let thin = sc.grid.sdims;
    let cfft = Fft3::new(thin);
    let mut data: Vec<Complex64> = (0..cfft.len())
        .map(|i| Complex64::real((i as f64 * 0.1).cos()))
        .collect();
    let secs = med(rec, "fft.c2c", || {
        cfft.forward(&mut data);
        cfft.inverse(&mut data);
    });
    out.push(("fft.c2c.32x4x4.us", secs * 1e6));

    let rho = Field3::from_vec([n; 3], field.iter().map(|v| v - 0.5).collect());
    let solver = PoissonSolver::cubic(n).with_cic_deconvolution();
    let secs = med(rec, "poisson.solve.pm", || {
        black_box(solver.solve(&rho, 1.5));
    });
    out.push(("poisson.periodic.n32.solve_ms", secs * 1e3));
    let phi = solver.solve(&rho, 1.5);
    let secs = med(rec, "poisson.force_from_potential", || {
        black_box(PoissonSolver::force_from_potential(&phi));
    });
    out.push(("poisson.force_from_potential.n32.ms", secs * 1e3));
    let thin_solver = PoissonSolver::new(thin);
    let thin_rho = Field3::from_vec(
        thin,
        (0..thin.iter().product::<usize>())
            .map(|i| (i as f64 * 0.3).sin())
            .collect(),
    );
    let secs = med(rec, "poisson.solve.thin", || {
        black_box(thin_solver.solve(&thin_rho, 1.0));
    });
    out.push(("poisson.periodic.32x4x4.solve_us", secs * 1e6));

    // Tree and PM on the hybrid16 particles.
    let cdm = HybridSimulation::new(cfg.clone())
        .cdm
        .expect("hybrid16 carries CDM particles");
    let treepm = TreePm::new(cfg.n_pm, cfg.softening());
    let secs = med(rec, "nbody.tree.build", || {
        black_box(Tree::build(&cdm.pos, cdm.mass));
    });
    out.push(("nbody.tree.build_ms", secs * 1e3));
    let tree = Tree::build(&cdm.pos, cdm.mass);
    let secs = med(rec, "nbody.tree.walk", || {
        black_box(tree.short_range_many(
            &cdm.pos,
            &treepm.split,
            treepm.theta,
            treepm.eps,
            treepm.r_cut,
        ));
    });
    out.push(("nbody.tree.walk_ms", secs * 1e3));
    let secs = med(rec, "nbody.pm.deposit", || {
        black_box(treepm.deposit_density(&cdm));
    });
    out.push(("nbody.pm.deposit_ms", secs * 1e3));
    let phi = treepm.long_range_potential(&treepm.deposit_density(&cdm), 0.1);
    let secs = med(rec, "nbody.pm.interp", || {
        black_box(treepm.pm_accelerations(&phi, &cdm.pos));
    });
    out.push(("nbody.pm.interp_ms", secs * 1e3));

    // The query wire codec on one service batch.
    let batch = crate::requests::stream(1, [cfg.nx; 3], crate::workloads::BATCH_MAX, None);
    let secs = med(rec, "query.wire", || {
        for _ in 0..100 {
            black_box(decode_batch(&encode_batch(&batch)).expect("round trip"));
        }
    });
    out.push(("query.wire.batch4.us", secs * 1e6 / 100.0));
}

/// One SIMD `u_z` sweep of the hybrid16 grid at whatever pool width the
/// caller has set — the numerator and denominator of the thread efficiency.
fn uz_sweep_s(rec: &mut Recorder, size: Size, name: &'static str) -> f64 {
    let cfg = hybrid::config(size);
    let mut ps = filled([cfg.nx; 3], VelocityGrid::cubic(cfg.nu, 0.6));
    let vcfl = velocity_cfl(ps.sdims);
    med(rec, name, || sweep_axis(&mut ps, 5, &vcfl, Exec::Simd))
}

/// Read one `query_evict`-sized block back through the random-access reader.
fn read_record_ms(rec: &mut Recorder, size: Size, scratch: &std::path::Path) -> f64 {
    let sglobal = ranked::sglobal(size);
    let planes = sglobal[0] / RANKS / ranked::EVICT_BLOCKS;
    let block = filled([planes, sglobal[1], sglobal[2]], ranked::vgrid());
    let store = CheckpointStore::new(scratch.join("read-record"));
    store
        .write_serial(
            1,
            0.0,
            &[Record::PhaseSpace(block)],
            Encoding::ShuffleRle,
            1,
        )
        .expect("write the probe block");
    let mut reader = store.open_rank(1, 0).expect("open the probe block");
    med(rec, "ckpt.read_record", || {
        black_box(reader.read_record(0).expect("read the probe block"));
    }) * 1e3
}

// ---------------------------------------------------------------------------
// Ranked probes
// ---------------------------------------------------------------------------

/// Median step seconds of the `dist2` problem on `ranks` ranks.
fn dist_step_s(rec: &mut Recorder, size: Size, ranks: usize, name: &'static str) -> f64 {
    use crate::lifecycle::{Driver, Rig};
    let parent: &Recorder = rec;
    let mut per_rank = Universe::run(ranks, |comm| {
        let rig = ranked::RankedRig::stepping_only(comm, ranked::sglobal(size));
        let mut local = parent.fork(comm.rank() == 0);
        let mut driver = rig.build();
        // Whole steps are the dearest probe: three repetitions.
        let secs = med_ranked_n(&mut local, comm, name, LONG_REPS, |_| {
            driver.step();
        });
        (secs, local)
    });
    let (secs, local) = per_rank.swap_remove(0);
    rec.absorb(local);
    secs
}

fn ranked_probes(rec: &mut Recorder, size: Size, out: &mut Values) {
    let sglobal = ranked::sglobal(size);
    let parent: &Recorder = rec;
    let mut per_rank = Universe::run(RANKS, |comm| {
        let mut rec = parent.fork(comm.rank() == 0);
        let mut out: Values = Vec::new();
        let decomp = Decomp3::new(sglobal, [comm.size(), 1, 1]);
        let cart = Cart3::new(comm, decomp);
        let mut ps = ranked::initial_block(comm, sglobal);
        let cfl = spatial_cfl(ps.vgrid.n[0]);

        let secs = med_ranked(&mut rec, comm, "sweep.x.dist_sync", |tag| {
            sweep_spatial_distributed(&mut ps, &cart, 0, &cfl, Scheme::SlMpp5, tag);
        });
        out.push(("phase_space.sweep.x.dist_sync.ms", secs * 1e3));
        let secs = med_ranked(&mut rec, comm, "sweep.x.overlapped", |tag| {
            sweep_spatial_overlapped(&mut ps, &cart, 0, &cfl, Scheme::SlMpp5, tag);
        });
        out.push(("phase_space.sweep.x.overlapped.ms", secs * 1e3));

        let slab = DistFft3::new(sglobal, comm.size());
        let local: Vec<Complex64> = (0..slab.slab_len())
            .map(|i| Complex64::real((i as f64 * 0.01).sin()))
            .collect();
        let secs = med_ranked(&mut rec, comm, "fft.dist_slab", |tag| {
            let spectrum = slab.forward(comm, &local, tag);
            black_box(slab.inverse(comm, &spectrum, tag + 16));
        });
        out.push(("fft.dist_slab.32x16x16.r2.ms", secs * 1e3));
        let pencil = Pencil2D::new(sglobal, comm.size(), 1);
        let local: Vec<Complex64> = (0..pencil.zpencil_len())
            .map(|i| Complex64::real((i as f64 * 0.01).sin()))
            .collect();
        let secs = med_ranked(&mut rec, comm, "fft.pencil", |tag| {
            let spectrum = pencil.forward(comm, &local, tag);
            black_box(pencil.inverse(comm, &spectrum, tag + 16));
        });
        out.push(("fft.pencil.32x16x16.2x1.ms", secs * 1e3));
        let poisson = DistPoisson::new(sglobal, comm.size());
        let source: Vec<f64> = (0..poisson.local_len())
            .map(|i| (i as f64 * 0.01).sin())
            .collect();
        let secs = med_ranked(&mut rec, comm, "poisson.dist", |tag| {
            black_box(poisson.solve(comm, &source, 1.5, tag));
        });
        out.push(("poisson.dist.32x16x16.r2.solve_ms", secs * 1e3));

        let peer = (comm.rank() + 1) % comm.size();
        let secs = med_ranked(&mut rec, comm, "mpisim.sendrecv", |tag| {
            black_box(comm.sendrecv(peer, tag, vec![0u8; 1 << 20], peer, tag));
        });
        out.push(("mpisim.sendrecv.1mib.us", secs * 1e6));
        let secs = med_ranked(&mut rec, comm, "mpisim.barrier", |_| {
            for _ in 0..100 {
                comm.barrier();
            }
        });
        out.push(("mpisim.barrier.us", secs * 1e6 / 101.0));
        (out, rec)
    });
    let (mut values, local) = per_rank.swap_remove(0);
    out.append(&mut values);
    rec.absorb(local);
}

/// Run every probe. Serial probes run at the serial workloads' pool width,
/// ranked ones at one thread per rank. Each `with_num_threads` wraps whole
/// `Universe::run`s from outside and none is nested in another: it takes a
/// process-wide lock, which a rank must never wait on and which is not
/// re-entrant.
pub fn run(rec: &mut Recorder, size: Size, scratch: &std::path::Path) -> Values {
    let mut out = Values::new();
    let (two_threads, one_rank_threads) = rayon::with_num_threads(THREADS, || {
        serial_probes(rec, size, &mut out);
        out.push((
            "ckpt.read_record.1mib.ms",
            read_record_ms(rec, size, scratch),
        ));
        (
            uz_sweep_s(rec, size, "pool.sweep.2t"),
            dist_step_s(rec, size, 1, "dist.step.1x2"),
        )
    });
    rayon::with_num_threads(1, || {
        let one_thread = uz_sweep_s(rec, size, "pool.sweep.1t");
        out.push((
            "pool.thread_eff_2t",
            one_thread / (THREADS as f64 * two_threads),
        ));
        ranked_probes(rec, size, &mut out);
        // Strong scaling of the dist2 step: 2 ranks × 1 thread (the
        // workload's own shape) against 1 × 1 and 1 × 2.
        let two_ranks = dist_step_s(rec, size, RANKS, "dist.step.2x1");
        let one_rank = dist_step_s(rec, size, 1, "dist.step.1x1");
        out.push(("dist.strong_eff_2r", one_rank / (RANKS as f64 * two_ranks)));
        out.push(("dist.rank_vs_thread", one_rank_threads / two_ranks));
    });
    out
}
