//! Taint-probe execution: pin the symbolic proofs to the real kernels.
//!
//! For every sweep region the probe replays each task *alone* on a fresh
//! copy of the initial state (via [`vlasov6d_phase_space::probe`], which
//! dispatches the very task bodies the parallel regions run) and checks:
//!
//! 1. **Containment** — every element a task changed lies inside its
//!    declared plan (a kernel writing outside its plan is the race the
//!    symbolic proof cannot see);
//! 2. **Observed disjointness** — no element is changed by two tasks,
//!    recorded in a [`ClaimMap`];
//! 3. **Composition** — splicing the per-task results over the declared
//!    partition reproduces the full parallel sweep *bitwise*, at 1, 2 and 4
//!    workers and under a permuted schedule. This also refutes read-side
//!    interference: if a task read another task's output, its isolated
//!    replay would differ from the parallel run.
//!
//! Regions whose tasks are pure per-element maps (moments, pool sources)
//! and the FFT columns are checked by thread-count/schedule invariance plus
//! an each-index-exactly-once counter on the live pool.

use std::sync::atomic::{AtomicU32, Ordering};

use kerncheck::claims::ClaimMap;
use kerncheck::report::Report;
use vlasov6d_advection::line::Scheme;
use vlasov6d_fft::{Complex64, Fft3, RealFft3};
use vlasov6d_kerncheck as kerncheck;
use vlasov6d_mesh::Field3;
use vlasov6d_phase_space::exchange::GHOST_WIDTH;
use vlasov6d_phase_space::plan;
use vlasov6d_phase_space::probe::{self as ps_probe, GhostedRegion};
use vlasov6d_phase_space::sweep::{sweep_spatial, sweep_velocity};
use vlasov6d_phase_space::{Exec, PhaseSpace, VelocityGrid};

use crate::concrete::declared_ghosted_indices;
use crate::registry::{Shape, DIST_REGIONS};

const PASS: &str = "probe";

/// Deterministic splitmix64-derived f32 in (0, 1], distinct per index.
fn noise(i: usize, salt: u64) -> f32 {
    let mut z = (i as u64)
        .wrapping_add(salt)
        .wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^= z >> 31;
    (z >> 40) as f32 / (1u64 << 24) as f32 + 1e-3
}

fn filled_ps(sdims: [usize; 3], nv: [usize; 3], salt: u64) -> PhaseSpace {
    let mut ps = PhaseSpace::zeros(sdims, VelocityGrid::new(nv, 3.0));
    for (i, v) in ps.as_mut_slice().iter_mut().enumerate() {
        *v = noise(i, salt);
    }
    ps
}

/// Splice per-task replays over the declared partition and compare against
/// full parallel runs. `run_task(initial_copy, task)` replays one task;
/// `run_full(state)` runs the whole region on the live pool. `covers`: the
/// declared plans must tile the whole array (false for a region that updates
/// part of it — what it leaves alone must then come through unchanged).
#[allow(clippy::too_many_arguments)]
fn probe_region(
    report: &mut Report,
    name: &str,
    initial: &[f32],
    n_tasks: usize,
    covers: bool,
    declared: impl Fn(usize) -> Vec<usize>,
    run_task: impl Fn(&mut [f32], usize),
    run_full: impl Fn(&mut [f32]),
) {
    let mut claims = ClaimMap::new(initial.len());
    let mut merged = initial.to_vec();
    for task in 0..n_tasks {
        let mut copy = initial.to_vec();
        run_task(&mut copy, task);
        let declared_set = declared(task);
        // Containment: observed ⊆ declared.
        let mut in_plan = vec![false; initial.len()];
        for &i in &declared_set {
            in_plan[i] = true;
        }
        for i in 0..initial.len() {
            if copy[i].to_bits() != initial[i].to_bits() && !in_plan[i] {
                report.violated(
                    PASS,
                    name.to_string(),
                    "task wrote outside its declared plan",
                    Some(format!("task {task} changed index {i}")),
                );
                return;
            }
        }
        // Observed disjointness over the declared partition.
        if let Err(c) = claims.claim_all(task, declared_set.iter().copied()) {
            report.violated(
                PASS,
                name.to_string(),
                "declared plans overlap",
                Some(c.to_string()),
            );
            return;
        }
        for &i in &declared_set {
            merged[i] = copy[i];
        }
    }
    if let (true, Err(idx)) = (covers, claims.exact_cover()) {
        report.violated(
            PASS,
            name.to_string(),
            "declared plans do not cover the array",
            Some(format!("index {idx} unclaimed")),
        );
        return;
    }
    // Composition: isolated replays spliced together == the parallel run,
    // at several worker counts and under a permuted schedule.
    for threads in [1usize, 2, 4] {
        let mut full = initial.to_vec();
        rayon::with_num_threads(threads, || run_full(&mut full));
        if full
            .iter()
            .zip(&merged)
            .any(|(a, b)| a.to_bits() != b.to_bits())
        {
            report.violated(
                PASS,
                name.to_string(),
                "parallel run differs bitwise from spliced single-task replays",
                Some(format!("{threads} threads")),
            );
            return;
        }
    }
    let mut full = initial.to_vec();
    rayon::with_config(Some(4), Some(0x5eed), || run_full(&mut full));
    if full
        .iter()
        .zip(&merged)
        .any(|(a, b)| a.to_bits() != b.to_bits())
    {
        report.violated(
            PASS,
            name.to_string(),
            "permuted-schedule run differs bitwise from spliced replays",
            Some("4 threads, seed 0x5eed".into()),
        );
        return;
    }
    report.verified(
        PASS,
        name.to_string(),
        format!(
            "{n_tasks} isolated task replays contained in plan, disjoint, and splice to the \
             parallel result bitwise (1/2/4 threads + permuted schedule)"
        ),
    );
}

/// The velocity grids of the sweep fixtures, in [`Shape::ALL`] order: ragged
/// (scalar pencils), cubic (`simd` / `lat`: whole-run bundles and tiles) and
/// the plasma scenarios' thin shape (gathered bundles along `y` and `z`).
const GRIDS: [[usize; 3]; 3] = [[3; 3], [8; 3], [6, 4, 4]];

/// The periodic sweep's regions: every task of `sweep_spatial` replayed
/// through the periodic window, on a 6-cell swept axis (a full ±GHOST
/// stencil) and on a 2-cell one, whose window repeats the pencil — there
/// with shifts of up to three cells, whose integer parts widen it further.
fn spatial_probes(report: &mut Report) {
    let schemes = [Scheme::Upwind1, Scheme::Sl3, Scheme::Sl5, Scheme::SlMpp5];
    let cases = [
        (Exec::Scalar, GRIDS[0], Shape::Scalar, "scalar"),
        (Exec::Simd, GRIDS[1], Shape::Simd, "simd"),
        (Exec::Lat, GRIDS[1], Shape::Simd, "lat"),
        (Exec::Simd, GRIDS[2], Shape::Gather, "gather"),
    ];
    for (d, axis) in ["x", "y", "z"].iter().enumerate() {
        for ((e, (exec, nv, shape, tag)), (n, suffix)) in cases
            .iter()
            .enumerate()
            .flat_map(|c| [(6, ""), (2, ".thin")].map(|n| (c, n)))
        {
            if !shape.occurs_along(d) {
                continue;
            }
            let mut sdims = [2usize, 2, 2];
            sdims[d] = n;
            let ps0 = filled_ps(sdims, *nv, 0xA11CE + d as u64);
            // The lane kernels run SL5 / SL-MPP5 only; any other scheme
            // would resolve to the scalar tasks.
            let scheme = match exec {
                Exec::Scalar => schemes[(d + e) % schemes.len()],
                _ => schemes[2 + (d + e) % 2],
            };
            let (scale, offset) = if n == 2 { (6.5, -3.1) } else { (0.45, 0.0) };
            let cfl: Vec<f64> = (0..nv[d])
                .map(|k| scale * (k as f64 + 1.0) / nv[d] as f64 + offset)
                .collect();
            let dims = ps0.dims6();
            // The task shape the request runs here: what the plans take.
            let ran = exec.resolve(scheme, &dims, d);
            // One task through the periodic region, or the public sweep.
            let run = |state: &mut [f32], task: Option<usize>| {
                let mut ps = ps0.clone();
                ps.as_mut_slice().copy_from_slice(state);
                if task.is_some() {
                    let (region, planes) = (GhostedRegion::Periodic, (&[][..], &[][..]));
                    ps_probe::run_ghosted_region(&mut ps, d, &cfl, scheme, region, planes, task);
                } else {
                    sweep_spatial(&mut ps, d, &cfl, scheme, *exec);
                }
                state.copy_from_slice(ps.as_slice());
            };
            probe_region(
                report,
                &format!("sweep.spatial.{axis}.{tag}{suffix}"),
                ps0.as_slice(),
                plan::spatial_task_count(&dims, d, ran),
                true,
                |t| declared_ghosted_indices(&dims, d, ran, GhostedRegion::Periodic, t),
                |state, task| run(state, Some(task)),
                |state| run(state, None),
            );
        }
    }
}

/// A distributed-sweep fixture for axis `d`: an 8-cell swept axis (two
/// interior cells between the edge slabs), one of the velocity [`GRIDS`],
/// noise for the neighbours' planes, a mixed-sign CFL table and a scheme the
/// lanes implement.
struct DistFixture {
    d: usize,
    ps0: PhaseSpace,
    planes: [Vec<f32>; 2],
    cfl: Vec<f64>,
    scheme: Scheme,
}

impl DistFixture {
    fn new(d: usize, nv: [usize; 3]) -> Self {
        let mut sdims = [2usize, 2, 2];
        sdims[d] = 8;
        let ps0 = filled_ps(sdims, nv, 0xD157 + d as u64);
        let plane_len = ps0.len() / sdims[d] * GHOST_WIDTH;
        DistFixture {
            d,
            planes: [0x10, 0x20].map(|salt| (0..plane_len).map(|i| noise(i, salt)).collect()),
            cfl: (0..nv[d])
                .map(|k| 0.9 * (k as f64 - 0.5 * (nv[d] - 1) as f64) / nv[d] as f64)
                .collect(),
            scheme: [Scheme::SlMpp5, Scheme::Sl5][d % 2],
            ps0,
        }
    }

    /// Run `region` (or one task of it) on `state` in place.
    fn run(&self, state: &mut [f32], region: GhostedRegion, task: Option<usize>) {
        let mut ps = self.ps0.clone();
        ps.as_mut_slice().copy_from_slice(state);
        let planes = (&self.planes[0][..], &self.planes[1][..]);
        ps_probe::run_ghosted_region(
            &mut ps,
            self.d,
            &self.cfl,
            self.scheme,
            region,
            planes,
            task,
        );
        state.copy_from_slice(ps.as_slice());
    }
}

fn dist_probes(report: &mut Report) {
    for (d, axis) in ["x", "y", "z"].iter().enumerate() {
        for (nv, (shape, tag)) in GRIDS.into_iter().zip(Shape::ALL) {
            if !shape.occurs_along(d) {
                continue;
            }
            let fx = DistFixture::new(d, nv);
            let dims = fx.ps0.dims6();
            let exec = Exec::Simd.resolve(fx.scheme, &dims, d);
            for (region, name) in DIST_REGIONS {
                probe_region(
                    report,
                    &format!("sweep.dist.{axis}.{name}.{tag}"),
                    fx.ps0.as_slice(),
                    plan::spatial_task_count(&dims, d, exec),
                    region == GhostedRegion::Sync,
                    |t| declared_ghosted_indices(&dims, d, exec, region, t),
                    |state, task| fx.run(state, region, Some(task)),
                    |state| fx.run(state, region, None),
                );
            }
        }
    }
}

/// Negative control on the live kernel: an interior task that also writes
/// cell `GHOST_WIDTH − 1` of its pencil — an edge cell, which the edge region
/// still has to read at its pre-sweep value — must fail containment.
fn control_interior_escape(report: &mut Report) {
    let fx = DistFixture::new(0, [8; 3]);
    let dims = fx.ps0.dims6();
    let exec = Exec::Simd.resolve(fx.scheme, &dims, 0);
    let mut sub = Report::new();
    probe_region(
        &mut sub,
        "control.dist.interior.escape",
        fx.ps0.as_slice(),
        plan::spatial_task_count(&dims, 0, exec),
        false,
        |t| declared_ghosted_indices(&dims, 0, exec, GhostedRegion::Interior, t),
        |state, task| {
            fx.run(state, GhostedRegion::Interior, Some(task));
            let bundles = plan::Bundles::spatial(&dims, 0);
            for (_, b) in bundles.task(task) {
                for i in b.cell_indices(GHOST_WIDTH - 1) {
                    state[i] += 0.5;
                }
            }
        },
        |state| fx.run(state, GhostedRegion::Interior, None),
    );
    let caught = sub
        .properties
        .iter()
        .any(|p| !p.ok() && p.detail.contains("outside its declared plan"));
    report.control(
        PASS,
        "control.dist.interior.escape",
        "an interior task writing an edge cell must fail containment",
        caught,
        Some(format!("task also writes cell {}", GHOST_WIDTH - 1)),
    );
}

fn velocity_probes(report: &mut Report) {
    let cases: [(usize, Exec, &str); 9] = [
        (0, Exec::Scalar, "ux.scalar"),
        (0, Exec::Simd, "ux.simd"),
        (1, Exec::Scalar, "uy.scalar"),
        (1, Exec::Simd, "uy.simd"),
        (1, Exec::Simd, "uy.gather"),
        (2, Exec::Scalar, "uz.scalar"),
        (2, Exec::Simd, "uz.simd"),
        (2, Exec::Lat, "uz.lat"),
        (2, Exec::Simd, "uz.gather"),
    ];
    for (d, exec, tag) in cases {
        // A ragged block for the scalar pencils, a cubic one for the packed
        // and transposed lane shapes, the plasma scenarios' thin one (4-cell
        // `u_y` / `u_z` lines, bundles spanning two `iux`) for the gathers.
        let nv = match (exec, tag.ends_with(".gather")) {
            (Exec::Scalar, _) => [6; 3],
            (_, false) => [8; 3],
            (_, true) => [6, 4, 4],
        };
        let sdims = [2, 2, 3];
        let ps0 = filled_ps(sdims, nv, 0xB10C + d as u64);
        let dims = ps0.dims6();
        let mut cfl = Field3::zeros(sdims);
        for (cell, c) in cfl.as_mut_slice().iter_mut().enumerate() {
            *c = 0.08 * (cell as f64 + 1.0) / sdims.iter().product::<usize>() as f64 + 0.1;
        }
        let scheme = Scheme::SlMpp5;
        let n_tasks = ps_probe::velocity_task_count(&ps0);
        let initial = ps0.as_slice().to_vec();
        probe_region(
            report,
            &format!("sweep.velocity.blocks.{tag}"),
            &initial,
            n_tasks,
            true,
            |cell| plan::velocity_block(&dims, cell).collect(),
            |state, cell| {
                let mut ps = ps0.clone();
                ps.as_mut_slice().copy_from_slice(state);
                ps_probe::run_velocity_task(&mut ps, d, &cfl, scheme, exec, cell);
                state.copy_from_slice(ps.as_slice());
            },
            |state| {
                let mut ps = ps0.clone();
                ps.as_mut_slice().copy_from_slice(state);
                sweep_velocity(&mut ps, d, &cfl, scheme, exec);
                state.copy_from_slice(ps.as_slice());
            },
        );
    }
}

/// Bitwise equality of f64 fields.
fn fields_equal(a: &Field3, b: &Field3) -> bool {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .all(|(x, y)| x.to_bits() == y.to_bits())
}

type MomentEval<'a> = Box<dyn Fn() -> Field3 + 'a>;

fn moments_invariance(report: &mut Report) {
    use vlasov6d_phase_space::moments;
    let ps = filled_ps([2, 3, 2], [6; 3], 0x707);
    let cases: [(&str, MomentEval); 5] = [
        ("moments.density", Box::new(|| moments::density(&ps))),
        ("moments.momentum", Box::new(|| moments::momentum(&ps, 1))),
        (
            "moments.bulk_velocity",
            Box::new(|| moments::bulk_velocity(&ps, 0, 1e-12)),
        ),
        (
            "moments.dispersion",
            Box::new(|| moments::velocity_dispersion(&ps, 1e-12)),
        ),
        (
            "moments.step_sums",
            Box::new(|| {
                let s = moments::step_sums(&ps);
                let [px, py, pz] = s.momentum;
                let scalars = vec![s.mass, px, py, pz, s.sq_sum, s.l2, s.min as f64];
                Field3::from_vec([scalars.len(), 1, 1], scalars)
            }),
        ),
    ];
    for (name, eval) in &cases {
        let reference = rayon::with_num_threads(1, eval);
        let mut ok = true;
        for threads in [2usize, 4] {
            let out = rayon::with_num_threads(threads, eval);
            if !fields_equal(&reference, &out) {
                report.violated(
                    PASS,
                    name.to_string(),
                    "moment reduction is not thread-count invariant",
                    Some(format!("{threads} threads")),
                );
                ok = false;
                break;
            }
        }
        if ok {
            let out = rayon::with_config(Some(4), Some(0xD1CE), eval);
            if !fields_equal(&reference, &out) {
                report.violated(
                    PASS,
                    name.to_string(),
                    "moment reduction depends on the chunk schedule",
                    Some("4 threads, seed 0xD1CE".into()),
                );
                ok = false;
            }
        }
        if ok {
            report.verified(
                PASS,
                name.to_string(),
                "bitwise identical at 1/2/4 threads and under a permuted schedule \
                 (reductions bridge to sequential order)",
            );
        }
    }
}

fn fft_invariance(report: &mut Report) {
    let dims = [4usize, 6, 4];
    let n = dims.iter().product::<usize>();
    let initial: Vec<Complex64> = (0..n)
        .map(|i| Complex64::new(noise(i, 0xFF7) as f64, noise(i, 0x7FF) as f64))
        .collect();
    let fft = Fft3::new(dims);
    let roundtrip = |threads: usize| {
        let mut data = initial.clone();
        rayon::with_num_threads(threads, || {
            fft.forward(&mut data);
            fft.inverse(&mut data);
        });
        data
    };
    let reference = roundtrip(1);
    let c2c_ok = [2usize, 4].iter().all(|&t| {
        roundtrip(t)
            .iter()
            .zip(&reference)
            .all(|(a, b)| a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits())
    });
    if c2c_ok {
        report.verified(
            PASS,
            "fft.c2c.axis0.columns",
            "forward+inverse roundtrip bitwise identical at 1/2/4 threads",
        );
    } else {
        report.violated(
            PASS,
            "fft.c2c.axis0.columns",
            "c2c transform is not thread-count invariant",
            None,
        );
    }

    let rfft = RealFft3::new(dims);
    let real_in: Vec<f64> = (0..n).map(|i| noise(i, 0xEA1) as f64).collect();
    let real_roundtrip = |threads: usize| {
        let mut spectrum = vec![Complex64::new(0.0, 0.0); rfft.spectrum_len()];
        let mut out = vec![0.0f64; n];
        rayon::with_num_threads(threads, || {
            rfft.forward(&real_in, &mut spectrum);
            rfft.inverse(&spectrum, &mut out);
        });
        (spectrum, out)
    };
    let (sref, oref) = real_roundtrip(1);
    let r2c_ok = [2usize, 4].iter().all(|&t| {
        let (s, o) = real_roundtrip(t);
        s.iter()
            .zip(&sref)
            .all(|(a, b)| a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits())
            && o.iter().zip(&oref).all(|(a, b)| a.to_bits() == b.to_bits())
    });
    if r2c_ok {
        report.verified(
            PASS,
            "fft.r2c.axis0.columns",
            "real forward+inverse roundtrip bitwise identical at 1/2/4 threads",
        );
    } else {
        report.violated(
            PASS,
            "fft.r2c.axis0.columns",
            "r2c transform is not thread-count invariant",
            None,
        );
    }
}

fn pool_each_once(report: &mut Report) {
    use rayon::prelude::*;
    // par_iter_mut: every element handed out exactly once on the live pool.
    let mut data = vec![0u32; 4099];
    rayon::with_num_threads(4, || {
        data.par_iter_mut().for_each(|v| *v += 1);
    });
    let slice_ok = data.iter().all(|&v| v == 1);
    report_once(report, "pool.slice_mut", slice_ok, "par_iter_mut");

    // par_chunks_mut with a ragged tail: every element exactly once, tail
    // chunk the right length.
    let mut data = vec![0u32; 1003];
    rayon::with_num_threads(4, || {
        data.par_chunks_mut(64).for_each(|chunk| {
            for v in chunk {
                *v += 1;
            }
        });
    });
    let chunks_ok = data.iter().all(|&v| v == 1);
    report_once(
        report,
        "pool.chunks_mut",
        chunks_ok,
        "par_chunks_mut (ragged)",
    );

    // Vec::into_par_iter: every element moved out exactly once.
    let counts: Vec<AtomicU32> = (0..2048).map(|_| AtomicU32::new(0)).collect();
    rayon::with_num_threads(4, || {
        (0..counts.len())
            .collect::<Vec<_>>()
            .into_par_iter()
            .for_each(|i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
    });
    let vec_ok = counts.iter().all(|c| c.load(Ordering::Relaxed) == 1);
    report_once(report, "pool.vec_into", vec_ok, "Vec into_par_iter");

    // The pool's own chunk claiming, exercised under a permuted schedule.
    let counts: Vec<AtomicU32> = (0..3000).map(|_| AtomicU32::new(0)).collect();
    rayon::with_config(Some(4), Some(0xC1A1), || {
        (0..counts.len()).into_par_iter().for_each(|i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
    });
    let claims_ok = counts.iter().all(|c| c.load(Ordering::Relaxed) == 1);
    report_once(
        report,
        "pool.chunk_claims",
        claims_ok,
        "permuted-schedule range",
    );
}

fn report_once(report: &mut Report, name: &str, ok: bool, what: &str) {
    if ok {
        report.verified(
            PASS,
            name.to_string(),
            format!("{what}: every index visited exactly once on the live 4-worker pool"),
        );
    } else {
        report.violated(
            PASS,
            name.to_string(),
            format!("{what}: an index was visited zero or multiple times"),
            None,
        );
    }
}

/// Negative control: a task body that deliberately writes one element past
/// its declared per-element plan. The containment check must catch it.
fn control_probe_escape(report: &mut Report) {
    let initial = vec![0.0f32; 16];
    let mut sub = Report::new();
    probe_region(
        &mut sub,
        "control.probe.escape",
        &initial,
        initial.len(),
        true,
        |t| vec![t],
        |state, t| {
            state[t] = 1.0;
            state[(t + 1) % state.len()] += 0.5; // the escape
        },
        |state| {
            for v in state.iter_mut() {
                *v = 1.5;
            }
        },
    );
    let caught = sub
        .properties
        .iter()
        .any(|p| !p.ok() && p.detail.contains("outside its declared plan"));
    report.control(
        PASS,
        "control.probe.escape",
        "a task writing one index past its plan must fail containment",
        caught,
        Some("task writes (t+1) mod n".into()),
    );
}

pub fn run(report: &mut Report) {
    spatial_probes(report);
    dist_probes(report);
    control_interior_escape(report);
    velocity_probes(report);
    moments_invariance(report);
    fft_invariance(report);
    pool_each_once(report);
    control_probe_escape(report);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_pass_is_clean() {
        let mut report = Report::new();
        run(&mut report);
        assert!(report.ok(), "{}", report.render_text("racecheck"));
    }
}
