//! The pool is only allowed into the sweeps because racecheck proves every
//! registered region write-disjoint — which makes the threaded result a
//! pure function of the input, independent of worker count and schedule.
//! These tests enforce that promise empirically: threaded sweeps must be
//! **bitwise** identical to the 1-thread oracle across schemes × `Exec`
//! variants × 2/4/8 workers × thin-axis shapes, and across permuted
//! work-claiming schedules.

use proptest::prelude::*;
use vlasov6d_advection::line::Scheme;
use vlasov6d_mesh::Field3;
use vlasov6d_phase_space::{moments, sweep, Exec, PhaseSpace, VelocityGrid};

const SCHEMES: [Scheme; 4] = [Scheme::Upwind1, Scheme::Sl3, Scheme::Sl5, Scheme::SlMpp5];
const EXECS: [Exec; 3] = [Exec::Scalar, Exec::Simd, Exec::Lat];
const THREADS: [usize; 3] = [2, 4, 8];

/// Deterministic, strictly positive test distribution; `salt` varies the
/// phases so different cases see different data.
fn build_ps(sdims: [usize; 3], nv: usize, salt: u64) -> PhaseSpace {
    build_ps_on(sdims, VelocityGrid::cubic(nv, 1.0), salt)
}

fn build_ps_on(sdims: [usize; 3], vg: VelocityGrid, salt: u64) -> PhaseSpace {
    let mut ps = PhaseSpace::zeros(sdims, vg);
    let p = (salt % 97) as f64 * 0.073;
    ps.fill_with(|s, u| {
        let sx = (s[0] as f64 * (0.7 + p)).sin()
            + (s[1] as f64 * 0.4 + p).cos()
            + (s[2] as f64 * 0.9).sin();
        (2.5 + sx) * (-(u[0] * u[0] + u[1] * u[1] + u[2] * u[2]) / (0.3 + p * 0.1)).exp() + 0.01
    });
    ps
}

fn bits(ps: &PhaseSpace) -> Vec<u32> {
    ps.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Spatial sweeps: every swept axis needs ≥ 2·GHOST = 6 cells; the
    /// other two spatial axes are deliberately thin (1–3 cells) so the
    /// boundary-slab partitions and ragged task counts get exercised.
    #[test]
    fn threaded_spatial_sweep_is_bitwise_serial(
        scheme_i in 0usize..4,
        exec_i in 0usize..3,
        d in 0usize..3,
        a in 1usize..4,
        b in 1usize..4,
        salt in 0u64..1024,
    ) {
        let scheme = SCHEMES[scheme_i];
        let exec = EXECS[exec_i];
        let mut sdims = [a, b, a.max(b)];
        sdims[d] = 6;
        let nv = if exec == Exec::Scalar { 6 } else { 8 };
        let cfl: Vec<f64> = (0..nv).map(|k| 0.45 * (k as f64 + 1.0) / nv as f64).collect();

        let mut oracle = build_ps(sdims, nv, salt);
        rayon::with_num_threads(1, || {
            sweep::sweep_spatial(&mut oracle, d, &cfl, scheme, exec);
        });
        for &threads in &THREADS {
            let mut ps = build_ps(sdims, nv, salt);
            rayon::with_num_threads(threads, || {
                sweep::sweep_spatial(&mut ps, d, &cfl, scheme, exec);
            });
            prop_assert_eq!(bits(&oracle), bits(&ps));
        }
    }

    /// Velocity sweeps over every axis (LAT is a `u_z`-only code shape, so
    /// the Lat draw pins `d = 2`), same bitwise bar.
    #[test]
    fn threaded_velocity_sweep_is_bitwise_serial(
        scheme_i in 0usize..4,
        exec_i in 0usize..3,
        d_draw in 0usize..3,
        a in 1usize..4,
        salt in 0u64..1024,
    ) {
        let scheme = SCHEMES[scheme_i];
        let exec = EXECS[exec_i];
        let d = if exec == Exec::Lat { 2 } else { d_draw };
        let sdims = [a, 2, 3];
        let nv = if exec == Exec::Scalar { 6 } else { 8 };
        let mut accel = Field3::zeros(sdims);
        for (i, v) in accel.as_mut_slice().iter_mut().enumerate() {
            *v = 0.4 * ((i as f64 * 0.17 + (salt % 31) as f64 * 0.05).sin());
        }

        let mut oracle = build_ps(sdims, nv, salt);
        rayon::with_num_threads(1, || {
            sweep::sweep_velocity(&mut oracle, d, &accel, scheme, exec);
        });
        for &threads in &THREADS {
            let mut ps = build_ps(sdims, nv, salt);
            rayon::with_num_threads(threads, || {
                sweep::sweep_velocity(&mut ps, d, &accel, scheme, exec);
            });
            prop_assert_eq!(bits(&oracle), bits(&ps));
        }
    }
}

/// Thin velocity grids run in lanes too — strips with a shift per lane,
/// gathered velocity bundles, 4-cell lines: the same bitwise bar at 1 / 2 /
/// 4 workers on every axis.
#[test]
fn thin_grid_lane_sweeps_are_bitwise_serial() {
    let sdims = [8usize, 4, 4];
    let mut accel = Field3::zeros(sdims);
    for (i, v) in accel.as_mut_slice().iter_mut().enumerate() {
        *v = 0.4 * ((i as f64 * 0.17).sin());
    }
    for nv in [[16usize, 4, 4], [6, 4, 4]] {
        let vg = VelocityGrid::new(nv, 1.0);
        for axis in 0..6 {
            let d = axis % 3;
            let cfl: Vec<f64> = (0..nv[d])
                .map(|k| 0.9 * (k as f64 + 1.0) / nv[d] as f64 - 0.5)
                .collect();
            let run = |threads: usize| {
                let mut ps = build_ps_on(sdims, vg, 11);
                rayon::with_num_threads(threads, || {
                    if axis < 3 {
                        sweep::sweep_spatial(&mut ps, d, &cfl, Scheme::SlMpp5, Exec::Simd);
                    } else {
                        sweep::sweep_velocity(&mut ps, d, &accel, Scheme::SlMpp5, Exec::Simd);
                    }
                });
                bits(&ps)
            };
            let dims = build_ps_on(sdims, vg, 11).dims6();
            assert_eq!(Exec::Simd.resolve(Scheme::SlMpp5, &dims, axis), Exec::Simd);
            let oracle = run(1);
            for threads in [2, 4] {
                assert!(
                    oracle == run(threads),
                    "{nv:?} axis {axis}: {threads} threads"
                );
            }
        }
    }
}

/// Because tasks are write-disjoint and reductions bridge to sequential
/// order, the *schedule* must not matter either: permuting the order in
/// which 4 workers claim tasks cannot change a single bit, in the sweeps
/// or in the f64 moment reductions.
#[test]
fn permuted_schedules_are_bitwise_identical() {
    let sdims = [6usize, 2, 3];
    let cfl: Vec<f64> = (0..8).map(|k| 0.45 * (k as f64 + 1.0) / 8.0).collect();
    let mut accel = Field3::zeros(sdims);
    for (i, v) in accel.as_mut_slice().iter_mut().enumerate() {
        *v = 0.4 * ((i as f64 * 0.17).sin());
    }

    let run = |threads: Option<usize>, seed: Option<u64>| {
        rayon::with_config(threads, seed, || {
            let mut ps = build_ps(sdims, 8, 7);
            sweep::sweep_spatial(&mut ps, 0, &cfl, Scheme::SlMpp5, Exec::Simd);
            sweep::sweep_velocity(&mut ps, 2, &accel, Scheme::SlMpp5, Exec::Lat);
            let rho = moments::density(&ps);
            let sigma = moments::velocity_dispersion(&ps, 1e-12);
            (
                bits(&ps),
                rho.as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<u64>>(),
                sigma
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<u64>>(),
            )
        })
    };

    let oracle = run(Some(1), None);
    for seed in [0u64, 1, 0x5EED, 0xDEAD_BEEF, u64::MAX] {
        let permuted = run(Some(4), Some(seed));
        assert_eq!(oracle, permuted, "seed {seed:#x} changed the result");
    }
}
