//! Distributed (rank-decomposed) execution must agree with serial execution —
//! the property that lets the scaling study trust the mpisim replicas.

use vlasov6d::dist_sim::{DistributedVlasov, OverlapPolicy};
use vlasov6d::scenario::{king, plasma};
use vlasov6d::KineticScenario;
use vlasov6d_advection::line::Scheme;
use vlasov6d_ckpt::{CheckpointPolicy, CheckpointStore};
use vlasov6d_cosmology::{Background, CosmologyParams};
use vlasov6d_mesh::{Decomp3, Field3};
use vlasov6d_mpisim::{Cart3, Universe};
use vlasov6d_phase_space::exchange::{sweep_spatial_distributed, GHOST_WIDTH};
use vlasov6d_phase_space::{moments, sweep, Exec, PhaseSpace, VelocityGrid};

fn fill(s: [usize; 3], u: [f64; 3]) -> f64 {
    let sx = (s[0] as f64 * 0.5).sin() + (s[1] as f64 * 0.3).cos() + (s[2] as f64 * 0.7).sin();
    (3.5 + sx) * (-(u[0] * u[0] + u[1] * u[1] + u[2] * u[2]) / 0.5).exp() + 0.01
}

/// Three rounds of x/y/z sweeps on 2×3×2 ranks against the local periodic
/// sweep, **bitwise**: the distributed sweeps run the same pencil tasks
/// through the ghost-extended kernels at the shape `Exec::resolve` gives
/// `Exec::Simd` — a function of the velocity grid alone, so every block
/// resolves as the whole box does: packed bundles and tiles on the cubic
/// grid, packed and gathered bundles on the thin one (the plasma scenarios'
/// shape), scalar pencils on the ragged one.
#[test]
fn multi_sweep_distributed_run_matches_serial() {
    let sglobal = [12usize, 12, 12];
    let exec = Exec::Simd;
    for vg in [
        VelocityGrid::cubic(8, 1.0),
        VelocityGrid::new([8, 4, 4], 1.0),
        VelocityGrid::cubic(6, 1.0),
    ] {
        let nv = vg.n;
        let cfl_of = move |d: usize, round: usize| -> Vec<f64> {
            let half = 0.5 * (nv[d] - 1) as f64;
            (0..nv[d])
                .map(|k| {
                    0.3 * (k as f64 - half) / half * (1.0 + 0.1 * d as f64 + 0.05 * round as f64)
                })
                .collect()
        };

        // Serial reference: three rounds of x/y/z sweeps.
        let mut serial = PhaseSpace::zeros(sglobal, vg);
        serial.fill_with(fill);
        for round in 0..3 {
            for d in 0..3 {
                sweep::sweep_spatial(&mut serial, d, &cfl_of(d, round), Scheme::SlMpp5, exec);
            }
        }

        // Distributed on 2×3×2 = 12 ranks.
        let decomp = Decomp3::new(sglobal, [2, 3, 2]);
        let blocks = Universe::run(12, move |comm| {
            let cart = Cart3::new(comm, decomp);
            let mut ps =
                PhaseSpace::zeros_block(cart.local_dims(), cart.local_offset(), sglobal, vg);
            ps.fill_with(fill);
            for round in 0..3 {
                for d in 0..3 {
                    sweep_spatial_distributed(
                        &mut ps,
                        &cart,
                        d,
                        &cfl_of(d, round),
                        Scheme::SlMpp5,
                        (round * 10 + d) as u64 * 4,
                    );
                    cart.comm().barrier();
                }
            }
            (cart.local_offset(), ps)
        });

        for (off, local) in blocks {
            let dims = local.sdims;
            for l0 in 0..dims[0] {
                for l1 in 0..dims[1] {
                    for l2 in 0..dims[2] {
                        let got = local.velocity_block([l0, l1, l2]);
                        let want = serial.velocity_block([off[0] + l0, off[1] + l1, off[2] + l2]);
                        assert!(
                            got.iter()
                                .zip(want)
                                .all(|(a, b)| a.to_bits() == b.to_bits()),
                            "{nv:?}: block {off:?} cell ({l0},{l1},{l2}) differs from serial"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn global_mass_is_conserved_across_ranks() {
    let sglobal = [8usize, 8, 8];
    let vg = VelocityGrid::cubic(8, 1.0);
    let decomp = Decomp3::new(sglobal, [2, 2, 2]);
    let masses = Universe::run(8, move |comm| {
        let cart = Cart3::new(comm, decomp);
        let mut ps = PhaseSpace::zeros_block(cart.local_dims(), cart.local_offset(), sglobal, vg);
        ps.fill_with(fill);
        let before = comm.allreduce_sum(ps.total_mass());
        let cfl: Vec<f64> = (0..8).map(|k| 0.4 * (k as f64 - 3.5) / 3.5).collect();
        for d in 0..3 {
            sweep_spatial_distributed(&mut ps, &cart, d, &cfl, Scheme::SlMpp5, d as u64 * 4);
            cart.comm().barrier();
        }
        let after = comm.allreduce_sum(ps.total_mass());
        (before, after)
    });
    for (before, after) in masses {
        assert!(
            (after / before - 1.0).abs() < 1e-6,
            "global mass {before} → {after}"
        );
    }
}

/// The differential suite for the overlapped drift: a full driver stepped
/// under [`OverlapPolicy::Overlapped`] must stay **bitwise** identical to the
/// synchronous oracle — every scheme, 1/2/4 ranks (4 ranks puts the local
/// block below `2·GHOST_WIDTH`, exercising the thin-block fallback), 8 full
/// Strang steps with gravity, Δt control and both kicks in the loop, so the
/// cached force crosses seven step boundaries — and, on the overlapped side,
/// one resume boundary: after step 4 it is torn down and rebuilt from its
/// checkpoint, which must not move a bit either.
///
/// Both drivers run in the same universe; the barrier after each step pair
/// keeps their (deliberately identical) tag streams from interleaving — the
/// per-`(source, tag)` FIFO then matches each driver's receives to its own
/// sends.
#[test]
fn overlapped_step_is_bitwise_identical_to_synchronous() {
    let sglobal = [16usize, 8, 8];
    let vg = VelocityGrid::cubic(8, 0.6);
    let steps = 8;
    let root = std::env::temp_dir().join(format!("vdc-overlap-{}", std::process::id()));
    for scheme in [Scheme::Upwind1, Scheme::Sl3, Scheme::Sl5, Scheme::SlMpp5] {
        for n_ranks in [1usize, 2, 4] {
            let store = CheckpointStore::new(root.join(format!("{scheme:?}-{n_ranks}")));
            Universe::run(n_ranks, move |comm| {
                let decomp = Decomp3::new(sglobal, [comm.size(), 1, 1]);
                let off = decomp.local_offset(comm.rank());
                let dims = decomp.local_dims(comm.rank());
                let build = |overlap: OverlapPolicy| {
                    let bg = Background::new(CosmologyParams::planck2015());
                    let mut local = PhaseSpace::zeros_block(dims, off, sglobal, vg);
                    local.fill_with(fill);
                    DistributedVlasov::new(comm, local, bg, 0.2, 1.0)
                        .with_scheme(scheme)
                        .with_overlap(overlap)
                };
                let mut sync = build(OverlapPolicy::Synchronous);
                let mut over = build(OverlapPolicy::Overlapped);
                for step in 0..steps {
                    let (a_sync, dt_sync) = sync.step(comm);
                    comm.barrier();
                    let (a_over, dt_over) = over.step(comm);
                    comm.barrier();
                    assert_eq!(
                        a_sync.to_bits(),
                        a_over.to_bits(),
                        "{scheme:?} {n_ranks} rank(s) step {step}: scale factors diverged"
                    );
                    assert_eq!(dt_sync.to_bits(), dt_over.to_bits());
                    if step == 3 {
                        over.checkpoint(comm, &store, &CheckpointPolicy::every(1))
                            .expect("checkpoint commit");
                        let bg = Background::new(CosmologyParams::planck2015());
                        over = DistributedVlasov::resume_from(comm, &store, bg)
                            .expect("resume")
                            .with_overlap(OverlapPolicy::Overlapped);
                    }
                }
                for (i, (a, b)) in sync
                    .ps
                    .as_slice()
                    .iter()
                    .zip(over.ps.as_slice())
                    .enumerate()
                {
                    assert!(
                        a.to_bits() == b.to_bits(),
                        "{scheme:?} {n_ranks} rank(s): bit divergence at block {off:?} \
                         flat index {i} after {steps} steps: {a:?} vs {b:?}"
                    );
                }
            });
        }
    }
    std::fs::remove_dir_all(&root).unwrap();
}

/// One rank's `(t, Δt)` clock stream, as bits for exact comparison.
type ClockStream = Vec<(u64, u64)>;

/// Run a registered scenario on the distributed driver with `n_ranks` slabs
/// and return `(full-or-block phase spaces in rank order, per-step clocks)`.
/// `make` is a plain `fn` so the closure stays `Copy + Send` for the
/// universe's thread spawn.
fn run_scenario_distributed(
    make: fn() -> KineticScenario,
    n_ranks: usize,
    steps: usize,
) -> (Vec<Vec<f32>>, Vec<ClockStream>) {
    let results = Universe::run(n_ranks, move |comm| {
        let sc = make();
        let decomp = Decomp3::new(sc.grid.sdims, [comm.size(), 1, 1]);
        let mut local = PhaseSpace::zeros_block(
            decomp.local_dims(comm.rank()),
            decomp.local_offset(comm.rank()),
            sc.grid.sdims,
            sc.grid.vgrid,
        );
        sc.fill(&mut local);
        let bg = Background::new(CosmologyParams::planck2015());
        // Static time axis: `a` is plain time starting at 0; the mean
        // density is subtracted from the measured field, so the Ω anchor
        // is unused.
        let mut sim = DistributedVlasov::new(comm, local, bg, 0.0, 0.0)
            .with_dynamics(sc.dynamics())
            .with_scheme(sc.grid.scheme)
            .with_exec(sc.grid.exec)
            .with_plan_verification();
        sim.max_dln_a = sc.max_step;
        sim.cfl_spatial = sc.cfl_spatial;
        let mut clocks = Vec::with_capacity(steps);
        for _ in 0..steps {
            let (t, dt) = sim.step(comm);
            clocks.push((t.to_bits(), dt.to_bits()));
            comm.barrier();
        }
        (sim.ps.as_slice().to_vec(), clocks)
    });
    results.into_iter().unzip()
}

/// Differential oracle for the scenario families: the 2-rank slab run must
/// be **bitwise** identical to the 1-rank serial oracle — same clocks, same
/// every `f32` bit. The x-slab layout makes each rank's block a contiguous
/// chunk of the serial flat array (`ix` is the slowest index), so the
/// comparison is a straight concatenation.
fn assert_two_ranks_match_serial(make: fn() -> KineticScenario, steps: usize) {
    let name = make().name;
    let (serial_blocks, serial_clocks) = run_scenario_distributed(make, 1, steps);
    let (dist_blocks, dist_clocks) = run_scenario_distributed(make, 2, steps);

    for (rank, clocks) in dist_clocks.iter().enumerate() {
        assert_eq!(
            clocks, &serial_clocks[0],
            "{name}: rank {rank} clock stream diverged from serial"
        );
    }
    let serial = &serial_blocks[0];
    let concat: Vec<f32> = dist_blocks.concat();
    assert_eq!(serial.len(), concat.len());
    for (i, (a, b)) in serial.iter().zip(&concat).enumerate() {
        assert!(
            a.to_bits() == b.to_bits(),
            "{name}: bit divergence at flat index {i} after {steps} steps: {a:?} vs {b:?}"
        );
    }
}

/// Landau damping drives the periodic electrostatic force path (plane-
/// ordered mean subtraction, gathered lane bundles on the thin velocity grid).
#[test]
fn landau_two_rank_run_is_bitwise_identical_to_serial() {
    assert_two_ranks_match_serial(plasma::landau_damping, 6);
}

/// The King sphere drives the isolated-gravity path: the replicated
/// open-boundary solve over allgathered slabs must not depend on which rank
/// assembled it.
#[test]
fn king_sphere_two_rank_run_is_bitwise_identical_to_serial() {
    assert_two_ranks_match_serial(king::king_sphere, 4);
}

/// The two-stream instability rides the same electrostatic path but with a
/// growing mode — amplification must not amplify a rank-dependent ulp.
#[test]
fn two_stream_two_rank_run_is_bitwise_identical_to_serial() {
    assert_two_ranks_match_serial(plasma::two_stream, 6);
}

/// The serial scenario engine itself must be thread-count invariant: 4
/// rayon workers vs 1, bitwise, for one representative of each new family.
#[test]
fn scenario_engine_is_thread_count_invariant() {
    for make in [plasma::landau_damping, king::king_sphere] as [fn() -> KineticScenario; 2] {
        let sc = make();
        let run = |threads: usize| {
            rayon::with_num_threads(threads, || {
                let mut sim = sc.build();
                for _ in 0..4 {
                    sim.step();
                }
                (sim.time().to_bits(), sim.phase_space().as_slice().to_vec())
            })
        };
        let (t1, f1) = run(1);
        let (t4, f4) = run(4);
        assert_eq!(t1, t4, "{}: clocks diverged across thread counts", sc.name);
        for (i, (a, b)) in f1.iter().zip(&f4).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "{}: thread-count divergence at flat index {i}: {a:?} vs {b:?}",
                sc.name
            );
        }
    }
}

#[test]
fn ghost_width_matches_stencil_requirement() {
    // The exchange must ship at least the SL-MPP5 half-stencil.
    const _: () = assert!(GHOST_WIDTH >= 3);
}

#[test]
fn traffic_accounting_sees_ghost_volume() {
    let sglobal = [8usize, 8, 8];
    let vg = VelocityGrid::cubic(8, 1.0);
    let decomp = Decomp3::new(sglobal, [2, 1, 1]);
    let (_, traffic) = Universe::run_with_traffic(2, move |comm| {
        let cart = Cart3::new(comm, decomp);
        let mut ps = PhaseSpace::zeros_block(cart.local_dims(), cart.local_offset(), sglobal, vg);
        ps.fill_with(fill);
        let cfl = vec![0.25; 8];
        sweep_spatial_distributed(&mut ps, &cart, 0, &cfl, Scheme::SlMpp5, 0);
    });
    // Each rank ships 2 × 3 planes of 8×8 spatial cells × 8³ velocity × 4 B.
    let expected = 2 * 3 * 8 * 8 * 8 * 8 * 8 * 4;
    let got = traffic.bytes_between(0, 1);
    assert_eq!(got, expected as u64, "ghost bytes {got} vs {expected}");
}

#[test]
fn distributed_moments_need_no_communication() {
    // The paper's §5.1.3 point: velocity space is never decomposed, so the
    // density is a purely local reduction. Verify traffic stays at ghost
    // volume only when computing moments.
    let sglobal = [8usize, 8, 8];
    let vg = VelocityGrid::cubic(8, 1.0);
    let decomp = Decomp3::new(sglobal, [2, 1, 1]);
    let (_, traffic) = Universe::run_with_traffic(2, move |comm| {
        let cart = Cart3::new(comm, decomp);
        let mut ps = PhaseSpace::zeros_block(cart.local_dims(), cart.local_offset(), sglobal, vg);
        ps.fill_with(fill);
        let d: Field3 = moments::density(&ps);
        let p = moments::momentum(&ps, 0);
        let s = moments::velocity_dispersion(&ps, 1e-12);
        let _ = (d.sum(), p.sum(), s.sum());
    });
    assert_eq!(
        traffic.total_bytes(),
        0,
        "moments must be communication-free"
    );
}
