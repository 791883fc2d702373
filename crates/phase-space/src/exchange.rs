//! Spatial ghost-plane exchange and distributed sweeps.
//!
//! The spatial axes are block-decomposed across ranks (paper §5.1.3); a
//! spatial sweep needs `GHOST_WIDTH = 3` planes from each neighbour (the
//! half-width of the SL-MPP5 stencil). The exchange is the dominant
//! communication of the Vlasov part: each plane carries the full velocity
//! grid, `width · (Π other spatial dims) · Nu · 4` bytes — the quantity the
//! performance model prices.
//!
//! There is one spatial sweep (see [`crate::sweep`]): the pencil tasks of
//! [`crate::sweep::sweep_spatial`] on a list of windows, on the rank's pool.
//! `sweep_spatial` runs them on the *periodic* window, the block's own pencil
//! wrapped; the sweeps here run them on the *full* window — the pencil between
//! the `±GHOST_WIDTH` planes received from the neighbours (the buffers share
//! the block's `[plane][trailing dims]` layout, so the loads stay packed) —
//! or, overlapped, on the *interior* window and then the two *edges*. Lanes
//! run when the scheme and the velocity grid allow them
//! ([`crate::Exec::resolve`]), scalar pencils otherwise. Every updated cell
//! is the same function of its stencil values (`GHOST_WIDTH` either side)
//! whatever the window, so a distributed sweep equals the local
//! `sweep_spatial` under [`crate::Exec::Simd`] bit for bit, at any rank and
//! thread count.
//!
//! Distributed sweeps require `|cfl| < 1` so the upwind stencil never reaches
//! beyond the exchanged planes; the time-step controller in `vlasov6d`
//! guarantees this (the paper does the same — spatial CFL below unity).

// Hot path (runs in pool tasks every step): no bare unwrap/panic outside tests.
#![deny(clippy::unwrap_used, clippy::panic)]

use crate::dist_fn::PhaseSpace;
use crate::sweep::{sweep_ghosted, Exec, Window};
use vlasov6d_advection::line::Scheme;
use vlasov6d_mesh::Decomp3;
use vlasov6d_mpisim::{Cart3, CommPlan, SplitPhase};

/// Ghost planes needed by the fifth-order stencil — by definition the kernel
/// ghost width [`vlasov6d_advection::GHOST`], re-exported here so the
/// exchange layer and the advection kernels cannot drift apart (kerncheck's
/// footprint pass additionally proves both equal the probed stencil radius).
pub const GHOST_WIDTH: usize = vlasov6d_advection::GHOST;

/// Declarative communication plan of [`exchange_ghosts`] over the whole
/// process grid: per rank, a send of its low planes to the low neighbour
/// (tag `tag`) and of its high planes to the high neighbour (tag `tag + 1`),
/// with the matching receives. `vlen` is the velocity-grid length (planes
/// carry `width · (Π other spatial dims) · vlen` f32 values). Verify with
/// [`vlasov6d_mpisim::cart_neighbor_edges`] topology and volume symmetry —
/// neighbours along an axis share their cross-section, so byte counts must
/// balance.
pub fn ghost_exchange_plan(
    decomp: &Decomp3,
    vlen: usize,
    d: usize,
    width: usize,
    tag: u64,
) -> CommPlan {
    let mut plan = CommPlan::new(format!("ghost_exchange.axis{d}"), decomp.n_ranks());
    let plane_bytes = |rank: usize| -> u64 {
        let ld = decomp.local_dims(rank);
        let cross: usize = (0..3).filter(|&a| a != d).map(|a| ld[a]).product();
        (width * cross * vlen * std::mem::size_of::<f32>()) as u64
    };
    for r in 0..decomp.n_ranks() {
        let low = decomp.neighbor(r, d, -1);
        let high = decomp.neighbor(r, d, 1);
        // Mirrors the two shift_exchange calls of `exchange_ghosts`, in
        // program order: low planes toward -1 under `tag`, high planes
        // toward +1 under `tag + 1`.
        plan.send(r, low, tag, plane_bytes(r));
        plan.recv(r, high, tag, plane_bytes(high));
        plan.send(r, high, tag + 1, plane_bytes(r));
        plan.recv(r, low, tag + 1, plane_bytes(low));
    }
    plan
}

/// Declarative plan of the split-phase ghost exchange used by
/// [`sweep_spatial_overlapped`]: the same edges, tags and byte counts as
/// [`ghost_exchange_plan`], but posted as `isend`/`irecv` pairs whose waits
/// come after the interior compute. Verifying it proves the overlap posts
/// every request it later waits on and waits on every request it posts.
pub fn ghost_exchange_split_plan(
    decomp: &Decomp3,
    vlen: usize,
    d: usize,
    width: usize,
    tag: u64,
) -> CommPlan {
    let mut plan = CommPlan::new(format!("ghost_exchange_split.axis{d}"), decomp.n_ranks());
    let plane_bytes = |rank: usize| -> u64 {
        let ld = decomp.local_dims(rank);
        let cross: usize = (0..3).filter(|&a| a != d).map(|a| ld[a]).product();
        (width * cross * vlen * std::mem::size_of::<f32>()) as u64
    };
    for r in 0..decomp.n_ranks() {
        let low = decomp.neighbor(r, d, -1);
        let high = decomp.neighbor(r, d, 1);
        // Post phase (before the interior sweep)...
        plan.isend(r, low, tag, plane_bytes(r));
        plan.irecv(r, high, tag, plane_bytes(high));
        plan.isend(r, high, tag + 1, plane_bytes(r));
        plan.irecv(r, low, tag + 1, plane_bytes(low));
        // ...then the waits (after it), receives first.
        plan.wait_recv(r, high, tag);
        plan.wait_recv(r, low, tag + 1);
        plan.wait_send(r, low, tag);
        plan.wait_send(r, high, tag + 1);
    }
    plan
}

/// Extract `width` planes `[start, start+width)` along spatial axis `d` into
/// a flat buffer with layout `[width][trailing dims]` (line order preserved).
pub fn extract_planes(ps: &PhaseSpace, d: usize, start: usize, width: usize) -> Vec<f32> {
    let dims = ps.dims6();
    let n = dims[d];
    assert!(start + width <= n);
    let stride: usize = dims[d + 1..].iter().product();
    let n_outer: usize = dims[..d].iter().product();
    let mut out = vec![0.0f32; n_outer * width * stride];
    let data = ps.as_slice();
    let mut o = 0;
    for outer in 0..n_outer {
        for g in 0..width {
            let src = (outer * n + start + g) * stride;
            out[o..o + stride].copy_from_slice(&data[src..src + stride]);
            o += stride;
        }
    }
    out
}

/// Exchange edge planes with both neighbours along spatial axis `d`.
/// Returns `(from_low_neighbor, from_high_neighbor)`: the `width` planes just
/// below and just above this rank's block, in [`extract_planes`] layout.
pub fn exchange_ghosts(
    ps: &PhaseSpace,
    cart: &Cart3<'_>,
    d: usize,
    width: usize,
    tag: u64,
) -> (Vec<f32>, Vec<f32>) {
    let n = ps.sdims[d];
    assert!(
        n >= width,
        "block thinner than the ghost width along axis {d}"
    );
    // My low planes travel to the low neighbour (becoming its high ghosts);
    // I receive the high neighbour's low planes as my high ghosts — and vice
    // versa. `shift_exchange(axis, dir, ..)` sends toward `dir` and returns
    // what arrived from the opposite side.
    let my_low = extract_planes(ps, d, 0, width);
    let my_high = extract_planes(ps, d, n - width, width);
    let from_high = cart.shift_exchange(d, -1, tag, my_low);
    let from_low = cart.shift_exchange(d, 1, tag + 1, my_high);
    (from_low, from_high)
}

/// Copies of the two `GHOST_WIDTH`-plane slabs next to the edge slabs along
/// axis `d` (`n ≥ 2·GHOST_WIDTH`): what the overlapped sweep's interior pass
/// overwrites and its edge pass still needs at the pre-sweep values.
pub(crate) fn save_inner_slabs(ps: &PhaseSpace, d: usize) -> [Vec<f32>; 2] {
    let (n, gw) = (ps.sdims[d], GHOST_WIDTH);
    [
        extract_planes(ps, d, gw, gw),
        extract_planes(ps, d, n - 2 * gw, gw),
    ]
}

/// The argument checks the two distributed sweeps share.
fn check_sweep_args(ps: &PhaseSpace, d: usize, cfl_per_u: &[f64]) {
    assert!(d < 3);
    assert_eq!(cfl_per_u.len(), ps.vgrid.n[d]);
    assert!(
        cfl_per_u.iter().all(|c| c.abs() < 1.0),
        "distributed sweeps require |cfl| < 1 (ghost width {GHOST_WIDTH})"
    );
    assert!(
        ps.sdims[d] >= GHOST_WIDTH,
        "block thinner than the ghost width along axis {d}"
    );
}

/// Distributed spatial sweep along axis `d` (`|cfl| < 1` for every velocity
/// index): a blocking [`exchange_ghosts`], then every pencil in one parallel
/// region, `n + 1` flux evaluations each. This is the oracle the overlapped
/// sweep is compared against, and what `OverlapPolicy::Synchronous` (the
/// driver's default) runs.
pub fn sweep_spatial_distributed(
    ps: &mut PhaseSpace,
    cart: &Cart3<'_>,
    d: usize,
    cfl_per_u: &[f64],
    scheme: Scheme,
    tag: u64,
) {
    check_sweep_args(ps, d, cfl_per_u);
    const SPAN: [&str; 3] = ["sweep.dist.x", "sweep.dist.y", "sweep.dist.z"];
    let _obs = vlasov6d_obs::span!(SPAN[d], vlasov6d_obs::Bucket::Vlasov);
    let (from_low, from_high) = {
        let _g = vlasov6d_obs::span!("sweep.ghost_exchange");
        // The blocking exchange serialises before the sweep: all of its
        // time is exposed on the critical path.
        let _e = vlasov6d_obs::span!("comm.exposed");
        exchange_ghosts(ps, cart, d, GHOST_WIDTH, tag)
    };
    let full = Window::full(ps.sdims[d], &from_low, &from_high);
    sweep_ghosted(ps, d, cfl_per_u, scheme, Exec::Simd, &[full], None);
}

/// Distributed spatial sweep along axis `d` that hides the ghost exchange
/// behind the interior advection — the paper's overlap of halo traffic with
/// the spatial sweeps. Bitwise-identical to [`sweep_spatial_distributed`]:
///
/// 1. **Post** the ghost-plane `isend`/`irecv` pairs (same neighbours, tags
///    and byte counts as the blocking exchange) and copy the two
///    `GHOST_WIDTH`-plane slabs next to the edges, which step 2 overwrites
///    and step 4 still needs at their pre-sweep values.
/// 2. **Interior** (`comm.hidden` span): one parallel region advances cells
///    `[GHOST_WIDTH, n − GHOST_WIDTH)` of every pencil from the bare local
///    pencil — their stencils never leave the block.
/// 3. **Wait** (`comm.exposed` span): collect the four requests; only this
///    remainder of the exchange sits on the critical path.
/// 4. **Edges**: a second region advances the `GHOST_WIDTH` cells at either
///    end of every pencil from a `3·GHOST_WIDTH` window of received planes,
///    untouched edge cells and the saved slab.
///
/// `n + 3` flux evaluations per pencil against the synchronous `n + 1`, and
/// every cell sees the same stencil values through the same kernel — hence
/// bit-for-bit equality, which `tests/distributed_consistency.rs` enforces
/// for every scheme and rank count.
///
/// Blocks thinner than `2·GHOST_WIDTH` along `d` have no interior; they wait
/// immediately and run the synchronous region.
///
/// The sweep sees the communicator only through `cart`'s [`SplitPhase`]
/// view, so no blocking call can creep into it: one would not compile.
pub fn sweep_spatial_overlapped(
    ps: &mut PhaseSpace,
    cart: &Cart3<'_>,
    d: usize,
    cfl_per_u: &[f64],
    scheme: Scheme,
    tag: u64,
) {
    overlapped(ps, cart.split_phase(), d, cfl_per_u, scheme, tag);
}

/// [`sweep_spatial_overlapped`] on the split-phase view of its grid.
fn overlapped(
    ps: &mut PhaseSpace,
    comm: SplitPhase<'_>,
    d: usize,
    cfl_per_u: &[f64],
    scheme: Scheme,
    tag: u64,
) {
    check_sweep_args(ps, d, cfl_per_u);
    const SPAN: [&str; 3] = ["sweep.overlap.x", "sweep.overlap.y", "sweep.overlap.z"];
    let _obs = vlasov6d_obs::span!(SPAN[d], vlasov6d_obs::Bucket::Vlasov);

    let n = ps.sdims[d];
    let gw = GHOST_WIDTH;
    let low_nb = comm.neighbor(d, -1);
    let high_nb = comm.neighbor(d, 1);

    // Post phase: the same messages (edges, tags, sizes) as
    // `exchange_ghosts`, so plan verification, traffic accounting and the
    // kerncheck byte audit see an identical exchange.
    let send_low = comm.isend(low_nb, tag, extract_planes(ps, d, 0, gw));
    let recv_high = comm.irecv::<Vec<f32>>(high_nb, tag);
    let send_high = comm.isend(high_nb, tag + 1, extract_planes(ps, d, n - gw, gw));
    let recv_low = comm.irecv::<Vec<f32>>(low_nb, tag + 1);

    // Interior phase, while the ghost planes are in flight.
    let saved = (n >= 2 * gw).then(|| {
        let saved = save_inner_slabs(ps, d);
        let _h = vlasov6d_obs::span!("comm.hidden");
        sweep_ghosted(
            ps,
            d,
            cfl_per_u,
            scheme,
            Exec::Simd,
            &[Window::interior(n)],
            None,
        );
        saved
    });

    // Wait phase: only this remainder of the exchange is exposed.
    let (from_low, from_high) = {
        let _e = vlasov6d_obs::span!("comm.exposed");
        let from_high = recv_high.wait();
        let from_low = recv_low.wait();
        send_low.wait();
        send_high.wait();
        (from_low, from_high)
    };

    let windows = match &saved {
        Some(saved) => Window::edges(n, &from_low, &from_high, saved).into(),
        None => vec![Window::full(n, &from_low, &from_high)],
    };
    sweep_ghosted(ps, d, cfl_per_u, scheme, Exec::Simd, &windows, None);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::VelocityGrid;
    use crate::sweep::{sweep_spatial, Exec};
    use vlasov6d_mesh::Decomp3;
    use vlasov6d_mpisim::Universe;

    fn global_fill(s: [usize; 3], u: [f64; 3]) -> f64 {
        let sx =
            (s[0] as f64 * 0.61).sin() + (s[1] as f64 * 0.37).cos() + (s[2] as f64 * 0.83).sin();
        (2.2 + sx) * (-(u[0] * u[0] + u[1] * u[1] + u[2] * u[2]) / 0.4).exp() + 0.02
    }

    /// Mixed-sign CFL numbers below one, so both line orientations run.
    fn mixed_cfl(nv: usize) -> Vec<f64> {
        (0..nv)
            .map(|k| 0.9 * (k as f64 - 0.5 * (nv - 1) as f64) / nv as f64)
            .collect()
    }

    #[test]
    fn extract_planes_matches_direct_indexing() {
        let vg = VelocityGrid::cubic(4, 1.0);
        let mut ps = PhaseSpace::zeros([4, 4, 4], vg);
        ps.fill_with(global_fill);
        for d in 0..3 {
            let planes = extract_planes(&ps, d, 1, 2);
            // Check one element: outer=0, plane g=1 (global idx 2 along d), inner=5.
            let dims = ps.dims6();
            let stride: usize = dims[d + 1..].iter().product();
            assert_eq!(planes[stride + 5], {
                let flat = 2 * stride + 5;
                ps.as_slice()[flat]
            });
        }
    }

    #[test]
    fn distributed_sweep_matches_serial() {
        let vg = VelocityGrid::cubic(8, 1.0);
        let sglobal = [8usize, 8, 8];
        let cfl: Vec<f64> = (0..8).map(|k| 0.22 * (k as f64 - 3.5) / 3.5).collect();

        // Serial reference: the lane-divisible grid puts both on the lane
        // kernels, so the comparison is bitwise.
        let mut serial = PhaseSpace::zeros(sglobal, vg);
        serial.fill_with(global_fill);
        for d in 0..3 {
            sweep_spatial(&mut serial, d, &cfl, Scheme::SlMpp5, Exec::Simd);
        }

        // Distributed run on a 2×2×2 process grid.
        let decomp = Decomp3::new(sglobal, [2, 2, 2]);
        let cfl2 = cfl.clone();
        let blocks = Universe::run(8, move |comm| {
            let cart = Cart3::new(comm, decomp);
            let off = cart.local_offset();
            let ldims = cart.local_dims();
            let mut ps = PhaseSpace::zeros_block(ldims, off, sglobal, vg);
            ps.fill_with(global_fill);
            for d in 0..3 {
                sweep_spatial_distributed(
                    &mut ps,
                    &cart,
                    d,
                    &cfl2,
                    Scheme::SlMpp5,
                    100 + d as u64 * 10,
                );
                cart.comm().barrier();
            }
            (off, ldims, ps.as_slice().to_vec())
        });

        // Compare every local block against the serial result.
        let vlen = vg.len();
        for (off, ldims, data) in blocks {
            for lx in 0..ldims[0] {
                for ly in 0..ldims[1] {
                    for lz in 0..ldims[2] {
                        let cell = (lx * ldims[1] + ly) * ldims[2] + lz;
                        let sref = serial.velocity_block([off[0] + lx, off[1] + ly, off[2] + lz]);
                        let got = &data[cell * vlen..(cell + 1) * vlen];
                        for (a, b) in got.iter().zip(sref) {
                            assert!(
                                a.to_bits() == b.to_bits(),
                                "mismatch at block {off:?} cell ({lx},{ly},{lz}): {a} vs {b}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ghost_exchange_on_single_rank_axis_is_periodic_wrap() {
        let vg = VelocityGrid::cubic(4, 1.0);
        let sglobal = [8usize, 4, 4];
        let decomp = Decomp3::new(sglobal, [1, 1, 1]);
        Universe::run(1, move |comm| {
            let cart = Cart3::new(comm, decomp);
            let mut ps = PhaseSpace::zeros_block([8, 4, 4], [0, 0, 0], sglobal, vg);
            ps.fill_with(global_fill);
            let (from_low, from_high) = exchange_ghosts(&ps, &cart, 0, 3, 7);
            // from_low must equal my own top planes (periodic wrap).
            let top = extract_planes(&ps, 0, 5, 3);
            let bottom = extract_planes(&ps, 0, 0, 3);
            assert_eq!(from_low, top);
            assert_eq!(from_high, bottom);
        });
    }

    #[test]
    fn ghost_exchange_plan_verifies_on_cart_topology() {
        use vlasov6d_mpisim::{cart_neighbor_edges, PlanChecks};
        let decomp = Decomp3::new([16, 8, 8], [4, 1, 1]);
        let checks = PlanChecks {
            topology: Some(cart_neighbor_edges(&decomp)),
            volume_symmetry: true,
        };
        for d in 0..3 {
            let stats = ghost_exchange_plan(&decomp, 512, d, GHOST_WIDTH, 40).assert_valid(&checks);
            assert_eq!(stats.sends, 2 * decomp.n_ranks());
            assert_eq!(stats.recvs, 2 * decomp.n_ranks());
        }
        // Axis 0, 4 ranks: each plane block is 3·8·8·512 f32 = 393216 B.
        let stats = ghost_exchange_plan(&decomp, 512, 0, GHOST_WIDTH, 40)
            .verify()
            .expect("clean");
        assert_eq!(stats.bytes, 8 * 3 * 8 * 8 * 512 * 4);
    }

    #[test]
    fn miswired_ghost_exchange_swapped_tags_is_rejected() {
        use vlasov6d_mpisim::{CommPlan, PlanError};
        // Seeded miswire: rank 0 swaps the two tags of its sends — its low
        // planes travel under the high-ghost tag and vice versa. On a ring
        // with > 2 ranks the neighbours differ, so the verifier must reject
        // the plan statically instead of letting the exchange wedge or
        // deliver planes to the wrong side.
        let decomp = Decomp3::new([16, 8, 8], [4, 1, 1]);
        let good = ghost_exchange_plan(&decomp, 64, 0, GHOST_WIDTH, 40);
        let mut bad = CommPlan::new("ghost_exchange.miswired", decomp.n_ranks());
        for r in 0..decomp.n_ranks() {
            let low = decomp.neighbor(r, 0, -1);
            let high = decomp.neighbor(r, 0, 1);
            let b = 3 * 8 * 8 * 64 * 4;
            let (t_low, t_high) = if r == 0 { (41, 40) } else { (40, 41) };
            bad.send(r, low, t_low, b);
            bad.recv(r, high, 40, b);
            bad.send(r, high, t_high, b);
            bad.recv(r, low, 41, b);
        }
        good.verify().expect("unswapped plan is clean");
        let errs = bad.verify().unwrap_err();
        assert!(
            errs.iter().any(|e| matches!(
                e,
                PlanError::UnmatchedRecv { .. } | PlanError::TagCollision { .. }
            )),
            "swapped tags must surface as unmatched/colliding edges: {errs:?}"
        );
    }

    #[test]
    fn overlapped_sweep_is_bitwise_identical_to_synchronous() {
        // The tentpole guarantee at sweep granularity: for every scheme, for
        // decomposed and wrapped axes, for blocks thick enough to overlap,
        // exactly `2·GHOST_WIDTH` thick (empty interior) and thin enough to
        // hit the fallback (n = 4 < 2·GHOST_WIDTH), on a thin velocity grid
        // (scalar pencils) and a lane-divisible one (bundles and tiles), the
        // overlapped sweep reproduces the synchronous sweep bit for bit.
        for &(nv, ranks, sglobal) in &[
            (4usize, 1usize, [8usize, 4, 4]), // n = 8, self-wrap neighbours
            (4, 2, [16, 4, 4]),               // n = 8, distinct neighbours
            (4, 4, [16, 4, 4]),               // n = 4, thin-block fallback
            (8, 2, [16, 4, 4]),               // lanes, n = 8
            (8, 2, [12, 6, 6]),               // lanes, n = 6: empty interior on every axis
            (4, 2, [12, 6, 6]),               // scalar, empty interior
            (8, 4, [16, 4, 4]),               // lanes, thin-block fallback
        ] {
            let vg = VelocityGrid::cubic(nv, 0.8);
            let cfl = mixed_cfl(nv);
            let decomp = Decomp3::new(sglobal, [ranks, 1, 1]);
            for scheme in [Scheme::Upwind1, Scheme::Sl3, Scheme::Sl5, Scheme::SlMpp5] {
                let cfl = cfl.clone();
                Universe::run(ranks, move |comm| {
                    let cart = Cart3::new(comm, decomp);
                    let off = cart.local_offset();
                    let ldims = cart.local_dims();
                    let mut sync = PhaseSpace::zeros_block(ldims, off, sglobal, vg);
                    sync.fill_with(global_fill);
                    let mut over = PhaseSpace::zeros_block(ldims, off, sglobal, vg);
                    over.fill_with(global_fill);
                    for d in 0..3 {
                        let base = 100 + d as u64 * 10;
                        sweep_spatial_distributed(&mut sync, &cart, d, &cfl, scheme, base);
                        cart.comm().barrier();
                        sweep_spatial_overlapped(&mut over, &cart, d, &cfl, scheme, base + 5);
                        cart.comm().barrier();
                    }
                    for (i, (a, b)) in sync.as_slice().iter().zip(over.as_slice()).enumerate() {
                        assert!(
                            a.to_bits() == b.to_bits(),
                            "bit divergence: nv {nv}, {ranks} rank(s), {sglobal:?}, {scheme:?}, \
                             block {off:?}, flat index {i}: {a:?} vs {b:?}"
                        );
                    }
                });
            }
        }
    }

    /// All three overlapped sweeps of the global field on `ranks` x-slabs,
    /// the blocks concatenated in rank order (= the global flat array).
    fn overlapped_global(nv: usize, ranks: usize, threads: usize) -> Vec<u32> {
        let sglobal = [16usize, 6, 6];
        let vg = VelocityGrid::cubic(nv, 0.8);
        let cfl = mixed_cfl(nv);
        let decomp = Decomp3::new(sglobal, [ranks, 1, 1]);
        let blocks = rayon::with_num_threads(threads, || {
            Universe::run(ranks, move |comm| {
                let cart = Cart3::new(comm, decomp);
                let mut ps =
                    PhaseSpace::zeros_block(cart.local_dims(), cart.local_offset(), sglobal, vg);
                ps.fill_with(global_fill);
                for d in 0..3 {
                    sweep_spatial_overlapped(
                        &mut ps,
                        &cart,
                        d,
                        &cfl,
                        Scheme::SlMpp5,
                        40 + d as u64 * 10,
                    );
                    cart.comm().barrier();
                }
                ps.as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<u32>>()
            })
        });
        blocks.concat()
    }

    #[test]
    fn overlapped_sweep_is_rank_and_thread_count_invariant() {
        // 1 rank × 1 thread ≡ 1 rank × 4 threads ≡ 2 ranks ≡ the local
        // periodic sweep at the task shape the grid resolves to — packed
        // bundles and tiles on the 8³ velocity grid, packed (`x`) and
        // gathered (`y`, `z`) bundles on the thin 4³ one, scalar pencils on
        // the ragged 3³ one.
        for nv in [8usize, 4, 3] {
            let exec = Exec::Simd;
            let oracle = overlapped_global(nv, 1, 1);
            assert!(oracle == overlapped_global(nv, 1, 4), "nv {nv}: 4 threads");
            assert!(oracle == overlapped_global(nv, 2, 1), "nv {nv}: 2 ranks");
            assert!(
                oracle == overlapped_global(nv, 2, 4),
                "nv {nv}: 2 ranks × 4 threads"
            );

            let mut local = PhaseSpace::zeros([16, 6, 6], VelocityGrid::cubic(nv, 0.8));
            local.fill_with(global_fill);
            for d in 0..3 {
                sweep_spatial(&mut local, d, &mixed_cfl(nv), Scheme::SlMpp5, exec);
            }
            let local: Vec<u32> = local.as_slice().iter().map(|v| v.to_bits()).collect();
            assert!(oracle == local, "nv {nv}: local sweep_spatial at {exec:?}");
        }
    }

    /// Tiny ghosted sweeps sized for the Miri interpreter, on two pool
    /// threads: covers the raw-pointer loads from the block and from the
    /// plane buffers and the disjoint stores of all three regions
    /// (synchronous, interior, edges) in the scalar and the bundle shape.
    /// Picked up by the CI steps `cargo miri test -p vlasov6d-phase-space
    /// miri_smoke`.
    #[test]
    fn miri_smoke_ghosted_sweep() {
        for (nv, sglobal) in [(2usize, [8usize, 2, 1]), (8, [6, 1, 1])] {
            let vg = VelocityGrid::cubic(nv, 0.8);
            let cfl = mixed_cfl(nv);
            let decomp = Decomp3::new(sglobal, [1, 1, 1]);
            rayon::with_num_threads(2, || {
                Universe::run(1, move |comm| {
                    let cart = Cart3::new(comm, decomp);
                    let mut sync = PhaseSpace::zeros_block(sglobal, [0, 0, 0], sglobal, vg);
                    sync.fill_with(global_fill);
                    let mut over = sync.clone();
                    sweep_spatial_distributed(&mut sync, &cart, 0, &cfl, Scheme::SlMpp5, 10);
                    sweep_spatial_overlapped(&mut over, &cart, 0, &cfl, Scheme::SlMpp5, 20);
                    assert_eq!(sync.as_slice(), over.as_slice());
                });
            });
        }
    }

    #[test]
    fn ghost_exchange_split_plan_verifies_on_cart_topology() {
        use vlasov6d_mpisim::{cart_neighbor_edges, PlanChecks};
        let decomp = Decomp3::new([16, 8, 8], [4, 1, 1]);
        let checks = PlanChecks {
            topology: Some(cart_neighbor_edges(&decomp)),
            volume_symmetry: true,
        };
        for d in 0..3 {
            let split = ghost_exchange_split_plan(&decomp, 512, d, GHOST_WIDTH, 40);
            let stats = split.assert_valid(&checks);
            // Identical message set to the blocking plan: same edge count and
            // the same bytes on the wire.
            let blocking = ghost_exchange_plan(&decomp, 512, d, GHOST_WIDTH, 40)
                .verify()
                .expect("clean");
            assert_eq!(stats.sends, blocking.sends);
            assert_eq!(stats.recvs, blocking.recvs);
            assert_eq!(stats.bytes, blocking.bytes);
        }
    }

    #[test]
    fn overlapped_sweep_is_schedule_independent() {
        // Delivery order must not change the bits and no schedule may
        // deadlock or strand a request.
        use vlasov6d_mpisim::sched::Explorer;
        let vg = VelocityGrid::cubic(2, 0.8);
        let sglobal = [16usize, 4, 4];
        let decomp = Decomp3::new(sglobal, [4, 1, 1]);
        let cfl = [-0.4f64, 0.4];
        let report = Explorer::new(4).with_seeds(0..6).explore(move |comm| {
            let cart = Cart3::new(comm, decomp);
            let mut ps =
                PhaseSpace::zeros_block(cart.local_dims(), cart.local_offset(), sglobal, vg);
            ps.fill_with(global_fill);
            for d in 0..3 {
                sweep_spatial_overlapped(
                    &mut ps,
                    &cart,
                    d,
                    &cfl,
                    Scheme::SlMpp5,
                    60 + d as u64 * 10,
                );
                cart.comm().barrier();
            }
            ps.as_slice().iter().fold(0u64, |h, v| {
                h.wrapping_mul(1_099_511_628_211)
                    .wrapping_add(v.to_bits() as u64)
            })
        });
        assert!(report.ok(), "{}", report.summary());
    }

    #[test]
    #[should_panic(expected = "require |cfl| < 1")]
    fn distributed_sweep_rejects_large_cfl() {
        let vg = VelocityGrid::cubic(4, 1.0);
        let decomp = Decomp3::new([8, 8, 8], [1, 1, 1]);
        Universe::run(1, move |comm| {
            let cart = Cart3::new(comm, decomp);
            let mut ps = PhaseSpace::zeros_block([8, 8, 8], [0, 0, 0], [8, 8, 8], vg);
            let cfl = vec![1.5; 4];
            sweep_spatial_distributed(&mut ps, &cart, 0, &cfl, Scheme::SlMpp5, 0);
        });
    }
}
