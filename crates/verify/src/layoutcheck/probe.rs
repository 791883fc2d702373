//! Layer 2b: sentinel-value probes through the **live** mpisim exchange.
//!
//! The concrete layer checks the models against the plans; this layer runs
//! the exchange itself, through `Pencil2D::repartition` — the same
//! `run_stage` the transform runs, whose packets are the maps' boxes walked
//! through their strides. Every element is loaded with a sentinel
//! encoding its *global* flat index exactly in f64 (the grids here are far
//! below 2⁵³, so routing is lossless and bit-exact); the repartition then runs
//! through `Universe::run` on real threads, and every destination slot must
//! hold precisely the sentinel its registered layout map predicts. A single
//! mis-stride, swapped loop or off-by-one anywhere in pack, send, recv or
//! unpack moves at least one sentinel to the wrong slot.
//!
//! Also probed: forward∘inverse round-trips through the full four-stage
//! chain, on pencil and `P × 1` (slab) grids alike, must reproduce the input
//! bitwise. Live negative controls: a plan assembled with a stage-2 tag
//! window colliding into stage 1 must be rejected by `CommPlan::verify`, and
//! a stage's output read through the wrong map — its input map, or the
//! x-pencil with swapped strides — must show misrouted sentinels.

use super::concrete::shape_tag;
use super::registry;
use crate::report::Report;
use vlasov6d_fft::layout::{LayoutMap, RankGrid, Repartition};
use vlasov6d_fft::{Complex64, Pencil2D};
use vlasov6d_mpisim::{CommPlan, PlanError, Universe};

const PASS: &str = "probe";

/// Sentinel for global coordinate `g`: the global flat index in the real
/// part, its negation minus one in the imaginary part (asymmetric, so
/// re/im swaps are caught too).
fn sentinel(dims: [usize; 3], g: [usize; 3]) -> Complex64 {
    let flat = ((g[0] * dims[1] + g[1]) * dims[2] + g[2]) as f64;
    Complex64::new(flat, -flat - 1.0)
}

/// Fill rank `rank`'s local block of `src` with sentinels.
fn fill(src: &LayoutMap, dims: [usize; 3], grid: RankGrid, rank: usize) -> Vec<Complex64> {
    (0..src.local_len(dims, grid))
        .map(|flat| sentinel(dims, src.coords(dims, grid, rank, flat)))
        .collect()
}

/// Count destination slots whose sentinel disagrees with `dst`'s prediction.
fn mismatches(
    dst: &LayoutMap,
    dims: [usize; 3],
    grid: RankGrid,
    rank: usize,
    out: &[Complex64],
) -> usize {
    (0..out.len())
        .filter(|&flat| {
            let want = sentinel(dims, dst.coords(dims, grid, rank, flat));
            out[flat].re != want.re || out[flat].im != want.im
        })
        .count()
}

/// Sentinel mismatches, summed over ranks, of `rep`'s live output on
/// `dims × grid` read through `map`.
fn misread(dims: [usize; 3], grid: RankGrid, rep: &Repartition, map: &LayoutMap) -> usize {
    let fft = Pencil2D::new(dims, grid.rows, grid.cols);
    let per_rank = Universe::run(grid.n_ranks(), |comm| {
        let me = comm.rank();
        let input = fill(&rep.src, dims, grid, me);
        let out = fft.repartition(comm, rep, &input, 0);
        mismatches(map, dims, grid, me, &out)
    });
    per_rank.iter().sum()
}

pub fn run(report: &mut Report) {
    pencil_probes(report);
    tag_collision_control(report);
    misroute_control(report);
    swapped_stride_control(report);
}

fn pencil_probes(report: &mut Report) {
    for (dims, grid) in registry::sample_shapes() {
        let p = grid.n_ranks();
        let fft = Pencil2D::new(dims, grid.rows, grid.cols).with_batches(2);
        let span = fft.tag_span();
        let stages = registry::entries();
        // The four stages chain: each one's output is the next one's input.
        let results = Universe::run(p, |comm| {
            let me = comm.rank();
            let input = fill(&stages[0].src, dims, grid, me);
            let mut block = input.clone();
            let mut bad = [0; 4];
            for (i, rep) in stages.iter().enumerate() {
                block = fft.repartition(comm, rep, &block, i as u64 * span);
                bad[i] = mismatches(&rep.dst, dims, grid, me, &block);
            }
            (bad, block == input)
        });
        let tag = shape_tag(dims, grid);
        let elems: usize = dims.iter().product();
        for (i, rep) in stages.iter().enumerate() {
            let bad: usize = results.iter().map(|r| r.0[i]).sum();
            report.check(
                PASS,
                format!("{}.probe.{tag}", rep.name),
                format!("all {elems} sentinels arrived in the slot the layout map predicts"),
                (bad > 0).then(|| format!("{bad} of {elems} slots misrouted")),
            );
        }
        let lost = results.iter().filter(|r| !r.1).count();
        report.check(
            PASS,
            format!("fft.pencil.roundtrip.{tag}"),
            "forward∘inverse over 4 live repartition stages is the identity, bitwise",
            (lost > 0).then(|| format!("{lost} rank(s) got a different block back")),
        );
    }
}

/// Live control: assemble a pencil plan whose second transform starts one
/// batch short of a full `tag_span()`, so its stage-1 window collides with
/// the first transform's stage-2 window on the row-group peers they share.
/// `CommPlan::verify` must report `TagCollision`.
fn tag_collision_control(report: &mut Report) {
    let fft = Pencil2D::new([4, 4, 4], 2, 2).with_batches(2);
    let span = fft.tag_span();
    let mut plan = CommPlan::new("fft.pencil.tag-collision-control", 4);
    fft.add_forward(&mut plan, 0);
    // A correct caller advances by tag_span(); advancing one tag short makes
    // the second stage 1 (tags [span−1, span−1+batches)) overlap the first
    // stage 2 (tags [span/2, span)) on identical row-group (src, dst) pairs.
    fft.add_inverse(&mut plan, span - 1);
    let caught = match plan.verify() {
        Ok(_) => false,
        Err(errs) => errs
            .iter()
            .any(|e| matches!(e, PlanError::TagCollision { .. })),
    };
    report.control(
        PASS,
        "control.stage2.tag-collision",
        "a second transform planned one tag short of a full window must be rejected as a TagCollision",
        caught,
        Some(format!("second transform planned at tag {}", span - 1)),
    );
}

/// Live control: checking a stage-1 output against the *wrong* layout map
/// (the z-pencil it came from rather than the y-pencil it became) must
/// produce sentinel mismatches — proving the probe can detect misrouting.
fn misroute_control(report: &mut Report) {
    let [s1, ..] = registry::entries();
    // The wrong map on purpose: stage 1's input layout.
    let bad = misread([4, 4, 4], RankGrid::new(2, 2), &s1, &s1.src);
    report.control(
        PASS,
        "control.probe.wrong-map",
        "checking stage-1 output against its input layout must surface mismatches",
        bad > 0,
        Some(format!(
            "{bad} slots flagged under the deliberately wrong map"
        )),
    );
}

/// Live control: a spectral x-pencil map whose storage order is
/// `[i0][i1l][i2]` instead of `[i1l][i0][i2]`, on the 4 × 1 (slab) grid
/// where `n0 ≠ n1/Pr`. Reading stage 2's live output through it must
/// surface mismatches — the probe catches a stride drift in the map the
/// spectrum's callers address.
fn swapped_stride_control(report: &mut Report) {
    let [_, s2, ..] = registry::entries();
    let swapped = LayoutMap {
        name: "layout.xpencil.swapped-stride",
        order: [0, 1, 2],
        ..s2.dst
    };
    let bad = misread([8, 8, 8], RankGrid::new(4, 1), &s2, &swapped);
    report.control(
        PASS,
        "control.swapped.stride",
        "stage 2's live output read through a swapped-stride x-pencil map must show mismatches",
        bad > 0,
        Some(format!(
            "{bad} slots flagged under storage order [0,1,2] vs the map's [1,0,2]"
        )),
    );
}
