//! Layer 2: concrete cross-checks at thin/ragged/prime-factor shapes.
//!
//! The symbolic layer proves the *models* bijective; this layer pins the
//! models to the *runtime*. At every registered sample shape it
//!
//! * enumerates the model's global → (rank, flat) maps on both sides and
//!   checks the induced repartition is an exact bijection (every source slot
//!   routed once, every destination slot filled once);
//! * accumulates the enumerated per-(src, dst) traffic and diffs it, pair by
//!   pair, against both the runtime's derived byte accounting
//!   (`Repartition::pair_elems`) and the symbolically derived
//!   [`PairCount`](crate::symbolic::PairCount);
//! * diffs the accumulated traffic against the actual
//!   [`CommPlan`](vlasov6d_mpisim::CommPlan)s the runtime verifies before
//!   communicating (`Pencil2D` forward/inverse plans);
//! * checks the user-facing coordinate accessors (`spectral_coords`,
//!   `zpencil_coords` and their owners) realise exactly the registered maps.
//!
//! Negative controls: a swapped-stride layout (storage order transposed) and
//! an off-by-one row split must both be *caught* by these checks.

use std::collections::HashMap;

use crate::registry;
use crate::symbolic;
use vlasov6d_fft::layout::{self, LayoutMap, RankGrid, Repartition};
use vlasov6d_fft::Pencil2D;
use vlasov6d_kerncheck::report::Report;

const PASS: &str = "concrete";

/// Enumerate a repartition's routing via owner maps; returns per-(src, dst)
/// element counts, or an error string on the first bijection defect.
///
/// `src_owner` / `dst_owner` map a global coord to (rank, flat); they are
/// parameters so negative controls can inject deliberately broken maps.
fn enumerate_routing(
    dims: [usize; 3],
    grid: RankGrid,
    src: &LayoutMap,
    dst: &LayoutMap,
    src_owner: &dyn Fn([usize; 3]) -> (usize, usize),
    dst_owner: &dyn Fn([usize; 3]) -> (usize, usize),
) -> Result<HashMap<(usize, usize), usize>, String> {
    let p = grid.n_ranks();
    let src_len = src.local_len(dims, grid);
    let dst_len = dst.local_len(dims, grid);
    let mut src_seen = vec![false; p * src_len];
    let mut dst_seen = vec![false; p * dst_len];
    let mut traffic: HashMap<(usize, usize), usize> = HashMap::new();
    for i0 in 0..dims[0] {
        for i1 in 0..dims[1] {
            for i2 in 0..dims[2] {
                let g = [i0, i1, i2];
                let (sr, sf) = src_owner(g);
                let (dr, df) = dst_owner(g);
                if sr >= p || sf >= src_len {
                    return Err(format!("src owner of {g:?} out of range: ({sr}, {sf})"));
                }
                if dr >= p || df >= dst_len {
                    return Err(format!("dst owner of {g:?} out of range: ({dr}, {df})"));
                }
                if std::mem::replace(&mut src_seen[sr * src_len + sf], true) {
                    return Err(format!("src slot ({sr}, {sf}) claimed twice, at {g:?}"));
                }
                if std::mem::replace(&mut dst_seen[dr * dst_len + df], true) {
                    return Err(format!("dst slot ({dr}, {df}) filled twice, at {g:?}"));
                }
                *traffic.entry((sr, dr)).or_default() += 1;
            }
        }
    }
    if let Some(i) = src_seen.iter().position(|&s| !s) {
        return Err(format!(
            "src slot ({}, {}) never routed",
            i / src_len,
            i % src_len
        ));
    }
    if let Some(i) = dst_seen.iter().position(|&s| !s) {
        return Err(format!(
            "dst slot ({}, {}) never filled",
            i / dst_len,
            i % dst_len
        ));
    }
    Ok(traffic)
}

/// Diff enumerated traffic against the runtime and symbolic derivations.
fn diff_counts(
    rep: &Repartition,
    dims: [usize; 3],
    grid: RankGrid,
    traffic: &HashMap<(usize, usize), usize>,
) -> Result<(), String> {
    let pair = symbolic::derive_pair_count(rep).map_err(|e| e.to_string())?;
    for s in 0..grid.n_ranks() {
        for d in 0..grid.n_ranks() {
            let enumerated = traffic.get(&(s, d)).copied().unwrap_or(0);
            let runtime = rep.pair_elems(dims, grid, s, d);
            let derived = pair.eval(dims, grid, s, d);
            if enumerated != runtime || enumerated != derived {
                return Err(format!(
                    "pair ({s} → {d}): enumerated {enumerated}, runtime pair_elems {runtime}, \
                     symbolic {derived}"
                ));
            }
        }
    }
    Ok(())
}

/// Sum a plan's send edges per (src, dst) over a tag window.
fn plan_traffic(
    plan: &vlasov6d_mpisim::CommPlan,
    tags: std::ops::Range<u64>,
) -> HashMap<(usize, usize), u64> {
    let mut out: HashMap<(usize, usize), u64> = HashMap::new();
    for (src, dst, tag, bytes) in plan.send_edges() {
        if tags.contains(&tag) {
            *out.entry((src, dst)).or_default() += bytes;
        }
    }
    out
}

/// Diff model traffic (in elements) against plan traffic (in bytes) for one
/// repartition's tag window; self-pairs never appear in a plan.
fn diff_plan(
    rep: &Repartition,
    dims: [usize; 3],
    grid: RankGrid,
    plan: &vlasov6d_mpisim::CommPlan,
    tags: std::ops::Range<u64>,
) -> Result<(), String> {
    let planned = plan_traffic(plan, tags);
    for s in 0..grid.n_ranks() {
        for d in 0..grid.n_ranks() {
            let want = if s == d {
                0
            } else {
                (rep.pair_elems(dims, grid, s, d) * 16) as u64
            };
            let got = planned.get(&(s, d)).copied().unwrap_or(0);
            if got != want {
                return Err(format!(
                    "pair ({s} → {d}): plan carries {got} B, model says {want} B"
                ));
            }
        }
    }
    Ok(())
}

pub(crate) fn shape_tag(dims: [usize; 3], grid: RankGrid) -> String {
    format!(
        "{}x{}x{}.g{}x{}",
        dims[0], dims[1], dims[2], grid.rows, grid.cols
    )
}

pub fn run(report: &mut Report) {
    for entry in registry::entries() {
        for (dims, grid) in registry::sample_shapes() {
            let rep = &entry.rep;
            let tag = shape_tag(dims, grid);
            // Bijection + routing enumeration straight from the model maps.
            let routing = enumerate_routing(
                dims,
                grid,
                &rep.src,
                &rep.dst,
                &|g| rep.src.owner(dims, grid, g),
                &|g| rep.dst.owner(dims, grid, g),
            );
            match routing {
                Ok(traffic) => {
                    report.verified(
                        PASS,
                        format!("{}.bijection.{tag}", rep.name),
                        format!(
                            "{} global elements each routed exactly once src → dst",
                            dims[0] * dims[1] * dims[2]
                        ),
                    );
                    match diff_counts(rep, dims, grid, &traffic) {
                        Ok(()) => report.verified(
                            PASS,
                            format!("{}.bytes.{tag}", rep.name),
                            "enumerated traffic == runtime pair_elems == symbolic monomial \
                             on every rank pair",
                        ),
                        Err(e) => report.violated(
                            PASS,
                            format!("{}.bytes.{tag}", rep.name),
                            "traffic derivations disagree",
                            Some(e),
                        ),
                    }
                }
                Err(e) => report.violated(
                    PASS,
                    format!("{}.bijection.{tag}", rep.name),
                    "model enumeration is not a bijection",
                    Some(e),
                ),
            }
        }
    }

    plan_cross_checks(report);
    accessor_cross_checks(report);
    negative_controls(report);
}

/// Diff the registered models against the CommPlans the runtime verifies.
fn plan_cross_checks(report: &mut Report) {
    // The forward plan covers stage 1 + stage 2 in consecutive tag windows;
    // the inverse plan covers the reversed stages.
    for (dims, grid) in registry::sample_shapes() {
        let fft = Pencil2D::new(dims, grid.rows, grid.cols).with_batches(2);
        let span = fft.tag_span();
        let fwd = fft.transpose_plan(0);
        let mut inv = vlasov6d_mpisim::CommPlan::new("fft.pencil.inverse", grid.n_ranks());
        fft.add_inverse(&mut inv, 0);
        let half = span / 2;
        let windows = [
            (layout::pencil_stage1(), &fwd, 0..half),
            (layout::pencil_stage2(), &fwd, half..span),
            (layout::pencil_stage2_inv(), &inv, 0..half),
            (layout::pencil_stage1_inv(), &inv, half..span),
        ];
        for (rep, plan, tags) in windows {
            let name = format!("{}.plan.{}", rep.name, shape_tag(dims, grid));
            match diff_plan(&rep, dims, grid, plan, tags) {
                Ok(()) => report.verified(
                    PASS,
                    name,
                    "split-phase CommPlan window bytes equal model pair_elems · 16",
                ),
                Err(e) => report.violated(PASS, name, "CommPlan disagrees with model", Some(e)),
            }
        }
    }
}

/// The coordinate accessors the k-space multipliers rely on must realise
/// exactly the registered maps.
fn accessor_cross_checks(report: &mut Report) {
    for (dims, grid) in registry::sample_shapes() {
        let fft = Pencil2D::new(dims, grid.rows, grid.cols);
        let spec = layout::xpencil();
        let zpen = layout::zpencil();
        let mut witness = None;
        'outer: for rank in 0..grid.n_ranks() {
            for flat in 0..fft.spectral_len() {
                let [i1, i0, i2] = fft.spectral_coords(rank, flat);
                if spec.coords(dims, grid, rank, flat) != [i0, i1, i2]
                    || fft.spectral_owner([i1, i0, i2]) != (rank, flat)
                {
                    witness = Some(format!("spectral rank {rank}, flat {flat}"));
                    break 'outer;
                }
            }
            for flat in 0..fft.zpencil_len() {
                let c = fft.zpencil_coords(rank, flat);
                if zpen.coords(dims, grid, rank, flat) != c || fft.zpencil_owner(c) != (rank, flat)
                {
                    witness = Some(format!("zpencil rank {rank}, flat {flat}"));
                    break 'outer;
                }
            }
        }
        let name = format!("fft.pencil.accessor.{}", shape_tag(dims, grid));
        match witness {
            None => report.verified(
                PASS,
                name,
                "coordinate accessors realise the registered layout map exactly",
            ),
            Some(w) => report.violated(
                PASS,
                name,
                "accessor disagrees with the registered layout map",
                Some(w),
            ),
        }
    }
}

fn negative_controls(report: &mut Report) {
    // Control: swapped stride — a spectral x-pencil whose storage order is
    // [i0][i1l][i2] instead of [i1l][i0][i2], on the 4 × 1 (slab) grid. The
    // accessor diff must catch the drift on any shape where n0 ≠ n1/Pr.
    let dims = [8usize, 8, 8];
    let grid = RankGrid::new(4, 1);
    let swapped = LayoutMap {
        name: "layout.xpencil.swapped-stride",
        order: [0, 1, 2], // real accessor stores [i1l][i0][i2]
        ..layout::xpencil()
    };
    let fft = Pencil2D::new(dims, grid.rows, grid.cols);
    let caught = (0..grid.n_ranks()).any(|rank| {
        (0..fft.spectral_len()).any(|flat| {
            let [i1, i0, i2] = fft.spectral_coords(rank, flat);
            swapped.coords(dims, grid, rank, flat) != [i0, i1, i2]
        })
    });
    report.control(
        PASS,
        "control.swapped.stride",
        "a swapped-stride spectral layout must disagree with the live accessor",
        caught,
        Some("storage order [0,1,2] vs accessor's [1,0,2]".into()),
    );

    // Control: off-by-one row split — stage 2's destination rows shifted by
    // one, so one boundary row lands on two ranks and another on none. The
    // enumeration must reject it.
    let rep = layout::pencil_stage2();
    let rows = dims[1] / grid.rows;
    let off_by_one = |g: [usize; 3]| -> (usize, usize) {
        let (rank, flat) = rep.dst.owner(dims, grid, g);
        // Shift the block boundary: row `rank·rows` is claimed by the
        // previous rank's slot range as well (rank = pr on a P × 1 grid).
        if g[1].is_multiple_of(rows) && g[1] > 0 {
            (rank - 1, flat % rep.dst.local_len(dims, grid))
        } else {
            (rank, flat)
        }
    };
    let caught = enumerate_routing(
        dims,
        grid,
        &rep.src,
        &rep.dst,
        &|g| rep.src.owner(dims, grid, g),
        &off_by_one,
    )
    .is_err();
    report.control(
        PASS,
        "control.offbyone.rowsplit",
        "an off-by-one destination row split must fail the bijection enumeration",
        caught,
        Some("boundary rows double-assigned to the previous rank".into()),
    );
}
