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
//!   `PairCount`;
//! * diffs the accumulated traffic against the actual
//!   [`CommPlan`](vlasov6d_mpisim::CommPlan)s the runtime verifies before
//!   communicating (`Pencil2D` forward/inverse plans).
//!
//! Negative control: an off-by-one row split must be *caught* by the
//! enumeration. (The swapped-stride control lives on the live probe, which
//! runs the packets these maps define.)

use std::collections::HashMap;

use super::registry;
use super::symbolic;
use crate::claims::ClaimMap;
use crate::report::Report;
use vlasov6d_fft::layout::{LayoutMap, RankGrid, Repartition};
use vlasov6d_fft::Pencil2D;

const PASS: &str = "concrete";

/// Enumerate a repartition's routing via owner maps, claiming every
/// (rank, flat) slot on each side through a [`ClaimMap`]; returns
/// per-(src, dst) element counts, or an error string on the first bijection
/// defect.
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
    let sides = [
        ("src", src.local_len(dims, grid)),
        ("dst", dst.local_len(dims, grid)),
    ];
    let mut claims = sides.map(|(_, len)| ClaimMap::new(p * len));
    let mut traffic: HashMap<(usize, usize), usize> = HashMap::new();
    let [_, n1, n2] = dims;
    for flat in 0..dims.iter().product() {
        let g = [flat / (n1 * n2), flat / n2 % n1, flat % n2];
        let owners = [src_owner(g), dst_owner(g)];
        for (((side, len), (r, f)), map) in sides.into_iter().zip(owners).zip(&mut claims) {
            if r >= p || f >= len {
                return Err(format!("{side} owner of {g:?} out of range: ({r}, {f})"));
            }
            map.claim(flat, r * len + f)
                .map_err(|c| format!("{side} slot ({r}, {f}) claimed twice, at {g:?}: {c}"))?;
        }
        *traffic.entry((owners[0].0, owners[1].0)).or_default() += 1;
    }
    for ((side, len), map) in sides.into_iter().zip(&claims) {
        if let Err(i) = map.exact_cover() {
            return Err(format!(
                "{side} slot ({}, {}) never claimed",
                i / len,
                i % len
            ));
        }
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
    for rep in &registry::entries() {
        for (dims, grid) in registry::sample_shapes() {
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
            report.check(
                PASS,
                format!("{}.bijection.{tag}", rep.name),
                format!(
                    "{} global elements each routed exactly once src → dst",
                    dims.iter().product::<usize>()
                ),
                routing.as_ref().err().cloned(),
            );
            if let Ok(traffic) = routing {
                report.check(
                    PASS,
                    format!("{}.bytes.{tag}", rep.name),
                    "enumerated traffic == runtime pair_elems == symbolic monomial on every \
                     rank pair",
                    diff_counts(rep, dims, grid, &traffic).err(),
                );
            }
        }
    }

    plan_cross_checks(report);
    offbyone_control(report);
}

/// Diff the registered models against the CommPlans the runtime verifies.
fn plan_cross_checks(report: &mut Report) {
    // The forward plan covers stage 1 + stage 2 in consecutive tag windows;
    // the inverse plan covers the reversed stages.
    for (dims, grid) in registry::sample_shapes() {
        let fft = Pencil2D::new(dims, grid.rows, grid.cols).with_batches(2);
        let span = fft.tag_span();
        let mut fwd = vlasov6d_mpisim::CommPlan::new("fft.pencil.forward", grid.n_ranks());
        fft.add_forward(&mut fwd, 0);
        let mut inv = vlasov6d_mpisim::CommPlan::new("fft.pencil.inverse", grid.n_ranks());
        fft.add_inverse(&mut inv, 0);
        let half = span / 2;
        let [s1, s2, s2i, s1i] = registry::entries();
        let windows = [
            (s1, &fwd, 0..half),
            (s2, &fwd, half..span),
            (s2i, &inv, 0..half),
            (s1i, &inv, half..span),
        ];
        for (rep, plan, tags) in windows {
            report.check(
                PASS,
                format!("{}.plan.{}", rep.name, shape_tag(dims, grid)),
                "split-phase CommPlan window bytes equal model pair_elems · 16",
                diff_plan(&rep, dims, grid, plan, tags).err(),
            );
        }
    }
}

/// Control: off-by-one row split — stage 2's destination rows shifted by
/// one on the 4 × 1 (slab) grid, so one boundary row lands on two ranks and
/// another on none. The enumeration must reject it.
fn offbyone_control(report: &mut Report) {
    let dims = [8usize, 8, 8];
    let grid = RankGrid::new(4, 1);
    let [_, rep, ..] = registry::entries();
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
