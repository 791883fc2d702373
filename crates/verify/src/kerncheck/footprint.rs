//! Pass 3 — stencil-footprint extraction and ghost-width consistency.
//!
//! A widened stencil that outruns the halo exchange is the classic silent
//! distributed-memory bug: the kernel reads one plane past what was
//! exchanged, the interior answer is subtly wrong, and no assertion fires.
//! This pass closes the loop from the *kernels themselves* to the *comm
//! layer*:
//!
//! 1. **probe** the real `advect_line` — perturb each input cell over several
//!    bases (limiters flatten single-base probes, so constant, random, and
//!    spike bases are all used) and record which offsets reach a fixed output
//!    cell, for positive and negative shifts;
//! 2. **cross-validate** against the structural footprint from the taint
//!    domain over the shipped body (probing can only under-observe; taint
//!    can only over-approximate — agreement pins the radius from both sides);
//! 3. probe the **mesh stencils** (`gradient_axis`, `laplacian`) the same way
//!    (they are linear, so one delta-field probe is exhaustive by
//!    superposition) and check the advertised radius constants;
//! 4. probe the **extended entry points** (`advect_line_ext`,
//!    `advect_lanes_ext`) the distributed sweeps feed from ghost planes:
//!    `out[i]` may read `ext[i ..= i + 2·GHOST]` and nothing else, so an
//!    `ext` of exactly `GHOST` extra cells per side always suffices;
//! 5. check the constants line up: probed radius == `advection::GHOST` ==
//!    `phase_space::exchange::GHOST_WIDTH`, and every per-edge byte count of
//!    the `ghost_exchange_plan` equals `GHOST · cross-section · vlen ·
//!    4` — so the exchanged volume provably covers the stencil reach.

use super::model::{slots, taint_line};
use crate::report::Report;
use std::collections::BTreeSet;
use vlasov6d_advection::lanes::{advect_lanes_ext, LanesWork};
use vlasov6d_advection::line::{advect_line, advect_line_ext, LineWork, GHOST};
use vlasov6d_advection::{f32x8, Boundary, Scheme};
use vlasov6d_mesh::stencil::{gradient_axis, laplacian, GradientOrder};
use vlasov6d_mesh::{Decomp3, Field3};
use vlasov6d_mpisim::{cart_neighbor_edges, PlanChecks};
use vlasov6d_phase_space::exchange::{ghost_exchange_plan, GHOST_WIDTH};

/// Offsets `d` such that perturbing `line[i + d]` changes `advect_line`'s
/// output at cell `i`, unioned over probe bases, perturbation sizes and the
/// given shifts. Uses a mid-line output cell so the periodic wrap never
/// aliases offsets.
pub(crate) fn probe_advection_offsets(scheme: Scheme, cfls: &[f64]) -> BTreeSet<i64> {
    let mut work = LineWork::new();
    probe_offsets(32, 16, 16, cfls, |line, cfl| {
        let mut line = line.to_vec();
        advect_line(scheme, &mut line, cfl, Boundary::Periodic, &mut work);
        line
    })
}

/// Which of the extended entry points [`probe_ext_offsets`] drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ExtKernel {
    /// `advect_line_ext`.
    Line,
    /// `advect_lanes_ext`, the same line in all eight lanes.
    Lanes,
}

/// Offsets `j − i` such that perturbing `ext[j]` changes the extended entry
/// point's `out[i]`, probed like [`probe_advection_offsets`].
pub(crate) fn probe_ext_offsets(kernel: ExtKernel, scheme: Scheme, cfls: &[f64]) -> BTreeSet<i64> {
    let m = 20usize;
    let mut line_work = LineWork::new();
    let mut lanes_work = LanesWork::new();
    probe_offsets(
        m + 2 * GHOST,
        10 + GHOST,
        10,
        cfls,
        |ext, cfl| match kernel {
            ExtKernel::Line => {
                let mut out = vec![0.0f32; m];
                advect_line_ext(scheme, ext, &mut out, cfl, &mut line_work);
                out
            }
            ExtKernel::Lanes => {
                let ext: Vec<f32x8> = ext.iter().map(|&v| f32x8::splat(v)).collect();
                let mut out = vec![f32x8::ZERO; m];
                advect_lanes_ext(scheme, &ext, &mut out, cfl, &mut lanes_work);
                out.iter().map(|v| v.0[3]).collect()
            }
        },
    )
}

/// The shared prober: for each shift and each of four bases of length `n`
/// (limiters flatten single-base probes: constant, pseudo-random positive,
/// spike at `spike_at`, smooth), perturb every input cell `j` by three sizes
/// and collect `j − i` whenever output cell `i` of `advance` moves.
fn probe_offsets(
    n: usize,
    spike_at: usize,
    i: usize,
    cfls: &[f64],
    mut advance: impl FnMut(&[f32], f64) -> Vec<f32>,
) -> BTreeSet<i64> {
    let mut offsets = BTreeSet::new();
    let mut state = 0x853c49e6748fea9bu64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) as f32
    };
    let random: Vec<f32> = (0..n).map(|_| 0.2 + next()).collect();
    let mut spike = vec![0.1f32; n];
    spike[spike_at] = 3.0;
    let smooth: Vec<f32> = (0..n)
        .map(|k| 2.5 + (2.0 * std::f64::consts::PI * k as f64 / n as f64).sin() as f32)
        .collect();
    let bases: [Vec<f32>; 4] = [vec![1.0; n], random, spike, smooth];
    for &cfl in cfls {
        for base in &bases {
            let reference = advance(base, cfl);
            for (j, delta) in (0..n).flat_map(|j| [(j, 0.25f32), (j, -0.05), (j, 1e-3)]) {
                let mut perturbed = base.clone();
                perturbed[j] += delta;
                if advance(&perturbed, cfl)[i] != reference[i] {
                    offsets.insert(j as i64 - i as i64);
                }
            }
        }
    }
    offsets
}

/// Structural footprint of one cell update: the offsets whose taint reaches
/// the middle cell when the shipped body runs over the taint domain.
pub(crate) fn structural_offsets(scheme: Scheme) -> BTreeSet<i64> {
    let (_, update) = taint_line(scheme);
    slots(update.deps)
        .iter()
        .map(|&k| k as i64 - GHOST as i64)
        .collect()
}

fn radius(offsets: &BTreeSet<i64>) -> i64 {
    offsets.iter().map(|d| d.abs()).max().unwrap_or(0)
}

/// Expected per-scheme access radius (the half-width of the flux stencil).
pub(crate) fn expected_radius(scheme: Scheme) -> i64 {
    match scheme {
        Scheme::Upwind1 => 1,
        Scheme::Sl3 => 2,
        Scheme::Sl5 | Scheme::SlMpp5 => 3,
    }
}

/// Probe a linear periodic `Field3` operator's reach along `axis` with a
/// delta field (linearity makes one probe exhaustive).
fn probe_field_radius(op: impl Fn(&Field3) -> Field3, axis: usize) -> i64 {
    let n = 8usize;
    let c = 4i64;
    let mut delta = Field3::zeros_cubic(n);
    *delta.at_mut(c as usize, c as usize, c as usize) = 1.0;
    let out = op(&delta);
    let mut r = 0i64;
    for k in 0..n as i64 {
        let v = match axis {
            0 => out.at(k as usize, c as usize, c as usize),
            1 => out.at(c as usize, k as usize, c as usize),
            _ => out.at(c as usize, c as usize, k as usize),
        };
        if v != 0.0 {
            // Output at k reads the delta at c: reach |c − k| (periodic
            // distance; n = 8 with radius ≤ 2 never wraps ambiguously).
            let d = (k - c).rem_euclid(n as i64);
            r = r.max(d.min(n as i64 - d));
        }
    }
    r
}

/// Run the whole pass.
pub fn run(report: &mut Report) {
    // 1+2: advection kernels, probed and structural.
    let cfls = [0.35, 0.85, 0.999, -0.45, -0.92];
    let mut max_radius = 0i64;
    for scheme in [Scheme::Upwind1, Scheme::Sl3, Scheme::Sl5, Scheme::SlMpp5] {
        let probed = probe_advection_offsets(scheme, &cfls);
        let structural = structural_offsets(scheme);
        // The mirror trick reflects the structural footprint for cfl < 0.
        let mirrored: BTreeSet<i64> = structural.iter().map(|d| -d).collect();
        let hull: BTreeSet<i64> = structural.union(&mirrored).copied().collect();
        let (pr, sr) = (radius(&probed), radius(&hull));
        max_radius = max_radius.max(pr).max(sr);
        let expected = expected_radius(scheme);
        let holds = probed.is_subset(&hull) && pr == expected && sr == expected;
        report.check(
            "footprint",
            format!("{scheme:?}.radius"),
            format!("probed offsets {probed:?} ⊆ structural hull, both of radius {expected}"),
            (!holds).then(|| format!("probed radius {pr}, structural {hull:?} (radius {sr})")),
        );
    }

    // 4: the extended entry points read `ext[i ..= i + 2·GHOST]` for `out[i]`
    // — the periodic kernels' footprint around `ext[i + GHOST]`, nothing
    // wider — and the widest schemes use that window to both ends.
    let window: BTreeSet<i64> = (0..=2 * GHOST as i64).collect();
    let lane_schemes = [Scheme::Sl5, Scheme::SlMpp5];
    let cases = [Scheme::Upwind1, Scheme::Sl3, Scheme::Sl5, Scheme::SlMpp5]
        .map(|s| (ExtKernel::Line, "line", s))
        .into_iter()
        .chain(lane_schemes.map(|s| (ExtKernel::Lanes, "lanes", s)));
    for (kernel, tag, scheme) in cases {
        let probed = probe_ext_offsets(kernel, scheme, &cfls);
        let hull: BTreeSet<i64> = structural_offsets(scheme)
            .iter()
            .flat_map(|d| [GHOST as i64 + d, GHOST as i64 - d])
            .collect();
        let exact = !lane_schemes.contains(&scheme) || probed == window;
        let holds = probed.is_subset(&hull) && hull.is_subset(&window) && exact;
        report.check(
            "footprint",
            format!("ext.{tag}.{scheme:?}.window"),
            format!(
                "out[i] reads ext[i + k] for k in {probed:?} ⊆ 0..={}: GHOST extra cells \
                 per side suffice",
                2 * GHOST
            ),
            (!holds).then(|| format!("probed {probed:?}, structural hull {hull:?}")),
        );
    }

    // 5a: the widest kernel radius is exactly the ghost width, and the two
    // ghost constants are one constant.
    report.check(
        "footprint",
        "ghost_width.consistency",
        format!(
            "max kernel radius {max_radius} == advection::GHOST == \
             phase_space::exchange::GHOST_WIDTH == {GHOST}"
        ),
        (max_radius != GHOST as i64 || GHOST != GHOST_WIDTH)
            .then(|| format!("max radius {max_radius}, GHOST {GHOST}, GHOST_WIDTH {GHOST_WIDTH}")),
    );

    // 3: mesh stencils against their advertised radii.
    let mesh_cases: [(&str, i64, i64); 3] = [
        (
            "gradient2",
            probe_field_radius(|f| gradient_axis(f, 1, GradientOrder::Two), 1),
            GradientOrder::Two.radius() as i64,
        ),
        (
            "gradient4",
            probe_field_radius(|f| gradient_axis(f, 2, GradientOrder::Four), 2),
            GradientOrder::Four.radius() as i64,
        ),
        (
            "laplacian",
            probe_field_radius(laplacian, 0),
            vlasov6d_mesh::stencil::LAPLACIAN_RADIUS as i64,
        ),
    ];
    for (name, probed, advertised) in mesh_cases {
        report.check(
            "footprint",
            format!("mesh.{name}.radius"),
            format!("probed radius {probed} matches the advertised constant"),
            (probed != advertised).then(|| format!("probed {probed}, advertised {advertised}")),
        );
    }

    // 5b: the ghost-exchange comm plans exchange exactly the volume the
    // stencil needs.
    report.check(
        "footprint",
        "comm_plan.volume",
        "ghost-exchange plans on a [2, 2, 1] decomposition verify (topology + volume \
         symmetry) and every send carries GHOST·cross·vlen·4 bytes — the halo always \
         covers the stencil reach",
        comm_plan_volume_witness(&Decomp3::new([16, 8, 8], [2, 2, 1]), 64),
    );
}

/// The first ghost-exchange plan on `decomp` (`vlen` values per cell) that
/// fails verification or sends other than `GHOST_WIDTH · cross · vlen · 4`
/// bytes on an edge, or `None`.
fn comm_plan_volume_witness(decomp: &Decomp3, vlen: usize) -> Option<String> {
    let checks = PlanChecks {
        topology: Some(cart_neighbor_edges(decomp)),
        volume_symmetry: true,
    };
    for d in 0..3 {
        let plan = ghost_exchange_plan(decomp, vlen, d, GHOST_WIDTH, 40);
        if let Err(errs) = plan.verify_with(&checks) {
            return Some(format!("axis {d}: {}", errs[0]));
        }
        for (src, _dst, _tag, bytes) in plan.send_edges() {
            let ld = decomp.local_dims(src);
            let cross: usize = (0..3).filter(|&a| a != d).map(|a| ld[a]).product();
            let expect = (GHOST_WIDTH * cross * vlen * 4) as u64;
            if bytes != expect {
                return Some(format!(
                    "axis {d}, rank {src}: plan sends {bytes} B, stencil needs {expect} B"
                ));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miri_smoke_structural_offsets() {
        assert_eq!(structural_offsets(Scheme::Upwind1), BTreeSet::from([-1, 0]));
        assert_eq!(
            structural_offsets(Scheme::Sl3),
            BTreeSet::from([-2, -1, 0, 1])
        );
        assert_eq!(
            structural_offsets(Scheme::SlMpp5),
            BTreeSet::from([-3, -2, -1, 0, 1, 2])
        );
    }

    #[test]
    fn probed_footprint_is_tight_for_sl5() {
        // Positive shifts reach upwind-biased −3..2; the mirror trick
        // reflects that for negative shifts.
        let fwd = probe_advection_offsets(Scheme::Sl5, &[0.35, 0.85]);
        assert_eq!(fwd, BTreeSet::from([-3, -2, -1, 0, 1, 2]));
        let bwd = probe_advection_offsets(Scheme::Sl5, &[-0.35, -0.85]);
        assert_eq!(bwd, BTreeSet::from([-2, -1, 0, 1, 2, 3]));
    }

    #[test]
    fn limited_scheme_probes_full_stencil_despite_clamps() {
        // On a constant line the clamp is active everywhere; the multi-base
        // probe must still surface the full stencil.
        let probed = probe_advection_offsets(Scheme::SlMpp5, &[0.35, 0.85, -0.45]);
        assert_eq!(radius(&probed), 3);
    }

    #[test]
    fn extended_entry_points_read_exactly_the_ghost_window() {
        for kernel in [ExtKernel::Line, ExtKernel::Lanes] {
            // Forward shifts reach ext[i..=i+5], backward ones ext[i+1..=i+6].
            let fwd = probe_ext_offsets(kernel, Scheme::SlMpp5, &[0.35, 0.85]);
            assert_eq!(fwd, (0..=5).collect::<BTreeSet<i64>>(), "{kernel:?}");
            let bwd = probe_ext_offsets(kernel, Scheme::SlMpp5, &[-0.35, -0.85]);
            assert_eq!(bwd, (1..=6).collect::<BTreeSet<i64>>(), "{kernel:?}");
        }
    }

    #[test]
    fn full_footprint_pass_verifies() {
        let mut report = Report::new();
        run(&mut report);
        assert!(report.ok(), "{}", report.render_text("kerncheck"));
    }
}
