//! The per-step cost model and the scaling tables (paper Tables 3–4, Fig 7).
//!
//! Cost structure per MPI process per step:
//!
//! **Vlasov** — nine 1-D sweeps over the local phase-space block (six
//! velocity half-sweeps + three spatial sweeps, Eq. 5): compute is
//! `max(flop, bandwidth)` limited; communication is the 3-plane ghost
//! exchange carrying the full velocity grid, one exchange per spatial axis.
//!
//! **Tree** — build (`N log N`) plus walk (`N × interactions(θ, r_cut)`),
//! boundary-slab particle exchange, and a calibrated imbalance factor that
//! grows weakly with node count (gravitational clustering skews leaf counts —
//! the dominant real-world tree-scaling cost the paper observes).
//!
//! **PM** — CIC deposit/readout over local particles, the 2-D-decomposed FFT
//! (only `n_x·n_y` ranks participate — the paper's §5.1.3; work per
//! participating rank therefore grows along the weak chain), the transpose
//! all-to-alls, and the 3-D↔2-D density redistribution. This term is what
//! collapses the PM weak efficiency exactly as the paper's Table 3 shows.

use crate::machine::MachineModel;
use crate::runs::RunConfig;

/// SL-MPP5 flop and byte traffic per cell per 1-D sweep.
const FLOPS_PER_CELL_SWEEP: f64 = 56.0;
const BYTES_PER_CELL_SWEEP: f64 = 8.0; // f32 read + write
/// Directional sweeps per step (Eq. 5).
const SWEEPS_PER_STEP: f64 = 9.0;
/// Ghost width of the fifth-order stencil.
const GHOST: f64 = 3.0;
/// Mean tree interactions per particle at θ = 0.5 with the TreePM cutoff,
/// in the clustered (late-time) state the paper measures — several thousand
/// neighbour interactions inside the ~5.6-PM-cell cutoff sphere.
const INTERACTIONS_PER_PARTICLE: f64 = 6500.0;
/// CIC deposit + force-readout memory traffic per particle \[bytes\]:
/// 8-cell scattered read-modify-write on deposit plus 3 × 8-cell gathers for
/// the force components, at sparse-access efficiency — the per-rank-constant
/// share of the PM part (calibrated so the S-scale PM split between local
/// work and FFT/transposes matches the paper's Table 3 first hop).
const PM_PARTICLE_BYTES: f64 = 1000.0;

/// Per-part times for one step \[s\] (per process — the slowest resource).
#[derive(Debug, Clone, Copy, Default)]
pub struct PartTimes {
    pub vlasov: f64,
    pub tree: f64,
    pub pm: f64,
}

impl PartTimes {
    pub fn total(&self) -> f64 {
        self.vlasov + self.tree + self.pm
    }
}

/// Machine for a given run: 2 procs/node own 2 CMGs each, 4 procs/node 1 CMG.
fn machine_for(run: &RunConfig, base: &MachineModel) -> MachineModel {
    let cmgs = 4.0 / run.procs_per_node as f64;
    base.with_cmgs(cmgs)
}

/// Flop-/bandwidth-limited Vlasov sweep compute for one step \[s\].
fn vlasov_compute(run: &RunConfig, m: &MachineModel) -> f64 {
    let cells = run.vlasov_cells_per_rank();
    let t_flop = cells * SWEEPS_PER_STEP * FLOPS_PER_CELL_SWEEP / m.vlasov_flops();
    let t_bw = cells * SWEEPS_PER_STEP * BYTES_PER_CELL_SWEEP / m.cmg_mem_bw;
    t_flop.max(t_bw)
}

/// Transverse face areas (in cells) of the local block, per spatial axis.
fn block_faces(run: &RunConfig) -> [f64; 3] {
    let block = run.local_block();
    [
        block[1] * block[2],
        block[0] * block[2],
        block[0] * block[1],
    ]
}

/// Ghost-plane exchange cost for one step \[s\]: per spatial axis,
/// 2 directions × 3 planes × (transverse face in cells) × Nu × 4 B; axes
/// exchange sequentially on their own torus links (single-hop placement).
/// This is the part the split-phase schedule can hide behind the interior
/// sweep; the Δt-control allreduce is not included (it stays exposed).
fn vlasov_ghost_comm(run: &RunConfig, m: &MachineModel) -> f64 {
    let nu3 = (run.nu as f64).powi(3);
    block_faces(run)
        .iter()
        .map(|f| m.p2p_time(2.0 * GHOST * f * nu3 * 4.0, 1))
        .sum()
}

/// Local 1-D FFT batch compute per participating rank for one step \[s\]:
/// 3 axes × log2(n) radix passes over n_pm³ elements, shared by the
/// `n_x·n_y` ranks of the 2-D pencil decomposition. This is the work the
/// split-phase transpose schedule can hide communication behind.
fn pm_fft_compute(run: &RunConfig, m: &MachineModel) -> f64 {
    let n_pm = run.n_pm() as f64;
    let q_fft = (run.procs[0] * run.procs[1]) as f64;
    n_pm.powi(3) * 3.0 * n_pm.log2() / q_fft / m.fft_rate
}

/// The two pencil transpose all-to-alls among the q FFT ranks for one step
/// \[s\] (complex f64 = 16 B per element).
fn pm_transpose(run: &RunConfig, m: &MachineModel) -> f64 {
    let n_pm = run.n_pm() as f64;
    let q_fft = (run.procs[0] * run.procs[1]) as f64;
    let bytes_per_rank = n_pm.powi(3) * 16.0 / q_fft;
    2.0 * m.alltoall_time(bytes_per_rank, q_fft as usize)
}

/// Model one step of `run`.
pub fn step_time(run: &RunConfig, base: &MachineModel) -> PartTimes {
    let m = machine_for(run, base);
    let block = run.local_block();

    // --- Vlasov compute: flop- or bandwidth-limited, whichever binds.
    let t_vlasov_compute = vlasov_compute(run, &m);

    // --- Vlasov ghost exchange plus the Δt-control allreduce (log-depth).
    let faces = block_faces(run);
    let mut t_vlasov_comm = vlasov_ghost_comm(run, &m);
    t_vlasov_comm += m.latency * (run.n_procs() as f64).log2();

    // --- Tree.
    let parts = run.particles_per_rank();
    let t_build = parts * 80.0 / m.vlasov_flops(); // ~80 flops/particle/level-ish
    let t_walk = parts * INTERACTIONS_PER_PARTICLE / m.pp_rate;
    // Boundary particles within r_cut ≈ 5.6 PM cells of a face.
    let r_cut_cells = 5.6 * run.nx as f64 / run.n_pm() as f64; // in Vlasov-grid cells
    let surface_fraction = ((faces[0] + faces[1] + faces[2]) * 2.0 * r_cut_cells
        / (block[0] * block[1] * block[2]))
        .min(1.0);
    let t_tree_comm = m.p2p_time(parts * surface_fraction * 32.0, 1);
    // Clustering imbalance: calibrated, grows slowly with machine size.
    let imbalance = 1.0 + 0.035 * (run.nodes as f64 / 144.0).log2().max(0.0);
    let t_tree = (t_build + t_walk + t_tree_comm) * imbalance;

    // --- PM.
    let n_pm = run.n_pm() as f64;
    let t_particle = parts * PM_PARTICLE_BYTES / m.cmg_mem_bw;
    let t_fft = pm_fft_compute(run, &m);
    let t_transpose = pm_transpose(run, &m);
    // 3-D → 2-D density redistribution across all ranks (f32 field).
    let t_redist = 2.0 * m.alltoall_time(n_pm.powi(3) * 4.0 / run.n_procs() as f64, run.n_procs());
    let t_pm = t_particle + t_fft + t_transpose + t_redist;

    PartTimes {
        vlasov: t_vlasov_compute + t_vlasov_comm,
        tree: t_tree,
        pm: t_pm,
    }
}

/// Model one step of `run` with the ghost exchange overlapped with the
/// interior sweep at efficiency `overlap_eff ∈ [0, 1]` (the measured
/// `hidden / (hidden + exposed)` split of the split-phase schedule).
///
/// Only the point-to-point ghost traffic can hide behind compute — the
/// Δt-control allreduce stays exposed — and the hidden amount is capped by
/// the interior compute time available to hide it behind.
pub fn step_time_overlapped(run: &RunConfig, base: &MachineModel, overlap_eff: f64) -> PartTimes {
    assert!(
        (0.0..=1.0).contains(&overlap_eff),
        "overlap efficiency must be in [0, 1], got {overlap_eff}"
    );
    let m = machine_for(run, base);
    let hidden = (overlap_eff * vlasov_ghost_comm(run, &m)).min(vlasov_compute(run, &m));
    let mut t = step_time(run, base);
    t.vlasov -= hidden;
    t
}

/// Overlap efficiency from a measured split-phase stage timing: the fraction
/// of the communication wait that the schedule actually hid behind compute.
/// This is how `bench pencil_fft`'s per-stage `(hidden, exposed)` numbers
/// feed back into the model as `transpose_eff`.
pub fn overlap_eff_from_split(hidden: f64, exposed: f64) -> f64 {
    assert!(
        hidden >= 0.0 && exposed >= 0.0,
        "stage timings must be non-negative, got hidden={hidden} exposed={exposed}"
    );
    if hidden + exposed == 0.0 {
        return 0.0;
    }
    hidden / (hidden + exposed)
}

/// Model one step with *both* measured overlaps applied: the Vlasov ghost
/// exchange hidden at `overlap_eff` (as in [`step_time_overlapped`]) and the
/// pencil-FFT transpose all-to-alls hidden at `transpose_eff` — the measured
/// `hidden / (hidden + exposed)` split of `Pencil2D`'s split-phase schedule,
/// which posts each stage's sends and runs the local 1-D FFT batches while
/// the exchange is in flight.
///
/// Only the transpose all-to-alls can hide behind the FFT butterflies — the
/// 3-D↔2-D density redistribution involves non-FFT ranks and stays exposed —
/// and the hidden amount is capped by the local FFT compute available to
/// hide it behind.
pub fn step_time_calibrated(
    run: &RunConfig,
    base: &MachineModel,
    overlap_eff: f64,
    transpose_eff: f64,
) -> PartTimes {
    assert!(
        (0.0..=1.0).contains(&transpose_eff),
        "transpose overlap efficiency must be in [0, 1], got {transpose_eff}"
    );
    let m = machine_for(run, base);
    let hidden = (transpose_eff * pm_transpose(run, &m)).min(pm_fft_compute(run, &m));
    let mut t = step_time_overlapped(run, base, overlap_eff);
    t.pm -= hidden;
    t
}

/// A full scaling report across a set of runs.
#[derive(Debug, Clone)]
pub struct ScalingReport {
    pub rows: Vec<(String, usize, PartTimes)>,
}

impl ScalingReport {
    pub fn for_runs(runs: &[RunConfig], base: &MachineModel) -> Self {
        Self {
            rows: runs
                .iter()
                .map(|r| (r.id.to_string(), r.nodes, step_time(r, base)))
                .collect(),
        }
    }

    fn find(&self, id: &str) -> &(String, usize, PartTimes) {
        self.rows
            .iter()
            .find(|(rid, _, _)| rid == id)
            .unwrap_or_else(|| panic!("run {id} not in report"))
    }

    /// Weak-scaling efficiency of `to` relative to `from` (work per *node*
    /// constant along the chain): `T(from) / T(to)` per part.
    pub fn weak_efficiency(&self, from: &str, to: &str) -> [f64; 4] {
        // Wall time per step is the per-process time (all processes run
        // concurrently), so node-level weak efficiency is a direct ratio —
        // the 1-vs-2-CMG process split is already inside the model rates.
        let (_, _, a) = self.find(from);
        let (_, _, b) = self.find(to);
        [
            a.total() / b.total(),
            a.vlasov / b.vlasov,
            a.tree / b.tree,
            a.pm / b.pm,
        ]
    }

    /// Strong-scaling efficiency of `to` relative to `from` within one group:
    /// `T(from)·N(from) / (T(to)·N(to))` per part.
    pub fn strong_efficiency(&self, from: &str, to: &str) -> [f64; 4] {
        let (_, n_a, a) = self.find(from);
        let (_, n_b, b) = self.find(to);
        let (na, nb) = (*n_a as f64, *n_b as f64);
        [
            a.total() * na / (b.total() * nb),
            a.vlasov * na / (b.vlasov * nb),
            a.tree * na / (b.tree * nb),
            a.pm * na / (b.pm * nb),
        ]
    }
}

/// End-to-end time-to-solution model (paper §7.2): `n_steps` simulation steps
/// plus a final snapshot write (particles + ν moment fields — the paper never
/// dumps the raw 6-D function).
pub fn time_to_solution(run: &RunConfig, n_steps: usize, base: &MachineModel) -> (f64, f64) {
    let per_step = step_time(run, base).total();
    let exec = per_step * n_steps as f64;
    let m = machine_for(run, base);
    let particle_bytes = (run.n_cdm as f64).powi(3) * 48.0;
    let moment_bytes = (run.nx as f64).powi(3) * 5.0 * 4.0; // ρ, u, σ²
                                                            // Initial-condition read + final snapshot write over the aggregate
                                                            // filesystem bandwidth.
    let io = 2.0 * (particle_bytes + moment_bytes) / m.io_bw;
    (exec, io)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runs::{paper_runs, run};

    fn report() -> ScalingReport {
        ScalingReport::for_runs(&paper_runs(), &MachineModel::fugaku_per_cmg())
    }

    #[test]
    fn vlasov_dominates_the_step() {
        // Paper: the Vlasov part is ~70% of the total.
        let t = step_time(&run("M16"), &MachineModel::fugaku_per_cmg());
        let frac = t.vlasov / t.total();
        assert!(frac > 0.55 && frac < 0.9, "Vlasov fraction {frac}");
    }

    #[test]
    fn weak_scaling_shape_matches_table3() {
        let rep = report();
        let chain = [("S2", "M16"), ("S2", "L128"), ("S2", "H1024")];
        let mut prev_total = 1.01;
        for (from, to) in chain {
            let [total, vlasov, tree, pm] = rep.weak_efficiency(from, to);
            // Vlasov: near-ideal (paper ≥ 94%).
            assert!(vlasov > 0.90, "{from}-{to}: Vlasov weak eff {vlasov}");
            // Tree: good but below Vlasov (paper 77–88%).
            assert!(tree > 0.6 && tree <= 1.001, "{from}-{to}: tree {tree}");
            // Total: monotonically degrading, still decent (paper 82–96%).
            assert!(
                total > 0.5 && total <= prev_total + 0.02,
                "{from}-{to}: total {total}"
            );
            prev_total = total;
            // PM: collapsing with scale (paper 79.5 → 48.7 → 17.1%).
            assert!(pm < vlasov, "{from}-{to}: PM {pm} should trail Vlasov");
        }
        let [_, _, _, pm_h] = rep.weak_efficiency("S2", "H1024");
        assert!(pm_h < 0.40, "PM weak efficiency at full machine: {pm_h}");
        let [_, _, _, pm_m] = rep.weak_efficiency("S2", "M16");
        assert!(pm_m > pm_h, "PM efficiency must fall along the chain");
    }

    #[test]
    fn strong_scaling_shape_matches_table4() {
        let rep = report();
        for (group, from, to) in [
            ("S", "S1", "S4"),
            ("M", "M8", "M32"),
            ("L", "L48", "L256"),
            ("H", "H384", "H1024"),
        ] {
            let [total, vlasov, tree, pm] = rep.strong_efficiency(from, to);
            assert!(
                total > 0.55 && total <= 1.02,
                "{group}: total strong eff {total}"
            );
            assert!(vlasov > 0.7, "{group}: Vlasov strong eff {vlasov}");
            assert!(tree > 0.6, "{group}: tree strong eff {tree}");
            // PM is the worst scaler in every group (fixed FFT parallelism).
            assert!(pm <= vlasov && pm <= tree + 0.1, "{group}: PM {pm}");
        }
    }

    #[test]
    fn pm_strong_scaling_is_flat_within_a_group() {
        // n_x·n_y is constant within a group, so the FFT does not speed up —
        // exactly the paper's explanation for the poor PM strong scaling.
        let rep = report();
        let (_, _, l48) = rep.find("L48");
        let (_, _, l256) = rep.find("L256");
        // FFT part of PM unchanged; only particle work shrinks.
        assert!(l256.pm > 0.5 * l48.pm, "{} vs {}", l256.pm, l48.pm);
    }

    #[test]
    fn time_to_solution_magnitudes() {
        // H1024 with ~500 steps should land within a factor ~3 of the paper's
        // 6183 s execution; I/O should be minutes, not hours.
        // The paper's H1024 run (z=10→0) takes 6183 s; with our modelled
        // ~1.2 s/step that corresponds to a few thousand CFL-bound steps.
        let (exec, io) = time_to_solution(&run("H1024"), 5000, &MachineModel::fugaku_per_cmg());
        assert!(exec > 2000.0 && exec < 20000.0, "exec {exec}");
        // Paper: 733 s of I/O for the H1024 end-to-end run.
        assert!(io > 100.0 && io < 2000.0, "io {io}");
    }

    #[test]
    fn overlap_shaves_exactly_the_hidden_ghost_time() {
        let m = MachineModel::fugaku_per_cmg();
        let r = run("M16");
        let sync = step_time(&r, &m);
        // eff = 0 is the synchronous model bit for bit.
        let none = step_time_overlapped(&r, &m, 0.0);
        assert_eq!(sync.vlasov, none.vlasov);
        // Full overlap removes the ghost p2p term but not the allreduce.
        let full = step_time_overlapped(&r, &m, 1.0);
        assert!(full.vlasov < sync.vlasov);
        let shaved = sync.vlasov - full.vlasov;
        assert!(shaved > 0.0);
        // Monotone in the efficiency; tree/PM untouched.
        let half = step_time_overlapped(&r, &m, 0.5);
        assert!(full.vlasov < half.vlasov && half.vlasov < sync.vlasov);
        assert_eq!(half.tree, sync.tree);
        assert_eq!(half.pm, sync.pm);
    }

    /// The report of `runs` with each row's times from `time`.
    fn report_with(runs: &[RunConfig], time: impl Fn(&RunConfig) -> PartTimes) -> ScalingReport {
        ScalingReport {
            rows: runs
                .iter()
                .map(|r| (r.id.to_string(), r.nodes, time(r)))
                .collect(),
        }
    }

    #[test]
    fn overlap_improves_weak_scaling() {
        // The ghost exchange is the Vlasov part's scale-degrading term: it
        // grows along the weak chain while compute stays per-rank constant.
        // Hiding it must not hurt the chain anywhere (small runs shift only
        // marginally) and must clearly lift the large end, where the
        // exchange is biggest.
        let runs = paper_runs();
        let m = MachineModel::fugaku_per_cmg();
        let sync = ScalingReport::for_runs(&runs, &m);
        let over = report_with(&runs, |r| step_time_overlapped(r, &m, 0.9));
        for (from, to) in [("S2", "M16"), ("S2", "L128"), ("S2", "H1024")] {
            let [_, v_sync, ..] = sync.weak_efficiency(from, to);
            let [_, v_over, ..] = over.weak_efficiency(from, to);
            assert!(
                v_over >= v_sync - 1e-4,
                "{from}-{to}: overlapped Vlasov weak eff {v_over} < {v_sync}"
            );
            let (_, _, t_sync) = sync.find(to);
            let (_, _, t_over) = over.find(to);
            assert!(t_over.vlasov < t_sync.vlasov, "{to} must get faster");
        }
        let [_, v_sync, ..] = sync.weak_efficiency("S2", "H1024");
        let [_, v_over, ..] = over.weak_efficiency("S2", "H1024");
        assert!(
            v_over > v_sync + 0.01,
            "full-machine Vlasov weak eff should clearly improve: {v_sync} → {v_over}"
        );
        let (_, _, h_sync) = sync.find("H1024");
        let (_, _, h_over) = over.find("H1024");
        assert!(h_over.vlasov < h_sync.vlasov);
    }

    #[test]
    fn transpose_overlap_shaves_only_the_hidden_transpose_time() {
        let m = MachineModel::fugaku_per_cmg();
        let r = run("M16");
        let sync = step_time(&r, &m);
        // Both efficiencies at 0 is the synchronous model bit for bit.
        let none = step_time_calibrated(&r, &m, 0.0, 0.0);
        assert_eq!(sync.vlasov, none.vlasov);
        assert_eq!(sync.tree, none.tree);
        assert_eq!(sync.pm, none.pm);
        // Full transpose overlap shrinks PM only; Vlasov/tree match the
        // ghost-overlapped model exactly.
        let full = step_time_calibrated(&r, &m, 0.0, 1.0);
        let ghost_only = step_time_overlapped(&r, &m, 0.0);
        assert_eq!(full.vlasov, ghost_only.vlasov);
        assert_eq!(full.tree, ghost_only.tree);
        assert!(full.pm < sync.pm);
        // The shaved amount is bounded by what the FFT butterflies can hide.
        let machine = machine_for(&r, &m);
        let shaved = sync.pm - full.pm;
        assert!(shaved <= pm_transpose(&r, &machine) + 1e-15);
        assert!(shaved <= pm_fft_compute(&r, &machine) + 1e-15);
        // Monotone in the efficiency.
        let half = step_time_calibrated(&r, &m, 0.0, 0.5);
        assert!(full.pm < half.pm && half.pm < sync.pm);
        // Composes with the ghost overlap without cross-talk.
        let both = step_time_calibrated(&r, &m, 0.9, 1.0);
        assert_eq!(both.pm, full.pm);
        assert_eq!(both.vlasov, step_time_overlapped(&r, &m, 0.9).vlasov);
    }

    #[test]
    fn transpose_overlap_improves_pm_weak_scaling() {
        // The transpose all-to-alls are the PM part's scale-degrading term:
        // contention grows with the participating rank count while the local
        // FFT batch work per rank stays roughly constant. Hiding the
        // transpose behind the batches must lift the PM weak-scaling chain
        // at every hop, most visibly at the full-machine end.
        let runs = paper_runs();
        let m = MachineModel::fugaku_per_cmg();
        let sync = ScalingReport::for_runs(&runs, &m);
        let cal = report_with(&runs, |r| step_time_calibrated(r, &m, 0.0, 0.9));
        for (from, to) in [("S2", "M16"), ("S2", "L128"), ("S2", "H1024")] {
            let [_, _, _, pm_sync] = sync.weak_efficiency(from, to);
            let [_, _, _, pm_cal] = cal.weak_efficiency(from, to);
            assert!(
                pm_cal >= pm_sync - 1e-4,
                "{from}-{to}: calibrated PM weak eff {pm_cal} < {pm_sync}"
            );
            let (_, _, t_sync) = sync.find(to);
            let (_, _, t_cal) = cal.find(to);
            assert!(t_cal.pm < t_sync.pm, "{to}: PM must get faster");
        }
        let [_, _, _, pm_sync] = sync.weak_efficiency("S2", "H1024");
        let [_, _, _, pm_cal] = cal.weak_efficiency("S2", "H1024");
        assert!(
            pm_cal > pm_sync + 0.005,
            "full-machine PM weak eff should clearly improve: {pm_sync} → {pm_cal}"
        );
    }

    #[test]
    fn overlap_eff_from_measured_split() {
        assert_eq!(overlap_eff_from_split(0.0, 0.0), 0.0);
        assert_eq!(overlap_eff_from_split(3.0, 1.0), 0.75);
        assert_eq!(overlap_eff_from_split(5.0, 0.0), 1.0);
        // A measured split always yields a valid model input.
        for (h, e) in [(0.1, 0.9), (1e-9, 2.0), (7.0, 7.0)] {
            let eff = overlap_eff_from_split(h, e);
            assert!((0.0..=1.0).contains(&eff), "{eff}");
            // Usable directly as the calibrated transpose efficiency.
            let _ = step_time_calibrated(&run("S2"), &MachineModel::fugaku_per_cmg(), 0.0, eff);
        }
    }

    #[test]
    fn u1024_step_costs_more_than_h1024() {
        // Same nodes, 3.375× the phase-space cells → clearly slower steps
        // (paper: 20342 s vs 6183 s execution).
        let m = MachineModel::fugaku_per_cmg();
        let h = step_time(&run("H1024"), &m).total();
        let u = step_time(&run("U1024"), &m).total();
        assert!(u > 1.8 * h, "U1024 {u} vs H1024 {h}");
    }
}
