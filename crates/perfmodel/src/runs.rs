//! The paper's Table 2: run configurations for the scaling measurements.

/// One row of the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    pub id: &'static str,
    /// Vlasov spatial cells per dimension (`N_x = nx³`).
    pub nx: usize,
    /// Velocity cells per dimension (`N_u = nu³`, 64 in every paper run).
    pub nu: usize,
    /// CDM particles per dimension (`N_CDM = n_cdm³`).
    pub n_cdm: usize,
    /// Computational nodes.
    pub nodes: usize,
    /// MPI process grid `(n_x, n_y, n_z)`.
    pub procs: [usize; 3],
    /// MPI processes per node (2 or 4).
    pub procs_per_node: usize,
}

impl RunConfig {
    /// Total MPI processes.
    pub(crate) fn n_procs(&self) -> usize {
        self.procs[0] * self.procs[1] * self.procs[2]
    }

    /// PM mesh cells per dimension: `N_PM = N_CDM/3³` ⇒ side = n_cdm/3.
    pub fn n_pm(&self) -> usize {
        self.n_cdm / 3
    }

    /// Phase-space cells per rank.
    pub fn vlasov_cells_per_rank(&self) -> f64 {
        let total = (self.nx as f64).powi(3) * (self.nu as f64).powi(3);
        total / self.n_procs() as f64
    }

    /// Particles per rank.
    pub(crate) fn particles_per_rank(&self) -> f64 {
        (self.n_cdm as f64).powi(3) / self.n_procs() as f64
    }

    /// Local spatial block dims (cells) per rank.
    pub(crate) fn local_block(&self) -> [f64; 3] {
        [
            self.nx as f64 / self.procs[0] as f64,
            self.nx as f64 / self.procs[1] as f64,
            self.nx as f64 / self.procs[2] as f64,
        ]
    }

    /// Run-group letter (scaling groups share it).
    pub fn group(&self) -> char {
        self.id.chars().next().unwrap()
    }
}

/// The 18 runs of the paper's Table 2.
///
/// Note: the printed table lists M32 at 3,456 nodes, but (24·24·16) processes
/// at 2 per node is 4,608 nodes — we encode the arithmetic-consistent value.
pub fn paper_runs() -> Vec<RunConfig> {
    let r = |id, nx, n_cdm, nodes, procs, ppn| RunConfig {
        id,
        nx,
        nu: 64,
        n_cdm,
        nodes,
        procs,
        procs_per_node: ppn,
    };
    vec![
        r("S1", 96, 864, 144, [12, 12, 2], 2),
        r("S2", 96, 864, 288, [12, 12, 4], 2),
        r("S4", 96, 864, 576, [12, 12, 8], 2),
        r("M8", 192, 1728, 1152, [24, 24, 4], 2),
        r("M12", 192, 1728, 1728, [24, 24, 6], 2),
        r("M16", 192, 1728, 2304, [24, 24, 8], 2),
        r("M24", 192, 1728, 3456, [24, 24, 12], 2),
        r("M32", 192, 1728, 4608, [24, 24, 16], 2),
        r("L48", 384, 3456, 6912, [48, 48, 6], 2),
        r("L64", 384, 3456, 9216, [48, 48, 8], 2),
        r("L96", 384, 3456, 13824, [48, 48, 12], 2),
        r("L128", 384, 3456, 18432, [48, 48, 16], 2),
        r("L256", 384, 3456, 36864, [48, 48, 32], 2),
        r("H384", 768, 6912, 55296, [96, 96, 24], 4),
        r("H512", 768, 6912, 73728, [96, 96, 32], 4),
        r("H768", 768, 6912, 110592, [96, 96, 48], 4),
        r("H1024", 768, 6912, 147456, [96, 96, 64], 4),
        r("U1024", 1152, 6912, 147456, [48, 48, 128], 2),
    ]
}

/// Fetch one run by id.
pub fn run(id: &str) -> RunConfig {
    paper_runs()
        .into_iter()
        .find(|r| r.id == id)
        .unwrap_or_else(|| panic!("unknown run id {id}"))
}

/// The paper's reported weak-scaling efficiencies (Table 3), as
/// `(chain, total, vlasov, tree, pm)` percentages — the reference the model
/// is compared against in EXPERIMENTS.md.
pub const PAPER_WEAK_SCALING: [(&str, f64, f64, f64, f64); 3] = [
    ("S2-M16", 96.0, 99.0, 88.4, 79.5),
    ("S2-L128", 91.1, 99.2, 76.8, 48.7),
    ("S2-H1024", 82.3, 94.4, 82.0, 17.1),
];

/// The paper's reported strong-scaling efficiencies (Table 4) per group.
pub const PAPER_STRONG_SCALING: [(&str, f64, f64, f64, f64); 4] = [
    ("S", 87.7, 87.5, 90.9, 72.9),
    ("M", 93.3, 93.9, 97.1, 60.6),
    ("L", 91.1, 99.6, 85.7, 36.2),
    ("H", 82.4, 93.0, 77.5, 34.1),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eighteen_runs_matching_table2() {
        let runs = paper_runs();
        assert_eq!(runs.len(), 18);
        let h1024 = run("H1024");
        assert_eq!(h1024.nodes, 147_456);
        assert_eq!(h1024.n_procs(), 96 * 96 * 64);
        assert_eq!(h1024.n_procs() / h1024.procs_per_node, h1024.nodes);
    }

    #[test]
    fn procs_per_node_consistent_everywhere() {
        for r in paper_runs() {
            assert_eq!(
                r.n_procs(),
                r.nodes * r.procs_per_node,
                "{}: {} procs on {} nodes × {}",
                r.id,
                r.n_procs(),
                r.nodes,
                r.procs_per_node
            );
        }
    }

    #[test]
    fn pm_mesh_is_a_third_of_cdm() {
        assert_eq!(run("S1").n_pm(), 288);
        assert_eq!(run("H1024").n_pm(), 2304);
    }

    #[test]
    fn weak_scaling_chain_doubles_per_side() {
        // S2 → M16 → L128 → H1024: 8× work, 8× nodes at every hop.
        let chain = ["S2", "M16", "L128", "H1024"];
        for w in chain.windows(2) {
            let (a, b) = (run(w[0]), run(w[1]));
            assert_eq!(b.nx, 2 * a.nx);
            assert_eq!(b.nodes, 8 * a.nodes, "{} → {}", a.id, b.id);
        }
    }

    #[test]
    fn per_rank_load_is_constant_along_weak_chain() {
        let s2 = run("S2").vlasov_cells_per_rank();
        for id in ["M16", "L128"] {
            let v = run(id).vlasov_cells_per_rank();
            assert!((v / s2 - 1.0).abs() < 1e-12, "{id}: {v} vs {s2}");
        }
        // H1024 runs 4 procs/node, so cells per *rank* halve while cells per
        // *node* stay constant.
        let h = run("H1024");
        assert!((h.vlasov_cells_per_rank() * 2.0 / s2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn largest_run_is_400_trillion_cells() {
        let u = run("U1024");
        let cells = (u.nx as f64).powi(3) * (u.nu as f64).powi(3);
        assert!((cells / 4.0e14 - 1.0).abs() < 0.01, "{cells:e}");
    }
}
