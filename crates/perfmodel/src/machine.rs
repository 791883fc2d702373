//! Machine rates: A64FX compute/memory and Tofu-D network (paper §6.1).

/// Hardware rates of one machine configuration. All rates are per MPI
/// *process*; a process owns one or two CMGs depending on the run.
#[derive(Debug, Clone, Copy)]
pub struct MachineModel {
    /// Peak single-precision flops per CMG \[flop/s\] (1.54 Tflops, §6.1).
    pub cmg_peak_sp_flops: f64,
    /// Sustained HBM2 bandwidth per CMG \[B/s\] (256 GB/s of 1024 GB/s/node).
    pub cmg_mem_bw: f64,
    /// Fraction of peak the Vlasov kernels sustain (the paper measures
    /// 12–15% of SP peak; we take the midpoint).
    pub vlasov_peak_fraction: f64,
    /// Tofu-D injection bandwidth per NIC group \[B/s\] (~6.8 GB/s per link,
    /// multiple links per node; effective per-process rate).
    pub link_bw: f64,
    /// Point-to-point latency \[s\].
    pub latency: f64,
    /// Tree kernel rate \[interactions/s per process\]
    /// (Phantom-GRAPE: 1.2e9 per core × 12 cores/CMG).
    pub pp_rate: f64,
    /// FFT throughput per process \[element-passes/s\]: one radix pass over
    /// one complex element.
    pub fft_rate: f64,
    /// Calibrated torus all-to-all contention exponent: effective per-rank
    /// all-to-all bandwidth degrades as `q^(-alpha)` for q participating
    /// ranks (bisection ~ q^(2/3) links for q^(1) traffic on a 3-D torus
    /// gives alpha ≈ 1/3; dimension-ordered Tofu collectives do better on
    /// block-placed subcommunicators).
    pub alltoall_alpha: f64,
    /// Links per node usable concurrently by an all-to-all schedule
    /// (Tofu-D has six RDMA engines per node).
    pub collective_rails: f64,
    /// Aggregate filesystem bandwidth \[B/s\] (LLIO sustained rate for
    /// many-rank concurrent writes; not per process).
    pub io_bw: f64,
}

impl MachineModel {
    /// Fugaku rates for a 1-CMG process.
    pub fn fugaku_per_cmg() -> Self {
        Self {
            cmg_peak_sp_flops: 1.54e12,
            cmg_mem_bw: 256.0e9,
            vlasov_peak_fraction: 0.135,
            link_bw: 6.8e9,
            latency: 1.0e-6,
            pp_rate: 1.2e9 * 12.0,
            fft_rate: 3.0e9,
            alltoall_alpha: 0.15,
            collective_rails: 6.0,
            io_bw: 50.0e9,
        }
    }

    /// Process owning `n_cmg` CMGs (the paper uses 1 or 2). The node's NIC
    /// group is shared by all its processes, so per-process injection
    /// bandwidth scales with the CMG share too (base rate = a 2-CMG process).
    pub(crate) fn with_cmgs(mut self, n_cmg: f64) -> Self {
        self.cmg_peak_sp_flops *= n_cmg;
        self.cmg_mem_bw *= n_cmg;
        self.pp_rate *= n_cmg;
        self.fft_rate *= n_cmg;
        self.link_bw *= n_cmg / 2.0;
        self
    }

    /// Sustained Vlasov flop rate per process.
    pub(crate) fn vlasov_flops(&self) -> f64 {
        self.cmg_peak_sp_flops * self.vlasov_peak_fraction
    }

    /// Time to move `bytes` point-to-point over `hops` torus hops.
    pub(crate) fn p2p_time(&self, bytes: f64, hops: usize) -> f64 {
        self.latency * hops.max(1) as f64 + bytes / self.link_bw
    }

    /// Time for an all-to-all of `bytes_per_rank` across `q` ranks on the
    /// torus: per-rank wire traffic `bytes·(q-1)/q` at a contention-degraded
    /// bandwidth `link_bw / q^alpha`, plus latency for q message setups
    /// amortised over a log-depth schedule.
    pub(crate) fn alltoall_time(&self, bytes_per_rank: f64, q: usize) -> f64 {
        if q <= 1 {
            return 0.0;
        }
        let qf = q as f64;
        let eff_bw = self.link_bw * self.collective_rails / qf.powf(self.alltoall_alpha);
        bytes_per_rank * (qf - 1.0) / qf / eff_bw + self.latency * qf.log2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sustained_vlasov_rate_matches_paper_range() {
        let m = MachineModel::fugaku_per_cmg();
        let gflops = m.vlasov_flops() / 1e9;
        // Paper Table 1: 150–233 Gflops per CMG.
        assert!(gflops > 150.0 && gflops < 235.0, "{gflops}");
    }

    #[test]
    fn two_cmg_processes_double_compute() {
        let one = MachineModel::fugaku_per_cmg();
        let two = MachineModel::fugaku_per_cmg().with_cmgs(2.0);
        assert_eq!(two.cmg_mem_bw, 2.0 * one.cmg_mem_bw);
        // NIC share follows the CMG share: a 2-CMG process (2 per node) owns
        // half the node NIC — the base rate; a 1-CMG process owns a quarter.
        assert_eq!(two.link_bw, one.link_bw);
        let quarter = MachineModel::fugaku_per_cmg().with_cmgs(1.0);
        assert_eq!(quarter.link_bw, 0.5 * one.link_bw);
    }

    #[test]
    fn alltoall_degrades_with_participants() {
        let m = MachineModel::fugaku_per_cmg();
        let t144 = m.alltoall_time(1e8, 144);
        let t2304 = m.alltoall_time(1e8, 2304);
        // (2304/144)^0.15 ≈ 1.5× contention degradation.
        assert!(t2304 > t144 * 1.3, "{t144} vs {t2304}");
        assert_eq!(m.alltoall_time(1e8, 1), 0.0);
    }

    #[test]
    fn p2p_time_has_latency_floor() {
        let m = MachineModel::fugaku_per_cmg();
        assert!(m.p2p_time(0.0, 1) >= m.latency);
        let t = m.p2p_time(6.8e9, 1);
        assert!(
            (t - 1.0).abs() < 0.01,
            "1 second for 1 link-second of bytes: {t}"
        );
    }
}
