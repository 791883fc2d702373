//! The names every later performance issue must use: each metric's name,
//! unit, direction and — for end-to-end metrics — the share of the parent's
//! median by which it may worsen before a change counts as a regression.
//! `BENCHMARK.json` repeats this table; `tests/quick.rs` holds the two equal.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub bound: f64,
}

/// All lower-is-better; every workload reports all three. The two timings
/// carry the widest bound the harness allows, a quarter: in a quiet hour of
/// the reference host they spread 1–7 % between runs of the same
/// code, but the harness, checking on the same shared host in a loaded one,
/// measured 11–16 % on `step_s`, and a bound has to clear the spread of the
/// hours it is checked in. A gain smaller than that is shown by alternating
/// paired runs, not against the bound. A metric that spreads past a quarter
/// in a loaded hour is on the per-layer list instead (the README has the
/// measurements):
///
/// * `ckpt_write_s` → `ckpt.write_s`: a write ends in `fsync`s on the
///   checkout's disk, whose share of the write moved by 16–39 % between runs
///   of the same code;
/// * `ckpt_restore_s` → `ckpt.restore_s`: decoding the 67 MB of `hybrid16`
///   is a strided pass that the host's shared last-level cache holds in one
///   half-hour and not in the next; its spread read 5 %, 8 % and 30 % in
///   three sets of ten runs;
/// * `query_p50_ms`, `query_p90_ms` → `query.p50_ms`, `query.p90_ms`: a sky
///   map on `hybrid16` is one pass over the same 67 MB (8.5 ms or 13 ms,
///   15–21 % between quiet runs), and the sub-millisecond p50 of
///   `query_evict` moved by 12 %.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "step_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MiB",
        bound: 0.03,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Nominal for shares, counts and host constants, which have no better
    /// direction of their own; they explain the numbers that do.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: [Layer; 81] = [
    // Host ceilings, measured in the same run. Move nothing.
    higher("host.triad_gbps", "GB/s"),
    higher("host.fma_gflops", "Gflop/s"),
    higher("host.nproc", "count"),
    higher("host.l2_mib", "MiB"),
    // What explains step_s on every workload.
    lower("core.step.vlasov_share", "%"),
    lower("core.step.tree_share", "%"),
    lower("core.step.pm_share", "%"),
    lower("core.step.other_share", "%"),
    higher("core.mcells_per_s", "Mcell/s"),
    lower("core.steps_to_solution", "count"),
    lower("core.tts_s", "s"),
    higher("core.closure", "ratio"),
    lower("advection.line.slmpp5.ns_per_cell", "ns"),
    lower("advection.line.slmpp5.short4.ns_per_cell", "ns"),
    lower("advection.flops_per_cell", "count"),
    higher("phase_space.sweep.x.simd.mcells_per_s", "Mcell/s"),
    higher("phase_space.sweep.y.simd.mcells_per_s", "Mcell/s"),
    higher("phase_space.sweep.z.simd.mcells_per_s", "Mcell/s"),
    higher("phase_space.sweep.ux.simd.mcells_per_s", "Mcell/s"),
    higher("phase_space.sweep.uy.simd.mcells_per_s", "Mcell/s"),
    higher("phase_space.sweep.uz.simd.mcells_per_s", "Mcell/s"),
    higher("phase_space.sweep.x.simd.bw_frac", "ratio"),
    higher("phase_space.sweep.y.simd.bw_frac", "ratio"),
    higher("phase_space.sweep.z.simd.bw_frac", "ratio"),
    higher("phase_space.sweep.ux.simd.bw_frac", "ratio"),
    higher("phase_space.sweep.uy.simd.bw_frac", "ratio"),
    higher("phase_space.sweep.uz.simd.bw_frac", "ratio"),
    higher("phase_space.sweep.uz.lat.mcells_per_s", "Mcell/s"),
    higher("phase_space.sweep.x.scalar.mcells_per_s", "Mcell/s"),
    higher("phase_space.sweep.y.scalar.mcells_per_s", "Mcell/s"),
    higher("phase_space.sweep.ux.scalar.mcells_per_s", "Mcell/s"),
    higher("phase_space.sweep.uy.scalar.mcells_per_s", "Mcell/s"),
    higher(
        "phase_space.moments.density.hybrid16.mcells_per_s",
        "Mcell/s",
    ),
    higher("phase_space.moments.density.plasma.mcells_per_s", "Mcell/s"),
    lower("phase_space.ghost.bytes_per_step", "B"),
    higher("phase_space.ghost.hidden_s", "s"),
    lower("phase_space.ghost.exposed_s", "s"),
    lower("phase_space.sweep.x.dist_sync.ms", "ms"),
    lower("phase_space.sweep.x.overlapped.ms", "ms"),
    lower("fft.real3.n32.ms", "ms"),
    lower("fft.c2c.32x4x4.us", "us"),
    lower("fft.dist_slab.32x16x16.r2.ms", "ms"),
    lower("fft.pencil.32x16x16.2x1.ms", "ms"),
    lower("poisson.periodic.n32.solve_ms", "ms"),
    lower("poisson.periodic.32x4x4.solve_us", "us"),
    lower("poisson.dist.32x16x16.r2.solve_ms", "ms"),
    lower("poisson.force_from_potential.n32.ms", "ms"),
    lower("nbody.tree.build_ms", "ms"),
    lower("nbody.tree.walk_ms", "ms"),
    lower("nbody.pm.deposit_ms", "ms"),
    lower("nbody.pm.interp_ms", "ms"),
    lower("mpisim.bytes_per_step", "B"),
    lower("mpisim.messages_per_step", "count"),
    lower("mpisim.sendrecv.1mib.us", "us"),
    lower("mpisim.barrier.us", "us"),
    higher("dist.strong_eff_2r", "ratio"),
    lower("dist.rank_vs_thread", "ratio"),
    lower("pool.region_overhead_us", "us"),
    higher("pool.thread_eff_2t", "ratio"),
    higher("ckpt.encode.raw.mb_per_s", "MB/s"),
    higher("ckpt.encode.shuffle_rle.mb_per_s", "MB/s"),
    higher("ckpt.decode.shuffle_rle.mb_per_s", "MB/s"),
    lower("ckpt.write_s", "s"),
    lower("ckpt.restore_s", "s"),
    lower("ckpt.write.encode_s", "s"),
    lower("ckpt.write.commit_s", "s"),
    higher("ckpt.compression_ratio", "ratio"),
    lower("ckpt.file_mb", "MB"),
    lower("ckpt.read_record.1mib.ms", "ms"),
    lower("query.p50_ms", "ms"),
    lower("query.p90_ms", "ms"),
    lower("query.region.p50_ms", "ms"),
    lower("query.sky.p50_ms", "ms"),
    lower("query.backtrack.p50_ms", "ms"),
    higher("query.cache.hit_ratio", "ratio"),
    lower("query.cache.evictions", "count"),
    lower("query.decoded_mb", "MB"),
    lower("query.p99_ms", "ms"),
    lower("query.wire.batch4.us", "us"),
    higher("query.rps", "1/s"),
    lower("obs.trace_overhead_pct", "%"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in all {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for m in &END_TO_END {
            // The harness takes no bound above a quarter.
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
    }
}
