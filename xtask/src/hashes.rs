//! `cargo xtask hashes [--check]` — bitwise trajectory fingerprints of the
//! three drivers on the benchmark's reference configurations.
//!
//! Each line is a 64-bit FNV-1a over the final state, one word per value
//! (`h ^= bits; h *= 0x100000001b3` from `0xcbf29ce484222325`): every `f32`
//! of `f` as its `to_bits()`, and for the hybrid run then every CDM position
//! component and the scale factor `a` as their `f64` `to_bits()`.
//!
//! * `hybrid16` — `SimulationConfig::laptop_s()` with `n_cdm = 24`, 5 steps;
//! * `dist2.rank0` / `dist2.rank1` — the `[32, 16, 16] × 8³` distributed
//!   run on 2 ranks, 4 steps, each rank's block; the synchronous and the
//!   overlapped ghost exchange must give the same pair;
//! * `plasma_two_stream` — `plasma::two_stream_with([32, 4, 4], 64)`, 20
//!   steps.
//!
//! Each configuration prints two rows. The plain one is the merged-kick
//! trajectory the drivers run, fingerprinted after a final
//! `synchronize()`. The `.synced` one calls `synchronize()` after every
//! step, which makes each step the unmerged `K₁ · D · solve · K₂` sequence
//! (`0 + k₁ == k₁`): its pins are the fingerprints of the stepper before
//! the kicks were merged.
//!
//! A change that claims "same bits" must print the [`PINNED`] values;
//! `--check` fails otherwise. A change that moves bits on purpose moves
//! the pins and says so.

use std::process::ExitCode;

use vlasov6d::dist_sim::{DistributedVlasov, OverlapPolicy};
use vlasov6d::scenario::plasma;
use vlasov6d::{HybridSimulation, SimulationConfig};
use vlasov6d_cosmology::{Background, CosmologyParams};
use vlasov6d_mesh::Decomp3;
use vlasov6d_mpisim::Universe;
use vlasov6d_phase_space::{PhaseSpace, VelocityGrid};

/// The published fingerprints, in print order.
const PINNED: [(&str, u64); 8] = [
    ("hybrid16", 0x0201_07b1_943a_85bc),
    ("dist2.rank0", 0x08d2_de74_1a9f_60bd),
    ("dist2.rank1", 0xbd84_0eae_e19c_7500),
    ("plasma_two_stream", 0x3ddf_8cf6_2972_9ea5),
    ("hybrid16.synced", 0x1292_e7b6_cafa_64c0),
    ("dist2.rank0.synced", 0x302b_935b_f9fd_1345),
    ("dist2.rank1.synced", 0x7cf6_7cb8_ac2b_ff20),
    ("plasma_two_stream.synced", 0x0634_0074_ec9c_5925),
];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(h, |h, w| (h ^ w).wrapping_mul(FNV_PRIME))
}

fn fnv_f32(h: u64, values: &[f32]) -> u64 {
    fnv(h, values.iter().map(|v| u64::from(v.to_bits())))
}

/// `sim`'s five steps, synchronized after each when `every_step`, and
/// always at the end.
fn hybrid16(every_step: bool) -> u64 {
    let mut sim = HybridSimulation::new(SimulationConfig {
        n_cdm: 24,
        ..SimulationConfig::laptop_s()
    });
    for _ in 0..5 {
        sim.step();
        if every_step {
            sim.synchronize();
        }
    }
    sim.synchronize();
    let nu = sim.neutrinos.as_ref().map_or(&[][..], |nu| nu.as_slice());
    let pos = sim.cdm.as_ref().map_or(&[][..], |cdm| &cdm.pos[..]);
    let h = fnv_f32(FNV_OFFSET, nu);
    let h = fnv(h, pos.iter().flatten().map(|x| x.to_bits()));
    fnv(h, [sim.a.to_bits()])
}

/// Rank 0's and rank 1's block fingerprints of the `dist2` run.
fn dist2(overlap: OverlapPolicy, every_step: bool) -> [u64; 2] {
    let sglobal = [32, 16, 16];
    let hashes = Universe::run(2, move |comm| {
        let decomp = Decomp3::new(sglobal, [comm.size(), 1, 1]);
        let mut block = PhaseSpace::zeros_block(
            decomp.local_dims(comm.rank()),
            decomp.local_offset(comm.rank()),
            sglobal,
            VelocityGrid::cubic(8, 0.6),
        );
        block.fill_with(|s, u| {
            let sx = (s[0] as f64 * 0.55).sin()
                + (s[1] as f64 * 0.35).cos()
                + (s[2] as f64 * 0.75).sin();
            0.002 * (2.5 + sx) * (-(u[0] * u[0] + u[1] * u[1] + u[2] * u[2]) / 0.03).exp()
        });
        let background = Background::new(CosmologyParams::planck2015());
        let mut sim =
            DistributedVlasov::new(comm, block, background, 0.2, 1.0).with_overlap(overlap);
        for _ in 0..4 {
            sim.step(comm);
            if every_step {
                sim.synchronize();
            }
        }
        sim.synchronize();
        fnv_f32(FNV_OFFSET, sim.ps.as_slice())
    });
    [hashes[0], hashes[1]]
}

fn plasma_two_stream(every_step: bool) -> u64 {
    let mut sim = plasma::two_stream_with([32, 4, 4], 64).build();
    for _ in 0..20 {
        sim.step();
        if every_step {
            sim.synchronize();
        }
    }
    sim.synchronize();
    fnv_f32(FNV_OFFSET, sim.phase_space().as_slice())
}

pub fn hashes(args: &[String]) -> ExitCode {
    let check = match args {
        [] => false,
        [flag] if flag == "--check" => true,
        _ => {
            eprintln!("usage: cargo xtask hashes [--check]");
            return ExitCode::FAILURE;
        }
    };
    let [r0, r1] = dist2(OverlapPolicy::Overlapped, false);
    let synchronous = dist2(OverlapPolicy::Synchronous, false);
    let [s0, s1] = dist2(OverlapPolicy::Overlapped, true);
    let got = [
        hybrid16(false),
        r0,
        r1,
        plasma_two_stream(false),
        hybrid16(true),
        s0,
        s1,
        plasma_two_stream(true),
    ];
    let mut ok = true;
    for ((name, pinned), h) in PINNED.iter().zip(got) {
        if h == *pinned {
            println!("{name:<24} {h:016x}");
        } else {
            println!("{name:<24} {h:016x}  (pinned {pinned:016x})");
            ok = false;
        }
    }
    if synchronous != [r0, r1] {
        println!(
            "dist2 synchronous        {:016x} / {:016x} differs from overlapped",
            synchronous[0], synchronous[1]
        );
        ok = false;
    }
    if check && !ok {
        eprintln!("xtask hashes: a trajectory left its pinned bits");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
