//! Checkpoint I/O throughput: codec bandwidth, end-to-end serial write/read
//! rates vs phase-space size, and the lossless compression ratio of the
//! byte-plane-shuffle + RLE encoding on smooth vs incompressible payloads.
//!
//! The paper (§7.2) counts checkpoint I/O in time-to-solution; the number
//! that matters operationally is checkpoint overhead as a fraction of a
//! step, which EXPERIMENTS.md tracks from these rates. A JSONL record per
//! configuration is also emitted for the run-report tooling.
//!
//! ```text
//! cargo run --release -p vlasov6d-bench --bin ckpt_throughput
//! ```

use std::path::PathBuf;
use vlasov6d_bench::time_median;
use vlasov6d_ckpt::{codec, CheckpointStore, Encoding, Record};
use vlasov6d_obs::{Json, JsonlSink, Stopwatch};
use vlasov6d_phase_space::{PhaseSpace, VelocityGrid};
use vlasov6d_suite::{human_count, table_header, table_row};

/// Smooth phase-space payload: the realistic case for the shuffle+RLE codec
/// (slowly varying f32 exponents → long runs in the high byte planes).
fn smooth_ps(nx: usize, nu: usize) -> PhaseSpace {
    let vg = VelocityGrid::cubic(nu, 1.0);
    let mut ps = PhaseSpace::zeros([nx, nx, nx], vg);
    ps.fill_with(|s, u| {
        let sx = (s[0] as f64 * 0.7).sin() + (s[1] as f64 * 0.4).cos();
        (2.5 + sx) * (-(u[0] * u[0] + u[1] * u[1] + u[2] * u[2]) / 0.3).exp() + 0.01
    });
    ps
}

/// Incompressible payload: every byte from a SplitMix stream, the codec's
/// worst case (RLE must pay its escape overhead and win nothing).
fn random_bytes(len: usize) -> Vec<u8> {
    let mut state = 0x243F_6A88_85A3_08D3u64;
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        out.extend_from_slice(&(z ^ (z >> 27)).to_le_bytes());
    }
    out.truncate(len / 8 * 8); // codec payloads are whole words
    out
}

fn mbs(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / secs.max(1e-9) / 1e6
}

fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vck-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn main() {
    // ---- Part 1: codec bandwidth on smooth vs incompressible payloads.
    let ps = smooth_ps(8, 16);
    let smooth: Vec<u8> = ps
        .as_slice()
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    let random = random_bytes(smooth.len());
    println!(
        "=== codec bandwidth ({} payload, word = 4 bytes) ===\n",
        human_count(smooth.len() as f64)
    );
    let w = [22, 12, 14, 14, 9];
    println!(
        "{}",
        table_header(
            &["payload", "encoding", "enc[MB/s]", "dec[MB/s]", "ratio"],
            &w
        )
    );
    for (label, data) in [("smooth phase space", &smooth), ("random bytes", &random)] {
        for enc in [Encoding::Raw, Encoding::ShuffleRle] {
            let encoded = codec::encode(enc, 4, data);
            let t_enc = time_median(
                || {
                    std::hint::black_box(codec::encode(enc, 4, std::hint::black_box(data)));
                },
                5,
            );
            let t_dec = time_median(
                || {
                    std::hint::black_box(
                        codec::decode(enc, 4, std::hint::black_box(&encoded), data.len())
                            .expect("decode"),
                    );
                },
                5,
            );
            println!(
                "{}",
                table_row(
                    &[
                        label.to_string(),
                        format!("{enc:?}"),
                        format!("{:.0}", mbs(data.len(), t_enc)),
                        format!("{:.0}", mbs(data.len(), t_dec)),
                        format!("{:.2}×", data.len() as f64 / encoded.len() as f64),
                    ],
                    &w
                )
            );
        }
    }

    // ---- Part 2: end-to-end checkpoint write/read vs phase-space size.
    // Serial store (one rank): the collective path adds only the manifest
    // barrier, the per-rank byte stream is identical.
    println!("\n=== end-to-end checkpoint (ShuffleRle, serial store) ===\n");
    let w = [14, 10, 10, 8, 12, 12, 12];
    println!(
        "{}",
        table_header(
            &[
                "grid",
                "raw[MB]",
                "file[MB]",
                "ratio",
                "enc[MB/s]",
                "write[MB/s]",
                "read[MB/s]"
            ],
            &w
        )
    );
    let root = scratch();
    let mut sink = JsonlSink::create(root.join("ckpt_throughput.jsonl")).expect("jsonl sink");
    for (nx, nu) in [(6usize, 8usize), (8, 8), (8, 12), (8, 16)] {
        let store = CheckpointStore::new(root.join(format!("s{nx}x{nu}")));
        let records = [Record::PhaseSpace(smooth_ps(nx, nu))];
        let stats = store
            .write_serial(1, 0.5, &records, Encoding::ShuffleRle, 1)
            .expect("checkpoint write");
        let watch = Stopwatch::start();
        let loaded = store.load_serial().expect("checkpoint read");
        let read_secs = watch.elapsed_secs();
        assert_eq!(loaded.records.len(), records.len());

        let raw = stats.raw_bytes as usize;
        let file = stats.file_bytes as usize;
        println!(
            "{}",
            table_row(
                &[
                    format!("{nx}³×{nu}³"),
                    format!("{:.2}", raw as f64 / 1e6),
                    format!("{:.2}", file as f64 / 1e6),
                    format!("{:.2}×", stats.compression_ratio()),
                    format!("{:.0}", mbs(raw, stats.encode_secs)),
                    format!("{:.0}", mbs(file, stats.write_secs)),
                    format!("{:.0}", mbs(file, read_secs)),
                ],
                &w
            )
        );

        let mut pairs = vec![
            ("grid", Json::str(format!("{nx}^3x{nu}^3"))),
            ("read_mb_per_s", Json::num(mbs(file, read_secs))),
        ];
        // The store's own metric names, flattened into the same record so
        // the JSONL stays greppable by the ckpt/* namespace.
        for (name, value) in stats.metrics() {
            let key: &'static str = match name.as_str() {
                "ckpt/bytes_written" => "ckpt/bytes_written",
                "ckpt/raw_bytes" => "ckpt/raw_bytes",
                "ckpt/compression_ratio" => "ckpt/compression_ratio",
                "ckpt/encode_secs" => "ckpt/encode_secs",
                "ckpt/write_secs" => "ckpt/write_secs",
                "ckpt/generations_kept" => "ckpt/generations_kept",
                _ => continue,
            };
            pairs.push((
                key,
                match value {
                    vlasov6d_obs::MetricValue::Counter(c) => Json::num_u64(c),
                    vlasov6d_obs::MetricValue::Gauge(g) => Json::num(g),
                    vlasov6d_obs::MetricValue::Histogram(_)
                    | vlasov6d_obs::MetricValue::Text(_) => continue,
                },
            ));
        }
        sink.write_line(&Json::obj(pairs).to_string_compact())
            .expect("jsonl line");
    }
    sink.flush().expect("jsonl flush");

    // ---- Part 3: checkpoint overhead as a fraction of a step (the number
    // EXPERIMENTS.md gates at < 5% for the default cadence of 10 steps).
    let nx = 8;
    let nu = 16;
    let mut ps = smooth_ps(nx, nu);
    let mut accel = vlasov6d_mesh::Field3::zeros([nx, nx, nx]);
    for (i, v) in accel.as_mut_slice().iter_mut().enumerate() {
        *v = 0.4 * (i as f64 * 0.17).sin();
    }
    let scheme = vlasov6d_advection::line::Scheme::SlMpp5;
    let t_sweep = time_median(
        || {
            vlasov6d_phase_space::sweep::sweep_velocity(
                &mut ps,
                0,
                &accel,
                scheme,
                vlasov6d_phase_space::Exec::Simd,
            )
        },
        5,
    );
    let t_step = 6.0 * t_sweep; // one sweep per phase-space direction
    let store = CheckpointStore::new(root.join("overhead"));
    let records = [Record::PhaseSpace(ps.clone())];
    let stats = store
        .write_serial(1, 0.5, &records, Encoding::ShuffleRle, 1)
        .expect("checkpoint write");
    let t_ckpt = stats.encode_secs + stats.write_secs;
    for every in [1usize, 10, 25] {
        println!(
            "checkpoint overhead at cadence {every:>2}: {:.2}% of step time ({:.1} ms ckpt vs {:.1} ms step)",
            100.0 * t_ckpt / (t_step * every as f64),
            t_ckpt * 1e3,
            t_step * 1e3,
        );
    }
    let min_cadence = (t_ckpt / (0.05 * t_step)).ceil() as usize;
    println!("→ the < 5% amortized-overhead bar holds from cadence {min_cadence} upward");

    // Keep the JSONL run record, drop the checkpoint stores themselves.
    for entry in std::fs::read_dir(&root).expect("scratch dir") {
        let path = entry.expect("scratch entry").path();
        if path.is_dir() {
            let _ = std::fs::remove_dir_all(&path);
        }
    }
    println!(
        "\nJSONL run record: {}",
        root.join("ckpt_throughput.jsonl").display()
    );
}
