//! Property tests for the checkpoint stack: every record type round-trips
//! bitwise (including NaN / ±inf / denormal payloads and empty sets), the
//! codec is lossless for arbitrary byte strings, random single-bit
//! corruption of a container is always detected by its checksums, and no
//! byte string — noise, a truncated or an overwritten image — gets through
//! any entry of the reader as anything but an error.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use vlasov6d_ckpt::codec;
use vlasov6d_ckpt::container::atomic_write;
use vlasov6d_ckpt::{fault, ContainerFile, Encoding, RankFileReader, Record, SimState};
use vlasov6d_mesh::Field3;
use vlasov6d_nbody::ParticleSet;
use vlasov6d_phase_space::{PhaseSpace, VelocityGrid};

/// Deterministic bit stream for payloads (the strategies pick the seed).
struct Bits(u64);

impl Bits {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ (z >> 27)
    }

    /// f32 bits, with special values (NaN, ±inf, denormals, -0.0) forced in
    /// often enough that every run exercises them.
    fn f32_bits(&mut self, i: usize) -> u32 {
        match i % 7 {
            0 => f32::NAN.to_bits() | (self.next() as u32 & 0x3F_FFFF), // NaN payloads
            1 => f32::INFINITY.to_bits(),
            2 => f32::NEG_INFINITY.to_bits(),
            3 => (self.next() as u32) & 0x007F_FFFF | 0x8000_0000, // -denormal
            _ => self.next() as u32,
        }
    }

    fn f64_special(&mut self, i: usize) -> f64 {
        match i % 5 {
            0 => f64::NAN,
            1 => f64::NEG_INFINITY,
            2 => f64::from_bits(self.next() & 0x000F_FFFF_FFFF_FFFF), // denormal
            _ => f64::from_bits(self.next()),
        }
    }
}

fn enc_of(raw: u64) -> Encoding {
    if raw.is_multiple_of(2) {
        Encoding::Raw
    } else {
        Encoding::ShuffleRle
    }
}

/// A valid three-record image with multi-chunk payloads.
fn sample_image(seed: u64) -> Vec<u8> {
    let mut ps = PhaseSpace::zeros([2, 2, 2], VelocityGrid::cubic(2, 1.0));
    let mut bits = Bits(seed);
    for v in ps.as_mut_slice() {
        *v = f32::from_bits(bits.next() as u32 & 0xFFFF_0000);
    }
    let records = [
        Record::PhaseSpace(ps),
        Record::FieldMesh {
            name: format!("seed-{seed}"),
            field: Field3::from_vec([1, 1, 2], vec![seed as f64, -1.0]),
        },
        Record::Particles(ParticleSet {
            pos: vec![[0.5; 3]; 3],
            vel: vec![[-1.0; 3]; 3],
            mass: 2.0,
        }),
    ];
    ContainerFile::image((0, 1), 32, &records, enc_of(seed))
}

/// A scratch path for the file-backed reader.
fn scratch_file(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vck-prop-{}-{tag}.vck", std::process::id()))
}

/// Open whatever is at `path` and touch every record the index offers.
/// Panics (the property under test) propagate.
fn walk_file(path: &Path) {
    if let Ok(mut reader) = RankFileReader::open(path) {
        for i in 0..reader.record_count() {
            let _ = reader.peek_meta(i);
            let _ = reader.read_record(i);
        }
    }
}

fn roundtrip(rec: &Record, enc: Encoding) -> Record {
    let encoded = rec.encode(enc);
    Record::decode(&encoded.bytes).expect("decode")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn phase_space_roundtrips_bitwise(
        (dx, dy, dz) in (1usize..4, 1usize..4, 1usize..4),
        nv in 2usize..5,
        seed in 0u64..u64::MAX,
    ) {
        let mut ps = PhaseSpace::zeros_block(
            [dx, dy, dz],
            [dx, 0, 0],
            [4 * dx, dy, dz],
            VelocityGrid::cubic(nv, 1.5),
        );
        let mut bits = Bits(seed);
        for (i, v) in ps.as_mut_slice().iter_mut().enumerate() {
            *v = f32::from_bits(bits.f32_bits(i));
        }
        let back = roundtrip(&Record::PhaseSpace(ps.clone()), enc_of(seed));
        let Record::PhaseSpace(got) = back else {
            return Err("wrong record kind".to_string());
        };
        prop_assert_eq!(got.sdims, ps.sdims);
        prop_assert_eq!(got.soffset, ps.soffset);
        prop_assert_eq!(got.sglobal, ps.sglobal);
        prop_assert_eq!(got.vgrid, ps.vgrid);
        for (a, b) in got.as_slice().iter().zip(ps.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn particles_roundtrip_bitwise(n in 0usize..20, seed in 0u64..u64::MAX) {
        let mut bits = Bits(seed);
        let mut p = ParticleSet {
            pos: Vec::new(),
            vel: Vec::new(),
            mass: bits.f64_special(4),
        };
        for i in 0..n {
            p.pos.push([bits.f64_special(i), bits.f64_special(i + 1), bits.f64_special(i + 2)]);
            p.vel.push([bits.f64_special(i + 3), bits.f64_special(i + 4), bits.f64_special(i)]);
        }
        let back = roundtrip(&Record::Particles(p.clone()), enc_of(seed));
        let Record::Particles(got) = back else {
            return Err("wrong record kind".to_string());
        };
        prop_assert_eq!(got.pos.len(), p.pos.len());
        prop_assert_eq!(got.mass.to_bits(), p.mass.to_bits());
        for (a, b) in got.pos.iter().flatten().zip(p.pos.iter().flatten()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in got.vel.iter().flatten().zip(p.vel.iter().flatten()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn sim_state_roundtrips(
        step in 0u64..u64::MAX,
        rng_len in 0usize..9,
        seed in 0u64..u64::MAX,
    ) {
        let mut bits = Bits(seed);
        let state = SimState {
            step,
            tag_counter: bits.next(),
            a: bits.f64_special(0),
            omega_component: bits.f64_special(3),
            cfl_spatial: bits.f64_special(4),
            max_dln_a: bits.f64_special(2),
            scheme: (bits.next() % 256) as u8,
            rng: (0..rng_len).map(|_| bits.next()).collect(),
        };
        let back = roundtrip(&Record::SimState(state.clone()), enc_of(seed));
        let Record::SimState(got) = back else {
            return Err("wrong record kind".to_string());
        };
        prop_assert_eq!(got.step, state.step);
        prop_assert_eq!(got.tag_counter, state.tag_counter);
        prop_assert_eq!(got.a.to_bits(), state.a.to_bits());
        prop_assert_eq!(got.scheme, state.scheme);
        prop_assert_eq!(got.rng, state.rng);
    }

    #[test]
    fn codec_roundtrips_arbitrary_bytes(
        mut data in prop::collection::vec(0u8..=255, 0..600),
        word_sel in 0u32..2,
    ) {
        let word = if word_sel == 0 { 4 } else { 8 };
        data.truncate(data.len() / word * word); // codec payloads are whole words
        for enc in [Encoding::Raw, Encoding::ShuffleRle] {
            let encoded = codec::encode(enc, word, &data);
            let back = codec::decode(enc, word, &encoded, data.len())
                .map_err(|e| e.to_string())?;
            prop_assert_eq!(&back, &data);
        }
    }

    #[test]
    fn any_single_bit_flip_in_a_container_is_detected(
        seed in 0u64..u64::MAX,
        flip_pos in 0u64..u64::MAX,
    ) {
        let mut ps = PhaseSpace::zeros_block(
            [2, 2, 2],
            [0, 0, 0],
            [2, 2, 2],
            VelocityGrid::cubic(2, 1.0),
        );
        let mut bits = Bits(seed);
        for v in ps.as_mut_slice() {
            *v = f32::from_bits(bits.next() as u32);
        }
        let clean = ContainerFile::image((0, 1), 32, &[Record::PhaseSpace(ps)], enc_of(seed));
        prop_assert!(ContainerFile::parse(&clean).is_ok());

        let mut dirty = clean.clone();
        let byte = (flip_pos % clean.len() as u64) as usize;
        let bit = (flip_pos / clean.len() as u64 % 8) as u8;
        dirty[byte] ^= 1 << bit;
        prop_assert!(
            ContainerFile::parse(&dirty).is_err(),
            "bit {bit} of byte {byte}/{} flipped undetected",
            clean.len()
        );
    }

    #[test]
    fn arbitrary_bytes_are_errors_never_panics(
        noise in prop::collection::vec(0u8..=255, 0..300),
        seed in 0u64..u64::MAX,
        at in 0usize..4096,
    ) {
        let path = scratch_file("noise");
        prop_assert!(ContainerFile::parse(&noise).is_err());
        atomic_write(&path, &noise).unwrap();
        walk_file(&path);
        // The same bytes written over a valid image at an arbitrary offset.
        let clean = sample_image(seed);
        let mut image = clean.clone();
        let at = at % image.len();
        let n = noise.len().min(image.len() - at);
        image[at..at + n].copy_from_slice(&noise[..n]);
        prop_assert!(ContainerFile::parse(&image).is_err() || image == clean);
        atomic_write(&path, &image).unwrap();
        walk_file(&path);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn every_truncation_of_a_valid_image_is_an_error(seed in 0u64..u64::MAX) {
        let path = scratch_file("cut");
        let image = sample_image(seed);
        prop_assert!(ContainerFile::parse(&image).is_ok());
        atomic_write(&path, &image).unwrap();
        prop_assert!(RankFileReader::open(&path).is_ok());
        for cut in (0..image.len()).rev() {
            prop_assert!(ContainerFile::parse(&image[..cut]).is_err(), "cut to {cut} bytes parsed");
            fault::truncate_tail(&path, 1).unwrap();
            prop_assert!(RankFileReader::open(&path).is_err(), "cut to {cut} bytes opened");
        }
        std::fs::remove_file(&path).unwrap();
    }
}
