//! Lossless payload codec: byte-plane shuffle + run-length encoding.
//!
//! The distribution function dominates a checkpoint (4 bytes per phase-space
//! cell, §2 of the paper), and its f32 values vary smoothly: neighbouring
//! cells share exponent bytes and often the high mantissa byte. Transposing
//! the payload into *byte planes* (all byte-0s, then all byte-1s, …) turns
//! that similarity into long runs of identical bytes, which a PackBits-style
//! RLE then collapses. The pipeline is exactly invertible — `decode(encode(x))
//! == x` bitwise, including NaN payloads, infinities and denormals — because
//! both stages permute or copy bytes and never reinterpret values.
//!
//! When the RLE output would be larger than the input (incompressible data),
//! [`encode`] falls back to storing the shuffled-but-raw planes; the one-byte
//! mode marker keeps decoding unambiguous.

use crate::{corrupt, CkptError};

/// Payload encoding selector, stored per record in the container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// Verbatim little-endian payload bytes.
    Raw,
    /// Byte-plane shuffle followed by PackBits-style RLE (lossless).
    ShuffleRle,
}

impl Encoding {
    /// Wire byte for the container header.
    pub(crate) fn as_u8(self) -> u8 {
        match self {
            Encoding::Raw => 0,
            Encoding::ShuffleRle => 1,
        }
    }

    /// Inverse of [`Encoding::as_u8`].
    pub(crate) fn from_u8(v: u8) -> Result<Encoding, CkptError> {
        match v {
            0 => Ok(Encoding::Raw),
            1 => Ok(Encoding::ShuffleRle),
            other => Err(CkptError::format(
                0,
                format!("unknown payload encoding byte {other}"),
            )),
        }
    }

    /// Most raw bytes one encoded byte can decode to (an RLE run is two
    /// bytes for up to [`MAX_RUN`]): what bounds a payload by its file size.
    pub(crate) fn max_expansion(self) -> usize {
        match self {
            Encoding::Raw => 1,
            Encoding::ShuffleRle => MAX_RUN / 2,
        }
    }
}

/// Longest stream [`encode`] can produce for `raw_len` payload bytes.
pub(crate) fn max_encoded_len(enc: Encoding, raw_len: usize) -> usize {
    match enc {
        Encoding::Raw => raw_len,
        // Mode byte, then plane bytes or at worst all-literal RLE.
        Encoding::ShuffleRle => 2 + raw_len + raw_len / MAX_LITERAL,
    }
}

/// Inner mode marker of a ShuffleRle stream: was the RLE stage applied?
const MODE_RLE: u8 = 1;
const MODE_PLANES: u8 = 0;

/// Encode `data` (a little-endian array of `word`-byte values).
///
/// `word` is the value width in bytes (4 for f32 payloads, 8 for f64, 1 for
/// byte streams); `data.len()` must be a multiple of it.
pub fn encode(enc: Encoding, word: usize, data: &[u8]) -> Vec<u8> {
    match enc {
        Encoding::Raw => data.to_vec(),
        Encoding::ShuffleRle => {
            let (mut planes, mut out) = (Vec::new(), Vec::new());
            shuffle_rle_into(word, data, &mut planes, &mut out);
            out
        }
    }
}

/// The `ShuffleRle` arm of [`encode`] into reused buffers: `out` receives the
/// stream, `planes` is scratch. Neither grows past `data.len()` plus the RLE
/// control bytes, so the container writer's footprint stays chunk-sized.
pub(crate) fn shuffle_rle_into(word: usize, data: &[u8], planes: &mut Vec<u8>, out: &mut Vec<u8>) {
    assert!(word >= 1, "word size must be at least 1");
    assert_eq!(
        data.len() % word,
        0,
        "payload length {} is not a multiple of the word size {word}",
        data.len()
    );
    shuffle(word, data, planes);
    out.clear();
    out.reserve(max_encoded_len(Encoding::ShuffleRle, data.len()));
    out.push(MODE_RLE);
    rle_encode(planes, out);
    // Keep whichever is smaller; the one-byte marker disambiguates.
    if out.len() > planes.len() {
        out.clear();
        out.push(MODE_PLANES);
        out.extend_from_slice(planes);
    }
}

/// Decode an [`encode`] output back to exactly `raw_len` payload bytes.
pub fn decode(
    enc: Encoding,
    word: usize,
    encoded: &[u8],
    raw_len: usize,
) -> Result<Vec<u8>, CkptError> {
    match enc {
        Encoding::Raw => {
            if encoded.len() != raw_len {
                return corrupt(
                    0,
                    format!("raw payload is not the promised {raw_len} bytes"),
                );
            }
            Ok(encoded.to_vec())
        }
        Encoding::ShuffleRle => {
            let (mut planes, mut out) = (Vec::new(), Vec::new());
            unshuffle_rle_into(word, encoded, raw_len, &mut planes, &mut out)?;
            Ok(out)
        }
    }
}

/// The `ShuffleRle` arm of [`decode`] into reused buffers (`out` receives
/// the `raw_len` payload bytes, `planes` is scratch).
pub(crate) fn unshuffle_rle_into(
    word: usize,
    encoded: &[u8],
    raw_len: usize,
    planes: &mut Vec<u8>,
    out: &mut Vec<u8>,
) -> Result<(), CkptError> {
    if word == 0 || !raw_len.is_multiple_of(word) {
        return corrupt(
            0,
            format!("raw length {raw_len} is not whole {word}-byte words"),
        );
    }
    let Some((&mode, body)) = encoded.split_first() else {
        return corrupt(0, "empty ShuffleRle stream");
    };
    let planes: &[u8] = match mode {
        MODE_PLANES => {
            if body.len() != raw_len {
                return corrupt(
                    1,
                    format!("plane payload is not the promised {raw_len} bytes"),
                );
            }
            body
        }
        MODE_RLE => {
            rle_decode(body, raw_len, planes)?;
            planes
        }
        other => return corrupt(0, format!("unknown ShuffleRle mode byte {other}")),
    };
    unshuffle(word, planes, out);
    Ok(())
}

/// Transpose `data` into `word` byte planes: `out` holds every value's byte
/// 0, then every value's byte 1, and so on. One pass: each value is read
/// once and its bytes scattered to the planes.
fn shuffle(word: usize, data: &[u8], out: &mut Vec<u8>) {
    #[inline(always)]
    fn scatter(word: usize, data: &[u8], out: &mut [u8]) {
        let n = data.len() / word;
        for (i, v) in data.chunks_exact(word).enumerate() {
            for (plane, &b) in v.iter().enumerate() {
                out[plane * n + i] = b;
            }
        }
    }
    out.clear();
    out.resize(data.len(), 0);
    // The two widths records use get a copy with the inner loop unrolled.
    match word {
        4 => scatter(4, data, out),
        8 => scatter(8, data, out),
        _ => scatter(word, data, out),
    }
}

/// Inverse of [`shuffle`]: each value is gathered from the planes and
/// written once.
fn unshuffle(word: usize, planes: &[u8], out: &mut Vec<u8>) {
    #[inline(always)]
    fn gather(word: usize, planes: &[u8], out: &mut [u8]) {
        let n = planes.len() / word;
        for (i, v) in out.chunks_exact_mut(word).enumerate() {
            for (plane, b) in v.iter_mut().enumerate() {
                *b = planes[plane * n + i];
            }
        }
    }
    out.clear();
    out.resize(planes.len(), 0);
    match word {
        4 => gather(4, planes, out),
        8 => gather(8, planes, out),
        _ => gather(word, planes, out),
    }
}

/// Longest run one control byte can express.
const MAX_RUN: usize = 130;
/// Longest literal stretch one control byte can express.
const MAX_LITERAL: usize = 128;
/// Minimum run length worth switching out of literal mode for.
const MIN_RUN: usize = 3;

/// PackBits-style RLE: control byte `c < 128` means "copy the next `c + 1`
/// bytes verbatim"; `c >= 128` means "repeat the next byte `c - 125` times"
/// (runs of 3..=130). Chosen over bit-level schemes for byte-aligned
/// simplicity — after the plane shuffle the win comes from kilobyte-scale
/// runs, not from squeezing the control overhead.
fn rle_encode(data: &[u8], out: &mut Vec<u8>) {
    let mut i = 0;
    let mut literal_start = 0;
    while i < data.len() {
        // Measure the run starting at i.
        let b = data[i];
        let mut run = 1;
        while run < MAX_RUN && i + run < data.len() && data[i + run] == b {
            run += 1;
        }
        if run >= MIN_RUN {
            flush_literals(out, &data[literal_start..i]);
            out.push((run - MIN_RUN + 128) as u8);
            out.push(b);
            i += run;
            literal_start = i;
        } else {
            i += run;
        }
    }
    flush_literals(out, &data[literal_start..]);
}

fn flush_literals(out: &mut Vec<u8>, mut lit: &[u8]) {
    while !lit.is_empty() {
        let n = lit.len().min(MAX_LITERAL);
        out.push((n - 1) as u8);
        out.extend_from_slice(&lit[..n]);
        lit = &lit[n..];
    }
}

/// Inverse of [`rle_encode`]; validates that the stream reproduces exactly
/// `raw_len` bytes and never reads past its end.
fn rle_decode(stream: &[u8], raw_len: usize, out: &mut Vec<u8>) -> Result<(), CkptError> {
    out.clear();
    out.reserve(raw_len);
    let mut i = 0;
    while i < stream.len() {
        let c = stream[i] as usize;
        i += 1;
        if c < 128 {
            let n = c + 1;
            let Some(lit) = stream.get(i..i + n) else {
                return corrupt(
                    i as u64,
                    format!("RLE literal of {n} bytes runs past the end"),
                );
            };
            out.extend_from_slice(lit);
            i += n;
        } else {
            let n = c - 128 + MIN_RUN;
            let Some(&b) = stream.get(i) else {
                return corrupt(i as u64, "RLE run is missing its value byte");
            };
            out.resize(out.len() + n, b);
            i += 1;
        }
        if out.len() > raw_len {
            return corrupt(i as u64, format!("RLE stream expands past {raw_len} bytes"));
        }
    }
    if out.len() != raw_len {
        let detail = format!("RLE stream produced {} of {raw_len} bytes", out.len());
        return corrupt(stream.len() as u64, detail);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(word: usize, data: &[u8]) {
        for enc in [Encoding::Raw, Encoding::ShuffleRle] {
            let e = encode(enc, word, data);
            let d = decode(enc, word, &e, data.len()).expect("decode");
            assert_eq!(d, data, "enc {enc:?} word {word}");
        }
    }

    /// The `word` strided passes the one-pass shuffle replaced.
    fn shuffle_strided(word: usize, data: &[u8]) -> Vec<u8> {
        let n = data.len() / word;
        let mut out = vec![0u8; data.len()];
        for plane in 0..word {
            for i in 0..n {
                out[plane * n + i] = data[i * word + plane];
            }
        }
        out
    }

    #[test]
    fn one_pass_shuffle_matches_the_strided_passes() {
        let ramp: Vec<u8> = (0..=255u8).cycle().take(1200).collect();
        let nans: Vec<u8> = [0x7FA0_1234u32, 0xFFC0_0001, 0x0000_0001, 0x8000_0000]
            .iter()
            .flat_map(|b| b.to_le_bytes())
            .collect();
        let smooth: Vec<u8> = (0..300)
            .map(|i| 1.0f32 + 1e-3 * (i as f32 * 0.01).sin())
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let (mut planes, mut back) = (vec![0xEE; 5], vec![0xEE; 5]);
        for data in [&[][..], &ramp, &nans, &smooth] {
            for word in [1, 3, 4, 8] {
                let data = &data[..data.len() / word * word];
                shuffle(word, data, &mut planes);
                assert_eq!(planes, shuffle_strided(word, data), "word {word}");
                unshuffle(word, &planes, &mut back);
                assert_eq!(back, data, "word {word}");
            }
        }
    }

    #[test]
    fn miri_smoke_codec_roundtrip() {
        // Small, allocation-light cases sized for the Miri interpreter:
        // empty, sub-word-count, runs, and full-entropy bytes.
        roundtrip(4, &[]);
        roundtrip(1, &[7]);
        roundtrip(4, &[0; 64]);
        let ramp: Vec<u8> = (0..=255u8).collect();
        roundtrip(4, &ramp);
        roundtrip(8, &ramp);
        let f32s: Vec<u8> = [1.0f32, 1.5, f32::NAN, f32::INFINITY, -0.0, 1e-40]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        roundtrip(4, &f32s);
    }

    #[test]
    fn nan_payload_bits_survive() {
        // A signalling NaN with a distinctive payload must round-trip
        // bit-exactly: the codec moves bytes, never values.
        let bits: [u32; 4] = [0x7FA0_1234, 0xFFC0_0001, 0x0000_0001, 0x8000_0000];
        let data: Vec<u8> = bits.iter().flat_map(|b| b.to_le_bytes()).collect();
        let e = encode(Encoding::ShuffleRle, 4, &data);
        let d = decode(Encoding::ShuffleRle, 4, &e, data.len()).unwrap();
        assert_eq!(d, data);
    }

    #[test]
    fn smooth_f32_fields_compress() {
        // A smooth field: nearby values share sign/exponent bytes.
        let data: Vec<u8> = (0..4096)
            .map(|i| 1.0f32 + 1e-3 * (i as f32 * 0.01).sin())
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let e = encode(Encoding::ShuffleRle, 4, &data);
        assert!(
            e.len() * 2 < data.len(),
            "expected ≥2× compression on smooth data, got {} → {}",
            data.len(),
            e.len()
        );
    }

    #[test]
    fn incompressible_data_falls_back_to_planes() {
        // Pseudo-random bytes: RLE cannot win, the marker keeps it lossless
        // at a one-byte overhead.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                (x >> 24) as u8
            })
            .collect();
        let e = encode(Encoding::ShuffleRle, 4, &data);
        assert_eq!(e.len(), data.len() + 1);
        assert_eq!(e[0], MODE_PLANES);
        assert_eq!(
            decode(Encoding::ShuffleRle, 4, &e, data.len()).unwrap(),
            data
        );
    }

    #[test]
    fn long_runs_use_max_length_controls() {
        let data = vec![9u8; 10_000];
        let e = encode(Encoding::ShuffleRle, 1, &data);
        // ~10000/130 runs at 2 bytes each, plus the mode marker.
        assert!(e.len() < 200, "runs not collapsed: {} bytes", e.len());
        assert_eq!(
            decode(Encoding::ShuffleRle, 1, &e, data.len()).unwrap(),
            data
        );
    }

    #[test]
    fn truncated_and_oversized_streams_are_rejected() {
        let data = vec![3u8; 100];
        let e = encode(Encoding::ShuffleRle, 1, &data);
        assert!(decode(Encoding::ShuffleRle, 1, &e[..e.len() - 1], 100).is_err());
        assert!(decode(Encoding::ShuffleRle, 1, &e, 99).is_err());
        assert!(decode(Encoding::ShuffleRle, 1, &e, 101).is_err());
        assert!(decode(Encoding::Raw, 1, &data, 99).is_err());
    }
}
