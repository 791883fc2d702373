//! The generation manifest — phase 2 of the two-phase commit.
//!
//! Rank files become a *checkpoint* only once rank 0 atomically writes
//! `MANIFEST.vckm` into the generation directory. The manifest records the
//! step, scale factor, world size and, for every rank file, its exact size
//! and whole-file CRC-32. Restart validation cross-checks each rank file
//! against this list, so a rank file that was torn, truncated, swapped or
//! bit-flipped *after* commit is caught even though the file's own internal
//! CRCs were computed from the corrupted bytes it now holds.
//!
//! On-disk format: one line of JSON (reusing the obs JSON writer — sorted
//! keys, deterministic output) followed by one `crc32 <hex>` line protecting
//! the JSON bytes. Human-inspectable with `cat`, machine-validated on read.

use crate::container::atomic_write;
use crate::crc::crc32;
use crate::CkptError;
use std::fs;
use std::path::Path;
use vlasov6d_obs::Json;

/// File name of the manifest inside a generation directory.
pub(crate) const MANIFEST_NAME: &str = "MANIFEST.vckm";

/// Manifest schema version.
pub(crate) const MANIFEST_VERSION: u64 = 1;

/// Size and checksum of one committed rank file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankFile {
    /// File name within the generation directory (`rank-NNNN.vck`).
    pub name: String,
    /// Committed size in bytes.
    pub bytes: u64,
    /// Whole-file CRC-32 as committed.
    pub crc: u32,
}

/// The commit record of one checkpoint generation.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Generation number (monotonic within a store).
    pub generation: u64,
    /// Completed step count at checkpoint time.
    pub step: u64,
    /// Scale factor at checkpoint time, as raw IEEE-754 bits (exact).
    pub a_bits: u64,
    /// World size that wrote the generation.
    pub n_ranks: u64,
    /// One entry per rank file, in rank order.
    pub files: Vec<RankFile>,
}

impl Manifest {
    /// Serialise to the two-line on-disk form.
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let files: Vec<Json> = self
            .files
            .iter()
            .map(|f| {
                Json::obj([
                    ("name", Json::str(f.name.clone())),
                    ("bytes", Json::num_u64(f.bytes)),
                    ("crc", Json::str(format!("{:08x}", f.crc))),
                ])
            })
            .collect();
        let json = Json::obj([
            ("version", Json::num_u64(MANIFEST_VERSION)),
            ("generation", Json::num_u64(self.generation)),
            ("step", Json::num_u64(self.step)),
            // Full-width u64 would round through the f64-backed JSON number,
            // so the scale-factor bits travel as a hex string.
            ("a_bits", Json::str(format!("{:016x}", self.a_bits))),
            ("n_ranks", Json::num_u64(self.n_ranks)),
            ("files", Json::Arr(files)),
        ])
        .to_string_compact();
        let mut out = json.clone().into_bytes();
        out.push(b'\n');
        out.extend_from_slice(format!("crc32 {:08x}\n", crc32(json.as_bytes())).as_bytes());
        out
    }

    /// Parse and validate the two-line on-disk form.
    pub(crate) fn from_bytes(bytes: &[u8]) -> Result<Manifest, CkptError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|e| CkptError::format(e.valid_up_to() as u64, "manifest is not UTF-8"))?;
        let mut lines = text.lines();
        let json_line = lines
            .next()
            .ok_or_else(|| CkptError::format(0, "manifest is empty"))?;
        let crc_line = lines.next().ok_or_else(|| {
            CkptError::format(json_line.len() as u64, "manifest is missing its crc32 line")
        })?;
        let crc_off = (json_line.len() + 1) as u64;
        let stored = crc_line
            .strip_prefix("crc32 ")
            .and_then(|h| u32::from_str_radix(h.trim(), 16).ok())
            .ok_or_else(|| {
                CkptError::format(crc_off, format!("malformed manifest crc line {crc_line:?}"))
            })?;
        let actual = crc32(json_line.as_bytes());
        if stored != actual {
            return Err(CkptError::format(
                crc_off,
                format!("manifest CRC mismatch: stored {stored:#010x}, computed {actual:#010x}"),
            ));
        }
        let json = Json::parse(json_line)
            .map_err(|e| CkptError::format(0, format!("manifest JSON: {e}")))?;
        let version = json
            .get("version")
            .as_u64()
            .ok_or_else(|| CkptError::format(0, "manifest missing numeric 'version'"))?;
        if version != MANIFEST_VERSION {
            return Err(CkptError::format(
                0,
                format!("manifest version {version}, this build reads {MANIFEST_VERSION}"),
            ));
        }
        let field = |name: &str| {
            json.get(name)
                .as_u64()
                .ok_or_else(|| CkptError::format(0, format!("manifest missing numeric '{name}'")))
        };
        let a_bits = json
            .get("a_bits")
            .as_str()
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| CkptError::format(0, "manifest missing hex 'a_bits'"))?;
        let files_json = json
            .get("files")
            .as_arr()
            .ok_or_else(|| CkptError::format(0, "manifest missing 'files' array"))?;
        let mut files = Vec::with_capacity(files_json.len());
        for f in files_json {
            let name = f
                .get("name")
                .as_str()
                .ok_or_else(|| CkptError::format(0, "manifest file entry missing 'name'"))?;
            let bytes = f
                .get("bytes")
                .as_u64()
                .ok_or_else(|| CkptError::format(0, "manifest file entry missing 'bytes'"))?;
            let crc = f
                .get("crc")
                .as_str()
                .and_then(|h| u32::from_str_radix(h, 16).ok())
                .ok_or_else(|| CkptError::format(0, "manifest file entry missing hex 'crc'"))?;
            files.push(RankFile {
                name: name.to_string(),
                bytes,
                crc,
            });
        }
        Ok(Manifest {
            generation: field("generation")?,
            step: field("step")?,
            a_bits,
            n_ranks: field("n_ranks")?,
            files,
        })
    }

    /// Atomically commit this manifest into `gen_dir`. This IS the commit
    /// point of the generation.
    pub fn commit(&self, gen_dir: &Path) -> Result<(), CkptError> {
        atomic_write(&gen_dir.join(MANIFEST_NAME), &self.to_bytes())
    }

    /// Load and validate the manifest of `gen_dir`.
    pub fn load(gen_dir: &Path) -> Result<Manifest, CkptError> {
        let path = gen_dir.join(MANIFEST_NAME);
        let bytes = fs::read(&path).map_err(|e| CkptError::io(&path, &e))?;
        Manifest::from_bytes(&bytes).map_err(|e| e.in_file(&path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            generation: 7,
            step: 300,
            a_bits: 0.0123456789f64.to_bits(),
            n_ranks: 2,
            files: vec![
                RankFile {
                    name: "rank-0000.vck".into(),
                    bytes: 4096,
                    crc: 0xDEADBEEF,
                },
                RankFile {
                    name: "rank-0001.vck".into(),
                    bytes: 4100,
                    crc: 0x00000001,
                },
            ],
        }
    }

    #[test]
    fn roundtrips_exactly() {
        let m = sample();
        let out = Manifest::from_bytes(&m.to_bytes()).expect("parse");
        assert_eq!(out, m);
        assert_eq!(f64::from_bits(out.a_bits), 0.0123456789);
    }

    #[test]
    fn any_json_tampering_is_detected() {
        let bytes = sample().to_bytes();
        let json_len = bytes.iter().position(|&b| b == b'\n').unwrap();
        for i in (0..json_len).step_by(5) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x02;
            assert!(
                Manifest::from_bytes(&bad).is_err(),
                "tamper at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn missing_crc_line_is_rejected() {
        let bytes = sample().to_bytes();
        let json_len = bytes.iter().position(|&b| b == b'\n').unwrap();
        let err = Manifest::from_bytes(&bytes[..json_len]).unwrap_err();
        assert!(err.to_string().contains("crc32 line"), "{err}");
    }
}
