//! `vlasov6d-ckpt` — fault-tolerant distributed checkpoint/restart.
//!
//! The paper's flagship runs hold 400 trillion phase-space cells on up to
//! 147,456 nodes for hours; at that scale checkpoint/restart is load-bearing
//! infrastructure, not an afterthought. This crate is the workspace's durable
//! state subsystem, built so that *every* failure mode on the way to disk is
//! either prevented (atomic commit) or detected (checksums) — never silently
//! loaded back into the distribution function:
//!
//! * [`crc`] — CRC-32 (IEEE), slice-by-8; every byte is checksummed once, in
//!   its chunk, and file CRCs are folded from chunk CRCs (`crc32_combine`).
//! * [`codec`] — optional lossless byte-plane-shuffle + RLE compression,
//!   applied per chunk of a payload ([`codec::Encoding`]).
//! * [`record`] — typed records: [`record::Record::PhaseSpace`] (the 6-D
//!   distribution function), [`record::Record::Particles`],
//!   [`record::Record::FieldMesh`] and [`record::Record::SimState`] (step / RNG
//!   / stepper state for bitwise-deterministic resume); each is a small
//!   self-checking head chunk plus payload chunks, written from a borrowed
//!   [`record::RecordRef`] and decoded straight into the record's storage.
//! * [`container`] — the chunked per-rank container file (`rank-NNNN.vck`):
//!   one forward streaming pass with chunk-sized buffers in either
//!   direction, CRC-32 per chunk plus a whole-file CRC trailer, written temp
//!   → fsync → rename so a crash can tear a *temporary* file but never a
//!   committed one.
//! * [`manifest`] — the rank-0 manifest that commits a generation: it lists
//!   every rank file with its size and checksum and is itself written
//!   atomically *after* all rank files, making the commit two-phase.
//! * [`store`] — [`store::CheckpointStore`]: generation directories
//!   (`gen-NNNNNN/`), the collective write protocol over `mpisim`, rotation
//!   / garbage collection, and restart with automatic fallback to the newest
//!   *intact* generation when the latest one fails validation.
//! * [`policy`] — [`policy::CheckpointPolicy`]: cadence, retention and codec
//!   choice, consumed by the `vlasov6d` drivers.
//! * [`fault`] — on-disk fault injection (bit flips, truncation) used by the
//!   kill/resume tests to prove the detection paths actually fire.
//!
//! # Commit protocol
//!
//! ```text
//! every rank:  stream records, chunk by chunk, into gen-G/rank-RRRR.vck.tmp
//!              → fsync → rename to rank-RRRR.vck    (phase 1: data durable)
//! every rank:  gather (bytes, crc32) to rank 0
//! rank 0:      write gen-G/MANIFEST.vckm.tmp → fsync → rename
//!                                                    (phase 2: commit point)
//! rank 0:      delete oldest generations beyond the retention count
//! ```
//!
//! A generation without a valid manifest does not exist as far as restart is
//! concerned; a generation whose manifest disagrees with a rank file (size,
//! checksum, chunk CRC) is *corrupt* and restart falls back to the previous
//! generation. Both cases are exercised by tests in `vlasov6d-suite`.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![allow(
    clippy::disallowed_methods,
    reason = "the checkpoint layer is the workspace's durable writer: its two-phase commit is what everyone else goes through"
)]

pub mod access;
pub mod codec;
pub mod container;
pub mod crc;
pub mod fault;
pub mod manifest;
pub mod policy;
pub mod record;
pub mod store;

pub use access::{ChunkEntry, RankFileReader, RecordEntry};
pub use codec::Encoding;
pub use container::{Committed, ContainerFile};
pub use manifest::Manifest;
pub use policy::CheckpointPolicy;
pub use record::{Record, RecordMeta, RecordRef, SimState};
pub use store::{CheckpointStore, CkptStats, LoadedCheckpoint};

use std::fmt;
use std::path::{Path, PathBuf};

/// Why a checkpoint operation failed.
///
/// Corruption variants carry the byte offset at which validation failed, so
/// an operator can tell a truncated file from a flipped bit from a version
/// skew without a hex editor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// An OS-level I/O failure (message carries the `io::Error` text).
    Io {
        /// File or directory the operation touched.
        path: PathBuf,
        /// Rendered `io::Error`.
        detail: String,
    },
    /// Malformed or checksum-violating bytes.
    Corrupt {
        /// File the bytes came from, when known.
        path: Option<PathBuf>,
        /// Byte offset (within the file or record) where validation failed.
        offset: u64,
        /// What was wrong.
        detail: String,
    },
    /// No generation in the store survived validation.
    NoValidGeneration {
        /// The store root that was scanned.
        dir: PathBuf,
        /// Per-generation failure summary.
        detail: String,
    },
    /// The checkpoint is internally valid but unusable here (for example a
    /// rank-count mismatch, or a required record is missing).
    Mismatch {
        /// What does not line up.
        detail: String,
    },
}

impl CkptError {
    /// I/O error wrapper.
    pub fn io(path: impl Into<PathBuf>, err: &std::io::Error) -> CkptError {
        CkptError::Io {
            path: path.into(),
            detail: err.to_string(),
        }
    }

    /// Format/corruption error at `offset` with no file attribution yet.
    pub fn format(offset: u64, detail: impl Into<String>) -> CkptError {
        CkptError::Corrupt {
            path: None,
            offset,
            detail: detail.into(),
        }
    }

    /// Attach a file path to a corruption error (keeps other variants as-is).
    pub(crate) fn in_file(self, path: &Path) -> CkptError {
        match self {
            CkptError::Corrupt { offset, detail, .. } => CkptError::Corrupt {
                path: Some(path.to_path_buf()),
                offset,
                detail,
            },
            other => other,
        }
    }

    /// Shift a corruption error's offset by `base` (when a nested decoder
    /// reported an offset relative to its own slice).
    pub(crate) fn at_base(self, base: u64) -> CkptError {
        match self {
            CkptError::Corrupt {
                path,
                offset,
                detail,
            } => CkptError::Corrupt {
                path,
                offset: base + offset,
                detail,
            },
            other => other,
        }
    }
}

/// `Err` of [`CkptError::format`], for validation sites that bail out.
pub(crate) fn corrupt<T>(offset: u64, detail: impl Into<String>) -> Result<T, CkptError> {
    Err(CkptError::format(offset, detail))
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io { path, detail } => {
                write!(f, "ckpt: io error on {}: {detail}", path.display())
            }
            CkptError::Corrupt {
                path,
                offset,
                detail,
            } => match path {
                Some(p) => write!(
                    f,
                    "ckpt: corrupt data in {} at byte offset {offset}: {detail}",
                    p.display()
                ),
                None => write!(f, "ckpt: corrupt data at byte offset {offset}: {detail}"),
            },
            CkptError::NoValidGeneration { dir, detail } => write!(
                f,
                "ckpt: no valid checkpoint generation under {}: {detail}",
                dir.display()
            ),
            CkptError::Mismatch { detail } => write!(f, "ckpt: mismatch: {detail}"),
        }
    }
}

impl std::error::Error for CkptError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_offsets_and_paths() {
        let e = CkptError::format(42, "bad magic").in_file(Path::new("/x/rank-0000.vck"));
        let s = e.to_string();
        assert!(s.contains("offset 42"), "{s}");
        assert!(s.contains("rank-0000.vck"), "{s}");
        let shifted = CkptError::format(2, "short").at_base(100);
        assert!(shifted.to_string().contains("offset 102"));
    }
}
