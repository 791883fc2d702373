//! Random-access reads of one rank's container file.
//!
//! The batch restart path ([`crate::store::CheckpointStore::load_collective`])
//! reads a rank file front to back and verifies everything: whole-file CRC,
//! every chunk CRC, every record decode. A *query* workload wants the
//! opposite trade: open a container once, then pull individual records out of
//! it on demand — seeking past the records it does not need and verifying
//! only the chunk CRCs it actually reads. That is what [`RankFileReader`]
//! provides, on the same frame walker as the batch path:
//!
//! * [`RankFileReader::open`] walks the frames, reading and verifying each
//!   record's small head chunk and seeking over its payload chunks, and
//!   builds a byte-offset index. Structural damage (a frame running past the
//!   trailer, a bad header or head) is caught here; payload corruption is
//!   deliberately *not*.
//! * [`RankFileReader::read_record`] seeks to one record and decodes its
//!   payload chunk by chunk into the record's storage, verifying exactly
//!   those chunk CRCs. Corruption in any *other* record stays invisible —
//!   the contract the query-service LRU depends on (and the one
//!   `corrupt_chunk_detection` tests both ways).
//! * [`RankFileReader::peek_meta`] answers from the head chunks read at
//!   open, so a shard learns every block's spatial extent without touching
//!   a single payload byte.

use crate::container::FrameWalker;
use crate::record::{Head, Record, RecordMeta};
use crate::CkptError;
use std::fs;
use std::path::{Path, PathBuf};

/// One payload chunk of one record: where its data bytes live and the CRC
/// the writer stored for them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkEntry {
    /// File offset of the chunk's first data byte.
    pub offset: u64,
    /// Data length in bytes.
    pub len: u32,
    /// Stored CRC-32 of the data bytes.
    pub crc: u32,
}

/// Index entry for one record.
#[derive(Debug, Clone)]
pub struct RecordEntry {
    /// File offset of the record's head chunk frame.
    pub frame_offset: u64,
    /// File offset of the first payload chunk frame.
    payload_offset: u64,
    head: Head,
    /// The record's payload chunks in file order.
    pub chunks: Vec<ChunkEntry>,
}

/// Seekable reader over one committed `rank-NNNN.vck` container.
#[derive(Debug)]
pub struct RankFileReader {
    walker: FrameWalker<fs::File>,
    path: PathBuf,
    /// Rank recorded in the container header.
    pub rank: u32,
    /// World size recorded in the container header.
    pub n_ranks: u32,
    index: Vec<RecordEntry>,
}

impl RankFileReader {
    /// Open `path` and index its records without reading payloads.
    ///
    /// Validates the header, every record's head chunk (CRC and shape) and
    /// the structural consistency of every frame (lengths must stay inside
    /// the record area, the trailer must count the records found); does
    /// *not* verify the whole-file CRC or any payload chunk CRC — that is
    /// deferred to [`RankFileReader::read_record`], per record.
    pub fn open(path: &Path) -> Result<RankFileReader, CkptError> {
        let file = fs::File::open(path).map_err(|e| CkptError::io(path, &e))?;
        let len = file.metadata().map_err(|e| CkptError::io(path, &e))?.len();
        let scan = || {
            let (mut walker, rank, n_ranks) = FrameWalker::container(file, len)?;
            let mut index = Vec::new();
            while !walker.at_trailer() {
                let frame_offset = walker.pos;
                let head = walker.head()?;
                let payload_offset = walker.pos;
                let chunks = walker.skip_payload(&head)?;
                index.push(RecordEntry {
                    frame_offset,
                    payload_offset,
                    head,
                    chunks,
                });
            }
            walker.trailer(index.len() as u32)?;
            Ok((walker, rank, n_ranks, index))
        };
        let (walker, rank, n_ranks, index) = scan().map_err(|e: CkptError| e.in_file(path))?;
        Ok(RankFileReader {
            walker,
            path: path.to_path_buf(),
            rank,
            n_ranks,
            index,
        })
    }

    /// Number of records in the container.
    pub fn record_count(&self) -> usize {
        self.index.len()
    }

    /// Index entry for record `i`.
    pub fn entry(&self, i: usize) -> &RecordEntry {
        &self.index[i]
    }

    /// Read and decode record `i`.
    ///
    /// Verifies the chunk CRCs of record `i` and nothing else: corruption
    /// anywhere outside this record's byte range goes unreported by design.
    pub fn read_record(&mut self, i: usize) -> Result<Record, CkptError> {
        let entry = &self.index[i];
        self.walker
            .seek(entry.payload_offset)
            .and_then(|()| self.walker.payload(&entry.head))
            .map_err(|e| e.in_file(&self.path))
    }

    /// Record `i`'s self-describing head, as read (and CRC-verified) at
    /// open: no I/O, no payload decode.
    pub fn peek_meta(&self, i: usize) -> RecordMeta {
        self.index[i].head.meta()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Encoding;
    use crate::container::{ContainerFile, HEADER_LEN};
    use crate::record::SimState;
    use vlasov6d_mesh::Field3;
    use vlasov6d_phase_space::{PhaseSpace, VelocityGrid};

    fn sample_records() -> Vec<Record> {
        let mut ps = PhaseSpace::zeros_block(
            [2, 3, 2],
            [4, 0, 0],
            [8, 3, 2],
            VelocityGrid::new([2, 2, 4], 1.5),
        );
        for (i, v) in ps.as_mut_slice().iter_mut().enumerate() {
            *v = (i as f32 * 0.37).sin();
        }
        vec![
            Record::SimState(SimState {
                step: 9,
                tag_counter: 3,
                a: 0.05,
                omega_component: 0.3,
                cfl_spatial: 0.4,
                max_dln_a: 0.01,
                scheme: 2,
                rng: vec![11, 22],
            }),
            Record::PhaseSpace(ps),
            Record::FieldMesh {
                name: "phi".into(),
                field: Field3::from_vec([1, 1, 2], vec![0.5, 3.0]),
            },
        ]
    }

    fn write_container(dir: &Path, chunk_len: usize) -> PathBuf {
        fs::create_dir_all(dir).unwrap();
        let path = dir.join("rank-0000.vck");
        ContainerFile::write(
            &path,
            (0, 1),
            chunk_len,
            &sample_records(),
            Encoding::ShuffleRle,
        )
        .expect("commit");
        path
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vck-access-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn random_access_matches_batch_read() {
        let dir = scratch("match");
        let path = write_container(&dir, 32);
        let mut rdr = RankFileReader::open(&path).expect("open");
        assert_eq!(rdr.record_count(), 3);
        // Read out of order; each record matches the batch decode.
        let batch = ContainerFile::read(&path).expect("batch");
        for i in [2usize, 0, 1] {
            let r = rdr.read_record(i).expect("read");
            match (&r, &batch.records[i]) {
                (Record::PhaseSpace(a), Record::PhaseSpace(b)) => {
                    assert_eq!(a.as_slice(), b.as_slice());
                    assert_eq!(a.soffset, b.soffset);
                }
                (Record::SimState(a), Record::SimState(b)) => assert_eq!(a, b),
                (
                    Record::FieldMesh { name: a, field: f },
                    Record::FieldMesh { name: b, field: g },
                ) => {
                    assert_eq!((a, f.as_slice()), (b, g.as_slice()))
                }
                _ => panic!("kind mismatch at {i}"),
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_untouched_chunk_is_silent_corrupt_requested_chunk_is_reported() {
        let dir = scratch("corrupt");
        let path = write_container(&dir, 32);
        // Corrupt a data byte inside the *phase-space* record (record 1).
        let rdr = RankFileReader::open(&path).expect("open clean");
        let victim = rdr.entry(1).chunks[1].offset + 3;
        drop(rdr);
        crate::fault::flip_bit(&path, victim, 2).unwrap();

        let mut rdr = RankFileReader::open(&path).expect("structure still scans");
        // Records 0 and 2 do not touch the corrupted bytes: no error.
        rdr.read_record(0).expect("untouched record 0 reads clean");
        rdr.read_record(2).expect("untouched record 2 reads clean");
        // The corrupted record itself is rejected with a chunk CRC error.
        let err = rdr.read_record(1).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("CRC mismatch"), "{msg}");
        assert!(msg.contains("rank-0000.vck"), "{msg}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn peek_meta_reports_phase_space_shape_without_full_decode() {
        let dir = scratch("peek");
        // Chunk length 16: the phase-space meta spans several chunks.
        let path = write_container(&dir, 16);
        let rdr = RankFileReader::open(&path).expect("open");
        match rdr.peek_meta(1) {
            RecordMeta::PhaseSpace {
                sdims,
                soffset,
                sglobal,
                vn,
                vmax,
            } => {
                assert_eq!(sdims, [2, 3, 2]);
                assert_eq!(soffset, [4, 0, 0]);
                assert_eq!(sglobal, [8, 3, 2]);
                assert_eq!(vn, [2, 2, 4]);
                assert!((vmax - 1.5).abs() < 1e-15);
            }
            other => panic!("wrong meta {other:?}"),
        }
        match rdr.peek_meta(0) {
            RecordMeta::Other { kind } => assert_eq!(kind, "sim-state"),
            other => panic!("wrong meta {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn structural_damage_is_caught_at_open() {
        let dir = scratch("structure");
        let path = write_container(&dir, 32);
        let bytes = fs::read(&path).unwrap();
        // Blow up the first head chunk's length so the scan walks out of
        // bounds.
        let mut bad = bytes.clone();
        bad[HEADER_LEN + 2] = 0xFF;
        bad[HEADER_LEN + 3] = 0xFF;
        fs::write(&path, &bad).unwrap();
        assert!(RankFileReader::open(&path).is_err());
        // A flipped bit inside a head chunk is caught by that chunk's CRC.
        let mut bad = bytes.clone();
        bad[HEADER_LEN + 8 + 3] ^= 1;
        fs::write(&path, &bad).unwrap();
        let err = RankFileReader::open(&path).unwrap_err().to_string();
        assert!(err.contains("record head CRC mismatch"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
