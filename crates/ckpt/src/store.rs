//! The checkpoint store: generation directories, the collective write
//! protocol, restart with fallback, and rotation.
//!
//! Layout under the store root:
//!
//! ```text
//! <root>/gen-000001/rank-0000.vck
//!                   rank-0001.vck
//!                   MANIFEST.vckm      ← commit point
//! <root>/gen-000002/…
//! ```
//!
//! Writes are collective (every rank of the `mpisim` communicator calls
//! [`CheckpointStore::write_collective`] with its local records) and so are
//! loads; both end in agreement on every rank. Restart walks generations
//! newest-first, each rank validates its own file against the manifest, and
//! an `allreduce_min` of the per-rank verdicts decides — unanimously —
//! whether to resume from that generation or fall back to an older one.
//! Serial (non-distributed) drivers use [`CheckpointStore::write_serial`] /
//! [`CheckpointStore::load_serial`], which run the same protocol degenerated
//! to one rank.

use crate::access::RankFileReader;
use crate::codec::Encoding;
use crate::container::{Committed, ContainerFile, DEFAULT_CHUNK_LEN};
use crate::manifest::{Manifest, RankFile};
use crate::record::{Record, RecordRef};
use crate::CkptError;
use std::fs;
use std::path::{Path, PathBuf};
use vlasov6d_mpisim::Comm;
use vlasov6d_obs::MetricValue;

/// A checkpoint store rooted at one directory.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    root: PathBuf,
    chunk_len: usize,
}

/// Per-rank accounting of one checkpoint write.
#[derive(Debug, Clone, PartialEq)]
pub struct CkptStats {
    /// Generation that was committed.
    pub generation: u64,
    /// Step recorded in the manifest.
    pub step: u64,
    /// Payload bytes before encoding (this rank).
    pub raw_bytes: u64,
    /// Payload bytes after encoding (this rank).
    pub encoded_bytes: u64,
    /// Container file size on disk (this rank).
    pub file_bytes: u64,
    /// Seconds spent serialising, encoding and checksumming records
    /// (accumulated chunk by chunk).
    pub encode_secs: f64,
    /// Seconds spent committing the container (the chunk writes, then
    /// fsync + rename).
    pub write_secs: f64,
    /// Generations remaining in the store after rotation.
    pub generations_kept: usize,
}

impl CkptStats {
    /// This rank's statistics of committed generation `generation`.
    fn of(generation: u64, step: u64, file: Committed, generations_kept: usize) -> CkptStats {
        CkptStats {
            generation,
            step,
            raw_bytes: file.raw_bytes,
            encoded_bytes: file.encoded_bytes,
            file_bytes: file.bytes,
            encode_secs: file.encode_secs,
            write_secs: file.write_secs,
            generations_kept,
        }
    }

    /// Payload compression ratio, `raw / encoded` (1.0 when nothing was
    /// written).
    pub fn compression_ratio(&self) -> f64 {
        if self.encoded_bytes == 0 {
            1.0
        } else {
            self.raw_bytes as f64 / self.encoded_bytes as f64
        }
    }

    /// Metric pairs for merging into an obs step event
    /// (`ckpt/bytes_written`, `ckpt/compression_ratio`, …).
    pub fn metrics(&self) -> Vec<(String, MetricValue)> {
        use MetricValue::{Counter, Gauge};
        let metrics = [
            ("ckpt/bytes_written", Counter(self.file_bytes)),
            ("ckpt/raw_bytes", Counter(self.raw_bytes)),
            ("ckpt/compression_ratio", Gauge(self.compression_ratio())),
            ("ckpt/encode_secs", Gauge(self.encode_secs)),
            ("ckpt/write_secs", Gauge(self.write_secs)),
            (
                "ckpt/generations_kept",
                Counter(self.generations_kept as u64),
            ),
        ];
        metrics
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect()
    }
}

/// Everything restored from one validated generation, for one rank.
#[derive(Debug)]
pub struct LoadedCheckpoint {
    /// Generation the state came from.
    pub generation: u64,
    /// Completed step count at checkpoint time.
    pub step: u64,
    /// Scale factor bits at checkpoint time (manifest copy; the
    /// authoritative per-rank value lives in the `SimState` record).
    pub a_bits: u64,
    /// This rank's records, in write order.
    pub records: Vec<Record>,
}

impl CheckpointStore {
    /// A store rooted at `root` (created on first write).
    pub fn new(root: impl Into<PathBuf>) -> CheckpointStore {
        CheckpointStore {
            root: root.into(),
            chunk_len: DEFAULT_CHUNK_LEN,
        }
    }

    /// Override the container chunk size (tests use tiny chunks).
    pub fn with_chunk_len(mut self, chunk_len: usize) -> CheckpointStore {
        self.chunk_len = chunk_len;
        self
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Directory of generation `g`.
    pub fn gen_dir(&self, g: u64) -> PathBuf {
        self.root.join(format!("gen-{g:06}"))
    }

    /// Path of `rank`'s container in generation `g`.
    fn rank_path(&self, g: u64, rank: usize) -> PathBuf {
        self.gen_dir(g).join(Self::rank_file_name(rank))
    }

    /// Container file name for `rank`.
    pub fn rank_file_name(rank: usize) -> String {
        format!("rank-{rank:04}.vck")
    }

    /// All generation numbers present on disk, **sorted ascending**.
    ///
    /// Only *directories* whose name round-trips through the store's own
    /// `gen-NNNNNN` format count; stray files, oddly named directories
    /// (`gen-abc`, `gen-+3`, `notes/`) and anything else sharing the root
    /// are skipped. Both committed and uncommitted (manifest-less)
    /// generations are listed — the write path needs uncommitted ones to
    /// pick a fresh number; restart filters them out later. Use
    /// [`CheckpointStore::list_committed_generations`] for the read side.
    pub fn list_generations(&self) -> Vec<u64> {
        let mut gens = Vec::new();
        if let Ok(entries) = fs::read_dir(&self.root) {
            for entry in entries.flatten() {
                let is_dir = entry.file_type().map(|t| t.is_dir()).unwrap_or(false);
                if !is_dir {
                    continue;
                }
                let name = entry.file_name();
                let Some(g) = name
                    .to_str()
                    .and_then(|n| n.strip_prefix("gen-"))
                    .and_then(|n| n.parse::<u64>().ok())
                else {
                    continue;
                };
                // Strict round-trip: rejects signs, hex, stray zeros beyond
                // the fixed width — anything the store did not write itself.
                if name.to_str() == Some(format!("gen-{g:06}").as_str()) {
                    gens.push(g);
                }
            }
        }
        gens.sort_unstable();
        gens
    }

    /// Generation numbers that have a committed manifest, sorted ascending.
    ///
    /// This is the set a reader may serve from: a generation directory
    /// without `MANIFEST.vckm` is an uncommitted (or torn) write and does
    /// not exist as far as consumers are concerned.
    pub fn list_committed_generations(&self) -> Vec<u64> {
        self.list_generations()
            .into_iter()
            .filter(|&g| Manifest::load(&self.gen_dir(g)).is_ok())
            .collect()
    }

    /// Open `rank`'s container of generation `g` for random-access record
    /// reads (see [`crate::access::RankFileReader`]).
    ///
    /// Requires a committed manifest and checks the manifest's recorded file
    /// size (a cheap truncation guard); does *not* run the whole-file CRC —
    /// per-record chunk CRCs are verified lazily as records are read.
    pub fn open_rank(&self, g: u64, rank: usize) -> Result<RankFileReader, CkptError> {
        let (manifest, path, _) = self.rank_entry(g, rank, None)?;
        let reader = RankFileReader::open(&path)?;
        Self::check_header(reader.rank, reader.n_ranks, rank, manifest.n_ranks)?;
        Ok(reader)
    }

    /// Generation `g`'s manifest, `rank`'s container path and its manifest
    /// entry, once the manifest's world size is the `n_ranks` asked for and
    /// the file's size on disk is the one the manifest records.
    fn rank_entry(
        &self,
        g: u64,
        rank: usize,
        n_ranks: Option<usize>,
    ) -> Result<(Manifest, PathBuf, RankFile), CkptError> {
        let manifest = Manifest::load(&self.gen_dir(g))?;
        if let Some(n) = n_ranks.filter(|&n| n as u64 != manifest.n_ranks) {
            let detail = format!(
                "generation {g} was written by {} ranks, this run has {n}",
                manifest.n_ranks
            );
            return Err(CkptError::Mismatch { detail });
        }
        let name = Self::rank_file_name(rank);
        let Some(entry) = manifest.files.iter().find(|f| f.name == name).cloned() else {
            return Err(CkptError::Mismatch {
                detail: format!("generation {g} manifest has no entry for rank {rank}"),
            });
        };
        let path = self.rank_path(g, rank);
        let on_disk = fs::metadata(&path)
            .map_err(|e| CkptError::io(&path, &e))?
            .len();
        if on_disk != entry.bytes {
            let detail = format!("file is {on_disk} bytes, manifest recorded {}", entry.bytes);
            return Err(CkptError::format(on_disk.min(entry.bytes), detail).in_file(&path));
        }
        Ok((manifest, path, entry))
    }

    /// A container header must name the rank and world size it was opened as.
    fn check_header(rank: u32, n_ranks: u32, want: usize, want_n: u64) -> Result<(), CkptError> {
        if rank as usize == want && u64::from(n_ranks) == want_n {
            return Ok(());
        }
        Err(CkptError::Mismatch {
            detail: format!(
                "container header says rank {rank}/{n_ranks}, expected {want}/{want_n}"
            ),
        })
    }

    /// Collective checkpoint write; every rank passes its local `records`.
    ///
    /// Runs the two-phase commit from the crate docs and rotates old
    /// generations down to `keep`. Returns this rank's write statistics.
    /// Errors are collective: if any rank fails, every rank returns `Err`
    /// and no manifest is written (the half-written generation is invisible
    /// to restart and reaped by the next rotation).
    pub fn write_collective<'a, R>(
        &self,
        comm: &Comm,
        step: u64,
        a: f64,
        records: &'a [R],
        enc: Encoding,
        keep: usize,
    ) -> Result<CkptStats, CkptError>
    where
        &'a R: Into<RecordRef<'a>>,
    {
        // Rank 0 picks the generation number and creates its directory, so
        // every rank agrees and the mkdir cannot race.
        let generation = if comm.rank() == 0 {
            let g = self.list_generations().last().copied().unwrap_or(0) + 1;
            // Generation 0 is reserved to signal failure.
            let g = fs::create_dir_all(self.gen_dir(g)).map_or(0, |()| g);
            comm.broadcast(0, Some(g))
        } else {
            comm.broadcast::<u64>(0, None)
        };
        if generation == 0 {
            return Err(CkptError::Mismatch {
                detail: "rank 0 could not create the generation directory".to_string(),
            });
        }

        // Phase 1: every rank streams its records into its container.
        let (ranks, chunk_len) = ((comm.rank(), comm.size()), self.chunk_len);
        let path = self.rank_path(generation, ranks.0);
        let committed = ContainerFile::write(&path, ranks, chunk_len, records, enc);

        // Collective error agreement before anyone proceeds to phase 2.
        let all_ok = comm.allreduce_min(if committed.is_ok() { 1.0 } else { 0.0 }) > 0.5;
        if !all_ok {
            return Err(committed.err().unwrap_or(CkptError::Mismatch {
                detail: format!(
                    "a peer rank failed to commit its container for generation {generation}"
                ),
            }));
        }
        let file = committed.expect("checked above");

        // Phase 2: rank 0 gathers (size, crc) pairs and commits the manifest.
        let gathered = comm.gather(0, (file.bytes, file.crc));
        let manifest_ok = if comm.rank() == 0 {
            let files = gathered.expect("gather returns Some on root");
            let ok = self.commit_manifest(generation, step, a, files).is_ok();
            comm.broadcast(0, Some(u64::from(ok)))
        } else {
            comm.broadcast::<u64>(0, None)
        };
        if manifest_ok == 0 {
            return Err(CkptError::Mismatch {
                detail: format!("rank 0 could not commit the manifest of generation {generation}"),
            });
        }

        // Rotation, then a barrier so no caller resumes stepping while the
        // commit/rotation of this generation is still in flight elsewhere.
        let keep = keep.max(1);
        let generations_kept = if comm.rank() == 0 {
            self.rotate(keep)
        } else {
            keep
        };
        comm.barrier();
        Ok(CkptStats::of(generation, step, file, generations_kept))
    }

    /// Commit generation `g`'s manifest over the ranks' `(size, crc)` pairs.
    fn commit_manifest(
        &self,
        generation: u64,
        step: u64,
        a: f64,
        files: Vec<(u64, u32)>,
    ) -> Result<(), CkptError> {
        let n_ranks = files.len() as u64;
        let files = files.into_iter().enumerate();
        let files = files.map(|(rank, (bytes, crc))| RankFile {
            name: Self::rank_file_name(rank),
            bytes,
            crc,
        });
        Manifest {
            generation,
            step,
            a_bits: a.to_bits(),
            n_ranks,
            files: files.collect(),
        }
        .commit(&self.gen_dir(generation))
    }

    /// Collective restart: walk generations newest-first; all ranks agree
    /// (via `allreduce_min`) on the newest generation that validates
    /// everywhere, and each rank returns its own records from it.
    pub fn load_collective(&self, comm: &Comm) -> Result<LoadedCheckpoint, CkptError> {
        // Rank 0 lists so every rank walks the identical sequence.
        let mut gens = if comm.rank() == 0 {
            comm.broadcast(0, Some(self.list_generations()))
        } else {
            comm.broadcast::<Vec<u64>>(0, None)
        };
        gens.reverse();
        let mut failures: Vec<String> = Vec::new();
        for g in gens {
            let attempt = self.validate_and_read(g, comm.rank(), comm.size());
            let all_ok = comm.allreduce_min(if attempt.is_ok() { 1.0 } else { 0.0 }) > 0.5;
            match (all_ok, attempt) {
                (true, Ok(loaded)) => return Ok(loaded),
                (true, Err(_)) => unreachable!("allreduce said ok but local validation failed"),
                (false, Err(e)) => failures.push(format!("gen-{g:06}: {e}")),
                (false, Ok(_)) => {
                    failures.push(format!("gen-{g:06}: rejected by a peer rank"));
                }
            }
        }
        Err(self.no_valid_generation(failures))
    }

    fn no_valid_generation(&self, failures: Vec<String>) -> CkptError {
        CkptError::NoValidGeneration {
            dir: self.root.clone(),
            detail: if failures.is_empty() {
                "store holds no generations".to_string()
            } else {
                failures.join("; ")
            },
        }
    }

    /// Serial checkpoint write (one implicit rank, no communicator).
    pub fn write_serial<'a, R>(
        &self,
        step: u64,
        a: f64,
        records: &'a [R],
        enc: Encoding,
        keep: usize,
    ) -> Result<CkptStats, CkptError>
    where
        &'a R: Into<RecordRef<'a>>,
    {
        let generation = self.list_generations().last().copied().unwrap_or(0) + 1;
        let gen_dir = self.gen_dir(generation);
        fs::create_dir_all(&gen_dir).map_err(|e| CkptError::io(&gen_dir, &e))?;
        let path = self.rank_path(generation, 0);
        let file = ContainerFile::write(&path, (0, 1), self.chunk_len, records, enc)?;
        self.commit_manifest(generation, step, a, vec![(file.bytes, file.crc)])?;
        let generations_kept = self.rotate(keep.max(1));
        Ok(CkptStats::of(generation, step, file, generations_kept))
    }

    /// Serial restart with the same newest-intact-generation fallback as
    /// [`CheckpointStore::load_collective`].
    pub fn load_serial(&self) -> Result<LoadedCheckpoint, CkptError> {
        let mut failures: Vec<String> = Vec::new();
        for g in self.list_generations().into_iter().rev() {
            match self.validate_and_read(g, 0, 1) {
                Ok(loaded) => return Ok(loaded),
                Err(e) => failures.push(format!("gen-{g:06}: {e}")),
            }
        }
        Err(self.no_valid_generation(failures))
    }

    /// Validate generation `g` from `rank`'s perspective and read its
    /// records. Checks, in order: manifest integrity, world-size agreement,
    /// the manifest's size for this rank's file, then — in one streaming
    /// pass over the file — the container's chunk CRCs, record decoding and
    /// trailer, and last the manifest's CRC. No record is handed out before
    /// every check has passed.
    fn validate_and_read(
        &self,
        g: u64,
        rank: usize,
        n_ranks: usize,
    ) -> Result<LoadedCheckpoint, CkptError> {
        let (manifest, path, entry) = self.rank_entry(g, rank, Some(n_ranks))?;
        let container = ContainerFile::read(&path)?;
        if container.crc != entry.crc {
            let (got, want) = (container.crc, entry.crc);
            let detail =
                format!("whole-file CRC {got:#010x} differs from the manifest's {want:#010x}");
            return Err(CkptError::format(0, detail).in_file(&path));
        }
        Self::check_header(container.rank, container.n_ranks, rank, manifest.n_ranks)?;
        Ok(LoadedCheckpoint {
            generation: g,
            step: manifest.step,
            a_bits: manifest.a_bits,
            records: container.records,
        })
    }

    /// Delete the oldest generations beyond the newest `keep`; returns how
    /// many remain.
    fn rotate(&self, keep: usize) -> usize {
        let gens = self.list_generations();
        let n = gens.len();
        if n <= keep {
            return n;
        }
        let mut kept = n;
        for &g in &gens[..n - keep] {
            if fs::remove_dir_all(self.gen_dir(g)).is_ok() {
                kept -= 1;
            }
        }
        kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::SimState;
    use vlasov6d_mpisim::Universe;
    use vlasov6d_phase_space::{PhaseSpace, VelocityGrid};

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vck-store-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn rank_records(rank: usize) -> Vec<Record> {
        let mut ps = PhaseSpace::zeros_block(
            [2, 2, 2],
            [2 * rank, 0, 0],
            [4, 2, 2],
            VelocityGrid::cubic(2, 1.0),
        );
        for (i, v) in ps.as_mut_slice().iter_mut().enumerate() {
            *v = (rank * 1000 + i) as f32;
        }
        vec![
            Record::PhaseSpace(ps),
            Record::SimState(SimState {
                step: 5,
                tag_counter: 7,
                a: 0.02,
                omega_component: 0.3,
                cfl_spatial: 0.4,
                max_dln_a: 0.01,
                scheme: 2,
                rng: vec![],
            }),
        ]
    }

    #[test]
    fn collective_write_then_load_roundtrips() {
        let root = scratch("roundtrip");
        let store = CheckpointStore::new(&root).with_chunk_len(64);
        let s2 = store.clone();
        let out = Universe::run(2, move |c| {
            let stats = s2
                .write_collective(c, 5, 0.02, &rank_records(c.rank()), Encoding::ShuffleRle, 2)
                .expect("write");
            let loaded = s2.load_collective(c).expect("load");
            (stats, loaded.generation, loaded.step, loaded.records.len())
        });
        for (rank, (stats, generation, step, n_records)) in out.iter().enumerate() {
            assert_eq!(stats.generation, 1);
            assert_eq!(*generation, 1);
            assert_eq!(*step, 5);
            assert_eq!(*n_records, 2);
            assert!(stats.file_bytes > 0, "rank {rank} wrote nothing");
        }
        let manifest = Manifest::load(&store.gen_dir(1)).expect("manifest");
        assert_eq!(manifest.files.len(), 2);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn list_generations_is_sorted_and_skips_junk_entries() {
        let root = scratch("listgen");
        let store = CheckpointStore::new(&root).with_chunk_len(64);
        // Create real generations out of order.
        for step in [30u64, 10, 20] {
            store
                .write_serial(step, 0.01, &rank_records(0), Encoding::Raw, 8)
                .expect("write");
        }
        // Junk that must all be invisible: non-generation directories, a
        // *file* named like a generation, malformed and non-canonical names.
        fs::create_dir_all(root.join("notes")).unwrap();
        fs::create_dir_all(root.join("gen-abc")).unwrap();
        fs::create_dir_all(root.join("gen-12")).unwrap(); // not zero-padded
        fs::create_dir_all(root.join("gen-+00007")).unwrap(); // parses, not canonical
        fs::write(root.join("gen-000009"), b"a file, not a directory").unwrap();
        fs::write(root.join("README"), b"scratch").unwrap();
        assert_eq!(store.list_generations(), vec![1, 2, 3]);
        assert_eq!(store.list_committed_generations(), vec![1, 2, 3]);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn list_committed_generations_drops_uncommitted_ones() {
        let root = scratch("listcommit");
        let store = CheckpointStore::new(&root).with_chunk_len(64);
        store
            .write_serial(1, 0.01, &rank_records(0), Encoding::Raw, 2)
            .expect("write");
        store
            .write_serial(2, 0.01, &rank_records(0), Encoding::Raw, 2)
            .expect("write");
        // Simulate a crash between data write and manifest commit.
        fs::remove_file(store.gen_dir(2).join(crate::manifest::MANIFEST_NAME)).unwrap();
        assert_eq!(store.list_generations(), vec![1, 2]);
        assert_eq!(store.list_committed_generations(), vec![1]);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn open_rank_reads_records_without_whole_file_decode() {
        let root = scratch("openrank");
        let store = CheckpointStore::new(&root).with_chunk_len(64);
        let s2 = store.clone();
        Universe::run(2, move |c| {
            s2.write_collective(c, 5, 0.02, &rank_records(c.rank()), Encoding::ShuffleRle, 2)
                .expect("write");
        });
        for rank in 0..2usize {
            let mut rdr = store.open_rank(1, rank).expect("open");
            assert_eq!(rdr.rank, rank as u32);
            assert_eq!(rdr.n_ranks, 2);
            assert_eq!(rdr.record_count(), 2);
            match rdr.read_record(0).expect("read") {
                Record::PhaseSpace(ps) => {
                    assert_eq!(ps.soffset, [2 * rank, 0, 0]);
                    assert_eq!(ps.as_slice()[0], (rank * 1000) as f32);
                }
                other => panic!("unexpected record {}", other.kind_name()),
            }
        }
        // A rank outside the manifest is an error, not a panic.
        assert!(store.open_rank(1, 7).is_err());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn rotation_keeps_the_newest_generations() {
        let root = scratch("rotate");
        let store = CheckpointStore::new(&root).with_chunk_len(64);
        for step in 1..=5u64 {
            store
                .write_serial(step, 0.01, &rank_records(0), Encoding::Raw, 2)
                .expect("write");
        }
        assert_eq!(store.list_generations(), vec![4, 5]);
        let loaded = store.load_serial().expect("load");
        assert_eq!(loaded.generation, 5);
        assert_eq!(loaded.step, 5);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corrupted_newest_generation_falls_back_to_previous() {
        let root = scratch("fallback");
        let store = CheckpointStore::new(&root).with_chunk_len(64);
        store
            .write_serial(3, 0.01, &rank_records(0), Encoding::ShuffleRle, 3)
            .unwrap();
        store
            .write_serial(6, 0.02, &rank_records(0), Encoding::ShuffleRle, 3)
            .unwrap();
        // Flip a bit in the middle of generation 2's rank file.
        let victim = store.gen_dir(2).join(CheckpointStore::rank_file_name(0));
        let len = fs::metadata(&victim).unwrap().len();
        crate::fault::flip_bit(&victim, len / 2, 4).unwrap();
        let loaded = store.load_serial().expect("fallback load");
        assert_eq!(loaded.generation, 1);
        assert_eq!(loaded.step, 3);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn generation_without_manifest_is_invisible() {
        let root = scratch("no-manifest");
        let store = CheckpointStore::new(&root).with_chunk_len(64);
        store
            .write_serial(3, 0.01, &rank_records(0), Encoding::Raw, 3)
            .unwrap();
        // Simulate a crash after phase 1 of generation 2: rank file exists,
        // manifest never written.
        let gen2 = store.gen_dir(2);
        fs::create_dir_all(&gen2).unwrap();
        fs::copy(
            store.gen_dir(1).join(CheckpointStore::rank_file_name(0)),
            gen2.join(CheckpointStore::rank_file_name(0)),
        )
        .unwrap();
        let loaded = store.load_serial().expect("load");
        assert_eq!(
            loaded.generation, 1,
            "uncommitted generation must be skipped"
        );
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn truncated_file_is_detected_via_manifest_size() {
        let root = scratch("truncate");
        let store = CheckpointStore::new(&root).with_chunk_len(64);
        store
            .write_serial(3, 0.01, &rank_records(0), Encoding::Raw, 3)
            .unwrap();
        let victim = store.gen_dir(1).join(CheckpointStore::rank_file_name(0));
        crate::fault::truncate_tail(&victim, 5).unwrap();
        let err = store.load_serial().unwrap_err();
        assert!(matches!(err, CkptError::NoValidGeneration { .. }), "{err}");
        assert!(err.to_string().contains("bytes"), "{err}");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn world_size_mismatch_is_rejected() {
        let root = scratch("world-size");
        let store = CheckpointStore::new(&root).with_chunk_len(64);
        store
            .write_serial(3, 0.01, &rank_records(0), Encoding::Raw, 3)
            .unwrap();
        let s2 = store.clone();
        let out = Universe::run(2, move |c| s2.load_collective(c).is_err());
        assert_eq!(out, vec![true, true]);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn stats_report_compression_and_metrics() {
        let root = scratch("stats");
        let store = CheckpointStore::new(&root);
        // Smooth data compresses well.
        let mut ps = PhaseSpace::zeros([4, 4, 4], VelocityGrid::cubic(4, 1.0));
        for (i, v) in ps.as_mut_slice().iter_mut().enumerate() {
            *v = 1.0 + 1e-3 * (i as f32 * 0.01).sin();
        }
        let stats = store
            .write_serial(1, 0.01, &[Record::PhaseSpace(ps)], Encoding::ShuffleRle, 2)
            .unwrap();
        assert!(
            stats.compression_ratio() > 1.5,
            "{}",
            stats.compression_ratio()
        );
        let metrics = stats.metrics();
        assert!(metrics.iter().any(|(k, _)| k == "ckpt/bytes_written"));
        assert!(metrics.iter().any(|(k, _)| k == "ckpt/compression_ratio"));
        fs::remove_dir_all(&root).unwrap();
    }
}
