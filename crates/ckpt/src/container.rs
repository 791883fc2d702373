//! The chunked per-rank container file (`rank-NNNN.vck`).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! header    magic "VLA6CKPT" | version u32 | rank u32 | n_ranks u32
//!           | crc32 u32 of the 20 bytes before it                 (24 bytes)
//! records   for each record, chunks framed as  len u32 | crc32 u32 | data[len]:
//!             one head chunk (kind, encoding, shape, raw_len, chunk_raw)
//!             ceil(raw_len / chunk_raw) payload chunks, each encoded on its own
//! trailer   magic "VCK2END\0" | record_count u32
//!           | crc32 u32 of every preceding byte                   (16 bytes)
//! ```
//!
//! Nothing in the file describes bytes that follow it by a quantity known
//! only after they were produced, so a container is written in one forward
//! pass from chunk-sized buffers and read back the same way: a record's
//! payload is serialised, encoded and checksummed one chunk at a time out of
//! the simulation's storage, and decoded one chunk at a time into the
//! destination record's. See [`crate::record`] for what the head chunk holds.
//!
//! Integrity is layered, and each byte is checksummed **once**: a chunk's
//! CRC covers its data and localises damage to a ~chunk-sized byte range so
//! the error message can say *where*; the header carries its own CRC; the
//! whole-file CRC in the trailer (and the one the manifest records, which
//! also covers the trailer's last four bytes) is folded from the chunk CRCs
//! with [`crate::crc::crc32_combine`] plus a direct pass over the few framing
//! bytes between chunks — the value a sequential pass over the file yields.
//! The reader validates in file order — header, then per record the head
//! chunk (CRC, shape, `raw_len` against the shape and against what the rest
//! of the file could expand to, all before the destination is allocated) and
//! each payload chunk as it is decoded, then the trailer's magic, record
//! count and whole-file CRC — and hands out no record before the last check.
//!
//! Durability: [`ContainerFile::write`] streams into `<path>.tmp`, fsyncs
//! it, renames it over `<path>`, then fsyncs the parent directory. A crash at
//! any point leaves either the old file, no file, or a `.tmp` that readers
//! never look at — a committed container is never torn.

use crate::access::ChunkEntry;
use crate::codec::{self, Encoding};
use crate::crc::{crc32, Crc32};
use crate::record::{Head, Record, RecordRef, HEAD_MAX_LEN};
use crate::{corrupt, CkptError};
use rayon::prelude::*;
use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use vlasov6d_obs::Stopwatch;

/// First bytes of every container file.
pub const MAGIC: [u8; 8] = *b"VLA6CKPT";
/// Marks the start of the trailer.
pub const TRAILER_MAGIC: [u8; 8] = *b"VCK2END\0";
/// Container format version this build reads and writes.
pub const VERSION: u32 = 2;
/// Default chunk size: large enough to amortise the 8-byte chunk header,
/// small enough to localise corruption reports and to bound the writer's
/// and reader's buffers.
pub const DEFAULT_CHUNK_LEN: usize = 4 << 20;

/// Fixed container header length in bytes.
pub const HEADER_LEN: usize = 24;
/// Fixed trailer length in bytes.
pub const TRAILER_LEN: usize = 16;

/// What a finished container reports to the store.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Committed {
    /// File size in bytes.
    pub bytes: u64,
    /// CRC-32 of the whole file, as the generation manifest records it.
    pub crc: u32,
    /// Payload bytes before encoding, over all records.
    pub raw_bytes: u64,
    /// Payload bytes after encoding, over all records.
    pub encoded_bytes: u64,
    /// Seconds spent serialising, encoding and checksumming records.
    pub encode_secs: f64,
    /// Seconds spent writing, fsyncing and renaming.
    pub write_secs: f64,
}

/// One in-flight chunk of a writer's window: serialised values and byte
/// planes (`ShuffleRle` only), the bytes that go to the file, their CRC.
#[derive(Default)]
struct Slot {
    raw: Vec<u8>,
    planes: Vec<u8>,
    out: Vec<u8>,
    crc: u32,
}

/// Serialises records as chunk frames into any sink in one forward pass,
/// keeping the running CRC and the accounting of everything written.
pub(crate) struct FrameWriter<W> {
    pub(crate) sink: W,
    chunk_len: usize,
    crc: Crc32,
    /// `bytes` is the length so far, `crc` is filled in by the trailer.
    pub(crate) done: Committed,
    /// Reused chunk buffers of one window, a slot per pool thread.
    slots: Vec<Slot>,
}

impl<W: Write> FrameWriter<W> {
    pub(crate) fn new(sink: W, chunk_len: usize) -> FrameWriter<W> {
        assert!(
            (1..=1 << 30).contains(&chunk_len),
            "chunk length out of range"
        );
        FrameWriter {
            sink,
            chunk_len,
            crc: Crc32::new(),
            done: Committed::default(),
            slots: Vec::new(),
        }
    }

    /// Write framing bytes that belong to no chunk, checksumming them here.
    fn plain(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.crc.update(bytes);
        self.done.bytes += bytes.len() as u64;
        self.sink.write_all(bytes)
    }

    /// Write one chunk whose data CRC the caller has already computed; the
    /// file CRC takes the data in through that CRC, not a second pass.
    fn chunk(&mut self, data: &[u8], crc: u32, watch: &mut Stopwatch) -> io::Result<()> {
        let mut frame = [0u8; 8];
        frame[..4].copy_from_slice(&(data.len() as u32).to_le_bytes());
        frame[4..].copy_from_slice(&crc.to_le_bytes());
        self.crc.update(&frame);
        self.crc.append(crc, data.len() as u64);
        self.done.bytes += (frame.len() + data.len()) as u64;
        self.done.encode_secs += watch.elapsed_secs();
        watch.restart();
        self.sink.write_all(&frame)?;
        self.sink.write_all(data)?;
        self.done.write_secs += watch.elapsed_secs();
        watch.restart();
        Ok(())
    }

    /// Append one record.
    pub(crate) fn record(&mut self, rec: RecordRef<'_>, enc: Encoding) -> io::Result<()> {
        let mut watch = Stopwatch::start();
        let word = rec.kind_word().1;
        let small = rec.small_payload();
        let raw_len = rec.raw_len(&small);
        // Whole words per chunk, so every chunk encodes and decodes alone.
        let chunk_raw = (self.chunk_len / word).max(1) * word;
        let head = rec.head(enc, raw_len, chunk_raw);
        self.chunk(&head, crc32(&head), &mut watch)?;

        // A window of chunks is serialised, encoded and checksummed on the
        // pool, then written in file order: the bytes do not depend on the
        // thread count.
        let mut slots = std::mem::take(&mut self.slots);
        slots.resize_with(rayon::current_num_threads(), Slot::default);
        let offsets: Vec<usize> = (0..raw_len).step_by(chunk_raw).collect();
        for window in offsets.chunks(slots.len()) {
            let tasks = slots.par_iter_mut().zip(window.par_iter());
            tasks.for_each(|(slot, &off)| {
                let n = chunk_raw.min(raw_len - off);
                if enc == Encoding::Raw {
                    slot.out.resize(n, 0);
                    rec.fill(&small, off, &mut slot.out);
                } else {
                    slot.raw.resize(n, 0);
                    rec.fill(&small, off, &mut slot.raw);
                    codec::shuffle_rle_into(word, &slot.raw, &mut slot.planes, &mut slot.out);
                }
                slot.crc = crc32(&slot.out);
            });
            for slot in &slots[..window.len()] {
                self.done.encoded_bytes += slot.out.len() as u64;
                self.chunk(&slot.out, slot.crc, &mut watch)?;
            }
        }
        self.slots = slots;
        self.done.raw_bytes += raw_len as u64;
        Ok(())
    }

    /// A whole container for `rank` of `n_ranks`: header, `records`, trailer
    /// (magic, record count, CRC of every byte before it).
    fn container<'a, R>(
        &mut self,
        rank: usize,
        n_ranks: usize,
        records: &'a [R],
        enc: Encoding,
    ) -> io::Result<Committed>
    where
        &'a R: Into<RecordRef<'a>>,
    {
        let mut header = [0u8; HEADER_LEN];
        header[..8].copy_from_slice(&MAGIC);
        header[8..12].copy_from_slice(&VERSION.to_le_bytes());
        header[12..16].copy_from_slice(&(rank as u32).to_le_bytes());
        header[16..20].copy_from_slice(&(n_ranks as u32).to_le_bytes());
        let crc = crc32(&header[..20]);
        header[20..].copy_from_slice(&crc.to_le_bytes());
        self.plain(&header)?;
        for r in records {
            self.record(r.into(), enc)?;
        }
        self.plain(&TRAILER_MAGIC)?;
        self.plain(&(records.len() as u32).to_le_bytes())?;
        self.plain(&self.crc.finish().to_le_bytes())?;
        self.done.crc = self.crc.finish();
        Ok(self.done)
    }
}

/// Write `data` to `path` through a temp file: the destination either keeps
/// its old contents or atomically gains the new ones, never a prefix.
pub fn atomic_write(path: &Path, data: &[u8]) -> Result<(), CkptError> {
    let tmp = tmp_path(path);
    let mut f = fs::File::create(&tmp).map_err(|e| CkptError::io(&tmp, &e))?;
    f.write_all(data).map_err(|e| CkptError::io(&tmp, &e))?;
    commit_tmp(f, &tmp, path)
}

/// Make the fully written temp file durable and rename it into place.
fn commit_tmp(f: fs::File, tmp: &Path, path: &Path) -> Result<(), CkptError> {
    f.sync_all().map_err(|e| CkptError::io(tmp, &e))?;
    drop(f);
    fs::rename(tmp, path).map_err(|e| CkptError::io(path, &e))?;
    if let Some(dir) = path.parent() {
        // Persist the rename itself; without this a crash can roll the
        // directory entry back even though the data blocks are safe.
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Walks chunk frames front to back over any `Read`, verifying as it goes
/// and decoding through reused chunk-sized buffers. One walker serves the
/// validating batch read, [`Record::decode`] and (seeking past payloads) the
/// random-access reader.
#[derive(Debug)]
pub(crate) struct FrameWalker<R> {
    src: R,
    /// Offset of the next unread byte.
    pub(crate) pos: u64,
    /// End of the record area (where the trailer starts, if there is one).
    limit: u64,
    /// Total length of the source.
    end: u64,
    /// Running CRC of every byte read; meaningless once a payload was skipped.
    crc: Crc32,
    skipped: bool,
    /// The current chunk's data, then decode scratch (planes, raw values).
    buf: Vec<u8>,
    scratch: [Vec<u8>; 2],
}

impl<R: Read> FrameWalker<R> {
    /// Walk `end` bytes of `src`, the last `trailer` of them a trailer (none
    /// for a bare record frame).
    pub(crate) fn new(src: R, end: u64, trailer: u64) -> Self {
        FrameWalker {
            src,
            pos: 0,
            limit: end - trailer,
            end,
            crc: Crc32::new(),
            skipped: false,
            buf: Vec::new(),
            scratch: Default::default(),
        }
    }

    /// Start on a container of `len` bytes: validates the header and
    /// returns the walker with the header's `(rank, n_ranks)`.
    pub(crate) fn container(src: R, len: u64) -> Result<(Self, u32, u32), CkptError> {
        if len < (HEADER_LEN + TRAILER_LEN) as u64 {
            return corrupt(len, format!("container is {len} bytes (truncated?)"));
        }
        let mut w = Self::new(src, len, TRAILER_LEN as u64);
        let header: [u8; HEADER_LEN] = w.plain("container header")?;
        let word = |i: usize| u32::from_le_bytes(header[i..i + 4].try_into().expect("4 bytes"));
        if header[..8] != MAGIC {
            return corrupt(0, "bad container magic");
        }
        if word(8) != VERSION {
            let detail = format!("container version {}, this build reads {VERSION}", word(8));
            return corrupt(8, detail);
        }
        if word(20) != crc32(&header[..20]) {
            return corrupt(20, "container header CRC mismatch");
        }
        Ok((w, word(12), word(16)))
    }

    /// Read `N` framing bytes.
    fn plain<const N: usize>(&mut self, what: &str) -> Result<[u8; N], CkptError> {
        if self.pos + N as u64 > self.end {
            return corrupt(self.pos, format!("truncated while reading {what}"));
        }
        let mut bytes = [0u8; N];
        self.read(&mut bytes, what)?;
        self.crc.update(&bytes);
        Ok(bytes)
    }

    fn read(&mut self, bytes: &mut [u8], what: &str) -> Result<(), CkptError> {
        let read = self.src.read_exact(bytes);
        read.map_err(|e| CkptError::format(self.pos, format!("reading {what} failed: {e}")))?;
        self.pos += bytes.len() as u64;
        Ok(())
    }

    /// A chunk frame's `(data length, stored CRC)`, bounds-checked.
    fn frame(&mut self, max_len: usize, what: &str) -> Result<(usize, u32), CkptError> {
        let frame: [u8; 8] = self.plain(what)?;
        let len = u32::from_le_bytes(frame[..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(frame[4..].try_into().expect("4 bytes"));
        if len > max_len || self.pos + len as u64 > self.limit {
            let detail = format!("{what} of {len} bytes: its record allows {max_len}, or it runs past the record area");
            return corrupt(self.pos - 8, detail);
        }
        Ok((len, crc))
    }

    /// Read one chunk into `self.buf` and verify its CRC — the only pass
    /// over its bytes; the file CRC takes them in through the chunk's.
    fn chunk(&mut self, max_len: usize, what: &str) -> Result<(), CkptError> {
        let (len, stored) = self.frame(max_len, what)?;
        let mut buf = std::mem::take(&mut self.buf);
        buf.resize(len, 0);
        let read = self.read(&mut buf, what);
        self.buf = buf;
        read?;
        let actual = crc32(&self.buf);
        if actual != stored {
            let detail =
                format!("{what} CRC mismatch: stored {stored:#010x}, computed {actual:#010x}");
            return corrupt(self.pos - len as u64, detail);
        }
        self.crc.append(actual, len as u64);
        Ok(())
    }

    /// Has the walk reached the end of the record area?
    pub(crate) fn at_trailer(&self) -> bool {
        self.pos >= self.limit
    }

    /// Read and check the next record's head chunk. Nothing has been
    /// allocated for the record when this returns an error: the head's
    /// `raw_len` must fit both its shape and the bytes the file has left.
    pub(crate) fn head(&mut self) -> Result<Head, CkptError> {
        let at = self.pos;
        self.chunk(HEAD_MAX_LEN, "record head")?;
        let head = Head::parse(&self.buf).map_err(|e| e.at_base(at + 8))?;
        let left = self.limit - self.pos;
        if head.raw_len as u128 > u128::from(left) * head.enc.max_expansion() as u128 {
            let detail = format!(
                "a {}-byte payload cannot come from {left} bytes",
                head.raw_len
            );
            return corrupt(at, detail);
        }
        Ok(head)
    }

    /// Decode the payload chunks that follow `head` into a fresh record.
    pub(crate) fn payload(&mut self, head: &Head) -> Result<Record, CkptError> {
        let start = self.pos;
        let mut dest = head.destination();
        for off in (0..head.raw_len).step_by(head.chunk_raw) {
            let n = head.chunk_raw.min(head.raw_len - off);
            let at = self.pos + 8;
            self.chunk(codec::max_encoded_len(head.enc, n), "payload chunk")?;
            let raw = match head.enc {
                Encoding::Raw if self.buf.len() == n => &self.buf,
                Encoding::Raw => return corrupt(at, format!("raw chunk is not {n} bytes")),
                Encoding::ShuffleRle => {
                    let [planes, raw] = &mut self.scratch;
                    let decoded = codec::unshuffle_rle_into(head.word, &self.buf, n, planes, raw);
                    decoded.map_err(|e| e.at_base(at))?;
                    &*raw
                }
            };
            dest.absorb(off, raw);
        }
        dest.finish().map_err(|e| e.at_base(start))
    }

    /// Read and verify the trailer after `n_records` records; returns the
    /// CRC-32 of the whole file.
    pub(crate) fn trailer(&mut self, n_records: u32) -> Result<u32, CkptError> {
        let at = self.pos;
        let magic: [u8; 8] = self.plain("trailer magic")?;
        if magic != TRAILER_MAGIC {
            return corrupt(at, "trailer magic missing (file truncated or overwritten)");
        }
        let count = u32::from_le_bytes(self.plain("record count")?);
        if count != n_records {
            let detail = format!("trailer counts {count} records, the file holds {n_records}");
            return corrupt(at + 8, detail);
        }
        let computed = self.crc.finish();
        let stored = u32::from_le_bytes(self.plain("whole-file CRC")?);
        if !self.skipped && stored != computed {
            let detail = format!(
                "whole-file CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
            );
            return corrupt(at + 12, detail);
        }
        self.end("the trailer")?;
        Ok(self.crc.finish())
    }

    /// Fail unless every byte of the source has been consumed.
    pub(crate) fn end(&self, after: &str) -> Result<(), CkptError> {
        if self.pos == self.end {
            return Ok(());
        }
        let detail = format!("{} trailing bytes after {after}", self.end - self.pos);
        corrupt(self.pos, detail)
    }
}

impl<R: Read + Seek> FrameWalker<R> {
    /// Continue the walk at `pos`.
    pub(crate) fn seek(&mut self, pos: u64) -> Result<(), CkptError> {
        let sought = self.src.seek(SeekFrom::Start(pos));
        sought.map_err(|e| CkptError::format(pos, format!("seek failed: {e}")))?;
        self.pos = pos;
        Ok(())
    }

    /// Index the payload chunks that follow `head`, seeking over their data.
    pub(crate) fn skip_payload(&mut self, head: &Head) -> Result<Vec<ChunkEntry>, CkptError> {
        self.skipped = true;
        let mut chunks = Vec::new();
        for off in (0..head.raw_len).step_by(head.chunk_raw) {
            let n = head.chunk_raw.min(head.raw_len - off);
            let (len, crc) = self.frame(codec::max_encoded_len(head.enc, n), "payload chunk")?;
            let (offset, len) = (self.pos, len as u32);
            chunks.push(ChunkEntry { offset, len, crc });
            self.seek(offset + u64::from(len))?;
        }
        Ok(chunks)
    }
}

/// A fully validated, decoded container.
#[derive(Debug)]
pub struct ContainerFile {
    /// Rank that wrote the file.
    pub rank: u32,
    /// World size at write time.
    pub n_ranks: u32,
    /// Decoded records in write order.
    pub records: Vec<Record>,
    /// CRC-32 of the whole file (what the generation manifest records),
    /// folded from the chunk CRCs during the one validating pass.
    pub crc: u32,
}

impl ContainerFile {
    /// Stream `records` into `<path>.tmp` in one forward pass from
    /// chunk-sized buffers, then commit it to `path` atomically (fsync →
    /// rename → fsync dir). The report's size and whole-file CRC are what the
    /// store records in the generation manifest.
    pub fn write<'a, R>(
        path: &Path,
        (rank, n_ranks): (usize, usize),
        chunk_len: usize,
        records: &'a [R],
        enc: Encoding,
    ) -> Result<Committed, CkptError>
    where
        &'a R: Into<RecordRef<'a>>,
    {
        let tmp = tmp_path(path);
        let io = |e: io::Error| CkptError::io(&tmp, &e);
        let mut w = FrameWriter::new(fs::File::create(&tmp).map_err(io)?, chunk_len);
        let mut done = w.container(rank, n_ranks, records, enc).map_err(io)?;
        let watch = Stopwatch::start();
        commit_tmp(w.sink, &tmp, path)?;
        done.write_secs += watch.elapsed_secs();
        Ok(done)
    }

    /// The container [`ContainerFile::write`] would commit, as an in-memory
    /// image (tests, tooling).
    pub fn image(
        (rank, n_ranks): (usize, usize),
        chunk_len: usize,
        records: &[Record],
        enc: Encoding,
    ) -> Vec<u8> {
        let mut w = FrameWriter::new(Vec::new(), chunk_len);
        let written = w.container(rank, n_ranks, records, enc);
        written.expect("writing to a Vec cannot fail");
        w.sink
    }

    /// Read and validate `path` in one streaming pass (see the module docs
    /// for the order of checks). Any failure reports the file and a byte
    /// offset.
    pub fn read(path: &Path) -> Result<ContainerFile, CkptError> {
        let file = fs::File::open(path).map_err(|e| CkptError::io(path, &e))?;
        let len = file.metadata().map_err(|e| CkptError::io(path, &e))?.len();
        Self::walk(file, len).map_err(|e| e.in_file(path))
    }

    /// Validate and decode an in-memory container image.
    pub fn parse(bytes: &[u8]) -> Result<ContainerFile, CkptError> {
        Self::walk(bytes, bytes.len() as u64)
    }

    fn walk<R: Read>(src: R, len: u64) -> Result<ContainerFile, CkptError> {
        let (mut w, rank, n_ranks) = FrameWalker::container(src, len)?;
        let mut records = Vec::new();
        while !w.at_trailer() {
            let head = w.head()?;
            records.push(w.payload(&head)?);
        }
        let crc = w.trailer(records.len() as u32)?;
        Ok(ContainerFile {
            rank,
            n_ranks,
            records,
            crc,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::SimState;
    use vlasov6d_phase_space::{PhaseSpace, VelocityGrid};

    fn sample_records() -> Vec<Record> {
        let mut ps = PhaseSpace::zeros([2, 2, 2], VelocityGrid::cubic(2, 1.0));
        for (i, v) in ps.as_mut_slice().iter_mut().enumerate() {
            *v = i as f32 * 0.5 - 3.0;
        }
        vec![
            Record::PhaseSpace(ps),
            Record::SimState(SimState {
                step: 3,
                tag_counter: 17,
                a: 0.02,
                omega_component: 0.3,
                cfl_spatial: 0.4,
                max_dln_a: 0.01,
                scheme: 1,
                rng: vec![1, 2, 3],
            }),
            Record::RunReport {
                lines: vec!["{\"a\":1}".into()],
            },
        ]
    }

    fn build(chunk_len: usize) -> Vec<u8> {
        ContainerFile::image((1, 2), chunk_len, &sample_records(), Encoding::ShuffleRle)
    }

    #[test]
    fn roundtrip_across_chunk_sizes() {
        for chunk_len in [7, 64, DEFAULT_CHUNK_LEN] {
            let bytes = build(chunk_len);
            let c = ContainerFile::parse(&bytes).expect("parse");
            assert_eq!(c.rank, 1);
            assert_eq!(c.n_ranks, 2);
            assert_eq!(c.records.len(), 3);
            match (&c.records[0], &sample_records()[0]) {
                (Record::PhaseSpace(a), Record::PhaseSpace(b)) => {
                    assert_eq!(a.as_slice(), b.as_slice());
                }
                _ => panic!("kind mismatch"),
            }
        }
    }

    /// A record set whose phase-space payload (3 KiB) spans many chunks at
    /// the small chunk lengths and whose particles straddle pos/vel.
    fn multi_chunk_records() -> Vec<Record> {
        let mut ps = PhaseSpace::zeros([3, 2, 2], VelocityGrid::cubic(4, 1.0));
        for (i, v) in ps.as_mut_slice().iter_mut().enumerate() {
            *v = (i as f32 * 0.37).sin();
        }
        let mut particles = vlasov6d_nbody::ParticleSet::new(0.5);
        for i in 0..5 {
            particles.pos.push([i as f64, 0.5, -1.0 / (i + 1) as f64]);
            particles
                .vel
                .push([1e-3 * i as f64, f64::MIN_POSITIVE, -0.0]);
        }
        let mut records = sample_records();
        records[0] = Record::PhaseSpace(ps);
        records.push(Record::Particles(particles));
        records
    }

    #[test]
    fn streamed_file_equals_the_in_memory_image_at_any_thread_count() {
        let dir = std::env::temp_dir().join(format!("vck-test-stream-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rank-0000.vck");
        let records = multi_chunk_records();
        for enc in [Encoding::Raw, Encoding::ShuffleRle] {
            for chunk_len in [1, 7, 4096, DEFAULT_CHUNK_LEN] {
                let image = ContainerFile::image((0, 1), chunk_len, &records, enc);
                for threads in 1..=3 {
                    let report = rayon::with_num_threads(threads, || {
                        ContainerFile::write(&path, (0, 1), chunk_len, &records, enc).unwrap()
                    });
                    let what = format!("{enc:?}, chunk {chunk_len}, {threads} threads");
                    assert!(fs::read(&path).unwrap() == image, "bytes differ: {what}");
                    assert_eq!(report.bytes, image.len() as u64, "{what}");
                    assert_eq!(report.crc, crc32(&image), "folded CRC: {what}");
                }
                let back = ContainerFile::parse(&image).expect("parse");
                assert_eq!(back.crc, crc32(&image));
                assert_eq!(back.records.len(), records.len());
                for (a, b) in back.records.iter().zip(&records) {
                    assert_eq!(a.encode(Encoding::Raw).bytes, b.encode(Encoding::Raw).bytes);
                }
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn miri_smoke_stream_roundtrip() {
        // Three records, the first spanning several 64-byte chunks, through
        // the streaming writer and the walker, both encodings.
        for enc in [Encoding::Raw, Encoding::ShuffleRle] {
            let image = ContainerFile::image((0, 1), 64, &sample_records(), enc);
            let c = ContainerFile::parse(&image).expect("parse");
            assert_eq!(c.records.len(), 3);
            assert_eq!(c.crc, crc32(&image));
            assert!(ContainerFile::parse(&image[..image.len() - 1]).is_err());
        }
    }

    #[test]
    fn older_format_versions_are_rejected_by_version() {
        let mut bytes = build(64);
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        let msg = ContainerFile::parse(&bytes).unwrap_err().to_string();
        assert!(
            msg.contains("container version 1, this build reads 2"),
            "{msg}"
        );
        assert!(msg.contains("offset 8"), "{msg}");
    }

    #[test]
    fn any_single_byte_flip_is_detected() {
        let bytes = build(16);
        // Step through the file; every corrupted copy must fail to parse.
        for i in (0..bytes.len()).step_by(3) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                ContainerFile::parse(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn any_truncation_is_detected() {
        let bytes = build(32);
        for cut in (0..bytes.len()).step_by(11) {
            assert!(
                ContainerFile::parse(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
    }

    #[test]
    fn commit_is_atomic_and_readable() {
        let dir = std::env::temp_dir().join(format!("vck-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rank-0001.vck");
        let Committed { bytes, crc, .. } =
            ContainerFile::write(&path, (1, 2), 64, &sample_records(), Encoding::Raw)
                .expect("commit");
        let on_disk = fs::read(&path).unwrap();
        assert_eq!(on_disk.len() as u64, bytes);
        assert_eq!(crc32(&on_disk), crc);
        assert!(
            !tmp_path(&path).exists(),
            "temp file should be renamed away"
        );
        let c = ContainerFile::read(&path).expect("read");
        assert_eq!(c.records.len(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_errors_name_the_file() {
        let dir = std::env::temp_dir().join(format!("vck-test-nf-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rank-0000.vck");
        let mut bytes = build(16);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 1;
        fs::write(&path, &bytes).unwrap();
        let err = ContainerFile::read(&path).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("rank-0000.vck"), "{msg}");
        assert!(msg.contains("offset"), "{msg}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
