//! The checkpoint path's heap bar: writing, loading and random-access reading
//! a record may hold chunk-sized buffers above the live state, never a
//! second record-sized one; and no image, however hostile, makes the reader
//! ask for more than its own bytes could decode to.
//!
//! The process's allocator is the counter (the benchmark's `heap.rs`), so
//! this file holds exactly one test: counts from concurrent tests would race.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use vlasov6d_ckpt::container::{atomic_write, HEADER_LEN};
use vlasov6d_ckpt::crc::crc32;
use vlasov6d_ckpt::{
    fault, CheckpointStore, ContainerFile, Encoding, RankFileReader, Record, SimState,
};
use vlasov6d_phase_space::{PhaseSpace, VelocityGrid};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator with two counters around it. The counters publish
/// no other data, so `Relaxed` is enough.
struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller already upholds; the counters never touch
// the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded; the caller guarantees a non-zero-sized layout.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    // SAFETY: as for `alloc`: forwarded under the caller's own contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded; the caller guarantees a non-zero-sized layout.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    // SAFETY: as for `alloc`: forwarded under the caller's own contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded; `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    // SAFETY: as for `alloc`: forwarded under the caller's own contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded; `ptr` came from this allocator with `layout`
        // and the caller guarantees `new_size` is valid for its alignment.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f`; return its result and the most heap it held above what was live
/// when it started (whatever it returns included).
fn transient<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - base)
}

const MIB: usize = 1 << 20;
const CHUNK: usize = 256 << 10;
/// Chunk length of the small images the hostile cases start from.
const CHUNK_SMALL: usize = 64;
const THREADS: usize = 2;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vck-heap-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A 16 MiB block whose bytes neither codec stage can shrink to nothing.
fn block() -> PhaseSpace {
    let mut ps = PhaseSpace::zeros([16, 16, 16], VelocityGrid::new([8, 8, 16], 1.0));
    for (i, v) in ps.as_mut_slice().iter_mut().enumerate() {
        *v = (i as f32 * 0.37).sin();
    }
    ps
}

/// Write / load / random-access read of a 16 MiB record stay within
/// chunk-sized buffers of the live state.
fn streaming_paths_hold_chunks_not_records() {
    let records = [Record::PhaseSpace(block())];
    let record_bytes = 16 * MIB;
    for enc in [Encoding::Raw, Encoding::ShuffleRle] {
        let root = scratch(&format!("{enc:?}"));
        let store = CheckpointStore::new(&root).with_chunk_len(CHUNK);

        let (written, held) = transient(|| store.write_serial(1, 0.5, &records, enc, 1));
        written.expect("write");
        let bar = 4 * CHUNK * THREADS + MIB;
        assert!(held <= bar, "{enc:?} write_serial held {held} B > {bar} B");

        let (loaded, held) = transient(|| store.load_serial());
        let bar = record_bytes + 4 * CHUNK + MIB;
        assert!(held <= bar, "{enc:?} load_serial held {held} B > {bar} B");
        assert_eq!(loaded.expect("load").records.len(), 1);

        let (reader, held) = transient(|| store.open_rank(1, 0));
        let mut reader = reader.expect("open");
        assert!(held <= 64 << 10, "{enc:?} open_rank held {held} B");
        let (_, held) = transient(|| reader.peek_meta(0));
        assert!(held <= 64 << 10, "{enc:?} peek_meta held {held} B");
        let (read, held) = transient(|| reader.read_record(0));
        assert!(held <= bar, "{enc:?} read_record held {held} B > {bar} B");
        match (read.expect("read"), &records[0]) {
            (Record::PhaseSpace(got), Record::PhaseSpace(want)) => {
                assert!(got.as_slice() == want.as_slice(), "{enc:?} block differs");
            }
            _ => panic!("wrong record kind"),
        }
        std::fs::remove_dir_all(&root).unwrap();
    }
}

/// Open whatever is at `path` and touch every record the index offers.
fn walk_file(path: &Path) {
    if let Ok(mut reader) = RankFileReader::open(path) {
        for i in 0..reader.record_count() {
            let _ = reader.peek_meta(i);
            let _ = reader.read_record(i);
        }
    }
}

/// The most heap reading `image` may hold: what its bytes could decode to
/// (RLE runs expand ×65) plus a chunk; error strings and the reader's path
/// are the fixed slack on top.
fn bar(image: &[u8]) -> usize {
    image.len() * 65 + CHUNK_SMALL + 4096
}

/// `image` must fail the validating parse, and neither that nor a walk of
/// the same bytes on disk may hold more than [`bar`].
fn refused_within_bounds(image: &[u8], path: &Path, what: &str) {
    let bar = bar(image);
    let (parsed, held) = transient(|| ContainerFile::parse(image).is_ok());
    assert!(!parsed, "{what} parsed");
    assert!(held <= bar, "{what}: parse held {held} B > {bar} B");
    let (_, held) = transient(|| walk_file(path));
    assert!(held <= bar, "{what}: reader held {held} B > {bar} B");
}

/// Truncations and bit flips of a valid image, heads forged with valid CRCs
/// and plain noise are errors that allocate no more than the image could
/// decode to.
fn hostile_images_never_outgrow_their_bytes() {
    let dir = scratch("hostile");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("rank-0000.vck");
    let mut ps = PhaseSpace::zeros([2, 2, 2], VelocityGrid::cubic(4, 1.0));
    ps.as_mut_slice().fill(1.5); // long runs: the RLE expansion case
    let records = [
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
    ];
    for enc in [Encoding::Raw, Encoding::ShuffleRle] {
        let image = ContainerFile::image((0, 1), CHUNK_SMALL, &records, enc);
        ContainerFile::parse(&image).expect("the clean image parses");

        // Every truncation, the file losing one byte at a time.
        atomic_write(&path, &image).unwrap();
        for cut in (0..image.len()).rev() {
            fault::truncate_tail(&path, 1).unwrap();
            refused_within_bounds(&image[..cut], &path, &format!("{enc:?} cut to {cut}"));
        }

        // Every single-bit flip (chunk CRCs and the file CRC catch them);
        // the reader walks the top-bit flips, the ones that blow lengths up.
        atomic_write(&path, &image).unwrap();
        for bit in 0..image.len() * 8 {
            let mut bad = image.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let (parsed, held) = transient(|| ContainerFile::parse(&bad).is_ok());
            assert!(!parsed && held <= bar(&bad), "{enc:?} bit {bit}: {held} B");
            if bit % 8 == 7 {
                fault::flip_bit(&path, (bit / 8) as u64, 7).unwrap();
                refused_within_bounds(&bad, &path, &format!("{enc:?} bit {bit}"));
                fault::flip_bit(&path, (bit / 8) as u64, 7).unwrap();
            }
        }

        // The first record's head rewritten *with a valid chunk CRC*: dims
        // that overflow, a raw_len the dims do not promise, and dims and
        // raw_len that agree on 384 GiB — which the bytes left cannot hold.
        let head_len = u32::from_le_bytes(image[HEADER_LEN..][..4].try_into().unwrap()) as usize;
        let head = HEADER_LEN + 8..HEADER_LEN + 8 + head_len;
        let raw_len_at = head.end - 16;
        let forged: [&[(usize, u64)]; 3] = [
            &[(head.start + 2, u64::MAX / 2)],
            &[(raw_len_at, 1 << 40)],
            &[
                (head.start + 2, 1 << 30),
                (raw_len_at, (1 << 30) * 4 * 64 * 4),
            ],
        ];
        for (i, edits) in forged.into_iter().enumerate() {
            let mut bad = image.clone();
            for &(at, v) in edits {
                bad[at..at + 8].copy_from_slice(&v.to_le_bytes());
            }
            let crc = crc32(&bad[head.clone()]);
            bad[HEADER_LEN + 4..HEADER_LEN + 8].copy_from_slice(&crc.to_le_bytes());
            atomic_write(&path, &bad).unwrap();
            refused_within_bounds(&bad, &path, &format!("{enc:?} forged head {i}"));
        }
    }
    let mut x = 0x2545_F491u32;
    for len in (0..400).step_by(7) {
        let noise: Vec<u8> = (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        atomic_write(&path, &noise).unwrap();
        refused_within_bounds(&noise, &path, &format!("{len} bytes of noise"));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_paths_stay_within_their_heap_bars() {
    rayon::with_num_threads(THREADS, || {
        streaming_paths_hold_chunks_not_records();
        hostile_images_never_outgrow_their_bytes();
    });
}
