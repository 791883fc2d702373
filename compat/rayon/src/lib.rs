//! Threaded drop-in stand-in for the `rayon` API surface this workspace
//! uses.
//!
//! The build environment has no access to crates.io, so this in-tree crate
//! stands in for rayon — but unlike the original sequential shim it now runs
//! the write-disjoint adapter shapes on a real thread pool: each calling
//! thread's persistent crew of parked workers (see [`pool`]). The design
//! splits the rayon surface in two:
//!
//! * **Indexed parallel heads** — [`ParIter`] over a [`Source`]: ranges,
//!   slices, chunked slices and their `enumerate`/`zip` composites. These
//!   know their length, can produce any element by index from any worker,
//!   and execute `for_each` / `for_each_init` on the pool. Every such
//!   region in this workspace is registered with racecheck (`crates/verify`), which
//!   proves the per-task write footprints pairwise disjoint — the licence
//!   for handing `&mut` items to concurrent workers.
//! * **Sequential tails** — [`Par`] over a plain iterator: `map`, `filter`,
//!   `sum`, `reduce`, `fold`, `collect`. Reductions stay sequential *by
//!   design* so that every floating-point reduction in the workspace keeps
//!   one association order and results stay bitwise reproducible at any
//!   worker count; a parallel tree reduction would change the f64 rounding.
//!
//! Because parallelism is confined to proven write-disjoint `for_each`
//! shapes, output is bitwise identical regardless of thread count or
//! schedule — enforced empirically by the schedule-permutation tests in
//! `crates/phase-space`.

use std::iter::Sum;
use std::marker::PhantomData;

pub mod pool;

pub use pool::{current_num_threads, with_config, with_num_threads, with_schedule_seed};

// ---------------------------------------------------------------------------
// Indexed sources
// ---------------------------------------------------------------------------

/// A fixed-length task source whose elements can be produced independently,
/// by index, from any worker thread. Callers guarantee each index is passed
/// to `get` **at most once** per source instance — the pool hands each task
/// index to exactly one worker, and the sequential bridge ([`SrcIter`])
/// visits each index once.
///
/// # Safety
///
/// Implementors guarantee `get(i)` is in bounds for every `i < len()` and
/// that items for distinct indices do not alias under the at-most-once rule.
pub unsafe trait Source: Sync {
    type Item: Send;
    fn len(&self) -> usize;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// # Safety
    /// `i < self.len()` and each `i` is requested at most once.
    unsafe fn get(&self, i: usize) -> Self::Item;
}

/// `start..start+len` of `usize`.
pub struct RangeSrc {
    start: usize,
    len: usize,
}

// SAFETY: items are plain integers; any index in bounds is valid.
unsafe impl Source for RangeSrc {
    type Item = usize;
    fn len(&self) -> usize {
        self.len
    }
    // SAFETY: the produced value is a plain integer; nothing to uphold.
    unsafe fn get(&self, i: usize) -> usize {
        self.start + i
    }
}

/// Shared-slice elements (`par_iter`).
pub struct SliceSrc<'a, T: Sync> {
    slice: &'a [T],
}

// SAFETY: shared references may alias freely; bounds hold by construction.
unsafe impl<'a, T: Sync> Source for SliceSrc<'a, T> {
    type Item = &'a T;
    fn len(&self) -> usize {
        self.slice.len()
    }
    // SAFETY: caller upholds i < len; shared references may alias.
    unsafe fn get(&self, i: usize) -> &'a T {
        // SAFETY: i < len per the trait contract.
        unsafe { self.slice.get_unchecked(i) }
    }
}

/// Exclusive-slice elements (`par_iter_mut`): a raw base pointer plus the
/// borrow that keeps the slice alive and un-aliased for `'a`.
pub struct SliceMutSrc<'a, T: Send> {
    ptr: *mut T,
    len: usize,
    _borrow: PhantomData<&'a mut T>,
}

// SAFETY: [racecheck: pool.slice_mut] — the source owns the unique borrow;
// `get` carves it into per-index `&mut` items, and the each-index-at-most-
// once contract (the pool's exactly-once dispatch, verified live) makes the
// items disjoint, so sharing the source across workers cannot alias.
unsafe impl<'a, T: Send> Sync for SliceMutSrc<'a, T> {}

// SAFETY: distinct indices yield non-overlapping `&mut` elements of one
// uniquely-borrowed slice; bounds hold by construction.
unsafe impl<'a, T: Send> Source for SliceMutSrc<'a, T> {
    type Item = &'a mut T;
    fn len(&self) -> usize {
        self.len
    }
    // SAFETY: i < len and each index is handed out at most once, so the
    // returned `&mut` never aliases another.
    unsafe fn get(&self, i: usize) -> &'a mut T {
        // SAFETY: in-bounds offset of the uniquely borrowed buffer.
        unsafe { &mut *self.ptr.add(i) }
    }
}

/// Shared chunks (`par_chunks`): chunk `i` is `slice[i*size..][..size]`,
/// the last chunk ragged.
pub struct ChunksSrc<'a, T: Sync> {
    slice: &'a [T],
    size: usize,
}

// SAFETY: shared sub-slices may alias freely; bounds hold by construction.
unsafe impl<'a, T: Sync> Source for ChunksSrc<'a, T> {
    type Item = &'a [T];
    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }
    // SAFETY: shared sub-slices may alias; range is clamped in bounds.
    unsafe fn get(&self, i: usize) -> &'a [T] {
        let start = i * self.size;
        &self.slice[start..(start + self.size).min(self.slice.len())]
    }
}

/// Exclusive chunks (`par_chunks_mut`): chunk `i` is the `&mut` sub-slice
/// at `i*size`, the last chunk ragged.
pub struct ChunksMutSrc<'a, T: Send> {
    ptr: *mut T,
    total: usize,
    size: usize,
    _borrow: PhantomData<&'a mut T>,
}

// SAFETY: [racecheck: pool.chunks_mut] — as for `SliceMutSrc`: the source
// holds the unique borrow, distinct chunk indices map to non-overlapping
// sub-ranges (racecheck's claim-map check covers the ragged tail), and the
// pool hands each index to exactly one worker.
unsafe impl<'a, T: Send> Sync for ChunksMutSrc<'a, T> {}

// SAFETY: chunk ranges `[i*size, min((i+1)*size, total))` are pairwise
// disjoint and in bounds for `i < ceil(total/size)`.
unsafe impl<'a, T: Send> Source for ChunksMutSrc<'a, T> {
    type Item = &'a mut [T];
    fn len(&self) -> usize {
        self.total.div_ceil(self.size)
    }
    // SAFETY: distinct indices map to disjoint in-bounds ranges, each
    // handed out at most once.
    unsafe fn get(&self, i: usize) -> &'a mut [T] {
        let start = i * self.size;
        let len = self.size.min(self.total - start);
        // SAFETY: disjoint in-bounds range of the uniquely borrowed buffer.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), len) }
    }
}

/// Owned elements moved out of a `Vec` (`Vec::into_par_iter`). The buffer's
/// length is forced to zero up front; `get` moves items out by `ptr::read`.
/// Items not consumed (only possible if a worker panics mid-region) are
/// leaked, never double-dropped.
pub struct VecSrc<T: Send> {
    buf: Vec<T>,
    len: usize,
}

// SAFETY: [racecheck: pool.vec_into] — each index is read (moved out) at
// most once per the `Source` contract, so concurrent workers move disjoint
// items out of a buffer nobody else can touch.
unsafe impl<T: Send> Sync for VecSrc<T> {}

// SAFETY: `ptr::read` of distinct in-bounds indices moves out disjoint
// items; the length was zeroed so drop never touches them again.
unsafe impl<T: Send> Source for VecSrc<T> {
    type Item = T;
    fn len(&self) -> usize {
        self.len
    }
    // SAFETY: i < len and each index is read at most once, so every item
    // is moved out exactly once or leaked, never duplicated.
    unsafe fn get(&self, i: usize) -> T {
        // SAFETY: in-bounds read; buffer len is 0 so drop never sees it.
        unsafe { std::ptr::read(self.buf.as_ptr().add(i)) }
    }
}

/// `enumerate()` over a source.
pub struct EnumSrc<S>(S);

// SAFETY: delegates to the inner source; pairing with the index does not
// change aliasing.
unsafe impl<S: Source> Source for EnumSrc<S> {
    type Item = (usize, S::Item);
    fn len(&self) -> usize {
        self.0.len()
    }
    // SAFETY: the trait contract is forwarded verbatim to the inner source.
    unsafe fn get(&self, i: usize) -> (usize, S::Item) {
        // SAFETY: forwarded contract.
        (i, unsafe { self.0.get(i) })
    }
}

/// `zip()` of two sources, truncated to the shorter.
pub struct ZipSrc<A, B>(A, B);

// SAFETY: both sides uphold their own contracts; zipping does not alias.
unsafe impl<A: Source, B: Source> Source for ZipSrc<A, B> {
    type Item = (A::Item, B::Item);
    fn len(&self) -> usize {
        self.0.len().min(self.1.len())
    }
    // SAFETY: the trait contract is forwarded verbatim to both sources.
    unsafe fn get(&self, i: usize) -> (A::Item, B::Item) {
        // SAFETY: i < min(len, len); forwarded contract on both sides.
        unsafe { (self.0.get(i), self.1.get(i)) }
    }
}

// ---------------------------------------------------------------------------
// The parallel head
// ---------------------------------------------------------------------------

/// An indexed parallel iterator: the head of a `par_iter()`-style chain.
/// `for_each`/`for_each_init` run on the pool; the value-producing adapters
/// bridge to the sequential [`Par`] tail to keep reductions bitwise stable.
pub struct ParIter<S>(S);

impl<S: Source> ParIter<S> {
    /// Execute `f` for every item, in parallel.
    #[inline]
    pub fn for_each<F: Fn(S::Item) + Sync>(self, f: F) {
        let src = self.0;
        pool::for_each_task(
            src.len(),
            || (),
            // SAFETY: the pool dispatches each index exactly once.
            |(), i| f(unsafe { src.get(i) }),
        );
    }

    /// rayon's `for_each_init`: `init` runs once per *worker*, and the
    /// resulting scratch state is private to that worker — never shared,
    /// never re-initialised per item.
    #[inline]
    pub fn for_each_init<T, INIT, F>(self, init: INIT, f: F)
    where
        INIT: Fn() -> T + Sync,
        F: Fn(&mut T, S::Item) + Sync,
    {
        let src = self.0;
        pool::for_each_task(
            src.len(),
            init,
            // SAFETY: the pool dispatches each index exactly once.
            |state, i| f(state, unsafe { src.get(i) }),
        );
    }

    #[inline]
    pub fn enumerate(self) -> ParIter<EnumSrc<S>> {
        ParIter(EnumSrc(self.0))
    }

    #[inline]
    pub fn zip<B: Source>(self, other: ParIter<B>) -> ParIter<ZipSrc<S, B>> {
        ParIter(ZipSrc(self.0, other.0))
    }

    /// Bridge to the sequential tail (each index visited exactly once, in
    /// order) — keeps reductions deterministic.
    #[inline]
    fn seq(self) -> Par<SrcIter<S>> {
        Par(SrcIter {
            src: self.0,
            next: 0,
        })
    }

    #[inline]
    pub fn map<B, F: FnMut(S::Item) -> B>(self, f: F) -> Par<std::iter::Map<SrcIter<S>, F>> {
        self.seq().map(f)
    }

    #[inline]
    pub fn filter<F: FnMut(&S::Item) -> bool>(self, f: F) -> Par<std::iter::Filter<SrcIter<S>, F>> {
        self.seq().filter(f)
    }

    #[inline]
    pub fn sum<A: Sum<S::Item>>(self) -> A {
        self.seq().sum()
    }

    #[inline]
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> S::Item
    where
        ID: Fn() -> S::Item,
        OP: FnMut(S::Item, S::Item) -> S::Item,
    {
        self.seq().reduce(identity, op)
    }

    #[inline]
    pub fn fold<T, ID, F>(self, identity: ID, f: F) -> Par<std::iter::Once<T>>
    where
        ID: Fn() -> T,
        F: FnMut(T, S::Item) -> T,
    {
        self.seq().fold(identity, f)
    }

    #[inline]
    pub fn collect<C: FromIterator<S::Item>>(self) -> C {
        self.seq().collect()
    }

    #[inline]
    pub fn count(self) -> usize {
        self.0.len()
    }
}

impl<'a, T: 'a + Copy, S: Source<Item = &'a T>> ParIter<S> {
    #[inline]
    pub fn copied(self) -> Par<std::iter::Copied<SrcIter<S>>> {
        self.seq().copied()
    }
}

impl<'a, T: 'a + Clone, S: Source<Item = &'a T>> ParIter<S> {
    #[inline]
    pub fn cloned(self) -> Par<std::iter::Cloned<SrcIter<S>>> {
        self.seq().cloned()
    }
}

/// Sequential iterator over a source; each index visited exactly once.
pub struct SrcIter<S: Source> {
    src: S,
    next: usize,
}

impl<S: Source> Iterator for SrcIter<S> {
    type Item = S::Item;
    #[inline]
    fn next(&mut self) -> Option<S::Item> {
        if self.next < self.src.len() {
            // SAFETY: monotone cursor — each index requested exactly once.
            let item = unsafe { self.src.get(self.next) };
            self.next += 1;
            Some(item)
        } else {
            None
        }
    }
}

// ---------------------------------------------------------------------------
// The sequential tail
// ---------------------------------------------------------------------------

/// Wrapper marking a value-producing adapter chain. Executed sequentially
/// on the calling thread so every reduction keeps a single association
/// order (bitwise-stable floating-point results at any worker count).
pub struct Par<I>(pub I);

impl<I: Iterator> Par<I> {
    #[inline]
    pub fn for_each<F: FnMut(I::Item)>(self, f: F) {
        self.0.for_each(f)
    }

    #[inline]
    pub fn map<B, F: FnMut(I::Item) -> B>(self, f: F) -> Par<std::iter::Map<I, F>> {
        Par(self.0.map(f))
    }

    #[inline]
    pub fn filter<F: FnMut(&I::Item) -> bool>(self, f: F) -> Par<std::iter::Filter<I, F>> {
        Par(self.0.filter(f))
    }

    #[inline]
    pub fn enumerate(self) -> Par<std::iter::Enumerate<I>> {
        Par(self.0.enumerate())
    }

    #[inline]
    pub fn sum<S: Sum<I::Item>>(self) -> S {
        self.0.sum()
    }

    /// rayon's `reduce(identity, op)` (identity is the fold seed).
    #[inline]
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> I::Item
    where
        ID: Fn() -> I::Item,
        OP: FnMut(I::Item, I::Item) -> I::Item,
    {
        self.0.fold(identity(), op)
    }

    #[inline]
    pub fn fold<T, ID, F>(self, identity: ID, f: F) -> Par<std::iter::Once<T>>
    where
        ID: Fn() -> T,
        F: FnMut(T, I::Item) -> T,
    {
        Par(std::iter::once(self.0.fold(identity(), f)))
    }

    #[inline]
    pub fn collect<C: FromIterator<I::Item>>(self) -> C {
        self.0.collect()
    }

    #[inline]
    pub fn count(self) -> usize {
        self.0.count()
    }
}

impl<'a, T: 'a + Copy, I: Iterator<Item = &'a T>> Par<I> {
    #[inline]
    pub fn copied(self) -> Par<std::iter::Copied<I>> {
        Par(self.0.copied())
    }
}

impl<'a, T: 'a + Clone, I: Iterator<Item = &'a T>> Par<I> {
    #[inline]
    pub fn cloned(self) -> Par<std::iter::Cloned<I>> {
        Par(self.0.cloned())
    }
}

// ---------------------------------------------------------------------------
// Entry-point traits (rayon's names)
// ---------------------------------------------------------------------------

/// `into_par_iter()` on owned collections / ranges.
pub trait IntoParallelIterator {
    type Item;
    type Iter;
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    type Iter = ParIter<RangeSrc>;
    fn into_par_iter(self) -> ParIter<RangeSrc> {
        ParIter(RangeSrc {
            start: self.start,
            len: self.end.saturating_sub(self.start),
        })
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = ParIter<VecSrc<T>>;
    fn into_par_iter(self) -> ParIter<VecSrc<T>> {
        let mut buf = self;
        let len = buf.len();
        // SAFETY: capacity unchanged; the original length is remembered in
        // `len` and items past index `len` are never touched. Items are
        // moved out exactly once by `get`; the zero length prevents drop.
        unsafe { buf.set_len(0) };
        ParIter(VecSrc { buf, len })
    }
}

/// `par_iter()` / `par_chunks()` on shared slices.
pub trait ParallelSlice<T: Sync> {
    fn par_iter(&self) -> ParIter<SliceSrc<'_, T>>;
    fn par_chunks(&self, size: usize) -> ParIter<ChunksSrc<'_, T>>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    #[inline]
    fn par_iter(&self) -> ParIter<SliceSrc<'_, T>> {
        ParIter(SliceSrc { slice: self })
    }
    #[inline]
    fn par_chunks(&self, size: usize) -> ParIter<ChunksSrc<'_, T>> {
        assert!(size >= 1);
        ParIter(ChunksSrc { slice: self, size })
    }
}

/// `par_iter_mut()` / `par_chunks_mut()` on exclusive slices.
pub trait ParallelSliceMut<T: Send> {
    fn par_iter_mut(&mut self) -> ParIter<SliceMutSrc<'_, T>>;
    fn par_chunks_mut(&mut self, size: usize) -> ParIter<ChunksMutSrc<'_, T>>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    #[inline]
    fn par_iter_mut(&mut self) -> ParIter<SliceMutSrc<'_, T>> {
        ParIter(SliceMutSrc {
            ptr: self.as_mut_ptr(),
            len: self.len(),
            _borrow: PhantomData,
        })
    }
    #[inline]
    fn par_chunks_mut(&mut self, size: usize) -> ParIter<ChunksMutSrc<'_, T>> {
        assert!(size >= 1);
        ParIter(ChunksMutSrc {
            ptr: self.as_mut_ptr(),
            total: self.len(),
            size,
            _borrow: PhantomData,
        })
    }
}

pub mod prelude {
    pub use crate::{IntoParallelIterator, Par, ParIter, ParallelSlice, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{pool, with_num_threads, with_schedule_seed};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    #[allow(clippy::useless_vec)] // exercising the Vec-based adapter paths
    fn adapters_match_sequential_results() {
        let v = vec![1.0f64, 2.0, 3.0, 4.0];
        let s: f64 = v.par_iter().map(|&x| x * x).sum();
        assert_eq!(s, 30.0);
        let m = v.par_iter().copied().reduce(|| f64::NEG_INFINITY, f64::max);
        assert_eq!(m, 4.0);
        let mut out = vec![0usize; 4];
        out.par_iter_mut().enumerate().for_each(|(i, o)| *o = i * 2);
        assert_eq!(out, vec![0, 2, 4, 6]);
    }

    #[test]
    fn chunks_and_ranges() {
        let mut v = [0u32; 10];
        v.par_chunks_mut(4).enumerate().for_each(|(c, chunk)| {
            for x in chunk {
                *x = c as u32;
            }
        });
        assert_eq!(&v[..4], &[0; 4]);
        assert_eq!(&v[4..8], &[1; 4]);
        assert_eq!(&v[8..], &[2; 2]); // ragged tail chunk
        let hits = AtomicUsize::new(0);
        (0..5usize).into_par_iter().for_each_init(
            || 10usize,
            |s, i| {
                hits.fetch_add(*s + i, Ordering::Relaxed);
            },
        );
        assert_eq!(hits.load(Ordering::Relaxed), 60);
    }

    #[test]
    fn vec_into_par_iter_moves_items() {
        let v: Vec<String> = (0..100).map(|i| i.to_string()).collect();
        let total = AtomicUsize::new(0);
        with_num_threads(4, || {
            v.into_par_iter().for_each(|s| {
                total.fetch_add(s.len(), Ordering::Relaxed);
            });
        });
        let expect: usize = (0..100).map(|i| i.to_string().len()).sum();
        assert_eq!(total.load(Ordering::Relaxed), expect);
    }

    #[test]
    fn for_each_init_state_is_per_worker() {
        // Each worker must get its own state: `init` is called once per
        // participating worker, and per-item mutations accumulate in
        // worker-private states whose totals sum to the item count.
        let inits = AtomicUsize::new(0);
        let items = AtomicUsize::new(0);
        with_num_threads(4, || {
            (0..10_000usize).into_par_iter().for_each_init(
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    0usize
                },
                |state, _i| {
                    *state += 1;
                    items.fetch_add(1, Ordering::Relaxed);
                },
            );
        });
        let inits = inits.load(Ordering::Relaxed);
        assert!((1..=4).contains(&inits), "init ran {inits} times");
        assert_eq!(items.load(Ordering::Relaxed), 10_000);
    }

    #[test]
    fn threaded_writes_are_bitwise_deterministic() {
        let serial = {
            let mut v = vec![0.0f64; 5000];
            with_num_threads(1, || {
                v.par_iter_mut()
                    .enumerate()
                    .for_each(|(i, o)| *o = (i as f64 * 0.37).sin());
            });
            v
        };
        for threads in [2, 4, 8] {
            let mut v = vec![0.0f64; 5000];
            with_num_threads(threads, || {
                v.par_iter_mut()
                    .enumerate()
                    .for_each(|(i, o)| *o = (i as f64 * 0.37).sin());
            });
            assert_eq!(v, serial, "threads = {threads}");
        }
        for seed in [1u64, 17, 9999] {
            let mut v = vec![0.0f64; 5000];
            pool::with_config(Some(4), Some(seed), || {
                v.par_iter_mut()
                    .enumerate()
                    .for_each(|(i, o)| *o = (i as f64 * 0.37).sin());
            });
            assert_eq!(v, serial, "seed = {seed}");
        }
    }

    #[test]
    fn reductions_stay_sequential_order() {
        // The f64 sum must keep left-to-right association at any worker
        // count — the tail adapters never go parallel.
        let v: Vec<f64> = (0..10_000).map(|i| (i as f64).sqrt() * 1e-3).collect();
        let expect: f64 = v.iter().sum();
        for threads in [1, 4] {
            let got: f64 = with_num_threads(threads, || v.par_iter().sum());
            assert_eq!(got.to_bits(), expect.to_bits());
        }
        let _ = with_schedule_seed(3, || -> f64 { v.par_iter().sum() });
    }

    #[test]
    fn zip_truncates_to_shorter() {
        let a = [1.0f64; 7];
        let mut b = vec![0.0f64; 5];
        b.par_iter_mut()
            .zip(a.par_iter())
            .for_each(|(o, &x)| *o = x);
        assert_eq!(b, vec![1.0; 5]);
    }
}
