//! The distributed 3-D FFT over the `mpisim` runtime: a 2-D pencil
//! decomposition, of which the slab decomposition is the `Pc = 1` case.
//!
//! The paper's PM solver uses Fujitsu's 2-D-decomposed parallel FFT so the
//! Poisson grid can spread over far more ranks than it has planes. This
//! module is that decomposition: ranks form a `Pr × Pc` grid
//! (rank = `pr·Pc + pc`), and the transform runs through three pencil
//! layouts connected by two all-to-all transpose stages:
//!
//! * **z-pencil** (input): `[n0/Pr][n1/Pc][n2]` — FFT along axis 2;
//! * **stage 1**: all-to-all *within each row group* (ranks sharing `pr`)
//!   into the **y-pencil** `[n0/Pr][n1][n2/Pc]` — FFT along axis 1;
//! * **stage 2**: all-to-all *within each column group* (ranks sharing `pc`)
//!   into the **x-pencil** `[n1/Pr][n0][n2/Pc]`, stored `[i1l][i0][i2l]` so
//!   the owned `i1` rows are slowest — FFT along axis 0.
//!
//! Requires `n0 % Pr == 0`, `n1 % Pr == 0`, `n1 % Pc == 0`, `n2 % Pc == 0`;
//! rank counts up to `min(n0·n1, n1·n2)` become usable. On a `P × 1` grid
//! (what `vlasov6d_poisson::DistPoisson::new` and `DistributedVlasov`
//! build) the z- and y-pencils are both the slab `[n0/P][n1][n2]`, stage 1
//! stays on the rank, and stage 2 is the slab transpose into
//! `[n1/P][n0][n2]`; rank counts are then capped at `min(n0, n1)`.
//!
//! Each stage is one split-phase [`CommPlan`], built once per geometry: every
//! rank posts a packet per batch for each peer of its group and a receive
//! for each packet coming back, then waits. The stage runs that plan, and it
//! is **overlapped** with the local 1-D FFT work the way the ghost-plane
//! exchange overlaps interior advection: the local planes are cut into
//! batches, a batch is transformed when its first packet is asked for, and
//! while batch `b`'s packets are in flight the FFT and packing of batch
//! `b+1` proceed. The pipeline is bitwise-deterministic:
//! every element is transformed by the same [`FftPlan`] on the same line
//! regardless of the batch count, and pack/unpack move values without
//! arithmetic.
//!
//! There is no transpose index arithmetic here. The stages are
//! [`layout::pencil_stages`], the list `vlasov6d-verify`'s layoutcheck registers and
//! proves bijective; each stage's peers, batch axis, output length, packets
//! (`Repartition::packet`, walked through the source and destination maps'
//! strides) and plan bytes
//! ([`layout::Repartition::pair_elems`]) are evaluated from its
//! [`layout::Repartition`]. layoutcheck's sentinel probes drive the same
//! exchange through [`Pencil2D::repartition`], and callers address the
//! input and spectral blocks with [`layout::zpencil`] / [`layout::xpencil`].

use std::ops::Range;
use std::time::{Duration, Instant};

use crate::complex::Complex64;
use crate::layout::{self, RankGrid, Repartition};
use crate::plan::FftPlan;
use vlasov6d_mpisim::{Comm, CommPlan, Exchange};

/// Per-stage overlap measurement (filled by the `*_timed` entry points).
#[derive(Debug, Default, Clone, Copy)]
pub struct StageTimings {
    /// Compute + packing time that ran while this stage's packets were
    /// already in flight — communication the pipeline hid.
    pub hidden: Duration,
    /// Time blocked waiting for this stage's packets — communication the
    /// pipeline exposed.
    pub exposed: Duration,
}

/// Overlap measurement for one transform (both transpose stages).
#[derive(Debug, Default, Clone, Copy)]
pub struct PencilTimings {
    pub stage1: StageTimings,
    pub stage2: StageTimings,
}

/// A 2-D pencil-decomposed distributed FFT plan bound to global dims and a
/// `Pr × Pc` rank grid.
#[derive(Debug, Clone)]
pub struct Pencil2D {
    dims: [usize; 3],
    grid: RankGrid,
    plans: [FftPlan; 3],
    batches: usize,
    /// [`layout::pencil_stages`] with their programs, batch `b` of each
    /// under the relative tag `b`.
    stages: [(Repartition, CommPlan); 4],
}

impl Pencil2D {
    pub fn new(dims: [usize; 3], rows: usize, cols: usize) -> Self {
        assert!(rows >= 1 && cols >= 1);
        assert!(
            dims[0].is_multiple_of(rows)
                && dims[1].is_multiple_of(rows)
                && dims[1].is_multiple_of(cols)
                && dims[2].is_multiple_of(cols),
            "pencil FFT needs n0 % Pr == 0, n1 % Pr == 0, n1 % Pc == 0, n2 % Pc == 0 \
             (got dims {dims:?}, grid {rows}x{cols})"
        );
        Self {
            dims,
            grid: RankGrid::new(rows, cols),
            plans: [
                FftPlan::new(dims[0]),
                FftPlan::new(dims[1]),
                FftPlan::new(dims[2]),
            ],
            batches: 0,
            stages: layout::pencil_stages().map(|rep| (rep, CommPlan::default())),
        }
        .with_batches(2)
    }

    /// Override the pipeline batch count (clamped per stage to the batch
    /// axis extent). More batches → finer overlap, more smaller messages.
    pub fn with_batches(mut self, batches: usize) -> Self {
        assert!(batches >= 1);
        self.batches = batches;
        self.stages = layout::pencil_stages().map(|rep| (rep, self.stage_plan(&rep)));
        self
    }

    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    pub fn grid(&self) -> RankGrid {
        self.grid
    }

    pub fn n_ranks(&self) -> usize {
        self.grid.n_ranks()
    }

    /// Rows per rank along axis 1 in the z-pencil (`n1 / Pc`).
    fn b1(&self) -> usize {
        self.dims[1] / self.grid.cols
    }

    /// Rows per rank along axis 1 in the x-pencil (`n1 / Pr`).
    fn r1(&self) -> usize {
        self.dims[1] / self.grid.rows
    }

    /// Depth per rank along axis 2 in the y/x pencils (`n2 / Pc`).
    fn c2(&self) -> usize {
        self.dims[2] / self.grid.cols
    }

    /// Local input (z-pencil) length in complex elements.
    pub fn zpencil_len(&self) -> usize {
        layout::zpencil().local_len(self.dims, self.grid)
    }

    /// Local spectral (x-pencil) length in complex elements.
    pub fn spectral_len(&self) -> usize {
        layout::xpencil().local_len(self.dims, self.grid)
    }

    /// Tags consumed by one `forward` or `inverse` call starting at `tag`
    /// (one tag per stage per batch).
    pub fn tag_span(&self) -> u64 {
        2 * self.batches as u64
    }

    /// Forward transform: z-pencil in, **x-pencil (spectral) layout** out.
    pub fn forward(&self, comm: &Comm, local: &[Complex64], tag: u64) -> Vec<Complex64> {
        self.forward_inner(comm, local, tag, None)
    }

    /// Forward transform with per-stage overlap measurement.
    pub fn forward_timed(
        &self,
        comm: &Comm,
        local: &[Complex64],
        tag: u64,
        timings: &mut PencilTimings,
    ) -> Vec<Complex64> {
        self.forward_inner(comm, local, tag, Some(timings))
    }

    fn forward_inner(
        &self,
        comm: &Comm,
        local: &[Complex64],
        tag: u64,
        mut timings: Option<&mut PencilTimings>,
    ) -> Vec<Complex64> {
        let _obs = vlasov6d_obs::span!("fft.pencil.forward");
        assert_eq!(local.len(), self.zpencil_len());
        assert_eq!(comm.size(), self.n_ranks());
        let mut work = local.to_vec();
        let (b1, c2, n1) = (self.b1(), self.c2(), self.dims[1]);
        let n2 = self.dims[2];

        // Stage 1: axis-2 FFT per batch of i0 planes, overlapped with the
        // z→y all-to-all within the row group.
        let mut y = self.run_stage(
            comm,
            &self.stages[0],
            tag,
            &mut work,
            &mut |slf: &Self, w: &mut [Complex64], planes: Range<usize>| {
                for line in w[planes.start * b1 * n2..planes.end * b1 * n2].chunks_mut(n2) {
                    slf.plans[2].forward(line);
                }
            },
            timings.as_deref_mut().map(|t| &mut t.stage1),
        );

        // Stage 2: axis-1 FFT per batch of i0 planes, overlapped with the
        // y→x all-to-all within the column group.
        let mut buf1 = vec![Complex64::ZERO; n1];
        let mut x = self.run_stage(
            comm,
            &self.stages[1],
            tag + self.batches as u64,
            &mut y,
            &mut |slf: &Self, w: &mut [Complex64], planes: Range<usize>| {
                for i0l in planes {
                    for i2l in 0..c2 {
                        for i1 in 0..n1 {
                            buf1[i1] = w[(i0l * n1 + i1) * c2 + i2l];
                        }
                        slf.plans[1].forward(&mut buf1);
                        for i1 in 0..n1 {
                            w[(i0l * n1 + i1) * c2 + i2l] = buf1[i1];
                        }
                    }
                }
            },
            timings.map(|t| &mut t.stage2),
        );

        // Axis-0 FFT in the spectral layout (nothing left to overlap with).
        let n0 = self.dims[0];
        let r1 = self.r1();
        let mut buf0 = vec![Complex64::ZERO; n0];
        for i1l in 0..r1 {
            for i2l in 0..c2 {
                for i0 in 0..n0 {
                    buf0[i0] = x[(i1l * n0 + i0) * c2 + i2l];
                }
                self.plans[0].forward(&mut buf0);
                for i0 in 0..n0 {
                    x[(i1l * n0 + i0) * c2 + i2l] = buf0[i0];
                }
            }
        }
        x
    }

    /// Inverse transform: x-pencil (spectral) in, z-pencil out (scaled by
    /// `1/(n0·n1·n2)`).
    pub fn inverse(&self, comm: &Comm, spectrum: &[Complex64], tag: u64) -> Vec<Complex64> {
        self.inverse_inner(comm, spectrum, tag, None)
    }

    /// Inverse transform with per-stage overlap measurement.
    pub fn inverse_timed(
        &self,
        comm: &Comm,
        spectrum: &[Complex64],
        tag: u64,
        timings: &mut PencilTimings,
    ) -> Vec<Complex64> {
        self.inverse_inner(comm, spectrum, tag, Some(timings))
    }

    fn inverse_inner(
        &self,
        comm: &Comm,
        spectrum: &[Complex64],
        tag: u64,
        mut timings: Option<&mut PencilTimings>,
    ) -> Vec<Complex64> {
        let _obs = vlasov6d_obs::span!("fft.pencil.inverse");
        assert_eq!(spectrum.len(), self.spectral_len());
        assert_eq!(comm.size(), self.n_ranks());
        let mut work = spectrum.to_vec();
        let [n0, n1, n2] = self.dims;
        let c2 = self.c2();

        // Stage 2 reversed: inverse axis-0 FFT per batch of i1 rows
        // (unscaled via conj), overlapped with the x→y all-to-all.
        let mut buf0 = vec![Complex64::ZERO; n0];
        let mut y = self.run_stage(
            comm,
            &self.stages[2],
            tag,
            &mut work,
            &mut |slf: &Self, w: &mut [Complex64], rows: Range<usize>| {
                for i1l in rows {
                    for i2l in 0..c2 {
                        for i0 in 0..n0 {
                            buf0[i0] = w[(i1l * n0 + i0) * c2 + i2l].conj();
                        }
                        slf.plans[0].forward(&mut buf0);
                        for i0 in 0..n0 {
                            w[(i1l * n0 + i0) * c2 + i2l] = buf0[i0].conj();
                        }
                    }
                }
            },
            timings.as_deref_mut().map(|t| &mut t.stage2),
        );

        // Stage 1 reversed: inverse axis-1 FFT per batch of i0 planes,
        // overlapped with the y→z all-to-all.
        let mut buf1 = vec![Complex64::ZERO; n1];
        let mut z = self.run_stage(
            comm,
            &self.stages[3],
            tag + self.batches as u64,
            &mut y,
            &mut |slf: &Self, w: &mut [Complex64], planes: Range<usize>| {
                for i0l in planes {
                    for i2l in 0..c2 {
                        for i1 in 0..n1 {
                            buf1[i1] = w[(i0l * n1 + i1) * c2 + i2l].conj();
                        }
                        slf.plans[1].forward(&mut buf1);
                        for i1 in 0..n1 {
                            w[(i0l * n1 + i1) * c2 + i2l] = buf1[i1].conj();
                        }
                    }
                }
            },
            timings.map(|t| &mut t.stage1),
        );

        // Inverse axis-2 FFT + the single scale pass.
        let scale = 1.0 / (n0 * n1 * n2) as f64;
        for line in z.chunks_mut(n2) {
            for v in line.iter_mut() {
                *v = v.conj();
            }
            self.plans[2].forward(line);
            for v in line.iter_mut() {
                *v = v.conj().scale(scale);
            }
        }
        z
    }

    /// Run one repartition alone, no FFTs: `input` in `rep.src`'s layout
    /// in, `rep.dst`'s layout out, under the tags `tag..tag + batches` — the
    /// live exchange layoutcheck's sentinel probes drive.
    pub fn repartition(
        &self,
        comm: &Comm,
        rep: &Repartition,
        input: &[Complex64],
        tag: u64,
    ) -> Vec<Complex64> {
        assert_eq!(input.len(), rep.src.local_len(self.dims, self.grid));
        let mut work = input.to_vec();
        let stage = (*rep, self.stage_plan(rep));
        self.run_stage(comm, &stage, tag, &mut work, &mut |_, _, _| {}, None)
    }
}

/// The per-batch local FFT pass a stage interleaves with its exchange.
type StageCompute<'a> = &'a mut dyn FnMut(&Pencil2D, &mut [Complex64], Range<usize>);

impl Pencil2D {
    /// The batches of a stage: near-equal ranges of the source's local
    /// extent along the stage's batch axis.
    fn stage_batches(&self, rep: &Repartition) -> Vec<Range<usize>> {
        let extent = rep.src.local_extents(self.dims, self.grid)[rep.batch_axis()];
        batch_ranges(extent, self.batches)
    }

    /// Run one transpose stage, its program at `tag`, with a [`Stage`]
    /// computing and packing each batch as its first packet is asked for and
    /// scattering each packet as it is delivered.
    fn run_stage(
        &self,
        comm: &Comm,
        (rep, plan): &(Repartition, CommPlan),
        tag: u64,
        work: &mut [Complex64],
        compute: StageCompute<'_>,
        timing: Option<&mut StageTimings>,
    ) -> Vec<Complex64> {
        let mut stage = Stage {
            fft: self,
            rep,
            me: comm.rank(),
            ranges: self.stage_batches(rep),
            out: vec![Complex64::ZERO; rep.dst.local_len(self.dims, self.grid)],
            work,
            compute,
            computed: 0,
            timing,
            since: Instant::now(),
        };
        comm.run_plan(plan, tag, &mut stage);
        // A group of this rank alone asks for no packet.
        stage.compute_to(stage.ranges.len());
        stage.out
    }

    /// The packet rank `src` sends rank `dst` for `batch`, read from
    /// `src`'s block `work` of `rep.src`, as interleaved `re, im` values.
    fn gather(
        &self,
        rep: &Repartition,
        src: usize,
        dst: usize,
        batch: Range<usize>,
        work: &[Complex64],
    ) -> Vec<f64> {
        let packet = rep.packet(self.dims, self.grid, src, dst, batch);
        let mut values = Vec::with_capacity(2 * packet.len());
        packet.for_each_index(&rep.src, self.dims, self.grid, src, |i| {
            values.push(work[i].re);
            values.push(work[i].im);
        });
        values
    }

    /// Write the packet rank `src` sent rank `dst` for `batch` into `out`,
    /// `dst`'s block of `rep.dst`, in the order [`Self::gather`] read it.
    fn scatter(
        &self,
        rep: &Repartition,
        src: usize,
        dst: usize,
        batch: Range<usize>,
        values: &[f64],
        out: &mut [Complex64],
    ) {
        let packet = rep.packet(self.dims, self.grid, src, dst, batch);
        debug_assert_eq!(values.len(), 2 * packet.len());
        let mut c = 0;
        packet.for_each_index(&rep.dst, self.dims, self.grid, dst, |i| {
            out[i] = Complex64::new(values[c], values[c + 1]);
            c += 2;
        });
    }

    // -- communication plans --------------------------------------------------

    /// Append one forward transform's transposes at `tag` to `plan`: the
    /// programs [`Pencil2D::forward`] runs, stage 1 at `tag + batch`, stage 2
    /// at `tag + batches + batch`.
    pub fn add_forward(&self, plan: &mut CommPlan, tag: u64) {
        plan.append(&self.stages[0].1, tag)
            .append(&self.stages[1].1, tag + self.batches as u64);
    }

    /// Append one inverse transform's transposes at `tag` to `plan`.
    pub fn add_inverse(&self, plan: &mut CommPlan, tag: u64) {
        plan.append(&self.stages[2].1, tag)
            .append(&self.stages[3].1, tag + self.batches as u64);
    }

    /// The program of one stage: each rank sends every batch's packet to
    /// each other member of its peer group (batch `b` under tag `b`), then
    /// receives theirs, all of it [`CommPlan::posted`]. Bytes are the
    /// registered layout model's per-pair intersection, split across batches
    /// along the stage's batch axis.
    fn stage_plan(&self, rep: &Repartition) -> CommPlan {
        let ranges = self.stage_batches(rep);
        let batch_extent: usize = ranges.iter().map(Range::len).sum();
        let pair_bytes = |s: usize, d: usize, batch: &Range<usize>| -> u64 {
            let total = rep.pair_elems(self.dims, self.grid, s, d);
            debug_assert_eq!(total % batch_extent, 0);
            (total / batch_extent * batch.len() * 2 * std::mem::size_of::<f64>()) as u64
        };
        let mut plan = CommPlan::new(rep.name, self.n_ranks());
        for me in 0..self.n_ranks() {
            let peers: Vec<usize> = self
                .grid
                .group(me, rep.peer_axis())
                .filter(|&peer| peer != me)
                .collect();
            for (b, batch) in ranges.iter().enumerate() {
                for &peer in &peers {
                    plan.send(me, peer, b as u64, pair_bytes(me, peer, batch));
                }
            }
            for (b, batch) in ranges.iter().enumerate() {
                for &peer in &peers {
                    plan.recv(me, peer, b as u64, pair_bytes(peer, me, batch));
                }
            }
        }
        plan.posted()
    }
}

/// One rank's side of a running transpose stage: `work` (its block of
/// `rep.src`) transformed batch by batch, `out` its block of `rep.dst`.
struct Stage<'a> {
    fft: &'a Pencil2D,
    rep: &'a Repartition,
    me: usize,
    ranges: Vec<Range<usize>>,
    out: Vec<Complex64>,
    work: &'a mut [Complex64],
    compute: StageCompute<'a>,
    computed: usize,
    timing: Option<&'a mut StageTimings>,
    /// When this rank last stopped working: a wait begins there.
    since: Instant,
}

impl Stage<'_> {
    /// Transform every batch before `end`, scattering each one's own packet.
    fn compute_to(&mut self, end: usize) {
        while self.computed < end {
            let (b, t0) = (self.computed, Instant::now());
            let batch = self.ranges[b].clone();
            (self.compute)(self.fft, self.work, batch.clone());
            let own = self
                .fft
                .gather(self.rep, self.me, self.me, batch.clone(), self.work);
            self.fft
                .scatter(self.rep, self.me, self.me, batch, &own, &mut self.out);
            self.hide(b, t0);
            self.computed += 1;
        }
    }

    /// Count the time since `t0` as hidden when it went to batch `b > 0`,
    /// which runs while earlier batches' packets are in flight.
    fn hide(&mut self, b: usize, t0: Instant) {
        if let Some(t) = self.timing.as_mut().filter(|_| b > 0) {
            t.hidden += t0.elapsed();
        }
    }
}

impl Exchange<Vec<f64>> for Stage<'_> {
    /// Batch `tag`'s packet for `peer`, as interleaved `re, im` values.
    fn outgoing(&mut self, peer: usize, tag: u64) -> Vec<f64> {
        let b = tag as usize;
        self.compute_to(b + 1);
        let t0 = Instant::now();
        let values = self
            .fft
            .gather(self.rep, self.me, peer, self.ranges[b].clone(), self.work);
        self.hide(b, t0);
        self.since = Instant::now();
        values
    }

    fn delivered(&mut self, peer: usize, tag: u64, values: Vec<f64>) {
        if let Some(t) = self.timing.as_mut() {
            t.exposed += self.since.elapsed();
        }
        let batch = self.ranges[tag as usize].clone();
        self.fft
            .scatter(self.rep, peer, self.me, batch, &values, &mut self.out);
        self.since = Instant::now();
    }
}

/// Split `extent` indices into at most `batches` near-equal contiguous
/// ranges (first `extent % batches` ranges one longer).
fn batch_ranges(extent: usize, batches: usize) -> Vec<Range<usize>> {
    let n = batches.min(extent).max(1);
    let base = extent / n;
    let rem = extent % n;
    let mut ranges = Vec::with_capacity(n);
    let mut start = 0;
    for b in 0..n {
        let len = base + usize::from(b < rem);
        ranges.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, extent);
    ranges
}

/// The slab transform, `Pencil2D::new(dims, P, 1)`: slab `[n0/P][n1][n2]`
/// in, row-transposed `[n1/P][n0][n2]` spectrum out.
///
/// Exists only because `benchmark/`'s `fft.dist_slab` probe names it; delete
/// it once that probe builds the `P × 1` [`Pencil2D`] itself.
#[derive(Debug, Clone)]
pub struct DistFft3(Pencil2D);

impl DistFft3 {
    pub fn new(dims: [usize; 3], n_ranks: usize) -> Self {
        Self(Pencil2D::new(dims, n_ranks, 1))
    }

    pub fn slab_len(&self) -> usize {
        self.0.zpencil_len()
    }

    pub fn forward(&self, comm: &Comm, local: &[Complex64], tag: u64) -> Vec<Complex64> {
        self.0.forward(comm, local, tag)
    }

    pub fn inverse(&self, comm: &Comm, spectrum: &[Complex64], tag: u64) -> Vec<Complex64> {
        self.0.inverse(comm, spectrum, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft3d::Fft3;
    use vlasov6d_mpisim::{PlanChecks, Universe};

    fn random_field(n: usize, seed: u64) -> Vec<Complex64> {
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        (0..n).map(|_| Complex64::new(next(), next())).collect()
    }

    fn scatter(plan: &Pencil2D, global: &[Complex64], rank: usize) -> Vec<Complex64> {
        let [_, n1, n2] = plan.dims();
        (0..plan.zpencil_len())
            .map(|flat| {
                let [i0, i1, i2] = layout::zpencil().coords(plan.dims(), plan.grid(), rank, flat);
                global[(i0 * n1 + i1) * n2 + i2]
            })
            .collect()
    }

    #[test]
    fn pencil_forward_matches_serial() {
        let dims = [8usize, 8, 8];
        let global = random_field(512, 3);
        let mut serial = global.clone();
        Fft3::new(dims).forward(&mut serial);
        for (rows, cols) in [
            (1usize, 1usize),
            (2, 1),
            (4, 1),
            (2, 2),
            (1, 4),
            (4, 2),
            (2, 4),
        ] {
            let global = global.clone();
            let serial = serial.clone();
            Universe::run(rows * cols, move |comm| {
                let plan = Pencil2D::new(dims, rows, cols);
                let local = scatter(&plan, &global, comm.rank());
                let spec = plan.forward(comm, &local, 100);
                for (flat, z) in spec.iter().enumerate() {
                    let [i0, i1, i2] =
                        layout::xpencil().coords(dims, plan.grid(), comm.rank(), flat);
                    let want = serial[(i0 * 8 + i1) * 8 + i2];
                    assert!(
                        (*z - want).abs() < 1e-9,
                        "{rows}x{cols} ({i0},{i1},{i2}): {z:?} vs {want:?}"
                    );
                }
            });
        }
    }

    #[test]
    fn pencil_round_trip_ragged() {
        let dims = [4usize, 12, 6];
        for (rows, cols) in [(2usize, 1usize), (4, 1), (2, 2), (4, 3), (2, 6)] {
            let global = random_field(4 * 12 * 6, 11);
            Universe::run(rows * cols, move |comm| {
                let plan = Pencil2D::new(dims, rows, cols).with_batches(2);
                let local = scatter(&plan, &global, comm.rank());
                let spec = plan.forward(comm, &local, 50);
                let back = plan.inverse(comm, &spec, 50 + plan.tag_span());
                for (a, b) in back.iter().zip(&local) {
                    assert!((*a - *b).abs() < 1e-10, "{rows}x{cols}");
                }
            });
        }
    }

    #[test]
    fn pencil_exceeds_slab_rank_cap() {
        // dims [4, 8, 4]: a P × 1 (slab) grid caps at min(n0, n1) = 4 ranks; the
        // pencil grid runs 8 = 4×2 ranks > n0.
        let dims = [4usize, 8, 4];
        let global = random_field(4 * 8 * 4, 17);
        let mut serial = global.clone();
        Fft3::new(dims).forward(&mut serial);
        Universe::run(8, move |comm| {
            let plan = Pencil2D::new(dims, 4, 2);
            let local = scatter(&plan, &global, comm.rank());
            let spec = plan.forward(comm, &local, 100);
            for (flat, z) in spec.iter().enumerate() {
                let [i0, i1, i2] = layout::xpencil().coords(dims, plan.grid(), comm.rank(), flat);
                let want = serial[(i0 * 8 + i1) * 4 + i2];
                assert!((*z - want).abs() < 1e-9);
            }
            let back = plan.inverse(comm, &spec, 200);
            for (a, b) in back.iter().zip(&local) {
                assert!((*a - *b).abs() < 1e-10);
            }
        });
    }

    #[test]
    fn batch_count_does_not_change_bits() {
        let dims = [8usize, 8, 8];
        let global = random_field(512, 23);
        let mut reference: Vec<Vec<Complex64>> = Vec::new();
        for batches in [1usize, 2, 4] {
            let global = global.clone();
            let specs = Universe::run(4, move |comm| {
                let plan = Pencil2D::new(dims, 2, 2).with_batches(batches);
                let local = scatter(&plan, &global, comm.rank());
                plan.forward(comm, &local, 300)
            });
            if reference.is_empty() {
                reference = specs;
            } else {
                for (r, s) in reference.iter().zip(&specs) {
                    for (a, b) in r.iter().zip(s.iter()) {
                        assert!(
                            a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                            "batch pipelining changed bits at {batches} batches"
                        );
                    }
                }
            }
        }
    }

    /// One forward transform's transposes, composed from the stage programs.
    fn forward_plan(fft: &Pencil2D, tag: u64) -> CommPlan {
        let mut plan = CommPlan::new("fft.pencil.forward", fft.n_ranks());
        fft.add_forward(&mut plan, tag);
        plan
    }

    #[test]
    fn transpose_plan_verifies_and_counts_bytes() {
        let plan = Pencil2D::new([8, 8, 8], 2, 2).with_batches(2);
        let stats = forward_plan(&plan, 10).assert_valid(&PlanChecks {
            topology: None,
            volume_symmetry: true,
        });
        // Stage 1: each rank → 1 col peer, 2 batches; stage 2 likewise.
        // 4 ranks × 2 stages × 1 peer × 2 batches = 16 isends.
        assert_eq!(stats.sends, 16);
        assert_eq!(stats.recvs, 16);
        // Stage-1 pair: (8/2)·(8/2)·(8/2) complex = 1024 B over 2 batches;
        // stage-2 pair the same by symmetry at this cube.
        assert_eq!(stats.bytes, 16 * 512);
        // Forward + inverse under disjoint tags compose.
        let mut both = forward_plan(&plan, 20);
        plan.add_inverse(&mut both, 20 + plan.tag_span());
        both.verify().expect("disjoint tag windows compose");
        // Different peer groups → no tag clash between stages at 2x2; the
        // live collision comes from reusing the window within a stage.
        let mut collide = CommPlan::new("fft.pencil.collide", 4);
        collide
            .append(&plan.stages[0].1, 40)
            .append(&plan.stages[1].1, 40);
        collide.verify().expect("cross-group tags do not clash");
        let mut same = CommPlan::new("fft.pencil.same", 4);
        same.append(&plan.stages[0].1, 60)
            .append(&plan.stages[0].1, 60);
        same.verify().unwrap_err();

        // On a P × 1 grid stage 1 never leaves the rank and stage 2 is the
        // slab transpose: every directed pair carries
        // `(n0/P)·(n1/P)·n2` complex values, split over the batches — pinned
        // across ragged (non-square, non-power-of-two) shapes.
        for (dims, p) in [
            ([8usize, 8, 8], 4usize),
            ([4, 12, 6], 2),
            ([12, 4, 10], 4),
            ([6, 6, 2], 3),
            ([10, 30, 7], 5),
        ] {
            let mut per_pair = std::collections::HashMap::new();
            for (src, dst, _, bytes) in forward_plan(&Pencil2D::new(dims, p, 1), 5).send_edges() {
                *per_pair.entry((src, dst)).or_insert(0) += bytes;
            }
            let slab = (dims[0] / p * (dims[1] / p) * dims[2] * 16) as u64;
            assert_eq!(per_pair.len(), p * (p - 1), "dims {dims:?} × {p}");
            assert!(per_pair.values().all(|&b| b == slab), "dims {dims:?} × {p}");
        }
    }

    #[test]
    fn a_stage_of_one_rank_still_transforms_every_batch() {
        // Stage 1 of a P × 1 grid stays on the rank: its plan asks for no
        // packet, and every batch is still transformed and scattered.
        let dims = [4usize, 4, 4];
        let global = random_field(64, 29);
        let mut serial = global.clone();
        Fft3::new(dims).forward(&mut serial);
        for batches in [1usize, 2, 4] {
            let (global, serial) = (global.clone(), serial.clone());
            Universe::run(2, move |comm| {
                let plan = Pencil2D::new(dims, 2, 1).with_batches(batches);
                assert!(plan.stages[0].1.program(comm.rank()).is_empty());
                let spec = plan.forward(comm, &scatter(&plan, &global, comm.rank()), 0);
                for (flat, z) in spec.iter().enumerate() {
                    let [i0, i1, i2] =
                        layout::xpencil().coords(dims, plan.grid(), comm.rank(), flat);
                    assert!(
                        (*z - serial[(i0 * 4 + i1) * 4 + i2]).abs() < 1e-9,
                        "×{batches}"
                    );
                }
            });
        }
    }

    #[test]
    fn spectral_and_zpencil_owners_round_trip() {
        // The blocks the transform reads and returns are the maps' blocks:
        // same length, and every (rank, flat) slot names one global
        // coordinate whose owner is that slot.
        for (rows, cols) in [(2, 3), (4, 1)] {
            let plan = Pencil2D::new([4, 12, 6], rows, cols);
            let (dims, grid) = (plan.dims(), plan.grid());
            for (map, len) in [
                (layout::xpencil(), plan.spectral_len()),
                (layout::zpencil(), plan.zpencil_len()),
            ] {
                assert_eq!(map.local_len(dims, grid), len, "{}", map.name);
                for rank in 0..plan.n_ranks() {
                    for flat in 0..len {
                        let c = map.coords(dims, grid, rank, flat);
                        assert_eq!(map.owner(dims, grid, c), (rank, flat), "{}", map.name);
                    }
                }
            }
        }
    }

    #[test]
    fn packets_carry_the_planned_elements_and_tile_each_block() {
        // The packets `run_stage` moves are the plan's bytes: for every
        // registered stage, every shape of layoutcheck's
        // `registry::sample_shapes` and 1–3 batches, the
        // packet `s` builds for `d` holds `pair_elems / batch_extent ·
        // batch.len()` elements (what `stage_plan` declares), and one
        // sender's packets cover its block exactly once.
        let shapes = [
            ([4usize, 4, 4], 2usize, 2usize),
            ([2, 6, 8], 2, 2),
            ([4, 12, 6], 2, 3),
            ([3, 15, 5], 3, 5),
            ([4, 8, 4], 4, 2),
            ([8, 8, 8], 4, 1),
            ([4, 12, 6], 2, 1),
            ([2, 2, 5], 2, 1),
            ([3, 9, 7], 3, 1),
            ([10, 5, 3], 5, 1),
        ];
        for (dims, rows, cols) in shapes {
            for batches in [1, 2, 3] {
                let plan = Pencil2D::new(dims, rows, cols).with_batches(batches);
                let grid = plan.grid();
                for rep in layout::pencil_stages() {
                    let ranges = plan.stage_batches(&rep);
                    let extent = rep.src.local_extents(dims, grid)[rep.batch_axis()];
                    let len = rep.src.local_len(dims, grid);
                    for s in 0..grid.n_ranks() {
                        let mut hits = vec![0u32; len];
                        for d in grid.group(s, rep.peer_axis()) {
                            let pair = rep.pair_elems(dims, grid, s, d);
                            for batch in &ranges {
                                let packet = rep.packet(dims, grid, s, d, batch.clone());
                                assert_eq!(
                                    packet.len(),
                                    pair / extent * batch.len(),
                                    "{} {dims:?} {rows}x{cols} ×{batches}: {s} → {d}",
                                    rep.name
                                );
                                packet.for_each_index(&rep.src, dims, grid, s, |i| hits[i] += 1);
                            }
                        }
                        assert!(
                            hits.iter().all(|&h| h == 1),
                            "{} {dims:?} {rows}x{cols} ×{batches}: rank {s}'s block not tiled once",
                            rep.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "pencil FFT needs")]
    fn indivisible_grid_rejected() {
        let _ = Pencil2D::new([4, 6, 4], 4, 2);
    }
}
