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
//! Both stages run split-phase (`irecv`s posted up front, per-batch `isend`s,
//! waits at the end) and are **overlapped** with the local 1-D FFT work the
//! way the ghost-plane exchange overlaps interior advection: the local planes
//! are cut into batches, and while batch `b`'s packets are in flight the FFT
//! and packing of batch `b+1` proceed. The pipeline is bitwise-deterministic:
//! every element is transformed by the same [`FftPlan`] on the same line
//! regardless of the batch count, and pack/unpack move values without
//! arithmetic.
//!
//! All five layouts and all four repartitions are registered in
//! [`crate::layout`]; plan byte accounting below is derived from
//! [`layout::Repartition::pair_elems`], and `vlasov6d-layoutcheck` proves the
//! maps bijective, diffs them against the pack/unpack loops, and probes the
//! live exchange with sentinel values.

use std::ops::Range;
use std::time::{Duration, Instant};

use crate::complex::Complex64;
use crate::layout::{self, GridAxis, RankGrid, Repartition};
use crate::plan::FftPlan;
use vlasov6d_mpisim::{Comm, CommPlan};

/// Per-stage overlap measurement (filled by the `*_timed` entry points).
#[derive(Debug, Default, Clone, Copy)]
pub struct StageTimings {
    /// Compute + packing time that ran while this stage's packets were
    /// already in flight — communication the pipeline hid.
    pub hidden: Duration,
    /// Time blocked in `wait` for this stage's packets — communication the
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
}

impl Pencil2D {
    pub fn new(dims: [usize; 3], rows: usize, cols: usize) -> Self {
        assert!(rows >= 1 && cols >= 1);
        assert!(
            dims[0] % rows == 0
                && dims[1] % rows == 0
                && dims[1] % cols == 0
                && dims[2] % cols == 0,
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
            batches: 2,
        }
    }

    /// Override the pipeline batch count (clamped per stage to the batch
    /// axis extent). More batches → finer overlap, more smaller messages.
    pub fn with_batches(mut self, batches: usize) -> Self {
        assert!(batches >= 1);
        self.batches = batches;
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

    /// Planes per rank along axis 0 (`n0 / Pr`).
    pub fn b0(&self) -> usize {
        self.dims[0] / self.grid.rows
    }

    /// Rows per rank along axis 1 in the z-pencil (`n1 / Pc`).
    pub fn b1(&self) -> usize {
        self.dims[1] / self.grid.cols
    }

    /// Rows per rank along axis 1 in the x-pencil (`n1 / Pr`).
    pub fn r1(&self) -> usize {
        self.dims[1] / self.grid.rows
    }

    /// Depth per rank along axis 2 in the y/x pencils (`n2 / Pc`).
    pub fn c2(&self) -> usize {
        self.dims[2] / self.grid.cols
    }

    /// Local input (z-pencil) length in complex elements.
    pub fn zpencil_len(&self) -> usize {
        self.b0() * self.b1() * self.dims[2]
    }

    /// Local mid-stage (y-pencil) length in complex elements.
    pub fn ypencil_len(&self) -> usize {
        self.b0() * self.dims[1] * self.c2()
    }

    /// Local spectral (x-pencil) length in complex elements.
    pub fn spectral_len(&self) -> usize {
        self.r1() * self.dims[0] * self.c2()
    }

    /// Tags consumed by one `forward` or `inverse` call starting at `tag`
    /// (one tag per stage per batch).
    pub fn tag_span(&self) -> u64 {
        2 * self.batches as u64
    }

    /// Global `[i0, i1, i2]` of a flat index in this rank's z-pencil block.
    pub fn zpencil_coords(&self, rank: usize, flat: usize) -> [usize; 3] {
        let (pr, pc) = self.grid.coords_of(rank);
        let n2 = self.dims[2];
        let b1 = self.b1();
        let i2 = flat % n2;
        let i1l = (flat / n2) % b1;
        let i0l = flat / (n2 * b1);
        [pr * self.b0() + i0l, pc * b1 + i1l, i2]
    }

    /// Inverse of [`Self::zpencil_coords`].
    pub fn zpencil_owner(&self, coords: [usize; 3]) -> (usize, usize) {
        let [i0, i1, i2] = coords;
        let n2 = self.dims[2];
        let (b0, b1) = (self.b0(), self.b1());
        let rank = self.grid.rank_of(i0 / b0, i1 / b1);
        (rank, ((i0 % b0) * b1 + (i1 % b1)) * n2 + i2)
    }

    /// Global `(i1, i0, i2)` triple of a flat index in this rank's spectral
    /// (x-pencil) block, in storage order: owned `i1` rows slowest — for
    /// applying k-space multipliers.
    pub fn spectral_coords(&self, rank: usize, flat: usize) -> [usize; 3] {
        let (pr, pc) = self.grid.coords_of(rank);
        let n0 = self.dims[0];
        let c2 = self.c2();
        let i2l = flat % c2;
        let i0 = (flat / c2) % n0;
        let i1l = flat / (c2 * n0);
        [pr * self.r1() + i1l, i0, pc * c2 + i2l]
    }

    /// Inverse of [`Self::spectral_coords`].
    pub fn spectral_owner(&self, coords: [usize; 3]) -> (usize, usize) {
        let [i1, i0, i2] = coords;
        let n0 = self.dims[0];
        let (r1, c2) = (self.r1(), self.c2());
        let rank = self.grid.rank_of(i1 / r1, i2 / c2);
        (rank, ((i1 % r1) * n0 + i0) * c2 + (i2 % c2))
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
        let (b0, b1, c2, n1) = (self.b0(), self.b1(), self.c2(), self.dims[1]);
        let n2 = self.dims[2];

        // Stage 1: axis-2 FFT per batch of i0 planes, overlapped with the
        // z→y all-to-all within the row group.
        let mut y = self.run_stage(
            comm,
            tag,
            GridAxis::Col,
            b0,
            &mut work,
            self.ypencil_len(),
            &mut |slf: &Self, w: &mut [Complex64], planes: Range<usize>| {
                for line in w[planes.start * b1 * n2..planes.end * b1 * n2].chunks_mut(n2) {
                    slf.plans[2].forward(line);
                }
            },
            Self::pack_stage1,
            Self::unpack_stage1,
            timings.as_deref_mut().map(|t| &mut t.stage1),
        );

        // Stage 2: axis-1 FFT per batch of i0 planes, overlapped with the
        // y→x all-to-all within the column group.
        let mut buf1 = vec![Complex64::ZERO; n1];
        let mut x = self.run_stage(
            comm,
            tag + self.batches as u64,
            GridAxis::Row,
            b0,
            &mut y,
            self.spectral_len(),
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
            Self::pack_stage2,
            Self::unpack_stage2,
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
        let (b0, c2, r1) = (self.b0(), self.c2(), self.r1());

        // Stage 2 reversed: inverse axis-0 FFT per batch of i1 rows
        // (unscaled via conj), overlapped with the x→y all-to-all.
        let mut buf0 = vec![Complex64::ZERO; n0];
        let mut y = self.run_stage(
            comm,
            tag,
            GridAxis::Row,
            r1,
            &mut work,
            self.ypencil_len(),
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
            Self::pack_stage2_inv,
            Self::unpack_stage2_inv,
            timings.as_deref_mut().map(|t| &mut t.stage2),
        );

        // Stage 1 reversed: inverse axis-1 FFT per batch of i0 planes,
        // overlapped with the y→z all-to-all.
        let mut buf1 = vec![Complex64::ZERO; n1];
        let mut z = self.run_stage(
            comm,
            tag + self.batches as u64,
            GridAxis::Col,
            b0,
            &mut y,
            self.zpencil_len(),
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
            Self::pack_stage1_inv,
            Self::unpack_stage1_inv,
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

    // -- split-phase batched exchange driver --------------------------------
}

/// The per-batch local FFT pass a stage interleaves with its exchange.
type StageCompute<'a> = &'a mut dyn FnMut(&Pencil2D, &mut [Complex64], Range<usize>);

impl Pencil2D {
    /// Run one transpose stage: `irecv`s for every (peer, batch) posted up
    /// front; per batch, `compute` transforms the batch in `work`, then the
    /// batch is packed and `isend`-ed to each group peer; waits drain at the
    /// end, so later batches' compute hides earlier batches' traffic. The
    /// self-packet never touches the network.
    #[allow(clippy::too_many_arguments)]
    fn run_stage(
        &self,
        comm: &Comm,
        tag_base: u64,
        peer_axis: GridAxis,
        batch_extent: usize,
        work: &mut [Complex64],
        out_len: usize,
        compute: StageCompute<'_>,
        pack: fn(&Self, &[Complex64], usize, Range<usize>) -> Vec<f64>,
        unpack: fn(&Self, &mut [Complex64], usize, Range<usize>, &[f64]),
        timing: Option<&mut StageTimings>,
    ) -> Vec<Complex64> {
        let me = comm.rank();
        let my_digit = self.grid.digit(me, peer_axis);
        let group = self.grid.extent(peer_axis);
        let peer_rank = |q: usize| match peer_axis {
            GridAxis::Col => self.grid.rank_of(self.grid.coords_of(me).0, q),
            GridAxis::Row => self.grid.rank_of(q, self.grid.coords_of(me).1),
        };
        let ranges = batch_ranges(batch_extent, self.batches);
        let mut out = vec![Complex64::ZERO; out_len];
        let mut timer = timing;

        // Post every receive before any compute or send.
        let mut recvs: Vec<Vec<(usize, vlasov6d_mpisim::RecvRequest<'_, Vec<f64>>)>> = ranges
            .iter()
            .enumerate()
            .map(|(b, _)| {
                (0..group)
                    .filter(|&q| q != my_digit)
                    .map(|q| (q, comm.irecv(peer_rank(q), tag_base + b as u64)))
                    .collect()
            })
            .collect();

        let mut sends = Vec::new();
        let mut in_flight = false;
        for (b, planes) in ranges.iter().enumerate() {
            let t0 = Instant::now();
            compute(self, work, planes.clone());
            for q in 0..group {
                let pkt = pack(self, work, q, planes.clone());
                if q == my_digit {
                    unpack(self, &mut out, q, planes.clone(), &pkt);
                } else {
                    sends.push(comm.isend(peer_rank(q), tag_base + b as u64, pkt));
                }
            }
            if in_flight {
                if let Some(t) = timer.as_mut() {
                    t.hidden += t0.elapsed();
                }
            }
            in_flight = true;
        }

        for (b, batch_recvs) in recvs.drain(..).enumerate() {
            for (q, req) in batch_recvs {
                let t0 = Instant::now();
                let pkt = req.wait();
                if let Some(t) = timer.as_mut() {
                    t.exposed += t0.elapsed();
                }
                unpack(self, &mut out, q, ranges[b].clone(), &pkt);
            }
        }
        for s in sends {
            s.wait();
        }
        out
    }

    // -- pack/unpack: the index-permutation layer, one pair per registered
    //    repartition. Loop order is (batch axis, row, depth) on both sides so
    //    packet offsets agree by construction. ----------------------------

    /// Pack the z-pencil batch for column-group peer `qc`: my `i1` block,
    /// peer's `i2` block.
    ///
    /// [layoutcheck: fft.pencil.stage1]
    fn pack_stage1(&self, work: &[Complex64], qc: usize, planes: Range<usize>) -> Vec<f64> {
        let (b1, c2, n2) = (self.b1(), self.c2(), self.dims[2]);
        let mut pkt = Vec::with_capacity(planes.len() * b1 * c2 * 2);
        for i0l in planes {
            for i1l in 0..b1 {
                for i2l in 0..c2 {
                    let z = work[(i0l * b1 + i1l) * n2 + qc * c2 + i2l];
                    pkt.push(z.re);
                    pkt.push(z.im);
                }
            }
        }
        pkt
    }

    /// Unpack a stage-1 packet from column-group peer `qs` into the
    /// y-pencil: its `i1` block of my planes.
    ///
    /// [layoutcheck: fft.pencil.stage1]
    fn unpack_stage1(&self, y: &mut [Complex64], qs: usize, planes: Range<usize>, pkt: &[f64]) {
        let (b1, c2, n1) = (self.b1(), self.c2(), self.dims[1]);
        let mut c = 0;
        for i0l in planes {
            for i1l in 0..b1 {
                for i2l in 0..c2 {
                    y[(i0l * n1 + qs * b1 + i1l) * c2 + i2l] = Complex64::new(pkt[c], pkt[c + 1]);
                    c += 2;
                }
            }
        }
    }

    /// Pack the y-pencil batch for row-group peer `qr`: its `i1` block of my
    /// planes.
    ///
    /// [layoutcheck: fft.pencil.stage2]
    fn pack_stage2(&self, work: &[Complex64], qr: usize, planes: Range<usize>) -> Vec<f64> {
        let (r1, c2, n1) = (self.r1(), self.c2(), self.dims[1]);
        let mut pkt = Vec::with_capacity(planes.len() * r1 * c2 * 2);
        for i0l in planes {
            for i1l in 0..r1 {
                for i2l in 0..c2 {
                    let z = work[(i0l * n1 + qr * r1 + i1l) * c2 + i2l];
                    pkt.push(z.re);
                    pkt.push(z.im);
                }
            }
        }
        pkt
    }

    /// Unpack a stage-2 packet from row-group peer `qs` into the x-pencil:
    /// its `i0` planes of my `i1` rows.
    ///
    /// [layoutcheck: fft.pencil.stage2]
    fn unpack_stage2(&self, x: &mut [Complex64], qs: usize, planes: Range<usize>, pkt: &[f64]) {
        let (r1, c2, n0, b0) = (self.r1(), self.c2(), self.dims[0], self.b0());
        let mut c = 0;
        for i0l in planes {
            for i1l in 0..r1 {
                for i2l in 0..c2 {
                    x[(i1l * n0 + qs * b0 + i0l) * c2 + i2l] = Complex64::new(pkt[c], pkt[c + 1]);
                    c += 2;
                }
            }
        }
    }

    /// Pack the x-pencil batch (rows of `i1`) for row-group peer `qr`: its
    /// `i0` block of my rows.
    ///
    /// [layoutcheck: fft.pencil.stage2.inv]
    fn pack_stage2_inv(&self, work: &[Complex64], qr: usize, rows: Range<usize>) -> Vec<f64> {
        let (b0, c2, n0) = (self.b0(), self.c2(), self.dims[0]);
        let mut pkt = Vec::with_capacity(rows.len() * b0 * c2 * 2);
        for i1l in rows {
            for i0l in 0..b0 {
                for i2l in 0..c2 {
                    let z = work[(i1l * n0 + qr * b0 + i0l) * c2 + i2l];
                    pkt.push(z.re);
                    pkt.push(z.im);
                }
            }
        }
        pkt
    }

    /// Unpack a reversed stage-2 packet from row-group peer `qs` into the
    /// y-pencil: its `i1` rows of my planes.
    ///
    /// [layoutcheck: fft.pencil.stage2.inv]
    fn unpack_stage2_inv(&self, y: &mut [Complex64], qs: usize, rows: Range<usize>, pkt: &[f64]) {
        let (b0, c2, n1, r1) = (self.b0(), self.c2(), self.dims[1], self.r1());
        let mut c = 0;
        for i1l in rows {
            for i0l in 0..b0 {
                for i2l in 0..c2 {
                    y[(i0l * n1 + qs * r1 + i1l) * c2 + i2l] = Complex64::new(pkt[c], pkt[c + 1]);
                    c += 2;
                }
            }
        }
    }

    /// Pack the y-pencil batch for column-group peer `qc`: its `i1` block of
    /// my planes.
    ///
    /// [layoutcheck: fft.pencil.stage1.inv]
    fn pack_stage1_inv(&self, work: &[Complex64], qc: usize, planes: Range<usize>) -> Vec<f64> {
        let (b1, c2, n1) = (self.b1(), self.c2(), self.dims[1]);
        let mut pkt = Vec::with_capacity(planes.len() * b1 * c2 * 2);
        for i0l in planes {
            for i1l in 0..b1 {
                for i2l in 0..c2 {
                    let z = work[(i0l * n1 + qc * b1 + i1l) * c2 + i2l];
                    pkt.push(z.re);
                    pkt.push(z.im);
                }
            }
        }
        pkt
    }

    /// Unpack a reversed stage-1 packet from column-group peer `qs` into the
    /// z-pencil: its `i2` block of my planes and rows.
    ///
    /// [layoutcheck: fft.pencil.stage1.inv]
    fn unpack_stage1_inv(&self, z: &mut [Complex64], qs: usize, planes: Range<usize>, pkt: &[f64]) {
        let (b1, c2, n2) = (self.b1(), self.c2(), self.dims[2]);
        let mut c = 0;
        for i0l in planes {
            for i1l in 0..b1 {
                for i2l in 0..c2 {
                    z[(i0l * b1 + i1l) * n2 + qs * c2 + i2l] = Complex64::new(pkt[c], pkt[c + 1]);
                    c += 2;
                }
            }
        }
    }

    // -- transpose-only entry points (layoutcheck probes, tests) ------------

    /// Run the stage-1 (z→y) repartition alone, no FFTs — the live exchange
    /// layoutcheck's sentinel probes drive.
    ///
    /// [layoutcheck: fft.pencil.stage1]
    pub fn repartition_stage1(&self, comm: &Comm, z: &[Complex64], tag: u64) -> Vec<Complex64> {
        assert_eq!(z.len(), self.zpencil_len());
        let mut work = z.to_vec();
        self.run_stage(
            comm,
            tag,
            GridAxis::Col,
            self.b0(),
            &mut work,
            self.ypencil_len(),
            &mut |_, _, _| {},
            Self::pack_stage1,
            Self::unpack_stage1,
            None,
        )
    }

    /// Run the stage-2 (y→x) repartition alone, no FFTs.
    ///
    /// [layoutcheck: fft.pencil.stage2]
    pub fn repartition_stage2(&self, comm: &Comm, y: &[Complex64], tag: u64) -> Vec<Complex64> {
        assert_eq!(y.len(), self.ypencil_len());
        let mut work = y.to_vec();
        self.run_stage(
            comm,
            tag,
            GridAxis::Row,
            self.b0(),
            &mut work,
            self.spectral_len(),
            &mut |_, _, _| {},
            Self::pack_stage2,
            Self::unpack_stage2,
            None,
        )
    }

    /// Run the reversed stage-2 (x→y) repartition alone, no FFTs.
    ///
    /// [layoutcheck: fft.pencil.stage2.inv]
    pub fn repartition_stage2_inv(&self, comm: &Comm, x: &[Complex64], tag: u64) -> Vec<Complex64> {
        assert_eq!(x.len(), self.spectral_len());
        let mut work = x.to_vec();
        self.run_stage(
            comm,
            tag,
            GridAxis::Row,
            self.r1(),
            &mut work,
            self.ypencil_len(),
            &mut |_, _, _| {},
            Self::pack_stage2_inv,
            Self::unpack_stage2_inv,
            None,
        )
    }

    /// Run the reversed stage-1 (y→z) repartition alone, no FFTs.
    ///
    /// [layoutcheck: fft.pencil.stage1.inv]
    pub fn repartition_stage1_inv(&self, comm: &Comm, y: &[Complex64], tag: u64) -> Vec<Complex64> {
        assert_eq!(y.len(), self.ypencil_len());
        let mut work = y.to_vec();
        self.run_stage(
            comm,
            tag + self.batches as u64,
            GridAxis::Col,
            self.b0(),
            &mut work,
            self.zpencil_len(),
            &mut |_, _, _| {},
            Self::pack_stage1_inv,
            Self::unpack_stage1_inv,
            None,
        )
    }

    // -- declarative communication plans ------------------------------------

    /// Plan of one forward transform's two transpose stages under `tag`
    /// (stage 1 at `tag + batch`, stage 2 at `tag + batches + batch`).
    ///
    /// [layoutcheck: fft.pencil.stage1, fft.pencil.stage2]
    pub fn transpose_plan(&self, tag: u64) -> CommPlan {
        let mut plan = CommPlan::new("fft.pencil.transpose", self.n_ranks());
        self.add_forward(&mut plan, tag);
        plan
    }

    /// Append the forward transform's exchanges to an existing plan.
    ///
    /// [layoutcheck: fft.pencil.stage1, fft.pencil.stage2]
    pub fn add_forward(&self, plan: &mut CommPlan, tag: u64) {
        self.add_stage(
            plan,
            &layout::pencil_stage1(),
            GridAxis::Col,
            self.b0(),
            tag,
        );
        self.add_stage(
            plan,
            &layout::pencil_stage2(),
            GridAxis::Row,
            self.b0(),
            tag + self.batches as u64,
        );
    }

    /// Append the inverse transform's exchanges to an existing plan.
    ///
    /// [layoutcheck: fft.pencil.stage2.inv, fft.pencil.stage1.inv]
    pub fn add_inverse(&self, plan: &mut CommPlan, tag: u64) {
        self.add_stage(
            plan,
            &layout::pencil_stage2_inv(),
            GridAxis::Row,
            self.r1(),
            tag,
        );
        self.add_stage(
            plan,
            &layout::pencil_stage1_inv(),
            GridAxis::Col,
            self.b0(),
            tag + self.batches as u64,
        );
    }

    /// One stage's split-phase ops, mirroring `run_stage`'s order exactly:
    /// all irecvs, per-batch isends, recv waits, send waits. Bytes are
    /// derived from the registered layout model's per-pair intersection and
    /// split across batches along the stage's batch axis.
    ///
    /// [layoutcheck: fft.pencil.stage1, fft.pencil.stage2, fft.pencil.stage2.inv, fft.pencil.stage1.inv]
    fn add_stage(
        &self,
        plan: &mut CommPlan,
        rep: &Repartition,
        peer_axis: GridAxis,
        batch_extent: usize,
        tag_base: u64,
    ) {
        assert_eq!(plan.n_ranks(), self.n_ranks());
        let ranges = batch_ranges(batch_extent, self.batches);
        let pair_bytes = |s: usize, d: usize, planes: &Range<usize>| -> u64 {
            let total = rep.pair_elems(self.dims, self.grid, s, d);
            debug_assert_eq!(total % batch_extent, 0);
            (total / batch_extent * planes.len() * 2 * std::mem::size_of::<f64>()) as u64
        };
        for me in 0..self.n_ranks() {
            let my_digit = self.grid.digit(me, peer_axis);
            let group = self.grid.extent(peer_axis);
            let peer_rank = |q: usize| match peer_axis {
                GridAxis::Col => self.grid.rank_of(self.grid.coords_of(me).0, q),
                GridAxis::Row => self.grid.rank_of(q, self.grid.coords_of(me).1),
            };
            let peers: Vec<usize> = (0..group).filter(|&q| q != my_digit).collect();
            for (b, planes) in ranges.iter().enumerate() {
                for &q in &peers {
                    plan.irecv(
                        me,
                        peer_rank(q),
                        tag_base + b as u64,
                        pair_bytes(peer_rank(q), me, planes),
                    );
                }
            }
            for (b, planes) in ranges.iter().enumerate() {
                for &q in &peers {
                    plan.isend(
                        me,
                        peer_rank(q),
                        tag_base + b as u64,
                        pair_bytes(me, peer_rank(q), planes),
                    );
                }
            }
            for (b, _) in ranges.iter().enumerate() {
                for &q in &peers {
                    plan.wait_recv(me, peer_rank(q), tag_base + b as u64);
                }
            }
            for (b, _) in ranges.iter().enumerate() {
                for &q in &peers {
                    plan.wait_send(me, peer_rank(q), tag_base + b as u64);
                }
            }
        }
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
                let [i0, i1, i2] = plan.zpencil_coords(rank, flat);
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
                    let [i1, i0, i2] = plan.spectral_coords(comm.rank(), flat);
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
                let [i1, i0, i2] = plan.spectral_coords(comm.rank(), flat);
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

    #[test]
    fn transpose_plan_verifies_and_counts_bytes() {
        let plan = Pencil2D::new([8, 8, 8], 2, 2).with_batches(2);
        let stats = plan.transpose_plan(10).assert_valid(&PlanChecks {
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
        let mut both = plan.transpose_plan(20);
        plan.add_inverse(&mut both, 20 + plan.tag_span());
        both.verify().expect("disjoint tag windows compose");
        // A stage-2 window colliding with stage 1 must be rejected.
        let mut collide = CommPlan::new("fft.pencil.collide", 4);
        plan.add_stage(
            &mut collide,
            &layout::pencil_stage1(),
            GridAxis::Col,
            plan.b0(),
            40,
        );
        plan.add_stage(
            &mut collide,
            &layout::pencil_stage2(),
            GridAxis::Row,
            plan.b0(),
            40,
        );
        // Different peer groups → no tag clash between stages at 2x2; the
        // live collision comes from reusing the window within a stage.
        collide.verify().expect("cross-group tags do not clash");
        let mut same = CommPlan::new("fft.pencil.same", 4);
        plan.add_stage(
            &mut same,
            &layout::pencil_stage1(),
            GridAxis::Col,
            plan.b0(),
            60,
        );
        plan.add_stage(
            &mut same,
            &layout::pencil_stage1(),
            GridAxis::Col,
            plan.b0(),
            60,
        );
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
            for (src, dst, _, bytes) in Pencil2D::new(dims, p, 1).transpose_plan(5).send_edges() {
                *per_pair.entry((src, dst)).or_insert(0) += bytes;
            }
            let slab = (dims[0] / p * (dims[1] / p) * dims[2] * 16) as u64;
            assert_eq!(per_pair.len(), p * (p - 1), "dims {dims:?} × {p}");
            assert!(per_pair.values().all(|&b| b == slab), "dims {dims:?} × {p}");
        }
    }

    #[test]
    fn spectral_and_zpencil_owners_round_trip() {
        for (rows, cols) in [(2, 3), (4, 1)] {
            let plan = Pencil2D::new([4, 12, 6], rows, cols);
            for rank in 0..plan.n_ranks() {
                for flat in 0..plan.spectral_len() {
                    let c = plan.spectral_coords(rank, flat);
                    assert_eq!(plan.spectral_owner(c), (rank, flat));
                }
                for flat in 0..plan.zpencil_len() {
                    let c = plan.zpencil_coords(rank, flat);
                    assert_eq!(plan.zpencil_owner(c), (rank, flat));
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
