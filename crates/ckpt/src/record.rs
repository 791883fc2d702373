//! Typed checkpoint records and their wire format.
//!
//! A [`Record`] is one logical piece of simulation state — the local
//! distribution-function block, the N-body particle set, a field mesh, the
//! stepper's scalar state, or the obs run report. On the wire a record is a
//! small *head* chunk followed by payload chunks (chunk framing and CRCs are
//! the container's, see [`crate::container`]):
//!
//! ```text
//! head     kind: u8        (which Record variant)
//!          enc:  u8        (codec::Encoding of the payload chunks)
//!          meta            (kind-specific shape data, fixed-width little-endian)
//!          raw_len: u64    (payload size before encoding)
//!          chunk_raw: u64  (raw bytes each payload chunk but the last decodes to)
//! payload  ceil(raw_len / chunk_raw) chunks, each `chunk_raw` raw bytes
//!          (the last one the remainder) encoded on its own
//! ```
//!
//! Everything the head states is known before the first payload byte is
//! produced, so a writer never seeks back, and a reader can check the shape
//! against `raw_len` — and `raw_len` against the bytes the file still holds
//! — before it allocates the destination. A [`RecordRef`] borrows the
//! simulation's own storage: the writer serialises one chunk of values at a
//! time out of it, and the reader decodes one chunk at a time into the
//! destination record's storage; no stage holds a second record-sized
//! buffer.
//!
//! All floating-point values travel as raw IEEE-754 bit patterns
//! (`to_le_bytes`/`from_le_bytes`), so round-trips are bitwise exact —
//! including NaN payloads — which is what the resume-determinism guarantee
//! rests on. Decoding is strict: every error carries its byte offset, and
//! trailing bytes are corruption, not slack.

use crate::codec::Encoding;
use crate::container::{FrameWalker, FrameWriter, DEFAULT_CHUNK_LEN};
use crate::{corrupt, CkptError};
use vlasov6d_mesh::Field3;
use vlasov6d_nbody::ParticleSet;
use vlasov6d_phase_space::{PhaseSpace, VelocityGrid};

/// Wire kind tags. Never reuse a retired value.
const KIND_PHASE_SPACE: u8 = 1;
const KIND_PARTICLES: u8 = 2;
const KIND_FIELD_MESH: u8 = 3;
const KIND_SIM_STATE: u8 = 4;
const KIND_RUN_REPORT: u8 = 5;

/// Longest accepted field-mesh name; anything bigger is treated as a
/// corrupted length prefix, not a real name.
const MAX_NAME_LEN: usize = 4096;

/// Upper bound on the head chunk of any record kind. (Phase-space meta is
/// the largest fixed head at 2 + 13·8 bytes; field-mesh names can stretch to
/// [`MAX_NAME_LEN`], which dominates.)
pub(crate) const HEAD_MAX_LEN: usize = 2 + 4 + MAX_NAME_LEN + 3 * 8 + 2 * 8;

/// Scalar stepper state needed for a bitwise-deterministic resume.
///
/// Floating-point members are stored as plain `f64` here but serialised as
/// raw bit patterns, so restore is exact. `scheme` is the advection scheme
/// as its wire byte — the `vlasov6d` core maps it to/from its `Scheme` enum
/// so this crate stays independent of the advection stack.
#[derive(Debug, Clone, PartialEq)]
pub struct SimState {
    /// Completed step count at checkpoint time.
    pub step: u64,
    /// Next value of the distributed driver's message-tag counter.
    pub tag_counter: u64,
    /// Scale factor `a`.
    pub a: f64,
    /// Matter density parameter of the evolving component.
    pub omega_component: f64,
    /// Spatial CFL number.
    pub cfl_spatial: f64,
    /// Expansion-rate step limiter `max Δln a`.
    pub max_dln_a: f64,
    /// Advection scheme wire byte (core's `Scheme` mapping).
    pub scheme: u8,
    /// Opaque RNG state words, if the driver carries any.
    pub rng: Vec<u64>,
}

/// One typed checkpoint record.
#[derive(Debug, Clone)]
pub enum Record {
    /// The rank-local block of the 6-D distribution function.
    PhaseSpace(PhaseSpace),
    /// The rank-local N-body particle set.
    Particles(ParticleSet),
    /// A named 3-D scalar mesh (density, potential, …).
    FieldMesh {
        /// Mesh identifier, unique within a container.
        name: String,
        /// The field payload.
        field: Field3,
    },
    /// Scalar stepper state (see [`SimState`]).
    SimState(SimState),
    /// Observability run report: the JSONL step-event lines of the run so
    /// far, so a resumed run appends to a coherent record.
    RunReport {
        /// One JSON document per line, in step order.
        lines: Vec<String>,
    },
}

/// A borrowed view of a record: what the container writer serialises from,
/// so a checkpoint is written out of the simulation's own storage.
#[derive(Debug, Clone, Copy)]
pub enum RecordRef<'a> {
    /// See [`Record::PhaseSpace`].
    PhaseSpace(&'a PhaseSpace),
    /// See [`Record::Particles`].
    Particles(&'a ParticleSet),
    /// See [`Record::FieldMesh`]; `data` is the mesh in `dims` row-major
    /// order, so any `f64` storage of that shape can be written as a mesh.
    FieldMesh {
        /// Mesh identifier, unique within a container.
        name: &'a str,
        /// Mesh dimensions (`data.len()` is their product).
        dims: [usize; 3],
        /// The field payload.
        data: &'a [f64],
    },
    /// See [`Record::SimState`].
    SimState(&'a SimState),
    /// See [`Record::RunReport`].
    RunReport {
        /// One JSON document per line, in step order.
        lines: &'a [String],
    },
}

impl<'a> From<&'a Record> for RecordRef<'a> {
    fn from(r: &'a Record) -> Self {
        match r {
            Record::PhaseSpace(ps) => RecordRef::PhaseSpace(ps),
            Record::Particles(p) => RecordRef::Particles(p),
            Record::FieldMesh { name, field } => RecordRef::FieldMesh {
                name,
                dims: field.dims(),
                data: field.as_slice(),
            },
            Record::SimState(s) => RecordRef::SimState(s),
            Record::RunReport { lines } => RecordRef::RunReport { lines },
        }
    }
}

impl<'a, 'b: 'a> From<&'a RecordRef<'b>> for RecordRef<'a> {
    fn from(r: &'a RecordRef<'b>) -> Self {
        *r
    }
}

/// A record after payload encoding, with the sizes the writer needs for
/// compression accounting.
#[derive(Debug, Clone)]
pub struct EncodedRecord {
    /// The full wire frame (head chunk + payload chunks).
    pub bytes: Vec<u8>,
    /// Payload size before encoding.
    pub raw_len: usize,
    /// Payload size after encoding.
    pub enc_len: usize,
}

/// The shape information a record's head chunk carries, available without
/// decoding the payload. The query service uses this to learn each rank
/// file's spatial extent.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordMeta {
    /// A phase-space block and its placement in the global grid.
    PhaseSpace {
        /// Local spatial dims.
        sdims: [usize; 3],
        /// Global offset of the block.
        soffset: [usize; 3],
        /// Global spatial dims.
        sglobal: [usize; 3],
        /// Velocity-grid cell counts.
        vn: [usize; 3],
        /// Velocity-grid half width.
        vmax: f64,
    },
    /// Any other record kind, identified by its label.
    Other {
        /// [`Record::kind_name`] of the record.
        kind: &'static str,
    },
}

impl Record {
    /// Human-readable kind label for logs and error messages.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Record::PhaseSpace(_) => "phase-space",
            Record::Particles(_) => "particles",
            Record::FieldMesh { .. } => "field-mesh",
            Record::SimState(_) => "sim-state",
            Record::RunReport { .. } => "run-report",
        }
    }

    /// Encode into the wire frame ([`RecordRef::encode`] of this record).
    pub fn encode(&self, enc: Encoding) -> EncodedRecord {
        RecordRef::from(self).encode(enc)
    }

    /// Decode a wire frame produced by [`Record::encode`]: the container's
    /// frame walker run over the slice.
    ///
    /// Consumes the *entire* slice: trailing bytes after the payload are an
    /// error (this is the fix for the legacy snapshot format's silent
    /// truncation). All errors carry the byte offset of the failure.
    pub fn decode(bytes: &[u8]) -> Result<Record, CkptError> {
        let mut w = FrameWalker::new(bytes, bytes.len() as u64, 0);
        let head = w.head()?;
        let record = w.payload(&head)?;
        w.end("the record payload")?;
        Ok(record)
    }
}

impl RecordRef<'_> {
    /// Encode into the wire frame, compressing the payload with `enc`: the
    /// container's record writer run over a `Vec<u8>`.
    pub fn encode(self, enc: Encoding) -> EncodedRecord {
        let mut w = FrameWriter::new(Vec::new(), DEFAULT_CHUNK_LEN);
        w.record(self, enc).expect("writing to a Vec cannot fail");
        EncodedRecord {
            bytes: w.sink,
            raw_len: w.done.raw_bytes as usize,
            enc_len: w.done.encoded_bytes as usize,
        }
    }

    /// Wire kind tag and payload word size in bytes.
    pub(crate) fn kind_word(&self) -> (u8, usize) {
        match self {
            RecordRef::PhaseSpace(_) => (KIND_PHASE_SPACE, 4),
            RecordRef::Particles(_) => (KIND_PARTICLES, 8),
            RecordRef::FieldMesh { .. } => (KIND_FIELD_MESH, 8),
            RecordRef::SimState(_) => (KIND_SIM_STATE, 8),
            RecordRef::RunReport { .. } => (KIND_RUN_REPORT, 1),
        }
    }

    /// The serialised payload of the kinds that have no bulk storage to
    /// stream from (sim-state words, run-report text); empty for the rest.
    pub(crate) fn small_payload(&self) -> Vec<u8> {
        match self {
            RecordRef::SimState(s) => {
                // All-u64 payload so the word size stays uniform at 8.
                let fixed = [
                    s.step,
                    s.tag_counter,
                    s.a.to_bits(),
                    s.omega_component.to_bits(),
                    s.cfl_spatial.to_bits(),
                    s.max_dln_a.to_bits(),
                    s.scheme as u64,
                    s.rng.len() as u64,
                ];
                let words = fixed.iter().chain(&s.rng);
                words.flat_map(|w| w.to_le_bytes()).collect()
            }
            RecordRef::RunReport { lines } => {
                let mut text = Vec::new();
                for line in *lines {
                    text.extend_from_slice(line.as_bytes());
                    text.push(b'\n');
                }
                text
            }
            _ => Vec::new(),
        }
    }

    /// Payload size before encoding (`small` is [`Self::small_payload`]).
    pub(crate) fn raw_len(&self, small: &[u8]) -> usize {
        match self {
            RecordRef::PhaseSpace(ps) => ps.len() * 4,
            RecordRef::Particles(p) => p.len() * 48,
            RecordRef::FieldMesh { data, .. } => data.len() * 8,
            RecordRef::SimState(_) | RecordRef::RunReport { .. } => small.len(),
        }
    }

    /// The head chunk's bytes.
    pub(crate) fn head(&self, enc: Encoding, raw_len: usize, chunk_raw: usize) -> Vec<u8> {
        let mut out = vec![self.kind_word().0, enc.as_u8()];
        let u64s = |out: &mut Vec<u8>, vs: &[usize]| {
            for &v in vs {
                out.extend_from_slice(&(v as u64).to_le_bytes());
            }
        };
        match self {
            RecordRef::PhaseSpace(ps) => {
                for dims in [ps.sdims, ps.soffset, ps.sglobal, ps.vgrid.n] {
                    u64s(&mut out, &dims);
                }
                out.extend_from_slice(&ps.vgrid.vmax.to_bits().to_le_bytes());
            }
            RecordRef::Particles(p) => {
                u64s(&mut out, &[p.len()]);
                out.extend_from_slice(&p.mass.to_bits().to_le_bytes());
            }
            RecordRef::FieldMesh { name, dims, data } => {
                assert!(name.len() <= MAX_NAME_LEN, "field-mesh name too long");
                assert_eq!(data.len(), dims.iter().product::<usize>(), "mesh shape");
                out.extend_from_slice(&(name.len() as u32).to_le_bytes());
                out.extend_from_slice(name.as_bytes());
                u64s(&mut out, dims);
            }
            RecordRef::SimState(_) => {}
            RecordRef::RunReport { lines } => {
                out.extend_from_slice(&(lines.len() as u32).to_le_bytes());
            }
        }
        u64s(&mut out, &[raw_len, chunk_raw]);
        out
    }

    /// Serialise payload bytes `off .. off + out.len()` (word-aligned) into
    /// `out`, straight from the borrowed storage.
    pub(crate) fn fill(&self, small: &[u8], off: usize, out: &mut [u8]) {
        fn f64s<'a>(src: impl Iterator<Item = &'a f64>, out: &mut [u8]) {
            for (o, v) in out.chunks_exact_mut(8).zip(src) {
                o.copy_from_slice(&v.to_le_bytes());
            }
        }
        match self {
            RecordRef::PhaseSpace(ps) => {
                for (o, v) in out.chunks_exact_mut(4).zip(&ps.as_slice()[off / 4..]) {
                    o.copy_from_slice(&v.to_le_bytes());
                }
            }
            RecordRef::Particles(p) => {
                let values = p.pos.as_flattened().iter().chain(p.vel.as_flattened());
                f64s(values.skip(off / 8), out);
            }
            RecordRef::FieldMesh { data, .. } => f64s(data[off / 8..].iter(), out),
            RecordRef::SimState(_) | RecordRef::RunReport { .. } => {
                out.copy_from_slice(&small[off..off + out.len()]);
            }
        }
    }
}

/// Kind-specific shape data of a head chunk.
#[derive(Debug, Clone)]
enum Shape {
    /// `[sdims, soffset, sglobal, vgrid.n]` and `vmax`.
    PhaseSpace([[usize; 3]; 4], f64),
    Particles {
        count: usize,
        mass: f64,
    },
    FieldMesh {
        name: String,
        dims: [usize; 3],
    },
    SimState,
    RunReport {
        n_lines: usize,
    },
}

/// A parsed and shape-checked head chunk.
#[derive(Debug, Clone)]
pub(crate) struct Head {
    /// Encoding of every payload chunk.
    pub(crate) enc: Encoding,
    /// Payload word size in bytes.
    pub(crate) word: usize,
    /// Payload size before encoding.
    pub(crate) raw_len: usize,
    /// Raw bytes per payload chunk (the last chunk holds the remainder).
    pub(crate) chunk_raw: usize,
    shape: Shape,
}

impl Head {
    /// Parse a head chunk. Rejects dims that overflow, a `raw_len` that is
    /// not what the shape promises and a `chunk_raw` that would split a
    /// word — all before anything is allocated for the payload. Offsets are
    /// relative to `bytes`.
    pub(crate) fn parse(bytes: &[u8]) -> Result<Head, CkptError> {
        let mut cur = Cursor { buf: bytes, pos: 0 };
        let tags = cur.take(2, "record kind and encoding")?;
        let enc = Encoding::from_u8(tags[1]).map_err(|e| e.at_base(1))?;
        let overflow = || CkptError::format(2, "record dimensions overflow");
        let (shape, word, promised) = match tags[0] {
            KIND_PHASE_SPACE => {
                let mut dims = [[0usize; 3]; 4];
                for d in &mut dims {
                    *d = cur.usize3("phase-space dims")?;
                }
                let [s, _, _, vn] = dims;
                let vmax = f64::from_bits(cur.u64("velocity grid vmax")?);
                let bytes = checked_product(&[s[0], s[1], s[2], vn[0], vn[1], vn[2], 4]);
                let bytes = bytes.ok_or_else(overflow)?;
                if bytes == 0 || !vmax.is_finite() || vmax <= 0.0 || vn.iter().any(|&d| d < 2) {
                    let detail =
                        format!("invalid phase-space shape: sdims {s:?} vgrid {vn:?} vmax {vmax}");
                    return corrupt(2, detail);
                }
                (Shape::PhaseSpace(dims, vmax), 4, Some(bytes))
            }
            KIND_PARTICLES => {
                let count = cur.len_u64("particle count")?;
                let mass = f64::from_bits(cur.u64("particle mass")?);
                let bytes = count.checked_mul(48).ok_or_else(overflow)?;
                (Shape::Particles { count, mass }, 8, Some(bytes))
            }
            KIND_FIELD_MESH => {
                let name_off = cur.offset();
                let name_len = cur.u32("field-mesh name length")? as usize;
                if name_len > MAX_NAME_LEN {
                    return corrupt(name_off, format!("field-mesh name of {name_len} bytes"));
                }
                let name = cur.take(name_len, "field-mesh name")?.to_vec();
                let name = String::from_utf8(name)
                    .map_err(|_| CkptError::format(name_off + 4, "field-mesh name is not UTF-8"))?;
                let dims = cur.usize3("field-mesh dims")?;
                let bytes =
                    checked_product(&[dims[0], dims[1], dims[2], 8]).ok_or_else(overflow)?;
                if bytes == 0 {
                    return corrupt(2, format!("field-mesh dims {dims:?} contain a zero axis"));
                }
                (Shape::FieldMesh { name, dims }, 8, Some(bytes))
            }
            KIND_SIM_STATE => (Shape::SimState, 8, None),
            KIND_RUN_REPORT => {
                let n_lines = cur.u32("run-report line count")? as usize;
                (Shape::RunReport { n_lines }, 1, None)
            }
            other => return corrupt(0, format!("unknown record kind byte {other}")),
        };
        let len_off = cur.offset();
        let raw_len = cur.len_u64("payload raw length")?;
        let chunk_raw = cur.len_u64("payload chunk length")?;
        if promised.is_some_and(|p| p != raw_len) || raw_len % word != 0 {
            let detail = format!("payload is {raw_len} bytes, the shape promises {promised:?}");
            return corrupt(len_off, detail);
        }
        if chunk_raw == 0 || chunk_raw % word != 0 {
            let detail = format!("chunk length {chunk_raw} is not a positive multiple of {word}");
            return corrupt(len_off + 8, detail);
        }
        if cur.pos != bytes.len() {
            return corrupt(cur.offset(), "trailing bytes in the record head");
        }
        Ok(Head {
            enc,
            word,
            raw_len,
            chunk_raw,
            shape,
        })
    }

    /// The shape as the public [`RecordMeta`].
    pub(crate) fn meta(&self) -> RecordMeta {
        match self.shape {
            Shape::PhaseSpace([sdims, soffset, sglobal, vn], vmax) => RecordMeta::PhaseSpace {
                sdims,
                soffset,
                sglobal,
                vn,
                vmax,
            },
            Shape::Particles { .. } => RecordMeta::Other { kind: "particles" },
            Shape::FieldMesh { .. } => RecordMeta::Other { kind: "field-mesh" },
            Shape::SimState => RecordMeta::Other { kind: "sim-state" },
            Shape::RunReport { .. } => RecordMeta::Other { kind: "run-report" },
        }
    }

    /// Allocate the record the payload chunks decode into. The caller has
    /// checked `raw_len` against what the file can still hold.
    pub(crate) fn destination(&self) -> Partial {
        match &self.shape {
            &Shape::PhaseSpace([sdims, soffset, sglobal, vn], vmax) => {
                let vgrid = VelocityGrid::new(vn, vmax);
                let ps = PhaseSpace::zeros_block(sdims, soffset, sglobal, vgrid);
                Partial::Bulk(Record::PhaseSpace(ps))
            }
            &Shape::Particles { count, mass } => Partial::Bulk(Record::Particles(ParticleSet {
                pos: vec![[0.0; 3]; count],
                vel: vec![[0.0; 3]; count],
                mass,
            })),
            Shape::FieldMesh { name, dims } => Partial::Bulk(Record::FieldMesh {
                name: name.clone(),
                field: Field3::zeros(*dims),
            }),
            Shape::SimState => Partial::Small(None, Vec::with_capacity(self.raw_len)),
            &Shape::RunReport { n_lines } => {
                Partial::Small(Some(n_lines), Vec::with_capacity(self.raw_len))
            }
        }
    }
}

/// A record being decoded: bulk kinds are filled in place, chunk by chunk;
/// the two small kinds collect their payload and parse it at the end (a
/// run report, told apart by its line count, or else a sim-state).
pub(crate) enum Partial {
    Bulk(Record),
    Small(Option<usize>, Vec<u8>),
}

impl Partial {
    /// Store the decoded payload bytes `off .. off + raw.len()`.
    pub(crate) fn absorb(&mut self, off: usize, raw: &[u8]) {
        fn f64s<'a>(dst: impl Iterator<Item = &'a mut f64>, raw: &[u8]) {
            for (v, b) in dst.zip(raw.chunks_exact(8)) {
                *v = f64::from_le_bytes(b.try_into().expect("8-byte chunk"));
            }
        }
        match self {
            Partial::Bulk(Record::PhaseSpace(ps)) => {
                let dst = ps.as_mut_slice()[off / 4..].iter_mut();
                for (v, b) in dst.zip(raw.chunks_exact(4)) {
                    *v = f32::from_le_bytes(b.try_into().expect("4-byte chunk"));
                }
            }
            Partial::Bulk(Record::Particles(p)) => {
                let values = p.pos.as_flattened_mut().iter_mut();
                f64s(values.chain(p.vel.as_flattened_mut()).skip(off / 8), raw);
            }
            Partial::Bulk(Record::FieldMesh { field, .. }) => {
                f64s(field.as_mut_slice()[off / 8..].iter_mut(), raw);
            }
            Partial::Bulk(_) => unreachable!("small kinds are never Bulk"),
            Partial::Small(_, bytes) => bytes.extend_from_slice(raw),
        }
    }

    /// The finished record. Offsets of errors are relative to the payload.
    pub(crate) fn finish(self) -> Result<Record, CkptError> {
        match self {
            Partial::Bulk(record) => Ok(record),
            Partial::Small(None, payload) => {
                let words = payload.chunks_exact(8);
                let w: Vec<u64> = words
                    .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte chunk")))
                    .collect();
                if w.len() < 8 || w[7] != (w.len() - 8) as u64 {
                    return corrupt(0, format!("sim-state payload of {} words", w.len()));
                }
                let scheme = u8::try_from(w[6])
                    .map_err(|_| CkptError::format(48, "sim-state scheme word is not a byte"))?;
                Ok(Record::SimState(SimState {
                    step: w[0],
                    tag_counter: w[1],
                    a: f64::from_bits(w[2]),
                    omega_component: f64::from_bits(w[3]),
                    cfl_spatial: f64::from_bits(w[4]),
                    max_dln_a: f64::from_bits(w[5]),
                    scheme,
                    rng: w[8..].to_vec(),
                }))
            }
            Partial::Small(Some(n_lines), text) => {
                let text = String::from_utf8(text)
                    .map_err(|_| CkptError::format(0, "run-report payload is not UTF-8"))?;
                let lines: Vec<String> = text.split_terminator('\n').map(str::to_owned).collect();
                if lines.len() != n_lines || !(text.is_empty() || text.ends_with('\n')) {
                    let detail = format!("run-report head promises {n_lines} terminated lines");
                    return corrupt(0, detail);
                }
                Ok(Record::RunReport { lines })
            }
        }
    }
}

fn checked_product(dims: &[usize]) -> Option<usize> {
    dims.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d))
}

/// Offset-tracking reader over a head chunk. Every accessor names what it
/// was reading so errors pinpoint both *where* and *what*.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn offset(&self) -> u64 {
        self.pos as u64
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], CkptError> {
        let Some(s) = self.buf.get(self.pos..self.pos + n) else {
            return corrupt(self.offset(), format!("truncated while reading {what}"));
        };
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self, what: &str) -> Result<u32, CkptError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self, what: &str) -> Result<u64, CkptError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// A u64 that must fit in usize (lengths, counts).
    fn len_u64(&mut self, what: &str) -> Result<usize, CkptError> {
        let off = self.offset();
        let v = self.u64(what)?;
        usize::try_from(v)
            .map_err(|_| CkptError::format(off, format!("{what} value {v} does not fit in usize")))
    }

    fn usize3(&mut self, what: &str) -> Result<[usize; 3], CkptError> {
        let mut v = [0; 3];
        for d in &mut v {
            *d = self.len_u64(what)?;
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_phase_space() -> PhaseSpace {
        let mut ps = PhaseSpace::zeros_block(
            [2, 3, 2],
            [4, 0, 0],
            [8, 3, 2],
            VelocityGrid::new([2, 2, 4], 1.5),
        );
        for (i, v) in ps.as_mut_slice().iter_mut().enumerate() {
            *v = (i as f32 * 0.37).sin();
        }
        ps
    }

    fn assert_ps_eq(a: &PhaseSpace, b: &PhaseSpace) {
        assert_eq!(a.sdims, b.sdims);
        assert_eq!(a.soffset, b.soffset);
        assert_eq!(a.sglobal, b.sglobal);
        assert_eq!(a.vgrid, b.vgrid);
        let (av, bv) = (a.as_slice(), b.as_slice());
        assert_eq!(av.len(), bv.len());
        for (x, y) in av.iter().zip(bv) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn phase_space_roundtrips_both_encodings() {
        let ps = sample_phase_space();
        for enc in [Encoding::Raw, Encoding::ShuffleRle] {
            let e = Record::PhaseSpace(ps.clone()).encode(enc);
            assert_eq!(e.raw_len, ps.len() * 4);
            match Record::decode(&e.bytes).expect("decode") {
                Record::PhaseSpace(out) => assert_ps_eq(&ps, &out),
                other => panic!("wrong kind {}", other.kind_name()),
            }
        }
    }

    #[test]
    fn nonfinite_f32_cells_roundtrip_bitwise() {
        let mut ps = PhaseSpace::zeros([1, 1, 1], VelocityGrid::cubic(2, 1.0));
        let specials = [
            f32::NAN,
            f32::from_bits(0x7FA0_1234), // signalling NaN with payload
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            f32::from_bits(1), // smallest denormal
            f32::MIN_POSITIVE,
            1.0,
        ];
        ps.as_mut_slice().copy_from_slice(&specials);
        let e = Record::PhaseSpace(ps.clone()).encode(Encoding::ShuffleRle);
        match Record::decode(&e.bytes).unwrap() {
            Record::PhaseSpace(out) => assert_ps_eq(&ps, &out),
            other => panic!("wrong kind {}", other.kind_name()),
        }
    }

    #[test]
    fn particles_roundtrip_including_empty() {
        let mut p = ParticleSet::new(0.125);
        p.pos = vec![[0.1, 0.2, 0.3], [0.9, 0.99, 1e-300]];
        p.vel = vec![[1.0, -2.0, 3.0], [f64::MIN_POSITIVE, -0.0, 7.5]];
        for set in [p, ParticleSet::new(2.5)] {
            let e = Record::Particles(set.clone()).encode(Encoding::ShuffleRle);
            match Record::decode(&e.bytes).unwrap() {
                Record::Particles(out) => {
                    assert_eq!(out.mass.to_bits(), set.mass.to_bits());
                    assert_eq!(out.len(), set.len());
                    for (a, b) in out
                        .pos
                        .iter()
                        .chain(&out.vel)
                        .zip(set.pos.iter().chain(&set.vel))
                    {
                        for d in 0..3 {
                            assert_eq!(a[d].to_bits(), b[d].to_bits());
                        }
                    }
                }
                other => panic!("wrong kind {}", other.kind_name()),
            }
        }
    }

    #[test]
    fn field_mesh_and_sim_state_and_report_roundtrip() {
        let mut f = Field3::zeros([2, 2, 3]);
        for (i, v) in f.as_mut_slice().iter_mut().enumerate() {
            *v = (i as f64).exp();
        }
        let e = Record::FieldMesh {
            name: "density".into(),
            field: f.clone(),
        }
        .encode(Encoding::ShuffleRle);
        match Record::decode(&e.bytes).unwrap() {
            Record::FieldMesh { name, field } => {
                assert_eq!(name, "density");
                assert_eq!(field, f);
            }
            other => panic!("wrong kind {}", other.kind_name()),
        }

        let s = SimState {
            step: 42,
            tag_counter: 9001,
            a: 0.0123456789,
            omega_component: 0.3,
            cfl_spatial: 0.4,
            max_dln_a: 0.01,
            scheme: 3,
            rng: vec![0xDEAD_BEEF, 7],
        };
        let e = Record::SimState(s.clone()).encode(Encoding::Raw);
        match Record::decode(&e.bytes).unwrap() {
            Record::SimState(out) => assert_eq!(out, s),
            other => panic!("wrong kind {}", other.kind_name()),
        }

        for lines in [
            vec![],
            vec!["{\"step\":0}".to_string(), "{\"step\":1}".to_string()],
        ] {
            let e = Record::RunReport {
                lines: lines.clone(),
            }
            .encode(Encoding::ShuffleRle);
            match Record::decode(&e.bytes).unwrap() {
                Record::RunReport { lines: out } => assert_eq!(out, lines),
                other => panic!("wrong kind {}", other.kind_name()),
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected_with_offset() {
        let e = Record::SimState(SimState {
            step: 1,
            tag_counter: 2,
            a: 0.5,
            omega_component: 0.3,
            cfl_spatial: 0.4,
            max_dln_a: 0.01,
            scheme: 0,
            rng: vec![],
        })
        .encode(Encoding::Raw);
        let mut padded = e.bytes.clone();
        padded.push(0);
        let err = Record::decode(&padded).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("trailing"), "{msg}");
        assert!(
            msg.contains(&format!("offset {}", e.bytes.len())),
            "expected offset {} in: {msg}",
            e.bytes.len()
        );
    }

    #[test]
    fn truncation_is_rejected_at_every_length() {
        let e = Record::PhaseSpace(sample_phase_space()).encode(Encoding::ShuffleRle);
        for cut in [0, 1, 2, 10, e.bytes.len() / 2, e.bytes.len() - 1] {
            assert!(
                Record::decode(&e.bytes[..cut]).is_err(),
                "decode of {cut}-byte prefix should fail"
            );
        }
    }

    #[test]
    fn shape_payload_mismatches_are_rejected() {
        // Tamper with the phase-space dims so they no longer match raw_len;
        // the head chunk's data starts after its 8-byte frame.
        let e = Record::PhaseSpace(sample_phase_space()).encode(Encoding::Raw);
        let head_len = u32::from_le_bytes(e.bytes[..4].try_into().unwrap()) as usize;
        let mut head = e.bytes[8..8 + head_len].to_vec();
        assert!(Head::parse(&head).is_ok());
        head[2] = head[2].wrapping_add(1); // sdims[0] low byte
        assert!(Head::parse(&head).is_err());
        // The same tamper inside the frame trips the head chunk's CRC.
        let mut bad = e.bytes.clone();
        bad[10] = bad[10].wrapping_add(1);
        assert!(Record::decode(&bad).is_err());
    }

    #[test]
    fn hostile_heads_are_rejected_before_any_allocation() {
        let e = Record::PhaseSpace(sample_phase_space()).encode(Encoding::ShuffleRle);
        let head_len = u32::from_le_bytes(e.bytes[..4].try_into().unwrap()) as usize;
        let head = &e.bytes[8..8 + head_len];
        let reframe = |head: &[u8]| {
            let mut frame = (head.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(&crate::crc::crc32(head).to_le_bytes());
            frame.extend_from_slice(head);
            frame.extend_from_slice(&e.bytes[8 + head_len..]);
            frame
        };
        assert!(Record::decode(&reframe(head)).is_ok());
        let with_u64 = |at: usize, v: u64| {
            let mut h = head.to_vec();
            h[at..at + 8].copy_from_slice(&v.to_le_bytes());
            h
        };
        let raw_len_at = head_len - 16;
        // Dims whose product overflows; a raw_len the dims do not promise;
        // dims and raw_len that agree but exceed what the frame can hold.
        let overflow = with_u64(2, u64::MAX / 2);
        assert!(Head::parse(&overflow)
            .unwrap_err()
            .to_string()
            .contains("overflow"));
        let mismatch = with_u64(raw_len_at, 1 << 40);
        assert!(Head::parse(&mismatch)
            .unwrap_err()
            .to_string()
            .contains("promises"));
        let mut huge = with_u64(2, 1 << 30); // sdims[0]: 2 → 2^30
        huge[raw_len_at..raw_len_at + 8].copy_from_slice(&((1u64 << 30) * 96 * 4).to_le_bytes());
        assert!(Head::parse(&huge).is_ok(), "consistent on its own");
        let err = Record::decode(&reframe(&huge)).unwrap_err().to_string();
        assert!(err.contains("cannot come from"), "{err}");
        // A chunk length that would split a word.
        let split = with_u64(head_len - 8, 6);
        assert!(Head::parse(&split).is_err());
    }
}
