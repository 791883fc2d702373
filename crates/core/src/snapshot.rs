//! Binary snapshot I/O — compatibility shims over `vlasov6d-ckpt`.
//!
//! The paper's time-to-solution includes I/O (733 s of the H1024 run). The
//! workspace's durable format now lives in `vlasov6d-ckpt` (chunked,
//! CRC-checksummed containers with typed records); this module keeps the
//! original `snapshot` API as thin shims that delegate to the ckpt record
//! codec, so existing callers keep working while all bytes on disk share one
//! verified format. Unlike the retired ad-hoc format, decoding rejects
//! trailing bytes and reports the byte offset of any damage.

use bytes::Bytes;
use std::io::Read;
use std::path::Path;
use vlasov6d_ckpt::container::atomic_write;
use vlasov6d_ckpt::{Encoding, Record, RecordRef};
use vlasov6d_nbody::ParticleSet;
use vlasov6d_phase_space::PhaseSpace;

/// Serialise a phase-space block as a ckpt record frame (raw encoding).
pub fn phase_space_to_bytes(ps: &PhaseSpace) -> Bytes {
    Bytes::from(RecordRef::PhaseSpace(ps).encode(Encoding::Raw).bytes)
}

/// Deserialise a phase-space block.
///
/// Strict: trailing bytes after the payload are an error, and error messages
/// carry the byte offset of the problem.
pub fn phase_space_from_bytes(data: Bytes) -> Result<PhaseSpace, String> {
    match Record::decode(&data).map_err(|e| format!("snapshot: {e}"))? {
        Record::PhaseSpace(ps) => Ok(ps),
        other => Err(format!(
            "snapshot: not a phase-space payload (found {})",
            record_kind_name(&other)
        )),
    }
}

/// Serialise a particle set as a ckpt record frame (raw encoding).
pub fn particles_to_bytes(p: &ParticleSet) -> Bytes {
    Bytes::from(RecordRef::Particles(p).encode(Encoding::Raw).bytes)
}

/// Deserialise a particle set (strict, offset-reporting — see
/// [`phase_space_from_bytes`]).
pub fn particles_from_bytes(data: Bytes) -> Result<ParticleSet, String> {
    match Record::decode(&data).map_err(|e| format!("snapshot: {e}"))? {
        Record::Particles(p) => Ok(p),
        other => Err(format!(
            "snapshot: not a particle payload (found {})",
            record_kind_name(&other)
        )),
    }
}

/// Wire value of an advection scheme inside ckpt `SimState` records.
pub fn scheme_to_u8(s: vlasov6d_advection::line::Scheme) -> u8 {
    use vlasov6d_advection::line::Scheme;
    match s {
        Scheme::Upwind1 => 0,
        Scheme::Sl3 => 1,
        Scheme::Sl5 => 2,
        Scheme::SlMpp5 => 3,
    }
}

/// Inverse of [`scheme_to_u8`].
pub fn scheme_from_u8(v: u8) -> Result<vlasov6d_advection::line::Scheme, String> {
    use vlasov6d_advection::line::Scheme;
    match v {
        0 => Ok(Scheme::Upwind1),
        1 => Ok(Scheme::Sl3),
        2 => Ok(Scheme::Sl5),
        3 => Ok(Scheme::SlMpp5),
        other => Err(format!("unknown advection scheme code {other}")),
    }
}

fn record_kind_name(r: &Record) -> &'static str {
    match r {
        Record::PhaseSpace(_) => "phase space",
        Record::Particles(_) => "particles",
        Record::FieldMesh { .. } => "field mesh",
        Record::SimState(_) => "sim state",
        Record::RunReport { .. } => "run report",
    }
}

/// Write bytes to a file atomically (write-temp → fsync → rename, via the
/// ckpt commit primitive).
pub fn write_file(path: &Path, data: &Bytes) -> std::io::Result<()> {
    atomic_write(path, data).map_err(std::io::Error::other)
}

/// Read a whole snapshot file.
pub fn read_file(path: &Path) -> std::io::Result<Bytes> {
    let mut f = std::fs::File::open(path)?;
    let mut buf = Vec::new();
    f.read_to_end(&mut buf)?;
    Ok(Bytes::from(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlasov6d_phase_space::VelocityGrid;

    #[test]
    fn phase_space_roundtrip() {
        let vg = VelocityGrid::cubic(8, 2.0);
        let mut ps = PhaseSpace::zeros_block([4, 4, 4], [4, 0, 0], [8, 4, 4], vg);
        ps.fill_with(|s, u| (s[0] as f64 + u[0]).abs() + 0.1);
        let bytes = phase_space_to_bytes(&ps);
        let back = phase_space_from_bytes(bytes).unwrap();
        assert_eq!(back.sdims, ps.sdims);
        assert_eq!(back.soffset, ps.soffset);
        assert_eq!(back.sglobal, ps.sglobal);
        assert_eq!(back.vgrid, ps.vgrid);
        assert_eq!(back.as_slice(), ps.as_slice());
    }

    #[test]
    fn particles_roundtrip() {
        let p = ParticleSet {
            pos: vec![[0.1, 0.2, 0.3], [0.9, 0.8, 0.7]],
            vel: vec![[1.0, -1.0, 0.5], [0.0, 0.25, -0.125]],
            mass: 0.125,
        };
        let bytes = particles_to_bytes(&p);
        let back = particles_from_bytes(bytes).unwrap();
        assert_eq!(back.pos, p.pos);
        assert_eq!(back.vel, p.vel);
        assert_eq!(back.mass, p.mass);
    }

    #[test]
    fn corrupted_data_is_rejected() {
        let vg = VelocityGrid::cubic(8, 1.0);
        let ps = PhaseSpace::zeros([2, 2, 2], vg);
        let bytes = phase_space_to_bytes(&ps);
        // Truncate the payload.
        let cut = bytes.slice(0..bytes.len() - 4);
        assert!(phase_space_from_bytes(cut).is_err());
        // Wrong kind.
        let p = ParticleSet {
            pos: vec![[0.0; 3]],
            vel: vec![[0.0; 3]],
            mass: 1.0,
        };
        let err = phase_space_from_bytes(particles_to_bytes(&p)).unwrap_err();
        assert!(err.contains("not a phase-space payload"), "{err}");
    }

    #[test]
    fn trailing_bytes_are_rejected_with_offset() {
        // The retired format silently ignored trailing garbage; the ckpt
        // records must reject it and name the offset where it starts.
        let vg = VelocityGrid::cubic(8, 1.0);
        let ps = PhaseSpace::zeros([2, 2, 2], vg);
        let mut raw = phase_space_to_bytes(&ps).to_vec();
        let clean_len = raw.len();
        raw.extend_from_slice(&[0xAB; 7]);
        let err = phase_space_from_bytes(Bytes::from(raw)).unwrap_err();
        assert!(err.contains("offset"), "{err}");
        assert!(err.contains(&clean_len.to_string()), "{err}");
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("vlasov6d_snap_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.vl6d");
        let vg = VelocityGrid::cubic(8, 1.5);
        let mut ps = PhaseSpace::zeros([2, 2, 2], vg);
        ps.fill_with(|_, u| (-(u[0] * u[0])).exp());
        write_file(&path, &phase_space_to_bytes(&ps)).unwrap();
        let back = phase_space_from_bytes(read_file(&path).unwrap()).unwrap();
        assert_eq!(back.as_slice(), ps.as_slice());
        std::fs::remove_file(&path).unwrap();
    }
}
