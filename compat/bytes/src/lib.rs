//! Offline shim for a subset of the `bytes` API:
//! `BytesMut` as a growable little-endian writer, `Bytes` as a cheap
//! reference-counted read cursor, and the `Buf`/`BufMut` trait methods.
//! No workspace crate depends on it since the snapshot shims in
//! `vlasov6d` were deleted in favour of `vlasov6d-ckpt`.

use std::ops::Deref;
use std::sync::Arc;

/// Immutable byte buffer with a consuming read cursor.
#[derive(Debug, Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sub-range view sharing the same backing storage.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice out of bounds"
        );
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

/// Growable byte buffer for sequential little-endian writes.
#[derive(Debug, Default, Clone)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

/// Read-side accessors (subset of `bytes::Buf`).
pub trait Buf {
    fn remaining(&self) -> usize;
    fn get_u8(&mut self) -> u8;
    fn get_u32_le(&mut self) -> u32;
    fn get_u64_le(&mut self) -> u64;
    fn get_f32_le(&mut self) -> f32;
    fn get_f64_le(&mut self) -> f64;
    fn advance(&mut self, n: usize);
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn get_u8(&mut self) -> u8 {
        assert!(self.remaining() >= 1, "Bytes: read past end");
        let b = self.data[self.start];
        self.start += 1;
        b
    }

    fn get_u32_le(&mut self) -> u32 {
        assert!(self.remaining() >= 4, "Bytes: read past end");
        let mut le = [0u8; 4];
        le.copy_from_slice(&self.data[self.start..self.start + 4]);
        self.start += 4;
        u32::from_le_bytes(le)
    }

    fn get_u64_le(&mut self) -> u64 {
        assert!(self.remaining() >= 8, "Bytes: read past end");
        let mut le = [0u8; 8];
        le.copy_from_slice(&self.data[self.start..self.start + 8]);
        self.start += 8;
        u64::from_le_bytes(le)
    }

    fn get_f32_le(&mut self) -> f32 {
        f32::from_bits(self.get_u32_le())
    }

    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }

    fn advance(&mut self, n: usize) {
        assert!(n <= self.remaining(), "Bytes: advance past end");
        self.start += n;
    }
}

/// Write-side accessors (subset of `bytes::BufMut`).
pub trait BufMut {
    fn put_u8(&mut self, v: u8);
    fn put_u32_le(&mut self, v: u32);
    fn put_u64_le(&mut self, v: u64);
    fn put_f32_le(&mut self, v: f32);
    fn put_f64_le(&mut self, v: f64);
    fn put_slice(&mut self, src: &[u8]);
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn put_u32_le(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn put_f32_le(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn put_f64_le(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_round_trips() {
        let mut w = BytesMut::with_capacity(32);
        w.put_u8(7);
        w.put_u32_le(0xDEAD_BEEF);
        w.put_u64_le(u64::MAX - 3);
        w.put_f32_le(1.5);
        w.put_f64_le(-0.125);
        let mut r = w.freeze();
        assert_eq!(r.remaining(), 1 + 4 + 8 + 4 + 8);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64_le(), u64::MAX - 3);
        assert_eq!(r.get_f32_le(), 1.5);
        assert_eq!(r.get_f64_le(), -0.125);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn slice_views_share_storage() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let mut s = b.slice(1..4);
        assert_eq!(&*s, &[2, 3, 4]);
        assert_eq!(s.get_u8(), 2);
        assert_eq!(s.remaining(), 2);
        assert_eq!(&*b, &[1, 2, 3, 4, 5]);
    }
}
