//! Fixed-layout little-endian byte codec.
//!
//! Everything persisted by this crate flows through [`Writer`] /
//! [`Reader`]: unsigned integers little-endian, `f64` as IEEE-754 bit
//! patterns (`to_bits`/`from_bits`, so round trips are bit-exact, NaN
//! payloads included), and sequences length-prefixed with `u32`. The
//! reader never panics on truncated or oversized input — every decode
//! error is a [`PersistError::Corrupt`] the recovery path can fall back
//! from.

use crate::{PersistError, Result};

/// Append-only byte sink.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    /// A writer appending to `buf`, keeping its contents and capacity.
    pub(crate) fn reuse(buf: Vec<u8>) -> Self {
        Writer { buf }
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends raw bytes with a `u32` length prefix.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends a `u16` slice with a `u32` length prefix.
    pub fn u16s(&mut self, v: &[u16]) {
        self.u32(v.len() as u32);
        for &x in v {
            self.u16(x);
        }
    }

    /// Appends a `u64` slice with a `u32` length prefix.
    pub fn u64s(&mut self, v: &[u64]) {
        self.u32(v.len() as u32);
        for &x in v {
            self.u64(x);
        }
    }

    /// Appends an `f64` slice with a `u32` length prefix.
    pub fn f64s(&mut self, v: &[f64]) {
        self.u32(v.len() as u32);
        for &x in v {
            self.f64(x);
        }
    }
}

/// Bounds-checked cursor over encoded bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// Hard ceiling on any length prefix (items). Corrupt prefixes would
/// otherwise ask the reader to allocate terabytes before the bounds
/// check could fail.
const MAX_LEN: u32 = 1 << 28;

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Errors unless every byte was consumed — trailing garbage is
    /// corruption, not padding.
    pub fn finish(self) -> Result<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(PersistError::Corrupt { what: "trailing bytes after decoded value" })
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(PersistError::Corrupt { what: "truncated input" });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn len_prefix(&mut self) -> Result<usize> {
        let n = self.u32()?;
        if n > MAX_LEN {
            return Err(PersistError::Corrupt { what: "implausible length prefix" });
        }
        Ok(n as usize)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16> {
        le_u16(self.take(2)?).ok_or(PersistError::Corrupt { what: "truncated input" })
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        le_u32(self.take(4)?).ok_or(PersistError::Corrupt { what: "truncated input" })
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        le_u64(self.take(8)?).ok_or(PersistError::Corrupt { what: "truncated input" })
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u32`-length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>> {
        let n = self.len_prefix()?;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a `u32`-length-prefixed `u16` slice.
    pub fn u16s(&mut self) -> Result<Vec<u16>> {
        let n = self.len_prefix()?;
        (0..n).map(|_| self.u16()).collect()
    }

    /// Reads a `u32`-length-prefixed `u64` slice.
    pub fn u64s(&mut self) -> Result<Vec<u64>> {
        let n = self.len_prefix()?;
        (0..n).map(|_| self.u64()).collect()
    }

    /// Reads a `u32`-length-prefixed `f64` slice.
    pub fn f64s(&mut self) -> Result<Vec<f64>> {
        let n = self.len_prefix()?;
        (0..n).map(|_| self.f64()).collect()
    }
}

/// Decodes a little-endian `u16` from exactly two bytes, `None` on any
/// other length. Slice patterns instead of `try_into().unwrap()`: the
/// recovery paths that call these must survive arbitrarily truncated
/// on-disk bytes without a panic (acqp-lint `panic-in-lib`).
pub(crate) fn le_u16(b: &[u8]) -> Option<u16> {
    match *b {
        [a, b] => Some(u16::from_le_bytes([a, b])),
        _ => None,
    }
}

/// See [`le_u16`].
pub(crate) fn le_u32(b: &[u8]) -> Option<u32> {
    match *b {
        [a, b, c, d] => Some(u32::from_le_bytes([a, b, c, d])),
        _ => None,
    }
}

/// See [`le_u16`].
pub(crate) fn le_u64(b: &[u8]) -> Option<u64> {
    match *b {
        [a, b, c, d, e, f, g, h] => Some(u64::from_le_bytes([a, b, c, d, e, f, g, h])),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_types() {
        let mut w = Writer::new();
        w.u8(7);
        w.u16(65535);
        w.u32(123456);
        w.u64(u64::MAX);
        w.f64(-0.0);
        w.f64(f64::from_bits(0x7ff8_dead_beef_cafe)); // NaN with payload
        w.bytes(b"wire");
        w.u16s(&[1, 2, 3]);
        w.u64s(&[9, 10]);
        w.f64s(&[1.5]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 65535);
        assert_eq!(r.u32().unwrap(), 123456);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64().unwrap().to_bits(), 0x7ff8_dead_beef_cafe);
        assert_eq!(r.bytes().unwrap(), b"wire");
        assert_eq!(r.u16s().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.u64s().unwrap(), vec![9, 10]);
        assert_eq!(r.f64s().unwrap(), vec![1.5]);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_and_trailing_bytes_error() {
        let mut w = Writer::new();
        w.u64(1);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..5]);
        assert!(r.u64().is_err());
        let mut r = Reader::new(&bytes);
        r.u32().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn implausible_length_prefix_rejected_without_allocation() {
        let mut w = Writer::new();
        w.u32(u32::MAX); // claims 4 billion items
        let bytes = w.into_bytes();
        assert!(Reader::new(&bytes).u64s().is_err());
        assert!(Reader::new(&bytes).bytes().is_err());
    }
}
