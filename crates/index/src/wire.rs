//! Little-endian wire primitives for the index format.
//!
//! A [`Writer`] appends fixed-width scalars and length-prefixed variable
//! data to a byte buffer; a [`Reader`] walks a byte slice back, turning
//! short reads and malformed prefixes into [`WireError`] instead of
//! panics, so a truncated or corrupted index file fails loudly at load
//! time.

use std::fmt;

/// A decode failure: the byte stream ended early or held an impossible
/// value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The stream ended before the expected datum.
    UnexpectedEnd {
        /// What was being decoded.
        what: &'static str,
        /// Bytes needed.
        needed: usize,
        /// Bytes left.
        available: usize,
    },
    /// A value outside its legal domain (e.g. a bad enum tag).
    InvalidValue {
        /// What was being decoded.
        what: &'static str,
        /// The offending raw value.
        value: u64,
    },
    /// A length prefix implies more data than the stream holds.
    ImplausibleLength {
        /// What was being decoded.
        what: &'static str,
        /// The declared length.
        declared: usize,
        /// Bytes left.
        available: usize,
    },
    /// A string field held invalid UTF-8.
    InvalidUtf8 {
        /// What was being decoded.
        what: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEnd {
                what,
                needed,
                available,
            } => write!(
                f,
                "truncated stream reading {what}: needed {needed} bytes, {available} available"
            ),
            WireError::InvalidValue { what, value } => {
                write!(f, "invalid value {value} for {what}")
            }
            WireError::ImplausibleLength {
                what,
                declared,
                available,
            } => write!(
                f,
                "implausible length for {what}: declared {declared}, only {available} bytes left"
            ),
            WireError::InvalidUtf8 { what } => write!(f, "invalid UTF-8 in {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only encoder over a growable byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Forget the written bytes but keep the allocation, so one buffer
    /// serves a run of same-sized payloads.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Append an `f64` by bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append an `f32` by bit pattern.
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Append a length-prefixed slice of `u64` words.
    pub fn u64_slice(&mut self, v: &[u64]) {
        self.usize(v.len());
        // One exact growth, not a doubling chain: the sketch table this
        // carries is the largest thing a write allocates.
        self.buf.reserve(v.len() * 8);
        for &w in v {
            self.u64(w);
        }
    }

    /// Append a length-prefixed slice of `f32` values.
    pub fn f32_slice(&mut self, v: &[f32]) {
        self.usize(v.len());
        for &x in v {
            self.f32(x);
        }
    }

    /// Append a length-prefixed slice of `f64` values.
    pub fn f64_slice(&mut self, v: &[f64]) {
        self.usize(v.len());
        for &x in v {
            self.f64(x);
        }
    }

    /// Append raw bytes with no prefix (caller records the length).
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// Cursor-style decoder over a byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Decode from `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::UnexpectedEnd {
                what,
                needed: n,
                available: self.buf.len(),
            });
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Read a `u8`.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    /// Read a `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4 bytes"),
        ))
    }

    /// Read a `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read a `usize`, rejecting lengths beyond the remaining stream
    /// scaled by `elem_size` (a cheap plausibility bound that stops a
    /// corrupted prefix from provoking a huge allocation).
    pub fn checked_len(
        &mut self,
        what: &'static str,
        elem_size: usize,
    ) -> Result<usize, WireError> {
        let declared = self.u64(what)? as usize;
        let bound = self.remaining() / elem_size.max(1);
        if declared > bound {
            return Err(WireError::ImplausibleLength {
                what,
                declared,
                available: self.remaining(),
            });
        }
        Ok(declared)
    }

    /// Read an `f64`, rejecting NaN bit patterns where a finite value is
    /// structurally required is left to callers; this only re-bits.
    pub fn f64(&mut self, what: &'static str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Read an `f32`.
    pub fn f32(&mut self, what: &'static str) -> Result<f32, WireError> {
        Ok(f32::from_bits(self.u32(what)?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &'static str) -> Result<String, WireError> {
        let len = self.checked_len(what, 1)?;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::InvalidUtf8 { what })
    }

    /// Read a length-prefixed `u64` slice.
    pub fn u64_slice(&mut self, what: &'static str) -> Result<Vec<u64>, WireError> {
        let len = self.checked_len(what, 8)?;
        let bytes = self.take(len * 8, what)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }

    /// Read a length-prefixed `f32` slice.
    pub fn f32_slice(&mut self, what: &'static str) -> Result<Vec<f32>, WireError> {
        let len = self.checked_len(what, 4)?;
        let bytes = self.take(len * 4, what)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    /// Read a length-prefixed `f64` slice.
    pub fn f64_slice(&mut self, what: &'static str) -> Result<Vec<f64>, WireError> {
        let len = self.checked_len(what, 8)?;
        let bytes = self.take(len * 8, what)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }

    /// Read `n` raw bytes.
    pub fn raw(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        self.take(n, what)
    }

    /// Fail unless the stream is fully consumed.
    pub fn expect_end(&self, what: &'static str) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::InvalidValue {
                what,
                value: self.buf.len() as u64,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars_and_slices() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 1);
        w.f64(-123.456);
        w.f32(0.25);
        w.str("peptide/КИРИЛЛИЦА");
        w.u64_slice(&[1, 2, 3]);
        w.f32_slice(&[0.5, -0.5]);
        w.f64_slice(&[1e300, -1e-300]);
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u32("b").unwrap(), 0xdead_beef);
        assert_eq!(r.u64("c").unwrap(), u64::MAX - 1);
        assert_eq!(r.f64("d").unwrap(), -123.456);
        assert_eq!(r.f32("e").unwrap(), 0.25);
        assert_eq!(r.str("f").unwrap(), "peptide/КИРИЛЛИЦА");
        assert_eq!(r.u64_slice("g").unwrap(), vec![1, 2, 3]);
        assert_eq!(r.f32_slice("h").unwrap(), vec![0.5, -0.5]);
        assert_eq!(r.f64_slice("i").unwrap(), vec![1e300, -1e-300]);
        r.expect_end("end").unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        w.u64_slice(&[1, 2, 3, 4]);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(r.u64_slice("words").is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn implausible_length_rejected() {
        let mut w = Writer::new();
        w.u64(u64::MAX); // length prefix claiming 2^64 elements
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            r.u64_slice("words"),
            Err(WireError::ImplausibleLength { .. })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut w = Writer::new();
        w.u8(1);
        w.u8(2);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        r.u8("x").unwrap();
        assert!(r.expect_end("section").is_err());
    }
}
