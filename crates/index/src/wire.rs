//! The read side of the byte layer under the index format's field codecs
//! (the write side is a `Vec<u8>`).
//!
//! A `Reader` walks a byte slice, turning short reads and malformed
//! length prefixes into [`WireError`] instead of panics, so a truncated
//! or corrupted index file fails loudly at load time. What the bytes
//! mean — scalars, strings, slices, records — is `format`'s `Put`/`Get`
//! codecs.

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

/// Cursor-style decoder over a byte slice: every read is bounded by the
/// bytes left and labelled, so a short or implausible stream is a
/// [`WireError`] naming the field. Typed values come out through their
/// field codec (`format::Get`).
#[derive(Debug, Clone)]
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    /// Format version of the image the bytes come from (the newest,
    /// unless set otherwise), for the fields only newer images have.
    pub(crate) version: u32,
}

impl<'a> Reader<'a> {
    /// Decode from `buf`.
    pub(crate) fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader {
            buf,
            version: u32::MAX,
        }
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Read `n` raw bytes.
    pub(crate) fn raw(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
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

    /// Read a `u64` length or count, rejecting one beyond the remaining
    /// stream scaled by `elem_size` (a cheap plausibility bound that
    /// stops a corrupted prefix from provoking a huge allocation).
    pub(crate) fn checked_len(
        &mut self,
        what: &'static str,
        elem_size: usize,
    ) -> Result<usize, WireError> {
        let prefix = self.raw(8, what)?.try_into().expect("8 bytes");
        let declared = u64::from_le_bytes(prefix) as usize;
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

    /// Fail unless the stream is fully consumed.
    pub(crate) fn expect_end(&self, what: &'static str) -> Result<(), WireError> {
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
    fn reads_are_bounded_and_labelled() {
        let bytes = [&3u64.to_le_bytes()[..], b"abc"].concat();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.checked_len("len", 1).unwrap(), 3);
        assert!(r.expect_end("section").is_err(), "three bytes trail");
        assert_eq!(r.raw(3, "text").unwrap(), b"abc");
        r.expect_end("section").unwrap();
        let past_end = r.raw(1, "more").unwrap_err();
        assert_eq!(
            past_end.to_string(),
            "truncated stream reading more: needed 1 bytes, 0 available"
        );
        // A prefix declaring more than is left — two bytes short, or a
        // corrupted 2^64 — is rejected before anything is allocated.
        for stream in [&bytes[..9], &u64::MAX.to_le_bytes()[..]] {
            let declared = Reader::new(stream).checked_len("len", 1);
            assert!(matches!(declared, Err(WireError::ImplausibleLength { .. })));
        }
    }
}
