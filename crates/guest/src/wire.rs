//! Minimal binary wire codec for engine checkpoints.
//!
//! Snapshots must be byte-stable across runs and hosts, so every field is
//! written little-endian with explicit widths and length prefixes — no
//! platform-sized types on the wire (`usize` travels as `u64`). The codec
//! is deliberately dumb: a flat byte stream with no schema, no framing and
//! no compression. Structure lives in the writers/readers of each crate
//! (every snapshotted type serializes its fields in declaration order,
//! maps in sorted-key order), which is what makes two snapshots of
//! identical state byte-identical.

use std::fmt;

/// Decode failure: the stream ended early or held an impossible value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The reader ran past the end of the buffer.
    Truncated {
        /// Byte offset of the failed read.
        at: usize,
        /// What was being read.
        what: &'static str,
    },
    /// A tag, length or enum discriminant held an impossible value.
    Malformed {
        /// Byte offset of the offending value.
        at: usize,
        /// What was wrong.
        what: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { at, what } => {
                write!(f, "snapshot truncated at byte {at} while reading {what}")
            }
            WireError::Malformed { at, what } => {
                write!(f, "snapshot malformed at byte {at}: {what}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only little-endian writer.
#[derive(Debug, Default)]
pub struct Wire {
    buf: Vec<u8>,
}

impl Wire {
    /// Creates an empty writer.
    pub fn new() -> Wire {
        Wire { buf: Vec::new() }
    }

    /// Consumes the writer, returning the serialized bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64`, little-endian two's complement.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (lossless; NaN
    /// payloads preserved).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a bool as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Writes a `usize` as `u64` (platform-independent).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Writes a length-prefixed `u32` slice (each element little-endian).
    pub fn put_u32s(&mut self, v: &[u32]) {
        self.put_u64(v.len() as u64);
        for &w in v {
            self.put_u32(w);
        }
    }
}

/// Cursor-based reader over a serialized byte stream.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Creates a reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails if any bytes remain unread (trailing garbage guard).
    ///
    /// # Errors
    /// [`WireError::Malformed`] when the stream has trailing bytes.
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed { at: self.pos, what: "trailing bytes after snapshot" })
        }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { at: self.pos, what });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    ///
    /// # Errors
    /// [`WireError::Truncated`] at end of stream.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    /// [`WireError::Truncated`] at end of stream.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    /// [`WireError::Truncated`] at end of stream.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a little-endian `i64`.
    ///
    /// # Errors
    /// [`WireError::Truncated`] at end of stream.
    pub fn get_i64(&mut self) -> Result<i64, WireError> {
        Ok(self.get_u64()? as i64)
    }

    /// Reads an `f64` from its bit pattern.
    ///
    /// # Errors
    /// [`WireError::Truncated`] at end of stream.
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a bool; any byte other than 0/1 is malformed.
    ///
    /// # Errors
    /// [`WireError::Truncated`] / [`WireError::Malformed`].
    pub fn get_bool(&mut self) -> Result<bool, WireError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed { at: self.pos - 1, what: "bool byte not 0/1" }),
        }
    }

    /// Reads a `usize` written by [`Wire::put_usize`].
    ///
    /// # Errors
    /// [`WireError::Truncated`] / [`WireError::Malformed`] when the value
    /// does not fit the platform `usize`.
    pub fn get_usize(&mut self) -> Result<usize, WireError> {
        let at = self.pos;
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| WireError::Malformed { at, what: "usize overflow" })
    }

    /// Reads a length-prefixed byte string.
    ///
    /// # Errors
    /// [`WireError::Truncated`] / [`WireError::Malformed`] on an
    /// impossible length.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.get_count(1)?;
        Ok(self.take(n, "bytes")?.to_vec())
    }

    /// Reads an element count for a sequence whose items each encode to
    /// at least `min_item_bytes` bytes, so a caller may pre-allocate
    /// `n` items without trusting the stream: a count the remaining bytes
    /// cannot possibly hold is rejected before anything is allocated.
    ///
    /// # Errors
    /// [`WireError::Truncated`], or [`WireError::Malformed`] when
    /// `n > remaining() / min_item_bytes`.
    pub fn get_count(&mut self, min_item_bytes: usize) -> Result<usize, WireError> {
        let at = self.pos;
        let n = self.get_u64()?;
        if n > (self.remaining() / min_item_bytes) as u64 {
            return Err(WireError::Malformed { at, what: "element count exceeds stream" });
        }
        Ok(n as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    /// [`WireError::Truncated`] / [`WireError::Malformed`] on bad length
    /// or invalid UTF-8.
    pub fn get_str(&mut self) -> Result<String, WireError> {
        let at = self.pos;
        let b = self.get_bytes()?;
        String::from_utf8(b).map_err(|_| WireError::Malformed { at, what: "invalid UTF-8" })
    }

    /// Reads a length-prefixed `u32` slice.
    ///
    /// # Errors
    /// [`WireError::Truncated`] / [`WireError::Malformed`] on an
    /// impossible length.
    pub fn get_u32s(&mut self) -> Result<Vec<u32>, WireError> {
        let n = self.get_count(4)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_u32()?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut w = Wire::new();
        w.put_u8(0xAB);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_i64(-42);
        w.put_f64(-0.5);
        w.put_f64(f64::NAN);
        w.put_bool(true);
        w.put_bool(false);
        w.put_usize(123_456);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_f64().unwrap(), -0.5);
        assert!(r.get_f64().unwrap().is_nan());
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
        assert_eq!(r.get_usize().unwrap(), 123_456);
        r.expect_end().unwrap();
    }

    #[test]
    fn strings_and_slices_round_trip() {
        let mut w = Wire::new();
        w.put_bytes(&[1, 2, 3]);
        w.put_str("héllo");
        w.put_u32s(&[7, 8, 9]);
        w.put_bytes(&[]);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert_eq!(r.get_u32s().unwrap(), vec![7, 8, 9]);
        assert_eq!(r.get_bytes().unwrap(), Vec::<u8>::new());
        r.expect_end().unwrap();
    }

    #[test]
    fn truncation_and_malformed_are_detected() {
        let mut r = WireReader::new(&[1, 2]);
        assert!(matches!(r.get_u32(), Err(WireError::Truncated { .. })));

        // Length prefix claims more bytes than the stream holds.
        let mut w = Wire::new();
        w.put_u64(1_000);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert!(matches!(r.get_bytes(), Err(WireError::Malformed { .. })));

        // Bad bool byte.
        let mut r = WireReader::new(&[7]);
        assert!(matches!(r.get_bool(), Err(WireError::Malformed { .. })));

        // Trailing bytes.
        let r = WireReader::new(&[0]);
        assert!(r.expect_end().is_err());
    }

    #[test]
    fn identical_writes_are_byte_identical() {
        let emit = || {
            let mut w = Wire::new();
            w.put_str("state");
            w.put_u64(99);
            w.put_u32s(&[1, 2, 3]);
            w.finish()
        };
        assert_eq!(emit(), emit());
    }
}
