//! Deterministic little-endian binary codec with bounds-checked decoding.
//!
//! The encoder produces byte-identical output for equal input — no
//! pointers, no hash order, no platform-dependent widths (`usize` is
//! always written as `u64`). The decoder validates every length prefix
//! against the bytes actually remaining, so a corrupted count can never
//! trigger an oversized allocation or an out-of-bounds read; it fails
//! with [`DurabilityError::Truncated`] / [`DurabilityError::Malformed`]
//! instead.

use crate::error::DurabilityError;

/// CRC-32 (IEEE 802.3, the zlib polynomial), slice-by-8: the bulk of
/// the input is folded eight bytes per step through eight derived
/// tables, and the tail (fewer than eight bytes) byte by byte through
/// the first. The values are exactly those of the classic bytewise
/// table-driven CRC.
pub fn crc32(bytes: &[u8]) -> u32 {
    const T: [[u32; 256]; 8] = crc32_tables();
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = T[7][(lo & 0xFF) as usize]
            ^ T[6][((lo >> 8) & 0xFF) as usize]
            ^ T[5][((lo >> 16) & 0xFF) as usize]
            ^ T[4][(lo >> 24) as usize]
            ^ T[3][(hi & 0xFF) as usize]
            ^ T[2][((hi >> 8) & 0xFF) as usize]
            ^ T[1][((hi >> 16) & 0xFF) as usize]
            ^ T[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ T[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// The slice-by-8 tables: `T[0]` is the bytewise table of the reflected
/// polynomial `0xEDB88320`; `T[k][i]` advances `T[k - 1][i]` by one more
/// zero byte, so `T[k]` accounts for a byte `k` positions before the end
/// of an 8-byte block.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// FNV-1a 64-bit hash, used for configuration hashes and road-network
/// fingerprints (stable across runs and platforms).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Append-only binary encoder.
#[derive(Debug, Default, Clone)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// Creates an encoder with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Enc {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Continues writing after the bytes already in `buf` (its spare
    /// capacity is kept) — how a caller encodes straight after a
    /// reserved frame header.
    pub fn from_vec(buf: Vec<u8>) -> Self {
        Enc { buf }
    }

    /// Consumes the encoder, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (platform-independent width).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` via its IEEE-754 bit pattern (NaN-safe,
    /// byte-exact round trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Bounds-checked binary decoder over a byte slice.
#[derive(Debug, Clone)]
pub struct Dec<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Creates a decoder over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Dec { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// `true` when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Fails unless the input is fully consumed — trailing garbage after
    /// a structurally valid payload is corruption, not slack.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Malformed`] naming `context` when bytes remain.
    pub fn expect_exhausted(&self, context: &str) -> Result<(), DurabilityError> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(DurabilityError::Malformed {
                context: context.to_string(),
                detail: format!("{} trailing bytes after payload", self.remaining()),
            })
        }
    }

    fn take(&mut self, n: usize, context: &str) -> Result<&'a [u8], DurabilityError> {
        if self.remaining() < n {
            return Err(DurabilityError::Truncated {
                context: context.to_string(),
                remaining: self.remaining(),
                needed: n,
            });
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Truncated`] when the input ends early.
    pub fn u8(&mut self, context: &str) -> Result<u8, DurabilityError> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Truncated`] when the input ends early.
    pub fn u32(&mut self, context: &str) -> Result<u32, DurabilityError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Truncated`] when the input ends early.
    pub fn u64(&mut self, context: &str) -> Result<u64, DurabilityError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `usize` written by [`Enc::usize`].
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Truncated`] on early end;
    /// [`DurabilityError::Malformed`] when the value exceeds this
    /// platform's `usize`.
    pub fn usize(&mut self, context: &str) -> Result<usize, DurabilityError> {
        let v = self.u64(context)?;
        usize::try_from(v).map_err(|_| DurabilityError::Malformed {
            context: context.to_string(),
            detail: format!("value {v} exceeds platform usize"),
        })
    }

    /// Reads an `f64` from its bit pattern.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Truncated`] when the input ends early.
    pub fn f64(&mut self, context: &str) -> Result<f64, DurabilityError> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    /// Reads an element count that prefixes a sequence whose elements
    /// occupy at least `min_elem_size` bytes each. The count is validated
    /// against the remaining input, so corrupt counts fail here instead
    /// of provoking a huge allocation downstream.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Malformed`] when `count * min_elem_size`
    /// exceeds the remaining bytes.
    pub fn count(&mut self, context: &str, min_elem_size: usize) -> Result<usize, DurabilityError> {
        let n = self.usize(context)?;
        let budget = self.remaining() / min_elem_size.max(1);
        if n > budget {
            return Err(DurabilityError::Malformed {
                context: context.to_string(),
                detail: format!(
                    "count {n} cannot fit in {} remaining bytes (≥{} each)",
                    self.remaining(),
                    min_elem_size
                ),
            });
        }
        Ok(n)
    }

    /// Reads a length-prefixed byte string written by [`Enc::bytes`].
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Truncated`] when the declared length exceeds
    /// the remaining input.
    pub fn bytes(&mut self, context: &str) -> Result<&'a [u8], DurabilityError> {
        let len = self.usize(context)?;
        if len > self.remaining() {
            return Err(DurabilityError::Truncated {
                context: context.to_string(),
                remaining: self.remaining(),
                needed: len,
            });
        }
        self.take(len, context)
    }

    /// Reads a length-prefixed UTF-8 string written by [`Enc::str`].
    ///
    /// # Errors
    ///
    /// As [`Dec::bytes`], plus [`DurabilityError::Malformed`] on invalid
    /// UTF-8.
    pub fn str(&mut self, context: &str) -> Result<&'a str, DurabilityError> {
        let raw = self.bytes(context)?;
        std::str::from_utf8(raw).map_err(|e| DurabilityError::Malformed {
            context: context.to_string(),
            detail: format!("invalid utf-8: {e}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard zlib/IEEE test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_detects_single_byte_change() {
        let a = b"hello world".to_vec();
        let base = crc32(&a);
        for i in 0..a.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut b = a.clone();
                b[i] ^= flip;
                assert_ne!(crc32(&b), base, "flip {flip:02x} at {i} undetected");
            }
        }
    }

    #[test]
    fn fnv64_is_stable_and_input_sensitive() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv64(b"a"), fnv64(b"b"));
        assert_eq!(fnv64(b"neat"), fnv64(b"neat"));
    }

    #[test]
    fn primitives_round_trip() {
        let mut e = Enc::new();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 1);
        e.usize(12345);
        e.f64(-0.0);
        e.f64(f64::INFINITY);
        e.f64(f64::NAN);
        e.bytes(b"raw");
        e.str("text");
        let bytes = e.into_bytes();

        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8("a").unwrap(), 7);
        assert_eq!(d.u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64("c").unwrap(), u64::MAX - 1);
        assert_eq!(d.usize("d").unwrap(), 12345);
        assert_eq!(d.f64("e").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(d.f64("f").unwrap(), f64::INFINITY);
        assert!(d.f64("g").unwrap().is_nan());
        assert_eq!(d.bytes("h").unwrap(), b"raw");
        assert_eq!(d.str("i").unwrap(), "text");
        assert!(d.is_exhausted());
        assert!(d.expect_exhausted("top").is_ok());
    }

    #[test]
    fn truncated_reads_fail_cleanly() {
        let mut e = Enc::new();
        e.u64(1);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes[..5]);
        let err = d.u64("field").unwrap_err();
        assert!(matches!(err, DurabilityError::Truncated { .. }), "{err}");
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocation() {
        // A corrupt length prefix claiming ~2^63 bytes must fail fast.
        let mut e = Enc::new();
        e.u64(u64::MAX / 2);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(d.bytes("blob").is_err());
        let mut d = Dec::new(&bytes);
        assert!(d.count("elems", 4).is_err());
    }

    #[test]
    fn count_within_budget_passes() {
        let mut e = Enc::new();
        e.usize(3);
        e.u32(1);
        e.u32(2);
        e.u32(3);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.count("elems", 4).unwrap(), 3);
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let mut e = Enc::new();
        e.u8(1);
        e.u8(2);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        d.u8("x").unwrap();
        let err = d.expect_exhausted("payload").unwrap_err();
        assert!(matches!(err, DurabilityError::Malformed { .. }));
    }

    #[test]
    fn invalid_utf8_is_malformed() {
        let mut e = Enc::new();
        e.bytes(&[0xFF, 0xFE]);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(matches!(
            d.str("name").unwrap_err(),
            DurabilityError::Malformed { .. }
        ));
    }
}
