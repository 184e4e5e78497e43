//! The snapshot container frame: magic, version, length and CRC around
//! an opaque payload.
//!
//! Wire format (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"NEATSNAP"
//! 8       4     format version (u32)
//! 12      8     payload length (u64) — must equal exactly the bytes after the header
//! 20      4     CRC-32 (IEEE) of the payload bytes
//! 24      n     payload
//! ```
//!
//! Every field is validated on decode, in order: magic, version, length,
//! checksum. A single flipped bit anywhere in the file — header or
//! payload — fails at least one of those checks, so corruption is always
//! reported as a structured [`DurabilityError`], never silently accepted.

use crate::codec::crc32;
use crate::error::DurabilityError;
use std::path::Path;

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"NEATSNAP";

/// Fixed header size preceding the payload.
pub const SNAPSHOT_HEADER_LEN: usize = 8 + 4 + 8 + 4;

/// A buffer for building a snapshot in place: [`SNAPSHOT_HEADER_LEN`]
/// zero bytes reserved for the header, with room for `payload_capacity`
/// payload bytes after it. Append the payload, then seal the buffer with
/// [`frame_in_place`] — the payload is never copied into a second buffer.
pub fn buffer_with_header(payload_capacity: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(SNAPSHOT_HEADER_LEN + payload_capacity);
    buf.resize(SNAPSHOT_HEADER_LEN, 0);
    buf
}

/// The header that frames `payload`.
fn header(version: u32, payload: &[u8]) -> [u8; SNAPSHOT_HEADER_LEN] {
    let mut h = [0u8; SNAPSHOT_HEADER_LEN];
    h[..8].copy_from_slice(&SNAPSHOT_MAGIC);
    h[8..12].copy_from_slice(&version.to_le_bytes());
    h[12..20].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    h[20..].copy_from_slice(&crc32(payload).to_le_bytes());
    h
}

/// Seals a buffer laid out by [`buffer_with_header`]: writes magic,
/// version, the length and the CRC of everything after the first
/// [`SNAPSHOT_HEADER_LEN`] bytes into those first bytes.
///
/// # Errors
///
/// [`DurabilityError::Malformed`] when `framed` is shorter than the
/// header it must hold.
pub fn frame_in_place(version: u32, framed: &mut [u8]) -> Result<(), DurabilityError> {
    let Some((head, payload)) = framed.split_at_mut_checked(SNAPSHOT_HEADER_LEN) else {
        return Err(DurabilityError::Malformed {
            context: "snapshot frame".to_string(),
            detail: format!(
                "{} bytes cannot hold the {SNAPSHOT_HEADER_LEN}-byte header",
                framed.len()
            ),
        });
    };
    head.copy_from_slice(&header(version, payload));
    Ok(())
}

/// Frames a payload held in its own buffer into the snapshot container
/// format (one copy of the payload; [`frame_in_place`] needs none).
pub fn encode_snapshot(version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(SNAPSHOT_HEADER_LEN + payload.len());
    out.extend_from_slice(&header(version, payload));
    out.extend_from_slice(payload);
    out
}

/// Validates a framed snapshot and returns its payload.
///
/// `path` is only used for error messages.
///
/// # Errors
///
/// [`DurabilityError::BadMagic`] / [`DurabilityError::UnsupportedVersion`]
/// / [`DurabilityError::Corrupt`] depending on which check fails first.
pub fn decode_snapshot<'a>(
    path: &Path,
    version: u32,
    bytes: &'a [u8],
) -> Result<&'a [u8], DurabilityError> {
    let display = || path.display().to_string();
    if bytes.len() < SNAPSHOT_HEADER_LEN {
        return Err(DurabilityError::Corrupt {
            path: display(),
            offset: 0,
            detail: format!(
                "file is {} bytes, shorter than the {SNAPSHOT_HEADER_LEN}-byte header",
                bytes.len()
            ),
        });
    }
    if bytes[..8] != SNAPSHOT_MAGIC {
        return Err(DurabilityError::BadMagic {
            path: display(),
            found: bytes[..8].to_vec(),
        });
    }
    let got_version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if got_version != version {
        return Err(DurabilityError::UnsupportedVersion {
            path: display(),
            got: got_version,
            supported: version,
        });
    }
    let declared_len = u64::from_le_bytes([
        bytes[12], bytes[13], bytes[14], bytes[15], bytes[16], bytes[17], bytes[18], bytes[19],
    ]);
    let payload = &bytes[SNAPSHOT_HEADER_LEN..];
    if declared_len != payload.len() as u64 {
        return Err(DurabilityError::Corrupt {
            path: display(),
            offset: 12,
            detail: format!(
                "declared payload length {declared_len} but {} bytes follow the header \
                 (torn or short write)",
                payload.len()
            ),
        });
    }
    let declared_crc = u32::from_le_bytes([bytes[20], bytes[21], bytes[22], bytes[23]]);
    let actual_crc = crc32(payload);
    if declared_crc != actual_crc {
        return Err(DurabilityError::Corrupt {
            path: display(),
            offset: 20,
            detail: format!(
                "payload CRC mismatch: header says {declared_crc:#010x}, \
                 payload hashes to {actual_crc:#010x}"
            ),
        });
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    const V: u32 = 3;

    fn p() -> &'static Path {
        Path::new("snap-test.neatsnap")
    }

    #[test]
    fn frame_round_trips() {
        let payload = b"the retained flows";
        let framed = encode_snapshot(V, payload);
        assert_eq!(decode_snapshot(p(), V, &framed).unwrap(), payload);
    }

    #[test]
    fn framing_in_place_matches_the_copying_frame() {
        for payload in [&b""[..], b"x", b"the retained flows"] {
            let mut buf = buffer_with_header(payload.len());
            buf.extend_from_slice(payload);
            frame_in_place(V, &mut buf).unwrap();
            assert_eq!(buf, encode_snapshot(V, payload));
        }
        let mut short = [0u8; SNAPSHOT_HEADER_LEN - 1];
        assert!(matches!(
            frame_in_place(V, &mut short).unwrap_err(),
            DurabilityError::Malformed { .. }
        ));
    }

    #[test]
    fn empty_payload_round_trips() {
        let framed = encode_snapshot(V, b"");
        assert_eq!(decode_snapshot(p(), V, &framed).unwrap(), b"");
    }

    #[test]
    fn torn_tail_is_reported_as_corrupt() {
        let framed = encode_snapshot(V, b"0123456789");
        // Simulate a torn write: only a prefix reached the disk.
        for cut in SNAPSHOT_HEADER_LEN..framed.len() {
            let err = decode_snapshot(p(), V, &framed[..cut]).unwrap_err();
            assert!(
                matches!(err, DurabilityError::Corrupt { .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn header_shorter_than_fixed_size_is_corrupt() {
        let framed = encode_snapshot(V, b"x");
        for cut in 0..SNAPSHOT_HEADER_LEN {
            assert!(
                decode_snapshot(p(), V, &framed[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn wrong_magic_and_version_are_structured() {
        let mut framed = encode_snapshot(V, b"payload");
        framed[0] ^= 0xFF;
        assert!(matches!(
            decode_snapshot(p(), V, &framed).unwrap_err(),
            DurabilityError::BadMagic { .. }
        ));
        let framed = encode_snapshot(V + 1, b"payload");
        assert!(matches!(
            decode_snapshot(p(), V, &framed).unwrap_err(),
            DurabilityError::UnsupportedVersion { got, supported, .. }
                if got == V + 1 && supported == V
        ));
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let framed = encode_snapshot(V, b"some payload worth protecting");
        for i in 0..framed.len() {
            for flip in [0x01u8, 0x10, 0xFF] {
                let mut bad = framed.clone();
                bad[i] ^= flip;
                assert!(
                    decode_snapshot(p(), V, &bad).is_err(),
                    "flip {flip:02x} at byte {i} was silently accepted"
                );
            }
        }
    }

    #[test]
    fn appended_garbage_is_detected() {
        let mut framed = encode_snapshot(V, b"payload");
        framed.extend_from_slice(b"trailing junk");
        assert!(matches!(
            decode_snapshot(p(), V, &framed).unwrap_err(),
            DurabilityError::Corrupt { offset: 12, .. }
        ));
    }
}
