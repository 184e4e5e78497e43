//! Append-only batch journal with per-record framing.
//!
//! Record wire format (little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"NJR1"
//! 4       4     payload length (u32)
//! 8       4     CRC-32 (IEEE) of the payload bytes
//! 12      n     payload
//! ```
//!
//! The reader distinguishes the two kinds of damage a journal can carry:
//!
//! * **Torn tail** — the final record is incomplete because the process
//!   died mid-append. This is *expected* damage: the reader stops at the
//!   last complete record and reports how many trailing bytes it
//!   dropped. Dropping it is safe under the checkpoint protocol (append
//!   only after a batch is applied, treat only a complete append as an
//!   acknowledgement): the durable state simply ends one batch earlier
//!   and the driver re-feeds the un-acknowledged batch.
//! * **Interior corruption** — a complete record whose CRC or magic does
//!   not match, i.e. silent media damage. This is *not* recoverable by
//!   truncation (later records may describe batches that were applied),
//!   so it is a hard [`DurabilityError::Corrupt`].

use crate::codec::crc32;
use crate::error::DurabilityError;
use crate::fs::Fs;
use std::ops::Range;
use std::path::Path;

/// Magic bytes opening every journal record.
pub const RECORD_MAGIC: [u8; 4] = *b"NJR1";

/// Fixed per-record header size.
pub const RECORD_HEADER_LEN: usize = 4 + 4 + 4;

/// Frames one record for appending.
pub fn encode_record(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
    out.extend_from_slice(&RECORD_MAGIC);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Durably appends one record to the journal at `path`.
///
/// # Errors
///
/// [`DurabilityError::Io`] on filesystem failure. The append is a single
/// `write(2)`-style call through [`Fs::append`], so a crash leaves at
/// worst a torn tail that the reader drops.
pub fn append_record<F: Fs>(fs: &F, path: &Path, payload: &[u8]) -> Result<(), DurabilityError> {
    fs.append(path, &encode_record(payload))
        .map_err(|e| DurabilityError::io("append", path, e))
}

/// Result of scanning a journal file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalScan {
    /// Payloads of every complete, checksum-valid record, in file order.
    pub records: Vec<Vec<u8>>,
    /// Bytes of an incomplete final record dropped as a torn tail
    /// (0 when the file ended exactly on a record boundary).
    pub torn_tail_bytes: usize,
}

/// Reads and validates a journal. A missing file is an empty journal.
///
/// # Errors
///
/// [`DurabilityError::Io`] on read failure, [`DurabilityError::Corrupt`]
/// on interior corruption (bad magic or CRC on a complete record).
pub fn read_journal<F: Fs>(fs: &F, path: &Path) -> Result<JournalScan, DurabilityError> {
    let bytes = match fs.read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(JournalScan::default()),
        Err(e) => return Err(DurabilityError::io("read", path, e)),
    };
    Ok(scan_records(path, &bytes)?.to_scan(&bytes))
}

/// Where the records of a journal file lie, without copying them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordSpans {
    /// Byte range of every complete, checksum-valid record — header and
    /// payload — in file order. The ranges are contiguous from offset 0.
    pub records: Vec<Range<usize>>,
    /// Bytes of an incomplete final record after the last range
    /// (0 when the file ended exactly on a record boundary).
    pub torn_tail_bytes: usize,
}

impl RecordSpans {
    /// The payloads of the records in `bytes` (the scanned contents), in
    /// file order.
    pub fn payloads<'a>(&'a self, bytes: &'a [u8]) -> impl Iterator<Item = &'a [u8]> + 'a {
        self.records
            .iter()
            .map(move |r| &bytes[r.start + RECORD_HEADER_LEN..r.end])
    }

    /// Copies the payloads out of `bytes` (the scanned contents).
    pub fn to_scan(&self, bytes: &[u8]) -> JournalScan {
        JournalScan {
            records: self.payloads(bytes).map(<[u8]>::to_vec).collect(),
            torn_tail_bytes: self.torn_tail_bytes,
        }
    }
}

/// Validates the journal file contents `bytes` and locates its records.
/// `path` is only used for error messages.
///
/// # Errors
///
/// [`DurabilityError::Corrupt`] on interior corruption (bad magic or
/// CRC on a complete record).
pub fn scan_records(path: &Path, bytes: &[u8]) -> Result<RecordSpans, DurabilityError> {
    let mut spans = RecordSpans::default();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        if rest.len() < RECORD_HEADER_LEN {
            // Header itself is incomplete: torn tail.
            spans.torn_tail_bytes = rest.len();
            break;
        }
        if rest[..4] != RECORD_MAGIC {
            return Err(DurabilityError::Corrupt {
                path: path.display().to_string(),
                offset: pos as u64,
                detail: format!(
                    "record magic mismatch (found {:02x?}) — interior corruption",
                    &rest[..4]
                ),
            });
        }
        let len = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]) as usize;
        let declared_crc = u32::from_le_bytes([rest[8], rest[9], rest[10], rest[11]]);
        if rest.len() < RECORD_HEADER_LEN + len {
            // Payload is incomplete: torn tail.
            spans.torn_tail_bytes = rest.len();
            break;
        }
        let payload = &rest[RECORD_HEADER_LEN..RECORD_HEADER_LEN + len];
        let actual_crc = crc32(payload);
        if declared_crc != actual_crc {
            // The record is complete but its bytes changed after the
            // append — silent corruption, not a torn write.
            return Err(DurabilityError::Corrupt {
                path: path.display().to_string(),
                offset: (pos + 8) as u64,
                detail: format!(
                    "record CRC mismatch: header says {declared_crc:#010x}, \
                     payload hashes to {actual_crc:#010x}"
                ),
            });
        }
        let end = pos + RECORD_HEADER_LEN + len;
        spans.records.push(pos..end);
        pos = end;
    }
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::MemFs;
    use std::path::PathBuf;

    fn path() -> PathBuf {
        PathBuf::from("/store/journal.neatlog")
    }

    #[test]
    fn missing_journal_is_empty() {
        let fs = MemFs::new();
        let scan = read_journal(&fs, &path()).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.torn_tail_bytes, 0);
    }

    #[test]
    fn appended_records_read_back_in_order() {
        let fs = MemFs::new();
        for payload in [b"one".as_slice(), b"two", b"", b"four"] {
            append_record(&fs, &path(), payload).unwrap();
        }
        let scan = read_journal(&fs, &path()).unwrap();
        assert_eq!(
            scan.records,
            vec![b"one".to_vec(), b"two".to_vec(), vec![], b"four".to_vec()]
        );
        assert_eq!(scan.torn_tail_bytes, 0);
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let fs = MemFs::new();
        append_record(&fs, &path(), b"kept").unwrap();
        let torn = encode_record(b"lost in the crash");
        // Simulate a crash mid-append at every possible cut point.
        for cut in 1..torn.len() {
            let fs2 = MemFs::new();
            fs2.write(&path(), &fs.read(&path()).unwrap()).unwrap();
            fs2.append(&path(), &torn[..cut]).unwrap();
            let scan = read_journal(&fs2, &path()).unwrap();
            assert_eq!(scan.records, vec![b"kept".to_vec()], "cut at {cut}");
            assert_eq!(scan.torn_tail_bytes, cut, "cut at {cut}");
        }
    }

    #[test]
    fn interior_bit_flip_is_a_hard_error() {
        let fs = MemFs::new();
        append_record(&fs, &path(), b"first record payload").unwrap();
        append_record(&fs, &path(), b"second record payload").unwrap();
        let clean = fs.read(&path()).unwrap();
        let first_len = encode_record(b"first record payload").len();
        // Flip every byte of the *first* record: always detected because a
        // complete, valid second record follows.
        for i in 0..first_len {
            let mut bad = clean.clone();
            bad[i] ^= 0x40;
            let fs2 = MemFs::new();
            fs2.write(&path(), &bad).unwrap();
            let r = read_journal(&fs2, &path());
            match r {
                Err(DurabilityError::Corrupt { .. }) => {}
                // A flip in the length field can make the first record
                // swallow the second and then run past EOF — that reads
                // as a torn tail with only garbage recovered; the CRC
                // still prevents silent acceptance of altered payloads.
                Ok(scan) => assert!(
                    scan.records.len() < 2,
                    "flip at {i} silently preserved both records"
                ),
                Err(e) => panic!("unexpected error kind at {i}: {e}"),
            }
        }
    }

    #[test]
    fn payload_bit_flip_never_silently_accepted() {
        let fs = MemFs::new();
        append_record(&fs, &path(), b"abcdefgh").unwrap();
        let clean = fs.read(&path()).unwrap();
        for i in RECORD_HEADER_LEN..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 0x01;
            let fs2 = MemFs::new();
            fs2.write(&path(), &bad).unwrap();
            let r = read_journal(&fs2, &path());
            assert!(
                matches!(r, Err(DurabilityError::Corrupt { .. })),
                "payload flip at {i} not detected: {r:?}"
            );
        }
    }
}
