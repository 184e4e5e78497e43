//! A checkpoint directory: numbered snapshots plus a segmented journal.
//!
//! Layout inside the store directory:
//!
//! ```text
//! snap-00000000000000000042.neatsnap   snapshot up to sequence 42
//! snap-00000000000000000045.neatsnap   snapshot up to sequence 45
//! journal.neatlog                      journal segment 0 (legacy name)
//! journal-00000000000000000001.neatlog journal segment 1
//! journal-00000000000000000002.neatlog journal segment 2 (append target)
//! *.tmp                                in-flight atomic writes (ignored)
//! ```
//!
//! Invariants the store maintains:
//!
//! * Snapshots are written atomically (temp + rename), so a crash never
//!   leaves a half-written `snap-*.neatsnap` — at worst a `.tmp` stray.
//! * The two most recent snapshots are retained. The journal is
//!   compacted only past the *previous* retained snapshot's sequence, so
//!   even if the latest snapshot is silently corrupted (bit rot), the
//!   previous one plus the journal still reconstructs the full state.
//! * Journal records carry their sequence number in the payload; replay
//!   filters on `seq > snapshot.seq`, which makes the
//!   snapshot-then-compact pair crash-safe in any interleaving.
//! * The journal is a list of **segments**: appends go to the
//!   highest-numbered segment, rolling to a fresh one past a size
//!   threshold. [`Store::compact_journal`] rewrites the live records
//!   into a brand-new segment (temp + fsync + atomic rename) and only
//!   then removes the old segment files — a crash at any step leaves
//!   either the old segments, both (duplicates resolved on load: the
//!   newer segment wins when the payloads agree byte-for-byte), or the
//!   compacted one. No step ever rewrites a file appends go to.

use crate::error::DurabilityError;
use crate::fs::{is_tmp, write_atomic, Fs};
use crate::journal::{append_record, scan_records, JournalScan, RecordSpans};
use crate::snapshot::{buffer_with_header, decode_snapshot, frame_in_place, SNAPSHOT_HEADER_LEN};
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// File name of journal segment 0 (the pre-segmentation journal name,
/// kept so existing store directories need no migration).
pub const JOURNAL_FILE: &str = "journal.neatlog";

/// Extension of snapshot files.
pub const SNAPSHOT_EXT: &str = "neatsnap";

/// How many snapshots [`Store::write_snapshot`] retains.
pub const RETAIN_SNAPSHOTS: usize = 2;

/// Default size past which [`Store::append_journal`] rolls to a fresh
/// journal segment.
pub const DEFAULT_JOURNAL_ROLL_BYTES: usize = 256 * 1024;

/// A store handle: a directory accessed through an [`Fs`].
#[derive(Debug, Clone)]
pub struct Store<F: Fs> {
    fs: F,
    dir: PathBuf,
    version: u32,
    roll_bytes: usize,
}

/// One journal entry surfaced to the caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// Sequence number the record was tagged with.
    pub seq: u64,
    /// The caller's payload.
    pub payload: Vec<u8>,
}

/// What one [`Store::compact_journal`] pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactionOutcome {
    /// Records carried over into the new segment.
    pub live_records: usize,
    /// Records dropped because their sequence was at or below the cutoff.
    pub dropped_records: usize,
    /// Old segment files removed after the rewrite landed.
    pub segments_removed: usize,
    /// Index of the freshly written segment, when one was written.
    pub new_segment: Option<u64>,
}

/// What [`Store::write_snapshot`] did *after* the snapshot itself
/// landed: snapshot retention and journal compaction.
///
/// The snapshot write is the durability-critical step and failing it is
/// a hard error; retention only reclaims space, so its failure is
/// reported here instead of unwinding the caller — the store keeps
/// serving from the old segments and the caller retries later.
#[derive(Debug, Default)]
pub struct RetentionReport {
    /// Surplus snapshot files removed.
    pub snapshots_removed: usize,
    /// Journal compaction outcome, when compaction ran.
    pub compaction: Option<CompactionOutcome>,
    /// First error retention hit, if any; earlier steps still applied.
    pub error: Option<DurabilityError>,
}

/// What [`Store::load`] recovered from disk.
#[derive(Debug, Clone, Default)]
pub struct Recovery {
    /// Newest loadable snapshot, as `(sequence, payload)`.
    pub snapshot: Option<(u64, Vec<u8>)>,
    /// Journal entries with `seq` greater than the snapshot's sequence
    /// (all entries when there is no snapshot), in sequence order.
    pub journal: Vec<JournalEntry>,
    /// Snapshot files that failed validation and were skipped, as
    /// `(file name, reason)` — newest first.
    pub rejected_snapshots: Vec<(String, String)>,
    /// Bytes dropped from an incomplete final journal record.
    pub torn_tail_bytes: usize,
}

impl<F: Fs> Store<F> {
    /// Opens (creating if necessary) a store directory.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Io`] when the directory cannot be created.
    pub fn open(fs: F, dir: impl Into<PathBuf>, version: u32) -> Result<Self, DurabilityError> {
        let dir = dir.into();
        fs.create_dir_all(&dir)
            .map_err(|e| DurabilityError::io("create_dir_all", &dir, e))?;
        Ok(Store {
            fs,
            dir,
            version,
            roll_bytes: DEFAULT_JOURNAL_ROLL_BYTES,
        })
    }

    /// Overrides the journal segment roll threshold (bytes).
    #[must_use]
    pub fn with_journal_roll_bytes(mut self, roll_bytes: usize) -> Self {
        self.roll_bytes = roll_bytes.max(1);
        self
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The filesystem handle.
    pub fn fs(&self) -> &F {
        &self.fs
    }

    /// Path of journal segment 0 (the legacy single-file journal).
    pub fn journal_path(&self) -> PathBuf {
        self.segment_path(0)
    }

    /// Path of journal segment `idx`. Segment 0 keeps the historical
    /// `journal.neatlog` name so pre-segmentation stores load unchanged.
    pub fn segment_path(&self, idx: u64) -> PathBuf {
        if idx == 0 {
            self.dir.join(JOURNAL_FILE)
        } else {
            self.dir.join(format!("journal-{idx:020}.neatlog"))
        }
    }

    /// Parses a journal segment file name back into its index.
    fn parse_segment_name(path: &Path) -> Option<u64> {
        let name = path.file_name()?.to_str()?;
        if name == JOURNAL_FILE {
            return Some(0);
        }
        name.strip_prefix("journal-")?
            .strip_suffix(".neatlog")?
            .parse()
            .ok()
    }

    /// Journal segment indices currently on disk, ascending.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Io`] when the directory cannot be listed.
    pub fn journal_segments(&self) -> Result<Vec<u64>, DurabilityError> {
        let mut idxs: Vec<u64> = self
            .fs
            .list(&self.dir)
            .map_err(|e| DurabilityError::io("list", &self.dir, e))?
            .iter()
            .filter(|p| !is_tmp(p))
            .filter_map(|p| Self::parse_segment_name(p))
            .collect();
        idxs.sort_unstable();
        Ok(idxs)
    }

    /// Total bytes across all journal segments — the number a bounded
    /// retention loop keeps O(window).
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Io`] on filesystem failure.
    pub fn journal_bytes(&self) -> Result<usize, DurabilityError> {
        let mut total = 0usize;
        for idx in self.journal_segments()? {
            total += self.segment_len(idx)?;
        }
        Ok(total)
    }

    /// Size of journal segment `idx` in bytes (0 when it is absent),
    /// from the file's metadata rather than its contents.
    fn segment_len(&self, idx: u64) -> Result<usize, DurabilityError> {
        let path = self.segment_path(idx);
        match self.fs.len(&path) {
            Ok(len) => Ok(len as usize),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(DurabilityError::io("len", &path, e)),
        }
    }

    fn snapshot_path(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("snap-{seq:020}.{SNAPSHOT_EXT}"))
    }

    /// Parses `snap-<seq>.neatsnap` back into its sequence number.
    fn parse_snapshot_name(path: &Path) -> Option<u64> {
        let name = path.file_name()?.to_str()?;
        let stem = name
            .strip_prefix("snap-")?
            .strip_suffix(&format!(".{SNAPSHOT_EXT}"))?;
        stem.parse().ok()
    }

    /// Snapshot sequences currently on disk, ascending.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Io`] when the directory cannot be listed.
    pub fn snapshot_seqs(&self) -> Result<Vec<u64>, DurabilityError> {
        let mut seqs: Vec<u64> = self
            .fs
            .list(&self.dir)
            .map_err(|e| DurabilityError::io("list", &self.dir, e))?
            .iter()
            .filter(|p| !is_tmp(p))
            .filter_map(|p| Self::parse_snapshot_name(p))
            .collect();
        seqs.sort_unstable();
        Ok(seqs)
    }

    /// Frames `payload` and writes it as the snapshot for `seq`; see
    /// [`Store::write_snapshot_framed`], which this forwards to after
    /// copying the payload behind a header. A caller that builds its
    /// payload anyway should build it behind a reserved header
    /// ([`buffer_with_header`]) and call
    /// [`Store::write_snapshot_framed`] directly, copying nothing.
    ///
    /// # Errors
    ///
    /// As [`Store::write_snapshot_framed`].
    pub fn write_snapshot(
        &self,
        seq: u64,
        payload: &[u8],
    ) -> Result<RetentionReport, DurabilityError> {
        let mut framed = buffer_with_header(payload.len());
        framed.extend_from_slice(payload);
        self.write_snapshot_framed(seq, framed)
    }

    /// Seals `framed` — [`SNAPSHOT_HEADER_LEN`] reserved bytes followed
    /// by the payload — in place with
    /// [`frame_in_place`](crate::snapshot::frame_in_place), atomically
    /// writes it as a snapshot covering everything up to and including
    /// sequence `seq`, then applies the retention policy:
    /// snapshots older than the newest [`RETAIN_SNAPSHOTS`] are removed
    /// and the journal is compacted to records with `seq` greater than
    /// the *previous* retained snapshot. The buffer is freed once the
    /// snapshot has landed, before compaction allocates its own.
    ///
    /// The write is crash-safe at every step: the snapshot lands via
    /// temp + rename, compaction writes a fresh segment before removing
    /// old ones, and a crash between the two leaves only
    /// already-snapshotted records in the journal, which replay skips by
    /// sequence.
    ///
    /// # Errors
    ///
    /// [`DurabilityError`] only when the snapshot itself failed to land
    /// — the store is then no worse than before the call. Retention
    /// failures (e.g. disk full while compacting) are *not* errors: the
    /// snapshot is durable, the old segments keep the store loadable,
    /// and the failure is surfaced in [`RetentionReport::error`] for the
    /// caller to count and retry.
    pub fn write_snapshot_framed(
        &self,
        seq: u64,
        mut framed: Vec<u8>,
    ) -> Result<RetentionReport, DurabilityError> {
        frame_in_place(self.version, &mut framed)?;
        write_atomic(&self.fs, &self.snapshot_path(seq), &framed)?;
        // Free the snapshot before compaction allocates its own buffers.
        drop(framed);
        Ok(self.apply_retention())
    }

    /// Removes surplus snapshots and compacts the journal. Failures
    /// here leave only *extra* data behind, never less, so they are
    /// reported in the returned [`RetentionReport`] instead of unwound.
    fn apply_retention(&self) -> RetentionReport {
        let mut report = RetentionReport::default();
        let seqs = match self.snapshot_seqs() {
            Ok(seqs) => seqs,
            Err(e) => {
                report.error = Some(e);
                return report;
            }
        };
        if seqs.len() > RETAIN_SNAPSHOTS {
            for &old in &seqs[..seqs.len() - RETAIN_SNAPSHOTS] {
                let path = self.snapshot_path(old);
                if let Err(e) = self.fs.remove_file(&path) {
                    report.error = Some(DurabilityError::io("remove_file", &path, e));
                    return report;
                }
                report.snapshots_removed += 1;
            }
        }
        // Compact the journal to records newer than the *oldest
        // retained* snapshot: even if the newest snapshot later turns
        // out to be corrupt, the previous one plus the journal still
        // covers everything.
        let retained = &seqs[seqs.len().saturating_sub(RETAIN_SNAPSHOTS)..];
        if let Some(&cutoff) = retained.first() {
            match self.compact_journal(cutoff) {
                Ok(outcome) => report.compaction = Some(outcome),
                Err(e) => report.error = Some(e),
            }
        }
        report
    }

    /// Compacts the journal: records with `seq > cutoff` are rewritten
    /// into one fresh segment (temp file, fsync, atomic rename), and
    /// only after that rename lands are the old segment files removed.
    ///
    /// Crash-safety, step by step:
    ///
    /// * before the rename — only a `.tmp` stray exists; the old
    ///   segments are untouched.
    /// * between the rename and the removes — live records exist twice,
    ///   byte-identical; [`Store::load`] resolves the duplicate in the
    ///   newer segment's favour and the next compaction removes the
    ///   leftovers (the layout is self-healing).
    /// * mid-removes — same as above for whichever old segments remain.
    ///
    /// The rewrite never targets the append path: the new segment index
    /// is one past the current maximum, so a concurrent crash cannot
    /// interleave appended records with compacted ones.
    ///
    /// Skipped (returning a default outcome) when there is a single
    /// segment with nothing to drop — compacting then would only churn
    /// segment indices.
    ///
    /// Memory: the rewrite never holds more than one old segment at a
    /// time. A first pass indexes where each live record lies; a second
    /// copies those records, already framed and checksummed, byte for
    /// byte into one buffer sized up front.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Io`] on filesystem failure (the store stays
    /// loadable from the old segments), [`DurabilityError::Corrupt`] /
    /// [`DurabilityError::Malformed`] on unreadable records.
    pub fn compact_journal(&self, cutoff: u64) -> Result<CompactionOutcome, DurabilityError> {
        let idxs = self.journal_segments()?;
        // Pass 1: where each live sequence's record lies (a later
        // segment's copy wins, as on load).
        let mut live: BTreeMap<u64, (u64, Range<usize>)> = BTreeMap::new();
        let mut dropped = 0usize;
        let mut total = 0usize;
        for &idx in &idxs {
            let (bytes, spans) = self.read_segment(idx)?;
            for (span, payload) in spans.records.iter().zip(spans.payloads(&bytes)) {
                total += 1;
                match record_seq(payload) {
                    Some(seq) if seq <= cutoff => dropped += 1,
                    Some(seq) => {
                        live.insert(seq, (idx, span.clone()));
                    }
                    None => {
                        return Err(DurabilityError::Malformed {
                            context: format!(
                                "journal record in {}",
                                self.segment_path(idx).display()
                            ),
                            detail: format!(
                                "{} bytes is too short for a sequence tag",
                                payload.len()
                            ),
                        });
                    }
                }
            }
        }
        let live_records = live.len();
        let duplicates = total - dropped - live_records;
        if idxs.len() <= 1 && dropped == 0 && duplicates == 0 {
            return Ok(CompactionOutcome::default()); // nothing worth rewriting
        }

        let max_idx = idxs.last().copied().unwrap_or(0);
        let mut removed = 0usize;
        let new_segment = if live.is_empty() {
            None
        } else {
            // Pass 2: copy the live records in sequence order. Appends
            // keep sequences ascending across segments, so each segment
            // is read once unless crash leftovers interleave them.
            let idx = max_idx + 1;
            let mut bytes = Vec::with_capacity(live.values().map(|(_, span)| span.len()).sum());
            let mut loaded: Option<(u64, Vec<u8>)> = None;
            for (seg, span) in live.into_values() {
                let path = self.segment_path(seg);
                if loaded.as_ref().map(|(i, _)| *i) != Some(seg) {
                    drop(loaded.take()); // free the previous segment first
                    let data = self
                        .fs
                        .read(&path)
                        .map_err(|e| DurabilityError::io("read", &path, e))?;
                    loaded = Some((seg, data));
                }
                let Some(record) = loaded.as_ref().and_then(|(_, data)| data.get(span)) else {
                    return Err(DurabilityError::Corrupt {
                        path: path.display().to_string(),
                        offset: 0,
                        detail: "segment shrank while it was being compacted".to_string(),
                    });
                };
                bytes.extend_from_slice(record);
            }
            drop(loaded);
            write_atomic(&self.fs, &self.segment_path(idx), &bytes)?;
            Some(idx)
        };
        for idx in idxs {
            let path = self.segment_path(idx);
            self.fs
                .remove_file(&path)
                .map_err(|e| DurabilityError::io("remove_file", &path, e))?;
            removed += 1;
        }
        Ok(CompactionOutcome {
            live_records,
            dropped_records: dropped,
            segments_removed: removed,
            new_segment,
        })
    }

    /// Appends one journal record tagged with `seq` to the current
    /// (highest-numbered) segment, rolling to a fresh segment once the
    /// current one exceeds the roll threshold.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Io`] on filesystem failure.
    pub fn append_journal(&self, seq: u64, payload: &[u8]) -> Result<(), DurabilityError> {
        let mut tagged = Vec::with_capacity(8 + payload.len());
        tagged.extend_from_slice(&seq.to_le_bytes());
        tagged.extend_from_slice(payload);
        let path = self.append_target()?;
        append_record(&self.fs, &path, &tagged)
    }

    /// Picks the segment the next append goes to.
    fn append_target(&self) -> Result<PathBuf, DurabilityError> {
        let idxs = self.journal_segments()?;
        let current = idxs.last().copied().unwrap_or(0);
        if self.segment_len(current)? >= self.roll_bytes {
            Ok(self.segment_path(current + 1))
        } else {
            Ok(self.segment_path(current))
        }
    }

    /// Reads journal segment `idx` (empty when absent) and locates its
    /// records. A torn tail is truncated on disk as it is found (the
    /// atomic-rewrite repair [`Store::load`] documents) and is not part
    /// of the returned bytes.
    fn read_segment(&self, idx: u64) -> Result<(Vec<u8>, RecordSpans), DurabilityError> {
        let path = self.segment_path(idx);
        let mut bytes = match self.fs.read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(DurabilityError::io("read", &path, e)),
        };
        let spans = scan_records(&path, &bytes)?;
        if spans.torn_tail_bytes > 0 {
            // The records before the tail are exactly the bytes before it.
            bytes.truncate(bytes.len() - spans.torn_tail_bytes);
            write_atomic(&self.fs, &path, &bytes)?;
        }
        Ok((bytes, spans))
    }

    /// Reads every journal segment ascending (see
    /// [`Store::read_segment`] for the torn-tail repair). Returns
    /// `(segment index, scan)` pairs with the tails already dropped from
    /// the scans.
    fn scan_segments(&self) -> Result<Vec<(u64, JournalScan)>, DurabilityError> {
        let mut segments = Vec::new();
        for idx in self.journal_segments()? {
            let (bytes, spans) = self.read_segment(idx)?;
            segments.push((idx, spans.to_scan(&bytes)));
        }
        Ok(segments)
    }

    /// Every journal record across all segments, deduplicated and
    /// sorted by sequence — *not* filtered against any snapshot floor.
    ///
    /// Cross-segment duplicates (a crash between compaction's rename
    /// and its removes) are resolved in favour of the newer segment.
    ///
    /// # Errors
    ///
    /// Same as [`Store::load`] for the journal half.
    pub fn journal_records(&self) -> Result<Vec<JournalEntry>, DurabilityError> {
        let segments = self.scan_segments()?;
        let merged = merge_segments(segments, u64::MAX, |idx| self.segment_path(idx))?;
        Ok(merged
            .into_iter()
            .map(|(seq, (_, payload))| JournalEntry { seq, payload })
            .collect())
    }

    /// Recovers the newest loadable snapshot and the journal records
    /// that post-date it.
    ///
    /// Snapshots are tried newest-first; a corrupt candidate is recorded
    /// in [`Recovery::rejected_snapshots`] and the scan falls back to
    /// the next older one. Journal records are then filtered to
    /// `seq > snapshot.seq`, sorted, and checked for duplicates.
    ///
    /// A torn final record (crash mid-append) is dropped *and truncated
    /// away on disk*: leaving it in place would put the next append
    /// behind garbage bytes, turning an expected torn tail into
    /// unrecoverable interior corruption. The truncation is itself an
    /// atomic rewrite, so a crash during recovery at worst leaves the
    /// torn tail to be truncated again.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Io`] on unreadable directory/journal,
    /// [`DurabilityError::Corrupt`] on interior journal corruption or a
    /// duplicated sequence, [`DurabilityError::Malformed`] on a record
    /// too short to carry its sequence tag.
    pub fn load(&self) -> Result<Recovery, DurabilityError> {
        let mut recovery = Recovery::default();

        let mut seqs = self.snapshot_seqs()?;
        seqs.reverse(); // newest first
        for seq in seqs {
            let path = self.snapshot_path(seq);
            let mut bytes = match self.fs.read(&path) {
                Ok(b) => b,
                Err(e) => {
                    recovery
                        .rejected_snapshots
                        .push((path.display().to_string(), e.to_string()));
                    continue;
                }
            };
            match decode_snapshot(&path, self.version, &bytes) {
                Ok(_) => {
                    // Validated: strip the header in place rather than
                    // copying the payload out.
                    bytes.drain(..SNAPSHOT_HEADER_LEN);
                    recovery.snapshot = Some((seq, bytes));
                    break;
                }
                Err(e) => {
                    recovery
                        .rejected_snapshots
                        .push((path.display().to_string(), e.to_string()));
                }
            }
        }

        let segments = self.scan_segments()?;
        recovery.torn_tail_bytes = segments.iter().map(|(_, s)| s.torn_tail_bytes).sum();
        let floor = recovery.snapshot.as_ref().map(|(s, _)| *s).unwrap_or(0);
        let merged = merge_segments(segments, floor, |idx| self.segment_path(idx))?;
        recovery.journal = merged
            .into_iter()
            .filter(|(seq, _)| *seq > floor)
            .map(|(seq, (_, payload))| JournalEntry { seq, payload })
            .collect();
        Ok(recovery)
    }
}

/// Merges per-segment journal scans into a `seq -> (segment, payload)`
/// map, enforcing the duplicate rules:
///
/// * same segment, `seq > floor` — [`DurabilityError::Corrupt`]: a live
///   sequence was genuinely recorded twice.
/// * same segment, `seq <= floor` — tolerated, last wins: a crash
///   between snapshot and prune can legitimately re-append a covered
///   sequence, and replay skips it anyway.
/// * different segments, byte-identical payload — tolerated, the newer
///   segment wins: this is the signature of a crash between
///   compaction's rename and its removes.
/// * different segments, differing payloads — [`DurabilityError::Corrupt`]:
///   two histories disagree and neither can be trusted.
fn merge_segments(
    segments: Vec<(u64, JournalScan)>,
    floor: u64,
    segment_path: impl Fn(u64) -> PathBuf,
) -> Result<BTreeMap<u64, (u64, Vec<u8>)>, DurabilityError> {
    let mut by_seq: BTreeMap<u64, (u64, Vec<u8>)> = BTreeMap::new();
    for (idx, scan) in segments {
        for mut body in scan.records {
            let Some(seq) = record_seq(&body) else {
                return Err(DurabilityError::Malformed {
                    context: format!("journal record in {}", segment_path(idx).display()),
                    detail: format!("{} bytes is too short for a sequence tag", body.len()),
                });
            };
            // Strip the sequence tag in place; the payload is not copied.
            body.drain(..8);
            if let Some((prev_idx, prev_body)) = by_seq.get(&seq) {
                if *prev_idx == idx {
                    if seq > floor {
                        return Err(DurabilityError::Corrupt {
                            path: segment_path(idx).display().to_string(),
                            offset: 0,
                            detail: format!("sequence {seq} recorded twice"),
                        });
                    }
                } else if *prev_body != body {
                    return Err(DurabilityError::Corrupt {
                        path: segment_path(idx).display().to_string(),
                        offset: 0,
                        detail: format!("sequence {seq} differs across journal segments"),
                    });
                }
            }
            by_seq.insert(seq, (idx, body));
        }
    }
    Ok(by_seq)
}

/// Extracts the sequence tag [`Store::append_journal`] prefixed.
fn record_seq(payload: &[u8]) -> Option<u64> {
    let head: [u8; 8] = payload.get(..8)?.try_into().ok()?;
    Some(u64::from_le_bytes(head))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::MemFs;

    const V: u32 = 1;

    fn store() -> Store<MemFs> {
        Store::open(MemFs::new(), "/ckpt", V).unwrap()
    }

    #[test]
    fn empty_store_recovers_to_nothing() {
        let s = store();
        let r = s.load().unwrap();
        assert!(r.snapshot.is_none());
        assert!(r.journal.is_empty());
        assert!(r.rejected_snapshots.is_empty());
    }

    #[test]
    fn snapshot_then_journal_recovery() {
        let s = store();
        s.append_journal(1, b"batch-1").unwrap();
        s.append_journal(2, b"batch-2").unwrap();
        s.write_snapshot(2, b"state@2").unwrap();
        s.append_journal(3, b"batch-3").unwrap();
        let r = s.load().unwrap();
        assert_eq!(r.snapshot, Some((2, b"state@2".to_vec())));
        assert_eq!(
            r.journal,
            vec![JournalEntry {
                seq: 3,
                payload: b"batch-3".to_vec()
            }]
        );
    }

    #[test]
    fn journal_records_covered_by_snapshot_are_filtered() {
        let s = store();
        s.append_journal(1, b"b1").unwrap();
        s.write_snapshot(1, b"state@1").unwrap();
        // Crash-interleaving: journal still carries seq 1 (prune may not
        // have run); replay must skip it.
        s.append_journal(1, b"b1-duplicate-from-old-journal")
            .unwrap();
        s.append_journal(2, b"b2").unwrap();
        let r = s.load().unwrap();
        assert_eq!(r.snapshot.as_ref().unwrap().0, 1);
        assert_eq!(r.journal.len(), 1);
        assert_eq!(r.journal[0].seq, 2);
    }

    #[test]
    fn retention_keeps_two_snapshots_and_prunes_journal() {
        let s = store();
        for seq in 1..=5u64 {
            s.append_journal(seq, format!("batch-{seq}").as_bytes())
                .unwrap();
            s.write_snapshot(seq, format!("state@{seq}").as_bytes())
                .unwrap();
        }
        assert_eq!(s.snapshot_seqs().unwrap(), vec![4, 5]);
        // Journal was pruned to seq > 4 (the previous retained
        // snapshot); a corrupt newest snapshot still recovers fully.
        let r = s.load().unwrap();
        assert_eq!(r.snapshot.as_ref().unwrap().0, 5);
        assert!(r.journal.is_empty());
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_to_previous() {
        let s = store();
        s.append_journal(1, b"b1").unwrap();
        s.write_snapshot(1, b"state@1").unwrap();
        s.append_journal(2, b"b2").unwrap();
        s.write_snapshot(2, b"state@2").unwrap();
        // Bit-rot the newest snapshot in place.
        let snap2 = s.dir().join(format!("snap-{:020}.{SNAPSHOT_EXT}", 2u64));
        let mut bytes = s.fs().read(&snap2).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        s.fs().write(&snap2, &bytes).unwrap();

        let r = s.load().unwrap();
        assert_eq!(r.snapshot, Some((1, b"state@1".to_vec())));
        assert_eq!(r.rejected_snapshots.len(), 1);
        assert!(r.rejected_snapshots[0].1.contains("CRC"));
        // The journal still holds batch 2 because pruning only goes up
        // to the previous snapshot.
        assert_eq!(r.journal.len(), 1);
        assert_eq!(r.journal[0].seq, 2);
    }

    #[test]
    fn stray_tmp_files_are_ignored() {
        let s = store();
        s.write_snapshot(1, b"state@1").unwrap();
        s.fs()
            .write(
                &s.dir().join("snap-00000000000000000002.neatsnap.tmp"),
                b"torn",
            )
            .unwrap();
        assert_eq!(s.snapshot_seqs().unwrap(), vec![1]);
        let r = s.load().unwrap();
        assert_eq!(r.snapshot.as_ref().unwrap().0, 1);
    }

    #[test]
    fn duplicate_live_sequences_are_corrupt() {
        let s = store();
        s.append_journal(3, b"x").unwrap();
        s.append_journal(3, b"y").unwrap();
        assert!(matches!(
            s.load().unwrap_err(),
            DurabilityError::Corrupt { .. }
        ));
    }

    #[test]
    fn torn_journal_tail_is_reported() {
        let s = store();
        s.append_journal(1, b"complete").unwrap();
        // Torn second append: only 5 bytes of the record made it.
        let rec = crate::journal::encode_record(b"\x02\0\0\0\0\0\0\0torn");
        s.fs().append(&s.journal_path(), &rec[..5]).unwrap();
        let r = s.load().unwrap();
        assert_eq!(r.journal.len(), 1);
        assert_eq!(r.torn_tail_bytes, 5);
    }

    #[test]
    fn appends_roll_to_new_segments_past_threshold() {
        let s = store().with_journal_roll_bytes(64);
        for seq in 1..=20u64 {
            s.append_journal(seq, format!("batch-{seq}").as_bytes())
                .unwrap();
        }
        let segments = s.journal_segments().unwrap();
        assert!(
            segments.len() > 1,
            "expected rolling, got segments {segments:?}"
        );
        let r = s.load().unwrap();
        assert_eq!(r.journal.len(), 20);
        assert_eq!(r.journal[0].seq, 1);
        assert_eq!(r.journal[19].seq, 20);
    }

    #[test]
    fn compaction_merges_segments_and_drops_covered_records() {
        let s = store().with_journal_roll_bytes(32);
        for seq in 1..=10u64 {
            s.append_journal(seq, format!("batch-{seq}").as_bytes())
                .unwrap();
        }
        assert!(s.journal_segments().unwrap().len() > 1);
        let outcome = s.compact_journal(6).unwrap();
        assert_eq!(outcome.live_records, 4);
        assert_eq!(outcome.dropped_records, 6);
        assert!(outcome.new_segment.is_some());
        // All old segments replaced by exactly one compacted segment.
        assert_eq!(
            s.journal_segments().unwrap(),
            vec![outcome.new_segment.unwrap()]
        );
        let r = s.load().unwrap();
        assert_eq!(
            r.journal.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![7, 8, 9, 10]
        );
    }

    #[test]
    fn compaction_to_empty_removes_all_segments() {
        let s = store();
        s.append_journal(1, b"b1").unwrap();
        s.append_journal(2, b"b2").unwrap();
        let outcome = s.compact_journal(2).unwrap();
        assert_eq!(outcome.live_records, 0);
        assert_eq!(outcome.new_segment, None);
        assert!(s.journal_segments().unwrap().is_empty());
        assert!(s.load().unwrap().journal.is_empty());
    }

    #[test]
    fn compaction_copies_interleaved_segments_in_sequence_order() {
        let s = store();
        let tagged = |seq: u64| {
            let mut t = seq.to_le_bytes().to_vec();
            t.extend_from_slice(format!("batch-{seq}").as_bytes());
            t
        };
        // Odd sequences in segment 0, even ones in segment 1, so the
        // sequence-ordered copy alternates between the two files.
        for seq in 1..=6u64 {
            let path = s.segment_path(1 - seq % 2);
            s.fs()
                .append(&path, &crate::journal::encode_record(&tagged(seq)))
                .unwrap();
        }
        let outcome = s.compact_journal(1).unwrap();
        assert_eq!(outcome.live_records, 5);
        assert_eq!(outcome.dropped_records, 1);
        let mut want = Vec::new();
        for seq in 2..=6u64 {
            want.extend_from_slice(&crate::journal::encode_record(&tagged(seq)));
        }
        let got = s.fs().read(&s.segment_path(outcome.new_segment.unwrap()));
        assert_eq!(got.unwrap(), want);
    }

    #[test]
    fn single_clean_segment_is_not_rewritten() {
        let s = store();
        s.append_journal(5, b"b5").unwrap();
        let before = s.fs().read(&s.journal_path()).unwrap();
        let outcome = s.compact_journal(2).unwrap();
        assert_eq!(outcome, CompactionOutcome::default());
        assert_eq!(s.fs().read(&s.journal_path()).unwrap(), before);
    }

    #[test]
    fn crash_between_compaction_rename_and_prune_self_heals() {
        let s = store().with_journal_roll_bytes(32);
        for seq in 1..=6u64 {
            s.append_journal(seq, format!("batch-{seq}").as_bytes())
                .unwrap();
        }
        // Keep a copy of a pre-compaction segment holding *live*
        // records, compact, then put the copy back — exactly the
        // on-disk state a crash between the compacted segment's rename
        // and the old segments' removal leaves behind: the same live
        // sequences present byte-identically in two segments.
        let live_segment = s.segment_path(1);
        let old = s.fs().read(&live_segment).unwrap();
        let outcome = s.compact_journal(2).unwrap();
        s.fs().write(&live_segment, &old).unwrap();

        // Load resolves the byte-identical duplicates (newer segment
        // wins) instead of declaring corruption.
        let r = s.load().unwrap();
        assert_eq!(
            r.journal.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![3, 4, 5, 6]
        );
        // And the next compaction sweeps the leftover segment away.
        let outcome2 = s.compact_journal(2).unwrap();
        assert!(outcome2.segments_removed >= 2);
        assert_ne!(outcome2.new_segment, outcome.new_segment);
        let r = s.load().unwrap();
        assert_eq!(
            r.journal.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![3, 4, 5, 6]
        );
    }

    #[test]
    fn conflicting_payloads_across_segments_are_corrupt() {
        let s = store();
        s.append_journal(7, b"history-a").unwrap();
        // Forge a second segment claiming a different payload for the
        // same live sequence.
        let mut tagged = 7u64.to_le_bytes().to_vec();
        tagged.extend_from_slice(b"history-b");
        s.fs()
            .append(&s.segment_path(1), &crate::journal::encode_record(&tagged))
            .unwrap();
        let err = s.load().unwrap_err();
        assert!(
            matches!(&err, DurabilityError::Corrupt { detail, .. } if detail.contains("differs across")),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn journal_records_ignores_the_snapshot_floor() {
        let s = store().with_journal_roll_bytes(32);
        for seq in 1..=5u64 {
            s.append_journal(seq, format!("batch-{seq}").as_bytes())
                .unwrap();
        }
        // Two snapshots: compaction's cutoff is the *oldest retained*
        // (1), while load()'s replay floor is the newest (5).
        let report = s.write_snapshot(1, b"state@1").unwrap();
        assert!(report.error.is_none());
        let report = s.write_snapshot(5, b"state@5").unwrap();
        assert!(report.error.is_none());
        // load() filters to seq > 5 …
        assert!(s.load().unwrap().journal.is_empty());
        // … while journal_records() reports everything still on disk,
        // which is what the replay-dedup index must be derived from.
        let all = s.journal_records().unwrap();
        assert_eq!(
            all.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![2, 3, 4, 5]
        );
    }

    #[test]
    fn torn_tail_is_truncated_so_later_appends_stay_readable() {
        let s = store();
        s.append_journal(1, b"complete").unwrap();
        let rec = crate::journal::encode_record(b"\x02\0\0\0\0\0\0\0torn");
        // Every possible torn-tail length, including ones that leave a
        // partial magic which the next append would otherwise complete
        // into a mismatching one.
        for cut in 1..rec.len() {
            let s2 = store();
            s2.fs()
                .write(&s2.journal_path(), &s.fs().read(&s.journal_path()).unwrap())
                .unwrap();
            s2.fs().append(&s2.journal_path(), &rec[..cut]).unwrap();
            let r = s2.load().unwrap();
            assert_eq!(r.torn_tail_bytes, cut, "cut at {cut}");
            // Recovery truncated the tail; a fresh append must now read
            // back cleanly instead of tripping over the garbage bytes.
            s2.append_journal(2, b"after-recovery").unwrap();
            let r = s2.load().unwrap();
            assert_eq!(r.torn_tail_bytes, 0, "cut at {cut}");
            assert_eq!(r.journal.len(), 2, "cut at {cut}");
            assert_eq!(r.journal[1].payload, b"after-recovery".to_vec());
        }
    }
}
