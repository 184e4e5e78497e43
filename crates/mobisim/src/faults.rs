//! Deterministic fault injection for robustness testing.
//!
//! Takes a clean simulated [`Dataset`] and corrupts it the way real GPS
//! feeds are corrupted: dropped fixes, duplicated fixes (including stale
//! retransmissions with perturbed clocks), out-of-order delivery,
//! multipath teleport spikes and truncated uploads. The output is a raw
//! fix stream — corrupted data by definition cannot satisfy
//! [`neat_traj::Trajectory`]'s invariants — meant to be fed through
//! [`neat_traj::sanitize::Sanitizer`].
//!
//! Injection is fully deterministic under a seed: the same dataset,
//! [`FaultConfig`] and seed always produce byte-identical output.
//!
//! Besides the GPS-stream faults, this module also injects *disk*
//! faults: [`FaultFs`] wraps any [`neat_durability::fs::Fs`] and, at a
//! chosen mutating operation, simulates a torn write, a short write, a
//! silent bit flip, a full device or a failed rename — the failure modes
//! the checkpoint layer in `neat_core::checkpoint` must survive.

use neat_durability::fs::{Fs, MemFs};
use neat_rnet::Point;
use neat_traj::sanitize::RawFix;
use neat_traj::Dataset;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::{Arc, Mutex};

/// Per-fault-class rates, each a probability in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultConfig {
    /// Probability that an interior fix is dropped (endpoint fixes are
    /// kept so dropout models gaps, not truncation).
    pub dropout: f64,
    /// Probability that a fix is emitted twice. Half of the copies (in
    /// expectation) carry a slightly earlier timestamp — the stale
    /// retransmission pattern — which makes strict ingestion fail.
    pub duplicate: f64,
    /// Probability that a fix swaps places with its successor.
    pub reorder: f64,
    /// Probability that a fix is displaced 5–20 km (multipath spike).
    pub teleport: f64,
    /// Probability that a whole trajectory is cut down to 0 or 1 fixes
    /// (interrupted upload).
    pub truncate: f64,
}

impl FaultConfig {
    /// `true` when every rate is zero.
    pub fn is_noop(&self) -> bool {
        self.dropout == 0.0
            && self.duplicate == 0.0
            && self.reorder == 0.0
            && self.teleport == 0.0
            && self.truncate == 0.0
    }

    /// Parses a comma-separated spec such as
    /// `dropout=0.05,dup=0.02,reorder=0.01,teleport=0.005,truncate=0.01`.
    /// Unmentioned classes default to zero.
    ///
    /// # Errors
    ///
    /// Rejects unknown keys, unparseable values and rates outside
    /// `[0, 1]`, with a message naming the offending part.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut config = FaultConfig::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("expected key=rate, got `{part}`"))?;
            let rate: f64 = value
                .trim()
                .parse()
                .map_err(|_| format!("bad rate for `{key}`: `{value}`"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("rate for `{key}` must be in [0, 1], got {rate}"));
            }
            match key.trim() {
                "dropout" | "drop" => config.dropout = rate,
                "duplicate" | "dup" => config.duplicate = rate,
                "reorder" => config.reorder = rate,
                "teleport" => config.teleport = rate,
                "truncate" => config.truncate = rate,
                other => {
                    return Err(format!(
                        "unknown fault class `{other}` \
                         (expected dropout, dup, reorder, teleport or truncate)"
                    ))
                }
            }
        }
        Ok(config)
    }
}

impl fmt::Display for FaultConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dropout={},dup={},reorder={},teleport={},truncate={}",
            self.dropout, self.duplicate, self.reorder, self.teleport, self.truncate
        )
    }
}

impl FromStr for FaultConfig {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        FaultConfig::parse(s)
    }
}

/// What [`inject_faults`] actually did, for reporting and assertions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultLog {
    /// Interior fixes dropped.
    pub dropped: usize,
    /// Fixes duplicated with an unchanged timestamp.
    pub duplicated: usize,
    /// Fixes duplicated with a slightly earlier timestamp.
    pub stale_duplicated: usize,
    /// Adjacent fix pairs swapped out of time order.
    pub reordered: usize,
    /// Fixes displaced by a teleport spike.
    pub teleported: usize,
    /// Trajectories truncated to fewer than two fixes.
    pub truncated: usize,
    /// Ids of trajectories that received at least one fault.
    pub affected: Vec<u64>,
}

impl FaultLog {
    /// Total number of individual fault events.
    pub fn total_faults(&self) -> usize {
        self.dropped
            + self.duplicated
            + self.stale_duplicated
            + self.reordered
            + self.teleported
            + self.truncated
    }

    /// One-line human-readable digest.
    pub fn digest(&self) -> String {
        format!(
            "{} faults over {} trajectories: {} dropped, {} duplicated ({} stale), \
             {} reordered, {} teleported, {} truncated",
            self.total_faults(),
            self.affected.len(),
            self.dropped,
            self.duplicated + self.stale_duplicated,
            self.stale_duplicated,
            self.reordered,
            self.teleported,
            self.truncated,
        )
    }
}

/// Corrupts `dataset` according to `config`, deterministically under
/// `seed`. Returns the corrupted raw fix stream (grouped by trajectory,
/// in dataset order) and a log of the injected faults.
pub fn inject_faults(
    dataset: &Dataset,
    config: &FaultConfig,
    seed: u64,
) -> (Vec<RawFix>, FaultLog) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xFA17_1E57);
    let mut out = Vec::with_capacity(dataset.total_points());
    let mut log = FaultLog::default();

    for tr in dataset.trajectories() {
        let trid = tr.id().value();
        let mut fixes: Vec<RawFix> = tr
            .points()
            .iter()
            .map(|p| RawFix::new(trid, p.segment, p.position, p.time))
            .collect();
        let before = log.total_faults();

        // Truncated upload: the whole trajectory collapses to 0–1 fixes.
        if config.truncate > 0.0 && rng.gen_bool(config.truncate) {
            fixes.truncate(rng.gen_range(0..2usize));
            log.truncated += 1;
        } else {
            // Dropout: interior fixes vanish (gaps, not truncation).
            if config.dropout > 0.0 && fixes.len() > 2 {
                let mut kept = Vec::with_capacity(fixes.len());
                for (i, fix) in fixes.iter().enumerate() {
                    if i > 0 && i + 1 < fixes.len() && rng.gen_bool(config.dropout) {
                        log.dropped += 1;
                    } else {
                        kept.push(*fix);
                    }
                }
                fixes = kept;
            }

            // Teleport spikes: a fix jumps 5–20 km off course.
            if config.teleport > 0.0 {
                for fix in &mut fixes {
                    if rng.gen_bool(config.teleport) {
                        let radius = rng.gen_range(5_000.0..20_000.0);
                        let angle = rng.gen_range(0.0..std::f64::consts::TAU);
                        fix.position =
                            fix.position + Point::new(radius * angle.cos(), radius * angle.sin());
                        log.teleported += 1;
                    }
                }
            }

            // Duplicates: the fix is emitted twice; about half the copies
            // are stale retransmissions with a slightly earlier clock.
            if config.duplicate > 0.0 {
                let mut with_dups = Vec::with_capacity(fixes.len());
                for fix in fixes {
                    with_dups.push(fix);
                    if rng.gen_bool(config.duplicate) {
                        let mut copy = fix;
                        if rng.gen_bool(0.5) {
                            copy.time -= rng.gen_range(0.2..1.5);
                            log.stale_duplicated += 1;
                        } else {
                            log.duplicated += 1;
                        }
                        with_dups.push(copy);
                    }
                }
                fixes = with_dups;
            }

            // Out-of-order delivery: adjacent pairs swap places.
            if config.reorder > 0.0 && fixes.len() >= 2 {
                let mut i = 0;
                while i + 1 < fixes.len() {
                    if fixes[i].time < fixes[i + 1].time && rng.gen_bool(config.reorder) {
                        fixes.swap(i, i + 1);
                        log.reordered += 1;
                        i += 2; // don't immediately swap the pair back
                    } else {
                        i += 1;
                    }
                }
            }
        }

        if log.total_faults() > before {
            log.affected.push(trid);
        }
        out.extend(fixes);
    }
    (out, log)
}

/// The disk fault [`FaultFs`] injects when its armed operation index is
/// reached.
///
/// The first two model a *crash* (the process dies mid-operation; every
/// later operation on the handle fails), the last three model faults a
/// live process observes and must degrade gracefully under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFault {
    /// Power loss before the syscall took effect: the operation is not
    /// applied at all, and the process is dead afterwards.
    Lost,
    /// Torn/short write: only the first `keep` bytes reach the medium
    /// (clamped to the payload length), then the process dies. With
    /// `keep == 0` this is the classic short write of nothing.
    Torn {
        /// Bytes that survive.
        keep: usize,
    },
    /// Silent media corruption: the operation is applied in full and
    /// reports success, but one payload byte is flipped. The process
    /// lives on, unaware — recovery must *detect* this via checksums.
    BitFlip {
        /// Payload offset to corrupt (taken modulo the length).
        offset: usize,
        /// XOR mask; `0` is promoted to `0x01` so the byte always
        /// changes.
        mask: u8,
    },
    /// The device is full: the operation is not applied, the caller
    /// sees `StorageFull`, and the handle keeps working afterwards.
    NoSpace,
    /// `rename(2)` fails (quota, cross-device, permission): nothing
    /// moves, the caller sees the error, the handle keeps working. When
    /// the armed operation is not a rename this behaves like
    /// [`DiskFault::NoSpace`].
    RenameFail,
}

impl DiskFault {
    /// `true` for faults after which the simulated process is dead.
    fn is_fatal(self) -> bool {
        matches!(self, DiskFault::Lost | DiskFault::Torn { .. })
    }
}

#[derive(Debug)]
struct FaultFsState {
    /// Mutating operations observed so far.
    ops: u64,
    /// Index of the mutating operation to fault (0-based).
    arm_at: Option<u64>,
    fault: DiskFault,
    /// Set once a fatal fault fired; every later call errors.
    dead: bool,
    /// Whether the armed fault has fired (fatal or not).
    fired: bool,
}

/// A fault-injecting [`Fs`] over shared [`MemFs`] storage.
///
/// Counts every *mutating* operation (`write`, `append`, `rename`,
/// `remove_file`); when the count reaches the armed index the configured
/// [`DiskFault`] fires. Because [`MemFs`] clones share storage, a chaos
/// harness "kills the process" by abandoning the `FaultFs` handle and
/// "restarts" by reopening the surviving bytes via [`FaultFs::storage`].
///
/// Reads are never faulted (media read errors are a different failure
/// class), but once a fatal fault fired *all* operations error — a dead
/// process cannot observe the disk.
#[derive(Debug, Clone)]
pub struct FaultFs {
    inner: MemFs,
    state: Arc<Mutex<FaultFsState>>,
}

impl FaultFs {
    /// Wraps `inner` with no fault armed — used to probe how many
    /// mutating operations a workload performs.
    pub fn unarmed(inner: MemFs) -> Self {
        FaultFs {
            inner,
            state: Arc::new(Mutex::new(FaultFsState {
                ops: 0,
                arm_at: None,
                fault: DiskFault::Lost,
                dead: false,
                fired: false,
            })),
        }
    }

    /// Wraps `inner` so that the `arm_at`-th mutating operation
    /// (0-based) suffers `fault`.
    pub fn armed(inner: MemFs, arm_at: u64, fault: DiskFault) -> Self {
        FaultFs {
            inner,
            state: Arc::new(Mutex::new(FaultFsState {
                ops: 0,
                arm_at: Some(arm_at),
                fault,
                dead: false,
                fired: false,
            })),
        }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, FaultFsState> {
        self.state.lock().expect("FaultFs mutex poisoned") // lint:allow(L1,L6) reason=fault-injection state is a multi-step simulation, so poison must propagate rather than ride through the sanctioned Lock::enter policy
    }

    /// Mutating operations observed so far.
    pub fn mutating_ops(&self) -> u64 {
        self.state().ops
    }

    /// `true` once a fatal fault fired (the simulated process is dead).
    pub fn crashed(&self) -> bool {
        self.state().dead
    }

    /// `true` once the armed fault fired, fatal or not.
    pub fn fault_fired(&self) -> bool {
        self.state().fired
    }

    /// The surviving storage: a handle sharing the same byte map,
    /// unaffected by this wrapper's crash state — what a restarted
    /// process finds on disk.
    pub fn storage(&self) -> MemFs {
        self.inner.clone()
    }

    /// Decides the fate of the current mutating operation and advances
    /// the counter. Returns the fault to apply now, if any.
    fn step(&self) -> io::Result<Option<DiskFault>> {
        let mut s = self.state();
        if s.dead {
            return Err(io::Error::other(
                "simulated crash: process already dead (FaultFs)",
            ));
        }
        let fire = s.arm_at == Some(s.ops);
        s.ops += 1;
        if !fire {
            return Ok(None);
        }
        s.fired = true;
        if s.fault.is_fatal() {
            s.dead = true;
        }
        Ok(Some(s.fault))
    }

    fn ensure_alive(&self) -> io::Result<()> {
        if self.state().dead {
            return Err(io::Error::other(
                "simulated crash: process already dead (FaultFs)",
            ));
        }
        Ok(())
    }

    fn crash_error() -> io::Error {
        io::Error::other("simulated crash (FaultFs fault injected)")
    }

    fn no_space_error() -> io::Error {
        io::Error::new(
            io::ErrorKind::StorageFull,
            "no space left on device (simulated)",
        )
    }

    /// Applies a byte-payload fault for `write`/`append`.
    fn faulted_payload(fault: DiskFault, bytes: &[u8]) -> Option<Vec<u8>> {
        match fault {
            DiskFault::Lost => None,
            DiskFault::Torn { keep } => Some(bytes[..keep.min(bytes.len())].to_vec()),
            DiskFault::BitFlip { offset, mask } => {
                let mut out = bytes.to_vec();
                if !out.is_empty() {
                    let i = offset % out.len();
                    out[i] ^= if mask == 0 { 0x01 } else { mask };
                }
                Some(out)
            }
            DiskFault::NoSpace | DiskFault::RenameFail => None,
        }
    }

    fn apply_payload_op(
        &self,
        bytes: &[u8],
        apply: impl Fn(&[u8]) -> io::Result<()>,
    ) -> io::Result<()> {
        match self.step()? {
            None => apply(bytes),
            Some(fault) => {
                if let Some(payload) = Self::faulted_payload(fault, bytes) {
                    apply(&payload)?;
                }
                match fault {
                    // Silent corruption: the caller is told all is well.
                    DiskFault::BitFlip { .. } => Ok(()),
                    DiskFault::NoSpace | DiskFault::RenameFail => Err(Self::no_space_error()),
                    DiskFault::Lost | DiskFault::Torn { .. } => Err(Self::crash_error()),
                }
            }
        }
    }
}

impl Fs for FaultFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.ensure_alive()?;
        self.inner.read(path)
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        self.ensure_alive()?;
        self.inner.len(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.apply_payload_op(bytes, |b| self.inner.write(path, b))
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.apply_payload_op(bytes, |b| self.inner.append(path, b))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.step()? {
            None | Some(DiskFault::BitFlip { .. }) => self.inner.rename(from, to),
            Some(DiskFault::Lost | DiskFault::Torn { .. }) => Err(Self::crash_error()),
            Some(DiskFault::RenameFail) => Err(io::Error::other(
                "rename failed (simulated cross-device link)",
            )),
            Some(DiskFault::NoSpace) => Err(Self::no_space_error()),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        match self.step()? {
            None | Some(DiskFault::BitFlip { .. }) => self.inner.remove_file(path),
            Some(DiskFault::Lost | DiskFault::Torn { .. }) => Err(Self::crash_error()),
            Some(DiskFault::NoSpace | DiskFault::RenameFail) => Err(Self::no_space_error()),
        }
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.ensure_alive()?;
        self.inner.create_dir_all(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.ensure_alive()?;
        self.inner.list(dir)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.ensure_alive()?;
        self.inner.sync_dir(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        !self.state().dead && self.inner.exists(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neat_rnet::{RoadLocation, SegmentId};
    use neat_traj::{Trajectory, TrajectoryId};

    fn clean_dataset(n_traj: usize, n_points: usize) -> Dataset {
        let mut d = Dataset::new("clean");
        for id in 0..n_traj as u64 {
            let pts = (0..n_points)
                .map(|i| {
                    RoadLocation::new(
                        SegmentId::new(i % 3),
                        Point::new(i as f64 * 20.0, id as f64 * 5.0),
                        i as f64 * 4.0,
                    )
                })
                .collect();
            d.push(Trajectory::new(TrajectoryId::new(id), pts).unwrap());
        }
        d
    }

    #[test]
    fn parse_accepts_full_and_partial_specs() {
        let c =
            FaultConfig::parse("dropout=0.05,dup=0.02,reorder=0.01,teleport=0.005,truncate=0.01")
                .unwrap();
        assert_eq!(c.dropout, 0.05);
        assert_eq!(c.duplicate, 0.02);
        assert_eq!(c.reorder, 0.01);
        assert_eq!(c.teleport, 0.005);
        assert_eq!(c.truncate, 0.01);
        let partial = FaultConfig::parse("dup=0.1").unwrap();
        assert_eq!(partial.duplicate, 0.1);
        assert_eq!(partial.dropout, 0.0);
        assert!(FaultConfig::parse("").unwrap().is_noop());
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(FaultConfig::parse("dropout").is_err());
        assert!(FaultConfig::parse("warp=0.1").is_err());
        assert!(FaultConfig::parse("dropout=abc").is_err());
        assert!(FaultConfig::parse("dropout=1.5").is_err());
        assert!(FaultConfig::parse("dropout=-0.1").is_err());
    }

    #[test]
    fn config_display_roundtrips_through_parse() {
        let c = FaultConfig::parse("dropout=0.05,dup=0.02,teleport=0.01").unwrap();
        assert_eq!(FaultConfig::parse(&c.to_string()).unwrap(), c);
    }

    #[test]
    fn noop_config_passes_data_through_unchanged() {
        let d = clean_dataset(4, 10);
        let (fixes, log) = inject_faults(&d, &FaultConfig::default(), 7);
        assert_eq!(log.total_faults(), 0);
        assert!(log.affected.is_empty());
        assert_eq!(fixes, neat_traj::sanitize::dataset_fixes(&d));
    }

    #[test]
    fn injection_is_deterministic_under_a_seed() {
        let d = clean_dataset(10, 20);
        let c = FaultConfig::parse("dropout=0.1,dup=0.1,reorder=0.1,teleport=0.05,truncate=0.05")
            .unwrap();
        let (fixes_a, log_a) = inject_faults(&d, &c, 42);
        let (fixes_b, log_b) = inject_faults(&d, &c, 42);
        assert_eq!(fixes_a, fixes_b);
        assert_eq!(log_a, log_b);
        let (fixes_c, _) = inject_faults(&d, &c, 43);
        assert_ne!(fixes_a, fixes_c, "different seeds should differ");
    }

    #[test]
    fn each_fault_class_fires_and_is_logged() {
        let d = clean_dataset(20, 30);
        for (spec, check) in [
            (
                "dropout=0.3",
                &(|l: &FaultLog| l.dropped > 0) as &dyn Fn(&FaultLog) -> bool,
            ),
            ("dup=0.3", &|l| l.duplicated + l.stale_duplicated > 0),
            ("reorder=0.3", &|l| l.reordered > 0),
            ("teleport=0.3", &|l| l.teleported > 0),
            ("truncate=0.3", &|l| l.truncated > 0),
        ] {
            let c = FaultConfig::parse(spec).unwrap();
            let (_, log) = inject_faults(&d, &c, 1);
            assert!(check(&log), "{spec} produced no faults: {}", log.digest());
            assert!(!log.affected.is_empty(), "{spec}");
        }
    }

    #[test]
    fn dropout_preserves_endpoints() {
        let d = clean_dataset(5, 15);
        let c = FaultConfig::parse("dropout=0.9").unwrap();
        let (fixes, _) = inject_faults(&d, &c, 3);
        for tr in d.trajectories() {
            let trid = tr.id().value();
            let mine: Vec<&RawFix> = fixes.iter().filter(|f| f.trid == trid).collect();
            assert!(mine.len() >= 2);
            assert_eq!(mine[0].time, tr.first().time);
            assert_eq!(mine.last().unwrap().time, tr.last().time);
        }
    }

    #[test]
    fn stale_duplicates_break_time_order() {
        // With a high duplicate rate over enough fixes, at least one
        // stale copy must appear, making the stream non-monotonic.
        let d = clean_dataset(5, 40);
        let c = FaultConfig::parse("dup=0.5").unwrap();
        let (fixes, log) = inject_faults(&d, &c, 11);
        assert!(log.stale_duplicated > 0);
        let has_inversion = fixes
            .windows(2)
            .any(|w| w[0].trid == w[1].trid && w[1].time < w[0].time);
        assert!(has_inversion);
    }

    #[test]
    fn truncated_trajectories_fall_below_two_fixes() {
        let d = clean_dataset(10, 10);
        let c = FaultConfig::parse("truncate=1.0").unwrap();
        let (fixes, log) = inject_faults(&d, &c, 9);
        assert_eq!(log.truncated, 10);
        for tr in d.trajectories() {
            let trid = tr.id().value();
            assert!(fixes.iter().filter(|f| f.trid == trid).count() < 2);
        }
    }

    #[test]
    fn unarmed_faultfs_counts_ops_and_passes_through() {
        let mem = MemFs::new();
        let fs = FaultFs::unarmed(mem.clone());
        fs.write(Path::new("/d/a"), b"one").unwrap();
        fs.append(Path::new("/d/a"), b"two").unwrap();
        fs.rename(Path::new("/d/a"), Path::new("/d/b")).unwrap();
        fs.remove_file(Path::new("/d/b")).unwrap();
        assert_eq!(fs.mutating_ops(), 4);
        assert!(!fs.crashed());
        assert!(!fs.fault_fired());
        assert!(mem.list(Path::new("/d")).unwrap().is_empty());
    }

    #[test]
    fn lost_write_kills_the_process_and_leaves_no_bytes() {
        let mem = MemFs::new();
        let fs = FaultFs::armed(mem.clone(), 1, DiskFault::Lost);
        fs.write(Path::new("/d/a"), b"survives").unwrap();
        let err = fs.write(Path::new("/d/b"), b"lost").unwrap_err();
        assert!(err.to_string().contains("simulated crash"));
        assert!(fs.crashed());
        // Dead process: every further op fails, reads included.
        assert!(fs.read(Path::new("/d/a")).is_err());
        assert!(fs.write(Path::new("/d/c"), b"x").is_err());
        // The surviving storage has the first file only.
        assert_eq!(mem.read(Path::new("/d/a")).unwrap(), b"survives");
        assert!(!mem.exists(Path::new("/d/b")));
    }

    #[test]
    fn torn_write_keeps_a_prefix() {
        let mem = MemFs::new();
        let fs = FaultFs::armed(mem.clone(), 0, DiskFault::Torn { keep: 3 });
        assert!(fs.write(Path::new("/d/a"), b"0123456789").is_err());
        assert!(fs.crashed());
        assert_eq!(mem.read(Path::new("/d/a")).unwrap(), b"012");
    }

    #[test]
    fn bit_flip_is_silent_and_changes_exactly_one_byte() {
        let mem = MemFs::new();
        let fs = FaultFs::armed(
            mem.clone(),
            0,
            DiskFault::BitFlip {
                offset: 12,
                mask: 0,
            },
        );
        fs.write(Path::new("/d/a"), b"0123456789").unwrap(); // reports success
        assert!(!fs.crashed());
        assert!(fs.fault_fired());
        let stored = mem.read(Path::new("/d/a")).unwrap();
        let diffs: Vec<usize> = stored
            .iter()
            .zip(b"0123456789")
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(diffs, vec![12 % 10]);
        // The handle keeps working afterwards.
        fs.write(Path::new("/d/b"), b"later").unwrap();
    }

    #[test]
    fn no_space_is_reported_and_recoverable() {
        let mem = MemFs::new();
        let fs = FaultFs::armed(mem.clone(), 0, DiskFault::NoSpace);
        let err = fs.write(Path::new("/d/a"), b"data").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert!(!fs.crashed());
        assert!(!mem.exists(Path::new("/d/a")));
        // Retry on the same handle succeeds (space was freed).
        fs.write(Path::new("/d/a"), b"data").unwrap();
        assert_eq!(mem.read(Path::new("/d/a")).unwrap(), b"data");
    }

    #[test]
    fn rename_failure_leaves_source_in_place() {
        let mem = MemFs::new();
        let fs = FaultFs::armed(mem.clone(), 1, DiskFault::RenameFail);
        fs.write(Path::new("/d/a.tmp"), b"payload").unwrap();
        let err = fs
            .rename(Path::new("/d/a.tmp"), Path::new("/d/a"))
            .unwrap_err();
        assert!(err.to_string().contains("rename failed"));
        assert!(!fs.crashed());
        assert!(mem.exists(Path::new("/d/a.tmp")));
        assert!(!mem.exists(Path::new("/d/a")));
        // The retry goes through.
        fs.rename(Path::new("/d/a.tmp"), Path::new("/d/a")).unwrap();
        assert_eq!(mem.read(Path::new("/d/a")).unwrap(), b"payload");
    }

    #[test]
    fn teleported_fix_is_far_from_its_origin() {
        let d = clean_dataset(3, 10);
        let c = FaultConfig::parse("teleport=1.0").unwrap();
        let (fixes, log) = inject_faults(&d, &c, 5);
        assert_eq!(log.teleported, 30);
        let originals = neat_traj::sanitize::dataset_fixes(&d);
        for (orig, faulted) in originals.iter().zip(&fixes) {
            let moved = orig.position.distance(faulted.position);
            assert!((5_000.0..20_000.0).contains(&moved), "moved {moved}");
        }
    }
}
