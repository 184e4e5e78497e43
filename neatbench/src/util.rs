//! Small helpers shared by the workloads: order statistics, a streaming
//! canonical digest, `/proc` probes, directory sizes and host facts.

use neat_core::{FlowCluster, IncrementalNeat, TrajectoryCluster};
use neat_rnet::RoadLocation;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Milliseconds in `d`, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of `v` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `[0, 1]`; `0.0` for an empty slice.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (p * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Streaming FNV-1a (64-bit) over canonical little-endian encodings.
/// Cheap enough to hash a whole clustering result on every run, unlike
/// formatting it.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }

    fn location(&mut self, l: &RoadLocation) {
        self.u64(l.segment.index() as u64);
        self.f64(l.position.x);
        self.f64(l.position.y);
        self.f64(l.time);
    }

    /// A flow cluster: its node chain, then every member base cluster
    /// with every t-fragment in stored order.
    pub fn flow(&mut self, f: &FlowCluster) {
        let chain = f.node_chain();
        self.u64(chain.len() as u64);
        for n in chain {
            self.u64(n.index() as u64);
        }
        self.u64(f.members().len() as u64);
        for b in f.members() {
            self.u64(b.segment().index() as u64);
            self.u64(b.fragments().len() as u64);
            for fr in b.fragments() {
                self.u64(fr.trajectory.value());
                self.u64(fr.segment.index() as u64);
                self.location(&fr.first);
                self.location(&fr.last);
                self.u64(fr.point_count as u64);
            }
        }
    }

    pub fn flows(&mut self, flows: &[FlowCluster]) {
        self.u64(flows.len() as u64);
        for f in flows {
            self.flow(f);
        }
    }

    pub fn clusters(&mut self, clusters: &[TrajectoryCluster]) {
        self.u64(clusters.len() as u64);
        for c in clusters {
            self.flows(c.flows());
        }
    }
}

/// Canonical digest of a batch opt-NEAT result, from its parts so the
/// plain and the decomposed (traced) path hash the same way.
pub fn result_digest(
    fragments: usize,
    base_clusters: usize,
    flows: &[FlowCluster],
    clusters: &[TrajectoryCluster],
) -> u64 {
    let mut d = Digest::new();
    d.u64(fragments as u64);
    d.u64(base_clusters as u64);
    d.flows(flows);
    d.clusters(clusters);
    d.finish()
}

/// Canonical digest of an online session's retained state: operation
/// count, watermark and every retained flow cluster.
pub fn session_digest(s: &IncrementalNeat<'_>) -> u64 {
    let mut d = Digest::new();
    d.u64(s.batches() as u64);
    d.u64(s.watermark().map_or(u64::MAX, f64::to_bits));
    d.flows(s.flow_clusters());
    d.finish()
}

/// A `kB` field of `/proc/<pid>/status`, in MB.
fn proc_status_mb(pid: &str, field: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one).
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    proc_status_mb(pid, "VmHWM:")
}

/// Resets the peak-RSS watermark of `pid` to its current RSS, so a
/// later [`peak_rss_mb`] covers only what follows. Best effort: without
/// the permission the watermark simply keeps the earlier peak.
pub fn reset_peak_rss(pid: &str) -> bool {
    std::fs::write(format!("/proc/{pid}/clear_refs"), b"5").is_ok()
}

/// Returns this process's free heap memory to the system, so that the
/// resident set (and a peak taken after [`reset_peak_rss`]) counts what
/// is live rather than what set-up once allocated.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointers and only returns
    // unused heap pages to the kernel; it is safe at any time.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn release_free_heap() {}

/// Total bytes of regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0;
    };
    rd.flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Total bytes of the files in `dir` (not recursive) whose name ends
/// with `suffix`.
pub fn bytes_with_suffix(dir: &Path, suffix: &str) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0;
    };
    rd.flatten()
        .filter(|e| e.file_name().to_string_lossy().ends_with(suffix))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// Size of the newest (by name, which embeds the sequence number) file
/// in `dir` whose name ends with `suffix`.
pub fn newest_with_suffix(dir: &Path, suffix: &str) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0;
    };
    rd.flatten()
        .filter(|e| e.file_name().to_string_lossy().ends_with(suffix))
        .max_by_key(std::fs::DirEntry::file_name)
        .and_then(|e| e.metadata().ok())
        .map_or(0, |m| m.len())
}

/// The Cargo target directory the benchmark was built into; run output
/// goes under it, never into the source tree.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Worker threads the batch path uses: `neat cluster --threads 0`.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Host facts recorded beside every run's numbers.
pub struct Host {
    pub nproc: usize,
    pub cpu: String,
    pub kernel: String,
    pub commit: String,
}

impl Host {
    pub fn probe() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
        Host {
            nproc: available_threads(),
            cpu,
            kernel,
            commit: git_commit().unwrap_or_else(|| "unknown".to_string()),
        }
    }
}

/// The checked-out commit, read from `.git` without running git; `None`
/// outside a git checkout.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(refname)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(refname))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// JSON string literal for `s`.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number for `v`; non-finite values (never expected) become 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
