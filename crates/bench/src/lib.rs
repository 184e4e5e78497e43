//! Experiment harness regenerating every table and figure of the NEAT
//! paper.
//!
//! Each table/figure has a dedicated binary (see DESIGN.md §3 for the
//! index):
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1` | Table I — road-network statistics |
//! | `table2` | Table II — dataset point counts |
//! | `table3` | Table III — flow clusters per SJ dataset |
//! | `fig3` | Figure 3 — ATL500 visualisation + cluster counts |
//! | `fig4` | Figure 4 — TraClus on ATL500 (two parameterisations) |
//! | `fig5` | Figure 5 — route lengths, cluster counts, runtimes |
//! | `fig6` | Figure 6 — NEAT version scaling + phase breakdown |
//! | `fig7` | Figure 7 — ELB vs Dijkstra in Phase 3 |
//! | `hybrid_variant` | §IV-C — TraClus hybrid on SJ2000 |
//!
//! Run them in release mode, e.g.
//! `cargo run --release -p neat-bench --bin table1`. Every binary accepts
//! `--scale <f>` to shrink the object counts (default 1.0 = the paper's
//! scale) and writes both stdout and `results/<name>.txt`.

pub mod log;
pub mod report;
pub mod setup;

use neat_core::{FlowCluster, NeatResult};
use neat_rnet::RoadLocation;
use std::time::{Duration, Instant};

/// Times a closure, returning its result and the elapsed wall-clock time.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Default `--out` path of a JSON-emitting benchmark: `file` under
/// `$CARGO_TARGET_DIR/bench/` (`target/bench/` when unset), so a local
/// run never overwrites a result checked in at the repository root.
pub fn default_out(file: &str) -> String {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    format!("{target}/bench/{file}")
}

/// Writes `contents` to `path`, creating its parent directories.
///
/// # Errors
///
/// Propagates the I/O error of creating the directories or the file.
pub fn write_out(path: &str, contents: &str) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, contents)
}

/// Parsed command-line options shared by the experiment binaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchArgs {
    /// Object-count scale factor (1.0 = the paper's sizes).
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
    /// Optional cap on the object count for the quadratic TraClus
    /// baseline (`--cap`); larger datasets get an extrapolated estimate.
    pub cap: Option<usize>,
}

/// Parses `--scale <f>`, `--seed <u64>` and `--cap <usize>` flags.
/// Defaults: scale 1.0, seed 42, no cap.
///
/// # Panics
///
/// Panics with a usage message on malformed flags.
pub fn parse_bench_args(args: &[String]) -> BenchArgs {
    let mut out = BenchArgs {
        scale: 1.0,
        seed: 42,
        cap: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                out.scale = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("--scale needs a positive number")); // lint:allow(L1) reason=CLI flag parsing for bench binaries; aborting on malformed flags is the intended UX
                i += 2;
            }
            "--seed" => {
                out.seed = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("--seed needs an integer")); // lint:allow(L1) reason=CLI flag parsing for bench binaries; aborting on malformed flags is the intended UX
                i += 2;
            }
            "--cap" => {
                out.cap = Some(
                    args.get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| panic!("--cap needs an integer")), // lint:allow(L1) reason=CLI flag parsing for bench binaries; aborting on malformed flags is the intended UX
                );
                i += 2;
            }
            other => panic!("unknown flag `{other}` (supported: --scale, --seed, --cap)"), // lint:allow(L1) reason=CLI flag parsing for bench binaries; aborting on malformed flags is the intended UX
        }
    }
    assert!(out.scale > 0.0, "--scale must be positive");
    out
}

/// Convenience wrapper returning only `(scale, seed)`.
///
/// # Panics
///
/// Same as [`parse_bench_args`].
pub fn parse_args(args: &[String]) -> (f64, u64) {
    let a = parse_bench_args(args);
    (a.scale, a.seed)
}

/// Scales an object count, keeping at least 10 objects.
pub fn scaled(objects: usize, scale: f64) -> usize {
    ((objects as f64 * scale).round() as usize).max(10)
}

/// Canonical 64-bit digest of a result's flow clusters and trajectory
/// clusters, in order: FNV-1a over every node chain, every member's
/// segment, and every fragment's trajectory id, segment, positions and
/// times (floats by `to_bits()`), with each list prefixed by its length.
/// Equal digests mean bit-identical clusters for any practical purpose;
/// the walk streams, so it costs one pass over the result.
pub fn result_digest(r: &NeatResult) -> u64 {
    let mut h = Fnv1a::default();
    h.flows(&r.flow_clusters);
    h.u64(r.clusters.len() as u64);
    for c in &r.clusters {
        h.flows(c.flows());
    }
    h.0
}

/// Streaming FNV-1a state.
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn location(&mut self, loc: &RoadLocation) {
        self.u64(loc.segment.index() as u64);
        self.u64(loc.position.x.to_bits());
        self.u64(loc.position.y.to_bits());
        self.u64(loc.time.to_bits());
    }

    fn flows(&mut self, flows: &[FlowCluster]) {
        self.u64(flows.len() as u64);
        for f in flows {
            self.u64(f.node_chain().len() as u64);
            for n in f.node_chain() {
                self.u64(n.index() as u64);
            }
            self.u64(f.members().len() as u64);
            for m in f.members() {
                self.u64(m.segment().index() as u64);
                self.u64(m.fragments().len() as u64);
                for frag in m.fragments() {
                    self.u64(frag.trajectory.value());
                    self.u64(frag.segment.index() as u64);
                    self.location(&frag.first);
                    self.location(&frag.last);
                    self.u64(frag.point_count as u64);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn default_args() {
        assert_eq!(parse_args(&[]), (1.0, 42));
    }

    #[test]
    fn parses_scale_and_seed() {
        assert_eq!(
            parse_args(&s(&["--scale", "0.25", "--seed", "7"])),
            (0.25, 7)
        );
        assert_eq!(parse_args(&s(&["--seed", "9"])), (1.0, 9));
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn unknown_flag_panics() {
        parse_args(&s(&["--bogus"]));
    }

    #[test]
    fn scaled_floors_at_ten() {
        assert_eq!(scaled(500, 1.0), 500);
        assert_eq!(scaled(500, 0.1), 50);
        assert_eq!(scaled(20, 0.01), 10);
    }

    #[test]
    fn time_measures() {
        let (v, d) = time(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
    }
}
