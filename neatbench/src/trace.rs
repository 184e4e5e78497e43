//! The benchmark's own span recorder. Spans are taken around calls into
//! each layer's public functions from the benchmark code; nothing inside
//! the program is instrumented. Spans stay in memory and are summarised
//! (and written to the run record) when the run ends.

use crate::util::{median, ms, percentile};
use std::collections::BTreeMap;
use std::time::Instant;

/// Every timed layer, in report order. Each is reported as
/// `<name>.p50_ms`, `<name>.p90_ms` and `<name>.n`.
pub const LAYERS: &[&str] = &[
    "rnet.read_network",
    "traj.read_dataset",
    "neat.phase1",
    "neat.phase2",
    "neat.phase3",
    "neat.run_1t",
    "neat.batch_phases",
    "neat.ingest",
    "neat.refine",
    "neat.expire",
    "durability.journal_batch",
    "durability.journal_expiry",
    "durability.checkpoint",
    "neatsvc.frame",
    "neatsvc.push",
    "neatsvc.status",
];

/// Every count, reported as the mean of its samples (`gen.*` as given).
pub const COUNTS: &[(&str, &str)] = &[
    ("traj.samples", "count"),
    ("traj.bytes", "bytes"),
    ("neat.fragments", "count"),
    ("neat.base_clusters", "count"),
    ("neat.flows", "count"),
    ("neat.clusters", "count"),
    ("neat.live_fragments", "count"),
    ("neat.expired_fragments", "count"),
    ("neat.retained_flows", "count"),
    ("neat.phase3.pairs", "count"),
    ("neat.phase3.sp_computations", "count"),
    ("neat.phase3.sp_cache_hits", "count"),
    ("neat.phase3.one_to_many_scans", "count"),
    ("neat.phase3.pruned_ratio", "ratio"),
    ("durability.journal_bytes", "bytes"),
    ("durability.snapshot_bytes", "bytes"),
    ("durability.state_mb", "MB"),
    ("gen.late_p90_ms", "ms"),
    ("gen.backlog_max", "count"),
];

/// Collected spans (milliseconds per call) and counts.
#[derive(Default)]
pub struct Trace {
    spans: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, Vec<f64>>,
}

impl Trace {
    /// Times `f` as one span of `layer`.
    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.record(layer, ms(t.elapsed()));
        out
    }

    pub fn record(&mut self, layer: &'static str, millis: f64) {
        self.spans.entry(layer).or_default().push(millis);
    }

    pub fn count(&mut self, name: &'static str, v: f64) {
        self.counts.entry(name).or_default().push(v);
    }

    pub fn samples(&self, layer: &str) -> &[f64] {
        self.spans.get(layer).map_or(&[], Vec::as_slice)
    }

    pub fn p50(&self, layer: &str) -> f64 {
        median(self.samples(layer))
    }

    /// Mean of a count's samples (`0` when never counted).
    pub fn mean(&self, name: &str) -> f64 {
        match self.counts.get(name) {
            Some(v) if !v.is_empty() => v.iter().sum::<f64>() / v.len() as f64,
            _ => 0.0,
        }
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.counts.get(name).map_or(0.0, |v| v.iter().sum())
    }

    /// Adds every span and count of `other`.
    pub fn merge(&mut self, other: &Trace) {
        for (name, v) in &other.spans {
            self.spans.entry(name).or_default().extend(v);
        }
        for (name, v) in &other.counts {
            self.counts.entry(name).or_default().extend(v);
        }
    }

    /// Copies the spans and counts named in `names` from `other`.
    pub fn absorb(&mut self, other: &Trace, names: &[&'static str]) {
        for name in names {
            if let Some(v) = other.spans.get(name) {
                self.spans.entry(name).or_default().extend(v);
            }
            if let Some(v) = other.counts.get(name) {
                self.counts.entry(name).or_default().extend(v);
            }
        }
    }

    /// The per-layer summary: p50/p90/n for every layer, then counts.
    pub fn layer_metrics(&self, out: &mut Vec<(String, f64, &'static str)>) {
        for layer in LAYERS {
            let s = self.samples(layer);
            out.push((format!("{layer}.p50_ms"), median(s), "ms"));
            out.push((format!("{layer}.p90_ms"), percentile(s, 0.9), "ms"));
            out.push((format!("{layer}.n"), s.len() as f64, "count"));
        }
    }

    /// Raw spans as a JSON object, for the run record.
    pub fn spans_json(&self) -> String {
        let body: Vec<String> = self
            .spans
            .iter()
            .map(|(k, v)| {
                let vals: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
                format!("{}: [{}]", crate::util::json_str(k), vals.join(","))
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}
