//! The batch workload: the path of `neat cluster --mode opt --threads 0`
//! driven in-process through its public calls, each run starting from
//! the text files on disk.

use crate::inputs::{batch_dataset, dataset_text, network_text, Batch, Fixture};
use crate::replay::{batch_pipeline, replay, ReplayMode, Router};
use crate::trace::Trace;
use crate::util::{
    available_threads, median, ms, peak_rss_mb, percentile, release_free_heap, reset_peak_rss,
    result_digest, session_digest,
};
use crate::Outcome;
use neat_core::{ErrorPolicy, Mode, Neat, NeatConfig};
use neat_rnet::io as netio;
use neat_rnet::RoadNetwork;
use neat_traj::sanitize::{SanitizeOutput, Sanitizer};
use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::time::{Duration, Instant};

/// Runs of the timed loop at the least, however long each takes.
const MIN_RUNS: usize = 3;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Files<'a> {
    network: &'a Path,
    dataset: &'a Path,
}

impl Files<'_> {
    fn network(&self) -> Result<RoadNetwork, String> {
        let f = File::open(self.network).map_err(|e| format!("open network: {e}"))?;
        netio::read_network(BufReader::new(f)).map_err(|e| format!("read network: {e}"))
    }

    /// The dataset as `neat cluster --on-error fail` reads it.
    fn dataset(&self) -> Result<SanitizeOutput, String> {
        let name = self.dataset.display().to_string();
        let f = File::open(self.dataset).map_err(|e| format!("open dataset: {e}"))?;
        Sanitizer::with_policy(ErrorPolicy::Strict)
            .read(name, BufReader::new(f))
            .map_err(|e| format!("read dataset: {e}"))
    }
}

/// `neat cluster --threads 0` with every other flag at its default.
fn cli_config() -> NeatConfig {
    NeatConfig {
        threads: available_threads(),
        ..NeatConfig::default()
    }
}

/// One run, files to complete result: (milliseconds, result digest).
fn run_once(files: &Files<'_>) -> Result<(f64, u64), String> {
    let t = Instant::now();
    let net = files.network()?;
    let data = files.dataset()?;
    let r = Neat::new(&net, cli_config())
        .run_with_policy(&data.dataset, Mode::Opt, ErrorPolicy::Strict)
        .map_err(|e| format!("cluster: {e}"))?;
    let took = ms(t.elapsed());
    let digest = result_digest(
        r.fragment_count,
        r.base_cluster_count,
        &r.flow_clusters,
        &r.clusters,
    );
    Ok((took, digest))
}

/// The same run with a span around each layer call; returns (wall
/// milliseconds of the spanned calls, result digest).
fn traced_once(files: &Files<'_>, t: &mut Trace) -> Result<(f64, u64), String> {
    let start = Instant::now();
    let net = t.span("rnet.read_network", || files.network())?;
    let data = t.span("traj.read_dataset", || files.dataset())?;
    let read_ms = ms(start.elapsed());
    let pipe = batch_pipeline(t, &net, &data.dataset)?;
    t.count("traj.samples", data.dataset.total_points() as f64);
    t.count(
        "traj.bytes",
        std::fs::metadata(files.dataset).map_or(0, |m| m.len()) as f64,
    );
    let s = pipe.stats;
    t.count("neat.phase3.pairs", s.pairs_considered as f64);
    t.count("neat.phase3.sp_computations", s.sp_computations as f64);
    t.count("neat.phase3.sp_cache_hits", s.sp_cache_hits as f64);
    t.count("neat.phase3.one_to_many_scans", s.one_to_many_scans as f64);
    t.count("phase3.pruned", (s.elb_skips + s.alt_skips) as f64);
    Ok((read_ms + pipe.phases_ms, pipe.digest))
}

/// Repeats `once` back to back for `budget` (and at least
/// [`MIN_RUNS`] times), checking each result against `reference`.
/// Returns per-run milliseconds and how late each run started after
/// the previous one finished.
fn timed_loop(
    out: &mut Outcome,
    budget: Duration,
    reference: u64,
    mut once: impl FnMut() -> Result<(f64, u64), String>,
) -> (Vec<f64>, Vec<f64>) {
    let (mut took, mut late) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut due = Instant::now();
    while took.len() < MIN_RUNS || start.elapsed() < budget {
        late.push(ms(Instant::now().saturating_duration_since(due)));
        out.attempted += 1;
        match once() {
            Ok((t, digest)) => {
                took.push(t);
                if digest != reference {
                    out.failed += 1;
                    out.check("result equals the 1-thread reference", false);
                }
            }
            Err(e) => {
                out.failed += 1;
                out.note(format!("failure: {e}"));
                if out.failed > 3 {
                    break;
                }
            }
        }
        due = Instant::now();
    }
    (took, late)
}

/// Runs the batch workload.
pub fn run(
    fx: Fixture,
    seed: u64,
    seconds: f64,
    traced: bool,
    work: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (net_path, data_path) = (work.join("network.txt"), work.join("dataset.csv"));
    let files = Files {
        network: &net_path,
        dataset: &data_path,
    };

    // --- setup, SETUPS times: generate the inputs and write the files ---
    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let net = fx.network();
        let data = batch_dataset(fx, &net, seed);
        std::fs::write(&net_path, network_text(&net)).map_err(|e| format!("write: {e}"))?;
        std::fs::write(&data_path, dataset_text(&data)).map_err(|e| format!("write: {e}"))?;
        setups.push(t.elapsed().as_secs_f64());
        inputs = Some((net, data));
    }
    let (net, data) = inputs.ok_or("no inputs")?;
    let samples = data.total_points();
    let (t_min, t_max) = data
        .trajectories()
        .iter()
        .fold((f64::MAX, f64::MIN), |(a, b), t| {
            (a.min(t.first().time), b.max(t.last().time))
        });
    // The reference: the same clustering at one thread, in memory.
    let reference = {
        let one = NeatConfig {
            threads: 1,
            ..NeatConfig::default()
        };
        let r = Neat::new(&net, one)
            .run_with_policy(&data, Mode::Opt, ErrorPolicy::Strict)
            .map_err(|e| format!("reference run: {e}"))?;
        result_digest(
            r.fragment_count,
            r.base_cluster_count,
            &r.flow_clusters,
            &r.clusters,
        )
    };
    drop(data);

    // --- timed: back-to-back runs from the files ---
    let share = if traced { 0.5 } else { 1.0 };
    let budget = Duration::from_secs_f64(seconds * share);
    release_free_heap();
    reset_peak_rss("self");
    let (took, late) = timed_loop(&mut out, budget, reference, || run_once(&files));
    let rss = peak_rss_mb("self").ok_or("cannot read peak RSS")?;
    for &s in &setups {
        out.raw.record("setup_s", s);
    }
    for &t in &took {
        out.raw.record("run_ms", t);
    }
    let batch_s = median(&took) / 1e3;
    let p90_ms = percentile(&took, 0.9);
    // Runs per second of running: the benchmark's own result checks
    // between runs are not the program's time.
    let per_s = took.len() as f64 / (took.iter().sum::<f64>() / 1e3);
    out.e2e("setup_s", median(&setups), "s");
    out.e2e("latency_p50_ms", batch_s * 1e3, "ms");
    out.e2e("latency_p90_ms", p90_ms, "ms");
    out.e2e("max_batches_per_s", per_s, "1/s");
    out.e2e("peak_rss_mb", rss, "MB");
    out.report("setup_s", median(&setups), "s");
    out.report("batch_s", batch_s, "s");
    out.report("batch_p90_s", p90_ms / 1e3, "s");
    out.report("max_batches_per_s", per_s, "1/s");
    out.report("peak_rss_mb", rss, "MB");
    out.note(format!(
        "{} runs of {samples} samples at {} threads",
        took.len(),
        available_threads()
    ));

    if traced {
        let mut trace = Trace::default();
        let (walls, _) = timed_loop(&mut out, budget, reference, || {
            traced_once(&files, &mut trace)
        });
        let parts: f64 = [
            "rnet.read_network",
            "traj.read_dataset",
            "neat.phase1",
            "neat.phase2",
            "neat.phase3",
        ]
        .iter()
        .map(|l| trace.p50(l))
        .sum();
        trace.count("gen.late_p90_ms", percentile(&late, 0.9));
        trace.count("gen.backlog_max", 1.0);
        out.layer("trace.coverage", parts / median(&walls), "ratio");
        out.layer(
            "trace.overhead",
            median(&walls) / median(&took) - 1.0,
            "ratio",
        );
        out.layer("neatsvc.queue_wait.p50_ms", median(&late), "ms");
        let router_self = stream_probe(&mut out, &mut trace, &net, &files, (t_min, t_max), work)?;
        out.layer("neatsvc.router_self.p50_ms", router_self, "ms");
        out.layers_from(&trace);
    }
    Ok(out)
}

/// Layers the batch path bypasses, measured on this workload's input:
/// the whole dataset pushed as one batch through the streaming calls,
/// with a window that expires about half of it. Returns the router's
/// own time (push minus the layers inside it).
fn stream_probe(
    out: &mut Outcome,
    trace: &mut Trace,
    net: &RoadNetwork,
    files: &Files<'_>,
    (t_min, t_max): (f64, f64),
    work: &Path,
) -> Result<f64, String> {
    let payload = std::fs::read(files.dataset).map_err(|e| format!("read dataset: {e}"))?;
    let batches = [Batch {
        id: "sj-all".to_string(),
        payload,
    }];
    let window = Some((t_max - t_min) / 2.0);
    let mut router = Router::new(net, window, &work.join("probe_router"));
    router.push(&batches[0])?;
    let routed = router.finish()?;
    let replayed = replay(
        net,
        &batches,
        window,
        ReplayMode {
            durable: Some(&work.join("probe_replay")),
            traced: true,
            extras_every: 1,
            pipeline: false,
            threads: 1,
        },
    )?;
    out.check(
        "in-process router equals replay",
        routed == session_digest(&replayed.session),
    );
    let mut probe = replayed.trace;
    probe.merge(&router.trace);
    trace.absorb(
        &probe,
        &[
            "neat.ingest",
            "neat.refine",
            "neat.expire",
            "durability.journal_batch",
            "durability.journal_expiry",
            "durability.checkpoint",
            "neatsvc.frame",
            "neatsvc.push",
            "neatsvc.status",
            "neat.live_fragments",
            "neat.expired_fragments",
            "neat.retained_flows",
            "durability.journal_bytes",
            "durability.snapshot_bytes",
            "durability.state_mb",
        ],
    );
    Ok(median(probe.samples("neatsvc.push")) - median(&replayed.core_ms))
}
