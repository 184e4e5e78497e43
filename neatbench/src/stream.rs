//! The two streaming workloads: `neatd --listen --window W` fed with
//! pre-generated batches by one client on one connection, in blocks
//! that alternate an open loop at a fixed rate with a closed loop that
//! measures capacity.

use crate::client::{closed_loop, open_loop, Conn, Daemon, Load};
use crate::inputs::{network_text, stream_batches, Fixture};
use crate::replay::{replay, Replay, ReplayMode, Router, TENANT};
use crate::trace::Trace;
use crate::util::{
    available_threads, dir_bytes, median, ms, peak_rss_mb, percentile, reset_peak_rss,
    session_digest,
};
use crate::Outcome;
use neat_core::checkpoint::CheckpointStore;
use neat_core::{IncrementalNeat, NeatConfig};
use neat_durability::StdFs;
use neat_rnet::io as netio;
use std::io::BufReader;
use std::path::Path;
use std::time::Instant;

/// Batches the span-free replay covers to price the spans.
const OVERHEAD_BATCHES: usize = 40;

/// Parameters of one stream workload.
#[derive(Debug, Clone, Copy)]
pub struct StreamParams {
    /// Trajectories per pushed batch.
    pub per_batch: usize,
    /// `neatd --window`, in observation seconds.
    pub window_s: f64,
    /// Departures per observation second in the simulated stream.
    pub departures_per_s: f64,
    /// Open-loop push rate, pushes per wall-clock second.
    pub rate_per_s: f64,
    /// Closed-loop pushes during setup that fill the window.
    pub warmup: usize,
    /// Closed-loop pushes in a run, measuring capacity.
    pub closed: usize,
    /// Open-loop blocks, each followed by a closed-loop block, that
    /// the timed pushes are split into.
    pub cycles: usize,
    /// Traced replays time the batch-alone calls on every n-th batch.
    pub extras_every: usize,
}

/// Share of a run's `--seconds` spent in the open loop; the closed-loop
/// blocks take about the rest.
const OPEN_SHARE: f64 = 0.75;

impl StreamParams {
    /// Open-loop pushes in a run of `seconds` at the fixed rate.
    pub fn open_pushes(&self, seconds: f64) -> usize {
        (self.rate_per_s * seconds * OPEN_SHARE).ceil() as usize
    }
}

/// Block `i` of `n` pushes split into `parts` nearly equal blocks.
fn block(n: usize, parts: usize, i: usize) -> usize {
    n / parts + usize::from(i < n % parts)
}

/// Runs one stream workload.
pub fn run(
    p: &StreamParams,
    fx: Fixture,
    seed: u64,
    seconds: f64,
    traced: bool,
    neatd: &Path,
    work: &Path,
) -> Result<Outcome, String> {
    let (n_open, n_closed) = (p.open_pushes(seconds), p.closed);
    let total = p.warmup + n_open + n_closed;
    let mut out = Outcome::default();

    // --- setup: inputs, daemon start (three times, median), warm-up ---
    let t = Instant::now();
    let net = fx.network();
    let batches = stream_batches(fx, &net, seed, p.per_batch, p.departures_per_s, total);
    let net_file = work.join("network.txt");
    std::fs::write(&net_file, network_text(&net)).map_err(|e| format!("write network: {e}"))?;
    let gen_s = t.elapsed().as_secs_f64();
    let mut starts = Vec::new();
    let mut running = None;
    for r in 0..3 {
        let t = Instant::now();
        let daemon = Daemon::start(
            neatd,
            &work.join(format!("daemon{r}")),
            &net_file,
            p.window_s,
        )?;
        let mut conn = Conn::connect(&daemon.addr)?;
        conn.status()?;
        starts.push(t.elapsed().as_secs_f64());
        out.attempted += 1;
        if r < 2 {
            out.attempted += 1;
            daemon.stop(&mut conn)?;
        } else {
            running = Some((daemon, conn));
        }
    }
    let (daemon, mut conn) = running.ok_or("no daemon")?;
    let t = Instant::now();
    let warm = closed_loop(&mut conn, &batches[..p.warmup]);
    let setup_s = gen_s + median(&starts) + t.elapsed().as_secs_f64();
    tally(&mut out, &warm);

    // --- timed: open-loop blocks at the fixed rate, each followed by a
    // closed-loop block, so both phases sample the whole run ---
    let pid = daemon.pid();
    let state_dir = daemon.state_root.join(TENANT);
    reset_peak_rss(&pid);
    let (mut open, mut closed) = (Load::default(), Load::default());
    let mut next = p.warmup;
    for c in 0..p.cycles {
        let o = block(n_open, p.cycles, c);
        let block_load = open_loop(
            &mut conn,
            &batches[next..next + o],
            p.rate_per_s,
            open.late_ms.len(),
        );
        open.absorb(block_load);
        next += o;
        let k = block(n_closed, p.cycles, c);
        closed.absorb(closed_loop(&mut conn, &batches[next..next + k]));
        next += k;
    }
    let rss = peak_rss_mb(&pid).ok_or("cannot read the daemon's peak RSS")?;
    tally(&mut out, &open);
    tally(&mut out, &closed);
    for (name, v) in [
        ("open_ack_ms", &open.ack_ms),
        ("closed_ack_ms", &closed.ack_ms),
        ("late_ms", &open.late_ms),
    ] {
        for &x in v {
            out.raw.record(name, x);
        }
    }

    out.attempted += 2;
    let status = conn.status();
    let stopped = daemon.stop(&mut conn);
    let state_mb = dir_bytes(&state_dir) as f64 / 1e6;
    let status = match (status, stopped) {
        (Ok(s), Ok(())) => s,
        (s, st) => {
            out.failed += 1;
            return Err(format!("final status/drain failed: {:?} / {st:?}", s.err()));
        }
    };

    // --- correctness: the daemon's state equals an in-process replay ---
    let window = Some(p.window_s);
    let mut trace = Trace::default();
    let reference = if traced {
        for _ in 0..3 {
            let t = Instant::now();
            let f = std::fs::File::open(&net_file).map_err(|e| format!("open network: {e}"))?;
            netio::read_network(BufReader::new(f)).map_err(|e| format!("read network: {e}"))?;
            trace.record("rnet.read_network", ms(t.elapsed()));
        }
        // The traced replay, the in-process router and (over a prefix)
        // the same calls without spans take each batch in turn, so all
        // three see the same host conditions.
        let mut traced_run = Replay::new(
            &net,
            window,
            ReplayMode {
                durable: Some(&work.join("replay_traced")),
                traced: true,
                extras_every: p.extras_every,
                pipeline: true,
                threads: 1,
            },
        )?;
        let mut plain = Replay::new(
            &net,
            window,
            ReplayMode {
                durable: Some(&work.join("replay_plain")),
                traced: false,
                extras_every: 0,
                pipeline: false,
                threads: 1,
            },
        )?;
        let mut router = Router::new(&net, window, &work.join("router"));
        let prefix = batches.len().min(OVERHEAD_BATCHES);
        for (i, b) in batches.iter().enumerate() {
            router.push(b)?;
            traced_run.step(i, b)?;
            if i < prefix {
                plain.step(i, b)?;
            }
        }
        traced_run.finish();
        let routed = router.finish()?;
        out.check(
            "in-process router equals replay",
            routed == session_digest(&traced_run.session),
        );
        trace.merge(&traced_run.trace);
        trace.merge(&router.trace);
        let push = trace.samples("neatsvc.push").to_vec();
        let self_ms: Vec<f64> = push
            .iter()
            .zip(&traced_run.core_ms)
            .map(|(p, c)| p - c)
            .collect();
        let push_p50 = median(&push);
        out.layer("neatsvc.router_self.p50_ms", median(&self_ms), "ms");
        out.layer(
            "neatsvc.queue_wait.p50_ms",
            median(&open.ack_ms) - push_p50,
            "ms",
        );
        out.layer(
            "trace.coverage",
            median(&traced_run.core_ms) / push_p50,
            "ratio",
        );
        out.layer(
            "trace.overhead",
            median(&traced_run.wall_ms[..prefix]) / median(&plain.wall_ms) - 1.0,
            "ratio",
        );
        traced_run
    } else {
        replay(
            &net,
            &batches,
            window,
            ReplayMode {
                durable: None,
                traced: false,
                extras_every: 0,
                pipeline: false,
                threads: available_threads(),
            },
        )?
    };
    let s = &reference.session;
    out.check("status is running", status.status == "running");
    out.check("every push applied", status.applied == reference.applied);
    out.check("op count", status.batches == s.batches() as u64);
    out.check(
        "live fragments",
        status.live_fragments == s.live_fragments() as u64,
    );
    out.check(
        "watermark",
        status.watermark_bits == s.watermark().map(f64::to_bits),
    );
    out.check("expiries", status.expiries == reference.expiries);
    out.check("drift totals", status.drift == reference.drift);
    out.check(
        "nothing deferred, shed or poisoned",
        status.deferred + status.shed + status.poisoned == 0,
    );
    let store = CheckpointStore::open(StdFs, &state_dir).map_err(|e| format!("{e}"))?;
    match IncrementalNeat::resume(&net, NeatConfig::default(), &store) {
        Ok((resumed, _)) => out.check(
            "retained state",
            session_digest(&resumed) == session_digest(s),
        ),
        Err(e) => out.check(&format!("resume daemon state: {e}"), false),
    }

    let ack_p50 = median(&open.ack_ms);
    let ack_p90 = percentile(&open.ack_ms, 0.9);
    let capacity = n_closed as f64 / closed.elapsed.as_secs_f64();
    out.e2e("setup_s", setup_s, "s");
    out.e2e("latency_p50_ms", ack_p50, "ms");
    out.e2e("latency_p90_ms", ack_p90, "ms");
    out.e2e("max_batches_per_s", capacity, "1/s");
    out.e2e("peak_rss_mb", rss, "MB");
    out.report("setup_s", setup_s, "s");
    out.report("ack_p50_ms", ack_p50, "ms");
    out.report("ack_p90_ms", ack_p90, "ms");
    out.report("max_batches_per_s", capacity, "1/s");
    out.report("peak_rss_mb", rss, "MB");
    out.report("state_mb", state_mb, "MB");
    out.note(format!(
        "{} timed acks at {} pushes/s, {} closed-loop pushes, in {} cycles; {} warm-up pushes; \
         {} trajectories ({:.2} MB) per batch, window {} s",
        open.ack_ms.len(),
        p.rate_per_s,
        n_closed,
        p.cycles,
        p.warmup,
        p.per_batch,
        batches.iter().map(|b| b.payload.len()).sum::<usize>() as f64 / total as f64 / 1e6,
        p.window_s
    ));
    if traced {
        trace.count("gen.late_p90_ms", percentile(&open.late_ms, 0.9));
        trace.count("gen.backlog_max", open.backlog_max as f64);
        out.layers_from(&trace);
    }
    Ok(out)
}

/// Adds a load phase's operations and failures to the outcome.
fn tally(out: &mut Outcome, load: &Load) {
    out.attempted += load.attempted as u64;
    out.failed += load.failed as u64;
    for f in &load.failures {
        out.note(format!("failure: {f}"));
    }
}
