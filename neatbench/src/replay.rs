//! In-process replays of a batch stream through the program's public
//! calls, in the order the daemon makes them for one push: decode,
//! controlled ingest, journal append, watermark expiry, expiry journal
//! append and the checkpoint every push ends with. A replay is the
//! reference the daemon's final state must equal; the traced replay
//! also decomposes that work into per-layer spans. [`Router`] pushes
//! the same batches through the service layer in-process.

use crate::inputs::Batch;
use crate::trace::Trace;
use crate::util::{
    available_threads, bytes_with_suffix, dir_bytes, ms, newest_with_suffix, result_digest,
    session_digest,
};
use neat_core::checkpoint::CheckpointStore;
use neat_core::phase1::{form_base_clusters_ctl, form_base_clusters_parallel_with_policy};
use neat_core::phase2::{form_flow_clusters, form_flow_clusters_ctl};
use neat_core::phase3::refine_flow_clusters;
use neat_core::{DriftCounts, ErrorPolicy, IncrementalNeat, Mode, Neat, NeatConfig, Phase3Stats};
use neat_durability::retry::{JitterBackoff, RetryFs};
use neat_durability::StdFs;
use neat_rnet::RoadNetwork;
use neat_runctl::{CancelToken, Control, OverrunMode, RunBudget, SystemClock};
use neat_svc::frame::{frame, unframe};
use neat_svc::{Reply, Request, SvcConfig, TenantConfig, TenantRouter};
use neat_traj::io as trajio;
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The tenant every stream workload pushes to.
pub const TENANT: &str = "sj";

/// A Status request goes out once per this many pushes.
pub const STATUS_EVERY: usize = 10;

/// Seed the daemon's retry and jitter schedules use (`neatd --seed`).
const DAEMON_SEED: u64 = 42;

/// The per-batch control the service builds: unlimited budget, degrade
/// on overrun.
fn svc_control() -> Control {
    Control::new(RunBudget::unlimited(), CancelToken::new()).with_overrun(OverrunMode::Degrade)
}

/// How much a replay does besides the clustering itself.
pub struct ReplayMode<'a> {
    /// Journal and checkpoint into this directory, as the daemon does.
    pub durable: Option<&'a Path>,
    /// Record per-layer spans and counts.
    pub traced: bool,
    /// In a traced replay, time the separate refinement (and, with
    /// `pipeline`, the batch-alone pipeline calls) on every
    /// `extras_every`-th batch.
    pub extras_every: usize,
    pub pipeline: bool,
    /// Worker threads of the replayed session. The daemon runs at one
    /// (its configuration has no thread flag); the result is the same
    /// at any count, so a replay that only checks may use more.
    pub threads: usize,
}

/// Times `f`; records it as a span of `layer` when `traced`.
fn span<T>(traced: bool, t: &mut Trace, layer: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    let d = ms(start.elapsed());
    if traced {
        t.record(layer, d);
    }
    (out, d)
}

/// A replay in progress: one [`step`](Replay::step) per pushed batch.
pub struct Replay<'n> {
    net: &'n RoadNetwork,
    config: NeatConfig,
    window: Option<f64>,
    store: Option<(CheckpointStore<StdFs>, PathBuf)>,
    traced: bool,
    extras_every: usize,
    pipeline: bool,
    pub session: IncrementalNeat<'n>,
    pub drift: DriftCounts,
    pub expiries: u64,
    pub applied: u64,
    /// Per batch: wall time of the daemon-equivalent sequence.
    pub wall_ms: Vec<f64>,
    /// Per batch: sum of the spans of that sequence.
    pub core_ms: Vec<f64>,
    /// Spans and counts (traced replays).
    pub trace: Trace,
}

impl<'n> Replay<'n> {
    pub fn new(
        net: &'n RoadNetwork,
        window: Option<f64>,
        mode: ReplayMode<'_>,
    ) -> Result<Self, String> {
        let config = NeatConfig {
            threads: mode.threads,
            ..NeatConfig::default()
        };
        let store = match mode.durable {
            Some(dir) => {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("create {}: {e}", dir.display()))?;
                let store =
                    CheckpointStore::open(StdFs, dir).map_err(|e| format!("open store: {e}"))?;
                Some((store, dir.to_path_buf()))
            }
            None => None,
        };
        Ok(Replay {
            net,
            config,
            window,
            store,
            traced: mode.traced,
            extras_every: mode.extras_every.max(1),
            pipeline: mode.pipeline,
            session: IncrementalNeat::new(net, config),
            drift: DriftCounts::default(),
            expiries: 0,
            applied: 0,
            wall_ms: Vec::new(),
            core_ms: Vec::new(),
            trace: Trace::default(),
        })
    }

    fn count(&mut self, name: &'static str, v: f64) {
        if self.traced {
            self.trace.count(name, v);
        }
    }

    /// Applies batch number `i` as the daemon would.
    pub fn step(&mut self, i: usize, b: &Batch) -> Result<(), String> {
        let traced = self.traced;
        if traced {
            let req = Request::Push {
                tenant: TENANT.to_string(),
                batch_id: b.id.clone(),
                payload: b.payload.clone(),
            };
            let (back, _) = span(true, &mut self.trace, "neatsvc.frame", || {
                let wire = frame(&req.encode_body());
                unframe(&wire, usize::MAX).map(|body| Request::decode_body(&body))
            });
            match back {
                Ok(Ok(r)) if r == req => {}
                other => return Err(format!("frame round trip of {} failed: {other:?}", b.id)),
            }
        }
        let extras = traced && i.is_multiple_of(self.extras_every);
        let start = Instant::now();
        let (mut core, mut extra) = (0.0, 0.0);

        let (ds, d) = span(traced, &mut self.trace, "traj.read_dataset", || {
            trajio::read_dataset(b.id.as_str(), Cursor::new(&b.payload))
        });
        core += d;
        let ds = ds.map_err(|e| format!("decode {}: {e}", b.id))?;
        self.count("traj.samples", ds.total_points() as f64);
        self.count("traj.bytes", b.payload.len() as f64);

        let ctl = svc_control();
        let session = &mut self.session;
        let (outcome, d) = span(traced, &mut self.trace, "neat.ingest", || {
            session.ingest_controlled(&ds, ErrorPolicy::Strict, &ctl)
        });
        core += d;
        let outcome = outcome.map_err(|e| format!("ingest {}: {e}", b.id))?;
        if !outcome.applied || outcome.interrupt.is_some() {
            return Err(format!("ingest {} did not apply cleanly", b.id));
        }
        let s = self.session.last_refinement_stats();
        self.count("neat.phase3.pairs", s.pairs_considered as f64);
        self.count("neat.phase3.sp_computations", s.sp_computations as f64);
        self.count("neat.phase3.sp_cache_hits", s.sp_cache_hits as f64);
        self.count("neat.phase3.one_to_many_scans", s.one_to_many_scans as f64);
        self.count("phase3.pruned", (s.elb_skips + s.alt_skips) as f64);
        if extras {
            // What the ingest just paid for refinement: phase 3 over
            // every retained flow. The result is dropped inside the span
            // so that none of this extra work lands in the wall time.
            let (net, config, flows) = (self.net, &self.config, self.session.flow_clusters());
            let (r, d) = span(true, &mut self.trace, "neat.refine", || {
                refine_flow_clusters(net, flows.to_vec(), config).map(drop)
            });
            extra += d;
            r.map_err(|e| format!("refine: {e}"))?;
        }

        if let Some((store, dir)) = &self.store {
            let seq = self.session.batches() as u64;
            let t = Instant::now();
            let before = bytes_with_suffix(dir, ".neatlog");
            let (r, d) = span(traced, &mut self.trace, "durability.journal_batch", || {
                store.log_batch(seq, &ds, ErrorPolicy::Strict)
            });
            core += d;
            r.map_err(|e| format!("journal {}: {e}", b.id))?;
            if traced {
                let grown = bytes_with_suffix(dir, ".neatlog").saturating_sub(before);
                self.trace.count("durability.journal_bytes", grown as f64);
            }
            extra += ms(t.elapsed()) - d;
        }
        self.applied += 1;

        let mut expired = 0;
        if let Some(window) = self.window {
            let batch_max = ds
                .trajectories()
                .iter()
                .map(|t| t.last().time)
                .fold(f64::NEG_INFINITY, f64::max);
            let target = batch_max - window;
            if target.is_finite() && self.session.watermark().is_none_or(|w| target > w) {
                let session = &mut self.session;
                let (exp, d) = span(traced, &mut self.trace, "neat.expire", || {
                    session.expire_before(target)
                });
                core += d;
                let exp = exp.map_err(|e| format!("expire after {}: {e}", b.id))?;
                if exp.advanced {
                    self.expiries += 1;
                    self.drift.absorb(&exp.events);
                    expired = exp.expired_fragments;
                    if let Some((store, _)) = &self.store {
                        let seq = self.session.batches() as u64;
                        let (r, d) =
                            span(traced, &mut self.trace, "durability.journal_expiry", || {
                                store.log_expiry(seq, target)
                            });
                        core += d;
                        r.map_err(|e| format!("journal expiry: {e}"))?;
                    }
                }
            }
        }
        self.count("neat.expired_fragments", expired as f64);
        self.count("neat.live_fragments", self.session.live_fragments() as f64);
        self.count(
            "neat.retained_flows",
            self.session.flow_clusters().len() as f64,
        );

        if let Some((store, dir)) = &self.store {
            // Every push ends with the service idle and its applied
            // batch not yet durable, so it checkpoints once per push.
            let session = &self.session;
            let (r, d) = span(traced, &mut self.trace, "durability.checkpoint", || {
                session.save_checkpoint(store)
            });
            core += d;
            r.map_err(|e| format!("checkpoint: {e}"))?;
            if traced {
                let snap = newest_with_suffix(dir, ".neatsnap");
                self.trace.count("durability.snapshot_bytes", snap as f64);
            }
        }
        self.wall_ms.push(ms(start.elapsed()) - extra);
        self.core_ms.push(core);

        if extras && self.pipeline {
            batch_pipeline(&mut self.trace, self.net, &ds)?;
        }
        Ok(())
    }

    /// Records the size of the replay's state directory.
    pub fn finish(&mut self) {
        if let (true, Some((_, dir))) = (self.traced, &self.store) {
            let mb = dir_bytes(dir) as f64 / 1e6;
            self.trace.count("durability.state_mb", mb);
        }
    }
}

/// Replays `batches` in order with retention `window`.
pub fn replay<'n>(
    net: &'n RoadNetwork,
    batches: &[Batch],
    window: Option<f64>,
    mode: ReplayMode<'_>,
) -> Result<Replay<'n>, String> {
    let mut r = Replay::new(net, window, mode)?;
    for (i, b) in batches.iter().enumerate() {
        r.step(i, b)?;
    }
    r.finish();
    Ok(r)
}

/// Outcome of [`batch_pipeline`].
pub struct Pipeline {
    /// Canonical digest of the opt-NEAT result.
    pub digest: u64,
    /// Wall time of the three phase calls together.
    pub phases_ms: f64,
    /// Phase-3 work counters.
    pub stats: Phase3Stats,
}

/// Times the batch pipeline on one dataset: the three phase calls of
/// `Neat::run_with_policy`, in its order and at the batch path's thread
/// count; then the whole run at one thread (which must give the same
/// result) and the controlled batch phases that ingest runs.
pub fn batch_pipeline(
    t: &mut Trace,
    net: &RoadNetwork,
    ds: &neat_traj::Dataset,
) -> Result<Pipeline, String> {
    let config = NeatConfig {
        threads: available_threads(),
        ..NeatConfig::default()
    };
    let start = Instant::now();
    let p1 = t.span("neat.phase1", || {
        form_base_clusters_parallel_with_policy(
            net,
            ds,
            config.insert_junctions,
            config.threads,
            ErrorPolicy::Strict,
        )
    });
    let (p1, _) = p1.map_err(|e| format!("phase 1: {e}"))?;
    let (fragments, base_clusters) = (p1.fragment_count, p1.base_clusters.len());
    let p2 = t.span("neat.phase2", || {
        form_flow_clusters(net, p1.base_clusters, &config)
    });
    let p2 = p2.map_err(|e| format!("phase 2: {e}"))?;
    let (flows, p3) = t.span("neat.phase3", || {
        let flows = p2.flow_clusters.clone();
        (flows, refine_flow_clusters(net, p2.flow_clusters, &config))
    });
    let phases_ms = ms(start.elapsed());
    let p3 = p3.map_err(|e| format!("phase 3: {e}"))?;
    t.count("neat.fragments", fragments as f64);
    t.count("neat.base_clusters", base_clusters as f64);
    t.count("neat.flows", flows.len() as f64);
    t.count("neat.clusters", p3.clusters.len() as f64);
    let digest = result_digest(fragments, base_clusters, &flows, &p3.clusters);

    let one = NeatConfig {
        threads: 1,
        ..config
    };
    let r = t.span("neat.run_1t", || {
        Neat::new(net, one).run_with_policy(ds, Mode::Opt, ErrorPolicy::Strict)
    });
    let r = r.map_err(|e| format!("run at 1 thread: {e}"))?;
    let one_digest = result_digest(
        r.fragment_count,
        r.base_cluster_count,
        &r.flow_clusters,
        &r.clusters,
    );
    if one_digest != digest {
        return Err("the 1-thread run differs from the phase-by-phase run".to_string());
    }

    let ctl = svc_control();
    let r = t.span("neat.batch_phases", || {
        let (p1, _, _) = form_base_clusters_ctl(
            net,
            ds,
            config.insert_junctions,
            1,
            ErrorPolicy::Strict,
            &ctl,
        )?;
        form_flow_clusters_ctl(net, p1.base_clusters, &config, &ctl)
    });
    r.map_err(|e| format!("batch phases: {e}"))?;
    Ok(Pipeline {
        digest,
        phases_ms,
        stats: p3.stats,
    })
}

/// An in-process `TenantRouter` over the real file system, configured
/// as `neatd --listen --window` configures it. Times each push and a
/// Status after every [`STATUS_EVERY`] pushes.
pub struct Router<'n> {
    router: TenantRouter<'n, RetryFs<StdFs, JitterBackoff>>,
    pushes: usize,
    pub trace: Trace,
}

impl<'n> Router<'n> {
    pub fn new(net: &'n RoadNetwork, window: Option<f64>, dir: &Path) -> Self {
        let mut cfg = SvcConfig::new(dir.join("spool"), dir.join("state"), dir.join("quarantine"));
        cfg.window = window;
        let mut tcfg = TenantConfig::new(cfg);
        tcfg.seed = DAEMON_SEED;
        let fs = RetryFs::new(StdFs, 3, JitterBackoff::seeded(DAEMON_SEED));
        let router = TenantRouter::new(
            net,
            fs,
            tcfg,
            Arc::new(SystemClock::new()),
            CancelToken::new(),
        );
        Router {
            router,
            pushes: 0,
            trace: Trace::default(),
        }
    }

    pub fn push(&mut self, b: &Batch) -> Result<(), String> {
        let router = &mut self.router;
        let reply = self
            .trace
            .span("neatsvc.push", || router.push(TENANT, &b.id, &b.payload));
        if !matches!(reply, Reply::Ack { .. }) {
            return Err(format!("in-process push of {} answered {reply:?}", b.id));
        }
        self.pushes += 1;
        if self.pushes.is_multiple_of(STATUS_EVERY) {
            let reply = self.trace.span("neatsvc.status", || router.status(TENANT));
            if !matches!(&reply, Reply::Report(r) if r.status == "running") {
                return Err(format!("in-process status answered {reply:?}"));
            }
        }
        Ok(())
    }

    /// A last timed Status; returns the digest of the tenant's retained
    /// state.
    pub fn finish(&mut self) -> Result<u64, String> {
        let router = &mut self.router;
        let reply = self.trace.span("neatsvc.status", || router.status(TENANT));
        if !matches!(&reply, Reply::Report(r) if r.status == "running") {
            return Err(format!("in-process status answered {reply:?}"));
        }
        let svc = self
            .router
            .service_of(TENANT)
            .ok_or("in-process router lost its tenant")?;
        Ok(session_digest(svc.session()))
    }
}
