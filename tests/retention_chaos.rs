//! Retention chaos matrix and bounded-forever soak test.
//!
//! A *windowed* service run (`SvcConfig::window`) interleaves batch
//! ingestion with watermark expiries, checkpoint retention, journal
//! compaction (segment rewrite → fsync → rename → prune) and
//! applied-ID index rewrites. This harness proves the bounded-forever
//! story holds under fire:
//!
//! * **Disk-fault matrix** — every fault kind at every single mutating
//!   filesystem operation of the run, which by construction covers
//!   every compaction step (the live-segment rewrite's temp write,
//!   its rename, each old-segment prune, the snapshot writes and
//!   removals, and the applied-ID index rewrite). After a restart over
//!   the surviving bytes the service must converge byte-identically to
//!   the uninterrupted run with zero double-applies.
//! * **Kill matrix** — a fatal injected panic at every state-machine
//!   edge of the windowed pipeline; a fresh process must converge.
//! * **Soak** — traffic spanning many multiples of the window;
//!   journal + checkpoint + index bytes and retained fragments must
//!   plateau at O(window) instead of growing with history, and the
//!   retained state must be bit-identical across worker thread counts.
//! * **Replay-index regression** — thousands of batches through a
//!   windowed service leave the idempotent-replay index O(live set),
//!   not O(history) (the unbounded `applied.ids` fix).

use neat_repro::durability::{Fs, MemFs};
use neat_repro::mobisim::faults::{DiskFault, FaultFs};
use neat_repro::neat::NeatConfig;
use neat_repro::rnet::netgen::chain_network;
use neat_repro::rnet::{Point, RoadLocation, RoadNetwork, SegmentId};
use neat_repro::runctl::CancelToken;
use neat_repro::svc::{spool, DrainOutcome, Edge, FaultHook, Service, ServiceStatus, SvcConfig};
use neat_repro::traj::{Dataset, Trajectory, TrajectoryId};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const N_BATCHES: u64 = 5;
/// Each batch advances observation time by this much...
const BATCH_STRIDE: f64 = 100.0;
/// ...and the window retains only this much history, so fragments from
/// batch `i` are expired while batch `i + 2` is being served.
const WINDOW: f64 = 150.0;

fn net() -> RoadNetwork {
    chain_network(6, 100.0, 13.9)
}

fn cfg() -> SvcConfig {
    let mut c = SvcConfig::new("/spool", "/state", "/quarantine");
    c.neat = NeatConfig {
        min_card: 1,
        ..NeatConfig::default()
    };
    c.checkpoint_every_batches = 1; // maximum retention/compaction churn
    c.window = Some(WINDOW);
    c
}

/// Batch `seed`: two short trajectories whose timestamps start at
/// `seed * BATCH_STRIDE`, so the stream's observation time advances
/// monotonically and the watermark ticks after every batch.
fn batch(seed: u64) -> Dataset {
    let t0 = seed as f64 * BATCH_STRIDE;
    let mut d = Dataset::new("b");
    for t in 0..2u64 {
        let off = ((seed * 2 + t) % 40) as f64;
        d.push(
            Trajectory::new(
                TrajectoryId::new(seed * 10 + t),
                vec![
                    RoadLocation::new(SegmentId::new(0), Point::new(10.0 + off, 0.0), t0),
                    RoadLocation::new(SegmentId::new(1), Point::new(150.0, 0.0), t0 + 30.0),
                    RoadLocation::new(SegmentId::new(2), Point::new(250.0 + off, 0.0), t0 + 60.0),
                ],
            )
            .unwrap(),
        );
    }
    d
}

fn seed_spool(fs: &MemFs, n: u64) {
    fs.create_dir_all(Path::new("/spool")).unwrap();
    for i in 0..n {
        spool::submit(
            fs,
            Path::new("/spool"),
            &format!("b-{i:03}.batch"),
            &batch(i),
        )
        .unwrap();
    }
}

/// Fingerprint (and sanity) of an uninterrupted windowed run of
/// `n_batches` batches under `config`.
fn reference_fingerprint(network: &RoadNetwork, config: &SvcConfig, n_batches: u64) -> String {
    let fs = MemFs::new();
    seed_spool(&fs, n_batches);
    let mut svc = Service::open(network, config.clone(), fs.clone()).unwrap();
    assert_eq!(svc.run_drain(256), DrainOutcome::Drained);
    assert_eq!(svc.status(), ServiceStatus::Running);
    let h = svc.health();
    assert!(
        h.expiries >= n_batches - 1,
        "watermark never ticked: {}",
        h.digest()
    );
    assert!(
        h.expired_fragments > 0,
        "nothing ever expired: {}",
        h.digest()
    );
    assert!(
        h.compactions > 0,
        "retention never compacted: {}",
        h.digest()
    );
    let view = svc.query();
    assert!(view.watermark.is_some(), "view carries no watermark");
    assert!(
        view.live_fragments < svc.session().live_fragments() + 1,
        "live fragment probe broken"
    );
    svc.state_fingerprint()
}

#[test]
fn disk_fault_matrix_covers_every_compaction_step() {
    // Per batch the windowed pipeline writes at least: the batch journal
    // append, the expiry journal append, the applied-ID index rewrite
    // (temp + rename), the snapshot (temp + rename) and retention
    // (snapshot removal and/or compaction rewrite + prunes).
    disk_fault_matrix(&cfg(), N_BATCHES, N_BATCHES * 6);
}

/// The same matrix with a checkpoint every four batches: each
/// compaction then rewrites a journal several batches long (the live
/// records between the two retained snapshots) instead of one batch.
#[test]
fn disk_fault_matrix_with_a_cadence_of_four_compacts_multi_batch_journals() {
    const BATCHES: u64 = 12;
    let mut config = cfg();
    config.checkpoint_every_batches = 4;
    // Per batch two journal appends (batch and expiry); per checkpoint
    // at least the applied-ID index and the snapshot (temp + rename
    // each).
    disk_fault_matrix(&config, BATCHES, BATCHES * 2 + BATCHES / 4 * 4);
}

/// Every fault kind at every mutating filesystem operation of a clean
/// `n_batches` run under `config`; a restart over the surviving bytes
/// must converge to the uninterrupted run's state. `min_ops` is a floor
/// on the probe's operation count that catches a broken probe.
fn disk_fault_matrix(config: &SvcConfig, n_batches: u64, min_ops: u64) {
    let network = net();
    let reference = reference_fingerprint(&network, config, n_batches);

    // Probe: count the mutating filesystem operations of a clean run.
    let probe_mem = MemFs::new();
    seed_spool(&probe_mem, n_batches);
    let probe = FaultFs::unarmed(probe_mem.clone());
    {
        let mut svc = Service::open(&network, config.clone(), probe.clone()).unwrap();
        assert_eq!(svc.run_drain(256), DrainOutcome::Drained);
        assert!(
            svc.health().compactions > 0,
            "matrix would not cover compaction: {}",
            svc.health().digest()
        );
    }
    // Some compaction carried live records into a fresh segment, so
    // the matrix covers that rewrite too, not only segment removal.
    assert!(
        probe_mem
            .dump()
            .iter()
            .any(|(p, _)| p.to_string_lossy().starts_with("/state/journal-")),
        "no compaction rewrote live records"
    );
    let total_ops = probe.mutating_ops();
    assert!(
        total_ops >= min_ops,
        "probe looks broken: {total_ops} mutating ops"
    );

    let faults = [
        DiskFault::Lost,
        DiskFault::Torn { keep: 0 },
        DiskFault::Torn { keep: 7 },
        DiskFault::BitFlip {
            offset: 5,
            mask: 0x20,
        },
        DiskFault::NoSpace,
        DiskFault::RenameFail,
    ];
    for k in 0..total_ops {
        for fault in faults {
            let id = format!("op{k}-{fault:?}");
            let silent = matches!(fault, DiskFault::BitFlip { .. });
            let mem = MemFs::new();
            seed_spool(&mem, n_batches);
            let fs = FaultFs::armed(mem.clone(), k, fault);

            // First life: run until the fault kills the process (or the
            // run rides through a recoverable/silent fault).
            if let Ok(mut svc) = Service::open(&network, config.clone(), fs.clone()) {
                let _ = svc.run_drain(512);
            }
            assert!(fs.fault_fired(), "{id}: fault never fired");

            // Restart over the surviving bytes.
            let mut svc2 = match Service::open(&network, config.clone(), mem.clone()) {
                Ok(svc) => svc,
                Err(e) if silent => {
                    // Silent corruption may be unrecoverable, but only
                    // ever as a *structured* error at open.
                    let _ = e;
                    continue;
                }
                Err(e) => panic!("{id}: restart failed: {e}"),
            };
            let drained = svc2.run_drain(512);
            if silent && drained == DrainOutcome::Failed {
                // Detected corruption while draining: acceptable for a
                // bit flip, as long as it is never folded into output.
                continue;
            }
            assert_eq!(drained, DrainOutcome::Drained, "{id}");
            assert_eq!(
                svc2.state_fingerprint(),
                reference,
                "{id}: state diverged (health: {})",
                svc2.health().digest()
            );
            assert!(
                spool::scan(&mem, Path::new("/quarantine"))
                    .unwrap()
                    .is_empty(),
                "{id}: fault must not poison batches"
            );
        }
    }
}

/// Panics the first `times` visits of `edge`.
struct PanicAt {
    edge: Edge,
    left: AtomicU64,
}

impl FaultHook for PanicAt {
    fn at(&self, edge: Edge) {
        if edge == self.edge
            && self
                .left
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
        {
            panic!("injected panic at edge {}", edge.name());
        }
    }
}

#[test]
fn kill_at_every_edge_of_the_windowed_pipeline_recovers_identically() {
    let network = net();
    let reference = reference_fingerprint(&network, &cfg(), N_BATCHES);
    for edge in Edge::ALL {
        let fs = MemFs::new();
        seed_spool(&fs, N_BATCHES);
        let mut dying_cfg = cfg();
        dying_cfg.max_restarts = 0;
        let hook: Arc<dyn FaultHook> = Arc::new(PanicAt {
            edge,
            left: AtomicU64::new(1),
        });
        // First life; a panic during boot recovery counts as death too.
        for _ in 0..4 {
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                Service::open_with(
                    &network,
                    dying_cfg.clone(),
                    fs.clone(),
                    Arc::clone(&hook),
                    None,
                    CancelToken::new(),
                )
            }));
            match attempt {
                Ok(Ok(mut svc)) => {
                    let _ = svc.run_drain(256);
                    break;
                }
                Ok(Err(e)) => panic!("edge {}: open failed: {e}", edge.name()),
                Err(_) => continue,
            }
        }

        // Second life: a fresh process over the surviving bytes.
        let mut svc2 = Service::open(&network, cfg(), fs.clone()).unwrap();
        assert_eq!(
            svc2.run_drain(256),
            DrainOutcome::Drained,
            "edge {}",
            edge.name()
        );
        assert_eq!(
            svc2.state_fingerprint(),
            reference,
            "state diverged after kill at {} (health: {})",
            edge.name(),
            svc2.health().digest()
        );
        assert!(
            spool::scan(&fs, Path::new("/quarantine"))
                .unwrap()
                .is_empty(),
            "edge {}",
            edge.name()
        );
    }
}

/// Total bytes stored under `dir` in a MemFs dump.
fn dir_bytes(fs: &MemFs, dir: &str) -> usize {
    fs.dump()
        .into_iter()
        .filter(|(p, _)| p.starts_with(dir))
        .map(|(_, bytes)| bytes.len())
        .sum()
}

/// Drives `n` windowed batches through a fresh service one at a time
/// (so spool scans stay O(1)) and returns it with its storage.
fn soak<'n>(
    network: &'n RoadNetwork,
    config: SvcConfig,
    n: u64,
    mut observe: impl FnMut(u64, &Service<'n, MemFs>, &MemFs),
) -> (Service<'n, MemFs>, MemFs) {
    let fs = MemFs::new();
    fs.create_dir_all(Path::new("/spool")).unwrap();
    let mut svc = Service::open(network, config, fs.clone()).unwrap();
    for i in 0..n {
        spool::submit(
            &fs,
            Path::new("/spool"),
            &format!("b-{i:05}.batch"),
            &batch(i),
        )
        .unwrap();
        assert_eq!(svc.run_drain(64), DrainOutcome::Drained, "batch {i}");
        observe(i, &svc, &fs);
    }
    (svc, fs)
}

/// Soak: 40 batches span ~26 windows of traffic. Journal + checkpoint +
/// index storage and retained fragments must plateau, and the retained
/// state must be bit-identical across worker thread counts.
#[test]
fn soak_storage_plateaus_and_threads_agree() {
    let network = net();
    const SOAK_BATCHES: u64 = 40;
    // Traffic span in window units — the "forever" proxy.
    let windows_spanned = (SOAK_BATCHES as f64 * BATCH_STRIDE) / WINDOW;
    assert!(windows_spanned >= 5.0, "soak too short: {windows_spanned}");

    let run = |threads: usize| {
        let mut config = cfg();
        config.neat.threads = threads;
        config.checkpoint_every_batches = 2;
        config.compact_every_batches = Some(3);
        let mut state_sizes = Vec::new();
        let mut fragments = Vec::new();
        let mut index_sizes = Vec::new();
        let (svc, fs) = soak(&network, config, SOAK_BATCHES, |i, svc, fs| {
            if i >= 10 {
                // Past warm-up, sample at every batch.
                state_sizes.push(dir_bytes(fs, "/state"));
                fragments.push(svc.session().live_fragments());
                index_sizes.push(svc.replay_index_len());
            }
        });
        let h = svc.health();
        assert_eq!(h.applied, SOAK_BATCHES, "{}", h.digest());
        assert!(h.compactions > 0, "{}", h.digest());
        assert_eq!(h.compaction_failures, 0, "{}", h.digest());

        // Plateau: the largest post-warm-up sample must stay within a
        // small constant factor of the smallest — growth proportional
        // to history would blow well past this over ~20 windows.
        let bound = |name: &str, samples: &[usize]| {
            let lo = *samples.iter().min().unwrap();
            let hi = *samples.iter().max().unwrap();
            assert!(
                hi <= lo.saturating_mul(3).max(lo + 64),
                "{name} grew with history: min {lo}, max {hi} (samples {samples:?})"
            );
        };
        bound("state-dir bytes", &state_sizes);
        bound("live fragments", &fragments);
        bound("replay index", &index_sizes);
        drop(fs);
        svc.state_fingerprint()
    };

    let reference = run(1);
    for threads in [2usize, 8] {
        assert_eq!(
            run(threads),
            reference,
            "windowed state diverged at threads={threads}"
        );
    }
}

/// The unbounded-`applied.ids` regression (the pre-retention index kept
/// every ID forever): after thousands of windowed batches, both the
/// in-memory replay index and its on-disk file must be O(live set).
#[test]
fn replay_index_stays_bounded_over_thousands_of_batches() {
    let network = net();
    const MANY: u64 = 10_000;
    let mut config = cfg();
    config.checkpoint_every_batches = 50;
    let (svc, fs) = soak(&network, config, MANY, |_, _, _| {});

    let h = svc.health();
    assert_eq!(h.applied, MANY, "{}", h.digest());
    let index_len = svc.replay_index_len();
    assert!(
        index_len as u64 <= 2 * 50 + 16,
        "replay index grew with history: {index_len} entries after {MANY} batches"
    );
    let ids_bytes = fs
        .read(Path::new("/state/applied.ids"))
        .expect("applied.ids exists")
        .len();
    assert!(
        ids_bytes < 64 * 1024,
        "applied.ids grew with history: {ids_bytes} bytes after {MANY} batches"
    );
    // The duplicate-send contract still holds for everything the index
    // remembers, and re-sending a retired (fully expired) batch cannot
    // change retained state.
    let fingerprint = svc.state_fingerprint();
    drop(svc);
    let mut svc2 = Service::open(&network, cfg(), fs.clone()).unwrap();
    spool::submit(&fs, Path::new("/spool"), "b-00000.batch", &batch(0)).unwrap();
    assert_eq!(svc2.run_drain(64), DrainOutcome::Drained);
    let flows_then = fingerprint.split(";flows=").nth(1).unwrap().to_string();
    let flows_now = svc2
        .state_fingerprint()
        .split(";flows=")
        .nth(1)
        .unwrap()
        .to_string();
    assert_eq!(
        flows_now, flows_then,
        "re-sending a retired batch changed retained flows"
    );
}
