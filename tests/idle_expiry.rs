//! Idle-stream wall-clock retention (`SvcConfig::idle_expiry`).
//!
//! A windowed service normally advances its watermark only when a batch
//! is applied, so a stream that goes quiet keeps its last window of
//! history forever and never fires the closing drift events. With
//! `idle_expiry` on, idle ticks extrapolate the stream's observation
//! time from the injected [`Clock`] (one wall-clock second = one
//! trajectory-time unit, counted from the newest observation applied)
//! and expire fragments that fall out of the window — journaled exactly
//! like batch-path expiries, so a restart replays them.
//!
//! The suite pins the contract from both sides: drift fires on a quiet
//! stream once enough wall time passes, the advance is gated so a fully
//! quiesced stream returns to Idle (no journal append per poll tick),
//! the journaled expiry survives a restart, idle expiries count toward
//! the checkpoint cadence (a quiet stream still snapshots and compacts
//! its journal), and the default (windowless or `idle_expiry = false`)
//! service is bit-for-bit unaffected by the clock.

use neat_repro::durability::{Fs, MemFs};
use neat_repro::neat::NeatConfig;
use neat_repro::rnet::netgen::chain_network;
use neat_repro::rnet::{Point, RoadLocation, RoadNetwork, SegmentId};
use neat_repro::runctl::{CancelToken, Clock};
use neat_repro::svc::{spool, DrainOutcome, NoFaults, Service, SvcConfig, TickOutcome};
use neat_repro::traj::{Dataset, Trajectory, TrajectoryId};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const WINDOW: f64 = 150.0;

/// A clock the test sets explicitly, in milliseconds.
#[derive(Default)]
struct ManualClock(AtomicU64);

impl ManualClock {
    fn set(&self, ms: u64) {
        self.0.store(ms, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_millis(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }
}

fn net() -> RoadNetwork {
    chain_network(6, 100.0, 13.9)
}

fn cfg(idle_expiry: bool, window: Option<f64>) -> SvcConfig {
    let mut c = SvcConfig::new("/spool", "/state", "/quarantine");
    c.neat = NeatConfig {
        min_card: 1,
        ..NeatConfig::default()
    };
    c.checkpoint_every_batches = 1;
    c.window = window;
    c.idle_expiry = idle_expiry;
    c
}

/// Two short trajectories whose observations span `[t0, t0 + 60]`.
fn batch(seed: u64, t0: f64) -> Dataset {
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

fn seed_one_batch(fs: &MemFs) {
    fs.create_dir_all(Path::new("/spool")).unwrap();
    spool::submit(fs, Path::new("/spool"), "b-000.batch", &batch(0, 0.0)).unwrap();
}

fn open<'n>(
    network: &'n RoadNetwork,
    config: SvcConfig,
    fs: &MemFs,
    clock: &Arc<ManualClock>,
) -> Service<'n, MemFs> {
    Service::open_with(
        network,
        config,
        fs.clone(),
        Arc::new(NoFaults),
        Some(Arc::clone(clock) as Arc<dyn Clock>),
        CancelToken::new(),
    )
    .unwrap()
}

#[test]
fn quiet_stream_expires_on_wall_clock_and_requiesces() {
    let network = net();
    let fs = MemFs::new();
    seed_one_batch(&fs);
    let clock = Arc::new(ManualClock::default());
    let mut svc = open(&network, cfg(true, Some(WINDOW)), &fs, &clock);

    assert_eq!(svc.run_drain(64), DrainOutcome::Drained);
    let h = svc.health();
    assert_eq!(h.applied, 1);
    assert_eq!(
        h.idle_expiries,
        0,
        "no wall time has passed: {}",
        h.digest()
    );
    let live_before = svc.session().live_fragments();
    assert!(live_before > 0, "fixture retained nothing");

    // Idle with no wall-clock progress: nothing to expire, stays Idle.
    assert_eq!(svc.tick(), TickOutcome::Idle);
    assert_eq!(svc.health().idle_expiries, 0);

    // 300 wall-clock seconds after the batch applied, the extrapolated
    // observation time is 60 + 300, putting every retained fragment
    // (last observation <= 60) behind the `360 - 150` watermark.
    clock.set(300_000);
    assert_eq!(svc.tick(), TickOutcome::Worked, "{}", svc.health().digest());
    let h = svc.health();
    assert_eq!(h.idle_expiries, 1, "{}", h.digest());
    assert!(h.expired_fragments > 0, "{}", h.digest());
    assert!(h.drift.total() > 0, "no drift event fired: {}", h.digest());
    let view = svc.query();
    assert_eq!(view.live_fragments, 0, "window did not close");
    assert!(
        view.watermark.is_some_and(|w| w > 0.0),
        "watermark never ticked: {:?}",
        view.watermark
    );

    // The expiry counted toward the checkpoint cadence; after the flush
    // the fully quiesced stream returns to Idle and stays there — no
    // journal append per poll tick, even as wall time keeps passing.
    let mut worked = 0;
    loop {
        match svc.tick() {
            TickOutcome::Worked => worked += 1,
            TickOutcome::Idle => break,
            other => panic!("unexpected outcome {other:?}"),
        }
        assert!(worked < 8, "idle expiry never quiesced");
    }
    clock.set(900_000);
    assert_eq!(svc.tick(), TickOutcome::Idle, "quiesced stream woke up");
    assert_eq!(svc.health().idle_expiries, 1, "{}", svc.health().digest());
}

#[test]
fn idle_expiry_is_journaled_and_survives_restart() {
    let network = net();
    let fs = MemFs::new();
    seed_one_batch(&fs);
    let clock = Arc::new(ManualClock::default());

    let fingerprint = {
        let mut svc = open(&network, cfg(true, Some(WINDOW)), &fs, &clock);
        assert_eq!(svc.run_drain(64), DrainOutcome::Drained);
        clock.set(300_000);
        assert_eq!(svc.tick(), TickOutcome::Worked);
        assert_eq!(svc.health().idle_expiries, 1);
        svc.state_fingerprint()
    };

    // A fresh process over the surviving bytes replays the journaled
    // idle expiry and converges to the same state.
    let svc2 = open(&network, cfg(true, Some(WINDOW)), &fs, &clock);
    assert_eq!(
        svc2.state_fingerprint(),
        fingerprint,
        "idle expiry lost across restart (health: {})",
        svc2.health().digest()
    );
}

#[test]
fn late_batch_after_idle_expiry_still_applies() {
    let network = net();
    let fs = MemFs::new();
    seed_one_batch(&fs);
    let clock = Arc::new(ManualClock::default());
    let mut svc = open(&network, cfg(true, Some(WINDOW)), &fs, &clock);
    assert_eq!(svc.run_drain(64), DrainOutcome::Drained);
    clock.set(300_000);
    assert_eq!(svc.tick(), TickOutcome::Worked);

    // Traffic resumes with in-window observations; the batch applies
    // and re-anchors the stream clock.
    let w = svc.query().watermark.unwrap();
    spool::submit(&fs, Path::new("/spool"), "b-001.batch", &batch(1, w + 10.0)).unwrap();
    assert_eq!(svc.run_drain(64), DrainOutcome::Drained);
    let h = svc.health();
    assert_eq!(h.applied, 2, "{}", h.digest());
    assert!(
        svc.session().live_fragments() > 0,
        "in-window batch was expired: {}",
        h.digest()
    );
}

#[test]
fn windowless_and_default_services_ignore_the_clock() {
    let network = net();

    // `idle_expiry` without a window is inert.
    let fs = MemFs::new();
    seed_one_batch(&fs);
    let clock = Arc::new(ManualClock::default());
    let mut svc = open(&network, cfg(true, None), &fs, &clock);
    assert_eq!(svc.run_drain(64), DrainOutcome::Drained);
    clock.set(3_600_000);
    assert_eq!(svc.tick(), TickOutcome::Idle);
    let h = svc.health();
    assert_eq!(h.expiries, 0, "{}", h.digest());
    assert_eq!(h.idle_expiries, 0, "{}", h.digest());

    // A windowed service with the default `idle_expiry = false` keeps
    // the batch-driven-only watermark no matter how much time passes.
    let fs = MemFs::new();
    seed_one_batch(&fs);
    let clock = Arc::new(ManualClock::default());
    let mut svc = open(&network, cfg(false, Some(WINDOW)), &fs, &clock);
    assert_eq!(svc.run_drain(64), DrainOutcome::Drained);
    let baseline = svc.state_fingerprint();
    clock.set(3_600_000);
    assert_eq!(svc.tick(), TickOutcome::Idle);
    assert_eq!(svc.health().idle_expiries, 0);
    assert_eq!(
        svc.state_fingerprint(),
        baseline,
        "default service state moved with the clock"
    );
}

#[test]
fn idle_expiries_reach_a_cadence_snapshot_and_compact_the_journal() {
    use neat_repro::durability::store::Store;
    use neat_repro::neat::checkpoint::CHECKPOINT_VERSION;

    // Four batches 100 s apart under a wide window, all retained. With a
    // cadence of two, the second and fourth batches take checkpoints:
    // two snapshots, and the journal still holds the records between
    // them (retention keeps them for the older snapshot's fallback).
    const EVERY: usize = 2;
    let network = net();
    let fs = MemFs::new();
    fs.create_dir_all(Path::new("/spool")).unwrap();
    for i in 0..4u64 {
        let id = format!("b-{i:03}.batch");
        spool::submit(&fs, Path::new("/spool"), &id, &batch(i, i as f64 * 100.0)).unwrap();
    }
    let clock = Arc::new(ManualClock::default());
    let mut config = cfg(true, Some(1000.0));
    config.checkpoint_every_batches = EVERY;
    let mut svc = open(&network, config, &fs, &clock);
    assert_eq!(svc.run_drain(64), DrainOutcome::Drained);
    assert_eq!(svc.health().checkpoints, 2, "{}", svc.health().digest());

    let store = Store::open(fs.clone(), "/state", CHECKPOINT_VERSION).unwrap();
    let before = store.snapshot_seqs().unwrap();
    assert_eq!(before.len(), 2);
    let newest = before[1];
    let covered = |store: &Store<MemFs>| {
        store
            .journal_records()
            .unwrap()
            .iter()
            .filter(|e| e.seq <= newest)
            .count()
    };
    assert!(
        covered(&store) > 0,
        "fixture journal holds no covered record"
    );

    // The stream goes quiet. The newest observation is 360 s, so wall
    // time 720 s and 820 s put the watermark at 80 and 180: each step
    // expires one batch's fragments (last observations at 60 and 160)
    // and is one journaled idle expiry.
    for (step, ms) in [720_000u64, 820_000].into_iter().enumerate() {
        clock.set(ms);
        assert_eq!(svc.tick(), TickOutcome::Worked, "{}", svc.health().digest());
        assert_eq!(svc.tick(), TickOutcome::Idle, "{}", svc.health().digest());
        let h = svc.health();
        assert_eq!(h.idle_expiries, step as u64 + 1, "{}", h.digest());
        let snapshots = store.snapshot_seqs().unwrap();
        if step + 1 < EVERY {
            // Below the cadence: journaled, not snapshotted.
            assert_eq!(h.checkpoints, 2, "{}", h.digest());
            assert_eq!(snapshots, before);
        } else {
            // Due: the snapshot lands, the oldest one is retired, and
            // compaction drops every record the previous newest covers.
            assert_eq!(h.checkpoints, 3, "{}", h.digest());
            assert_eq!(snapshots.len(), 2);
            assert_eq!(snapshots[0], newest);
            assert_eq!(covered(&store), 0, "journal not compacted");
        }
    }
    assert!(
        svc.session().live_fragments() > 0,
        "the window over-expired"
    );
}
