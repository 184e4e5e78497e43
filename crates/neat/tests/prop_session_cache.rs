//! Equivalence of the online session's Phase-3 caches to cold
//! recomputation.
//!
//! An `IncrementalNeat` session keeps the drift baseline of its last
//! complete refinement, its ALT landmarks and a memo of bounded endpoint
//! distances between operations. None of that may be observable: after
//! every operation of any interleaving of ingest, expiry, no-op expiry,
//! checkpoint and resume, the session's clusters, drift events and
//! `Phase3Stats` must equal a cold `refine_flow_clusters` over its
//! retained flows, with drift diffed against a cold refinement of the
//! state before the operation. The budget tests pin what a controlled
//! ingest on a warm session may and may not do.

use neat_core::phase3::{refine_flow_clusters, Phase3Output};
use neat_core::{
    diff_drift, CheckpointStore, ErrorPolicy, FlowCluster, IncrementalNeat, NeatConfig,
    TrajectoryCluster,
};
use neat_durability::MemFs;
use neat_rnet::netgen::{generate_grid_network, GridNetworkConfig};
use neat_rnet::{NodeId, RoadLocation, RoadNetwork, SegmentId};
use neat_runctl::{CancelToken, Control, OverrunMode, RunBudget};
use neat_traj::{Dataset, Trajectory, TrajectoryId};
use proptest::prelude::*;
use std::path::PathBuf;

/// Observation-time span of one generated batch.
const BATCH_SPAN: f64 = 1000.0;

/// A random walk over the network's adjacency: `start` picks the first
/// segment, each `turn` picks the next segment among those incident to
/// the junction just reached. Three samples per traversed segment.
fn walk(net: &RoadNetwork, start: usize, turns: &[usize], t0: f64) -> Vec<RoadLocation> {
    let nsegs = net.segment_count();
    let mut seg = net
        .segment(SegmentId::new(start % nsegs))
        .expect("segment in range");
    let mut from: NodeId = seg.a;
    let mut t = t0;
    let mut points = Vec::new();
    for step in 0..=turns.len() {
        let to = seg.other_endpoint(from);
        let (p, q) = (net.position(from), net.position(to));
        for f in [0.2, 0.5, 0.8] {
            let at = neat_rnet::Point::new(p.x + (q.x - p.x) * f, p.y + (q.y - p.y) * f);
            points.push(RoadLocation::new(seg.id, at, t));
            t += 4.0;
        }
        let Some(&turn) = turns.get(step) else { break };
        let next: Vec<SegmentId> = net
            .incident_segments(to)
            .iter()
            .copied()
            .filter(|&s| s != seg.id)
            .collect();
        if next.is_empty() {
            break;
        }
        seg = net
            .segment(next[turn % next.len()])
            .expect("incident segment exists");
        from = to;
    }
    points
}

/// Batch number `k`: observation times in `[k·BATCH_SPAN, (k+1)·BATCH_SPAN)`,
/// trajectory ids unique across batches.
fn batch(net: &RoadNetwork, k: usize, walks: &[(usize, Vec<usize>)]) -> Dataset {
    let mut data = Dataset::new(format!("b{k}"));
    for (i, (start, turns)) in walks.iter().enumerate() {
        let t0 = k as f64 * BATCH_SPAN + i as f64 * 7.0;
        let id = TrajectoryId::new((k * 1000 + i) as u64);
        data.push(Trajectory::new(id, walk(net, *start, turns, t0)).expect("valid walk"));
    }
    data
}

#[derive(Debug, Clone)]
enum Op {
    /// Ingest the next batch, through the uncontrolled or the
    /// controlled (unlimited budget) entry point, journaled either way.
    Ingest {
        walks: Vec<(usize, Vec<usize>)>,
        controlled: bool,
    },
    /// Advance the watermark to `now - window`.
    Expire { window: f64 },
    /// Expire at the current watermark (no state change).
    NoopExpire,
    /// Write a snapshot.
    Checkpoint,
    /// Drop the session and resume it from the store.
    Resume,
}

/// Raw generated op: `(kind, walks, controlled, window)`, decoded by
/// [`decode_op`] (kinds weighted 4 : 3 : 1 : 1 : 1).
type RawOp = (usize, Vec<(usize, Vec<usize>)>, u8, f64);

fn decode_op((kind, walks, controlled, window): RawOp) -> Op {
    match kind {
        0..=3 => Op::Ingest {
            walks,
            controlled: controlled == 1,
        },
        4..=6 => Op::Expire { window },
        7 => Op::NoopExpire,
        8 => Op::Checkpoint,
        _ => Op::Resume,
    }
}

fn cold(net: &RoadNetwork, s: &IncrementalNeat<'_>, config: &NeatConfig) -> Phase3Output {
    refine_flow_clusters(net, s.flow_clusters().to_vec(), config).expect("cold refinement")
}

/// The newest snapshot's bytes after saving `s` into a fresh store.
fn snapshot_bytes(s: &IncrementalNeat<'_>) -> Vec<u8> {
    let fs = MemFs::new();
    let store = CheckpointStore::open(fs.clone(), "/snap").expect("open store");
    s.save_checkpoint(&store).expect("snapshot");
    fs.dump()
        .into_iter()
        .filter(|(p, _): &(PathBuf, Vec<u8>)| p.extension().is_some_and(|e| e == "neatsnap"))
        .max_by(|a, b| a.0.cmp(&b.0))
        .expect("a snapshot exists")
        .1
}

/// Runs `ops` on one session at `threads`, checking every step against
/// cold recomputation.
fn check_sequence(
    net: &RoadNetwork,
    epsilon: f64,
    threads: usize,
    ops: &[Op],
) -> Result<(), TestCaseError> {
    let config = NeatConfig {
        min_card: 1,
        epsilon,
        threads,
        ..NeatConfig::default()
    };
    let fs = MemFs::new();
    let store = CheckpointStore::open(fs.clone(), "/session").expect("open store");
    let mut s = IncrementalNeat::new(net, config);
    let mut prev = cold(net, &s, &config);
    let mut next_batch = 0usize;
    for (step, op) in ops.iter().enumerate() {
        match op {
            Op::Ingest { walks, controlled } => {
                let b = batch(net, next_batch, walks);
                next_batch += 1;
                let clusters = if *controlled {
                    let out = s
                        .ingest_controlled(&b, ErrorPolicy::Strict, &Control::unlimited())
                        .expect("controlled ingest");
                    prop_assert!(out.applied && out.interrupt.is_none());
                    store
                        .log_batch(s.batches() as u64, &b, ErrorPolicy::Strict)
                        .expect("journal");
                    out.clusters
                } else {
                    s.ingest_logged(&b, ErrorPolicy::Strict, &store)
                        .expect("ingest")
                };
                let now = cold(net, &s, &config);
                prop_assert_eq!(&clusters, &now.clusters, "ingest clusters, step {}", step);
                prop_assert_eq!(
                    s.last_refinement_stats(),
                    now.stats,
                    "ingest stats, step {}",
                    step
                );
                prev = now;
            }
            Op::Expire { window } => {
                let target = next_batch as f64 * BATCH_SPAN - window;
                if s.watermark().is_some_and(|w| target <= w) {
                    continue;
                }
                let out = s.expire_logged(target, &store).expect("expire");
                prop_assert!(out.advanced);
                let now = cold(net, &s, &config);
                prop_assert_eq!(
                    &out.clusters,
                    &now.clusters,
                    "expiry clusters, step {}",
                    step
                );
                prop_assert_eq!(
                    s.last_refinement_stats(),
                    now.stats,
                    "expiry stats, step {}",
                    step
                );
                prop_assert_eq!(
                    out.events,
                    diff_drift(&prev.clusters, &now.clusters),
                    "drift, step {}",
                    step
                );
                prev = now;
            }
            Op::NoopExpire => {
                let Some(w) = s.watermark() else { continue };
                let stats = s.last_refinement_stats();
                let out = s.expire_logged(w, &store).expect("no-op expire");
                prop_assert!(!out.advanced && out.events.is_empty());
                prop_assert_eq!(
                    &out.clusters,
                    &prev.clusters,
                    "no-op clusters, step {}",
                    step
                );
                prop_assert_eq!(s.last_refinement_stats(), stats);
            }
            Op::Checkpoint => {
                s.save_checkpoint(&store).expect("checkpoint");
            }
            Op::Resume => {
                if s.batches() == 0 {
                    continue; // nothing was ever written to resume from
                }
                let (resumed, _) = IncrementalNeat::resume(net, config, &store).expect("resume");
                prop_assert_eq!(resumed.flow_clusters(), s.flow_clusters());
                prop_assert_eq!(resumed.last_refinement_stats(), s.last_refinement_stats());
                prop_assert_eq!(snapshot_bytes(&resumed), snapshot_bytes(&s));
                s = resumed;
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn session_caches_equal_cold_refinement(
        rows in 3usize..6,
        cols in 3usize..6,
        seed in 0u64..1000,
        epsilon in 0usize..3,
        raw_ops in proptest::collection::vec(
            (
                0usize..10,
                proptest::collection::vec(
                    (0usize..200, proptest::collection::vec(0usize..4, 0..6)),
                    1..7,
                ),
                0u8..2,
                200.0f64..3000.0,
            ),
            1..14,
        ),
    ) {
        let net = generate_grid_network(&GridNetworkConfig::small_test(rows, cols), seed);
        let epsilon = [150.0, 260.0, 420.0][epsilon];
        let ops: Vec<Op> = raw_ops.into_iter().map(decode_op).collect();
        for threads in [1, 2, 8] {
            check_sequence(&net, epsilon, threads, &ops)?;
        }
    }
}

/// A fixed small session: four batches over a 5×5 grid.
fn fixture_batches(net: &RoadNetwork) -> Vec<Dataset> {
    (0..5)
        .map(|k| {
            let walks: Vec<(usize, Vec<usize>)> = (0..6)
                .map(|i| (k * 13 + i * 7, vec![i % 3, (i + k) % 4, 1, i % 2]))
                .collect();
            batch(net, k, &walks)
        })
        .collect()
}

fn fixture_config() -> NeatConfig {
    NeatConfig {
        min_card: 1,
        epsilon: 260.0,
        ..NeatConfig::default()
    }
}

/// `clusters` hold every retained flow exactly once.
fn is_partition(clusters: &[TrajectoryCluster], flows: &[FlowCluster]) -> bool {
    let grouped: Vec<&FlowCluster> = clusters.iter().flat_map(|c| c.flows()).collect();
    grouped.len() == flows.len()
        && flows.iter().all(|f| {
            grouped.iter().filter(|g| **g == f).count() == flows.iter().filter(|h| *h == f).count()
        })
}

/// Op-budget matrix over one controlled ingest on a warm session. Every
/// outcome is a valid partition; `applied == false` leaves the session
/// untouched and a retry with an unlimited budget equals the
/// uncontrolled path; an applied but degraded refinement leaves no
/// trace in the caches — the next expiry diffs against the complete
/// refinement, exactly like the uncontrolled session.
#[test]
fn op_budget_matrix_on_a_warm_session() {
    let net = generate_grid_network(&GridNetworkConfig::small_test(5, 5), 11);
    let config = fixture_config();
    let batches = fixture_batches(&net);
    let (last, warmup) = batches.split_last().expect("batches");
    let mut warm = IncrementalNeat::new(&net, config);
    for b in warmup {
        warm.ingest(b).expect("warm-up ingest");
    }
    let mut reference = warm.clone();
    let expected = reference.ingest(last).expect("reference ingest");
    let expected_stats = reference.last_refinement_stats();
    let expected_flows = reference.flow_clusters().to_vec();
    let watermark = 2.5 * BATCH_SPAN;
    let expected_expiry = reference
        .expire_before(watermark)
        .expect("reference expiry");

    let mut saw = (false, false, false); // (not applied, degraded, clean)
    for overrun in [OverrunMode::Degrade, OverrunMode::Partial] {
        for max_ops in (0..4000).step_by(37) {
            let mut s = warm.clone();
            let ctl = Control::new(
                RunBudget::unlimited().with_max_ops(max_ops),
                CancelToken::new(),
            )
            .with_overrun(overrun);
            let out = s
                .ingest_controlled(last, ErrorPolicy::Strict, &ctl)
                .expect("controlled ingest");
            if out.applied {
                assert_eq!(s.flow_clusters(), expected_flows, "max_ops={max_ops}");
                assert!(
                    is_partition(&out.clusters, s.flow_clusters()),
                    "max_ops={max_ops}"
                );
                if out.interrupt.is_some() {
                    saw.1 = true;
                } else {
                    saw.2 = true;
                    assert_eq!(out.clusters, expected);
                    assert_eq!(s.last_refinement_stats(), expected_stats);
                }
                let exp = s.expire_before(watermark).expect("expiry");
                assert_eq!(exp.events, expected_expiry.events, "max_ops={max_ops}");
                assert_eq!(exp.clusters, expected_expiry.clusters, "max_ops={max_ops}");
            } else {
                saw.0 = true;
                assert!(out.clusters.is_empty());
                assert_eq!(s.flow_clusters(), warm.flow_clusters(), "max_ops={max_ops}");
                assert_eq!(s.batches(), warm.batches());
                let retry = s
                    .ingest_controlled(last, ErrorPolicy::Strict, &Control::unlimited())
                    .expect("retry");
                assert!(retry.applied && retry.interrupt.is_none());
                assert_eq!(retry.clusters, expected, "max_ops={max_ops}");
                assert_eq!(s.last_refinement_stats(), expected_stats);
            }
        }
    }
    assert_eq!(
        saw,
        (true, true, true),
        "the matrix covers every outcome kind"
    );
}

/// Landmarks are charged to the refinement that builds them and never
/// again; distances the memo holds cost no settlement. An ingest that
/// adds no flow to a warm session therefore settles no node at all,
/// while the same ingest on a cold (resumed) session pays for both.
#[test]
fn warm_session_charges_only_new_expansions() {
    let net = generate_grid_network(&GridNetworkConfig::small_test(5, 5), 11);
    let config = fixture_config();
    let store = CheckpointStore::open(MemFs::new(), "/warm").expect("open store");
    let mut warm = IncrementalNeat::new(&net, config);
    for b in &fixture_batches(&net) {
        warm.ingest_logged(b, ErrorPolicy::Strict, &store)
            .expect("ingest");
    }
    warm.save_checkpoint(&store).expect("checkpoint");
    assert!(warm.cache_stats().memo_pairs > 0);
    let (mut resumed, _) = IncrementalNeat::resume(&net, config, &store).expect("resume");
    assert_eq!(resumed.cache_stats().memo_pairs, 0);

    let empty = Dataset::new("empty");
    let warm_ctl = Control::unlimited();
    let warm_out = warm
        .ingest_controlled(&empty, ErrorPolicy::Strict, &warm_ctl)
        .expect("warm ingest");
    assert_eq!(warm_ctl.settled(), 0, "no landmark build, no expansion");
    assert_eq!(warm.cache_stats().expansions, 0);

    let cold_ctl = Control::unlimited();
    let cold_out = resumed
        .ingest_controlled(&empty, ErrorPolicy::Strict, &cold_ctl)
        .expect("cold ingest");
    assert!(cold_ctl.settled() > 0);
    assert!(resumed.cache_stats().expansions > 0);

    assert_eq!(warm_out.clusters, cold_out.clusters);
    assert_eq!(
        warm.last_refinement_stats(),
        resumed.last_refinement_stats()
    );
    assert!(warm.last_refinement_stats().one_to_many_scans > 0);
}

/// The memo only holds pairs between endpoints of retained flows: once
/// the watermark passes every observation it is empty again.
#[test]
fn memo_is_bounded_by_the_retained_flows() {
    let net = generate_grid_network(&GridNetworkConfig::small_test(5, 5), 11);
    let mut s = IncrementalNeat::new(&net, fixture_config());
    let batches = fixture_batches(&net);
    for b in &batches {
        s.ingest(b).expect("ingest");
    }
    assert!(s.cache_stats().memo_pairs > 0);
    s.expire_before(batches.len() as f64 * BATCH_SPAN)
        .expect("expire everything");
    assert!(s.flow_clusters().is_empty());
    assert_eq!(s.cache_stats().memo_pairs, 0);
}
