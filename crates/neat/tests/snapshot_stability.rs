//! Snapshot bytes are a fixed function of the operation sequence.
//!
//! A session that ingests and expires a fixed stream and snapshots after
//! every operation must write exactly the bytes recorded here. The
//! payload carries the configuration hash, the network fingerprint, the
//! retained flows and the last refinement's `Phase3Stats`, so a change
//! to any of them — a fingerprint cached with the wrong value, a
//! refinement whose counters drift, an expiry that reorders fragments —
//! changes the digest. Snapshots written by earlier builds must stay
//! resumable byte for byte, so the recorded digest only changes together
//! with a documented snapshot format change.

use neat_core::{CheckpointStore, ErrorPolicy, IncrementalNeat, NeatConfig};
use neat_durability::MemFs;
use neat_rnet::netgen::{generate_grid_network, GridNetworkConfig};
use neat_rnet::RoadNetwork;
use neat_traj::{Dataset, Trajectory, TrajectoryId};
use std::path::PathBuf;

mod common;
use common::walk;

/// FNV-1a digest of every snapshot the fixed sequence writes.
const RECORDED_DIGEST: u64 = 0x3a2a_8bbe_9c50_279c;

/// Batch `k`: eight walks observed in `[k·1000, k·1000 + 1000)`.
fn batch(net: &RoadNetwork, k: usize) -> Dataset {
    let mut data = Dataset::new(format!("b{k}"));
    for i in 0..8 {
        let turns = vec![i % 3, (i + k) % 4, 1, (i * k) % 5, i % 2];
        let t0 = k as f64 * 1000.0 + i as f64 * 7.0;
        let id = TrajectoryId::new((k * 100 + i) as u64);
        data.push(Trajectory::new(id, walk(net, k * 17 + i * 5, &turns, t0)).expect("valid walk"));
    }
    data
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn snapshot_bytes_match_the_recorded_sequence() {
    let net = generate_grid_network(&GridNetworkConfig::small_test(6, 6), 5);
    let config = NeatConfig {
        min_card: 1,
        epsilon: 260.0,
        ..NeatConfig::default()
    };
    let fs = MemFs::new();
    let store = CheckpointStore::open(fs.clone(), "/snap").expect("open store");
    let mut session = IncrementalNeat::new(&net, config);
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for k in 0..9 {
        session
            .ingest_logged(&batch(&net, k), ErrorPolicy::Strict, &store)
            .expect("ingest");
        if k % 3 == 2 {
            session
                .expire_logged(k as f64 * 1000.0 - 1500.0, &store)
                .expect("expire");
        }
        session.save_checkpoint(&store).expect("snapshot");
        let (_, newest) = fs
            .dump()
            .into_iter()
            .filter(|(p, _): &(PathBuf, Vec<u8>)| p.extension().is_some_and(|e| e == "neatsnap"))
            .max_by(|a, b| a.0.cmp(&b.0))
            .expect("a snapshot exists");
        digest = fnv1a(digest, &newest);
    }
    assert!(session.last_refinement_stats().one_to_many_scans > 0);
    assert_eq!(
        digest, RECORDED_DIGEST,
        "snapshot bytes changed: {digest:#018x}"
    );
}
