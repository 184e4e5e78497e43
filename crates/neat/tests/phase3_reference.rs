//! Phase 3 against a literal reference oracle.
//!
//! The reference measures every distance the decisions could read: one
//! unpruned bounded ε-ball per flow endpoint, with no lower-bound
//! filter, no demand-driven targeting and no memo. It then runs the
//! paper's deterministic DBSCAN (Section III-C2): seeds in order of
//! longest representative route (ties by fewer members, then input
//! index), a FIFO frontier, candidates scanned in index order, and no
//! minimum cardinality. Two flows are near when the modified Hausdorff
//! distance over their endpoints (Definition 11) is within ε.
//!
//! The production refinement — bound filter, Hausdorff lower bound,
//! demand-driven expansions — must return the same clusters on random
//! `netgen` networks, with ALT landmarks on and off, at every thread
//! count. Distances are read from the scanned flow's endpoints, as in
//! production: the undirected metric is symmetric in exact arithmetic,
//! and measuring from one side keeps the float sums bit-identical.

use neat_core::phase1::form_base_clusters;
use neat_core::phase2::form_flow_clusters;
use neat_core::phase3::refine_flow_clusters;
use neat_core::{FlowCluster, IncrementalNeat, NeatConfig, TrajectoryCluster};
use neat_rnet::netgen::{chain_network, generate_grid_network, GridNetworkConfig};
use neat_rnet::path::{NodeDistances, TravelMode};
use neat_rnet::{NodeId, RoadLocation, RoadNetwork, SegmentId, ShortestPathEngine};
use neat_traj::{Dataset, Trajectory, TrajectoryId};
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};

mod common;
use common::walk;

/// Flow clusters of one dataset of walks (Phases 1–2, `min_card` 1).
fn flows_of(
    net: &RoadNetwork,
    walks: &[(usize, Vec<usize>)],
    config: &NeatConfig,
) -> Vec<FlowCluster> {
    let mut data = Dataset::new("walks");
    for (i, (start, turns)) in walks.iter().enumerate() {
        let points = walk(net, *start, turns, i as f64 * 10.0);
        data.push(Trajectory::new(TrajectoryId::new(i as u64), points).expect("valid walk"));
    }
    let p1 = form_base_clusters(net, &data, config.insert_junctions).expect("phase 1");
    form_flow_clusters(net, p1.base_clusters, config)
        .expect("phase 2")
        .flow_clusters
}

/// The reference refinement described in the module docs.
fn reference_clusters(
    net: &RoadNetwork,
    flows: &[FlowCluster],
    eps: f64,
) -> Vec<TrajectoryCluster> {
    let mut engine = ShortestPathEngine::new(net);
    let mut balls: HashMap<NodeId, NodeDistances> = HashMap::new();
    for f in flows {
        let (a, b) = f.endpoints();
        for e in [a, b] {
            balls.entry(e).or_insert_with(|| {
                engine
                    .distances_within_targets_ctl(net, e, TravelMode::Undirected, eps, None, None)
                    .expect("no control, no interrupt")
            });
        }
    }
    // `None`: farther than ε (or unreachable).
    let dist = |a: NodeId, b: NodeId| if a == b { Some(0.0) } else { balls[&a].get(b) };
    let near = |fi: &FlowCluster, fj: &FlowCluster| {
        let (a1, a2) = fi.endpoints();
        let (b1, b2) = fj.endpoints();
        let (d11, d12, d21, d22) = (dist(a1, b1), dist(a1, b2), dist(a2, b1), dist(a2, b2));
        let min = |x: Option<f64>, y: Option<f64>| match (x, y) {
            (Some(p), Some(q)) => Some(p.min(q)),
            (p, None) => p,
            (None, q) => q,
        };
        // Each endpoint's distance to the nearest endpoint of the other
        // flow, both ways; the Hausdorff distance is their maximum.
        [min(d11, d12), min(d21, d22), min(d11, d21), min(d12, d22)]
            .into_iter()
            .try_fold(0.0f64, |h, term| term.map(|d| h.max(d)))
            .is_some_and(|h| h <= eps)
    };

    let n = flows.len();
    let lengths: Vec<f64> = flows.iter().map(|f| f.route_length(net)).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| {
        lengths[j]
            .total_cmp(&lengths[i])
            .then_with(|| flows[i].members().len().cmp(&flows[j].members().len()))
            .then_with(|| i.cmp(&j))
    });
    let mut labelled = vec![false; n];
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for &seed in &order {
        if labelled[seed] {
            continue;
        }
        labelled[seed] = true;
        let mut group = Vec::new();
        let mut queue = VecDeque::from([seed]);
        while let Some(cur) = queue.pop_front() {
            group.push(cur);
            for other in 0..n {
                if !labelled[other] && near(&flows[cur], &flows[other]) {
                    labelled[other] = true;
                    queue.push_back(other);
                }
            }
        }
        groups.push(group);
    }
    groups
        .into_iter()
        .map(|g| TrajectoryCluster::new(g.into_iter().map(|i| flows[i].clone()).collect()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn refinement_equals_the_reference_oracle(
        rows in 3usize..7,
        cols in 3usize..7,
        sparse in 0u8..2,
        seed in 0u64..1000,
        epsilon in 0usize..4,
        walks in proptest::collection::vec(
            (0usize..200, proptest::collection::vec(0usize..4, 0..7)),
            2..16,
        ),
    ) {
        let grid = GridNetworkConfig {
            segment_ratio: [2.0, 1.3][usize::from(sparse)],
            ..GridNetworkConfig::small_test(rows, cols)
        };
        let net = generate_grid_network(&grid, seed);
        let eps = [150.0, 260.0, 420.0, 700.0][epsilon];
        let base = NeatConfig {
            min_card: 1,
            epsilon: eps,
            ..NeatConfig::default()
        };
        let flows = flows_of(&net, &walks, &base);
        let expected = reference_clusters(&net, &flows, eps);
        for alt_landmarks in [0, 4] {
            for threads in [1, 2, 8] {
                let config = NeatConfig { alt_landmarks, threads, ..base };
                let out = refine_flow_clusters(&net, flows.clone(), &config)
                    .expect("refinement");
                prop_assert_eq!(
                    &out.clusters,
                    &expected,
                    "alt_landmarks={} threads={}",
                    alt_landmarks,
                    threads
                );
            }
        }
    }
}

/// A trajectory driving chain segments `segs` in order, one sample in
/// the middle of each (the chain's junctions are 100 m apart on the x
/// axis).
fn along_chain(id: u64, segs: std::ops::Range<usize>) -> Trajectory {
    let points = segs
        .map(|s| {
            let at = neat_rnet::Point::new(s as f64 * 100.0 + 50.0, 0.0);
            RoadLocation::new(SegmentId::new(s), at, s as f64 * 10.0)
        })
        .collect();
    Trajectory::new(TrajectoryId::new(id), points).expect("valid trajectory")
}

/// A candidate that survives the bound filter but whose Hausdorff lower
/// bound exceeds ε is decided without any expansion, as the session's
/// `cache_stats` shows; a candidate within ε still expands.
#[test]
fn a_survivor_with_a_far_hausdorff_bound_runs_no_expansion() {
    // A = s0..s1 (ends n0, n2) and B = s3..s19 (ends n3, n20): the
    // nearest ends are 100 m apart, so B survives the filter at
    // ε = 300, but n20 is 1,800 m from A. On a straight chain the
    // Euclidean bound is exact, so `H` is the Hausdorff distance.
    let net = chain_network(22, 100.0, 10.0);
    let config = NeatConfig {
        min_card: 1,
        epsilon: 300.0,
        ..NeatConfig::default()
    };
    let mut session = IncrementalNeat::new(&net, config);
    let mut far = Dataset::new("far");
    far.push(along_chain(1, 0..2));
    far.push(along_chain(2, 3..20));
    let clusters = session.ingest(&far).expect("ingest");
    assert_eq!(clusters.len(), 2);
    let stats = session.last_refinement_stats();
    assert_eq!((stats.pairs_considered, stats.one_to_many_scans), (1, 2));
    assert_eq!(session.cache_stats().expansions, 0);

    // C = s3..s4 (ends n3, n5) is within ε of A: its decision needs
    // distances, so the refinement expands.
    let mut near = Dataset::new("near");
    near.push(along_chain(3, 3..5));
    session.ingest(&near).expect("ingest");
    assert!(session.cache_stats().expansions > 0);
}
