//! Property tests for the ALT landmark lower bound (satellite of the
//! deterministic-parallelism PR): on arbitrary generated networks the
//! bound must never exceed the true network distance, and the combined
//! phase-3 filter bound `max(euclidean, alt)` must never undercut the
//! Euclidean bound it tightens — together, zero loss of exactness.

use neat_rnet::alt::AltLandmarks;
use neat_rnet::netgen::{generate_grid_network, GridNetworkConfig};
use neat_rnet::path::{ShortestPathEngine, TravelMode};
use neat_rnet::NodeId;
use proptest::prelude::*;

fn net_for(rows: usize, cols: usize, seed: u64, ratio: f64) -> neat_rnet::RoadNetwork {
    let mut cfg = GridNetworkConfig::small_test(rows, cols);
    cfg.segment_ratio = ratio; // low ratios delete edges, even splitting the graph
    generate_grid_network(&cfg, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn alt_bound_is_sandwiched(seed in 0u64..50,
                               rows in 3usize..8,
                               cols in 3usize..8,
                               ratio in 1.2..2.0f64,
                               k in 1usize..6,
                               pair_seed in 0usize..1000) {
        let net = net_for(rows, cols, seed, ratio);
        let n = net.node_count();
        prop_assume!(n >= 2);
        let mut engine = ShortestPathEngine::new(&net);
        let alt = AltLandmarks::build(&net, &mut engine, k);

        let a = NodeId::new(pair_seed % n);
        let b = NodeId::new((pair_seed * 7 + 3) % n);
        let lb = alt.lower_bound(a, b);
        let euclid = net.position(a).distance(net.position(b));
        let combined = euclid.max(lb);

        // Never undercuts the Euclidean bound it is layered on.
        prop_assert!(combined >= euclid);
        prop_assert!(lb >= 0.0 && lb.is_finite());

        match engine.distance(&net, a, b, TravelMode::Undirected) {
            Some(d) => {
                // Exactness: both bounds stay below the true distance.
                prop_assert!(lb <= d + 1e-9,
                    "ALT bound {lb} exceeds network distance {d}");
                prop_assert!(combined <= d + 1e-9,
                    "combined bound {combined} exceeds network distance {d}");
            }
            None => {
                // Unreachable pair: every finite bound is valid.
                prop_assert!(lb.is_finite());
            }
        }
    }

    #[test]
    fn one_to_many_table_agrees_with_point_queries(seed in 0u64..30,
                                                   rows in 3usize..7,
                                                   cols in 3usize..7,
                                                   bound in 100.0..900.0f64,
                                                   src in 0usize..1000) {
        let net = net_for(rows, cols, seed, 1.6);
        let n = net.node_count();
        prop_assume!(n >= 2);
        let from = NodeId::new(src % n);
        let mut engine = ShortestPathEngine::new(&net);
        let table = engine
            .distances_within_targets_ctl(&net, from, TravelMode::Undirected, bound, None, None)
            .expect("no control, no interrupt");
        for i in 0..n {
            let node = NodeId::new(i);
            let direct = engine.distance(&net, from, node, TravelMode::Undirected);
            match table.get(node) {
                Some(d) => prop_assert_eq!(Some(d), direct),
                None => prop_assert!(direct.is_none_or(|d| d > bound)),
            }
        }
    }
}
