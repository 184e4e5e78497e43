//! Phase 1 against a literal reference oracle.
//!
//! The reference transcribes Section III-A point by point. Each
//! trajectory is scanned in order, and the current t-fragment is kept as
//! the literal list of its points. When two consecutive samples lie on
//! different segments, the junctions between them become splitting
//! points:
//!
//! * contiguous segments insert their shared junction `I(ei, ej)` (the
//!   lower id when they share both ends);
//! * a gap inserts every junction of the shortest directed route between
//!   the two segments, through the endpoint pair that minimises
//!   `|p u| + d(u, v) + |v q|`, and each segment travelled in between
//!   gets a two-point pass-through t-fragment;
//! * a gap no directed route bridges splits the trajectory with nothing
//!   inserted.
//!
//! Inserted points take the time interpolated along the distance
//! travelled. Without junction insertion a trajectory simply splits
//! wherever the segment changes. The t-fragments are then grouped by
//! segment and ordered by density, descending, ties by segment id.
//!
//! The reference finds routes with a plain Dijkstra of its own.
//! Production must agree on random `netgen` grids at threads {1, 2, 8},
//! with junction insertion on and off. The networks hold two disjoint
//! copies of a grid with random one-way segments, and the walks drop
//! samples and jump between the copies, so gap repair, unreachable gaps
//! and one-way detours all occur. Segments, trajectory ids, point counts
//! and positions must match bit for bit, and interpolated times within
//! 1e-9 s.
//!
//! Two more properties pin the error policies against the Strict run on
//! a cleaned dataset: Skip equals Strict without the trajectories the
//! network cannot place, and Repair equals Strict with the unplaceable
//! points dropped, keeping the trajectories that still have two points.

use neat_core::phase1::{form_base_clusters_parallel_with_policy, Phase1Output};
use neat_core::ErrorPolicy;
use neat_rnet::netgen::{generate_grid_network, GridNetworkConfig};
use neat_rnet::{NodeId, Point, RoadLocation, RoadNetwork, RoadNetworkBuilder, Segment, SegmentId};
use neat_traj::{Dataset, Trajectory, TrajectoryId};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;

mod common;
use common::walk;

/// Horizontal offset of the second, disconnected copy of the grid.
const COPY_OFFSET_M: f64 = 50_000.0;

/// Two disjoint copies of a random grid; each segment is one-way with
/// probability `oneway`. Segments `0..m` are the first copy and
/// `m..2m` the second.
fn two_component_network(grid: &GridNetworkConfig, seed: u64, oneway: f64) -> RoadNetwork {
    let base = generate_grid_network(grid, seed);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0e_a7);
    let mut b = RoadNetworkBuilder::new();
    for dx in [0.0, COPY_OFFSET_M] {
        let nodes: Vec<NodeId> = base
            .nodes()
            .map(|n| b.add_node(Point::new(n.position.x + dx, n.position.y)))
            .collect();
        for s in base.segments() {
            let one_way = rng.gen_bool(oneway);
            b.add_segment_detailed(
                nodes[s.a.index()],
                nodes[s.b.index()],
                s.length,
                s.speed_limit,
                one_way,
            )
            .expect("copied segment is valid");
        }
    }
    b.build().expect("valid network")
}

/// A random dataset of `n` trajectories. Each is one walk, or two walks
/// in different copies of the grid joined in time (an unreachable gap);
/// inner samples are dropped with probability `drop`.
fn random_dataset(net: &RoadNetwork, n: usize, drop: f64, seed: u64) -> Dataset {
    let m = net.segment_count() / 2;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut data = Dataset::new("walks");
    for i in 0..n {
        let t0 = i as f64 * 7.0;
        let turns = |rng: &mut ChaCha8Rng| -> Vec<usize> {
            (0..rng.gen_range(0..6))
                .map(|_| rng.gen_range(0..4))
                .collect()
        };
        let start = rng.gen_range(0..m);
        let mut points = walk(net, start, &turns(&mut rng), t0);
        if rng.gen_bool(0.2) {
            let resume = points.last().expect("walks are non-empty").time + 30.0;
            let other = m + rng.gen_range(0..m);
            points.extend(walk(net, other, &turns(&mut rng), resume));
        }
        let last = points.len() - 1;
        let kept: Vec<RoadLocation> = points
            .into_iter()
            .enumerate()
            .filter(|&(j, _)| j == 0 || j == last || !rng.gen_bool(drop))
            .map(|(_, p)| p)
            .collect();
        data.push(Trajectory::new(TrajectoryId::new(i as u64), kept).expect("valid walk"));
    }
    data
}

/// A t-fragment as the reference builds it: its points, in order.
struct RefFragment {
    trajectory: TrajectoryId,
    points: Vec<RoadLocation>,
}

/// Plain Dijkstra over the directed network by segment length: the
/// junctions and segments of the shortest route, and its length.
fn shortest_route(
    net: &RoadNetwork,
    from: NodeId,
    to: NodeId,
) -> Option<(Vec<NodeId>, Vec<SegmentId>, f64)> {
    let n = net.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<(NodeId, SegmentId)>> = vec![None; n];
    let mut done = vec![false; n];
    dist[from.index()] = 0.0;
    loop {
        let u = (0..n)
            .filter(|&i| !done[i] && dist[i].is_finite())
            .min_by(|&i, &j| dist[i].total_cmp(&dist[j]))?;
        if u == to.index() {
            break;
        }
        done[u] = true;
        let node = NodeId::new(u);
        for &sid in net.incident_segments(node) {
            let s: &Segment = net.segment(sid).expect("incident segment exists");
            if !s.traversable_from(node) {
                continue;
            }
            let v = s.other_endpoint(node).index();
            let d = dist[u] + s.length;
            if d < dist[v] {
                dist[v] = d;
                prev[v] = Some((node, sid));
            }
        }
    }
    let (mut nodes, mut segments) = (vec![to], Vec::new());
    let mut cur = to;
    while let Some((p, s)) = prev[cur.index()] {
        nodes.push(p);
        segments.push(s);
        cur = p;
    }
    nodes.reverse();
    segments.reverse();
    Some((nodes, segments, dist[to.index()]))
}

/// Section III-A on one trajectory, literally.
fn reference_fragments(
    net: &RoadNetwork,
    tr: &Trajectory,
    insert_junctions: bool,
) -> Vec<RefFragment> {
    let pts = tr.points();
    let mut out = Vec::new();
    let mut close = |points: Vec<RoadLocation>| {
        out.push(RefFragment {
            trajectory: tr.id(),
            points,
        })
    };
    let mut cur = vec![pts[0]];
    for w in pts.windows(2) {
        let (p, q) = (w[0], w[1]);
        if q.segment == p.segment {
            cur.push(q);
            continue;
        }
        if !insert_junctions {
            close(std::mem::replace(&mut cur, vec![q]));
            continue;
        }
        let ep = net.segment(p.segment).expect("valid segment");
        let eq = net.segment(q.segment).expect("valid segment");
        let shared: Vec<NodeId> = [ep.a, ep.b]
            .into_iter()
            .filter(|&n| eq.has_endpoint(n))
            .collect();
        if let Some(&j) = shared.iter().min() {
            let jp = net.position(j);
            let (d1, d2) = (p.position.distance(jp), jp.distance(q.position));
            let t = p.time + (q.time - p.time) * d1 / (d1 + d2).max(1e-9);
            cur.push(RoadLocation::new(p.segment, jp, t));
            close(std::mem::replace(
                &mut cur,
                vec![RoadLocation::new(q.segment, jp, t), q],
            ));
            continue;
        }
        let mut best: Option<(f64, f64, Vec<NodeId>, Vec<SegmentId>)> = None;
        for u in [ep.a, ep.b] {
            for v in [eq.a, eq.b] {
                if let Some((nodes, segs, len)) = shortest_route(net, u, v) {
                    let d_pu = p.position.distance(net.position(u));
                    let cost = d_pu + len + net.position(v).distance(q.position);
                    if best.as_ref().is_none_or(|b| cost < b.0) {
                        best = Some((cost, d_pu, nodes, segs));
                    }
                }
            }
        }
        let Some((cost, d_pu, nodes, segs)) = best else {
            close(std::mem::replace(&mut cur, vec![q]));
            continue;
        };
        let mut travelled = d_pu;
        let mut junctions = Vec::new();
        for (i, &n) in nodes.iter().enumerate() {
            if i > 0 {
                travelled += net.segment(segs[i - 1]).expect("route segment").length;
            }
            let t = p.time + (q.time - p.time) * (travelled / cost.max(1e-9));
            junctions.push((net.position(n), t));
        }
        let (j0, t0) = junctions[0];
        cur.push(RoadLocation::new(p.segment, j0, t0));
        close(std::mem::take(&mut cur));
        for (i, &mid) in segs.iter().enumerate() {
            let ((a, ta), (b, tb)) = (junctions[i], junctions[i + 1]);
            close(vec![
                RoadLocation::new(mid, a, ta),
                RoadLocation::new(mid, b, tb),
            ]);
        }
        let (jk, tk) = junctions[junctions.len() - 1];
        cur = vec![RoadLocation::new(q.segment, jk, tk), q];
    }
    close(cur);
    out
}

/// The reference base clusters: fragments grouped by segment in dataset
/// order, densest first, ties by segment id.
fn reference_clusters(
    net: &RoadNetwork,
    data: &Dataset,
    insert_junctions: bool,
) -> Vec<(SegmentId, Vec<RefFragment>)> {
    let mut by_segment: BTreeMap<SegmentId, Vec<RefFragment>> = BTreeMap::new();
    for tr in data.trajectories() {
        for f in reference_fragments(net, tr, insert_junctions) {
            by_segment.entry(f.points[0].segment).or_default().push(f);
        }
    }
    let mut clusters: Vec<_> = by_segment.into_iter().collect();
    clusters.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(&b.0)));
    clusters
}

fn same_location(got: &RoadLocation, want: &RoadLocation) -> bool {
    got.segment == want.segment
        && got.position.x.to_bits() == want.position.x.to_bits()
        && got.position.y.to_bits() == want.position.y.to_bits()
        && (got.time - want.time).abs() <= 1e-9
}

/// `Err` describing the first place `got` departs from the reference.
fn check_against_reference(
    got: &Phase1Output,
    want: &[(SegmentId, Vec<RefFragment>)],
) -> Result<(), String> {
    let total: usize = want.iter().map(|(_, f)| f.len()).sum();
    if got.fragment_count != total {
        return Err(format!("{} fragments, want {total}", got.fragment_count));
    }
    if got.base_clusters.len() != want.len() {
        return Err(format!(
            "{} base clusters, want {}",
            got.base_clusters.len(),
            want.len()
        ));
    }
    for (k, (bc, (seg, frags))) in got.base_clusters.iter().zip(want).enumerate() {
        if bc.segment() != *seg || bc.density() != frags.len() {
            return Err(format!(
                "cluster {k}: segment {} density {}, want {seg} density {}",
                bc.segment(),
                bc.density(),
                frags.len()
            ));
        }
        for (i, (f, r)) in bc.fragments().iter().zip(frags).enumerate() {
            let ok = f.trajectory == r.trajectory
                && f.segment == *seg
                && f.point_count == r.points.len()
                && same_location(&f.first, &r.points[0])
                && same_location(&f.last, &r.points[r.points.len() - 1]);
            if !ok {
                return Err(format!(
                    "cluster {k} fragment {i}: {f:?}, want {} of {} points {:?} .. {:?}",
                    r.trajectory,
                    r.points.len(),
                    r.points[0],
                    r.points[r.points.len() - 1]
                ));
            }
        }
    }
    Ok(())
}

/// Rewrites the segment of some points of some trajectories to ids the
/// network lacks. Returns the corrupted dataset.
fn corrupt(net: &RoadNetwork, data: &Dataset, seed: u64) -> Dataset {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let unknown = net.segment_count();
    let mut out = Dataset::new("corrupt");
    for tr in data.trajectories() {
        let mut points = tr.points().to_vec();
        if rng.gen_bool(0.3) {
            let whole = rng.gen_bool(0.25);
            for p in &mut points {
                if whole || rng.gen_bool(0.3) {
                    p.segment = SegmentId::new(unknown + rng.gen_range(0..3));
                }
            }
        }
        out.push(Trajectory::new(tr.id(), points).expect("times unchanged"));
    }
    out
}

/// `data` keeping, of each trajectory, the points `keep` accepts, and
/// only the trajectories left with at least two points.
fn filtered(data: &Dataset, keep: impl Fn(&Trajectory, &RoadLocation) -> bool) -> Dataset {
    let mut out = Dataset::new("filtered");
    for tr in data.trajectories() {
        let kept: Vec<RoadLocation> = tr
            .points()
            .iter()
            .filter(|p| keep(tr, p))
            .copied()
            .collect();
        if kept.len() >= 2 {
            out.push(Trajectory::new(tr.id(), kept).expect("a subsequence stays ordered"));
        }
    }
    out
}

fn phase1(
    net: &RoadNetwork,
    data: &Dataset,
    insert_junctions: bool,
    threads: usize,
    policy: ErrorPolicy,
) -> (Phase1Output, neat_core::ResilienceCounters) {
    form_base_clusters_parallel_with_policy(net, data, insert_junctions, threads, policy)
        .expect("policy runs never fail on data")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn phase1_equals_the_reference_oracle(
        rows in 3usize..6,
        cols in 3usize..6,
        seed in 0u64..1000,
        data_seed in 0u64..1000,
        trajectories in 1usize..320,
        drop in 0usize..3,
        oneway in 0usize..3,
    ) {
        let grid = GridNetworkConfig::small_test(rows, cols);
        let net = two_component_network(&grid, seed, [0.0, 0.2, 0.5][oneway]);
        let data = random_dataset(&net, trajectories, [0.0, 0.3, 0.6][drop], data_seed);
        for insert_junctions in [false, true] {
            let want = reference_clusters(&net, &data, insert_junctions);
            for threads in [1, 2, 8] {
                let (got, counters) =
                    phase1(&net, &data, insert_junctions, threads, ErrorPolicy::Strict);
                prop_assert!(counters.is_clean());
                let verdict = check_against_reference(&got, &want);
                prop_assert!(
                    verdict.is_ok(),
                    "junctions={} threads={}: {:?}",
                    insert_junctions,
                    threads,
                    verdict
                );
            }
        }
    }

    #[test]
    fn skip_and_repair_equal_strict_on_the_cleaned_dataset(
        seed in 0u64..1000,
        data_seed in 0u64..1000,
        trajectories in 1usize..160,
    ) {
        let net = two_component_network(&GridNetworkConfig::small_test(4, 4), seed, 0.2);
        let clean = random_dataset(&net, trajectories, 0.3, data_seed);
        let data = corrupt(&net, &clean, data_seed ^ 0x5eed);
        let placeable = |p: &RoadLocation| net.segment(p.segment).is_ok();
        let whole =
            filtered(&data, |tr, _| tr.points().iter().all(placeable));
        let dropped = filtered(&data, |_, p| placeable(p));
        let unplaceable: Vec<TrajectoryId> = data
            .trajectories()
            .iter()
            .filter(|tr| !tr.points().iter().all(placeable))
            .map(Trajectory::id)
            .collect();
        let unrepairable: Vec<TrajectoryId> = unplaceable
            .iter()
            .copied()
            .filter(|id| !dropped.trajectories().iter().any(|tr| tr.id() == *id))
            .collect();
        for insert_junctions in [false, true] {
            let (skip_want, _) = phase1(&net, &whole, insert_junctions, 1, ErrorPolicy::Strict);
            let (repair_want, _) = phase1(&net, &dropped, insert_junctions, 1, ErrorPolicy::Strict);
            for threads in [1, 2, 8] {
                let (skip, counters) =
                    phase1(&net, &data, insert_junctions, threads, ErrorPolicy::Skip);
                prop_assert_eq!(&skip.base_clusters, &skip_want.base_clusters);
                prop_assert_eq!(skip.fragment_count, skip_want.fragment_count);
                prop_assert_eq!(&counters.skipped_ids, &unplaceable);
                prop_assert_eq!(counters.repaired, 0);

                let (repair, counters) =
                    phase1(&net, &data, insert_junctions, threads, ErrorPolicy::Repair);
                prop_assert_eq!(&repair.base_clusters, &repair_want.base_clusters);
                prop_assert_eq!(repair.fragment_count, repair_want.fragment_count);
                prop_assert_eq!(&counters.skipped_ids, &unrepairable);
                prop_assert_eq!(counters.repaired, unplaceable.len() - unrepairable.len());
            }
        }
    }
}
