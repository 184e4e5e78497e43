//! Helpers shared by this crate's integration tests.

use neat_rnet::{NodeId, RoadLocation, RoadNetwork, SegmentId};

/// A walk that starts on segment `start` and at each junction takes the
/// `turn`-th other incident segment; three samples per segment.
pub fn walk(net: &RoadNetwork, start: usize, turns: &[usize], t0: f64) -> Vec<RoadLocation> {
    let mut seg = net
        .segment(SegmentId::new(start % net.segment_count()))
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
