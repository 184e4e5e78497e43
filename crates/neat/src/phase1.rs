//! Phase 1 — base cluster formation (Section III-A).
//!
//! Each trajectory is scanned point by point. Whenever two consecutive
//! samples lie on different road segments, the junction node(s) between
//! those segments are inserted as splitting points:
//!
//! * contiguous segments contribute the single shared junction `I(ei, ej)`,
//! * non-contiguous segments are repaired with a shortest-path search (the
//!   paper uses the map-matching approach of \[14\]); every junction along
//!   the repair path is inserted, so segments traversed *between* samples
//!   still receive a (two-point) t-fragment.
//!
//! The resulting t-fragments are grouped by road segment into base
//! clusters, which are returned sorted by density (descending) so the
//! first cluster is the dense-core (Definition 4).
//!
//! Every entry point runs the one arena-backed implementation,
//! [`form_base_clusters_ctl`] (DESIGN.md §17).

use crate::control::PhaseStatus;
use crate::error::NeatError;
use crate::model::BaseCluster;
use neat_exec::Executor;
use neat_rnet::path::TravelMode;
use neat_rnet::{RoadLocation, RoadNetwork, SegmentId, ShortestPathEngine};
use neat_runctl::{Control, Interrupt};
use neat_traj::sanitize::ErrorPolicy;
use neat_traj::{Dataset, SampleArena, TFragment, TrajView, Trajectory, TrajectoryId};

/// Output of Phase 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase1Output {
    /// Base clusters sorted by density descending (ties broken by segment
    /// id ascending, keeping the order deterministic). The first entry is
    /// the dense-core.
    pub base_clusters: Vec<BaseCluster>,
    /// Total number of t-fragments extracted.
    pub fragment_count: usize,
    /// Samples of the trajectories this output covers — a deterministic
    /// work counter: a pure function of the dataset and the interrupt cut
    /// point, identical at every thread count (see the `pr6_frontend`
    /// bench gate).
    pub samples_scanned: usize,
}

impl Phase1Output {
    /// The dense-core — the densest base cluster (Definition 4) — or
    /// `None` for an empty dataset.
    pub fn dense_core(&self) -> Option<&BaseCluster> {
        self.base_clusters.first()
    }
}

/// How many trajectories the pipeline isolated instead of aborting on,
/// under [`ErrorPolicy::Skip`] or [`ErrorPolicy::Repair`]. Always zero
/// under [`ErrorPolicy::Strict`], which errors out instead.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResilienceCounters {
    /// Trajectories dropped whole (unextractable even after repair).
    pub skipped: usize,
    /// Trajectories kept after dropping their offending points.
    pub repaired: usize,
    /// Ids of the skipped trajectories, in dataset order.
    pub skipped_ids: Vec<TrajectoryId>,
}

impl ResilienceCounters {
    /// `true` when every trajectory went through untouched.
    pub fn is_clean(&self) -> bool {
        self.skipped == 0 && self.repaired == 0
    }

    /// Folds another counter set into this one (batch accumulation).
    pub fn merge(&mut self, other: &ResilienceCounters) {
        self.skipped += other.skipped;
        self.repaired += other.repaired;
        self.skipped_ids.extend(other.skipped_ids.iter().copied());
    }
}

/// Trajectories per phase-1 work item. Fixed, so chunk boundaries — and
/// with them the fold order of fragments — never depend on the thread
/// count.
const CHUNK: usize = 16;

/// What happened to one trajectory of a chunk. Fragments go straight
/// into the chunk's shared buffer, so the outcome carries bookkeeping
/// only. `Failed` only occurs under [`ErrorPolicy::Strict`].
enum SlotOutcome {
    Ok,
    Repaired,
    Skipped(TrajectoryId),
    Failed(NeatError),
}

/// The output of one chunk of arena trajectories: one contiguous
/// fragment buffer for all of them, its segment keys, and one outcome
/// per trajectory the chunk completed.
struct Chunk {
    frags: Vec<TFragment>,
    /// `frags[i].segment.index()`, mirrored while the chunk is cache-hot
    /// so the grouping counting sort scans compact `u32` runs.
    keys: Vec<u32>,
    outcomes: Vec<SlotOutcome>,
    /// Samples of the completed trajectories.
    samples: usize,
    /// The interrupt that stopped the chunk part-way, if any.
    halted: Option<Interrupt>,
}

/// Groups fragments by segment into density-sorted base clusters.
///
/// The chunks' logical concatenation is the fragment stream in dataset
/// order; the scatter is a dense counting sort keyed by segment index —
/// no hashing on the hot path. Within-segment fragment order is the
/// concatenation order, and the final (density desc, segment asc) sort
/// is a total order over clusters (one cluster per segment), so the
/// output is a pure function of the fragment stream.
fn group_into_clusters(chunks: &[Chunk], samples_scanned: usize) -> Phase1Output {
    let mut fragment_count = 0usize;
    let mut counts: Vec<u32> = Vec::new();
    for chunk in chunks {
        fragment_count += chunk.keys.len();
        for &k in &chunk.keys {
            let s = k as usize;
            if s >= counts.len() {
                counts.resize(s + 1, 0);
            }
            counts[s] += 1;
        }
    }
    let max_seg = counts.len();
    // Dense slot map: segment index → bucket position, in segment order.
    let mut slot = vec![u32::MAX; max_seg];
    let mut buckets: Vec<Vec<TFragment>> = Vec::new();
    for (s, &c) in counts.iter().enumerate() {
        if c > 0 {
            slot[s] = buckets.len() as u32; // lint:allow(L4) reason=bucket count is bounded by the u32-backed segment id space
            buckets.push(Vec::with_capacity(c as usize));
        }
    }
    // Copying out of borrowed chunks: moving out of consumed ones made
    // phase 1 on SJ5000 about a quarter slower at one thread.
    for chunk in chunks {
        for (f, &k) in chunk.frags.iter().zip(&chunk.keys) {
            buckets[slot[k as usize] as usize].push(*f);
        }
    }
    let mut base_clusters: Vec<BaseCluster> = buckets
        .into_iter()
        .map(|frags| {
            let sid = frags[0].segment;
            BaseCluster::from_grouped(sid, frags)
        })
        .collect();
    base_clusters.sort_by(|a, b| {
        b.density()
            .cmp(&a.density())
            .then_with(|| a.segment().cmp(&b.segment()))
    });
    Phase1Output {
        base_clusters,
        fragment_count,
        samples_scanned,
    }
}

/// Runs Phase 1: extracts t-fragments from every trajectory and groups
/// them into density-sorted base clusters, under
/// [`ErrorPolicy::Strict`] on one thread.
///
/// When `insert_junctions` is `true`, junction points are inserted between
/// consecutive samples on different segments (with shortest-path gap repair
/// for non-contiguous segments); otherwise trajectories are split purely on
/// segment-id changes.
///
/// # Errors
///
/// Returns [`NeatError::UnknownSegment`] if a sample references a segment
/// that is not part of `net`.
pub fn form_base_clusters(
    net: &RoadNetwork,
    dataset: &Dataset,
    insert_junctions: bool,
) -> Result<Phase1Output, NeatError> {
    form_base_clusters_parallel_with_policy(net, dataset, insert_junctions, 1, ErrorPolicy::Strict)
        .map(|(out, _)| out)
}

/// [`form_base_clusters`] under an error policy on `threads` workers.
/// Under [`ErrorPolicy::Skip`] or [`ErrorPolicy::Repair`] a trajectory
/// the network cannot place is isolated (dropped or point-repaired,
/// counted in the returned [`ResilienceCounters`]) instead of aborting
/// the run. The output — clusters *and* counters — is bit-identical at
/// every thread count.
///
/// # Errors
///
/// Under [`ErrorPolicy::Strict`], same as [`form_base_clusters`] (the
/// error of the earliest failing trajectory wins); the other policies
/// only fail on internal invariant violations (never on bad input data).
pub fn form_base_clusters_parallel_with_policy(
    net: &RoadNetwork,
    dataset: &Dataset,
    insert_junctions: bool,
    threads: usize,
    policy: ErrorPolicy,
) -> Result<(Phase1Output, ResilienceCounters), NeatError> {
    let (out, counters, _) = form_base_clusters_ctl(
        net,
        dataset,
        insert_junctions,
        threads,
        policy,
        &Control::unlimited(),
    )?;
    Ok((out, counters))
}

/// Phase 1 under a [`Control`] — the one implementation behind every
/// entry point.
///
/// The dataset is flattened into a [`SampleArena`] and scanned in
/// fixed-size chunks of trajectories, one [`Executor::try_map_ctl`] item
/// per chunk. Each chunk appends its fragments to one contiguous buffer.
/// The control is checked once per trajectory and charged one settled
/// node per node the gap-repair routes settle. On interrupt the clusters
/// built from the completed trajectory prefix are returned with a
/// [`PhaseStatus::Partial`] report instead of an error.
///
/// The output and the cut point are deterministic for a given budget or
/// arming at every thread count: workers run chunks speculatively against
/// recorder controls and their op/settle charges are committed against
/// the real budget in dataset order. A chunk that crosses a limit re-runs
/// live and returns the trajectories it completed; the interrupt latches
/// in the control, so the next chunk halts at its first check.
///
/// # Errors
///
/// Same as [`form_base_clusters_parallel_with_policy`] — interrupts are
/// reported in the returned status, never as errors.
pub fn form_base_clusters_ctl(
    net: &RoadNetwork,
    dataset: &Dataset,
    insert_junctions: bool,
    threads: usize,
    policy: ErrorPolicy,
    ctl: &Control,
) -> Result<(Phase1Output, ResilienceCounters, PhaseStatus), NeatError> {
    let arena = SampleArena::from_dataset(dataset);
    let total = arena.len();
    let run = Executor::new(threads).try_map_ctl(
        total.div_ceil(CHUNK),
        ctl,
        || ShortestPathEngine::new(net),
        |c, engine, cc| {
            let range = c * CHUNK..((c + 1) * CHUNK).min(total);
            extract_chunk(net, engine, &arena, range, insert_junctions, policy, cc)
        },
    );

    let mut counters = ResilienceCounters::default();
    let mut done = 0usize;
    let mut samples_scanned = 0usize;
    let mut halted = run.halted;
    let mut chunks = Vec::with_capacity(run.items.len());
    for mut chunk in run.items {
        for outcome in chunk.outcomes.drain(..) {
            match outcome {
                SlotOutcome::Ok => {}
                SlotOutcome::Repaired => counters.repaired += 1,
                SlotOutcome::Skipped(id) => {
                    counters.skipped += 1;
                    counters.skipped_ids.push(id);
                }
                // Strict mode aborts the run with the earliest failure in
                // dataset order.
                SlotOutcome::Failed(e) => return Err(e),
            }
            done += 1;
        }
        samples_scanned += chunk.samples;
        let stop = chunk.halted.take();
        chunks.push(chunk);
        if stop.is_some() {
            halted = stop;
            break;
        }
    }
    let status = match halted {
        None => PhaseStatus::Complete,
        Some(why) => PhaseStatus::Partial { done, total, why },
    };
    Ok((
        group_into_clusters(&chunks, samples_scanned),
        counters,
        status,
    ))
}

/// Extracts the trajectories `range` of the arena into one [`Chunk`].
/// A strict failure ends the chunk (the fold reports it); an interrupt
/// ends it with the completed prefix, or fails the item when nothing
/// completed.
fn extract_chunk(
    net: &RoadNetwork,
    engine: &mut ShortestPathEngine,
    arena: &SampleArena,
    range: std::ops::Range<usize>,
    insert_junctions: bool,
    policy: ErrorPolicy,
    ctl: &Control,
) -> Result<Chunk, Interrupt> {
    // Pre-size from the chunk's sample count: fragments rarely exceed
    // half the samples, so this usually avoids every growth-copy.
    let mut chunk = Chunk {
        frags: Vec::with_capacity(arena.samples_in(range.clone()) / 2),
        keys: Vec::new(),
        outcomes: Vec::with_capacity(range.len()),
        samples: 0,
        halted: None,
    };
    for i in range {
        let view = arena.view(i);
        match extract_with_policy(
            net,
            engine,
            &view,
            insert_junctions,
            policy,
            ctl,
            &mut chunk.frags,
        ) {
            Ok(outcome) => {
                let failed = matches!(outcome, SlotOutcome::Failed(_));
                chunk.outcomes.push(outcome);
                chunk.samples += view.len();
                if failed {
                    break;
                }
            }
            Err(why) if chunk.outcomes.is_empty() => return Err(why),
            Err(why) => {
                chunk.halted = Some(why);
                break;
            }
        }
    }
    chunk.keys = segment_keys(&chunk.frags);
    Ok(chunk)
}

/// Segment keys mirroring `frags[i].segment.index()` — the compact scan
/// input for the grouping counting sort.
fn segment_keys(frags: &[TFragment]) -> Vec<u32> {
    frags
        .iter()
        .map(|f| f.segment.index() as u32) // lint:allow(L4) reason=SegmentId is u32-backed, so index() round-trips losslessly
        .collect()
}

/// Extracts one trajectory view under an error policy, appending its
/// fragments to `out` and rolling `out` back on any error or interrupt.
///
/// # Errors
///
/// The interrupt `ctl` reports, at the per-trajectory check or inside a
/// gap-repair route. Interrupts bypass the error policy: they are
/// verdicts on the *run*, not on this trajectory's data.
fn extract_with_policy(
    net: &RoadNetwork,
    engine: &mut ShortestPathEngine,
    view: &TrajView<'_>,
    insert_junctions: bool,
    policy: ErrorPolicy,
    ctl: &Control,
    out: &mut Vec<TFragment>,
) -> Result<SlotOutcome, Interrupt> {
    ctl.check()?;
    let mark = out.len();
    let err = match extract_view_into(net, engine, view, insert_junctions, ctl, out) {
        Ok(()) => return Ok(SlotOutcome::Ok),
        Err(e) => e,
    };
    out.truncate(mark);
    match (err, policy) {
        (NeatError::Interrupted(why), _) => Err(why),
        (e, ErrorPolicy::Strict) => Ok(SlotOutcome::Failed(e)),
        (_, ErrorPolicy::Skip) => Ok(SlotOutcome::Skipped(view.id)),
        (_, ErrorPolicy::Repair) => {
            // Drop the points the network cannot place; if enough remain
            // to form a trajectory, extract from the rest.
            let kept: Vec<RoadLocation> = (0..view.len())
                .map(|j| view.location(j))
                .filter(|p| net.segment(p.segment).is_ok())
                .collect();
            let Ok(repaired) = Trajectory::new(view.id, kept) else {
                return Ok(SlotOutcome::Skipped(view.id));
            };
            let one = SampleArena::from_trajectories(std::slice::from_ref(&repaired));
            match extract_view_into(net, engine, &one.view(0), insert_junctions, ctl, out) {
                Ok(()) => Ok(SlotOutcome::Repaired),
                Err(e) => {
                    out.truncate(mark);
                    match e {
                        NeatError::Interrupted(why) => Err(why),
                        _ => Ok(SlotOutcome::Skipped(view.id)),
                    }
                }
            }
        }
    }
}

/// Appends one view's fragments to `out`, validating every sample's
/// segment against the network up front. On error, `out` is left with
/// partial fragments appended — the caller truncates back to its mark.
///
/// The flat pre-scan reports the first invalid sample's segment, and it
/// runs before any routing: a trajectory the network cannot place
/// charges `ctl` no settled nodes. (Pass-through fragments need no
/// check — their segments come from the network's own router.)
fn extract_view_into(
    net: &RoadNetwork,
    engine: &mut ShortestPathEngine,
    view: &TrajView<'_>,
    insert_junctions: bool,
    ctl: &Control,
    out: &mut Vec<TFragment>,
) -> Result<(), NeatError> {
    let max = net.segment_count();
    if let Some(&bad) = view.segs().iter().find(|&&s| s as usize >= max) {
        // lint:allow(L4) reason=widening the u32 raw segment index back to usize is lossless
        return Err(NeatError::UnknownSegment(SegmentId::new(bad as usize)));
    }
    if insert_junctions {
        extract_fragments_view(net, engine, view, ctl, out)?;
    } else {
        view.split_into_fragments_into(out);
    }
    Ok(())
}

/// Extracts the t-fragments of one trajectory view, inserting junction
/// points at segment transitions. Scans the view's dense `&[u32]`
/// segment run for boundaries and only reconstructs `RoadLocation`s at
/// run edges; sample coordinates round-trip bit-identically through the
/// arena. A fragment's point count is its samples plus the junctions
/// inserted at its ends: `(j - run_start) + open_extra`, plus one when a
/// junction closes it.
///
/// # Errors
///
/// [`NeatError::Interrupted`] when `ctl` stops a gap-repair route.
fn extract_fragments_view(
    net: &RoadNetwork,
    engine: &mut ShortestPathEngine,
    view: &TrajView<'_>,
    ctl: &Control,
    out: &mut Vec<TFragment>,
) -> Result<(), NeatError> {
    let segs = view.segs();
    let n = segs.len();
    let id = view.id;
    // Current open fragment: starts at `open_first`, covers the samples
    // `run_start..j` plus `open_extra` inserted junction points.
    let mut run_start = 0usize;
    let mut open_first = view.location(0);
    let mut open_extra = 0usize;
    let mut j = 1;
    loop {
        if j < n && segs[j] == segs[j - 1] {
            j += 1;
            continue;
        }
        let p = view.location(j - 1);
        if j == n {
            out.push(TFragment {
                trajectory: id,
                segment: open_first.segment,
                first: open_first,
                last: p,
                point_count: (j - run_start) + open_extra,
            });
            return Ok(());
        }
        // Segment transition: recover the junction chain between p and q.
        let q = view.location(j);
        match junction_chain(net, engine, p, q, ctl)? {
            Some(Chain::Contiguous(jpos, jt)) => {
                // Close the current fragment at the shared junction and
                // reopen on q's segment from that same junction.
                out.push(TFragment {
                    trajectory: id,
                    segment: open_first.segment,
                    first: open_first,
                    last: RoadLocation::new(p.segment, jpos, jt),
                    point_count: (j - run_start) + open_extra + 1,
                });
                open_first = RoadLocation::new(q.segment, jpos, jt);
                open_extra = 1;
            }
            Some(Chain::Repaired(junctions, mid_segments, times)) => {
                // Close the current fragment at the first junction.
                let j0 = RoadLocation::new(p.segment, junctions[0], times[0]);
                out.push(TFragment {
                    trajectory: id,
                    segment: open_first.segment,
                    first: open_first,
                    last: j0,
                    point_count: (j - run_start) + open_extra + 1,
                });
                // Pass-through fragments for intermediate segments.
                for (i, &mid) in mid_segments.iter().enumerate() {
                    out.push(TFragment {
                        trajectory: id,
                        segment: mid,
                        first: RoadLocation::new(mid, junctions[i], times[i]),
                        last: RoadLocation::new(mid, junctions[i + 1], times[i + 1]),
                        point_count: 2,
                    });
                }
                // Open the next fragment on q's segment at the last junction.
                open_first = RoadLocation::new(
                    q.segment,
                    *junctions.last().expect("chain non-empty"), // lint:allow(L1) reason=the chain loop pushes at least one junction/time first
                    *times.last().expect("chain non-empty"), // lint:allow(L1) reason=the chain loop pushes at least one junction/time first
                );
                open_extra = 1;
            }
            None => {
                // Unreachable gap: split without junction insertion.
                out.push(TFragment {
                    trajectory: id,
                    segment: open_first.segment,
                    first: open_first,
                    last: p,
                    point_count: (j - run_start) + open_extra,
                });
                open_first = q;
                open_extra = 0;
            }
        }
        run_start = j;
        j += 1;
    }
}

/// Junction chain travelled between two consecutive samples. The
/// contiguous case — the overwhelmingly common one — carries no heap
/// allocations, keeping the phase-1 transition loop malloc-free.
enum Chain {
    /// Contiguous segments: the single shared junction and its
    /// interpolated crossing time.
    Contiguous(neat_rnet::Point, f64),
    /// Gap repair: the traversed junctions `j0..jk`, the segments
    /// between them (`len = k`), and interpolated timestamps.
    Repaired(Vec<neat_rnet::Point>, Vec<SegmentId>, Vec<f64>),
}

/// Computes the junction chain travelled between consecutive samples `p`
/// (on segment `ep`) and `q` (on segment `eq ≠ ep`).
///
/// Returns the junction positions, the intermediate segments between them
/// (none when the segments are contiguous) and interpolated timestamps —
/// or `None` when no path connects the two segments.
fn junction_chain(
    net: &RoadNetwork,
    engine: &mut ShortestPathEngine,
    p: RoadLocation,
    q: RoadLocation,
    ctl: &Control,
) -> Result<Option<Chain>, NeatError> {
    let ep = net
        .segment(p.segment)
        .map_err(|_| NeatError::UnknownSegment(p.segment))?;
    let eq = net
        .segment(q.segment)
        .map_err(|_| NeatError::UnknownSegment(q.segment))?;

    if let Some(j) = net.intersection_of(ep.id, eq.id) {
        // Contiguous: one shared junction.
        let jpos = net.position(j);
        let d1 = p.position.distance(jpos);
        let d2 = jpos.distance(q.position);
        let total = (d1 + d2).max(1e-9);
        let t = p.time + (q.time - p.time) * d1 / total;
        return Ok(Some(Chain::Contiguous(jpos, t)));
    }

    // Non-contiguous: choose the endpoint pair minimising the detour and
    // take the shortest path between them (the map-matching repair of [14]).
    let mut best: Option<(f64, neat_rnet::path::Route, f64, f64)> = None;
    for u in [ep.a, ep.b] {
        for v in [eq.a, eq.b] {
            let d_pu = p.position.distance(net.position(u));
            let d_vq = net.position(v).distance(q.position);
            let found = engine
                .route_ctl(net, u, v, TravelMode::Directed, ctl)
                .map_err(NeatError::Interrupted)?;
            if let Some(route) = found {
                let cost = d_pu + route.length + d_vq;
                if best.as_ref().is_none_or(|(c, ..)| cost < *c) {
                    best = Some((cost, route, d_pu, d_vq));
                }
            }
        }
    }
    let (cost, route, d_pu, _) = match best {
        Some(b) => b,
        None => return Ok(None),
    };
    // Interpolate times along the travelled distance.
    let span = q.time - p.time;
    let total = cost.max(1e-9);
    let mut junctions = Vec::with_capacity(route.nodes.len());
    let mut times = Vec::with_capacity(route.nodes.len());
    let mut travelled = d_pu;
    let mut prev: Option<neat_rnet::NodeId> = None;
    for (i, &n) in route.nodes.iter().enumerate() {
        if let Some(pn) = prev {
            let seg = net
                .segment(route.segments[i - 1])
                .expect("route segment exists"); // lint:allow(L1) reason=route segments come from this network's own router
            debug_assert!(seg.has_endpoint(pn));
            travelled += seg.length;
        }
        junctions.push(net.position(n));
        times.push(p.time + span * (travelled / total));
        prev = Some(n);
    }
    Ok(Some(Chain::Repaired(junctions, route.segments, times)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use neat_rnet::netgen::chain_network;
    use neat_rnet::Point;
    use neat_traj::TrajectoryId;

    fn loc(seg: usize, x: f64, t: f64) -> RoadLocation {
        RoadLocation::new(SegmentId::new(seg), Point::new(x, 0.0), t)
    }

    fn traj(id: u64, pts: Vec<RoadLocation>) -> Trajectory {
        Trajectory::new(TrajectoryId::new(id), pts).unwrap()
    }

    /// Chain network: n0 -s0- n1 -s1- n2 -s2- n3 -s3- n4, 100 m apart.
    fn net5() -> RoadNetwork {
        chain_network(5, 100.0, 10.0)
    }

    /// The t-fragments of one trajectory, with junction insertion, in
    /// extraction order.
    fn fragments_of(net: &RoadNetwork, tr: &Trajectory) -> Vec<TFragment> {
        let arena = SampleArena::from_trajectories(std::slice::from_ref(tr));
        let mut out = Vec::new();
        extract_view_into(
            net,
            &mut ShortestPathEngine::new(net),
            &arena.view(0),
            true,
            &Control::unlimited(),
            &mut out,
        )
        .unwrap();
        out
    }

    fn with_policy(
        net: &RoadNetwork,
        data: &Dataset,
        policy: ErrorPolicy,
    ) -> Result<(Phase1Output, ResilienceCounters), NeatError> {
        form_base_clusters_parallel_with_policy(net, data, true, 1, policy)
    }

    #[test]
    fn contiguous_transition_inserts_junction() {
        let net = net5();
        // Sample on s0 at x=50, then on s1 at x=150: junction n1 at x=100.
        let tr = traj(1, vec![loc(0, 50.0, 0.0), loc(1, 150.0, 10.0)]);
        let frags = fragments_of(&net, &tr);
        assert_eq!(frags.len(), 2);
        assert_eq!(frags[0].segment, SegmentId::new(0));
        // Fragment 0 ends at the junction (x=100), halfway in time.
        assert!((frags[0].last.position.x - 100.0).abs() < 1e-9);
        assert!((frags[0].last.time - 5.0).abs() < 1e-9);
        // Fragment 1 starts at the junction.
        assert!((frags[1].first.position.x - 100.0).abs() < 1e-9);
        assert_eq!(frags[1].segment, SegmentId::new(1));
        assert_eq!(frags[1].last.time, 10.0);
    }

    #[test]
    fn gap_repair_creates_passthrough_fragments() {
        let net = net5();
        // Sample on s0 then s3: s1 and s2 traversed between samples.
        let tr = traj(1, vec![loc(0, 50.0, 0.0), loc(3, 350.0, 30.0)]);
        let frags = fragments_of(&net, &tr);
        let segs: Vec<usize> = frags.iter().map(|f| f.segment.index()).collect();
        assert_eq!(segs, vec![0, 1, 2, 3]);
        // Pass-through fragments carry the inserted junction endpoints.
        assert_eq!(frags[1].point_count, 2);
        assert!((frags[1].first.position.x - 100.0).abs() < 1e-9);
        assert!((frags[1].last.position.x - 200.0).abs() < 1e-9);
        // Times increase monotonically across the chain.
        for w in frags.windows(2) {
            assert!(w[0].last.time <= w[1].first.time + 1e-9);
        }
        assert!(frags[3].last.time <= 30.0 + 1e-9);
    }

    #[test]
    fn base_clusters_sorted_by_density() {
        let net = net5();
        let mut data = Dataset::new("d");
        // 3 trajectories over s0→s1; 1 over s2→s3.
        for id in 0..3 {
            data.push(traj(id, vec![loc(0, 50.0, 0.0), loc(1, 150.0, 10.0)]));
        }
        data.push(traj(9, vec![loc(2, 250.0, 0.0), loc(3, 350.0, 10.0)]));
        let out = form_base_clusters(&net, &data, true).unwrap();
        assert_eq!(out.base_clusters.len(), 4);
        let dc = out.dense_core().unwrap();
        assert_eq!(dc.density(), 3);
        // s0 and s1 both have density 3; tie broken by segment id.
        assert_eq!(dc.segment(), SegmentId::new(0));
        for w in out.base_clusters.windows(2) {
            assert!(w[0].density() >= w[1].density());
        }
    }

    #[test]
    fn fragment_counts_accumulate() {
        let net = net5();
        let mut data = Dataset::new("d");
        data.push(traj(0, vec![loc(0, 10.0, 0.0), loc(0, 90.0, 9.0)]));
        data.push(traj(1, vec![loc(0, 10.0, 0.0), loc(1, 150.0, 20.0)]));
        let out = form_base_clusters(&net, &data, true).unwrap();
        assert_eq!(out.fragment_count, 3);
        let total: usize = out.base_clusters.iter().map(BaseCluster::density).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn unknown_segment_is_reported() {
        let net = net5();
        let mut data = Dataset::new("d");
        data.push(traj(0, vec![loc(77, 0.0, 0.0), loc(77, 1.0, 1.0)]));
        let err = form_base_clusters(&net, &data, true).unwrap_err();
        assert!(matches!(err, NeatError::UnknownSegment(s) if s.index() == 77));
        // Also without junction insertion.
        let err = form_base_clusters(&net, &data, false).unwrap_err();
        assert!(matches!(err, NeatError::UnknownSegment(_)));
    }

    #[test]
    fn empty_dataset_gives_empty_output() {
        let net = net5();
        let out = form_base_clusters(&net, &Dataset::new("e"), true).unwrap();
        assert!(out.base_clusters.is_empty());
        assert!(out.dense_core().is_none());
        assert_eq!(out.fragment_count, 0);
    }

    #[test]
    fn disconnected_gap_splits_without_insertion() {
        // Two disjoint chains; trajectory jumps between them.
        let mut b = neat_rnet::RoadNetworkBuilder::new();
        let a0 = b.add_node(Point::new(0.0, 0.0));
        let a1 = b.add_node(Point::new(100.0, 0.0));
        let c0 = b.add_node(Point::new(0.0, 5000.0));
        let c1 = b.add_node(Point::new(100.0, 5000.0));
        let s0 = b.add_segment(a0, a1, 10.0).unwrap();
        let s1 = b.add_segment(c0, c1, 10.0).unwrap();
        let net = b.build().unwrap();
        let tr = traj(
            1,
            vec![
                RoadLocation::new(s0, Point::new(50.0, 0.0), 0.0),
                RoadLocation::new(s1, Point::new(50.0, 5000.0), 100.0),
            ],
        );
        let frags = fragments_of(&net, &tr);
        assert_eq!(frags.len(), 2);
        assert_eq!(frags[0].point_count, 1);
        assert_eq!(frags[1].point_count, 1);
    }

    #[test]
    fn no_insertion_mode_matches_plain_split() {
        let net = net5();
        let mut data = Dataset::new("d");
        data.push(traj(0, vec![loc(0, 10.0, 0.0), loc(1, 150.0, 10.0)]));
        let out = form_base_clusters(&net, &data, false).unwrap();
        assert_eq!(out.fragment_count, 2);
        // Without junction insertion the first fragment ends at the sample.
        let s0_cluster = out
            .base_clusters
            .iter()
            .find(|c| c.segment() == SegmentId::new(0))
            .unwrap();
        assert!((s0_cluster.fragments()[0].last.position.x - 10.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_matches_sequential() {
        let net = net5();
        let mut data = Dataset::new("par");
        for id in 0..37 {
            data.push(traj(
                id,
                vec![
                    loc((id % 3) as usize, (id % 3) as f64 * 100.0 + 20.0, 0.0),
                    loc(
                        ((id % 3) + 1) as usize,
                        ((id % 3) + 1) as f64 * 100.0 + 30.0,
                        15.0,
                    ),
                ],
            ));
        }
        let seq = form_base_clusters(&net, &data, true).unwrap();
        for threads in [1usize, 2, 4, 8] {
            let par = form_base_clusters_parallel_with_policy(
                &net,
                &data,
                true,
                threads,
                ErrorPolicy::Strict,
            )
            .unwrap()
            .0;
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_propagates_errors() {
        let net = net5();
        let mut data = Dataset::new("err");
        for id in 0..8 {
            data.push(traj(id, vec![loc(0, 10.0, 0.0), loc(0, 20.0, 5.0)]));
        }
        data.push(traj(99, vec![loc(77, 0.0, 0.0), loc(77, 1.0, 1.0)]));
        let err =
            form_base_clusters_parallel_with_policy(&net, &data, true, 4, ErrorPolicy::Strict)
                .unwrap_err();
        assert!(matches!(err, NeatError::UnknownSegment(_)));
    }

    /// Mixed dataset: 3 clean trajectories, one entirely on an unknown
    /// segment, one with a single unknown-segment point amid good ones.
    fn mixed_dataset() -> Dataset {
        let mut data = Dataset::new("mixed");
        for id in 0..3 {
            data.push(traj(id, vec![loc(0, 50.0, 0.0), loc(1, 150.0, 10.0)]));
        }
        data.push(traj(90, vec![loc(77, 0.0, 0.0), loc(77, 1.0, 1.0)]));
        data.push(traj(
            91,
            vec![loc(0, 40.0, 0.0), loc(88, 999.0, 5.0), loc(1, 160.0, 12.0)],
        ));
        data
    }

    #[test]
    fn skip_policy_isolates_bad_trajectories() {
        let net = net5();
        let data = mixed_dataset();
        let (out, counters) = with_policy(&net, &data, ErrorPolicy::Skip).unwrap();
        assert_eq!(counters.skipped, 2);
        assert_eq!(counters.repaired, 0);
        assert_eq!(
            counters.skipped_ids,
            vec![TrajectoryId::new(90), TrajectoryId::new(91)]
        );
        // The clean trajectories still cluster.
        assert_eq!(out.dense_core().unwrap().density(), 3);
    }

    #[test]
    fn repair_policy_drops_unknown_points_and_keeps_the_rest() {
        let net = net5();
        let data = mixed_dataset();
        let (out, counters) = with_policy(&net, &data, ErrorPolicy::Repair).unwrap();
        // 91 loses its unknown point but keeps 2 placeable ones; 90 has
        // nothing left and is skipped.
        assert_eq!(counters.repaired, 1);
        assert_eq!(counters.skipped, 1);
        assert_eq!(counters.skipped_ids, vec![TrajectoryId::new(90)]);
        // 91's surviving points join the s0/s1 clusters: density 4.
        assert_eq!(out.dense_core().unwrap().density(), 4);
    }

    #[test]
    fn strict_policy_matches_legacy_failfast() {
        let net = net5();
        let data = mixed_dataset();
        let err = with_policy(&net, &data, ErrorPolicy::Strict).unwrap_err();
        assert!(matches!(err, NeatError::UnknownSegment(_)));
    }

    #[test]
    fn parallel_policy_matches_sequential_policy() {
        let net = net5();
        let mut data = Dataset::new("par-policy");
        for id in 0..30 {
            data.push(traj(id, vec![loc(0, 50.0, 0.0), loc(1, 150.0, 10.0)]));
        }
        data.push(traj(90, vec![loc(77, 0.0, 0.0), loc(77, 1.0, 1.0)]));
        data.push(traj(
            91,
            vec![loc(0, 40.0, 0.0), loc(88, 999.0, 5.0), loc(1, 160.0, 12.0)],
        ));
        for policy in [ErrorPolicy::Skip, ErrorPolicy::Repair] {
            let seq = with_policy(&net, &data, policy).unwrap();
            for threads in [2usize, 4, 8] {
                let par =
                    form_base_clusters_parallel_with_policy(&net, &data, true, threads, policy)
                        .unwrap();
                assert_eq!(par, seq, "{policy:?} threads={threads}");
            }
        }
    }

    #[test]
    fn samples_scanned_counts_every_processed_sample() {
        let net = net5();
        let data = mixed_dataset();
        // 3 clean trajectories × 2 samples + one skipped pair + one
        // 3-sample trajectory: every policy-processed sample counts.
        let (out, _) = with_policy(&net, &data, ErrorPolicy::Skip).unwrap();
        assert_eq!(out.samples_scanned, 3 * 2 + 2 + 3);
    }

    /// Segments are validated before any routing, so a trajectory the
    /// network cannot place charges no settled nodes under Skip, and
    /// under Repair only its repaired points' routes are charged.
    #[test]
    fn unplaceable_trajectory_charges_only_what_its_placeable_points_route() {
        let net = net5();
        // s0 → s3 needs a gap-repair route before the unknown sample.
        let bad = traj(
            1,
            vec![loc(0, 50.0, 0.0), loc(3, 350.0, 30.0), loc(77, 0.0, 40.0)],
        );
        let mut data = Dataset::new("bad");
        data.push(bad);
        let skip = Control::unlimited();
        form_base_clusters_ctl(&net, &data, true, 1, ErrorPolicy::Skip, &skip).unwrap();
        assert_eq!((skip.ops(), skip.settled()), (1, 0));

        let mut clean = Dataset::new("clean");
        clean.push(traj(1, vec![loc(0, 50.0, 0.0), loc(3, 350.0, 30.0)]));
        let strict = Control::unlimited();
        form_base_clusters_ctl(&net, &clean, true, 1, ErrorPolicy::Strict, &strict).unwrap();
        assert!(strict.settled() > 0, "the gap is repaired by routing");
        let repair = Control::unlimited();
        let (_, counters, _) =
            form_base_clusters_ctl(&net, &data, true, 1, ErrorPolicy::Repair, &repair).unwrap();
        assert_eq!(counters.repaired, 1);
        assert_eq!(
            (repair.ops(), repair.settled()),
            (strict.ops(), strict.settled())
        );
    }

    /// A budget or cancel cut anywhere in a dataset that spans many
    /// chunks delivers exactly the trajectories whose charges fit the
    /// limit — not a chunk-aligned prefix — with the same clusters,
    /// counters, status and charges at every thread count, and the
    /// clusters equal an uncontrolled run over that prefix.
    #[test]
    fn interrupt_cut_points_are_exact_and_thread_invariant_across_chunks() {
        use neat_runctl::{CancelToken, RunBudget};
        let net = net5();
        let mut data = Dataset::new("chunks");
        for id in 0..300u64 {
            let pts = if id % 3 == 0 {
                vec![loc(0, 50.0, 0.0), loc(3, 350.0, 30.0)]
            } else {
                vec![loc(1, 120.0, 0.0), loc(1, 170.0, 5.0), loc(2, 250.0, 10.0)]
            };
            data.push(traj(id, pts));
        }
        // Cumulative (ops, settled) after each trajectory, charged alone.
        let mut cumulative = vec![(0u64, 0u64)];
        for tr in data.trajectories() {
            let mut one = Dataset::new("one");
            one.push(tr.clone());
            let ctl = Control::unlimited();
            form_base_clusters_ctl(&net, &one, true, 1, ErrorPolicy::Skip, &ctl).unwrap();
            let (ops, settled) = cumulative[cumulative.len() - 1];
            cumulative.push((ops + ctl.ops(), settled + ctl.settled()));
        }
        let total = data.len();
        let (total_ops, _) = cumulative[total];
        // Op budget, cancel fuse and settled-node budget at `at`, each
        // with the charge its limit counts.
        let arm = |k: usize, at: u64| match k {
            0 => Control::new(RunBudget::unlimited().with_max_ops(at), CancelToken::new()),
            1 => Control::new(RunBudget::unlimited(), CancelToken::armed_after(at)),
            _ => Control::new(
                RunBudget::unlimited().with_max_settled_nodes(at),
                CancelToken::new(),
            ),
        };
        let charge = |k: usize, c: &(u64, u64)| if k < 2 { c.0 } else { c.1 };
        for at in (0..total_ops).step_by(37) {
            for k in 0..3 {
                let fits = cumulative.iter().filter(|c| charge(k, c) <= at).count() - 1;
                let run = |threads| {
                    let ctl = arm(k, at);
                    let out =
                        form_base_clusters_ctl(&net, &data, true, threads, ErrorPolicy::Skip, &ctl)
                            .unwrap();
                    (out, ctl.ops(), ctl.settled())
                };
                let reference = run(1);
                let ((clusters, counters, status), ..) = &reference;
                let done = match *status {
                    PhaseStatus::Partial { done, .. } => done,
                    _ => total,
                };
                assert_eq!(done, fits, "arming {k} at {at}");
                let mut prefix = Dataset::new("prefix");
                prefix.extend(data.trajectories()[..done].iter().cloned());
                let plain = form_base_clusters_parallel_with_policy(
                    &net,
                    &prefix,
                    true,
                    1,
                    ErrorPolicy::Skip,
                )
                .unwrap();
                assert_eq!(
                    (clusters, counters),
                    (&plain.0, &plain.1),
                    "prefix of {done}"
                );
                for threads in [2, 8] {
                    assert_eq!(
                        run(threads),
                        reference,
                        "arming {k} at {at} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn direction_preserved_in_fragment_order() {
        let net = net5();
        // Travel backwards: s3 → s0.
        let tr = traj(1, vec![loc(3, 350.0, 0.0), loc(0, 50.0, 30.0)]);
        let frags = fragments_of(&net, &tr);
        let segs: Vec<usize> = frags.iter().map(|f| f.segment.index()).collect();
        assert_eq!(segs, vec![3, 2, 1, 0]);
    }
}
