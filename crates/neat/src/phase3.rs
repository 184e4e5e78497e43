//! Phase 3 — flow cluster refinement (Section III-C).
//!
//! Flow clusters whose representative routes end near each other (in
//! *network* distance) are merged into final trajectory clusters:
//!
//! * the distance between two flows is a modified Hausdorff distance over
//!   the two endpoint pairs of their representative routes
//!   (Definition 11), computed with undirected shortest paths;
//! * merging uses a deterministic adaptation of DBSCAN: the data units are
//!   flow clusters, there is no minimum cardinality, and each round is
//!   seeded by the unprocessed flow with the longest representative route;
//! * the Euclidean lower bound (ELB) `d_E(a,b) ≤ d_N(a,b)` filters
//!   candidate pairs before any shortest-path computation: if the minimum
//!   Euclidean distance between the endpoint sets exceeds ε, the network
//!   distance must too (Section III-C3).
//!
//! On top of the paper's design this implementation layers three
//! output-preserving optimisations:
//!
//! * **ALT landmark bounds** ([`AltLandmarks`]): the pre-filter becomes
//!   `max(euclidean, alt)`, which is still a lower bound on the network
//!   distance, so it only ever skips *more* pairs — never different ones.
//! * **Demand-driven endpoint tables**: in the default
//!   [`RouteDistance::Endpoints`] + [`SpStrategy::AStar`] configuration,
//!   a neighbourhood scan first bounds each surviving pair's endpoint
//!   Hausdorff distance from below. Only pairs that bound leaves open
//!   need distances, and only to the endpoints whose own bound is within
//!   ε; one bounded one-to-many Dijkstra per scanned endpoint fetches
//!   those the endpoint memo lacks. The decisions equal the per-pair
//!   bounded searches they replace.
//! * **Deterministic parallel scans** ([`Executor`]): candidate pairs of
//!   one neighbourhood scan are independent, so they fan out across
//!   `config.threads` workers. Results and statistics are folded in index
//!   order, and under a [`Control`] the executor's speculative-charging
//!   protocol lands interrupts at the exact op index the sequential loop
//!   would — the clustering output is bit-identical for any thread count.
//!
//! Every entry point refines through a [`SessionCache`] of the ALT
//! landmarks and the endpoint memo. The batch entry points use a fresh
//! one per refinement; an online session ([`crate::IncrementalNeat`])
//! keeps its own between refinements, so a refinement only expands from
//! an endpoint towards targets it has not measured yet (DESIGN.md §18).

use crate::concache::{FxBuild, ShardedMap};
use crate::config::{NeatConfig, RouteDistance, SpStrategy};
use crate::control::PhaseStatus;
use crate::error::NeatError;
use crate::model::{FlowCluster, TrajectoryCluster};
use neat_exec::Executor;
use neat_rnet::alt::AltLandmarks;
use neat_rnet::path::TravelMode;
use neat_rnet::{NodeId, RoadNetwork, ShortestPathEngine};
use neat_runctl::{Control, Interrupt, OverrunMode};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet, VecDeque};

/// Instrumentation counters for the Figure-7 ablation (ELB vs Dijkstra).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Phase3Stats {
    /// Ordered flow pairs examined while retrieving ε-neighbourhoods.
    pub pairs_considered: u64,
    /// Pairs eliminated by the Euclidean lower bound before any
    /// shortest-path computation.
    pub elb_skips: u64,
    /// Pairs that survived the Euclidean bound but were eliminated by
    /// the ALT landmark bound (still before any shortest path).
    pub alt_skips: u64,
    /// Individual point-to-point shortest-path computations performed
    /// (up to four per surviving pair, minus cache hits).
    pub sp_computations: u64,
    /// Node-pair distance lookups answered by a memo — the sharded pair
    /// cache or the endpoint memo of the table path.
    pub sp_cache_hits: u64,
    /// Distinct flow endpoints scanned through the endpoint-table path in
    /// one refinement: the endpoints of every scanned flow with at least
    /// one candidate left after the bound filter, each counted once. It
    /// is not the number of expansions run — an endpoint whose needed
    /// distances the memo already holds, or that needs none, runs no
    /// expansion (see [`SessionCacheStats::expansions`]) — so it stays a
    /// function of the flow set.
    pub one_to_many_scans: u64,
}

impl Phase3Stats {
    /// Folds `other` into `self` (per-item deltas are accumulated in
    /// item order by the scan loops).
    pub fn absorb(&mut self, other: &Phase3Stats) {
        self.pairs_considered += other.pairs_considered;
        self.elb_skips += other.elb_skips;
        self.alt_skips += other.alt_skips;
        self.sp_computations += other.sp_computations;
        self.sp_cache_hits += other.sp_cache_hits;
        self.one_to_many_scans += other.one_to_many_scans;
    }
}

/// Output of Phase 3.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase3Output {
    /// Final trajectory clusters, in formation order.
    pub clusters: Vec<TrajectoryCluster>,
    /// Instrumentation counters.
    pub stats: Phase3Stats,
}

/// Phase-3 state an online session keeps across refinements of a
/// changing flow set, on one road network under one configuration.
///
/// Every entry equals what a cold refinement recomputes, so none of it
/// is persisted: a resumed session starts empty and refills on demand.
///
/// * `alt` — the ALT landmarks. Their selection and tables depend only
///   on the network and `alt_landmarks`, so the first refinement that
///   needs them builds them and later ones reuse them.
/// * `memo` — `(source, target) → Some(d)` when the undirected network
///   distance `d ≤ ε`, `None` when it is farther (or unreachable).
///   Entries are measured by one-to-many expansions *from the source*,
///   and a settled node's distance does not depend on which targets the
///   expansion was pruned to, so each entry is bit-identical to what an
///   unpruned ε-ball from the source gives. A scan only adds the pairs
///   an open decision needs (DESIGN.md §18). Pairs whose source or
///   target is no longer the endpoint of a retained flow are evicted at
///   the start of every refinement, which bounds the memo by the window.
///
/// The batch entry points refine through a fresh cache of their own, so
/// the session and the batch run one code path.
///
/// # Budget semantics
///
/// Under a [`Control`], every refinement — cold or warm — is charged one
/// settlement per node finalised by the expansions it actually runs, and
/// nothing for lookups the memo answers or for endpoints no open
/// decision needs. An interrupted expansion stores no pair. The landmark
/// build is charged to the refinement that runs it and never again; an
/// interrupted build stores nothing and the next refinement retries it.
/// So a warm session spends less budget than a cold one on the same
/// flows, and a tight budget may stop it at a later point, but a
/// refinement that completes returns the same clusters and
/// [`Phase3Stats`] either way.
#[derive(Debug, Clone, Default)]
pub(crate) struct SessionCache {
    alt: Option<AltLandmarks>,
    memo: EndpointMemo,
}

/// The bounded endpoint-distance memo of a [`SessionCache`].
#[derive(Debug, Clone, Default)]
struct EndpointMemo {
    pairs: HashMap<u64, Option<f64>, FxBuild>,
    /// One-to-many expansions run by the most recent refinement.
    expansions: u64,
}

/// What an online session's Phase-3 cache holds and did — reported
/// apart from [`Phase3Stats`], which stays a function of the flow set
/// alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionCacheStats {
    /// Endpoint pairs held by the distance memo.
    pub memo_pairs: usize,
    /// One-to-many expansions the most recent refinement actually ran:
    /// at most one per scanned endpoint (`one_to_many_scans`), and none
    /// for an endpoint whose needed distances the memo already held or
    /// that no open decision needed.
    pub expansions: u64,
}

impl SessionCache {
    /// Memo size and the last refinement's expansion count.
    pub(crate) fn stats(&self) -> SessionCacheStats {
        SessionCacheStats {
            memo_pairs: self.memo.pairs.len(),
            expansions: self.memo.expansions,
        }
    }
}

impl EndpointMemo {
    /// Starts a refinement of `flows`: evicts every pair with a node
    /// that is not an endpoint of `flows` and resets the expansion count.
    fn start_refinement(&mut self, flows: &[FlowCluster]) {
        let mut live: Vec<u64> = flows
            .iter()
            .flat_map(|f| {
                let (a, b) = f.endpoints();
                [a.index() as u64, b.index() as u64]
            })
            .collect();
        live.sort_unstable();
        live.dedup();
        let is_live = |n: u64| live.binary_search(&n).is_ok();
        self.pairs
            .retain(|&key, _| is_live(key >> 32) && is_live(key & 0xFFFF_FFFF));
        self.expansions = 0;
    }

    /// The memoised distance from `src` to `target`: `None` when it was
    /// measured farther than ε or was never measured.
    fn get(&self, src: NodeId, target: NodeId) -> Option<f64> {
        self.pairs.get(&memo_key(src, target)).copied().flatten()
    }
}

/// Directed memo key for the distance measured from `src` to `target`.
fn memo_key(src: NodeId, target: NodeId) -> u64 {
    ((src.index() as u64) << 32) | (target.index() as u64)
}

/// Packs a symmetric node pair into one cache key (smaller index in the
/// high half, so `(a, b)` and `(b, a)` collide by construction).
fn pair_key(lo: NodeId, hi: NodeId) -> u64 {
    debug_assert!(lo <= hi);
    ((lo.index() as u64) << 32) | (hi.index() as u64)
}

/// The two point sets a flow-pair distance compares under `points`.
fn point_sets(
    fi: &FlowCluster,
    fj: &FlowCluster,
    points: RouteDistance,
) -> (Vec<NodeId>, Vec<NodeId>) {
    match points {
        RouteDistance::Endpoints => {
            let (a1, a2) = fi.endpoints();
            let (b1, b2) = fj.endpoints();
            (vec![a1, a2], vec![b1, b2])
        }
        RouteDistance::FullRoute => (fi.node_chain().to_vec(), fj.node_chain().to_vec()),
    }
}

/// Network-distance oracle: sharded symmetric-pair memo and optional ALT
/// landmark tables. The endpoint-table path keeps its distances in an
/// [`EndpointMemo`] passed to each call.
///
/// The oracle itself is shared (`&self`) across scan workers; mutable
/// scratch state — the shortest-path engine and the statistics deltas —
/// is supplied per call so each worker owns its own.
struct DistanceOracle<'a> {
    net: &'a RoadNetwork,
    strategy: SpStrategy,
    epsilon: f64,
    use_elb: bool,
    /// Symmetric `(NodeId, NodeId) → Option<distance>` memo. Values are
    /// computed under the shard lock, so concurrent scans compute each
    /// pair exactly once and `sp_computations` stays exact.
    pair_cache: ShardedMap<Option<f64>>,
    /// Landmark tables for the ALT lower bound (`None` when disabled).
    alt: Option<&'a AltLandmarks>,
}

impl<'a> DistanceOracle<'a> {
    /// Undirected network distance `d_N(a, b)`, memoised symmetrically.
    ///
    /// Phase 3 only needs to decide `d_N ≤ ε`, so the A* strategy bounds
    /// its search at ε and returns `None` for anything farther (or
    /// unreachable); the Dijkstra strategy reproduces the paper's
    /// unbounded network-expansion baseline.
    fn network_distance(
        &self,
        engine: &mut ShortestPathEngine,
        a: NodeId,
        b: NodeId,
        ctl: Option<&Control>,
        stats: &mut Phase3Stats,
    ) -> Result<Option<f64>, Interrupt> {
        if a == b {
            return Ok(Some(0.0));
        }
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let (d, fresh) = self
            .pair_cache
            .try_get_or_insert_with(pair_key(lo, hi), || match (self.strategy, ctl) {
                (SpStrategy::AStar, None) => Ok(engine.distance_bounded(
                    self.net,
                    lo,
                    hi,
                    TravelMode::Undirected,
                    self.epsilon,
                )),
                (SpStrategy::AStar, Some(c)) => engine.distance_bounded_ctl(
                    self.net,
                    lo,
                    hi,
                    TravelMode::Undirected,
                    self.epsilon,
                    c,
                ),
                (SpStrategy::Dijkstra, None) => {
                    // Plain unbounded network expansion: the paper's
                    // opt-NEAT-Dijkstra baseline (Figure 7).
                    Ok(engine.distance_plain(self.net, lo, hi))
                }
                (SpStrategy::Dijkstra, Some(c)) => engine.distance_plain_ctl(self.net, lo, hi, c),
            })?;
        if fresh {
            stats.sp_computations += 1;
        } else {
            stats.sp_cache_hits += 1;
        }
        Ok(d)
    }

    /// Modified Hausdorff distance between two representative routes:
    /// over the endpoint pairs (Definition 11, the paper's first
    /// prototype) or over every junction of both routes
    /// ([`RouteDistance::FullRoute`]). `None` when some required distance
    /// exceeds ε (A* strategy) or is unreachable.
    fn flow_distance(
        &self,
        engine: &mut ShortestPathEngine,
        fi: &FlowCluster,
        fj: &FlowCluster,
        points: RouteDistance,
        ctl: Option<&Control>,
        stats: &mut Phase3Stats,
    ) -> Result<Option<f64>, Interrupt> {
        let (xs, ys) = point_sets(fi, fj, points);
        let mut h = 0.0f64;
        for &a in &xs {
            let mut m = f64::INFINITY;
            for &b in &ys {
                if let Some(d) = self.network_distance(engine, a, b, ctl, stats)? {
                    m = m.min(d);
                }
            }
            if !m.is_finite() {
                return Ok(None);
            }
            h = h.max(m);
        }
        for &b in &ys {
            let mut m = f64::INFINITY;
            for &a in &xs {
                if let Some(d) = self.network_distance(engine, b, a, ctl, stats)? {
                    m = m.min(d);
                }
            }
            if !m.is_finite() {
                return Ok(None);
            }
            h = h.max(m);
        }
        Ok(Some(h))
    }

    /// Minimum Euclidean distance between the compared point sets — the
    /// ELB pre-filter of Section III-C3. The point sets must match the
    /// route-distance setting: when every cross Euclidean distance
    /// exceeds ε, every network distance does too, so every `min` term of
    /// the Hausdorff (and hence the Hausdorff itself) exceeds ε.
    fn min_euclidean(&self, fi: &FlowCluster, fj: &FlowCluster, points: RouteDistance) -> f64 {
        let (xs, ys) = point_sets(fi, fj, points);
        let mut m = f64::INFINITY;
        for &a in &xs {
            for &b in &ys {
                m = m.min(self.net.euclidean_distance(a, b));
            }
        }
        m
    }

    /// `true` when the lower-bound pre-filter proves the pair distance
    /// exceeds ε, charging the skip to the right counter: `elb_skips`
    /// when the Euclidean bound alone suffices, `alt_skips` when the
    /// landmark-tightened bound `max(euclidean, alt)` was needed. Both
    /// bounds never exceed the true network distance, so a filtered pair
    /// could never have merged — filtering is output-preserving.
    fn bound_filters_out(
        &self,
        fi: &FlowCluster,
        fj: &FlowCluster,
        points: RouteDistance,
        stats: &mut Phase3Stats,
    ) -> bool {
        if !self.use_elb {
            return false;
        }
        let (xs, ys) = point_sets(fi, fj, points);
        let mut min_e = f64::INFINITY;
        let mut min_combined = f64::INFINITY;
        for &a in &xs {
            for &b in &ys {
                let (e, c) = self.pair_bound(a, b);
                min_e = min_e.min(e);
                min_combined = min_combined.min(c);
            }
        }
        self.charge_skip(min_e, min_combined, stats)
    }

    /// The Euclidean distance between `a` and `b`, and the combined lower
    /// bound `max(euclidean, alt)` on their network distance (the
    /// Euclidean one alone without landmarks).
    fn pair_bound(&self, a: NodeId, b: NodeId) -> (f64, f64) {
        let e = self.net.euclidean_distance(a, b);
        match &self.alt {
            Some(alt) => (e, e.max(alt.lower_bound(a, b))),
            None => (e, e),
        }
    }

    /// The filter verdict from the minimum Euclidean and combined bounds
    /// over a pair's compared points, charging a skip to `elb_skips` or
    /// `alt_skips`.
    fn charge_skip(&self, min_e: f64, min_combined: f64, stats: &mut Phase3Stats) -> bool {
        if min_e > self.epsilon {
            stats.elb_skips += 1;
            true
        } else if min_combined > self.epsilon {
            stats.alt_skips += 1;
            true
        } else {
            false
        }
    }

    /// Per-pair lower bounds of one endpoint scan: `lik` bounds
    /// `d_N(a_i, b_k)` between endpoint `a_i` of the scanned flow `fi`
    /// and endpoint `b_k` of `fj` by `max(euclidean, alt)` (0 for a shared
    /// node). Under `use_elb` the pair is filtered exactly like
    /// [`DistanceOracle::bound_filters_out`] — same counters, same
    /// verdict — and `None` means it was skipped. The bounds are computed
    /// even without `use_elb`: the endpoint tables target with them.
    fn endpoint_bounds(
        &self,
        fi: &FlowCluster,
        fj: &FlowCluster,
        stats: &mut Phase3Stats,
    ) -> Option<EndpointBounds> {
        let (a1, a2) = fi.endpoints();
        let (b1, b2) = fj.endpoints();
        let mut min_e = f64::INFINITY;
        let mut bounds = [0.0; 4];
        for (slot, (a, b)) in bounds
            .iter_mut()
            .zip([(a1, b1), (a1, b2), (a2, b1), (a2, b2)])
        {
            let (e, combined) = self.pair_bound(a, b);
            min_e = min_e.min(e);
            *slot = combined;
        }
        let min_combined = bounds.iter().copied().fold(f64::INFINITY, f64::min);
        if self.use_elb && self.charge_skip(min_e, min_combined, stats) {
            None
        } else {
            Some(bounds)
        }
    }

    /// Makes the memo hold every distance an open decision of this scan
    /// still needs, so that [`DistanceOracle::table_near`] then decides
    /// each survivor exactly as a table over all flow endpoints would.
    ///
    /// A survivor whose [`hausdorff_bound`] exceeds ε is far whatever the
    /// distances are, so it needs none. For the others, endpoint `a_i` of
    /// the scanned flow needs each `b_k` with `lik ≤ ε`: a pair above ε is
    /// farther without a search, and a shared node is at 0. One
    /// target-pruned expansion per scanned endpoint runs towards the
    /// targets the memo lacks; an interrupted one stores nothing.
    /// `one_to_many_scans` counts each scanned endpoint once per
    /// refinement whether or not it expanded, so the counter stays a
    /// function of the flow set.
    #[allow(clippy::too_many_arguments)]
    fn fill_memo(
        &self,
        engine: &mut ShortestPathEngine,
        (a1, a2): (NodeId, NodeId),
        survivors: impl Iterator<Item = ((NodeId, NodeId), EndpointBounds)>,
        ctl: Option<&Control>,
        stats: &mut Phase3Stats,
        memo: &mut EndpointMemo,
        scanned: &mut HashSet<NodeId, FxBuild>,
    ) -> Result<(), Interrupt> {
        let (mut t1, mut t2) = (Vec::new(), Vec::new());
        for ((b1, b2), l) in survivors {
            if hausdorff_bound(l) > self.epsilon {
                continue;
            }
            let [l11, l12, l21, l22] = l;
            for (b, l1k, l2k) in [(b1, l11, l21), (b2, l12, l22)] {
                if l1k <= self.epsilon && b != a1 {
                    t1.push(b);
                }
                if l2k <= self.epsilon && b != a2 {
                    t2.push(b);
                }
            }
        }
        if a1 == a2 {
            t1.append(&mut t2);
        }
        self.expand_toward(engine, a1, t1, ctl, memo)?;
        if scanned.insert(a1) {
            stats.one_to_many_scans += 1;
        }
        if a2 != a1 {
            self.expand_toward(engine, a2, t2, ctl, memo)?;
            if scanned.insert(a2) {
                stats.one_to_many_scans += 1;
            }
        }
        Ok(())
    }

    /// One bounded expansion from `src`, pruned to the `targets` the memo
    /// does not hold yet; none when it holds them all. Each target enters
    /// the memo with its settled distance, or `None` when the ε-ball ran
    /// out first. Charged to `ctl` one settlement per finalised node.
    fn expand_toward(
        &self,
        engine: &mut ShortestPathEngine,
        src: NodeId,
        mut targets: Vec<NodeId>,
        ctl: Option<&Control>,
        memo: &mut EndpointMemo,
    ) -> Result<(), Interrupt> {
        targets.retain(|&b| !memo.pairs.contains_key(&memo_key(src, b)));
        if targets.is_empty() {
            return Ok(());
        }
        let found = engine.distances_within_targets_ctl(
            self.net,
            src,
            TravelMode::Undirected,
            self.epsilon,
            Some(&targets),
            ctl,
        )?;
        memo.expansions += 1;
        for b in targets {
            memo.pairs.insert(memo_key(src, b), found.get(b));
        }
        Ok(())
    }

    /// Endpoint-pair Hausdorff decision (`d ≤ ε`) answered entirely from
    /// the memo, for a survivor of the scan of the flow with endpoints
    /// `ends` after [`DistanceOracle::fill_memo`]. A pair the memo lacks
    /// is either provably farther than ε (its bound exceeds ε) or belongs
    /// to a survivor whose Hausdorff bound already exceeds ε; reading it
    /// as "farther than ε" can only raise the computed Hausdorff, so it
    /// never turns a far pair near. The decision is therefore identical
    /// to the bounded point-to-point searches of
    /// [`DistanceOracle::flow_distance`].
    fn table_near(
        &self,
        memo: &EndpointMemo,
        ends: (NodeId, NodeId),
        fj: &FlowCluster,
        stats: &mut Phase3Stats,
    ) -> bool {
        let (b1, b2) = fj.endpoints();
        let mut look = |a: NodeId, b: NodeId| -> Option<f64> {
            if a == b {
                return Some(0.0);
            }
            stats.sp_cache_hits += 1;
            memo.get(a, b)
        };
        let d11 = look(ends.0, b1);
        let d12 = look(ends.0, b2);
        let d21 = look(ends.1, b1);
        let d22 = look(ends.1, b2);
        let min2 = |x: Option<f64>, y: Option<f64>| match (x, y) {
            (Some(p), Some(q)) => Some(p.min(q)),
            (Some(p), None) | (None, Some(p)) => Some(p),
            (None, None) => None,
        };
        // Forward terms pair each endpoint of the scanned flow with its
        // nearest endpoint of `fj`; backward terms are read from the same
        // four distances (the undirected metric is symmetric).
        let mut h = 0.0f64;
        for term in [
            min2(d11, d12),
            min2(d21, d22),
            min2(d11, d21),
            min2(d12, d22),
        ] {
            match term {
                Some(d) => h = h.max(d),
                // Some min-term exceeds ε or is unreachable: not near.
                None => return false,
            }
        }
        h <= self.epsilon
    }
}

/// Lower bounds `[l11, l12, l21, l22]` on the four endpoint distances of
/// a flow pair, `lik` for `d_N(a_i, b_k)` (see
/// [`DistanceOracle::endpoint_bounds`]).
type EndpointBounds = [f64; 4];

/// Lower bound on the endpoint Hausdorff distance of a flow pair: the
/// Definition-11 formula of [`DistanceOracle::table_near`] over the
/// per-pair bounds. `min` and `max` are monotone, so with every
/// `lik ≤ d_N(a_i, b_k)` the result never exceeds the exact distance.
fn hausdorff_bound([l11, l12, l21, l22]: EndpointBounds) -> f64 {
    l11.min(l12)
        .max(l21.min(l22))
        .max(l11.min(l21))
        .max(l12.min(l22))
}

/// Runs Phase 3: merges flow clusters whose modified Hausdorff network
/// distance is within `config.epsilon`, using the deterministic DBSCAN
/// adaptation described in the module docs.
///
/// # Errors
///
/// Returns [`NeatError::InvalidConfig`] when the configuration fails
/// validation.
pub fn refine_flow_clusters(
    net: &RoadNetwork,
    flows: Vec<FlowCluster>,
    config: &NeatConfig,
) -> Result<Phase3Output, NeatError> {
    refine_inner(net, flows, config, None, None).map(|c| c.output)
}

/// Result of a controlled Phase 3.
#[derive(Debug, Clone)]
pub struct ControlledRefinement {
    /// The refinement output: always covers *every* input flow (flows
    /// not reached before a stop become singleton clusters).
    pub output: Phase3Output,
    /// How the phase ended.
    pub status: PhaseStatus,
    /// `true` when the ELB-only continuation decided some suffix of the
    /// pair comparisons (degradation ladder rung between "exhaustive"
    /// and "skip refinement").
    pub elb_only: bool,
}

/// `true` when interrupt `why` should switch the phase to the ELB-only
/// continuation rather than stop it: budget-style interrupts under
/// [`OverrunMode::Degrade`], and only if not already degraded.
fn should_degrade(why: Interrupt, ctl: &Control, already_degraded: bool) -> bool {
    !already_degraded && !why.is_cancellation() && ctl.overrun() == OverrunMode::Degrade
}

/// Degradation note recorded when exact distances are abandoned.
const DEGRADE_NOTE: &str = "phase3: exact network distances -> ELB-only";

/// Decides candidate pairs with the Euclidean lower bound alone — the
/// degraded continuation. `skip_first_poll` is set when the interrupt
/// that triggered degradation already consumed the current pair's cancel
/// point.
///
/// # Errors
///
/// Returns the interrupt on cancellation (the only poll left here).
#[allow(clippy::too_many_arguments)]
fn scan_elb_only(
    oracle: &DistanceOracle,
    flows: &[FlowCluster],
    cur: usize,
    cands: &[usize],
    config: &NeatConfig,
    ctl: Option<&Control>,
    skip_first_poll: bool,
    stats: &mut Phase3Stats,
    label: &mut [Option<usize>],
    queue: &mut VecDeque<usize>,
    gid: usize,
) -> Result<(), Interrupt> {
    for (k, &other) in cands.iter().enumerate() {
        if !(skip_first_poll && k == 0) {
            if let Some(c) = ctl {
                c.check_cancel()?;
            }
        }
        stats.pairs_considered += 1;
        if oracle.min_euclidean(&flows[cur], &flows[other], config.route_distance) <= config.epsilon
        {
            label[other] = Some(gid);
            queue.push_back(other);
        }
    }
    Ok(())
}

/// One sequential exhaustive neighbourhood scan for the configurations
/// whose per-pair shortest-path work is charged to `ctl` as it happens
/// (full-route distances and the Dijkstra ablation). May flip the phase
/// into the degraded continuation mid-scan.
///
/// # Errors
///
/// Returns the interrupt that stops refinement outright.
#[allow(clippy::too_many_arguments)]
fn scan_exact_sequential(
    oracle: &DistanceOracle,
    engine: &mut ShortestPathEngine,
    flows: &[FlowCluster],
    cur: usize,
    cands: &[usize],
    config: &NeatConfig,
    ctl: Option<&Control>,
    stats: &mut Phase3Stats,
    degraded: &mut Option<Interrupt>,
    label: &mut [Option<usize>],
    queue: &mut VecDeque<usize>,
    gid: usize,
) -> Result<(), Interrupt> {
    for &other in cands {
        // One cancel point per candidate pair. Once degraded the budget
        // is knowingly spent, so only cancellation polls.
        if let Some(c) = ctl {
            let verdict = if degraded.is_some() {
                c.check_cancel()
            } else {
                c.check()
            };
            if let Err(why) = verdict {
                if should_degrade(why, c, degraded.is_some()) {
                    *degraded = Some(why);
                    c.degrade(DEGRADE_NOTE);
                } else {
                    return Err(why);
                }
            }
        }
        stats.pairs_considered += 1;
        let near = if degraded.is_some() {
            // ELB-only continuation: the Euclidean lower bound is the
            // distance — no further shortest paths.
            oracle.min_euclidean(&flows[cur], &flows[other], config.route_distance)
                <= config.epsilon
        } else if oracle.bound_filters_out(&flows[cur], &flows[other], config.route_distance, stats)
        {
            false
        } else {
            match oracle.flow_distance(
                engine,
                &flows[cur],
                &flows[other],
                config.route_distance,
                ctl,
                stats,
            ) {
                Ok(Some(d)) => d <= config.epsilon,
                Ok(None) => false,
                Err(why) => {
                    // A shortest path hit the budget mid-pair. `ctl` must
                    // be Some for an interrupt to surface; fall back to a
                    // stop if not.
                    match ctl {
                        Some(c) if should_degrade(why, c, false) => {
                            *degraded = Some(why);
                            c.degrade(DEGRADE_NOTE);
                            // Decide this pair by the lower bound.
                            oracle.min_euclidean(&flows[cur], &flows[other], config.route_distance)
                                <= config.epsilon
                        }
                        _ => return Err(why),
                    }
                }
            }
        };
        if near {
            label[other] = Some(gid);
            queue.push_back(other);
        }
    }
    Ok(())
}

/// The Phase-3 body behind every entry point. With a `cache` (an online
/// session) the landmarks and endpoint distances persist between calls;
/// the clusters, status and [`Phase3Stats`] of a refinement that
/// completes equal the cold ones, and `SessionCache` states the budget
/// semantics.
///
/// Under a [`Control`] the phase walks the in-phase degradation ladder:
///
/// 1. **Exhaustive** — exact network distances (with the ELB/ALT
///    pre-filter when configured), one cancel point per candidate pair
///    and per settled node inside each shortest path or one-to-many
///    expansion.
/// 2. **ELB-only** — on budget exhaustion under [`OverrunMode::Degrade`]
///    the remaining pairs are decided by the Euclidean lower bound alone
///    (`d_E ≤ ε`), which costs no shortest paths. Only cancellation is
///    polled from here on: the budget is knowingly spent.
/// 3. **Stop** — on cancellation (any rung) or any interrupt under
///    [`OverrunMode::Partial`], refinement stops; flows not yet grouped
///    are emitted as singleton clusters so the output stays a valid
///    partition of the input.
///
/// Interrupts are reported in the returned status, never as errors.
pub(crate) fn refine_inner(
    net: &RoadNetwork,
    flows: Vec<FlowCluster>,
    config: &NeatConfig,
    ctl: Option<&Control>,
    cache: Option<&mut SessionCache>,
) -> Result<ControlledRefinement, NeatError> {
    config.validate()?;
    // A cold entry point refines through a cache of its own, dropped
    // with the refinement: one code path, and a session only adds reuse.
    let mut cold = SessionCache::default();
    let SessionCache {
        alt: alt_slot,
        memo,
    } = cache.unwrap_or(&mut cold);
    memo.start_refinement(&flows);
    let n = flows.len();
    if n == 0 {
        return Ok(ControlledRefinement {
            output: Phase3Output {
                clusters: Vec::new(),
                stats: Phase3Stats::default(),
            },
            status: PhaseStatus::Complete,
            elb_only: false,
        });
    }

    // Deterministic processing order: longest representative route first
    // (ties by fewer members, then original index).
    let mut order: Vec<usize> = (0..n).collect();
    let lengths: Vec<f64> = flows.iter().map(|f| f.route_length(net)).collect();
    order.sort_by(|&i, &j| {
        lengths[j]
            .total_cmp(&lengths[i])
            .then_with(|| flows[i].members().len().cmp(&flows[j].members().len()))
            .then_with(|| i.cmp(&j))
    });

    let mut engine = ShortestPathEngine::new(net);
    let mut stats = Phase3Stats::default();
    // Some(why) once the ELB-only continuation took over.
    let mut degraded: Option<Interrupt> = None;
    // Some(why) once refinement stopped outright.
    let mut stopped: Option<Interrupt> = None;

    // ALT landmark preprocessing: exactly `alt_landmarks` full Dijkstra
    // expansions, charged to `ctl` like the query-time searches whose
    // skips pay for them. Only worthwhile when the ELB filter runs. A
    // session builds them into its cache once; a cold run builds its own.
    let want_alt = config.use_elb && config.alt_landmarks > 0 && n >= 2;
    if want_alt && alt_slot.is_none() {
        match AltLandmarks::build_ctl(
            net,
            &mut engine,
            config.alt_landmarks,
            TravelMode::Undirected,
            ctl,
        ) {
            Ok(a) => *alt_slot = Some(a),
            Err(why) => match ctl {
                Some(c) if should_degrade(why, c, false) => {
                    degraded = Some(why);
                    c.degrade(DEGRADE_NOTE);
                }
                _ => stopped = Some(why),
            },
        }
    }
    let alt = if want_alt { alt_slot.as_ref() } else { None };

    // Endpoint tables replace bounded point-to-point searches only where
    // both are defined: endpoint distances under the bounded strategy.
    let use_tables = config.endpoint_tables
        && config.route_distance == RouteDistance::Endpoints
        && config.sp_strategy == SpStrategy::AStar;
    let oracle = DistanceOracle {
        net,
        strategy: config.sp_strategy,
        epsilon: config.epsilon,
        use_elb: config.use_elb,
        pair_cache: ShardedMap::new(),
        alt,
    };
    let exec = Executor::new(config.threads);
    // Endpoints whose scan reached the table stage this refinement
    // (`Phase3Stats::one_to_many_scans`).
    let mut scanned: HashSet<NodeId, FxBuild> = HashSet::default();

    let mut label: Vec<Option<usize>> = vec![None; n];
    let mut groups: Vec<Vec<usize>> = Vec::new();

    if stopped.is_none() {
        'outer: for &seed in &order {
            if label[seed].is_some() {
                continue;
            }
            let gid = groups.len();
            groups.push(Vec::new());
            // DBSCAN-style expansion with a FIFO frontier; no minPts — every
            // ε-reachable flow joins the cluster (Section III-C2, mod. 3).
            let mut queue = VecDeque::from([seed]);
            label[seed] = Some(gid);
            while let Some(cur) = queue.pop_front() {
                groups[gid].push(cur);
                // ε-neighbourhood of `cur` among unlabelled flows, scanned
                // in index order for determinism (queued flows are already
                // labelled, so each pair is examined at most once).
                let cands: Vec<usize> = (0..n).filter(|&o| label[o].is_none()).collect();
                if cands.is_empty() {
                    continue;
                }

                let scan: Result<(), Interrupt> = if degraded.is_some() {
                    scan_elb_only(
                        &oracle, &flows, cur, &cands, config, ctl, false, &mut stats, &mut label,
                        &mut queue, gid,
                    )
                } else if use_tables {
                    // Pass 1 — bound filter (ELB + ALT): pure geometry,
                    // exactly one op per pair, parallelised by the
                    // deterministic executor (results and charges fold
                    // in index order, so interrupts land at the
                    // sequential op index). Expansions run *after* the
                    // filter, and only towards the endpoints the
                    // survivors' open decisions need: a scan whose
                    // candidates are all bound-filtered never pays for
                    // one, which is where the ALT skips turn into saved
                    // Dijkstras.
                    let filter = |k: usize, ds: &mut Phase3Stats| {
                        ds.pairs_considered = 1;
                        oracle.endpoint_bounds(&flows[cur], &flows[cands[k]], ds)
                    };
                    let (kept, halted) = match ctl {
                        Some(c) => {
                            let res = exec.try_map_ctl(
                                cands.len(),
                                c,
                                || (),
                                |k, (), cc| {
                                    cc.check()?;
                                    let mut ds = Phase3Stats::default();
                                    let keep = filter(k, &mut ds);
                                    Ok((keep, ds))
                                },
                            );
                            (res.items, res.halted)
                        }
                        None => (
                            exec.map(cands.len(), |k| {
                                let mut ds = Phase3Stats::default();
                                (filter(k, &mut ds), ds)
                            }),
                            None,
                        ),
                    };
                    let done = kept.len();
                    let mut survivors: Vec<(usize, EndpointBounds)> = Vec::new();
                    for (k, (bounds, ds)) in kept.into_iter().enumerate() {
                        stats.absorb(&ds);
                        if let Some(l) = bounds {
                            survivors.push((k, l));
                        }
                    }
                    match halted {
                        Some(why) => match ctl {
                            Some(c) if should_degrade(why, c, false) => {
                                degraded = Some(why);
                                c.degrade(DEGRADE_NOTE);
                                // Degraded decision = the bound itself:
                                // prefix survivors join (their op is
                                // already paid; the lower bound passing
                                // is exactly the ELB-only policy, made
                                // no looser by the ALT tightening). The
                                // pair whose check fired consumed its
                                // cancel point.
                                for (k, _) in survivors {
                                    label[cands[k]] = Some(gid);
                                    queue.push_back(cands[k]);
                                }
                                scan_elb_only(
                                    &oracle,
                                    &flows,
                                    cur,
                                    &cands[done..],
                                    config,
                                    ctl,
                                    true,
                                    &mut stats,
                                    &mut label,
                                    &mut queue,
                                    gid,
                                )
                            }
                            _ => Err(why),
                        },
                        None if survivors.is_empty() => Ok(()),
                        None => {
                            let ends = flows[cur].endpoints();
                            match oracle.fill_memo(
                                &mut engine,
                                ends,
                                survivors
                                    .iter()
                                    .map(|&(k, l)| (flows[cands[k]].endpoints(), l)),
                                ctl,
                                &mut stats,
                                memo,
                                &mut scanned,
                            ) {
                                Err(why) => match ctl {
                                    Some(c) if should_degrade(why, c, false) => {
                                        // A one-to-many expansion hit the
                                        // budget. Every pair this scan is
                                        // already bound-decided; survivors
                                        // join under the ELB-only policy.
                                        degraded = Some(why);
                                        c.degrade(DEGRADE_NOTE);
                                        for (k, _) in survivors {
                                            label[cands[k]] = Some(gid);
                                            queue.push_back(cands[k]);
                                        }
                                        Ok(())
                                    }
                                    _ => Err(why),
                                },
                                Ok(()) => {
                                    // Pass 2 — exact decisions for the
                                    // survivors: pure memo lookups, no
                                    // cancel points left to consume.
                                    for (k, _) in survivors {
                                        if oracle.table_near(
                                            memo,
                                            ends,
                                            &flows[cands[k]],
                                            &mut stats,
                                        ) {
                                            label[cands[k]] = Some(gid);
                                            queue.push_back(cands[k]);
                                        }
                                    }
                                    Ok(())
                                }
                            }
                        }
                    }
                } else if ctl.is_some() || !exec.is_parallel_for(cands.len()) {
                    // Controlled full-route / Dijkstra scans stay
                    // sequential: their per-pair op counts depend on the
                    // search, so live charging is the only exact protocol.
                    scan_exact_sequential(
                        &oracle,
                        &mut engine,
                        &flows,
                        cur,
                        &cands,
                        config,
                        ctl,
                        &mut stats,
                        &mut degraded,
                        &mut label,
                        &mut queue,
                        gid,
                    )
                } else {
                    // Uncontrolled exact scan: per-worker engines, shared
                    // sharded memo. Decisions are order-independent, and
                    // compute-under-lock keeps the counters exact.
                    let res = exec.map_ctx(
                        cands.len(),
                        || ShortestPathEngine::new(net),
                        |k, eng| {
                            let mut ds = Phase3Stats {
                                pairs_considered: 1,
                                ..Phase3Stats::default()
                            };
                            let other = &flows[cands[k]];
                            let near = if oracle.bound_filters_out(
                                &flows[cur],
                                other,
                                config.route_distance,
                                &mut ds,
                            ) {
                                false
                            } else {
                                match oracle.flow_distance(
                                    eng,
                                    &flows[cur],
                                    other,
                                    config.route_distance,
                                    None,
                                    &mut ds,
                                ) {
                                    Ok(Some(d)) => d <= config.epsilon,
                                    // Uncontrolled searches cannot be
                                    // interrupted; Err is unreachable.
                                    Ok(None) | Err(_) => false,
                                }
                            };
                            (near, ds)
                        },
                    );
                    for (k, (near, ds)) in res.into_iter().enumerate() {
                        stats.absorb(&ds);
                        if near {
                            label[cands[k]] = Some(gid);
                            queue.push_back(cands[k]);
                        }
                    }
                    Ok(())
                };

                if let Err(why) = scan {
                    stopped = Some(why);
                    // Flows still queued were already judged ε-reachable:
                    // group them before stopping.
                    for &rest in &queue {
                        groups[gid].push(rest);
                    }
                    break 'outer;
                }
            }
        }
    }

    // On a stop, flows never reached become singleton clusters (in
    // seeding order) so the output remains a partition of the input.
    let grouped: usize = groups.iter().map(Vec::len).sum();
    if stopped.is_some() {
        for &i in &order {
            if label[i].is_none() {
                label[i] = Some(groups.len());
                groups.push(vec![i]);
            }
        }
    }

    // Materialise clusters, preserving in-group discovery order.
    let mut flows_opt: Vec<Option<FlowCluster>> = flows.into_iter().map(Some).collect();
    let clusters = groups
        .into_iter()
        .map(|members| {
            TrajectoryCluster::new(
                members
                    .into_iter()
                    .map(|i| flows_opt[i].take().expect("each flow used once")) // lint:allow(L1) reason=each flow index appears in exactly one cluster's member list
                    .collect(),
            )
        })
        .collect();
    let status = match (stopped, degraded) {
        (Some(why), _) => PhaseStatus::Partial {
            done: grouped,
            total: n,
            why,
        },
        (None, Some(why)) => PhaseStatus::Degraded { why },
        (None, None) => PhaseStatus::Complete,
    };
    Ok(ControlledRefinement {
        output: Phase3Output { clusters, stats },
        status,
        elb_only: degraded.is_some(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RouteDistance;
    use crate::model::BaseCluster;
    use neat_rnet::netgen::chain_network;
    use neat_rnet::{Point, RoadLocation, SegmentId};
    use neat_traj::{TFragment, TrajectoryId};

    fn frag(tr: u64, seg: usize) -> TFragment {
        let loc = RoadLocation::new(SegmentId::new(seg), Point::new(0.0, 0.0), 0.0);
        TFragment {
            trajectory: TrajectoryId::new(tr),
            segment: SegmentId::new(seg),
            first: loc,
            last: loc,
            point_count: 2,
        }
    }

    fn frag2(tr: u64, seg: neat_rnet::SegmentId) -> neat_traj::TFragment {
        let loc = RoadLocation::new(seg, Point::new(0.0, 0.0), 0.0);
        neat_traj::TFragment {
            trajectory: TrajectoryId::new(tr),
            segment: seg,
            first: loc,
            last: loc,
            point_count: 2,
        }
    }

    fn flow_on(net: &RoadNetwork, segs: &[usize], tr: u64) -> FlowCluster {
        let mut it = segs.iter();
        let first = *it.next().expect("non-empty");
        let mut f = FlowCluster::from_base(
            net,
            BaseCluster::new(SegmentId::new(first), vec![frag(tr, first)]).unwrap(),
        )
        .unwrap();
        for &s in it {
            f.push_back(
                net,
                BaseCluster::new(SegmentId::new(s), vec![frag(tr, s)]).unwrap(),
            )
            .unwrap();
        }
        f
    }

    fn cfg(epsilon: f64, use_elb: bool) -> NeatConfig {
        NeatConfig {
            epsilon,
            use_elb,
            ..NeatConfig::default()
        }
    }

    #[test]
    fn nearby_flows_merge() {
        // Chain of 10 segments (100 m each). Flow A = s0..s3 (ends n0,
        // n4), flow B = s5..s8 (ends n5, n9). Definition 11 pairs each
        // endpoint with its nearest counterpart: max-min = 500 m (the
        // n0↔n5 / n4↔n9 correspondence).
        let net = chain_network(11, 100.0, 10.0);
        let a = flow_on(&net, &[0, 1, 2, 3], 1);
        let b = flow_on(&net, &[5, 6, 7, 8], 2);
        let out =
            refine_flow_clusters(&net, vec![a.clone(), b.clone()], &cfg(500.0, true)).unwrap();
        assert_eq!(out.clusters.len(), 1);
        assert_eq!(out.clusters[0].flows().len(), 2);
        // Just below the Hausdorff distance they stay apart.
        let out = refine_flow_clusters(&net, vec![a, b], &cfg(499.0, true)).unwrap();
        assert_eq!(out.clusters.len(), 2);
    }

    #[test]
    fn far_flows_stay_apart() {
        let net = chain_network(30, 100.0, 10.0);
        let a = flow_on(&net, &[0, 1], 1);
        let b = flow_on(&net, &[27, 28], 2);
        let out = refine_flow_clusters(&net, vec![a, b], &cfg(500.0, true)).unwrap();
        assert_eq!(out.clusters.len(), 2);
    }

    #[test]
    fn hausdorff_uses_max_not_min() {
        // Flow A = s0..s1 (endpoints n0, n2); flow B = s2 (endpoints n2,
        // n3). Nearest endpoints coincide (n2) but the far ends are 300 m /
        // 200 m away. dist = max over maxmin = 300 (n0's nearest B endpoint
        // is n2 at 200m? n0→n2=200, n0→n3=300 → min 200; n2→{n0,n2}: 0;
        // n3→{n0,n2} = min(300,100)=100; A side: n0:200, n2:0 → max 200;
        // B side: max(0, 100) = 100; overall 200.
        let net = chain_network(5, 100.0, 10.0);
        let a = flow_on(&net, &[0, 1], 1);
        let b = flow_on(&net, &[2], 2);
        // ε just below 200 keeps them apart…
        let out =
            refine_flow_clusters(&net, vec![a.clone(), b.clone()], &cfg(199.0, true)).unwrap();
        assert_eq!(out.clusters.len(), 2);
        // …and ε at 200 merges them.
        let out = refine_flow_clusters(&net, vec![a, b], &cfg(200.0, true)).unwrap();
        assert_eq!(out.clusters.len(), 1);
    }

    #[test]
    fn elb_and_dijkstra_agree() {
        let net = chain_network(20, 100.0, 10.0);
        let flows = vec![
            flow_on(&net, &[0, 1, 2], 1),
            flow_on(&net, &[4, 5], 2),
            flow_on(&net, &[10, 11, 12, 13], 3),
            flow_on(&net, &[16, 17], 4),
        ];
        let with_elb = refine_flow_clusters(&net, flows.clone(), &cfg(250.0, true)).unwrap();
        let mut dij = cfg(250.0, false);
        dij.sp_strategy = SpStrategy::Dijkstra;
        let without = refine_flow_clusters(&net, flows, &dij).unwrap();
        let shape = |o: &Phase3Output| {
            let mut v: Vec<usize> = o.clusters.iter().map(|c| c.flows().len()).collect();
            v.sort();
            v
        };
        assert_eq!(shape(&with_elb), shape(&without));
        // ELB actually skipped work.
        assert!(with_elb.stats.elb_skips > 0);
        assert!(with_elb.stats.sp_computations < without.stats.sp_computations);
    }

    #[test]
    fn seeded_by_longest_route() {
        let net = chain_network(12, 100.0, 10.0);
        let short = flow_on(&net, &[0], 1);
        let long = flow_on(&net, &[3, 4, 5, 6], 2);
        let out = refine_flow_clusters(&net, vec![short, long], &cfg(50.0, true)).unwrap();
        // Longest route seeds the first cluster.
        assert_eq!(out.clusters[0].flows()[0].members().len(), 4);
    }

    #[test]
    fn transitive_chain_merges_via_density_connectivity() {
        // A–B within ε (400 m), B–C within ε, A–C beyond ε (800 m): all
        // three join one cluster through B (density-connected set).
        let net = chain_network(16, 100.0, 10.0);
        let a = flow_on(&net, &[0, 1], 1); // ends n0,n2
        let b = flow_on(&net, &[4, 5], 2); // ends n4,n6
        let c = flow_on(&net, &[8, 9], 3); // ends n8,n10
        let out = refine_flow_clusters(&net, vec![a, b, c], &cfg(400.0, true)).unwrap();
        assert_eq!(out.clusters.len(), 1);
        assert_eq!(out.clusters[0].flows().len(), 3);
    }

    #[test]
    fn empty_input() {
        let net = chain_network(3, 100.0, 10.0);
        let out = refine_flow_clusters(&net, vec![], &cfg(100.0, true)).unwrap();
        assert!(out.clusters.is_empty());
        assert_eq!(out.stats, Phase3Stats::default());
    }

    #[test]
    fn single_flow_single_cluster() {
        let net = chain_network(4, 100.0, 10.0);
        let out =
            refine_flow_clusters(&net, vec![flow_on(&net, &[1, 2], 1)], &cfg(10.0, true)).unwrap();
        assert_eq!(out.clusters.len(), 1);
    }

    #[test]
    fn cache_avoids_recomputation() {
        let net = chain_network(12, 100.0, 10.0);
        // Flows sharing endpoints → repeated node pairs.
        let flows = vec![
            flow_on(&net, &[0, 1], 1),
            flow_on(&net, &[2, 3], 2),
            flow_on(&net, &[4, 5], 3),
        ];
        let out = refine_flow_clusters(&net, flows, &cfg(1e6, true)).unwrap();
        assert!(out.stats.sp_cache_hits > 0);
    }

    #[test]
    fn full_route_distance_is_stricter_than_endpoints() {
        // Two parallel-ish flows sharing endpoints-region but diverging in
        // the middle cannot be built on a chain; instead compare a long
        // flow against a short one whose endpoints sit near the long
        // flow's ends via the chain: endpoints measure sees distance 200,
        // full-route sees the far interior nodes too.
        let net = chain_network(12, 100.0, 10.0);
        let long = flow_on(&net, &[0, 1, 2, 3, 4, 5], 1); // ends n0, n6
        let short = flow_on(&net, &[7, 8], 2); // ends n7, n9
                                               // Endpoint Hausdorff: n0→{n7,n9}=700; n6→100; n7→100; n9→300 → 700.
                                               // Full-route Hausdorff: same max (n0 is farthest) → equal here;
                                               // verify both settings agree on the decision at ε = 700.
        for (rd, expect_merge) in [
            (RouteDistance::Endpoints, true),
            (RouteDistance::FullRoute, true),
        ] {
            let mut c = cfg(700.0, true);
            c.route_distance = rd;
            let out = refine_flow_clusters(&net, vec![long.clone(), short.clone()], &c).unwrap();
            assert_eq!(out.clusters.len() == 1, expect_merge, "{rd:?}");
        }
        // At ε = 300 the endpoint measure keeps them apart too (700 > 300).
        let mut c = cfg(300.0, true);
        c.route_distance = RouteDistance::FullRoute;
        let out = refine_flow_clusters(&net, vec![long, short], &c).unwrap();
        assert_eq!(out.clusters.len(), 2);
    }

    #[test]
    fn full_route_separates_what_endpoints_merge() {
        // A horseshoe: flow A runs along the bottom, flow B is a short
        // stub near both of A's endpoints but far from A's middle… on a
        // ring network. Build a loop of 12 nodes (100 m apart).
        let mut b = neat_rnet::RoadNetworkBuilder::new();
        let n: Vec<_> = (0..12)
            .map(|i| {
                let ang = std::f64::consts::TAU * i as f64 / 12.0;
                b.add_node(neat_rnet::Point::new(200.0 * ang.cos(), 200.0 * ang.sin()))
            })
            .collect();
        let mut segs = Vec::new();
        for i in 0..12 {
            segs.push(b.add_segment(n[i], n[(i + 1) % 12], 10.0).unwrap());
        }
        let net = b.build().unwrap();
        // Flow A: half the ring (segments 0..5, endpoints n0 and n6).
        // Flow B: one segment on the other side (segment 8: n8-n9).
        let mk = |sids: &[neat_rnet::SegmentId], tr: u64| {
            let mut it = sids.iter();
            let mut f = FlowCluster::from_base(
                &net,
                BaseCluster::new(*it.next().unwrap(), vec![frag2(tr, *sids.first().unwrap())])
                    .unwrap(),
            )
            .unwrap();
            for &s in it {
                f.push_back(&net, BaseCluster::new(s, vec![frag2(tr, s)]).unwrap())
                    .unwrap();
            }
            f
        };
        let a = mk(&segs[0..6], 1);
        let b_flow = mk(&segs[8..9], 2);
        // Endpoint distances (along the ring): A ends at n0/n6; B at n8/n9.
        // n6→n8 = 2 hops ≈ 207 m; n0→n9 = 3 hops ≈ 310 m; endpoint
        // Hausdorff ≈ 311. Full-route adds A's middle nodes (n3 is 5 hops
        // from B) → ≈ 518. ε between the two separates the settings.
        let seg_len = net.segment(segs[0]).unwrap().length;
        let eps = 4.0 * seg_len; // between 3 and 5 hops
        let mut c = cfg(eps, true);
        c.route_distance = RouteDistance::Endpoints;
        let merged = refine_flow_clusters(&net, vec![a.clone(), b_flow.clone()], &c).unwrap();
        assert_eq!(merged.clusters.len(), 1, "endpoints should merge");
        c.route_distance = RouteDistance::FullRoute;
        let apart = refine_flow_clusters(&net, vec![a, b_flow], &c).unwrap();
        assert_eq!(apart.clusters.len(), 2, "full route should separate");
    }

    #[test]
    fn deterministic_output() {
        let net = chain_network(20, 100.0, 10.0);
        let mk = || {
            vec![
                flow_on(&net, &[0, 1, 2], 1),
                flow_on(&net, &[5, 6], 2),
                flow_on(&net, &[9, 10, 11], 3),
                flow_on(&net, &[15], 4),
            ]
        };
        let a = refine_flow_clusters(&net, mk(), &cfg(300.0, true)).unwrap();
        let b = refine_flow_clusters(&net, mk(), &cfg(300.0, true)).unwrap();
        assert_eq!(a.clusters, b.clusters);
    }

    /// A ring network where Euclidean chords undercut path distances, so
    /// the ALT bound has room to beat the ELB.
    fn ring_net() -> (RoadNetwork, Vec<neat_rnet::SegmentId>) {
        let mut b = neat_rnet::RoadNetworkBuilder::new();
        let n: Vec<_> = (0..16)
            .map(|i| {
                let ang = std::f64::consts::TAU * i as f64 / 16.0;
                b.add_node(neat_rnet::Point::new(400.0 * ang.cos(), 400.0 * ang.sin()))
            })
            .collect();
        let mut segs = Vec::new();
        for i in 0..16 {
            segs.push(b.add_segment(n[i], n[(i + 1) % 16], 10.0).unwrap());
        }
        (b.build().unwrap(), segs)
    }

    fn ring_flow(
        net: &RoadNetwork,
        segs: &[neat_rnet::SegmentId],
        range: std::ops::Range<usize>,
        tr: u64,
    ) -> FlowCluster {
        let mut it = segs[range].iter();
        let first = *it.next().unwrap();
        let mut f = FlowCluster::from_base(
            net,
            BaseCluster::new(first, vec![frag2(tr, first)]).unwrap(),
        )
        .unwrap();
        for &s in it {
            f.push_back(net, BaseCluster::new(s, vec![frag2(tr, s)]).unwrap())
                .unwrap();
        }
        f
    }

    #[test]
    fn alt_bound_skips_pairs_elb_cannot_without_changing_output() {
        let (net, segs) = ring_net();
        // Flows on opposite arcs: endpoint chords (Euclidean) are much
        // shorter than the around-the-ring network distances. Per-hop
        // chord ≈ 156 m, so the nearest endpoints (6 hops) are ≈ 936 m
        // apart on the network while every straight-line chord is at most
        // the diameter (800 m).
        let a = ring_flow(&net, &segs, 0..2, 1);
        let b = ring_flow(&net, &segs, 8..10, 2);
        let flows = vec![a, b];
        // ε above every chord but below the shortest path distance.
        let eps = 900.0;
        // With every node a landmark the ALT bound is exact, so any pair
        // with network distance > ε ≥ its chord must be alt-skipped.
        // Pairwise searches (no per-seed tables) so the saving is visible
        // directly in `sp_computations`.
        let mut with_alt = cfg(eps, true);
        with_alt.alt_landmarks = 16;
        with_alt.endpoint_tables = false;
        let mut no_alt = cfg(eps, true);
        no_alt.alt_landmarks = 0;
        no_alt.endpoint_tables = false;
        let out_alt = refine_flow_clusters(&net, flows.clone(), &with_alt).unwrap();
        let out_plain = refine_flow_clusters(&net, flows, &no_alt).unwrap();
        assert_eq!(
            out_alt.clusters, out_plain.clusters,
            "ALT must not change output"
        );
        assert!(out_alt.stats.alt_skips > 0, "stats: {:?}", out_alt.stats);
        assert!(
            out_alt.stats.sp_computations + out_alt.stats.one_to_many_scans
                < out_plain.stats.sp_computations + out_plain.stats.one_to_many_scans,
            "ALT skips must save searches: {:?} vs {:?}",
            out_alt.stats,
            out_plain.stats
        );
    }

    #[test]
    fn endpoint_tables_match_pairwise_searches() {
        let net = chain_network(24, 100.0, 10.0);
        let mk = || {
            vec![
                flow_on(&net, &[0, 1, 2], 1),
                flow_on(&net, &[4, 5], 2),
                flow_on(&net, &[8, 9, 10], 3),
                flow_on(&net, &[13, 14], 4),
                flow_on(&net, &[17, 18, 19], 5),
            ]
        };
        let mut tab = cfg(450.0, true);
        tab.endpoint_tables = true;
        let mut pair = cfg(450.0, true);
        pair.endpoint_tables = false;
        let with_tables = refine_flow_clusters(&net, mk(), &tab).unwrap();
        let pairwise = refine_flow_clusters(&net, mk(), &pair).unwrap();
        assert_eq!(with_tables.clusters, pairwise.clusters);
        // Tables fully replace point-to-point searches…
        assert_eq!(with_tables.stats.sp_computations, 0);
        assert!(with_tables.stats.one_to_many_scans > 0);
        // …and the filter counters agree pair by pair.
        assert_eq!(
            with_tables.stats.pairs_considered,
            pairwise.stats.pairs_considered
        );
        assert_eq!(with_tables.stats.elb_skips, pairwise.stats.elb_skips);
        assert_eq!(with_tables.stats.alt_skips, pairwise.stats.alt_skips);
    }

    /// `H` never exceeds the exact endpoint Hausdorff distance, with and
    /// without landmarks, on every endpoint quadruple of a jittered grid.
    #[test]
    fn hausdorff_bound_never_exceeds_the_exact_distance() {
        use neat_rnet::netgen::{generate_grid_network, GridNetworkConfig};
        let net = generate_grid_network(&GridNetworkConfig::small_test(5, 5), 3);
        let mut engine = ShortestPathEngine::new(&net);
        let landmarks = AltLandmarks::build(&net, &mut engine, 4);
        let nodes: Vec<NodeId> = (0..net.node_count()).map(NodeId::new).collect();
        let mut d = |a: NodeId, b: NodeId| engine.distance_plain(&net, a, b).unwrap();
        let mut checked = 0;
        for alt in [None, Some(&landmarks)] {
            let oracle = DistanceOracle {
                net: &net,
                strategy: SpStrategy::AStar,
                epsilon: 0.0,
                use_elb: true,
                pair_cache: ShardedMap::new(),
                alt,
            };
            for (i, &a1) in nodes.iter().enumerate().step_by(3) {
                let a2 = nodes[(i * 7 + 5) % nodes.len()];
                for (j, &b1) in nodes.iter().enumerate().step_by(2) {
                    let b2 = nodes[(j * 11 + 3) % nodes.len()];
                    let pairs = [(a1, b1), (a1, b2), (a2, b1), (a2, b2)];
                    let bounds = pairs.map(|(a, b)| oracle.pair_bound(a, b).1);
                    let exact = pairs.map(|(a, b)| d(a, b));
                    // A segment's stored length and the Euclidean
                    // distance between its ends round separately, so on a
                    // straight path the bound may exceed the path sum by
                    // an ulp — the same slack the ELB filter has always
                    // had. Anything beyond rounding is a broken bound.
                    let (h, exact_h) = (hausdorff_bound(bounds), hausdorff_bound(exact));
                    assert!(
                        h <= exact_h * (1.0 + 1e-12),
                        "H {h} > exact {exact_h} for {pairs:?}"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 100);
    }

    #[test]
    fn parallel_scan_matches_sequential_clusters_and_stats() {
        let net = chain_network(40, 100.0, 10.0);
        let mk = || {
            (0..12)
                .map(|i| flow_on(&net, &[3 * i, 3 * i + 1], i as u64 + 1))
                .collect::<Vec<_>>()
        };
        for endpoint_tables in [true, false] {
            let mut seq = cfg(350.0, true);
            seq.threads = 1;
            seq.endpoint_tables = endpoint_tables;
            let base = refine_flow_clusters(&net, mk(), &seq).unwrap();
            for threads in [2, 8] {
                let mut par = seq;
                par.threads = threads;
                let out = refine_flow_clusters(&net, mk(), &par).unwrap();
                assert_eq!(out.clusters, base.clusters, "threads={threads}");
                assert_eq!(out.stats, base.stats, "threads={threads}");
            }
        }
    }
}
