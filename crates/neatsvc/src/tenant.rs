//! The multi-tenant layer: one supervised clusterer per tenant, a
//! per-tenant circuit breaker, and wire-visible backpressure.
//!
//! A *tenant* is a road-network region with its own clustering state —
//! the graph-based clustering literature scopes cluster structure to a
//! network region, and operationally each region gets its own
//! [`Service`] state machine (spool, admission queue, checkpoint store,
//! quarantine and restart budget) under the shared `catch_unwind`
//! supervisor. Tenants live in subdirectories of the configured roots:
//! `<spool_root>/<tenant>`, `<state_root>/<tenant>`,
//! `<quarantine_root>/<tenant>`.
//!
//! [`TenantRouter`] is the single-writer owner of every tenant state
//! machine. The network listener serializes access to it through one
//! lock ([`net`](crate::net)); connection handlers never touch tenant
//! state directly, which is what makes a stalled client harmless — it
//! stalls in its own reader thread, not under the router lock.
//!
//! # Backpressure ladder on the wire
//!
//! A push maps the admission ladder onto typed replies: applied →
//! [`Reply::Ack`]; durable-but-pending → [`Reply::Defer`] with a
//! retry hint drawn from the same [`JitterBackoff`] schedule `neat
//! push` paces itself with; overload → [`Reply::Shed`] (dropped before
//! becoming durable, so the spool stays bounded); invalid, poison or
//! breaker-open → [`Reply::Reject`].
//!
//! # Circuit breaker
//!
//! Each tenant carries a [`CircuitBreaker`]: repeated push-visible
//! failures (poison quarantines, restart-budget exhaustion) trip it
//! open and pushes are rejected outright; after a hold drawn from a
//! growing jitter schedule it half-opens, letting one push probe the
//! tenant — success closes it, failure re-trips with a longer hold.

use crate::config::SvcConfig;
use crate::frame::{Reply, StatusReport};
use crate::health::{Health, ServiceStatus};
use crate::hooks::NoFaults;
use crate::service::{DrainOutcome, Service, TickOutcome};
use crate::spool;
use neat_durability::fnv64;
use neat_durability::fs::{write_atomic, Fs};
use neat_durability::retry::{JitterBackoff, NoSleep};
use neat_rnet::RoadNetwork;
use neat_runctl::{CancelToken, Clock};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Configuration of the tenant layer.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// Template service configuration. The three directories are
    /// *roots*: each tenant gets `<root>/<tenant>`.
    pub roots: SvcConfig,
    /// Maximum number of tenants the router will materialize.
    pub max_tenants: usize,
    /// Consecutive push-visible failures before the breaker opens.
    pub breaker_threshold: u32,
    /// Base of the breaker's open-hold jitter schedule (milliseconds).
    pub breaker_base_ms: u64,
    /// Cap of the breaker's open-hold jitter schedule (milliseconds).
    pub breaker_max_ms: u64,
    /// Base of the `Defer` retry-hint schedule (milliseconds).
    pub defer_base_ms: u64,
    /// Cap of the `Defer` retry-hint schedule (milliseconds).
    pub defer_max_ms: u64,
    /// Supervised ticks one push may spend driving the tenant before
    /// answering `Defer`.
    pub push_tick_budget: u64,
    /// Seed for the per-tenant jitter schedules (each tenant derives
    /// its own stream from this and its name).
    pub seed: u64,
}

impl TenantConfig {
    /// Defaults around `roots`: 16 tenants, breaker after 3 failures
    /// holding 500 ms–60 s, defer hints 25 ms–2 s, 64 ticks per push.
    pub fn new(roots: SvcConfig) -> Self {
        TenantConfig {
            roots,
            max_tenants: 16,
            breaker_threshold: 3,
            breaker_base_ms: 500,
            breaker_max_ms: 60_000,
            defer_base_ms: 25,
            defer_max_ms: 2_000,
            push_tick_budget: 64,
            seed: 42,
        }
    }
}

/// `true` when `name` is usable as a tenant or batch identifier: ASCII
/// alphanumerics plus `.`/`_`/`-`, no leading dot, no `.tmp` suffix,
/// never the quarantine log name — so it can never escape its
/// directory, collide with spool conventions, or hide from `scan`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 120
        && !name.starts_with('.')
        && !name.ends_with(".tmp")
        && name != spool::QUARANTINE_LOG
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
}

/// Circuit-breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy; pushes flow.
    Closed,
    /// Tripped; pushes are rejected until the hold expires.
    Open,
    /// Hold expired; the next push probes the tenant.
    HalfOpen,
}

impl BreakerState {
    /// Stable kebab-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// Per-tenant circuit breaker: `Closed --threshold failures--> Open
/// --hold elapses--> HalfOpen --probe success--> Closed` (probe failure
/// re-trips with the next, longer hold from the jitter schedule).
///
/// Time enters only through the `now_ms` arguments — the caller reads
/// the injected [`Clock`] — so the state machine is fully deterministic
/// under test.
#[derive(Debug)]
pub struct CircuitBreaker {
    state: BreakerState,
    failures: u32,
    threshold: u32,
    trips: u64,
    open_until_ms: u64,
    schedule: JitterBackoff<NoSleep>,
}

impl CircuitBreaker {
    /// A closed breaker tripping after `threshold` consecutive failures
    /// (clamped to at least 1), holding open for delays drawn from
    /// `schedule` (attempt = trip count, so holds grow per trip).
    pub fn new(threshold: u32, schedule: JitterBackoff<NoSleep>) -> Self {
        CircuitBreaker {
            state: BreakerState::Closed,
            failures: 0,
            threshold: threshold.max(1),
            trips: 0,
            open_until_ms: 0,
            schedule,
        }
    }

    /// Whether a push may proceed at `now_ms`; an expired hold moves
    /// the breaker to [`BreakerState::HalfOpen`] and admits the probe.
    pub fn admits(&mut self, now_ms: u64) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if now_ms >= self.open_until_ms {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// A push succeeded: close and reset.
    pub fn on_success(&mut self) {
        self.state = BreakerState::Closed;
        self.failures = 0;
    }

    /// A push-visible failure at `now_ms`: counts toward the threshold;
    /// at the threshold (or on a failed half-open probe) the breaker
    /// trips open for the next hold in the schedule.
    pub fn on_failure(&mut self, now_ms: u64) {
        self.failures = self.failures.saturating_add(1);
        if self.state == BreakerState::HalfOpen || self.failures >= self.threshold {
            self.trips = self.trips.saturating_add(1);
            let attempt = u32::try_from(self.trips).unwrap_or(u32::MAX);
            let hold = self.schedule.next_delay(attempt);
            let hold_ms = u64::try_from(hold.as_millis()).unwrap_or(u64::MAX).max(1);
            self.open_until_ms = now_ms.saturating_add(hold_ms);
            self.state = BreakerState::Open;
            self.failures = 0;
        }
    }

    /// Current state (does not advance the open→half-open transition).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// How many times the breaker has tripped open.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Milliseconds until the hold expires (0 when not open).
    pub fn retry_after_ms(&self, now_ms: u64) -> u64 {
        self.open_until_ms.saturating_sub(now_ms)
    }
}

/// One tenant: its supervised service plus breaker and hint schedule.
struct Tenant<'n, F: Fs + Clone> {
    svc: Service<'n, F>,
    breaker: CircuitBreaker,
    defer_hint: JitterBackoff<NoSleep>,
    defer_streak: u32,
    spool_dir: PathBuf,
    quarantine_dir: PathBuf,
}

/// Owner of every tenant state machine; see the [module docs](self).
pub struct TenantRouter<'n, F: Fs + Clone> {
    net: &'n RoadNetwork,
    fs: F,
    cfg: TenantConfig,
    clock: Arc<dyn Clock>,
    cancel: CancelToken,
    tenants: BTreeMap<String, Tenant<'n, F>>,
}

impl<'n, F: Fs + Clone> TenantRouter<'n, F> {
    /// A router with no tenants yet; tenants materialize lazily on
    /// first push/status. Tenant services observe `cancel`, so
    /// cancelling it drains every tenant.
    pub fn new(
        net: &'n RoadNetwork,
        fs: F,
        cfg: TenantConfig,
        clock: Arc<dyn Clock>,
        cancel: CancelToken,
    ) -> Self {
        TenantRouter {
            net,
            fs,
            cfg,
            clock,
            cancel,
            tenants: BTreeMap::new(),
        }
    }

    /// The cancellation token tenant services observe.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Materializes `name` if valid and under the tenant limit.
    fn ensure_tenant(&mut self, name: &str) -> Result<(), Reply> {
        if !valid_name(name) {
            return Err(Reply::Reject {
                reason: format!("invalid tenant name `{name}`"),
            });
        }
        if self.tenants.contains_key(name) {
            return Ok(());
        }
        if self.tenants.len() >= self.cfg.max_tenants {
            return Err(Reply::Reject {
                reason: format!("tenant limit ({}) reached", self.cfg.max_tenants),
            });
        }
        let mut scfg = self.cfg.roots.clone();
        scfg.spool_dir = scfg.spool_dir.join(name);
        scfg.state_dir = scfg.state_dir.join(name);
        scfg.quarantine_dir = scfg.quarantine_dir.join(name);
        let spool_dir = scfg.spool_dir.clone();
        let quarantine_dir = scfg.quarantine_dir.clone();
        let svc = Service::open_with(
            self.net,
            scfg,
            self.fs.clone(),
            Arc::new(NoFaults),
            Some(Arc::clone(&self.clock)),
            self.cancel.observer(),
        )
        .map_err(|e| Reply::Reject {
            reason: format!("tenant `{name}` failed to open: {e}"),
        })?;
        // Each tenant gets its own deterministic jitter streams, derived
        // from the router seed and the tenant name.
        let tseed = self.cfg.seed ^ fnv64(name.as_bytes());
        let breaker = CircuitBreaker::new(
            self.cfg.breaker_threshold,
            JitterBackoff::with_sleeper(
                tseed,
                Duration::from_millis(self.cfg.breaker_base_ms),
                Duration::from_millis(self.cfg.breaker_max_ms),
                NoSleep,
            ),
        );
        let defer_hint = JitterBackoff::with_sleeper(
            tseed.rotate_left(32),
            Duration::from_millis(self.cfg.defer_base_ms),
            Duration::from_millis(self.cfg.defer_max_ms),
            NoSleep,
        );
        self.tenants.insert(
            name.to_string(),
            Tenant {
                svc,
                breaker,
                defer_hint,
                defer_streak: 0,
                spool_dir,
                quarantine_dir,
            },
        );
        Ok(())
    }

    /// Routes one push end-to-end and produces the wire reply. See the
    /// [module docs](self) for the reply ladder.
    pub fn push(&mut self, tenant: &str, batch_id: &str, payload: &[u8]) -> Reply {
        if !valid_name(batch_id) {
            return Reply::Reject {
                reason: format!("invalid batch id `{batch_id}`"),
            };
        }
        if let Err(reject) = self.ensure_tenant(tenant) {
            return reject;
        }
        let fs = self.fs.clone();
        let now = self.clock.now_millis();
        let draining = self.cancel.is_cancelled();
        let tick_budget = self.cfg.push_tick_budget;
        let (capacity, backlog) = (self.cfg.roots.queue_capacity, self.cfg.roots.shed_backlog);
        let Some(t) = self.tenants.get_mut(tenant) else {
            return Reply::Reject {
                reason: "tenant map invariant violated".to_string(),
            };
        };

        if t.svc.status() == ServiceStatus::Failed {
            t.breaker.on_failure(now);
            return Reply::Reject {
                reason: format!("tenant `{tenant}` unrecoverable: restart budget exhausted"),
            };
        }
        if !t.breaker.admits(now) {
            return Reply::Reject {
                reason: format!(
                    "circuit open for tenant `{tenant}`; retry in ~{} ms",
                    t.breaker.retry_after_ms(now)
                ),
            };
        }
        // Idempotency: an already-journaled batch ID is acknowledged
        // without re-applying (the duplicate-send path after a crashed
        // or retried push).
        if t.svc.is_applied(batch_id) {
            return Reply::Ack {
                epoch: t.svc.query().epoch,
            };
        }
        // Wire-edge backpressure, mirroring the admission ladder over
        // the spool backlog so a flooding producer cannot grow the
        // spool without bound.
        let pending = match spool::scan(&fs, &t.spool_dir) {
            Ok(ids) => ids.len(),
            Err(e) => {
                return Reply::Reject {
                    reason: format!("spool scan failed: {e}"),
                }
            }
        };
        if pending >= capacity + backlog {
            return Reply::Shed;
        }
        if pending >= capacity {
            let hint = Self::defer_hint_ms(t);
            return Reply::Defer {
                retry_after_ms: hint,
            };
        }
        if let Err(e) = write_atomic(&fs, &t.spool_dir.join(batch_id), payload) {
            return Reply::Reject {
                reason: format!("spool write failed: {e}"),
            };
        }
        if draining {
            // Graceful drain: the batch is spooled first, so the
            // `Defer` durability contract holds — it survives the
            // shutdown and the restarted server applies it — but no
            // new drive work starts; the client's retry gets its `Ack`
            // (from the restart, or as a journaled duplicate).
            let hint = Self::defer_hint_ms(t);
            return Reply::Defer {
                retry_after_ms: hint,
            };
        }

        let before = t.svc.health();
        let outcome = t.svc.run_drain(tick_budget);
        let after = t.svc.health();

        if t.svc.is_applied(batch_id) {
            t.breaker.on_success();
            t.defer_streak = 0;
            return Reply::Ack {
                epoch: t.svc.query().epoch,
            };
        }
        if after.poisoned > before.poisoned && fs.exists(&t.quarantine_dir.join(batch_id)) {
            t.breaker.on_failure(now);
            return Reply::Reject {
                reason: format!("batch `{batch_id}` quarantined as poison after repeated failures"),
            };
        }
        if outcome == DrainOutcome::Failed || t.svc.status() == ServiceStatus::Failed {
            t.breaker.on_failure(now);
            return Reply::Reject {
                reason: format!("tenant `{tenant}` unrecoverable: restart budget exhausted"),
            };
        }
        if after.shed > before.shed && fs.exists(&t.quarantine_dir.join(batch_id)) {
            return Reply::Shed;
        }
        // Still spooled: durable but not applied (tick budget spent or
        // a drain began mid-drive). The hint grows with the streak.
        let hint = Self::defer_hint_ms(t);
        Reply::Defer {
            retry_after_ms: hint,
        }
    }

    /// Draws the next defer hint for `t`, growing its streak.
    fn defer_hint_ms(t: &mut Tenant<'n, F>) -> u64 {
        t.defer_streak = t.defer_streak.saturating_add(1);
        let d = t.defer_hint.next_delay(t.defer_streak);
        u64::try_from(d.as_millis()).unwrap_or(u64::MAX).max(1)
    }

    /// Answers a status query for `tenant` (materializing it if
    /// needed, so a freshly restarted daemon can be queried about any
    /// tenant that exists on disk).
    pub fn status(&mut self, tenant: &str) -> Reply {
        if let Err(reject) = self.ensure_tenant(tenant) {
            return reject;
        }
        let Some(t) = self.tenants.get(tenant) else {
            return Reply::Reject {
                reason: "tenant map invariant violated".to_string(),
            };
        };
        let h = t.svc.health();
        let view = t.svc.query();
        Reply::Report(Box::new(StatusReport {
            tenant: tenant.to_string(),
            status: t.svc.status().name().to_string(),
            breaker: t.breaker.state().name().to_string(),
            breaker_trips: t.breaker.trips(),
            accepted: h.accepted,
            deferred: h.deferred,
            shed: h.shed,
            poisoned: h.poisoned,
            applied: h.applied,
            batches: view.batches as u64,
            duplicates: h.duplicates_skipped,
            restarts: h.restarts,
            last_epoch: view.epoch,
            watermark_bits: view.watermark.map(f64::to_bits),
            live_fragments: view.live_fragments as u64,
            expiries: h.expiries,
            drift: h.drift,
            compactions: h.compactions,
            compaction_failures: h.compaction_failures,
        }))
    }

    /// One supervised tick across every tenant (watch-mode idle work:
    /// batches dropped straight into spool directories, deferred
    /// retries). `true` when any tenant made progress.
    pub fn tick_all(&mut self) -> bool {
        let mut worked = false;
        for t in self.tenants.values_mut() {
            if t.svc.tick() == TickOutcome::Worked {
                worked = true;
            }
        }
        worked
    }

    /// Drains every tenant (up to `max_ticks` supervised steps each) —
    /// the shutdown flush. With the shared token cancelled, each
    /// service checkpoints pending state and stops.
    pub fn drain_all(&mut self, max_ticks: u64) -> Vec<(String, DrainOutcome)> {
        self.tenants
            .iter_mut()
            .map(|(name, t)| (name.clone(), t.svc.run_drain(max_ticks)))
            .collect()
    }

    /// The highest query-view epoch across tenants.
    pub fn max_epoch(&self) -> u64 {
        self.tenants
            .values()
            .map(|t| t.svc.query().epoch)
            .max()
            .unwrap_or(0)
    }

    /// The worst status across tenants — the daemon's exit-code input
    /// (`Running` < `Degraded` < `Failed`).
    pub fn worst_status(&self) -> ServiceStatus {
        let mut worst = ServiceStatus::Running;
        for t in self.tenants.values() {
            match t.svc.status() {
                ServiceStatus::Failed => return ServiceStatus::Failed,
                ServiceStatus::Degraded => worst = ServiceStatus::Degraded,
                ServiceStatus::Running => {}
            }
        }
        worst
    }

    /// Names of the materialized tenants.
    pub fn tenant_names(&self) -> Vec<String> {
        self.tenants.keys().cloned().collect()
    }

    /// The tenant's health report, when materialized.
    pub fn health_of(&self, tenant: &str) -> Option<Health> {
        self.tenants.get(tenant).map(|t| t.svc.health())
    }

    /// Read access to a tenant's service (fingerprints, query views).
    pub fn service_of(&self, tenant: &str) -> Option<&Service<'n, F>> {
        self.tenants.get(tenant).map(|t| &t.svc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neat_core::NeatConfig;
    use neat_durability::fs::MemFs;
    use neat_rnet::netgen::chain_network;
    use neat_rnet::{Point, RoadLocation, SegmentId};
    use neat_runctl::OpClock;
    use neat_traj::{io as trajio, Dataset, Trajectory, TrajectoryId};

    fn network() -> RoadNetwork {
        chain_network(6, 100.0, 13.9)
    }

    fn roots() -> SvcConfig {
        let mut c = SvcConfig::new("/spool", "/state", "/quarantine");
        c.neat = NeatConfig {
            min_card: 1,
            ..NeatConfig::default()
        };
        c.checkpoint_every_batches = 2;
        c
    }

    fn payload(seed: u64) -> Vec<u8> {
        let mut d = Dataset::new("b");
        let off = (seed % 40) as f64;
        d.push(
            Trajectory::new(
                TrajectoryId::new(seed),
                vec![
                    RoadLocation::new(SegmentId::new(0), Point::new(10.0 + off, 0.0), 0.0),
                    RoadLocation::new(SegmentId::new(1), Point::new(150.0, 0.0), 30.0),
                    RoadLocation::new(SegmentId::new(2), Point::new(250.0, 0.0), 60.0),
                ],
            )
            .unwrap(),
        );
        let mut buf = Vec::new();
        trajio::write_dataset(&d, &mut buf).unwrap();
        buf
    }

    fn router(net: &RoadNetwork, fs: MemFs) -> TenantRouter<'_, MemFs> {
        TenantRouter::new(
            net,
            fs,
            TenantConfig::new(roots()),
            Arc::new(OpClock::new(1)),
            CancelToken::new(),
        )
    }

    fn schedule(seed: u64) -> JitterBackoff<NoSleep> {
        JitterBackoff::with_sleeper(
            seed,
            Duration::from_millis(100),
            Duration::from_millis(400),
            NoSleep,
        )
    }

    #[test]
    fn breaker_trips_holds_half_opens_and_recloses() {
        let mut b = CircuitBreaker::new(2, schedule(7));
        assert!(b.admits(0));
        b.on_failure(0);
        assert_eq!(b.state(), BreakerState::Closed, "below threshold");
        b.on_failure(0);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
        assert!(!b.admits(0), "open breaker rejects");
        let hold = b.retry_after_ms(0);
        assert!(hold >= 1);
        assert!(b.admits(hold), "expired hold half-opens");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // A failed probe re-trips immediately…
        b.on_failure(hold);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 2);
        // …and an eventual successful probe closes it.
        let hold2 = hold + b.retry_after_ms(hold);
        assert!(b.admits(hold2));
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.admits(hold2));
    }

    #[test]
    fn name_validation_blocks_traversal_and_spool_conventions() {
        for good in ["sj", "atl-north", "b-001.batch", "A_b.9"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in [
            "",
            ".",
            "..",
            "../escape",
            "a/b",
            "a\\b",
            ".hidden",
            "half.tmp",
            "reasons.log",
            "null\0byte",
        ] {
            assert!(!valid_name(bad), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn push_applies_and_duplicate_push_acks_without_reapply() {
        let net = network();
        let mut r = router(&net, MemFs::new());
        let p = payload(1);
        let first = r.push("sj", "b-001.batch", &p);
        let Reply::Ack { epoch } = first else {
            panic!("expected ack, got {first:?}");
        };
        assert!(epoch >= 1);
        let again = r.push("sj", "b-001.batch", &p);
        assert!(matches!(again, Reply::Ack { .. }), "{again:?}");
        let h = r.health_of("sj").unwrap();
        assert_eq!(h.applied, 1, "duplicate send must not re-apply");
    }

    #[test]
    fn acks_wait_for_the_journal_and_snapshots_follow_the_cadence() {
        let net = network();
        let fs = MemFs::new();
        let mut cfg = roots();
        cfg.checkpoint_every_batches = 4;
        let open = |fs: &MemFs| {
            TenantRouter::new(
                &net,
                fs.clone(),
                TenantConfig::new(cfg.clone()),
                Arc::new(OpClock::new(1)),
                CancelToken::new(),
            )
        };
        let mut r = open(&fs);
        for i in 1..=6u64 {
            let reply = r.push("sj", &format!("b-{i}"), &payload(i));
            assert!(matches!(reply, Reply::Ack { .. }), "push {i}: {reply:?}");
            // Every push is acked once journaled; only the fourth one
            // reaches the cadence and snapshots.
            let want = u64::from(i >= 4);
            assert_eq!(r.health_of("sj").unwrap().checkpoints, want, "push {i}");
        }
        let reference = r.service_of("sj").unwrap().state_fingerprint();
        // No drain: pushes 5 and 6 live only in the journal.
        drop(r);

        let mut r = open(&fs);
        assert!(matches!(r.status("sj"), Reply::Report(_)));
        let svc = r.service_of("sj").unwrap();
        assert_eq!(svc.state_fingerprint(), reference, "acked batch lost");
        assert_eq!(svc.query().batches, 6);
        for i in 1..=6u64 {
            let id = format!("b-{i}");
            assert!(r.service_of("sj").unwrap().is_applied(&id), "{id}");
            let reply = r.push("sj", &id, &payload(i));
            assert!(matches!(reply, Reply::Ack { .. }), "resend {i}: {reply:?}");
        }
        let h = r.health_of("sj").unwrap();
        assert_eq!(h.applied, 0, "a re-sent batch was applied again");
        assert_eq!(h.checkpoints, 0, "recovery must not snapshot");
        assert_eq!(r.service_of("sj").unwrap().state_fingerprint(), reference);
    }

    #[test]
    fn tenants_are_isolated_directories_and_states() {
        let net = network();
        let fs = MemFs::new();
        let mut r = router(&net, fs.clone());
        assert!(matches!(
            r.push("sj", "b-1", &payload(1)),
            Reply::Ack { .. }
        ));
        assert!(matches!(
            r.push("atl", "b-1", &payload(2)),
            Reply::Ack { .. }
        ));
        assert_eq!(r.health_of("sj").unwrap().applied, 1);
        assert_eq!(r.health_of("atl").unwrap().applied, 1);
        assert_eq!(r.tenant_names(), vec!["atl".to_string(), "sj".to_string()]);
        assert!(
            fs.exists(std::path::Path::new("/state/sj/checkpoint.snap"))
                || !fs.exists(std::path::Path::new("/state/checkpoint.snap"))
        );
    }

    #[test]
    fn invalid_names_are_rejected_before_any_io() {
        let net = network();
        let mut r = router(&net, MemFs::new());
        assert!(matches!(
            r.push("../etc", "b-1", &payload(1)),
            Reply::Reject { .. }
        ));
        assert!(matches!(
            r.push("sj", "../../sneaky", &payload(1)),
            Reply::Reject { .. }
        ));
        assert!(matches!(r.status(".hidden"), Reply::Reject { .. }));
    }

    #[test]
    fn poison_storm_trips_the_breaker_to_reject() {
        let net = network();
        let fs = MemFs::new();
        let mut cfg = TenantConfig::new(roots());
        cfg.breaker_threshold = 2;
        let mut r = TenantRouter::new(&net, fs, cfg, Arc::new(OpClock::new(1)), CancelToken::new());
        // Garbage payloads: each push fails twice inside its own drive
        // (poison_after = 2) and lands in quarantine → Reject.
        let one = r.push("sj", "bad-1", b"definitely not a dataset");
        assert!(matches!(one, Reply::Reject { .. }), "{one:?}");
        let two = r.push("sj", "bad-2", b"also garbage");
        assert!(matches!(two, Reply::Reject { .. }), "{two:?}");
        // Threshold reached: the breaker is open, and even a valid
        // batch is rejected without touching the tenant.
        let blocked = r.push("sj", "good-1", &payload(9));
        let Reply::Reject { reason } = blocked else {
            panic!("expected breaker rejection");
        };
        assert!(reason.contains("circuit open"), "{reason}");
        // Another tenant is unaffected — bulkhead isolation.
        assert!(matches!(
            r.push("atl", "b-1", &payload(3)),
            Reply::Ack { .. }
        ));
        // The OpClock advances one ms per observation; eventually the
        // hold expires and a half-open probe with a good batch recloses.
        let mut reply = r.push("sj", "good-1", &payload(9));
        for _ in 0..70_000 {
            if !matches!(reply, Reply::Reject { .. }) {
                break;
            }
            reply = r.push("sj", "good-1", &payload(9));
        }
        assert!(
            matches!(reply, Reply::Ack { .. }),
            "probe must land: {reply:?}"
        );
        let report = r.status("sj");
        let Reply::Report(rep) = report else {
            panic!("expected report");
        };
        assert_eq!(rep.poisoned, 2);
        assert!(rep.breaker_trips >= 1);
        assert_eq!(rep.breaker, "closed");
    }

    #[test]
    fn zero_tick_budget_defers_with_growing_hints() {
        let net = network();
        let mut cfg = TenantConfig::new(roots());
        cfg.push_tick_budget = 0;
        let mut r = TenantRouter::new(
            &net,
            MemFs::new(),
            cfg,
            Arc::new(OpClock::new(1)),
            CancelToken::new(),
        );
        let a = r.push("sj", "b-1", &payload(1));
        let Reply::Defer { retry_after_ms } = a else {
            panic!("expected defer, got {a:?}");
        };
        assert!(retry_after_ms >= 1);
        // The batch is durable: a drain applies it without a re-push.
        assert_eq!(
            r.drain_all(64),
            vec![("sj".to_string(), DrainOutcome::Drained)]
        );
        assert_eq!(r.health_of("sj").unwrap().applied, 1);
        assert!(matches!(r.push("sj", "b-1", &[]), Reply::Ack { .. }));
    }

    #[test]
    fn drain_mode_defers_new_pushes_durably() {
        let net = network();
        let fs = MemFs::new();
        let mut r = router(&net, fs.clone());
        assert!(matches!(
            r.push("sj", "b-1", &payload(1)),
            Reply::Ack { .. }
        ));
        r.cancel_token().cancel();
        let reply = r.push("sj", "b-2", &payload(2));
        assert!(matches!(reply, Reply::Defer { .. }), "{reply:?}");
        // Defer promises durability: the payload is already spooled…
        assert!(fs.exists(std::path::Path::new("/spool/sj/b-2")));
        // Duplicate acks still work during drain (pure read).
        assert!(matches!(r.push("sj", "b-1", &[]), Reply::Ack { .. }));
        drop(r);
        // …so a restarted router applies it without a re-push, and the
        // client's retry is acknowledged as a journaled duplicate.
        let mut restarted = router(&net, fs);
        assert!(matches!(
            restarted.push("sj", "b-2", &payload(2)),
            Reply::Ack { .. }
        ));
        assert_eq!(restarted.health_of("sj").unwrap().applied, 1);
    }

    #[test]
    fn tenant_limit_is_enforced() {
        let net = network();
        let mut cfg = TenantConfig::new(roots());
        cfg.max_tenants = 1;
        let mut r = TenantRouter::new(
            &net,
            MemFs::new(),
            cfg,
            Arc::new(OpClock::new(1)),
            CancelToken::new(),
        );
        assert!(matches!(
            r.push("sj", "b-1", &payload(1)),
            Reply::Ack { .. }
        ));
        assert!(matches!(
            r.push("atl", "b-1", &payload(2)),
            Reply::Reject { .. }
        ));
    }
}
