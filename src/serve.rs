//! Shared implementation of the `neatd` daemon and `neat serve`.
//!
//! Wraps [`neat_svc::Service`] in a production poll loop over a real
//! filesystem: batches dropped into `--spool` (by atomic rename) are
//! clustered incrementally, journaled into `--state` and snapshotted
//! there every `--checkpoint-every` batches, and shed/poison batches
//! land in `--quarantine`. All storage goes
//! through a [`RetryFs`] with deterministic jittered backoff; its retry
//! counters surface in the health digest printed on exit.
//!
//! Exit codes (`neatd` and `neat serve` alike):
//!
//! * `0` — clean shutdown, nothing lost or degraded;
//! * `3` — served, but degraded: a shed or poisoned batch, a degraded
//!   refinement, or a journal repair ([`EXIT_DEGRADED`]);
//! * `4` — unrecoverable: the restart budget is exhausted, recovery
//!   failed, or the state directory belongs to a different
//!   configuration/network ([`EXIT_UNRECOVERABLE`]);
//! * `1` — usage or startup error (bad flags, unreadable network).
//!
//! The daemon is crash-safe by construction: `kill -9` at any instant
//! and a restart with the same flags resumes from the latest checkpoint
//! plus journal, skips spool files that were already applied, and
//! continues byte-identically (see `tests/service_chaos.rs`).

use crate::cli::{parse, parse_duration_ms, required};
use neat_durability::retry::{JitterBackoff, RetryFs};
use neat_durability::StdFs;
use neat_rnet::{io as netio, RoadNetwork};
use neat_runctl::{CancelToken, Clock, SystemClock};
use neat_svc::{
    DrainOutcome, NetConfig, NetServer, NoFaults, Service, ServiceStatus, SvcConfig, SvcError,
    TenantConfig, TenantRouter,
};
use neat_traj::sanitize::ErrorPolicy;
use std::collections::HashMap;
use std::fs::File;
use std::io::BufReader;
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// Exit code for a shutdown that served but lost or reduced something.
pub const EXIT_DEGRADED: u8 = 3;
/// Exit code when the service could not be recovered by restarting.
pub const EXIT_UNRECOVERABLE: u8 = 4;

/// Usage text for the serve surface (also printed by `neatd --help`).
pub const SERVE_USAGE: &str = "usage:
  neatd --network FILE --spool DIR --state DIR [--quarantine DIR]
        [--drain] [--max-ticks N] [--poll-ms N] [--seed N]
        [--queue-cap N] [--shed-backlog N]
        [--checkpoint-every N] [--checkpoint-ops N]
        [--batch-max-ops N] [--batch-deadline DUR]
        [--on-error fail|skip|repair] [--min-card N] [--epsilon M]
        [--poison-after N] [--max-restarts N]
        [--window SECONDS] [--compact-every N] [--idle-expiry]
  neatd --listen HOST:PORT --network FILE --spool DIR --state DIR
        [--quarantine DIR] [--max-tenants N] [--push-ticks N]
        [--max-conns N] [--idle-timeout DUR] [--read-timeout DUR]
        [--max-frame-bytes N] [... service flags as above]
  (same flags as `neat serve`)

--checkpoint-every N (default 4) snapshots the state after every N
applied batches (an --idle-expiry watermark advance counts as one);
--checkpoint-ops N also snapshots after N op-ticks. A batch is acked
(or removed from the spool) once it is applied and its journal record
is fsynced, not when a snapshot covers it: a restart resumes from the
newest snapshot and replays the journal since, at most N-1 batches.
Under --listen a graceful drain (below) snapshots whatever is pending.

--window bounds retention: after each batch the watermark advances to
the newest observation time minus the window, t-fragments wholly
behind it are expired (drift events are printed as clusters are born,
grow, shrink, merge and die), and journal/checkpoint/index storage
stays O(window) instead of growing forever. --compact-every N forces
a journal compaction every N applied batches on top of the compaction
each checkpoint performs.

--idle-expiry (requires --window) also ticks the watermark from the
wall clock while no traffic arrives, mapping one wall-clock second to
one trajectory-time unit from the newest observation applied — so
windows keep closing and drift events keep firing on quiet streams
(and, with --listen, on quiet tenants). Without it the watermark only
advances when a batch is applied.

With --listen the daemon serves the framed TCP ingestion protocol
(`neat push`); the three directories become per-tenant roots. SIGTERM
or SIGINT (or a Drain frame) triggers a graceful drain: stop
accepting, flush in-flight batches, checkpoint every tenant, exit.

exit codes: 0 = clean, 3 = degraded-but-served (any tenant),
            4 = unrecoverable (any tenant), 1 = usage error";

fn load_network(path: &str) -> Result<RoadNetwork, String> {
    let f = File::open(path).map_err(|e| format!("cannot open network `{path}`: {e}"))?;
    netio::read_network(BufReader::new(f)).map_err(|e| format!("cannot read network: {e}"))
}

/// Builds the service configuration from parsed flags.
fn build_config(flags: &HashMap<String, String>) -> Result<SvcConfig, String> {
    let spool = required(flags, "spool")?;
    let state = required(flags, "state")?;
    let quarantine = match flags.get("quarantine") {
        Some(q) => q.clone(),
        None => format!("{state}/quarantine"),
    };
    let mut cfg = SvcConfig::new(spool, state, quarantine);
    cfg.neat.min_card = parse(flags, "min-card", cfg.neat.min_card)?;
    cfg.neat.epsilon = parse(flags, "epsilon", cfg.neat.epsilon)?;
    cfg.policy = match flags.get("on-error").map(String::as_str) {
        None | Some("fail") => ErrorPolicy::Strict,
        Some("skip") => ErrorPolicy::Skip,
        Some("repair") => ErrorPolicy::Repair,
        Some(other) => return Err(format!("unknown --on-error `{other}`")),
    };
    cfg.queue_capacity = parse(flags, "queue-cap", cfg.queue_capacity)?;
    cfg.shed_backlog = parse(flags, "shed-backlog", cfg.shed_backlog)?;
    cfg.checkpoint_every_batches = parse(flags, "checkpoint-every", cfg.checkpoint_every_batches)?;
    cfg.checkpoint_every_ops = parse(flags, "checkpoint-ops", cfg.checkpoint_every_ops)?;
    if let Some(ops) = flags.get("batch-max-ops") {
        cfg.batch_max_ops = Some(
            ops.parse()
                .map_err(|e| format!("invalid --batch-max-ops `{ops}`: {e}"))?,
        );
    }
    if let Some(spec) = flags.get("batch-deadline") {
        cfg.batch_deadline_ms = Some(parse_duration_ms(spec)?);
    }
    cfg.poison_after = parse(flags, "poison-after", cfg.poison_after)?;
    cfg.max_restarts = parse(flags, "max-restarts", cfg.max_restarts)?;
    if let Some(spec) = flags.get("window") {
        let window: f64 = spec
            .parse()
            .map_err(|e| format!("invalid --window `{spec}`: {e}"))?;
        if !window.is_finite() || window <= 0.0 {
            return Err(format!(
                "invalid --window `{spec}`: must be a positive duration in seconds"
            ));
        }
        cfg.window = Some(window);
    }
    if let Some(spec) = flags.get("compact-every") {
        let every: usize = spec
            .parse()
            .map_err(|e| format!("invalid --compact-every `{spec}`: {e}"))?;
        if every == 0 {
            return Err(format!("invalid --compact-every `{spec}`: must be >= 1"));
        }
        cfg.compact_every_batches = Some(every);
    }
    if flags.contains_key("idle-expiry") {
        if cfg.window.is_none() {
            return Err("--idle-expiry requires --window".to_string());
        }
        cfg.idle_expiry = true;
    }
    Ok(cfg)
}

/// Runs the service loop. Shared by `neatd` and `neat serve`.
///
/// # Errors
///
/// `Err(String)` for usage/startup problems (exit 1 at the callers);
/// service-level failures are reported through the exit code instead.
pub fn serve(flags: &HashMap<String, String>) -> Result<ExitCode, String> {
    if let Some(addr) = flags.get("listen") {
        return serve_net(flags, addr);
    }
    let net = load_network(required(flags, "network")?)?;
    let cfg = build_config(flags)?;
    let drain = flags.contains_key("drain");
    let max_ticks: u64 = parse(flags, "max-ticks", u64::MAX)?;
    let poll_ms: u64 = parse(flags, "poll-ms", 200)?;
    let seed: u64 = parse(flags, "seed", 42)?;

    // All storage goes through the retrying decorator; the probe feeds
    // its counters into the health report.
    let fs = RetryFs::new(StdFs, 3, JitterBackoff::seeded(seed));
    let probe_fs = fs.clone();
    // The plain path normally runs clockless (deterministic ticks);
    // idle-stream retention is the one feature that needs wall time.
    let clock: Option<Arc<dyn Clock>> = if cfg.idle_expiry {
        Some(Arc::new(SystemClock::new()))
    } else {
        None
    };
    let mut svc =
        match Service::open_with(&net, cfg, fs, Arc::new(NoFaults), clock, CancelToken::new()) {
            Ok(svc) => svc,
            Err(SvcError::Checkpoint(e)) => {
                // A state directory from a different session (config or
                // network mismatch) or beyond-repair storage damage is not
                // recoverable by restarting with the same flags.
                eprintln!("neatd: unrecoverable state directory: {e}");
                return Ok(ExitCode::from(EXIT_UNRECOVERABLE));
            }
            Err(e) => return Err(format!("cannot start service: {e}")),
        };
    svc = svc.with_retry_probe(Arc::new(move || probe_fs.stats()));

    eprintln!(
        "neatd: serving (spool={}, state={}, mode={})",
        required(flags, "spool")?,
        required(flags, "state")?,
        if drain { "drain" } else { "watch" }
    );

    if drain {
        let outcome = svc.run_drain(max_ticks);
        report_drift(&svc, 0);
        eprintln!("neatd: {:?}; {}", outcome, svc.health().digest());
        return Ok(exit_for(&svc, outcome == DrainOutcome::Failed));
    }

    let mut ticks: u64 = 0;
    let mut seen_epoch: u64 = 0;
    let failed = loop {
        if ticks >= max_ticks {
            break false;
        }
        ticks += 1;
        match svc.tick() {
            neat_svc::TickOutcome::Worked => {
                seen_epoch = report_drift(&svc, seen_epoch);
            }
            neat_svc::TickOutcome::Idle => {
                std::thread::sleep(Duration::from_millis(poll_ms));
            }
            neat_svc::TickOutcome::Cancelled => break false,
            neat_svc::TickOutcome::Failed => break true,
        }
    };
    eprintln!("neatd: stopped; {}", svc.health().digest());
    Ok(exit_for(&svc, failed))
}

/// Runs the framed TCP ingestion daemon: a [`TenantRouter`] behind a
/// [`NetServer`], drained gracefully on SIGTERM/SIGINT or a `Drain`
/// frame. The spool/state/quarantine flags become per-tenant roots.
fn serve_net(flags: &HashMap<String, String>, addr: &str) -> Result<ExitCode, String> {
    let net = load_network(required(flags, "network")?)?;
    let svc_cfg = build_config(flags)?;
    let seed: u64 = parse(flags, "seed", 42)?;
    let max_ticks: u64 = parse(flags, "max-ticks", u64::MAX)?;

    let mut tcfg = TenantConfig::new(svc_cfg);
    tcfg.seed = seed;
    tcfg.max_tenants = parse(flags, "max-tenants", tcfg.max_tenants)?;
    tcfg.push_tick_budget = parse(flags, "push-ticks", tcfg.push_tick_budget)?;

    let mut ncfg = NetConfig::default();
    ncfg.max_conns = parse(flags, "max-conns", ncfg.max_conns)?;
    ncfg.max_frame_bytes = parse(flags, "max-frame-bytes", ncfg.max_frame_bytes)?;
    if let Some(spec) = flags.get("idle-timeout") {
        ncfg.idle_timeout_ms = parse_duration_ms(spec)?;
    }
    if let Some(spec) = flags.get("read-timeout") {
        ncfg.read_timeout_ms = parse_duration_ms(spec)?;
    }

    let fs = RetryFs::new(StdFs, 3, JitterBackoff::seeded(seed));
    let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
    let cancel = CancelToken::new();
    install_signal_drain(&cancel);

    let listener =
        TcpListener::bind(addr).map_err(|e| format!("cannot bind listener `{addr}`: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve listener address: {e}"))?;
    // Machine-parseable: tests bind port 0 and read the real port here.
    eprintln!("neatd: listening on {local}");

    let router = TenantRouter::new(&net, fs, tcfg, Arc::clone(&clock), cancel.observer());
    let server = NetServer::new(router, ncfg, clock, cancel.observer());
    server
        .serve(&listener)
        .map_err(|e| format!("listener failed: {e}"))?;

    // Drain: the accept loop has stopped and every handler has exited;
    // flush what remains and checkpoint each tenant.
    eprintln!("neatd: draining");
    let mut router = server.into_router();
    let mut failed = false;
    for (tenant, outcome) in router.drain_all(max_ticks) {
        failed |= outcome == DrainOutcome::Failed;
        eprintln!("neatd: tenant {tenant}: {outcome:?}");
    }
    for tenant in router.tenant_names() {
        if let Some(h) = router.health_of(&tenant) {
            eprintln!("neatd: tenant {tenant}: {}", h.digest());
        }
    }
    let status = router.worst_status();
    eprintln!("neatd: stopped ({})", status.name());
    if failed || status == ServiceStatus::Failed {
        return Ok(ExitCode::from(EXIT_UNRECOVERABLE));
    }
    Ok(match status {
        ServiceStatus::Running => ExitCode::SUCCESS,
        _ => ExitCode::from(EXIT_DEGRADED),
    })
}

/// Cancels `cancel` when SIGTERM or SIGINT arrives, turning the signal
/// into the same graceful-drain path a `Drain` frame takes. The watcher
/// thread is detached; it dies with the process.
///
/// Installed through `sigaction(2)` from the platform C library (the
/// workspace builds offline with no `libc` crate, so the binding is
/// declared here against the 64-bit Linux layout that glibc and musl
/// share). `SA_RESTART` is set explicitly: no syscall in the daemon
/// relies on `EINTR` — every loop observes the cancel token — so
/// unrelated blocking calls should not spuriously fail. A previously
/// installed non-default handler is replaced with a notice on stderr,
/// and an installation failure degrades to draining via a `Drain`
/// frame instead of aborting startup.
#[cfg(target_os = "linux")]
fn install_signal_drain(cancel: &CancelToken) {
    use std::os::raw::{c_int, c_ulong};
    use std::sync::atomic::{AtomicBool, Ordering};

    static SIGNALED: AtomicBool = AtomicBool::new(false);
    extern "C" fn on_signal(_signum: c_int) {
        SIGNALED.store(true, Ordering::SeqCst);
    }

    /// `struct sigaction` as glibc and musl lay it out on 64-bit Linux:
    /// handler union, 1024-bit signal mask, flags, restorer. The
    /// handler slot is address-sized (the C `sighandler_t` is an
    /// address), which also lets it hold `SIG_DFL`/`SIG_IGN`.
    #[repr(C)]
    struct SigactionC {
        sa_handler: usize,
        sa_mask: [c_ulong; 16],
        sa_flags: c_int,
        sa_restorer: usize,
    }

    extern "C" {
        fn sigaction(signum: c_int, act: *const SigactionC, oldact: *mut SigactionC) -> c_int;
    }

    const SIGINT: c_int = 2;
    const SIGTERM: c_int = 15;
    const SA_RESTART: c_int = 0x1000_0000;
    const SIG_DFL: usize = 0;
    const SIG_IGN: usize = 1;

    for (signum, name) in [(SIGTERM, "SIGTERM"), (SIGINT, "SIGINT")] {
        let act = SigactionC {
            sa_handler: on_signal as extern "C" fn(c_int) as usize,
            sa_mask: [0; 16],
            sa_flags: SA_RESTART,
            sa_restorer: 0,
        };
        let mut old = SigactionC {
            sa_handler: SIG_DFL,
            sa_mask: [0; 16],
            sa_flags: 0,
            sa_restorer: 0,
        };
        // SAFETY: `SigactionC` matches the platform `struct sigaction`
        // layout (see above), the handler only stores to a static
        // atomic (async-signal-safe), and this runs once at startup
        // before the listener threads exist.
        let rc = unsafe { sigaction(signum, &act, &mut old) };
        if rc != 0 {
            eprintln!(
                "neatd: warning: cannot install {name} handler; use a Drain frame to stop gracefully"
            );
        } else if old.sa_handler != SIG_DFL && old.sa_handler != SIG_IGN {
            eprintln!("neatd: note: replaced a previously installed {name} handler");
        }
    }
    let observer = cancel.observer();
    std::thread::spawn(move || loop {
        if SIGNALED.load(Ordering::SeqCst) {
            observer.cancel();
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    });
}

/// Off Linux there is no signal hook (the `sigaction` binding above is
/// layout-specific); stop the daemon gracefully with a `Drain` frame.
#[cfg(not(target_os = "linux"))]
fn install_signal_drain(_cancel: &CancelToken) {}

/// Prints the cluster-drift lifecycle events of the current query view
/// when it is newer than `seen_epoch`; returns the newest epoch seen.
/// Views published and replaced between calls cannot be reported (only
/// the latest is retained) — watch mode calls this every worked tick,
/// which observes each per-batch publish.
fn report_drift<F: neat_durability::Fs + Clone>(svc: &Service<'_, F>, seen_epoch: u64) -> u64 {
    let view = svc.query();
    if view.epoch > seen_epoch {
        for ev in &view.drift {
            eprintln!("neatd: drift: {}", drift_line(ev));
        }
    }
    view.epoch
}

/// Stable one-line rendering of a drift event for operator logs.
fn drift_line(ev: &neat_core::DriftEvent) -> String {
    use neat_core::DriftEvent as E;
    match ev {
        E::Born { key, size } => format!("born key={key} size={size}"),
        E::Grew { key, from, to } => format!("grew key={key} size={from}->{to}"),
        E::Shrank { key, from, to } => format!("shrank key={key} size={from}->{to}"),
        E::Merged { key, sources } => format!("merged key={key} sources={sources:?}"),
        E::Died { key, size } => format!("died key={key} size={size}"),
        other => format!("{other:?}"),
    }
}

/// Maps the final service status onto the exit-code scheme.
fn exit_for<F: neat_durability::Fs + Clone>(svc: &Service<'_, F>, failed: bool) -> ExitCode {
    if failed || svc.status() == ServiceStatus::Failed {
        return ExitCode::from(EXIT_UNRECOVERABLE);
    }
    match svc.status() {
        ServiceStatus::Running => ExitCode::SUCCESS,
        _ => ExitCode::from(EXIT_DEGRADED),
    }
}
