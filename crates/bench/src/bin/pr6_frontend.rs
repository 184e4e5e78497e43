//! Front-end benchmark for the flat SoA layout: arena-backed Phase 1 at
//! 1 and N threads, plus the cache-friendly map-matching kernel (flat
//! cost/backpointer matrices, CSR grid, reusable scratch buffers).
//!
//! Emits a `BENCH_PR6.json` report with phase-1 wall-clock timings at 1
//! and N threads, map-matching throughput, and the deterministic work
//! counters (`samples_scanned`, `candidate_lookups`, `matrix_cells`)
//! that gate CI. The N-thread run must produce byte-identical clusters to
//! the 1-thread run — the binary asserts it.
//!
//! Flags:
//!
//! * `--smoke` — tiny fixture (seconds, debug-friendly); used by the CI
//!   `bench-smoke` job.
//! * `--out <path>` — where to write the JSON (default
//!   `target/bench/BENCH_PR6.json`, under `$CARGO_TARGET_DIR` when set;
//!   the files at the repository root are recorded results, written only
//!   when passed explicitly).
//! * `--check-baseline <path>` — compare the deterministic counters
//!   against a checked-in baseline JSON and exit non-zero on any drift.
//! * `--threads <n>` — thread count for the parallel run (default 8).
//! * `--objects <n>` / `--seed <n>` — full-mode dataset size and seed.

use neat_bench::setup::{dataset, experiment_config, network, DEFAULT_SEED};
use neat_bench::time;
use neat_core::{Mode, Neat, NeatConfig, NeatResult};
use neat_mapmatch::{MapMatcher, MatchConfig};
use neat_mobisim::{generate_dataset, SimConfig};
use neat_rnet::location::RawSample;
use neat_rnet::netgen::{generate_grid_network, GridNetworkConfig, MapPreset};
use neat_rnet::RoadNetwork;
use neat_traj::{Dataset, Trajectory};
use serde_json::{json, Value};

struct Args {
    smoke: bool,
    out: String,
    check_baseline: Option<String>,
    threads: usize,
    objects: usize,
    seed: u64,
}

fn parse_args() -> Args {
    let mut out = Args {
        smoke: false,
        out: neat_bench::default_out("BENCH_PR6.json"),
        check_baseline: None,
        threads: 8,
        objects: 5000,
        seed: DEFAULT_SEED,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let usage = "usage: pr6_frontend [--smoke] [--out <path>] [--check-baseline <path>] \
                 [--threads <n>] [--objects <n>] [--seed <n>]";
    while i < argv.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            argv.get(*i).unwrap_or_else(|| panic!("{usage}")).clone()
        };
        match argv[i].as_str() {
            "--smoke" => out.smoke = true,
            "--out" => out.out = value(&mut i),
            "--check-baseline" => out.check_baseline = Some(value(&mut i)),
            "--threads" => out.threads = value(&mut i).parse().expect(usage),
            "--objects" => out.objects = value(&mut i).parse().expect(usage),
            "--seed" => out.seed = value(&mut i).parse().expect(usage),
            _ => panic!("{usage}"),
        }
        i += 1;
    }
    out
}

/// The fixture the CI smoke job runs: the `crash_chaos`/`budget_chaos`
/// 4×4 grid with 18 objects — big enough for junction insertion and
/// Viterbi matching to do real work, small enough for a debug CI job.
fn smoke_fixture(seed: u64) -> (RoadNetwork, Dataset) {
    let net = generate_grid_network(&GridNetworkConfig::small_test(4, 4), seed);
    let sim = SimConfig {
        num_objects: 18,
        num_hotspots: 2,
        num_destinations: 2,
        sample_period_s: 4.0,
        ..SimConfig::default()
    };
    let data = generate_dataset(&net, &sim, seed, "pr6-smoke");
    (net, data)
}

/// Everything order-sensitive in a result, minus timings and stats.
fn cluster_fingerprint(r: &NeatResult) -> (usize, usize, u64) {
    (
        r.fragment_count,
        r.samples_scanned,
        neat_bench::result_digest(r),
    )
}

/// Repeats per timed configuration: single-shot wall clocks on a busy
/// box swing several-fold, so every reported time is a best-of-N minimum
/// (and the fingerprint is asserted identical across repeats).
const REPS: usize = 3;

/// One arena-path configuration (the default `Neat::run` front end),
/// timed best-of-[`REPS`].
fn arena_run(
    label: &str,
    cfg: &NeatConfig,
    net: &RoadNetwork,
    data: &Dataset,
) -> (Value, (usize, usize, u64)) {
    let neat = Neat::new(net, *cfg);
    let mut best_p1 = f64::MAX;
    let mut best_total = f64::MAX;
    let mut fp = None;
    let mut summary = json!(null);
    for _ in 0..REPS {
        let (result, wall) = time(|| neat.run(data, Mode::Opt).expect("opt-NEAT run"));
        best_p1 = best_p1.min(result.timings.phase1.as_secs_f64());
        best_total = best_total.min(wall.as_secs_f64());
        let this_fp = cluster_fingerprint(&result);
        match &fp {
            Some(prev) => assert_eq!(prev, &this_fp, "{label}: output drifted across repeats"),
            None => fp = Some(this_fp),
        }
        summary = json!({
            "label": label,
            "threads": cfg.threads,
            "reps": REPS,
            "phase1_s": best_p1,
            "total_s": best_total,
            "fragments": result.fragment_count,
            "samples_scanned": result.samples_scanned,
            "flows": result.flow_clusters.len(),
            "clusters": result.clusters.len(),
        });
    }
    (summary, fp.expect("REPS >= 1"))
}

fn main() {
    let args = parse_args();
    let (net, data, fixture, cfg): (RoadNetwork, Dataset, String, NeatConfig) = if args.smoke {
        let (net, data) = smoke_fixture(7);
        let cfg = NeatConfig {
            min_card: 3,
            epsilon: 600.0,
            ..NeatConfig::default()
        };
        (net, data, "grid4x4-smoke".into(), cfg)
    } else {
        let net = network(MapPreset::SanJose, args.seed);
        let data = dataset(MapPreset::SanJose, &net, args.objects, args.seed);
        (
            net,
            data,
            format!("SJ{}", args.objects),
            experiment_config(),
        )
    };

    // Arena front end at 1 and N threads: byte-identical output required.
    neat_bench::log::info("pr6_frontend: arena run (1 thread)");
    let (arena_1t, fp_1t) = arena_run("arena-1t", &NeatConfig { threads: 1, ..cfg }, &net, &data);
    neat_bench::log::info(&format!(
        "pr6_frontend: arena run ({} threads)",
        args.threads
    ));
    let (arena_nt, fp_nt) = arena_run(
        "arena-nt",
        &NeatConfig {
            threads: args.threads,
            ..cfg
        },
        &net,
        &data,
    );
    assert_eq!(fp_1t, fp_nt, "arena front end is not thread-invariant");

    // Map-matching front end: strip the dataset back to raw GPS traces
    // and re-match them through the flat-matrix Viterbi kernel.
    let traces: Vec<Vec<RawSample>> = data
        .trajectories()
        .iter()
        .map(|tr: &Trajectory| {
            tr.points()
                .iter()
                .map(|p| RawSample::new(p.position, p.time))
                .collect()
        })
        .collect();
    neat_bench::log::info(&format!(
        "pr6_frontend: map-matching {} traces",
        traces.len()
    ));
    let matcher = MapMatcher::new(&net, MatchConfig::default());
    let mut best = None;
    for _ in 0..REPS {
        let (run, wall) = time(|| {
            matcher
                .match_traces_stats(&traces, "pr6-matched")
                .expect("map-matching run")
        });
        if best.as_ref().is_none_or(|&(_, w)| wall < w) {
            best = Some((run, wall));
        }
    }
    let ((matched, skipped, stats), mm_wall) = best.expect("REPS >= 1");
    let mapmatch = json!({
        "traces": traces.len(),
        "matched": matched.len(),
        "skipped": skipped,
        "wall_s": mm_wall.as_secs_f64(),
        "samples_matched": stats.samples_matched,
        "candidate_lookups": stats.candidate_lookups,
        "matrix_cells": stats.matrix_cells,
    });

    // The deterministic counters the CI smoke gate pins: pure functions
    // of (fixture, config), identical at every thread count.
    let counters = json!({
        "samples_scanned": arena_nt.get("samples_scanned").cloned().expect("field"),
        "candidate_lookups": stats.candidate_lookups,
        "matrix_cells": stats.matrix_cells,
    });

    let p1 = |v: &Value| v.get("phase1_s").and_then(Value::as_f64).expect("field");
    let (p1_1t, p1_nt) = (p1(&arena_1t), p1(&arena_nt));
    let report = json!({
        "bench": "pr6_frontend",
        "fixture": fixture,
        "seed": args.seed,
        "smoke": args.smoke,
        "arena_1t": arena_1t,
        "arena_nt": arena_nt,
        "mapmatch": mapmatch,
        "counters": counters,
        "output_identical": true,
    });
    let pretty = format!(
        "{}\n",
        serde_json::to_string_pretty(&report).expect("serialize report")
    );
    neat_bench::write_out(&args.out, &pretty).expect("write the report");
    neat_bench::log::out(&format!(
        "pr6_frontend: phase1 {:.4}s @1T, {:.4}s @{}T; mapmatch {:.3}s for {} samples ({})",
        p1_1t,
        p1_nt,
        args.threads,
        mm_wall.as_secs_f64(),
        stats.samples_matched,
        args.out,
    ));

    if let Some(path) = args.check_baseline {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
        let baseline: Value = serde_json::from_str(&text).expect("parse baseline JSON");
        assert_eq!(
            baseline.get("fixture"),
            report.get("fixture"),
            "baseline was recorded on a different fixture"
        );
        let want = baseline.get("counters").expect("baseline counters");
        let got = report.get("counters").expect("report counters");
        if want != got {
            eprintln!(
                "pr6_frontend: COUNTER DRIFT — deterministic work counters diverged from \
                 {path}\n  baseline: {want:?}\n  current:  {got:?}"
            );
            std::process::exit(1);
        }
        neat_bench::log::out(&format!("pr6_frontend: counter gate ok ({got:?})"));
    }
}
