//! Phase-3 optimisation benchmark: the sharded distance oracle, endpoint
//! one-to-many tables and ALT landmark bounds against the pre-existing
//! pairwise-A* path, with the deterministic executor at `--threads`.
//!
//! Emits a `BENCH_PR5.json` report with per-phase wall-clock timings, shortest-path
//! work counters and the baseline/optimised comparison. The two runs must
//! produce identical clusters — the binary asserts it.
//!
//! Flags:
//!
//! * `--smoke` — tiny fixture (seconds, debug-friendly); used by the CI
//!   `bench-smoke` job.
//! * `--out <path>` — where to write the JSON (default
//!   `target/bench/BENCH_PR5.json`, under `$CARGO_TARGET_DIR` when set;
//!   the files at the repository root are recorded results, written only
//!   when passed explicitly).
//! * `--check-baseline <path>` — compare the optimised run's phase-3
//!   shortest-path work (`sp_computations + one_to_many_scans`) against a
//!   checked-in baseline JSON and exit non-zero on regression.
//! * `--threads <n>` — thread count for the optimised run (default 8).
//! * `--objects <n>` / `--seed <n>` — full-mode dataset size and seed.

use neat_bench::setup::{dataset, experiment_config, network, DEFAULT_SEED};
use neat_bench::time;
use neat_core::{Mode, Neat, NeatConfig};
use neat_mobisim::{generate_dataset, SimConfig};
use neat_rnet::netgen::{generate_grid_network, GridNetworkConfig, MapPreset};
use neat_rnet::RoadNetwork;
use neat_traj::Dataset;
use serde_json::{json, Value};

struct Args {
    smoke: bool,
    out: String,
    check_baseline: Option<String>,
    threads: usize,
    alt: Option<usize>,
    objects: usize,
    seed: u64,
}

fn parse_args() -> Args {
    let mut out = Args {
        smoke: false,
        out: neat_bench::default_out("BENCH_PR5.json"),
        check_baseline: None,
        threads: 8,
        alt: None,
        objects: 5000,
        seed: DEFAULT_SEED,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let usage = "usage: pr5_speedup [--smoke] [--out <path>] [--check-baseline <path>] \
                 [--threads <n>] [--alt <k>] [--objects <n>] [--seed <n>]";
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
            "--alt" => out.alt = Some(value(&mut i).parse().expect(usage)),
            "--objects" => out.objects = value(&mut i).parse().expect(usage),
            "--seed" => out.seed = value(&mut i).parse().expect(usage),
            _ => panic!("{usage}"),
        }
        i += 1;
    }
    out
}

/// The fixture the CI smoke job runs: the `crash_chaos`/`budget_chaos`
/// 4×4 grid with 18 objects — big enough for phase 3 to do real
/// shortest-path work, small enough for a debug-build CI job.
fn smoke_fixture(seed: u64) -> (RoadNetwork, Dataset) {
    let net = generate_grid_network(&GridNetworkConfig::small_test(4, 4), seed);
    let sim = SimConfig {
        num_objects: 18,
        num_hotspots: 2,
        num_destinations: 2,
        sample_period_s: 4.0,
        ..SimConfig::default()
    };
    let data = generate_dataset(&net, &sim, seed, "pr5-smoke");
    (net, data)
}

fn run_json(label: &str, cfg: &NeatConfig, net: &RoadNetwork, data: &Dataset) -> (Value, u64) {
    let neat = Neat::new(net, *cfg);
    let (result, wall) = time(|| neat.run(data, Mode::Opt).expect("opt-NEAT run"));
    let s = &result.phase3_stats;
    let v = json!({
        "label": label,
        "threads": cfg.threads,
        "alt_landmarks": cfg.alt_landmarks,
        "endpoint_tables": cfg.endpoint_tables,
        "phase1_s": result.timings.phase1.as_secs_f64(),
        "phase2_s": result.timings.phase2.as_secs_f64(),
        "phase3_s": result.timings.phase3.as_secs_f64(),
        "total_s": wall.as_secs_f64(),
        "flows": result.flow_clusters.len(),
        "clusters": result.clusters.len(),
        "pairs_considered": s.pairs_considered,
        "elb_skips": s.elb_skips,
        "alt_skips": s.alt_skips,
        "sp_computations": s.sp_computations,
        "one_to_many_scans": s.one_to_many_scans,
        "sp_cache_hits": s.sp_cache_hits,
        "phase3_sp_work": s.sp_computations + s.one_to_many_scans,
    });
    (v, neat_bench::result_digest(&result))
}

fn main() {
    let args = parse_args();
    let (net, data, fixture, cfg): (RoadNetwork, Dataset, String, NeatConfig) = if args.smoke {
        let (net, data) = smoke_fixture(7);
        // The chaos-harness parameterization: several flows within ε of
        // each other, so phase 3 computes real network distances.
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

    // The pre-optimisation phase 3: sequential pairwise A* + ELB only.
    let baseline_cfg = NeatConfig {
        threads: 1,
        alt_landmarks: 0,
        endpoint_tables: false,
        ..cfg
    };
    // This PR: executor threads + ALT landmarks + endpoint tables.
    let optimized_cfg = NeatConfig {
        threads: args.threads,
        alt_landmarks: args.alt.unwrap_or(cfg.alt_landmarks),
        ..cfg
    };

    neat_bench::log::info(&format!("pr5_speedup: fixture {fixture}, baseline run"));
    let (base, base_fp) = run_json("baseline", &baseline_cfg, &net, &data);
    neat_bench::log::info("pr5_speedup: optimised run");
    let (opt, opt_fp) = run_json("optimized", &optimized_cfg, &net, &data);
    assert_eq!(
        base_fp, opt_fp,
        "optimised run changed the clusters — the optimisations must be exact"
    );

    let p3 = |v: &Value, k: &str| v.get(k).and_then(Value::as_f64).expect("json field");
    let work = |v: &Value| {
        v.get("phase3_sp_work")
            .and_then(Value::as_u64)
            .expect("json field")
    };
    let speedup = p3(&base, "phase3_s") / p3(&opt, "phase3_s").max(1e-9);
    let (base_p3, opt_p3) = (p3(&base, "phase3_s"), p3(&opt, "phase3_s"));
    let (base_work, opt_work) = (work(&base), work(&opt));
    let report = json!({
        "bench": "pr5_speedup",
        "fixture": fixture,
        "seed": args.seed,
        "smoke": args.smoke,
        "baseline": base,
        "optimized": opt,
        "phase3_speedup": speedup,
        "phase3_sp_work_reduction": base_work as f64 / opt_work.max(1) as f64,
        "output_identical": true,
    });
    let pretty = format!(
        "{}\n",
        serde_json::to_string_pretty(&report).expect("serialize report")
    );
    neat_bench::write_out(&args.out, &pretty).expect("write the report");
    neat_bench::log::out(&format!(
        "pr5_speedup: phase3 {base_p3:.3}s -> {opt_p3:.3}s ({speedup:.2}x), \
         sp work {base_work} -> {opt_work} ({})",
        args.out,
    ));

    if let Some(path) = args.check_baseline {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
        let baseline: Value = serde_json::from_str(&text).expect("parse baseline JSON");
        let allowed = baseline
            .get("optimized")
            .and_then(|o| o.get("phase3_sp_work"))
            .and_then(Value::as_u64)
            .expect("baseline optimized.phase3_sp_work");
        let current = opt_work;
        assert_eq!(
            baseline.get("fixture"),
            report.get("fixture"),
            "baseline was recorded on a different fixture"
        );
        if current > allowed {
            eprintln!(
                "pr5_speedup: REGRESSION — phase-3 sp work {current} exceeds baseline {allowed} \
                 ({path})"
            );
            std::process::exit(1);
        }
        neat_bench::log::out(&format!(
            "pr5_speedup: sp-work gate ok ({current} <= {allowed})"
        ));
    }
}
