//! `neatbench` — the repository benchmark.
//!
//! ```text
//! neatbench --workload NAME --seed N --seconds S --trace 0|1 --neatd PATH
//! neatbench --self-check --neatd PATH
//! ```
//!
//! Three workloads against the two surfaces users touch: the batch path
//! of `neat cluster` (`batch_sj5000`), and `neatd --listen` fed over
//! framed TCP (`stream_window`, `stream_bulk`). With `--trace 0` the
//! last stdout line carries the end-to-end metrics; with `--trace 1` the
//! per-layer metrics, taken by spans around calls into each layer's
//! public functions from this program. Every run checks the program's
//! outputs against a reference and records its seed, parameters and the
//! host beside its numbers under the Cargo target directory. See
//! `neatbench/README.md` for the metric definitions and predictions.

mod batch;
mod client;
mod inputs;
mod replay;
mod stream;
mod trace;
mod util;

use inputs::Fixture;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use stream::StreamParams;
use trace::{Trace, COUNTS};
use util::{json_num, json_str, Host};

/// Every workload, in report order.
const WORKLOADS: &[&str] = &["batch_sj5000", "stream_window", "stream_bulk"];

/// The stream workloads' parameters at each fixture scale.
fn stream_params(workload: &str, fx: Fixture) -> Option<StreamParams> {
    let p = match (workload, fx) {
        ("stream_window", Fixture::Sj) => StreamParams {
            per_batch: 20,
            window_s: 900.0,
            departures_per_s: 0.5,
            rate_per_s: 4.0,
            warmup: 30,
            closed: 80,
            cycles: 4,
            extras_every: 4,
        },
        ("stream_bulk", Fixture::Sj) => StreamParams {
            per_batch: 250,
            window_s: 600.0,
            departures_per_s: 1.0,
            rate_per_s: 5.0,
            warmup: 6,
            closed: 40,
            cycles: 4,
            extras_every: 4,
        },
        ("stream_window", Fixture::Tiny) => StreamParams {
            per_batch: 4,
            window_s: 300.0,
            departures_per_s: 0.5,
            rate_per_s: 20.0,
            warmup: 3,
            closed: 6,
            cycles: 2,
            extras_every: 2,
        },
        ("stream_bulk", Fixture::Tiny) => StreamParams {
            per_batch: 20,
            window_s: 150.0,
            departures_per_s: 1.0,
            rate_per_s: 20.0,
            warmup: 2,
            closed: 6,
            cycles: 2,
            extras_every: 2,
        },
        _ => return None,
    };
    Some(p)
}

/// A metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Everything one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Names of the correctness checks that failed.
    pub mismatches: Vec<String>,
    /// The contract's end-to-end metrics.
    pub e2e: Vec<Metric>,
    /// The same figures under the workload's own names, plus those that
    /// apply to this workload only (printed, and kept in the record).
    pub report: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    pub layers: Vec<Metric>,
    pub notes: Vec<String>,
    /// Raw per-operation samples behind the end-to-end figures.
    pub raw: Trace,
    /// Raw spans behind the per-layer figures (traced runs).
    pub spans: Option<String>,
}

impl Outcome {
    pub fn check(&mut self, what: &str, ok: bool) {
        if !ok {
            self.mismatches.push(what.to_string());
        }
    }

    pub fn e2e(&mut self, name: &str, v: f64, unit: &'static str) {
        self.e2e.push((name.to_string(), v, unit));
    }

    pub fn report(&mut self, name: &str, v: f64, unit: &'static str) {
        self.report.push((name.to_string(), v, unit));
    }

    pub fn layer(&mut self, name: &str, v: f64, unit: &'static str) {
        self.layers.push((name.to_string(), v, unit));
    }

    pub fn note(&mut self, s: String) {
        self.notes.push(s);
    }

    /// Adds every span summary and count of `t`.
    pub fn layers_from(&mut self, t: &Trace) {
        t.layer_metrics(&mut self.layers);
        for (name, unit) in COUNTS {
            let v = if *name == "neat.phase3.pruned_ratio" {
                let pairs = t.sum("neat.phase3.pairs");
                if pairs > 0.0 {
                    t.sum("phase3.pruned") / pairs
                } else {
                    0.0
                }
            } else {
                t.mean(name)
            };
            self.layers.push((name.to_string(), v, unit));
        }
        self.spans = Some(t.spans_json());
    }

    fn correct(&self) -> bool {
        self.mismatches.is_empty() && self.failed == 0
    }

    fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    neatd: PathBuf,
    self_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        neatd: PathBuf::from("target/release/neatd"),
        self_check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-check" {
            a.self_check = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => a.trace = value != "0",
            "--neatd" => a.neatd = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !a.self_check && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got `{}`",
            a.workload
        ));
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(a)
}

/// Runs one workload in a fresh work directory, removed afterwards.
fn run_workload(
    workload: &str,
    fx: Fixture,
    seed: u64,
    seconds: f64,
    trace: bool,
    neatd: &Path,
) -> Result<Outcome, String> {
    let work = util::target_dir()
        .join("neatbench/work")
        .join(format!("{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let out = match stream_params(workload, fx) {
        Some(p) => {
            if !neatd.is_file() {
                return Err(format!("no neatd binary at {}", neatd.display()));
            }
            stream::run(&p, fx, seed, seconds, trace, neatd, &work)
        }
        None => batch::run(fx, seed, seconds, trace, &work),
    };
    let _ = std::fs::remove_dir_all(&work);
    out
}

fn metrics_json(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                json_num(*v),
                json_str(u)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn result_line(out: &Outcome, trace: bool) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics_json(if trace { &out.layers } else { &out.e2e })
    )
}

/// Writes the run record (parameters, host, every figure and raw span)
/// under the target directory; returns its path.
fn write_record(a: &Args, out: &Outcome, host: &Host) -> std::io::Result<PathBuf> {
    let dir = util::target_dir().join("neatbench/runs");
    std::fs::create_dir_all(&dir)?;
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let path = dir.join(format!(
        "{}-seed{}-trace{}-{stamp}.json",
        a.workload,
        a.seed,
        u8::from(a.trace)
    ));
    let params = match stream_params(&a.workload, Fixture::Sj) {
        Some(p) => format!(
            "{{\"per_batch\": {}, \"window_s\": {}, \"departures_per_s\": {}, \
             \"rate_per_s\": {}, \"warmup\": {}, \"open_pushes\": {}, \"closed_pushes\": {}, \
             \"cycles\": {}}}",
            p.per_batch,
            p.window_s,
            p.departures_per_s,
            p.rate_per_s,
            p.warmup,
            p.open_pushes(a.seconds),
            p.closed,
            p.cycles
        ),
        None => format!("{{\"objects\": {}}}", Fixture::Sj.batch_objects()),
    };
    let notes: Vec<String> = out.notes.iter().map(|n| json_str(n)).collect();
    let mismatches: Vec<String> = out.mismatches.iter().map(|n| json_str(n)).collect();
    let text = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"threads\": {}, \"host\": {{\"nproc\": {}, \"cpu\": {}, \"kernel\": {}, \"commit\": {}}}, \
         \"params\": {params}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
         \"failed_frac\": {}, \"mismatches\": [{}], \"metrics\": {}, \"report\": {}, \
         \"layers\": {}, \"notes\": [{}], \"raw\": {}, \"spans\": {}}}\n",
        json_str(&a.workload),
        a.seed,
        a.seconds,
        a.trace,
        util::available_threads(),
        host.nproc,
        json_str(&host.cpu),
        json_str(&host.kernel),
        json_str(&host.commit),
        out.correct(),
        out.attempted,
        out.failed,
        out.failed_frac(),
        mismatches.join(", "),
        metrics_json(&out.e2e),
        metrics_json(&out.report),
        metrics_json(&out.layers),
        notes.join(", "),
        out.raw.spans_json(),
        out.spans.as_deref().unwrap_or("null")
    );
    std::fs::write(&path, text)?;
    Ok(path)
}

/// The metric names listed under `key` in `BENCHMARK.json`.
fn bench_names(text: &str, key: &str) -> Vec<String> {
    let Some(start) = text.find(&format!("\"{key}\"")) else {
        return Vec::new();
    };
    let rest = &text[start..];
    let (Some(open), Some(close)) = (rest.find('['), rest.find(']')) else {
        return Vec::new();
    };
    rest[open..close]
        .split("\"name\"")
        .skip(1)
        .filter_map(|s| s.split('"').nth(1).map(str::to_string))
        .collect()
}

/// Runs every workload on the tiny fixture, traced and untraced, and
/// checks that each run is correct and emits exactly the metrics
/// `BENCHMARK.json` names, and that the file names only known workloads.
fn self_check(neatd: &Path) -> bool {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        eprintln!("self-check: cannot read BENCHMARK.json in the current directory");
        return false;
    };
    let listed = bench_names(&text, "workloads");
    let mut ok = !listed.is_empty() && listed.iter().all(|w| WORKLOADS.contains(&w.as_str()));
    if !ok {
        println!("self-check: BENCHMARK.json workloads {listed:?} not all in {WORKLOADS:?}");
    }
    for w in WORKLOADS {
        for trace in [false, true] {
            let key = if trace { "per_layer" } else { "end_to_end" };
            let mut want = bench_names(&text, key);
            want.sort();
            let res = run_workload(w, Fixture::Tiny, 7, 1.5, trace, neatd);
            let verdict = match res {
                Ok(out) => {
                    let got = if trace { &out.layers } else { &out.e2e };
                    let mut names: Vec<String> = got.iter().map(|m| m.0.clone()).collect();
                    names.sort();
                    if !out.correct() {
                        Err(format!("incorrect: {:?} {:?}", out.mismatches, out.notes))
                    } else if names != want {
                        Err(format!("metrics {names:?} != BENCHMARK.json {want:?}"))
                    } else if got.iter().any(|m| !m.1.is_finite()) {
                        Err("a metric is not finite".to_string())
                    } else {
                        Ok(out.attempted)
                    }
                }
                Err(e) => Err(e),
            };
            match verdict {
                Ok(n) => println!(
                    "self-check {w} trace={}: ok ({n} operations)",
                    u8::from(trace)
                ),
                Err(e) => {
                    ok = false;
                    println!("self-check {w} trace={}: FAILED: {e}", u8::from(trace));
                }
            }
        }
    }
    ok
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("neatbench: {e}");
            return ExitCode::from(2);
        }
    };
    if a.self_check {
        return if self_check(&a.neatd) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let host = Host::probe();
    println!(
        "neatbench: workload={} seed={} seconds={} trace={} threads={}",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        util::available_threads()
    );
    println!(
        "host: nproc={} cpu=\"{}\" kernel={} commit={}",
        host.nproc, host.cpu, host.kernel, host.commit
    );
    let out = match run_workload(
        &a.workload,
        Fixture::Sj,
        a.seed,
        a.seconds,
        a.trace,
        &a.neatd,
    ) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("neatbench: {} failed: {e}", a.workload);
            return ExitCode::from(2);
        }
    };
    for (n, v, u) in &out.report {
        println!("  {n:<20} {v:>12.4} {u}");
    }
    println!(
        "  {:<20} {:>12.4} ratio ({} of {} operations failed)",
        "failed_frac",
        out.failed_frac(),
        out.failed,
        out.attempted
    );
    for n in &out.notes {
        println!("  note: {n}");
    }
    for m in &out.mismatches {
        println!("  MISMATCH: {m}");
    }
    match write_record(&a, &out, &host) {
        Ok(p) => println!("record: {}", p.display()),
        Err(e) => eprintln!("neatbench: cannot write the run record: {e}"),
    }
    println!("{}", result_line(&out, a.trace));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
