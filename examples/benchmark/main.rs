//! The repository benchmark: one command runs a fixed workload against
//! `llmib-serve` and `llmib-engine` through their public APIs, prints
//! every metric with its unit and sample count, checks that every output
//! is correct, and exits nonzero if a check fails.
//!
//! ```sh
//! cargo run --release --manifest-path examples/benchmark/Cargo.toml -- \
//!     --workload <chat|shared_prefix|long_prompt|offline_batch|all> \
//!     --seed <u64> [--seconds <n>] [--trace [0|1]]
//! ```
//!
//! The root package builds the same files as its example `benchmark`
//! (`cargo run --release --example benchmark -- ...`).
//!
//! `--seconds` sets how many replicas or rounds a run measures (see
//! [`Workload::repetitions`]). An untraced run reports the end-to-end
//! metrics. A traced run also times each call into a layer from
//! outside, reports the per-layer metrics, and writes a Chrome trace to
//! `target/benchmark/<workload>-<seed>.trace.json`. The last line of
//! standard output is a JSON object with `correct`, `attempted`,
//! `failed` and the run's metrics. See README.md for what each workload
//! and metric is for.

mod engine;
mod live;
mod loadgen;
mod offline;
mod stats;
mod trace;
mod workload;

use serde_json::Value;
use stats::Stat;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use trace::{fold, obj, Trace};
use workload::Workload;

const USAGE: &str =
    "usage: benchmark --workload <chat|shared_prefix|long_prompt|offline_batch|all> \
                     --seed <u64> [--seconds <n>] [--trace [0|1]]";

/// Seconds one run measures unless `--seconds` says otherwise: the
/// `run_seconds` of `BENCHMARK.json`, whose `command` is run with
/// `--seconds <run_seconds>` appended.
const DEFAULT_SECONDS: u64 = 26;
/// Timed set-ups behind one set-up measurement.
const SETUP_REPS: usize = 3;

/// End-to-end metrics and their units, in output order. An untraced run
/// reports exactly these.
pub const END_TO_END: [(&str, &str); 5] = [
    ("ttft_p50_ms", "ms"),
    ("itl_p50_ms", "ms"),
    ("slo_attainment", "fraction"),
    ("peak_tok_s", "tok/s"),
    ("setup_s", "s"),
];

/// Per-layer metrics and their units, in output order. A traced run
/// reports exactly these; a layer a workload does not run reads 0 with
/// n=0.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("loadgen.late_p99_ms", "ms"),
    ("serve.submit_us_p50", "us"),
    ("serve.submit_us_p99", "us"),
    ("serve.admit_wait_ms_p50", "ms"),
    ("serve.admit_wait_ms_p90", "ms"),
    ("serve.first_token_ms_p50", "ms"),
    ("serve.mean_batch_occupancy", "seqs"),
    ("serve.prefill_chunks", "count"),
    ("serve.chunks_per_admission", "count"),
    ("serve.overhead_share", "fraction"),
    ("serve.peak_kv_utilization", "fraction"),
    ("serve.queue_full", "count"),
    ("serve.watchdog_stalls", "count"),
    ("prefix.hit_rate", "fraction"),
    ("prefix.saved_prefill_share", "fraction"),
    ("prefix.evicted_blocks", "count"),
    ("prefix.resident_blocks", "count"),
    ("engine.admit_ms_p50", "ms"),
    ("engine.admit_ms_p99", "ms"),
    ("engine.prefill_tok_s", "tok/s"),
    ("engine.chunk_ms_p50", "ms"),
    ("engine.chunk_ms_p99", "ms"),
    ("engine.step_ms.b1", "ms"),
    ("engine.step_ms.b2-4", "ms"),
    ("engine.step_ms.b5-8", "ms"),
    ("engine.busy_s", "s"),
    ("engine.prefill_share", "fraction"),
    ("engine.kv_bytes_peak", "bytes"),
    ("engine.decode_tok_s.b1", "tok/s"),
    ("engine.decode_tok_s.b4", "tok/s"),
    ("engine.decode_tok_s.b16", "tok/s"),
    ("engine.batch_scaling.b16", "x"),
    ("engine.prefill_tok_s.n128", "tok/s"),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Measured {
    /// End-to-end metrics by name.
    pub e2e: Vec<(&'static str, Stat)>,
    /// Per-layer metrics by name (traced runs only).
    pub layers: Vec<(&'static str, Stat)>,
    /// Correctness checks; any failure fails the run.
    pub checks: Vec<Check>,
    /// Problems with the measurement that are not output errors.
    pub warnings: Vec<String>,
    /// Further observations printed with the metrics, not reported.
    pub notes: Vec<String>,
    /// Replicas or rounds measured, and the wall time they took.
    pub repetitions: (usize, f64),
    /// Requests (or offline sequences) sent.
    pub attempted: usize,
    /// Of those, how many did not complete.
    pub failed: usize,
}

impl Measured {
    fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|c| c.ok)
    }

    /// Value of metric `name`, or 0 from no samples if the run did not
    /// produce it.
    fn get(&self, name: &str) -> Stat {
        self.e2e
            .iter()
            .chain(&self.layers)
            .find(|(n, _)| *n == name)
            .map_or(Stat::new(0.0, 0), |(_, s)| *s)
    }
}

/// One correctness check.
#[derive(Debug)]
pub struct Check {
    name: String,
    ok: bool,
    detail: String,
}

impl Check {
    /// A named check, its verdict and what it saw.
    pub fn new(name: String, ok: bool, detail: String) -> Self {
        Self { name, ok, detail }
    }
}

/// Set-up time of one replica or round, in seconds: the median of
/// [`SETUP_REPS`] timed calls of `setup`, each result dropped untimed.
///
/// One untimed set-up runs first. After the CPU has idled, as it does
/// between a phase's last token and the next set-up, the first
/// millisecond of work runs up to 2x slower; timed alone, that made the
/// set-up time bimodal.
pub fn time_setup<T>(mut setup: impl FnMut() -> T) -> f64 {
    drop(setup());
    let times: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            let out = setup();
            let s = t.elapsed().as_secs_f64();
            drop(out);
            s
        })
        .collect();
    stats::median(&times).value
}

/// Run `once` (a live replica or an offline round) `n` times, passing it
/// the repetition's index, and return the results with their wall time.
pub fn repeat<T>(n: usize, once: impl FnMut(usize) -> T) -> (Vec<T>, f64) {
    let started = Instant::now();
    let out = (0..n).map(once).collect();
    (out, started.elapsed().as_secs_f64())
}

/// The note listing one metric's value in every replica or round, so a
/// reader sees how far the host moved the ones not reported.
pub fn per_repetition_note(name: &str, unit: &str, values: &[f64]) -> String {
    let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    format!("{name} per {unit}: {}", shown.join(" "))
}

#[derive(Debug, PartialEq)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = it.peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workloads = match name.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    _ => vec![Workload::parse(&name).ok_or(format!("unknown workload {name}"))?],
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match it.next_if(|v| !v.starts_with("--")).as_deref() {
                    None | Some("1") => true,
                    Some("0") => false,
                    Some(v) => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    for &w in &args.workloads {
        let mut trace = Trace::new(Instant::now());
        let traced = args.trace.then_some(&mut trace);
        let n = w.repetitions(args.seconds);
        let m = match w.live() {
            Some(live) => live::run(&live, args.seed, n, traced),
            None => offline::run(args.seed, n, traced),
        };
        print_run(w, &args, &m, &trace);
        all_correct &= m.correct();
        println!("{}", result_line(&m, args.trace));
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_metrics(title: &str, catalog: &[(&str, &str)], m: &Measured) {
    println!("{title}");
    for (name, unit) in catalog {
        let s = m.get(name);
        println!("  {name:<28} {:>14.4} {unit:<8} n={}", s.value, s.n);
    }
}

fn print_run(w: Workload, args: &Args, m: &Measured, trace: &Trace) {
    let mode = if args.trace { "traced" } else { "untraced" };
    let (n, wall_s) = m.repetitions;
    let unit = if w.live().is_some() {
        "replicas"
    } else {
        "rounds"
    };
    println!(
        "== {} | seed {} | {n} {unit} in {wall_s:.1} s | {mode} | {} sent, {} not completed ==",
        w.name(),
        args.seed,
        m.attempted,
        m.failed
    );
    print_metrics("end to end", &END_TO_END, m);
    for note in &m.notes {
        println!("  note: {note}");
    }
    let stem = Path::new("target/benchmark").join(format!("{}-{}", w.name(), args.seed));
    let e2e_path = stem.with_extension("e2e.json");
    if args.trace {
        print_metrics("per layer", &PER_LAYER, m);
        println!("self time by layer (from the trace)");
        for row in fold(trace.spans()) {
            println!(
                "  {:<8} {:<14} {:>7} spans {:>12.3} ms total {:>12.3} ms self",
                row.layer,
                row.name,
                row.count,
                row.total_us / 1e3,
                row.self_us / 1e3
            );
        }
        print_overhead(&e2e_path, m);
        let trace_path = stem.with_extension("trace.json");
        match write(&trace_path, &trace.chrome_json()) {
            Ok(()) => println!("trace: {} (open in ui.perfetto.dev)", trace_path.display()),
            Err(e) => eprintln!("could not write {}: {e}", trace_path.display()),
        }
    } else {
        let text = serde_json::to_string(&metrics_value(&END_TO_END, m))
            .expect("a Value tree always serializes");
        if let Err(e) = write(&e2e_path, &text) {
            eprintln!("could not write {}: {e}", e2e_path.display());
        }
    }
    println!("checks");
    for c in &m.checks {
        let verdict = if c.ok { "ok  " } else { "FAIL" };
        println!("  {verdict} {}: {}", c.name, c.detail);
    }
    for warning in &m.warnings {
        println!("  WARN {warning}");
    }
}

/// Tracing overhead: the traced run's end-to-end metrics over those of
/// the last untraced run of the same workload and seed.
fn print_overhead(untraced: &Path, m: &Measured) {
    let reference = std::fs::read_to_string(untraced)
        .ok()
        .and_then(|text| serde_json::from_str::<Value>(&text).ok());
    let Some(metrics) = reference else {
        println!(
            "tracing overhead: no untraced run of this seed in {}",
            untraced.display()
        );
        return;
    };
    println!("tracing overhead (traced / untraced, same seed)");
    for (name, unit) in END_TO_END {
        let before = metrics
            .get(name)
            .and_then(|v| v.get("value"))
            .and_then(Value::as_f64);
        if let Some(before) = before {
            let after = m.get(name).value;
            println!(
                "  {name:<28} {after:>12.4} / {before:>12.4} {unit:<8} = {:.3}",
                after / before
            );
        }
    }
}

fn write(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

fn metrics_value(catalog: &[(&str, &str)], m: &Measured) -> Value {
    obj(catalog
        .iter()
        .map(|&(name, unit)| {
            let v = obj(vec![
                ("value", Value::Float(m.get(name).value)),
                ("unit", Value::Str(unit.into())),
            ]);
            (name, v)
        })
        .collect())
}

/// The run's result as one JSON line: the end-to-end metrics untraced,
/// the per-layer metrics traced.
fn result_line(m: &Measured, traced: bool) -> String {
    let catalog: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    let doc = obj(vec![
        ("correct", Value::Bool(m.correct())),
        ("attempted", Value::Int(m.attempted as i64)),
        ("failed", Value::Int(m.failed as i64)),
        ("metrics", metrics_value(catalog, m)),
    ]);
    serde_json::to_string(&doc).expect("a Value tree always serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_take_explicit_and_bare_trace_flags() {
        let a = parse(&[
            "--workload",
            "chat",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workloads, vec![Workload::Chat]);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, false));
        let b = parse(&["--trace", "--workload", "all"]).unwrap();
        assert!(b.trace);
        assert_eq!(b.workloads.len(), 4);
        assert!(parse(&["--trace", "1"]).unwrap().trace);
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seconds", "-1"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--fast"]).is_err());
    }

    #[test]
    fn result_line_carries_the_mode_catalog() {
        let m = Measured {
            attempted: 3,
            e2e: vec![("ttft_p50_ms", Stat::new(12.5, 3))],
            checks: vec![Check::new("x".into(), true, String::new())],
            ..Measured::default()
        };
        let line: Value = serde_json::from_str(&result_line(&m, false)).unwrap();
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        let metrics = line.get("metrics").unwrap();
        let Value::Object(fields) = metrics else {
            panic!("metrics is an object")
        };
        assert_eq!(fields.len(), END_TO_END.len());
        let ttft = metrics.get("ttft_p50_ms").unwrap();
        assert_eq!(ttft.get("value").and_then(Value::as_f64), Some(12.5));
        let traced: Value = serde_json::from_str(&result_line(&m, true)).unwrap();
        let Some(Value::Object(fields)) = traced.get("metrics") else {
            panic!("metrics is an object")
        };
        assert_eq!(fields.len(), PER_LAYER.len());
        assert!(!Measured::default().correct(), "no checks, no verdict");
    }

    /// BENCHMARK.json at the repository root names exactly the metrics
    /// and workloads this program produces.
    #[test]
    fn benchmark_json_matches_the_catalogs() {
        // The manifest is this directory's as a package of its own, and
        // the repository root's as the root package's example.
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .map(|dir| dir.join("BENCHMARK.json"))
            .find(|p| p.is_file())
            .expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<(String, Option<String>)> {
            doc.get(key)
                .and_then(Value::as_array)
                .expect("array")
                .iter()
                .map(|e| {
                    let s = |k| e.get(k).and_then(Value::as_str).map(String::from);
                    (s("name").expect("name"), s("unit"))
                })
                .collect()
        };
        let catalog = |c: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), Some(u.to_string())))
                .collect()
        };
        assert_eq!(names("end_to_end"), catalog(&END_TO_END));
        assert_eq!(names("per_layer"), catalog(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().into()).collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(DEFAULT_SECONDS as f64)
        );
    }
}
