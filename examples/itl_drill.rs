//! ITL-tail drill: prove chunked prefill kills the inter-token-latency
//! tail under long-prompt-heavy overload. The discrete-event simulator
//! serves a heavy-tailed-prompt trace (log-normal lengths, short
//! outputs) at 2x the bisected monolithic capacity three ways:
//!
//! 1. **monolithic** — admission prefills the whole prompt in one
//!    blocking call; every decode step that straddles a giant prompt's
//!    admission absorbs the entire prefill as inter-token stall,
//! 2. **chunked** — the same trace with a per-step prefill token
//!    budget: at most one budget-sized chunk of pending prefill runs
//!    between decode steps, bounding any single stall,
//! 3. **disaggregated** — the same trace on a `[Prefill, Decode]`
//!    replica pair, prefill hidden from decode entirely (reported as
//!    context, not gated).
//!
//! The drill's gate: per-request ITL p99 with chunking must improve at
//! least [`IMPROVEMENT_GATE`]x over the monolithic baseline. The
//! improvement ratio, per-class tail percentiles, and chunk/handoff
//! counters are appended to `BENCH_serve.json` as an `itl_drill`
//! section with trial-based confidence bounds; the ratio metric is
//! gated for CI regression comparison.
//!
//! `LLMIB_CHAOS_SEED` reseeds the whole drill (CI sweeps several), and
//! `LLMIB_TRIALS` widens the trial set.
//!
//! ```sh
//! cargo run --release --example itl_drill
//! ```

use llmib_bench::harness::{run_trials, BenchDocument, Metric, Section, TrialConfig};
use llmib_frameworks::FrameworkId;
use llmib_hardware::HardwareId;
use llmib_models::ModelId;
use llmib_perf::{PerfModel, ResolvedScenario, Scenario};
use llmib_sched::{BatchingPolicy, ServingReport, ServingSimulator, SimConfig};
use llmib_types::{ReplicaFaultPlan, ReplicaRole, Request};
use llmib_workloads::{PromptLenDist, TrafficProfile};
use serde_json::Value;

const N: usize = 80;
/// Per-step prefill token budget for the chunked arm.
const BUDGET: u32 = 64;
const BENCH_PATH: &str = "BENCH_serve.json";
const CREATED_BY: &str = "cargo run --release --example itl_drill";
/// Minimum acceptable monolithic-over-chunked ITL p99 ratio at 2x load.
const IMPROVEMENT_GATE: f64 = 1.5;

/// Long-prompt-heavy shape: log-normal prompt lengths (median ~150,
/// tail to 2048) against short outputs — the regime where one giant
/// admission stalls every concurrent decode.
const SHAPE: TrafficProfile = TrafficProfile::HeavyTail {
    prompt: PromptLenDist::LogNormal {
        mu: 5.0,
        sigma: 1.2,
        max: 2048,
    },
    output_peak: 24,
};

fn chaos_seed() -> u64 {
    std::env::var("LLMIB_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

fn trial_config() -> TrialConfig {
    let trials = std::env::var("LLMIB_TRIALS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    TrialConfig::new(trials, 1, chaos_seed())
}

fn sim() -> ServingSimulator {
    ServingSimulator::new(SimConfig {
        policy: BatchingPolicy::Continuous,
        max_concurrency: 16,
        kv_capacity_tokens: 1 << 15,
        kv_block_tokens: Some(16),
    })
}

fn perf() -> ResolvedScenario {
    let scenario = Scenario::builder()
        .model(ModelId::Llama3_8b)
        .hardware(HardwareId::A100)
        .framework(FrameworkId::Vllm)
        .batch_size(16)
        .input_tokens(256)
        .output_tokens(24)
        .build()
        .expect("valid scenario");
    PerfModel::default_calibration()
        .resolve_scenario(&scenario)
        .expect("resolvable scenario")
}

fn trace(rate: f64, seed: u64) -> Vec<Request> {
    SHAPE.trace(N, rate, seed)
}

/// One drill at a given seed: (improvement ratio, monolithic report,
/// chunked report) on the identical 2x-overload trace.
fn drill(rate2x: f64, perf: &ResolvedScenario, seed: u64) -> (f64, ServingReport, ServingReport) {
    let t = trace(rate2x, seed);
    let mono = sim().run(t.clone(), perf);
    let chunked = sim().with_prefill_chunking(BUDGET).run(t, perf);
    assert_eq!(
        mono.completed, chunked.completed,
        "chunking must not change which requests complete"
    );
    let ratio = mono.itl.overall.p99.value() / chunked.itl.overall.p99.value();
    (ratio, mono, chunked)
}

fn main() {
    let seed = chaos_seed();
    let perf = perf();
    println!(
        "itl drill: {N} heavy-tail requests (log-normal prompts, median ~150, max 2048, \
         outputs <= 48), chunk budget {BUDGET} (seed {seed:#x})\n"
    );

    // Capacity from a monolithic burst, then 2x it for the drill load.
    let burst = sim().run(trace(1e6, seed), &perf);
    let capacity = f64::from(burst.completed) / burst.makespan.value();
    let rate2x = 2.0 * capacity;
    println!("monolithic burst capacity: {capacity:.2} req/s; drilling at {rate2x:.2} req/s");

    let (ratio, mono, chunked) = drill(rate2x, &perf, seed);
    println!(
        "ITL p99: {:.4}s monolithic -> {:.4}s chunked ({ratio:.2}x better); \
         p50 {:.4}s -> {:.4}s; {} chunks over {} completions",
        mono.itl.overall.p99.value(),
        chunked.itl.overall.p99.value(),
        mono.itl.overall.p50.value(),
        chunked.itl.overall.p50.value(),
        chunked.prefill_chunks,
        chunked.completed,
    );

    // Disaggregated contrast: prefill hidden from decode entirely.
    let roles = [ReplicaRole::Prefill, ReplicaRole::Decode];
    let disagg = sim().run_pool(
        trace(rate2x, seed),
        &perf,
        &roles,
        &ReplicaFaultPlan::empty(),
    );
    println!(
        "disaggregated [Prefill, Decode]: ITL p99 {:.4}s, {} handoffs, {} completed\n",
        disagg.aggregate.itl.overall.p99.value(),
        disagg.disagg_handoffs,
        disagg.aggregate.completed,
    );

    // The drill's contract: chunking buys the tail back, and the
    // chunk counter proves the policy actually ran.
    assert!(
        ratio >= IMPROVEMENT_GATE,
        "ITL p99 improvement {ratio:.2}x fell below the {IMPROVEMENT_GATE}x gate"
    );
    assert!(
        chunked.prefill_chunks > chunked.completed as u64,
        "a heavy-tailed trace must need multiple chunks per admission on average"
    );
    assert_eq!(mono.prefill_chunks, 0, "the monolithic arm must not chunk");
    assert_eq!(
        disagg.aggregate.completed, mono.completed,
        "disaggregation must not change which requests complete"
    );

    // --- Record with trial-based confidence bounds; the improvement
    // ratio is the gated regression metric. ---
    let tc = trial_config();
    let set = run_trials(&tc, |s| {
        let (r, ..) = drill(rate2x, &perf, s);
        assert!(
            r >= IMPROVEMENT_GATE,
            "a trial's ITL p99 improvement {r:.2}x fell below the {IMPROVEMENT_GATE}x gate"
        );
        r
    });

    let mut doc = BenchDocument::load_or_new(BENCH_PATH);
    doc.merge_section(
        Section::new(
            "itl_drill",
            CREATED_BY,
            &format!(
                "ServingSimulator Llama3-8B/A100/vLLM, {N} heavy-tail requests (log-normal \
                 mu=5.0 sigma=1.2 max=2048 prompts, outputs <= 48) at 2x monolithic burst \
                 capacity; chunk budget {BUDGET} vs monolithic prefill"
            ),
        )
        .with_trials(&tc, &set)
        .field("chunk_budget_tokens", Value::Int(i64::from(BUDGET)))
        .field("improvement_gate", Value::Float(IMPROVEMENT_GATE))
        .field("drill_rate_req_per_s", Value::Float(rate2x))
        .field(
            "itl_p99_s",
            Value::Object(vec![
                (
                    "monolithic".into(),
                    Value::Float(mono.itl.overall.p99.value()),
                ),
                (
                    "chunked".into(),
                    Value::Float(chunked.itl.overall.p99.value()),
                ),
                (
                    "disaggregated".into(),
                    Value::Float(disagg.aggregate.itl.overall.p99.value()),
                ),
            ]),
        )
        .field(
            "chunked_2x_counters",
            Value::Object(vec![
                ("completed".into(), Value::Int(i64::from(chunked.completed))),
                (
                    "prefill_chunks".into(),
                    Value::Int(chunked.prefill_chunks as i64),
                ),
                (
                    "disagg_handoffs".into(),
                    Value::Int(i64::from(disagg.disagg_handoffs)),
                ),
            ]),
        )
        .metric(
            "itl_p99_improvement",
            &Metric::higher("ratio", set.ci95()).gated(),
        ),
    );
    doc.write(BENCH_PATH).expect("write BENCH_serve.json");
    println!(
        "merged itl_drill into {BENCH_PATH} (improvement {ratio:.2}x, gate {IMPROVEMENT_GATE}x)"
    );
}
