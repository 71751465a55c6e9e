//! Overload drill: prove the class-based overload machinery earns its
//! keep. The discrete-event simulator serves a mixed-priority MMPP
//! (bursty on/off) workload three ways:
//!
//! 1. **uncontended** — at the bisected max sustainable rate, overload
//!    machinery on (it should sit idle),
//! 2. **overloaded, protected** — at 2x that rate with preemption and
//!    brownout active,
//! 3. **overloaded, unprotected** — the same 2x load with the
//!    machinery off, as the counterfactual.
//!
//! The drill's gate: interactive-class SLO attainment at 2x load with
//! protection must stay within a fixed ratio of its uncontended value —
//! overload costs the best-effort class (clamped, shed, preempted), not
//! the class the SLO protects. The retention ratio, the per-class
//! counters, and the unprotected contrast are appended to
//! `BENCH_serve.json` as an `overload_drill` section with trial-based
//! confidence bounds; the ratio metric is gated for CI regression
//! comparison.
//!
//! `LLMIB_CHAOS_SEED` reseeds the whole drill (CI sweeps several), and
//! `LLMIB_TRIALS` widens the trial set.
//!
//! ```sh
//! cargo run --release --example overload_drill
//! ```

use llmib_bench::harness::{
    max_sustainable_rate, run_trials, BenchDocument, Metric, RateSearch, Section, SloSpec,
    TrialConfig,
};
use llmib_frameworks::FrameworkId;
use llmib_hardware::HardwareId;
use llmib_models::ModelId;
use llmib_perf::{PerfModel, ResolvedScenario, Scenario};
use llmib_sched::{
    BatchingPolicy, BrownoutConfig, OverloadConfig, ServingReport, ServingSimulator, SimConfig,
};
use llmib_types::{LatencySample, Priority, Request, Seconds};
use llmib_workloads::{BurstProfile, TrafficProfile};
use serde_json::Value;
use std::collections::HashMap;

const N: usize = 60;
const LEN: u32 = 128;
const BENCH_PATH: &str = "BENCH_serve.json";
const CREATED_BY: &str = "cargo run --release --example overload_drill";
/// Minimum acceptable interactive attainment retention at 2x overload.
const RETENTION_GATE: f64 = 0.75;

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

fn overload() -> OverloadConfig {
    OverloadConfig {
        preemption: true,
        brownout: BrownoutConfig {
            enabled: true,
            trip_after: 8,
            recover_after: 16,
            degraded_max_new_tokens: 32,
        },
    }
}

/// KV is the binding resource (8 resident 256-token contexts), not the
/// concurrency cap — so a starved interactive arrival exercises
/// preemption, not just queue-jumping.
fn sim(protected: bool) -> ServingSimulator {
    let sim = ServingSimulator::new(SimConfig {
        policy: BatchingPolicy::Continuous,
        max_concurrency: 16,
        kv_capacity_tokens: 2048,
        kv_block_tokens: Some(16),
    });
    if protected {
        sim.with_overload(overload())
            .expect("the drill's overload configuration is valid")
    } else {
        sim
    }
}

fn perf() -> ResolvedScenario {
    let scenario = Scenario::builder()
        .model(ModelId::Llama3_8b)
        .hardware(HardwareId::A100)
        .framework(FrameworkId::Vllm)
        .batch_size(8)
        .input_tokens(LEN)
        .output_tokens(LEN)
        .build()
        .expect("valid scenario");
    PerfModel::default_calibration()
        .resolve_scenario(&scenario)
        .expect("resolvable scenario")
}

/// Bursty mixed-class trace: MMPP arrivals with a 1:2 on/off duty cycle
/// at the requested *mean* rate, classes dealt round-robin (1/3 each).
fn bursty_trace(mean_rate: f64, seed: u64) -> Vec<Request> {
    let burst = BurstProfile {
        burst_rate_per_s: 3.0 * mean_rate,
        mean_on_s: 1.0,
        mean_off_s: 2.0,
    };
    TrafficProfile::Square { len: LEN }
        .trace_bursty(N, burst, seed)
        .into_iter()
        .map(|r| {
            let priority = Priority::ALL[(r.id % 3) as usize];
            r.with_priority(priority)
        })
        .collect()
}

/// Evaluate `spec` over only the completed samples of one class.
fn class_eval(
    spec: &SloSpec,
    report: &ServingReport,
    trace: &[Request],
    class: Priority,
) -> (usize, f64) {
    let by_id: HashMap<u64, Priority> = trace.iter().map(|r| (r.id, r.priority)).collect();
    let samples: Vec<LatencySample> = report
        .per_request
        .iter()
        .filter(|s| by_id.get(&s.id) == Some(&class))
        .copied()
        .collect();
    let eval = spec.evaluate(&samples, report.makespan);
    (eval.offered, eval.attainment)
}

fn main() {
    let seed = chaos_seed();
    let perf = perf();
    println!(
        "overload drill: {N} square-{LEN} requests, MMPP bursty arrivals, classes dealt 1/3 \
         each (seed {seed:#x})\n"
    );

    // Capacity bracket from a full burst, then bisect for the max
    // sustainable mean rate with the machinery OFF — the honest
    // capacity number, not one flattered by shedding.
    let burst_rep = sim(false).run(bursty_trace(1e6, seed), &perf);
    let capacity = f64::from(burst_rep.completed) / burst_rep.makespan.value();
    let light = sim(false).run(bursty_trace(0.25 * capacity, seed), &perf);
    let light_eval = SloSpec::new(None, None, 0.9).evaluate(&light.per_request, light.makespan);
    let spec = SloSpec::new(
        Some(Seconds(3.0 * light_eval.ttft_p95.value())),
        Some(Seconds(2.0 * light_eval.itl_p95.value())),
        0.9,
    );
    let search = RateSearch {
        lo: 0.25 * capacity,
        hi: 4.0 * capacity,
        rel_tol: 0.1,
        max_probes: 8,
    };
    let result = max_sustainable_rate(&search, |rate| {
        let rep = sim(false).run(bursty_trace(rate, seed), &perf);
        spec.evaluate(&rep.per_request, rep.makespan)
    });
    let sustained = if result.max_rate > 0.0 {
        result.max_rate
    } else {
        search.lo
    };
    println!(
        "bisected max sustainable mean rate: {sustained:.2} req/s \
         ({} probes, converged: {})",
        result.probes.len(),
        result.converged
    );

    // One drill at a given seed: interactive attainment uncontended vs
    // at 2x with protection; returns the retention ratio plus the
    // protected run's report for counter reporting.
    let drill = |seed: u64| {
        let base_trace = bursty_trace(sustained, seed);
        let base = sim(true).run(base_trace.clone(), &perf);
        let (_, attain_base) = class_eval(&spec, &base, &base_trace, Priority::Interactive);
        let over_trace = bursty_trace(2.0 * sustained, seed);
        let over = sim(true).run(over_trace.clone(), &perf);
        let (_, attain_over) = class_eval(&spec, &over, &over_trace, Priority::Interactive);
        let ratio = if attain_base > 0.0 {
            attain_over / attain_base
        } else {
            0.0
        };
        (ratio, attain_base, attain_over, over, over_trace)
    };

    let (ratio, attain_base, attain_over, over, over_trace) = drill(seed);
    let (_, unprotected_attain) = {
        let rep = sim(false).run(bursty_trace(2.0 * sustained, seed), &perf);
        class_eval(
            &spec,
            &rep,
            &bursty_trace(2.0 * sustained, seed),
            Priority::Interactive,
        )
    };
    println!(
        "interactive attainment: {attain_base:.2} uncontended | {attain_over:.2} at 2x \
         protected | {unprotected_attain:.2} at 2x unprotected"
    );
    println!(
        "protected 2x run: {} completed, {} preempted ({} tokens replayed), \
         {} brownout-shed, {} brownout steps | per-class completed {:?}",
        over.completed,
        over.preemptions,
        over.replayed_tokens,
        over.brownout_sheds,
        over.brownout_steps,
        over.per_class.completed,
    );
    let (_, be_attain) = class_eval(&spec, &over, &over_trace, Priority::BestEffort);
    println!("best-effort attainment at 2x protected: {be_attain:.2} (the class that pays)\n");

    // The drill's contract: protection keeps the interactive class
    // within RETENTION_GATE of its uncontended attainment, and the
    // overload machinery demonstrably did something to pay for it.
    assert!(
        ratio >= RETENTION_GATE,
        "interactive attainment retention {ratio:.2} fell below the {RETENTION_GATE} gate"
    );
    assert!(
        over.preemptions > 0 || over.brownout_sheds > 0 || over.brownout_steps > 0,
        "a 2x overload run must trip preemption or brownout"
    );

    // --- Record with trial-based confidence bounds; the retention
    // ratio is the gated regression metric. ---
    let tc = trial_config();
    let mut retentions = Vec::new();
    let set = run_trials(&tc, |s| {
        let (r, ..) = drill(s);
        retentions.push(r);
        r
    });
    let retentions = retentions.split_off(retentions.len() - tc.trials);
    let worst = retentions.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(
        worst >= RETENTION_GATE,
        "a trial's retention {worst:.2} fell below the {RETENTION_GATE} gate"
    );

    let mut doc = BenchDocument::load_or_new(BENCH_PATH);
    doc.merge_section(
        Section::new(
            "overload_drill",
            CREATED_BY,
            &format!(
                "ServingSimulator Llama3-8B/A100/vLLM, square-{LEN}, {N} requests, MMPP \
                 1:2 duty cycle, classes 1/3 each; 2x bisected max sustainable rate with \
                 preemption + brownout vs uncontended"
            ),
        )
        .with_trials(&tc, &set)
        .field("slo", spec.to_value())
        .field("sustained_rate_req_per_s", Value::Float(sustained))
        .field("retention_gate", Value::Float(RETENTION_GATE))
        .field(
            "interactive_attainment",
            Value::Object(vec![
                ("uncontended".into(), Value::Float(attain_base)),
                ("overloaded_protected".into(), Value::Float(attain_over)),
                (
                    "overloaded_unprotected".into(),
                    Value::Float(unprotected_attain),
                ),
            ]),
        )
        .field(
            "protected_2x_counters",
            Value::Object(vec![
                ("completed".into(), Value::Int(i64::from(over.completed))),
                (
                    "preemptions".into(),
                    Value::Int(i64::from(over.preemptions)),
                ),
                (
                    "replayed_tokens".into(),
                    Value::Int(over.replayed_tokens as i64),
                ),
                (
                    "brownout_sheds".into(),
                    Value::Int(i64::from(over.brownout_sheds)),
                ),
                (
                    "brownout_steps".into(),
                    Value::Int(over.brownout_steps as i64),
                ),
                (
                    "per_class_completed".into(),
                    Value::Array(
                        over.per_class
                            .completed
                            .iter()
                            .map(|&c| Value::Int(i64::from(c)))
                            .collect(),
                    ),
                ),
            ]),
        )
        .metric(
            "interactive_attainment_retention",
            &Metric::higher("ratio", set.ci95()).gated(),
        ),
    );
    doc.write(BENCH_PATH).expect("write BENCH_serve.json");
    println!(
        "merged overload_drill into {BENCH_PATH} (retention {ratio:.2}, gate {RETENTION_GATE})"
    );
}
