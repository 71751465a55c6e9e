//! Failover drill: the same request wave served by a healthy 3-replica
//! pool and by one that loses a replica mid-run, side by side — plus the
//! discrete-event replicated simulator run on the identical fault plan.
//!
//! Replica 1 is killed by an injected scheduler panic after its 16th
//! decode step. The router detects the loss, and every in-flight
//! request migrates: it is re-admitted on a surviving replica with a
//! prefill of `prompt + tokens already streamed`. Because decode is
//! greedy and per-sequence independent, the continued stream is bitwise
//! identical to the unfaulted run — which this drill verifies request by
//! request against the healthy pool's outputs. The live-vs-simulated
//! failover accounting and throughput retention are appended to
//! `BENCH_serve.json` as a `failover_drill` section.
//!
//! ```sh
//! cargo run --release --example failover_drill
//! ```

use llmib_bench::harness::{
    run_trials, BenchDocument, ConfidenceInterval, Metric, Section, TrialConfig,
};
use llmib_engine::{EngineConfig, TransformerModel};
use llmib_frameworks::FrameworkId;
use llmib_hardware::HardwareId;
use llmib_models::ModelId;
use llmib_perf::{PerfModel, Scenario};
use llmib_sched::{ArrivalPattern, BatchingPolicy, ServingSimulator, SimConfig};
use llmib_serve::{
    deterministic_prompt, PoolConfig, PoolReport, ReplicaPool, RequestOutcome, SubmitOptions,
};
use llmib_types::{ReplicaFaultPlan, ReplicaId, ReplicaRole, TokenShape};
use serde_json::Value;
use std::collections::HashMap;
use std::sync::Arc;

const N: u64 = 12;
const PROMPT_TOKENS: u32 = 6;
const MAX_NEW: usize = 48;
const REPLICAS: u32 = 3;
const BENCH_PATH: &str = "BENCH_serve.json";
const CREATED_BY: &str = "cargo run --release --example failover_drill";

fn trial_config() -> TrialConfig {
    let trials = std::env::var("LLMIB_TRIALS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    TrialConfig::new(trials, 1, 3)
}
// Late enough (relative to µs-scale routing on a millisecond-stepping
// model) that every burst dispatch lands before the fault fires, early
// enough that none of the dead replica's four requests finished.
const KILL_STEP: u64 = 16;

/// Serve one wave of `N` deterministic requests on a fresh pool.
fn run_pool(
    model: &Arc<TransformerModel>,
    plan: ReplicaFaultPlan,
) -> (PoolReport, Vec<(u64, RequestOutcome)>) {
    let vocab = model.config().vocab;
    let pool = ReplicaPool::start(
        Arc::clone(model),
        PoolConfig {
            replicas: REPLICAS,
            fault_plan: plan,
            ..PoolConfig::default()
        },
    )
    .expect("pool starts");
    let client = pool.client();
    let handles: Vec<_> = (0..N)
        .map(|i| {
            client
                .submit(
                    deterministic_prompt(i, PROMPT_TOKENS, vocab),
                    SubmitOptions::greedy(MAX_NEW),
                )
                .expect("accepted")
        })
        .collect();
    let outcomes = handles.into_iter().map(|h| (h.id, h.wait())).collect();
    (pool.shutdown(), outcomes)
}

fn main() {
    // A scaled Table I analog (not `tiny`): decode steps take long
    // enough that router placement deterministically beats the kill.
    let cfg = EngineConfig::scaled_from(ModelId::Llama2_7b, 128, 7);
    let model = Arc::new(TransformerModel::new(cfg, false).expect("valid config"));

    println!(
        "failover drill: {N} requests ({PROMPT_TOKENS}-token prompts, {MAX_NEW} new tokens) \
         over {REPLICAS} replicas; replica 1 dies after decode step {KILL_STEP}\n"
    );

    let (healthy, healthy_outcomes) = run_pool(&model, ReplicaFaultPlan::empty());
    assert_eq!(healthy.aggregate.completed as u64, N);
    assert_eq!(healthy.replicas_lost(), 0);
    println!(
        "healthy: {} completed | {:.0} tok/s | per-replica completions {:?}",
        healthy.aggregate.completed,
        healthy.aggregate.throughput_tokens_per_s,
        healthy
            .per_replica
            .iter()
            .map(|r| r.completed)
            .collect::<Vec<_>>(),
    );

    let (faulted, faulted_outcomes) = run_pool(
        &model,
        ReplicaFaultPlan::kill_replica(ReplicaId(1), KILL_STEP),
    );
    let r = &faulted.aggregate.robustness;
    println!(
        "faulted: {} completed | {:.0} tok/s | {} replica lost, {} migrations, \
         {} tokens replayed on migration | per-replica completions {:?}",
        faulted.aggregate.completed,
        faulted.aggregate.throughput_tokens_per_s,
        r.replicas_lost,
        r.migrations,
        r.migrated_tokens,
        faulted
            .per_replica
            .iter()
            .map(|x| x.completed)
            .collect::<Vec<_>>(),
    );
    assert_eq!(
        faulted.aggregate.completed as u64, N,
        "everyone survives the loss"
    );
    assert_eq!(faulted.replicas_lost(), 1);
    assert!(r.migrations >= 1, "the dead replica had in-flight work");
    assert!(faulted.aggregate.reconciles());

    // The determinism anchor: each request's faulted stream — including
    // every migrated one — is bitwise identical to the healthy run's.
    let healthy_tokens: HashMap<u64, &Vec<usize>> = healthy_outcomes
        .iter()
        .map(|(id, o)| match o {
            RequestOutcome::Completed { tokens, .. } => (*id, tokens),
            other => panic!("healthy run must complete request {id}: {other:?}"),
        })
        .collect();
    for (id, outcome) in &faulted_outcomes {
        match outcome {
            RequestOutcome::Completed { tokens, .. } => assert_eq!(
                Some(&tokens),
                healthy_tokens.get(id),
                "request {id} diverged after failover"
            ),
            other => panic!("faulted run must complete request {id}: {other:?}"),
        }
    }
    println!(
        "\nverified: all {N} faulted-run streams bitwise identical to the healthy run \
         ({} of them migrated mid-stream)",
        r.migrations,
    );

    // The replicated simulator on the identical trace + fault plan: the
    // cross-validation contract is agreement on failover accounting.
    let scenario = Scenario::simple(
        ModelId::Llama3_8b,
        HardwareId::A100,
        FrameworkId::Vllm,
        TokenShape::square(PROMPT_TOKENS, MAX_NEW as u32),
    );
    let perf = PerfModel::default_calibration()
        .resolve_scenario(&scenario)
        .expect("resolvable scenario");
    let sim = ServingSimulator::new(SimConfig {
        policy: BatchingPolicy::Continuous,
        max_concurrency: 8,
        kv_capacity_tokens: 1 << 16,
        kv_block_tokens: Some(16),
    });
    let trace = ArrivalPattern::Burst.generate(N as u32, PROMPT_TOKENS, MAX_NEW as u32);
    let simulated = sim.run_pool(
        trace,
        &perf,
        &[ReplicaRole::Unified; REPLICAS as usize],
        &ReplicaFaultPlan::kill_replica(ReplicaId(1), KILL_STEP),
    );
    println!(
        "simulated: {} completed | {} failover, {} migrations, {} tokens replayed \
         | per-replica completions {:?}",
        simulated.aggregate.completed,
        simulated.failovers,
        simulated.migrations,
        simulated.migrated_tokens,
        simulated.per_replica_completed,
    );
    assert_eq!(
        simulated.failovers,
        faulted.replicas_lost(),
        "sim and live must agree on the failover count"
    );
    assert_eq!(simulated.aggregate.completed as u64, N);

    // --- Record the drill with trial-based confidence bounds ---
    // Each trial is a healthy/faulted pool pair; the trial value is the
    // paired throughput-retention ratio. Retention depends on where the
    // fixed kill step lands relative to machine-dependent step times,
    // so it is recorded ungated; the failover accounting asserted above
    // (and mirrored by the deterministic simulator) is the contract.
    let tc = trial_config();
    let mut healthy_tps = Vec::new();
    let mut faulted_tps = Vec::new();
    let set = run_trials(&tc, |_seed| {
        let (h, _) = run_pool(&model, ReplicaFaultPlan::empty());
        let (f, _) = run_pool(
            &model,
            ReplicaFaultPlan::kill_replica(ReplicaId(1), KILL_STEP),
        );
        healthy_tps.push(h.aggregate.throughput_tokens_per_s);
        faulted_tps.push(f.aggregate.throughput_tokens_per_s);
        f.aggregate.throughput_tokens_per_s / h.aggregate.throughput_tokens_per_s
    });
    let healthy_tps = healthy_tps.split_off(healthy_tps.len() - tc.trials);
    let faulted_tps = faulted_tps.split_off(faulted_tps.len() - tc.trials);

    let mut doc = BenchDocument::load_or_new(BENCH_PATH);
    doc.merge_section(
        Section::new(
            "failover_drill",
            CREATED_BY,
            &format!(
                "kill replica 1 of {REPLICAS} after decode step {KILL_STEP}; \
                 scaled_from(Llama2_7b, hidden=128), {N} requests"
            ),
        )
        .with_trials(&tc, &set)
        .field(
            "live",
            Value::Object(vec![
                (
                    "completed".into(),
                    Value::Int(i64::from(faulted.aggregate.completed)),
                ),
                (
                    "replicas_lost".into(),
                    Value::Int(i64::from(r.replicas_lost)),
                ),
                ("migrations".into(), Value::Int(i64::from(r.migrations))),
                (
                    "migrated_tokens".into(),
                    Value::Int(r.migrated_tokens as i64),
                ),
                ("hedges".into(), Value::Int(i64::from(r.hedges))),
            ]),
        )
        .field(
            "simulated",
            Value::Object(vec![
                (
                    "completed".into(),
                    Value::Int(i64::from(simulated.aggregate.completed)),
                ),
                (
                    "failovers".into(),
                    Value::Int(i64::from(simulated.failovers)),
                ),
                (
                    "migrations".into(),
                    Value::Int(i64::from(simulated.migrations)),
                ),
                (
                    "migrated_tokens".into(),
                    Value::Int(simulated.migrated_tokens as i64),
                ),
            ]),
        )
        .field("bitwise_identical_streams", Value::Bool(true))
        .metric(
            "healthy_tokens_per_s",
            &Metric::higher("tokens/s", ConfidenceInterval::from_samples95(&healthy_tps)),
        )
        .metric(
            "faulted_tokens_per_s",
            &Metric::higher("tokens/s", ConfidenceInterval::from_samples95(&faulted_tps)),
        )
        .metric("throughput_retention", &Metric::higher("ratio", set.ci95())),
    );
    doc.write(BENCH_PATH).expect("write BENCH_serve.json");
    println!("merged failover_drill into {BENCH_PATH}");
}
