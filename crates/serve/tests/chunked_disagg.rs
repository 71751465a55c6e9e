//! Golden-equivalence and exact-reconciliation suite for chunked
//! prefill and disaggregated prefill/decode serving.
//!
//! The contract under test has two halves:
//!
//! * **Bitwise identity.** Chunked prefill changes *when* prompt tokens
//!   enter the KV cache, and disaggregation changes *where* decode
//!   runs — neither may change *which* tokens come out. Every stream
//!   here is compared token-for-token against a monolithic
//!   single-replica run of the identical trace.
//! * **Exact reconciliation.** The discrete-event
//!   [`ServingSimulator`] mirrors both policies, and its chunk counts,
//!   handoff counts, and per-class ITL sample counts must equal the
//!   live runtime's — not approximately, exactly — on an identical
//!   trace. Chunk counts are fully determined
//!   (`ceil(cold_tokens / budget)` per admission), so any drift is a
//!   policy-mirror bug, not noise.

use llmib_engine::{EngineConfig, TransformerModel};
use llmib_frameworks::FrameworkId;
use llmib_hardware::HardwareId;
use llmib_models::ModelId;
use llmib_perf::{PerfModel, ResolvedScenario, Scenario};
use llmib_sched::{BatchingPolicy, ServingSimulator, SimConfig};
use llmib_serve::{
    replay_trace, replay_trace_on, PoolConfig, ReplayOptions, ReplicaPool, ReplicaRole,
    ServeConfig, ServeReport, Server,
};
use llmib_types::{ReplicaFaultPlan, Request};
use llmib_workloads::TrafficProfile;
use std::collections::HashMap;
use std::sync::Arc;

const SHAPE: TrafficProfile = TrafficProfile::Square { len: 24 };
const N: usize = 24;

fn live_model() -> Arc<TransformerModel> {
    let cfg = EngineConfig::scaled_from(ModelId::Llama2_7b, 128, 7);
    Arc::new(TransformerModel::new(cfg, false).expect("valid config"))
}

fn serve_config(budget: Option<usize>) -> ServeConfig {
    ServeConfig {
        policy: BatchingPolicy::Continuous,
        max_concurrency: 8,
        kv_capacity_tokens: 4096,
        kv_block_tokens: Some(16),
        queue_capacity: N + 8,
        prefill_token_budget: budget,
        ..ServeConfig::default()
    }
}

fn sim_perf() -> ResolvedScenario {
    let scenario = Scenario::builder()
        .model(ModelId::Llama3_8b)
        .hardware(HardwareId::A100)
        .framework(FrameworkId::Vllm)
        .batch_size(8)
        .input_tokens(24)
        .output_tokens(24)
        .build()
        .expect("valid scenario");
    PerfModel::default_calibration()
        .resolve_scenario(&scenario)
        .expect("resolvable scenario")
}

/// Burst-replay `trace` on a fresh server and return the report plus
/// tokens keyed by trace id; asserts every request completed.
fn run_live_tokens(
    model: &Arc<TransformerModel>,
    config: ServeConfig,
    trace: &[Request],
) -> (ServeReport, HashMap<u64, Vec<usize>>) {
    let server = Server::start(Arc::clone(model), config).expect("server starts");
    let opts = ReplayOptions {
        time_scale: 0.0,
        ..ReplayOptions::default()
    };
    let replayed = replay_trace(&server, trace, &opts);
    let report = server.shutdown();
    let tokens = collect_tokens(&replayed);
    assert_eq!(report.completed as usize, trace.len());
    (report, tokens)
}

fn collect_tokens(replayed: &[llmib_serve::ReplayedRequest]) -> HashMap<u64, Vec<usize>> {
    replayed
        .iter()
        .map(|r| {
            let tokens = r.outcome.tokens().unwrap_or_else(|| {
                panic!("request {} did not complete: {:?}", r.trace_id, r.outcome)
            });
            (r.trace_id, tokens.to_vec())
        })
        .collect()
}

fn assert_same_streams(label: &str, a: &HashMap<u64, Vec<usize>>, b: &HashMap<u64, Vec<usize>>) {
    assert_eq!(a.len(), b.len(), "{label}: stream count differs");
    for (id, tokens) in a {
        assert_eq!(
            Some(tokens),
            b.get(id),
            "{label}: request {id} streamed different tokens"
        );
    }
}

/// Tentpole golden suite, live half: the same burst trace through a
/// monolithic server and through chunk-budgeted servers produces
/// bitwise-identical streams at every budget, and the chunk counter
/// reads exactly `N * ceil(prompt / budget)` (distinct prompts, so
/// every admission is cold).
#[test]
fn chunked_prefill_streams_are_bitwise_identical_to_monolithic() {
    let model = live_model();
    let trace = SHAPE.trace(N, 1e6, 31);
    let (mono_report, mono_tokens) = run_live_tokens(&model, serve_config(None), &trace);
    assert_eq!(
        mono_report.prefill_chunks, 0,
        "monolithic runs chunk nothing"
    );

    for budget in [4usize, 16, 64] {
        let (report, tokens) = run_live_tokens(&model, serve_config(Some(budget)), &trace);
        assert_same_streams(&format!("budget {budget}"), &mono_tokens, &tokens);
        assert_eq!(
            report.prefill_chunks,
            (N as u64) * 24u64.div_ceil(budget as u64),
            "budget {budget}: chunk count must be exactly ceil(cold/budget) per admission"
        );
    }
}

/// Tentpole golden suite, disaggregated half: a `[Prefill, Decode]`
/// pool hands every request off at the phase boundary via KV-chain
/// shipping, and the resumed streams are bitwise-identical to a
/// monolithic single-replica run. Handoffs are planned migrations and
/// must not be booked as failure migrations.
#[test]
fn disaggregated_pool_streams_match_a_monolithic_single_server() {
    let model = live_model();
    let trace = SHAPE.trace(N, 1e6, 33);
    let (_, mono_tokens) = run_live_tokens(&model, serve_config(None), &trace);

    let pool = ReplicaPool::start(
        Arc::clone(&model),
        PoolConfig {
            replicas: 2,
            roles: vec![ReplicaRole::Prefill, ReplicaRole::Decode],
            replica: serve_config(None),
            ..PoolConfig::default()
        },
    )
    .expect("pool starts");
    let opts = ReplayOptions {
        time_scale: 0.0,
        ..ReplayOptions::default()
    };
    let replayed = replay_trace_on(&pool.client(), &trace, &opts);
    let report = pool.shutdown();
    let pool_tokens = collect_tokens(&replayed);

    assert_same_streams("disaggregated pool", &mono_tokens, &pool_tokens);
    assert_eq!(report.aggregate.completed as usize, N);
    assert_eq!(
        report.aggregate.robustness.disagg_handoffs as usize, N,
        "every request crosses the prefill/decode boundary exactly once"
    );
    assert_eq!(
        report.aggregate.robustness.migrations, 0,
        "planned handoffs must not be booked as failure migrations"
    );
    assert!(
        report.aggregate.reconciles(),
        "per-request accounting must balance"
    );
}

/// Chunking and disaggregation compose: a chunk-budgeted
/// `[Prefill, Decode]` pool still streams bitwise-identically to the
/// monolithic baseline, with both counters active at once.
#[test]
fn chunked_disaggregated_pool_is_still_bitwise_identical() {
    let model = live_model();
    let trace = SHAPE.trace(N, 1e6, 35);
    let (_, mono_tokens) = run_live_tokens(&model, serve_config(None), &trace);

    let pool = ReplicaPool::start(
        Arc::clone(&model),
        PoolConfig {
            replicas: 2,
            roles: vec![ReplicaRole::Prefill, ReplicaRole::Decode],
            replica: serve_config(Some(8)),
            ..PoolConfig::default()
        },
    )
    .expect("pool starts");
    let opts = ReplayOptions {
        time_scale: 0.0,
        ..ReplayOptions::default()
    };
    let replayed = replay_trace_on(&pool.client(), &trace, &opts);
    let report = pool.shutdown();

    assert_same_streams(
        "chunked+disagg pool",
        &mono_tokens,
        &collect_tokens(&replayed),
    );
    assert_eq!(report.aggregate.completed as usize, N);
    assert_eq!(report.aggregate.robustness.disagg_handoffs as usize, N);
    assert!(
        report.aggregate.prefill_chunks >= (N as u64) * 3,
        "cold prompts chunk at ceil(24/8)=3 on the prefill replica; decode-side \
         replays may add more, never fewer (got {})",
        report.aggregate.prefill_chunks
    );
}

/// Exact live-vs-sim reconciliation: on an identical trace with the
/// same chunk budget, the live runtime and the simulator agree on the
/// chunk count to the unit (both are `sum(ceil(cold/budget))`), and on
/// the ITL observation counts overall and per class.
#[test]
fn live_and_sim_chunk_counts_and_itl_samples_reconcile_exactly() {
    let budget = 16usize;
    let trace = SHAPE.trace(N, 1e6, 37);

    let model = live_model();
    let (live, _) = run_live_tokens(&model, serve_config(Some(budget)), &trace);

    let sim = ServingSimulator::new(SimConfig {
        policy: BatchingPolicy::Continuous,
        max_concurrency: 8,
        kv_capacity_tokens: 4096,
        kv_block_tokens: Some(16),
    })
    .with_prefill_chunking(budget as u32)
    .run(trace.clone(), &sim_perf());

    assert_eq!(sim.completed as usize, N);
    assert_eq!(
        live.prefill_chunks, sim.prefill_chunks,
        "live and simulated chunk counters must reconcile exactly"
    );
    assert_eq!(
        live.prefill_chunks,
        (N as u64) * 24u64.div_ceil(budget as u64)
    );
    assert_eq!(
        live.itl.overall.samples, sim.itl.overall.samples,
        "both backends observe one ITL sample per multi-token completion"
    );
    for (i, (l, s)) in live
        .itl
        .per_class
        .iter()
        .zip(sim.itl.per_class.iter())
        .enumerate()
    {
        assert_eq!(
            l.samples, s.samples,
            "per-class ITL sample counts must reconcile (class {i})"
        );
    }
    assert_eq!(live.itl.overall.samples as usize, N);
    assert!(live.itl.overall.p99.value() >= live.itl.overall.p50.value());
    assert!(sim.itl.overall.p99.value() >= sim.itl.overall.p50.value());
}

/// Exact live-vs-sim reconciliation, disaggregated half: the pool's
/// handoff counter equals the simulator's on an identical trace and
/// role map — every request hands off exactly once, in both worlds.
#[test]
fn live_and_sim_disaggregated_handoffs_reconcile_exactly() {
    let roles = [ReplicaRole::Prefill, ReplicaRole::Decode];
    let trace = SHAPE.trace(N, 1e6, 39);

    let model = live_model();
    let pool = ReplicaPool::start(
        Arc::clone(&model),
        PoolConfig {
            replicas: 2,
            roles: roles.to_vec(),
            replica: serve_config(None),
            ..PoolConfig::default()
        },
    )
    .expect("pool starts");
    let opts = ReplayOptions {
        time_scale: 0.0,
        ..ReplayOptions::default()
    };
    let replayed = replay_trace_on(&pool.client(), &trace, &opts);
    let live = pool.shutdown();
    assert_eq!(live.aggregate.completed as usize, N);
    for r in &replayed {
        assert!(
            r.outcome.tokens().is_some(),
            "request {} failed",
            r.trace_id
        );
    }

    let sim = ServingSimulator::new(SimConfig {
        policy: BatchingPolicy::Continuous,
        max_concurrency: 8,
        kv_capacity_tokens: 4096,
        kv_block_tokens: Some(16),
    })
    .run_pool(
        trace.clone(),
        &sim_perf(),
        &roles,
        &ReplicaFaultPlan::empty(),
    );

    assert_eq!(sim.aggregate.completed as usize, N);
    assert_eq!(
        live.aggregate.robustness.disagg_handoffs, sim.disagg_handoffs,
        "live and simulated handoff counters must reconcile exactly"
    );
    assert_eq!(sim.disagg_handoffs as usize, N);
    assert_eq!(sim.migrations, 0);
    assert_eq!(live.aggregate.robustness.migrations, 0);
}
