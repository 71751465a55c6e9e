//! Replicated sim-vs-live cross-validation: run an identical trace and
//! replica-scoped fault plan through [`ServingSimulator::run_pool`]
//! and a live [`ReplicaPool`], and require exact agreement on failover
//! accounting (replicas lost, migrations, lifecycle totals).
//!
//! This lives in its own test binary on purpose: the pool spawns several
//! decode-heavy replica threads, and running it inside the
//! `cross_validation` binary steals CPU from that suite's wall-clock
//! TTFT comparisons.

use llmib_engine::{EngineConfig, TransformerModel};
use llmib_frameworks::FrameworkId;
use llmib_hardware::HardwareId;
use llmib_models::ModelId;
use llmib_perf::{PerfModel, ResolvedScenario, Scenario};
use llmib_sched::{BatchingPolicy, ServingSimulator, SimConfig};
use llmib_serve::{
    replay_trace_on, PoolConfig, ReplayOptions, ReplicaPool, RequestOutcome, ServeConfig,
};
use llmib_types::{ReplicaFaultPlan, ReplicaId, ReplicaRole};
use llmib_workloads::TrafficProfile;
use std::sync::Arc;

/// Same 24-in / 24-out shape as the `cross_validation` suite.
const SHAPE: TrafficProfile = TrafficProfile::Square { len: 24 };
const N: usize = 24;

fn live_model() -> Arc<TransformerModel> {
    // A scaled Table I analog (not `tiny`) so decode steps take long
    // enough that every burst dispatch lands before the kill step.
    let cfg = EngineConfig::scaled_from(ModelId::Llama2_7b, 128, 7);
    Arc::new(TransformerModel::new(cfg, false).expect("valid config"))
}

fn serve_config(policy: BatchingPolicy) -> ServeConfig {
    ServeConfig {
        policy,
        max_concurrency: 8,
        kv_capacity_tokens: 4096,
        kv_block_tokens: Some(16),
        queue_capacity: N + 8,
        ..ServeConfig::default()
    }
}

fn sim_config(policy: BatchingPolicy) -> SimConfig {
    SimConfig {
        policy,
        max_concurrency: 8,
        kv_capacity_tokens: 4096,
        kv_block_tokens: Some(16),
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

#[test]
fn replicated_sim_and_live_pool_agree_on_failover_accounting() {
    // One replica of three dies after its twentieth decode step, under
    // a 12-request burst of 24-in/24-out requests. Round-robin
    // placement parks exactly 4 of the 12 on replica 1 in both
    // backends, and none of them can finish 24 tokens in 20 steps — so
    // the discrete-event replicated simulator and the live pool must
    // agree *exactly* on failover and migration counts. The late kill
    // step (relative to µs-scale routing) is the determinism margin: on
    // a loaded machine every burst dispatch still lands long before the
    // fault fires. (Exact migrated-token totals differ: live admission
    // staggers with wall-clock, so only the sim's are deterministic.)
    let plan = ReplicaFaultPlan::kill_replica(ReplicaId(1), 20);
    let trace = SHAPE.trace(12, 1e6, 9);

    let perf = sim_perf();
    let sim = ServingSimulator::new(sim_config(BatchingPolicy::Continuous));
    let simulated = sim.run_pool(trace.clone(), &perf, &[ReplicaRole::Unified; 3], &plan);
    assert_eq!(simulated.failovers, 1);
    assert_eq!(simulated.migrations, 4);
    assert_eq!(simulated.aggregate.completed, 12);
    assert!(simulated.migrated_tokens > 0);
    assert_eq!(
        simulated.per_replica_completed[1], 0,
        "the dead replica finishes nothing"
    );

    let model = live_model();
    let pool = ReplicaPool::start(
        Arc::clone(&model),
        PoolConfig {
            replicas: 3,
            replica: serve_config(BatchingPolicy::Continuous),
            fault_plan: plan,
            ..PoolConfig::default()
        },
    )
    .expect("pool starts");
    // One client thread: a single burst of try_sends reaches the router
    // in microseconds, so round-robin dealing cannot race the kill.
    let opts = ReplayOptions {
        time_scale: 0.0,
        client_threads: 1,
        ..ReplayOptions::default()
    };
    let replayed = replay_trace_on(&pool.client(), &trace, &opts);
    let report = pool.shutdown();
    for r in &replayed {
        assert!(
            matches!(r.outcome, RequestOutcome::Completed { .. }),
            "trace request {} must survive the replica loss: {:?}",
            r.trace_id,
            r.outcome
        );
    }

    // The cross-validation contract: identical trace + fault plan ⇒
    // identical failover count, migration count, and lifecycle totals.
    assert_eq!(report.replicas_lost(), simulated.failovers);
    assert_eq!(
        report.aggregate.robustness.replicas_lost,
        simulated.failovers
    );
    assert_eq!(report.aggregate.robustness.migrations, simulated.migrations);
    assert_eq!(report.aggregate.completed, simulated.aggregate.completed);
    assert_eq!(report.aggregate.robustness.failed, 0);
    assert!(report.aggregate.robustness.migrated_tokens > 0);
    assert_eq!(report.per_replica[1].completed, 0);
    assert!(report.aggregate.reconciles());
}
