//! Overload-survival cross-validation (the PR's acceptance gate): drive
//! an identical trace + fault plan through the live scheduler and the
//! discrete-event simulator with the same [`OverloadConfig`], and
//! require
//!
//! * the preempted-and-resumed stream is **bitwise identical** to an
//!   uncontended single-owner [`BatchSession`] run of the same request,
//! * the overload counters (preemptions, replayed tokens, brownout
//!   steps, per-class tallies) **reconcile exactly** between backends.
//!
//! Wall-clock nondeterminism is fenced with two stall gates, both
//! anchored to decode-step indices (the shared logical clock):
//!
//! * gate 1: a `StepStall` at step 0 holds the scheduler before its
//!   first intake, so every best-effort submission is already parked in
//!   the ingress when the first admission pass runs — one admission
//!   wave in both backends;
//! * gate 2: a `StepStall` at step `K` spans the interactive arrival,
//!   so the preemption fires at exactly `K` generated victim tokens in
//!   both backends.
//!
//! This lives in its own test binary on purpose: the gates sleep for
//! real seconds, and sharing a binary would serialize behind (or steal
//! CPU from) the chaos and cross-validation suites.

use llmib_engine::{EngineConfig, TransformerModel};
use llmib_frameworks::FrameworkId;
use llmib_hardware::HardwareId;
use llmib_models::ModelId;
use llmib_perf::{PerfModel, ResolvedScenario, Scenario};
use llmib_sched::{BatchingPolicy, ServingSimulator, SimConfig};
use llmib_serve::{
    deterministic_prompt, replay_admission_order, replay_trace, replay_trace_on, BrownoutConfig,
    OverloadConfig, PoolConfig, Priority, ReplayOptions, ReplicaPool, RequestOutcome, ServeConfig,
    Server,
};
use llmib_types::{FaultEvent, FaultKind, FaultPlan, Request, Seconds};
use std::sync::Arc;

/// Victim tokens generated before gate 2 preempts it.
const K: u64 = 6;
const PROMPT: u32 = 32;
const OUTPUT: u32 = 48;
/// 4 best-effort residents of 80 KV tokens each (cost = context at
/// block 16), plus 32 spare tokens: a fifth 80-token reservation *must*
/// fail, and freeing exactly one resident *must* let it succeed.
const CAPACITY: u64 = 4 * 80 + 32;

fn live_model() -> Arc<TransformerModel> {
    let cfg = EngineConfig::scaled_from(ModelId::Llama2_7b, 128, 7);
    Arc::new(TransformerModel::new(cfg, false).expect("valid config"))
}

fn overload() -> OverloadConfig {
    OverloadConfig {
        preemption: true,
        brownout: BrownoutConfig {
            enabled: true,
            trip_after: 4,
            recover_after: 8,
            degraded_max_new_tokens: 8,
        },
    }
}

fn sim_perf() -> ResolvedScenario {
    let scenario = Scenario::builder()
        .model(ModelId::Llama3_8b)
        .hardware(HardwareId::A100)
        .framework(FrameworkId::Vllm)
        .batch_size(8)
        .input_tokens(PROMPT)
        .output_tokens(OUTPUT)
        .build()
        .expect("valid scenario");
    PerfModel::default_calibration()
        .resolve_scenario(&scenario)
        .expect("resolvable scenario")
}

/// The gated two-phase trace: four best-effort requests in the opening
/// burst, one interactive request arriving inside gate 2.
fn gated_trace() -> Vec<Request> {
    let mut trace: Vec<Request> = (0..4)
        .map(|id| {
            Request::new(id, Seconds(0.01 * (id + 1) as f64), PROMPT, OUTPUT)
                .with_priority(Priority::BestEffort)
        })
        .collect();
    trace.push(Request::new(4, Seconds(4.0), PROMPT, OUTPUT).with_priority(Priority::Interactive));
    trace
}

/// Gate 1 parks the opening burst ahead of the first admission; gate 2
/// (at step `K`) spans the interactive arrival at t = 4.0 s. The live
/// side needs prefill + `K` decode steps to finish within the 2.5 s
/// between the end of gate 1 and the arrival — debug-build decode on
/// the scaled model takes milliseconds per step, leaving a wide margin.
fn gates() -> FaultPlan {
    FaultPlan::new(vec![
        FaultEvent {
            at_step: 0,
            kind: FaultKind::StepStall {
                extra: Seconds(1.5),
            },
        },
        FaultEvent {
            at_step: K,
            kind: FaultKind::StepStall {
                extra: Seconds(4.0),
            },
        },
    ])
}

#[test]
fn preempted_stream_is_bitwise_identical_and_counters_reconcile_with_sim() {
    let trace = gated_trace();

    // Simulator half.
    let sim = ServingSimulator::new(SimConfig {
        policy: BatchingPolicy::Continuous,
        max_concurrency: 8,
        kv_capacity_tokens: CAPACITY,
        kv_block_tokens: Some(16),
    })
    .with_overload(overload())
    .unwrap();
    let simulated = sim.run_with_faults(trace.clone(), &sim_perf(), &gates());
    assert_eq!(simulated.completed, 5);
    assert_eq!(simulated.rejected, 0);
    assert_eq!(
        simulated.preemptions, 1,
        "the interactive arrival must preempt exactly one resident"
    );
    assert_eq!(simulated.replayed_tokens, K);

    // Live half: identical trace, fault plan, and overload config.
    let model = live_model();
    let server = Server::start(
        Arc::clone(&model),
        ServeConfig {
            policy: BatchingPolicy::Continuous,
            max_concurrency: 8,
            kv_capacity_tokens: CAPACITY,
            kv_block_tokens: Some(16),
            queue_capacity: 8,
            fault_plan: gates(),
            overload: overload(),
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let opts = ReplayOptions {
        time_scale: 1.0,
        client_threads: 1, // submission order == trace order
        ..ReplayOptions::default()
    };
    let replayed = replay_trace(&server, &trace, &opts);
    let report = server.shutdown();

    assert!(
        report.reconciles(),
        "every submission resolved exactly once"
    );
    assert_eq!(report.completed, 5);

    // Bitwise identity: every stream — including the preempted and
    // replayed victim's — must equal a fresh uncontended single-owner
    // BatchSession run of the same request. Preemption may change when
    // tokens appear, never which.
    for r in &replayed {
        let req = &trace[r.trace_id as usize];
        let live_tokens = r
            .outcome
            .tokens()
            .unwrap_or_else(|| panic!("request {} did not complete: {:?}", r.trace_id, r.outcome));
        let sid = r.server_id.expect("accepted at the door");
        let offline = replay_admission_order(&model, &[sid], |_| {
            (
                deterministic_prompt(req.id, req.prompt_tokens, model.config().vocab),
                req.output_tokens as usize,
            )
        });
        assert_eq!(
            live_tokens,
            &offline[0].1[..],
            "request {}: preemption/replay must not change a single token",
            r.trace_id
        );
    }

    // Exact counter reconciliation, overall and per class.
    assert_eq!(report.overload.preemptions, simulated.preemptions);
    assert_eq!(report.overload.replayed_tokens, simulated.replayed_tokens);
    assert_eq!(report.overload.brownout_steps, simulated.brownout_steps);
    assert_eq!(report.overload.shed_brownout, simulated.brownout_sheds);
    assert_eq!(report.overload.per_class, simulated.per_class);
    assert!(
        report.overload.brownout_steps > 0,
        "the starved steps behind gate 2 must trip the brownout in both backends"
    );
    assert_eq!(
        report.overload.per_class.preemptions,
        [1, 0, 0],
        "the victim is best-effort"
    );
    assert_eq!(report.overload.per_class.completed, [4, 0, 1]);
}

#[test]
fn pool_aggregates_overload_counters_per_class() {
    let model = live_model();
    let pool = ReplicaPool::start(
        Arc::clone(&model),
        PoolConfig {
            replicas: 2,
            replica: ServeConfig {
                policy: BatchingPolicy::Continuous,
                max_concurrency: 8,
                kv_capacity_tokens: 4096,
                kv_block_tokens: Some(16),
                queue_capacity: 16,
                overload: overload(),
                ..ServeConfig::default()
            },
            ..PoolConfig::default()
        },
    )
    .expect("pool starts");
    // A burst of mixed-class requests, within capacity: no preemption
    // or shedding should fire, but the per-class completion tallies
    // must still fold across replicas into the aggregate report.
    let trace: Vec<Request> = (0..9)
        .map(|id| {
            Request::new(id, Seconds(0.001 * id as f64), 16, 12)
                .with_priority(Priority::ALL[(id % 3) as usize])
        })
        .collect();
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
            "request {} should complete: {:?}",
            r.trace_id,
            r.outcome
        );
    }
    assert!(report.aggregate.reconciles());
    assert_eq!(report.aggregate.completed, 9);
    assert_eq!(report.aggregate.overload.per_class.completed, [3, 3, 3]);
    assert_eq!(report.aggregate.overload.preemptions, 0);
    assert_eq!(report.aggregate.overload.shed_brownout, 0);
    // The per-replica breakdowns partition the aggregate.
    let split: [u32; 3] = report.per_replica.iter().fold([0; 3], |mut acc, r| {
        for (a, c) in acc.iter_mut().zip(r.overload.per_class.completed) {
            *a += c;
        }
        acc
    });
    assert_eq!(split, [3, 3, 3]);
}
