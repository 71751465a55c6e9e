//! Golden pin of the discrete-event simulator.
//!
//! Every named scenario below runs one small trace through
//! [`ServingSimulator`] and serializes its full report — `per_request`
//! included — with `serde_json::to_string_pretty`. The string must equal
//! the scenario's entry in `fixtures/simulator_golden.json` exactly. The
//! JSON writer prints floats in Rust's shortest round-trip form, so
//! string equality is bitwise equality of every reported number.
//!
//! The scenarios cover each policy path of the serving loop: both
//! batching policies over both allocators, the prefix-cache model, base
//! recompute preemption, chunked prefill, the overload machinery with and
//! without chunking, seeded and hand-built fault plans, and replica pools
//! with unified and disaggregated roles, healthy and with a replica kill.

use llmib_frameworks::FrameworkId;
use llmib_hardware::HardwareId;
use llmib_models::ModelId;
use llmib_perf::{PerfModel, ResolvedScenario, Scenario};
use llmib_sched::{
    ArrivalPattern, BatchingPolicy, BrownoutConfig, OverloadConfig, ServingSimulator, SimConfig,
};
use llmib_types::{
    FaultEvent, FaultKind, FaultPlan, Priority, ReplicaFaultPlan, ReplicaId, ReplicaRole, Request,
    Seconds, TokenShape,
};
use serde_json::Value;

fn perf(batch: u32) -> ResolvedScenario {
    let s = Scenario::simple(
        ModelId::Llama3_8b,
        HardwareId::A100,
        FrameworkId::Vllm,
        TokenShape::square(128, batch),
    );
    PerfModel::default_calibration()
        .resolve_scenario(&s)
        .unwrap()
}

fn sim(policy: BatchingPolicy, kv_tokens: u64, block: Option<u32>) -> ServingSimulator {
    ServingSimulator::new(SimConfig {
        policy,
        max_concurrency: 8,
        kv_capacity_tokens: kv_tokens,
        kv_block_tokens: block,
    })
}

fn paged(kv_tokens: u64) -> ServingSimulator {
    sim(BatchingPolicy::Continuous, kv_tokens, Some(16))
}

/// 16 Poisson arrivals with mixed prompt and output lengths.
fn staggered() -> Vec<Request> {
    ArrivalPattern::Poisson {
        rate_per_s: 40.0,
        seed: 11,
    }
    .generate(16, 96, 24)
    .into_iter()
    .enumerate()
    .map(|(i, mut r)| {
        r.prompt_tokens += 16 * (i as u32 % 4);
        r.output_tokens += 8 * (i as u32 % 3);
        r
    })
    .collect()
}

/// 20 requests over three priority classes: a best-effort burst that
/// fills the pool, then standard and interactive arrivals behind it.
fn mixed_priority() -> Vec<Request> {
    (0..20u64)
        .map(|id| {
            let (arrival, priority) = match id % 4 {
                0 | 1 => (0.0, Priority::BestEffort),
                2 => (0.05 * id as f64, Priority::Standard),
                _ => (0.05 * id as f64, Priority::Interactive),
            };
            Request::new(id, Seconds(arrival), 64 + 8 * (id as u32 % 5), 48).with_priority(priority)
        })
        .collect()
}

fn overload() -> OverloadConfig {
    OverloadConfig {
        preemption: true,
        brownout: BrownoutConfig {
            enabled: true,
            trip_after: 2,
            recover_after: 4,
            degraded_max_new_tokens: 8,
        },
    }
}

fn ids(requests: &[Request]) -> Vec<u64> {
    requests.iter().map(|r| r.id).collect()
}

fn json<T: serde::Serialize>(report: &T) -> String {
    serde_json::to_string_pretty(report).expect("reports serialize")
}

/// Every golden scenario, by name, with its serialized report.
fn scenarios() -> Vec<(&'static str, String)> {
    let mut out = Vec::new();
    let trace = staggered();

    for (name, policy, block) in [
        ("continuous_monolithic", BatchingPolicy::Continuous, None),
        ("continuous_paged16", BatchingPolicy::Continuous, Some(16)),
        ("static_monolithic", BatchingPolicy::Static, None),
        ("static_paged16", BatchingPolicy::Static, Some(16)),
    ] {
        let rep = sim(policy, 4096, block).run(trace.clone(), &perf(8));
        out.push((name, json(&rep)));
    }

    let shared: Vec<Request> = (0..12u64)
        .map(|id| {
            let r = Request::new(id, Seconds(0.01 * id as f64), 96, 16);
            if id % 3 == 2 {
                r
            } else {
                r.with_shared_prefix(48)
            }
        })
        .collect();
    out.push(("shared_prefix", json(&paged(1 << 16).run(shared, &perf(8)))));

    let tight = ArrivalPattern::Burst.generate(6, 128, 64);
    out.push((
        "tight_pool_preemption",
        json(&paged(400).run(tight, &perf(4))),
    ));

    out.push((
        "chunk_budget_16",
        json(
            &paged(1 << 16)
                .with_prefill_chunking(16)
                .run(trace.clone(), &perf(8)),
        ),
    ));

    let mixed = mixed_priority();
    out.push((
        "overload_preempt_brownout",
        json(
            &paged(800)
                .with_overload(overload())
                .unwrap()
                .run(mixed.clone(), &perf(8)),
        ),
    ));
    out.push((
        "overload_preempt_brownout_chunked",
        json(
            &paged(800)
                .with_overload(overload())
                .unwrap()
                .with_prefill_chunking(16)
                .run(mixed.clone(), &perf(8)),
        ),
    ));
    out.push((
        "overload_seeded_faults",
        json(
            &paged(800)
                .with_overload(overload())
                .unwrap()
                .run_with_faults(
                    mixed.clone(),
                    &perf(8),
                    &FaultPlan::seeded(13, 40, &ids(&mixed)),
                ),
        ),
    ));

    for (seed, name) in [
        (1, "faults_seeded_1"),
        (13, "faults_seeded_13"),
        (25, "faults_seeded_25"),
    ] {
        let plan = FaultPlan::seeded(seed, 40, &ids(&trace));
        let rep = paged(4096).run_with_faults(trace.clone(), &perf(8), &plan);
        out.push((name, json(&rep)));
    }

    let exhaustion = FaultPlan::new(vec![
        FaultEvent {
            at_step: 3,
            kind: FaultKind::TransientStepError { failures: 2 },
        },
        FaultEvent {
            at_step: 9,
            kind: FaultKind::TransientStepError { failures: 100 },
        },
        FaultEvent {
            at_step: 15,
            kind: FaultKind::RequestPoison { request: 13 },
        },
    ]);
    out.push((
        "faults_transient_exhaustion",
        json(&paged(4096).run_with_faults(trace.clone(), &perf(8), &exhaustion)),
    ));

    let panic = FaultPlan::new(vec![FaultEvent {
        at_step: 20,
        kind: FaultKind::SchedulerPanic,
    }]);
    out.push((
        "faults_scheduler_panic",
        json(&paged(4096).run_with_faults(trace.clone(), &perf(8), &panic)),
    ));

    let pool_trace: Vec<Request> = ArrivalPattern::Poisson {
        rate_per_s: 60.0,
        seed: 5,
    }
    .generate(18, 128, 24);
    let unified = [ReplicaRole::Unified; 3];
    let pool = |roles: &[ReplicaRole], plan: &ReplicaFaultPlan| {
        json(&paged(4096).run_pool(pool_trace.clone(), &perf(4), roles, plan))
    };
    out.push((
        "pool_unified3_healthy",
        pool(&unified, &ReplicaFaultPlan::empty()),
    ));
    out.push((
        "pool_unified3_kill_1_at_5",
        pool(&unified, &ReplicaFaultPlan::kill_replica(ReplicaId(1), 5)),
    ));
    out.push((
        "pool_unified3_broadcast_seeded",
        pool(
            &unified,
            &ReplicaFaultPlan::broadcast(&FaultPlan::seeded(6, 30, &ids(&pool_trace)), 3),
        ),
    ));
    out.push((
        "pool_prefill_decode_healthy",
        pool(
            &[ReplicaRole::Prefill, ReplicaRole::Decode],
            &ReplicaFaultPlan::empty(),
        ),
    ));
    out.push((
        "pool_prefill_unified_decode_kill",
        pool(
            &[
                ReplicaRole::Prefill,
                ReplicaRole::Unified,
                ReplicaRole::Decode,
            ],
            &ReplicaFaultPlan::kill_replica(ReplicaId(1), 4),
        ),
    ));
    out
}

#[test]
fn simulator_reports_match_the_golden_fixture() {
    let fixture: Value = serde_json::from_str(include_str!("fixtures/simulator_golden.json"))
        .expect("fixture parses");
    let Value::Object(entries) = fixture else {
        panic!("fixture must be a JSON object of scenario name -> report");
    };
    let scenarios = scenarios();
    let mut diverged = Vec::new();
    for (name, actual) in &scenarios {
        let expected = entries
            .iter()
            .find(|(key, _)| key == name)
            .map(|(_, report)| json(report));
        if expected.as_deref() != Some(actual.as_str()) {
            eprintln!("scenario `{name}` diverged from the fixture; actual report:\n{actual}");
            diverged.push(*name);
        }
    }
    assert!(diverged.is_empty(), "diverged scenarios: {diverged:?}");
    assert_eq!(
        entries.len(),
        scenarios.len(),
        "every fixture entry has a scenario"
    );
}
