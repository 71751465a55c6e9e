//! Microbenchmarks of the analytical substrates the serving studies
//! build on, recorded as the `substrate_micro` section of
//! `BENCH_serve.json`:
//!
//! * the KV allocators: a paged admit/grow/release cycle over 64
//!   sequences, and a monolithic admit/release cycle that fragments the
//!   pool and then tries 32 more admissions;
//! * one `ServingSimulator` run of 48 Poisson arrivals per
//!   `BatchingPolicy` (Llama-3-8B on A100 under vLLM, 128 in/64 out);
//! * `PerfModel::predict` latency for a dense, an MoE TP=4 and a
//!   speculative-decoding scenario.
//!
//! Each metric is microseconds per call, averaged over a fixed number
//! of calls per trial and collapsed to a 95% confidence interval by the
//! `llmib_bench::harness` trial pipeline. Every metric is ungated: the
//! times are machine-dependent and no ratio among them is a claim.
//!
//! Run with `cargo run --release --example substrate_micro`.
//! `LLMIB_TRIALS` overrides the trial count (CI smoke uses 3).

use llmib_bench::harness::{run_trials, time_seconds, BenchDocument, Metric, Section, TrialConfig};
use llmib_frameworks::FrameworkId;
use llmib_hardware::HardwareId;
use llmib_models::ModelId;
use llmib_perf::{PerfModel, Scenario, SpecDecode};
use llmib_sched::{
    ArrivalPattern, BatchingPolicy, KvAllocator, MonolithicAllocator, PagedAllocator,
    ServingSimulator, SimConfig,
};
use llmib_types::{Parallelism, TokenShape};
use std::hint::black_box;

const BENCH_PATH: &str = "BENCH_serve.json";
const CREATED_BY: &str = "cargo run --release --example substrate_micro";

fn trial_config() -> TrialConfig {
    let trials = std::env::var("LLMIB_TRIALS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    TrialConfig::new(trials, 1, 2600)
}

/// Mean microseconds per call of `f` over `reps` calls.
fn us_per_call(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    time_seconds(|| {
        for _ in 0..reps {
            black_box(f());
        }
    }) * 1e6
        / reps as f64
}

fn paged() -> f64 {
    let mut a = PagedAllocator::new(1 << 20, 16);
    for id in 0..64u64 {
        a.admit(id, 2048).expect("2^20 tokens hold 64 sequences");
        a.append(id, 512).expect("2^20 tokens hold 64 sequences");
    }
    for id in 0..64u64 {
        a.append(id, 512).expect("2^20 tokens hold 64 sequences");
    }
    for id in 0..64u64 {
        a.release(id);
    }
    a.stats().free_tokens as f64
}

fn monolithic() -> f64 {
    let mut a = MonolithicAllocator::new(1 << 20);
    for id in 0..64u64 {
        a.admit(id, 2048).expect("2^20 tokens hold 64 sequences");
        a.append(id, 1024).expect("2^20 tokens hold 64 sequences");
    }
    for id in (0..64u64).step_by(2) {
        a.release(id);
    }
    for id in 64..96u64 {
        let _ = a.admit(id, 2048);
    }
    a.stats().external_fragmentation()
}

fn scenario(model: ModelId, shape: TokenShape) -> Scenario {
    Scenario::simple(model, HardwareId::A100, FrameworkId::Vllm, shape)
}

fn main() {
    let tc = trial_config();
    let perf = PerfModel::default_calibration();
    let resolved = perf
        .resolve_scenario(&scenario(ModelId::Llama3_8b, TokenShape::square(128, 8)))
        .expect("resolvable scenario");
    let simulate = |policy| {
        let sim = ServingSimulator::new(SimConfig {
            policy,
            max_concurrency: 16,
            kv_capacity_tokens: 1 << 18,
            kv_block_tokens: Some(16),
        });
        let reqs = ArrivalPattern::Poisson {
            rate_per_s: 60.0,
            seed: 7,
        }
        .generate(48, 128, 64);
        sim.run(reqs, &resolved).throughput_tokens_per_s
    };
    let dense = scenario(ModelId::Llama3_8b, TokenShape::square(1024, 16));
    let mut moe = scenario(ModelId::Mixtral8x7b, TokenShape::square(512, 16));
    moe.parallelism = Parallelism::tensor_parallel(4);
    let mut spec = scenario(ModelId::Llama3_8b, TokenShape::square(512, 1));
    spec.spec_decode = Some(SpecDecode::default());
    let predict = |s: &Scenario| {
        perf.predict(s)
            .expect("scenario fits")
            .throughput_tokens_per_s()
    };
    let cases: [(&str, usize, &dyn Fn() -> f64); 7] = [
        ("paged_admit_grow_release_64seqs_us", 1000, &paged),
        ("monolithic_admit_release_64seqs_us", 1000, &monolithic),
        ("simulator_continuous_48req_us", 50, &|| {
            simulate(BatchingPolicy::Continuous)
        }),
        ("simulator_static_48req_us", 50, &|| {
            simulate(BatchingPolicy::Static)
        }),
        ("predict_dense_us", 20000, &|| predict(&dense)),
        ("predict_moe_tp4_us", 20000, &|| predict(&moe)),
        ("predict_spec_decode_us", 20000, &|| predict(&spec)),
    ];

    let mut section = Section::new(
        "substrate_micro",
        CREATED_BY,
        "paged (2^20 tokens, block 16) and monolithic KV allocators x 64 seqs; \
         simulator llama3-8b/a100/vllm, 48 Poisson(60/s) requests 128 in/64 out, \
         concurrency 16; predict llama3-8b b16 1024, mixtral-8x7b tp4 b16 512, \
         llama3-8b spec-decode b1 512",
    );
    let mut last = None;
    for (key, reps, f) in cases {
        let set = run_trials(&tc, |_| us_per_call(reps, f));
        let ci = set.ci95();
        println!(
            "{key:<38} {:>10.3} us [{:.3}, {:.3}]",
            ci.point, ci.lo, ci.hi
        );
        section.set_metric(key, &Metric::lower("us", ci));
        last = Some(set);
    }
    let section = section.with_trials(&tc, &last.expect("at least one case"));
    let mut doc = BenchDocument::load_or_new(BENCH_PATH);
    doc.merge_section(section);
    doc.write(BENCH_PATH).expect("write BENCH_serve.json");
    println!("merged into {BENCH_PATH} (substrate_micro section)");
}
