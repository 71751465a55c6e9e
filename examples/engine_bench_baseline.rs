//! Records the engine kernel performance baseline to `BENCH_engine.json`.
//!
//! Measures the three mechanisms the batched execution paths implement
//! (paper Fig. 1a/1b):
//!
//! * prefill as one batched GEMM pass vs the token-at-a-time GEMV loop,
//! * single-sequence decode throughput (memory-bound GEMV phase),
//!   steady-state-trimmed over per-step samples,
//! * batched-decode aggregate throughput at batch 1/4/16, where weights
//!   stream once per step instead of once per sequence.
//!
//! Every number goes through the `llmib_bench::harness` trial pipeline:
//! repeated seeded trials with warmup trimming, collapsed to nearest-rank
//! 95% confidence intervals. Hardware-portable ratios (GEMM speedup,
//! batching scaling) are `gated` — the CI regression gate fails on a
//! statistically significant drop; absolute tokens/s are recorded
//! ungated because they are machine-dependent.
//!
//! Run with `cargo run --release --example engine_bench_baseline`.
//! `LLMIB_TRIALS` overrides the per-metric trial count (CI smoke uses 3).

use llmib_bench::harness::{
    run_series_trials, time_seconds, BenchDocument, Metric, Section, SteadyStateConfig, TrialConfig,
};
use llmib_engine::{BatchSession, EngineConfig, Sampler, TransformerModel};
use serde_json::Value;
use std::time::Instant;

const BENCH_PATH: &str = "BENCH_engine.json";
const CREATED_BY: &str = "cargo run --release --example engine_bench_baseline";

fn trial_config() -> TrialConfig {
    let trials = std::env::var("LLMIB_TRIALS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    TrialConfig::new(trials, 1, 0x5EED)
}

/// One prefill measurement through both paths, the GEMM first when
/// `gemm_first` (trials alternate, so neither path always runs on the
/// colder caches): `(gemv_tokens_per_s, gemm_tokens_per_s)`.
fn prefill_pair_once(
    model: &TransformerModel,
    vocab: usize,
    tokens: usize,
    gemm_first: bool,
) -> (f64, f64) {
    let prompt: Vec<usize> = (0..tokens).map(|i| (i * 7 + 3) % vocab).collect();
    let gemm = || {
        time_seconds(|| {
            let mut cache = model.new_cache();
            std::hint::black_box(model.prefill(&prompt, &mut cache));
        })
    };
    let gemv = || {
        time_seconds(|| {
            let mut cache = model.new_cache();
            std::hint::black_box(model.prefill_unbatched(&prompt, &mut cache));
        })
    };
    let (gemm_s, gemv_s) = if gemm_first {
        let m = gemm();
        (m, gemv())
    } else {
        let v = gemv();
        (gemm(), v)
    };
    (tokens as f64 / gemv_s, tokens as f64 / gemm_s)
}

/// Paired prefill trials: per-trial throughput for both paths plus the
/// per-trial speedup ratio, each collapsed to its own interval.
fn prefill_point(
    model: &TransformerModel,
    vocab: usize,
    config: &str,
    tokens: usize,
    tc: &TrialConfig,
) -> Value {
    let mut gemv = Vec::new();
    let mut gemm = Vec::new();
    let set = llmib_bench::harness::run_trials(tc, |seed| {
        let (v, m) = prefill_pair_once(model, vocab, tokens, seed.is_multiple_of(2));
        gemv.push(v);
        gemm.push(m);
        m / v
    });
    // The workload also ran during warmup; keep only measured trials.
    let gemv = gemv.split_off(gemv.len() - tc.trials);
    let gemm = gemm.split_off(gemm.len() - tc.trials);
    Value::Object(vec![
        ("config".into(), Value::Str(config.into())),
        ("prompt_tokens".into(), Value::Int(tokens as i64)),
        (
            "gemv_loop_tokens_per_s".into(),
            Metric::higher(
                "tokens/s",
                llmib_bench::harness::ConfidenceInterval::from_samples95(&gemv),
            )
            .to_value(),
        ),
        (
            "gemm_tokens_per_s".into(),
            Metric::higher(
                "tokens/s",
                llmib_bench::harness::ConfidenceInterval::from_samples95(&gemm),
            )
            .to_value(),
        ),
        (
            "speedup".into(),
            Metric::higher("ratio", set.ci95()).gated().to_value(),
        ),
    ])
}

fn main() {
    let tc = trial_config();

    // tiny()-scale model with room for a 256-token prompt.
    let cfg = EngineConfig {
        max_seq: 320,
        ..EngineConfig::tiny()
    };
    let model = TransformerModel::new(cfg.clone(), false).expect("valid config");

    // --- Prefill: batched GEMM vs per-token GEMV loop ---
    // At tiny scale attention + softmax (identical in both paths) bound
    // the end-to-end ratio; at hidden=128 the matmuls dominate and the
    // register-tiled GEMM's full advantage shows.
    let bcfg128 = EngineConfig::scaled_from(llmib_models::ModelId::Llama2_7b, 128, 77);
    let bmodel128 = TransformerModel::new(bcfg128.clone(), false).expect("valid config");
    let prefill_points = Value::Array(vec![
        prefill_point(&model, cfg.vocab, "tiny (max_seq=320)", 256, &tc),
        prefill_point(
            &bmodel128,
            bcfg128.vocab,
            "scaled_from(Llama2_7b, hidden=128)",
            256,
            &tc,
        ),
    ]);

    // --- Single-sequence decode: per-step tokens/s series, trimmed to
    // its steady region so prefill spill-over and cold caches are
    // excluded from the trial value.
    let decode_tokens = 64usize;
    let steady = SteadyStateConfig {
        window: 8,
        max_cv: 0.2,
    };
    let decode_set = run_series_trials(&tc, &steady, |_seed| {
        let mut cache = model.new_cache();
        let mut ws = model.new_workspace();
        let mut logits = model.prefill(&[1, 2, 3], &mut cache);
        let mut series = Vec::with_capacity(decode_tokens);
        for pos in 3..3 + decode_tokens {
            let next = logits
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap();
            let t = Instant::now();
            let l = model.forward_ws(next, pos, &mut cache, &mut ws);
            series.push(1.0 / t.elapsed().as_secs_f64());
            logits.clear();
            logits.extend_from_slice(l);
        }
        series
    });

    // --- Batched decode aggregate throughput at batch 1/4/16 ---
    // A larger model makes the per-step weight pass the dominant cost,
    // which is what batching amortizes. Each trial times all three batch
    // sizes back to back, starting from a different one each trial, so a
    // noisy stretch of the host slows a whole trial rather than one
    // batch size's block of trials.
    let new_tokens = 16usize;
    let batches = [1usize, 4, 16];
    let run_batch = |batch: usize| {
        let s = time_seconds(|| {
            let mut session = BatchSession::new(&bmodel128);
            for i in 0..batch {
                let p = [1 + i % 7, 2 + i % 5, 3];
                session
                    .admit(i as u64, &p, new_tokens, Sampler::Greedy)
                    .expect("admit");
            }
            std::hint::black_box(session.run_to_completion());
        });
        (batch * new_tokens) as f64 / s
    };
    let mut tps: Vec<Vec<f64>> = vec![Vec::new(); batches.len()];
    // Paired per-trial scaling ratio: batch-16 aggregate over batch-1.
    let scaling = llmib_bench::harness::run_trials(&tc, |seed| {
        let mut trial = [0.0f64; 3];
        for k in 0..batches.len() {
            let b = (k + seed as usize) % batches.len();
            trial[b] = run_batch(batches[b]);
        }
        for (v, t) in tps.iter_mut().zip(trial) {
            v.push(t);
        }
        trial[2] / trial[0]
    });
    // The workload also ran during warmup; keep only measured trials.
    let per_batch: Vec<(usize, Vec<f64>)> = batches
        .iter()
        .zip(tps)
        .map(|(&b, mut v)| (b, v.split_off(v.len() - tc.trials)))
        .collect();

    // --- Merge our sections into BENCH_engine.json, preserving the
    // sections other examples own (prefix_cache, kernels).
    let ci = llmib_bench::harness::ConfidenceInterval::from_samples95;
    let mut doc = BenchDocument::load_or_new(BENCH_PATH);
    doc.merge_section(
        Section::new(
            "prefill",
            CREATED_BY,
            "GEMM vs GEMV prefill over 256-token prompt, two model scales",
        )
        .field(
            "trials",
            Value::Object(vec![
                ("count".into(), Value::Int(tc.trials as i64)),
                ("warmup".into(), Value::Int(tc.warmup as i64)),
                ("base_seed".into(), Value::Int(tc.base_seed as i64)),
            ]),
        )
        .field("points", prefill_points),
    );
    doc.merge_section(
        Section::new(
            "decode",
            CREATED_BY,
            "tiny (max_seq=320), 64 decode steps, steady-state trimmed (window=8, cv<=0.2)",
        )
        .with_trials(&tc, &decode_set)
        .metric(
            "tokens_per_s",
            &Metric::higher("tokens/s", decode_set.ci95()),
        ),
    );
    let mut batched_section = Section::new(
        "batched_decode",
        CREATED_BY,
        "scaled_from(Llama2_7b, hidden=128), 16 new tokens per sequence",
    )
    .field("new_tokens_per_seq", Value::Int(new_tokens as i64))
    .field(
        "trials",
        Value::Object(vec![
            ("count".into(), Value::Int(tc.trials as i64)),
            ("warmup".into(), Value::Int(tc.warmup as i64)),
            ("base_seed".into(), Value::Int(tc.base_seed as i64)),
        ]),
    );
    let points: Vec<Value> = per_batch
        .iter()
        .map(|(batch, tps)| {
            Value::Object(vec![
                ("batch".into(), Value::Int(*batch as i64)),
                (
                    "aggregate_tokens_per_s".into(),
                    Metric::higher("tokens/s", ci(tps)).to_value(),
                ),
            ])
        })
        .collect();
    batched_section.set("points", Value::Array(points));
    batched_section.set_metric(
        "batch16_vs_batch1_scaling",
        &Metric::higher("ratio", scaling.ci95()).gated(),
    );
    doc.merge_section(batched_section);

    doc.write(BENCH_PATH).expect("write BENCH_engine.json");
    print!("{}", doc.to_pretty_string());
}
