//! Performance shape checks for the batched execution paths.
//!
//! These assert the *direction and rough magnitude* of the mechanisms the
//! paper measures on real accelerators (Fig. 1a/1b), as executed by the
//! engine on whatever machine runs the tests:
//!
//! * batched GEMM prefill beats the token-at-a-time GEMV loop,
//! * prefill throughput exceeds single-sequence decode throughput,
//! * batched decode aggregate throughput grows with batch size.
//!
//! Margins are set well below the medians measured on a single-core
//! development container (see `BENCH_engine.json`) so scheduler noise
//! does not flake the suite; the mechanisms themselves are asserted
//! exactly (golden equivalence) in `engine_golden_equivalence.rs`.
//!
//! Every claim is a ratio of two timings measured as interleaved
//! pairs: each pair times the baseline, then the contender, and the
//! check reads the median of the per-pair ratios. A slow window on a
//! shared host then slows both sides of a pair instead of one side's
//! whole batch of timings.

use llmib_bench::harness::{run_trials, time_seconds, TrialConfig};
use llmib_engine::{BatchSession, EngineConfig, Sampler, TransformerModel};

/// Median over `pairs` interleaved trials of `time(baseline) /
/// time(contender)`, after one discarded warmup pair: how many times
/// faster the contender runs.
fn paired_speedup(pairs: usize, mut baseline: impl FnMut(), mut contender: impl FnMut()) -> f64 {
    run_trials(&TrialConfig::new(pairs, 1, 0), |_| {
        let base = time_seconds(&mut baseline);
        base / time_seconds(&mut contender)
    })
    .ci95()
    .point
}

#[test]
fn batched_prefill_beats_gemv_loop_on_long_prompt() {
    // 256-token prompt at tiny scale: the batched path runs one 2×2
    // register-tiled GEMM per weight matrix instead of 256 GEMVs.
    // Measured ~1.7× on the single-core reference box; attention +
    // softmax are O(T²·heads), identical in both paths, and bound the
    // end-to-end ratio at this hidden size (the matmul-only ratio is
    // ~2.5-3×, asserted in the larger-config check below).
    let cfg = EngineConfig {
        max_seq: 320,
        ..EngineConfig::tiny()
    };
    let model = TransformerModel::new(cfg.clone(), false).unwrap();
    let prompt: Vec<usize> = (0..256).map(|i| (i * 7 + 3) % cfg.vocab).collect();

    let speedup = paired_speedup(
        5,
        || {
            let mut cache = model.new_cache();
            std::hint::black_box(model.prefill_unbatched(&prompt, &mut cache));
        },
        || {
            let mut cache = model.new_cache();
            std::hint::black_box(model.prefill(&prompt, &mut cache));
        },
    );
    assert!(
        speedup > 1.25,
        "batched prefill speedup {speedup:.2}x at tiny scale (want > 1.25x)"
    );

    // At a larger hidden size the matmuls dominate and the full GEMM
    // advantage shows through (measured ~2.5x).
    let cfg = EngineConfig::scaled_from(llmib_models::ModelId::Llama2_7b, 128, 7);
    let model = TransformerModel::new(cfg.clone(), false).unwrap();
    let prompt: Vec<usize> = (0..128).map(|i| (i * 7 + 3) % cfg.vocab).collect();
    let speedup = paired_speedup(
        3,
        || {
            let mut cache = model.new_cache();
            std::hint::black_box(model.prefill_unbatched(&prompt, &mut cache));
        },
        || {
            let mut cache = model.new_cache();
            std::hint::black_box(model.prefill(&prompt, &mut cache));
        },
    );
    assert!(
        speedup > 1.6,
        "batched prefill speedup {speedup:.2}x at hidden=128 (want > 1.6x)"
    );
}

#[test]
fn prefill_throughput_exceeds_decode_throughput() {
    // The paper's Fig. 1a asymmetry: prefill processes tokens through
    // compute-efficient GEMMs; decode is one token per full weight pass.
    let cfg = EngineConfig::scaled_from(llmib_models::ModelId::Llama2_7b, 128, 7);
    let model = TransformerModel::new(cfg.clone(), false).unwrap();
    let prompt: Vec<usize> = (0..128).map(|i| (i * 3 + 1) % cfg.vocab).collect();

    let decode_tokens = 32usize;
    // Per-token seconds: decode's over prefill's is how many times
    // prefill's token rate exceeds decode's.
    let prefill_advantage = paired_speedup(
        3,
        || {
            let mut cache = model.new_cache();
            let mut ws = model.new_workspace();
            let mut logits = model.prefill(&[1, 2, 3], &mut cache);
            for pos in 3..3 + decode_tokens {
                let next = logits
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap();
                let l = model.forward_ws(next, pos, &mut cache, &mut ws);
                logits.clear();
                logits.extend_from_slice(l);
            }
        },
        || {
            let mut cache = model.new_cache();
            std::hint::black_box(model.prefill(&prompt, &mut cache));
        },
    ) * prompt.len() as f64
        / decode_tokens as f64;

    assert!(
        prefill_advantage > 1.0,
        "prefill token rate should exceed decode's (prefill/decode = {prefill_advantage:.2}x)"
    );
}

#[test]
fn batched_decode_aggregate_grows_with_batch_size() {
    // Fig. 1b: stacking sequences amortizes the per-step weight pass, so
    // aggregate tokens/s at batch 16 must clearly beat batch 1
    // (measured ~2.4x on the reference box; assert > 1.3x).
    let cfg = EngineConfig::scaled_from(llmib_models::ModelId::Llama2_7b, 128, 7);
    let model = TransformerModel::new(cfg, false).unwrap();
    let new_tokens = 16usize;

    let run_batch = |batch: usize| {
        let mut session = BatchSession::new(&model);
        for i in 0..batch {
            let p = [1 + i % 7, 2 + i % 5, 3];
            session
                .admit(i as u64, &p, new_tokens, Sampler::Greedy)
                .expect("admit");
        }
        std::hint::black_box(session.run_to_completion());
    };

    // Batch 16 emits 16x the tokens of batch 1 in one run, so its
    // aggregate rate gain is 16 x t(batch 1) / t(batch 16).
    let scaling = 16.0 * paired_speedup(3, || run_batch(1), || run_batch(16));
    assert!(
        scaling > 1.3,
        "batch-16 aggregate tok/s should beat batch-1 by > 1.3x (got {scaling:.2}x)"
    );
}
