//! Golden-equivalence suite for the batched execution paths.
//!
//! The batched GEMM prefill, the batched decode step, and the
//! allocation-free workspace loop are *optimizations*, not
//! approximations: for every architecture variant the engine supports
//! they must produce the same greedy tokens as the token-at-a-time
//! reference path, with logits matching far tighter than the 1e-4
//! budget (the engine funnels every path through one dot-product
//! kernel, so they match bitwise).

use llmib_engine::{
    generate, generate_speculative, BatchSession, EngineConfig, GenerateOptions, KvCache,
    QuantMode, Sampler, TransformerModel,
};
use proptest::prelude::*;

/// Every architecture variant the engine models: MHA, grouped-query
/// attention, mixture-of-experts routing, sliding-window attention.
fn all_variants() -> Vec<(&'static str, EngineConfig)> {
    vec![
        ("tiny", EngineConfig::tiny()),
        ("tiny_gqa", EngineConfig::tiny_gqa()),
        ("tiny_moe", EngineConfig::tiny_moe()),
        ("tiny_swa", EngineConfig::tiny_swa(3)),
    ]
}

fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

#[test]
fn batched_prefill_logits_match_token_at_a_time() {
    for (name, cfg) in all_variants() {
        let model = TransformerModel::new(cfg.clone(), false).unwrap();
        let prompt: Vec<usize> = (0..24).map(|i| (i * 5 + 1) % cfg.vocab).collect();

        let mut batched_cache = model.new_cache();
        let batched = model.prefill(&prompt, &mut batched_cache);

        let mut loop_cache = model.new_cache();
        let unbatched = model.prefill_unbatched(&prompt, &mut loop_cache);

        let diff = max_abs_diff(&batched, &unbatched);
        assert!(diff <= 1e-4, "{name}: prefill logits diverge by {diff}");
        // Stronger: the shared dot kernel makes them bitwise identical.
        assert_eq!(
            batched, unbatched,
            "{name}: prefill logits not bitwise equal"
        );
        // The KV caches the two paths populate must agree too.
        assert_eq!(batched_cache.len(), loop_cache.len(), "{name}");
    }
}

#[test]
fn batched_prefill_then_greedy_decode_matches_reference() {
    for (name, cfg) in all_variants() {
        let model = TransformerModel::new(cfg, false).unwrap();
        let prompt = [1usize, 9, 4, 2, 7];

        // Reference: token-at-a-time prefill, then allocating forward.
        let mut ref_cache = model.new_cache();
        let mut logits = model.prefill_unbatched(&prompt, &mut ref_cache);
        let mut ref_tokens = Vec::new();
        let mut ref_logits = Vec::new();
        for pos in prompt.len()..prompt.len() + 16 {
            let next = argmax(&logits);
            ref_tokens.push(next);
            ref_logits.push(logits.clone());
            logits = model.forward(next, pos, &mut ref_cache);
        }

        // Optimized: batched GEMM prefill + allocation-free workspace loop.
        let mut cache = model.new_cache();
        let mut ws = model.new_workspace();
        let mut logits = model.prefill(&prompt, &mut cache);
        let mut out_tokens = Vec::new();
        for (step, reference) in ref_logits.iter().enumerate() {
            let diff = max_abs_diff(&logits, reference);
            assert!(diff <= 1e-4, "{name}: step {step} logits diverge by {diff}");
            let next = argmax(&logits);
            out_tokens.push(next);
            let l = model.forward_ws(next, prompt.len() + step, &mut cache, &mut ws);
            logits.clear();
            logits.extend_from_slice(l);
        }

        assert_eq!(out_tokens, ref_tokens, "{name}: greedy tokens diverge");
    }
}

#[test]
fn batched_decode_session_matches_solo_generation() {
    for (name, cfg) in all_variants() {
        let model = TransformerModel::new(cfg, false).unwrap();
        let prompts: [&[usize]; 4] = [&[1, 2, 3], &[8, 1], &[5, 5, 5, 5], &[3]];

        let mut session = BatchSession::new(&model);
        for (i, p) in prompts.iter().enumerate() {
            session.admit(i as u64, p, 10, Sampler::Greedy).unwrap();
        }
        let batched = session.run_to_completion();

        for (i, p) in prompts.iter().enumerate() {
            let solo = generate(
                &model,
                p,
                GenerateOptions {
                    max_new_tokens: 10,
                    use_kv_cache: true,
                    sampler: Sampler::Greedy,
                },
            );
            assert_eq!(
                batched[i].1, solo.tokens,
                "{name}: batched sequence {i} diverges from solo run"
            );
        }
    }
}

#[test]
fn chunked_prefill_is_bitwise_identical_to_monolithic() {
    // The serving layer's chunked prefill splits one admission's
    // prompt into token-budgeted slices fed through successive
    // `prefill` calls on one cache. Causal attention makes the split
    // algebraically irrelevant, and the shared dot kernel makes it
    // bitwise irrelevant: final-chunk logits, the populated cache, and
    // every subsequently decoded token must equal the monolithic run
    // exactly — for every architecture variant and any chunk budget,
    // aligned or not.
    for (name, cfg) in all_variants() {
        let model = TransformerModel::new(cfg.clone(), false).unwrap();
        let prompt: Vec<usize> = (0..23).map(|i| (i * 5 + 2) % cfg.vocab).collect();

        let mut mono_cache = model.new_cache();
        let mono_logits = model.prefill(&prompt, &mut mono_cache);
        let mut mono_tokens = Vec::new();
        let mut logits = mono_logits.clone();
        for pos in prompt.len()..prompt.len() + 12 {
            let next = argmax(&logits);
            mono_tokens.push(next);
            logits = model.forward(next, pos, &mut mono_cache);
        }

        for budget in [1usize, 3, 8, 16, 23, 64] {
            let mut cache = model.new_cache();
            let mut last = Vec::new();
            for chunk in prompt.chunks(budget) {
                last = model.prefill(chunk, &mut cache);
            }
            assert_eq!(
                last, mono_logits,
                "{name}: budget {budget} final-chunk logits not bitwise equal"
            );
            assert_eq!(
                cache.len(),
                mono_cache.len() - 12,
                "{name}: budget {budget}"
            );

            let mut tokens = Vec::new();
            let mut logits = last;
            for pos in prompt.len()..prompt.len() + 12 {
                let next = argmax(&logits);
                tokens.push(next);
                logits = model.forward(next, pos, &mut cache);
            }
            assert_eq!(
                tokens, mono_tokens,
                "{name}: budget {budget} decode diverges after chunked prefill"
            );
        }
    }
}

/// Greedy-decode `steps` tokens from `logits` at position `pos` through
/// the allocation-free workspace loop, returning every step's logits.
fn greedy_tail(
    model: &TransformerModel,
    cache: &mut KvCache,
    mut logits: Vec<f32>,
    pos: usize,
    steps: usize,
) -> Vec<Vec<f32>> {
    let mut ws = model.new_workspace();
    let mut trail = Vec::new();
    for p in pos..pos + steps {
        let next = argmax(&logits);
        trail.push(logits);
        logits = model.forward_ws(next, p, cache, &mut ws).to_vec();
    }
    trail.push(logits);
    trail
}

#[test]
fn tiled_attention_branches_are_bitwise_identical() {
    // Prefill attends in tiles of query rows. A KV block inside every
    // row's window is scored once per tile; a sliding window's leading
    // chunk and the diagonal chunk run per row. Prompts of 1, 15, 16,
    // 17, 37 and 300 tokens land tiles before, on and after block
    // boundaries and make long prompts fold many shared blocks; the
    // 50-token continuation then starts mid-block after a cached prefix.
    // A 37-token window starts mid-block inside tiles that still share
    // whole blocks, which the 3-token window never does.
    let mut variants = all_variants();
    variants.push(("tiny_swa_37", EngineConfig::tiny_swa(37)));
    for (name, cfg) in variants {
        let cfg = EngineConfig {
            max_seq: 400,
            ..cfg
        };
        for mode in [QuantMode::F32, QuantMode::Int8, QuantMode::Int4] {
            let model = TransformerModel::with_quant(cfg.clone(), mode).unwrap();
            for len in [1usize, 15, 16, 17, 37, 300] {
                let prompt: Vec<usize> = (0..len).map(|i| (i * 7 + 3) % cfg.vocab).collect();
                let cont: Vec<usize> = (0..50).map(|i| (i * 11 + 5) % cfg.vocab).collect();
                let at = format!("{name} {mode:?} len {len}");
                let end = len + cont.len();

                let mut ref_cache = model.new_cache();
                let ref_prompt = model.prefill_unbatched(&prompt, &mut ref_cache);
                let ref_cont = model.prefill_unbatched(&cont, &mut ref_cache);
                let ref_tail = greedy_tail(&model, &mut ref_cache, ref_cont.clone(), end, 6);

                let mut cache = model.new_cache();
                assert_eq!(
                    model.prefill(&prompt, &mut cache),
                    ref_prompt,
                    "{at}: prompt"
                );
                let mono_cont = model.prefill(&cont, &mut cache);
                assert_eq!(mono_cont, ref_cont, "{at}: continuation");
                let tail = greedy_tail(&model, &mut cache, mono_cont, end, 6);
                assert_eq!(tail, ref_tail, "{at}: decode after prefill");

                for budget in [1usize, 7, 8, 9, 64] {
                    let mut cache = model.new_cache();
                    let mut last = Vec::new();
                    for chunk in prompt.chunks(budget) {
                        last = model.prefill(chunk, &mut cache);
                    }
                    assert_eq!(last, ref_prompt, "{at}: budget {budget} prompt");
                    for chunk in cont.chunks(budget) {
                        last = model.prefill(chunk, &mut cache);
                    }
                    assert_eq!(last, ref_cont, "{at}: budget {budget} continuation");
                    let tail = greedy_tail(&model, &mut cache, last, end, 6);
                    assert_eq!(tail, ref_tail, "{at}: budget {budget} decode");
                }
            }
        }
    }
}

#[test]
fn speculative_decoding_with_rollback_matches_plain_greedy() {
    // The speculative path exercises KvCache::truncate + replay (draft
    // rollback) on top of the workspace-based forward. A draft with a
    // different seed disagrees with the target regularly, forcing real
    // rejections and rollbacks.
    for (name, cfg) in all_variants() {
        let target = TransformerModel::new(cfg.clone(), false).unwrap();
        let draft_cfg = EngineConfig {
            layers: 1,
            seed: cfg.seed.wrapping_add(13),
            ..cfg
        };
        let draft = TransformerModel::new(draft_cfg, false).unwrap();
        let prompt = [2usize, 6, 1];

        let plain = generate(
            &target,
            &prompt,
            GenerateOptions {
                max_new_tokens: 18,
                use_kv_cache: true,
                sampler: Sampler::Greedy,
            },
        );
        for lookahead in [1, 3, 4] {
            let sd = generate_speculative(&target, &draft, &prompt, 18, lookahead);
            assert_eq!(
                sd.tokens, plain.tokens,
                "{name}: speculative (lookahead {lookahead}) diverges"
            );
        }
    }
}

fn argmax(logits: &[f32]) -> usize {
    logits
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .expect("non-empty logits")
}

fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f32 = a.iter().map(|v| v * v).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|v| v * v).sum::<f32>().sqrt();
    dot / (na * nb)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The kernel-configuration contract, per precision, on a random
    /// model/prompt: the same forward pass must be (a) bitwise
    /// deterministic when rebuilt from scratch, (b) bitwise identical
    /// between batched prefill and the token-at-a-time reference, and
    /// (c) for quantized paths, directionally consistent with the f32
    /// model within the documented error budget. Run under both the
    /// scalar and `--features simd` builds, this pins the full
    /// {scalar, SIMD} × {f32, int8-block, int4-block} matrix: the f32
    /// SIMD kernel is checked bitwise against scalar in the engine's
    /// unit suite, so f32 logits here are identical across builds, and
    /// quantized integer dots are exact, so their logits are identical
    /// across builds too.
    #[test]
    fn kernel_configurations_honor_their_equivalence_contract(
        seed in 0u64..500,
        variant in 0usize..4,
        prompt_len in 2usize..12,
    ) {
        let mut cfg = all_variants()[variant].1.clone();
        cfg.seed = seed;
        let prompt: Vec<usize> =
            (0..prompt_len).map(|i| (i * 7 + seed as usize) % cfg.vocab).collect();

        let mut f32_logits = Vec::new();
        for mode in [QuantMode::F32, QuantMode::Int8, QuantMode::Int4] {
            let model = TransformerModel::with_quant(cfg.clone(), mode).unwrap();
            let rebuilt = TransformerModel::with_quant(cfg.clone(), mode).unwrap();

            let mut c1 = model.new_cache();
            let batched = model.prefill(&prompt, &mut c1);
            let mut c2 = model.new_cache();
            let unbatched = model.prefill_unbatched(&prompt, &mut c2);
            prop_assert_eq!(
                &batched, &unbatched,
                "{:?}: batched vs token-at-a-time not bitwise equal", mode
            );

            let mut c3 = rebuilt.new_cache();
            let again = rebuilt.prefill(&prompt, &mut c3);
            prop_assert_eq!(
                &batched, &again,
                "{:?}: rebuild from seed not deterministic", mode
            );

            match mode {
                QuantMode::F32 => f32_logits = batched,
                QuantMode::Int8 => {
                    let cos = cosine(&batched, &f32_logits);
                    prop_assert!(cos > 0.95, "int8 cosine vs f32: {}", cos);
                }
                QuantMode::Int4 => {
                    let cos = cosine(&batched, &f32_logits);
                    prop_assert!(cos > 0.5, "int4 cosine vs f32: {}", cos);
                }
            }
        }
    }

    /// Chunked prefill equivalence for *any* budget on a random
    /// model/prompt: slicing the prompt into budget-sized prefill
    /// calls on one cache yields the monolithic run's final logits
    /// bitwise, including the ragged-last-chunk and budget-larger-
    /// than-prompt corners the serving scheduler hits in practice.
    #[test]
    fn chunked_prefill_matches_monolithic_for_any_budget(
        seed in 0u64..500,
        variant in 0usize..4,
        prompt_len in 2usize..24,
        budget in 1usize..32,
    ) {
        let mut cfg = all_variants()[variant].1.clone();
        cfg.seed = seed;
        let prompt: Vec<usize> =
            (0..prompt_len).map(|i| (i * 11 + seed as usize) % cfg.vocab).collect();
        let model = TransformerModel::new(cfg, false).unwrap();

        let mut mono_cache = model.new_cache();
        let mono_logits = model.prefill(&prompt, &mut mono_cache);

        let mut cache = model.new_cache();
        let mut last = Vec::new();
        for chunk in prompt.chunks(budget) {
            last = model.prefill(chunk, &mut cache);
        }
        prop_assert_eq!(cache.len(), mono_cache.len());
        prop_assert_eq!(
            last, mono_logits,
            "budget {}: chunked final logits not bitwise equal", budget
        );
    }
}
