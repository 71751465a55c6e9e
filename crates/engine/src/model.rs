//! The decoder-only transformer model.
//!
//! Two execution regimes share identical numerics:
//!
//! * **Prefill** runs whole prompts through batched GEMMs
//!   ([`TransformerModel::prefill`]) — compute-bound, weights stream once
//!   per prompt. [`TransformerModel::prefill_unbatched`] keeps the
//!   token-at-a-time loop as a reference and baseline.
//! * **Decode** runs one token per step — memory-bound GEMV. The
//!   workspace variants ([`TransformerModel::forward_ws`]) reuse one
//!   [`Workspace`] of scratch buffers so the steady-state loop performs
//!   zero heap allocations, and [`TransformerModel::forward_batch`]
//!   stacks concurrent sequences so weights stream once per step instead
//!   of once per sequence.

use crate::attention::{Attention, KvCache, TileScratch};
use crate::blockpool::BlockPool;
use crate::config::EngineConfig;
use crate::moe::MoeFfn;
use crate::quant::{QuantMode, QuantScratch, QuantizedLinear};
use crate::tensor::{matmul_mat, matmul_vec, matmul_vec_into, rmsnorm_into, Matrix};

/// A linear layer in full precision or block-quantized (INT8/INT4)
/// storage.
#[derive(Debug, Clone)]
pub enum Linear {
    /// f32 weights.
    F32(Matrix),
    /// Block-quantized integer weights with per-group scales.
    Quant(QuantizedLinear),
}

impl Linear {
    /// Seeded random layer in the given precision.
    pub fn random(rows: usize, cols: usize, seed: u64, scale: f32, mode: QuantMode) -> Self {
        let w = Matrix::random(rows, cols, seed, scale);
        match mode {
            QuantMode::F32 => Linear::F32(w),
            QuantMode::Int8 => Linear::Quant(QuantizedLinear::quantize(&w)),
            QuantMode::Int4 => Linear::Quant(QuantizedLinear::quantize_int4(&w)),
        }
    }

    /// `y = W · x`.
    pub fn matmul_vec(&self, x: &[f32]) -> Vec<f32> {
        match self {
            Linear::F32(w) => matmul_vec(w, x),
            Linear::Quant(q) => q.matmul_vec(x),
        }
    }

    /// [`Linear::matmul_vec`] into a caller-provided buffer. `xq` is
    /// scratch for the quantized path's per-group activation codes and
    /// scales (unused for f32); reusing it across calls keeps the
    /// decode loop allocation free.
    pub fn matmul_vec_into(&self, x: &[f32], y: &mut [f32], xq: &mut QuantScratch) {
        match self {
            Linear::F32(w) => matmul_vec_into(w, x, y),
            Linear::Quant(q) => q.matmul_vec_into(x, y, xq),
        }
    }

    /// Batched `Y = X · Wᵀ` over the rows of `xs` — one weight stream
    /// for the whole batch. Row `b` of the result is bitwise equal to
    /// `self.matmul_vec(xs.row(b))`.
    pub fn matmul_mat(&self, xs: &Matrix) -> Matrix {
        match self {
            Linear::F32(w) => matmul_mat(w, xs),
            Linear::Quant(q) => q.matmul_mat(xs),
        }
    }
}

/// Preallocated scratch buffers for one forward pass.
///
/// Sized once from the model config ([`TransformerModel::new_workspace`])
/// and reused across decode steps: in steady state the token-at-a-time
/// forward pass touches no allocator at all. All buffers keep a fixed
/// length except the attention tile scratch (sized for one query row
/// against 16-position KV blocks), `route_idx`/`routes` (within
/// `num_experts`), and `xq` (within the widest quantized input).
#[derive(Debug, Clone)]
pub struct Workspace {
    /// Residual-stream activation (`hidden`).
    pub(crate) x: Vec<f32>,
    /// RMS-normalized input to attention or FFN (`hidden`).
    pub(crate) normed: Vec<f32>,
    /// Query projection (`hidden`).
    pub(crate) q: Vec<f32>,
    /// Key projection (`kv_dim`).
    pub(crate) k: Vec<f32>,
    /// Value projection (`kv_dim`).
    pub(crate) v: Vec<f32>,
    /// Concatenated attention head outputs (`hidden`).
    pub(crate) attn: Vec<f32>,
    /// Attention output projection (`hidden`).
    pub(crate) proj: Vec<f32>,
    /// Attention core scratch for one-row tiles.
    pub(crate) attn_tile: TileScratch,
    /// FFN gate projection (`intermediate`).
    pub(crate) gate: Vec<f32>,
    /// FFN up projection (`intermediate`).
    pub(crate) up: Vec<f32>,
    /// One expert's output (`hidden`).
    pub(crate) expert: Vec<f32>,
    /// Accumulated FFN output (`hidden`).
    pub(crate) ffn: Vec<f32>,
    /// Router logits (`num_experts`).
    pub(crate) router: Vec<f32>,
    /// Expert index ordering scratch (capacity `num_experts`).
    pub(crate) route_idx: Vec<usize>,
    /// Selected `(expert, weight)` routes (capacity `num_experts`).
    pub(crate) routes: Vec<(usize, f32)>,
    /// Vocabulary logits (`vocab`).
    pub(crate) logits: Vec<f32>,
    /// Per-group quantized-activation scratch for INT8/INT4 layers.
    pub(crate) xq: QuantScratch,
}

/// One decoder layer: pre-norm attention + pre-norm FFN, residual both.
#[derive(Debug, Clone)]
pub struct DecoderBlock {
    attn: Attention,
    ffn: MoeFfn,
    attn_norm: Vec<f32>,
    ffn_norm: Vec<f32>,
}

impl DecoderBlock {
    fn new(cfg: &EngineConfig, seed: u64, mode: QuantMode) -> Self {
        Self {
            attn: Attention::new(cfg, seed, mode),
            ffn: MoeFfn::new(cfg, seed.wrapping_add(50), mode),
            attn_norm: vec![1.0; cfg.hidden],
            ffn_norm: vec![1.0; cfg.hidden],
        }
    }

    /// One token through the block against workspace buffers: reads and
    /// updates the residual stream in `ws.x`, allocation free.
    fn forward_ws(&self, ws: &mut Workspace, pos: usize, layer: usize, cache: &mut KvCache) {
        rmsnorm_into(&ws.x, &self.attn_norm, 1e-6, &mut ws.normed);
        self.attn.forward_ws(ws, pos, layer, cache);
        for (a, b) in ws.x.iter_mut().zip(&ws.proj) {
            *a += b;
        }
        rmsnorm_into(&ws.x, &self.ffn_norm, 1e-6, &mut ws.normed);
        self.ffn.forward_ws(ws);
        for (a, b) in ws.x.iter_mut().zip(&ws.ffn) {
            *a += b;
        }
    }

    /// A whole prompt block through the layer: `xs` holds one token's
    /// residual-stream activation per row and is updated in place.
    fn prefill(&self, xs: &mut Matrix, layer: usize, cache: &mut KvCache) {
        let mut normed = Matrix::zeros(xs.rows(), xs.cols());
        for t in 0..xs.rows() {
            rmsnorm_into(xs.row(t), &self.attn_norm, 1e-6, normed.row_mut(t));
        }
        let attn_out = self.attn.prefill(&normed, layer, cache);
        for t in 0..xs.rows() {
            for (a, b) in xs.row_mut(t).iter_mut().zip(attn_out.row(t)) {
                *a += b;
            }
        }
        for t in 0..xs.rows() {
            rmsnorm_into(xs.row(t), &self.ffn_norm, 1e-6, normed.row_mut(t));
        }
        let ffn_out = self.ffn.forward_batch(&normed);
        for t in 0..xs.rows() {
            for (a, b) in xs.row_mut(t).iter_mut().zip(ffn_out.row(t)) {
                *a += b;
            }
        }
    }

    /// One decode step for a batch of independent sequences: row `b` of
    /// `xs` belongs to `caches[b]` at `positions[b]`.
    fn forward_batch(
        &self,
        xs: &mut Matrix,
        positions: &[usize],
        layer: usize,
        caches: &mut [&mut KvCache],
    ) {
        let mut normed = Matrix::zeros(xs.rows(), xs.cols());
        for t in 0..xs.rows() {
            rmsnorm_into(xs.row(t), &self.attn_norm, 1e-6, normed.row_mut(t));
        }
        let attn_out = self.attn.forward_batch(&normed, positions, layer, caches);
        for t in 0..xs.rows() {
            for (a, b) in xs.row_mut(t).iter_mut().zip(attn_out.row(t)) {
                *a += b;
            }
        }
        for t in 0..xs.rows() {
            rmsnorm_into(xs.row(t), &self.ffn_norm, 1e-6, normed.row_mut(t));
        }
        let ffn_out = self.ffn.forward_batch(&normed);
        for t in 0..xs.rows() {
            for (a, b) in xs.row_mut(t).iter_mut().zip(ffn_out.row(t)) {
                *a += b;
            }
        }
    }

    /// The FFN block (exposed for routing statistics in tests/examples).
    pub fn ffn(&self) -> &MoeFfn {
        &self.ffn
    }
}

/// A runnable decoder-only transformer with seeded random weights.
#[derive(Debug, Clone)]
pub struct TransformerModel {
    config: EngineConfig,
    embedding: Matrix,
    blocks: Vec<DecoderBlock>,
    final_norm: Vec<f32>,
    lm_head: Linear,
}

impl TransformerModel {
    /// Build a model from a config; `quantized` uses blockwise INT8
    /// weights for all projection matrices (embeddings and norms stay
    /// f32). Shorthand for [`TransformerModel::with_quant`] with
    /// [`QuantMode::Int8`] or [`QuantMode::F32`].
    pub fn new(config: EngineConfig, quantized: bool) -> llmib_types::Result<Self> {
        let mode = if quantized {
            QuantMode::Int8
        } else {
            QuantMode::F32
        };
        Self::with_quant(config, mode)
    }

    /// Build a model with an explicit weight precision for every
    /// projection matrix (embeddings and norms stay f32).
    pub fn with_quant(config: EngineConfig, mode: QuantMode) -> llmib_types::Result<Self> {
        config.validate()?;
        let embed_scale = (1.0 / config.hidden as f32).sqrt();
        let embedding = Matrix::random(config.vocab, config.hidden, config.seed, embed_scale);
        let blocks = (0..config.layers)
            .map(|l| {
                DecoderBlock::new(
                    &config,
                    config.seed.wrapping_add(1000 * (l as u64 + 1)),
                    mode,
                )
            })
            .collect();
        let lm_head = Linear::random(
            config.vocab,
            config.hidden,
            config.seed.wrapping_add(999_999),
            embed_scale,
            mode,
        );
        Ok(Self {
            final_norm: vec![1.0; config.hidden],
            config,
            embedding,
            blocks,
            lm_head,
        })
    }

    /// The model's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// A fresh, empty KV cache sized for this model (block-paged
    /// storage; blocks are appended on demand and shared copy-on-write
    /// when caches are cloned).
    pub fn new_cache(&self) -> KvCache {
        KvCache::new(
            self.config.layers,
            self.config.kv_dim(),
            self.config.max_seq,
        )
    }

    /// A block pool producing KV blocks shaped for this model, for
    /// sessions that share and recycle block storage across sequences.
    pub fn new_block_pool(&self, block_tokens: usize) -> BlockPool {
        BlockPool::new(self.config.layers, self.config.kv_dim(), block_tokens)
    }

    /// A scratch workspace sized for this model. One workspace plus one
    /// cache make the decode loop allocation free.
    pub fn new_workspace(&self) -> Workspace {
        let c = &self.config;
        Workspace {
            x: vec![0.0; c.hidden],
            normed: vec![0.0; c.hidden],
            q: vec![0.0; c.hidden],
            k: vec![0.0; c.kv_dim()],
            v: vec![0.0; c.kv_dim()],
            attn: vec![0.0; c.hidden],
            proj: vec![0.0; c.hidden],
            attn_tile: TileScratch::new(1, c.heads, c.kv_heads),
            gate: vec![0.0; c.intermediate],
            up: vec![0.0; c.intermediate],
            expert: vec![0.0; c.hidden],
            ffn: vec![0.0; c.hidden],
            router: vec![0.0; c.num_experts],
            route_idx: Vec::with_capacity(c.num_experts),
            routes: Vec::with_capacity(c.num_experts),
            logits: vec![0.0; c.vocab],
            xq: QuantScratch::new(),
        }
    }

    /// Forward one token at position `pos`, returning vocabulary logits.
    pub fn forward(&self, token: usize, pos: usize, cache: &mut KvCache) -> Vec<f32> {
        let mut ws = self.new_workspace();
        self.forward_ws(token, pos, cache, &mut ws).to_vec()
    }

    /// [`TransformerModel::forward`] against a caller-held [`Workspace`]:
    /// the returned logits borrow `ws` and no heap allocation happens.
    pub fn forward_ws<'w>(
        &self,
        token: usize,
        pos: usize,
        cache: &mut KvCache,
        ws: &'w mut Workspace,
    ) -> &'w [f32] {
        assert!(token < self.config.vocab, "token id out of range");
        assert!(pos < self.config.max_seq, "position beyond max_seq");
        ws.x.clear();
        ws.x.extend_from_slice(self.embedding.row(token));
        for (l, block) in self.blocks.iter().enumerate() {
            block.forward_ws(ws, pos, l, cache);
        }
        rmsnorm_into(&ws.x, &self.final_norm, 1e-6, &mut ws.normed);
        self.lm_head
            .matmul_vec_into(&ws.normed, &mut ws.logits, &mut ws.xq);
        &ws.logits
    }

    /// Process a whole prompt with batched GEMMs, returning the logits
    /// after its last token. Every projection streams its weights once
    /// for the whole prompt, and `lm_head` runs only on the final
    /// position. Logits are bitwise equal to
    /// [`TransformerModel::prefill_unbatched`].
    pub fn prefill(&self, prompt: &[usize], cache: &mut KvCache) -> Vec<f32> {
        assert!(!prompt.is_empty());
        let start = cache.len();
        assert!(
            start + prompt.len() <= self.config.max_seq,
            "prompt beyond max_seq"
        );
        let mut xs = Matrix::zeros(prompt.len(), self.config.hidden);
        for (i, &tok) in prompt.iter().enumerate() {
            assert!(tok < self.config.vocab, "token id out of range");
            xs.row_mut(i).copy_from_slice(self.embedding.row(tok));
        }
        for (l, block) in self.blocks.iter().enumerate() {
            block.prefill(&mut xs, l, cache);
        }
        let mut normed = vec![0.0; self.config.hidden];
        rmsnorm_into(
            xs.row(prompt.len() - 1),
            &self.final_norm,
            1e-6,
            &mut normed,
        );
        self.lm_head.matmul_vec(&normed)
    }

    /// Token-at-a-time prefill (a GEMV per token per weight matrix).
    /// Kept as the reference implementation and the baseline the batched
    /// path is measured against.
    pub fn prefill_unbatched(&self, prompt: &[usize], cache: &mut KvCache) -> Vec<f32> {
        assert!(!prompt.is_empty());
        let start = cache.len();
        let mut logits = Vec::new();
        for (i, &tok) in prompt.iter().enumerate() {
            logits = self.forward(tok, start + i, cache);
        }
        logits
    }

    /// One decode step for a batch of independent sequences: token `b`
    /// extends `caches[b]` at `positions[b]`. Returns one row of logits
    /// per sequence, each bitwise equal to the corresponding
    /// [`TransformerModel::forward`] call, with every weight matrix
    /// streamed once per step instead of once per sequence.
    pub fn forward_batch(
        &self,
        tokens: &[usize],
        positions: &[usize],
        caches: &mut [&mut KvCache],
    ) -> Matrix {
        assert!(!tokens.is_empty());
        assert_eq!(tokens.len(), positions.len());
        assert_eq!(tokens.len(), caches.len());
        let mut xs = Matrix::zeros(tokens.len(), self.config.hidden);
        for (i, &tok) in tokens.iter().enumerate() {
            assert!(tok < self.config.vocab, "token id out of range");
            assert!(
                positions[i] < self.config.max_seq,
                "position beyond max_seq"
            );
            xs.row_mut(i).copy_from_slice(self.embedding.row(tok));
        }
        for (l, block) in self.blocks.iter().enumerate() {
            block.forward_batch(&mut xs, positions, l, caches);
        }
        let mut normed = Matrix::zeros(tokens.len(), self.config.hidden);
        for i in 0..tokens.len() {
            rmsnorm_into(xs.row(i), &self.final_norm, 1e-6, normed.row_mut(i));
        }
        self.lm_head.matmul_mat(&normed)
    }

    /// Decoder blocks (read-only).
    pub fn blocks(&self) -> &[DecoderBlock] {
        &self.blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_is_deterministic() {
        let m = TransformerModel::new(EngineConfig::tiny(), false).unwrap();
        let mut c1 = m.new_cache();
        let mut c2 = m.new_cache();
        let l1 = m.forward(5, 0, &mut c1);
        let l2 = m.forward(5, 0, &mut c2);
        assert_eq!(l1, l2);
        assert_eq!(l1.len(), m.config().vocab);
    }

    #[test]
    fn logits_depend_on_history() {
        let m = TransformerModel::new(EngineConfig::tiny(), false).unwrap();
        let mut c1 = m.new_cache();
        m.prefill(&[1, 2, 3], &mut c1);
        let a = m.forward(7, 3, &mut c1);
        let mut c2 = m.new_cache();
        m.prefill(&[4, 5, 6], &mut c2);
        let b = m.forward(7, 3, &mut c2);
        assert_ne!(a, b, "history must influence next-token logits");
    }

    #[test]
    fn quantized_model_close_to_f32() {
        let cfg = EngineConfig::tiny();
        let f = TransformerModel::new(cfg.clone(), false).unwrap();
        let q = TransformerModel::new(cfg, true).unwrap();
        let mut cf = f.new_cache();
        let mut cq = q.new_cache();
        let lf = f.prefill(&[3, 9, 27], &mut cf);
        let lq = q.prefill(&[3, 9, 27], &mut cq);
        // Logits track each other: top-1 usually agrees at these scales;
        // require high cosine similarity rather than exact argmax.
        let dot: f32 = lf.iter().zip(&lq).map(|(a, b)| a * b).sum();
        let nf: f32 = lf.iter().map(|v| v * v).sum::<f32>().sqrt();
        let nq: f32 = lq.iter().map(|v| v * v).sum::<f32>().sqrt();
        let cos = dot / (nf * nq);
        assert!(cos > 0.98, "cosine similarity {cos}");
    }

    #[test]
    fn int4_model_tracks_f32_and_is_deterministic() {
        let cfg = EngineConfig::tiny();
        let f = TransformerModel::new(cfg.clone(), false).unwrap();
        let q = TransformerModel::with_quant(cfg.clone(), QuantMode::Int4).unwrap();
        let q2 = TransformerModel::with_quant(cfg, QuantMode::Int4).unwrap();
        let mut cf = f.new_cache();
        let mut cq = q.new_cache();
        let mut cq2 = q2.new_cache();
        let lf = f.prefill(&[3, 9, 27], &mut cf);
        let lq = q.prefill(&[3, 9, 27], &mut cq);
        // Same seed, same precision → bitwise-identical logits.
        assert_eq!(lq, q2.prefill(&[3, 9, 27], &mut cq2));
        // 4-bit weights are coarse; require directional agreement with
        // f32, not the INT8-grade 0.98 cosine.
        let dot: f32 = lf.iter().zip(&lq).map(|(a, b)| a * b).sum();
        let nf: f32 = lf.iter().map(|v| v * v).sum::<f32>().sqrt();
        let nq: f32 = lq.iter().map(|v| v * v).sum::<f32>().sqrt();
        let cos = dot / (nf * nq);
        assert!(cos > 0.75, "cosine similarity {cos}");
    }

    #[test]
    fn all_tiny_variants_run() {
        for cfg in [
            EngineConfig::tiny(),
            EngineConfig::tiny_gqa(),
            EngineConfig::tiny_moe(),
        ] {
            let m = TransformerModel::new(cfg, false).unwrap();
            let mut c = m.new_cache();
            let logits = m.prefill(&[1, 2, 3, 4], &mut c);
            assert!(logits.iter().all(|v| v.is_finite()));
            assert_eq!(c.len(), 4);
        }
    }

    #[test]
    fn rejects_invalid_tokens() {
        let m = TransformerModel::new(EngineConfig::tiny(), false).unwrap();
        let mut c = m.new_cache();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.forward(usize::MAX, 0, &mut c)
        }));
        assert!(r.is_err());
    }

    #[test]
    fn batched_prefill_matches_unbatched_bitwise() {
        for cfg in [
            EngineConfig::tiny(),
            EngineConfig::tiny_gqa(),
            EngineConfig::tiny_moe(),
            EngineConfig::tiny_swa(3),
        ] {
            let m = TransformerModel::new(cfg, false).unwrap();
            let prompt = [1usize, 5, 9, 2, 7, 3];
            let mut cb = m.new_cache();
            let mut cu = m.new_cache();
            let lb = m.prefill(&prompt, &mut cb);
            let lu = m.prefill_unbatched(&prompt, &mut cu);
            assert_eq!(lb, lu);
            assert_eq!(cb.len(), cu.len());
        }
    }

    #[test]
    fn forward_ws_matches_forward_and_reuses_buffers() {
        let m = TransformerModel::new(EngineConfig::tiny_moe(), false).unwrap();
        let mut c1 = m.new_cache();
        let mut c2 = m.new_cache();
        let mut ws = m.new_workspace();
        for (pos, tok) in [2usize, 8, 5, 11].into_iter().enumerate() {
            let plain = m.forward(tok, pos, &mut c1);
            let reused = m.forward_ws(tok, pos, &mut c2, &mut ws);
            assert_eq!(plain.as_slice(), reused, "pos {pos}");
        }
    }

    #[test]
    fn forward_batch_matches_per_sequence_forward() {
        let m = TransformerModel::new(EngineConfig::tiny_gqa(), false).unwrap();
        let prompts: [&[usize]; 3] = [&[1, 2], &[3, 4, 5, 6], &[7]];
        let mut solo: Vec<KvCache> = Vec::new();
        let mut batch: Vec<KvCache> = Vec::new();
        for p in prompts {
            let mut ca = m.new_cache();
            m.prefill(p, &mut ca);
            solo.push(ca.clone());
            batch.push(ca);
        }
        let tokens = [9usize, 11, 13];
        let positions: Vec<usize> = prompts.iter().map(|p| p.len()).collect();
        let expected: Vec<Vec<f32>> = (0..3)
            .map(|b| m.forward(tokens[b], positions[b], &mut solo[b]))
            .collect();
        let mut refs: Vec<&mut KvCache> = batch.iter_mut().collect();
        let got = m.forward_batch(&tokens, &positions, &mut refs);
        for (b, row) in expected.iter().enumerate() {
            assert_eq!(got.row(b), row.as_slice(), "sequence {b}");
        }
    }
}
