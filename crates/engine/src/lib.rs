//! A real, runnable transformer inference engine at laptop scale.
//!
//! The analytical model in `llmib-perf` *predicts* costs; this crate
//! *executes* the algorithms so the mechanisms the paper studies are
//! functionally real and testable end-to-end:
//!
//! * decoder-only transformer forward pass (RMSNorm, RoPE, SwiGLU);
//! * Multi-Head vs Grouped-Query attention (§II-A, Fig. 27) and
//!   Mistral-style sliding-window attention (App. A);
//! * KV caching vs full-prefix recomputation (§IV-B1, Fig. 2a), with
//!   block-paged storage, copy-on-write sharing, and a vLLM-style
//!   prefix cache that skips prefill for cached prompt prefixes;
//! * Mixture-of-Experts top-k routing (§II-A, Fig. 26);
//! * blockwise INT8 and INT4 weight quantization with per-group scales
//!   and fused dequantization (§IV-B3, Fig. 3);
//! * fused flash-style attention: blocked online softmax streaming over
//!   the paged KV block chain, never materializing a full score row;
//! * speculative decoding with a draft model (§IV-B5, Fig. 4b).
//!
//! Matrix kernels are `rayon`-parallel above a work threshold and serial
//! below it. Prefill runs whole prompts through blocked, cache-tiled
//! GEMMs ([`matmul_mat`]) and batched decode stacks concurrent sequences
//! so weights stream once per step; a reusable [`Workspace`] makes the
//! steady-state decode loop allocation free. Every f32 path funnels
//! through one dot-product order ([`dot_unrolled`]) — on x86_64 the
//! kernels are explicit SSE2 implementations, and AVX2 ones chosen by
//! CPUID at run time ([`kernel_backend`]), constructed to be *bitwise
//! identical* to the scalar reference (same accumulator striping, no
//! FMA), so batched, token-at-a-time, SIMD, and scalar execution all
//! produce bitwise-identical logits on every CPU. Weights are
//! seeded-random (we reproduce systems behavior, not trained quality);
//! everything is deterministic given a seed, which the correctness tests
//! rely on (e.g. cached and uncached decoding must emit identical
//! tokens).
//!
//! ```
//! use llmib_engine::{generate, EngineConfig, GenerateOptions, Sampler, TransformerModel};
//!
//! let model = TransformerModel::new(EngineConfig::tiny_gqa(), false).unwrap();
//! let result = generate(&model, &[1, 2, 3], GenerateOptions {
//!     max_new_tokens: 8,
//!     use_kv_cache: true,
//!     sampler: Sampler::Greedy,
//! });
//! assert_eq!(result.tokens.len(), 8);
//! ```

// The crate is `unsafe`-free except for the SIMD intrinsics module,
// which is compiled only on x86_64 (SSE2 is part of its baseline; AVX2
// is called only after CPUID reports it) and keeps its `unsafe` behind
// a module-local allow with per-call safety proofs.
#![cfg_attr(not(target_arch = "x86_64"), forbid(unsafe_code))]
#![cfg_attr(target_arch = "x86_64", deny(unsafe_code))]
#![warn(missing_docs)]

mod attention;
mod batch;
mod blockpool;
mod config;
mod flash;
mod generate;
mod model;
mod moe;
mod quant;
mod sampler;
mod tensor;
mod tokenizer;

#[cfg(target_arch = "x86_64")]
mod simd;

pub use attention::{Attention, KvBlock, KvCache, DEFAULT_BLOCK_TOKENS};
pub use batch::{AdmitOutcome, BatchSession, ChunkOutcome, TokenEvent};
pub use blockpool::{BlockPool, PoolStats, PrefixCache, PrefixConfig, PrefixStats};
pub use config::EngineConfig;
pub use flash::OnlineSoftmax;
pub use generate::{generate, generate_speculative, GenerateOptions, GenerationResult};
pub use model::{DecoderBlock, Linear, TransformerModel, Workspace};
pub use moe::MoeFfn;
pub use quant::{QuantMode, QuantScratch, QuantizedLinear, QUANT_GROUP};
pub use sampler::Sampler;
pub use tensor::{
    dot_kernel, dot_unrolled, kernel_backend, matmul_mat, matmul_vec, matmul_vec_into, rmsnorm,
    rmsnorm_into, rope_in_place, silu, softmax_in_place, Matrix, RopeTable,
};
pub use tokenizer::{ByteTokenizer, BOS};
