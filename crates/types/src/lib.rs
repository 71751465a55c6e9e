//! Shared vocabulary for the LLM-Inference-Bench workspace.
//!
//! Every other crate speaks in terms of the types defined here: physical
//! units ([`Flops`], [`ByteCount`], [`Seconds`], [`Watts`]), numeric
//! [`Precision`]s, [`Parallelism`] layouts, the common [`Error`] type,
//! the serving [`Request`] lifecycle shared by the simulator and the
//! live runtime, the [`stats`] order statistics every latency table is
//! computed with, and the paper's §III-5 [`metrics`] (Eq. 1, Eq. 2).
//!
//! The unit newtypes are deliberately thin (`f64` inside) — they exist to
//! keep dimensional mistakes out of the roofline arithmetic, not to be a
//! full dimensional-analysis system. Ratios that cross dimensions (e.g.
//! FLOPs / FLOP-rate = seconds) are expressed through named methods.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod fault;
pub mod metrics;
mod parallelism;
mod precision;
mod request;
pub mod stats;
mod units;

pub use error::{Error, Result};
pub use fault::{FaultEvent, FaultKind, FaultPlan, ReplicaFaultPlan, ReplicaId, RetryPolicy};
pub use parallelism::Parallelism;
pub use precision::Precision;
pub use request::{
    usable_prefix_blocks, ItlPercentiles, ItlSummary, LatencySample, Priority, ReplicaRole,
    Request, RequestState,
};
pub use units::{
    ByteCount, BytesPerSecond, Flops, FlopsRate, Joules, Seconds, TokensPerSecond, Watts,
};

/// Common token-count parameters of a single benchmark point, mirroring the
/// paper's §III-2 ("LLM Token Generation Parameters").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct TokenShape {
    /// Number of prompt tokens fed to the model per request.
    pub input_tokens: u32,
    /// Number of generated tokens per request (`max_new_tokens`).
    pub output_tokens: u32,
    /// Number of requests processed simultaneously.
    pub batch_size: u32,
}

impl TokenShape {
    /// Create a new shape; panics if any component is zero.
    pub fn new(input_tokens: u32, output_tokens: u32, batch_size: u32) -> Self {
        assert!(input_tokens > 0, "input_tokens must be > 0");
        assert!(output_tokens > 0, "output_tokens must be > 0");
        assert!(batch_size > 0, "batch_size must be > 0");
        Self {
            input_tokens,
            output_tokens,
            batch_size,
        }
    }

    /// Shape with equal input and output token counts, as in most of the
    /// paper's sweeps ("input/output length N").
    pub fn square(len: u32, batch_size: u32) -> Self {
        Self::new(len, len, batch_size)
    }

    /// Total tokens (input + output) processed per request.
    pub fn tokens_per_request(&self) -> u64 {
        u64::from(self.input_tokens) + u64::from(self.output_tokens)
    }

    /// Total tokens across the whole batch, the numerator of the paper's
    /// Eq. 2 throughput definition.
    pub fn total_tokens(&self) -> u64 {
        self.tokens_per_request() * u64::from(self.batch_size)
    }

    /// Maximum context length reached during generation (input + output).
    pub fn max_context(&self) -> u32 {
        self.input_tokens + self.output_tokens
    }
}

/// The batch sizes used throughout the paper's sweeps.
pub const PAPER_BATCH_SIZES: [u32; 4] = [1, 16, 32, 64];

/// The input/output token lengths used throughout the paper's sweeps.
pub const PAPER_TOKEN_LENGTHS: [u32; 5] = [128, 256, 512, 1024, 2048];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_shape_totals() {
        let s = TokenShape::new(1024, 128, 16);
        assert_eq!(s.tokens_per_request(), 1152);
        assert_eq!(s.total_tokens(), 1152 * 16);
        assert_eq!(s.max_context(), 1152);
    }

    #[test]
    fn square_shape() {
        let s = TokenShape::square(512, 4);
        assert_eq!(s.input_tokens, 512);
        assert_eq!(s.output_tokens, 512);
        assert_eq!(s.batch_size, 4);
    }

    #[test]
    #[should_panic(expected = "batch_size")]
    fn zero_batch_panics() {
        TokenShape::new(1, 1, 0);
    }

    #[test]
    fn paper_sweep_constants() {
        assert_eq!(PAPER_BATCH_SIZES.len(), 4);
        assert_eq!(PAPER_TOKEN_LENGTHS.len(), 5);
        assert!(PAPER_TOKEN_LENGTHS.windows(2).all(|w| w[1] == w[0] * 2));
    }

    #[test]
    fn token_shape_serde_roundtrip() {
        let s = TokenShape::new(128, 256, 32);
        let json = serde_json::to_string(&s).unwrap();
        let back: TokenShape = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
