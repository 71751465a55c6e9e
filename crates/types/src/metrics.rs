//! The paper's performance-metric definitions (§III-5), plus the
//! latency order statistics (nearest-rank percentiles) every serving
//! report in the suite is aggregated with.

use crate::{Seconds, TokenShape, TokensPerSecond, Watts};
use serde::Serialize;

pub use crate::stats::{mean, p50, p90, p95, p99, percentile};

/// Raw timing inputs of one benchmark run.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct MetricInputs {
    /// Token shape of the run.
    pub shape: TokenShape,
    /// End-to-end latency (prompt in → last token out).
    pub e2e: Seconds,
    /// Time to first token.
    pub ttft: Seconds,
}

/// Derived metrics per the paper's equations.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct InferenceMetrics {
    /// Eq. 2: `batch × (input + output) / e2e`.
    pub throughput: TokensPerSecond,
    /// Eq. 1: `(e2e − TTFT) / (batch × (output − 1))`; `None` if the
    /// output is a single token.
    pub itl: Option<Seconds>,
}

impl InferenceMetrics {
    /// Compute Eq. 1 and Eq. 2 from raw latencies.
    pub fn from_latencies(inputs: MetricInputs) -> Self {
        let shape = inputs.shape;
        let throughput = TokensPerSecond(shape.total_tokens() as f64 / inputs.e2e.value());
        let itl = (shape.output_tokens > 1).then(|| {
            Seconds(
                (inputs.e2e.value() - inputs.ttft.value())
                    / (f64::from(shape.batch_size) * f64::from(shape.output_tokens - 1)),
            )
        });
        Self { throughput, itl }
    }

    /// Performance per watt (§III-5e): tokens/s/W.
    pub fn perf_per_watt(&self, total_power: Watts) -> f64 {
        self.throughput.value() / total_power.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq2_throughput() {
        let m = InferenceMetrics::from_latencies(MetricInputs {
            shape: TokenShape::new(1024, 1024, 16),
            e2e: Seconds(8.0),
            ttft: Seconds(0.5),
        });
        assert!((m.throughput.value() - 16.0 * 2048.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn eq1_itl() {
        let m = InferenceMetrics::from_latencies(MetricInputs {
            shape: TokenShape::new(128, 101, 4),
            e2e: Seconds(2.5),
            ttft: Seconds(0.5),
        });
        let itl = m.itl.unwrap().value();
        assert!((itl - 2.0 / (4.0 * 100.0)).abs() < 1e-12);
    }

    #[test]
    fn single_token_output_has_no_itl() {
        let m = InferenceMetrics::from_latencies(MetricInputs {
            shape: TokenShape::new(128, 1, 1),
            e2e: Seconds(1.0),
            ttft: Seconds(0.9),
        });
        assert!(m.itl.is_none());
    }

    #[test]
    fn percentile_helpers_are_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(p50(&v), 100.0);
        assert_eq!(p90(&v), 180.0);
        assert_eq!(p99(&v), 198.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
        // Tail percentiles of a skewed latency set sit in the tail.
        let skew = [0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 9.0];
        assert_eq!(p50(&skew), 0.01);
        assert_eq!(p99(&skew), 9.0);
    }

    #[test]
    fn perf_per_watt() {
        let m = InferenceMetrics::from_latencies(MetricInputs {
            shape: TokenShape::new(100, 100, 1),
            e2e: Seconds(1.0),
            ttft: Seconds(0.1),
        });
        assert!((m.perf_per_watt(Watts(100.0)) - 2.0).abs() < 1e-9);
    }
}
