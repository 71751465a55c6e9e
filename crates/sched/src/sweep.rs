//! Load sweeps: drive the simulator across arrival rates to find the
//! saturation point of a serving configuration — the capacity-planning
//! question behind the paper's batch-size sweeps, asked the way an
//! operator would ("how many requests per second can this box take
//! before latency explodes?").

use crate::simulator::{ArrivalPattern, ServingReport, ServingSimulator, SimConfig};
use llmib_perf::ResolvedScenario;
use llmib_types::{Error, Request, Result};
use serde::Serialize;

/// One point of a load sweep.
#[derive(Debug, Clone, Serialize)]
pub struct LoadPoint {
    /// Offered load (requests per second).
    pub arrival_rate: f64,
    /// Achieved throughput (Eq. 2 tokens/s over completed requests).
    pub throughput_tokens_per_s: f64,
    /// Mean time to first token.
    pub mean_ttft_s: f64,
    /// 95th-percentile request latency.
    pub p95_latency_s: f64,
    /// Mean live batch during decode.
    pub mean_occupancy: f64,
}

/// Result of a load sweep.
#[derive(Debug, Clone, Serialize)]
pub struct LoadSweep {
    /// Points in increasing arrival-rate order.
    pub points: Vec<LoadPoint>,
}

impl LoadSweep {
    /// Run the simulator at each arrival rate with `n` requests of
    /// `prompt`/`output` tokens each.
    ///
    /// A sweep is an operator-facing entry point fed from experiment
    /// configs, so degenerate inputs (a non-positive or non-finite
    /// arrival rate, a zero-concurrency scheduler) come back as
    /// [`Error::InvalidConfig`] instead of tripping the simulator's
    /// internal assertions.
    pub fn run(
        config: &SimConfig,
        perf: &ResolvedScenario,
        rates: &[f64],
        n: u32,
        prompt: u32,
        output: u32,
        seed: u64,
    ) -> Result<Self> {
        if config.max_concurrency == 0 {
            return Err(Error::InvalidConfig(
                "load sweep: max_concurrency must be at least 1".into(),
            ));
        }
        if let Some(&bad) = rates.iter().find(|r| !r.is_finite() || **r <= 0.0) {
            return Err(Error::InvalidConfig(format!(
                "load sweep: arrival rate must be positive and finite, got {bad}"
            )));
        }
        let points = rates
            .iter()
            .map(|&rate| {
                let requests: Vec<Request> = ArrivalPattern::Poisson {
                    rate_per_s: rate,
                    seed,
                }
                .generate(n, prompt, output);
                let rep: ServingReport = ServingSimulator::new(config.clone()).run(requests, perf);
                LoadPoint {
                    arrival_rate: rate,
                    throughput_tokens_per_s: rep.throughput_tokens_per_s,
                    mean_ttft_s: rep.mean_ttft.value(),
                    p95_latency_s: rep.p95_latency.value(),
                    mean_occupancy: rep.mean_batch_occupancy,
                }
            })
            .collect();
        Ok(Self { points })
    }

    /// The knee: the highest arrival rate whose p95 latency stays within
    /// `factor` of the lightest load's p95.
    pub fn saturation_rate(&self, factor: f64) -> Option<f64> {
        let base = self.points.first()?.p95_latency_s;
        self.points
            .iter()
            .take_while(|p| p.p95_latency_s <= base * factor)
            .last()
            .map(|p| p.arrival_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BatchingPolicy;
    use llmib_frameworks::FrameworkId;
    use llmib_hardware::HardwareId;
    use llmib_models::ModelId;
    use llmib_perf::{PerfModel, Scenario};
    use llmib_types::TokenShape;

    fn resolved() -> ResolvedScenario {
        let s = Scenario::simple(
            ModelId::Llama3_8b,
            HardwareId::A100,
            FrameworkId::Vllm,
            TokenShape::square(128, 8),
        );
        PerfModel::default_calibration()
            .resolve_scenario(&s)
            .unwrap()
    }

    fn config() -> SimConfig {
        SimConfig {
            policy: BatchingPolicy::Continuous,
            max_concurrency: 8,
            kv_capacity_tokens: 1 << 16,
            kv_block_tokens: Some(16),
        }
    }

    #[test]
    fn latency_grows_with_offered_load() {
        let sweep = LoadSweep::run(
            &config(),
            &resolved(),
            &[2.0, 8.0, 32.0, 128.0],
            24,
            128,
            32,
            5,
        )
        .expect("valid sweep");
        assert_eq!(sweep.points.len(), 4);
        let first = &sweep.points[0];
        let last = &sweep.points[3];
        assert!(
            last.p95_latency_s > first.p95_latency_s,
            "p95 must grow under overload: {} -> {}",
            first.p95_latency_s,
            last.p95_latency_s
        );
        assert!(last.mean_occupancy >= first.mean_occupancy);
    }

    #[test]
    fn saturation_knee_is_detected() {
        let sweep = LoadSweep::run(
            &config(),
            &resolved(),
            &[1.0, 4.0, 16.0, 64.0, 256.0],
            24,
            128,
            32,
            5,
        )
        .expect("valid sweep");
        let knee = sweep.saturation_rate(3.0).expect("non-empty sweep");
        assert!(knee >= 1.0);
        assert!(knee < 256.0, "overload must blow the p95 budget");
    }

    #[test]
    fn throughput_saturates_not_collapses() {
        // Under heavy overload the system keeps serving at its capacity.
        let sweep = LoadSweep::run(&config(), &resolved(), &[64.0, 512.0], 24, 128, 32, 5)
            .expect("valid sweep");
        let a = sweep.points[0].throughput_tokens_per_s;
        let b = sweep.points[1].throughput_tokens_per_s;
        assert!(b > 0.5 * a, "throughput collapsed: {a} -> {b}");
    }

    #[test]
    fn degenerate_inputs_are_typed_errors_not_panics() {
        let err = LoadSweep::run(&config(), &resolved(), &[4.0, 0.0], 8, 128, 16, 5)
            .expect_err("zero rate must be rejected");
        assert!(matches!(err, Error::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("arrival rate"), "{err}");
        let err = LoadSweep::run(&config(), &resolved(), &[f64::NAN], 8, 128, 16, 5)
            .expect_err("NaN rate must be rejected");
        assert!(matches!(err, Error::InvalidConfig(_)), "{err}");
        let mut cfg = config();
        cfg.max_concurrency = 0;
        let err = LoadSweep::run(&cfg, &resolved(), &[4.0], 8, 128, 16, 5)
            .expect_err("zero concurrency must be rejected");
        assert!(err.to_string().contains("max_concurrency"), "{err}");
    }
}
