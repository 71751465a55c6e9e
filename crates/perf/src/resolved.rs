//! Public handle to a resolved scenario, for callers (like the serving
//! simulator in `llmib-sched`) that need raw phase costs rather than the
//! aggregated [`crate::Prediction`].

use crate::calibrate::Calibration;
use crate::plan::MemoryPlan;
use crate::roofline::Roofline;
use crate::scenario::Scenario;
use crate::PerfModel;
use llmib_types::{Result, Seconds};

/// A scenario after support checks, precision gating and memory planning,
/// ready to be queried for per-step costs repeatedly (e.g. from a
/// discrete-event simulation loop).
#[derive(Debug, Clone)]
pub struct ResolvedScenario {
    inner: Roofline,
}

impl PerfModel {
    /// Resolve a scenario once for repeated step-cost queries.
    pub fn resolve_scenario(&self, scenario: &Scenario) -> Result<ResolvedScenario> {
        Ok(ResolvedScenario {
            inner: Roofline::resolve(scenario, self.calibration())?,
        })
    }
}

impl ResolvedScenario {
    /// The scenario this handle was resolved from.
    pub fn scenario(&self) -> &Scenario {
        &self.inner.scenario
    }

    /// The resolved memory plan.
    pub fn plan(&self) -> &MemoryPlan {
        &self.inner.plan
    }

    /// The active calibration.
    pub fn calibration(&self) -> &Calibration {
        &self.inner.calib
    }

    /// Wall-clock time of one decode step with `batch` concurrent
    /// requests at (average) context length `ctx`.
    pub fn decode_step_time(&self, batch: u32, ctx: u32) -> Seconds {
        self.inner.decode_step(batch.max(1), ctx.max(1)).total()
    }

    /// Wall-clock time to prefill `prompt_tokens` for `batch` requests.
    /// (The scenario's own input length sets attention-quadratic scaling;
    /// this scales linearly for other prompt lengths.)
    pub fn prefill_time(&self, batch: u32, prompt_tokens: u32) -> Seconds {
        let base = self.inner.prefill(batch.max(1)).total();
        let own = f64::from(self.inner.scenario.shape.input_tokens.max(1));
        Seconds(base.value() * f64::from(prompt_tokens.max(1)) / own)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmib_frameworks::FrameworkId;
    use llmib_hardware::HardwareId;
    use llmib_models::ModelId;
    use llmib_types::TokenShape;

    fn resolved() -> ResolvedScenario {
        let s = Scenario::simple(
            ModelId::Llama3_8b,
            HardwareId::A100,
            FrameworkId::Vllm,
            TokenShape::square(512, 8),
        );
        PerfModel::default_calibration()
            .resolve_scenario(&s)
            .unwrap()
    }

    #[test]
    fn step_time_positive_and_monotone_in_context() {
        let r = resolved();
        let a = r.decode_step_time(8, 128).value();
        let b = r.decode_step_time(8, 2048).value();
        assert!(a > 0.0);
        assert!(b > a);
    }

    #[test]
    fn prefill_scales_with_prompt() {
        let r = resolved();
        let half = r.prefill_time(8, 256).value();
        let full = r.prefill_time(8, 512).value();
        assert!((full / half - 2.0).abs() < 1e-9);
    }

    #[test]
    fn plan_accessible() {
        let r = resolved();
        assert_eq!(r.plan().devices, 1);
        assert_eq!(r.scenario().shape.batch_size, 8);
    }
}
