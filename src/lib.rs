//! LLM-Inference-Bench: a benchmarking suite for LLM inference across
//! (simulated) AI accelerators, inference-framework behavior models, and
//! LLaMA-family model architectures.
//!
//! This is the root facade crate: it re-exports the public APIs of every
//! workspace crate so downstream users can depend on a single package.
//! See `llmib_core` for the experiment registry that regenerates every
//! figure and table of the paper.
//!
//! # Quickstart
//!
//! ```
//! use llm_inference_bench::prelude::*;
//!
//! let scenario = Scenario::builder()
//!     .model(ModelId::Llama3_8b)
//!     .hardware(HardwareId::A100)
//!     .framework(FrameworkId::Vllm)
//!     .batch_size(16)
//!     .input_tokens(128)
//!     .output_tokens(128)
//!     .build()
//!     .expect("valid scenario");
//!
//! let prediction = PerfModel::default_calibration().predict(&scenario).unwrap();
//! assert!(prediction.throughput_tokens_per_s() > 0.0);
//! ```

pub use llmib_core as core;
pub use llmib_engine as engine;
pub use llmib_frameworks as frameworks;
pub use llmib_hardware as hardware;
pub use llmib_models as models;
pub use llmib_perf as perf;
pub use llmib_report as report;
pub use llmib_sched as sched;
pub use llmib_types as types;
pub use llmib_workloads as workloads;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use llmib_core::experiments::{all_experiments, Experiment, ExperimentContext};
    pub use llmib_core::scenario::{Scenario, ScenarioBuilder};
    pub use llmib_frameworks::FrameworkId;
    pub use llmib_hardware::HardwareId;
    pub use llmib_models::ModelId;
    pub use llmib_perf::{PerfModel, Prediction};
    pub use llmib_types::metrics::{InferenceMetrics, MetricInputs};
    pub use llmib_types::{Parallelism, Precision};
}
