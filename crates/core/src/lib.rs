//! LLM-Inference-Bench suite core: the paper's primary contribution.
//!
//! This crate ties the substrates together into the benchmarking suite:
//!
//! * [`scenario`] — scenario definitions (re-exported from `llmib-perf`);
//! * [`experiments`] — the registry with one experiment per figure and
//!   table of the paper, each emitting the same rows/series the paper
//!   plots plus machine-checked shape assertions;
//! * the `llm-inference-bench` CLI binary (`src/bin/cli.rs`) that lists
//!   and runs experiments, prints ASCII charts, and writes the CSV/JSON/
//!   HTML dashboard artifacts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod insights;

/// Scenario definitions (shared with the analytical performance model).
pub mod scenario {
    pub use llmib_perf::{Scenario, ScenarioBuilder, SpecDecode};
}
