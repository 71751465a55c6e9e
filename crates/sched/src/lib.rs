//! Discrete-event LLM serving simulator.
//!
//! Implements the serving-side machinery the paper's frameworks rely on
//! and that §IV-A/§IV-B analyze:
//!
//! * a **paged KV-cache block allocator** (vLLM-style PagedAttention
//!   blocks, Fig. 2b) and a **monolithic first-fit allocator** (the
//!   "traditional" fragmenting design it replaced, §IV-B2);
//! * a **continuous-batching scheduler** (Orca-style in-flight admission,
//!   §IV-A1) and a **static-batching** baseline;
//! * a **discrete-event engine** driving request arrival → prefill →
//!   token-by-token decode → completion, with step durations supplied by
//!   the `llmib-perf` roofline via [`llmib_perf::ResolvedScenario`].
//!
//! The simulator measures what the paper measures: throughput (Eq. 2),
//! TTFT, ITL, plus allocator-level statistics (fragmentation waste,
//! achieved concurrency) that explain *why* paged beats monolithic.
//!
//! ```
//! use llmib_sched::{ArrivalPattern, BatchingPolicy, ServingSimulator, SimConfig};
//! use llmib_perf::{PerfModel, Scenario};
//! use llmib_models::ModelId;
//! use llmib_hardware::HardwareId;
//! use llmib_frameworks::FrameworkId;
//! use llmib_types::TokenShape;
//!
//! let scenario = Scenario::simple(
//!     ModelId::Llama3_8b, HardwareId::A100, FrameworkId::Vllm,
//!     TokenShape::square(128, 8),
//! );
//! let resolved = PerfModel::default_calibration().resolve_scenario(&scenario).unwrap();
//! let sim = ServingSimulator::new(SimConfig {
//!     policy: BatchingPolicy::Continuous,
//!     max_concurrency: 8,
//!     kv_capacity_tokens: 1 << 18,
//!     kv_block_tokens: Some(16),
//! });
//! let report = sim.run(ArrivalPattern::Burst.generate(8, 128, 32), &resolved);
//! assert_eq!(report.completed, 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod allocator;
mod budget;
mod overload;
mod simulator;
mod sweep;

pub use allocator::{AllocStats, KvAllocator, MonolithicAllocator, PagedAllocator};
pub use budget::{BudgetError, KvBudget};
pub use llmib_types::{Priority, Request, RequestState};
pub use overload::{
    insert_by_priority, pick_victim, Admission, AdmitExecutor, BatchingPolicy, BrownoutConfig,
    BrownoutController, ClassCounters, OverloadConfig, OverloadCounters, Refusal, Ticket,
};
pub use simulator::{ArrivalPattern, ReplicatedReport, ServingReport, ServingSimulator, SimConfig};
pub use sweep::{LoadPoint, LoadSweep};
