//! `llmib-serve`: a live continuous-batching serving runtime over the
//! real `llmib-engine`.
//!
//! The repo has two serving halves: `llmib-sched` *predicts* serving
//! behavior with a discrete-event simulator, and `llmib-engine`
//! *executes* real batched forward passes. This crate is the bridge the
//! paper's §IV-A1 serving story needs: an actual runtime that accepts
//! requests over time, schedules them onto the engine with continuous
//! batching, streams tokens back as they are produced, and measures
//! itself with wall-clock TTFT/ITL/E2E (the paper's Eq. 1 / Eq. 2 via
//! `llmib_core::metrics`).
//!
//! Architecture (one scheduler thread, any number of client threads):
//!
//! ```text
//! client threads ── bounded MPSC ingress ──► scheduler thread
//!   Client::submit     (queue_capacity,        │ intake / deadline shed
//!   ▲ PendingRequest     full ⇒ QueueFull)     │ admit at step boundary
//!   │                                          │  (max_concurrency +
//!   └── per-request event channel ◄────────────┤   KV-token reservation)
//!        Admitted / Token / Finished /         │ BatchSession::step
//!        Rejected (wall-clock stamped)         ▼ one batched forward
//! ```
//!
//! Overload is handled by shedding, never by panicking: a full ingress
//! rejects at submit time, queued requests past their deadline are shed
//! with explicit events, oversized requests (KV pool or model context)
//! are refused on arrival, and shutdown drains queue and batch before
//! the scheduler exits with an aggregate [`ServeReport`].
//!
//! Faults are handled by supervision, never by hanging: a seeded
//! [`llmib_types::FaultPlan`] can be replayed before each engine step
//! (stalls, transient errors, poisoned requests, memory pressure,
//! scheduler panics), and the scheduler loop answers with
//! capped-backoff retries, per-request eviction, a circuit breaker that
//! sheds admissions while step health breaches the SLO
//! ([`BreakerConfig`]), and panic containment that resolves every
//! outstanding client with [`FailReason::ServerFailed`]. The
//! [`RobustnessStats`] block of the report counts what happened, and
//! [`ServeReport::reconciles`] checks that every submitted request got
//! exactly one terminal answer. Clients can also walk away:
//! [`RequestHandle::cancel`] kills a queued or mid-decode request.
//!
//! Sustained overload is survived by class, not by luck: with an
//! [`OverloadConfig`] active, requests carry a [`Priority`], admission
//! prefers higher classes, a KV-starved high-class arrival preempts the
//! youngest lowest-class running sequence (which resumes later via
//! prefix replay, bitwise identical), and a hysteretic brownout
//! controller ([`BrownoutConfig`]) first clamps and then sheds
//! best-effort work while decode steps starve. The
//! [`OverloadCounters`] block reports what the machinery did, per
//! class — and `llmib_sched::ServingSimulator::with_overload` under
//! the same config must reproduce those counters exactly on an
//! identical trace.
//!
//! Because every engine path funnels through one dot kernel, the
//! runtime changes *when* tokens are produced but never *which*:
//! replaying a run's admission order through a plain
//! [`llmib_engine::BatchSession`] reproduces every token bitwise
//! ([`replay_admission_order`]), and replaying the same
//! [`llmib_workloads::TrafficProfile::trace`] through
//! [`llmib_sched::ServingSimulator`] must agree on metric shapes — the
//! cross-validation loop exercised by this crate's integration tests.
//!
//! For availability beyond one scheduler, [`ReplicaPool`] runs N
//! independent replicas behind a health-aware router ([`PoolConfig`],
//! [`RoutingPolicy`]): replica death or condemnation triggers failover
//! by *prefix-replay migration* — the victim's in-flight requests are
//! re-admitted elsewhere with a prefill of `prompt + tokens already
//! streamed`, and greedy determinism makes the continued stream bitwise
//! identical to an unfaulted run. Stragglers can be hedged on a second
//! replica ([`PoolConfig::hedge_after`]); the mirrored
//! `llmib_sched::ServingSimulator::run_pool` cross-validates
//! failover counts and migrated-token accounting.
//!
//! ```
//! use llmib_engine::{EngineConfig, TransformerModel};
//! use llmib_serve::{ServeConfig, Server, SubmitOptions};
//! use std::sync::Arc;
//!
//! let model = Arc::new(TransformerModel::new(EngineConfig::tiny(), false).unwrap());
//! let server = Server::start(model, ServeConfig::default()).unwrap();
//! let handle = server
//!     .client()
//!     .submit(vec![1, 2, 3], SubmitOptions::greedy(8))
//!     .unwrap();
//! let outcome = handle.wait();
//! assert_eq!(outcome.tokens().unwrap().len(), 8);
//! let report = server.shutdown();
//! assert_eq!(report.completed, 1);
//! assert!(report.mean_ttft.value() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod breaker;
mod client;
mod config;
mod event;
mod pool;
mod replay;
mod report;
mod router;
mod server;

pub use breaker::{BreakerConfig, BreakerState};
pub use client::{Client, PendingRequest, RequestHandle, SubmitError, SubmitOptions};
pub use config::{PoolConfig, ServeConfig};
pub use event::{FailReason, RejectReason, RequestOutcome, ServeEvent};
pub use pool::{PoolReport, ReplicaPool};
pub use replay::{
    deterministic_prompt, deterministic_prompt_for, replay_admission_order, replay_trace,
    replay_trace_on, ReplayOptions, ReplayedRequest,
};
pub use report::{PrefixCounters, RequestMetrics, RobustnessStats, ServeReport};
pub use router::RoutingPolicy;
pub use server::Server;

// The admission ledger, overload-survival knobs and counters are
// defined next to the admission pass both runtimes share; re-export
// them so serving users configure both backends from one vocabulary.
pub use llmib_sched::{
    BrownoutConfig, BudgetError, ClassCounters, OverloadConfig, OverloadCounters,
};
pub use llmib_types::{ItlPercentiles, ItlSummary, Priority, ReplicaRole};
