//! The shared inference-request lifecycle.
//!
//! One request definition serves both halves of the serving story: the
//! discrete-event simulator in `llmib-sched` *predicts* how a request
//! stream behaves, and the live runtime in `llmib-serve` *executes* the
//! same stream against the real engine. Keeping the lifecycle here means
//! the two consume byte-identical traces and report metrics over the
//! same state machine.

use crate::{stats, Seconds};
use serde::Serialize;

/// Where a request is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum RequestState {
    /// Arrived, waiting for admission.
    Queued,
    /// Admitted; prompt not yet processed.
    Prefilling,
    /// Generating tokens.
    Decoding,
    /// All output tokens produced.
    Finished,
    /// Refused service: it can never fit (oversized for the KV pool),
    /// its deadline expired while queued, or the ingress queue was full.
    Rejected,
    /// Admitted but killed by a fault (poisoned request, retry budget
    /// exhausted, KV accounting failure) — terminal, unlike `Rejected`
    /// it had already consumed service.
    Failed,
    /// Cancelled by the client while queued or mid-decode.
    Cancelled,
}

/// Scheduling priority class of a request.
///
/// Both serving backends order their admission queues by class (higher
/// first, FIFO within a class) and, under overload, preempt or shed the
/// lowest class first. The ordering derives from the declaration order:
/// `BestEffort < Standard < Interactive`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum Priority {
    /// Lowest class: first to be preempted, brownout-clamped, or shed.
    BestEffort,
    /// Default class for traffic that declares nothing.
    #[default]
    Standard,
    /// Highest class: latency-sensitive traffic whose SLO attainment the
    /// overload machinery protects.
    Interactive,
}

impl Priority {
    /// All classes, lowest first — index with [`Priority::index`].
    pub const ALL: [Priority; 3] = [
        Priority::BestEffort,
        Priority::Standard,
        Priority::Interactive,
    ];

    /// Stable dense index (0 = lowest class), for per-class counter
    /// arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Human-readable class name, stable for report serialization.
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::BestEffort => "best_effort",
            Priority::Standard => "standard",
            Priority::Interactive => "interactive",
        }
    }
}

/// Serving role of one replica in a disaggregated pool.
///
/// Disaggregated serving splits the two inference phases across
/// replicas: *prefill* replicas absorb the compute-bound prompt pass
/// and *decode* replicas run the memory-bound token loop, so a long
/// prompt's prefill never stalls another stream's decode. A sequence
/// admitted on a prefill replica migrates to a decode replica at the
/// prefill/decode boundary by shipping its KV state (here: prefix
/// replay, which reproduces the KV block chain bitwise). Both serving
/// backends — the live router and the replicated simulator — consume
/// the same role assignment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize)]
pub enum ReplicaRole {
    /// Runs admissions' prompt prefill, handing each sequence off at
    /// its first generated token.
    Prefill,
    /// Runs the decode loop of sequences prefilled elsewhere (arriving
    /// via KV shipping / prefix replay).
    Decode,
    /// Classic aggregated replica: serves both phases.
    #[default]
    Unified,
}

impl ReplicaRole {
    /// Whether new admissions (cold prompts) may be routed here.
    pub fn accepts_prefill(self) -> bool {
        matches!(self, ReplicaRole::Prefill | ReplicaRole::Unified)
    }

    /// Whether decode-phase work (post-prefill sequences) may run here.
    pub fn accepts_decode(self) -> bool {
        matches!(self, ReplicaRole::Decode | ReplicaRole::Unified)
    }

    /// Stable name for report serialization.
    pub fn as_str(self) -> &'static str {
        match self {
            ReplicaRole::Prefill => "prefill",
            ReplicaRole::Decode => "decode",
            ReplicaRole::Unified => "unified",
        }
    }
}

/// Whole KV blocks of a `hit_blocks`-block prefix-cache hit that a
/// `prompt_tokens`-token prompt can reuse: capped at `(prompt - 1) /
/// block` so at least one prompt token always prefills and the final
/// row's logits exist for sampling. The usable-hit rule of the engine's
/// block trie and of the simulator's prefix model.
pub fn usable_prefix_blocks(hit_blocks: usize, prompt_tokens: usize, block_tokens: usize) -> usize {
    hit_blocks.min((prompt_tokens - 1) / block_tokens)
}

/// One inference request flowing through a serving system (simulated or
/// live).
#[derive(Debug, Clone, Serialize)]
pub struct Request {
    /// Unique id.
    pub id: u64,
    /// Arrival time.
    pub arrival: Seconds,
    /// Prompt length in tokens.
    pub prompt_tokens: u32,
    /// Output tokens to generate.
    pub output_tokens: u32,
    /// Lifecycle state.
    pub state: RequestState,
    /// Tokens generated so far.
    pub generated: u32,
    /// When the first output token appeared.
    pub first_token_at: Option<Seconds>,
    /// When the request finished.
    pub finished_at: Option<Seconds>,
    /// Leading prompt tokens drawn from a trace-wide shared prefix (a
    /// common system prompt). Zero for a fully cold prompt. Strictly
    /// less than `prompt_tokens`: every request owns at least one
    /// unshared prompt token, so a prefix-cache hit always leaves a
    /// suffix to prefill. Prefix-caching runtimes/simulators can skip
    /// (the block-aligned part of) this prefix when it is resident.
    pub shared_prefix_tokens: u32,
    /// Scheduling class; [`Priority::Standard`] unless the trace says
    /// otherwise.
    pub priority: Priority,
}

impl Request {
    /// New queued request.
    pub fn new(id: u64, arrival: Seconds, prompt_tokens: u32, output_tokens: u32) -> Self {
        assert!(prompt_tokens > 0 && output_tokens > 0);
        Self {
            id,
            arrival,
            prompt_tokens,
            output_tokens,
            state: RequestState::Queued,
            generated: 0,
            first_token_at: None,
            finished_at: None,
            shared_prefix_tokens: 0,
            priority: Priority::Standard,
        }
    }

    /// Set the scheduling class.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Mark the first `tokens` prompt tokens as drawn from the
    /// trace-wide shared prefix. Must leave at least one unshared
    /// prompt token.
    pub fn with_shared_prefix(mut self, tokens: u32) -> Self {
        assert!(
            tokens < self.prompt_tokens,
            "shared prefix must be shorter than the prompt"
        );
        self.shared_prefix_tokens = tokens;
        self
    }

    /// Context length right now (prompt + generated).
    pub fn context(&self) -> u32 {
        self.prompt_tokens + self.generated
    }

    /// Maximum context this request will ever hold.
    pub fn max_context(&self) -> u32 {
        self.prompt_tokens + self.output_tokens
    }

    /// Time to first token, if produced.
    pub fn ttft(&self) -> Option<Seconds> {
        self.first_token_at
            .map(|t| Seconds(t.value() - self.arrival.value()))
    }

    /// End-to-end latency, if finished.
    pub fn latency(&self) -> Option<Seconds> {
        self.finished_at
            .map(|t| Seconds(t.value() - self.arrival.value()))
    }

    /// The latency observation this request contributes to SLO
    /// accounting, available once it has finished.
    pub fn latency_sample(&self) -> Option<LatencySample> {
        let ttft = self.ttft()?;
        let e2e = self.latency()?;
        let itl = (self.output_tokens > 1)
            .then(|| Seconds((e2e.value() - ttft.value()) / f64::from(self.output_tokens - 1)));
        Some(LatencySample {
            id: self.id,
            prompt_tokens: self.prompt_tokens,
            output_tokens: self.output_tokens,
            ttft,
            itl,
            e2e,
        })
    }
}

/// One finished request's latency observation — the unit of
/// SLO-attainment accounting.
///
/// Both serving backends produce these over identical traces: the
/// discrete-event simulator ([`Request::latency_sample`] on its finished
/// requests) and the live `llmib-serve` runtime (from wall-clock
/// `RequestMetrics`). A benchmarking harness can therefore evaluate one
/// TTFT/ITL SLO spec against either backend and reconcile the results.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct LatencySample {
    /// Request id.
    pub id: u64,
    /// Prompt length in tokens.
    pub prompt_tokens: u32,
    /// Generated tokens.
    pub output_tokens: u32,
    /// Time to first token, measured from arrival/submission (queueing
    /// included).
    pub ttft: Seconds,
    /// Eq. 1 inter-token latency; `None` for single-token outputs.
    pub itl: Option<Seconds>,
    /// End-to-end latency from arrival to last token.
    pub e2e: Seconds,
}

impl LatencySample {
    /// Total tokens this request moved (prompt + output) — the Eq. 2
    /// numerator and the currency goodput counts.
    pub fn total_tokens(&self) -> u64 {
        u64::from(self.prompt_tokens) + u64::from(self.output_tokens)
    }
}

/// Nearest-rank percentiles over one set of Eq. 1 ITL observations.
///
/// Single-token outputs have no ITL and contribute no sample, so
/// `samples` can be below the completed-request count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct ItlPercentiles {
    /// ITL observations behind the percentiles.
    pub samples: u32,
    /// Median ITL.
    pub p50: Seconds,
    /// 95th-percentile ITL.
    pub p95: Seconds,
    /// 99th-percentile ITL — the tail the chunked-prefill and
    /// disaggregation policies exist to protect.
    pub p99: Seconds,
}

impl ItlPercentiles {
    /// Percentiles of `values` (seconds; need not be sorted).
    pub fn from_values(values: &[f64]) -> Self {
        Self {
            samples: values.len() as u32,
            p50: Seconds(stats::p50(values)),
            p95: Seconds(stats::p95(values)),
            p99: Seconds(stats::p99(values)),
        }
    }
}

/// Overall and per-priority-class ITL percentile summary of one serving
/// run. Both serving backends compute it with the same nearest-rank
/// definition over their finished requests, so on an identical trace
/// the per-class `samples` counts reconcile exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct ItlSummary {
    /// Percentiles over every finished request with an ITL observation.
    pub overall: ItlPercentiles,
    /// Per-class percentiles, indexed by [`Priority::index`].
    pub per_class: [ItlPercentiles; 3],
}

impl ItlSummary {
    /// Build the summary from `(priority, itl)` observations of
    /// finished requests; `None` ITLs (single-token outputs) are
    /// skipped.
    pub fn from_observations<I>(obs: I) -> Self
    where
        I: IntoIterator<Item = (Priority, Option<Seconds>)>,
    {
        let mut all = Vec::new();
        let mut per_class: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for (priority, itl) in obs {
            if let Some(itl) = itl {
                all.push(itl.value());
                per_class[priority.index()].push(itl.value());
            }
        }
        Self {
            overall: ItlPercentiles::from_values(&all),
            per_class: [
                ItlPercentiles::from_values(&per_class[0]),
                ItlPercentiles::from_values(&per_class[1]),
                ItlPercentiles::from_values(&per_class[2]),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_metrics() {
        let mut r = Request::new(1, Seconds(10.0), 128, 4);
        assert_eq!(r.context(), 128);
        assert_eq!(r.max_context(), 132);
        assert!(r.ttft().is_none());
        r.first_token_at = Some(Seconds(10.5));
        r.generated = 4;
        r.finished_at = Some(Seconds(11.0));
        assert!((r.ttft().unwrap().value() - 0.5).abs() < 1e-12);
        assert!((r.latency().unwrap().value() - 1.0).abs() < 1e-12);
        assert_eq!(r.context(), 132);
    }

    #[test]
    #[should_panic]
    fn zero_prompt_rejected() {
        Request::new(1, Seconds::ZERO, 0, 1);
    }

    #[test]
    fn shared_prefix_is_bounded_by_the_prompt() {
        let r = Request::new(1, Seconds::ZERO, 32, 4).with_shared_prefix(24);
        assert_eq!(r.shared_prefix_tokens, 24);
    }

    #[test]
    #[should_panic(expected = "shorter than the prompt")]
    fn fully_shared_prompt_rejected() {
        let _ = Request::new(1, Seconds::ZERO, 32, 4).with_shared_prefix(32);
    }

    #[test]
    fn itl_summary_splits_by_class_and_skips_single_token_outputs() {
        let obs = vec![
            (Priority::Interactive, Some(Seconds(0.010))),
            (Priority::Interactive, Some(Seconds(0.030))),
            (Priority::BestEffort, Some(Seconds(0.200))),
            (Priority::Standard, None), // single-token output: no ITL
        ];
        let s = ItlSummary::from_observations(obs);
        assert_eq!(s.overall.samples, 3);
        assert_eq!(s.per_class[Priority::Interactive.index()].samples, 2);
        assert_eq!(s.per_class[Priority::Standard.index()].samples, 0);
        assert_eq!(s.per_class[Priority::BestEffort.index()].samples, 1);
        assert!((s.overall.p99.value() - 0.200).abs() < 1e-12);
        let inter = s.per_class[Priority::Interactive.index()];
        assert!((inter.p50.value() - 0.010).abs() < 1e-12);
        assert!((inter.p99.value() - 0.030).abs() < 1e-12);
        assert_eq!(s.per_class[Priority::Standard.index()].p99.value(), 0.0);
    }

    #[test]
    fn replica_roles_cover_both_phases() {
        assert!(ReplicaRole::Prefill.accepts_prefill());
        assert!(!ReplicaRole::Prefill.accepts_decode());
        assert!(!ReplicaRole::Decode.accepts_prefill());
        assert!(ReplicaRole::Decode.accepts_decode());
        assert!(ReplicaRole::Unified.accepts_prefill() && ReplicaRole::Unified.accepts_decode());
        assert_eq!(ReplicaRole::default(), ReplicaRole::Unified);
        assert_eq!(ReplicaRole::Prefill.as_str(), "prefill");
    }

    #[test]
    fn priority_classes_order_and_index() {
        assert!(Priority::BestEffort < Priority::Standard);
        assert!(Priority::Standard < Priority::Interactive);
        for (i, p) in Priority::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        assert_eq!(Priority::default(), Priority::Standard);
        assert_eq!(
            Request::new(1, Seconds::ZERO, 8, 2)
                .with_priority(Priority::Interactive)
                .priority,
            Priority::Interactive
        );
        assert_eq!(Priority::BestEffort.as_str(), "best_effort");
    }
}
