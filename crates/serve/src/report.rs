//! Per-request and aggregate wall-clock serving metrics.
//!
//! Per-request numbers come straight from the paper's definitions in
//! `llmib_core::metrics` (Eq. 1 ITL, Eq. 2 throughput); aggregates use
//! the shared nearest-rank percentile helpers so live reports are
//! directly comparable with [`llmib_sched::ServingReport`].

use llmib_core::metrics::{mean, p50, p90, p99, InferenceMetrics, MetricInputs};
use llmib_sched::OverloadCounters;
use llmib_types::{ItlSummary, LatencySample, Priority, Seconds, TokenShape};
use serde::Serialize;

/// Wall-clock metrics of one completed request. All timestamps are
/// seconds since the server started.
#[derive(Debug, Clone, Serialize)]
pub struct RequestMetrics {
    /// Request id.
    pub id: u64,
    /// Prompt length in tokens.
    pub prompt_tokens: u32,
    /// Generated tokens.
    pub output_tokens: u32,
    /// When the request entered the ingress queue.
    pub submitted_at: Seconds,
    /// When it was admitted (prefill complete).
    pub admitted_at: Seconds,
    /// Time to first token, measured from submission (queueing included,
    /// as the paper's serving-side TTFT demands).
    pub ttft: Seconds,
    /// End-to-end latency from submission to last token.
    pub e2e: Seconds,
    /// Eq. 1 inter-token latency; `None` for single-token outputs.
    pub itl: Option<Seconds>,
    /// Eq. 2 per-request throughput, `(prompt + output) / e2e`.
    pub throughput_tokens_per_s: f64,
    /// Prompt tokens whose prefill was skipped because their KV blocks
    /// were already resident in the engine's shared-prefix cache. Zero
    /// for a cold admission (or when the prefix cache is disabled).
    pub cached_prefix_tokens: u32,
    /// Scheduling class the request ran under — per-class latency
    /// aggregation keys on it.
    pub priority: Priority,
}

impl RequestMetrics {
    /// Derive final metrics from raw timestamps via the paper's
    /// equations (`llmib_core::metrics`).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_timestamps(
        id: u64,
        prompt_tokens: u32,
        output_tokens: u32,
        submitted_at: Seconds,
        admitted_at: Seconds,
        first_token_at: Seconds,
        finished_at: Seconds,
        cached_prefix_tokens: u32,
        priority: Priority,
    ) -> Self {
        let e2e = Seconds(finished_at.value() - submitted_at.value());
        let ttft = Seconds(first_token_at.value() - submitted_at.value());
        let derived = InferenceMetrics::from_latencies(MetricInputs {
            shape: TokenShape::new(prompt_tokens, output_tokens, 1),
            e2e,
            ttft,
        });
        Self {
            id,
            prompt_tokens,
            output_tokens,
            submitted_at,
            admitted_at,
            ttft,
            e2e,
            itl: derived.itl,
            throughput_tokens_per_s: derived.throughput.value(),
            cached_prefix_tokens,
            priority,
        }
    }
}

/// Prefix-cache counters of one serving run, field-compatible with the
/// `prefix_hits` / `saved_prefill_tokens` pair on
/// [`llmib_sched::ServingReport`] so the cross-validation harness can
/// compare them for exact equality on the same trace.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct PrefixCounters {
    /// Admissions that reused at least one resident shared-prefix block.
    pub hits: u32,
    /// Prompt tokens whose prefill was skipped via those hits.
    pub saved_prefill_tokens: u64,
}

/// Robustness counters of one serving run: what went wrong, what the
/// supervision layer did about it, and whether the run degraded
/// gracefully. All zero on a healthy run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct RobustnessStats {
    /// Requests that reached scheduler intake. At shutdown this
    /// reconciles: `submitted = completed + failed + cancelled +
    /// shed_deadline + rejected_oversized` (see
    /// [`ServeReport::reconciles`]).
    pub submitted: u32,
    /// Admitted requests killed by a fault (poison, retry exhaustion,
    /// KV accounting failure).
    pub failed: u32,
    /// Requests cancelled by their client (queued or mid-decode).
    pub cancelled: u32,
    /// Transient-step retries performed (each slept one backoff).
    pub retries: u32,
    /// Mid-flight evictions (failed requests pulled out of the batch).
    pub evictions: u32,
    /// Steps that exceeded the watchdog timeout.
    pub watchdog_stalls: u32,
    /// Faults the fault clock activated from the plan.
    pub faults_injected: u32,
    /// KV reservation invariant violations (typed, per-request).
    pub kv_accounting_failures: u32,
    /// Times the circuit breaker tripped open.
    pub breaker_opened: u32,
    /// Steps recorded while the breaker was not closed.
    pub breaker_degraded_steps: u64,
    /// Times the breaker recovered (`HalfOpen → Closed`).
    pub breaker_recoveries: u32,
    /// Admitted requests evicted because their deadline expired
    /// mid-decode (resolved [`crate::FailReason::DeadlineExceeded`];
    /// also counted in [`RobustnessStats::failed`]).
    pub deadline_exceeded: u32,
    /// Pool-only: requests re-admitted on a healthy replica after their
    /// original replica died or was condemned.
    pub migrations: u32,
    /// Pool-only: tokens already streamed at migration time, replayed as
    /// prefill prefix on the new replica (the failover-cost currency the
    /// simulator cross-validates).
    pub migrated_tokens: u64,
    /// Pool-only: replicas that died (scheduler panic or relay loss) and
    /// were permanently removed from routing.
    pub replicas_lost: u32,
    /// Pool-only: sequences handed off from a prefill-role replica to a
    /// decode-role replica at their prefill/decode boundary (first
    /// generated token) under disaggregated serving
    /// ([`crate::PoolConfig::roles`]). Counted separately from
    /// failure-driven `migrations`; the KV shipping mechanism (prefix
    /// replay) is the same.
    pub disagg_handoffs: u32,
    /// Pool-only: hedged dispatches issued for stragglers (a duplicate
    /// of a stalled request raced on a second replica).
    pub hedges: u32,
    /// The scheduler thread died (contained panic). Outstanding clients
    /// were resolved with [`crate::FailReason::ServerFailed`]; the rest
    /// of this report reflects only what the fallback could observe.
    pub server_failed: bool,
}

/// Aggregate outcome of a serving run, returned by
/// [`crate::Server::shutdown`]. Field-compatible in spirit with
/// [`llmib_sched::ServingReport`] so the cross-validation harness can
/// compare shapes directly.
#[derive(Debug, Clone, Serialize)]
pub struct ServeReport {
    /// Requests served to completion.
    pub completed: u32,
    /// Requests shed because their deadline expired while queued.
    pub shed_deadline: u32,
    /// Requests rejected because they can never fit (KV pool or model
    /// context limit).
    pub rejected_oversized: u32,
    /// First submission to last completion.
    pub makespan: Seconds,
    /// Eq. 2 aggregate throughput over the completed set.
    pub throughput_tokens_per_s: f64,
    /// Mean time to first token (queueing included).
    pub mean_ttft: Seconds,
    /// Mean Eq. 1 inter-token latency across completed requests.
    pub mean_itl: Seconds,
    /// ITL percentile summary, overall and per priority class — the
    /// tail view `mean_itl` hides (one long-prompt prefill stall
    /// inflates p99 long before it moves the mean).
    pub itl: ItlSummary,
    /// Median end-to-end latency.
    pub p50_latency: Seconds,
    /// 90th-percentile end-to-end latency.
    pub p90_latency: Seconds,
    /// 99th-percentile end-to-end latency.
    pub p99_latency: Seconds,
    /// Mean live batch size over decode steps.
    pub mean_batch_occupancy: f64,
    /// Peak KV-pool utilization observed.
    pub peak_kv_utilization: f64,
    /// Decode steps executed.
    pub decode_steps: u64,
    /// Prefill chunks executed under chunked prefill
    /// ([`crate::ServeConfig::prefill_token_budget`]); 0 under
    /// monolithic prefill. Per request this is exactly
    /// `ceil(cold_prompt_tokens / budget)`, which the simulator mirrors
    /// for exact reconciliation.
    pub prefill_chunks: u64,
    /// Sequence ids in the order the scheduler admitted them — replaying
    /// this order through a plain [`llmib_engine::BatchSession`] must
    /// reproduce every token bitwise (see [`crate::replay_admission_order`]).
    pub admission_order: Vec<u64>,
    /// Per-request metrics of every completed request, in completion
    /// order.
    pub per_request: Vec<RequestMetrics>,
    /// Fault/retry/degradation counters of the run.
    pub robustness: RobustnessStats,
    /// Shared-prefix KV-cache counters (hits and saved prefill tokens),
    /// counted at admission time — so they cover failed and cancelled
    /// requests too, exactly like the simulator's model.
    pub prefix: PrefixCounters,
    /// Overload-layer counters: per-reason rejections, preemption and
    /// brownout tallies, per-priority-class breakdowns.
    pub overload: OverloadCounters,
}

impl ServeReport {
    /// The per-request latency observations of every completed request,
    /// in request-id order — the same [`LatencySample`] shape
    /// `llmib_sched::ServingReport` exposes, so one SLO spec evaluates
    /// identically against the live runtime and the simulator on the
    /// same trace.
    pub fn latency_samples(&self) -> Vec<LatencySample> {
        let mut samples: Vec<LatencySample> = self
            .per_request
            .iter()
            .map(|m| LatencySample {
                id: m.id,
                prompt_tokens: m.prompt_tokens,
                output_tokens: m.output_tokens,
                ttft: m.ttft,
                itl: m.itl,
                e2e: m.e2e,
            })
            .collect();
        samples.sort_by_key(|s| s.id);
        samples
    }

    /// Whether the lifecycle counters account for every request that
    /// reached the scheduler: every submission resolves as exactly one
    /// of completed, failed, cancelled, or a per-reason rejection
    /// (deadline shed, oversized, queue-full, brownout shed, internal).
    /// Holds after a graceful shutdown; not meaningful when
    /// [`RobustnessStats::server_failed`] is set (a dead scheduler
    /// strands bookkeeping mid-flight by design).
    pub fn reconciles(&self) -> bool {
        self.robustness.submitted
            == self.completed
                + self.robustness.failed
                + self.robustness.cancelled
                + self.shed_deadline
                + self.rejected_oversized
                + self.overload.rejected_queue_full
                + self.overload.rejected_internal
                + self.overload.shed_brownout
    }

    /// The report a contained scheduler death produces: no per-request
    /// data survives the unwind, only the fact of the failure.
    pub(crate) fn from_server_failure() -> Self {
        let mut report = Self::from_parts(
            Vec::new(),
            0,
            0,
            Seconds(0.0),
            0,
            0,
            0.0,
            0.0,
            Vec::new(),
            RobustnessStats::default(),
            PrefixCounters::default(),
            OverloadCounters::default(),
        );
        report.robustness.server_failed = true;
        report
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        per_request: Vec<RequestMetrics>,
        shed_deadline: u32,
        rejected_oversized: u32,
        makespan: Seconds,
        decode_steps: u64,
        prefill_chunks: u64,
        occupancy_acc: f64,
        peak_kv_utilization: f64,
        admission_order: Vec<u64>,
        robustness: RobustnessStats,
        prefix: PrefixCounters,
        overload: OverloadCounters,
    ) -> Self {
        let completed = per_request.len() as u32;
        let total_tokens: u64 = per_request
            .iter()
            .map(|m| u64::from(m.prompt_tokens) + u64::from(m.output_tokens))
            .sum();
        let latencies: Vec<f64> = per_request.iter().map(|m| m.e2e.value()).collect();
        let ttfts: Vec<f64> = per_request.iter().map(|m| m.ttft.value()).collect();
        let itls: Vec<f64> = per_request
            .iter()
            .filter_map(|m| m.itl.map(|s| s.value()))
            .collect();
        let itl = ItlSummary::from_observations(per_request.iter().map(|m| (m.priority, m.itl)));
        Self {
            completed,
            shed_deadline,
            rejected_oversized,
            makespan,
            throughput_tokens_per_s: if makespan.value() > 0.0 {
                total_tokens as f64 / makespan.value()
            } else {
                0.0
            },
            mean_ttft: Seconds(mean(&ttfts)),
            mean_itl: Seconds(mean(&itls)),
            itl,
            p50_latency: Seconds(p50(&latencies)),
            p90_latency: Seconds(p90(&latencies)),
            p99_latency: Seconds(p99(&latencies)),
            mean_batch_occupancy: if decode_steps > 0 {
                occupancy_acc / decode_steps as f64
            } else {
                0.0
            },
            peak_kv_utilization,
            decode_steps,
            prefill_chunks,
            admission_order,
            per_request,
            robustness,
            prefix,
            overload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_metrics_match_paper_equations() {
        let m = RequestMetrics::from_timestamps(
            7,
            128,
            33,
            Seconds(1.0),
            Seconds(1.2),
            Seconds(1.5),
            Seconds(3.5),
            0,
            Priority::Standard,
        );
        assert!((m.ttft.value() - 0.5).abs() < 1e-12);
        assert!((m.e2e.value() - 2.5).abs() < 1e-12);
        // Eq. 1: (e2e - ttft) / (output - 1).
        assert!((m.itl.unwrap().value() - 2.0 / 32.0).abs() < 1e-12);
        // Eq. 2: (prompt + output) / e2e.
        assert!((m.throughput_tokens_per_s - 161.0 / 2.5).abs() < 1e-9);
    }

    #[test]
    fn report_aggregates_percentiles_and_throughput() {
        let reqs: Vec<RequestMetrics> = (0..10)
            .map(|i| {
                RequestMetrics::from_timestamps(
                    i,
                    10,
                    11,
                    Seconds(0.0),
                    Seconds(0.1),
                    Seconds(0.2),
                    Seconds(1.0 + i as f64),
                    0,
                    Priority::Standard,
                )
            })
            .collect();
        let rep = ServeReport::from_parts(
            reqs,
            2,
            1,
            Seconds(10.0),
            100,
            0,
            250.0,
            0.5,
            (0..10).collect(),
            RobustnessStats {
                submitted: 13,
                ..RobustnessStats::default()
            },
            PrefixCounters::default(),
            OverloadCounters::default(),
        );
        assert_eq!(rep.completed, 10);
        assert_eq!(rep.shed_deadline, 2);
        assert_eq!(rep.rejected_oversized, 1);
        assert!((rep.throughput_tokens_per_s - 21.0).abs() < 1e-9);
        assert!((rep.p50_latency.value() - 5.0).abs() < 1e-12);
        assert!((rep.p99_latency.value() - 10.0).abs() < 1e-12);
        assert!((rep.mean_batch_occupancy - 2.5).abs() < 1e-12);
        assert_eq!(rep.admission_order.len(), 10);
        assert!(rep.reconciles(), "10 + 2 + 1 = 13 submitted");
    }

    #[test]
    fn reconciliation_counts_failures_and_cancellations() {
        let rep = ServeReport::from_parts(
            Vec::new(),
            1,
            0,
            Seconds(1.0),
            10,
            0,
            10.0,
            0.1,
            Vec::new(),
            RobustnessStats {
                submitted: 4,
                failed: 2,
                cancelled: 1,
                ..RobustnessStats::default()
            },
            PrefixCounters::default(),
            OverloadCounters::default(),
        );
        assert!(rep.reconciles());
    }

    #[test]
    fn reconciliation_counts_every_reject_reason_separately() {
        let overload = OverloadCounters {
            rejected_queue_full: 2,
            rejected_internal: 1,
            shed_brownout: 3,
            ..OverloadCounters::default()
        };
        let mut rep = ServeReport::from_parts(
            Vec::new(),
            1,
            1,
            Seconds(1.0),
            10,
            0,
            10.0,
            0.1,
            Vec::new(),
            RobustnessStats {
                submitted: 8,
                ..RobustnessStats::default()
            },
            PrefixCounters::default(),
            overload,
        );
        assert!(rep.reconciles(), "1 + 1 + 2 + 1 + 3 = 8 submitted");
        // The old catch-all would have booked all five non-deadline
        // refusals as oversized; per-reason books must not balance if a
        // reason is miscounted.
        rep.overload.rejected_internal = 0;
        rep.rejected_oversized = 2;
        assert!(rep.reconciles(), "totals still balance");
        rep.rejected_oversized = 3;
        assert!(!rep.reconciles(), "an over-count is caught");
    }

    #[test]
    fn server_failure_report_is_marked() {
        let rep = ServeReport::from_server_failure();
        assert!(rep.robustness.server_failed);
        assert_eq!(rep.completed, 0);
    }
}
