//! Serving-runtime configuration.

use crate::breaker::BreakerConfig;
use crate::router::RoutingPolicy;
use llmib_sched::{BatchingPolicy, OverloadConfig};
use llmib_types::{Error, FaultPlan, ReplicaFaultPlan, ReplicaRole, Result, RetryPolicy};
use std::time::Duration;

/// Configuration of a live [`crate::Server`].
///
/// The scheduling knobs mirror [`llmib_sched::SimConfig`] on purpose:
/// the cross-validation harness runs the same configuration through the
/// discrete-event simulator and the live runtime and compares shapes.
/// The resilience knobs (retry, breaker, watchdog, fault plan) drive the
/// supervision layer around each engine step.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// How queued requests join the running batch. `Continuous` admits
    /// at every decode-step boundary (§IV-A1); `Static` only when the
    /// running batch has fully drained.
    pub policy: BatchingPolicy,
    /// Cap on concurrently decoding sequences (vLLM `max_num_seqs`).
    pub max_concurrency: usize,
    /// KV pool capacity in tokens, enforced through a
    /// [`llmib_sched::KvAllocator`].
    pub kv_capacity_tokens: u64,
    /// `Some(block)` = paged allocator with that block size; `None` =
    /// monolithic first-fit arena.
    pub kv_block_tokens: Option<u32>,
    /// Chunked prefill: `Some(budget)` splits each admission's prompt
    /// prefill into chunks of at most this many tokens, running one
    /// chunk per scheduler step interleaved with a decode step for all
    /// live sequences — a long prompt no longer stalls every in-flight
    /// decode stream (the ITL-tail killer; §IV-A1's phase-interleaving
    /// lever). `None` (the default) prefills monolithically inside
    /// admission. Outputs are bitwise identical either way.
    pub prefill_token_budget: Option<usize>,
    /// Bound of the ingress queue, applied twice: to the MPSC channel
    /// and to the scheduler's waiting queue (the scheduler stops
    /// draining the channel once that many requests wait, so the bound
    /// actually propagates back to submitters). A full queue rejects at
    /// submit time ([`crate::SubmitError::QueueFull`]) — overload sheds
    /// instead of buffering without limit.
    pub queue_capacity: usize,
    /// Retry policy for transient step errors: capped exponential
    /// backoff with deterministic jitter. When the budget is exhausted
    /// the stuck batch is failed (every live request gets a
    /// [`crate::FailReason::RetriesExhausted`] event) and the server
    /// keeps serving.
    pub retry: RetryPolicy,
    /// Circuit-breaker admission control over a rolling step-health
    /// window.
    pub breaker: BreakerConfig,
    /// A decode step slower than this counts as a watchdog stall: it is
    /// tallied in the report and fed to the breaker as a breach sample.
    /// `None` disables the watchdog. (Single-threaded detection: a
    /// stalled step is observed when it returns, not interrupted.)
    pub watchdog_step_timeout: Option<Duration>,
    /// Deterministic fault schedule, read by the scheduler's
    /// [`llmib_sched::FaultClock`]. Empty (the default) serves
    /// healthily; chaos tests and drills replay seeded plans. The
    /// plan's seed also drives the retry jitter.
    pub fault_plan: FaultPlan,
    /// Overload-survival policy: priority preemption with prefix-replay
    /// re-admission, plus the brownout degradation ladder. Fully
    /// disabled by default; the same [`OverloadConfig`] drives
    /// [`llmib_sched::ServingSimulator::with_overload`] so the two
    /// backends' overload counters reconcile exactly.
    pub overload: OverloadConfig,
}

impl ServeConfig {
    /// Check internal consistency.
    pub fn validate(&self) -> Result<()> {
        if self.max_concurrency == 0 {
            return Err(Error::InvalidConfig("max_concurrency must be > 0".into()));
        }
        if self.queue_capacity == 0 {
            return Err(Error::InvalidConfig("queue_capacity must be > 0".into()));
        }
        if self.kv_capacity_tokens == 0 {
            return Err(Error::InvalidConfig(
                "kv_capacity_tokens must be > 0".into(),
            ));
        }
        if self.kv_block_tokens == Some(0) {
            return Err(Error::InvalidConfig("kv block size must be > 0".into()));
        }
        if self.prefill_token_budget == Some(0) {
            return Err(Error::InvalidConfig(
                "prefill_token_budget must be > 0; use None for monolithic prefill".into(),
            ));
        }
        if self.retry.base_backoff.value() < 0.0 || self.retry.max_backoff.value() < 0.0 {
            return Err(Error::InvalidConfig("backoff must be non-negative".into()));
        }
        self.breaker.validate().map_err(Error::InvalidConfig)?;
        self.overload.validate().map_err(Error::InvalidConfig)?;
        Ok(())
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            policy: BatchingPolicy::Continuous,
            max_concurrency: 8,
            kv_capacity_tokens: 1 << 16,
            kv_block_tokens: Some(16),
            prefill_token_budget: None,
            queue_capacity: 64,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            watchdog_step_timeout: Some(Duration::from_millis(250)),
            fault_plan: FaultPlan::empty(),
            overload: OverloadConfig::default(),
        }
    }
}

/// Configuration of a [`crate::ReplicaPool`]: N independent replicas
/// (each a full [`ServeConfig`] instance — own `BatchSession`, KV
/// budget, breaker) fronted by a health-aware router.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Number of scheduler/engine replicas to spawn (>= 1).
    pub replicas: u32,
    /// How the router picks a replica for each dispatch.
    pub routing: RoutingPolicy,
    /// Per-replica configuration, applied identically to every replica.
    /// Its `fault_plan` must stay empty — replica-scoped faults go in
    /// [`PoolConfig::fault_plan`] instead.
    pub replica: ServeConfig,
    /// Replica-scoped deterministic fault schedule; each replica's
    /// slice is anchored to *its own* successful-decode-step clock.
    pub fault_plan: ReplicaFaultPlan,
    /// Hedged dispatch: when a request makes no progress for this long,
    /// re-issue it on a second replica (prefix-replayed); first to
    /// finish wins, the loser is cancelled. `None` disables hedging.
    pub hedge_after: Option<Duration>,
    /// Migrate a replica's in-flight requests away while its breaker is
    /// open (the replica itself stays up and may be routed to again
    /// once the breaker recovers).
    pub migrate_on_breaker_open: bool,
    /// Condemn a replica permanently once its watchdog-stall tally
    /// reaches this count, migrating its in-flight requests. `None`
    /// disables stall-based condemnation.
    pub condemn_stall_tally: Option<u32>,
    /// Disaggregated prefill/decode: per-replica roles, indexed by
    /// replica id. Empty (the default) leaves every replica
    /// [`ReplicaRole::Unified`] (classic aggregated serving). When set,
    /// the router sends admissions to prefill-capable replicas and, at
    /// each sequence's prefill/decode boundary (its first generated
    /// token), migrates it to a decode-capable replica by prefix
    /// replay — the same KV-shipping machinery failover uses, so the
    /// migrated stream is bitwise identical.
    pub roles: Vec<ReplicaRole>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self {
            replicas: 2,
            routing: RoutingPolicy::RoundRobin,
            replica: ServeConfig::default(),
            fault_plan: ReplicaFaultPlan::empty(),
            hedge_after: None,
            migrate_on_breaker_open: true,
            condemn_stall_tally: None,
            roles: Vec::new(),
        }
    }
}

impl PoolConfig {
    /// Check internal consistency.
    pub fn validate(&self) -> Result<()> {
        if self.replicas == 0 {
            return Err(Error::InvalidConfig("pool needs at least 1 replica".into()));
        }
        self.replica.validate()?;
        if !self.replica.fault_plan.events().is_empty() {
            return Err(Error::InvalidConfig(
                "replica.fault_plan must be empty in a pool; scope faults per replica \
                 via PoolConfig::fault_plan"
                    .into(),
            ));
        }
        if self.condemn_stall_tally == Some(0) {
            return Err(Error::InvalidConfig(
                "condemn_stall_tally of 0 would condemn healthy replicas; use None to disable"
                    .into(),
            ));
        }
        if !self.roles.is_empty() {
            if self.roles.len() != self.replicas as usize {
                return Err(Error::InvalidConfig(format!(
                    "roles has {} entries for {} replicas",
                    self.roles.len(),
                    self.replicas
                )));
            }
            if !self.roles.iter().any(|r| r.accepts_prefill()) {
                return Err(Error::InvalidConfig(
                    "disaggregated pool needs at least one prefill-capable replica".into(),
                ));
            }
            if !self.roles.iter().any(|r| r.accepts_decode()) {
                return Err(Error::InvalidConfig(
                    "disaggregated pool needs at least one decode-capable replica".into(),
                ));
            }
        }
        Ok(())
    }

    /// Role of replica `id` ([`ReplicaRole::Unified`] when no role map
    /// is configured).
    pub fn role_of(&self, id: usize) -> ReplicaRole {
        self.roles.get(id).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmib_types::Seconds;

    #[test]
    fn default_config_is_valid() {
        ServeConfig::default().validate().unwrap();
    }

    #[test]
    fn zero_knobs_are_rejected() {
        for breakit in [
            &mut |c: &mut ServeConfig| c.max_concurrency = 0,
            &mut |c: &mut ServeConfig| c.queue_capacity = 0,
            &mut |c: &mut ServeConfig| c.kv_capacity_tokens = 0,
            &mut |c: &mut ServeConfig| c.kv_block_tokens = Some(0),
            &mut |c: &mut ServeConfig| c.prefill_token_budget = Some(0),
            &mut |c: &mut ServeConfig| c.retry.base_backoff = Seconds(-1.0),
            &mut |c: &mut ServeConfig| c.breaker.degraded_concurrency = 0,
            &mut |c: &mut ServeConfig| {
                c.overload.brownout.enabled = true;
                c.overload.brownout.trip_after = 0;
            },
        ] as [&mut dyn FnMut(&mut ServeConfig); 8]
        {
            let mut c = ServeConfig::default();
            breakit(&mut c);
            assert!(c.validate().is_err());
        }
    }

    #[test]
    fn default_pool_config_is_valid() {
        PoolConfig::default().validate().unwrap();
    }

    #[test]
    fn pool_rejects_misplaced_or_degenerate_knobs() {
        use llmib_types::{FaultKind, ReplicaId};
        let c = PoolConfig {
            replicas: 0,
            ..PoolConfig::default()
        };
        assert!(c.validate().is_err());

        let mut c = PoolConfig::default();
        c.replica.fault_plan = FaultPlan::new(vec![llmib_types::FaultEvent {
            at_step: 1,
            kind: FaultKind::SchedulerPanic,
        }]);
        assert!(c.validate().is_err(), "faults must be replica-scoped");

        let c = PoolConfig {
            condemn_stall_tally: Some(0),
            ..PoolConfig::default()
        };
        assert!(c.validate().is_err());

        let c = PoolConfig {
            fault_plan: ReplicaFaultPlan::kill_replica(ReplicaId(1), 4),
            ..PoolConfig::default()
        };
        assert!(c.validate().is_ok(), "scoped faults are fine");
    }

    #[test]
    fn role_maps_are_validated() {
        use llmib_types::ReplicaRole;
        let ok = PoolConfig {
            roles: vec![ReplicaRole::Prefill, ReplicaRole::Decode],
            ..PoolConfig::default()
        };
        ok.validate().unwrap();
        assert_eq!(ok.role_of(0), ReplicaRole::Prefill);
        assert_eq!(ok.role_of(5), ReplicaRole::Unified, "out of map = unified");

        let wrong_len = PoolConfig {
            roles: vec![ReplicaRole::Prefill],
            ..PoolConfig::default()
        };
        assert!(wrong_len.validate().is_err());

        let no_decode = PoolConfig {
            roles: vec![ReplicaRole::Prefill, ReplicaRole::Prefill],
            ..PoolConfig::default()
        };
        assert!(no_decode.validate().is_err());

        let no_prefill = PoolConfig {
            roles: vec![ReplicaRole::Decode, ReplicaRole::Decode],
            ..PoolConfig::default()
        };
        assert!(no_prefill.validate().is_err());
    }
}
