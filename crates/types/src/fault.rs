//! The shared fault model of the serving stack.
//!
//! Real accelerator fleets stall, throw transient device errors, and hit
//! memory pressure mid-batch; a load-response curve is only meaningful
//! if the system degrades gracefully under those conditions instead of
//! collapsing. This module defines the *deterministic* fault vocabulary
//! both serving halves consume: the live runtime in `llmib-serve`
//! injects a [`FaultPlan`] at its engine-step boundary, and the
//! discrete-event simulator in `llmib-sched` interprets the identical
//! plan on its simulated clock — so a chaos scenario can be replayed,
//! cross-validated, and bisected exactly like a healthy trace.
//!
//! Faults are anchored to *decode-step indices*, not wall-clock times:
//! step counts are the one clock the live engine and the simulator
//! share, which is what makes a plan portable between them.

use crate::Seconds;
use serde::Serialize;

/// Identifier of one engine replica in a multi-replica serving pool.
///
/// Replica indices are dense and assigned in spawn order (`0..n`), in
/// both the live `llmib-serve` pool and the `llmib-sched` replicated
/// simulator — which is what lets a [`ReplicaFaultPlan`] name the same
/// replica in both backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct ReplicaId(pub u32);

impl std::fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "replica {}", self.0)
    }
}

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum FaultKind {
    /// A latency spike: the decode step at the anchor index takes
    /// `extra` seconds longer than the healthy step would (a stalled
    /// kernel, a thermally throttled device, a page migration).
    StepStall {
        /// Additional latency added to the step.
        extra: Seconds,
    },
    /// A retryable device fault: the next `failures` step attempts fail
    /// before one succeeds. A supervisor that retries with backoff rides
    /// it out; one that does not strands the whole batch.
    TransientStepError {
        /// Consecutive failing attempts before the step succeeds.
        failures: u32,
    },
    /// One request deterministically fails once it is live at or after
    /// the anchor step (a corrupted KV page, a per-sequence numerical
    /// fault). Only that request must die; the rest of the batch
    /// continues untouched.
    RequestPoison {
        /// The id of the request that fails.
        request: u64,
    },
    /// Temporary memory pressure: the effective KV pool shrinks to
    /// `capacity_factor` of its configured size for `steps` decode
    /// steps. Admission must throttle; already-admitted sequences keep
    /// their reservations.
    MemoryPressure {
        /// Fraction of the configured pool that remains usable (0..=1].
        capacity_factor: f64,
        /// How many decode steps the pressure lasts.
        steps: u64,
    },
    /// The scheduler itself dies at the anchor step (a crashed worker
    /// process). Supervision must contain the failure so every
    /// outstanding client resolves with an explicit server-failure
    /// outcome instead of hanging on a dead channel.
    SchedulerPanic,
}

/// One fault, anchored to the decode-step index at which it activates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FaultEvent {
    /// Index of the decode step (0-based, counted over *successful*
    /// steps) at which the fault activates.
    pub at_step: u64,
    /// What goes wrong.
    pub kind: FaultKind,
}

/// A deterministic, replayable schedule of faults.
///
/// Plans are ordered by activation step. Two consumers interpreting the
/// same plan against the same trace see the same faults at the same
/// step boundaries — the foundation of the chaos suite's
/// faulted-vs-healthy bitwise comparisons.
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct FaultPlan {
    /// Seed the plan was generated from (0 for hand-built plans); also
    /// seeds the deterministic retry jitter.
    pub seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan with no faults (the healthy baseline).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Build a plan from explicit events (sorted by activation step).
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at_step);
        Self { seed: 0, events }
    }

    /// Generate a random-but-reproducible plan: a handful of stalls,
    /// transient bursts, at most one poisoned request drawn from
    /// `request_ids`, and at most one pressure window, all anchored
    /// within `horizon_steps`. The same `(seed, horizon, ids)` always
    /// yields the same plan. `SchedulerPanic` is never generated — it is
    /// only ever injected explicitly.
    pub fn seeded(seed: u64, horizon_steps: u64, request_ids: &[u64]) -> Self {
        let horizon = horizon_steps.max(1);
        let mut rng = SplitMix64::new(seed);
        let mut events = Vec::new();
        for _ in 0..rng.below(3) {
            events.push(FaultEvent {
                at_step: rng.below(horizon),
                kind: FaultKind::StepStall {
                    extra: Seconds(0.002 + 0.01 * rng.unit()),
                },
            });
        }
        for _ in 0..rng.below(3) {
            events.push(FaultEvent {
                at_step: rng.below(horizon),
                kind: FaultKind::TransientStepError {
                    failures: 1 + rng.below(3) as u32,
                },
            });
        }
        if !request_ids.is_empty() && rng.below(2) == 1 {
            events.push(FaultEvent {
                at_step: rng.below(horizon),
                kind: FaultKind::RequestPoison {
                    request: request_ids[rng.below(request_ids.len() as u64) as usize],
                },
            });
        }
        if rng.below(2) == 1 {
            events.push(FaultEvent {
                at_step: rng.below(horizon),
                kind: FaultKind::MemoryPressure {
                    capacity_factor: 0.25 + 0.5 * rng.unit(),
                    steps: 1 + rng.below(horizon.min(16)),
                },
            });
        }
        events.sort_by_key(|e| e.at_step);
        Self { seed, events }
    }

    /// The planned events, ordered by activation step.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of planned faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Append one event, keeping activation order.
    pub fn push(&mut self, event: FaultEvent) {
        self.events.push(event);
        self.events.sort_by_key(|e| e.at_step);
    }

    /// Builder-style [`FaultPlan::push`].
    #[must_use]
    pub fn with(mut self, event: FaultEvent) -> Self {
        self.push(event);
        self
    }
}

/// A replica-scoped fault schedule for a pool of engine replicas.
///
/// Each event is anchored both to a [`ReplicaId`] and to that replica's
/// *own* successful-decode-step clock: replica 2 panicking "at step 6"
/// means after six successful steps of replica 2, regardless of what the
/// rest of the pool is doing. Both the live `ReplicaPool` in
/// `llmib-serve` and `ServingSimulator::run_pool` in `llmib-sched`
/// split a pool plan into per-replica [`FaultPlan`]s via
/// [`ReplicaFaultPlan::plan_for`], so one pool plan describes one chaos
/// scenario in both backends.
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct ReplicaFaultPlan {
    /// Seed the plan was generated from (0 for hand-built plans); also
    /// seeds each replica's deterministic retry jitter.
    pub seed: u64,
    events: Vec<(ReplicaId, FaultEvent)>,
}

impl ReplicaFaultPlan {
    /// A pool plan with no faults (the healthy baseline).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Build a pool plan from explicit `(replica, event)` pairs, kept
    /// ordered by `(replica, activation step)`.
    pub fn new(mut events: Vec<(ReplicaId, FaultEvent)>) -> Self {
        events.sort_by_key(|(replica, ev)| (*replica, ev.at_step));
        Self { seed: 0, events }
    }

    /// Scope an entire single-instance plan to one replica of the pool
    /// (the other replicas stay healthy).
    pub fn single(replica: ReplicaId, plan: FaultPlan) -> Self {
        let seed = plan.seed;
        let events = plan.events().iter().map(|&ev| (replica, ev)).collect();
        let mut pool = Self::new(events);
        pool.seed = seed;
        pool
    }

    /// Replay the same single-instance plan on every replica of an
    /// `n`-replica pool (each on its own step clock).
    pub fn broadcast(plan: &FaultPlan, replicas: u32) -> Self {
        let events = (0..replicas)
            .flat_map(|r| plan.events().iter().map(move |&ev| (ReplicaId(r), ev)))
            .collect();
        let mut pool = Self::new(events);
        pool.seed = plan.seed;
        pool
    }

    /// The drill staple: kill exactly one replica at one of its decode
    /// steps, leaving the rest of the pool healthy.
    pub fn kill_replica(replica: ReplicaId, at_step: u64) -> Self {
        Self::single(
            replica,
            FaultPlan::new(vec![FaultEvent {
                at_step,
                kind: FaultKind::SchedulerPanic,
            }]),
        )
    }

    /// Extract one replica's schedule as a plain [`FaultPlan`] (same
    /// seed, so retry jitter is identical whichever backend replays it).
    pub fn plan_for(&self, replica: ReplicaId) -> FaultPlan {
        let mut plan = FaultPlan::new(
            self.events
                .iter()
                .filter(|(r, _)| *r == replica)
                .map(|&(_, ev)| ev)
                .collect(),
        );
        plan.seed = self.seed;
        plan
    }

    /// The planned `(replica, event)` pairs, ordered by `(replica,
    /// activation step)`.
    pub fn events(&self) -> &[(ReplicaId, FaultEvent)] {
        &self.events
    }

    /// Whether the pool plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of planned faults across all replicas.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Append one replica-scoped event, keeping order.
    pub fn push(&mut self, replica: ReplicaId, event: FaultEvent) {
        self.events.push((replica, event));
        self.events.sort_by_key(|(r, ev)| (*r, ev.at_step));
    }

    /// Builder-style [`ReplicaFaultPlan::push`].
    #[must_use]
    pub fn with(mut self, replica: ReplicaId, event: FaultEvent) -> Self {
        self.push(replica, event);
        self
    }
}

/// Why an engine step could not complete. Returned across the
/// engine-step trait boundary so a supervisor can choose the right
/// recovery: retry a transient, isolate a poisoned request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum StepError {
    /// A retryable device fault; the step may succeed if retried.
    Transient,
    /// This specific request is deterministically failing and must be
    /// evicted before the batch can make progress.
    Poisoned {
        /// The failing request's id.
        request: u64,
    },
}

impl std::fmt::Display for StepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepError::Transient => write!(f, "transient device fault (retryable)"),
            StepError::Poisoned { request } => {
                write!(f, "request {request} poisoned (evict to continue)")
            }
        }
    }
}

/// Capped exponential backoff with deterministic jitter.
///
/// Both the live runtime (wall-clock sleeps) and the simulator
/// (simulated-clock advances) price retries through this policy, so a
/// fault plan costs the same number of retry attempts in both — and the
/// jitter is a pure function of `(seed, attempt)`, never an ambient RNG,
/// so replays are exact.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RetryPolicy {
    /// Maximum retry attempts for one step before the supervisor gives
    /// up and fails the affected requests.
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_backoff: Seconds,
    /// Cap on any single backoff.
    pub max_backoff: Seconds,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 5,
            base_backoff: Seconds(0.0005),
            max_backoff: Seconds(0.010),
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry `attempt` (1-based): the capped exponential
    /// `min(base * 2^(attempt-1), max)`, scaled by a deterministic
    /// jitter factor in `[0.5, 1.0)` derived from `(jitter_seed,
    /// attempt)`.
    pub fn backoff(&self, attempt: u32, jitter_seed: u64) -> Seconds {
        let exp = self.base_backoff.value().max(0.0)
            * f64::from(2u32.saturating_pow(attempt.saturating_sub(1).min(30)));
        let capped = exp.min(self.max_backoff.value());
        let jitter = 0.5 + 0.5 * SplitMix64::new(jitter_seed ^ u64::from(attempt)).unit();
        Seconds(capped * jitter)
    }
}

/// Minimal deterministic RNG (SplitMix64) so the fault vocabulary has no
/// dependency on an external RNG crate and jitter/plan generation stay
/// pure functions of their seeds.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`.
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_ordered() {
        let a = FaultPlan::seeded(42, 100, &[1, 2, 3]);
        let b = FaultPlan::seeded(42, 100, &[1, 2, 3]);
        assert_eq!(a, b);
        assert!(a.events().windows(2).all(|w| w[0].at_step <= w[1].at_step));
        assert_ne!(a, FaultPlan::seeded(43, 100, &[1, 2, 3]));
    }

    #[test]
    fn seeded_plans_never_contain_panics_and_respect_horizon() {
        for seed in 0..64 {
            let plan = FaultPlan::seeded(seed, 50, &[7, 8]);
            for ev in plan.events() {
                assert!(ev.at_step < 50, "anchor within horizon");
                match ev.kind {
                    FaultKind::SchedulerPanic => panic!("seeded plans must not panic"),
                    FaultKind::RequestPoison { request } => {
                        assert!(request == 7 || request == 8)
                    }
                    FaultKind::MemoryPressure {
                        capacity_factor, ..
                    } => {
                        assert!(capacity_factor > 0.0 && capacity_factor <= 1.0)
                    }
                    FaultKind::TransientStepError { failures } => assert!(failures >= 1),
                    FaultKind::StepStall { extra } => assert!(extra.value() > 0.0),
                }
            }
        }
    }

    #[test]
    fn push_keeps_order() {
        let plan = FaultPlan::empty()
            .with(FaultEvent {
                at_step: 9,
                kind: FaultKind::SchedulerPanic,
            })
            .with(FaultEvent {
                at_step: 2,
                kind: FaultKind::TransientStepError { failures: 1 },
            });
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.events()[0].at_step, 2);
    }

    #[test]
    fn backoff_is_capped_exponential_with_deterministic_jitter() {
        let p = RetryPolicy {
            max_retries: 8,
            base_backoff: Seconds(0.001),
            max_backoff: Seconds(0.004),
        };
        let b1 = p.backoff(1, 99);
        let b2 = p.backoff(2, 99);
        let b5 = p.backoff(5, 99);
        // Jitter keeps each in [0.5, 1.0) of the nominal value.
        assert!(b1.value() >= 0.0005 && b1.value() < 0.001, "{b1:?}");
        assert!(b2.value() >= 0.001 && b2.value() < 0.002, "{b2:?}");
        // Attempt 5 nominal = 16 ms, capped at 4 ms.
        assert!(b5.value() >= 0.002 && b5.value() < 0.004, "{b5:?}");
        // Pure function of (seed, attempt).
        assert_eq!(p.backoff(3, 7).value(), p.backoff(3, 7).value());
        assert_ne!(p.backoff(3, 7).value(), p.backoff(3, 8).value());
    }

    #[test]
    fn replica_plan_scopes_events_per_replica() {
        let pool = ReplicaFaultPlan::new(vec![
            (
                ReplicaId(1),
                FaultEvent {
                    at_step: 4,
                    kind: FaultKind::SchedulerPanic,
                },
            ),
            (
                ReplicaId(0),
                FaultEvent {
                    at_step: 2,
                    kind: FaultKind::TransientStepError { failures: 1 },
                },
            ),
        ]);
        assert_eq!(pool.len(), 2);
        let p0 = pool.plan_for(ReplicaId(0));
        assert_eq!(p0.len(), 1);
        assert_eq!(p0.events()[0].at_step, 2);
        let p1 = pool.plan_for(ReplicaId(1));
        assert_eq!(p1.events()[0].kind, FaultKind::SchedulerPanic);
        assert!(pool.plan_for(ReplicaId(2)).is_empty());
    }

    #[test]
    fn broadcast_replays_the_plan_on_every_replica() {
        let base = FaultPlan::seeded(9, 20, &[1]);
        let pool = ReplicaFaultPlan::broadcast(&base, 3);
        assert_eq!(pool.len(), 3 * base.len());
        assert_eq!(pool.seed, base.seed);
        for r in 0..3 {
            assert_eq!(pool.plan_for(ReplicaId(r)), base);
        }
    }

    #[test]
    fn kill_replica_is_a_single_scoped_panic() {
        let pool = ReplicaFaultPlan::kill_replica(ReplicaId(2), 7);
        assert_eq!(pool.len(), 1);
        let plan = pool.plan_for(ReplicaId(2));
        assert_eq!(plan.events()[0].at_step, 7);
        assert_eq!(plan.events()[0].kind, FaultKind::SchedulerPanic);
        assert!(pool.plan_for(ReplicaId(0)).is_empty());
    }

    #[test]
    fn step_error_display() {
        assert!(StepError::Transient.to_string().contains("retryable"));
        assert!(StepError::Poisoned { request: 4 }.to_string().contains('4'));
    }
}
