//! Admission and overload-survival policy shared by both serving
//! backends.
//!
//! The live `llmib-serve` scheduler and the discrete-event
//! [`crate::ServingSimulator`] run the *same* admission pass,
//! [`Admission::admit`], over the same [`KvBudget`] ledger, so their
//! counters reconcile exactly on an identical trace. A backend is an
//! [`AdmitExecutor`] that only differs in *what* it schedules (engine
//! sequences vs. simulated requests).
//!
//! * **Priority preemption** — when a higher-class request cannot
//!   reserve KV, the pass evicts the youngest running sequence of the
//!   lowest class strictly below the preemptor's and re-admits it later
//!   by prefix replay (its generated tokens fold into the prompt, vLLM
//!   recompute-on-preempt style). Greedy decode through one shared
//!   kernel is independent of batch composition, so the resumed stream
//!   is bitwise identical to an uncontended run.
//! * **Brownout** — a deterministic degradation ladder driven by
//!   admission starvation at decode-step boundaries, with step-count
//!   hysteresis (no wall clock, so the simulator replays it exactly):
//!   level 1 clamps `max_new_tokens` for best-effort admissions, level
//!   2 additionally sheds queued best-effort requests outright.

use crate::budget::KvBudget;
use llmib_types::Priority;
use serde::Serialize;
use std::collections::VecDeque;

/// How requests are admitted into the running batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum BatchingPolicy {
    /// Orca/vLLM-style continuous batching: new requests join at any
    /// decode-step boundary (§IV-A1: "new requests of variable length can
    /// be processed without waiting for the previous batch").
    Continuous,
    /// Static batching: a batch runs to completion before the next is
    /// admitted (llama.cpp-style).
    Static,
}

impl BatchingPolicy {
    /// Whether an admission pass may run while `held` sequences hold a
    /// batch slot (decoding or still prefilling): a static batch admits
    /// only once the previous wave has fully drained.
    pub fn may_admit(self, held: usize) -> bool {
        match self {
            BatchingPolicy::Continuous => true,
            BatchingPolicy::Static => held == 0,
        }
    }
}

/// Brownout controller knobs. Disabled by default; both backends run
/// the identical controller when enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct BrownoutConfig {
    /// Master switch; `false` preserves the all-or-nothing behavior.
    pub enabled: bool,
    /// Consecutive starved decode steps before escalating one level.
    pub trip_after: u32,
    /// Consecutive healthy decode steps before de-escalating one level.
    pub recover_after: u32,
    /// Level ≥ 1 clamp on `max_new_tokens` for newly admitted
    /// best-effort requests (never applied to replays, which must keep
    /// their remaining budget to stay bitwise identical).
    pub degraded_max_new_tokens: usize,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            trip_after: 4,
            recover_after: 8,
            degraded_max_new_tokens: 8,
        }
    }
}

impl BrownoutConfig {
    /// Validate the knobs; both backends call this at construction.
    pub fn validate(&self) -> Result<(), String> {
        if !self.enabled {
            return Ok(());
        }
        if self.trip_after == 0 {
            return Err("brownout trip_after must be > 0".into());
        }
        if self.recover_after == 0 {
            return Err("brownout recover_after must be > 0".into());
        }
        if self.degraded_max_new_tokens == 0 {
            return Err("brownout degraded_max_new_tokens must be > 0".into());
        }
        Ok(())
    }
}

/// The overload-survival policy block: preemption plus brownout.
/// Fully disabled by default so existing configurations keep their
/// exact behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct OverloadConfig {
    /// Allow preempting running lower-class sequences when a
    /// higher-class request cannot reserve KV.
    pub preemption: bool,
    /// Brownout degradation ladder.
    pub brownout: BrownoutConfig,
}

impl OverloadConfig {
    /// Whether any overload machinery is active.
    pub fn active(&self) -> bool {
        self.preemption || self.brownout.enabled
    }

    /// Validate the policy block.
    pub fn validate(&self) -> Result<(), String> {
        self.brownout.validate()
    }
}

/// Deterministic brownout ladder with step-count hysteresis.
///
/// The signal is *admission starvation*: a decode step is starved when
/// the admission pass left an arrived request unadmitted because KV
/// reservation failed even after preemption. `trip_after` consecutive
/// starved steps escalate one level (max 2); `recover_after`
/// consecutive healthy steps de-escalate one. Opposite samples reset
/// the run counters, so a series oscillating around the threshold
/// never flaps the level every step — mirroring the circuit breaker's
/// HalfOpen→Closed discipline, but on the step clock instead of wall
/// time so the simulator replays it exactly.
#[derive(Debug, Clone)]
pub struct BrownoutController {
    config: BrownoutConfig,
    level: u8,
    starved_run: u32,
    healthy_run: u32,
    /// Level escalations performed.
    pub trips: u32,
    /// Level de-escalations performed.
    pub recoveries: u32,
    /// Decode steps observed while degraded (level > 0), counted
    /// before the step's own transition applies.
    pub brownout_steps: u64,
}

impl BrownoutController {
    /// Maximum degradation level.
    pub const MAX_LEVEL: u8 = 2;

    /// New controller at level 0.
    pub fn new(config: BrownoutConfig) -> Self {
        Self {
            config,
            level: 0,
            starved_run: 0,
            healthy_run: 0,
            trips: 0,
            recoveries: 0,
            brownout_steps: 0,
        }
    }

    /// Current degradation level (0 = normal, 1 = clamp best-effort
    /// budgets, 2 = shed queued best-effort).
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Feed one decode step's starvation sample through the ladder.
    pub fn observe_step(&mut self, starved: bool) {
        if !self.config.enabled {
            return;
        }
        if self.level > 0 {
            self.brownout_steps += 1;
        }
        if starved {
            self.starved_run += 1;
            self.healthy_run = 0;
            if self.starved_run >= self.config.trip_after && self.level < Self::MAX_LEVEL {
                self.level += 1;
                self.trips += 1;
                self.starved_run = 0;
            }
        } else {
            self.healthy_run += 1;
            self.starved_run = 0;
            if self.healthy_run >= self.config.recover_after && self.level > 0 {
                self.level -= 1;
                self.recoveries += 1;
                self.healthy_run = 0;
            }
        }
    }

    /// The `max_new_tokens` budget a *first* admission of `priority`
    /// gets under the current level (replays keep their remaining
    /// budget untouched).
    pub fn clamp_max_new(&self, priority: Priority, requested: usize) -> usize {
        if self.config.enabled && self.level >= 1 && priority == Priority::BestEffort {
            requested.min(self.config.degraded_max_new_tokens)
        } else {
            requested
        }
    }

    /// Whether a queued first admission of `priority` should be shed
    /// outright at the current level (replays are never shed: their
    /// streams must complete to stay bitwise comparable).
    pub fn should_shed(&self, priority: Priority) -> bool {
        self.config.enabled && self.level >= Self::MAX_LEVEL && priority == Priority::BestEffort
    }
}

/// Insert `item` into a priority-ordered queue: before the first entry
/// of a *strictly* lower class, so higher classes go first and each
/// class stays FIFO (equivalent to `push_back` for single-class
/// traffic). `class_of` maps a queue entry to its class.
pub fn insert_by_priority<T>(queue: &mut VecDeque<T>, item: T, class_of: impl Fn(&T) -> Priority) {
    let class = class_of(&item);
    let pos = queue
        .iter()
        .position(|queued| class_of(queued) < class)
        .unwrap_or(queue.len());
    queue.insert(pos, item);
}

/// The preemption victim for a preemptor of class `preemptor`: among
/// `candidates` of a class strictly below it, the lowest class, and
/// within that class the youngest admission (largest admission sequence
/// number). `class_and_seq` maps a candidate to `(class, admit_seq)`.
/// `None` when nothing ranks below the preemptor.
pub fn pick_victim<T>(
    candidates: impl IntoIterator<Item = T>,
    preemptor: Priority,
    class_and_seq: impl Fn(&T) -> (Priority, u64),
) -> Option<T> {
    candidates
        .into_iter()
        .filter(|c| class_and_seq(c).0 < preemptor)
        .min_by_key(|c| {
            let (class, seq) = class_and_seq(c);
            (class, std::cmp::Reverse(seq))
        })
}

/// Per-priority-class counters, indexed by [`Priority::index`]
/// (0 = best-effort, 1 = standard, 2 = interactive). Both serving
/// backends fill the same block so a reconciliation test can assert
/// exact equality.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ClassCounters {
    /// Requests finished, per class.
    pub completed: [u32; 3],
    /// Preemption events, per victim class.
    pub preemptions: [u32; 3],
    /// Generated tokens folded into replay prefills, per victim class.
    pub replayed_tokens: [u64; 3],
    /// Requests shed by brownout level 2, per class.
    pub shed: [u32; 3],
}

impl ClassCounters {
    /// Sum another block into this one (pool aggregation).
    pub fn merge(&mut self, other: &ClassCounters) {
        for i in 0..3 {
            self.completed[i] += other.completed[i];
            self.preemptions[i] += other.preemptions[i];
            self.replayed_tokens[i] += other.replayed_tokens[i];
            self.shed[i] += other.shed[i];
        }
    }

    /// Total preemption events across classes.
    pub fn total_preemptions(&self) -> u32 {
        self.preemptions.iter().sum()
    }

    /// Total replayed tokens across classes.
    pub fn total_replayed_tokens(&self) -> u64 {
        self.replayed_tokens.iter().sum()
    }

    /// Total brownout sheds across classes.
    pub fn total_shed(&self) -> u32 {
        self.shed.iter().sum()
    }
}

/// Overload-layer counters of one serving run: per-reason rejections
/// beyond oversize/deadline, plus the preemption and brownout mechanism
/// tallies with their per-priority-class breakdowns. The admission pass
/// fills the same block in both backends, so the overload
/// reconciliation suite asserts exact equality between the live runtime
/// and the simulator on an identical trace. All zero when
/// [`OverloadConfig`] is fully disabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct OverloadCounters {
    /// Rejections because an ingress queue was full. Router-observed in
    /// a pool (a replica's bounded queue refused a dispatch); always 0
    /// on a standalone server, where queue-full refusals resolve
    /// synchronously at submit time.
    pub rejected_queue_full: u32,
    /// Scheduler-internal rejections: an admission failure after intake
    /// screening, or a submission racing the final shutdown drain.
    pub rejected_internal: u32,
    /// Queued best-effort requests shed outright by brownout level 2.
    pub shed_brownout: u32,
    /// Running sequences preempted — evicted mid-decode and re-queued
    /// for prefix-replay re-admission — to make room for a higher
    /// class.
    pub preemptions: u32,
    /// Tokens already streamed at preemption time, folded into the
    /// replay prompt and re-prefilled on re-admission (the
    /// preemption-cost currency).
    pub replayed_tokens: u64,
    /// Decode steps executed while the brownout level was degraded.
    pub brownout_steps: u64,
    /// Per-priority-class completion / preemption / replay / shed
    /// breakdowns.
    pub per_class: ClassCounters,
}

/// A queued request as the admission pass sees it.
#[derive(Debug, Clone, Copy)]
pub struct Ticket {
    /// Request id (the ledger key).
    pub id: u64,
    /// Scheduling class.
    pub priority: Priority,
    /// Prompt tokens of this admission (a replay's include its streamed
    /// tokens).
    pub prompt_tokens: u32,
    /// Requested generation budget of this admission.
    pub max_new_tokens: u32,
    /// A preempted request re-entering by prefix replay: its budget is
    /// never clamped and it is never brownout-shed, so its stream stays
    /// bitwise identical to an uncontended run.
    pub replay: bool,
}

/// Why the admission pass resolved a queued request without serving it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// Shed by brownout level 2.
    Brownout,
    /// Fits no pool: it failed to reserve even on an idle, unpressured
    /// pool, which can never improve.
    Oversized,
    /// The executor refused to start it after its reservation was made.
    Internal,
}

/// One runtime's side of the admission pass: its queued entries, the
/// sequences holding batch slots, and three actions. The live scheduler
/// starts engine sequences; the simulator moves request indices between
/// its queues.
pub trait AdmitExecutor {
    /// A queued request.
    type Entry;

    /// What the pass needs to know about a queued entry.
    fn ticket(&self, entry: &Self::Entry) -> Ticket;

    /// Sequences holding a batch slot: decoding, started by this pass,
    /// and still prefilling (they hold reservations and slots-to-be).
    fn held(&self) -> usize;

    /// Preemption candidates as `(id, class, admission sequence
    /// number)`.
    fn residents(&self) -> impl Iterator<Item = (u64, Priority, u64)> + '_;

    /// Start `entry` with the (possibly clamped) budget `max_new` and
    /// admission sequence number `seq`; its reservation is already made.
    /// Hand the entry back if it cannot start.
    fn start(&mut self, entry: Self::Entry, max_new: u32, seq: u64) -> Result<(), Self::Entry>;

    /// Evict resident `id` and return its replay entry — its streamed
    /// tokens folded into the prompt and taken off its remaining budget,
    /// marked as a replay — with the number of tokens folded.
    fn evict(&mut self, id: u64) -> (Self::Entry, u32);

    /// Resolve an entry the pass refused; the pass drops it afterwards.
    fn refuse(&mut self, entry: &Self::Entry, why: Refusal);
}

/// One replica's admission state — the brownout ladder and the overload
/// counters — and the one reserved admission pass both runtimes call at
/// every step boundary, over the replica's [`KvBudget`].
pub struct Admission {
    /// The brownout ladder (a no-op while disabled).
    pub brownout: BrownoutController,
    /// What the pass did.
    pub counters: OverloadCounters,
    policy: BatchingPolicy,
    preemption: bool,
    /// Monotone admission counter (replays included): the youngest-victim
    /// tie-break of [`pick_victim`].
    next_seq: u64,
    /// The last pass left an arrived request unadmitted for want of KV,
    /// even after preemption: the brownout starvation signal.
    starved: bool,
}

impl Admission {
    /// Fresh admission state under `policy` and `overload`.
    pub fn new(policy: BatchingPolicy, overload: OverloadConfig) -> Self {
        Self {
            brownout: BrownoutController::new(overload.brownout),
            counters: OverloadCounters::default(),
            policy,
            preemption: overload.preemption,
            next_seq: 0,
            starved: false,
        }
    }

    /// Feed the last pass's starvation sample to the brownout ladder;
    /// call once per completed decode step.
    pub fn observe_step(&mut self) {
        self.brownout.observe_step(self.starved);
    }

    /// Admit from the priority-ordered `queue` while the batching policy,
    /// the concurrency cap `cap` and the (pressure-shrunk) reservation
    /// `budget` allow. Brownout level 2 first sheds queued best-effort first
    /// admissions; level 1 clamps their budgets. A reservation failure
    /// preempts the victim [`pick_victim`] names (with preemption on) and
    /// retries the same front; an idle, unpressured pool that still
    /// cannot hold the front refuses it as oversized. Allocates nothing
    /// unless it admits or preempts.
    pub fn admit<E: AdmitExecutor>(
        &mut self,
        budget: &mut KvBudget,
        queue: &mut VecDeque<E::Entry>,
        exec: &mut E,
        cap: usize,
    ) {
        self.starved = false;
        if !self.policy.may_admit(exec.held()) {
            return;
        }
        if self.brownout.level() >= BrownoutController::MAX_LEVEL {
            queue.retain(|entry| {
                let t = exec.ticket(entry);
                let shed = !t.replay && self.brownout.should_shed(t.priority);
                if shed {
                    self.counters.shed_brownout += 1;
                    self.counters.per_class.shed[t.priority.index()] += 1;
                    exec.refuse(entry, Refusal::Brownout);
                }
                !shed
            });
        }
        while exec.held() < cap {
            let Some(front) = queue.front() else { break };
            let t = exec.ticket(front);
            let max_new = if t.replay {
                t.max_new_tokens
            } else {
                self.brownout
                    .clamp_max_new(t.priority, t.max_new_tokens as usize) as u32
            };
            if !budget.try_admit(t.id, t.prompt_tokens + max_new, t.prompt_tokens) {
                // Preempt the victim below the front's class, then retry
                // the front against the freed reservation.
                let victim = if self.preemption {
                    pick_victim(exec.residents(), t.priority, |&(_, c, s)| (c, s))
                } else {
                    None
                };
                if let Some((id, class, _)) = victim {
                    let (entry, replayed) = exec.evict(id);
                    budget.release(id);
                    let (class, replayed) = (class.index(), u64::from(replayed));
                    self.counters.preemptions += 1;
                    self.counters.per_class.preemptions[class] += 1;
                    self.counters.per_class.replayed_tokens[class] += replayed;
                    self.counters.replayed_tokens += replayed;
                    insert_by_priority(queue, entry, |e| exec.ticket(e).priority);
                    continue;
                }
                // Under memory pressure the pool grows back when the
                // window expires, so the idle refusal must not fire.
                if exec.held() == 0 && budget.is_idle() && !budget.under_pressure() {
                    let entry = queue.pop_front().expect("front exists");
                    exec.refuse(&entry, Refusal::Oversized);
                    continue;
                }
                self.starved = true;
                break;
            }
            let entry = queue.pop_front().expect("front exists");
            match exec.start(entry, max_new, self.next_seq + 1) {
                Ok(()) => self.next_seq += 1,
                Err(entry) => {
                    budget.release(t.id);
                    self.counters.rejected_internal += 1;
                    exec.refuse(&entry, Refusal::Internal);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enabled(trip_after: u32, recover_after: u32) -> BrownoutConfig {
        BrownoutConfig {
            enabled: true,
            trip_after,
            recover_after,
            degraded_max_new_tokens: 4,
        }
    }

    #[test]
    fn disabled_controller_never_degrades() {
        let mut c = BrownoutController::new(BrownoutConfig::default());
        for _ in 0..100 {
            c.observe_step(true);
        }
        assert_eq!(c.level(), 0);
        assert_eq!(c.trips, 0);
        assert_eq!(c.brownout_steps, 0);
        assert_eq!(c.clamp_max_new(Priority::BestEffort, 99), 99);
        assert!(!c.should_shed(Priority::BestEffort));
    }

    #[test]
    fn sustained_starvation_climbs_the_ladder_and_recovers() {
        let mut c = BrownoutController::new(enabled(3, 2));
        for _ in 0..3 {
            c.observe_step(true);
        }
        assert_eq!(c.level(), 1, "trip_after starved steps reach level 1");
        assert_eq!(c.clamp_max_new(Priority::BestEffort, 99), 4);
        assert_eq!(
            c.clamp_max_new(Priority::Interactive, 99),
            99,
            "only best-effort is clamped"
        );
        assert!(!c.should_shed(Priority::BestEffort), "level 1 never sheds");
        for _ in 0..3 {
            c.observe_step(true);
        }
        assert_eq!(c.level(), 2, "sustained starvation reaches level 2");
        assert!(c.should_shed(Priority::BestEffort));
        assert!(!c.should_shed(Priority::Standard));
        for _ in 0..4 {
            c.observe_step(false);
        }
        assert_eq!(c.level(), 0, "hysteretic recovery walks back down");
        assert_eq!(c.trips, 2);
        assert_eq!(c.recoveries, 2);
        assert!(c.brownout_steps > 0);
    }

    #[test]
    fn oscillating_health_series_does_not_flap_the_level() {
        // The satellite property: a series that alternates around the
        // threshold must not change the level every step — opposite
        // samples reset the hysteresis runs, exactly like the breaker's
        // HalfOpen recovery counting.
        let mut c = BrownoutController::new(enabled(3, 3));
        let mut transitions = 0u32;
        let mut last = c.level();
        for i in 0..200 {
            c.observe_step(i % 2 == 0); // starved, healthy, starved, ...
            if c.level() != last {
                transitions += 1;
                last = c.level();
            }
        }
        assert_eq!(c.level(), 0, "alternating samples never sustain a trip run");
        assert_eq!(transitions, 0, "the level must not flap");
        assert_eq!(c.trips, 0);
        assert_eq!(c.recoveries, 0);
    }

    #[test]
    fn brownout_steps_count_degraded_steps_only() {
        let mut c = BrownoutController::new(enabled(2, 2));
        c.observe_step(true);
        c.observe_step(true); // trips to level 1 after this step
        assert_eq!(c.level(), 1);
        assert_eq!(
            c.brownout_steps, 0,
            "the tripping step itself observed level 0"
        );
        c.observe_step(false);
        c.observe_step(false); // recovers after this step
        assert_eq!(c.level(), 0);
        assert_eq!(c.brownout_steps, 2, "both level-1 steps counted");
    }

    #[test]
    fn config_validation_rejects_zero_knobs() {
        assert!(BrownoutConfig::default().validate().is_ok());
        let mut cfg = enabled(0, 2);
        assert!(cfg.validate().is_err());
        cfg = enabled(2, 0);
        assert!(cfg.validate().is_err());
        cfg = enabled(2, 2);
        cfg.degraded_max_new_tokens = 0;
        assert!(cfg.validate().is_err());
        cfg.degraded_max_new_tokens = 1;
        assert!(cfg.validate().is_ok());
        assert!(OverloadConfig::default().validate().is_ok());
        assert!(!OverloadConfig::default().active());
    }

    #[test]
    fn priority_insert_goes_before_the_first_strictly_lower_class() {
        use Priority::{BestEffort, Interactive, Standard};
        let mut queue: VecDeque<(Priority, u32)> = VecDeque::new();
        for (i, class) in [Standard, BestEffort, Interactive, Standard, Interactive]
            .into_iter()
            .enumerate()
        {
            insert_by_priority(&mut queue, (class, i as u32), |&(c, _)| c);
        }
        let order: Vec<u32> = queue.iter().map(|&(_, i)| i).collect();
        assert_eq!(order, vec![2, 4, 0, 3, 1], "classes first, FIFO within");
    }

    #[test]
    fn victim_is_the_youngest_of_the_lowest_class_below_the_preemptor() {
        use Priority::{BestEffort, Interactive, Standard};
        let running = [
            (Standard, 1u64),
            (BestEffort, 2),
            (BestEffort, 5),
            (Interactive, 9),
        ];
        let pick = |preemptor| pick_victim(running.iter(), preemptor, |&&(c, s)| (c, s));
        assert_eq!(pick(Interactive), Some(&(BestEffort, 5)));
        assert_eq!(pick(Standard), Some(&(BestEffort, 5)));
        assert_eq!(pick(BestEffort), None, "nothing ranks below best-effort");
    }

    #[test]
    fn class_counters_merge_and_totals() {
        let mut a = ClassCounters::default();
        a.preemptions[0] = 2;
        a.replayed_tokens[0] = 10;
        a.shed[0] = 1;
        a.completed[2] = 5;
        let mut b = ClassCounters::default();
        b.preemptions[0] = 1;
        b.replayed_tokens[1] = 3;
        a.merge(&b);
        assert_eq!(a.total_preemptions(), 3);
        assert_eq!(a.total_replayed_tokens(), 13);
        assert_eq!(a.total_shed(), 1);
        assert_eq!(a.completed[2], 5);
    }
}
