//! The fault clock: the one interpreter of a [`FaultPlan`].
//!
//! Both serving runtimes drive a [`FaultClock`]: the live `llmib-serve`
//! scheduler and the simulator's replica step. The clock performs no
//! I/O, reads no clock and sleeps nowhere. It returns [`Seconds`]: the
//! live scheduler sleeps them, and the simulator adds them to its
//! replica clock. Each runtime keeps its own phase order, meaning where
//! in its loop it asks; what every fault means lives here once.
//!
//! Faults are anchored to successful-step indices, which the clock
//! counts through [`FaultClock::stepped`]. A planned event activates
//! lazily, at the first question asked once its anchor step is reached.

use llmib_types::{FaultKind, FaultPlan, RetryPolicy, Seconds};

/// What the clock says about the next step attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Attempt {
    /// Nothing stands in the way: run the step.
    Run,
    /// This live request is poisoned. Fail it alone and attempt again;
    /// the survivors' tokens are unaffected.
    Poisoned(u64),
    /// A transient device fault failed the attempt. Wait this backoff
    /// and attempt again.
    Retry(Seconds),
    /// The retry budget is spent: fail every live request. Transient
    /// failures left over hit the next attempts.
    Exhausted,
}

/// The activation state of one replica's [`FaultPlan`].
#[derive(Debug)]
pub struct FaultClock {
    plan: FaultPlan,
    retry: RetryPolicy,
    /// Index of the next not-yet-activated event of `plan`.
    next_event: usize,
    /// Successful steps so far: the clock faults are anchored to.
    steps: u64,
    /// Stall seconds owed before the next step.
    stall: f64,
    /// Transient failures still to return, one per attempt.
    transients: u32,
    /// Failed transient attempts of the current step.
    failed_attempts: u32,
    /// Poisoned request ids not yet surfaced.
    poisoned: Vec<u64>,
    /// Active pressure window: (capacity factor, steps remaining).
    pressure: Option<(f64, u64)>,
    panic_armed: bool,
    injected: u32,
}

impl FaultClock {
    /// A clock at step 0 of `plan`, pricing retries through `retry`.
    pub fn new(plan: FaultPlan, retry: RetryPolicy) -> Self {
        Self {
            plan,
            retry,
            next_event: 0,
            steps: 0,
            stall: 0.0,
            transients: 0,
            failed_attempts: 0,
            poisoned: Vec::new(),
            pressure: None,
            panic_armed: false,
            injected: 0,
        }
    }

    /// Activate every planned event whose anchor step has been reached.
    fn activate(&mut self) {
        while let Some(ev) = self.plan.events().get(self.next_event) {
            if ev.at_step > self.steps {
                break;
            }
            self.injected += 1;
            self.next_event += 1;
            match ev.kind {
                FaultKind::StepStall { extra } => self.stall += extra.value().max(0.0),
                FaultKind::TransientStepError { failures } => self.transients += failures,
                FaultKind::RequestPoison { request } => self.poisoned.push(request),
                FaultKind::MemoryPressure {
                    capacity_factor,
                    steps,
                } => self.pressure = Some((capacity_factor.clamp(0.01, 1.0), steps.max(1))),
                FaultKind::SchedulerPanic => self.panic_armed = true,
            }
        }
    }

    /// Drain the stall owed before the next step (zero when none).
    pub fn take_stall(&mut self) -> Seconds {
        self.activate();
        Seconds(std::mem::replace(&mut self.stall, 0.0))
    }

    /// The KV-capacity factor admission honors now (1.0 outside a
    /// pressure window).
    pub fn pressure(&mut self) -> f64 {
        self.activate();
        self.pressure.map_or(1.0, |(factor, _)| factor)
    }

    /// Whether a planned scheduler panic is due.
    pub fn panic_due(&mut self) -> bool {
        self.activate();
        self.panic_armed
    }

    /// Judge the next step attempt over the live requests `is_live`
    /// accepts. A poison outranks a transient error, and surfaces once,
    /// only when its victim is live. A transient failure costs retry
    /// `n` the backoff `RetryPolicy::backoff(n, plan.seed ^ steps)`;
    /// the failure after `max_retries` retries exhausts the step.
    pub fn attempt(&mut self, is_live: impl Fn(u64) -> bool) -> Attempt {
        self.activate();
        if let Some(pos) = self.poisoned.iter().position(|&id| is_live(id)) {
            return Attempt::Poisoned(self.poisoned.swap_remove(pos));
        }
        if self.transients == 0 {
            return Attempt::Run;
        }
        self.transients -= 1;
        self.failed_attempts += 1;
        if self.failed_attempts > self.retry.max_retries {
            self.failed_attempts = 0;
            return Attempt::Exhausted;
        }
        let jitter_seed = self.plan.seed ^ self.steps;
        Attempt::Retry(self.retry.backoff(self.failed_attempts, jitter_seed))
    }

    /// Count one successful step: the step clock advances and a
    /// pressure window counts down.
    pub fn stepped(&mut self) {
        self.steps += 1;
        self.failed_attempts = 0;
        if let Some((factor, steps)) = self.pressure {
            self.pressure = (steps > 1).then_some((factor, steps - 1));
        }
    }

    /// Request `id` left the batch for any reason: it can no longer be
    /// poisoned.
    pub fn evicted(&mut self, id: u64) {
        self.poisoned.retain(|&p| p != id);
    }

    /// Planned events activated so far.
    pub fn injected(&self) -> u32 {
        self.injected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmib_types::FaultEvent;

    fn clock(at_step: u64, kind: FaultKind) -> FaultClock {
        FaultClock::new(
            FaultPlan::new(vec![FaultEvent { at_step, kind }]),
            RetryPolicy::default(),
        )
    }

    const NONE_LIVE: fn(u64) -> bool = |_| false;

    #[test]
    fn transient_fails_exactly_n_attempts_then_succeeds() {
        let mut c = clock(1, FaultKind::TransientStepError { failures: 2 });
        assert_eq!(c.attempt(NONE_LIVE), Attempt::Run, "step 0 healthy");
        c.stepped();
        let retry = RetryPolicy::default();
        assert_eq!(c.attempt(NONE_LIVE), Attempt::Retry(retry.backoff(1, 1)));
        assert_eq!(c.attempt(NONE_LIVE), Attempt::Retry(retry.backoff(2, 1)));
        assert_eq!(c.attempt(NONE_LIVE), Attempt::Run, "third attempt runs");
        assert_eq!(c.injected(), 1);
    }

    #[test]
    fn exhaustion_fails_the_step_and_leftovers_hit_the_next_attempts() {
        let retry = RetryPolicy::default();
        let max = retry.max_retries;
        let mut c = clock(0, FaultKind::TransientStepError { failures: max + 3 });
        for n in 1..=max {
            assert_eq!(c.attempt(NONE_LIVE), Attempt::Retry(retry.backoff(n, 0)));
        }
        assert_eq!(c.attempt(NONE_LIVE), Attempt::Exhausted);
        // Two failures are left: the next batch's attempts retry from
        // attempt 1 again, then run.
        assert_eq!(c.attempt(NONE_LIVE), Attempt::Retry(retry.backoff(1, 0)));
        assert_eq!(c.attempt(NONE_LIVE), Attempt::Retry(retry.backoff(2, 0)));
        assert_eq!(c.attempt(NONE_LIVE), Attempt::Run);
    }

    #[test]
    fn poison_surfaces_once_and_clears_on_eviction() {
        let mut c = clock(0, FaultKind::RequestPoison { request: 3 });
        let live = |id| id == 3 || id == 4;
        assert_eq!(c.attempt(live), Attempt::Poisoned(3));
        assert_eq!(c.attempt(live), Attempt::Run, "surfaced once");

        let mut c = clock(0, FaultKind::RequestPoison { request: 3 });
        assert_eq!(c.attempt(NONE_LIVE), Attempt::Run, "activated, not live");
        c.evicted(3);
        assert_eq!(c.attempt(live), Attempt::Run, "eviction clears it");
    }

    #[test]
    fn poison_waits_until_its_victim_is_live() {
        let mut c = clock(0, FaultKind::RequestPoison { request: 9 });
        assert_eq!(c.attempt(|id| id == 1), Attempt::Run, "victim not live yet");
        c.stepped();
        assert_eq!(c.attempt(|id| id == 1 || id == 9), Attempt::Poisoned(9));
    }

    #[test]
    fn poison_outranks_a_transient_error() {
        let plan = FaultPlan::new(vec![
            FaultEvent {
                at_step: 0,
                kind: FaultKind::TransientStepError { failures: 1 },
            },
            FaultEvent {
                at_step: 0,
                kind: FaultKind::RequestPoison { request: 2 },
            },
        ]);
        let mut c = FaultClock::new(plan, RetryPolicy::default());
        assert_eq!(c.attempt(|id| id == 2), Attempt::Poisoned(2));
        assert!(matches!(c.attempt(|id| id == 2), Attempt::Retry(_)));
        assert_eq!(c.attempt(|id| id == 2), Attempt::Run);
    }

    #[test]
    fn pressure_window_applies_then_expires() {
        let mut c = clock(
            0,
            FaultKind::MemoryPressure {
                capacity_factor: 0.5,
                steps: 2,
            },
        );
        assert_eq!(c.pressure(), 0.5);
        c.stepped();
        assert_eq!(c.pressure(), 0.5);
        c.stepped();
        assert_eq!(c.pressure(), 1.0, "window expired");
        assert_eq!(c.injected(), 1);
    }

    #[test]
    fn pressure_factor_and_window_are_clamped() {
        let mut c = clock(
            0,
            FaultKind::MemoryPressure {
                capacity_factor: 0.0,
                steps: 0,
            },
        );
        assert_eq!(c.pressure(), 0.01);
        c.stepped();
        assert_eq!(c.pressure(), 1.0, "a zero-step window lasts one step");
    }

    #[test]
    fn stall_is_one_shot() {
        let mut c = clock(
            0,
            FaultKind::StepStall {
                extra: Seconds(0.02),
            },
        );
        assert_eq!(c.take_stall(), Seconds(0.02));
        assert_eq!(c.take_stall(), Seconds::ZERO, "one-shot");
        assert_eq!(c.attempt(NONE_LIVE), Attempt::Run);
    }

    #[test]
    fn planned_panic_fires_at_its_step() {
        let mut c = clock(1, FaultKind::SchedulerPanic);
        assert!(!c.panic_due());
        c.stepped();
        assert!(c.panic_due());
    }

    #[test]
    fn empty_plan_is_transparent() {
        let mut c = FaultClock::new(FaultPlan::empty(), RetryPolicy::default());
        for _ in 0..3 {
            assert_eq!(c.attempt(|_| true), Attempt::Run);
            c.stepped();
        }
        assert_eq!(c.take_stall(), Seconds::ZERO);
        assert_eq!(c.pressure(), 1.0);
        assert!(!c.panic_due());
        assert_eq!(c.injected(), 0);
    }
}
