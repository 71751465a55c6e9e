//! The serving runtime: a supervised scheduler thread running the real
//! engine.
//!
//! Client threads submit through a bounded MPSC ingress; the scheduler
//! thread owns a [`BatchSession`] (wrapped in a
//! [`crate::fault::FaultInjector`] so chaos drills exercise the same
//! code path as healthy serving) and loops
//!
//! 1. **tick** — advance the circuit breaker's wall-clock transitions,
//! 2. **intake** — drain the ingress (rejecting requests that can never
//!    fit the KV pool or the model context),
//! 3. **cancel** — apply client cancellations (queued or mid-decode),
//! 4. **shed** — drop queued requests whose deadlines expired,
//! 5. **admit** — at this decode-step boundary, move queued requests
//!    into the running batch while the *effective* concurrency cap
//!    (lowered by the breaker under SLO breach) and the KV reservation
//!    ([`crate::budget`], shrunk under memory pressure) allow,
//! 6. **step** — one supervised decode step: transient errors retry
//!    with capped exponential backoff, poisoned requests are evicted so
//!    the rest of the batch survives, watchdog stalls and step latency
//!    feed the breaker, tokens stream back wall-clock stamped.
//!
//! The scheduler thread is panic-contained: if anything unwinds (for
//! example an injected [`llmib_types::FaultKind::SchedulerPanic`]),
//! every outstanding client resolves with
//! [`crate::FailReason::ServerFailed`] instead of hanging, and
//! [`Server::shutdown`] returns a report marked
//! [`crate::RobustnessStats::server_failed`].

use crate::breaker::CircuitBreaker;
use crate::budget::KvBudget;
use crate::client::Client;
use crate::config::ServeConfig;
use crate::event::{FailReason, RejectReason, ServeEvent};
use crate::fault::FaultInjector;
use crate::report::{
    OverloadCounters, PrefixCounters, RequestMetrics, RobustnessStats, ServeReport,
};
use llmib_engine::{BatchSession, EngineStep, PrefixConfig, Sampler, TokenEvent, TransformerModel};
use llmib_sched::{insert_by_priority, pick_victim, BatchingPolicy, BrownoutController};
use llmib_types::{Priority, Result, Seconds, StepError};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, SyncSender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Lock-free health signals one scheduler thread publishes for the pool
/// router: routing policies read them every loop without touching the
/// scheduler. Plain `Relaxed` ordering everywhere — each field is an
/// independent monotone-ish gauge, not a synchronization point.
#[derive(Debug, Default)]
pub(crate) struct ReplicaTelemetry {
    /// KV tokens currently reserved by live sequences (least-loaded
    /// routing signal).
    pub reserved_kv_tokens: AtomicU64,
    /// [`crate::BreakerState`] encoded via `BreakerState::encode`.
    pub breaker_state: AtomicU8,
    /// Watchdog stalls observed so far (condemnation tally).
    pub watchdog_stalls: AtomicU32,
    /// Live decode batch size at the last step boundary — the
    /// occupancy gauge routing policies and drills read instead of
    /// waiting for the end-of-run mean.
    pub batch_occupancy: AtomicU32,
    /// Prompt tokens awaiting prefill on this replica: the cold
    /// backlog of chunk-admitted sequences plus every queued
    /// submission's prompt. The prefill-pressure signal disaggregated
    /// routing observes.
    pub queued_prefill_tokens: AtomicU64,
    /// Set once the scheduler thread died (contained panic); the router
    /// must stop dispatching and migrate the replica's in-flight work.
    pub dead: AtomicBool,
}

/// One spawned scheduler/engine replica: the channel endpoints and
/// health telemetry the pool router needs to drive it.
pub(crate) struct ReplicaWorker {
    pub ingress: SyncSender<Submission>,
    pub control: Sender<u64>,
    pub stop: Arc<AtomicBool>,
    pub telemetry: Arc<ReplicaTelemetry>,
    pub worker: JoinHandle<ServeReport>,
}

/// Spawn one panic-contained scheduler thread over its own
/// [`BatchSession`], KV budget, and breaker. `Server::start` runs
/// exactly one; [`crate::ReplicaPool`] runs N against a shared `epoch`
/// so timestamps and deadlines are comparable across replicas.
pub(crate) fn spawn_scheduler(
    model: Arc<TransformerModel>,
    config: ServeConfig,
    epoch: Instant,
) -> ReplicaWorker {
    let (ingress, rx) = std::sync::mpsc::sync_channel(config.queue_capacity);
    let (control, control_rx) = std::sync::mpsc::channel();
    let stop = Arc::new(AtomicBool::new(false));
    let telemetry = Arc::new(ReplicaTelemetry::default());
    let worker = {
        let stop = Arc::clone(&stop);
        let telemetry = Arc::clone(&telemetry);
        std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                scheduler_loop(&model, &config, &rx, &control_rx, &stop, epoch, &telemetry)
            }));
            outcome.unwrap_or_else(|_| {
                // The scheduler died mid-run. Its local state (live
                // map, waiting queue) unwound, dropping every event
                // sender it held; drain the ingress so queued
                // submissions drop theirs too. Every outstanding
                // client then observes a closed channel and resolves
                // with `FailReason::ServerFailed` — no one hangs.
                telemetry.dead.store(true, Ordering::Release);
                while rx.try_recv().is_ok() {}
                ServeReport::from_server_failure()
            })
        })
    };
    ReplicaWorker {
        ingress,
        control,
        stop,
        telemetry,
        worker,
    }
}

/// One submitted request in flight from a client to the scheduler.
pub(crate) struct Submission {
    pub id: u64,
    pub prompt: Vec<usize>,
    pub max_new_tokens: usize,
    pub sampler: Sampler,
    pub submitted_at: Seconds,
    /// Absolute admission deadline on the server clock.
    pub deadline: Option<Seconds>,
    /// Scheduling class: admission is ordered by it, and under an
    /// active overload policy lower classes are preempted/shed first.
    pub priority: Priority,
    pub events: std::sync::mpsc::Sender<ServeEvent>,
}

/// Scheduler-side state of an admitted sequence.
struct LiveSeq {
    /// Original prompt length — metrics are reported against it even
    /// after preemption folds streamed tokens into the replay prompt.
    prompt_tokens: u32,
    /// Prompt tokens served from resident shared-prefix KV blocks at
    /// admission (prefill skipped); 0 for a cold admission.
    cached_prefix_tokens: u32,
    submitted_at: Seconds,
    admitted_at: Seconds,
    first_token_at: Option<Seconds>,
    /// Total tokens streamed to the client across all admissions.
    generated: u32,
    /// Absolute deadline on the server clock, enforced mid-decode too.
    deadline: Option<Seconds>,
    events: std::sync::mpsc::Sender<ServeEvent>,
    /// Prompt of the *current* admission: the original prompt plus any
    /// streamed tokens folded in by preemptions — the replay prefill.
    prompt: Vec<usize>,
    /// Tokens generated during the current admission only (cleared by
    /// each preemption after folding them into `prompt`).
    tokens: Vec<usize>,
    /// Remaining generation budget of the current admission.
    max_new_tokens: usize,
    sampler: Sampler,
    priority: Priority,
    /// Admission sequence number, monotone across all admissions
    /// (replays included) — the youngest-victim tie-break of
    /// [`pick_victim`], shared with the simulator.
    admit_seq: u64,
}

/// Metrics continuity across a preemption: what the original admission
/// already established, restored verbatim when the replay re-admits so
/// the client-visible request metrics span the whole lifetime (one
/// `Admitted` event, the original TTFT, the original prompt length).
struct Carry {
    prompt_tokens: u32,
    cached_prefix_tokens: u32,
    admitted_at: Seconds,
    first_token_at: Option<Seconds>,
    generated: u32,
}

/// A live serving runtime over one [`TransformerModel`].
///
/// [`Server::start`] spawns the scheduler thread; [`Server::client`]
/// hands out cloneable submission endpoints; [`Server::shutdown`]
/// drains gracefully and returns the aggregate report.
pub struct Server {
    ingress: Option<SyncSender<Submission>>,
    control: Sender<u64>,
    accepting: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    next_id: Arc<AtomicU64>,
    epoch: Instant,
    worker: Option<JoinHandle<ServeReport>>,
}

impl Server {
    /// Validate `config` and start the scheduler thread.
    pub fn start(model: Arc<TransformerModel>, config: ServeConfig) -> Result<Self> {
        config.validate()?;
        let epoch = Instant::now();
        let replica = spawn_scheduler(model, config, epoch);
        Ok(Self {
            ingress: Some(replica.ingress),
            control: replica.control,
            accepting: Arc::new(AtomicBool::new(true)),
            stop: replica.stop,
            next_id: Arc::new(AtomicU64::new(0)),
            epoch,
            worker: Some(replica.worker),
        })
    }

    /// A cloneable submission endpoint. Clients on any thread submit
    /// through it and receive their token streams independently.
    pub fn client(&self) -> Client {
        Client {
            ingress: self
                .ingress
                .as_ref()
                .expect("server already shut down")
                .clone(),
            control: self.control.clone(),
            accepting: Arc::clone(&self.accepting),
            next_id: Arc::clone(&self.next_id),
            epoch: self.epoch,
        }
    }

    /// Graceful drain: stop accepting, let every queued and running
    /// request finish (deadline shedding still applies to queued ones),
    /// join the scheduler, and return the aggregate report. If the
    /// scheduler died mid-run the report has
    /// [`crate::RobustnessStats::server_failed`] set instead.
    pub fn shutdown(mut self) -> ServeReport {
        self.shutdown_inner()
            .expect("scheduler thread exited before shutdown")
    }

    fn shutdown_inner(&mut self) -> Option<ServeReport> {
        self.accepting.store(false, Ordering::Release);
        self.stop.store(true, Ordering::Release);
        drop(self.ingress.take());
        self.worker
            .take()
            .map(|w| w.join().expect("scheduler thread panicked"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.shutdown_inner();
    }
}

pub(crate) fn now(epoch: Instant) -> Seconds {
    Seconds(epoch.elapsed().as_secs_f64())
}

struct Scheduler<'m> {
    session: FaultInjector<BatchSession<'m>>,
    budget: KvBudget,
    breaker: CircuitBreaker,
    config: ServeConfig,
    epoch: Instant,
    model_max_seq: usize,
    waiting: VecDeque<Submission>,
    live: HashMap<u64, LiveSeq>,
    /// Cancellations for ids not currently queued or live: either the
    /// cancel raced ahead of its submission (resolved at intake) or the
    /// request already finished (no-op).
    pending_cancels: HashSet<u64>,
    per_request: Vec<RequestMetrics>,
    admission_order: Vec<u64>,
    robust: RobustnessStats,
    prefix: PrefixCounters,
    shed_deadline: u32,
    rejected_oversized: u32,
    decode_steps: u64,
    /// Prefill chunks executed (chunked prefill only; exactly
    /// `ceil(cold_tokens / budget)` per admission, which the simulator
    /// mirrors for exact reconciliation).
    prefill_chunks: u64,
    occupancy_acc: f64,
    peak_kv: f64,
    first_submitted_at: Option<f64>,
    last_finished_at: f64,
    /// Overload-layer counters reported in [`ServeReport::overload`].
    overload: OverloadCounters,
    /// The shared brownout ladder (no-op while disabled in config).
    brownout: BrownoutController,
    /// Metrics continuity of preempted requests currently waiting for
    /// replay re-admission, keyed by request id. Membership marks a
    /// queued submission as a replay (budget never re-clamped, never
    /// brownout-shed).
    carry: HashMap<u64, Carry>,
    /// Monotone admission counter (replays included) — victim
    /// tie-break.
    next_admit_seq: u64,
    /// The last admission pass left an arrived request unadmitted
    /// because KV reservation failed even after preemption — the
    /// brownout starvation signal, sampled once per decode step.
    admit_starved: bool,
}

impl<'m> Scheduler<'m> {
    /// Accept one submission from the ingress, rejecting immediately
    /// anything that can never be served.
    fn intake(&mut self, sub: Submission) {
        self.robust.submitted += 1;
        if self.pending_cancels.remove(&sub.id) {
            // The cancel arrived before the submission did.
            self.robust.cancelled += 1;
            let _ = sub.events.send(ServeEvent::Cancelled {
                at: now(self.epoch),
            });
            return;
        }
        let t = self
            .first_submitted_at
            .get_or_insert(sub.submitted_at.value());
        *t = t.min(sub.submitted_at.value());
        let max_context = sub.prompt.len() + sub.max_new_tokens;
        let fits_model = max_context <= self.model_max_seq;
        let fits_pool =
            max_context <= u32::MAX as usize && self.budget.fits_ever(max_context as u32);
        if !fits_model || !fits_pool {
            self.rejected_oversized += 1;
            let _ = sub.events.send(ServeEvent::Rejected {
                reason: RejectReason::Oversized,
                at: now(self.epoch),
            });
            return;
        }
        insert_by_priority(&mut self.waiting, sub, |s| s.priority);
    }

    /// Apply every cancellation currently queued on the control channel.
    fn process_cancels(&mut self, control: &Receiver<u64>) {
        while let Ok(id) = control.try_recv() {
            self.cancel(id);
        }
    }

    fn cancel(&mut self, id: u64) {
        if let Some(pos) = self.waiting.iter().position(|sub| sub.id == id) {
            let sub = self.waiting.remove(pos).expect("position just found");
            // A preempted request cancelled while awaiting replay keeps
            // its streamed prefix valid; drop its continuity record.
            self.carry.remove(&id);
            self.robust.cancelled += 1;
            let _ = sub.events.send(ServeEvent::Cancelled {
                at: now(self.epoch),
            });
        } else if let Some(meta) = self.live.remove(&id) {
            if self.session.evict(id) {
                self.robust.evictions += 1;
            }
            self.budget.release(id);
            self.robust.cancelled += 1;
            let _ = meta.events.send(ServeEvent::Cancelled {
                at: now(self.epoch),
            });
        } else {
            self.pending_cancels.insert(id);
        }
    }

    /// Enforce deadlines across the whole lifecycle: shed queued
    /// requests whose deadline passed before admission
    /// ([`RejectReason::DeadlineExpired`]) and evict admitted requests
    /// whose deadline expired mid-decode
    /// ([`FailReason::DeadlineExceeded`]) so their batch slots and KV
    /// reservations go to requests that can still meet theirs.
    fn shed_expired(&mut self) {
        let t = now(self.epoch);
        let epoch = self.epoch;
        let mut shed = 0u32;
        let mut exceeded = 0u32;
        let carry = &mut self.carry;
        self.waiting.retain(|sub| {
            let expired = sub.deadline.is_some_and(|d| t.value() > d.value());
            if expired {
                if carry.remove(&sub.id).is_some() {
                    // A preempted request expiring while queued for
                    // replay already consumed service and streamed
                    // tokens: resolve it like a mid-decode eviction,
                    // not a queued shed.
                    exceeded += 1;
                    let _ = sub.events.send(ServeEvent::Failed {
                        reason: FailReason::DeadlineExceeded,
                        at: now(epoch),
                    });
                } else {
                    shed += 1;
                    let _ = sub.events.send(ServeEvent::Rejected {
                        reason: RejectReason::DeadlineExpired,
                        at: now(epoch),
                    });
                }
            }
            !expired
        });
        self.shed_deadline += shed;
        self.robust.failed += exceeded;
        self.robust.deadline_exceeded += exceeded;
        let expired_live: Vec<u64> = self
            .live
            .iter()
            .filter(|(_, meta)| meta.deadline.is_some_and(|d| t.value() > d.value()))
            .map(|(&id, _)| id)
            .collect();
        for id in expired_live {
            self.robust.deadline_exceeded += 1;
            self.fail_request(id, FailReason::DeadlineExceeded);
        }
    }

    /// Admit queued requests at this step boundary while policy, the
    /// breaker-adjusted concurrency cap and the (pressure-adjusted) KV
    /// reservation allow. Under an active overload policy the pass
    /// also runs the brownout ladder (level-2 sheds, level-1 clamps)
    /// and preempts lower-class running sequences when a reservation
    /// fails — mirroring the simulator's overload admission exactly.
    fn admit(&mut self) {
        self.admit_starved = false;
        let may_admit = match self.config.policy {
            BatchingPolicy::Continuous => true,
            BatchingPolicy::Static => self.session.is_empty() && self.session.pending_len() == 0,
        };
        if !may_admit {
            return;
        }
        // Brownout level 2: shed queued best-effort first admissions
        // outright. Replays are never shed — their streams must
        // complete to stay bitwise identical to an uncontended run.
        if self.brownout.level() >= BrownoutController::MAX_LEVEL {
            let epoch = self.epoch;
            let brownout = &self.brownout;
            let carry = &self.carry;
            let counters = &mut self.overload;
            self.waiting.retain(|sub| {
                let shed = !carry.contains_key(&sub.id) && brownout.should_shed(sub.priority);
                if shed {
                    counters.shed_brownout += 1;
                    counters.per_class.shed[sub.priority.index()] += 1;
                    let _ = sub.events.send(ServeEvent::Rejected {
                        reason: RejectReason::Brownout,
                        at: now(epoch),
                    });
                }
                !shed
            });
        }
        let cap = self
            .breaker
            .effective_concurrency(self.config.max_concurrency);
        // Pending (chunk-admitted, still prefilling) sequences hold KV
        // reservations and batch slots-to-be: they count against the
        // concurrency cap exactly like live ones.
        while self.session.len() + self.session.pending_len() < cap {
            let Some(front) = self.waiting.front() else {
                break;
            };
            let (front_id, front_priority, front_prompt_len) =
                (front.id, front.priority, front.prompt.len());
            // Budget of this admission: replays keep their remaining
            // tokens; first admissions may be clamped by brownout
            // level 1. The clamp is applied only if the admission
            // succeeds, like the simulator's overload admission.
            let max_new = if self.carry.contains_key(&front_id) {
                front.max_new_tokens
            } else {
                self.brownout
                    .clamp_max_new(front_priority, front.max_new_tokens)
            };
            let max_context = (front_prompt_len + max_new) as u32;
            if !self
                .budget
                .try_admit(front_id, max_context, front_prompt_len as u32)
            {
                // Preempt the youngest running sequence of the lowest
                // class strictly below the front's, then retry the
                // same front against the freed reservation.
                if self.config.overload.preemption && self.preempt_below(front_priority) {
                    continue;
                }
                // Does not fit *right now* (reservations or monolithic
                // fragmentation): head-of-line wait for releases. If the
                // pool is fully idle this can never improve — shed so an
                // impossible request cannot wedge the queue. Under
                // memory pressure the pool will grow back when the
                // window expires, so the shed must not fire. (Intake
                // screens for truly oversized requests, so the branch is
                // defensive.)
                if self.session.is_empty()
                    && self.session.pending_len() == 0
                    && self.budget.is_idle()
                    && !self.budget.under_pressure()
                {
                    let sub = self.waiting.pop_front().expect("front exists");
                    self.carry.remove(&sub.id);
                    self.rejected_oversized += 1;
                    let _ = sub.events.send(ServeEvent::Rejected {
                        reason: RejectReason::Oversized,
                        at: now(self.epoch),
                    });
                    continue;
                }
                self.admit_starved = true;
                break;
            }
            let mut sub = self.waiting.pop_front().expect("front exists");
            sub.max_new_tokens = max_new;
            // Monolithic prefill runs synchronously inside `admit` — the
            // admission timestamp below includes it, as TTFT must.
            // Chunked admission defers prefill to per-step
            // `prefill_chunk` calls; TTFT then accrues across the
            // chunks, since the first token cannot appear earlier.
            let admitted = match self.config.prefill_token_budget {
                Some(_) => self.session.admit_chunked(
                    sub.id,
                    &sub.prompt,
                    sub.max_new_tokens,
                    sub.sampler.clone(),
                ),
                None => {
                    self.session
                        .admit(sub.id, &sub.prompt, sub.max_new_tokens, sub.sampler.clone())
                }
            };
            match admitted {
                Ok(outcome) => {
                    let at = now(self.epoch);
                    self.next_admit_seq += 1;
                    if let Some(c) = self.carry.remove(&sub.id) {
                        // Replay re-admission of a preempted request:
                        // restore the original admission's metrics — no
                        // second `Admitted` event, no admission-order
                        // entry, and TTFT / prompt length stay those of
                        // the first pass. Prefix-cache hits on the
                        // replayed prompt are an artifact of replay and
                        // are not counted (the simulator's overload
                        // admission models no prefix reuse).
                        self.live.insert(
                            sub.id,
                            LiveSeq {
                                prompt_tokens: c.prompt_tokens,
                                cached_prefix_tokens: c.cached_prefix_tokens,
                                submitted_at: sub.submitted_at,
                                admitted_at: c.admitted_at,
                                first_token_at: c.first_token_at,
                                generated: c.generated,
                                deadline: sub.deadline,
                                events: sub.events,
                                prompt: sub.prompt,
                                tokens: Vec::new(),
                                max_new_tokens: sub.max_new_tokens,
                                sampler: sub.sampler,
                                priority: sub.priority,
                                admit_seq: self.next_admit_seq,
                            },
                        );
                    } else {
                        let cached = outcome.cached_prefix_tokens as u32;
                        if cached > 0 {
                            self.prefix.hits += 1;
                            self.prefix.saved_prefill_tokens += u64::from(cached);
                        }
                        let _ = sub.events.send(ServeEvent::Admitted {
                            at,
                            cached_prefix_tokens: cached,
                        });
                        self.admission_order.push(sub.id);
                        self.live.insert(
                            sub.id,
                            LiveSeq {
                                prompt_tokens: sub.prompt.len() as u32,
                                cached_prefix_tokens: cached,
                                submitted_at: sub.submitted_at,
                                admitted_at: at,
                                first_token_at: None,
                                generated: 0,
                                deadline: sub.deadline,
                                events: sub.events,
                                prompt: sub.prompt,
                                tokens: Vec::new(),
                                max_new_tokens: sub.max_new_tokens,
                                sampler: sub.sampler,
                                priority: sub.priority,
                                admit_seq: self.next_admit_seq,
                            },
                        );
                    }
                }
                Err(_) => {
                    // Unreachable by construction (intake validates
                    // context length and ids are unique) — degrade to an
                    // explicit rejection, never a panic.
                    self.budget.release(sub.id);
                    self.carry.remove(&sub.id);
                    self.overload.rejected_internal += 1;
                    let _ = sub.events.send(ServeEvent::Rejected {
                        reason: RejectReason::Internal,
                        at: now(self.epoch),
                    });
                }
            }
        }
    }

    /// Evict the youngest running sequence of the lowest class strictly
    /// below `preemptor` and re-queue it for prefix-replay
    /// re-admission: its streamed tokens fold into the prompt (vLLM
    /// recompute-on-preempt style), and greedy determinism resumes the
    /// stream bitwise where it left off once it re-admits. Returns
    /// whether a victim was found. No client-visible event fires — the
    /// client only observes a pause in its token stream.
    fn preempt_below(&mut self, preemptor: Priority) -> bool {
        let victim = pick_victim(&self.live, preemptor, |(_, m)| (m.priority, m.admit_seq))
            .map(|(&id, _)| id);
        let Some(id) = victim else {
            return false;
        };
        let meta = self.live.remove(&id).expect("victim is live");
        // Injector eviction also cancels any pending poison for the
        // victim — the simulator's overload admission mirrors this contract.
        self.session.evict(id);
        self.budget.release(id);
        let replayed = meta.tokens.len();
        self.overload.preemptions += 1;
        self.overload.per_class.preemptions[meta.priority.index()] += 1;
        self.overload.per_class.replayed_tokens[meta.priority.index()] += replayed as u64;
        self.overload.replayed_tokens += replayed as u64;
        let mut prompt = meta.prompt;
        prompt.extend_from_slice(&meta.tokens);
        self.carry.insert(
            id,
            Carry {
                prompt_tokens: meta.prompt_tokens,
                cached_prefix_tokens: meta.cached_prefix_tokens,
                admitted_at: meta.admitted_at,
                first_token_at: meta.first_token_at,
                generated: meta.generated,
            },
        );
        insert_by_priority(
            &mut self.waiting,
            Submission {
                id,
                prompt,
                max_new_tokens: meta.max_new_tokens - replayed,
                sampler: meta.sampler,
                submitted_at: meta.submitted_at,
                deadline: meta.deadline,
                priority: meta.priority,
                events: meta.events,
            },
            |s| s.priority,
        );
        true
    }

    /// One supervised decode step: retry transient errors with capped
    /// exponential backoff, evict poisoned requests so the rest of the
    /// batch survives, feed latency and failures to the breaker.
    fn step_supervised(&mut self) {
        let mut attempt: u32 = 0;
        loop {
            let started = Instant::now();
            match self.session.try_step() {
                Ok(events) => {
                    let latency = started.elapsed();
                    let stalled = self
                        .config
                        .watchdog_step_timeout
                        .is_some_and(|limit| latency > limit);
                    if stalled {
                        self.robust.watchdog_stalls += 1;
                    }
                    self.breaker.record_step(latency, stalled, Instant::now());
                    self.process_tokens(events);
                    return;
                }
                Err(StepError::Poisoned { request }) => {
                    self.breaker.record_failure(Instant::now());
                    self.fail_request(request, FailReason::Poisoned);
                    if self.session.is_empty() {
                        return;
                    }
                    // Retry immediately: the victim is gone and, by
                    // per-sequence independence, the survivors' tokens
                    // are unaffected. Poison does not consume the
                    // transient retry budget.
                }
                Err(StepError::Transient) => {
                    self.breaker.record_failure(Instant::now());
                    attempt += 1;
                    if attempt > self.config.retry.max_retries {
                        // The device is stuck past the retry budget:
                        // fail the whole live batch explicitly and keep
                        // the server up for future requests.
                        for id in self.session.live_ids() {
                            self.fail_request(id, FailReason::RetriesExhausted);
                        }
                        return;
                    }
                    self.robust.retries += 1;
                    let backoff = self
                        .config
                        .retry
                        .backoff(attempt, self.config.fault_plan.seed ^ self.decode_steps);
                    std::thread::sleep(Duration::from_secs_f64(backoff.value()));
                }
            }
        }
    }

    /// Stream one successful step's tokens out, retire completions.
    fn process_tokens(&mut self, events: Vec<TokenEvent>) {
        let at = now(self.epoch);
        self.decode_steps += 1;
        self.occupancy_acc += events.len() as f64;
        let mut kv_failures = Vec::new();
        for ev in events {
            let Some(meta) = self.live.get_mut(&ev.seq) else {
                // Defensive: a token for a sequence we no longer track.
                continue;
            };
            meta.generated += 1;
            meta.tokens.push(ev.token);
            if meta.first_token_at.is_none() {
                meta.first_token_at = Some(at);
            }
            let _ = meta.events.send(ServeEvent::Token {
                token: ev.token,
                at,
            });
            if ev.finished {
                self.budget.release(ev.seq);
                self.pending_cancels.remove(&ev.seq);
                let meta = self.live.remove(&ev.seq).expect("live seq");
                self.overload.per_class.completed[meta.priority.index()] += 1;
                let metrics = RequestMetrics::from_timestamps(
                    ev.seq,
                    meta.prompt_tokens,
                    meta.generated,
                    meta.submitted_at,
                    meta.admitted_at,
                    meta.first_token_at.expect("finished implies first token"),
                    at,
                    meta.cached_prefix_tokens,
                    meta.priority,
                );
                let _ = meta.events.send(ServeEvent::Finished {
                    metrics: metrics.clone(),
                });
                self.per_request.push(metrics);
                self.last_finished_at = at.value();
            } else if self.budget.append_one(ev.seq).is_err() {
                kv_failures.push(ev.seq);
            }
        }
        for id in kv_failures {
            self.robust.kv_accounting_failures += 1;
            self.fail_request(id, FailReason::KvAccounting);
        }
        self.peak_kv = self.peak_kv.max(self.budget.utilization());
        // One brownout observation per completed decode step, carrying
        // whether this step's admission pass starved on KV — the same
        // cadence and signal as the simulator's replica step. The
        // controller no-ops unless brownout is enabled.
        self.brownout.observe_step(self.admit_starved);
    }

    /// Kill one admitted request: evict it from the batch, free its KV
    /// reservation, and resolve its client with a terminal failure. By
    /// per-sequence independence the survivors' token streams are
    /// bitwise unaffected.
    fn fail_request(&mut self, id: u64, reason: FailReason) {
        if self.session.evict(id) {
            self.robust.evictions += 1;
        }
        self.budget.release(id);
        self.pending_cancels.remove(&id);
        if let Some(meta) = self.live.remove(&id) {
            self.robust.failed += 1;
            let _ = meta.events.send(ServeEvent::Failed {
                reason,
                at: now(self.epoch),
            });
        }
    }

    fn into_report(mut self) -> ServeReport {
        let makespan =
            Seconds((self.last_finished_at - self.first_submitted_at.unwrap_or(0.0)).max(0.0));
        let counters = self.session.counters;
        self.robust.faults_injected = counters.injected;
        self.robust.breaker_opened = self.breaker.opened;
        self.robust.breaker_degraded_steps = self.breaker.degraded_steps;
        self.robust.breaker_recoveries = self.breaker.recoveries;
        self.overload.brownout_steps = self.brownout.brownout_steps;
        ServeReport::from_parts(
            self.per_request,
            self.shed_deadline,
            self.rejected_oversized,
            makespan,
            self.decode_steps,
            self.prefill_chunks,
            self.occupancy_acc,
            self.peak_kv,
            self.admission_order,
            self.robust,
            self.prefix,
            self.overload,
        )
    }
}

#[allow(clippy::too_many_arguments)]
fn scheduler_loop(
    model: &TransformerModel,
    config: &ServeConfig,
    rx: &Receiver<Submission>,
    control: &Receiver<u64>,
    stop: &AtomicBool,
    epoch: Instant,
    telemetry: &ReplicaTelemetry,
) -> ServeReport {
    // A paged KV budget (`kv_block_tokens: Some(b)`) enables the
    // engine's block-based shared-prefix cache at the same granularity,
    // so repeated system prompts skip their prefill. Monolithic pools
    // have no block sharing — the session runs cold, like the simulator.
    let session = match config.kv_block_tokens {
        Some(block) => BatchSession::with_prefix_cache(
            model,
            PrefixConfig {
                block_tokens: block as usize,
                ..PrefixConfig::default()
            },
        ),
        None => BatchSession::new(model),
    };
    let mut sched = Scheduler {
        session: FaultInjector::new(session, config.fault_plan.clone()),
        budget: KvBudget::new(config.kv_capacity_tokens, config.kv_block_tokens),
        breaker: CircuitBreaker::new(config.breaker.clone()),
        config: config.clone(),
        epoch,
        model_max_seq: model.config().max_seq,
        waiting: VecDeque::new(),
        live: HashMap::new(),
        pending_cancels: HashSet::new(),
        per_request: Vec::new(),
        admission_order: Vec::new(),
        robust: RobustnessStats::default(),
        prefix: PrefixCounters::default(),
        overload: OverloadCounters::default(),
        brownout: BrownoutController::new(config.overload.brownout),
        carry: HashMap::new(),
        next_admit_seq: 0,
        admit_starved: false,
        shed_deadline: 0,
        rejected_oversized: 0,
        decode_steps: 0,
        prefill_chunks: 0,
        occupancy_acc: 0.0,
        peak_kv: 0.0,
        first_submitted_at: None,
        last_finished_at: 0.0,
    };
    let mut disconnected = false;
    loop {
        // 0. Publish health telemetry for the pool router (lock-free;
        //    no-op overhead when serving standalone).
        telemetry
            .reserved_kv_tokens
            .store(sched.budget.reserved_tokens(), Ordering::Relaxed);
        telemetry
            .breaker_state
            .store(sched.breaker.state().encode(), Ordering::Relaxed);
        telemetry
            .watchdog_stalls
            .store(sched.robust.watchdog_stalls, Ordering::Relaxed);
        telemetry
            .batch_occupancy
            .store(sched.session.len() as u32, Ordering::Relaxed);
        let backlog = sched.session.pending_prefill_tokens() as u64
            + sched
                .waiting
                .iter()
                .map(|sub| sub.prompt.len() as u64)
                .sum::<u64>();
        telemetry
            .queued_prefill_tokens
            .store(backlog, Ordering::Relaxed);
        // 1. Wall-clock breaker transitions (open → half-open) — driven
        //    here so an empty batch cannot freeze the breaker.
        sched.breaker.tick(Instant::now());
        // 1b. Under an active overload policy any pending injected
        //     stall sleeps here, *before* intake, so arrivals landing
        //     during the stall are visible to this iteration's
        //     admission pass — the simulator's replica step advances
        //     its clock at the same point. The legacy path keeps the
        //     stall inside `try_step` (the chaos watchdog asserts on
        //     in-step latency).
        if config.overload.active() {
            let stall = sched.session.take_stall();
            if stall > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(stall));
            }
        }
        // 2. Intake: drain the ingress, but never hold more than
        //    `queue_capacity` requests in the waiting queue — leaving
        //    the channel full is what propagates backpressure to
        //    `Client::submit` as `QueueFull`.
        while sched.waiting.len() < config.queue_capacity {
            match rx.try_recv() {
                Ok(sub) => sched.intake(sub),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }
        // 3. Client cancellations (queued or mid-decode).
        sched.process_cancels(control);
        // 4. Shed queued requests past their deadline.
        sched.shed_expired();
        // 5. Admission at this decode-step boundary, under the current
        //    memory-pressure factor and breaker-adjusted concurrency.
        let pressure = sched.session.kv_pressure();
        sched.budget.set_pressure_factor(pressure);
        sched.admit();
        // 5b. Chunked prefill: push at most one token-budgeted chunk of
        //     pending prompt through the model, interleaved with the
        //     decode step below — a long prompt costs every live stream
        //     one chunk of added ITL per step, never its whole prefill.
        if let Some(budget) = config.prefill_token_budget {
            if sched.session.prefill_chunk(budget).is_some() {
                sched.prefill_chunks += 1;
            }
        }
        // 6. Run one supervised step, or wait for work.
        if !sched.session.is_empty() {
            sched.step_supervised();
        } else if sched.waiting.is_empty() && sched.session.pending_len() == 0 {
            if stop.load(Ordering::Acquire) || disconnected {
                break;
            }
            // Idle: block briefly so we neither busy-spin nor miss a
            // shutdown signal.
            match rx.recv_timeout(Duration::from_millis(1)) {
                Ok(sub) => sched.intake(sub),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => disconnected = true,
            }
        }
        // else: waiting non-empty with an empty session — the admit pass
        // above either admits on the next iteration or sheds; loop on.
    }
    // A submission racing in between the final drain and the break gets
    // an explicit rejection instead of a silently dropped channel.
    while let Ok(sub) = rx.try_recv() {
        sched.robust.submitted += 1;
        sched.overload.rejected_internal += 1;
        let _ = sub.events.send(ServeEvent::Rejected {
            reason: RejectReason::Internal,
            at: now(epoch),
        });
    }
    sched.into_report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmib_engine::EngineConfig;

    /// The scheduler publishes live batch-occupancy and queued-prefill
    /// gauges. A one-slot replica fed two requests holds the second in
    /// the waiting queue for the first one's whole decode, so the
    /// backlog gauge reads that queued prompt and the occupancy gauge
    /// reads the live batch for the entire window — long enough for a
    /// polling thread to observe both deterministically. Both gauges
    /// return to zero once the batch drains.
    #[test]
    fn telemetry_gauges_expose_prefill_backlog_and_batch_occupancy() {
        let model = Arc::new(
            TransformerModel::new(
                EngineConfig::scaled_from(llmib_models::ModelId::Llama2_7b, 128, 7),
                false,
            )
            .unwrap(),
        );
        let config = ServeConfig {
            max_concurrency: 1,
            prefill_token_budget: Some(8),
            ..ServeConfig::default()
        };
        let replica = spawn_scheduler(model, config, Instant::now());
        let (events, rx) = std::sync::mpsc::channel();
        let (events2, rx2) = std::sync::mpsc::channel();
        for (id, prompt_len, output, ev) in [(0u64, 32usize, 64, events), (1, 48, 8, events2)] {
            replica
                .ingress
                .send(Submission {
                    id,
                    // Disjoint prompts: a shared prefix would be served
                    // from the block trie, shrinking the second
                    // request's cold-chunk count below ceil(48/8).
                    prompt: (0..prompt_len)
                        .map(|i| (i * 7 + 13 * id as usize) % 64)
                        .collect(),
                    max_new_tokens: output,
                    sampler: Sampler::Greedy,
                    submitted_at: Seconds(0.0),
                    deadline: None,
                    priority: Priority::Standard,
                    events: ev,
                })
                .expect("scheduler hung up before the test submission");
        }

        // While request 0 decodes its 64 tokens, request 1's 48-token
        // prompt sits in the waiting queue: every gauge publish in that
        // window shows backlog >= 48 and occupancy == 1. Poll until
        // both are seen or the run ends.
        let mut peak_backlog = 0u64;
        let mut peak_occupancy = 0u32;
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            peak_backlog = peak_backlog.max(
                replica
                    .telemetry
                    .queued_prefill_tokens
                    .load(Ordering::Relaxed),
            );
            peak_occupancy =
                peak_occupancy.max(replica.telemetry.batch_occupancy.load(Ordering::Relaxed));
            if peak_backlog > 0 && peak_occupancy >= 1 {
                break;
            }
            if matches!(rx2.try_recv(), Ok(ServeEvent::Finished { .. })) {
                break;
            }
            std::thread::yield_now();
            assert!(Instant::now() < deadline, "requests did not finish in time");
        }
        assert!(peak_backlog > 0, "never observed a queued-prefill backlog");
        assert!(peak_occupancy >= 1, "never observed a live decode batch");

        // Both streams complete despite the gauge polling.
        for stream in [rx, rx2] {
            let finished = stream
                .iter()
                .any(|ev| matches!(ev, ServeEvent::Finished { .. }));
            assert!(finished, "a request died before finishing");
        }
        replica.stop.store(true, Ordering::Release);
        drop(replica.ingress);
        let report = replica.worker.join().expect("scheduler thread panicked");
        assert_eq!(report.completed, 2);
        assert_eq!(report.prefill_chunks, 32u64.div_ceil(8) + 48u64.div_ceil(8));
        // The loop republishes the gauges after the batch drains, so
        // an idle replica reads as idle.
        assert_eq!(replica.telemetry.batch_occupancy.load(Ordering::Relaxed), 0);
        assert_eq!(
            replica
                .telemetry
                .queued_prefill_tokens
                .load(Ordering::Relaxed),
            0
        );
    }
}
