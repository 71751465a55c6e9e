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
//!    (shrunk under memory pressure) allow — the reserved admission
//!    pass [`llmib_sched::Admission::admit`], shared with the simulator,
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
use crate::client::Client;
use crate::config::ServeConfig;
use crate::event::{FailReason, RejectReason, ServeEvent};
use crate::fault::FaultInjector;
use crate::report::{PrefixCounters, RequestMetrics, RobustnessStats, ServeReport};
use llmib_engine::{BatchSession, EngineStep, PrefixConfig, Sampler, TokenEvent, TransformerModel};
use llmib_sched::{insert_by_priority, Admission, AdmitExecutor, KvBudget, Refusal, Ticket};
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
    /// `Some` for a preempted request queued for prefix-replay
    /// re-admission: its budget is never re-clamped and it is never
    /// brownout-shed.
    pub replay: Option<Carry>,
}

/// Scheduler-side state of an admitted sequence.
struct LiveSeq {
    /// The current admission: the original prompt plus any streamed
    /// tokens folded in by preemptions (the replay prefill), and the
    /// remaining generation budget.
    sub: Submission,
    carry: Carry,
    /// Tokens generated during the current admission only.
    tokens: Vec<usize>,
    /// Admission sequence number, monotone across all admissions
    /// (replays included) — the youngest-victim tie-break of
    /// [`llmib_sched::pick_victim`], shared with the simulator.
    admit_seq: u64,
}

/// Metrics of a request's whole lifetime, carried across preemptions so
/// the client-visible request metrics span it (one `Admitted` event, the
/// original TTFT, the original prompt length). Prefix-cache hits on a
/// replayed prompt are an artifact of replay and are not counted (the
/// simulator's overload admission models no prefix reuse).
pub(crate) struct Carry {
    /// Original prompt length.
    prompt_tokens: u32,
    /// Prompt tokens served from resident shared-prefix KV blocks at
    /// the first admission (prefill skipped); 0 for a cold admission.
    cached_prefix_tokens: u32,
    admitted_at: Seconds,
    first_token_at: Option<Seconds>,
    /// Total tokens streamed to the client across all admissions.
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
    /// Brownout ladder and overload counters of the admission pass the
    /// simulator also runs.
    admission: Admission,
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
            let _ = meta.sub.events.send(ServeEvent::Cancelled {
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
        self.waiting.retain(|sub| {
            let expired = sub.deadline.is_some_and(|d| t.value() > d.value());
            if expired {
                if sub.replay.is_some() {
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
            .filter(|(_, meta)| meta.sub.deadline.is_some_and(|d| t.value() > d.value()))
            .map(|(&id, _)| id)
            .collect();
        for id in expired_live {
            self.robust.deadline_exceeded += 1;
            self.fail_request(id, FailReason::DeadlineExceeded);
        }
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
            meta.carry.generated += 1;
            meta.tokens.push(ev.token);
            meta.carry.first_token_at.get_or_insert(at);
            let _ = meta.sub.events.send(ServeEvent::Token {
                token: ev.token,
                at,
            });
            if ev.finished {
                self.budget.release(ev.seq);
                self.pending_cancels.remove(&ev.seq);
                let LiveSeq { sub, carry: c, .. } = self.live.remove(&ev.seq).expect("live seq");
                self.admission.counters.per_class.completed[sub.priority.index()] += 1;
                let metrics = RequestMetrics::from_timestamps(
                    ev.seq,
                    c.prompt_tokens,
                    c.generated,
                    sub.submitted_at,
                    c.admitted_at,
                    c.first_token_at.expect("finished implies first token"),
                    at,
                    c.cached_prefix_tokens,
                    sub.priority,
                );
                let _ = sub.events.send(ServeEvent::Finished {
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
        self.admission.observe_step();
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
            let _ = meta.sub.events.send(ServeEvent::Failed {
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
        let mut overload = self.admission.counters;
        overload.brownout_steps = self.admission.brownout.brownout_steps;
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
            overload,
        )
    }
}

/// The live scheduler's side of the shared admission pass: it starts
/// engine sequences, evicts victims into replay submissions, and
/// resolves refused submissions with their client events.
struct LiveAdmit<'a, 'm> {
    session: &'a mut FaultInjector<BatchSession<'m>>,
    live: &'a mut HashMap<u64, LiveSeq>,
    prefix: &'a mut PrefixCounters,
    admission_order: &'a mut Vec<u64>,
    rejected_oversized: &'a mut u32,
    chunked: bool,
    epoch: Instant,
}

impl AdmitExecutor for LiveAdmit<'_, '_> {
    type Entry = Submission;

    fn ticket(&self, sub: &Submission) -> Ticket {
        Ticket {
            id: sub.id,
            priority: sub.priority,
            prompt_tokens: sub.prompt.len() as u32,
            max_new_tokens: sub.max_new_tokens as u32,
            replay: sub.replay.is_some(),
        }
    }

    fn held(&self) -> usize {
        self.session.len() + self.session.pending_len()
    }

    fn residents(&self) -> impl Iterator<Item = (u64, Priority, u64)> + '_ {
        self.live
            .iter()
            .map(|(&id, meta)| (id, meta.sub.priority, meta.admit_seq))
    }

    /// Monolithic prefill runs synchronously inside the engine's
    /// `admit`, so the admission timestamp includes it, as TTFT must.
    /// Chunked admission defers prefill to per-step `prefill_chunk`
    /// calls; TTFT then accrues across the chunks.
    fn start(
        &mut self,
        mut sub: Submission,
        max_new: u32,
        admit_seq: u64,
    ) -> std::result::Result<(), Submission> {
        sub.max_new_tokens = max_new as usize;
        let (id, max_new, sampler) = (sub.id, sub.max_new_tokens, sub.sampler.clone());
        let admitted = if self.chunked {
            self.session
                .admit_chunked(id, &sub.prompt, max_new, sampler)
        } else {
            self.session.admit(id, &sub.prompt, max_new, sampler)
        };
        // Unreachable by construction (intake validates context length
        // and ids are unique): the pass degrades it to a rejection.
        let Ok(outcome) = admitted else {
            return Err(sub);
        };
        let at = now(self.epoch);
        let carry = sub.replay.take().unwrap_or_else(|| {
            let cached = outcome.cached_prefix_tokens as u32;
            if cached > 0 {
                self.prefix.hits += 1;
                self.prefix.saved_prefill_tokens += u64::from(cached);
            }
            let _ = sub.events.send(ServeEvent::Admitted {
                at,
                cached_prefix_tokens: cached,
            });
            self.admission_order.push(id);
            Carry {
                prompt_tokens: sub.prompt.len() as u32,
                cached_prefix_tokens: cached,
                admitted_at: at,
                first_token_at: None,
                generated: 0,
            }
        });
        let seq = LiveSeq {
            sub,
            carry,
            tokens: Vec::new(),
            admit_seq,
        };
        self.live.insert(id, seq);
        Ok(())
    }

    /// The streamed tokens fold into the replay prompt (vLLM
    /// recompute-on-preempt style), and greedy determinism resumes the
    /// stream bitwise where it left off once it re-admits. No
    /// client-visible event fires — the client only observes a pause in
    /// its token stream. Injector eviction also cancels any pending
    /// poison for the victim, as the simulator's eviction does.
    fn evict(&mut self, id: u64) -> (Submission, u32) {
        let LiveSeq {
            mut sub,
            carry,
            tokens,
            ..
        } = self.live.remove(&id).expect("victim is live");
        self.session.evict(id);
        sub.prompt.extend_from_slice(&tokens);
        sub.max_new_tokens -= tokens.len();
        sub.replay = Some(carry);
        (sub, tokens.len() as u32)
    }

    fn refuse(&mut self, sub: &Submission, why: Refusal) {
        *self.rejected_oversized += u32::from(why == Refusal::Oversized);
        let reason = match why {
            Refusal::Brownout => RejectReason::Brownout,
            Refusal::Oversized => RejectReason::Oversized,
            Refusal::Internal => RejectReason::Internal,
        };
        let at = now(self.epoch);
        let _ = sub.events.send(ServeEvent::Rejected { reason, at });
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
        admission: Admission::new(config.policy, config.overload),
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
        let cap = sched.breaker.effective_concurrency(config.max_concurrency);
        let mut exec = LiveAdmit {
            session: &mut sched.session,
            live: &mut sched.live,
            prefix: &mut sched.prefix,
            admission_order: &mut sched.admission_order,
            rejected_oversized: &mut sched.rejected_oversized,
            chunked: config.prefill_token_budget.is_some(),
            epoch,
        };
        sched
            .admission
            .admit(&mut sched.budget, &mut sched.waiting, &mut exec, cap);
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
        sched.admission.counters.rejected_internal += 1;
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
                    replay: None,
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
