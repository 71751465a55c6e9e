//! The discrete-event serving loop.

use crate::budget::KvBudget;
use crate::fault::{Attempt, FaultClock};
use crate::overload::{
    insert_by_priority, Admission, AdmitExecutor, BatchingPolicy, ClassCounters, OverloadConfig,
    Refusal, Ticket,
};
use llmib_perf::ResolvedScenario;
use llmib_types::{
    stats, usable_prefix_blocks, FaultPlan, ItlSummary, LatencySample, Priority, ReplicaFaultPlan,
    ReplicaId, ReplicaRole, Request, RequestState, RetryPolicy, Seconds,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::collections::VecDeque;

/// Request arrival process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum ArrivalPattern {
    /// All requests present at t = 0 (the paper's benchmark style).
    Burst,
    /// Poisson arrivals at `rate_per_s`, deterministic via `seed`.
    Poisson {
        /// Mean arrivals per second.
        rate_per_s: f64,
        /// RNG seed.
        seed: u64,
    },
}

impl ArrivalPattern {
    /// Generate `n` requests with the given prompt/output lengths.
    pub fn generate(self, n: u32, prompt_tokens: u32, output_tokens: u32) -> Vec<Request> {
        match self {
            ArrivalPattern::Burst => (0..u64::from(n))
                .map(|id| Request::new(id, Seconds::ZERO, prompt_tokens, output_tokens))
                .collect(),
            ArrivalPattern::Poisson { rate_per_s, seed } => {
                assert!(rate_per_s > 0.0, "arrival rate must be positive");
                let mut rng = StdRng::seed_from_u64(seed);
                let mut t = 0.0;
                (0..u64::from(n))
                    .map(|id| {
                        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                        t += -u.ln() / rate_per_s;
                        Request::new(id, Seconds(t), prompt_tokens, output_tokens)
                    })
                    .collect()
            }
        }
    }
}

/// Simulator configuration.
#[derive(Debug, Clone, Serialize)]
pub struct SimConfig {
    /// Admission policy.
    pub policy: BatchingPolicy,
    /// Scheduler cap on concurrent sequences (vLLM `max_num_seqs`).
    pub max_concurrency: u32,
    /// KV pool capacity in tokens.
    pub kv_capacity_tokens: u64,
    /// `Some(block)` = paged allocator; `None` = monolithic.
    pub kv_block_tokens: Option<u32>,
}

/// Outcome of a serving simulation.
#[derive(Debug, Clone, Serialize)]
pub struct ServingReport {
    /// Requests completed.
    pub completed: u32,
    /// Wall-clock makespan.
    pub makespan: Seconds,
    /// Eq. 2-style throughput over the completed set.
    pub throughput_tokens_per_s: f64,
    /// Mean time to first token.
    pub mean_ttft: Seconds,
    /// 95th-percentile request latency.
    pub p95_latency: Seconds,
    /// Mean inter-token latency across requests.
    pub mean_itl: Seconds,
    /// Per-request-mean ITL percentiles, overall and per priority
    /// class — the same Eq. 1 observations and nearest-rank arithmetic
    /// the live `llmib-serve` report computes, so the two backends'
    /// tails compare directly.
    pub itl: ItlSummary,
    /// Mean concurrent batch size over decode steps.
    pub mean_batch_occupancy: f64,
    /// Peak KV-pool utilization observed.
    pub peak_kv_utilization: f64,
    /// Requests preempted (evicted and recomputed) due to KV exhaustion.
    pub preemptions: u32,
    /// Requests rejected because they can never fit the KV pool.
    pub rejected: u32,
    /// Decode steps executed.
    pub decode_steps: u64,
    /// Prefill chunks executed under chunked prefill
    /// ([`ServingSimulator::with_prefill_chunking`]); zero in
    /// monolithic-prefill runs. Each admission contributes exactly
    /// `ceil(cold_prefill_tokens / budget)` chunks — the identical
    /// count the live scheduler reports, reconciled exactly by the
    /// cross-validation suite.
    pub prefill_chunks: u64,
    /// Requests killed by an injected fault (poison, retry exhaustion,
    /// simulated scheduler death). Zero on fault-free runs.
    pub failed: u32,
    /// Transient-step retries performed (each advanced the clock by one
    /// backoff).
    pub retries: u32,
    /// Fault-plan events activated during the run.
    pub faults_injected: u32,
    /// Admissions that reused a resident shared prefix (prefix-cache
    /// hits). The model mirrors the live engine's block trie: the first
    /// sharer is cold and makes the prefix resident, every later sharer
    /// skips its block-aligned part.
    pub prefix_hits: u32,
    /// Prompt tokens whose prefill was skipped via prefix-cache hits.
    pub saved_prefill_tokens: u64,
    /// Generated tokens folded into replay prefills by priority
    /// preemptions (overload mode only; zero otherwise).
    pub replayed_tokens: u64,
    /// Decode steps observed while the brownout ladder was degraded
    /// (level > 0).
    pub brownout_steps: u64,
    /// Queued best-effort requests shed outright by brownout level 2.
    pub brownout_sheds: u32,
    /// Per-priority-class breakdown (completed always filled;
    /// preemption/replay/shed only by the overload machinery).
    pub per_class: ClassCounters,
    /// Per-request latency observation of every finished request, in
    /// request-id order — the same [`LatencySample`] shape the live
    /// `llmib-serve` report derives, so one SLO spec can be evaluated
    /// against either backend on the same trace.
    pub per_request: Vec<LatencySample>,
}

/// Outcome of a pool run ([`ServingSimulator::run_pool`]).
#[derive(Debug, Clone, Serialize)]
pub struct ReplicatedReport {
    /// Pool-level aggregate over all replicas (makespan is the max
    /// replica clock; steps, occupancy and tallies are summed).
    pub aggregate: ServingReport,
    /// Replicas lost to a scheduler panic.
    pub failovers: u32,
    /// Requests re-admitted on a surviving replica after a failover.
    pub migrations: u32,
    /// Generated tokens carried over as prefill prefix by those
    /// migrations (the live pool replays exactly these).
    pub migrated_tokens: u64,
    /// Planned prefill→decode boundary handoffs: sequences that produced
    /// their first token on a [`ReplicaRole::Prefill`] replica. Zero when
    /// every role is [`ReplicaRole::Unified`]. Counted separately from
    /// failure `migrations`, mirroring the live router's books.
    pub disagg_handoffs: u32,
    /// Requests completed per replica, indexed by `ReplicaId`.
    pub per_replica_completed: Vec<u32>,
}

/// One simulated replica: the mirror of one live `llmib-serve`
/// scheduler thread, with its own clock, KV ledger, admission state,
/// queues and fault clock.
struct Rep {
    now: Seconds,
    decode_steps: u64,
    budget: KvBudget,
    admission: Admission,
    /// Requests waiting for admission, in arrival order. Under overload
    /// admission only not-yet-arrived requests wait here: intake moves
    /// arrivals on to `ready`.
    queue: VecDeque<usize>,
    /// Arrived requests in priority order (overload admission only).
    ready: VecDeque<usize>,
    /// Admitted sequences still prefilling under chunked prefill, with
    /// their remaining cold tokens (KV already charged, like the live
    /// pending reservation).
    prefilling: VecDeque<(usize, u32)>,
    running: Vec<usize>,
    /// This replica's slice of the fault plan.
    faults: FaultClock,
    dead: bool,
    completed: u32,
}

impl Rep {
    fn has_work(&self) -> bool {
        !self.queue.is_empty()
            || !self.ready.is_empty()
            || !self.prefilling.is_empty()
            || !self.running.is_empty()
    }
}

/// The trace under simulation plus the state every replica step
/// shares: per-request ledger entries and the run's counters. Requests
/// are addressed by their index in arrival order.
struct Flights {
    requests: Vec<Request>,
    /// Admission sequence number of each request (replays included) —
    /// the youngest-victim tie-break both backends share.
    seq_of: Vec<u64>,
    /// Whether a request re-enters as a replay: it keeps its remaining
    /// budget (never clamped) and is never brownout-shed.
    replay: Vec<bool>,
    tally: Tally,
}

impl Flights {
    fn fail(&mut self, idx: usize) {
        self.requests[idx].state = RequestState::Failed;
        self.tally.failed += 1;
    }

    fn reject(&mut self, idx: usize) {
        self.requests[idx].state = RequestState::Rejected;
        self.tally.rejected += 1;
    }
}

/// Every counter of a run, summed over replicas.
#[derive(Default)]
struct Tally {
    rejected: u32,
    failed: u32,
    preemptions: u32,
    retries: u32,
    occupancy_acc: f64,
    peak_util: f64,
    prefill_chunks: u64,
    prefix_hits: u32,
    saved_prefill_tokens: u64,
    failovers: u32,
    migrations: u32,
    migrated_tokens: u64,
    disagg_handoffs: u32,
}

/// Fold `req`'s generated tokens into its prompt as a replay prefill
/// (preemption, migration and handoff all resume this way) and return
/// how many were folded.
fn fold_into_prompt(req: &mut Request) -> u32 {
    let generated = req.generated;
    req.prompt_tokens += generated;
    req.output_tokens -= generated;
    req.generated = 0;
    req.state = RequestState::Queued;
    generated
}

/// The simulator's side of the shared admission pass: request indices
/// move from a replica's ready queue into `admitted`.
struct SimAdmit<'a> {
    running: &'a mut Vec<usize>,
    prefilling: &'a mut VecDeque<(usize, u32)>,
    faults: &'a mut FaultClock,
    f: &'a mut Flights,
    admitted: Vec<(usize, u32)>,
}

impl AdmitExecutor for SimAdmit<'_> {
    type Entry = usize;

    fn ticket(&self, &idx: &usize) -> Ticket {
        let r = &self.f.requests[idx];
        Ticket {
            id: r.id,
            priority: r.priority,
            prompt_tokens: r.prompt_tokens,
            max_new_tokens: r.output_tokens,
            replay: self.f.replay[idx],
        }
    }

    fn held(&self) -> usize {
        self.running.len() + self.prefilling.len() + self.admitted.len()
    }

    /// Decoding and still-prefilling sequences, like the live
    /// scheduler's residents.
    fn residents(&self) -> impl Iterator<Item = (u64, Priority, u64)> + '_ {
        let prefilling = self.prefilling.iter().map(|&(idx, _)| idx);
        self.running.iter().copied().chain(prefilling).map(|idx| {
            let r = &self.f.requests[idx];
            (r.id, r.priority, self.f.seq_of[idx])
        })
    }

    fn start(&mut self, idx: usize, max_new: u32, seq: u64) -> Result<(), usize> {
        self.f.requests[idx].output_tokens = max_new;
        self.f.seq_of[idx] = seq;
        self.admitted
            .push((idx, self.f.requests[idx].prompt_tokens));
        Ok(())
    }

    /// A still-prefilling victim loses its prefill progress and folds
    /// zero tokens.
    fn evict(&mut self, id: u64) -> (usize, u32) {
        let requests = &self.f.requests;
        let idx = match self.running.iter().position(|&idx| requests[idx].id == id) {
            Some(pos) => self.running.swap_remove(pos),
            None => {
                let pos = self
                    .prefilling
                    .iter()
                    .position(|&(idx, _)| requests[idx].id == id);
                let victim = pos.and_then(|pos| self.prefilling.remove(pos));
                victim.expect("victim is resident").0
            }
        };
        self.faults.evicted(id);
        self.f.replay[idx] = true;
        (idx, fold_into_prompt(&mut self.f.requests[idx]))
    }

    fn refuse(&mut self, &idx: &usize, why: Refusal) {
        match why {
            Refusal::Brownout => self.f.requests[idx].state = RequestState::Rejected,
            Refusal::Oversized | Refusal::Internal => self.f.reject(idx),
        }
    }
}

/// Keep a replica queue sorted by arrival so front-gated admission
/// stays correct after migrations splice in mid-run.
fn insert_by_arrival(queue: &mut VecDeque<usize>, idx: usize, requests: &[Request]) {
    let arr = requests[idx].arrival.value();
    let pos = queue
        .iter()
        .position(|&q| requests[q].arrival.value() > arr)
        .unwrap_or(queue.len());
    queue.insert(pos, idx);
}

/// Advance the round-robin `cursor` to the next live replica that
/// `accepts`, trying each replica at most once.
fn next_replica(
    reps: &[Rep],
    cursor: &mut usize,
    accepts: impl Fn(usize) -> bool,
) -> Option<usize> {
    (0..reps.len())
        .map(|_| {
            let t = *cursor % reps.len();
            *cursor += 1;
            t
        })
        .find(|&t| !reps[t].dead && accepts(t))
}

/// The serving simulator.
#[derive(Debug)]
pub struct ServingSimulator {
    config: SimConfig,
    overload: Option<OverloadConfig>,
    chunk_budget: Option<u32>,
}

impl ServingSimulator {
    /// Create a simulator with the given configuration.
    pub fn new(config: SimConfig) -> Self {
        assert!(config.max_concurrency > 0);
        Self {
            config,
            overload: None,
            chunk_budget: None,
        }
    }

    /// Enable the chunked-prefill mirror: admission enqueues the
    /// sequence cold, and each scheduler step runs at most one
    /// token-budgeted chunk of the head pending sequence interleaved
    /// with one decode step for the live batch — the exact policy the
    /// live scheduler applies under
    /// `ServeConfig::prefill_token_budget`. Each admission contributes
    /// exactly `ceil(cold_prefill_tokens / budget)` chunks, so chunk
    /// counts reconcile exactly against a live run of the same trace.
    pub fn with_prefill_chunking(mut self, budget: u32) -> Self {
        assert!(budget > 0, "prefill chunk budget must be positive");
        self.chunk_budget = Some(budget);
        self
    }

    /// Enable reserved admission: arrivals enter a priority-ordered
    /// queue served by the live runtime's own admission pass,
    /// [`Admission::admit`] (KV reservation, priority preemption with
    /// prefix-replay re-admission, the brownout ladder), so counters
    /// reconcile exactly with an `llmib-serve` run of the same trace.
    /// Prefix caching is not modeled in this mode (the budget charges
    /// full prompts).
    ///
    /// Returns [`OverloadConfig::validate`]'s error for an invalid
    /// configuration.
    pub fn with_overload(mut self, overload: OverloadConfig) -> Result<Self, String> {
        overload.validate()?;
        self.overload = Some(overload);
        Ok(self)
    }

    /// Run `requests` to completion against the step costs of `perf`.
    pub fn run(&self, requests: Vec<Request>, perf: &ResolvedScenario) -> ServingReport {
        self.run_with_faults(requests, perf, &FaultPlan::empty())
    }

    /// Run `requests` against `perf` while replaying `plan` on the
    /// simulated clock: a one-replica [`ServingSimulator::run_pool`].
    /// The plan is read by the [`FaultClock`] the live `llmib-serve`
    /// scheduler also drives, anchored to the decode-step indices both
    /// runtimes count, so one plan describes one chaos scenario in both
    /// backends:
    ///
    /// * a [`StepStall`](llmib_types::FaultKind::StepStall) advances
    ///   the clock by the extra latency,
    /// * a [`TransientStepError`](llmib_types::FaultKind::TransientStepError)
    ///   advances it by the capped-backoff schedule the live supervisor
    ///   sleeps, one backoff per failed attempt of a running batch. The
    ///   failure after the retry budget fails the whole batch, and the
    ///   failures left over hit the next batch's attempts,
    /// * a [`RequestPoison`](llmib_types::FaultKind::RequestPoison)
    ///   evicts the victim once it decodes,
    /// * [`MemoryPressure`](llmib_types::FaultKind::MemoryPressure)
    ///   shrinks the admission budget for its window of decode steps,
    /// * a [`SchedulerPanic`](llmib_types::FaultKind::SchedulerPanic)
    ///   kills every outstanding request (the live analog of a
    ///   contained scheduler death).
    pub fn run_with_faults(
        &self,
        requests: Vec<Request>,
        perf: &ResolvedScenario,
        plan: &FaultPlan,
    ) -> ServingReport {
        let plan = ReplicaFaultPlan::single(ReplicaId(0), plan.clone());
        self.run_pool(requests, perf, &[ReplicaRole::Unified], &plan)
            .aggregate
    }

    /// Run `requests` across one replica per entry of `roles`,
    /// mirroring the live `llmib-serve` `ReplicaPool`. Each replica
    /// runs this scheduler on its own clock, KV pool and
    /// [`ReplicaFaultPlan::plan_for`] slice; the pool always advances
    /// the live replica whose clock is furthest behind, a deterministic
    /// merge of the per-replica event streams.
    ///
    /// * **Deal.** Requests are dealt round-robin in arrival order over
    ///   the prefill-capable replicas (the share the live router's
    ///   cursor hands each one).
    /// * **Handoff.** A sequence that produces its first token on a
    ///   replica that does not accept decode hands off: its generated
    ///   prefix folds into a replay prefill on a decode-capable replica,
    ///   the live router's cancel-intercept + prefix-replay handoff.
    ///   Handoffs count in [`ReplicatedReport::disagg_handoffs`], never
    ///   in `migrations`.
    /// * **Failover.** A replica lost to a
    ///   [`SchedulerPanic`](llmib_types::FaultKind::SchedulerPanic)
    ///   re-deals its outstanding requests to survivors: a streaming
    ///   flight to a decode-capable one, an unstreamed one to a
    ///   prefill-capable one. Requests that had arrived by the death
    ///   migrate with their generated tokens folded into the prompt;
    ///   not-yet-arrived ones are re-dealt without counting (the live
    ///   router never dispatched them). With no survivor they fail. A
    ///   migrated request keeps its original arrival and the TTFT of
    ///   its streamed prefix, so latency stays measured from first
    ///   submission.
    ///
    /// With every role [`ReplicaRole::Unified`] there are no handoffs
    /// and every live replica is a failover target.
    pub fn run_pool(
        &self,
        mut requests: Vec<Request>,
        perf: &ResolvedScenario,
        roles: &[ReplicaRole],
        plan: &ReplicaFaultPlan,
    ) -> ReplicatedReport {
        assert!(
            roles.iter().any(|r| r.accepts_prefill()),
            "need a prefill-capable replica"
        );
        assert!(
            roles.iter().any(|r| r.accepts_decode()),
            "need a decode-capable replica"
        );
        requests.sort_by(|a, b| a.arrival.value().total_cmp(&b.arrival.value()));
        let n = requests.len();
        let mut f = Flights {
            requests,
            seq_of: vec![0; n],
            replay: vec![false; n],
            tally: Tally::default(),
        };
        let mut reps: Vec<Rep> = (0..roles.len() as u32)
            .map(|r| Rep {
                now: Seconds::ZERO,
                decode_steps: 0,
                budget: KvBudget::new(self.config.kv_capacity_tokens, self.config.kv_block_tokens),
                admission: Admission::new(self.config.policy, self.overload.unwrap_or_default()),
                queue: VecDeque::new(),
                ready: VecDeque::new(),
                prefilling: VecDeque::new(),
                running: Vec::new(),
                faults: FaultClock::new(plan.plan_for(ReplicaId(r)), RetryPolicy::default()),
                dead: false,
                completed: 0,
            })
            .collect();
        let prefill_reps: Vec<usize> = (0..roles.len())
            .filter(|&i| roles[i].accepts_prefill())
            .collect();
        for idx in 0..n {
            reps[prefill_reps[idx % prefill_reps.len()]]
                .queue
                .push_back(idx);
        }

        // Deterministic cursors for failover and handoff targets.
        let mut failover_rr = 0usize;
        let mut handoff_rr = 0usize;
        while let Some(r) = (0..reps.len())
            .filter(|&i| !reps[i].dead && reps[i].has_work())
            .min_by(|&a, &b| reps[a].now.value().total_cmp(&reps[b].now.value()))
        {
            if let Some(outstanding) = self.step(&mut reps[r], &mut f, perf) {
                f.tally.failovers += 1;
                let dead_now = reps[r].now;
                for idx in outstanding {
                    let req = &mut f.requests[idx];
                    let streamed = req.generated > 0;
                    if req.arrival.value() <= dead_now.value() {
                        f.tally.migrations += 1;
                        f.tally.migrated_tokens += u64::from(fold_into_prompt(req));
                    }
                    req.state = RequestState::Queued;
                    let survivor = next_replica(&reps, &mut failover_rr, |t| {
                        if streamed {
                            roles[t].accepts_decode()
                        } else {
                            roles[t].accepts_prefill()
                        }
                    });
                    match survivor {
                        Some(t) => insert_by_arrival(&mut reps[t].queue, idx, &f.requests),
                        None => f.fail(idx),
                    }
                }
            } else if !roles[r].accepts_decode() {
                // Phase boundary: a sequence that produced its first
                // token on a prefill-only replica hands off now.
                let mut i = 0;
                while i < reps[r].running.len() {
                    let idx = reps[r].running[i];
                    if f.requests[idx].generated == 0 {
                        i += 1;
                        continue;
                    }
                    reps[r].running.swap_remove(i);
                    reps[r].budget.release(f.requests[idx].id);
                    fold_into_prompt(&mut f.requests[idx]);
                    match next_replica(&reps, &mut handoff_rr, |t| roles[t].accepts_decode()) {
                        Some(t) => {
                            f.tally.disagg_handoffs += 1;
                            insert_by_arrival(&mut reps[t].queue, idx, &f.requests);
                        }
                        None => f.fail(idx),
                    }
                }
            }
        }

        let aggregate = self.report(&f.requests, &reps, &f.tally);
        ReplicatedReport {
            aggregate,
            failovers: f.tally.failovers,
            migrations: f.tally.migrations,
            migrated_tokens: f.tally.migrated_tokens,
            disagg_handoffs: f.tally.disagg_handoffs,
            per_replica_completed: reps.iter().map(|rep| rep.completed).collect(),
        }
    }

    /// One scheduler iteration of one replica, in phase order: the fault
    /// clock's questions (panic, stall, pressure, then the step attempt
    /// of a running batch) → admission (with intake) → at most one
    /// prefill chunk → idle handling → the attempt of a batch formed in
    /// this step → one decode step → completions. Only admission and a
    /// failed decode append depend on whether overload mode is on.
    /// Returns every outstanding request if a planned scheduler panic
    /// killed the replica.
    fn step(&self, rep: &mut Rep, f: &mut Flights, perf: &ResolvedScenario) -> Option<Vec<usize>> {
        // --- Faults due (this replica's plan, its own step clock;
        //     before intake, so a stall's clock advance makes arrivals
        //     visible like the live scheduler's pending stall) ---
        if rep.faults.panic_due() {
            // The ledger and pool die with the scheduler.
            rep.dead = true;
            let prefilling = rep.prefilling.drain(..).map(|(idx, _)| idx);
            return Some(
                rep.queue
                    .drain(..)
                    .chain(rep.ready.drain(..))
                    .chain(prefilling)
                    .chain(rep.running.drain(..))
                    .collect(),
            );
        }
        rep.now += rep.faults.take_stall();
        rep.budget.set_pressure_factor(rep.faults.pressure());
        if !rep.running.is_empty() {
            Self::supervise(rep, f);
        }

        // --- Admission: lazy FIFO, or intake + the shared pass ---
        let held = rep.running.len() + rep.prefilling.len();
        let admitted = match self.overload {
            None if self.config.policy.may_admit(held) => self.admit_fifo(rep, f),
            None => Vec::new(),
            Some(_) => {
                while let Some(&idx) = rep.queue.front() {
                    if f.requests[idx].arrival.value() > rep.now.value() {
                        break;
                    }
                    rep.queue.pop_front();
                    if rep.budget.fits_ever(f.requests[idx].max_context()) {
                        insert_by_priority(&mut rep.ready, idx, |&q| f.requests[q].priority);
                    } else {
                        f.reject(idx);
                    }
                }
                let mut exec = SimAdmit {
                    running: &mut rep.running,
                    prefilling: &mut rep.prefilling,
                    faults: &mut rep.faults,
                    f,
                    admitted: Vec::new(),
                };
                let cap = self.config.max_concurrency as usize;
                rep.admission
                    .admit(&mut rep.budget, &mut rep.ready, &mut exec, cap);
                exec.admitted
            }
        };
        if !admitted.is_empty() {
            if self.chunk_budget.is_some() {
                // Chunked mode: no prefill time is charged at admission
                // — the sequence queues cold and drains below, one
                // chunk per step.
                rep.prefilling.extend(admitted);
            } else {
                let k = admitted.len() as u32;
                let mean_prompt = (admitted
                    .iter()
                    .map(|&(_, prefill)| u64::from(prefill))
                    .sum::<u64>()
                    / u64::from(k)) as u32;
                rep.now += perf.prefill_time(k, mean_prompt.max(1));
                for (idx, _) in admitted {
                    f.requests[idx].state = RequestState::Decoding;
                    rep.running.push(idx);
                }
            }
        }

        // --- At most one token-budgeted chunk of the head pending
        //     sequence, interleaved with the decode step below — the
        //     live scheduler-loop policy mirrored ---
        if let Some(budget) = self.chunk_budget {
            if let Some((idx, remaining)) = rep.prefilling.front_mut() {
                let take = (*remaining).min(budget).max(1);
                rep.now += perf.prefill_time(1, take);
                f.tally.prefill_chunks += 1;
                *remaining = remaining.saturating_sub(take);
                if *remaining == 0 {
                    let idx = *idx;
                    rep.prefilling.pop_front();
                    f.requests[idx].state = RequestState::Decoding;
                    rep.running.push(idx);
                }
            }
        }

        // --- Idle: nothing decodes. A chunk that just ran advanced the
        //     clock, so keep draining; otherwise jump to the next
        //     arrival, or shed arrived work an idle pool still cannot
        //     hold (it never will: a serving system must shed it and
        //     keep going, like the live runtime) ---
        if rep.running.is_empty() {
            if rep.prefilling.is_empty() {
                match rep.queue.front() {
                    Some(&idx) if f.requests[idx].arrival.value() > rep.now.value() => {
                        rep.now = f.requests[idx].arrival;
                    }
                    _ => {
                        if let Some(idx) = rep.ready.pop_front().or_else(|| rep.queue.pop_front()) {
                            f.reject(idx);
                        }
                    }
                }
            }
            return None;
        }

        // A batch that formed in this step is judged before its first
        // decode: an idle replica attempts no step, as live.
        Self::supervise(rep, f);
        if rep.running.is_empty() {
            return None;
        }

        // --- One decode step ---
        let batch = rep.running.len() as u32;
        let ctx_avg = (rep
            .running
            .iter()
            .map(|&i| u64::from(f.requests[i].context()))
            .sum::<u64>()
            / u64::from(batch)) as u32;
        rep.now += perf.decode_step_time(batch, ctx_avg);
        rep.decode_steps += 1;
        rep.faults.stepped();
        f.tally.occupancy_acc += f64::from(batch);

        let mut i = 0;
        while i < rep.running.len() {
            let idx = rep.running[i];
            if rep.budget.append_one(f.requests[idx].id).is_ok() {
                let r = &mut f.requests[idx];
                r.generated += 1;
                // Only when absent: a migrated or replayed request keeps
                // the TTFT of its streamed prefix.
                if r.first_token_at.is_none() {
                    r.first_token_at = Some(rep.now);
                }
                i += 1;
            } else if self.overload.is_some() {
                // Reservation makes appends infallible; a failure is the
                // accounting bug the live runtime fails per request.
                rep.running.swap_remove(i);
                rep.budget.release(f.requests[idx].id);
                f.fail(idx);
            } else {
                // Pool exhausted: preempt the most recently admitted
                // sequence (vLLM recompute-style) and retry the append.
                let victim = rep.running.pop().expect("running is non-empty");
                rep.budget.release(f.requests[victim].id);
                if rep.running.is_empty() && victim == idx {
                    // It had the whole pool to itself and still ran
                    // out: it can never finish, and requeueing would
                    // preempt-loop forever. Shed it.
                    f.reject(victim);
                    continue;
                }
                let v = &mut f.requests[victim];
                v.state = RequestState::Queued;
                v.generated = 0;
                v.first_token_at = None;
                rep.queue.push_front(victim);
                f.tally.preemptions += 1;
            }
        }

        f.tally.peak_util = f.tally.peak_util.max(rep.budget.utilization());
        // One starvation sample per completed decode step — the shared
        // ladder both backends drive identically.
        rep.admission.observe_step();

        // --- Completions ---
        let (done, running): (Vec<usize>, Vec<usize>) = std::mem::take(&mut rep.running)
            .into_iter()
            .partition(|&idx| f.requests[idx].generated >= f.requests[idx].output_tokens);
        rep.running = running;
        for idx in done {
            rep.budget.release(f.requests[idx].id);
            let r = &mut f.requests[idx];
            r.state = RequestState::Finished;
            r.finished_at = Some(rep.now);
            rep.completed += 1;
        }
        None
    }

    /// Ask the fault clock about the next decode step until it may run,
    /// applying the live supervisor's rules: a poisoned victim dies
    /// alone, a transient failure costs its backoff, and an exhausted
    /// retry budget fails the whole batch.
    fn supervise(rep: &mut Rep, f: &mut Flights) {
        loop {
            let running = &rep.running;
            let requests = &f.requests;
            match rep
                .faults
                .attempt(|id| running.iter().any(|&idx| requests[idx].id == id))
            {
                Attempt::Run => return,
                Attempt::Poisoned(id) => {
                    let pos = rep.running.iter().position(|&idx| f.requests[idx].id == id);
                    let idx = rep
                        .running
                        .swap_remove(pos.expect("poisoned victim is running"));
                    rep.budget.release(id);
                    f.fail(idx);
                    if rep.running.is_empty() {
                        return;
                    }
                }
                Attempt::Retry(backoff) => {
                    rep.now += backoff;
                    f.tally.retries += 1;
                }
                Attempt::Exhausted => {
                    for idx in std::mem::take(&mut rep.running) {
                        rep.budget.release(f.requests[idx].id);
                        rep.faults.evicted(f.requests[idx].id);
                        f.fail(idx);
                    }
                    return;
                }
            }
        }
    }

    /// Lazy-append FIFO admission: admit the arrived queue front while
    /// the concurrency cap, the pool and any pressure window allow,
    /// charging only the prompt (minus a prefix-cache hit) upfront and
    /// reserving nothing. Returns each admission with its cold prefill
    /// tokens.
    fn admit_fifo(&self, rep: &mut Rep, f: &mut Flights) -> Vec<(usize, u32)> {
        let mut admitted = Vec::new();
        let budget = &mut rep.budget;
        // Pending (still-prefilling) sequences count against the
        // concurrency cap, exactly like the live scheduler.
        while rep.running.len() + rep.prefilling.len() + admitted.len()
            < self.config.max_concurrency as usize
        {
            let Some(&idx) = rep.queue.front() else { break };
            let req = &f.requests[idx];
            if req.arrival.value() > rep.now.value() {
                break;
            }
            // Under a memory-pressure window the pool is temporarily
            // shrunk: hold admissions that would push utilization past
            // the factor (existing sequences are unaffected).
            if budget.under_pressure() && budget.utilization() >= budget.pressure_factor() {
                break;
            }
            let alloc = budget.allocator();
            if !alloc.can_admit(req.max_context()) {
                break;
            }
            // Prefix-cache model (paged pools only, mirroring the live
            // engine's block trie, one trie per replica): the
            // block-aligned shared prefix lives in the shared ledger,
            // charged once. The first sharer is cold — it prefills
            // everything and makes the prefix resident; later sharers
            // skip it.
            let aligned = match self.config.kv_block_tokens {
                Some(bt) if req.shared_prefix_tokens > 0 => {
                    let (hit, prompt) = (req.shared_prefix_tokens / bt, req.prompt_tokens);
                    usable_prefix_blocks(hit as usize, prompt as usize, bt as usize) as u32 * bt
                }
                _ => 0,
            };
            let key = u64::from(req.shared_prefix_tokens);
            let cached = if aligned > 0 && alloc.shared_resident(key) {
                aligned
            } else {
                0
            };
            if alloc.admit(req.id, req.max_context()).is_err() {
                break;
            }
            if aligned > 0 && cached == 0 && alloc.acquire_shared(key, u64::from(aligned)).is_err()
            {
                alloc.release(req.id);
                break;
            }
            // Prefill KV lands immediately on admission; the shared
            // part is already accounted in the ledger.
            if alloc.append(req.id, req.prompt_tokens - aligned).is_err() {
                alloc.release(req.id);
                break;
            }
            if cached > 0 {
                f.tally.prefix_hits += 1;
                f.tally.saved_prefill_tokens += u64::from(cached);
            }
            rep.queue.pop_front();
            admitted.push((idx, req.prompt_tokens - cached));
        }
        admitted
    }

    fn report(&self, requests: &[Request], reps: &[Rep], tally: &Tally) -> ServingReport {
        let makespan = reps
            .iter()
            .map(|rep| rep.now)
            .fold(Seconds::ZERO, |a, b| Seconds(a.value().max(b.value())));
        let sum = |count: fn(&Rep) -> u64| -> u64 { reps.iter().map(count).sum() };
        let decode_steps = sum(|rep| rep.decode_steps);
        let finished: Vec<&Request> = requests
            .iter()
            .filter(|r| r.state == RequestState::Finished)
            .collect();
        let completed = finished.len() as u32;
        let mut per_class = ClassCounters::default();
        for rep in reps {
            per_class.merge(&rep.admission.counters.per_class);
        }
        for r in &finished {
            per_class.completed[r.priority.index()] += 1;
        }
        let total_tokens: u64 = finished
            .iter()
            .map(|r| u64::from(r.prompt_tokens) + u64::from(r.output_tokens))
            .sum();
        let latencies: Vec<f64> = finished
            .iter()
            .filter_map(|r| r.latency().map(|s| s.value()))
            .collect();
        let ttfts: Vec<f64> = finished
            .iter()
            .filter_map(|r| r.ttft().map(|s| s.value()))
            .collect();
        // Eq. 1 per request, computed once: the mean and the percentile
        // summary read the same observations.
        let itl: Vec<(Priority, Option<Seconds>)> = finished
            .iter()
            .map(|r| {
                let obs = r.latency().zip(r.ttft()).and_then(|(lat, ttft)| {
                    (r.output_tokens > 1).then(|| {
                        Seconds((lat.value() - ttft.value()) / f64::from(r.output_tokens - 1))
                    })
                });
                (r.priority, obs)
            })
            .collect();
        let itl_means: Vec<f64> = itl
            .iter()
            .filter_map(|&(_, obs)| obs)
            .map(|s| s.value())
            .collect();
        let mut per_request: Vec<LatencySample> =
            finished.iter().filter_map(|r| r.latency_sample()).collect();
        per_request.sort_by_key(|s| s.id);
        ServingReport {
            completed,
            makespan,
            throughput_tokens_per_s: if makespan.value() > 0.0 {
                total_tokens as f64 / makespan.value()
            } else {
                0.0
            },
            mean_ttft: Seconds(stats::mean(&ttfts)),
            p95_latency: Seconds(stats::p95(&latencies)),
            mean_itl: Seconds(stats::mean(&itl_means)),
            itl: ItlSummary::from_observations(itl),
            mean_batch_occupancy: if decode_steps > 0 {
                tally.occupancy_acc / decode_steps as f64
            } else {
                0.0
            },
            peak_kv_utilization: tally.peak_util,
            preemptions: tally.preemptions
                + sum(|rep| rep.admission.counters.preemptions.into()) as u32,
            rejected: tally.rejected,
            decode_steps,
            prefill_chunks: tally.prefill_chunks,
            failed: tally.failed,
            retries: tally.retries,
            faults_injected: sum(|rep| rep.faults.injected().into()) as u32,
            prefix_hits: tally.prefix_hits,
            saved_prefill_tokens: tally.saved_prefill_tokens,
            replayed_tokens: sum(|rep| rep.admission.counters.replayed_tokens),
            brownout_steps: sum(|rep| rep.admission.brownout.brownout_steps),
            brownout_sheds: sum(|rep| rep.admission.counters.shed_brownout.into()) as u32,
            per_class,
            per_request,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmib_frameworks::FrameworkId;
    use llmib_hardware::HardwareId;
    use llmib_models::ModelId;
    use llmib_perf::{PerfModel, Scenario};
    use llmib_types::{FaultKind, TokenShape};

    fn perf(batch: u32) -> ResolvedScenario {
        let s = Scenario::simple(
            ModelId::Llama3_8b,
            HardwareId::A100,
            FrameworkId::Vllm,
            TokenShape::square(128, batch),
        );
        PerfModel::default_calibration()
            .resolve_scenario(&s)
            .unwrap()
    }

    fn config(policy: BatchingPolicy, kv_tokens: u64, block: Option<u32>) -> SimConfig {
        SimConfig {
            policy,
            max_concurrency: 16,
            kv_capacity_tokens: kv_tokens,
            kv_block_tokens: block,
        }
    }

    #[test]
    fn shared_prefix_trace_hits_after_the_first_cold_admission() {
        // Eight sharers of a 48-token prefix (3 full 16-token blocks):
        // the first is cold and makes the prefix resident, the other
        // seven each skip exactly 48 prefill tokens.
        let reqs: Vec<Request> = (0..8)
            .map(|id| Request::new(id, Seconds::ZERO, 64, 8).with_shared_prefix(48))
            .collect();
        let sim = ServingSimulator::new(config(BatchingPolicy::Continuous, 1 << 20, Some(16)));
        let rep = sim.run(reqs.clone(), &perf(8));
        assert_eq!(rep.completed, 8);
        assert_eq!(rep.prefix_hits, 7);
        assert_eq!(rep.saved_prefill_tokens, 7 * 48);

        // The same trace without the prefix dimension prefills more and
        // takes longer.
        let cold: Vec<Request> = (0..8)
            .map(|id| Request::new(id, Seconds::ZERO, 64, 8))
            .collect();
        let cold_rep = sim.run(cold, &perf(8));
        assert_eq!(cold_rep.prefix_hits, 0);
        assert_eq!(cold_rep.saved_prefill_tokens, 0);
        assert!(rep.makespan.value() < cold_rep.makespan.value());

        // Monolithic pools have no block sharing: the prefix dimension
        // is ignored, mirroring the live runtime.
        let mono = ServingSimulator::new(config(BatchingPolicy::Continuous, 1 << 20, None));
        let mono_rep = mono.run(reqs, &perf(8));
        assert_eq!(mono_rep.prefix_hits, 0);
        assert_eq!(mono_rep.saved_prefill_tokens, 0);
    }

    #[test]
    fn sub_block_shared_prefix_never_hits() {
        // A 10-token shared prefix fills no complete 16-token block, so
        // no admission can reuse it — exactly the engine's trie rule.
        let reqs: Vec<Request> = (0..4)
            .map(|id| Request::new(id, Seconds::ZERO, 32, 4).with_shared_prefix(10))
            .collect();
        let sim = ServingSimulator::new(config(BatchingPolicy::Continuous, 1 << 20, Some(16)));
        let rep = sim.run(reqs, &perf(4));
        assert_eq!(rep.completed, 4);
        assert_eq!(rep.prefix_hits, 0);
        assert_eq!(rep.saved_prefill_tokens, 0);
    }

    #[test]
    fn burst_completes_all_requests() {
        let reqs = ArrivalPattern::Burst.generate(8, 128, 16);
        let sim = ServingSimulator::new(config(BatchingPolicy::Continuous, 1 << 20, Some(16)));
        let rep = sim.run(reqs, &perf(8));
        assert_eq!(rep.completed, 8);
        assert!(rep.throughput_tokens_per_s > 0.0);
        assert!(rep.mean_ttft.value() > 0.0);
        assert_eq!(rep.preemptions, 0);
        assert!(rep.decode_steps >= 16);
    }

    #[test]
    fn continuous_beats_static_on_staggered_arrivals() {
        let pat = ArrivalPattern::Poisson {
            rate_per_s: 50.0,
            seed: 7,
        };
        let reqs = pat.generate(24, 128, 32);
        let cont = ServingSimulator::new(config(BatchingPolicy::Continuous, 1 << 20, Some(16)))
            .run(reqs.clone(), &perf(8));
        let stat = ServingSimulator::new(config(BatchingPolicy::Static, 1 << 20, Some(16)))
            .run(reqs, &perf(8));
        assert_eq!(cont.completed, 24);
        assert_eq!(stat.completed, 24);
        assert!(
            cont.throughput_tokens_per_s > stat.throughput_tokens_per_s,
            "continuous {} vs static {}",
            cont.throughput_tokens_per_s,
            stat.throughput_tokens_per_s
        );
        assert!(cont.mean_batch_occupancy >= stat.mean_batch_occupancy);
    }

    #[test]
    fn static_batch_waits_for_a_wave_that_is_still_prefilling() {
        // A 256-token prompt at t = 0 and a 16-token prompt 1 µs later:
        // a static batch is one wave whether its prefill runs whole or in
        // chunks, so the second request waits for the first to drain.
        let reqs = vec![
            Request::new(0, Seconds::ZERO, 256, 8),
            Request::new(1, Seconds(1e-6), 16, 8),
        ];
        let mut cfg = config(BatchingPolicy::Static, 1 << 16, Some(16));
        cfg.max_concurrency = 8;
        let whole = ServingSimulator::new(cfg.clone());
        let chunked = ServingSimulator::new(cfg).with_prefill_chunking(16);
        for rep in [
            whole.run(reqs.clone(), &perf(2)),
            chunked.run(reqs, &perf(2)),
        ] {
            assert_eq!(rep.completed, 2);
            assert_eq!(rep.decode_steps, 16, "two waves of eight steps");
            assert_eq!(rep.mean_batch_occupancy, 1.0);
        }
    }

    #[test]
    fn tight_pool_causes_preemptions_but_still_finishes() {
        // Pool fits ~2.1 full requests: the scheduler over-admits (paged
        // admission is lazy) and must preempt.
        let reqs = ArrivalPattern::Burst.generate(6, 128, 64);
        let sim = ServingSimulator::new(config(BatchingPolicy::Continuous, 400, Some(16)));
        let rep = sim.run(reqs, &perf(4));
        assert_eq!(rep.completed, 6);
        assert!(rep.preemptions > 0, "expected preemptions in a tight pool");
    }

    #[test]
    fn monolithic_admits_fewer_concurrently() {
        // §IV-B2: monolithic reservation at max context "reduc[es]
        // concurrency". Prompt 64 / output 256: most of a request's life
        // its context is far below the 320-token reservation, which the
        // paged allocator exploits and the monolithic one cannot.
        let reqs = ArrivalPattern::Burst.generate(12, 64, 256);
        let paged = ServingSimulator::new(config(BatchingPolicy::Continuous, 2048, Some(16)))
            .run(reqs.clone(), &perf(8));
        let mono = ServingSimulator::new(config(BatchingPolicy::Continuous, 2048, None))
            .run(reqs, &perf(8));
        assert_eq!(paged.completed, 12);
        assert_eq!(mono.completed, 12);
        // Paged admission is lazy, so it sustains a larger live batch.
        assert!(
            paged.mean_batch_occupancy > mono.mean_batch_occupancy,
            "paged {} vs mono {}",
            paged.mean_batch_occupancy,
            mono.mean_batch_occupancy
        );
    }

    #[test]
    fn poisson_arrivals_are_ordered_and_seeded() {
        let a = ArrivalPattern::Poisson {
            rate_per_s: 10.0,
            seed: 42,
        }
        .generate(20, 64, 8);
        let b = ArrivalPattern::Poisson {
            rate_per_s: 10.0,
            seed: 42,
        }
        .generate(20, 64, 8);
        assert!(a
            .windows(2)
            .all(|w| w[0].arrival.value() <= w[1].arrival.value()));
        assert_eq!(
            a.iter().map(|r| r.arrival.value()).collect::<Vec<_>>(),
            b.iter().map(|r| r.arrival.value()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn oversized_request_is_rejected_not_fatal() {
        // Request max context 192 into a 64-token monolithic pool: it can
        // never fit. The simulator must shed it and serve the rest.
        let mut reqs = ArrivalPattern::Burst.generate(4, 128, 64);
        reqs.push(Request::new(99, Seconds::ZERO, 16, 16));
        let rep =
            ServingSimulator::new(config(BatchingPolicy::Continuous, 64, None)).run(reqs, &perf(4));
        assert_eq!(rep.rejected, 4, "the four oversized requests are shed");
        assert_eq!(rep.completed, 1, "the small request is served");
    }

    #[test]
    fn oversized_request_is_rejected_under_paged_lazy_admission() {
        // Paged admission is lazy: the 128-token prompt fits a 160-token
        // pool, but the 64-token growth does not, so the sole sequence is
        // preempted with the whole pool to itself — shed, don't livelock.
        let reqs = ArrivalPattern::Burst.generate(1, 128, 64);
        let rep = ServingSimulator::new(config(BatchingPolicy::Continuous, 160, Some(16)))
            .run(reqs, &perf(1));
        assert_eq!(rep.rejected, 1);
        assert_eq!(rep.completed, 0);
    }

    #[test]
    fn fault_plan_replays_on_the_simulated_clock() {
        use llmib_types::{FaultEvent, FaultPlan};
        let reqs = ArrivalPattern::Burst.generate(8, 128, 16);
        let sim = ServingSimulator::new(config(BatchingPolicy::Continuous, 1 << 20, Some(16)));
        let healthy = sim.run(reqs.clone(), &perf(8));
        let plan = FaultPlan::new(vec![
            FaultEvent {
                at_step: 2,
                kind: FaultKind::StepStall {
                    extra: Seconds(0.5),
                },
            },
            FaultEvent {
                at_step: 4,
                kind: FaultKind::TransientStepError { failures: 2 },
            },
            FaultEvent {
                at_step: 6,
                kind: FaultKind::RequestPoison { request: 3 },
            },
        ]);
        let faulted = sim.run_with_faults(reqs, &perf(8), &plan);
        assert_eq!(faulted.faults_injected, 3);
        assert_eq!(faulted.failed, 1, "the poisoned request dies");
        assert_eq!(faulted.completed, 7, "everyone else completes");
        assert_eq!(faulted.retries, 2);
        assert!(
            faulted.makespan.value() > healthy.makespan.value() + 0.5,
            "the stall and the backoffs lengthen the run ({} vs {})",
            faulted.makespan.value(),
            healthy.makespan.value()
        );
    }

    #[test]
    fn simulated_scheduler_panic_fails_all_outstanding() {
        use llmib_types::{FaultEvent, FaultPlan};
        let reqs = ArrivalPattern::Burst.generate(6, 128, 64);
        let sim = ServingSimulator::new(config(BatchingPolicy::Continuous, 1 << 20, Some(16)));
        let plan = FaultPlan::new(vec![FaultEvent {
            at_step: 3,
            kind: FaultKind::SchedulerPanic,
        }]);
        let rep = sim.run_with_faults(reqs, &perf(8), &plan);
        assert_eq!(rep.completed, 0);
        assert_eq!(rep.failed, 6, "every outstanding request resolves failed");
        assert_eq!(rep.decode_steps, 3, "death is anchored to the step clock");
    }

    #[test]
    fn memory_pressure_throttles_admission_but_run_recovers() {
        use llmib_types::{FaultEvent, FaultPlan};
        let reqs = ArrivalPattern::Burst.generate(8, 128, 32);
        let sim = ServingSimulator::new(config(BatchingPolicy::Continuous, 4096, Some(16)));
        let healthy = sim.run(reqs.clone(), &perf(8));
        let plan = FaultPlan::new(vec![FaultEvent {
            at_step: 0,
            kind: FaultKind::MemoryPressure {
                capacity_factor: 0.1,
                steps: 8,
            },
        }]);
        let faulted = sim.run_with_faults(reqs, &perf(8), &plan);
        assert_eq!(faulted.completed, 8, "pressure delays, never kills");
        assert!(
            faulted.mean_batch_occupancy <= healthy.mean_batch_occupancy,
            "throttled admission cannot raise occupancy ({} vs {})",
            faulted.mean_batch_occupancy,
            healthy.mean_batch_occupancy
        );
    }

    #[test]
    fn memory_pressure_window_expires_after_its_steps() {
        use llmib_types::{FaultEvent, FaultPlan};
        // A one-step window at a 0.1 factor holds the first wave to four
        // admissions; once it expires the next step refills the batch,
        // like the live scheduler's window, which expires after `steps`
        // successful decode steps.
        let mut cfg = config(BatchingPolicy::Continuous, 4096, Some(16));
        cfg.max_concurrency = 8;
        let sim = ServingSimulator::new(cfg);
        let reqs = ArrivalPattern::Burst.generate(16, 128, 32);
        let healthy = sim.run(reqs.clone(), &perf(8));
        let plan = FaultPlan::new(vec![FaultEvent {
            at_step: 0,
            kind: FaultKind::MemoryPressure {
                capacity_factor: 0.1,
                steps: 1,
            },
        }]);
        let faulted = sim.run_with_faults(reqs, &perf(8), &plan);
        assert_eq!(faulted.completed, 16);
        assert!(
            faulted.decode_steps <= healthy.decode_steps + 2,
            "a one-step window must not throttle the whole run ({} vs {} healthy steps)",
            faulted.decode_steps,
            healthy.decode_steps
        );
    }

    #[test]
    fn replicated_healthy_run_completes_all_with_zero_failovers() {
        use llmib_types::ReplicaFaultPlan;
        let reqs = ArrivalPattern::Burst.generate(12, 128, 16);
        let sim = ServingSimulator::new(config(BatchingPolicy::Continuous, 1 << 20, Some(16)));
        let rep = sim.run_pool(
            reqs,
            &perf(4),
            &[ReplicaRole::Unified; 3],
            &ReplicaFaultPlan::empty(),
        );
        assert_eq!(rep.aggregate.completed, 12);
        assert_eq!(rep.failovers, 0);
        assert_eq!(rep.migrations, 0);
        assert_eq!(rep.migrated_tokens, 0);
        // Round-robin deals 4 requests to each of the 3 replicas.
        assert_eq!(rep.per_replica_completed, vec![4, 4, 4]);
        assert!(rep.aggregate.throughput_tokens_per_s > 0.0);
    }

    #[test]
    fn replicated_failover_migrates_the_dead_replicas_share() {
        use llmib_types::{ReplicaFaultPlan, ReplicaId};
        let reqs = ArrivalPattern::Burst.generate(12, 128, 24);
        let sim = ServingSimulator::new(config(BatchingPolicy::Continuous, 1 << 20, Some(16)));
        let plan = ReplicaFaultPlan::kill_replica(ReplicaId(1), 6);
        let rep = sim.run_pool(reqs, &perf(4), &[ReplicaRole::Unified; 3], &plan);
        assert_eq!(rep.failovers, 1, "one replica dies");
        assert_eq!(
            rep.migrations, 4,
            "replica 1's round-robin share fails over"
        );
        assert!(
            rep.migrated_tokens > 0 && rep.migrated_tokens <= 4 * 23,
            "migrations replay a strict prefix ({} tokens)",
            rep.migrated_tokens
        );
        assert_eq!(rep.aggregate.completed, 12, "every request still finishes");
        assert_eq!(rep.aggregate.failed, 0);
        assert_eq!(rep.aggregate.rejected, 0);
        assert_eq!(
            rep.per_replica_completed[1], 0,
            "the dead replica finished none"
        );
        assert_eq!(
            rep.per_replica_completed[0] + rep.per_replica_completed[2],
            12
        );
    }

    #[test]
    fn replicated_run_with_no_survivor_fails_outstanding() {
        use llmib_types::{FaultEvent, ReplicaFaultPlan, ReplicaId};
        let reqs = ArrivalPattern::Burst.generate(6, 128, 64);
        let sim = ServingSimulator::new(config(BatchingPolicy::Continuous, 1 << 20, Some(16)));
        let kill = |at_step| FaultEvent {
            at_step,
            kind: FaultKind::SchedulerPanic,
        };
        let plan = ReplicaFaultPlan::empty()
            .with(ReplicaId(0), kill(3))
            .with(ReplicaId(1), kill(3));
        let rep = sim.run_pool(reqs, &perf(4), &[ReplicaRole::Unified; 2], &plan);
        assert_eq!(rep.failovers, 2);
        assert_eq!(rep.aggregate.completed, 0);
        assert_eq!(rep.aggregate.failed, 6, "no survivor: everything fails");
    }

    #[test]
    fn replicated_migration_preserves_first_token_time() {
        use llmib_types::{ReplicaFaultPlan, ReplicaId};
        // Single request on the doomed replica: after migration it must
        // keep the TTFT stamped before the death.
        let reqs = ArrivalPattern::Burst.generate(2, 128, 32);
        let sim = ServingSimulator::new(config(BatchingPolicy::Continuous, 1 << 20, Some(16)));
        let plan = ReplicaFaultPlan::kill_replica(ReplicaId(1), 4);
        let rep = sim.run_pool(reqs, &perf(1), &[ReplicaRole::Unified; 2], &plan);
        assert_eq!(rep.aggregate.completed, 2);
        assert_eq!(rep.migrations, 1);
        assert!(
            rep.aggregate.mean_ttft.value() > 0.0,
            "migrated request keeps its streamed-prefix TTFT"
        );
    }

    #[test]
    fn priority_preemption_evicts_best_effort_for_interactive() {
        use crate::overload::OverloadConfig;
        use llmib_types::Priority;
        // Four best-effort requests fill the reservation ledger
        // (4 × 320 = 1280 of 1300); a late interactive cannot reserve
        // and must preempt the youngest best-effort victim.
        let mut reqs: Vec<Request> = (0..4)
            .map(|id| Request::new(id, Seconds::ZERO, 64, 256).with_priority(Priority::BestEffort))
            .collect();
        reqs.push(Request::new(4, Seconds(0.5), 64, 64).with_priority(Priority::Interactive));
        let sim = ServingSimulator::new(config(BatchingPolicy::Continuous, 1300, Some(16)))
            .with_overload(OverloadConfig {
                preemption: true,
                ..OverloadConfig::default()
            })
            .unwrap();
        let rep = sim.run(reqs.clone(), &perf(4));
        assert_eq!(rep.completed, 5, "preempted victims still finish");
        assert!(rep.preemptions >= 1, "the interactive arrival preempts");
        assert_eq!(
            rep.per_class.preemptions,
            [rep.preemptions, 0, 0],
            "only best-effort is ever the victim"
        );
        assert!(
            rep.replayed_tokens > 0,
            "the victim had streamed tokens to fold into its replay"
        );
        assert_eq!(
            rep.per_class.replayed_tokens.iter().sum::<u64>(),
            rep.replayed_tokens
        );
        assert_eq!(rep.per_class.completed, [4, 0, 1]);

        // Same trace with preemption disabled: the interactive waits
        // instead, and nothing is evicted.
        let polite = ServingSimulator::new(config(BatchingPolicy::Continuous, 1300, Some(16)))
            .with_overload(OverloadConfig::default())
            .unwrap();
        let rep2 = polite.run(reqs, &perf(4));
        assert_eq!(rep2.completed, 5);
        assert_eq!(rep2.preemptions, 0);
        assert_eq!(rep2.replayed_tokens, 0);
    }

    #[test]
    fn brownout_ladder_clamps_and_sheds_best_effort_under_sustained_overload() {
        use crate::overload::{BrownoutConfig, OverloadConfig};
        use llmib_types::Priority;
        // A 400-token ledger holds two 192-token reservations: a burst
        // of eight best-effort requests starves admission every step,
        // tripping the ladder to level 2, which sheds the queue.
        let reqs: Vec<Request> = (0..8)
            .map(|id| Request::new(id, Seconds::ZERO, 128, 64).with_priority(Priority::BestEffort))
            .collect();
        let sim = ServingSimulator::new(config(BatchingPolicy::Continuous, 400, Some(16)))
            .with_overload(OverloadConfig {
                preemption: true,
                brownout: BrownoutConfig {
                    enabled: true,
                    trip_after: 2,
                    recover_after: 4,
                    degraded_max_new_tokens: 8,
                },
            })
            .unwrap();
        let rep = sim.run(reqs, &perf(2));
        assert!(rep.brownout_steps > 0, "the run degraded");
        assert!(rep.brownout_sheds > 0, "level 2 shed queued best-effort");
        assert_eq!(rep.per_class.shed, [rep.brownout_sheds, 0, 0]);
        assert_eq!(
            rep.completed + rep.brownout_sheds + rep.rejected + rep.failed,
            8,
            "every request resolves exactly once"
        );
        assert!(rep.completed >= 2, "the admitted pair still finishes");
        assert_eq!(rep.preemptions, 0, "same-class traffic never preempts");
    }

    #[test]
    fn invalid_overload_configuration_is_an_error_not_a_panic() {
        use crate::overload::{BrownoutConfig, OverloadConfig};
        let sim = ServingSimulator::new(config(BatchingPolicy::Continuous, 400, Some(16)));
        let err = sim
            .with_overload(OverloadConfig {
                preemption: true,
                brownout: BrownoutConfig {
                    enabled: true,
                    trip_after: 0,
                    ..BrownoutConfig::default()
                },
            })
            .unwrap_err();
        assert!(err.contains("trip_after"), "{err}");
    }

    #[test]
    fn chunked_prefill_counts_exactly_ceil_cold_over_budget() {
        // 128-token prompts, budget 48: ceil(128/48) = 3 chunks per
        // admission — the same formula the live scheduler realizes.
        let reqs = ArrivalPattern::Burst.generate(6, 128, 16);
        let cfg = config(BatchingPolicy::Continuous, 1 << 20, Some(16));
        let mono = ServingSimulator::new(cfg.clone()).run(reqs.clone(), &perf(8));
        let chunked = ServingSimulator::new(cfg)
            .with_prefill_chunking(48)
            .run(reqs, &perf(8));
        assert_eq!(mono.prefill_chunks, 0);
        assert_eq!(chunked.prefill_chunks, 6 * 3);
        assert_eq!(chunked.completed, 6, "chunking never loses a request");
        assert_eq!(chunked.completed, mono.completed);
        // Prefix hits shrink the cold prefill, and the chunk count
        // follows: 48 cached of 128 leaves ceil(80/48) = 2 chunks for
        // every warm sharer (the first sharer is cold: 3).
        let shared: Vec<Request> = (0..4)
            .map(|id| Request::new(id, Seconds::ZERO, 128, 8).with_shared_prefix(48))
            .collect();
        let warm = ServingSimulator::new(config(BatchingPolicy::Continuous, 1 << 20, Some(16)))
            .with_prefill_chunking(48)
            .run(shared, &perf(4));
        assert_eq!(warm.prefix_hits, 3);
        assert_eq!(warm.prefill_chunks, 3 + 3 * 2);
    }

    #[test]
    fn chunked_prefill_cuts_the_itl_tail_under_long_prompt_load() {
        // Short-output chats straddling huge monolithic prefills absorb
        // the full prefill stall between two of their tokens; chunking
        // bounds each stall at one budget's worth of prefill.
        let mut reqs: Vec<Request> = Vec::new();
        for id in 0..24u64 {
            if id % 3 == 0 {
                reqs.push(Request::new(id, Seconds(id as f64 * 0.02), 2048, 8));
            } else {
                reqs.push(Request::new(id, Seconds(id as f64 * 0.02), 64, 16));
            }
        }
        let cfg = config(BatchingPolicy::Continuous, 1 << 20, Some(16));
        let mono = ServingSimulator::new(cfg.clone()).run(reqs.clone(), &perf(8));
        let chunked = ServingSimulator::new(cfg)
            .with_prefill_chunking(128)
            .run(reqs, &perf(8));
        assert_eq!(mono.completed, 24);
        assert_eq!(chunked.completed, 24);
        assert!(
            chunked.itl.overall.p99.value() < mono.itl.overall.p99.value(),
            "chunked p99 ITL {} must beat monolithic {}",
            chunked.itl.overall.p99.value(),
            mono.itl.overall.p99.value()
        );
    }

    #[test]
    fn disaggregated_pool_hands_off_at_the_phase_boundary() {
        let reqs = ArrivalPattern::Burst.generate(10, 128, 8);
        let sim = ServingSimulator::new(config(BatchingPolicy::Continuous, 1 << 20, Some(16)));
        let rep = sim.run_pool(
            reqs,
            &perf(4),
            &[ReplicaRole::Prefill, ReplicaRole::Decode],
            &ReplicaFaultPlan::empty(),
        );
        assert_eq!(rep.aggregate.completed, 10);
        assert_eq!(rep.disagg_handoffs, 10, "every stream crosses the boundary");
        assert_eq!(rep.migrations, 0, "handoffs are not failure migrations");
        assert_eq!(
            rep.per_replica_completed,
            vec![0, 10],
            "the prefill replica completes nothing; all streams finish on decode"
        );
        assert!(
            rep.aggregate.mean_ttft.value() > 0.0,
            "TTFT is stamped on the prefill replica and survives the handoff"
        );
    }

    #[test]
    fn disaggregated_failover_re_deals_by_phase() {
        use llmib_types::{ReplicaFaultPlan, ReplicaId};
        let reqs = ArrivalPattern::Burst.generate(9, 128, 12);
        let sim = ServingSimulator::new(config(BatchingPolicy::Continuous, 1 << 20, Some(16)));
        let roles = [
            ReplicaRole::Prefill,
            ReplicaRole::Prefill,
            ReplicaRole::Decode,
        ];
        // Step 0: the plan fires on replica 0's first advance, before
        // it can run a decode step — its whole dealt share re-deals.
        let plan = ReplicaFaultPlan::kill_replica(ReplicaId(0), 0);
        let rep = sim.run_pool(reqs, &perf(4), &roles, &plan);
        assert_eq!(rep.failovers, 1);
        assert_eq!(
            rep.aggregate.completed + rep.aggregate.failed,
            9,
            "every request resolves"
        );
        assert_eq!(
            rep.aggregate.completed, 9,
            "a surviving prefill replica re-prefills the dead one's share"
        );
        assert_eq!(rep.per_replica_completed[0], 0);
        assert_eq!(
            rep.per_replica_completed[1], 0,
            "prefill replicas finish none"
        );
    }

    #[test]
    fn ttft_includes_queueing_delay() {
        // One more request than fits concurrently: the last one waits.
        let mut cfg = config(BatchingPolicy::Continuous, 1 << 20, Some(16));
        cfg.max_concurrency = 2;
        let reqs = ArrivalPattern::Burst.generate(3, 128, 32);
        let rep = ServingSimulator::new(cfg).run(reqs, &perf(2));
        assert_eq!(rep.completed, 3);
        // Mean TTFT must exceed a lone request's TTFT because of queueing.
        assert!(rep.mean_ttft.value() > 0.0);
        assert!(rep.p95_latency.value() > rep.mean_ttft.value());
    }
}
