//! Health-aware routing across a pool of scheduler/engine replicas.
//!
//! The router thread sits between the pool's shared ingress and N
//! independent replicas (each its own scheduler thread, `BatchSession`,
//! KV budget, and circuit breaker — see
//! [`crate::server::spawn_scheduler`]). For every request it:
//!
//! 1. **routes** — picks a replica by the configured
//!    [`RoutingPolicy`], reading each replica's lock-free telemetry
//!    (reserved KV tokens, breaker state, watchdog stalls, dead flag),
//! 2. **relays** — interposes on the replica's event stream, forwarding
//!    tokens to the client while recording them; the recorded prefix is
//!    what makes failover possible,
//! 3. **migrates** — when a replica dies (scheduler panic) or is
//!    condemned (breaker open with `migrate_on_breaker_open`, or a
//!    watchdog-stall tally), its in-flight requests are re-admitted on
//!    a healthy replica with a prefill of `prompt + tokens already
//!    streamed`. Greedy decode is bitwise deterministic and independent
//!    of batch composition, so the migrated stream continues exactly
//!    where it left off — the chaos suite asserts this against an
//!    unfaulted run,
//! 4. **hedges** — optionally re-issues a stalled straggler on a second
//!    replica (same prefix-replay mechanism); the first dispatch to
//!    finish wins and the loser is cancelled through the normal
//!    [`crate::RequestHandle::cancel`] path. Because both twins decode
//!    the same deterministic stream, the router can interleave their
//!    tokens by index and forward each position exactly once.
//!
//! Lifecycle accounting (submitted / completed / failed / cancelled /
//! shed) is owned by the router so replica-local bookkeeping of
//! migrated requests never double-counts; per-replica mechanism
//! counters (retries, stalls, breaker trips) are summed into the
//! aggregate report at shutdown.

use crate::breaker::BreakerState;
use crate::config::PoolConfig;
use crate::event::{FailReason, RejectReason, ServeEvent};
use crate::report::{RequestMetrics, RobustnessStats};
use crate::server::{now, ReplicaTelemetry, Submission};
use llmib_engine::Sampler;
use llmib_types::{Priority, ReplicaId, Seconds};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, Sender, SyncSender, TryRecvError};
use std::sync::Arc;
use std::time::Instant;

/// How the pool router picks a replica for each dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// Cycle through routable replicas in order.
    RoundRobin,
    /// Route to the replica with the fewest live reserved KV tokens.
    LeastLoadedKv,
    /// Prefer replicas by breaker health (closed before half-open
    /// before open), breaking ties by KV load then index.
    HealthWeighted,
}

/// The router-side endpoints of one replica.
pub(crate) struct ReplicaSlot {
    /// Stable identity, used in [`ServeEvent::Migrated`] and fault
    /// plans.
    pub id: ReplicaId,
    pub ingress: SyncSender<Submission>,
    pub control: Sender<u64>,
    pub telemetry: Arc<ReplicaTelemetry>,
    /// Permanently out of routing: the replica died, or its
    /// watchdog-stall tally crossed `condemn_stall_tally`.
    condemned: bool,
    /// `replicas_lost` has been counted for this replica.
    counted_lost: bool,
}

impl ReplicaSlot {
    pub(crate) fn new(
        id: ReplicaId,
        ingress: SyncSender<Submission>,
        control: Sender<u64>,
        telemetry: Arc<ReplicaTelemetry>,
    ) -> Self {
        Self {
            id,
            ingress,
            control,
            telemetry,
            condemned: false,
            counted_lost: false,
        }
    }

    fn is_dead(&self) -> bool {
        self.telemetry.dead.load(Ordering::Acquire)
    }

    fn breaker(&self) -> BreakerState {
        BreakerState::decode(self.telemetry.breaker_state.load(Ordering::Relaxed))
    }

    fn kv_load(&self) -> u64 {
        self.telemetry.reserved_kv_tokens.load(Ordering::Relaxed)
    }

    /// Whether new dispatches may go here right now.
    fn routable(&self, migrate_on_breaker_open: bool) -> bool {
        let breaker_blocked = migrate_on_breaker_open && self.breaker() == BreakerState::Open;
        !(self.condemned || self.is_dead() || breaker_blocked)
    }
}

/// One replica-side dispatch of a flight: the relay receiver plus the
/// global token index already consumed from this dispatch (starts at
/// the replayed-prefix length, since the replica only streams tokens
/// past its prefill).
struct Dispatch {
    replica: usize,
    events: Receiver<ServeEvent>,
    seen: usize,
}

/// Router-side state of one in-flight request.
struct Flight {
    prompt: Vec<usize>,
    max_new_tokens: usize,
    sampler: Sampler,
    submitted_at: Seconds,
    deadline: Option<Seconds>,
    /// Scheduling class, forwarded verbatim on every (re-)dispatch so
    /// replica-side preemption and brownout see the client's class.
    priority: Priority,
    /// The client's event channel; the router forwards exactly one
    /// coherent stream into it regardless of how many dispatches ran.
    client: Sender<ServeEvent>,
    /// Every token forwarded so far — the replay prefix for migration
    /// and hedging.
    tokens: Vec<usize>,
    admitted_at: Option<Seconds>,
    /// Shared-prefix tokens the *first* admission reused (later
    /// re-dispatches replay a generated prefix instead).
    cached_prefix_tokens: u32,
    first_token_at: Option<Seconds>,
    last_progress: Instant,
    primary: Option<Dispatch>,
    hedge: Option<Dispatch>,
    /// Successful placements so far (> 0 means a re-placement is a
    /// migration).
    dispatches: u32,
    /// A condemnation cancel is in flight; its `Cancelled` echo is a
    /// migration signal, not a client cancellation.
    migrating: bool,
    /// The in-flight migration is a planned prefill/decode handoff
    /// (disaggregated roles), counted as a [`RobustnessStats::disagg_handoffs`]
    /// rather than a failure migration when the flight re-places.
    disagg_handoff: bool,
    /// A hedge was issued at some point (one per flight).
    hedged: bool,
    client_cancelled: bool,
    admitted_sent: bool,
}

/// What the router learned about a dispatch after draining its relay.
enum DispatchFate {
    /// Still streaming; keep it.
    Alive,
    /// The dispatch ended without finishing the flight (relay closed,
    /// migration intercept, or loser of a hedge race); discard it.
    Gone,
    /// The flight reached a terminal outcome.
    FlightDone,
}

/// Lifecycle bookkeeping owned by the router thread.
#[derive(Default)]
pub(crate) struct RouterBooks {
    pub per_request: Vec<RequestMetrics>,
    /// Order of *first* admissions across the pool. Unlike the
    /// single-server report this is not bitwise-replayable through one
    /// `BatchSession` (admissions interleave across replicas); use the
    /// per-replica reports for that.
    pub admission_order: Vec<u64>,
    pub robust: RobustnessStats,
    pub shed_deadline: u32,
    pub rejected_oversized: u32,
    /// Per-[`RejectReason`] splits of the remaining rejection paths —
    /// each relayed rejection increments exactly one lifecycle counter,
    /// so the pool report reconciles without a catch-all bucket.
    pub rejected_queue_full: u32,
    pub rejected_internal: u32,
    pub shed_brownout: u32,
    pub first_submitted_at: Option<f64>,
    pub last_finished_at: f64,
}

/// Drive the pool until shutdown is signalled — the shared ingress
/// disconnecting or the pool raising `stop` (clients hold ingress
/// clones, so the channel alone cannot signal it) — and every flight
/// resolves. Returns the router's books; the caller joins the replicas
/// and folds their reports into the aggregate.
pub(crate) fn router_loop(
    config: &PoolConfig,
    slots: &mut [ReplicaSlot],
    rx: &Receiver<Submission>,
    control: &Receiver<u64>,
    epoch: Instant,
    stop: &std::sync::atomic::AtomicBool,
) -> RouterBooks {
    let mut books = RouterBooks::default();
    let mut flights: HashMap<u64, Flight> = HashMap::new();
    let mut parked: Vec<u64> = Vec::new();
    let mut rr_cursor = 0usize;
    let mut disconnected = false;
    loop {
        let mut progressed = false;
        // 1. Health scan: count newly dead replicas and condemn
        //    stall-heavy ones, then launch condemnation migrations
        //    (cancel-intercept) off live-but-unhealthy replicas.
        for slot in slots.iter_mut() {
            if slot.is_dead() && !slot.counted_lost {
                slot.counted_lost = true;
                slot.condemned = true;
                books.robust.replicas_lost += 1;
            }
            if let Some(tally) = config.condemn_stall_tally {
                if !slot.condemned
                    && slot.telemetry.watchdog_stalls.load(Ordering::Relaxed) >= tally
                {
                    slot.condemned = true;
                }
            }
        }
        let migrate_from: Vec<usize> = (0..slots.len())
            .filter(|&i| {
                let s = &slots[i];
                !s.is_dead()
                    && (s.condemned
                        || (config.migrate_on_breaker_open && s.breaker() == BreakerState::Open))
            })
            .collect();
        if !migrate_from.is_empty() {
            for (&id, f) in flights.iter_mut() {
                if f.migrating || f.client_cancelled {
                    continue;
                }
                for d in [f.primary.as_ref(), f.hedge.as_ref()].into_iter().flatten() {
                    if migrate_from.contains(&d.replica) {
                        f.migrating = true;
                        let _ = slots[d.replica].control.send(id);
                    }
                }
            }
        }
        // 2. Client cancellations: forward to every active dispatch; a
        //    parked flight resolves immediately.
        while let Ok(id) = control.try_recv() {
            progressed = true;
            let Some(f) = flights.get_mut(&id) else {
                continue; // already terminal — harmless no-op
            };
            f.client_cancelled = true;
            let active: Vec<usize> = [f.primary.as_ref(), f.hedge.as_ref()]
                .into_iter()
                .flatten()
                .map(|d| d.replica)
                .collect();
            if active.is_empty() {
                books.robust.cancelled += 1;
                let _ = f.client.send(ServeEvent::Cancelled { at: now(epoch) });
                flights.remove(&id);
                parked.retain(|&p| p != id);
            } else {
                for r in active {
                    let _ = slots[r].control.send(id);
                }
            }
        }
        // 3. Intake: drain the shared ingress, but never hold more than
        //    one queue's worth of unplaced flights — the full channel is
        //    what propagates `QueueFull` backpressure to submitters.
        while parked.len() < config.replica.queue_capacity {
            match rx.try_recv() {
                Ok(sub) => {
                    progressed = true;
                    books.robust.submitted += 1;
                    let t = books
                        .first_submitted_at
                        .get_or_insert(sub.submitted_at.value());
                    *t = t.min(sub.submitted_at.value());
                    let id = sub.id;
                    flights.insert(
                        id,
                        Flight {
                            prompt: sub.prompt,
                            max_new_tokens: sub.max_new_tokens,
                            sampler: sub.sampler,
                            submitted_at: sub.submitted_at,
                            deadline: sub.deadline,
                            priority: sub.priority,
                            client: sub.events,
                            tokens: Vec::new(),
                            admitted_at: None,
                            cached_prefix_tokens: 0,
                            first_token_at: None,
                            last_progress: Instant::now(),
                            primary: None,
                            hedge: None,
                            dispatches: 0,
                            migrating: false,
                            disagg_handoff: false,
                            hedged: false,
                            client_cancelled: false,
                            admitted_sent: false,
                        },
                    );
                    parked.push(id);
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }
        // 4. Place parked flights (initial dispatches and migrations
        //    share this path).
        let t = now(epoch);
        let all_condemned = slots.iter().all(|s| s.condemned || s.is_dead());
        let none_routable = !slots
            .iter()
            .any(|s| s.routable(config.migrate_on_breaker_open));
        let mut still_parked = Vec::new();
        for id in parked.drain(..) {
            let Some(f) = flights.get_mut(&id) else {
                continue;
            };
            if f.deadline.is_some_and(|d| t.value() > d.value()) {
                // Deadline enforcement mirrors the replica scheduler:
                // nothing streamed yet = a queued-style shed; a partial
                // stream = a mid-decode eviction.
                if f.tokens.is_empty() {
                    books.shed_deadline += 1;
                    let _ = f.client.send(ServeEvent::Rejected {
                        reason: RejectReason::DeadlineExpired,
                        at: t,
                    });
                } else {
                    books.robust.failed += 1;
                    books.robust.deadline_exceeded += 1;
                    let _ = f.client.send(ServeEvent::Failed {
                        reason: FailReason::DeadlineExceeded,
                        at: t,
                    });
                }
                flights.remove(&id);
                progressed = true;
                continue;
            }
            if f.tokens.len() >= f.max_new_tokens {
                // The replica died between the last token and its
                // `Finished` event: the stream is complete, synthesize
                // the terminal the relay lost.
                finish_flight(id, f, t, &mut books);
                flights.remove(&id);
                progressed = true;
                continue;
            }
            let pick = pick_replica(config, slots, &mut rr_cursor, None, f.tokens.is_empty());
            match pick {
                Some(slot_idx) => match open_dispatch(id, f, &slots[slot_idx]) {
                    Some(d) => {
                        progressed = true;
                        if f.dispatches > 0 {
                            let replayed = f.tokens.len() as u32;
                            if f.disagg_handoff {
                                // Planned prefill→decode handoff, not a
                                // failure migration. The recorded prefix
                                // (the KV block chain's token content)
                                // replays on the decode replica.
                                f.disagg_handoff = false;
                                books.robust.disagg_handoffs += 1;
                            } else {
                                books.robust.migrations += 1;
                                books.robust.migrated_tokens += u64::from(replayed);
                            }
                            let _ = f.client.send(ServeEvent::Migrated {
                                to: slots[slot_idx].id,
                                replayed_tokens: replayed,
                                at: now(epoch),
                            });
                        }
                        f.dispatches += 1;
                        f.primary = Some(d);
                        f.last_progress = Instant::now();
                    }
                    // Replica queue full (or it died this instant):
                    // retry next iteration.
                    None => still_parked.push(id),
                },
                None => {
                    // Under disaggregated roles, a flight whose needed
                    // phase has no surviving replica (e.g. every
                    // prefill-capable replica died) can never place.
                    let phase_dead = !config.roles.is_empty() && {
                        let needs_prefill = f.tokens.is_empty();
                        !(0..slots.len()).any(|i| {
                            let role = config.role_of(i);
                            let capable = if needs_prefill {
                                role.accepts_prefill()
                            } else {
                                role.accepts_decode()
                            };
                            capable && !slots[i].condemned && !slots[i].is_dead()
                        })
                    };
                    if all_condemned || phase_dead || (disconnected && none_routable) {
                        // No replica will ever (or, during drain, can)
                        // take it — resolve explicitly rather than hang.
                        books.robust.failed += 1;
                        let _ = f.client.send(ServeEvent::Failed {
                            reason: FailReason::ServerFailed,
                            at: t,
                        });
                        flights.remove(&id);
                        progressed = true;
                    } else {
                        still_parked.push(id);
                    }
                }
            }
        }
        parked = still_parked;
        // 5. Relay: drain every dispatch's event stream, forwarding one
        //    coherent token sequence per flight.
        let ids: Vec<u64> = flights.keys().copied().collect();
        for id in ids {
            let mut done = false;
            if let Some(f) = flights.get_mut(&id) {
                if let Some(mut d) = f.primary.take() {
                    let other_alive = f.hedge.is_some();
                    match drain_relay(id, f, &mut d, other_alive, &mut books, &mut progressed) {
                        DispatchFate::Alive => f.primary = Some(d),
                        DispatchFate::Gone => progressed = true,
                        DispatchFate::FlightDone => done = true,
                    }
                }
                if !done {
                    if let Some(mut d) = f.hedge.take() {
                        let other_alive = f.primary.is_some();
                        match drain_relay(id, f, &mut d, other_alive, &mut books, &mut progressed) {
                            DispatchFate::Alive => f.hedge = Some(d),
                            DispatchFate::Gone => progressed = true,
                            DispatchFate::FlightDone => done = true,
                        }
                    }
                }
            }
            if done {
                progressed = true;
                if let Some(f) = flights.remove(&id) {
                    // Cancel the losing dispatch of a hedge race via the
                    // normal client-cancel path on its replica.
                    for d in [f.primary, f.hedge].into_iter().flatten() {
                        let _ = slots[d.replica].control.send(id);
                    }
                }
                continue;
            }
            if let Some(f) = flights.get_mut(&id) {
                if f.primary.is_none() && f.hedge.is_some() {
                    // The primary's replica died; its hedge twin carries
                    // the flight forward.
                    f.primary = f.hedge.take();
                }
                if f.primary.is_none() && !parked.contains(&id) {
                    if f.client_cancelled {
                        // Its replica died before honoring the cancel.
                        books.robust.cancelled += 1;
                        let _ = f.client.send(ServeEvent::Cancelled { at: now(epoch) });
                        flights.remove(&id);
                    } else {
                        parked.push(id);
                    }
                }
            }
        }
        // 5b. Disaggregated prefill/decode boundary: a flight that has
        //     streamed its first token on a prefill-role replica moves
        //     to a decode-capable replica through the same
        //     cancel-intercept machinery as condemnation migrations.
        //     The replica echoes `Cancelled`, the flight parks with its
        //     recorded prefix (prompt + streamed tokens — the content
        //     of its KV block chain), and step 4 replays it on a decode
        //     replica bitwise identically.
        if !config.roles.is_empty() {
            for (&id, f) in flights.iter_mut() {
                if f.migrating || f.client_cancelled || f.hedge.is_some() || f.tokens.is_empty() {
                    continue;
                }
                if let Some(d) = f.primary.as_ref() {
                    if !config.role_of(d.replica).accepts_decode() {
                        f.migrating = true;
                        f.disagg_handoff = true;
                        let _ = slots[d.replica].control.send(id);
                        progressed = true;
                    }
                }
            }
        }
        // 6. Hedge stragglers: no progress past the deadline → race a
        //    prefix-replayed twin on a second replica.
        if let Some(hedge_after) = config.hedge_after {
            let ids: Vec<u64> = flights
                .iter()
                .filter(|(_, f)| {
                    f.primary.is_some()
                        && f.hedge.is_none()
                        && !f.hedged
                        && !f.migrating
                        && !f.client_cancelled
                        && f.last_progress.elapsed() > hedge_after
                })
                .map(|(&id, _)| id)
                .collect();
            for id in ids {
                let Some(f) = flights.get_mut(&id) else {
                    continue;
                };
                let exclude = f.primary.as_ref().map(|d| d.replica);
                let Some(slot_idx) =
                    pick_replica(config, slots, &mut rr_cursor, exclude, f.tokens.is_empty())
                else {
                    continue;
                };
                if let Some(d) = open_dispatch(id, f, &slots[slot_idx]) {
                    f.hedge = Some(d);
                    f.hedged = true;
                    books.robust.hedges += 1;
                    progressed = true;
                }
            }
        }
        // 7. Done when no more work can arrive and every flight
        //    resolved. Shutdown raises `stop` after flipping the
        //    accepting flag, so once intake reads the ingress empty
        //    nothing further is coming (a submit racing the flag is
        //    drained and rejected below).
        if (disconnected || stop.load(Ordering::Acquire)) && flights.is_empty() {
            break;
        }
        if !progressed {
            // Nothing moved: yield briefly instead of busy-spinning.
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    }
    // A submission that raced the accepting flag and landed after the
    // final intake gets an explicit rejection instead of a silently
    // dropped channel (mirrors the scheduler loop's final drain).
    while let Ok(sub) = rx.try_recv() {
        books.robust.submitted += 1;
        books.rejected_internal += 1;
        let _ = sub.events.send(ServeEvent::Rejected {
            reason: RejectReason::Internal,
            at: now(epoch),
        });
    }
    books
}

/// Open a prefix-replayed dispatch of `f` on `slot`: the replica
/// prefills `prompt + tokens already streamed` and decodes only the
/// remainder, which greedy determinism makes bitwise identical to the
/// original stream's tail. Returns `None` if the replica's queue is
/// full or its channel already closed.
fn open_dispatch(id: u64, f: &Flight, slot: &ReplicaSlot) -> Option<Dispatch> {
    let base = f.tokens.len();
    let mut prompt = f.prompt.clone();
    prompt.extend_from_slice(&f.tokens);
    let (tx, rx) = std::sync::mpsc::channel();
    let sub = Submission {
        id,
        prompt,
        max_new_tokens: f.max_new_tokens - base,
        sampler: f.sampler.clone(),
        submitted_at: f.submitted_at,
        deadline: f.deadline,
        priority: f.priority,
        events: tx,
        replay: None,
    };
    match slot.ingress.try_send(sub) {
        Ok(()) => Some(Dispatch {
            replica: slot_index(slot),
            events: rx,
            seen: base,
        }),
        Err(_) => None,
    }
}

/// A slot knows its own index through its `ReplicaId` (slots are
/// spawned in id order).
fn slot_index(slot: &ReplicaSlot) -> usize {
    slot.id.0 as usize
}

/// Pick a routable replica by policy; `exclude` keeps a hedge off its
/// primary's replica. `needs_prefill` is true for dispatches with no
/// recorded prefix (cold admissions) — under disaggregated roles those
/// go to prefill-capable replicas, while prefix-replayed re-dispatches
/// (migrations, handoffs, hedges of streaming flights) go to
/// decode-capable ones.
fn pick_replica(
    config: &PoolConfig,
    slots: &[ReplicaSlot],
    rr_cursor: &mut usize,
    exclude: Option<usize>,
    needs_prefill: bool,
) -> Option<usize> {
    let routable = |i: usize| {
        let role = config.role_of(i);
        let role_ok = if needs_prefill {
            role.accepts_prefill()
        } else {
            role.accepts_decode()
        };
        role_ok && exclude != Some(i) && slots[i].routable(config.migrate_on_breaker_open)
    };
    match config.routing {
        RoutingPolicy::RoundRobin => {
            let n = slots.len();
            for off in 0..n {
                let i = (*rr_cursor + off) % n;
                if routable(i) {
                    *rr_cursor = (i + 1) % n;
                    return Some(i);
                }
            }
            None
        }
        RoutingPolicy::LeastLoadedKv => (0..slots.len())
            .filter(|&i| routable(i))
            .min_by_key(|&i| (slots[i].kv_load(), i)),
        RoutingPolicy::HealthWeighted => (0..slots.len())
            .filter(|&i| routable(i))
            .min_by_key(|&i| (slots[i].breaker().encode(), slots[i].kv_load(), i)),
    }
}

/// Drain one dispatch's relay until it idles, closes, or terminates the
/// flight. `other_alive` = the flight has another live dispatch, so a
/// failure here only retires this dispatch.
fn drain_relay(
    id: u64,
    f: &mut Flight,
    d: &mut Dispatch,
    other_alive: bool,
    books: &mut RouterBooks,
    progressed: &mut bool,
) -> DispatchFate {
    loop {
        match d.events.try_recv() {
            Ok(ServeEvent::Admitted {
                at,
                cached_prefix_tokens,
            }) => {
                *progressed = true;
                f.last_progress = Instant::now();
                if !f.admitted_sent {
                    f.admitted_sent = true;
                    f.admitted_at = Some(at);
                    f.cached_prefix_tokens = cached_prefix_tokens;
                    books.admission_order.push(id);
                    let _ = f.client.send(ServeEvent::Admitted {
                        at,
                        cached_prefix_tokens,
                    });
                }
            }
            Ok(ServeEvent::Token { token, at }) => {
                *progressed = true;
                let idx = d.seen;
                d.seen += 1;
                if idx == f.tokens.len() {
                    f.tokens.push(token);
                    if f.first_token_at.is_none() {
                        f.first_token_at = Some(at);
                    }
                    f.last_progress = Instant::now();
                    let _ = f.client.send(ServeEvent::Token { token, at });
                }
                // idx < len: the slower twin of a hedged (or replayed)
                // dispatch re-producing a position already streamed —
                // deterministic decode guarantees it matches; drop it.
            }
            Ok(ServeEvent::Finished { metrics }) => {
                *progressed = true;
                // The replica's metrics describe only its own dispatch
                // (replayed prefill, shortened budget); rebuild the
                // request-level view from the flight's history. The
                // replica computed `e2e` from the original submission
                // timestamp on the shared pool epoch.
                let finished_at = Seconds(metrics.submitted_at.value() + metrics.e2e.value());
                finish_flight(id, f, finished_at, books);
                return DispatchFate::FlightDone;
            }
            Ok(ServeEvent::Rejected { reason, at }) => {
                *progressed = true;
                if other_alive {
                    return DispatchFate::Gone;
                }
                // Exhaustive on purpose: a new rejection path must pick
                // its lifecycle counter here, not inherit a catch-all.
                match reason {
                    RejectReason::DeadlineExpired => books.shed_deadline += 1,
                    RejectReason::Brownout => books.shed_brownout += 1,
                    RejectReason::QueueFull => books.rejected_queue_full += 1,
                    RejectReason::Internal => books.rejected_internal += 1,
                    RejectReason::Oversized => books.rejected_oversized += 1,
                }
                let _ = f.client.send(ServeEvent::Rejected { reason, at });
                return DispatchFate::FlightDone;
            }
            Ok(ServeEvent::Failed { reason, at }) => {
                *progressed = true;
                if other_alive {
                    return DispatchFate::Gone;
                }
                books.robust.failed += 1;
                if reason == FailReason::DeadlineExceeded {
                    books.robust.deadline_exceeded += 1;
                }
                let _ = f.client.send(ServeEvent::Failed { reason, at });
                return DispatchFate::FlightDone;
            }
            Ok(ServeEvent::Cancelled { at }) => {
                *progressed = true;
                if f.client_cancelled {
                    books.robust.cancelled += 1;
                    let _ = f.client.send(ServeEvent::Cancelled { at });
                    return DispatchFate::FlightDone;
                }
                // Not client-initiated: the echo of the router's own
                // condemnation cancel — a migration signal. The flight
                // parks and re-dispatches with its recorded prefix.
                f.migrating = false;
                return DispatchFate::Gone;
            }
            // Replicas never emit Migrated; it is router-originated.
            Ok(ServeEvent::Migrated { .. }) => {}
            Err(TryRecvError::Empty) => return DispatchFate::Alive,
            // Relay closed without a terminal event: the replica died
            // mid-flight (contained panic dropped its senders). The
            // flight migrates with every token streamed so far.
            Err(TryRecvError::Disconnected) => return DispatchFate::Gone,
        }
    }
}

/// Terminate a completed flight: rebuild request-level metrics from the
/// router's recorded history and forward the `Finished` event.
fn finish_flight(id: u64, f: &Flight, finished_at: Seconds, books: &mut RouterBooks) {
    let metrics = RequestMetrics::from_timestamps(
        id,
        f.prompt.len() as u32,
        f.tokens.len() as u32,
        f.submitted_at,
        f.admitted_at.unwrap_or(finished_at),
        f.first_token_at.unwrap_or(finished_at),
        finished_at,
        f.cached_prefix_tokens,
        f.priority,
    );
    let _ = f.client.send(ServeEvent::Finished {
        metrics: metrics.clone(),
    });
    books.last_finished_at = books.last_finished_at.max(finished_at.value());
    books.per_request.push(metrics);
}
