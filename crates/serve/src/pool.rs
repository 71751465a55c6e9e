//! A pool of independent serving replicas behind one health-aware
//! router.
//!
//! [`ReplicaPool::start`] spawns N scheduler/engine replicas (each the
//! same supervised runtime a standalone [`crate::Server`] runs — own
//! `BatchSession`, KV budget, circuit breaker, fault injector) plus one
//! router thread that owns ingress, routing, failover migration, and
//! hedged dispatch (see [`crate::router`]). Clients are oblivious: the
//! pool hands out the same [`Client`] type as a single server, and a
//! request that survives a replica death simply keeps streaming —
//! bitwise identically, thanks to greedy-deterministic decode — after a
//! [`crate::ServeEvent::Migrated`] marker.
//!
//! All replicas share the pool's epoch, so timestamps, deadlines, and
//! metrics are comparable across replicas and with the router's books.

use crate::client::Client;
use crate::config::PoolConfig;
use crate::event::{RejectReason, ServeEvent};
use crate::router::{router_loop, ReplicaSlot, RouterBooks};
use crate::server::{now, spawn_scheduler};
use crate::{OverloadCounters, PrefixCounters, RobustnessStats, ServeReport};
use llmib_engine::TransformerModel;
use llmib_types::{ReplicaId, Result, Seconds};
use serde::Serialize;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Aggregate outcome of a replicated serving run, returned by
/// [`ReplicaPool::shutdown`].
#[derive(Debug, Clone, Serialize)]
pub struct PoolReport {
    /// Pool-level view: lifecycle accounting from the router (each
    /// request counted exactly once, however many replicas served it)
    /// plus mechanism counters summed over replicas. Its
    /// [`RobustnessStats::migrations`], `migrated_tokens`,
    /// `replicas_lost`, and `hedges` describe the failover behavior.
    pub aggregate: ServeReport,
    /// Each replica's own report, in [`ReplicaId`] order. A replica
    /// killed by a fault reports
    /// [`RobustnessStats::server_failed`].
    pub per_replica: Vec<ServeReport>,
}

impl PoolReport {
    /// Replicas that died during the run.
    pub fn replicas_lost(&self) -> u32 {
        self.aggregate.robustness.replicas_lost
    }
}

/// A live replicated serving runtime over one shared
/// [`TransformerModel`].
pub struct ReplicaPool {
    ingress: Option<SyncSender<crate::server::Submission>>,
    control: Sender<u64>,
    accepting: Arc<AtomicBool>,
    /// Router shutdown signal. Clients hold clones of the ingress
    /// sender, so dropping the pool's copy cannot by itself disconnect
    /// the channel; the router also watches this flag.
    stop: Arc<AtomicBool>,
    next_id: Arc<AtomicU64>,
    epoch: Instant,
    worker: Option<JoinHandle<PoolReport>>,
}

impl ReplicaPool {
    /// Validate `config`, spawn the replicas and the router thread.
    pub fn start(model: Arc<TransformerModel>, config: PoolConfig) -> Result<Self> {
        config.validate()?;
        let epoch = Instant::now();
        let mut slots = Vec::new();
        let mut joiners = Vec::new();
        for i in 0..config.replicas {
            let id = ReplicaId(i);
            let mut replica_config = config.replica.clone();
            replica_config.fault_plan = config.fault_plan.plan_for(id);
            let worker = spawn_scheduler(Arc::clone(&model), replica_config, epoch);
            slots.push(ReplicaSlot::new(
                id,
                worker.ingress,
                worker.control,
                worker.telemetry,
            ));
            joiners.push((worker.stop, worker.worker));
        }
        let (ingress, rx) = std::sync::mpsc::sync_channel(config.replica.queue_capacity);
        let (control, control_rx) = std::sync::mpsc::channel();
        let accepting = Arc::new(AtomicBool::new(true));
        let stop = Arc::new(AtomicBool::new(false));
        let router_stop = Arc::clone(&stop);
        let worker = std::thread::spawn(move || {
            let mut slots = slots;
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                router_loop(&config, &mut slots, &rx, &control_rx, epoch, &router_stop)
            }));
            if outcome.is_err() {
                // The router died: resolve queued submissions explicitly
                // (in-flight ones had their relay senders dropped by the
                // unwind, so their clients observe `ServerFailed`).
                while let Ok(sub) = rx.try_recv() {
                    let _ = sub.events.send(ServeEvent::Rejected {
                        reason: RejectReason::Internal,
                        at: now(epoch),
                    });
                }
            }
            // Stop the replicas regardless of how the router exited:
            // drop their ingress senders (slots) and raise stop flags,
            // then join for their reports.
            drop(slots);
            for (stop_flag, _) in &joiners {
                stop_flag.store(true, Ordering::Release);
            }
            let per_replica: Vec<ServeReport> = joiners
                .into_iter()
                .map(|(_, handle)| {
                    handle
                        .join()
                        .unwrap_or_else(|_| ServeReport::from_server_failure())
                })
                .collect();
            match outcome {
                Ok(books) => aggregate_report(books, per_replica),
                Err(_) => {
                    let robust = RobustnessStats {
                        server_failed: true,
                        ..RobustnessStats::default()
                    };
                    let aggregate = ServeReport::from_parts(
                        Vec::new(),
                        0,
                        0,
                        Seconds(0.0),
                        0,
                        0,
                        0.0,
                        0.0,
                        Vec::new(),
                        robust,
                        PrefixCounters::default(),
                        OverloadCounters::default(),
                    );
                    PoolReport {
                        aggregate,
                        per_replica,
                    }
                }
            }
        });
        Ok(Self {
            ingress: Some(ingress),
            control,
            accepting,
            stop,
            next_id: Arc::new(AtomicU64::new(0)),
            epoch,
            worker: Some(worker),
        })
    }

    /// A cloneable submission endpoint — the same [`Client`] type a
    /// standalone [`crate::Server`] hands out, so traffic generators
    /// ([`crate::replay_trace_on`]) work unchanged against a pool.
    pub fn client(&self) -> Client {
        Client {
            ingress: self
                .ingress
                .as_ref()
                .expect("pool already shut down")
                .clone(),
            control: self.control.clone(),
            accepting: Arc::clone(&self.accepting),
            next_id: Arc::clone(&self.next_id),
            epoch: self.epoch,
        }
    }

    /// Graceful drain: stop accepting, let every in-flight request
    /// resolve (completions, migrations, deadline sheds), stop the
    /// replicas, and return the aggregate + per-replica reports.
    pub fn shutdown(mut self) -> PoolReport {
        self.shutdown_inner()
            .expect("router thread exited before shutdown")
    }

    fn shutdown_inner(&mut self) -> Option<PoolReport> {
        self.accepting.store(false, Ordering::Release);
        self.stop.store(true, Ordering::Release);
        drop(self.ingress.take());
        self.worker
            .take()
            .map(|w| w.join().expect("router thread panicked"))
    }
}

impl Drop for ReplicaPool {
    fn drop(&mut self) {
        let _ = self.shutdown_inner();
    }
}

/// Fold the router's lifecycle books and the replicas' mechanism
/// counters into one aggregate report.
fn aggregate_report(books: RouterBooks, per_replica: Vec<ServeReport>) -> PoolReport {
    let mut robust = books.robust;
    let mut prefix = PrefixCounters::default();
    // Lifecycle rejection splits come from the router's books (counted
    // once per request); mechanism counters (preemptions, replayed
    // tokens, brownout steps, per-class tallies) are replica-local and
    // sum below. A request completes on exactly one replica, so even
    // `per_class.completed` sums cleanly.
    let mut overload = OverloadCounters {
        rejected_queue_full: books.rejected_queue_full,
        rejected_internal: books.rejected_internal,
        shed_brownout: books.shed_brownout,
        ..OverloadCounters::default()
    };
    for r in &per_replica {
        overload.preemptions += r.overload.preemptions;
        overload.replayed_tokens += r.overload.replayed_tokens;
        overload.brownout_steps += r.overload.brownout_steps;
        overload.per_class.merge(&r.overload.per_class);
        // Prefix-cache hits are replica-local facts (each replica owns
        // its own block trie) and sum cleanly.
        prefix.hits += r.prefix.hits;
        prefix.saved_prefill_tokens += r.prefix.saved_prefill_tokens;
        // Mechanism counters are replica-local facts and sum cleanly.
        // Lifecycle counters (submitted/failed/cancelled/...) are NOT
        // summed from replicas: a migrated request would be counted on
        // every replica it touched; the router's books count it once.
        robust.retries += r.robustness.retries;
        robust.evictions += r.robustness.evictions;
        robust.watchdog_stalls += r.robustness.watchdog_stalls;
        robust.faults_injected += r.robustness.faults_injected;
        robust.kv_accounting_failures += r.robustness.kv_accounting_failures;
        robust.breaker_opened += r.robustness.breaker_opened;
        robust.breaker_degraded_steps += r.robustness.breaker_degraded_steps;
        robust.breaker_recoveries += r.robustness.breaker_recoveries;
    }
    let decode_steps: u64 = per_replica.iter().map(|r| r.decode_steps).sum();
    // Prefill chunks are replica-local scheduler facts and sum cleanly;
    // disaggregated handoffs are router-owned (already in `books.robust`).
    let prefill_chunks: u64 = per_replica.iter().map(|r| r.prefill_chunks).sum();
    let occupancy_acc: f64 = per_replica
        .iter()
        .map(|r| r.mean_batch_occupancy * r.decode_steps as f64)
        .sum();
    let peak_kv = per_replica
        .iter()
        .map(|r| r.peak_kv_utilization)
        .fold(0.0, f64::max);
    let makespan =
        Seconds((books.last_finished_at - books.first_submitted_at.unwrap_or(0.0)).max(0.0));
    let aggregate = ServeReport::from_parts(
        books.per_request,
        books.shed_deadline,
        books.rejected_oversized,
        makespan,
        decode_steps,
        prefill_chunks,
        occupancy_acc,
        peak_kv,
        books.admission_order,
        robust,
        prefix,
        overload,
    );
    PoolReport {
        aggregate,
        per_replica,
    }
}
