//! Client-side handles: submit requests, stream tokens back, cancel.

use crate::event::{FailReason, RequestOutcome, ServeEvent};
use crate::server::Submission;
use llmib_engine::Sampler;
use llmib_types::{Priority, Seconds};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-request submission options.
#[derive(Debug, Clone)]
pub struct SubmitOptions {
    /// Token generation budget.
    pub max_new_tokens: usize,
    /// Sampling strategy (use [`Sampler::Greedy`] for bitwise-replayable
    /// runs).
    pub sampler: Sampler,
    /// Request deadline, relative to submission, enforced through the
    /// whole lifecycle: a request still queued when it expires is shed
    /// with [`crate::RejectReason::DeadlineExpired`]; one that expires
    /// mid-decode is evicted and resolved
    /// [`crate::FailReason::DeadlineExceeded`] (its streamed prefix
    /// stays valid).
    pub deadline: Option<Duration>,
    /// Scheduling class. Under an active [`llmib_sched::OverloadConfig`]
    /// the scheduler admits higher classes first and preempts, clamps,
    /// or sheds lower ones; otherwise the class is recorded but FIFO
    /// order is preserved (all-default traffic behaves identically).
    pub priority: Priority,
}

impl SubmitOptions {
    /// Greedy decoding of `max_new_tokens` tokens, no deadline,
    /// standard priority.
    pub fn greedy(max_new_tokens: usize) -> Self {
        Self {
            max_new_tokens,
            sampler: Sampler::Greedy,
            deadline: None,
            priority: Priority::default(),
        }
    }

    /// Set the scheduling class.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }
}

/// Why a submission was refused at the ingress, before reaching the
/// scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded ingress queue is full — the server is overloaded and
    /// sheds at the door instead of buffering unboundedly.
    QueueFull,
    /// The server is draining for shutdown (or gone).
    ShuttingDown,
    /// The prompt was empty or the token budget zero.
    InvalidRequest,
}

/// A cloneable submission endpoint for one [`crate::Server`]. Any number
/// of client threads may hold one and submit concurrently; each
/// submission streams its events back through its own
/// [`RequestHandle`].
#[derive(Clone)]
pub struct Client {
    pub(crate) ingress: SyncSender<Submission>,
    pub(crate) control: Sender<u64>,
    pub(crate) accepting: Arc<AtomicBool>,
    pub(crate) next_id: Arc<AtomicU64>,
    pub(crate) epoch: Instant,
}

impl Client {
    /// Submit a prompt for generation. Returns immediately with a
    /// streaming handle, or an error if the queue is full / the server
    /// is draining.
    pub fn submit(
        &self,
        prompt: Vec<usize>,
        opts: SubmitOptions,
    ) -> Result<RequestHandle, SubmitError> {
        if prompt.is_empty() || opts.max_new_tokens == 0 {
            return Err(SubmitError::InvalidRequest);
        }
        if !self.accepting.load(Ordering::Acquire) {
            return Err(SubmitError::ShuttingDown);
        }
        let submitted_at = Seconds(self.epoch.elapsed().as_secs_f64());
        let deadline = opts
            .deadline
            .map(|d| Seconds(submitted_at.value() + d.as_secs_f64()));
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (events_tx, events_rx) = std::sync::mpsc::channel();
        let sub = Submission {
            id,
            prompt,
            max_new_tokens: opts.max_new_tokens,
            sampler: opts.sampler,
            submitted_at,
            deadline,
            priority: opts.priority,
            events: events_tx,
            replay: None,
        };
        match self.ingress.try_send(sub) {
            Ok(()) => Ok(RequestHandle {
                id,
                events: events_rx,
                control: self.control.clone(),
            }),
            Err(TrySendError::Full(_)) => Err(SubmitError::QueueFull),
            Err(TrySendError::Disconnected(_)) => Err(SubmitError::ShuttingDown),
        }
    }
}

/// The client end of one in-flight request: a stream of
/// [`ServeEvent`]s plus a cancellation switch.
pub struct RequestHandle {
    /// Request id assigned at submission.
    pub id: u64,
    events: Receiver<ServeEvent>,
    control: Sender<u64>,
}

/// Former name of [`RequestHandle`].
pub type PendingRequest = RequestHandle;

impl RequestHandle {
    /// Ask the scheduler to cancel this request. Takes effect at the
    /// next loop boundary: a queued request is removed from the queue, a
    /// mid-decode request is evicted from the batch and its KV
    /// reservation freed; either way the stream terminates with a
    /// [`ServeEvent::Cancelled`] event. Cancelling a request that
    /// already finished (or a dead server) is a harmless no-op.
    pub fn cancel(&self) {
        let _ = self.control.send(self.id);
    }

    /// Block for the next event; `None` once the stream is exhausted.
    pub fn next_event(&self) -> Option<ServeEvent> {
        self.events.recv().ok()
    }

    /// Drain the stream to its terminal event and collect the outcome.
    /// Never hangs on a dead scheduler: a dropped event channel resolves
    /// as [`RequestOutcome::Failed`] with [`FailReason::ServerFailed`].
    pub fn wait(self) -> RequestOutcome {
        let deadline = None;
        self.wait_inner(deadline)
            .expect("no deadline, only terminal outcomes")
    }

    /// Like [`RequestHandle::wait`], but gives up after `timeout` and
    /// returns `None` (the request stays in flight). Chaos tests use
    /// this to assert that every submission resolves within a bound.
    pub fn wait_timeout(self, timeout: Duration) -> Option<RequestOutcome> {
        self.wait_inner(Some(Instant::now() + timeout))
    }

    fn wait_inner(self, deadline: Option<Instant>) -> Option<RequestOutcome> {
        let mut tokens = Vec::new();
        loop {
            let next = match deadline {
                None => self
                    .events
                    .recv()
                    .map_err(|_| RecvTimeoutError::Disconnected),
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    self.events.recv_timeout(left)
                }
            };
            match next {
                // Informational, non-terminal events.
                Ok(ServeEvent::Admitted { .. }) | Ok(ServeEvent::Migrated { .. }) => {}
                Ok(ServeEvent::Token { token, .. }) => tokens.push(token),
                Ok(ServeEvent::Finished { metrics }) => {
                    return Some(RequestOutcome::Completed { tokens, metrics })
                }
                Ok(ServeEvent::Rejected { reason, .. }) => {
                    return Some(RequestOutcome::Rejected { reason })
                }
                Ok(ServeEvent::Failed { reason, .. }) => {
                    return Some(RequestOutcome::Failed { reason, tokens })
                }
                Ok(ServeEvent::Cancelled { .. }) => {
                    return Some(RequestOutcome::Cancelled { tokens })
                }
                // Scheduler gone without a terminal event (panic or early
                // exit dropped the sender): surface an explicit server
                // failure rather than hanging or panicking.
                Err(RecvTimeoutError::Disconnected) => {
                    return Some(RequestOutcome::Failed {
                        reason: FailReason::ServerFailed,
                        tokens,
                    })
                }
                Err(RecvTimeoutError::Timeout) => return None,
            }
        }
    }
}
