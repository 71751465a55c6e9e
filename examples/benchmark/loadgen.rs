//! Open-loop load generation from one process with two threads.
//!
//! A submit thread sends each request at `start + arrival`, whether or
//! not earlier ones have been answered, and records how late it ran. A
//! collector thread drains each request's event stream in submission
//! order. Events carry the server's own timestamps, so the order in
//! which the collector reads them biases no measurement.

use llmib_serve::{Client, RequestHandle, RequestMetrics, ServeEvent, SubmitError, SubmitOptions};
use llmib_types::Request;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// One request the generator sent and everything the server said
/// about it. Times are seconds since the phase started, which is also
/// the server's clock (the server starts at the phase start).
#[derive(Debug)]
pub struct Sent {
    /// Position in the phase's trace.
    pub idx: usize,
    /// When the request was due.
    pub due: f64,
    /// When `Client::submit` was called.
    pub submit_start: f64,
    /// When `Client::submit` returned.
    pub submit_end: f64,
    /// Server-assigned id, if the submission was accepted.
    pub server_id: Option<u64>,
    /// How the request ended.
    pub outcome: Outcome,
}

impl Sent {
    /// How late the generator submitted the request.
    pub fn lateness(&self) -> f64 {
        self.submit_start - self.due
    }
}

/// How a request ended, as its client saw it.
#[derive(Debug)]
pub enum Outcome {
    /// Refused at the door by `Client::submit`.
    Refused(SubmitError),
    /// Served to completion.
    Completed(Served),
    /// Rejected, failed or cancelled by the server after submission.
    Ended(String),
}

/// The stream of a completed request.
#[derive(Debug)]
pub struct Served {
    /// When the server admitted it.
    pub admitted_at: f64,
    /// Generated tokens, in order.
    pub tokens: Vec<usize>,
    /// When each token was produced.
    pub token_at: Vec<f64>,
    /// The server's final metrics for the request.
    pub metrics: RequestMetrics,
}

impl Served {
    /// When the server finished the request.
    pub fn finished_at(&self) -> f64 {
        self.metrics.submitted_at.value() + self.metrics.e2e.value()
    }
}

impl Outcome {
    /// The served stream, if the request completed.
    pub fn served(&self) -> Option<&Served> {
        match self {
            Outcome::Completed(s) => Some(s),
            _ => None,
        }
    }
}

/// Send `trace` through `client` on the open-loop schedule that began at
/// `start`, one prompt per request, and collect every outcome in trace
/// order.
pub fn run_open_loop(
    client: &Client,
    trace: &[Request],
    prompts: Vec<Vec<usize>>,
    start: Instant,
) -> Vec<Sent> {
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|s| {
        let submitter = s.spawn(move || {
            for (idx, (req, prompt)) in trace.iter().zip(prompts).enumerate() {
                let due = req.arrival.value();
                let target = start + Duration::from_secs_f64(due);
                if let Some(wait) = target.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let submitted = submit(client, req, prompt, idx, due, start);
                tx.send(submitted)
                    .expect("collector thread outlives the submitter");
            }
        });
        let collector = s.spawn(move || rx.into_iter().map(Submitted::collect).collect::<Vec<_>>());
        submitter.join().expect("submit thread panicked");
        collector.join().expect("collector thread panicked")
    })
}

/// A submission whose events have not been read yet.
struct Submitted {
    idx: usize,
    due: f64,
    submit_start: f64,
    submit_end: f64,
    handle: Result<RequestHandle, SubmitError>,
}

impl Submitted {
    fn collect(self) -> Sent {
        let (server_id, outcome) = match &self.handle {
            Ok(h) => (Some(h.id), drain(h)),
            Err(e) => (None, Outcome::Refused(*e)),
        };
        Sent {
            idx: self.idx,
            due: self.due,
            submit_start: self.submit_start,
            submit_end: self.submit_end,
            server_id,
            outcome,
        }
    }
}

/// Time one `Client::submit` call for trace entry `idx`.
fn submit(
    client: &Client,
    req: &Request,
    prompt: Vec<usize>,
    idx: usize,
    due: f64,
    start: Instant,
) -> Submitted {
    let submit_start = start.elapsed().as_secs_f64();
    let handle = client.submit(prompt, SubmitOptions::greedy(req.output_tokens as usize));
    Submitted {
        idx,
        due,
        submit_start,
        submit_end: start.elapsed().as_secs_f64(),
        handle,
    }
}

/// Read one request's events to its terminal event.
fn drain(handle: &RequestHandle) -> Outcome {
    let mut admitted_at = f64::NAN;
    let mut tokens = Vec::new();
    let mut token_at = Vec::new();
    loop {
        match handle.next_event() {
            Some(ServeEvent::Admitted { at, .. }) => admitted_at = at.value(),
            Some(ServeEvent::Token { token, at }) => {
                tokens.push(token);
                token_at.push(at.value());
            }
            Some(ServeEvent::Finished { metrics }) => {
                return Outcome::Completed(Served {
                    admitted_at,
                    tokens,
                    token_at,
                    metrics,
                })
            }
            Some(ServeEvent::Migrated { .. }) => {}
            Some(other) => return Outcome::Ended(format!("{other:?}")),
            None => return Outcome::Ended("event stream closed".into()),
        }
    }
}
