//! Runs straight on `llmib-engine`'s `BatchSession`: the bitwise
//! reference for correctness checks, the timed engine replay behind the
//! per-layer engine metrics, and the offline batch workload.

use crate::trace::{Span, Trace};
use llmib_engine::{BatchSession, PrefixConfig, PrefixStats, Sampler, TransformerModel};
use std::collections::HashMap;

/// One sequence to run through the engine.
#[derive(Debug, Clone)]
pub struct Job {
    /// Sequence id, unique within a session.
    pub id: u64,
    /// Prompt tokens.
    pub prompt: Vec<usize>,
    /// Tokens to generate.
    pub max_new: usize,
}

fn session(model: &TransformerModel, prefix: Option<PrefixConfig>) -> BatchSession<'_> {
    match prefix {
        Some(cfg) => BatchSession::with_prefix_cache(model, cfg),
        None => BatchSession::new(model),
    }
}

/// Tokens a fresh single-owner session generates for `jobs`, admitted
/// together and decoded greedily, in job order. Per-sequence results do
/// not depend on batch composition, so these must equal what any
/// schedule produced for the same prompts.
pub fn reference_tokens(
    model: &TransformerModel,
    jobs: &[Job],
    prefix: Option<PrefixConfig>,
) -> Vec<Vec<usize>> {
    let mut s = session(model, prefix);
    for j in jobs {
        s.admit(j.id, &j.prompt, j.max_new, Sampler::Greedy)
            .expect("a served request fits the reference session");
    }
    s.run_to_completion().into_iter().map(|(_, t)| t).collect()
}

/// Record an engine call that began at `start_us` as a `name` span under
/// `parent`, and return its length in microseconds.
fn record(
    trace: &mut Trace,
    parent: usize,
    lane: usize,
    name: &'static str,
    req: Option<u64>,
    start_us: f64,
) -> f64 {
    let end_us = trace.now_us();
    trace.push(Span {
        end_us,
        parent: Some(parent),
        req,
        ..trace.span(name, "engine", lane, start_us)
    });
    end_us - start_us
}

/// Timings of one engine replay.
#[derive(Debug, Default)]
pub struct ReplayStats {
    /// Duration of each `admit` / `admit_chunked` call, ms.
    pub admit_ms: Vec<f64>,
    /// Duration of each `prefill_chunk` call that did work, ms.
    pub chunk_ms: Vec<f64>,
    /// Batch size and duration of each `step` call, ms.
    pub step_ms: Vec<(usize, f64)>,
    /// Prompt tokens the engine prefilled (cached prefix excluded).
    pub prefill_tokens: u64,
    /// Time spent prefilling them, s.
    pub prefill_s: f64,
    /// Time inside any engine call, s.
    pub busy_s: f64,
    /// Largest KV footprint seen before a step, bytes.
    pub kv_bytes_peak: usize,
    /// The session's prefix-cache counters at the end.
    pub prefix: PrefixStats,
}

/// Feed `jobs` through a fresh session configured like the server: the
/// same prefix cache, the same chunk budget, admission in the recorded
/// order whenever fewer than `max_live` sequences are live or
/// prefilling, one chunk per iteration, then one decode step. Every
/// engine call is timed and recorded as a span on `lane` under one
/// `replay` span. Returns each sequence's tokens by id.
pub fn replay(
    model: &TransformerModel,
    jobs: &[Job],
    prefix: PrefixConfig,
    chunk_budget: Option<usize>,
    max_live: usize,
    trace: &mut Trace,
    lane: usize,
) -> (HashMap<u64, Vec<usize>>, ReplayStats) {
    let mut s = BatchSession::with_prefix_cache(model, prefix);
    let mut stats = ReplayStats::default();
    let mut tokens: HashMap<u64, Vec<usize>> = jobs.iter().map(|j| (j.id, Vec::new())).collect();
    let mut queue = jobs.iter().peekable();
    let root = trace.push(trace.span("replay", "engine", lane, trace.now_us()));
    let call = |trace: &mut Trace, name, req, start_us| {
        record(trace, root, lane, name, req, start_us) / 1e3
    };
    loop {
        while s.len() + s.pending_len() < max_live {
            let Some(job) = queue.next() else { break };
            let t = trace.now_us();
            let admitted = match chunk_budget {
                Some(_) => s.admit_chunked(job.id, &job.prompt, job.max_new, Sampler::Greedy),
                None => s.admit(job.id, &job.prompt, job.max_new, Sampler::Greedy),
            }
            .expect("a served request replays");
            let ms = call(trace, "admit", Some(job.id), t);
            stats.admit_ms.push(ms);
            if chunk_budget.is_none() {
                stats.prefill_tokens += (job.prompt.len() - admitted.cached_prefix_tokens) as u64;
                stats.prefill_s += ms / 1e3;
            }
        }
        if let Some(budget) = chunk_budget {
            let t = trace.now_us();
            if let Some(c) = s.prefill_chunk(budget) {
                let ms = call(trace, "prefill_chunk", Some(c.seq), t);
                stats.chunk_ms.push(ms);
                stats.prefill_tokens += c.tokens as u64;
                stats.prefill_s += ms / 1e3;
            }
        }
        if !s.is_empty() {
            stats.kv_bytes_peak = stats.kv_bytes_peak.max(s.kv_bytes());
            let batch = s.len();
            let t = trace.now_us();
            let events = s.step();
            let ms = call(trace, "step", None, t);
            stats.step_ms.push((batch, ms));
            for ev in events {
                tokens
                    .get_mut(&ev.seq)
                    .expect("every stepped sequence was admitted")
                    .push(ev.token);
            }
        } else if s.pending_len() == 0 && queue.peek().is_none() {
            break;
        }
    }
    trace.end(root, trace.now_us());
    stats.busy_s = (stats.admit_ms.iter().sum::<f64>()
        + stats.chunk_ms.iter().sum::<f64>()
        + stats.step_ms.iter().map(|(_, ms)| ms).sum::<f64>())
        / 1e3;
    stats.prefix = s.prefix_stats().expect("replay session caches prefixes");
    (tokens, stats)
}

/// One offline round: admit every job, then step until all finish.
#[derive(Debug)]
pub struct Round {
    /// Sequences in the round.
    pub batch: usize,
    /// Round wall time, s.
    pub wall_s: f64,
    /// From round start to the end of the first step, which produces
    /// every sequence's first token, s.
    pub ttft_s: f64,
    /// Duration of each `admit` (one prefill each), s.
    pub admit_s: Vec<f64>,
    /// Duration of each `step`, s.
    pub step_s: Vec<f64>,
    /// Tokens generated in the round.
    pub generated: usize,
    /// Each sequence's tokens, in job order.
    pub tokens: Vec<Vec<usize>>,
    /// Largest KV footprint of the round, bytes.
    pub kv_bytes_peak: usize,
}

impl Round {
    /// Generated tokens per second of round wall time.
    pub fn tok_s(&self) -> f64 {
        self.generated as f64 / self.wall_s
    }

    /// Decode tokens per second: batch size over mean step time.
    pub fn decode_tok_s(&self) -> f64 {
        (self.batch * self.step_s.len()) as f64 / self.step_s.iter().sum::<f64>()
    }
}

/// Run one offline round through a fresh cold session, recording a
/// `round` span with an `admit` or `step` child per engine call.
pub fn offline_round(
    model: &TransformerModel,
    jobs: &[Job],
    trace: &mut Trace,
    lane: usize,
) -> Round {
    let mut s = BatchSession::new(model);
    let start = trace.now_us();
    let root = trace.push(trace.span("round", "engine", lane, start));
    let call = |trace: &mut Trace, name, req, start_us| {
        record(trace, root, lane, name, req, start_us) / 1e6
    };
    let mut admit_s = Vec::with_capacity(jobs.len());
    for j in jobs {
        let t = trace.now_us();
        s.admit(j.id, &j.prompt, j.max_new, Sampler::Greedy)
            .expect("offline jobs fit the model");
        admit_s.push(call(trace, "admit", Some(j.id), t));
    }
    let kv_bytes_peak = s.kv_bytes();
    let mut tokens = vec![Vec::new(); jobs.len()];
    let mut step_s = Vec::new();
    let mut ttft_us = None;
    while !s.is_empty() {
        let t = trace.now_us();
        let events = s.step();
        step_s.push(call(trace, "step", None, t));
        ttft_us.get_or_insert(trace.now_us() - start);
        for ev in events {
            let k = jobs
                .iter()
                .position(|j| j.id == ev.seq)
                .expect("events name admitted jobs");
            tokens[k].push(ev.token);
        }
    }
    let end = trace.now_us();
    trace.end(root, end);
    Round {
        batch: jobs.len(),
        wall_s: (end - start) / 1e6,
        ttft_s: ttft_us.unwrap_or(0.0) / 1e6,
        admit_s,
        generated: tokens.iter().map(Vec::len).sum(),
        step_s,
        tokens,
        kv_bytes_peak,
    }
}
