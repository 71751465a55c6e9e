//! The three live workloads.
//!
//! A run serves an untimed warm-up, then a fixed number of replicas (see
//! [`Workload::repetitions`](crate::workload::Workload::repetitions)). A
//! replica is a burst of requests due at once, preceded on every
//! [`OPEN_EVERY`]th replica by an open segment on a Poisson schedule.
//! Each phase runs on a fresh `Server`, and every replica of a run sends
//! the same requests. The reported latencies and throughput come from
//! the bursts: each, like the set-up time, is computed per replica and
//! the run reports the best replica ([`best`]), because a host shared
//! with other tenants slows down by up to 2x for seconds at a time and
//! the best replica is the one it left alone. The open segments give the
//! SLO attainment and the per-layer serve metrics. A traced run then
//! replays the last burst straight through the engine to split its time
//! by layer.

use crate::engine::{reference_tokens, replay, Job};
use crate::loadgen::{run_open_loop, Outcome, Sent, Served};
use crate::stats::{
    best, highest_supported, median, pct, slo_attainment, supports, ttft_from_due, Stat,
    TAIL_SAMPLES,
};
use crate::trace::{Span, Trace};
use crate::workload::{engine_config, Live, MAX_CONCURRENCY};
use crate::{per_repetition_note, repeat, time_setup, Check, Measured};
use llmib_engine::TransformerModel;
use llmib_serve::{deterministic_prompt_for, ServeReport, Server, SubmitError, SubmitOptions};
use llmib_types::{Request, Seconds};
use std::sync::Arc;
use std::time::Instant;

/// Completed requests the bitwise check re-runs: every 8th, but at
/// least this many per phase.
const MIN_CHECKED: usize = 16;
/// Generator lateness above which a run does not measure the schedule
/// it claims to.
pub const LATE_LIMIT_MS: f64 = 10.0;

/// One served phase.
struct Phase {
    trace: Vec<Request>,
    sent: Vec<Sent>,
    report: ServeReport,
    /// The server's start, which its timestamps count from.
    start: Instant,
    /// The untimed request served before the phase's own, as an engine
    /// job under its server id.
    primer: Option<Job>,
}

impl Phase {
    /// Untimed requests served before the phase's own (0 or 1).
    fn primed(&self) -> usize {
        usize::from(self.primer.is_some())
    }

    /// Tokens generated per second, from when the phase's first request
    /// was due to its last completion. For a burst, where every request
    /// is due at once, this is the burst capacity.
    fn tok_s(&self) -> Stat {
        let tokens: usize = self.served().map(|(_, _, sv)| sv.tokens.len()).sum();
        let first_due = self
            .sent
            .iter()
            .map(|s| s.due)
            .fold(f64::INFINITY, f64::min);
        let last_end = self
            .served()
            .map(|(_, _, sv)| sv.finished_at())
            .fold(0.0, f64::max);
        Stat::new(tokens as f64 / (last_end - first_due), tokens)
    }

    fn served(&self) -> impl Iterator<Item = (&Request, &Sent, &Served)> {
        self.sent
            .iter()
            .filter_map(|s| s.outcome.served().map(|sv| (&self.trace[s.idx], s, sv)))
    }

    /// Trace entry `idx` as an engine job with sequence id `id`.
    fn job(&self, idx: usize, id: u64, vocab: usize) -> Job {
        let req = &self.trace[idx];
        Job {
            id,
            prompt: deterministic_prompt_for(req, vocab),
            max_new: req.output_tokens as usize,
        }
    }

    /// Time to first token of each completed request, from when it was
    /// due, in ms.
    fn ttft_ms(&self) -> Vec<f64> {
        self.served()
            .map(|(_, sent, sv)| ttft_from_due(sent.lateness(), sv.metrics.ttft.value()) * 1e3)
            .collect()
    }

    /// Gaps between consecutive tokens of each request, pooled, in ms.
    fn itl_ms(&self) -> Vec<f64> {
        self.served()
            .flat_map(|(_, _, sv)| sv.token_at.windows(2).map(|w| (w[1] - w[0]) * 1e3))
            .collect()
    }
}

/// Replicas per open segment: every third replica serves one before its
/// burst. The arrivals, not the work, set an open segment's length, so
/// this leaves time for more bursts in a run, while the open segments
/// still sample the whole run.
const OPEN_EVERY: usize = 3;

/// One replica: its set-up time, its open segment if it has one, and its
/// burst.
struct Replica {
    /// The lower of two set-up times, taken before the replica's phases
    /// and after them: two chances to catch the host undisturbed.
    setup_s: f64,
    open: Option<Phase>,
    burst: Phase,
}

/// One number computed from a phase.
type PhaseMetric = fn(&Phase) -> f64;

/// Serve `trace` on a fresh server. A `primer` is served first, untimed,
/// and the schedule starts when it completes.
fn run_phase(
    model: &Arc<TransformerModel>,
    live: &Live,
    mut trace: Vec<Request>,
    primer: Option<Request>,
) -> Phase {
    let vocab = model.config().vocab;
    let prompts = trace
        .iter()
        .map(|r| deterministic_prompt_for(r, vocab))
        .collect();
    let start = Instant::now();
    let server =
        Server::start(Arc::clone(model), live.serve_config()).expect("valid server configuration");
    let client = server.client();
    let primer = primer.map(|p| {
        let prompt = deterministic_prompt_for(&p, vocab);
        let max_new = p.output_tokens as usize;
        let handle = client
            .submit(prompt.clone(), SubmitOptions::greedy(max_new))
            .expect("an idle server accepts the primer");
        let id = handle.id;
        handle.wait().tokens().expect("the primer completes");
        let offset = start.elapsed().as_secs_f64();
        for r in &mut trace {
            r.arrival = Seconds(r.arrival.value() + offset);
        }
        Job {
            id,
            prompt,
            max_new,
        }
    });
    let sent = run_open_loop(&client, &trace, prompts, start);
    let report = server.shutdown();
    Phase {
        trace,
        sent,
        report,
        start,
        primer,
    }
}

/// Run `replicas` replicas of a live workload.
pub fn run(live: &Live, seed: u64, replicas: usize, trace: Option<&mut Trace>) -> Measured {
    let model = Arc::new(TransformerModel::new(engine_config(), false).expect("valid model"));
    run_phase(&model, live, live.warmup_trace(seed), None);
    let (open_trace, burst_trace) = (live.open_trace(seed), live.burst_trace(seed));
    let (open_primer, burst_primer) = (live.primer(&open_trace), live.primer(&burst_trace));
    // Set-up is a model build plus `Server::start`.
    let setup = || {
        let m = Arc::new(TransformerModel::new(engine_config(), false).expect("valid model"));
        Server::start(m, live.serve_config()).expect("valid server configuration")
    };
    let (replicas, wall_s) = repeat(replicas, |k| {
        let before = time_setup(setup);
        let open = (k % OPEN_EVERY == 0)
            .then(|| run_phase(&model, live, open_trace.clone(), open_primer.clone()));
        let burst = run_phase(&model, live, burst_trace.clone(), burst_primer.clone());
        Replica {
            setup_s: before.min(time_setup(setup)),
            open,
            burst,
        }
    });
    let opens: Vec<&Phase> = replicas.iter().filter_map(|r| r.open.as_ref()).collect();
    let bursts: Vec<&Phase> = replicas.iter().map(|r| &r.burst).collect();

    let mut m = Measured {
        repetitions: (replicas.len(), wall_s),
        ..Measured::default()
    };
    let per_phase =
        |phases: &[&Phase], f: PhaseMetric| -> Vec<f64> { phases.iter().map(|p| f(p)).collect() };
    let reported: [(&str, PhaseMetric, bool); 3] = [
        ("ttft_p50_ms", |p| pct(&p.ttft_ms(), 50.0).value, false),
        ("itl_p50_ms", |p| pct(&p.itl_ms(), 50.0).value, false),
        ("peak_tok_s", |p| p.tok_s().value, true),
    ];
    for (name, f, higher) in reported {
        let values = per_phase(&bursts, f);
        m.notes.push(per_repetition_note(name, "burst", &values));
        m.e2e.push((name, best(&values, higher)));
    }
    let setup_s: Vec<f64> = replicas.iter().map(|r| r.setup_s).collect();
    m.notes
        .push(per_repetition_note("setup_s", "replica", &setup_s));
    m.e2e.push(("setup_s", best(&setup_s, false)));
    let met: usize = opens
        .iter()
        .flat_map(|p| p.served())
        .filter(|(_, sent, sv)| {
            let ttft = ttft_from_due(sent.lateness(), sv.metrics.ttft.value());
            live.limits.met(ttft, sv.metrics.itl.map(|s| s.value()))
        })
        .count();
    let sent_open: usize = opens.iter().map(|p| p.sent.len()).sum();
    m.e2e.push((
        "slo_attainment",
        Stat::new(slo_attainment(met, sent_open), sent_open),
    ));
    // ITL tails are printed, not reported: a burst's upper gaps follow
    // any slow stretch of the host within it, so they did not repeat.
    let p90 = per_phase(&bursts, |p| pct(&p.itl_ms(), 90.0).value);
    m.notes
        .push(per_repetition_note("itl_p90_ms", "burst", &p90));
    let p99: Vec<String> = bursts
        .iter()
        .map(|p| {
            let p99 = pct(&p.itl_ms(), 99.0);
            match supports(p99.n, 99.0) {
                true => format!("{:.3}", p99.value),
                false => format!("{:.3}(n={})", p99.value, p99.n),
            }
        })
        .collect();
    m.notes
        .push(format!("ITL p99 per burst, ms: {}", p99.join(" ")));
    // Open-loop latency, printed but not reported: with the server
    // idling between arrivals it follows the host more than the code.
    let open_loop: [(&str, PhaseMetric); 3] = [
        ("open-loop ttft_p50_ms", |p| pct(&p.ttft_ms(), 50.0).value),
        ("open-loop itl_p50_ms", |p| pct(&p.itl_ms(), 50.0).value),
        ("open-loop itl_p99_ms", |p| pct(&p.itl_ms(), 99.0).value),
    ];
    for (name, f) in open_loop {
        m.notes.push(per_repetition_note(
            name,
            "open segment",
            &per_phase(&opens, f),
        ));
    }
    let ttft_all: Vec<f64> = opens.iter().flat_map(|p| p.ttft_ms()).collect();
    if let Some(p) = highest_supported(ttft_all.len()).filter(|&p| p > 50.0) {
        m.notes.push(format!(
            "open-loop TTFT over all {} requests: p{p:.1} {:.2} ms (the highest percentile \
             with {TAIL_SAMPLES} samples beyond it)",
            ttft_all.len(),
            pct(&ttft_all, p).value
        ));
    }

    let late_ms: Vec<f64> = opens
        .iter()
        .flat_map(|p| p.sent.iter().map(|s| s.lateness() * 1e3))
        .collect();
    let late = pct(&late_ms, 99.0);
    if late.value > LATE_LIMIT_MS {
        m.warnings.push(format!(
            "run invalid: generator lateness p99 {:.2} ms > {LATE_LIMIT_MS} ms",
            late.value
        ));
    }
    m.layers.push(("loadgen.late_p99_ms", late));

    for (name, phases) in [("open", &opens), ("burst", &bursts)] {
        for p in phases.iter() {
            m.attempted += p.sent.len();
            m.failed += p.sent.len() - p.served().count();
        }
        m.checks.push(books(name, phases));
        m.checks.push(sampled_check(&model, live, name, phases));
    }
    if let Some(trace) = trace {
        layer_metrics(&opens, &bursts, &mut m);
        for (k, r) in replicas.iter().enumerate() {
            if let Some(open) = &r.open {
                phase_spans(trace, &format!("replica {k} open"), open);
            }
            phase_spans(trace, &format!("replica {k} burst"), &r.burst);
        }
        let last = &replicas.last().expect("at least one replica").burst;
        let replayed = engine_replay(&model, live, last, trace, &mut m);
        m.checks.push(replayed);
    }
    m
}

/// Every replica's books balance: the server's report reconciles, and
/// the client and server agree on what was sent, refused and completed.
fn books(name: &str, phases: &[&Phase]) -> Check {
    let (mut sent, mut refused, mut completed, mut balanced) = (0, 0, 0, true);
    let mut first_end = None;
    for phase in phases {
        let r = &phase.report;
        let p_refused = phase
            .sent
            .iter()
            .filter(|s| matches!(s.outcome, Outcome::Refused(_)))
            .count();
        let p_completed = phase.served().count();
        balanced &= r.reconciles()
            && !r.robustness.server_failed
            && r.robustness.submitted as usize == phase.sent.len() - p_refused + phase.primed()
            && r.completed as usize == p_completed + phase.primed();
        sent += phase.sent.len();
        refused += p_refused;
        completed += p_completed;
        first_end = first_end.or_else(|| {
            phase.sent.iter().find_map(|s| match &s.outcome {
                Outcome::Ended(why) => Some(format!("; first failure: {why}")),
                _ => None,
            })
        });
    }
    Check::new(
        format!("{name}: books balance in {} phases", phases.len()),
        balanced,
        format!(
            "sent {sent} = completed {completed} + refused {refused} + failed {}; every \
             report reconciles with its client{}",
            sent - refused - completed,
            first_end.unwrap_or_default()
        ),
    )
}

/// Re-run every 8th request of the phase (at least [`MIN_CHECKED`])
/// through a fresh single-owner session, and require every replica's
/// stream for it to be bitwise equal.
fn sampled_check(model: &TransformerModel, live: &Live, name: &str, phases: &[&Phase]) -> Check {
    let vocab = model.config().vocab;
    let first = phases[0];
    let stride = (first.trace.len() / MIN_CHECKED).clamp(1, 8);
    let picked: Vec<usize> = (0..first.trace.len()).step_by(stride).collect();
    let jobs: Vec<Job> = picked
        .iter()
        .map(|&idx| first.job(idx, idx as u64, vocab))
        .collect();
    let reference = reference_tokens(model, &jobs, Some(live.prefix_config()));
    let (mut equal, mut total) = (0, 0);
    for phase in phases {
        for (&idx, want) in picked.iter().zip(&reference) {
            total += 1;
            let got = phase
                .sent
                .iter()
                .find(|s| s.idx == idx)
                .and_then(|s| s.outcome.served());
            equal += usize::from(got.is_some_and(|sv| &sv.tokens == want));
        }
    }
    Check::new(
        format!("{name}: sampled streams bitwise"),
        equal == total && total > 0,
        format!(
            "{equal}/{total} streams ({} requests x {} replicas) equal a fresh session",
            picked.len(),
            phases.len()
        ),
    )
}

/// Per-layer metrics the live phases yield without a replay, pooled over
/// replicas.
fn layer_metrics(opens: &[&Phase], bursts: &[&Phase], m: &mut Measured) {
    let mut submit_us = Vec::new();
    let mut admit_wait_ms = Vec::new();
    let mut first_token_ms = Vec::new();
    let (mut admissions, mut chunks, mut hits, mut saved, mut prompt_tokens) = (0, 0, 0, 0, 0);
    let (mut steps, mut occupancy, mut peak_kv) = (0, 0.0, 0.0f64);
    for phase in opens {
        for (req, sent, sv) in phase.served() {
            submit_us.push((sent.submit_end - sent.submit_start) * 1e6);
            admit_wait_ms.push((sv.admitted_at - sv.metrics.submitted_at.value()) * 1e3);
            first_token_ms.push((sv.token_at[0] - sv.admitted_at) * 1e3);
            prompt_tokens += u64::from(req.prompt_tokens);
        }
        let r = &phase.report;
        admissions += r.admission_order.len() - phase.primed();
        chunks += r.prefill_chunks;
        hits += u64::from(r.prefix.hits);
        saved += r.prefix.saved_prefill_tokens;
        steps += r.decode_steps;
        occupancy += r.mean_batch_occupancy * r.decode_steps as f64;
        peak_kv = peak_kv.max(r.peak_kv_utilization);
    }
    let ratio = |a: f64, b: f64| Stat::new(if b > 0.0 { a / b } else { 0.0 }, admissions);
    let all = || opens.iter().chain(bursts);
    let queue_full = all()
        .flat_map(|p| &p.sent)
        .filter(|s| matches!(&s.outcome, Outcome::Refused(e) if *e == SubmitError::QueueFull))
        .count();
    let stalls: u32 = all().map(|p| p.report.robustness.watchdog_stalls).sum();
    let sent: usize = all().map(|p| p.sent.len()).sum();
    m.layers.extend([
        ("serve.submit_us_p50", pct(&submit_us, 50.0)),
        ("serve.submit_us_p99", pct(&submit_us, 99.0)),
        ("serve.admit_wait_ms_p50", pct(&admit_wait_ms, 50.0)),
        ("serve.admit_wait_ms_p90", pct(&admit_wait_ms, 90.0)),
        ("serve.first_token_ms_p50", pct(&first_token_ms, 50.0)),
        (
            "serve.mean_batch_occupancy",
            Stat::new(occupancy / steps as f64, steps as usize),
        ),
        ("serve.prefill_chunks", Stat::new(chunks as f64, admissions)),
        (
            "serve.chunks_per_admission",
            ratio(chunks as f64, admissions as f64),
        ),
        (
            "serve.peak_kv_utilization",
            Stat::new(peak_kv, steps as usize),
        ),
        ("serve.queue_full", Stat::new(queue_full as f64, sent)),
        ("serve.watchdog_stalls", Stat::new(f64::from(stalls), sent)),
        ("prefix.hit_rate", ratio(hits as f64, admissions as f64)),
        (
            "prefix.saved_prefill_share",
            ratio(saved as f64, prompt_tokens as f64),
        ),
    ]);
}

/// Replay a burst's admissions through a fresh engine session, time
/// every call, fold the timings into the engine metrics, and require
/// every live stream to equal its replayed one.
fn engine_replay(
    model: &TransformerModel,
    live: &Live,
    phase: &Phase,
    trace: &mut Trace,
    m: &mut Measured,
) -> Check {
    let vocab = model.config().vocab;
    let by_server_id = |id: u64| {
        phase
            .sent
            .iter()
            .find(|s| s.server_id == Some(id))
            .expect("admitted ids were submitted")
    };
    let jobs: Vec<Job> = phase
        .report
        .admission_order
        .iter()
        .map(|&id| match &phase.primer {
            Some(p) if p.id == id => p.clone(),
            _ => phase.job(by_server_id(id).idx, id, vocab),
        })
        .collect();
    let lane = trace.lane("last burst, engine replay".into());
    let (tokens, st) = replay(
        model,
        &jobs,
        live.prefix_config(),
        live.chunk_budget,
        MAX_CONCURRENCY,
        trace,
        lane,
    );
    let step_ms = |lo: usize, hi: usize| -> Vec<f64> {
        st.step_ms
            .iter()
            .filter(|(b, _)| (lo..=hi).contains(b))
            .map(|(_, ms)| *ms)
            .collect()
    };
    let makespan = phase.report.makespan.value();
    let steps = st.step_ms.len();
    m.layers.extend([
        (
            "serve.overhead_share",
            Stat::new(1.0 - st.busy_s / makespan, steps),
        ),
        (
            "prefix.evicted_blocks",
            Stat::new(st.prefix.evicted_blocks as f64, jobs.len()),
        ),
        (
            "prefix.resident_blocks",
            Stat::new(st.prefix.resident_blocks as f64, jobs.len()),
        ),
        ("engine.admit_ms_p50", pct(&st.admit_ms, 50.0)),
        ("engine.admit_ms_p99", pct(&st.admit_ms, 99.0)),
        (
            "engine.prefill_tok_s",
            Stat::new(st.prefill_tokens as f64 / st.prefill_s, jobs.len()),
        ),
        ("engine.chunk_ms_p50", pct(&st.chunk_ms, 50.0)),
        ("engine.chunk_ms_p99", pct(&st.chunk_ms, 99.0)),
        ("engine.step_ms.b1", median(&step_ms(1, 1))),
        ("engine.step_ms.b2-4", median(&step_ms(2, 4))),
        ("engine.step_ms.b5-8", median(&step_ms(5, 8))),
        ("engine.busy_s", Stat::new(st.busy_s, steps)),
        (
            "engine.prefill_share",
            Stat::new(st.prefill_s / st.busy_s, steps),
        ),
        (
            "engine.kv_bytes_peak",
            Stat::new(st.kv_bytes_peak as f64, steps),
        ),
    ]);
    let equal = phase
        .sent
        .iter()
        .filter(|s| {
            let replayed = s.server_id.and_then(|id| tokens.get(&id));
            replayed.is_some() && s.outcome.served().map(|sv| &sv.tokens) == replayed
        })
        .count();
    Check::new(
        "burst: every stream of the last burst equals the engine replay".into(),
        equal == phase.sent.len() && equal + phase.primed() == jobs.len(),
        format!("{equal}/{} streams bitwise equal", phase.sent.len()),
    )
}

/// Spans of one phase, rebuilt from the generator's timings and the
/// server's event stamps: per request, how late it was sent, the
/// `Client::submit` call, the wait for admission, the wait for the
/// first token, and decode.
fn phase_spans(trace: &mut Trace, name: &str, phase: &Phase) {
    let lane = trace.lane(name.to_string());
    let t0 = trace.at_us(phase.start);
    let us = |s: f64| t0 + s * 1e6;
    let finish = |s: &Sent| s.outcome.served().map_or(s.submit_end, Served::finished_at);
    let end = phase.sent.iter().map(finish).fold(0.0, f64::max);
    let root = trace.push(Span {
        end_us: us(end),
        ..trace.span("phase", "loadgen", lane, t0)
    });
    for s in &phase.sent {
        let child = |trace: &Trace,
                     name: &'static str,
                     layer: &'static str,
                     parent: usize,
                     a: f64,
                     b: f64| Span {
            end_us: us(b),
            parent: Some(parent),
            req: s.server_id,
            row: s.idx as u64 + 1,
            ..trace.span(name, layer, lane, us(a))
        };
        let r = trace.push(child(trace, "request", "loadgen", root, s.due, finish(s)));
        trace.push(child(trace, "late", "loadgen", r, s.due, s.submit_start));
        trace.push(child(
            trace,
            "submit",
            "serve",
            r,
            s.submit_start,
            s.submit_end,
        ));
        if let Some(sv) = s.outcome.served() {
            let submitted = sv.metrics.submitted_at.value();
            let first = sv.token_at[0];
            trace.push(child(
                trace,
                "admit_wait",
                "serve",
                r,
                submitted,
                sv.admitted_at,
            ));
            trace.push(child(
                trace,
                "first_token",
                "serve",
                r,
                sv.admitted_at,
                first,
            ));
            trace.push(child(trace, "decode", "serve", r, first, finish(s)));
        }
    }
}
