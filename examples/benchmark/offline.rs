//! The offline batch workload: the paper's fixed batch × input/output
//! grid point, run straight on the engine with no server, scheduler
//! thread, queue or channels.

use crate::engine::{offline_round, reference_tokens, Job, Round};
use crate::stats::{best, median, pct, slo_attainment, Stat};
use crate::trace::Trace;
use crate::workload::{engine_config, offline_requests, CHAT_LIMITS};
use crate::{per_repetition_note, repeat, time_setup, Check, Measured};
use llmib_engine::TransformerModel;
use llmib_serve::deterministic_prompt_for;
use std::time::Instant;

/// Untimed rounds before measuring.
const WARMUP_ROUNDS: usize = 2;
/// Rounds per extra batch size in a traced run.
const SCALING_ROUNDS: usize = 3;
/// Every 8th sequence is re-run alone as the bitwise reference.
const CHECK_STRIDE: usize = 8;

/// Run `rounds` rounds of 16 sequences.
pub fn run(seed: u64, rounds: usize, trace: Option<&mut Trace>) -> Measured {
    let model = TransformerModel::new(engine_config(), false).expect("valid model");
    let vocab = model.config().vocab;
    let jobs: Vec<Job> = offline_requests(seed)
        .iter()
        .map(|r| Job {
            id: r.id,
            prompt: deterministic_prompt_for(r, vocab),
            max_new: r.output_tokens as usize,
        })
        .collect();

    let traced = trace.is_some();
    let mut discarded = Trace::new(Instant::now());
    let trace = trace.unwrap_or(&mut discarded);
    let mut warm = Trace::new(Instant::now());
    let warm_lane = warm.lane(String::new());
    for _ in 0..WARMUP_ROUNDS {
        offline_round(&model, &jobs, &mut warm, warm_lane);
    }
    let lane = trace.lane("offline rounds".into());
    let (timed, wall_s) = repeat(rounds, |_| {
        // Set-up is the model build alone: no server runs.
        let setup_s =
            time_setup(|| TransformerModel::new(engine_config(), false).expect("valid model"));
        (setup_s, offline_round(&model, &jobs, trace, lane))
    });
    let (setup_s, rounds): (Vec<f64>, Vec<Round>) = timed.into_iter().unzip();

    // Every sequence of a round sees the same first-token time, and each
    // step after the first is one token gap for every sequence.
    let gaps_ms = |r: &Round| -> Vec<f64> {
        r.step_s[1..]
            .iter()
            .flat_map(|&s| std::iter::repeat_n(s * 1e3, r.batch))
            .collect()
    };
    let met: usize = rounds
        .iter()
        .filter(|r| {
            let gaps = &r.step_s[1..];
            CHAT_LIMITS.met(r.ttft_s, Some(gaps.iter().sum::<f64>() / gaps.len() as f64))
        })
        .map(|r| r.batch)
        .sum();
    let sent = rounds.len() * jobs.len();
    let mut m = Measured {
        repetitions: (rounds.len(), wall_s),
        attempted: sent,
        ..Measured::default()
    };
    // Like the live replicas, each metric is computed per round and the
    // run reports the best round.
    let mut per_round = |name: &'static str, f: &dyn Fn(&Round) -> f64, higher: bool| {
        let values: Vec<f64> = rounds.iter().map(f).collect();
        m.notes.push(per_repetition_note(name, "round", &values));
        (name, best(&values, higher))
    };
    let round_metrics = [
        per_round("ttft_p50_ms", &|r| r.ttft_s * 1e3, false),
        per_round("itl_p50_ms", &|r| pct(&gaps_ms(r), 50.0).value, false),
        per_round("peak_tok_s", &Round::tok_s, true),
    ];
    m.e2e.extend(round_metrics);
    let p90: Vec<f64> = rounds
        .iter()
        .map(|r| pct(&gaps_ms(r), 90.0).value)
        .collect();
    m.notes
        .push(per_repetition_note("itl_p90_ms", "round", &p90));
    m.notes
        .push(per_repetition_note("setup_s", "round", &setup_s));
    m.e2e.extend([
        ("slo_attainment", Stat::new(slo_attainment(met, sent), sent)),
        ("setup_s", best(&setup_s, false)),
    ]);

    let same = rounds
        .iter()
        .filter(|r| r.tokens == rounds[0].tokens)
        .count();
    m.checks.push(Check::new(
        "rounds: every round bitwise equal".into(),
        same == rounds.len(),
        format!("{same}/{} rounds equal the first", rounds.len()),
    ));
    let picked: Vec<usize> = (0..jobs.len()).step_by(CHECK_STRIDE).collect();
    let equal = picked
        .iter()
        .filter(|&&k| reference_tokens(&model, &jobs[k..=k], None)[0] == rounds[0].tokens[k])
        .count();
    m.checks.push(Check::new(
        "rounds: sampled streams equal solo runs".into(),
        equal == picked.len(),
        format!("{equal}/{} sequences equal a batch-1 session", picked.len()),
    ));

    if traced {
        layer_metrics(&model, &jobs, &rounds, trace, &mut m);
    }
    m
}

/// Engine metrics of the rounds, plus decode rounds at batch 1 and 4
/// for the batch-scaling curve.
fn layer_metrics(
    model: &TransformerModel,
    jobs: &[Job],
    rounds: &[Round],
    trace: &mut Trace,
    m: &mut Measured,
) {
    let mut decode = |batch: usize| -> Vec<Round> {
        let lane = trace.lane(format!("batch-{batch} decode rounds"));
        (0..SCALING_ROUNDS)
            .map(|_| offline_round(model, &jobs[..batch], trace, lane))
            .collect()
    };
    let b1 = decode(1);
    let b4 = decode(4);
    let decode_tok_s =
        |rs: &[Round]| median(&rs.iter().map(Round::decode_tok_s).collect::<Vec<_>>());
    let steps_ms = |rs: &[Round]| -> Vec<f64> {
        rs.iter()
            .flat_map(|r| r.step_s.iter().map(|s| s * 1e3))
            .collect()
    };
    let admit_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.admit_s.iter().map(|s| s * 1e3))
        .collect();
    let admit_s: f64 = admit_ms.iter().sum::<f64>() / 1e3;
    let busy_s: f64 = admit_s + steps_ms(rounds).iter().sum::<f64>() / 1e3;
    let prompt = jobs[0].prompt.len() as f64;
    let (d1, d16) = (decode_tok_s(&b1), decode_tok_s(rounds));
    let n = rounds.len();
    m.layers.extend([
        ("engine.admit_ms_p50", pct(&admit_ms, 50.0)),
        ("engine.admit_ms_p99", pct(&admit_ms, 99.0)),
        (
            "engine.prefill_tok_s",
            Stat::new(prompt * admit_ms.len() as f64 / admit_s, admit_ms.len()),
        ),
        ("engine.step_ms.b1", median(&steps_ms(&b1))),
        ("engine.step_ms.b2-4", median(&steps_ms(&b4))),
        ("engine.busy_s", Stat::new(busy_s, n)),
        ("engine.prefill_share", Stat::new(admit_s / busy_s, n)),
        (
            "engine.kv_bytes_peak",
            Stat::new(
                rounds.iter().map(|r| r.kv_bytes_peak).max().unwrap_or(0) as f64,
                n,
            ),
        ),
        ("engine.decode_tok_s.b1", d1),
        ("engine.decode_tok_s.b4", decode_tok_s(&b4)),
        ("engine.decode_tok_s.b16", d16),
        (
            "engine.batch_scaling.b16",
            Stat::new(d16.value / d1.value, n),
        ),
        (
            "engine.prefill_tok_s.n128",
            Stat::new(prompt / (median(&admit_ms).value / 1e3), admit_ms.len()),
        ),
    ]);
}
