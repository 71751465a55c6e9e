//! Overload robustness: the runtime sheds load with explicit rejection
//! events — bounded-queue refusal at the door, deadline shedding while
//! queued, oversized refusal on arrival — and never panics; shutdown
//! drains everything already accepted.

use llmib_engine::{EngineConfig, TransformerModel};
use llmib_serve::{RejectReason, RequestOutcome, ServeConfig, Server, SubmitError, SubmitOptions};
use llmib_types::{FaultEvent, FaultKind, FaultPlan, Seconds};
use std::sync::Arc;
use std::time::Duration;

fn tiny_model() -> Arc<TransformerModel> {
    Arc::new(TransformerModel::new(EngineConfig::tiny(), false).expect("valid config"))
}

#[test]
fn full_ingress_rejects_at_the_door_and_never_panics() {
    let model = tiny_model();
    let server = Server::start(
        Arc::clone(&model),
        ServeConfig {
            max_concurrency: 2,
            queue_capacity: 2,
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let client = server.client();

    // Burst far past what the server can buffer: 2 running + 2 waiting
    // + 2 in the channel (+ a little intake churn) << 32 submissions.
    let mut accepted = Vec::new();
    let mut queue_full = 0u32;
    for i in 0..32u64 {
        let prompt = vec![(i as usize * 5 + 1) % 128; 8];
        match client.submit(prompt, SubmitOptions::greedy(64)) {
            Ok(handle) => accepted.push(handle),
            Err(SubmitError::QueueFull) => queue_full += 1,
            Err(other) => panic!("unexpected submit error: {other:?}"),
        }
    }
    assert!(queue_full > 0, "a bounded queue must push back under burst");
    assert!(!accepted.is_empty(), "some requests must get through");

    // Every accepted request still runs to completion.
    let accepted_count = accepted.len() as u32;
    for handle in accepted {
        match handle.wait() {
            RequestOutcome::Completed { tokens, .. } => assert_eq!(tokens.len(), 64),
            other => panic!("accepted request did not complete: {other:?}"),
        }
    }
    let report = server.shutdown();
    assert_eq!(report.completed, accepted_count);
    assert_eq!(report.shed_deadline, 0);
    assert_eq!(report.rejected_oversized, 0);
}

#[test]
fn expired_deadlines_are_shed_with_explicit_events() {
    let model = tiny_model();
    // The blocker's first decode step stalls for 100 ms (below the
    // 250 ms watchdog default), so it holds the only slot for longer
    // than decoding alone would on any host, however fast.
    let stall = FaultPlan::new(vec![FaultEvent {
        at_step: 0,
        kind: FaultKind::StepStall {
            extra: Seconds(0.1),
        },
    }]);
    let server = Server::start(
        Arc::clone(&model),
        ServeConfig {
            max_concurrency: 1,
            queue_capacity: 16,
            fault_plan: stall,
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let client = server.client();

    // A long request occupies the only slot...
    let blocker = client
        .submit(vec![1, 2, 3, 4], SubmitOptions::greedy(120))
        .expect("blocker accepted");
    // ...wait until it is actually admitted, so everything submitted
    // after it must queue behind it.
    loop {
        match blocker.next_event().expect("blocker stream open") {
            llmib_serve::ServeEvent::Admitted { .. } => break,
            llmib_serve::ServeEvent::Rejected { reason, .. } => {
                panic!("blocker rejected: {reason:?}")
            }
            _ => {}
        }
    }

    // Five requests whose deadline expires ~immediately while queued.
    let doomed: Vec<_> = (0..5)
        .map(|_| {
            client
                .submit(
                    vec![9, 9, 9],
                    SubmitOptions {
                        deadline: Some(Duration::from_millis(1)),
                        ..SubmitOptions::greedy(8)
                    },
                )
                .expect("queued behind the blocker")
        })
        .collect();
    for handle in doomed {
        match handle.wait() {
            RequestOutcome::Rejected {
                reason: RejectReason::DeadlineExpired,
            } => {}
            other => panic!("expected deadline shed, got {other:?}"),
        }
    }

    let report = server.shutdown();
    assert_eq!(report.shed_deadline, 5);
    assert_eq!(report.completed, 1, "the blocker itself completes");
}

#[test]
fn oversized_requests_are_rejected_on_arrival() {
    let model = tiny_model(); // max_seq = 128
    let server = Server::start(
        Arc::clone(&model),
        ServeConfig {
            kv_capacity_tokens: 64,
            kv_block_tokens: Some(16),
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let client = server.client();

    // Fits the model context but can never fit the 64-token KV pool.
    let too_big_for_pool = client
        .submit(vec![1; 16], SubmitOptions::greedy(112))
        .expect("submission itself succeeds");
    // Exceeds the model's maximum sequence length outright.
    let too_big_for_model = client
        .submit(vec![2; 64], SubmitOptions::greedy(128))
        .expect("submission itself succeeds");
    // A reasonable request is unaffected by its oversized neighbors.
    let fine = client
        .submit(vec![3; 8], SubmitOptions::greedy(8))
        .expect("submission itself succeeds");

    for handle in [too_big_for_pool, too_big_for_model] {
        match handle.wait() {
            RequestOutcome::Rejected {
                reason: RejectReason::Oversized,
            } => {}
            other => panic!("expected oversized rejection, got {other:?}"),
        }
    }
    assert_eq!(fine.wait().tokens().map(<[usize]>::len), Some(8));

    let report = server.shutdown();
    assert_eq!(report.rejected_oversized, 2);
    assert_eq!(report.completed, 1);
}

#[test]
fn shutdown_drains_queued_and_running_requests() {
    let model = tiny_model();
    let server = Server::start(Arc::clone(&model), ServeConfig::default()).expect("server starts");
    let client = server.client();

    let handles: Vec<_> = (0..6u64)
        .map(|i| {
            client
                .submit(vec![(i as usize) + 1; 4], SubmitOptions::greedy(16))
                .expect("accepted")
        })
        .collect();
    // Immediate shutdown: everything already accepted must still finish.
    let report = server.shutdown();
    assert_eq!(report.completed, 6);
    for handle in handles {
        match handle.wait() {
            RequestOutcome::Completed { tokens, .. } => assert_eq!(tokens.len(), 16),
            other => panic!("dropped on drain: {other:?}"),
        }
    }

    // And submitting after shutdown fails cleanly.
    match client.submit(vec![1], SubmitOptions::greedy(1)) {
        Err(SubmitError::ShuttingDown) => {}
        Err(other) => panic!("unexpected error: {other:?}"),
        Ok(_) => panic!("submission accepted after shutdown"),
    }
}

#[test]
fn queued_request_cancels_before_admission() {
    let model = tiny_model();
    let server = Server::start(
        Arc::clone(&model),
        ServeConfig {
            max_concurrency: 1,
            queue_capacity: 16,
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let client = server.client();

    // Occupy the only slot so the victim is stuck in the queue.
    let blocker = client
        .submit(vec![1, 2, 3, 4], SubmitOptions::greedy(120))
        .expect("blocker accepted");
    loop {
        match blocker.next_event().expect("blocker stream open") {
            llmib_serve::ServeEvent::Admitted { .. } => break,
            llmib_serve::ServeEvent::Rejected { reason, .. } => {
                panic!("blocker rejected: {reason:?}")
            }
            _ => {}
        }
    }

    let victim = client
        .submit(vec![5, 6, 7], SubmitOptions::greedy(8))
        .expect("queued behind the blocker");
    victim.cancel();
    match victim.wait() {
        RequestOutcome::Cancelled { tokens } => {
            assert!(tokens.is_empty(), "never admitted, never decoded")
        }
        other => panic!("expected cancellation, got {other:?}"),
    }

    let report = server.shutdown();
    assert_eq!(report.robustness.cancelled, 1);
    assert_eq!(report.completed, 1, "the blocker itself completes");
    assert!(
        report.reconciles(),
        "every submission got one terminal answer"
    );
}

#[test]
fn mid_decode_cancellation_evicts_and_keeps_the_prefix() {
    let model = tiny_model();
    let server = Server::start(
        Arc::clone(&model),
        ServeConfig {
            max_concurrency: 2,
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let client = server.client();

    // A neighbor that must be completely unaffected by the cancellation.
    let neighbor = client
        .submit(vec![11, 12, 13], SubmitOptions::greedy(48))
        .expect("accepted");
    let victim = client
        .submit(vec![21, 22, 23], SubmitOptions::greedy(100))
        .expect("accepted");

    // Let the victim actually decode a few tokens before cancelling.
    let mut victim_prefix = Vec::new();
    loop {
        match victim.next_event().expect("victim stream open") {
            llmib_serve::ServeEvent::Token { token, .. } => {
                victim_prefix.push(token);
                if victim_prefix.len() >= 5 {
                    break;
                }
            }
            llmib_serve::ServeEvent::Rejected { reason, .. } => {
                panic!("victim rejected: {reason:?}")
            }
            _ => {}
        }
    }
    victim.cancel();
    match victim.wait() {
        RequestOutcome::Cancelled { tokens } => {
            assert!(
                tokens.len() < 100,
                "cancellation cut the stream short (got {})",
                tokens.len()
            );
        }
        other => panic!("expected cancellation, got {other:?}"),
    }

    // The neighbor's stream is untouched by its batch-mate's eviction.
    match neighbor.wait() {
        RequestOutcome::Completed { tokens, .. } => assert_eq!(tokens.len(), 48),
        other => panic!("neighbor should complete: {other:?}"),
    }

    let report = server.shutdown();
    assert_eq!(report.robustness.cancelled, 1);
    assert!(report.robustness.evictions >= 1, "mid-decode cancel evicts");
    assert_eq!(report.completed, 1);
    assert!(report.reconciles());
}

#[test]
fn cancelling_a_finished_request_is_a_noop() {
    let model = tiny_model();
    let server = Server::start(Arc::clone(&model), ServeConfig::default()).expect("server starts");
    let client = server.client();

    let handle = client
        .submit(vec![1, 2, 3], SubmitOptions::greedy(4))
        .expect("accepted");
    // Drain to Finished first, then cancel through a second handle's
    // control path (the handle itself was consumed by wait()).
    let id = handle.id;
    match handle.wait() {
        RequestOutcome::Completed { tokens, .. } => assert_eq!(tokens.len(), 4),
        other => panic!("expected completion, got {other:?}"),
    }
    // A late cancel for an already-finished id must not corrupt counters
    // or wedge the scheduler.
    let late = client
        .submit(vec![4, 5, 6], SubmitOptions::greedy(4))
        .expect("accepted");
    assert!(late.id > id);
    late.cancel();
    // Whatever the race outcome (cancelled or already finished), the
    // stream resolves and the books balance.
    let _ = late.wait();
    let report = server.shutdown();
    assert!(report.reconciles());
}
