//! Microbenchmarks of the executable substrates: engine kernels, the
//! paged/monolithic KV allocators, and the serving simulator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use llmib_engine::{
    dot_kernel, generate, kernel_backend, matmul_mat, matmul_vec, softmax_in_place, BatchSession,
    EngineConfig, GenerateOptions, Matrix, OnlineSoftmax, QuantizedLinear, Sampler,
    TransformerModel,
};
use llmib_frameworks::FrameworkId;
use llmib_hardware::HardwareId;
use llmib_models::ModelId;
use llmib_perf::{HostRoofline, KernelShape, PerfModel, Scenario};
use llmib_sched::{
    ArrivalPattern, BatchingPolicy, KvAllocator, MonolithicAllocator, PagedAllocator,
    ServingSimulator, SimConfig,
};
use llmib_types::TokenShape;
use std::hint::black_box;
use std::time::Duration;

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_matmul");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    // n=32 and n=64 sit below the serial-execution threshold (rows·cols
    // < 64k skips rayon dispatch); n=256 and n=512 sit above it.
    for n in [32usize, 64, 256, 512] {
        let w = Matrix::random(n, n, 1, 0.1);
        let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.01).sin()).collect();
        group.bench_with_input(BenchmarkId::new("f32", n), &n, |b, _| {
            b.iter(|| black_box(matmul_vec(black_box(&w), black_box(&x))))
        });
        let q = QuantizedLinear::quantize(&w);
        group.bench_with_input(BenchmarkId::new("int8", n), &n, |b, _| {
            b.iter(|| black_box(q.matmul_vec(black_box(&x))))
        });
        // Blocked 2×2-tiled GEMM over a 16-row batch vs 16 GEMV calls.
        let xs = Matrix::random(16, n, 2, 0.1);
        group.bench_with_input(BenchmarkId::new("gemm_16rows", n), &n, |b, _| {
            b.iter(|| black_box(matmul_mat(black_box(&w), black_box(&xs))))
        });
        group.bench_with_input(BenchmarkId::new("gemv_loop_16rows", n), &n, |b, _| {
            b.iter(|| {
                for r in 0..xs.rows() {
                    black_box(matmul_vec(black_box(&w), black_box(xs.row(r))));
                }
            })
        });
        // Int8 GEMM over the same 16-row batch: quantizes activations
        // once per row, then integer dot products (rayon-parallel above
        // the same rows·cols threshold as the f32 path).
        group.bench_with_input(BenchmarkId::new("int8_gemm_16rows", n), &n, |b, _| {
            b.iter(|| black_box(q.matmul_mat(black_box(&xs))))
        });
        // Int4 halves weight traffic again at the cost of nibble unpack.
        let q4 = QuantizedLinear::quantize_int4(&w);
        group.bench_with_input(BenchmarkId::new("int4", n), &n, |b, _| {
            b.iter(|| black_box(q4.matmul_vec(black_box(&x))))
        });
        group.bench_with_input(BenchmarkId::new("int4_gemm_16rows", n), &n, |b, _| {
            b.iter(|| black_box(q4.matmul_mat(black_box(&xs))))
        });
    }
    group.finish();
}

fn bench_flash_attention(c: &mut Criterion) {
    // The fused flash-style attention core vs the two-pass reference:
    // one query, 8 heads × 64, over a growing KV span. The fused path
    // folds 16-position chunks through the online softmax and never
    // materializes the full score row.
    let (heads, d) = (8usize, 64usize);
    let mut group = c.benchmark_group("engine_flash_attention");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    for kv in [256usize, 1024] {
        let keys = Matrix::random(kv, heads * d, 31, 0.4);
        let vals = Matrix::random(kv, heads * d, 32, 0.4);
        let q: Vec<f32> = (0..heads * d).map(|i| (i as f32 * 0.05).sin()).collect();
        group.bench_with_input(BenchmarkId::new("fused_online", kv), &kv, |b, _| {
            b.iter(|| {
                let mut out = vec![0.0f32; heads * d];
                let mut scores = Vec::with_capacity(16);
                for h in 0..heads {
                    let qh = &q[h * d..(h + 1) * d];
                    let oh = &mut out[h * d..(h + 1) * d];
                    let mut os = OnlineSoftmax::new();
                    let mut pos = 0;
                    while pos < kv {
                        let end = (pos + 16).min(kv);
                        scores.clear();
                        scores.extend(
                            (pos..end).map(|p| dot_kernel(qh, &keys.row(p)[h * d..(h + 1) * d])),
                        );
                        os.fold(
                            &mut scores,
                            oh,
                            &vals.data()[pos * heads * d + h * d..],
                            heads * d,
                        );
                        pos = end;
                    }
                    os.finish(oh);
                }
                black_box(out)
            })
        });
        group.bench_with_input(BenchmarkId::new("two_pass", kv), &kv, |b, _| {
            b.iter(|| {
                let mut out = vec![0.0f32; heads * d];
                let mut scores = vec![0.0f32; kv];
                for h in 0..heads {
                    let qh = &q[h * d..(h + 1) * d];
                    for (p, s) in scores.iter_mut().enumerate() {
                        *s = dot_kernel(qh, &keys.row(p)[h * d..(h + 1) * d]);
                    }
                    softmax_in_place(&mut scores);
                    let oh = &mut out[h * d..(h + 1) * d];
                    for (p, &wt) in scores.iter().enumerate() {
                        for (o, v) in oh.iter_mut().zip(&vals.row(p)[h * d..(h + 1) * d]) {
                            *o += wt * v;
                        }
                    }
                }
                black_box(out)
            })
        });
    }
    group.finish();
}

fn bench_roofline(c: &mut Criterion) {
    // Roofline section: calibrate the host peaks through the engine's
    // own kernels, then report each hot kernel's attained fraction of
    // its roofline floor alongside the timing. The standalone smoke
    // check (with a pass/fail floor) lives in examples/kernel_sweep.rs;
    // this group exists so `cargo bench` output carries the same
    // context without leaving criterion.
    let n = 512usize;
    let batch = 16usize;
    let w = Matrix::random(n, n, 11, 0.5);
    let xs = Matrix::random(batch, n, 12, 0.8);
    let q8 = QuantizedLinear::quantize(&w);

    // Quick inline calibration (medians of 5 short runs).
    let time_of = |f: &mut dyn FnMut()| {
        let mut samples: Vec<f64> = (0..5)
            .map(|_| {
                let t = std::time::Instant::now();
                f();
                t.elapsed().as_secs_f64()
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        samples[2]
    };
    let cw = Matrix::random(64, 64, 3, 0.5);
    let cx = Matrix::random(8, 64, 4, 0.5);
    let flop_s = time_of(&mut || {
        for _ in 0..200 {
            black_box(matmul_mat(black_box(&cw), black_box(&cx)));
        }
    });
    let peak_gflops = (2.0 * 8.0 * 64.0 * 64.0 * 200.0) / flop_s / 1e9;
    let len = 4 << 20;
    let sa: Vec<f32> = (0..len).map(|i| (i % 17) as f32).collect();
    let sb: Vec<f32> = (0..len).map(|i| (i % 13) as f32).collect();
    let bw_s = time_of(&mut || {
        let mut acc = 0.0f32;
        for (ca, cb) in sa.chunks(4096).zip(sb.chunks(4096)) {
            acc += dot_kernel(black_box(ca), black_box(cb));
        }
        black_box(acc);
    });
    let peak_gbps = (2.0 * len as f64 * 4.0) / bw_s / 1e9;
    let host = HostRoofline::new(peak_gflops, peak_gbps);
    println!(
        "roofline [{}]: calibrated {:.2} GFLOP/s, {:.2} GB/s (ridge {:.2} ops/byte)",
        kernel_backend(),
        host.peak_gflops,
        host.peak_gbps,
        host.ridge_intensity()
    );

    let mut group = c.benchmark_group("engine_roofline");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    let shapes = [
        ("gemm_f32", KernelShape::gemm(batch, n, n, 4.0)),
        ("gemm_int8", KernelShape::gemm(batch, n, n, 1.125)),
    ];
    for (name, shape) in shapes {
        println!(
            "roofline [{}]: {name} floor {:.3e}s ({:?}-bound, intensity {:.2} ops/byte)",
            kernel_backend(),
            host.predict_seconds(&shape),
            host.bound(&shape),
            shape.intensity()
        );
    }
    group.bench_function(BenchmarkId::new("gemm_f32_vs_floor", n), |b| {
        b.iter(|| black_box(matmul_mat(black_box(&w), black_box(&xs))))
    });
    group.bench_function(BenchmarkId::new("gemm_int8_vs_floor", n), |b| {
        b.iter(|| black_box(q8.matmul_mat(black_box(&xs))))
    });
    group.finish();
}

fn bench_prefill(c: &mut Criterion) {
    // Whole-prompt prefill: one batched GEMM pass per weight matrix vs
    // the token-at-a-time GEMV loop (the paper's Fig. 1a prefill/decode
    // asymmetry, executed for real at tiny scale).
    let cfg = EngineConfig {
        max_seq: 160,
        ..EngineConfig::tiny()
    };
    let model = TransformerModel::new(cfg.clone(), false).unwrap();
    let prompt: Vec<usize> = (0..128).map(|i| (i * 7 + 3) % cfg.vocab).collect();
    let mut group = c.benchmark_group("engine_prefill");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    group.bench_function("gemm_128tok", |b| {
        b.iter(|| {
            let mut cache = model.new_cache();
            black_box(model.prefill(black_box(&prompt), &mut cache))
        })
    });
    group.bench_function("gemv_loop_128tok", |b| {
        b.iter(|| {
            let mut cache = model.new_cache();
            black_box(model.prefill_unbatched(black_box(&prompt), &mut cache))
        })
    });
    group.finish();
}

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_generation");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for (name, cfg) in [
        ("mhsa", EngineConfig::tiny()),
        ("gqa", EngineConfig::tiny_gqa()),
        ("moe", EngineConfig::tiny_moe()),
    ] {
        let model = TransformerModel::new(cfg, false).unwrap();
        group.bench_function(BenchmarkId::new("decode32", name), |b| {
            b.iter(|| {
                let r = generate(
                    &model,
                    black_box(&[1usize, 2, 3, 4]),
                    GenerateOptions {
                        max_new_tokens: 32,
                        use_kv_cache: true,
                        sampler: Sampler::Greedy,
                    },
                );
                black_box(r.tokens.len())
            })
        });
    }
    // The Fig. 2a mechanism, measured for real: cached vs uncached decode.
    let model = TransformerModel::new(EngineConfig::tiny(), false).unwrap();
    for (name, kv) in [("with_kv_cache", true), ("without_kv_cache", false)] {
        group.bench_function(BenchmarkId::new("kv_ablation", name), |b| {
            b.iter(|| {
                let r = generate(
                    &model,
                    black_box(&[1usize, 2, 3, 4]),
                    GenerateOptions {
                        max_new_tokens: 24,
                        use_kv_cache: kv,
                        sampler: Sampler::Greedy,
                    },
                );
                black_box(r.forward_passes)
            })
        });
    }
    group.finish();
}

fn bench_batched_session(c: &mut Criterion) {
    let model = TransformerModel::new(EngineConfig::tiny(), false).unwrap();
    let mut group = c.benchmark_group("engine_batching");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    // 8 sequences decoded sequentially vs through the rayon-parallel
    // continuous-batching session.
    group.bench_function("sequential_8seqs_x16", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for i in 0..8u64 {
                let r = generate(
                    &model,
                    black_box(&[1usize, 2 + i as usize % 8]),
                    GenerateOptions {
                        max_new_tokens: 16,
                        use_kv_cache: true,
                        sampler: Sampler::Greedy,
                    },
                );
                total += r.tokens.len();
            }
            black_box(total)
        })
    });
    group.bench_function("batched_8seqs_x16", |b| {
        b.iter(|| {
            let mut session = BatchSession::new(&model);
            for i in 0..8u64 {
                session
                    .admit(i, &[1usize, 2 + i as usize % 8], 16, Sampler::Greedy)
                    .unwrap();
            }
            let out = session.run_to_completion();
            black_box(out.iter().map(|(_, t)| t.len()).sum::<usize>())
        })
    });
    // Batch-size sweep: one batched forward per step means the aggregate
    // cost per step grows sublinearly in batch size (Fig. 1b).
    for batch in [1usize, 4, 16] {
        group.bench_with_input(
            BenchmarkId::new("decode_sweep_x16", batch),
            &batch,
            |b, &batch| {
                b.iter(|| {
                    let mut session = BatchSession::new(&model);
                    for i in 0..batch as u64 {
                        session
                            .admit(i, &[1usize, 2 + i as usize % 8], 16, Sampler::Greedy)
                            .unwrap();
                    }
                    let out = session.run_to_completion();
                    black_box(out.iter().map(|(_, t)| t.len()).sum::<usize>())
                })
            },
        );
    }
    group.finish();
}

fn bench_allocators(c: &mut Criterion) {
    let mut group = c.benchmark_group("kv_allocators");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    group.bench_function("paged_admit_grow_release_64seqs", |b| {
        b.iter(|| {
            let mut a = PagedAllocator::new(1 << 20, 16);
            for id in 0..64u64 {
                a.admit(id, 2048).unwrap();
                a.append(id, 512).unwrap();
            }
            for id in 0..64u64 {
                a.append(id, 512).unwrap();
            }
            for id in 0..64u64 {
                a.release(id);
            }
            black_box(a.stats().free_tokens)
        })
    });
    group.bench_function("monolithic_admit_release_64seqs", |b| {
        b.iter(|| {
            let mut a = MonolithicAllocator::new(1 << 20);
            for id in 0..64u64 {
                a.admit(id, 2048).unwrap();
                a.append(id, 1024).unwrap();
            }
            for id in (0..64u64).step_by(2) {
                a.release(id);
            }
            for id in 64..96u64 {
                let _ = a.admit(id, 2048);
            }
            black_box(a.stats().external_fragmentation())
        })
    });
    group.finish();
}

fn bench_simulator(c: &mut Criterion) {
    let perf = PerfModel::default_calibration();
    let s = Scenario::simple(
        ModelId::Llama3_8b,
        HardwareId::A100,
        FrameworkId::Vllm,
        TokenShape::square(128, 8),
    );
    let resolved = perf.resolve_scenario(&s).unwrap();
    let mut group = c.benchmark_group("serving_simulator");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for policy in [BatchingPolicy::Continuous, BatchingPolicy::Static] {
        let name = match policy {
            BatchingPolicy::Continuous => "continuous",
            BatchingPolicy::Static => "static",
        };
        group.bench_function(BenchmarkId::new("poisson_48_requests", name), |b| {
            b.iter(|| {
                let sim = ServingSimulator::new(SimConfig {
                    policy,
                    max_concurrency: 16,
                    kv_capacity_tokens: 1 << 18,
                    kv_block_tokens: Some(16),
                });
                let reqs = ArrivalPattern::Poisson {
                    rate_per_s: 60.0,
                    seed: 7,
                }
                .generate(48, 128, 64);
                black_box(sim.run(reqs, &resolved).throughput_tokens_per_s)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_matmul,
    bench_flash_attention,
    bench_roofline,
    bench_prefill,
    bench_generation,
    bench_batched_session,
    bench_allocators,
    bench_simulator
);
criterion_main!(benches);
