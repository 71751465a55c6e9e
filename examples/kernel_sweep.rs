//! Kernel sweep + roofline validation for the engine's hot kernels.
//!
//! Measures the dense f32, block-INT8, and block-INT4 GEMV/GEMM kernels
//! and the fused flash-style attention core under whichever backend this
//! binary was compiled with (`kernel_backend()`: "scalar" or
//! "x86_64-sse2" with `--features simd`), then validates every number
//! against a host roofline whose peaks are *calibrated on the spot* — a
//! register-resident FLOP microloop and a streaming-read microloop —
//! rather than assumed. Timings run through the harness trial protocol
//! (`LLMIB_TRIALS` overrides the count; CI smoke uses 3), so every
//! recorded rate carries a nearest-rank confidence interval. Results
//! merge into `BENCH_engine.json` as a `kernels_<backend>` section, so
//! running the example twice (scalar, then `--features simd`) fills the
//! whole sweep and lets the second run compute cross-backend speedups
//! against the scalar f32 GEMV-loop baseline (the PR-1 kernel). Those
//! `speedups_vs_scalar_f32_gemv` ratios are hardware-portable and
//! recorded `gated`: the CI regression gate fails if one significantly
//! drops.
//!
//! Run with `cargo run --release --example kernel_sweep` and again with
//! `--features simd`. Exits nonzero if any kernel falls below the floor
//! fraction of its roofline prediction — this is the CI smoke check.

use llmib_bench::harness::{
    obj_set, run_trials, time_seconds, BenchDocument, ConfidenceInterval, Metric, Section,
    TrialConfig, TrialRun, TrialSet,
};
use llmib_engine::{
    dot_kernel, kernel_backend, matmul_mat, matmul_vec, softmax_in_place, Attention, EngineConfig,
    KvCache, Matrix, OnlineSoftmax, QuantMode, QuantizedLinear,
};
use llmib_models::ModelId;
use llmib_perf::{HostRoofline, KernelBound, KernelShape};
use serde_json::Value;
use std::hint::black_box;

/// Every kernel must attain at least this fraction of its roofline
/// floor. Deliberately loose: the floor catches order-of-magnitude
/// regressions (a GEMM losing its tiling, a quantized dot spilling), not
/// single-digit-percent drift, and must hold on noisy shared CI boxes.
const FLOOR_FRACTION: f64 = 0.02;

const N: usize = 512;
const BATCH: usize = 16;
const BENCH_PATH: &str = "BENCH_engine.json";
const CREATED_BY: &str = "cargo run --release --example kernel_sweep [--features simd]";

fn trial_config() -> TrialConfig {
    let trials = std::env::var("LLMIB_TRIALS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    TrialConfig::new(trials, 1, 0x51)
}

/// Time one execution of `f` per trial under the harness protocol.
fn time_trials(tc: &TrialConfig, mut f: impl FnMut()) -> TrialSet {
    run_trials(tc, |_seed| time_seconds(&mut f))
}

/// Attainable FLOP rate in GFLOP/s: the engine's register-tiled GEMM
/// over a fully cache-resident problem — the best arithmetic rate any
/// of our kernels could sustain on this host with this backend. Using
/// the GEMM (not a bare dot) matters: the 2x2 tile reuses each loaded
/// operand twice, so it sets a strictly higher — and honest — roof.
fn calibrate_gflops(tc: &TrialConfig) -> f64 {
    let w = Matrix::random(64, 64, 3, 0.5);
    let xs = Matrix::random(8, 64, 4, 0.5);
    let iters = 400;
    let s = time_trials(tc, || {
        for _ in 0..iters {
            black_box(matmul_mat(black_box(&w), black_box(&xs)));
        }
    });
    (2.0 * 8.0 * 64.0 * 64.0 * iters as f64) / s.ci95().point / 1e9
}

/// Attainable streaming bandwidth in GB/s: a read-reduce over two
/// distinct buffers far larger than the last-level cache.
fn calibrate_gbps(tc: &TrialConfig) -> f64 {
    let len = 4 << 20; // 2 × 16 MiB of f32
    let a: Vec<f32> = (0..len).map(|i| (i % 17) as f32).collect();
    let b: Vec<f32> = (0..len).map(|i| (i % 13) as f32).collect();
    let s = time_trials(tc, || {
        let mut acc = 0.0f32;
        for (ca, cb) in a.chunks(4096).zip(b.chunks(4096)) {
            acc += dot_kernel(black_box(ca), black_box(cb));
        }
        black_box(acc);
    });
    (2.0 * len as f64 * 4.0) / s.ci95().point / 1e9
}

struct Measured {
    name: &'static str,
    shape: KernelShape,
    set: TrialSet,
}

impl Measured {
    /// Per-trial wall-clock seconds (lower is better).
    fn seconds(&self) -> ConfidenceInterval {
        self.set.ci95()
    }

    /// Per-trial attained GFLOP/s, aligned with the trial order.
    fn gflops_values(&self) -> Vec<f64> {
        self.set
            .values()
            .iter()
            .map(|s| self.shape.flops / s / 1e9)
            .collect()
    }

    fn gflops(&self) -> ConfidenceInterval {
        ConfidenceInterval::from_samples95(&self.gflops_values())
    }
}

fn bench_kernels(tc: &TrialConfig) -> Vec<Measured> {
    let w = Matrix::random(N, N, 11, 0.5);
    let xs = Matrix::random(BATCH, N, 12, 0.8);
    let x: Vec<f32> = xs.row(0).to_vec();
    let q8 = QuantizedLinear::quantize(&w);
    let q4 = QuantizedLinear::quantize_int4(&w);

    let one_gemv = KernelShape::gemv(N, N, 4.0);
    vec![
        Measured {
            name: "gemv_loop_f32",
            shape: KernelShape {
                flops: BATCH as f64 * one_gemv.flops,
                bytes: BATCH as f64 * one_gemv.bytes,
            },
            set: time_trials(tc, || {
                for r in 0..BATCH {
                    black_box(matmul_vec(black_box(&w), black_box(xs.row(r))));
                }
            }),
        },
        Measured {
            name: "gemm_f32",
            shape: KernelShape::gemm(BATCH, N, N, 4.0),
            set: time_trials(tc, || {
                black_box(matmul_mat(black_box(&w), black_box(&xs)));
            }),
        },
        Measured {
            name: "gemv_int8",
            shape: KernelShape::gemv(N, N, 1.125),
            set: time_trials(tc, || {
                black_box(q8.matmul_vec(black_box(&x)));
            }),
        },
        Measured {
            name: "gemm_int8",
            shape: KernelShape::gemm(BATCH, N, N, 1.125),
            set: time_trials(tc, || {
                black_box(q8.matmul_mat(black_box(&xs)));
            }),
        },
        Measured {
            name: "gemm_int4",
            shape: KernelShape::gemm(BATCH, N, N, 0.625),
            set: time_trials(tc, || {
                black_box(q4.matmul_mat(black_box(&xs)));
            }),
        },
    ]
}

/// Fused online-softmax attention vs the two-pass reference over one
/// query and `n` cached positions, `heads` heads of width `d`. Each
/// trial times the pair back to back, so the returned ratio set is a
/// paired fused-vs-two-pass speedup. Returns the fused measurement and
/// the per-trial speedup set.
fn bench_flash(tc: &TrialConfig, heads: usize, d: usize, n: usize) -> (Measured, TrialSet) {
    let keys = Matrix::random(n, heads * d, 31, 0.4);
    let vals = Matrix::random(n, heads * d, 32, 0.4);
    let q: Vec<f32> = (0..heads * d).map(|i| (i as f32 * 0.05).sin()).collect();
    let chunk = 16; // KV block size

    let mut fused_secs = Vec::new();
    let ratios = run_trials(tc, |_seed| {
        let fused = time_seconds(|| {
            let mut out = vec![0.0f32; heads * d];
            let mut scores = Vec::with_capacity(chunk);
            for h in 0..heads {
                let qh = &q[h * d..(h + 1) * d];
                let oh = &mut out[h * d..(h + 1) * d];
                let mut os = OnlineSoftmax::new();
                let mut pos = 0;
                while pos < n {
                    let end = (pos + chunk).min(n);
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
            black_box(out);
        });
        let two_pass = time_seconds(|| {
            let mut out = vec![0.0f32; heads * d];
            let mut scores = vec![0.0f32; n];
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
            black_box(out);
        });
        fused_secs.push(fused);
        two_pass / fused
    });
    let fused_secs = fused_secs.split_off(fused_secs.len() - tc.trials);
    let fused = Measured {
        name: "flash_attention",
        shape: KernelShape::flash_attention(heads, heads, d, n),
        set: TrialSet {
            runs: ratios
                .runs
                .iter()
                .zip(&fused_secs)
                .map(|(r, &s)| TrialRun {
                    seed: r.seed,
                    value: s,
                    steady_start: None,
                })
                .collect(),
            warmup_discarded: ratios.warmup_discarded,
            never_settled: 0,
        },
    };
    (fused, ratios)
}

/// Cached positions and query rows of the attention-layer comparison:
/// the repository benchmark's warm prefix-hit admission (a 64-token
/// question after a 1024-token cached document).
const LAYER_CONTEXT: usize = 1024;
const LAYER_ROWS: usize = 64;

/// One attention layer of the benchmark model (GQA, 4 query heads of
/// width 16 over 1 KV head): a `LAYER_ROWS`-row [`Attention::prefill`],
/// whose core scores each cached KV block once per tile of query rows,
/// against `LAYER_ROWS` token-at-a-time [`Attention::forward`] calls,
/// which score it once per row. Each trial times the pair back to back
/// on clones of one `LAYER_CONTEXT`-position cache; returns the per-trial
/// rowwise-over-prefill ratios.
fn bench_prefill_attention(tc: &TrialConfig) -> TrialSet {
    let cfg = EngineConfig {
        max_seq: LAYER_CONTEXT + LAYER_ROWS,
        ..EngineConfig::scaled_from(ModelId::Llama3_8b, 64, 7)
    };
    let attn = Attention::new(&cfg, 7, QuantMode::F32);
    let mut cached = KvCache::new(1, cfg.kv_dim(), cfg.max_seq);
    attn.prefill(
        &Matrix::random(LAYER_CONTEXT, cfg.hidden, 41, 0.5),
        0,
        &mut cached,
    );
    let xs = Matrix::random(LAYER_ROWS, cfg.hidden, 42, 0.5);
    run_trials(tc, |_seed| {
        let mut cache = cached.clone();
        let rowwise = time_seconds(|| {
            for i in 0..LAYER_ROWS {
                black_box(attn.forward(xs.row(i), LAYER_CONTEXT + i, 0, &mut cache));
            }
        });
        let mut cache = cached.clone();
        let tiled = time_seconds(|| {
            black_box(attn.prefill(&xs, 0, &mut cache));
        });
        rowwise / tiled
    })
}

fn main() {
    let backend = kernel_backend();
    let tc = trial_config();
    println!("kernel backend: {backend} ({} trials)", tc.trials);

    let host = HostRoofline::new(calibrate_gflops(&tc), calibrate_gbps(&tc));
    println!(
        "calibrated peaks: {:.2} GFLOP/s, {:.2} GB/s (ridge {:.2} ops/byte)",
        host.peak_gflops,
        host.peak_gbps,
        host.ridge_intensity()
    );

    let mut measured = bench_kernels(&tc);
    let (flash, flash_ratios) = bench_flash(&tc, 8, 64, 1024);
    let flash_speedup = flash_ratios.ci95();
    measured.push(flash);
    let prefill_attention = bench_prefill_attention(&tc).ci95();

    // --- Roofline validation (the CI smoke assertion) ---
    let mut kernel_rows = Value::Object(Vec::new());
    let mut failures = Vec::new();
    for m in &measured {
        let secs = m.seconds();
        let gflops = m.gflops();
        let predicted = host.predict_seconds(&m.shape);
        let fraction = host.attained_fraction(&m.shape, secs.point);
        let bound = match host.bound(&m.shape) {
            KernelBound::Compute => "compute",
            KernelBound::Memory => "memory",
        };
        println!(
            "{:<16} {:>8.2} GFLOP/s [{:.2}, {:.2}]  measured {:>10.3e}s  floor {:>10.3e}s  \
             attained {:>5.1}%  ({bound}-bound)",
            m.name,
            gflops.point,
            gflops.lo,
            gflops.hi,
            secs.point,
            predicted,
            fraction * 100.0
        );
        if fraction < FLOOR_FRACTION {
            failures.push(format!(
                "{}: attained {:.3} of roofline floor (< {FLOOR_FRACTION})",
                m.name, fraction
            ));
        }
        let mut row = Value::Object(vec![
            (
                "gflops".into(),
                Metric::higher("GFLOP/s", gflops).to_value(),
            ),
            ("measured_s".into(), Metric::lower("s", secs).to_value()),
            ("predicted_floor_s".into(), Value::Float(predicted)),
            ("attained_fraction".into(), Value::Float(fraction)),
            ("bound".into(), Value::Str(bound.into())),
        ]);
        obj_set(
            &mut row,
            "roofline_floor_met",
            Value::Bool(fraction >= FLOOR_FRACTION),
        );
        obj_set(&mut kernel_rows, m.name, row);
    }

    // --- Cross-backend speedups against the PR-1 baseline kernel: the
    // *scalar* f32 GEMV loop. The scalar run must happen first for the
    // simd run to pick its baseline up from the `kernels_scalar`
    // section; otherwise each backend falls back to its own gemv loop.
    let mut doc = BenchDocument::load_or_new(BENCH_PATH);
    let gemv = &measured[0];
    assert_eq!(gemv.name, "gemv_loop_f32");
    let own_gemv_vals = gemv.gflops_values();
    let scalar_gemv_point = if backend == "scalar" {
        None // pair against this run's own per-trial gemv rates
    } else {
        doc.section("kernels_scalar")
            .and_then(|s| s.get("kernels"))
            .and_then(|k| k.get("gemv_loop_f32"))
            .and_then(|g| g.get("gflops"))
            .and_then(|g| g.get("point"))
            .and_then(Value::as_f64)
    };
    let mut speedups = Value::Object(Vec::new());
    for m in &measured {
        if !["gemm_f32", "gemv_int8", "gemm_int8", "gemm_int4"].contains(&m.name) {
            continue;
        }
        let ratios: Vec<f64> = m
            .gflops_values()
            .iter()
            .enumerate()
            .map(|(i, g)| g / scalar_gemv_point.unwrap_or(own_gemv_vals[i]))
            .collect();
        obj_set(
            &mut speedups,
            m.name,
            Metric::higher("ratio", ConfidenceInterval::from_samples95(&ratios))
                .gated()
                .to_value(),
        );
    }

    // --- Merge into BENCH_engine.json under kernels_<backend> ---
    doc.merge_section(
        Section::new(
            &format!("kernels_{backend}"),
            CREATED_BY,
            &format!(
                "w {N}x{N} (f32 / int8-block / int4-block, group 32), batch {BATCH}; \
                 flash 8 heads x 64 over 1024 kv; attention layer {LAYER_ROWS} rows \
                 after {LAYER_CONTEXT} cached (GQA 4x16 over 1 kv head)"
            ),
        )
        .with_trials(&tc, &measured[0].set)
        .field(
            "roofline_peaks",
            Value::Object(vec![
                ("peak_gflops".into(), Value::Float(host.peak_gflops)),
                ("peak_gbps".into(), Value::Float(host.peak_gbps)),
            ]),
        )
        .field("kernels", kernel_rows)
        .metric(
            "flash_vs_two_pass_speedup",
            &Metric::higher("ratio", flash_speedup),
        )
        .metric(
            "prefill_attention_vs_rowwise_c1024",
            &Metric::higher("ratio", prefill_attention),
        )
        .field(
            "speedup_baseline",
            Value::Str(match scalar_gemv_point {
                Some(p) => format!("kernels_scalar gemv_loop_f32 @ {p:.2} GFLOP/s"),
                None => "own gemv_loop_f32 (paired per trial)".into(),
            }),
        )
        .field("speedups_vs_scalar_f32_gemv", speedups.clone()),
    );
    doc.write(BENCH_PATH).expect("write BENCH_engine.json");

    println!(
        "flash fused vs two-pass: {:.2}x [{:.2}, {:.2}]",
        flash_speedup.point, flash_speedup.lo, flash_speedup.hi
    );
    println!(
        "attention prefill ({LAYER_ROWS} rows) vs rowwise forward at {LAYER_CONTEXT} cached: \
         {:.2}x [{:.2}, {:.2}]",
        prefill_attention.point, prefill_attention.lo, prefill_attention.hi
    );
    if let Value::Object(fields) = &speedups {
        for (k, v) in fields {
            if let Some(p) = v.get("point").and_then(Value::as_f64) {
                println!("speedup vs scalar f32 gemv loop: {backend}/{k} = {p:.2}x");
            }
        }
    }

    if !failures.is_empty() {
        eprintln!("ROOFLINE SMOKE FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("roofline smoke passed: all kernels within {FLOOR_FRACTION} of the floor");
}
