//! Benchmark harness for LLM-Inference-Bench.
//!
//! [`harness`] is the library subsystem that every `BENCH_*.json`
//! writer in `examples/` drives: repeated seeded trials with warmup
//! trimming, steady-state detection over per-step series, nearest-rank
//! percentile confidence intervals, goodput-under-SLO bisection, a
//! versioned schema writer, and a CI regression gate that only fails on
//! statistically significant slowdowns.

pub mod harness;
