//! Minimal dense linear algebra: row-major matrices and the handful of
//! kernels a decoder-only transformer needs.
//!
//! **Kernel dispatch.** Each hot kernel here is one function with no
//! build option, environment variable or configuration field: on
//! x86_64 it calls the safe entry point in `simd`, which runs the AVX2
//! form when CPUID reports AVX2 and the SSE2 form (SSE2 is baseline)
//! otherwise; on other targets it runs the portable scalar loop. The
//! dot products (`dot_kernel`, the GEMM tiles `dot4x4`/`dot4x2`/`dot2x2`,
//! the attention scores `score4`/`score1`), the exponential
//! (`exp_in_place` over [`exp_f32`]) and the SwiGLU activation
//! (`silu_mul_in_place`) all perform the same IEEE operations in the
//! same order on every form — no FMA, no libm — so every target and
//! every CPU produces bitwise-identical model output, and `simd`'s tests
//! assert it against the scalar references for each backend the host
//! runs. [`kernel_backend`] names the backend in use.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Row-major dense `rows × cols` matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix from existing row-major data.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Self { rows, cols, data }
    }

    /// Seeded uniform random weights in ±`scale` (Xavier-ish when
    /// `scale = (6/(rows+cols)).sqrt()`).
    pub fn random(rows: usize, cols: usize, seed: u64, scale: f32) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-scale..=scale))
            .collect();
        Self { rows, cols, data }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow one row.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow one row.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Raw data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Apply `f` to every tile of up to `tile_rows` consecutive rows as
    /// `(first_row, tile_data)`, across rayon threads when `parallel`
    /// (tiles are disjoint, so parallel and serial execution write
    /// identical bytes). Used by the prefill attention sweep, where each
    /// tile is an independent run of the attention core.
    pub(crate) fn for_each_tile_mut<F>(&mut self, tile_rows: usize, parallel: bool, f: F)
    where
        F: Fn(usize, &mut [f32]) + Send + Sync,
    {
        let span = tile_rows * self.cols;
        if parallel {
            self.data
                .par_chunks_mut(span)
                .enumerate()
                .for_each(|(i, tile)| f(i * tile_rows, tile));
        } else {
            self.data
                .chunks_mut(span)
                .enumerate()
                .for_each(|(i, tile)| f(i * tile_rows, tile));
        }
    }
}

/// Dot product with a fixed 4-accumulator unroll (helps LLVM vectorize
/// reliably). Every matmul variant in the engine — GEMV, batched GEMM,
/// attention scores — funnels through this one function, so the batched
/// and token-at-a-time code paths accumulate in the *same* order and
/// produce bitwise-identical floats.
#[inline]
pub fn dot_unrolled(row: &[f32], x: &[f32]) -> f32 {
    debug_assert_eq!(row.len(), x.len());
    let mut acc0 = 0.0f32;
    let mut acc1 = 0.0f32;
    let mut acc2 = 0.0f32;
    let mut acc3 = 0.0f32;
    let chunks = row.len() / 4 * 4;
    let mut i = 0;
    while i < chunks {
        acc0 += row[i] * x[i];
        acc1 += row[i + 1] * x[i + 1];
        acc2 += row[i + 2] * x[i + 2];
        acc3 += row[i + 3] * x[i + 3];
        i += 4;
    }
    for j in chunks..row.len() {
        acc0 += row[j] * x[j];
    }
    acc0 + acc1 + acc2 + acc3
}

/// The engine's innermost f32 dot product (the GEMV row): dispatches to
/// the explicit SSE2 kernel on x86_64, where SSE2 is part of the
/// baseline ABI, and to [`dot_unrolled`] on every other target. The two
/// are bitwise identical — the SIMD kernel keeps the same four
/// accumulator lanes, tail handling, and final reduction order, and
/// uses no FMA — which `simd::tests` asserts directly, so every target
/// produces identical model output.
#[inline]
pub fn dot_kernel(row: &[f32], x: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    {
        crate::simd::dot_f32(row, x)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        dot_unrolled(row, x)
    }
}

/// Name of the kernel backend this process runs, for benchmark reports:
/// `"x86_64-avx2"` on an x86_64 CPU whose CPUID reports AVX2,
/// `"x86_64-sse2"` on any other x86_64 CPU, `"scalar"` on other
/// targets. The choice is made by CPUID alone; every backend gives the
/// same bits.
pub fn kernel_backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        crate::simd::backend()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "scalar"
    }
}

/// Below this many multiply-adds a matmul runs serially: rayon dispatch
/// costs more than it recovers on matrices this small (every `tiny()`
/// config lands under it).
pub(crate) const PARALLEL_FLOP_THRESHOLD: usize = 64 * 1024;

/// `y = W · x` where `W` is `rows × cols` and `x` has `cols` entries.
/// Rows are computed in parallel with rayon above a work threshold and
/// serially below it.
pub fn matmul_vec(w: &Matrix, x: &[f32]) -> Vec<f32> {
    let mut y = vec![0.0f32; w.rows()];
    matmul_vec_into(w, x, &mut y);
    y
}

/// [`matmul_vec`] writing into a caller-provided buffer (the hot decode
/// loop reuses one buffer per projection and never allocates).
pub fn matmul_vec_into(w: &Matrix, x: &[f32], y: &mut [f32]) {
    assert_eq!(w.cols(), x.len(), "matmul_vec dimension mismatch");
    assert_eq!(w.rows(), y.len(), "matmul_vec output length mismatch");
    if w.rows() * w.cols() < PARALLEL_FLOP_THRESHOLD {
        for (r, out) in y.iter_mut().enumerate() {
            *out = dot_kernel(w.row(r), x);
        }
    } else {
        y.par_iter_mut().enumerate().for_each(|(r, out)| {
            *out = dot_kernel(w.row(r), x);
        });
    }
}

/// Output rows per GEMM block: `W` rows are streamed once per block of
/// input rows instead of once per input row.
const GEMM_MB: usize = 8;
/// `W` rows per GEMM tile, sized so a tile of weights stays cache-hot
/// while it is applied to a block of inputs.
const GEMM_NB: usize = 64;

/// Batched matmul `Y = X · Wᵀ`: each row of `xs` (`M × K`) is multiplied
/// by weight matrix `w` (`N × K`), yielding `M × N`. This is the prefill
/// GEMM — one call processes a whole prompt (or a whole decode batch)
/// against each weight matrix, so weights are streamed from memory once
/// per call instead of once per token (the paper's Fig. 1a/1b batching
/// mechanism).
///
/// Blocked over input rows (`GEMM_MB`) and weight rows (`GEMM_NB`) for
/// cache reuse; the K dimension is never split, so every output element
/// is one [`dot_unrolled`] — bitwise identical to the GEMV path.
/// Parallelized over input-row blocks above a work threshold, serial
/// below it.
pub fn matmul_mat(w: &Matrix, xs: &Matrix) -> Matrix {
    assert_eq!(w.cols(), xs.cols(), "matmul_mat dimension mismatch");
    let (m, n) = (xs.rows(), w.rows());
    let mut out = Matrix::zeros(m, n);
    if m * n * w.cols() < PARALLEL_FLOP_THRESHOLD {
        out.data
            .chunks_mut(GEMM_MB * n)
            .enumerate()
            .for_each(|(chunk, rows)| gemm_block(w, xs, chunk * GEMM_MB, rows, n));
    } else {
        out.data
            .par_chunks_mut(GEMM_MB * n)
            .enumerate()
            .for_each(|(chunk, rows)| gemm_block(w, xs, chunk * GEMM_MB, rows, n));
    }
    out
}

/// One `GEMM_MB × N` block of the output: tiles over weight rows so each
/// weight tile is reused across the whole input block while hot. Within a
/// tile, outputs are computed 4×4 at a time by [`dot4x4`], then 4×2 by
/// [`dot4x2`] for a pair of input rows left over — the register tiling
/// that makes the GEMM path faster than a GEMV loop on one core.
fn gemm_block(w: &Matrix, xs: &Matrix, m0: usize, out_rows: &mut [f32], n: usize) {
    let block_rows = out_rows.len() / n;
    let mut n0 = 0;
    while n0 < n {
        let n1 = (n0 + GEMM_NB).min(n);
        let mut mi = 0;
        // Register-tiled interior: four input rows against four weight
        // rows per micro-kernel call, then 2×2 calls and single dots for
        // the weight rows left over.
        while mi + 4 <= block_rows {
            let x: [&[f32]; 4] = std::array::from_fn(|i| xs.row(m0 + mi + i));
            let mut ni = n0;
            while ni + 4 <= n1 {
                let w4 = [w.row(ni), w.row(ni + 1), w.row(ni + 2), w.row(ni + 3)];
                let t = dot4x4(w4, x);
                for (i, ti) in t.chunks_exact(4).enumerate() {
                    out_rows[(mi + i) * n + ni..][..4].copy_from_slice(ti);
                }
                ni += 4;
            }
            for i in [0, 2] {
                gemm_edge(w, x[i], x[i + 1], ni, n1, &mut out_rows[(mi + i) * n..], n);
            }
            mi += 4;
        }
        // Two input rows: four weight rows per micro-kernel call.
        if mi + 2 <= block_rows {
            let x0 = xs.row(m0 + mi);
            let x1 = xs.row(m0 + mi + 1);
            let mut ni = n0;
            while ni + 4 <= n1 {
                let w4 = [w.row(ni), w.row(ni + 1), w.row(ni + 2), w.row(ni + 3)];
                let t = dot4x2(w4, x0, x1);
                out_rows[mi * n + ni..mi * n + ni + 4].copy_from_slice(&t[..4]);
                out_rows[(mi + 1) * n + ni..(mi + 1) * n + ni + 4].copy_from_slice(&t[4..]);
                ni += 4;
            }
            gemm_edge(w, x0, x1, ni, n1, &mut out_rows[mi * n..], n);
            mi += 2;
        }
        // Odd trailing input row.
        if mi < block_rows {
            let x = xs.row(m0 + mi);
            for ni in n0..n1 {
                out_rows[mi * n + ni] = dot_kernel(w.row(ni), x);
            }
        }
        n0 = n1;
    }
}

/// The fewer than four weight rows `ni..n1` of a tile against input rows
/// `x0`, `x1`: a 2×2 call, then single dots. `rows` starts at `x0`'s
/// output row; `x1`'s is `n` further.
fn gemm_edge(
    w: &Matrix,
    x0: &[f32],
    x1: &[f32],
    mut ni: usize,
    n1: usize,
    rows: &mut [f32],
    n: usize,
) {
    if ni + 2 <= n1 {
        let t = dot2x2(w.row(ni), w.row(ni + 1), x0, x1);
        rows[ni] = t[0];
        rows[ni + 1] = t[1];
        rows[n + ni] = t[2];
        rows[n + ni + 1] = t[3];
        ni += 2;
    }
    if ni < n1 {
        rows[ni] = dot_kernel(w.row(ni), x0);
        rows[n + ni] = dot_kernel(w.row(ni), x1);
    }
}

/// 4×4 GEMM micro-kernel dispatch: `out[4 * i + r] = w[r] · x[i]`, each
/// output bitwise equal to one [`dot_kernel`]. On x86_64 `simd` picks
/// the AVX2 register tile or two SSE2 4×2 tiles by CPUID; elsewhere it
/// is two [`dot4x2`] calls. [`gemm_block`] never learns which runs.
#[inline]
fn dot4x4(w: [&[f32]; 4], x: [&[f32]; 4]) -> [f32; 16] {
    #[cfg(target_arch = "x86_64")]
    {
        crate::simd::dot4x4_f32(w, x)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let (a, b) = (dot4x2(w, x[0], x[1]), dot4x2(w, x[2], x[3]));
        std::array::from_fn(|t| if t < 8 { a[t] } else { b[t - 8] })
    }
}

/// 4×2 GEMM micro-kernel dispatch: `[w[0..4]·x0, w[0..4]·x1]`, each
/// output bitwise equal to one [`dot_kernel`]. The SSE2 kernel on
/// x86_64 keeps all eight accumulators in registers; elsewhere it is
/// two [`dot2x2_scalar`] calls.
#[inline]
fn dot4x2(w: [&[f32]; 4], x0: &[f32], x1: &[f32]) -> [f32; 8] {
    #[cfg(target_arch = "x86_64")]
    {
        crate::simd::dot4x2_f32(w, x0, x1)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let a = dot2x2_scalar(w[0], w[1], x0, x1);
        let b = dot2x2_scalar(w[2], w[3], x0, x1);
        [a[0], a[1], b[0], b[1], a[2], a[3], b[2], b[3]]
    }
}

/// Attention scores of four queries against `n = out.len() / 4` keys,
/// query-interleaved: `out[4 * j + i] = dot_kernel(q[i], key_j) * scale`
/// with key `j` at `keys[j * stride..][..d]`. On x86_64 the SSE2 kernel
/// runs the 4×2 tile over key pairs, the AVX2 kernel the 4×4 tile over
/// key quads, both reducing in registers; elsewhere one [`dot_unrolled`]
/// per score. Bitwise identical.
#[inline]
pub(crate) fn score4(q: [&[f32]; 4], keys: &[f32], stride: usize, scale: f32, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        crate::simd::score4_f32(q, keys, stride, scale, out);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let d = q[0].len();
        for (j, o) in out.chunks_exact_mut(4).enumerate() {
            let key = &keys[j * stride..][..d];
            for (o, q) in o.iter_mut().zip(q) {
                *o = dot_unrolled(q, key) * scale;
            }
        }
    }
}

/// Attention scores of one query against `n = out.len()` keys:
/// `out[j] = dot_kernel(q, key_j) * scale` with key `j` at
/// `keys[j * stride..][..d]` — the SSE2 tile over four keys at a time
/// on x86_64 (with or without AVX2), one [`dot_unrolled`] per score
/// elsewhere. Bitwise identical.
#[inline]
pub(crate) fn score1(q: &[f32], keys: &[f32], stride: usize, scale: f32, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        crate::simd::score1_f32(q, keys, stride, scale, out);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        for (j, o) in out.iter_mut().enumerate() {
            *o = dot_unrolled(q, &keys[j * stride..][..q.len()]) * scale;
        }
    }
}

/// 2×2 micro-kernel dispatch: the SSE2 variant on x86_64 (bitwise
/// identical — see [`dot_kernel`]), [`dot2x2_scalar`] elsewhere, for
/// the GEMM's remainders.
#[inline]
fn dot2x2(w0: &[f32], w1: &[f32], x0: &[f32], x1: &[f32]) -> [f32; 4] {
    #[cfg(target_arch = "x86_64")]
    {
        crate::simd::dot2x2_f32(w0, w1, x0, x1)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        dot2x2_scalar(w0, w1, x0, x1)
    }
}

/// 2×2 GEMM micro-kernel: four dot products (`w0·x0`, `w1·x0`, `w0·x1`,
/// `w1·x1`) computed in one pass so every loaded value is used twice and
/// sixteen accumulator chains run in parallel — a GEMV has four. Each
/// output reduces in *exactly* the [`dot_unrolled`] order (four strided
/// partial sums, remainder into lane 0, left-to-right final add), so the
/// tiled GEMM stays bitwise identical to per-row GEMVs.
#[inline]
#[cfg_attr(target_arch = "x86_64", allow(dead_code))] // test-only reference there
pub(crate) fn dot2x2_scalar(w0: &[f32], w1: &[f32], x0: &[f32], x1: &[f32]) -> [f32; 4] {
    let k = w0.len();
    assert!(w1.len() == k && x0.len() == k && x1.len() == k);
    let mut a00 = [0.0f32; 4];
    let mut a01 = [0.0f32; 4];
    let mut a10 = [0.0f32; 4];
    let mut a11 = [0.0f32; 4];
    let chunks = k / 4 * 4;
    let mut i = 0;
    while i < chunks {
        for j in 0..4 {
            let (w0j, w1j) = (w0[i + j], w1[i + j]);
            let (x0j, x1j) = (x0[i + j], x1[i + j]);
            a00[j] += w0j * x0j;
            a01[j] += w1j * x0j;
            a10[j] += w0j * x1j;
            a11[j] += w1j * x1j;
        }
        i += 4;
    }
    for j in chunks..k {
        a00[0] += w0[j] * x0[j];
        a01[0] += w1[j] * x0[j];
        a10[0] += w0[j] * x1[j];
        a11[0] += w1[j] * x1[j];
    }
    [
        a00[0] + a00[1] + a00[2] + a00[3],
        a01[0] + a01[1] + a01[2] + a01[3],
        a10[0] + a10[1] + a10[2] + a10[3],
        a11[0] + a11[1] + a11[2] + a11[3],
    ]
}

/// RMSNorm: `x_i * g_i / sqrt(mean(x^2) + eps)`.
pub fn rmsnorm(x: &[f32], gain: &[f32], eps: f32) -> Vec<f32> {
    let mut y = vec![0.0f32; x.len()];
    rmsnorm_into(x, gain, eps, &mut y);
    y
}

/// [`rmsnorm`] writing into a caller-provided buffer.
///
/// The mean square accumulates in f64: a row of ±1e20 activations
/// squares to 1e40, which overflows an f32 accumulator to `inf` and
/// would silently zero the whole output; in f64 it stays finite and
/// the normalized output is exact to f32 precision. An empty slice is
/// a no-op (the f32 `0/0 → NaN` would otherwise leak out of a
/// zero-width layer). NaN and `inf` *inputs* still propagate — those
/// mean an upstream bug, and hiding them would mask it.
pub fn rmsnorm_into(x: &[f32], gain: &[f32], eps: f32, y: &mut [f32]) {
    assert_eq!(x.len(), gain.len());
    assert_eq!(x.len(), y.len());
    if x.is_empty() {
        return;
    }
    let ms = x.iter().map(|&v| f64::from(v) * f64::from(v)).sum::<f64>() / x.len() as f64;
    let inv = (1.0 / (ms + f64::from(eps)).sqrt()) as f32;
    for ((out, v), g) in y.iter_mut().zip(x).zip(gain) {
        *out = v * inv * g;
    }
}

/// `log2(e)`, rounded to f32.
pub(crate) const EXP_LOG2E: f32 = std::f32::consts::LOG2_E;
/// `1.5 · 2²³`: adding it to an f32 of magnitude below 2²² rounds that
/// value to the nearest integer (ties to even) and leaves the integer in
/// the low mantissa bits.
pub(crate) const EXP_MAGIC: f32 = 12_582_912.0;
/// Cody–Waite split of `ln 2`: `EXP_LN2_HI` has 9 significant bits, so
/// `n · EXP_LN2_HI` is exact for every `|n| ≤ 128`.
pub(crate) const EXP_LN2_HI: f32 = 0.693_359_4;
pub(crate) const EXP_LN2_LO: f32 = -2.121_944_4e-4;
/// Largest f32 whose exponential is finite (just below `ln f32::MAX`).
pub(crate) const EXP_HI: f32 = f32::from_bits(0x42B1_7217);
/// Smallest f32 whose exponential is a normal float (just above
/// `ln f32::MIN_POSITIVE`).
pub(crate) const EXP_LO: f32 = f32::from_bits(0xC2AE_AC4F);
/// Degree-5 minimax coefficients of `(e^r − 1 − r) / r²` on
/// `|r| ≤ ln2 / 2` (Cephes `expf`), highest order first.
pub(crate) const EXP_POLY: [f32; 6] = [
    1.987_569_1e-4,
    1.398_199_9e-3,
    8.333_452e-3,
    4.166_579_6e-2,
    1.666_666_5e-1,
    0.5,
];

/// The engine's exponential, within 2 ulp of `f32::exp` wherever the
/// result is a normal float, and bitwise reproducible on every target:
/// it calls no libm, uses no FMA, and the SSE2 and AVX2 forms
/// (`simd::exp_in_place`) perform the same IEEE operations per lane, so
/// scalar and vector softmaxes agree bit for bit.
///
/// Cody–Waite range reduction: `n = round(x · log2 e)` by magic-number
/// rounding, `r = (x − n · ln2_hi) − n · ln2_lo`, then
/// `e^r ≈ ((P(r) · r²) + r) + 1` in a fixed Horner order, scaled by
/// `2^n` by adding `n` to its exponent bits. That is exact because the
/// result stays normal on `[EXP_LO, EXP_HI]`: `n = -126` only with
/// `r > 0` (so `e^r > 1`), and `n = 128` only with `r < 0` (`e^r < 1`),
/// so no `2^128` is ever formed.
///
/// Edges: NaN passes through; `x > ln f32::MAX` gives `+inf` (so
/// `+inf → +inf`); `x < ln f32::MIN_POSITIVE` gives exactly `0` (so
/// `-inf → 0`, and results that would be subnormal flush to zero).
#[inline]
pub(crate) fn exp_f32(x: f32) -> f32 {
    if x > EXP_HI {
        return f32::INFINITY;
    }
    if x < EXP_LO {
        return 0.0;
    }
    if x.is_nan() {
        return x;
    }
    let t = x * EXP_LOG2E + EXP_MAGIC;
    let n = t - EXP_MAGIC;
    let r = (x - n * EXP_LN2_HI) - n * EXP_LN2_LO;
    let z = r * r;
    let [p0, p1, p2, p3, p4, p5] = EXP_POLY;
    let p = ((((p0 * r + p1) * r + p2) * r + p3) * r + p4) * r + p5;
    let p = (p * z + r) + 1.0;
    let k = (t.to_bits() as i32).wrapping_sub(EXP_MAGIC.to_bits() as i32);
    f32::from_bits((p.to_bits() as i32).wrapping_add(k << 23) as u32)
}

/// `x[i] = exp_f32(x[i])`: the vector form on x86_64 (AVX2 or SSE2 by
/// CPUID), bitwise identical to the scalar loop it replaces elsewhere.
#[inline]
pub(crate) fn exp_in_place(x: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        crate::simd::exp_in_place(x);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        for v in x.iter_mut() {
            *v = exp_f32(*v);
        }
    }
}

/// SiLU activation `x * sigmoid(x)`, as `x / (1 + exp_f32(-x))`.
pub fn silu(x: f32) -> f32 {
    x / (1.0 + exp_f32(-x))
}

/// The SwiGLU activation `gate[i] = silu(gate[i]) * up[i]`: the vector
/// form on x86_64 (AVX2 or SSE2 by CPUID; same IEEE operations per
/// element as [`silu`], so bitwise identical), the scalar loop
/// elsewhere.
pub(crate) fn silu_mul_in_place(gate: &mut [f32], up: &[f32]) {
    assert_eq!(gate.len(), up.len(), "gate/up width mismatch");
    #[cfg(target_arch = "x86_64")]
    {
        crate::simd::silu_mul(gate, up);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        for (g, u) in gate.iter_mut().zip(up) {
            *g = silu(*g) * u;
        }
    }
}

/// In-place numerically-stable softmax.
///
/// Guards (shared by the fused online softmax in [`crate::flash`]): an
/// empty slice is a no-op; a row of only `-inf` scores — a fully masked
/// attention row — becomes all zeros instead of the NaN that
/// `exp(-inf - -inf)` would produce; finite inputs of any magnitude
/// cannot overflow because max-subtraction keeps every exponent `≤ 0`;
/// NaN inputs propagate.
pub fn softmax_in_place(x: &mut [f32]) {
    if x.is_empty() {
        return;
    }
    let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if max == f32::NEG_INFINITY {
        x.fill(0.0);
        return;
    }
    let mut sum = 0.0;
    for v in x.iter_mut() {
        *v = exp_f32(*v - max);
        sum += *v;
    }
    for v in x.iter_mut() {
        *v /= sum;
    }
}

/// Apply rotary position embedding (RoPE) to a head vector in place.
/// Pairs `(2i, 2i+1)` are rotated by `pos / theta^(2i/d)`.
pub fn rope_in_place(head: &mut [f32], pos: usize, theta: f32) {
    let d = head.len();
    let mut i = 0;
    while i + 1 < d {
        let freq = 1.0 / theta.powf(i as f32 / d as f32);
        rotate_pair(head, i, pos, freq);
        i += 2;
    }
}

#[inline]
fn rotate_pair(head: &mut [f32], i: usize, pos: usize, freq: f32) {
    let angle = pos as f32 * freq;
    let (sin, cos) = angle.sin_cos();
    let (a, b) = (head[i], head[i + 1]);
    head[i] = a * cos - b * sin;
    head[i + 1] = a * sin + b * cos;
}

/// Precomputed RoPE inverse-frequency table for one head dimension.
///
/// [`rope_in_place`] evaluates `theta.powf(i / d)` for every pair on every
/// call — in the decode loop that is `heads × d/2` `powf` calls per token
/// per layer. The table computes each inverse frequency once (with the
/// identical expression, so rotations stay bitwise equal to the on-the-fly
/// path) and the hot loops reduce to a multiply and a `sin_cos`.
#[derive(Debug, Clone)]
pub struct RopeTable {
    inv_freq: Vec<f32>,
}

impl RopeTable {
    /// Build the table for heads of dimension `head_dim` with base `theta`.
    pub fn new(head_dim: usize, theta: f32) -> Self {
        let inv_freq = (0..head_dim / 2)
            .map(|j| 1.0 / theta.powf((2 * j) as f32 / head_dim as f32))
            .collect();
        Self { inv_freq }
    }

    /// Rotate one head vector in place for position `pos`.
    pub fn apply(&self, head: &mut [f32], pos: usize) {
        debug_assert_eq!(head.len() / 2, self.inv_freq.len());
        for (j, &freq) in self.inv_freq.iter().enumerate() {
            rotate_pair(head, 2 * j, pos, freq);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn naive_matmul_vec(w: &Matrix, x: &[f32]) -> Vec<f32> {
        (0..w.rows())
            .map(|r| w.row(r).iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }

    #[test]
    fn matmul_matches_naive() {
        let w = Matrix::random(17, 23, 1, 0.5);
        let x: Vec<f32> = (0..23).map(|i| (i as f32 * 0.37).sin()).collect();
        let fast = matmul_vec(&w, &x);
        let slow = naive_matmul_vec(&w, &x);
        for (a, b) in fast.iter().zip(&slow) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn matmul_identity() {
        let n = 8;
        let mut w = Matrix::zeros(n, n);
        for i in 0..n {
            w.row_mut(i)[i] = 1.0;
        }
        let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
        assert_eq!(matmul_vec(&w, &x), x);
    }

    #[test]
    fn softmax_sums_to_one_and_is_ordered() {
        let mut x = vec![1.0, 3.0, 2.0, -1.0];
        softmax_in_place(&mut x);
        let sum: f32 = x.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(x[1] > x[2] && x[2] > x[0] && x[0] > x[3]);
    }

    #[test]
    fn softmax_handles_large_values() {
        let mut x = vec![1000.0, 1000.0];
        softmax_in_place(&mut x);
        assert!((x[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn softmax_empty_is_noop() {
        let mut x: Vec<f32> = Vec::new();
        softmax_in_place(&mut x);
        assert!(x.is_empty());
    }

    #[test]
    fn softmax_fully_masked_row_is_zeros_not_nan() {
        // Regression: exp(-inf - -inf) manufactured NaN for a row that
        // should simply contribute nothing.
        let mut x = vec![f32::NEG_INFINITY; 5];
        softmax_in_place(&mut x);
        assert_eq!(x, vec![0.0; 5]);
    }

    #[test]
    fn softmax_partial_mask_renormalizes_over_visible() {
        let mut x = vec![0.7, f32::NEG_INFINITY, 0.7];
        softmax_in_place(&mut x);
        assert_eq!(x[1], 0.0);
        assert!((x[0] - 0.5).abs() < 1e-6 && (x[2] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn softmax_extreme_magnitudes_do_not_overflow() {
        let mut x = vec![f32::MAX, -f32::MAX, f32::MAX];
        softmax_in_place(&mut x);
        assert!(x.iter().all(|v| v.is_finite()));
        assert!((x[0] - 0.5).abs() < 1e-6 && x[1] == 0.0);
    }

    #[test]
    fn softmax_nan_propagates() {
        let mut x = vec![0.2, f32::NAN];
        softmax_in_place(&mut x);
        assert!(x.iter().any(|v| v.is_nan()));
    }

    #[test]
    fn rmsnorm_empty_is_noop() {
        let mut y: Vec<f32> = Vec::new();
        rmsnorm_into(&[], &[], 1e-6, &mut y);
        assert!(y.is_empty());
    }

    #[test]
    fn rmsnorm_extreme_magnitudes_stay_finite() {
        // Regression: 1e20² = 1e40 overflowed the f32 mean-square
        // accumulator to inf, zeroing the output. The f64 accumulator
        // keeps it finite and ≈ ±1 after normalization.
        let x = vec![1.0e20f32, -1.0e20, 1.0e20, 1.0e20];
        let gain = vec![1.0f32; 4];
        let y = rmsnorm(&x, &gain, 1e-6);
        for (v, orig) in y.iter().zip(&x) {
            assert!(v.is_finite(), "{v}");
            assert!((v.abs() - 1.0).abs() < 1e-4);
            assert_eq!(v.signum(), orig.signum());
        }
    }

    #[test]
    fn rmsnorm_tiny_magnitudes_governed_by_eps() {
        // Subnormal inputs: mean square underflows to ~0, eps keeps the
        // division finite instead of exploding to inf.
        let x = vec![1.0e-40f32; 8];
        let gain = vec![1.0f32; 8];
        let y = rmsnorm(&x, &gain, 1e-6);
        assert!(y.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn dot_kernel_matches_dot_unrolled_bitwise() {
        // Trivial off x86_64 (same function); on it, this pins the
        // scalar/SIMD bitwise contract at the exact kernel the engine
        // dispatches to.
        for len in [0usize, 1, 3, 4, 7, 31, 64, 65] {
            let m = Matrix::random(2, len.max(1), 77, 1.5);
            let a = &m.row(0)[..len];
            let b = &m.row(1)[..len];
            assert_eq!(dot_kernel(a, b).to_bits(), dot_unrolled(a, b).to_bits());
        }
    }

    #[test]
    fn rmsnorm_unit_output_scale() {
        let x = vec![3.0f32; 16];
        let gain = vec![1.0f32; 16];
        let y = rmsnorm(&x, &gain, 1e-6);
        // RMS of constant vector is its magnitude: output ≈ 1 everywhere.
        for v in y {
            assert!((v - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn rope_preserves_norm() {
        let mut head: Vec<f32> = (0..8).map(|i| i as f32 + 1.0).collect();
        let before: f32 = head.iter().map(|v| v * v).sum();
        rope_in_place(&mut head, 17, 10000.0);
        let after: f32 = head.iter().map(|v| v * v).sum();
        assert!((before - after).abs() / before < 1e-5);
    }

    #[test]
    fn rope_position_zero_is_identity() {
        let mut head: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let orig = head.clone();
        rope_in_place(&mut head, 0, 10000.0);
        assert_eq!(head, orig);
    }

    #[test]
    fn matmul_mat_rows_match_matmul_vec_bitwise() {
        // One GEMM over a batch must equal per-row GEMVs exactly — the
        // batched prefill path relies on this for golden equivalence.
        let w = Matrix::random(19, 33, 3, 0.5);
        let xs = Matrix::random(21, 33, 4, 1.0);
        let y = matmul_mat(&w, &xs);
        assert_eq!(y.rows(), 21);
        assert_eq!(y.cols(), 19);
        for r in 0..xs.rows() {
            assert_eq!(y.row(r), matmul_vec(&w, xs.row(r)).as_slice());
        }
    }

    #[test]
    fn matmul_mat_matches_matmul_vec_at_every_row_and_column_remainder() {
        // Every input-row count of a block (the 4-row, 2-row and 1-row
        // steps), every weight-row remainder of a tile (4×4 calls, the
        // 2×2 call, single dots) and every `k % 4`.
        for m in 1..=11 {
            for n in [1, 2, 3, 4, 5, 6, 7, 66] {
                for k in [1, 2, 3, 4, 9, 16] {
                    let w = Matrix::random(n, k, (m * n) as u64, 0.3);
                    let xs = Matrix::random(m, k, k as u64, 0.7);
                    let y = matmul_mat(&w, &xs);
                    for r in 0..m {
                        let want = matmul_vec(&w, xs.row(r));
                        assert_eq!(y.row(r), want.as_slice(), "m {m} n {n} k {k} row {r}");
                    }
                }
            }
        }
    }

    #[test]
    fn matmul_mat_crosses_block_boundaries() {
        // Shapes straddling the MB/NB tile sizes exercise partial blocks.
        for (m, n, k) in [(1, 1, 5), (8, 64, 16), (9, 65, 16), (17, 130, 7)] {
            let w = Matrix::random(n, k, 11, 0.3);
            let xs = Matrix::random(m, k, 12, 0.7);
            let y = matmul_mat(&w, &xs);
            for r in 0..m {
                assert_eq!(y.row(r), matmul_vec(&w, xs.row(r)).as_slice());
            }
        }
    }

    #[test]
    fn matmul_vec_into_matches_allocating_form() {
        let w = Matrix::random(31, 17, 5, 0.5);
        let x: Vec<f32> = (0..17).map(|i| (i as f32 * 0.61).cos()).collect();
        let mut y = vec![0.0; 31];
        matmul_vec_into(&w, &x, &mut y);
        assert_eq!(y, matmul_vec(&w, &x));
    }

    #[test]
    fn rope_table_matches_on_the_fly_rope_bitwise() {
        let table = RopeTable::new(8, 10000.0);
        for pos in [0usize, 1, 17, 101] {
            let mut a: Vec<f32> = (0..8).map(|i| (i as f32 * 0.3).sin()).collect();
            let mut b = a.clone();
            rope_in_place(&mut a, pos, 10000.0);
            table.apply(&mut b, pos);
            assert_eq!(a, b, "RoPE table diverged at pos {pos}");
        }
    }

    #[test]
    fn rmsnorm_into_matches_allocating_form() {
        let x: Vec<f32> = (0..16).map(|i| (i as f32 * 0.7).sin()).collect();
        let gain: Vec<f32> = (0..16).map(|i| 1.0 + i as f32 * 0.01).collect();
        let mut y = vec![0.0; 16];
        rmsnorm_into(&x, &gain, 1e-6, &mut y);
        assert_eq!(y, rmsnorm(&x, &gain, 1e-6));
    }

    #[test]
    fn random_is_seeded() {
        let a = Matrix::random(4, 4, 9, 1.0);
        let b = Matrix::random(4, 4, 9, 1.0);
        let c = Matrix::random(4, 4, 10, 1.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn exp_edges() {
        assert!(exp_f32(f32::NAN).is_nan());
        assert_eq!(exp_f32(f32::INFINITY), f32::INFINITY);
        assert_eq!(exp_f32(f32::NEG_INFINITY).to_bits(), 0);
        assert_eq!(exp_f32(0.0), 1.0);
        assert_eq!(exp_f32(-0.0), 1.0);
        let up = |x: f32| f32::from_bits(x.to_bits() + 1);
        // Above ln f32::MAX: +inf; at the last finite input: finite,
        // with no 2^128 scale factor built along the way.
        assert!(EXP_HI < 88.722_84 && f64::from(EXP_HI).exp() < f64::from(f32::MAX));
        assert_eq!(exp_f32(up(EXP_HI)), f32::INFINITY);
        let top = exp_f32(EXP_HI);
        assert!(top.is_finite() && top > 3.4e38, "{top:e}");
        // Below ln f32::MIN_POSITIVE: exactly 0; at the threshold a
        // normal float.
        assert!(f64::from(EXP_LO).exp() >= f64::from(f32::MIN_POSITIVE));
        let below = -f32::from_bits((-EXP_LO).to_bits() + 1);
        assert_eq!(exp_f32(below).to_bits(), 0);
        assert!(exp_f32(EXP_LO).is_normal());
    }

    /// Distance in ulps between two finite f32 of one sign.
    fn ulps(a: f32, b: f32) -> u32 {
        a.to_bits().abs_diff(b.to_bits())
    }

    #[test]
    fn exp_within_two_ulp_on_a_dense_grid() {
        // 2^20 evenly spaced inputs across the whole normal range.
        let steps = 1 << 20;
        for i in 0..=steps {
            let x = EXP_LO + (EXP_HI - EXP_LO) * (i as f32 / steps as f32);
            let (got, want) = (exp_f32(x), x.exp());
            if want.is_normal() {
                assert!(ulps(got, want) <= 2, "exp({x:e}) = {got:e}, libm {want:e}");
            }
        }
    }

    proptest! {
        #[test]
        fn exp_within_two_ulp_of_libm(x in EXP_LO..=EXP_HI) {
            let (got, want) = (exp_f32(x), x.exp());
            if want.is_normal() {
                prop_assert!(ulps(got, want) <= 2, "exp({:e}) = {:e}, libm {:e}", x, got, want);
            }
        }

        #[test]
        fn silu_bounded_below(x in -50.0f32..50.0) {
            let y = silu(x);
            prop_assert!(y >= -0.3);
            prop_assert!(y <= x.max(0.0) + 1e-6);
        }

        #[test]
        fn softmax_is_distribution(values in proptest::collection::vec(-20.0f32..20.0, 1..64)) {
            let mut x = values;
            softmax_in_place(&mut x);
            let sum: f32 = x.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(x.iter().all(|v| (0.0..=1.0).contains(v)));
        }

        #[test]
        fn matmul_linearity(seed in 0u64..100, k in 0.1f32..4.0) {
            let w = Matrix::random(6, 10, seed, 1.0);
            let x: Vec<f32> = (0..10).map(|i| (i as f32).cos()).collect();
            let kx: Vec<f32> = x.iter().map(|v| v * k).collect();
            let y = matmul_vec(&w, &x);
            let ky = matmul_vec(&w, &kx);
            for (a, b) in y.iter().zip(&ky) {
                prop_assert!((a * k - b).abs() < 1e-3 * (1.0 + a.abs() * k.abs()));
            }
        }
    }
}
