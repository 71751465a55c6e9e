//! Blockwise INT8 / INT4 weight quantization with per-group scales and
//! dequantization fused into the integer dot product (GGML-style).
//!
//! Weights are split into fixed-size groups of [`QUANT_GROUP`]
//! consecutive columns; each group stores one f32 scale and its codes:
//! one `i8` per weight for INT8, or two 4-bit codes per byte (offset
//! binary, `stored = q + 8`) for INT4. Activations are quantized to
//! `i8` with the same per-group layout on the fly. The fused dot walks
//! groups in ascending order, computes each group's integer dot exactly
//! in `i32`, and accumulates `isum × (w_scale × x_scale)` in f32 —
//! weights stay compressed through the multiply (the memory-bound GEMV
//! phase streams 1 or ½ bytes per weight instead of 4), and because
//! the group order is fixed and integer accumulation is exact, every
//! execution path — per-row GEMV, batched — produces bitwise-identical
//! results.
//!
//! Round-trip error bound (asserted by proptests here and in the golden
//! suite): for every weight, `|w − scale·q| ≤ scale/2` with `scale =
//! max|group| / qmax` (`qmax` = 127 for INT8, 7 for INT4). Degenerate
//! groups — all zeros, or a subnormal maximum whose scale would itself
//! be subnormal — force `scale = 1.0` and quantize to zero codes, which
//! keeps the same bound (the true values are below `2^-126`).

use crate::tensor::Matrix;

/// Columns per quantization group: 32 matches the GGML block size and
/// divides every projection width the engine configs use, while tail
/// groups (`cols % 32 != 0`) are supported for odd shapes.
pub const QUANT_GROUP: usize = 32;

/// Weight precision for the engine's linear layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantMode {
    /// Full-precision f32 weights.
    F32,
    /// Blockwise INT8 weights (one byte + 4/32 bytes of scale per weight).
    Int8,
    /// Blockwise INT4 weights (two codes per byte).
    Int4,
}

/// Reusable scratch for on-the-fly activation quantization: per-group
/// `i8` codes and scales. One scratch per [`crate::Workspace`] keeps
/// the decode loop allocation free.
#[derive(Debug, Clone, Default)]
pub struct QuantScratch {
    q: Vec<i8>,
    scales: Vec<f32>,
}

impl QuantScratch {
    /// Empty scratch; buffers grow to the widest layer on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Quantized weight payload.
#[derive(Debug, Clone)]
enum Codes {
    /// One code per weight, row-major.
    Int8(Vec<i8>),
    /// Two codes per byte (low nibble first), `ceil(cols/2)` bytes per
    /// row; each nibble stores `q + 8` with `q ∈ [-7, 7]`.
    Int4(Vec<u8>),
}

/// A linear layer with block-quantized integer weights and per-group
/// dequantization scales.
#[derive(Debug, Clone)]
pub struct QuantizedLinear {
    rows: usize,
    cols: usize,
    group: usize,
    codes: Codes,
    /// `rows × groups_per_row` scales, row-major.
    scales: Vec<f32>,
}

/// Per-group scale `max|v| / qmax`, forced to `1.0` when the group is
/// all zeros or its maximum is subnormal — a zero or subnormal scale
/// would turn `v / scale` into `inf`/NaN. The forced scale quantizes
/// the group to zero codes; the resulting error `|v| < 2^-126` is far
/// inside the `scale/2 = 0.5` bound.
fn group_scale(vals: &[f32], qmax: f32) -> f32 {
    let maxabs = vals.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let scale = maxabs / qmax;
    if scale.is_normal() {
        scale
    } else {
        1.0
    }
}

impl QuantizedLinear {
    /// Blockwise INT8 quantization with the default group size.
    pub fn quantize(w: &Matrix) -> Self {
        Self::quantize_with(w, QuantMode::Int8, QUANT_GROUP)
    }

    /// Blockwise INT4 quantization with the default group size.
    pub fn quantize_int4(w: &Matrix) -> Self {
        Self::quantize_with(w, QuantMode::Int4, QUANT_GROUP)
    }

    /// Quantize with an explicit mode and group size. `group` need not
    /// divide `cols`: the last group of a row is simply narrower. INT4
    /// requires an even `group` so groups never straddle a packed byte.
    pub fn quantize_with(w: &Matrix, mode: QuantMode, group: usize) -> Self {
        assert!(group > 0, "group size must be positive");
        let (rows, cols) = (w.rows(), w.cols());
        let gpr = cols.div_ceil(group).max(1);
        let mut scales = vec![0.0f32; rows * gpr];
        let codes = match mode {
            QuantMode::F32 => panic!("QuantizedLinear requires an integer mode"),
            QuantMode::Int8 => {
                let mut q = vec![0i8; rows * cols];
                for r in 0..rows {
                    let row = w.row(r);
                    for g in 0..gpr {
                        let lo = g * group;
                        let hi = cols.min(lo + group);
                        let scale = group_scale(&row[lo..hi], 127.0);
                        scales[r * gpr + g] = scale;
                        for c in lo..hi {
                            q[r * cols + c] = (row[c] / scale).round().clamp(-127.0, 127.0) as i8;
                        }
                    }
                }
                Codes::Int8(q)
            }
            QuantMode::Int4 => {
                assert!(group.is_multiple_of(2), "INT4 group size must be even");
                let bpr = cols.div_ceil(2);
                let mut packed = vec![0u8; rows * bpr];
                for r in 0..rows {
                    let row = w.row(r);
                    for g in 0..gpr {
                        let lo = g * group;
                        let hi = cols.min(lo + group);
                        let scale = group_scale(&row[lo..hi], 7.0);
                        scales[r * gpr + g] = scale;
                        for c in lo..hi {
                            let q = (row[c] / scale).round().clamp(-7.0, 7.0) as i32 + 8;
                            let byte = &mut packed[r * bpr + c / 2];
                            if c % 2 == 0 {
                                *byte = q as u8;
                            } else {
                                *byte |= (q as u8) << 4;
                            }
                        }
                    }
                }
                Codes::Int4(packed)
            }
        };
        Self {
            rows,
            cols,
            group,
            codes,
            scales,
        }
    }

    /// Output rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Input columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Columns per quantization group.
    pub fn group(&self) -> usize {
        self.group
    }

    /// The stored precision.
    pub fn mode(&self) -> QuantMode {
        match self.codes {
            Codes::Int8(_) => QuantMode::Int8,
            Codes::Int4(_) => QuantMode::Int4,
        }
    }

    fn groups_per_row(&self) -> usize {
        self.cols.div_ceil(self.group).max(1)
    }

    /// Dequantization scale applied to weight `(r, c)`.
    pub fn scale_at(&self, r: usize, c: usize) -> f32 {
        self.scales[r * self.groups_per_row() + c / self.group]
    }

    /// Integer code of weight `(r, c)`.
    fn code_at(&self, r: usize, c: usize) -> i32 {
        match &self.codes {
            Codes::Int8(q) => i32::from(q[r * self.cols + c]),
            Codes::Int4(packed) => {
                let byte = packed[r * self.cols.div_ceil(2) + c / 2];
                let nibble = if c.is_multiple_of(2) {
                    byte & 0x0F
                } else {
                    byte >> 4
                };
                i32::from(nibble) - 8
            }
        }
    }

    /// Reconstruct the f32 weights (`scale · code` per element) — the
    /// matrix the quantized layer behaves as. Round-trip tests assert
    /// `|w - dequantize| ≤ scale/2` elementwise.
    pub fn dequantize(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.row_mut(r)[c] = self.code_at(r, c) as f32 * self.scale_at(r, c);
            }
        }
        out
    }

    /// Quantize activations per group (scale `max|group| / 127`, same
    /// degenerate-group guard as the weights) into `scratch`.
    fn quantize_activations(x: &[f32], group: usize, scratch: &mut QuantScratch) {
        scratch.q.clear();
        scratch.scales.clear();
        let mut lo = 0;
        while lo < x.len() {
            let hi = x.len().min(lo + group);
            let scale = group_scale(&x[lo..hi], 127.0);
            scratch.scales.push(scale);
            scratch.q.extend(
                x[lo..hi]
                    .iter()
                    .map(|v| (v / scale).round().clamp(-127.0, 127.0) as i8),
            );
            lo = hi;
        }
    }

    /// Fused dequant-dot of weight row `r` against quantized activations:
    /// per group, an exact `i32` integer dot scaled by
    /// `w_scale × x_scale`, accumulated in f32 in ascending group order.
    #[inline]
    fn dot_row(&self, r: usize, xq: &[i8], xscales: &[f32]) -> f32 {
        let gpr = self.groups_per_row();
        let wscales = &self.scales[r * gpr..(r + 1) * gpr];
        let mut acc = 0.0f32;
        match &self.codes {
            Codes::Int8(q) => {
                let row = &q[r * self.cols..(r + 1) * self.cols];
                for g in 0..gpr {
                    let lo = g * self.group;
                    let hi = self.cols.min(lo + self.group);
                    let isum = dot_i8(&row[lo..hi], &xq[lo..hi]);
                    acc += isum as f32 * (wscales[g] * xscales[g]);
                }
            }
            Codes::Int4(packed) => {
                let bpr = self.cols.div_ceil(2);
                let row = &packed[r * bpr..(r + 1) * bpr];
                for g in 0..gpr {
                    let lo = g * self.group;
                    let hi = self.cols.min(lo + self.group);
                    // Weights stay packed through the dot; `group % 2 ==
                    // 0` keeps `lo` byte-aligned, and only a ragged
                    // final group can end mid-byte.
                    let isum = dot_i4(&row[lo / 2..hi.div_ceil(2)], &xq[lo..hi]);
                    acc += isum as f32 * (wscales[g] * xscales[g]);
                }
            }
        }
        acc
    }

    /// `y = W_q · x` with on-the-fly activation quantization — the
    /// classic W8A8 (or W4A8) inner loop.
    pub fn matmul_vec(&self, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0f32; self.rows];
        let mut scratch = QuantScratch::new();
        self.matmul_vec_into(x, &mut y, &mut scratch);
        y
    }

    /// [`QuantizedLinear::matmul_vec`] into caller-provided output and
    /// activation-scratch buffers.
    pub fn matmul_vec_into(&self, x: &[f32], y: &mut [f32], scratch: &mut QuantScratch) {
        assert_eq!(self.cols, x.len());
        assert_eq!(self.rows, y.len());
        Self::quantize_activations(x, self.group, scratch);
        let (xq, xscales) = (&scratch.q[..], &scratch.scales[..]);
        for (r, out) in y.iter_mut().enumerate() {
            *out = self.dot_row(r, xq, xscales);
        }
    }

    /// Batched `Y = X · W_qᵀ`: each batch row is quantized exactly as it
    /// would be on its own and accumulated in the same group order, so
    /// results are bitwise equal to per-row
    /// [`QuantizedLinear::matmul_vec`].
    pub fn matmul_mat(&self, xs: &Matrix) -> Matrix {
        assert_eq!(self.cols, xs.cols());
        let m = xs.rows();
        let gpr = self.cols.div_ceil(self.group).max(1);
        let mut xqs = vec![0i8; m * self.cols];
        let mut xscales = vec![0.0f32; m * gpr];
        let mut scratch = QuantScratch::new();
        for t in 0..m {
            Self::quantize_activations(xs.row(t), self.group, &mut scratch);
            xqs[t * self.cols..(t + 1) * self.cols].copy_from_slice(&scratch.q);
            xscales[t * gpr..(t + 1) * gpr].copy_from_slice(&scratch.scales);
        }
        let mut data = vec![0.0f32; m * self.rows];
        for (t, out_row) in data.chunks_mut(self.rows).enumerate() {
            let xq = &xqs[t * self.cols..(t + 1) * self.cols];
            let xs = &xscales[t * gpr..(t + 1) * gpr];
            for (r, out) in out_row.iter_mut().enumerate() {
                *out = self.dot_row(r, xq, xs);
            }
        }
        Matrix::from_vec(m, self.rows, data)
    }

    /// Bytes of quantized storage (packed codes + per-group scales).
    pub fn storage_bytes(&self) -> usize {
        let code_bytes = match &self.codes {
            Codes::Int8(q) => q.len(),
            Codes::Int4(p) => p.len(),
        };
        code_bytes + self.scales.len() * 4
    }
}

/// Exact i8 dot in i32, dispatched to the SSE2 backend on x86_64.
/// Integer accumulation is exact, so every backend returns the same
/// value.
#[inline]
fn dot_i8(w: &[i8], x: &[i8]) -> i32 {
    #[cfg(target_arch = "x86_64")]
    {
        crate::simd::dot_i8(w, x)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        w.iter()
            .zip(x)
            .map(|(a, b)| i32::from(*a) * i32::from(*b))
            .sum()
    }
}

/// Exact packed-INT4 · i8 dot in i32, dispatched to the SSE2 backend
/// (in-register nibble unpack) on x86_64. `packed` holds two biased
/// codes per byte, low nibble first; an odd `x.len()` uses only the
/// final byte's low nibble. Integer accumulation is exact, so both
/// backends return the same value — [`dot_i4_scalar`] is the pinned
/// reference.
#[inline]
fn dot_i4(packed: &[u8], x: &[i8]) -> i32 {
    #[cfg(target_arch = "x86_64")]
    {
        crate::simd::dot_i4(packed, x)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        dot_i4_scalar(packed, x)
    }
}

/// Scalar reference for [`dot_i4`]: byte-at-a-time nibble unpack in the
/// exact layout [`QuantizedLinear::quantize_with`] packs (low nibble =
/// even column, stored `q + 8`). Kept alive on every backend so
/// proptests can pin the dispatched kernel against it.
#[cfg_attr(target_arch = "x86_64", allow(dead_code))] // test-only reference there
fn dot_i4_scalar(packed: &[u8], x: &[i8]) -> i32 {
    debug_assert_eq!(packed.len(), x.len().div_ceil(2));
    let pairs = x.len() / 2;
    let mut acc = 0i32;
    for (i, &byte) in packed[..pairs].iter().enumerate() {
        let q0 = i32::from(byte & 0x0F) - 8;
        let q1 = i32::from(byte >> 4) - 8;
        acc += q0 * i32::from(x[2 * i]) + q1 * i32::from(x[2 * i + 1]);
    }
    if x.len() % 2 == 1 {
        acc += (i32::from(packed[pairs] & 0x0F) - 8) * i32::from(x[x.len() - 1]);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::matmul_vec;
    use proptest::prelude::*;

    #[test]
    fn quantized_matvec_close_to_f32() {
        let w = Matrix::random(24, 48, 3, 0.8);
        let x: Vec<f32> = (0..48).map(|i| ((i * 7) as f32 * 0.11).sin()).collect();
        let exact = matmul_vec(&w, &x);
        let q = QuantizedLinear::quantize(&w).matmul_vec(&x);
        for (a, b) in exact.iter().zip(&q) {
            let tol = 0.05 * (1.0 + a.abs());
            assert!((a - b).abs() < tol, "{a} vs {b}");
        }
    }

    #[test]
    fn int4_matvec_tracks_f32() {
        let w = Matrix::random(24, 48, 3, 0.8);
        let x: Vec<f32> = (0..48).map(|i| ((i * 7) as f32 * 0.11).sin()).collect();
        let exact = matmul_vec(&w, &x);
        let q = QuantizedLinear::quantize_int4(&w).matmul_vec(&x);
        // 4-bit codes are ~16x coarser than 8-bit: same shape, looser tol.
        for (a, b) in exact.iter().zip(&q) {
            let tol = 0.6 * (1.0 + a.abs());
            assert!((a - b).abs() < tol, "{a} vs {b}");
        }
    }

    #[test]
    fn storage_is_quarter_of_f32() {
        let w = Matrix::random(64, 64, 1, 1.0);
        let q = QuantizedLinear::quantize(&w);
        let f32_bytes = 64 * 64 * 4;
        assert!(q.storage_bytes() < f32_bytes / 3);
        // INT4 halves it again (plus the same per-group scales).
        let q4 = QuantizedLinear::quantize_int4(&w);
        assert!(q4.storage_bytes() < q.storage_bytes() * 3 / 4);
    }

    #[test]
    fn batched_matmul_matches_per_row_bitwise() {
        let w = Matrix::random(24, 48, 3, 0.8);
        for q in [
            QuantizedLinear::quantize(&w),
            QuantizedLinear::quantize_int4(&w),
        ] {
            let xs = Matrix::random(5, 48, 8, 0.9);
            let batched = q.matmul_mat(&xs);
            for t in 0..xs.rows() {
                assert_eq!(batched.row(t), q.matmul_vec(xs.row(t)).as_slice());
            }
        }
    }

    #[test]
    fn parallel_batched_matmul_matches_per_row_bitwise() {
        // A 32-row batch against 64 × 64 weights: the largest batched
        // shape here; exact integer group dots in fixed order keep it
        // bitwise equal to the per-row GEMV.
        let w = Matrix::random(64, 64, 5, 0.7);
        let q = QuantizedLinear::quantize(&w);
        let xs = Matrix::random(32, 64, 9, 0.9);
        assert!(xs.rows() * q.rows() * q.cols() >= 64 * 1024);
        let batched = q.matmul_mat(&xs);
        for t in 0..xs.rows() {
            assert_eq!(batched.row(t), q.matmul_vec(xs.row(t)).as_slice());
        }
    }

    #[test]
    fn zero_matrix_roundtrips() {
        let w = Matrix::zeros(4, 4);
        for q in [
            QuantizedLinear::quantize(&w),
            QuantizedLinear::quantize_int4(&w),
        ] {
            let y = q.matmul_vec(&[1.0, 2.0, 3.0, 4.0]);
            assert!(y.iter().all(|v| *v == 0.0));
            assert_eq!(q.dequantize().data(), w.data());
        }
    }

    #[test]
    fn all_zero_group_inside_nonzero_row() {
        // A row whose first group is all zeros while later groups carry
        // signal: the zero group's forced scale must not contaminate
        // the others.
        let mut w = Matrix::zeros(1, 64);
        for c in 32..64 {
            w.row_mut(0)[c] = (c as f32 - 47.5) * 0.1;
        }
        let q = QuantizedLinear::quantize(&w);
        let deq = q.dequantize();
        for c in 0..32 {
            assert_eq!(deq.row(0)[c], 0.0);
        }
        for c in 32..64 {
            let err = (deq.row(0)[c] - w.row(0)[c]).abs();
            assert!(err <= q.scale_at(0, c) * 0.5 + 1e-7);
        }
    }

    #[test]
    fn subnormal_maxima_quantize_to_zero_within_bound() {
        // max|group| = 1e-40 (subnormal): scale would underflow; the
        // guard forces scale = 1.0 and codes of 0 — error 1e-40 ≤ 0.5.
        let w = Matrix::from_vec(1, 4, vec![1.0e-40, -1.0e-40, 0.0, 1.0e-41]);
        for q in [
            QuantizedLinear::quantize(&w),
            QuantizedLinear::quantize_int4(&w),
        ] {
            assert_eq!(q.scale_at(0, 0), 1.0);
            assert!(q.dequantize().data().iter().all(|v| *v == 0.0));
            let y = q.matmul_vec(&[1.0; 4]);
            assert_eq!(y[0], 0.0);
        }
    }

    #[test]
    fn ragged_tail_group_is_quantized() {
        // cols = 70 with group 32: two full groups + a 6-wide tail.
        let w = Matrix::random(3, 70, 21, 0.9);
        for q in [
            QuantizedLinear::quantize(&w),
            QuantizedLinear::quantize_int4(&w),
        ] {
            let qmax = if q.mode() == QuantMode::Int8 {
                127.0
            } else {
                7.0
            };
            let deq = q.dequantize();
            for r in 0..3 {
                for c in 0..70 {
                    let err = (deq.row(r)[c] - w.row(r)[c]).abs();
                    let bound = q.scale_at(r, c) * 0.5 * 1.0001 + 1e-7;
                    assert!(
                        err <= bound,
                        "r{r} c{c}: err {err} bound {bound} qmax {qmax}"
                    );
                }
            }
            // The tail group's matvec contribution is present.
            let mut x = vec![0.0f32; 70];
            x[69] = 1.0;
            let y = q.matmul_vec(&x);
            assert!(y.iter().any(|v| v.abs() > 0.0));
        }
    }

    proptest! {
        #[test]
        fn roundtrip_error_within_per_group_bound(
            seed in 0u64..40,
            rows in 1usize..6,
            cols in 1usize..80,
            int4 in proptest::bool::ANY,
        ) {
            // The documented contract: |w - scale·q| ≤ scale/2 per
            // element, for any shape including ragged tail groups.
            let w = Matrix::random(rows, cols, seed, 1.0);
            let q = if int4 {
                QuantizedLinear::quantize_int4(&w)
            } else {
                QuantizedLinear::quantize(&w)
            };
            let deq = q.dequantize();
            for r in 0..rows {
                for c in 0..cols {
                    let err = (deq.row(r)[c] - w.row(r)[c]).abs();
                    let bound = q.scale_at(r, c) * 0.5 * 1.0001 + 1e-7;
                    prop_assert!(err <= bound, "r{} c{}: err {} > bound {}", r, c, err, bound);
                }
            }
        }

        #[test]
        fn relative_error_bounded(seed in 0u64..50) {
            let w = Matrix::random(16, 32, seed, 1.0);
            let x: Vec<f32> = (0..32).map(|i| ((i as f32) * 0.23).cos()).collect();
            let exact = matmul_vec(&w, &x);
            let q = QuantizedLinear::quantize(&w).matmul_vec(&x);
            let norm_e: f32 = exact.iter().map(|v| v * v).sum::<f32>().sqrt();
            let err: f32 = exact
                .iter()
                .zip(&q)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()
                .sqrt();
            prop_assert!(err <= 0.05 * norm_e + 1e-3, "err {} vs norm {}", err, norm_e);
        }

        #[test]
        fn dot_i4_dispatch_pinned_to_scalar_reference(
            len in 0usize..100,
            seed in 0u64..40,
        ) {
            // The INT4 inner dot must return the scalar reference's
            // value exactly on every backend (integer accumulation is
            // exact, so "bitwise identical" is value equality here).
            // Covers full 32-code SIMD blocks, ragged tails, and odd
            // lengths ending mid-byte.
            let w = Matrix::random(1, len.max(1), seed, 1.0);
            let codes: Vec<u8> = w.row(0)[..len]
                .iter()
                .map(|v| (((v * 8.0) as i32).clamp(-8, 7) + 8) as u8)
                .collect();
            let mut packed = vec![0u8; len.div_ceil(2)];
            for (c, &q) in codes.iter().enumerate() {
                packed[c / 2] |= if c % 2 == 0 { q } else { q << 4 };
            }
            let x: Vec<i8> = (0..len).map(|i| ((i as i32 * 37 + 11) % 255 - 127) as i8).collect();
            prop_assert_eq!(dot_i4(&packed, &x), dot_i4_scalar(&packed, &x));
        }

        #[test]
        fn int4_matmul_identical_across_unpack_paths(seed in 0u64..25, cols in 1usize..90) {
            // End-to-end pin: the vectorized-unpack matmul must produce
            // exactly the values the pre-existing scalar unpack produced
            // (reconstructed here via dequantized exact group dots).
            let w = Matrix::random(4, cols, seed, 0.9);
            let q = QuantizedLinear::quantize_int4(&w);
            let x: Vec<f32> = (0..cols).map(|i| ((i as f32) * 0.17).sin()).collect();
            let got = q.matmul_vec(&x);
            // Reference: quantize activations identically, then per-group
            // exact integer dots through the scalar nibble unpack.
            let mut scratch = QuantScratch::new();
            QuantizedLinear::quantize_activations(&x, q.group(), &mut scratch);
            let gpr = cols.div_ceil(q.group()).max(1);
            for (r, out) in got.iter().enumerate() {
                let mut acc = 0.0f32;
                for g in 0..gpr {
                    let lo = g * q.group();
                    let hi = cols.min(lo + q.group());
                    let mut isum = 0i32;
                    for c in lo..hi {
                        isum += q.code_at(r, c) * i32::from(scratch.q[c]);
                    }
                    acc += isum as f32 * (q.scale_at(r, lo) * scratch.scales[g]);
                }
                prop_assert_eq!(out.to_bits(), acc.to_bits(), "row {}", r);
            }
        }

        #[test]
        fn quantization_is_deterministic(seed in 0u64..30, int4 in proptest::bool::ANY) {
            let w = Matrix::random(8, 40, seed, 0.8);
            let make = || if int4 {
                QuantizedLinear::quantize_int4(&w)
            } else {
                QuantizedLinear::quantize(&w)
            };
            let x: Vec<f32> = (0..40).map(|i| ((i as f32) * 0.31).sin()).collect();
            let a = make().matmul_vec(&x);
            let b = make().matmul_vec(&x);
            prop_assert_eq!(a, b);
        }
    }
}
