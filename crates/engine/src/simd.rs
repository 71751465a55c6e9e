//! Explicit SSE2 kernels: the engine's kernels on every x86_64 build.
//!
//! Bitwise contract with the scalar reference kernels in
//! [`crate::tensor`]: the f32 dot products accumulate in *exactly* the
//! scalar order — four partial sums striped over positions mod 4, held
//! as the four lanes of one `__m128` (lane `j` is scalar accumulator
//! `j`), the `len % 4` tail added into lane 0, and the final reduction
//! `l0 + l1 + l2 + l3` performed left-to-right in scalar f32. No FMA is
//! used anywhere: a fused multiply-add rounds once where the scalar
//! kernel rounds twice, which would break bitwise equality. The i8 dot
//! accumulates exactly in integers, so vectorization cannot change its
//! value at all. `tests` below assert both properties against the
//! scalar kernels compiled into the same binary.
//!
//! This is the only module in the crate permitted to use `unsafe`
//! (`lib.rs` forbids it crate-wide on targets other than x86_64, where
//! this module is compiled out).
//! Every unsafe operation is either an in-bounds unaligned load/store
//! whose index arithmetic is visible a line above, or a call into an
//! SSE2 `#[target_feature]` function — and SSE2 is part of the x86_64
//! baseline ABI, so the feature precondition holds on every CPU this
//! code can run on.

#![allow(unsafe_code)]

use std::arch::x86_64::{
    __m128, __m128i, _mm_add_epi32, _mm_add_ps, _mm_and_si128, _mm_loadu_ps, _mm_loadu_si128,
    _mm_madd_epi16, _mm_mul_ps, _mm_set1_epi8, _mm_set1_ps, _mm_setzero_ps, _mm_setzero_si128,
    _mm_srai_epi16, _mm_srli_epi16, _mm_storeu_ps, _mm_storeu_si128, _mm_sub_epi8,
    _mm_unpackhi_epi8, _mm_unpacklo_epi8,
};

/// f32 dot product, bitwise identical to [`crate::tensor::dot_unrolled`].
#[inline]
pub fn dot_f32(row: &[f32], x: &[f32]) -> f32 {
    debug_assert_eq!(row.len(), x.len());
    // SAFETY: SSE2 is baseline on x86_64 (see module docs).
    unsafe { dot_f32_sse2(row, x) }
}

#[target_feature(enable = "sse2")]
unsafe fn dot_f32_sse2(row: &[f32], x: &[f32]) -> f32 {
    let k = row.len();
    let quads = k / 4;
    let (rp, xp) = (row.as_ptr(), x.as_ptr());
    let mut acc = _mm_setzero_ps();
    for i in 0..quads {
        // SAFETY: `4 * i + 4 <= k` and both slices have length `k`.
        let (a, b) = unsafe { (_mm_loadu_ps(rp.add(4 * i)), _mm_loadu_ps(xp.add(4 * i))) };
        acc = _mm_add_ps(acc, _mm_mul_ps(a, b));
    }
    let lanes = lanes_f32(acc);
    let mut acc0 = lanes[0];
    for j in 4 * quads..k {
        acc0 += row[j] * x[j];
    }
    acc0 + lanes[1] + lanes[2] + lanes[3]
}

/// 2×2 GEMM micro-kernel (`[w0·x0, w1·x0, w0·x1, w1·x1]`), bitwise
/// identical to the scalar `dot2x2` in [`crate::tensor`]: each output's
/// four accumulator lanes and final reduction match [`dot_f32`].
#[inline]
pub fn dot2x2_f32(w0: &[f32], w1: &[f32], x0: &[f32], x1: &[f32]) -> [f32; 4] {
    let k = w0.len();
    assert!(w1.len() == k && x0.len() == k && x1.len() == k);
    // SAFETY: SSE2 is baseline on x86_64.
    unsafe { dot2x2_sse2(w0, w1, x0, x1) }
}

#[target_feature(enable = "sse2")]
unsafe fn dot2x2_sse2(w0: &[f32], w1: &[f32], x0: &[f32], x1: &[f32]) -> [f32; 4] {
    let k = w0.len();
    let quads = k / 4;
    let mut a00 = _mm_setzero_ps();
    let mut a01 = _mm_setzero_ps();
    let mut a10 = _mm_setzero_ps();
    let mut a11 = _mm_setzero_ps();
    for i in 0..quads {
        // SAFETY: `4 * i + 4 <= k`; all four slices have length `k`.
        let (w0v, w1v, x0v, x1v) = unsafe {
            (
                _mm_loadu_ps(w0.as_ptr().add(4 * i)),
                _mm_loadu_ps(w1.as_ptr().add(4 * i)),
                _mm_loadu_ps(x0.as_ptr().add(4 * i)),
                _mm_loadu_ps(x1.as_ptr().add(4 * i)),
            )
        };
        a00 = _mm_add_ps(a00, _mm_mul_ps(w0v, x0v));
        a01 = _mm_add_ps(a01, _mm_mul_ps(w1v, x0v));
        a10 = _mm_add_ps(a10, _mm_mul_ps(w0v, x1v));
        a11 = _mm_add_ps(a11, _mm_mul_ps(w1v, x1v));
    }
    let mut l00 = lanes_f32(a00);
    let mut l01 = lanes_f32(a01);
    let mut l10 = lanes_f32(a10);
    let mut l11 = lanes_f32(a11);
    for j in 4 * quads..k {
        l00[0] += w0[j] * x0[j];
        l01[0] += w1[j] * x0[j];
        l10[0] += w0[j] * x1[j];
        l11[0] += w1[j] * x1[j];
    }
    [
        l00[0] + l00[1] + l00[2] + l00[3],
        l01[0] + l01[1] + l01[2] + l01[3],
        l10[0] + l10[1] + l10[2] + l10[3],
        l11[0] + l11[1] + l11[2] + l11[3],
    ]
}

/// 4×2 GEMM micro-kernel: `[w[0]·x0, …, w[3]·x0, w[0]·x1, …, w[3]·x1]`,
/// each output bitwise identical to [`dot_f32`] (same four lanes, tail
/// into lane 0, left-to-right reduction). Eight `__m128` accumulators
/// plus six operand loads fit in the sixteen xmm registers, so every
/// loaded weight serves two inputs and every loaded input four weights.
#[inline]
pub fn dot4x2_f32(w: [&[f32]; 4], x0: &[f32], x1: &[f32]) -> [f32; 8] {
    let k = x0.len();
    assert!(x1.len() == k && w.iter().all(|r| r.len() == k));
    // SAFETY: SSE2 is baseline on x86_64.
    unsafe { dot4x2_sse2(w, x0, x1) }
}

#[target_feature(enable = "sse2")]
unsafe fn dot4x2_sse2(w: [&[f32]; 4], x0: &[f32], x1: &[f32]) -> [f32; 8] {
    let k = x0.len();
    let quads = k / 4;
    let mut acc = [_mm_setzero_ps(); 8];
    for i in 0..quads {
        // SAFETY: `4 * i + 4 <= k`; all six slices have length `k`.
        let (xv0, xv1, wv) = unsafe {
            let p = 4 * i;
            (
                _mm_loadu_ps(x0.as_ptr().add(p)),
                _mm_loadu_ps(x1.as_ptr().add(p)),
                [
                    _mm_loadu_ps(w[0].as_ptr().add(p)),
                    _mm_loadu_ps(w[1].as_ptr().add(p)),
                    _mm_loadu_ps(w[2].as_ptr().add(p)),
                    _mm_loadu_ps(w[3].as_ptr().add(p)),
                ],
            )
        };
        for (r, &wr) in wv.iter().enumerate() {
            acc[r] = _mm_add_ps(acc[r], _mm_mul_ps(wr, xv0));
            acc[4 + r] = _mm_add_ps(acc[4 + r], _mm_mul_ps(wr, xv1));
        }
    }
    let mut out = [0.0f32; 8];
    for (t, o) in out.iter_mut().enumerate() {
        let (wr, x) = (w[t % 4], if t < 4 { x0 } else { x1 });
        let mut l = lanes_f32(acc[t]);
        for j in 4 * quads..k {
            l[0] += wr[j] * x[j];
        }
        *o = l[0] + l[1] + l[2] + l[3];
    }
    out
}

/// `acc[i] += p * v[i]`. Elementwise, so the vector form performs the
/// exact same multiply-then-add roundings per element as the scalar
/// loop — bitwise identical by construction.
#[inline]
pub fn axpy_f32(acc: &mut [f32], p: f32, v: &[f32]) {
    debug_assert_eq!(acc.len(), v.len());
    // SAFETY: SSE2 is baseline on x86_64.
    unsafe { axpy_sse2(acc, p, v) }
}

#[target_feature(enable = "sse2")]
unsafe fn axpy_sse2(acc: &mut [f32], p: f32, v: &[f32]) {
    let k = acc.len();
    let quads = k / 4;
    let pv = _mm_set1_ps(p);
    let ap = acc.as_mut_ptr();
    for i in 0..quads {
        // SAFETY: `4 * i + 4 <= k`; both slices have length `k`.
        unsafe {
            let a = _mm_loadu_ps(ap.add(4 * i));
            let b = _mm_loadu_ps(v.as_ptr().add(4 * i));
            _mm_storeu_ps(ap.add(4 * i), _mm_add_ps(a, _mm_mul_ps(pv, b)));
        }
    }
    for j in 4 * quads..k {
        acc[j] += p * v[j];
    }
}

/// Exact i32 dot of two i8 slices — the inner loop of the fused
/// block-quantized matmul. Sign-extends 16 bytes at a time to i16 and
/// uses `pmaddwd` to form pairwise i32 products; integer accumulation
/// is exact, so the result is value-identical to the scalar loop
/// regardless of summation order.
#[inline]
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    // SAFETY: SSE2 is baseline on x86_64.
    unsafe { dot_i8_sse2(a, b) }
}

#[target_feature(enable = "sse2")]
unsafe fn dot_i8_sse2(a: &[i8], b: &[i8]) -> i32 {
    let k = a.len();
    let chunks = k / 16;
    let zero = _mm_setzero_si128();
    let mut acc = zero;
    for i in 0..chunks {
        // SAFETY: `16 * i + 16 <= k` and both slices have length `k`.
        let (va, vb) = unsafe {
            (
                _mm_loadu_si128(a.as_ptr().add(16 * i) as *const __m128i),
                _mm_loadu_si128(b.as_ptr().add(16 * i) as *const __m128i),
            )
        };
        // Sign-extend each byte to i16: interleave it into the high
        // byte of a word, then arithmetic-shift back down.
        let a_lo = _mm_srai_epi16::<8>(_mm_unpacklo_epi8(zero, va));
        let a_hi = _mm_srai_epi16::<8>(_mm_unpackhi_epi8(zero, va));
        let b_lo = _mm_srai_epi16::<8>(_mm_unpacklo_epi8(zero, vb));
        let b_hi = _mm_srai_epi16::<8>(_mm_unpackhi_epi8(zero, vb));
        acc = _mm_add_epi32(acc, _mm_madd_epi16(a_lo, b_lo));
        acc = _mm_add_epi32(acc, _mm_madd_epi16(a_hi, b_hi));
    }
    let lanes = lanes_i32(acc);
    let mut sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    for j in 16 * chunks..k {
        sum += i32::from(a[j]) * i32::from(b[j]);
    }
    sum
}

/// Exact i32 dot of a packed-nibble INT4 weight row against i8
/// activations — the inner loop of the W4A8 fused matmul, with the
/// nibble unpack vectorized so weights stay packed in memory.
///
/// `packed` stores two codes per byte (low nibble first) as `q + 8`
/// with `q ∈ [-8, 7]`; `packed.len()` must be `x.len().div_ceil(2)`
/// (an odd `x.len()` uses only the final byte's low nibble). Like
/// [`dot_i8`], integer accumulation is exact, so the result is
/// value-identical to the scalar unpack loop regardless of order.
#[inline]
pub fn dot_i4(packed: &[u8], x: &[i8]) -> i32 {
    debug_assert_eq!(packed.len(), x.len().div_ceil(2));
    // SAFETY: SSE2 is baseline on x86_64.
    unsafe { dot_i4_sse2(packed, x) }
}

#[target_feature(enable = "sse2")]
unsafe fn dot_i4_sse2(packed: &[u8], x: &[i8]) -> i32 {
    let n = x.len();
    // 16 packed bytes = 32 codes per iteration.
    let blocks = n / 32;
    let zero = _mm_setzero_si128();
    let low_mask = _mm_set1_epi8(0x0F);
    let bias = _mm_set1_epi8(8);
    let mut acc = zero;
    for i in 0..blocks {
        // SAFETY: `16*i + 16 <= n/2 <= packed.len()` bytes are readable.
        let p = unsafe { _mm_loadu_si128(packed.as_ptr().add(16 * i) as *const __m128i) };
        // Split the nibbles: `evens` holds codes 0,2,…,30 and `odds`
        // codes 1,3,…,31, each in a byte (still biased, values 0..=15).
        // `_mm_srli_epi16` shifts within 16-bit lanes, so the low mask
        // also clears the bits that crossed a byte boundary.
        let evens = _mm_and_si128(p, low_mask);
        let odds = _mm_and_si128(_mm_srli_epi16::<4>(p), low_mask);
        // Interleaving evens with odds restores natural column order;
        // subtracting the +8 bias maps 0..=15 into -8..=7 (no i8 wrap).
        let w_lo = _mm_sub_epi8(_mm_unpacklo_epi8(evens, odds), bias);
        let w_hi = _mm_sub_epi8(_mm_unpackhi_epi8(evens, odds), bias);
        // SAFETY: `32*i + 32 <= n` and `x` has length `n`.
        let (x_lo, x_hi) = unsafe {
            (
                _mm_loadu_si128(x.as_ptr().add(32 * i) as *const __m128i),
                _mm_loadu_si128(x.as_ptr().add(32 * i + 16) as *const __m128i),
            )
        };
        // Same sign-extend + `pmaddwd` pattern as `dot_i8`.
        for (w, xv) in [(w_lo, x_lo), (w_hi, x_hi)] {
            let a_lo = _mm_srai_epi16::<8>(_mm_unpacklo_epi8(zero, w));
            let a_hi = _mm_srai_epi16::<8>(_mm_unpackhi_epi8(zero, w));
            let b_lo = _mm_srai_epi16::<8>(_mm_unpacklo_epi8(zero, xv));
            let b_hi = _mm_srai_epi16::<8>(_mm_unpackhi_epi8(zero, xv));
            acc = _mm_add_epi32(acc, _mm_madd_epi16(a_lo, b_lo));
            acc = _mm_add_epi32(acc, _mm_madd_epi16(a_hi, b_hi));
        }
    }
    let lanes = lanes_i32(acc);
    let mut sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    for c in 32 * blocks..n {
        let byte = packed[c / 2];
        let q = if c % 2 == 0 { byte & 0x0F } else { byte >> 4 };
        sum += (i32::from(q) - 8) * i32::from(x[c]);
    }
    sum
}

/// Spill a `__m128` to its four f32 lanes (lane 0 first).
#[inline]
fn lanes_f32(v: __m128) -> [f32; 4] {
    let mut out = [0.0f32; 4];
    // SAFETY: `out` is 16 writable bytes; the store is unaligned-safe.
    unsafe { _mm_storeu_ps(out.as_mut_ptr(), v) };
    out
}

/// Spill a `__m128i` to its four i32 lanes (lane 0 first).
#[inline]
fn lanes_i32(v: __m128i) -> [i32; 4] {
    let mut out = [0i32; 4];
    // SAFETY: `out` is 16 writable bytes; the store is unaligned-safe.
    unsafe { _mm_storeu_si128(out.as_mut_ptr() as *mut __m128i, v) };
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::{dot2x2_scalar, dot_unrolled, Matrix};
    use proptest::prelude::*;

    fn vecs(len: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
        let m = Matrix::random(2, len.max(1), seed, 2.0);
        let (a, b) = (m.row(0).to_vec(), m.row(1).to_vec());
        (a[..len].to_vec(), b[..len].to_vec())
    }

    proptest! {
        #[test]
        fn dot_f32_bitwise_identical_to_scalar(len in 0usize..70, seed in 0u64..50) {
            let (a, b) = vecs(len, seed);
            prop_assert_eq!(dot_f32(&a, &b).to_bits(), dot_unrolled(&a, &b).to_bits());
        }

        #[test]
        fn dot2x2_bitwise_identical_to_scalar(len in 1usize..70, seed in 0u64..50) {
            let (w0, w1) = vecs(len, seed);
            let (x0, x1) = vecs(len, seed.wrapping_add(1000));
            let simd = dot2x2_f32(&w0, &w1, &x0, &x1);
            let scalar = dot2x2_scalar(&w0, &w1, &x0, &x1);
            for (s, r) in simd.iter().zip(&scalar) {
                prop_assert_eq!(s.to_bits(), r.to_bits());
            }
        }

        #[test]
        fn dot4x2_bitwise_identical_to_scalar(len in 0usize..70, seed in 0u64..50) {
            let (w0, w1) = vecs(len, seed);
            let (w2, w3) = vecs(len, seed.wrapping_add(500));
            let (x0, x1) = vecs(len, seed.wrapping_add(1000));
            let w = [&w0[..], &w1[..], &w2[..], &w3[..]];
            let simd = dot4x2_f32(w, &x0, &x1);
            for (t, s) in simd.iter().enumerate() {
                let x = if t < 4 { &x0 } else { &x1 };
                prop_assert_eq!(s.to_bits(), dot_unrolled(w[t % 4], x).to_bits());
            }
        }

        #[test]
        fn axpy_bitwise_identical_to_scalar(len in 0usize..70, seed in 0u64..50, p in -3.0f32..3.0) {
            let (acc0, v) = vecs(len, seed);
            let mut simd = acc0.clone();
            axpy_f32(&mut simd, p, &v);
            let mut scalar = acc0;
            for (a, b) in scalar.iter_mut().zip(&v) {
                *a += p * *b;
            }
            for (s, r) in simd.iter().zip(&scalar) {
                prop_assert_eq!(s.to_bits(), r.to_bits());
            }
        }

        #[test]
        fn dot_i8_matches_scalar_exactly(len in 0usize..70, seed in 0u64..50) {
            let (fa, fb) = vecs(len, seed);
            let a: Vec<i8> = fa.iter().map(|v| (v * 60.0) as i8).collect();
            let b: Vec<i8> = fb.iter().map(|v| (v * 60.0) as i8).collect();
            let scalar: i32 = a.iter().zip(&b).map(|(x, y)| i32::from(*x) * i32::from(*y)).sum();
            prop_assert_eq!(dot_i8(&a, &b), scalar);
        }
    }

    #[test]
    fn dot_i8_saturating_inputs() {
        let a = vec![i8::MIN; 33];
        let b = vec![i8::MAX; 33];
        let expect = 33 * i32::from(i8::MIN) * i32::from(i8::MAX);
        assert_eq!(dot_i8(&a, &b), expect);
    }

    proptest! {
        #[test]
        fn dot_i4_matches_scalar_unpack(len in 0usize..100, seed in 0u64..50) {
            let (fa, fb) = vecs(len, seed);
            // Biased nibble codes (q + 8 for q in -8..=7) and i8 activations.
            let codes: Vec<u8> = fa.iter().map(|v| (((v * 4.0) as i32).clamp(-8, 7) + 8) as u8).collect();
            let x: Vec<i8> = fb.iter().map(|v| (v * 60.0) as i8).collect();
            let mut packed = vec![0u8; len.div_ceil(2)];
            for (c, &q) in codes.iter().enumerate() {
                packed[c / 2] |= if c % 2 == 0 { q } else { q << 4 };
            }
            let scalar: i32 = codes
                .iter()
                .zip(&x)
                .map(|(&q, &xv)| (i32::from(q) - 8) * i32::from(xv))
                .sum();
            prop_assert_eq!(dot_i4(&packed, &x), scalar);
        }
    }

    #[test]
    fn dot_i4_extreme_codes() {
        // All codes at the magnitude extremes (-8 and 7) against
        // saturating activations, length straddling the 32-code block.
        let n = 67usize;
        let mut packed = vec![0u8; n.div_ceil(2)];
        for c in 0..n {
            let q = if c % 2 == 0 { 0u8 } else { 15u8 }; // -8, +7 biased
            packed[c / 2] |= if c % 2 == 0 { q } else { q << 4 };
        }
        let x = vec![i8::MIN; n];
        let expect: i32 = (0..n as i32)
            .map(|c| (if c % 2 == 0 { -8 } else { 7 }) * i32::from(i8::MIN))
            .sum();
        assert_eq!(dot_i4(&packed, &x), expect);
    }
}
