//! Explicit SIMD kernels: the engine's kernels on every x86_64 build,
//! in two backends chosen at run time.
//!
//! **Backends.** [`sse2`] (128-bit) runs on every x86_64 CPU: SSE2 is
//! part of the baseline ABI. [`avx2`] (256-bit) runs where CPUID
//! reports AVX2. Each safe entry point below asks
//! `is_x86_feature_detected!("avx2")` and calls one backend; std reads
//! CPUID once per process and caches the answer, so the question costs
//! one atomic load. CPUID is the only input to the choice: there is no
//! build option, environment variable, configuration field or start-up
//! timing. The GEMV dot, the 2×2 and 4×2 tiles, single-query scores and
//! the integer dots have only the SSE2 form; the 4×4 GEMM tile, the
//! four-query scores, the lane weigh, the weighted value sum, the
//! exponential and SwiGLU have both.
//!
//! **Bitwise contract** with the scalar reference kernels in
//! [`crate::tensor`]: the f32 dot products accumulate in *exactly* the
//! scalar order — four partial sums striped over positions mod 4, held
//! as the four lanes of one `__m128` (lane `j` is scalar accumulator
//! `j`), the `len % 4` tail added into lane 0, and the final reduction
//! `l0 + l1 + l2 + l3` performed left-to-right in scalar f32. No FMA is
//! used anywhere, and no function enables the `fma` target feature: a
//! fused multiply-add rounds once where the scalar kernel rounds twice,
//! which would break bitwise equality. The i8 dot accumulates exactly
//! in integers, so vectorization cannot change its value at all.
//!
//! **Two outputs per ymm.** The AVX2 kernels keep that order by giving
//! each 128-bit half of a `__m256` one output's four accumulator
//! lanes: `[q·k_j | q·k_{j+1}]` for attention scores (a query quad
//! broadcast to both halves times two keys' quads), `[w_r·x_a | w_r·x_b]`
//! for the GEMM tile. `unpack{lo,hi}_ps` and `shuffle_ps` never cross
//! the halves, so one in-lane transpose reduces two outputs at once in
//! the SSE2 order. The online-softmax weigh holds two keys per register;
//! its chunk maximum does not depend on order (no NaN enters it; a zero
//! maximum, whose sign does, is rescanned in key order), and its
//! normalizer adds the low half, then the high half: one key at a
//! time, in key order. The weighted sum keeps one multiply and one add
//! per element and row, in row order, eight columns per register.
//! `tests` below assert every kernel of every backend the host supports
//! against the scalar references compiled into the same binary.
//!
//! This is the only module in the crate permitted to use `unsafe`
//! (`lib.rs` forbids it crate-wide on targets other than x86_64, where
//! this module is compiled out).
//! Every unsafe operation is either an in-bounds unaligned load/store
//! whose index arithmetic is visible a line above, or a call into a
//! `#[target_feature]` function: an SSE2 one (baseline, so the feature
//! precondition holds on every CPU this code can run on) or an AVX2 one
//! reached only through [`Isa::Avx2`], whose [`HasAvx2`] proof exists
//! only when CPUID reported the feature.

#![allow(unsafe_code)]

mod avx2;
mod sse2;

/// The instruction set that runs a kernel.
#[derive(Clone, Copy)]
enum Isa {
    /// 128-bit SSE2, present on every x86_64 CPU.
    Sse2,
    /// 256-bit AVX2, with the proof that this CPU has it.
    Avx2(HasAvx2),
}

/// Proof that CPUID reported AVX2: only [`HasAvx2::detect`] makes one.
#[derive(Clone, Copy)]
struct HasAvx2(());

impl HasAvx2 {
    #[inline]
    fn detect() -> Option<Self> {
        is_x86_feature_detected!("avx2").then_some(Self(()))
    }
}

impl Isa {
    /// The widest backend this CPU runs.
    #[inline]
    fn detect() -> Self {
        HasAvx2::detect().map_or(Isa::Sse2, Isa::Avx2)
    }
}

/// Name of the backend the dispatched kernels run on this CPU:
/// `"x86_64-avx2"` or `"x86_64-sse2"`.
pub fn backend() -> &'static str {
    match Isa::detect() {
        Isa::Sse2 => "x86_64-sse2",
        Isa::Avx2(_) => "x86_64-avx2",
    }
}

/// f32 dot product, bitwise identical to [`crate::tensor::dot_unrolled`].
#[inline]
pub fn dot_f32(row: &[f32], x: &[f32]) -> f32 {
    assert_eq!(row.len(), x.len());
    // SAFETY: SSE2 is baseline on x86_64; both slices have one length.
    unsafe { sse2::dot_f32(row, x) }
}

/// 2×2 GEMM micro-kernel (`[w0·x0, w1·x0, w0·x1, w1·x1]`), bitwise
/// identical to the scalar `dot2x2` in [`crate::tensor`]: each output's
/// four accumulator lanes and final reduction match [`dot_f32`].
#[inline]
pub fn dot2x2_f32(w0: &[f32], w1: &[f32], x0: &[f32], x1: &[f32]) -> [f32; 4] {
    let k = w0.len();
    assert!(w1.len() == k && x0.len() == k && x1.len() == k);
    // SAFETY: SSE2 is baseline on x86_64; all four slices have length `k`.
    unsafe { sse2::dot2x2(w0, w1, x0, x1) }
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
    let mut out = [0.0f32; 8];
    // SAFETY: SSE2 is baseline on x86_64; all six slices have length `k`.
    unsafe { sse2::dot4x2(w, x0, x1, &mut out) };
    out
}

/// 4×4 GEMM micro-kernel: `out[4 * i + r] = w[r] · x[i]`, each output
/// bitwise identical to [`dot_f32`]. AVX2 runs it as one register tile
/// (two inputs per ymm); SSE2 as two [`dot4x2_f32`] calls.
#[inline]
pub fn dot4x4_f32(w: [&[f32]; 4], x: [&[f32]; 4]) -> [f32; 16] {
    dot4x4_on(Isa::detect(), w, x)
}

fn dot4x4_on(isa: Isa, w: [&[f32]; 4], x: [&[f32]; 4]) -> [f32; 16] {
    let k = x[0].len();
    assert!(w.iter().chain(&x).all(|r| r.len() == k));
    let mut out = [0.0f32; 16];
    match isa {
        Isa::Sse2 => {
            out[..8].copy_from_slice(&dot4x2_f32(w, x[0], x[1]));
            out[8..].copy_from_slice(&dot4x2_f32(w, x[2], x[3]));
        }
        // SAFETY: `HasAvx2` proves the CPU feature; all eight slices
        // have length `k` (asserted).
        Isa::Avx2(_) => unsafe { avx2::dot4x4(w, x, &mut out) },
    }
    out
}

/// Attention scores of four queries against `n = out.len() / 4` keys,
/// query-interleaved: `out[4 * j + i] = (q[i] · key_j) · scale`, with
/// key `j` at `keys[j * stride..][..d]`. SSE2 runs key pairs through
/// the 4×2 tile (an odd last key pairs with itself), AVX2 groups of
/// four keys through the 4×4 tile (the last one to three through
/// SSE2), so every score is bitwise `dot_f32(q[i], key_j) * scale`.
#[inline]
pub fn score4_f32(q: [&[f32]; 4], keys: &[f32], stride: usize, scale: f32, out: &mut [f32]) {
    score4_on(Isa::detect(), q, keys, stride, scale, out);
}

fn score4_on(isa: Isa, q: [&[f32]; 4], keys: &[f32], stride: usize, scale: f32, out: &mut [f32]) {
    let d = q[0].len();
    let n = out.len() / 4;
    assert!(out.len().is_multiple_of(4) && q.iter().all(|r| r.len() == d));
    assert!(
        n == 0 || keys.len() >= (n - 1) * stride + d,
        "key slab too short"
    );
    // SAFETY (both arms): the asserts above bound every key row and
    // output store; SSE2 is baseline, and `HasAvx2` proves AVX2.
    match isa {
        Isa::Sse2 => unsafe { sse2::score4(q, keys, stride, scale, out) },
        Isa::Avx2(_) => unsafe { avx2::score4(q, keys, stride, scale, out) },
    }
}

/// Attention scores of one query against `n = out.len()` keys:
/// `out[j] = (q · key_j) · scale`, with key `j` at
/// `keys[j * stride..][..d]`. Four keys go through the tile as its
/// weight rows (the last group padded by repeating its last key), so
/// every score is bitwise `dot_f32(q, key_j) * scale`.
#[inline]
pub fn score1_f32(q: &[f32], keys: &[f32], stride: usize, scale: f32, out: &mut [f32]) {
    let (d, n) = (q.len(), out.len());
    assert!(
        n == 0 || keys.len() >= (n - 1) * stride + d,
        "key slab too short"
    );
    // SAFETY: SSE2 is baseline on x86_64; the assert bounds every key row.
    unsafe { sse2::score1(q, keys, stride, scale, out) }
}

/// The weigh step of four online-softmax rows at once, lane `i` being
/// row `i`: `w[4 * j + i]` is row `i`'s score at key `j`, `m[i]` and
/// `l[i]` its running maximum and normalizer. Per lane this performs
/// exactly `OnlineSoftmax::weigh`'s operations — chunk maximum,
/// rescale factor `exp(m − m_new)` when the maximum rises over a
/// nonzero normalizer, `p_j = exp(s_j − m)`, and `l += p_j` in key
/// order — so each lane is bitwise the scalar fold.
///
/// Returns, per lane, whether anything may be folded (`false` when
/// every score seen so far is `-inf`; that lane's `w` entries are then
/// garbage and its `m`, `l` unchanged) and, when the maximum rose over
/// a nonzero normalizer, the factor the lane's accumulator must be
/// multiplied by.
#[inline]
pub fn weigh4_f32(
    w: &mut [f32],
    m: &mut [f32; 4],
    l: &mut [f32; 4],
) -> ([bool; 4], [Option<f32>; 4]) {
    weigh4_on(Isa::detect(), w, m, l)
}

fn weigh4_on(
    isa: Isa,
    w: &mut [f32],
    m: &mut [f32; 4],
    l: &mut [f32; 4],
) -> ([bool; 4], [Option<f32>; 4]) {
    assert!(w.len().is_multiple_of(4), "lane-interleaved scores");
    // SAFETY (both arms): `w` holds whole 4-lane rows; SSE2 is
    // baseline, and `HasAvx2` proves AVX2.
    match isa {
        Isa::Sse2 => unsafe { sse2::weigh4(w, m, l) },
        Isa::Avx2(_) => unsafe { avx2::weigh4(w, m, l) },
    }
}

/// `x[i] = exp_f32(x[i])`, bitwise identical to the scalar loop: the
/// vector form performs `exp_f32`'s IEEE operations per lane, and the
/// tail runs the scalar function.
#[inline]
pub fn exp_in_place(x: &mut [f32]) {
    exp_in_place_on(Isa::detect(), x);
}

fn exp_in_place_on(isa: Isa, x: &mut [f32]) {
    // SAFETY (both arms): SSE2 is baseline, and `HasAvx2` proves AVX2.
    match isa {
        Isa::Sse2 => unsafe { sse2::exp_in_place(x) },
        Isa::Avx2(_) => unsafe { avx2::exp_in_place(x) },
    }
}

/// SwiGLU activation `gate[i] = silu(gate[i]) * up[i]` with
/// `silu(g) = g / (1 + exp(-g))`: negation, exponential, add, divide
/// and multiply per lane — the scalar `silu`'s operations, so bitwise
/// identical to it.
#[inline]
pub fn silu_mul(gate: &mut [f32], up: &[f32]) {
    silu_mul_on(Isa::detect(), gate, up);
}

fn silu_mul_on(isa: Isa, gate: &mut [f32], up: &[f32]) {
    assert_eq!(gate.len(), up.len());
    // SAFETY (both arms): both slices have one length; SSE2 is
    // baseline, and `HasAvx2` proves AVX2.
    match isa {
        Isa::Sse2 => unsafe { sse2::silu_mul(gate, up) },
        Isa::Avx2(_) => unsafe { avx2::silu_mul(gate, up) },
    }
}

/// Weighted value sums for `Q` queries in one pass over the shared
/// value rows: `accs[q][e] += weights[q][j * wstride] * vals[j * stride + e]`
/// for `j in 0..n`, in `j` order. Columns go in register strips held
/// across all `n` rows (16 columns per strip on both backends, then 8
/// on AVX2, 4, and a scalar tail), and each element takes one multiply
/// and one add per row in row order — the roundings of a per-row axpy,
/// so any `Q` and either backend gives the same bits.
#[inline]
pub fn weighted_sum_f32<const Q: usize>(
    accs: [&mut [f32]; Q],
    weights: [&[f32]; Q],
    wstride: usize,
    vals: &[f32],
    stride: usize,
    n: usize,
) {
    weighted_sum_on(Isa::detect(), accs, weights, wstride, vals, stride, n);
}

fn weighted_sum_on<const Q: usize>(
    isa: Isa,
    accs: [&mut [f32]; Q],
    weights: [&[f32]; Q],
    wstride: usize,
    vals: &[f32],
    stride: usize,
    n: usize,
) {
    let d = accs.first().map_or(0, |a| a.len());
    assert!(accs.iter().all(|a| a.len() == d), "accumulator widths");
    assert!(
        n == 0 || vals.len() >= (n - 1) * stride + d,
        "value slab too short"
    );
    assert!(
        n == 0 || weights.iter().all(|w| w.len() > (n - 1) * wstride),
        "weights too short"
    );
    // SAFETY (both arms): the asserts bound every load; SSE2 is
    // baseline, and `HasAvx2` proves AVX2.
    match isa {
        Isa::Sse2 => unsafe { sse2::weighted_sum(accs, weights, wstride, vals, stride, n) },
        Isa::Avx2(_) => unsafe { avx2::weighted_sum(accs, weights, wstride, vals, stride, n) },
    }
}

/// Exact i32 dot of two i8 slices — the inner loop of the fused
/// block-quantized matmul. Sign-extends 16 bytes at a time to i16 and
/// uses `pmaddwd` to form pairwise i32 products; integer accumulation
/// is exact, so the result is value-identical to the scalar loop
/// regardless of summation order.
#[inline]
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    assert_eq!(a.len(), b.len());
    // SAFETY: SSE2 is baseline on x86_64; both slices have one length.
    unsafe { sse2::dot_i8(a, b) }
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
    assert_eq!(packed.len(), x.len().div_ceil(2));
    // SAFETY: SSE2 is baseline on x86_64; `packed` covers every code.
    unsafe { sse2::dot_i4(packed, x) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::{
        dot2x2_scalar, dot_unrolled, exp_f32, silu, Matrix, EXP_HI, EXP_LO, EXP_LOG2E,
    };
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
        fn dot_i8_matches_scalar_exactly(len in 0usize..70, seed in 0u64..50) {
            let (fa, fb) = vecs(len, seed);
            let a: Vec<i8> = fa.iter().map(|v| (v * 60.0) as i8).collect();
            let b: Vec<i8> = fb.iter().map(|v| (v * 60.0) as i8).collect();
            let scalar: i32 = a.iter().zip(&b).map(|(x, y)| i32::from(*x) * i32::from(*y)).sum();
            prop_assert_eq!(dot_i8(&a, &b), scalar);
        }
    }

    /// Edge inputs of the exponential: NaNs (quiet, signaling,
    /// negative), infinities, signed zeros, subnormals, and every
    /// threshold one ulp either side.
    fn exp_edges() -> Vec<f32> {
        let mut xs = vec![
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7F80_0001),
            f32::from_bits(0xFFC0_1234),
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::from_bits(0x007F_FFFF),
            -f32::from_bits(0x007F_FFFF),
            f32::MAX,
            f32::MIN,
        ];
        for t in [EXP_HI, EXP_LO, 89.0, 0.5 / EXP_LOG2E, -0.5 / EXP_LOG2E] {
            xs.extend([-1i32, 0, 1].map(|u| f32::from_bits((t.to_bits() as i32 + u) as u32)));
        }
        xs
    }

    fn exp_simd(xs: &[f32]) -> Vec<f32> {
        let mut v = xs.to_vec();
        exp_in_place(&mut v);
        v
    }

    #[test]
    fn exp_edges_bitwise_identical_to_scalar() {
        let xs = exp_edges();
        for (x, y) in xs.iter().zip(exp_simd(&xs)) {
            assert_eq!(y.to_bits(), exp_f32(*x).to_bits(), "exp({x:e})");
        }
    }

    proptest! {
        #[test]
        fn exp_bitwise_identical_to_scalar(words in proptest::collection::vec(0u32..=u32::MAX, 0..23)) {
            // Arbitrary bit patterns, in every lane position and tail.
            let xs: Vec<f32> = words.into_iter().map(f32::from_bits).collect();
            for (x, y) in xs.iter().zip(exp_simd(&xs)) {
                prop_assert_eq!(y.to_bits(), exp_f32(*x).to_bits(), "exp({:e})", x);
            }
        }

        #[test]
        fn silu_mul_bitwise_identical_to_scalar(len in 0usize..40, seed in 0u64..50, spread in 0.1f32..120.0) {
            let (g, u) = vecs(len, seed);
            let mut gate: Vec<f32> = g.iter().map(|v| v * spread).collect();
            let scalar: Vec<f32> = gate.iter().zip(&u).map(|(g, u)| silu(*g) * u).collect();
            silu_mul(&mut gate, &u);
            for (s, r) in gate.iter().zip(&scalar) {
                prop_assert_eq!(s.to_bits(), r.to_bits());
            }
        }

        #[test]
        fn scores_bitwise_identical_to_scaled_dots(
            d in 1usize..40,
            n in 0usize..11,
            pad in 0usize..3,
            seed in 0u64..50,
        ) {
            // Four queries (lanes = queries) and one query (lanes =
            // keys) against `n` strided keys, odd counts included.
            let stride = d + pad;
            let keys = Matrix::random(n.max(1), stride, seed, 1.0);
            let qm = Matrix::random(4, d, seed + 1, 1.0);
            let q: [&[f32]; 4] = std::array::from_fn(|i| qm.row(i));
            let key = |j: usize| &keys.row(j)[..d];
            let mut four = vec![0.0f32; 4 * n];
            score4_f32(q, keys.data(), stride, 0.3, &mut four);
            let mut one = vec![0.0f32; n];
            score1_f32(q[1], keys.data(), stride, 0.3, &mut one);
            for j in 0..n {
                for i in 0..4 {
                    let want = dot_unrolled(q[i], key(j)) * 0.3;
                    prop_assert_eq!(four[4 * j + i].to_bits(), want.to_bits());
                }
                prop_assert_eq!(one[j].to_bits(), (dot_unrolled(q[1], key(j)) * 0.3).to_bits());
            }
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

    /// Every backend this CPU runs: SSE2 always, AVX2 when CPUID reports
    /// it (a skip is printed otherwise, so the AVX2 half of a test never
    /// passes silently on a host that cannot run it).
    fn backends() -> Vec<(&'static str, Isa)> {
        let mut isas = vec![("sse2", Isa::Sse2)];
        match HasAvx2::detect() {
            Some(proof) => isas.push(("avx2", Isa::Avx2(proof))),
            None => println!("skipped: CPUID reports no AVX2, only SSE2 tested"),
        }
        isas
    }

    /// `n` floats of a seeded uniform draw in ±`scale`.
    fn draw(n: usize, seed: u64, scale: f32) -> Vec<f32> {
        Matrix::random(1, n.max(1), seed, scale).data()[..n].to_vec()
    }

    /// Pseudo-random f32 bit patterns: every class (NaN payloads,
    /// infinities, subnormals, zeros of both signs) turns up.
    fn bit_patterns(n: usize, seed: u64) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                f32::from_bits((s >> 16) as u32)
            })
            .collect()
    }

    #[test]
    fn backend_names_the_cpuid_choice() {
        let want = if is_x86_feature_detected!("avx2") {
            "x86_64-avx2"
        } else {
            "x86_64-sse2"
        };
        assert_eq!(backend(), want);
        assert_eq!(crate::tensor::kernel_backend(), want);
    }

    #[test]
    fn tile4x4_is_bitwise_dot_unrolled_on_every_backend() {
        // Every `len % 4`, from empty rows to several quads.
        for (name, isa) in backends() {
            for len in 0..=37 {
                for seed in 0..3 {
                    let wm = Matrix::random(4, len.max(1), seed, 2.0);
                    let xm = Matrix::random(4, len.max(1), seed + 100, 2.0);
                    let w: [&[f32]; 4] = std::array::from_fn(|r| &wm.row(r)[..len]);
                    let x: [&[f32]; 4] = std::array::from_fn(|i| &xm.row(i)[..len]);
                    let out = dot4x4_on(isa, w, x);
                    for (t, o) in out.iter().enumerate() {
                        let want = dot_unrolled(w[t % 4], x[t / 4]);
                        assert_eq!(o.to_bits(), want.to_bits(), "{name} len {len} out {t}");
                    }
                }
            }
        }
    }

    #[test]
    fn score4_is_bitwise_scaled_dots_on_every_backend() {
        // Odd and fewer-than-four key counts, head widths around the
        // quad boundary, and key strides wider than the head.
        for (name, isa) in backends() {
            for d in [1, 3, 4, 5, 8, 15, 16, 17, 33] {
                for n in 0..=11 {
                    for pad in [0, 3] {
                        let stride = d + pad;
                        let keys = Matrix::random(n.max(1), stride, (d * 31 + n) as u64, 1.0);
                        let qm = Matrix::random(4, d, n as u64, 1.0);
                        let q: [&[f32]; 4] = std::array::from_fn(|i| qm.row(i));
                        let mut out = vec![f32::NAN; 4 * n];
                        score4_on(isa, q, keys.data(), stride, 0.3, &mut out);
                        for j in 0..n {
                            for (i, qi) in q.iter().enumerate() {
                                let want = dot_unrolled(qi, &keys.row(j)[..d]) * 0.3;
                                assert_eq!(
                                    out[4 * j + i].to_bits(),
                                    want.to_bits(),
                                    "{name} d {d} n {n} stride {stride} key {j} query {i}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// The weigh of four lanes one lane and one key at a time, in plain
    /// scalar f32: `OnlineSoftmax::weigh`'s operations, with the chunk
    /// maximum kept as `maxps` keeps it (a later score replaces it only
    /// when strictly greater), so even a zero maximum's sign is defined.
    fn weigh_reference(
        w: &mut [f32],
        m: &mut [f32; 4],
        l: &mut [f32; 4],
    ) -> ([bool; 4], [Option<f32>; 4]) {
        let (mut live, mut corr) = ([false; 4], [None; 4]);
        for i in 0..4 {
            let lane = w.iter().skip(i).step_by(4);
            let cmax = lane.fold(f32::NEG_INFINITY, |c, &s| if s > c { s } else { c });
            let m_new = if cmax > m[i] { cmax } else { m[i] };
            if m_new == f32::NEG_INFINITY {
                continue;
            }
            live[i] = true;
            if m_new > m[i] {
                if l[i] != 0.0 {
                    let c = exp_f32(m[i] - m_new);
                    l[i] *= c;
                    corr[i] = Some(c);
                }
                m[i] = m_new;
            }
            for s in w.iter_mut().skip(i).step_by(4) {
                *s = exp_f32(*s - m[i]);
                l[i] += *s;
            }
        }
        (live, corr)
    }

    /// One weigh scenario: `n` keys of four lanes drawn from `seed`;
    /// lane `i` is fully `-inf` when bit `i` of `masked` is set, starts
    /// fresh (`m = -inf`, `l = 0`) when bit `i` of `fresh` is set, and
    /// otherwise carries a running maximum around the scores' range over
    /// a nonzero normalizer, so maxima rise or hold. `nan` puts a NaN at
    /// that flat index; `zeros` makes every score nonpositive with
    /// zeros of both signs, so the maximum is a signed zero.
    fn weigh_case(
        n: usize,
        seed: u64,
        masked: u8,
        fresh: u8,
        nan: Option<usize>,
        zeros: bool,
    ) -> (Vec<f32>, [f32; 4], [f32; 4]) {
        let mut w = draw(4 * n, seed, 6.0);
        if zeros {
            for (k, s) in w.iter_mut().enumerate() {
                *s = match k % 7 {
                    2 => -0.0,
                    5 => 0.0,
                    _ => -s.abs(),
                };
            }
        }
        for (k, s) in w.iter_mut().enumerate() {
            if masked >> (k % 4) & 1 == 1 {
                *s = f32::NEG_INFINITY;
            }
        }
        if let Some(k) = nan.filter(|&k| k < w.len()) {
            w[k] = f32::NAN;
        }
        let warm = draw(8, seed + 7, 8.0);
        let m = std::array::from_fn(|i| match fresh >> i & 1 {
            1 => f32::NEG_INFINITY,
            _ => warm[i],
        });
        let l = std::array::from_fn(|i| match fresh >> i & 1 {
            1 => 0.0,
            _ => 1.0 + warm[4 + i].abs(),
        });
        (w, m, l)
    }

    fn check_weigh(isa: Isa, name: &str, case: (Vec<f32>, [f32; 4], [f32; 4]), what: &str) {
        let (w0, m0, l0) = case;
        let (mut w, mut m, mut l) = (w0.clone(), m0, l0);
        let got = weigh4_on(isa, &mut w, &mut m, &mut l);
        let (mut rw, mut rm, mut rl) = (w0, m0, l0);
        let (live, corr) = weigh_reference(&mut rw, &mut rm, &mut rl);
        assert_eq!(got.0, live, "{name} {what}: live lanes");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let corr_bits = |c: &[Option<f32>; 4]| c.map(|c| c.map(f32::to_bits));
        assert_eq!(
            corr_bits(&got.1),
            corr_bits(&corr),
            "{name} {what}: rescale"
        );
        assert_eq!(bits(&m), bits(&rm), "{name} {what}: maxima");
        assert_eq!(bits(&l), bits(&rl), "{name} {what}: normalizers");
        for i in (0..4).filter(|&i| live[i]) {
            let lane = |v: &[f32]| bits(&v.iter().skip(i).step_by(4).copied().collect::<Vec<_>>());
            assert_eq!(lane(&w), lane(&rw), "{name} {what}: lane {i} weights");
        }
    }

    #[test]
    fn weigh4_is_bitwise_the_scalar_weigh_on_every_backend() {
        for (name, isa) in backends() {
            for n in 0..=19 {
                for seed in 0..4u64 {
                    for (masked, fresh) in [(0, 0), (0b0101, 0b0011), (0b1111, 0), (0, 0b1111)] {
                        let what =
                            format!("n {n} seed {seed} masked {masked:04b} fresh {fresh:04b}");
                        check_weigh(
                            isa,
                            name,
                            weigh_case(n, seed, masked, fresh, None, false),
                            &what,
                        );
                        let nan = Some(seed as usize * 5 + 2);
                        check_weigh(
                            isa,
                            name,
                            weigh_case(n, seed, masked, fresh, nan, false),
                            &format!("{what} NaN"),
                        );
                        check_weigh(
                            isa,
                            name,
                            weigh_case(n, seed, masked, fresh, None, true),
                            &format!("{what} zeros"),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn weighted_sum_is_bitwise_per_row_axpys_on_every_backend() {
        // Every register strip (16, 8 and 4 columns) and the scalar
        // tail, for one, two and four queries, over strided value rows.
        fn check<const Q: usize>(isa: Isa, name: &str, d: usize, n: usize, pad: usize) {
            let stride = d + pad;
            let vals = draw(n.max(1) * stride, (d * 13 + n) as u64, 1.0);
            let wm = Matrix::random(Q, (4 * n).max(1), n as u64 + 3, 1.0);
            let weights: [&[f32]; Q] = std::array::from_fn(|q| wm.row(q));
            let init = draw(Q * d, d as u64 + 5, 1.0);
            let (mut got, mut want) = (init.clone(), init);
            {
                let mut rows = got.chunks_exact_mut(d);
                let accs: [&mut [f32]; Q] = std::array::from_fn(|_| rows.next().unwrap());
                weighted_sum_on(isa, accs, weights, 4, &vals, stride, n);
            }
            for (q, acc) in want.chunks_exact_mut(d).enumerate() {
                for j in 0..n {
                    let p = weights[q][4 * j];
                    for (a, v) in acc.iter_mut().zip(&vals[j * stride..][..d]) {
                        *a += p * v;
                    }
                }
            }
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&got),
                bits(&want),
                "{name} Q {Q} d {d} n {n} pad {pad}"
            );
        }
        for (name, isa) in backends() {
            for d in [4, 8, 12, 16, 20, 40] {
                for n in [0, 1, 2, 5, 16, 33] {
                    for pad in [0, 3] {
                        check::<1>(isa, name, d, n, pad);
                        check::<2>(isa, name, d, n, pad);
                        check::<4>(isa, name, d, n, pad);
                    }
                }
            }
        }
    }

    #[test]
    fn exp_is_bitwise_scalar_on_every_backend_at_every_tail() {
        // The edge list and arbitrary bit patterns, each at every length
        // 0..=17 and every starting offset, so every value meets every
        // lane of an 8-lane and a 4-lane register and the scalar tail.
        let mut xs = exp_edges();
        xs.extend(bit_patterns(400, 11));
        for (name, isa) in backends() {
            for len in 0..=17 {
                for at in 0..xs.len().saturating_sub(len) {
                    let mut v = xs[at..at + len].to_vec();
                    exp_in_place_on(isa, &mut v);
                    for (x, y) in xs[at..].iter().zip(&v) {
                        assert_eq!(
                            y.to_bits(),
                            exp_f32(*x).to_bits(),
                            "{name} exp({x:e}) len {len}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn silu_mul_is_bitwise_scalar_on_every_backend_at_every_tail() {
        let mut gates = exp_edges();
        gates.extend(bit_patterns(200, 12));
        gates.extend(draw(200, 13, 90.0));
        let ups = draw(gates.len(), 14, 3.0);
        for (name, isa) in backends() {
            for len in 0..=17 {
                for at in 0..gates.len().saturating_sub(len) {
                    let (g, u) = (&gates[at..at + len], &ups[at..at + len]);
                    let mut got = g.to_vec();
                    silu_mul_on(isa, &mut got, u);
                    for ((x, y), v) in g.iter().zip(u).zip(&got) {
                        let want = silu(*x) * y;
                        assert_eq!(v.to_bits(), want.to_bits(), "{name} silu({x:e}) * {y:e}");
                    }
                }
            }
        }
    }
}
