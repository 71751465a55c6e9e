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

use crate::tensor::{
    exp_f32, silu, EXP_HI, EXP_LN2_HI, EXP_LN2_LO, EXP_LO, EXP_LOG2E, EXP_MAGIC, EXP_POLY,
};
use std::arch::x86_64::{
    __m128, __m128i, _mm_add_epi32, _mm_add_ps, _mm_and_ps, _mm_and_si128, _mm_andnot_ps,
    _mm_castps_si128, _mm_castsi128_ps, _mm_cmpeq_ps, _mm_cmpgt_ps, _mm_cmplt_ps, _mm_cmpneq_ps,
    _mm_div_ps, _mm_loadu_ps, _mm_loadu_si128, _mm_madd_epi16, _mm_max_ps, _mm_min_ps,
    _mm_movehl_ps, _mm_movelh_ps, _mm_movemask_ps, _mm_mul_ps, _mm_or_ps, _mm_set1_epi8,
    _mm_set1_ps, _mm_set_ps, _mm_setzero_ps, _mm_setzero_si128, _mm_slli_epi32, _mm_srai_epi16,
    _mm_srli_epi16, _mm_storeu_ps, _mm_storeu_si128, _mm_sub_epi32, _mm_sub_epi8, _mm_sub_ps,
    _mm_unpackhi_epi8, _mm_unpackhi_ps, _mm_unpacklo_epi8, _mm_unpacklo_ps, _mm_xor_ps,
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
    let mut out = [0.0f32; 8];
    // SAFETY: SSE2 is baseline on x86_64; all six slices have length
    // `k` (asserted), and `out` holds the two 4-lane stores.
    unsafe {
        let [y0, y1] = dot4xn_sse2(w, [x0, x1]);
        _mm_storeu_ps(out.as_mut_ptr(), y0);
        _mm_storeu_ps(out.as_mut_ptr().add(4), y1);
    }
    out
}

/// The 4×`X` tile as vectors `[w[r]·x[i]]_r`, one per input. The
/// `4 · X` accumulators are reduced in registers: a 4×4 transpose puts
/// lane `j` of every accumulator into vector `t_j`, the `len % 4` tail
/// is added into `t_0` element by element, and `((t0 + t1) + t2) + t3`
/// is then each output's left-to-right lane sum — [`dot_f32`]'s order.
///
/// # Safety
/// Every slice in `w` and `x` must be at least `x[0].len()` long.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn dot4xn_sse2<const X: usize>(w: [&[f32]; 4], x: [&[f32]; X]) -> [__m128; X] {
    let k = x[0].len();
    let quads = k / 4;
    let mut acc = [[_mm_setzero_ps(); 4]; X];
    for i in 0..quads {
        // SAFETY: `4 * i + 4 <= k` and every slice holds `k` floats.
        let (xv, wv) = unsafe {
            let p = 4 * i;
            (
                x.map(|xr| _mm_loadu_ps(xr.as_ptr().add(p))),
                w.map(|wr| _mm_loadu_ps(wr.as_ptr().add(p))),
            )
        };
        for (ai, &xi) in acc.iter_mut().zip(&xv) {
            for (a, &wr) in ai.iter_mut().zip(&wv) {
                *a = _mm_add_ps(*a, _mm_mul_ps(wr, xi));
            }
        }
    }
    let mut out = [_mm_setzero_ps(); X];
    for ((o, ai), xr) in out.iter_mut().zip(&acc).zip(x) {
        let mut t = transpose4(ai[0], ai[1], ai[2], ai[3]);
        for j in 4 * quads..k {
            let wj = _mm_set_ps(w[3][j], w[2][j], w[1][j], w[0][j]);
            t[0] = _mm_add_ps(t[0], _mm_mul_ps(wj, _mm_set1_ps(xr[j])));
        }
        *o = _mm_add_ps(_mm_add_ps(_mm_add_ps(t[0], t[1]), t[2]), t[3]);
    }
    out
}

/// 4×4 transpose: vector `j` of the result holds lane `j` of `a0..a3`.
#[inline]
#[target_feature(enable = "sse2")]
fn transpose4(a0: __m128, a1: __m128, a2: __m128, a3: __m128) -> [__m128; 4] {
    let lo01 = _mm_unpacklo_ps(a0, a1);
    let lo23 = _mm_unpacklo_ps(a2, a3);
    let hi01 = _mm_unpackhi_ps(a0, a1);
    let hi23 = _mm_unpackhi_ps(a2, a3);
    [
        _mm_movelh_ps(lo01, lo23),
        _mm_movehl_ps(lo23, lo01),
        _mm_movelh_ps(hi01, hi23),
        _mm_movehl_ps(hi23, hi01),
    ]
}

/// Attention scores of four queries against `n = out.len() / 4` keys,
/// query-interleaved: `out[4 * j + i] = (q[i] · key_j) · scale`, with
/// key `j` at `keys[j * stride..][..d]`. Keys go through the 4×2 tile
/// two at a time (an odd last key pairs with itself), so every score is
/// bitwise `dot_f32(q[i], key_j) * scale`, written four lanes at once.
#[inline]
pub fn score4_f32(q: [&[f32]; 4], keys: &[f32], stride: usize, scale: f32, out: &mut [f32]) {
    let d = q[0].len();
    let n = out.len() / 4;
    assert!(out.len().is_multiple_of(4) && q.iter().all(|r| r.len() == d));
    assert!(
        n == 0 || keys.len() >= (n - 1) * stride + d,
        "key slab too short"
    );
    // SAFETY: SSE2 is baseline on x86_64; the asserts above bound every
    // key row and output store.
    unsafe { score4_sse2(q, keys, stride, scale, out) }
}

/// # Safety
/// `out.len()` must be `4 * n`, every `q[i]` must have length `d`, and
/// `keys` must hold `(n - 1) * stride + d` floats when `n > 0`.
#[target_feature(enable = "sse2")]
unsafe fn score4_sse2(q: [&[f32]; 4], keys: &[f32], stride: usize, scale: f32, out: &mut [f32]) {
    let d = q[0].len();
    let n = out.len() / 4;
    let sv = _mm_set1_ps(scale);
    let key = |j: usize| &keys[j * stride..][..d];
    let op = out.as_mut_ptr();
    let mut j = 0;
    while j < n {
        let k1 = key((j + 1).min(n - 1));
        // SAFETY: `q` rows and both keys have length `d`; stores land
        // in `out[4 * j..4 * j + 8]` (the second only when `j + 1 < n`).
        unsafe {
            let [y0, y1] = dot4xn_sse2(q, [key(j), k1]);
            _mm_storeu_ps(op.add(4 * j), _mm_mul_ps(y0, sv));
            if j + 1 < n {
                _mm_storeu_ps(op.add(4 * j + 4), _mm_mul_ps(y1, sv));
            }
        }
        j += 2;
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
    unsafe { score1_sse2(q, keys, stride, scale, out) }
}

/// # Safety
/// `keys` must hold `(out.len() - 1) * stride + q.len()` floats when
/// `out` is nonempty.
#[target_feature(enable = "sse2")]
unsafe fn score1_sse2(q: &[f32], keys: &[f32], stride: usize, scale: f32, out: &mut [f32]) {
    let (d, n) = (q.len(), out.len());
    let sv = _mm_set1_ps(scale);
    let key = |j: usize| &keys[j.min(n - 1) * stride..][..d];
    for (g, o) in out.chunks_mut(4).enumerate() {
        let j = 4 * g;
        // SAFETY: every key row and `q` have length `d`.
        let [y] = unsafe { dot4xn_sse2([key(j), key(j + 1), key(j + 2), key(j + 3)], [q]) };
        let mut lanes = [0.0f32; 4];
        // SAFETY: `lanes` is 16 writable bytes.
        unsafe { _mm_storeu_ps(lanes.as_mut_ptr(), _mm_mul_ps(y, sv)) };
        o.copy_from_slice(&lanes[..o.len()]);
    }
}

/// The weigh step of four online-softmax rows at once, lane `i` being
/// row `i`: `w[4 * j + i]` is row `i`'s score at key `j`, `m[i]` and
/// `l[i]` its running maximum and normalizer. Per lane this performs
/// exactly `OnlineSoftmax::weigh`'s operations — chunk maximum,
/// rescale factor `exp(m − m_new)` when the maximum rises over a
/// nonzero normalizer, `p_j = exp(s_j − m)` through [`exp4`], and
/// `l += p_j` in key order — so each lane is bitwise the scalar fold.
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
    assert!(w.len().is_multiple_of(4), "lane-interleaved scores");
    // SAFETY: SSE2 is baseline on x86_64; `w` holds whole 4-lane rows.
    unsafe { weigh4_sse2(w, m, l) }
}

/// # Safety
/// `w.len()` must be a multiple of 4.
#[target_feature(enable = "sse2")]
unsafe fn weigh4_sse2(
    w: &mut [f32],
    m: &mut [f32; 4],
    l: &mut [f32; 4],
) -> ([bool; 4], [Option<f32>; 4]) {
    let rows = w.len() / 4;
    let wp = w.as_mut_ptr();
    // SAFETY (all loads and stores below): `4 * j + 4 <= w.len()` for
    // `j < rows`; `m` and `l` are 4-float arrays.
    let (m_old, l_old) = unsafe { (_mm_loadu_ps(m.as_ptr()), _mm_loadu_ps(l.as_ptr())) };
    let mut cmax = _mm_set1_ps(f32::NEG_INFINITY);
    for j in 0..rows {
        // `maxps(s, c)` yields `c` when `s` is NaN: `f32::max`'s rule.
        cmax = _mm_max_ps(unsafe { _mm_loadu_ps(wp.add(4 * j)) }, cmax);
    }
    let m_new = _mm_max_ps(cmax, m_old);
    let live = _mm_cmpneq_ps(m_new, _mm_set1_ps(f32::NEG_INFINITY));
    let rises = _mm_cmpgt_ps(m_new, m_old);
    let rescale = _mm_andnot_ps(_mm_cmpeq_ps(l_old, _mm_setzero_ps()), rises);
    let [corr] = exp4([_mm_sub_ps(m_old, m_new)]);
    let mut lv = select(rescale, _mm_mul_ps(l_old, corr), l_old);
    let mv = select(rises, m_new, m_old);
    // Four keys' exponentials at a time, interleaved step by step, so
    // their long dependency chains overlap; the normalizer still adds
    // them one key at a time, in key order.
    let mut j = 0;
    while j + 4 <= rows {
        let at = unsafe { wp.add(4 * j) };
        let s: [__m128; 4] = std::array::from_fn(|k| unsafe { _mm_loadu_ps(at.add(4 * k)) });
        let p = exp4(s.map(|v| _mm_sub_ps(v, mv)));
        for (k, &pk) in p.iter().enumerate() {
            unsafe { _mm_storeu_ps(at.add(4 * k), pk) };
            lv = _mm_add_ps(lv, pk);
        }
        j += 4;
    }
    for j in j..rows {
        let at = unsafe { wp.add(4 * j) };
        let [p] = exp4([_mm_sub_ps(unsafe { _mm_loadu_ps(at) }, mv)]);
        unsafe { _mm_storeu_ps(at, p) };
        lv = _mm_add_ps(lv, p);
    }
    // A masked lane keeps its normalizer (the sum above added NaN).
    lv = select(live, lv, l_old);
    unsafe {
        _mm_storeu_ps(m.as_mut_ptr(), mv);
        _mm_storeu_ps(l.as_mut_ptr(), lv);
    }
    let (live, rescale) = (_mm_movemask_ps(live), _mm_movemask_ps(rescale));
    let mut corrs = [0.0f32; 4];
    unsafe { _mm_storeu_ps(corrs.as_mut_ptr(), corr) };
    (
        std::array::from_fn(|i| live >> i & 1 == 1),
        std::array::from_fn(|i| (rescale >> i & 1 == 1).then_some(corrs[i])),
    )
}

/// Lanewise `if mask { a } else { b }` for an all-ones/all-zeros mask.
#[inline]
#[target_feature(enable = "sse2")]
fn select(mask: __m128, a: __m128, b: __m128) -> __m128 {
    _mm_or_ps(_mm_and_ps(mask, a), _mm_andnot_ps(mask, b))
}

/// [`exp_f32`] on `K` vectors of four lanes, with the same IEEE
/// operations per lane; each step runs on all `K` vectors before the
/// next, so independent exponentials overlap in the pipeline. The
/// input is clamped to `[EXP_LO, EXP_HI]` first, which changes no
/// in-range lane and keeps every lane's exponent arithmetic in range;
/// then lanes below `EXP_LO` are zeroed, `+inf` is added to lanes above
/// `EXP_HI`, and a NaN lane is restored from the input by
/// `min(y, max(+inf, x))` (`maxps`/`minps` return their second operand,
/// bit for bit, when either is NaN).
#[inline]
#[target_feature(enable = "sse2")]
fn exp4<const K: usize>(x: [__m128; K]) -> [__m128; K] {
    let (lo, hi, magic) = (
        _mm_set1_ps(EXP_LO),
        _mm_set1_ps(EXP_HI),
        _mm_set1_ps(EXP_MAGIC),
    );
    let inf = _mm_set1_ps(f32::INFINITY);
    let xc = x.map(|v| _mm_min_ps(_mm_max_ps(v, lo), hi));
    let t = xc.map(|v| _mm_add_ps(_mm_mul_ps(v, _mm_set1_ps(EXP_LOG2E)), magic));
    let n = t.map(|v| _mm_sub_ps(v, magic));
    let r: [__m128; K] = std::array::from_fn(|k| {
        let hi = _mm_sub_ps(xc[k], _mm_mul_ps(n[k], _mm_set1_ps(EXP_LN2_HI)));
        _mm_sub_ps(hi, _mm_mul_ps(n[k], _mm_set1_ps(EXP_LN2_LO)))
    });
    let mut p = [_mm_set1_ps(EXP_POLY[0]); K];
    for &c in &EXP_POLY[1..] {
        for (pk, &rk) in p.iter_mut().zip(&r) {
            *pk = _mm_add_ps(_mm_mul_ps(*pk, rk), _mm_set1_ps(c));
        }
    }
    std::array::from_fn(|k| {
        let (rk, z) = (r[k], _mm_mul_ps(r[k], r[k]));
        let p = _mm_add_ps(_mm_add_ps(_mm_mul_ps(p[k], z), rk), _mm_set1_ps(1.0));
        let e = _mm_sub_epi32(_mm_castps_si128(t[k]), _mm_castps_si128(magic));
        let y = _mm_castsi128_ps(_mm_add_epi32(_mm_castps_si128(p), _mm_slli_epi32::<23>(e)));
        let y = _mm_andnot_ps(_mm_cmplt_ps(x[k], lo), y);
        let y = _mm_add_ps(y, _mm_and_ps(_mm_cmpgt_ps(x[k], hi), inf));
        _mm_min_ps(y, _mm_max_ps(inf, x[k]))
    })
}

/// `x[i] = exp_f32(x[i])`, four lanes at a time through [`exp4`] and
/// the scalar function on the `len % 4` tail: bitwise identical to the
/// scalar loop.
#[inline]
pub fn exp_in_place(x: &mut [f32]) {
    // SAFETY: SSE2 is baseline on x86_64.
    unsafe { exp_in_place_sse2(x) }
}

#[target_feature(enable = "sse2")]
unsafe fn exp_in_place_sse2(x: &mut [f32]) {
    let quads = x.len() / 4;
    let p = x.as_mut_ptr();
    for i in 0..quads {
        // SAFETY: `4 * i + 4 <= x.len()`.
        unsafe { _mm_storeu_ps(p.add(4 * i), exp4([_mm_loadu_ps(p.add(4 * i))])[0]) };
    }
    for v in &mut x[4 * quads..] {
        *v = exp_f32(*v);
    }
}

/// SwiGLU activation `gate[i] = silu(gate[i]) * up[i]` with
/// `silu(g) = g / (1 + exp(-g))`: negation, [`exp4`], add, divide and
/// multiply per lane — the scalar [`silu`]'s operations, so bitwise
/// identical to it.
#[inline]
pub fn silu_mul(gate: &mut [f32], up: &[f32]) {
    assert_eq!(gate.len(), up.len());
    // SAFETY: SSE2 is baseline on x86_64; both slices have one length.
    unsafe { silu_mul_sse2(gate, up) }
}

/// # Safety
/// `up` must be at least as long as `gate`.
#[target_feature(enable = "sse2")]
unsafe fn silu_mul_sse2(gate: &mut [f32], up: &[f32]) {
    let quads = gate.len() / 4;
    let (gp, sign, one) = (gate.as_mut_ptr(), _mm_set1_ps(-0.0), _mm_set1_ps(1.0));
    for i in 0..quads {
        // SAFETY: `4 * i + 4 <= gate.len() <= up.len()`.
        unsafe {
            let g = _mm_loadu_ps(gp.add(4 * i));
            let [e] = exp4([_mm_xor_ps(g, sign)]);
            let s = _mm_div_ps(g, _mm_add_ps(one, e));
            let u = _mm_loadu_ps(up.as_ptr().add(4 * i));
            _mm_storeu_ps(gp.add(4 * i), _mm_mul_ps(s, u));
        }
    }
    for j in 4 * quads..gate.len() {
        gate[j] = silu(gate[j]) * up[j];
    }
}

/// Weighted value sums for `Q` queries in one pass over the shared
/// value rows: `accs[q][e] += weights[q][j * wstride] * vals[j * stride + e]`
/// for `j in 0..n`, in `j` order. Columns go in strips of 16 or 4
/// held in registers across all `n` rows (then a scalar tail), and each
/// element takes one multiply and one add per row in row order — the
/// roundings of a per-row axpy, so any `Q` gives the same bits.
#[inline]
pub fn weighted_sum_f32<const Q: usize>(
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
    // SAFETY: SSE2 is baseline on x86_64; the asserts bound every load.
    unsafe { weighted_sum_sse2(accs, weights, wstride, vals, stride, n) }
}

/// # Safety
/// Every `accs[q]` has one length `d`, `vals` holds `(n - 1) * stride + d`
/// floats and every `weights[q]` more than `(n - 1) * wstride` when `n > 0`.
#[target_feature(enable = "sse2")]
unsafe fn weighted_sum_sse2<const Q: usize>(
    mut accs: [&mut [f32]; Q],
    weights: [&[f32]; Q],
    wstride: usize,
    vals: &[f32],
    stride: usize,
    n: usize,
) {
    let d = accs.first().map_or(0, |a| a.len());
    let mut c = 0;
    while c + 16 <= d {
        // SAFETY: forwarded; columns `c..c + 16` are inside every row.
        unsafe { weighted_strip::<Q, 4>(&mut accs, &weights, wstride, vals, stride, n, c) };
        c += 16;
    }
    while c + 4 <= d {
        unsafe { weighted_strip::<Q, 1>(&mut accs, &weights, wstride, vals, stride, n, c) };
        c += 4;
    }
    for e in c..d {
        for (acc, w) in accs.iter_mut().zip(&weights) {
            for j in 0..n {
                acc[e] += w[j * wstride] * vals[j * stride + e];
            }
        }
    }
}

/// Columns `c..c + 4 * V` of [`weighted_sum_sse2`], accumulators held
/// in `Q × V` registers across all rows.
///
/// # Safety
/// As [`weighted_sum_sse2`], with `c + 4 * V <= d`.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn weighted_strip<const Q: usize, const V: usize>(
    accs: &mut [&mut [f32]; Q],
    weights: &[&[f32]; Q],
    wstride: usize,
    vals: &[f32],
    stride: usize,
    n: usize,
    c: usize,
) {
    // SAFETY (all loads and stores): columns `c..c + 4 * V` lie inside
    // every accumulator and every value row `j < n`.
    let mut a: [[__m128; V]; Q] = std::array::from_fn(|q| {
        std::array::from_fn(|v| unsafe { _mm_loadu_ps(accs[q].as_ptr().add(c + 4 * v)) })
    });
    let vp = vals.as_ptr();
    for j in 0..n {
        let row: [__m128; V] =
            std::array::from_fn(|v| unsafe { _mm_loadu_ps(vp.add(j * stride + c + 4 * v)) });
        for (aq, w) in a.iter_mut().zip(weights) {
            let p = _mm_set1_ps(w[j * wstride]);
            for (x, &y) in aq.iter_mut().zip(&row) {
                *x = _mm_add_ps(*x, _mm_mul_ps(p, y));
            }
        }
    }
    for (acc, aq) in accs.iter_mut().zip(&a) {
        for (v, &x) in aq.iter().enumerate() {
            unsafe { _mm_storeu_ps(acc.as_mut_ptr().add(c + 4 * v), x) };
        }
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
}
