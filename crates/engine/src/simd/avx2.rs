//! The AVX2 backend: 256-bit kernels for CPUs whose CPUID reports AVX2.
//!
//! Every kernel keeps each output's IEEE operations in the SSE2 order
//! (see the parent module): one `__m256` carries two 4-lane SSE2
//! vectors side by side, and the 128-bit halves never mix except in the
//! weigh, whose chunk maximum combines them (order-free) and whose
//! normalizer adds them one at a time, in key order. No function here
//! enables FMA.
//!
//! The entry points are `unsafe fn`s because they require AVX2; the
//! parent module calls them only through a `HasAvx2` proof that CPUID
//! reported the feature, after asserting the slice lengths stated under
//! `# Safety`.

use super::sse2;
use crate::tensor::{EXP_HI, EXP_LN2_HI, EXP_LN2_LO, EXP_LO, EXP_LOG2E, EXP_MAGIC, EXP_POLY};
use std::arch::x86_64::{
    __m128, __m256, _mm256_add_epi32, _mm256_add_ps, _mm256_and_ps, _mm256_andnot_ps,
    _mm256_castps256_ps128, _mm256_castps_si256, _mm256_castsi256_ps, _mm256_cmp_ps, _mm256_div_ps,
    _mm256_extractf128_ps, _mm256_loadu2_m128, _mm256_loadu_ps, _mm256_max_ps, _mm256_min_ps,
    _mm256_mul_ps, _mm256_set1_ps, _mm256_set_m128, _mm256_setr_ps, _mm256_setzero_ps,
    _mm256_shuffle_ps, _mm256_slli_epi32, _mm256_storeu_ps, _mm256_sub_epi32, _mm256_sub_ps,
    _mm256_unpackhi_ps, _mm256_unpacklo_ps, _mm256_xor_ps, _mm_add_ps, _mm_cmpeq_ps, _mm_loadu_ps,
    _mm_max_ps, _mm_movemask_ps, _mm_set1_ps, _mm_setzero_ps, _mm_storeu_ps, _mm_sub_ps,
    _CMP_GT_OQ, _CMP_LT_OQ,
};

/// The 4×4 tile stored to `out` as `out[4 * i + r] = w[r] · x[i]`.
///
/// # Safety
/// The CPU must support AVX2, and every slice must have length
/// `x[0].len()`.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn dot4x4(w: [&[f32]; 4], x: [&[f32]; 4], out: &mut [f32; 16]) {
    // SAFETY: forwarded; `out` holds the two 8-lane stores.
    unsafe {
        tile4x4(w, x, |[y01, y23]| {
            _mm256_storeu_ps(out.as_mut_ptr(), y01);
            _mm256_storeu_ps(out.as_mut_ptr().add(8), y23);
        })
    }
}

/// The 4×4 tile as two vectors, `[w[r]·x[2p]]_r | [w[r]·x[2p+1]]_r` for
/// `p = 0, 1`, handed to `emit` (a generic, so each caller gets its
/// own copy of the tile, inlined). Accumulator `(p, r)` holds the four
/// lane sums of `w[r]·x[2p]` in its low half and of `w[r]·x[2p+1]` in
/// its high half:
/// a quad of `w[r]` broadcast to both halves times a quad of each of
/// the two inputs. Eight accumulators, four weight and two input
/// registers fit in the sixteen ymm registers. The reduction is the
/// SSE2 tile's, run on both halves at once: `unpack{lo,hi}_ps` and
/// `shuffle_ps::<0x44 / 0xEE>` stay within each half, so they perform
/// two 4×4 transposes; the `len % 4` tail is added into `t_0` element
/// by element; `((t0 + t1) + t2) + t3` is each output's left-to-right
/// lane sum.
///
/// # Safety
/// The CPU must support AVX2, and every slice must be at least
/// `x[0].len()` long.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn tile4x4<F: FnOnce([__m256; 2])>(w: [&[f32]; 4], x: [&[f32]; 4], emit: F) {
    let k = x[0].len();
    let quads = k / 4;
    let mut acc = [[_mm256_setzero_ps(); 4]; 2];
    for i in 0..quads {
        let p = 4 * i;
        let mut wv = [_mm256_setzero_ps(); 4];
        for (v, wr) in wv.iter_mut().zip(w) {
            // SAFETY: `p + 4 <= k` and every slice holds `k` floats.
            *v = unsafe { splat4(wr.as_ptr().add(p)) };
        }
        // SAFETY: as above.
        let xv = unsafe {
            [
                _mm256_loadu2_m128(x[1].as_ptr().add(p), x[0].as_ptr().add(p)),
                _mm256_loadu2_m128(x[3].as_ptr().add(p), x[2].as_ptr().add(p)),
            ]
        };
        for (ap, &xp) in acc.iter_mut().zip(&xv) {
            for (a, &wr) in ap.iter_mut().zip(&wv) {
                *a = _mm256_add_ps(*a, _mm256_mul_ps(wr, xp));
            }
        }
    }
    let mut out = [_mm256_setzero_ps(); 2];
    for (p, (o, [a0, a1, a2, a3])) in out.iter_mut().zip(acc).enumerate() {
        let lo01 = _mm256_unpacklo_ps(a0, a1);
        let lo23 = _mm256_unpacklo_ps(a2, a3);
        let hi01 = _mm256_unpackhi_ps(a0, a1);
        let hi23 = _mm256_unpackhi_ps(a2, a3);
        let mut t0 = _mm256_shuffle_ps::<0x44>(lo01, lo23);
        let t1 = _mm256_shuffle_ps::<0xEE>(lo01, lo23);
        let t2 = _mm256_shuffle_ps::<0x44>(hi01, hi23);
        let t3 = _mm256_shuffle_ps::<0xEE>(hi01, hi23);
        let (xa, xb) = (x[2 * p], x[2 * p + 1]);
        for j in 4 * quads..k {
            let (w0, w1, w2, w3) = (w[0][j], w[1][j], w[2][j], w[3][j]);
            let wj = _mm256_setr_ps(w0, w1, w2, w3, w0, w1, w2, w3);
            let xj = _mm256_set_m128(_mm_set1_ps(xb[j]), _mm_set1_ps(xa[j]));
            t0 = _mm256_add_ps(t0, _mm256_mul_ps(wj, xj));
        }
        *o = _mm256_add_ps(_mm256_add_ps(_mm256_add_ps(t0, t1), t2), t3);
    }
    emit(out)
}

/// The quad at `p` in both halves of a register.
///
/// # Safety
/// The CPU must support AVX2, and `p` must point to four readable floats.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn splat4(p: *const f32) -> __m256 {
    // SAFETY: forwarded.
    let v = unsafe { _mm_loadu_ps(p) };
    _mm256_set_m128(v, v)
}

/// Keys go through the 4×4 tile four at a time, as its paired inputs;
/// the last one to three keys go through the SSE2 kernel.
///
/// # Safety
/// The CPU must support AVX2; `out.len()` must be `4 * n`, every `q[i]`
/// must have length `d`, and `keys` must hold `(n - 1) * stride + d`
/// floats when `n > 0`.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn score4(
    q: [&[f32]; 4],
    keys: &[f32],
    stride: usize,
    scale: f32,
    out: &mut [f32],
) {
    let d = q[0].len();
    let n = out.len() / 4;
    let sv = _mm256_set1_ps(scale);
    let key = |j: usize| &keys[j * stride..][..d];
    let op = out.as_mut_ptr();
    let mut j = 0;
    while j + 4 <= n {
        // SAFETY: `q` rows and the four keys have length `d`; the stores
        // land in `out[4 * j..4 * j + 16]`, inside `out` since `j + 4 <= n`.
        unsafe {
            tile4x4(
                q,
                [key(j), key(j + 1), key(j + 2), key(j + 3)],
                |[y01, y23]| {
                    _mm256_storeu_ps(op.add(4 * j), _mm256_mul_ps(y01, sv));
                    _mm256_storeu_ps(op.add(4 * j + 8), _mm256_mul_ps(y23, sv));
                },
            );
        }
        j += 4;
    }
    if j < n {
        // SAFETY: keys `j..n` start at `keys[j * stride..]`, and their
        // scores fill `out[4 * j..]`.
        unsafe { sse2::score4(q, &keys[j * stride..], stride, scale, &mut out[4 * j..]) };
    }
}

/// The weigh step of [`sse2::weigh4`], eight lanes (two keys) per
/// register. The chunk maximum takes the lanewise maximum of both
/// halves; it equals the SSE2 scan's, which no NaN enters, except for
/// the sign of a zero maximum, which follows key order — then the SSE2
/// scan is rerun. Exponentials run four registers (eight keys) at a
/// time, and the normalizer adds the low half, then the high half: one
/// key at a time, in key order.
///
/// # Safety
/// The CPU must support AVX2, and `w.len()` must be a multiple of 4.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn weigh4(
    w: &mut [f32],
    m: &mut [f32; 4],
    l: &mut [f32; 4],
) -> ([bool; 4], [Option<f32>; 4]) {
    let rows = w.len() / 4;
    // Four running maxima over eight keys at a time, so the scan is not
    // one long chain of dependent `vmaxps`.
    let mut octs = w.chunks_exact(32);
    let mut c = [_mm256_set1_ps(f32::NEG_INFINITY); 4];
    for s in &mut octs {
        for (k, ck) in c.iter_mut().enumerate() {
            // SAFETY: `s` holds 32 floats.
            *ck = _mm256_max_ps(unsafe { _mm256_loadu_ps(s.as_ptr().add(8 * k)) }, *ck);
        }
    }
    let c8 = _mm256_max_ps(_mm256_max_ps(c[0], c[1]), _mm256_max_ps(c[2], c[3]));
    let mut cmax = _mm_max_ps(_mm256_extractf128_ps::<1>(c8), _mm256_castps256_ps128(c8));
    cmax = _mm_max_ps(sse2::chunk_max(octs.remainder()), cmax);
    if _mm_movemask_ps(_mm_cmpeq_ps(cmax, _mm_setzero_ps())) != 0 {
        cmax = sse2::chunk_max(w);
    }
    let r = sse2::weigh_raise(cmax, m, l);
    let mv = _mm256_set_m128(r.mv, r.mv);
    let wp = w.as_mut_ptr();
    let mut lv = r.lv;
    let add_keys = |lv: &mut __m128, p: __m256| {
        *lv = _mm_add_ps(*lv, _mm256_castps256_ps128(p));
        *lv = _mm_add_ps(*lv, _mm256_extractf128_ps::<1>(p));
    };
    // SAFETY (all loads and stores below): `4 * j + 8 * K <= w.len()`
    // whenever `j + 2 * K <= rows`.
    let mut j = 0;
    while j + 8 <= rows {
        let at = unsafe { wp.add(4 * j) };
        let mut p = [_mm256_setzero_ps(); 4];
        for (k, pk) in p.iter_mut().enumerate() {
            *pk = _mm256_sub_ps(unsafe { _mm256_loadu_ps(at.add(8 * k)) }, mv);
        }
        for (k, &pk) in exp8(p).iter().enumerate() {
            unsafe { _mm256_storeu_ps(at.add(8 * k), pk) };
            add_keys(&mut lv, pk);
        }
        j += 8;
    }
    while j + 2 <= rows {
        let at = unsafe { wp.add(4 * j) };
        let [p] = exp8([_mm256_sub_ps(unsafe { _mm256_loadu_ps(at) }, mv)]);
        unsafe { _mm256_storeu_ps(at, p) };
        add_keys(&mut lv, p);
        j += 2;
    }
    if j < rows {
        let at = unsafe { wp.add(4 * j) };
        let [p] = sse2::exp4([_mm_sub_ps(unsafe { _mm_loadu_ps(at) }, r.mv)]);
        unsafe { _mm_storeu_ps(at, p) };
        lv = _mm_add_ps(lv, p);
    }
    sse2::weigh_settle(r, lv, m, l)
}

/// [`sse2::exp4`] on `K` registers of eight lanes: the same IEEE
/// operations per lane, with AVX2's integer add, subtract and shift
/// for the exponent bits. `_CMP_LT_OQ`/`_CMP_GT_OQ` are false on NaN,
/// as `cmpltps`/`cmpgtps` are, and `vmaxps`/`vminps` return their
/// second operand on NaN, as `maxps`/`minps` do.
#[inline]
#[target_feature(enable = "avx2")]
fn exp8<const K: usize>(x: [__m256; K]) -> [__m256; K] {
    let (lo, hi, magic) = (
        _mm256_set1_ps(EXP_LO),
        _mm256_set1_ps(EXP_HI),
        _mm256_set1_ps(EXP_MAGIC),
    );
    let inf = _mm256_set1_ps(f32::INFINITY);
    let mut xc = x;
    for v in &mut xc {
        *v = _mm256_min_ps(_mm256_max_ps(*v, lo), hi);
    }
    let mut t = xc;
    for v in &mut t {
        *v = _mm256_add_ps(_mm256_mul_ps(*v, _mm256_set1_ps(EXP_LOG2E)), magic);
    }
    let mut r = xc;
    for (rk, &tk) in r.iter_mut().zip(&t) {
        let n = _mm256_sub_ps(tk, magic);
        let hi = _mm256_sub_ps(*rk, _mm256_mul_ps(n, _mm256_set1_ps(EXP_LN2_HI)));
        *rk = _mm256_sub_ps(hi, _mm256_mul_ps(n, _mm256_set1_ps(EXP_LN2_LO)));
    }
    let mut p = [_mm256_set1_ps(EXP_POLY[0]); K];
    for &c in &EXP_POLY[1..] {
        for (pk, &rk) in p.iter_mut().zip(&r) {
            *pk = _mm256_add_ps(_mm256_mul_ps(*pk, rk), _mm256_set1_ps(c));
        }
    }
    let mut y = x;
    for k in 0..K {
        let (rk, z) = (r[k], _mm256_mul_ps(r[k], r[k]));
        let pk = _mm256_add_ps(
            _mm256_add_ps(_mm256_mul_ps(p[k], z), rk),
            _mm256_set1_ps(1.0),
        );
        let e = _mm256_sub_epi32(_mm256_castps_si256(t[k]), _mm256_castps_si256(magic));
        let v = _mm256_add_epi32(_mm256_castps_si256(pk), _mm256_slli_epi32::<23>(e));
        let v = _mm256_castsi256_ps(v);
        let v = _mm256_andnot_ps(_mm256_cmp_ps::<_CMP_LT_OQ>(x[k], lo), v);
        let v = _mm256_add_ps(v, _mm256_and_ps(_mm256_cmp_ps::<_CMP_GT_OQ>(x[k], hi), inf));
        y[k] = _mm256_min_ps(v, _mm256_max_ps(inf, x[k]));
    }
    y
}

/// Eight lanes at a time through [`exp8`], the rest through
/// [`sse2::exp_in_place`].
///
/// # Safety
/// The CPU must support AVX2.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn exp_in_place(x: &mut [f32]) {
    let mut octs = x.chunks_exact_mut(8);
    for v in &mut octs {
        // SAFETY: `v` holds eight floats.
        unsafe { _mm256_storeu_ps(v.as_mut_ptr(), exp8([_mm256_loadu_ps(v.as_ptr())])[0]) };
    }
    sse2::exp_in_place(octs.into_remainder());
}

/// [`sse2::silu_mul`] eight lanes at a time, the rest through it.
///
/// # Safety
/// The CPU must support AVX2, and `up` must be at least as long as
/// `gate`.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn silu_mul(gate: &mut [f32], up: &[f32]) {
    let octs = gate.len() / 8;
    let (gp, sign, one) = (gate.as_mut_ptr(), _mm256_set1_ps(-0.0), _mm256_set1_ps(1.0));
    for i in 0..octs {
        // SAFETY: `8 * i + 8 <= gate.len() <= up.len()`.
        unsafe {
            let g = _mm256_loadu_ps(gp.add(8 * i));
            let [e] = exp8([_mm256_xor_ps(g, sign)]);
            let s = _mm256_div_ps(g, _mm256_add_ps(one, e));
            let u = _mm256_loadu_ps(up.as_ptr().add(8 * i));
            _mm256_storeu_ps(gp.add(8 * i), _mm256_mul_ps(s, u));
        }
    }
    // SAFETY: forwarded.
    unsafe { sse2::silu_mul(&mut gate[8 * octs..], &up[8 * octs..]) };
}

/// Columns in strips of 16, then one of 8, held in registers across
/// all `n` rows, then [`sse2::weighted_tail`]: every element still
/// takes one multiply and one add per row, in row order.
///
/// # Safety
/// The CPU must support AVX2; every `accs[q]` has one length `d`,
/// `vals` holds `(n - 1) * stride + d` floats and every `weights[q]`
/// more than `(n - 1) * wstride` when `n > 0`.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn weighted_sum<const Q: usize>(
    mut accs: [&mut [f32]; Q],
    weights: [&[f32]; Q],
    wstride: usize,
    vals: &[f32],
    stride: usize,
    n: usize,
) {
    let d = accs.first().map_or(0, |a| a.len());
    let mut c = 0;
    // SAFETY (the three calls): forwarded; each strip's columns lie
    // inside every row.
    while c + 16 <= d {
        unsafe { weighted_strip::<Q, 2>(&mut accs, &weights, wstride, vals, stride, n, c) };
        c += 16;
    }
    if c + 8 <= d {
        unsafe { weighted_strip::<Q, 1>(&mut accs, &weights, wstride, vals, stride, n, c) };
        c += 8;
    }
    unsafe { sse2::weighted_tail(&mut accs, &weights, wstride, vals, stride, n, c) };
}

/// Columns `c..c + 8 * V` of [`weighted_sum`], accumulators held in
/// `Q × V` registers across all rows.
///
/// # Safety
/// As [`weighted_sum`], with `c + 8 * V <= d`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn weighted_strip<const Q: usize, const V: usize>(
    accs: &mut [&mut [f32]; Q],
    weights: &[&[f32]; Q],
    wstride: usize,
    vals: &[f32],
    stride: usize,
    n: usize,
    c: usize,
) {
    // SAFETY (all loads and stores): columns `c..c + 8 * V` lie inside
    // every accumulator and every value row `j < n`.
    let mut a = [[_mm256_setzero_ps(); V]; Q];
    for (aq, acc) in a.iter_mut().zip(accs.iter()) {
        for (v, x) in aq.iter_mut().enumerate() {
            *x = unsafe { _mm256_loadu_ps(acc.as_ptr().add(c + 8 * v)) };
        }
    }
    let vp = vals.as_ptr();
    for j in 0..n {
        let mut row = [_mm256_setzero_ps(); V];
        for (v, y) in row.iter_mut().enumerate() {
            *y = unsafe { _mm256_loadu_ps(vp.add(j * stride + c + 8 * v)) };
        }
        for (aq, w) in a.iter_mut().zip(weights) {
            let p = _mm256_set1_ps(w[j * wstride]);
            for (x, &y) in aq.iter_mut().zip(&row) {
                *x = _mm256_add_ps(*x, _mm256_mul_ps(p, y));
            }
        }
    }
    for (acc, aq) in accs.iter_mut().zip(&a) {
        for (v, &x) in aq.iter().enumerate() {
            unsafe { _mm256_storeu_ps(acc.as_mut_ptr().add(c + 8 * v), x) };
        }
    }
}
