//! The SSE2 backend: 128-bit kernels that run on every x86_64 CPU.
//!
//! Each `unsafe fn` here states under `# Safety` the slice lengths its
//! loads and stores rely on; the safe entry points in the parent module
//! assert them. SSE2 itself is part of the x86_64 baseline ABI, so the
//! `#[target_feature]` precondition holds wherever this code runs.

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

/// # Safety
/// `x` must be at least as long as `row`.
#[target_feature(enable = "sse2")]
pub(super) unsafe fn dot_f32(row: &[f32], x: &[f32]) -> f32 {
    let k = row.len();
    let quads = k / 4;
    let (rp, xp) = (row.as_ptr(), x.as_ptr());
    let mut acc = _mm_setzero_ps();
    for i in 0..quads {
        // SAFETY: `4 * i + 4 <= k` and both slices hold `k` floats.
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

/// # Safety
/// All four slices must have length `w0.len()`.
#[target_feature(enable = "sse2")]
pub(super) unsafe fn dot2x2(w0: &[f32], w1: &[f32], x0: &[f32], x1: &[f32]) -> [f32; 4] {
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

/// The 4×2 tile stored to `out`: `[w[0]·x0, …, w[3]·x0, w[0]·x1, …]`.
///
/// # Safety
/// Every slice must have length `x0.len()`.
#[target_feature(enable = "sse2")]
pub(super) unsafe fn dot4x2(w: [&[f32]; 4], x0: &[f32], x1: &[f32], out: &mut [f32; 8]) {
    // SAFETY: forwarded; `out` holds the two 4-lane stores.
    unsafe {
        let [y0, y1] = dot4xn(w, [x0, x1]);
        _mm_storeu_ps(out.as_mut_ptr(), y0);
        _mm_storeu_ps(out.as_mut_ptr().add(4), y1);
    }
}

/// The 4×`X` tile as vectors `[w[r]·x[i]]_r`, one per input. The
/// `4 · X` accumulators are reduced in registers: a 4×4 transpose puts
/// lane `j` of every accumulator into vector `t_j`, the `len % 4` tail
/// is added into `t_0` element by element, and `((t0 + t1) + t2) + t3`
/// is then each output's left-to-right lane sum — `dot_unrolled`'s
/// order.
///
/// # Safety
/// Every slice in `w` and `x` must be at least `x[0].len()` long.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn dot4xn<const X: usize>(w: [&[f32]; 4], x: [&[f32]; X]) -> [__m128; X] {
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

/// Keys go through the 4×2 tile two at a time (an odd last key pairs
/// with itself), each pair's scores scale-multiplied and stored as two
/// 4-lane vectors.
///
/// # Safety
/// `out.len()` must be `4 * n`, every `q[i]` must have length `d`, and
/// `keys` must hold `(n - 1) * stride + d` floats when `n > 0`.
#[target_feature(enable = "sse2")]
pub(super) unsafe fn score4(
    q: [&[f32]; 4],
    keys: &[f32],
    stride: usize,
    scale: f32,
    out: &mut [f32],
) {
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
            let [y0, y1] = dot4xn(q, [key(j), k1]);
            _mm_storeu_ps(op.add(4 * j), _mm_mul_ps(y0, sv));
            if j + 1 < n {
                _mm_storeu_ps(op.add(4 * j + 4), _mm_mul_ps(y1, sv));
            }
        }
        j += 2;
    }
}

/// Four keys go through the tile as its weight rows (the last group
/// padded by repeating its last key).
///
/// # Safety
/// `keys` must hold `(out.len() - 1) * stride + q.len()` floats when
/// `out` is nonempty.
#[target_feature(enable = "sse2")]
pub(super) unsafe fn score1(q: &[f32], keys: &[f32], stride: usize, scale: f32, out: &mut [f32]) {
    let (d, n) = (q.len(), out.len());
    let sv = _mm_set1_ps(scale);
    let key = |j: usize| &keys[j.min(n - 1) * stride..][..d];
    for (g, o) in out.chunks_mut(4).enumerate() {
        let j = 4 * g;
        // SAFETY: every key row and `q` have length `d`.
        let [y] = unsafe { dot4xn([key(j), key(j + 1), key(j + 2), key(j + 3)], [q]) };
        o.copy_from_slice(&lanes_f32(_mm_mul_ps(y, sv))[..o.len()]);
    }
}

/// The four lanes' softmax state between a weigh's two passes: the
/// running maximum after the chunk (`mv`), the normalizer so far (`lv`,
/// already rescaled), and what [`weigh_settle`] needs to finish.
pub(super) struct Raised {
    pub(super) mv: __m128,
    pub(super) lv: __m128,
    l_old: __m128,
    live: __m128,
    rescale: __m128,
    corr: __m128,
}

/// Lanewise maximum of lane-interleaved scores (`w.len()` a multiple of
/// 4), in key order. `maxps(s, c)` yields `c` when `s` is NaN —
/// `f32::max`'s rule — and when the two are equal, so a lane keeps the
/// first of equal maxima (which matters only for the sign of a zero).
#[target_feature(enable = "sse2")]
pub(super) fn chunk_max(w: &[f32]) -> __m128 {
    let mut cmax = _mm_set1_ps(f32::NEG_INFINITY);
    for s in w.chunks_exact(4) {
        // SAFETY: `s` holds four floats.
        cmax = _mm_max_ps(unsafe { _mm_loadu_ps(s.as_ptr()) }, cmax);
    }
    cmax
}

/// Raise the lanes' maxima `m` to cover the chunk maximum `cmax`:
/// which lanes are live, which rise over a nonzero normalizer, their
/// rescale factor `exp(m − m_new)` and the rescaled normalizers.
#[inline]
#[target_feature(enable = "sse2")]
pub(super) fn weigh_raise(cmax: __m128, m: &[f32; 4], l: &[f32; 4]) -> Raised {
    // SAFETY: `m` and `l` are 4-float arrays.
    let (m_old, l_old) = unsafe { (_mm_loadu_ps(m.as_ptr()), _mm_loadu_ps(l.as_ptr())) };
    let m_new = _mm_max_ps(cmax, m_old);
    let live = _mm_cmpneq_ps(m_new, _mm_set1_ps(f32::NEG_INFINITY));
    let rises = _mm_cmpgt_ps(m_new, m_old);
    let rescale = _mm_andnot_ps(_mm_cmpeq_ps(l_old, _mm_setzero_ps()), rises);
    let [corr] = exp4([_mm_sub_ps(m_old, m_new)]);
    Raised {
        mv: select(rises, m_new, m_old),
        lv: select(rescale, _mm_mul_ps(l_old, corr), l_old),
        l_old,
        live,
        rescale,
        corr,
    }
}

/// Store the lanes' new maxima and normalizers (`lv` after the weights
/// were added; a masked lane keeps its old one, since the sum added
/// NaN), and return which lanes are live and their rescale factors.
#[inline]
#[target_feature(enable = "sse2")]
pub(super) fn weigh_settle(
    r: Raised,
    lv: __m128,
    m: &mut [f32; 4],
    l: &mut [f32; 4],
) -> ([bool; 4], [Option<f32>; 4]) {
    let lv = select(r.live, lv, r.l_old);
    // SAFETY: `m` and `l` are 4-float arrays.
    unsafe {
        _mm_storeu_ps(m.as_mut_ptr(), r.mv);
        _mm_storeu_ps(l.as_mut_ptr(), lv);
    }
    let (live, rescale) = (_mm_movemask_ps(r.live), _mm_movemask_ps(r.rescale));
    let corrs = lanes_f32(r.corr);
    (
        std::array::from_fn(|i| live >> i & 1 == 1),
        std::array::from_fn(|i| (rescale >> i & 1 == 1).then_some(corrs[i])),
    )
}

/// # Safety
/// `w.len()` must be a multiple of 4.
#[target_feature(enable = "sse2")]
pub(super) unsafe fn weigh4(
    w: &mut [f32],
    m: &mut [f32; 4],
    l: &mut [f32; 4],
) -> ([bool; 4], [Option<f32>; 4]) {
    let r = weigh_raise(chunk_max(w), m, l);
    let rows = w.len() / 4;
    let wp = w.as_mut_ptr();
    let mut lv = r.lv;
    // Four keys' exponentials at a time, interleaved step by step, so
    // their long dependency chains overlap; the normalizer still adds
    // them one key at a time, in key order.
    // SAFETY (all loads and stores below): `4 * j + 4 <= w.len()` for
    // `j < rows`.
    let mut j = 0;
    while j + 4 <= rows {
        let at = unsafe { wp.add(4 * j) };
        let s: [__m128; 4] = std::array::from_fn(|k| unsafe { _mm_loadu_ps(at.add(4 * k)) });
        let p = exp4(s.map(|v| _mm_sub_ps(v, r.mv)));
        for (k, &pk) in p.iter().enumerate() {
            unsafe { _mm_storeu_ps(at.add(4 * k), pk) };
            lv = _mm_add_ps(lv, pk);
        }
        j += 4;
    }
    for j in j..rows {
        let at = unsafe { wp.add(4 * j) };
        let [p] = exp4([_mm_sub_ps(unsafe { _mm_loadu_ps(at) }, r.mv)]);
        unsafe { _mm_storeu_ps(at, p) };
        lv = _mm_add_ps(lv, p);
    }
    weigh_settle(r, lv, m, l)
}

/// Lanewise `if mask { a } else { b }` for an all-ones/all-zeros mask.
#[inline]
#[target_feature(enable = "sse2")]
fn select(mask: __m128, a: __m128, b: __m128) -> __m128 {
    _mm_or_ps(_mm_and_ps(mask, a), _mm_andnot_ps(mask, b))
}

/// `exp_f32` on `K` vectors of four lanes, with the same IEEE
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
pub(super) fn exp4<const K: usize>(x: [__m128; K]) -> [__m128; K] {
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

/// Four lanes at a time through [`exp4`], the scalar `exp_f32` on the
/// `len % 4` tail.
#[target_feature(enable = "sse2")]
pub(super) fn exp_in_place(x: &mut [f32]) {
    let mut quads = x.chunks_exact_mut(4);
    for v in &mut quads {
        // SAFETY: `v` holds four floats.
        unsafe { _mm_storeu_ps(v.as_mut_ptr(), exp4([_mm_loadu_ps(v.as_ptr())])[0]) };
    }
    for v in quads.into_remainder() {
        *v = exp_f32(*v);
    }
}

/// Negation, [`exp4`], add, divide and multiply per lane — the scalar
/// `silu`'s operations — then the scalar form on the `len % 4` tail.
///
/// # Safety
/// `up` must be at least as long as `gate`.
#[target_feature(enable = "sse2")]
pub(super) unsafe fn silu_mul(gate: &mut [f32], up: &[f32]) {
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

/// Columns in strips of 16 held in registers across all `n` rows, then
/// [`weighted_tail`].
///
/// # Safety
/// Every `accs[q]` has one length `d`, `vals` holds `(n - 1) * stride + d`
/// floats and every `weights[q]` more than `(n - 1) * wstride` when `n > 0`.
#[target_feature(enable = "sse2")]
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
    while c + 16 <= d {
        // SAFETY: forwarded; columns `c..c + 16` are inside every row.
        unsafe { weighted_strip::<Q, 4>(&mut accs, &weights, wstride, vals, stride, n, c) };
        c += 16;
    }
    // SAFETY: forwarded.
    unsafe { weighted_tail(&mut accs, &weights, wstride, vals, stride, n, c) };
}

/// Columns `c..d` of a weighted sum: strips of 4, then one scalar
/// multiply and add per element and row.
///
/// # Safety
/// As [`weighted_sum`], with `c <= d`.
#[target_feature(enable = "sse2")]
pub(super) unsafe fn weighted_tail<const Q: usize>(
    accs: &mut [&mut [f32]; Q],
    weights: &[&[f32]; Q],
    wstride: usize,
    vals: &[f32],
    stride: usize,
    n: usize,
    mut c: usize,
) {
    let d = accs.first().map_or(0, |a| a.len());
    while c + 4 <= d {
        // SAFETY: forwarded; columns `c..c + 4` are inside every row.
        unsafe { weighted_strip::<Q, 1>(accs, weights, wstride, vals, stride, n, c) };
        c += 4;
    }
    for e in c..d {
        for (acc, w) in accs.iter_mut().zip(weights) {
            for j in 0..n {
                acc[e] += w[j * wstride] * vals[j * stride + e];
            }
        }
    }
}

/// Columns `c..c + 4 * V` of [`weighted_sum`], accumulators held in
/// `Q × V` registers across all rows.
///
/// # Safety
/// As [`weighted_sum`], with `c + 4 * V <= d`.
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

/// # Safety
/// `b` must be at least as long as `a`.
#[target_feature(enable = "sse2")]
pub(super) unsafe fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    let k = a.len();
    let chunks = k / 16;
    let zero = _mm_setzero_si128();
    let mut acc = zero;
    for i in 0..chunks {
        // SAFETY: `16 * i + 16 <= k` and both slices hold `k` bytes.
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

/// # Safety
/// `packed` must hold at least `x.len().div_ceil(2)` bytes.
#[target_feature(enable = "sse2")]
pub(super) unsafe fn dot_i4(packed: &[u8], x: &[i8]) -> i32 {
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
