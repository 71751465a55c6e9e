//! Streaming (flash-style) softmax primitive for fused attention.
//!
//! [`OnlineSoftmax`] folds attention scores chunk by chunk, maintaining
//! the running row maximum `m` and running normalizer `l = Σ exp(s − m)`
//! while accumulating the weighted-value sum *unnormalized*; when a new
//! chunk raises the maximum, the partial accumulator and normalizer are
//! rescaled by `exp(m_old − m_new)`. One [`OnlineSoftmax::finish`]
//! division at the end yields exactly a softmax-weighted sum — without
//! the full score row for a long context ever being materialized.
//!
//! A fold has two halves. [`OnlineSoftmax::weigh`] takes the chunk
//! maximum, rescales, turns scores into weights `exp(s − m)` and adds
//! them to the normalizer in order; [`weighted_sum`] then adds
//! `Σ p_j · v_j` into the accumulator, one multiply and one add per
//! element and row, in row order. [`OnlineSoftmax::fold`] is their
//! composition. The engine's attention core (`Attention::attend_tile`)
//! runs the halves as lane-parallel kernels over the queries of a tile
//! that share a KV head: [`weigh_lanes`] weighs four queries at once
//! (lane = query) with exactly the per-row operations, and
//! [`weighted_sum_lanes`] adds two queries' weighted sums per pass over
//! the shared value rows. Every exponential is the engine's own
//! [`crate::tensor::exp_f32`] (or its SSE2 or AVX2 form, bitwise the
//! same), so no result depends on the platform's libm.
//!
//! **Determinism.** For a fixed chunking the result is a pure function
//! of the inputs, and the engine chunks on 64-position spans, whose
//! boundaries depend only on (window start, visible positions) — the
//! decode, prefill, and batched paths therefore fold in the same order
//! and stay bitwise identical to each other, whatever the KV block size.
//! The lane kernels and the per-row functions give the same bits (a
//! zero maximum's sign may differ, and never reaches an output: the
//! maximum enters only through differences and comparisons). (The fused
//! result is *not* bitwise equal to a two-pass softmax — it is the same
//! sum with a different normalization order — which is fine: no
//! reference path in the engine uses the two-pass form anymore.)
//!
//! **Guards** match [`crate::tensor::softmax_in_place`]: a row of only
//! `-inf` (fully masked) scores yields zero weights rather than NaN;
//! finite scores of any magnitude cannot overflow because every
//! exponent is `exp(s − m) ≤ 1`; NaN scores propagate to the output
//! (NaN means an upstream bug — hiding it would mask it).

use crate::tensor::{exp_f32, exp_in_place};

/// Running state of a blocked online softmax over one attention row.
#[derive(Debug, Clone)]
pub struct OnlineSoftmax {
    /// Running maximum score.
    m: f32,
    /// Running normalizer `Σ exp(s − m)`.
    l: f32,
}

impl Default for OnlineSoftmax {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineSoftmax {
    /// Fresh state: no scores folded, accumulator assumed all-zero.
    pub fn new() -> Self {
        Self {
            m: f32::NEG_INFINITY,
            l: 0.0,
        }
    }

    /// Fold one chunk of `scores` into the running softmax, adding
    /// `exp(s_i − m) * v_i` into `acc`, where the value row `v_i` is
    /// `vals[i * stride..][..acc.len()]` (a KV block slab, or any
    /// row-major matrix). `scores` is overwritten with the weights
    /// `exp(s_i − m)`.
    ///
    /// The composition of `weigh` (chunk maximum, rescale, weights,
    /// normalizer) and `weighted_sum` (the weighted value rows); every
    /// output element sees the same operations in the same order as
    /// folding one score at a time.
    pub fn fold(&mut self, scores: &mut [f32], acc: &mut [f32], vals: &[f32], stride: usize) {
        if self.weigh(scores, acc) {
            weighted_sum(acc, scores, vals, stride);
        }
    }

    /// The first half of [`OnlineSoftmax::fold`]: raise the running
    /// maximum to cover `scores` (rescaling the normalizer and `acc` by
    /// `exp(m_old − m_new)` if it rises over a nonzero normalizer),
    /// overwrite `scores` with the weights `exp(s_i − m)` and add them to
    /// the normalizer in order. Returns `false`, leaving `scores`
    /// untouched, when every score seen so far is `-inf`: nothing may
    /// then be added to `acc`.
    pub(crate) fn weigh(&mut self, scores: &mut [f32], acc: &mut [f32]) -> bool {
        let chunk_max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        if !self.raise(chunk_max, acc) {
            return false;
        }
        for s in scores.iter_mut() {
            *s -= self.m;
        }
        exp_in_place(scores);
        for &p in scores.iter() {
            self.l += p;
        }
        true
    }

    /// Move the running maximum up to `chunk_max`. Returns `false` when
    /// everything seen so far is masked out: nothing contributes, and
    /// `exp(-inf - -inf)` would manufacture NaN.
    fn raise(&mut self, chunk_max: f32, acc: &mut [f32]) -> bool {
        let m_new = self.m.max(chunk_max);
        if m_new == f32::NEG_INFINITY {
            return false;
        }
        if m_new > self.m {
            // On the first finite chunk `l` is still 0 and `acc`
            // all-zero, so the rescale is skipped entirely.
            if self.l != 0.0 {
                let corr = exp_f32(self.m - m_new);
                self.l *= corr;
                for a in acc.iter_mut() {
                    *a *= corr;
                }
            }
            self.m = m_new;
        }
        true
    }

    /// Normalize the accumulator: divide by the running normalizer,
    /// turning the unnormalized sum into a softmax-weighted average.
    /// With nothing folded (or everything masked) `acc` becomes zeros;
    /// a NaN normalizer (NaN scores) poisons the whole row.
    pub fn finish(self, acc: &mut [f32]) {
        if self.l > 0.0 {
            let inv = 1.0 / self.l;
            for a in acc.iter_mut() {
                *a *= inv;
            }
        } else if self.l.is_nan() {
            acc.fill(f32::NAN);
        } else {
            acc.fill(0.0);
        }
    }
}

/// Queries per lane group of the attention core's score, weigh and
/// weighted-sum kernels (one SSE2 register of f32 lanes; AVX2 holds two
/// keys' lanes per register).
pub(crate) const LANES: usize = 4;

/// [`OnlineSoftmax::weigh`] for up to [`LANES`] rows at once, lane `i`
/// (`lanes[LANES * j + i]`, score of key `j`) belonging to row
/// `slots[i]`: its softmax state `states[slots[i]]` and its accumulator
/// `accs[slots[i] * d..][..d]`, `d = accs.len() / states.len()`. Lanes
/// past `slots.len()` are padding and are ignored. Returns which lanes
/// may be folded; each real lane ends bitwise as a per-row `weigh`.
pub(crate) fn weigh_lanes(
    states: &mut [OnlineSoftmax],
    accs: &mut [f32],
    slots: &[usize],
    lanes: &mut [f32],
) -> [bool; LANES] {
    let d = accs.len() / states.len();
    let mut live = [false; LANES];
    #[cfg(target_arch = "x86_64")]
    {
        let mut m = [f32::NEG_INFINITY; LANES];
        let mut l = [0.0f32; LANES];
        for (i, &s) in slots.iter().enumerate() {
            (m[i], l[i]) = (states[s].m, states[s].l);
        }
        let (lane_live, corr) = crate::simd::weigh4_f32(lanes, &mut m, &mut l);
        for (i, &s) in slots.iter().enumerate() {
            states[s] = OnlineSoftmax { m: m[i], l: l[i] };
            if let Some(c) = corr[i] {
                for a in &mut accs[s * d..][..d] {
                    *a *= c;
                }
            }
            live[i] = lane_live[i];
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        for (i, &s) in slots.iter().enumerate() {
            let st = &mut states[s];
            let lane = || lanes.iter().skip(i).step_by(LANES);
            let chunk_max = lane().copied().fold(f32::NEG_INFINITY, f32::max);
            live[i] = st.raise(chunk_max, &mut accs[s * d..][..d]);
            if live[i] {
                for p in lanes.iter_mut().skip(i).step_by(LANES) {
                    *p = exp_f32(*p - st.m);
                    st.l += *p;
                }
            }
        }
    }
    live
}

/// `acc += Σ_j weights[j] * v_j`, with value row `v_j` at
/// `vals[j * stride..][..acc.len()]`: one multiply and one add per
/// element and row, in row order — the roundings of a per-row axpy.
pub(crate) fn weighted_sum(acc: &mut [f32], weights: &[f32], vals: &[f32], stride: usize) {
    multi_weighted_sum([acc], [weights], 1, vals, stride, weights.len());
}

/// [`weighted_sum`] for the live lanes of one lane group, two queries
/// per pass over the `n` shared value rows: lane `i`'s weights are
/// `lanes[LANES * j + i]` and its accumulator `accs[slots[i] * d..][..d]`
/// (`slots` ascending). Bitwise equal to one [`weighted_sum`] per lane.
#[allow(clippy::too_many_arguments)]
pub(crate) fn weighted_sum_lanes(
    accs: &mut [f32],
    d: usize,
    slots: &[usize],
    live: [bool; LANES],
    lanes: &[f32],
    vals: &[f32],
    stride: usize,
    n: usize,
) {
    let mut todo = slots.iter().zip(live).enumerate().filter(|(_, (_, l))| *l);
    while let Some((a, (&sa, _))) = todo.next() {
        let wa = &lanes[a..];
        match todo.next() {
            Some((b, (&sb, _))) => {
                let (lo, hi) = accs.split_at_mut(sb * d);
                let pair = [&mut lo[sa * d..][..d], &mut hi[..d]];
                multi_weighted_sum(pair, [wa, &lanes[b..]], LANES, vals, stride, n);
            }
            None => multi_weighted_sum([&mut accs[sa * d..][..d]], [wa], LANES, vals, stride, n),
        }
    }
}

/// `Q` weighted sums over shared value rows, query `q`'s weight of row
/// `j` at `weights[q][j * wstride]`: the SIMD kernel on x86_64,
/// per-query scalar loops elsewhere.
fn multi_weighted_sum<const Q: usize>(
    accs: [&mut [f32]; Q],
    weights: [&[f32]; Q],
    wstride: usize,
    vals: &[f32],
    stride: usize,
    n: usize,
) {
    #[cfg(target_arch = "x86_64")]
    {
        crate::simd::weighted_sum_f32(accs, weights, wstride, vals, stride, n);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        for (acc, w) in accs.into_iter().zip(weights) {
            let d = acc.len();
            for j in 0..n {
                let p = w[j * wstride];
                for (a, v) in acc.iter_mut().zip(&vals[j * stride..][..d]) {
                    *a += p * v;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::softmax_in_place;
    use proptest::prelude::*;

    /// Two-pass reference: full softmax row, then the weighted sum.
    fn two_pass(scores: &[f32], values: &[Vec<f32>], dim: usize) -> Vec<f32> {
        let mut w = scores.to_vec();
        softmax_in_place(&mut w);
        let mut out = vec![0.0f32; dim];
        for (wi, v) in w.iter().zip(values) {
            for (o, x) in out.iter_mut().zip(v) {
                *o += wi * x;
            }
        }
        out
    }

    fn fold_chunked(scores: &[f32], values: &[Vec<f32>], dim: usize, chunk: usize) -> Vec<f32> {
        let slab: Vec<f32> = values.concat();
        let mut acc = vec![0.0f32; dim];
        let mut os = OnlineSoftmax::new();
        let mut at = 0;
        while at < scores.len() {
            let end = (at + chunk).min(scores.len());
            let mut chunk_scores = scores[at..end].to_vec();
            os.fold(&mut chunk_scores, &mut acc, &slab[at * dim..], dim);
            at = end;
        }
        os.finish(&mut acc);
        acc
    }

    /// Reference fold, one score at a time: rescale on a new maximum,
    /// then exponential, normalizer and axpy interleaved per score.
    fn interleaved_fold(
        m: &mut f32,
        l: &mut f32,
        scores: &[f32],
        acc: &mut [f32],
        vals: &[f32],
        stride: usize,
    ) {
        let m_new = m.max(scores.iter().copied().fold(f32::NEG_INFINITY, f32::max));
        if m_new == f32::NEG_INFINITY {
            return;
        }
        if m_new > *m {
            if *l != 0.0 {
                let corr = exp_f32(*m - m_new);
                *l *= corr;
                acc.iter_mut().for_each(|a| *a *= corr);
            }
            *m = m_new;
        }
        for (i, &s) in scores.iter().enumerate() {
            let p = exp_f32(s - *m);
            *l += p;
            for (a, v) in acc.iter_mut().zip(&vals[i * stride..]) {
                *a += p * v;
            }
        }
    }

    proptest! {
        #[test]
        fn block_fold_is_bitwise_the_interleaved_fold(
            dim_idx in 0usize..6,
            pad in 0usize..3,
            n in 1usize..50,
            chunk in 1usize..17,
            seed in 0u64..30,
        ) {
            // Every const width and the generic fallback, over a strided
            // slab and ragged chunks that raise the maximum mid-row.
            let dim = [2usize, 8, 12, 16, 32, 64][dim_idx];
            let stride = dim + pad;
            let m = crate::tensor::Matrix::random(n + 1, stride.max(n), seed, 3.0);
            let scores: Vec<f32> = m.row(n)[..n].to_vec();
            let slab: Vec<f32> = (0..n).flat_map(|i| m.row(i)[..stride].to_vec()).collect();
            let mut acc = vec![0.0f32; dim];
            let mut reference = vec![0.0f32; dim];
            let (mut rm, mut rl) = (f32::NEG_INFINITY, 0.0f32);
            let mut os = OnlineSoftmax::new();
            let mut at = 0;
            while at < n {
                let end = (at + chunk).min(n);
                let mut block = scores[at..end].to_vec();
                os.fold(&mut block, &mut acc, &slab[at * stride..], stride);
                interleaved_fold(
                    &mut rm, &mut rl, &scores[at..end], &mut reference, &slab[at * stride..], stride,
                );
                at = end;
            }
            prop_assert_eq!((os.m.to_bits(), os.l.to_bits()), (rm.to_bits(), rl.to_bits()));
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&acc), bits(&reference));
        }

        #[test]
        fn matches_two_pass_softmax(
            n in 1usize..40,
            chunk in 1usize..17,
            seed in 0u64..30,
        ) {
            let dim = 8;
            let m = crate::tensor::Matrix::random(n + 1, dim.max(n), seed, 3.0);
            let scores: Vec<f32> = m.row(n)[..n].to_vec();
            let values: Vec<Vec<f32>> = (0..n).map(|i| m.row(i)[..dim].to_vec()).collect();
            let reference = two_pass(&scores, &values, dim);
            let fused = fold_chunked(&scores, &values, dim, chunk);
            for (f, r) in fused.iter().zip(&reference) {
                prop_assert!(
                    (f - r).abs() <= 1e-5 * (1.0 + r.abs()),
                    "fused {} vs two-pass {}", f, r
                );
            }
        }

        #[test]
        fn chunking_choice_only_perturbs_at_float_noise(
            n in 2usize..40,
            seed in 0u64..30,
        ) {
            // Different chunkings give the *same value* up to rounding —
            // the engine fixes one chunking (KV block boundaries), this
            // checks the math is chunking-invariant.
            let dim = 4;
            let m = crate::tensor::Matrix::random(n + 1, dim.max(n), seed, 2.0);
            let scores: Vec<f32> = m.row(n)[..n].to_vec();
            let values: Vec<Vec<f32>> = (0..n).map(|i| m.row(i)[..dim].to_vec()).collect();
            let a = fold_chunked(&scores, &values, dim, 1);
            let b = fold_chunked(&scores, &values, dim, n);
            for (x, y) in a.iter().zip(&b) {
                prop_assert!((x - y).abs() <= 1e-5 * (1.0 + y.abs()));
            }
        }
    }

    /// `n` keys of four lane-interleaved rows; lane `i`'s scores are
    /// fully masked when bit `i` of `masked` is set, and otherwise carry
    /// a `-inf` at every multiple of `hole` (when nonzero).
    fn lane_scores(n: usize, seed: u64, masked: u8, hole: usize) -> Vec<f32> {
        let m = crate::tensor::Matrix::random(n, LANES, seed, 6.0);
        let mut lanes = m.data().to_vec();
        for (k, s) in lanes.iter_mut().enumerate() {
            let (j, i) = (k / LANES, k % LANES);
            if masked >> i & 1 == 1 || (hole > 0 && j % hole == 0) {
                *s = f32::NEG_INFINITY;
            }
        }
        lanes
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #[test]
        fn weigh_lanes_is_bitwise_the_per_row_weigh(
            n in 1usize..70,
            first in 1usize..9,
            seed in 0u64..40,
            masked in 0u8..16,
            hole in 0usize..5,
            real in 1usize..=LANES,
        ) {
            // Each lane carries its own state (one first chunk folded
            // already, so maxima rise or not and normalizers rescale),
            // with fully masked lanes and padding lanes past `real`.
            let d = 6;
            let slots: Vec<usize> = (0..real).map(|i| 2 * i + 1).collect();
            let mut states = vec![OnlineSoftmax::new(); 2 * LANES];
            let mut accs = crate::tensor::Matrix::random(2 * LANES, d, seed, 1.0).data().to_vec();
            let vals = crate::tensor::Matrix::random(first, d, seed + 1, 1.0);
            for (i, &s) in slots.iter().enumerate() {
                let warm = lane_scores(first, seed + 2, masked >> 1, 0);
                let mut row: Vec<f32> = warm.iter().skip(i).step_by(LANES).copied().collect();
                states[s].fold(&mut row, &mut accs[s * d..][..d], vals.data(), d);
            }
            let mut lanes = lane_scores(n, seed + 3, masked, hole);
            let (mut ref_states, mut ref_accs) = (states.clone(), accs.clone());
            let live = weigh_lanes(&mut states, &mut accs, &slots, &mut lanes);
            for (i, &s) in slots.iter().enumerate() {
                let mut row: Vec<f32> = lanes_row(&lane_scores(n, seed + 3, masked, hole), i);
                let ok = ref_states[s].weigh(&mut row, &mut ref_accs[s * d..][..d]);
                prop_assert_eq!(live[i], ok, "lane {}", i);
                prop_assert_eq!(
                    (states[s].m.to_bits(), states[s].l.to_bits()),
                    (ref_states[s].m.to_bits(), ref_states[s].l.to_bits()),
                    "lane {} state", i
                );
                if ok {
                    prop_assert_eq!(bits(&lanes_row(&lanes, i)), bits(&row), "lane {} weights", i);
                }
            }
            prop_assert_eq!(bits(&accs), bits(&ref_accs));
        }

        #[test]
        fn multi_query_weighted_sum_is_bitwise_per_query(
            n in 1usize..70,
            dim_idx in 0usize..6,
            pad in 0usize..3,
            seed in 0u64..40,
            live_bits in 0u8..16,
            real in 1usize..=LANES,
        ) {
            // Two queries per pass over shared value rows, any width
            // (register strips of 16 and 4 columns plus a scalar
            // tail), skipped lanes and odd live counts.
            let d = [1usize, 4, 7, 16, 24, 37][dim_idx];
            let stride = d + pad;
            let vals = crate::tensor::Matrix::random(n, stride, seed, 1.0);
            let lanes = crate::tensor::Matrix::random(n, LANES, seed + 1, 1.0).data().to_vec();
            let slots: Vec<usize> = (0..real).map(|i| i * 2).collect();
            let live: [bool; LANES] = std::array::from_fn(|i| live_bits >> i & 1 == 1);
            let accs = crate::tensor::Matrix::random(2 * LANES, d, seed + 2, 1.0).data().to_vec();
            let mut multi = accs.clone();
            weighted_sum_lanes(&mut multi, d, &slots, live, &lanes, vals.data(), stride, n);
            let mut single = accs;
            for (i, &s) in slots.iter().enumerate() {
                if live[i] {
                    weighted_sum(&mut single[s * d..][..d], &lanes_row(&lanes, i), vals.data(), stride);
                }
            }
            prop_assert_eq!(bits(&multi), bits(&single));
        }
    }

    /// Lane `i` of lane-interleaved scores, as one contiguous row.
    fn lanes_row(lanes: &[f32], i: usize) -> Vec<f32> {
        lanes.iter().skip(i).step_by(LANES).copied().collect()
    }

    #[test]
    fn fully_masked_row_is_zeros_not_nan() {
        // Same guard as softmax_in_place: all -inf → zero weights.
        let values = vec![vec![1.0f32; 4]; 3];
        let out = fold_chunked(&[f32::NEG_INFINITY; 3], &values, 4, 2);
        assert_eq!(out, vec![0.0; 4]);
    }

    #[test]
    fn empty_fold_finishes_to_zeros() {
        let mut acc = vec![7.0f32; 4];
        OnlineSoftmax::new().finish(&mut acc);
        assert_eq!(acc, vec![0.0; 4]);
    }

    #[test]
    fn masked_positions_within_a_chunk_contribute_nothing() {
        let scores = [0.5, f32::NEG_INFINITY, 0.5];
        let values = vec![vec![2.0f32; 2], vec![999.0; 2], vec![4.0; 2]];
        let out = fold_chunked(&scores, &values, 2, 3);
        // Equal weights on positions 0 and 2 → mean of 2 and 4.
        for o in out {
            assert!((o - 3.0).abs() < 1e-6, "{o}");
        }
    }

    #[test]
    fn extreme_magnitudes_do_not_overflow() {
        let scores = [3.0e38f32, -3.0e38, 3.0e38];
        let values = vec![vec![1.0f32; 2], vec![5.0; 2], vec![3.0; 2]];
        let out = fold_chunked(&scores, &values, 2, 1);
        // exp(s - m) ≤ 1 always: the two max-score positions split the
        // weight, the -3e38 one gets zero.
        for o in out {
            assert!(o.is_finite());
            assert!((o - 2.0).abs() < 1e-6, "{o}");
        }
    }

    #[test]
    fn nan_scores_propagate() {
        let scores = [0.1, f32::NAN];
        let values = vec![vec![1.0f32; 2]; 2];
        let out = fold_chunked(&scores, &values, 2, 2);
        assert!(out.iter().all(|v| v.is_nan()));
    }
}
