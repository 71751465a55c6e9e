//! Streaming (flash-style) softmax primitive for fused attention.
//!
//! [`OnlineSoftmax`] folds attention scores chunk by chunk, maintaining
//! the running row maximum `m` and running normalizer `l = Σ exp(s − m)`
//! while accumulating the weighted-value sum *unnormalized*; when a new
//! chunk raises the maximum, the partial accumulator and normalizer are
//! rescaled by `exp(m_old − m_new)`. One [`OnlineSoftmax::finish`]
//! division at the end yields exactly a softmax-weighted sum — without
//! the full score row for a long context ever being materialized. The
//! engine's tiled attention core (`Attention::attend_tile`) scores one
//! KV-block chunk for a whole tile of query rows and GQA heads at once,
//! then folds each (row, head)'s slice of those scores here, so the
//! working set per head is one block of scores, not `O(context)`.
//!
//! **Determinism.** For a fixed chunking the result is a pure function
//! of the inputs, and the engine chunks on KV-block boundaries, which
//! depend only on (window start, visible positions, block size) — the
//! decode, prefill, and batched paths therefore fold in the same order
//! and stay bitwise identical to each other. The block form of
//! [`OnlineSoftmax::fold`] runs its exponentials, normalizer sum and
//! weighted value sum as separate passes, but each output element sees
//! the same operations in the same order as a one-score-at-a-time fold.
//! (The fused result is *not* bitwise equal to a two-pass softmax — it
//! is the same sum with a different normalization order — which is
//! fine: no reference path in the engine uses the two-pass form
//! anymore.)
//!
//! **Guards** match [`crate::tensor::softmax_in_place`]: a row of only
//! `-inf` (fully masked) scores yields zero weights rather than NaN;
//! finite scores of any magnitude cannot overflow because every
//! exponent is `exp(s − m) ≤ 1`; NaN scores propagate to the output
//! (NaN means an upstream bug — hiding it would mask it).

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
    /// The block form runs three passes — exponentials, then the
    /// normalizer sum, then the weighted value sum with `acc` held in
    /// registers — but every output element still sees the same
    /// operations in the same order as folding one score at a time, so
    /// the result is bitwise unchanged by the pass structure.
    pub fn fold(&mut self, scores: &mut [f32], acc: &mut [f32], vals: &[f32], stride: usize) {
        let chunk_max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let m_new = self.m.max(chunk_max);
        if m_new == f32::NEG_INFINITY {
            // Everything seen so far is masked out: nothing contributes,
            // and `exp(-inf - -inf)` would manufacture NaN.
            return;
        }
        if m_new > self.m {
            // A new maximum: rescale the partial normalizer and
            // accumulator from base `m` to base `m_new`. On the first
            // finite chunk `l` is still 0 and `acc` all-zero, so the
            // rescale is skipped entirely (avoiding `exp(-inf)` work).
            if self.l != 0.0 {
                let corr = (self.m - m_new).exp();
                self.l *= corr;
                for a in acc.iter_mut() {
                    *a *= corr;
                }
            }
            self.m = m_new;
        }
        for s in scores.iter_mut() {
            *s = (*s - self.m).exp();
        }
        for &p in scores.iter() {
            self.l += p;
        }
        match acc.len() {
            8 => weighted_sum::<8>(acc, scores, vals, stride),
            16 => weighted_sum::<16>(acc, scores, vals, stride),
            32 => weighted_sum::<32>(acc, scores, vals, stride),
            64 => weighted_sum::<64>(acc, scores, vals, stride),
            d => {
                for (i, &p) in scores.iter().enumerate() {
                    axpy(acc, p, &vals[i * stride..][..d]);
                }
            }
        }
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

/// `acc += Σ_i weights[i] * v_i` for a head width `D` known at compile
/// time: the accumulator lives in registers across the whole chunk
/// instead of being loaded and stored once per value row. Each element
/// still takes one multiply and one add per row, in row order — the
/// same roundings as [`axpy`].
#[inline]
fn weighted_sum<const D: usize>(acc: &mut [f32], weights: &[f32], vals: &[f32], stride: usize) {
    let acc: &mut [f32; D] = acc.try_into().expect("head width");
    let mut a = *acc;
    for (i, &p) in weights.iter().enumerate() {
        let v: &[f32; D] = vals[i * stride..][..D].try_into().expect("head width");
        for (x, &y) in a.iter_mut().zip(v) {
            *x += p * y;
        }
    }
    *acc = a;
}

/// `acc[i] += p * v[i]`, dispatched to the SIMD backend when enabled.
/// Elementwise (one multiply, one add per element), so scalar and SIMD
/// forms are bitwise identical.
#[inline]
fn axpy(acc: &mut [f32], p: f32, v: &[f32]) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        crate::simd::axpy_f32(acc, p, v);
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        debug_assert_eq!(acc.len(), v.len());
        for (a, b) in acc.iter_mut().zip(v) {
            *a += p * *b;
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
                let corr = (*m - m_new).exp();
                *l *= corr;
                acc.iter_mut().for_each(|a| *a *= corr);
            }
            *m = m_new;
        }
        for (i, &s) in scores.iter().enumerate() {
            let p = (s - *m).exp();
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
