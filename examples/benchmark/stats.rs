//! Order statistics behind every reported number.
//!
//! Percentiles are the repository's nearest-rank definition
//! (`llmib_types::stats::percentile`), so a benchmark p90 means the same
//! thing as a `ServeReport` p90. A tail percentile is reported only when
//! the sample leaves at least [`TAIL_SAMPLES`] observations beyond it.

use llmib_types::stats::percentile;

/// Observations a reported tail percentile must leave beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// One reported number and the count of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    /// The statistic.
    pub value: f64,
    /// Samples it was computed from.
    pub n: usize,
}

impl Stat {
    /// A value computed from `n` samples.
    pub fn new(value: f64, n: usize) -> Self {
        Self { value, n }
    }
}

/// Nearest-rank percentile `p` of `values`, with its sample count.
pub fn pct(values: &[f64], p: f64) -> Stat {
    Stat::new(percentile(values, p), values.len())
}

/// Nearest-rank median of `values`, with its sample count.
pub fn median(values: &[f64]) -> Stat {
    pct(values, 50.0)
}

/// The best of several repetitions of one measurement: the highest
/// when higher is better, else the lowest. Interference from the host
/// can only slow a repetition down, never speed it up, so the best one
/// is the least disturbed.
pub fn best(values: &[f64], higher_is_better: bool) -> Stat {
    let v = values.iter().copied();
    let value = if higher_is_better {
        v.fold(f64::NEG_INFINITY, f64::max)
    } else {
        v.fold(f64::INFINITY, f64::min)
    };
    Stat::new(value, values.len())
}

/// Observations strictly beyond the nearest-rank `p`-th percentile of
/// `n` samples (the percentile sits at rank `ceil(n * p / 100)`).
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = ((n as f64 * p / 100.0).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// Whether `n` samples support reporting percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= TAIL_SAMPLES
}

/// The highest percentile `n` samples support, if any.
pub fn highest_supported(n: usize) -> Option<f64> {
    (n > TAIL_SAMPLES).then(|| 100.0 * (n - TAIL_SAMPLES) as f64 / n as f64)
}

/// Latency limits of one workload's service-level objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloLimits {
    /// Time to first token, from when the request was due, in seconds.
    pub ttft_s: f64,
    /// Eq. 1 inter-token latency of the request, in seconds.
    pub itl_s: f64,
}

impl SloLimits {
    /// Whether a completed request with this TTFT and Eq. 1 ITL (`None`
    /// for a single-token output) meets both limits.
    pub fn met(&self, ttft_s: f64, itl_s: Option<f64>) -> bool {
        ttft_s <= self.ttft_s && itl_s.is_none_or(|itl| itl <= self.itl_s)
    }
}

/// Share of requests *sent* that completed within the limits. A request
/// that was refused or failed never appears in `met`, so it counts as a
/// miss rather than dropping out of the denominator.
pub fn slo_attainment(met: usize, sent: usize) -> f64 {
    if sent == 0 {
        0.0
    } else {
        met as f64 / sent as f64
    }
}

/// Time to first token measured from when the request was due: how late
/// the generator submitted it plus the server's own TTFT, which starts
/// at submission. A generator stall therefore shows in the metric
/// instead of silently delaying the clock.
pub fn ttft_from_due(lateness_s: f64, server_ttft_s: f64) -> f64 {
    lateness_s + server_ttft_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(pct(&v, 50.0), Stat::new(100.0, 200));
        assert_eq!(pct(&v, 90.0).value, 180.0);
        assert_eq!(pct(&v, 99.0).value, 198.0);
        // Nearest rank returns an observation, never an interpolation.
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]).value, 2.0);
        assert_eq!(median(&[]), Stat::new(0.0, 0));
    }

    #[test]
    fn best_repetition_ignores_the_slowed_ones() {
        // Four rounds near 10k tok/s and two the host slowed to ~6k: the
        // best round reads the undisturbed speed, where a mean would
        // not.
        let tok_s = [9_800.0, 10_000.0, 6_000.0, 9_900.0, 6_100.0, 9_700.0];
        assert_eq!(best(&tok_s, true), Stat::new(10_000.0, 6));
        let mean = tok_s.iter().sum::<f64>() / tok_s.len() as f64;
        assert!(mean < 0.9 * 10_000.0);
        let ttft_ms = [61.0, 118.0, 59.5, 60.2, 121.0];
        assert_eq!(best(&ttft_ms, false), Stat::new(59.5, 5));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert!(supports(100, 90.0));
        assert!(!supports(99, 90.0), "rank 90 of 99 leaves only 9 beyond");
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert_eq!(highest_supported(160), Some(93.75));
        assert!(supports(160, 93.75));
        assert!(!supports(160, 94.0));
        assert_eq!(highest_supported(10), None);
        assert_eq!(samples_beyond(0, 50.0), 0);
    }

    #[test]
    fn slo_attainment_counts_over_requests_sent() {
        let limits = SloLimits {
            ttft_s: 1.0,
            itl_s: 0.010,
        };
        // Ten sent: two refused, eight completed, one of which is slow.
        let completed = [
            (0.2, Some(0.004)),
            (0.3, Some(0.005)),
            (0.9, None),
            (1.0, Some(0.010)),
            (0.1, Some(0.002)),
            (0.4, Some(0.003)),
            (0.5, Some(0.011)), // ITL over the limit
            (0.6, Some(0.006)),
        ];
        let met = completed.iter().filter(|(t, i)| limits.met(*t, *i)).count();
        assert_eq!(met, 7);
        assert_eq!(slo_attainment(met, 10), 0.7, "not 7/8: refusals are misses");
        assert_eq!(slo_attainment(0, 0), 0.0);
    }

    #[test]
    fn ttft_runs_from_due_time() {
        // Submitted 5 ms late, server saw 40 ms to first token.
        assert!((ttft_from_due(0.005, 0.040) - 0.045).abs() < 1e-15);
        assert_eq!(ttft_from_due(0.0, 0.040), 0.040);
    }
}
