//! Confidence intervals and metric metadata for repeated-trial results.
//!
//! With the small trial counts a benchmark run affords (3–10), normal
//! approximations are fragile; the harness instead uses the same
//! nearest-rank percentile definition as every latency table in the
//! repo (`llmib_types::stats::percentile`): the point estimate is the
//! median, and a `level`% interval spans the `(100−level)/2` and
//! `100−(100−level)/2` percentiles of the trial values. At `n = 3`
//! and `level = 95` that degenerates to `[min, max]`, which is exactly
//! the honest statement: with three trials the interval is the range.

use llmib_types::stats::{p50, percentile};
use serde_json::Value;

/// A percentile bootstrap-style confidence interval over trial values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Median of the trial values.
    pub point: f64,
    /// Lower bound (nearest-rank `(100−level)/2` percentile).
    pub lo: f64,
    /// Upper bound (nearest-rank `100−(100−level)/2` percentile).
    pub hi: f64,
    /// Number of trial values the interval was computed from.
    pub n: usize,
    /// Nominal coverage in percent (e.g. `95.0`).
    pub level: f64,
}

impl ConfidenceInterval {
    /// Interval over `values` at `level`% coverage.
    ///
    /// Panics on an empty slice or a `level` outside `(0, 100]`.
    pub fn from_samples(values: &[f64], level: f64) -> Self {
        assert!(!values.is_empty(), "confidence interval over no samples");
        assert!(
            level > 0.0 && level <= 100.0,
            "confidence level out of range: {level}"
        );
        let tail = (100.0 - level) / 2.0;
        Self {
            point: p50(values),
            lo: percentile(values, tail),
            hi: percentile(values, 100.0 - tail),
            n: values.len(),
            level,
        }
    }

    /// Default 95% interval.
    pub fn from_samples95(values: &[f64]) -> Self {
        Self::from_samples(values, 95.0)
    }

    /// A degenerate interval for a deterministic single observation.
    pub fn exact(point: f64) -> Self {
        Self {
            point,
            lo: point,
            hi: point,
            n: 1,
            level: 100.0,
        }
    }

    /// True when the two intervals share at least one value.
    pub fn overlaps(&self, other: &Self) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// JSON form used inside `BENCH_*.json` metric objects.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("point".into(), Value::Float(self.point)),
            ("lo".into(), Value::Float(self.lo)),
            ("hi".into(), Value::Float(self.hi)),
            ("n".into(), Value::Int(self.n as i64)),
            ("level".into(), Value::Float(self.level)),
        ])
    }

    /// Parse the JSON form back; `None` when fields are missing or
    /// mistyped.
    pub fn from_value(v: &Value) -> Option<Self> {
        let n = v.get("n")?.as_i64()?;
        if n < 1 {
            return None;
        }
        Some(Self {
            point: v.get("point")?.as_f64()?,
            lo: v.get("lo")?.as_f64()?,
            hi: v.get("hi")?.as_f64()?,
            n: n as usize,
            level: v.get("level")?.as_f64()?,
        })
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Larger is better (throughput, speedup, attainment).
    HigherIsBetter,
    /// Smaller is better (latency, energy).
    LowerIsBetter,
}

impl Direction {
    /// Stable string form stored in the schema.
    pub fn as_str(self) -> &'static str {
        match self {
            Direction::HigherIsBetter => "higher_is_better",
            Direction::LowerIsBetter => "lower_is_better",
        }
    }

    /// Parse the stable string form.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "higher_is_better" => Some(Direction::HigherIsBetter),
            "lower_is_better" => Some(Direction::LowerIsBetter),
            _ => None,
        }
    }
}

/// A measured quantity: a confidence interval plus the metadata the
/// regression gate needs to judge it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The interval over trial values.
    pub ci: ConfidenceInterval,
    /// Human-readable unit (`"tokens/s"`, `"s"`, `"ratio"`, …).
    pub unit: String,
    /// Which way this metric improves.
    pub direction: Direction,
    /// Whether the CI regression gate should hard-fail on a
    /// significant regression of this metric. Convention: only
    /// hardware-independent ratios are gated.
    pub gated: bool,
}

impl Metric {
    /// An ungated higher-is-better metric.
    pub fn higher(unit: &str, ci: ConfidenceInterval) -> Self {
        Self {
            ci,
            unit: unit.into(),
            direction: Direction::HigherIsBetter,
            gated: false,
        }
    }

    /// An ungated lower-is-better metric.
    pub fn lower(unit: &str, ci: ConfidenceInterval) -> Self {
        Self {
            ci,
            unit: unit.into(),
            direction: Direction::LowerIsBetter,
            gated: false,
        }
    }

    /// Opt this metric into the regression gate.
    pub fn gated(mut self) -> Self {
        self.gated = true;
        self
    }

    /// JSON form: the interval fields plus `unit`, `direction`,
    /// `gated`.
    pub fn to_value(&self) -> Value {
        let mut fields = match self.ci.to_value() {
            Value::Object(fields) => fields,
            _ => unreachable!("interval serializes to an object"),
        };
        fields.push(("unit".into(), Value::Str(self.unit.clone())));
        fields.push((
            "direction".into(),
            Value::Str(self.direction.as_str().into()),
        ));
        fields.push(("gated".into(), Value::Bool(self.gated)));
        Value::Object(fields)
    }

    /// Parse the JSON form back; `None` when this is not a
    /// well-formed metric object.
    pub fn from_value(v: &Value) -> Option<Self> {
        Some(Self {
            ci: ConfidenceInterval::from_value(v)?,
            unit: v.get("unit")?.as_str()?.to_string(),
            direction: Direction::parse(v.get("direction")?.as_str()?)?,
            gated: v.get("gated")?.as_bool()?,
        })
    }

    /// Cheap structural test: does `v` look like it was written by
    /// [`Metric::to_value`]? Used by schema validation and the gate
    /// walker to find metrics at any nesting depth.
    pub fn is_metric_shaped(v: &Value) -> bool {
        matches!(v, Value::Object(_))
            && v.get("point").is_some()
            && v.get("lo").is_some()
            && v.get("hi").is_some()
            && v.get("direction").is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_trials_at_95_is_min_median_max() {
        let ci = ConfidenceInterval::from_samples(&[3.0, 1.0, 2.0], 95.0);
        assert_eq!(ci.point, 2.0);
        assert_eq!(ci.lo, 1.0);
        assert_eq!(ci.hi, 3.0);
        assert_eq!(ci.n, 3);
    }

    #[test]
    fn hundred_values_at_95_trims_both_tails() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let ci = ConfidenceInterval::from_samples(&values, 95.0);
        // Nearest rank: 2.5% → ceil(2.5) = rank 3; 97.5% → ceil(97.5) = rank 98.
        assert_eq!(ci.point, 50.0);
        assert_eq!(ci.lo, 3.0);
        assert_eq!(ci.hi, 98.0);
    }

    #[test]
    fn overlap_is_symmetric_and_touching_counts() {
        let a = ConfidenceInterval::from_samples(&[1.0, 2.0, 3.0], 95.0);
        let b = ConfidenceInterval::from_samples(&[3.0, 4.0, 5.0], 95.0);
        let c = ConfidenceInterval::from_samples(&[4.5, 5.0, 6.0], 95.0);
        assert!(a.overlaps(&b) && b.overlaps(&a));
        assert!(!a.overlaps(&c) && !c.overlaps(&a));
    }

    #[test]
    fn metric_roundtrips_through_json_value() {
        let m = Metric::higher(
            "tokens/s",
            ConfidenceInterval::from_samples(&[5.0, 6.0, 7.0], 95.0),
        )
        .gated();
        let v = m.to_value();
        assert!(Metric::is_metric_shaped(&v));
        assert_eq!(Metric::from_value(&v).unwrap(), m);
    }
}
