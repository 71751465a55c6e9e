//! Physical-unit newtypes used by the roofline arithmetic.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

macro_rules! unit {
    ($(#[$meta:meta])* $name:ident, $suffix:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
        pub struct $name(pub f64);

        impl $name {
            /// The zero value of this unit.
            pub const ZERO: Self = Self(0.0);

            /// Raw `f64` value in base units.
            pub fn value(self) -> f64 {
                self.0
            }

            /// Element-wise maximum.
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Element-wise minimum.
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div for $name {
            type Output = f64;
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:.4} {}", self.0, $suffix)
            }
        }
    };
}

unit!(
    /// A count of floating-point operations (dimensionless work).
    Flops,
    "FLOP"
);
unit!(
    /// A rate of floating-point operations per second.
    FlopsRate,
    "FLOP/s"
);
unit!(
    /// A count of bytes (memory traffic or capacity).
    ByteCount,
    "B"
);
unit!(
    /// Wall-clock time in seconds.
    Seconds,
    "s"
);
unit!(
    /// Instantaneous power in watts.
    Watts,
    "W"
);
unit!(
    /// Energy in joules.
    Joules,
    "J"
);
unit!(
    /// Token throughput in tokens per second (paper Eq. 2).
    TokensPerSecond,
    "tok/s"
);

impl Flops {
    /// Tera-FLOP convenience constructor.
    pub fn tera(t: f64) -> Self {
        Self(t * 1e12)
    }

    /// Time to execute this much work at `rate`.
    pub fn time_at(self, rate: FlopsRate) -> Seconds {
        Seconds(self.0 / rate.0)
    }
}

impl FlopsRate {
    /// Tera-FLOP/s convenience constructor.
    pub fn tera(t: f64) -> Self {
        Self(t * 1e12)
    }
}

impl ByteCount {
    /// Gibibyte constructor (`GiB`, 2^30 bytes).
    pub fn gib(g: f64) -> Self {
        Self(g * (1u64 << 30) as f64)
    }

    /// Mebibyte constructor (`MiB`, 2^20 bytes).
    pub fn mib(m: f64) -> Self {
        Self(m * (1u64 << 20) as f64)
    }

    /// Kibibyte constructor (`KiB`, 2^10 bytes).
    pub fn kib(k: f64) -> Self {
        Self(k * 1024.0)
    }

    /// Value in GiB.
    pub fn as_gib(self) -> f64 {
        self.0 / (1u64 << 30) as f64
    }

    /// Time to move this many bytes at a bandwidth of `bytes_per_s`.
    pub fn time_at(self, bandwidth: BytesPerSecond) -> Seconds {
        Seconds(self.0 / bandwidth.0)
    }
}

unit!(
    /// Memory/interconnect bandwidth in bytes per second.
    BytesPerSecond,
    "B/s"
);

impl BytesPerSecond {
    /// GB/s (decimal, as vendor datasheets quote) constructor.
    pub fn gb(g: f64) -> Self {
        Self(g * 1e9)
    }

    /// TB/s (decimal) constructor.
    pub fn tb(t: f64) -> Self {
        Self(t * 1e12)
    }
}

impl Seconds {
    /// Milliseconds constructor.
    pub fn millis(ms: f64) -> Self {
        Self(ms * 1e-3)
    }

    /// Microseconds constructor.
    pub fn micros(us: f64) -> Self {
        Self(us * 1e-6)
    }

    /// Value in milliseconds.
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// Energy dissipated at a constant power over this duration.
    pub fn energy_at(self, power: Watts) -> Joules {
        Joules(self.0 * power.0)
    }
}

impl Watts {
    /// Performance-per-watt given a throughput.
    pub fn perf_per_watt(self, throughput: TokensPerSecond) -> f64 {
        throughput.0 / self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn flops_time() {
        let work = Flops::tera(2.0);
        let rate = FlopsRate::tera(1.0);
        assert!((work.time_at(rate).value() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn byte_conversions() {
        assert_eq!(ByteCount::gib(1.0).value(), 1073741824.0);
        assert!((ByteCount::gib(40.0).as_gib() - 40.0).abs() < 1e-12);
        assert_eq!(ByteCount::kib(16.0).value(), 16384.0);
    }

    #[test]
    fn bandwidth_time() {
        let bytes = ByteCount(2e9);
        let bw = BytesPerSecond::gb(1.0);
        assert!((bytes.time_at(bw).value() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn seconds_energy() {
        let e = Seconds(10.0).energy_at(Watts(300.0));
        assert_eq!(e.value(), 3000.0);
    }

    #[test]
    fn display_has_suffix() {
        assert!(format!("{}", Watts(12.5)).contains('W'));
        assert!(format!("{}", TokensPerSecond(7.0)).contains("tok/s"));
    }

    #[test]
    fn sum_units() {
        let total: Seconds = [Seconds(1.0), Seconds(2.5)].into_iter().sum();
        assert!((total.value() - 3.5).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn add_sub_roundtrip(a in 0.0f64..1e15, b in 0.0f64..1e15) {
            let x = Flops(a) + Flops(b) - Flops(b);
            prop_assert!((x.value() - a).abs() <= a.abs() * 1e-9 + 1e-6);
        }

        #[test]
        fn ratio_is_dimensionless(a in 1.0f64..1e12, b in 1.0f64..1e12) {
            let r = ByteCount(a) / ByteCount(b);
            prop_assert!((r - a / b).abs() < 1e-9 * (a / b).abs() + 1e-12);
        }

        #[test]
        fn max_min_ordering(a in 0.0f64..1e9, b in 0.0f64..1e9) {
            let hi = Seconds(a).max(Seconds(b));
            let lo = Seconds(a).min(Seconds(b));
            prop_assert!(hi.value() >= lo.value());
        }
    }
}
