//! Time primitives used across the workspace.
//!
//! All times are represented as `f64` seconds since an arbitrary experiment
//! epoch (the start of the simulated trace). The paper manipulates two
//! temporal quantities: absolute instants (publication/expiration/online/offline
//! times and arrival times from Eq. 1) and durations (travel times,
//! availability window lengths `off − on`, valid times `e − p`).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// An absolute instant, in seconds since the experiment epoch.
///
/// `Timestamp` is a thin newtype over `f64` so that instants and durations
/// cannot be mixed up accidentally: subtracting two timestamps yields a
/// [`Duration`], adding a [`Duration`] to a timestamp yields a timestamp, and
/// adding two timestamps does not compile.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Timestamp(pub f64);

/// A span of time, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Duration(pub f64);

impl Timestamp {
    /// The experiment epoch (t = 0).
    pub const ZERO: Timestamp = Timestamp(0.0);

    /// Returns the raw number of seconds since the epoch.
    #[inline]
    pub fn seconds(self) -> f64 {
        self.0
    }

    /// Returns the later of `self` and `other`.
    #[inline]
    pub fn max(self, other: Timestamp) -> Timestamp {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of `self` and `other`.
    #[inline]
    pub fn min(self, other: Timestamp) -> Timestamp {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Whether this timestamp is a finite, non-NaN value.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }
}

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0.0);

    /// Builds a duration from seconds.
    #[inline]
    pub fn from_secs(secs: f64) -> Duration {
        Duration(secs)
    }

    /// Raw seconds of this duration.
    #[inline]
    pub fn seconds(self) -> f64 {
        self.0
    }

    /// Returns the larger of two durations.
    #[inline]
    pub fn max(self, other: Duration) -> Duration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;
    #[inline]
    fn add(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Timestamp {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for Timestamp {
    type Output = Timestamp;
    #[inline]
    fn sub(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 - rhs.0)
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Timestamp) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl Add<Duration> for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign<Duration> for Duration {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s", self.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

/// Total ordering helper for timestamps (`f64` is only `PartialOrd`).
///
/// NaN timestamps are considered greater than every finite timestamp so that
/// sorting pushes them to the end, where validation will reject them.
#[inline]
pub fn cmp_timestamps(a: Timestamp, b: Timestamp) -> std::cmp::Ordering {
    // The workspace's one `partial_cmp` call (`tests/source_rules.rs`): the
    // `unwrap_or_else` arm below makes the order total by placing NaN last.
    a.0.partial_cmp(&b.0).unwrap_or_else(|| {
        if a.0.is_nan() && b.0.is_nan() {
            std::cmp::Ordering::Equal
        } else if a.0.is_nan() {
            std::cmp::Ordering::Greater
        } else {
            std::cmp::Ordering::Less
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_arithmetic_produces_durations() {
        let a = Timestamp(10.0);
        let b = Timestamp(4.0);
        assert_eq!(a - b, Duration(6.0));
        assert_eq!(b + Duration(6.0), a);
        assert_eq!(a - Duration(10.0), Timestamp::ZERO);
    }

    #[test]
    fn duration_constructors_convert_units() {
        assert_eq!(Duration::from_secs(7.0), Duration(7.0));
    }

    #[test]
    fn cmp_timestamps_handles_nan() {
        use std::cmp::Ordering;
        assert_eq!(
            cmp_timestamps(Timestamp(1.0), Timestamp(2.0)),
            Ordering::Less
        );
        assert_eq!(
            cmp_timestamps(Timestamp(f64::NAN), Timestamp(2.0)),
            Ordering::Greater
        );
        assert_eq!(
            cmp_timestamps(Timestamp(f64::NAN), Timestamp(f64::NAN)),
            Ordering::Equal
        );
    }

    #[test]
    fn min_max_helpers() {
        assert_eq!(Timestamp(3.0).max(Timestamp(5.0)), Timestamp(5.0));
        assert_eq!(Timestamp(3.0).min(Timestamp(5.0)), Timestamp(3.0));
        assert_eq!(Duration(3.0).max(Duration(5.0)), Duration(5.0));
    }
}
