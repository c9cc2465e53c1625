//! Spatial tasks (Definition 1).

use crate::location::Location;
use crate::time::{Duration, Timestamp};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a spatial task. Dense, assigned by the workload generator or
/// the [`crate::store::TaskStore`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct TaskId(pub u32);

impl TaskId {
    /// Index form for direct vector addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A spatial task `s = (l, p, e)` (Definition 1): a location where the task
/// must be performed, a publication time and an expiration time.
///
/// The paper's single-task-assignment mode means every task is performed at
/// most once by at most one worker; that bookkeeping lives in
/// [`crate::assignment::Assignment`], not here.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Task {
    /// Task identifier.
    pub id: TaskId,
    /// Location `s.l` where the task is performed.
    pub location: Location,
    /// Publication time `s.p`: the instant the task becomes known/assignable.
    pub publication: Timestamp,
    /// Expiration time `s.e`: the task must be *reached* strictly before this.
    pub expiration: Timestamp,
}

impl Task {
    /// Creates a new task. Panics (debug builds) if the expiration precedes the
    /// publication.
    pub fn new(
        id: TaskId,
        location: Location,
        publication: Timestamp,
        expiration: Timestamp,
    ) -> Task {
        debug_assert!(
            expiration.0 >= publication.0,
            "task {id}: expiration {expiration} precedes publication {publication}"
        );
        Task {
            id,
            location,
            publication,
            expiration,
        }
    }

    /// The task's valid time `e − p` (the Table III sweep axis).
    #[inline]
    pub fn valid_time(&self) -> Duration {
        self.expiration - self.publication
    }

    /// Whether the task is still assignable at time `now`: already published
    /// and not yet expired.
    #[inline]
    pub fn is_open_at(&self, now: Timestamp) -> bool {
        now.0 >= self.publication.0 && now.0 < self.expiration.0
    }

    /// Whether the task has expired at time `now`.
    #[inline]
    pub fn is_expired_at(&self, now: Timestamp) -> bool {
        now.0 >= self.expiration.0
    }

    /// Whether all fields are finite and the lifetime is non-degenerate.
    pub fn is_well_formed(&self) -> bool {
        self.location.is_finite()
            && self.publication.is_finite()
            && self.expiration.is_finite()
            && self.expiration.0 >= self.publication.0
    }
}

impl fmt::Display for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}@{} p={:.1} e={:.1}",
            self.id, self.location, self.publication.0, self.expiration.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(p: f64, e: f64) -> Task {
        Task::new(
            TaskId(1),
            Location::new(1.0, 1.0),
            Timestamp(p),
            Timestamp(e),
        )
    }

    #[test]
    fn valid_time_is_expiration_minus_publication() {
        assert_eq!(task(2.0, 8.0).valid_time(), Duration(6.0));
    }

    #[test]
    fn openness_window_is_half_open() {
        let t = task(2.0, 8.0);
        assert!(!t.is_open_at(Timestamp(1.9)));
        assert!(t.is_open_at(Timestamp(2.0)));
        assert!(t.is_open_at(Timestamp(7.9)));
        assert!(!t.is_open_at(Timestamp(8.0)));
        assert!(t.is_expired_at(Timestamp(8.0)));
        assert!(!t.is_expired_at(Timestamp(7.9)));
    }

    #[test]
    fn well_formedness_rejects_nan() {
        let mut t = task(2.0, 8.0);
        assert!(t.is_well_formed());
        t.location = Location::new(f64::NAN, 0.0);
        assert!(!t.is_well_formed());
    }

    #[test]
    fn display_is_compact() {
        let t = task(1.0, 4.0);
        assert_eq!(format!("{}", t.id), "s1");
        assert!(format!("{t}").contains("s1"));
    }
}
