//! Crowd workers and dynamic availability windows (Definition 2).

use crate::location::Location;
use crate::task::Task;
use crate::time::{Duration, Timestamp};
use crate::travel::TravelModel;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a worker. Dense, assigned by the workload generator or the
/// [`crate::store::WorkerStore`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct WorkerId(pub u32);

impl WorkerId {
    /// Index form for direct vector addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for WorkerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// Whether a worker is currently able to accept tasks.
///
/// The paper distinguishes *online* workers (ready to accept tasks) from
/// *offline* workers (unable to perform tasks); the adaptive algorithm only
/// plans for online workers whose availability window has not closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkerMode {
    /// Ready to accept task assignments.
    Online,
    /// Not accepting tasks (off shift, on a break, or departed).
    Offline,
}

/// A worker's availability window: the contiguous period during which the
/// worker may be assigned tasks. Windows are dynamic — the simulator may
/// shrink or extend them mid-trace (breaks, shift changes) through
/// [`Worker::set_window`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AvailabilityWindow {
    /// Online time `w.on`.
    pub on: Timestamp,
    /// Offline (departure) time `w.off`.
    pub off: Timestamp,
}

impl AvailabilityWindow {
    /// Creates a window; `off` must not precede `on`.
    pub fn new(on: Timestamp, off: Timestamp) -> AvailabilityWindow {
        debug_assert!(off.0 >= on.0, "availability window ends before it starts");
        AvailabilityWindow { on, off }
    }

    /// Window length `off − on` (the Table III sweep axis "available time of
    /// workers").
    #[inline]
    pub fn length(&self) -> Duration {
        self.off - self.on
    }

    /// Whether the window contains the instant `t`.
    #[inline]
    pub fn contains(&self, t: Timestamp) -> bool {
        t.0 >= self.on.0 && t.0 < self.off.0
    }

    /// The remaining availability from `now` (zero if the window has closed or
    /// not yet opened).
    pub fn remaining_from(&self, now: Timestamp) -> Duration {
        if now.0 >= self.off.0 {
            Duration::ZERO
        } else {
            let start = now.max(self.on);
            self.off - start
        }
    }
}

/// An online worker `w = (l, d, on, off)` (Definition 2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Worker {
    /// Worker identifier.
    pub id: WorkerId,
    /// Current location `w.l`, from which the worker begins to accept the task
    /// assignment (updated as tasks are performed).
    pub location: Location,
    /// Reachable distance `w.d`: tasks farther than this from the worker's
    /// current location cannot be assigned to them.
    pub reachable_distance: f64,
    /// Availability window `[w.on, w.off)`.
    pub window: AvailabilityWindow,
    /// Online/offline mode.
    pub mode: WorkerMode,
}

impl Worker {
    /// Creates a new online worker.
    pub fn new(
        id: WorkerId,
        location: Location,
        reachable_distance: f64,
        on: Timestamp,
        off: Timestamp,
    ) -> Worker {
        Worker {
            id,
            location,
            reachable_distance,
            window: AvailabilityWindow::new(on, off),
            mode: WorkerMode::Online,
        }
    }

    /// Online time `w.on`.
    #[inline]
    pub fn on(&self) -> Timestamp {
        self.window.on
    }

    /// Offline (departure) time `w.off`.
    #[inline]
    pub fn off(&self) -> Timestamp {
        self.window.off
    }

    /// Replaces the availability window (dynamic windows: breaks, shift
    /// extensions, early departures).
    pub fn set_window(&mut self, window: AvailabilityWindow) {
        self.window = window;
    }

    /// Whether the worker is online and inside their availability window at
    /// time `now`.
    #[inline]
    pub fn is_available_at(&self, now: Timestamp) -> bool {
        self.mode == WorkerMode::Online && self.window.contains(now)
    }

    /// Remaining availability `T_w` from `now` (§IV-A.1).
    #[inline]
    pub fn remaining_window(&self, now: Timestamp) -> Duration {
        self.window.remaining_from(now)
    }

    /// The reachable-task test of §IV-A.1 for a single task, evaluated from
    /// the worker's *current* location at time `now`:
    ///
    /// 1. the task can be reached before its expiration time:
    ///    `c(w.l, s.l) ≤ s.e − now`;
    /// 2. the task can be reached within the remaining availability window:
    ///    `c(w.l, s.l) ≤ T_w`;
    /// 3. the task lies within the worker's reachable range:
    ///    `td(w.l, s.l) ≤ w.d`.
    pub fn can_reach(&self, task: &Task, travel: &TravelModel, now: Timestamp) -> bool {
        if !self.is_available_at(now) {
            return false;
        }
        let tt = travel.travel_time(&self.location, &task.location);
        let td = travel.travel_distance(&self.location, &task.location);
        let before_expiration = tt.seconds() <= (task.expiration - now).seconds();
        let within_window = tt.seconds() <= self.remaining_window(now).seconds();
        let within_range = td <= self.reachable_distance;
        before_expiration && within_window && within_range
    }

    /// Whether all fields are finite and self-consistent.
    pub fn is_well_formed(&self) -> bool {
        self.location.is_finite()
            && self.reachable_distance.is_finite()
            && self.reachable_distance >= 0.0
            && self.window.on.is_finite()
            && self.window.off.is_finite()
            && self.window.off.0 >= self.window.on.0
    }
}

impl fmt::Display for Worker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}@{} d={:.2} on={:.1} off={:.1}",
            self.id, self.location, self.reachable_distance, self.window.on.0, self.window.off.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskId;

    fn basic_worker() -> Worker {
        Worker::new(
            WorkerId(0),
            Location::new(0.0, 0.0),
            2.0,
            Timestamp(0.0),
            Timestamp(100.0),
        )
    }

    fn task_at(x: f64, y: f64, e: f64) -> Task {
        Task::new(TaskId(0), Location::new(x, y), Timestamp(0.0), Timestamp(e))
    }

    #[test]
    fn window_length_and_remaining() {
        let w = AvailabilityWindow::new(Timestamp(10.0), Timestamp(70.0));
        assert_eq!(w.length(), Duration(60.0));
        assert_eq!(w.remaining_from(Timestamp(0.0)), Duration(60.0));
        assert_eq!(w.remaining_from(Timestamp(40.0)), Duration(30.0));
        assert_eq!(w.remaining_from(Timestamp(80.0)), Duration::ZERO);
    }

    #[test]
    fn can_reach_respects_reachable_distance() {
        let w = basic_worker();
        let travel = TravelModel::euclidean(1.0);
        assert!(w.can_reach(&task_at(1.0, 0.0, 100.0), &travel, Timestamp(0.0)));
        assert!(!w.can_reach(&task_at(3.0, 0.0, 100.0), &travel, Timestamp(0.0)));
    }

    #[test]
    fn can_reach_respects_expiration() {
        let w = basic_worker();
        let travel = TravelModel::euclidean(1.0);
        // travel time 2s, expiration at t=1 -> unreachable
        assert!(!w.can_reach(&task_at(2.0, 0.0, 1.0), &travel, Timestamp(0.0)));
        assert!(w.can_reach(&task_at(2.0, 0.0, 3.0), &travel, Timestamp(0.0)));
    }

    #[test]
    fn can_reach_respects_availability_window() {
        let mut w = basic_worker();
        w.set_window(AvailabilityWindow::new(Timestamp(0.0), Timestamp(1.0)));
        let travel = TravelModel::euclidean(1.0);
        // travel time 2s > remaining window 1s
        assert!(!w.can_reach(&task_at(2.0, 0.0, 100.0), &travel, Timestamp(0.0)));
    }

    #[test]
    fn offline_worker_reaches_nothing() {
        let mut w = basic_worker();
        w.mode = WorkerMode::Offline;
        let travel = TravelModel::euclidean(1.0);
        assert!(!w.can_reach(&task_at(0.1, 0.0, 100.0), &travel, Timestamp(0.0)));
    }

    #[test]
    fn availability_only_inside_window() {
        let w = basic_worker();
        assert!(w.is_available_at(Timestamp(0.0)));
        assert!(w.is_available_at(Timestamp(99.9)));
        assert!(!w.is_available_at(Timestamp(100.0)));
    }

    #[test]
    fn well_formedness() {
        let mut w = basic_worker();
        assert!(w.is_well_formed());
        w.reachable_distance = -1.0;
        assert!(!w.is_well_formed());
    }
}
