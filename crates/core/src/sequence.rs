//! Task sequences, arrival times (Eq. 1) and validity (Definition 4).

use crate::store::TaskStore;
use crate::task::TaskId;
use crate::time::Timestamp;
use crate::travel::TravelModel;
use crate::worker::Worker;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An ordered sequence of tasks `R(S_w)` to be performed by one worker
/// (Definition 3).
///
/// The sequence stores only task ids; geometry and deadlines are looked up in
/// a [`TaskStore`] when computing arrival times or checking validity.
#[derive(Debug, Clone, PartialEq, Eq, Default, Hash, Serialize, Deserialize)]
pub struct TaskSequence {
    tasks: Vec<TaskId>,
}

/// The reason a task sequence is invalid for a worker (Definition 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValidityViolation {
    /// Constraint (i): some task would be reached at or after its expiration.
    Expiration(TaskId),
    /// Constraint (ii): some task would be reached at or after the worker's
    /// offline time.
    OfflineTime(TaskId),
    /// Constraint (iii): some task lies outside the worker's reachable range
    /// measured from the worker's current location.
    OutOfRange(TaskId),
    /// The sequence assigns the same task more than once.
    Duplicate(TaskId),
}

impl fmt::Display for ValidityViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidityViolation::Expiration(t) => write!(f, "{t} reached after its expiration"),
            ValidityViolation::OfflineTime(t) => {
                write!(f, "{t} reached after the worker goes offline")
            }
            ValidityViolation::OutOfRange(t) => {
                write!(f, "{t} outside the worker's reachable range")
            }
            ValidityViolation::Duplicate(t) => write!(f, "{t} appears more than once"),
        }
    }
}

/// Arrival times `t_{R,w}(s_i.l)` for each task of a sequence, plus the
/// completion time of the whole sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalTimes {
    /// Arrival time at each task, in sequence order.
    pub per_task: Vec<Timestamp>,
    /// Arrival time at the last task (equal to `per_task.last()`), or `now`
    /// for an empty sequence.
    pub completion: Timestamp,
    /// Total distance travelled along the sequence (from the worker's start
    /// location through every task location in order).
    pub total_distance: f64,
}

impl TaskSequence {
    /// The empty sequence.
    pub fn empty() -> TaskSequence {
        TaskSequence { tasks: Vec::new() }
    }

    /// Builds a sequence from task ids in execution order.
    pub fn from_ids<I: IntoIterator<Item = TaskId>>(ids: I) -> TaskSequence {
        TaskSequence {
            tasks: ids.into_iter().collect(),
        }
    }

    /// Number of tasks in the sequence.
    #[inline]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the sequence is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The tasks in execution order.
    #[inline]
    pub fn tasks(&self) -> &[TaskId] {
        &self.tasks
    }

    /// First task of the sequence, if any (the adaptive algorithm dispatches
    /// `VR(w)[0]` to each idle worker, Alg. 3 line 12).
    #[inline]
    pub fn first(&self) -> Option<TaskId> {
        self.tasks.first().copied()
    }

    /// Appends a task to the end of the sequence.
    pub fn push(&mut self, task: TaskId) {
        self.tasks.push(task);
    }

    /// Removes and returns the first task (after the worker has departed for
    /// it), shifting the rest forward.
    pub fn pop_front(&mut self) -> Option<TaskId> {
        if self.tasks.is_empty() {
            None
        } else {
            Some(self.tasks.remove(0))
        }
    }

    /// Whether the sequence contains `task`.
    pub fn contains(&self, task: TaskId) -> bool {
        self.tasks.contains(&task)
    }

    /// Iterates over the task ids in execution order.
    pub fn iter(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.tasks.iter().copied()
    }

    /// Computes the arrival time at every task of the sequence per Eq. 1:
    ///
    /// * the first task is reached at `now + c(w.l, s_1.l)`;
    /// * each subsequent task is reached at the previous arrival time plus the
    ///   travel time between the two task locations.
    ///
    /// The worker is assumed to start from its current location at `now`.
    /// Task service times are zero, as in the paper.
    pub fn arrival_times(
        &self,
        worker: &Worker,
        tasks: &TaskStore,
        travel: &TravelModel,
        now: Timestamp,
    ) -> ArrivalTimes {
        let mut per_task = Vec::with_capacity(self.tasks.len());
        let mut current_loc = worker.location;
        let mut current_time = now;
        let mut total_distance = 0.0;
        for &tid in &self.tasks {
            let task = tasks.get(tid);
            let dist = travel.travel_distance(&current_loc, &task.location);
            let tt = travel.travel_time(&current_loc, &task.location);
            current_time += tt;
            total_distance += dist;
            per_task.push(current_time);
            current_loc = task.location;
        }
        ArrivalTimes {
            completion: per_task.last().copied().unwrap_or(now),
            per_task,
            total_distance,
        }
    }

    /// Checks the three validity constraints of Definition 4 (plus the
    /// implicit single-assignment constraint that a task appears only once in
    /// the sequence), returning the first violation found, or `None` when the
    /// sequence is a valid task sequence `VR(S_w)` for `worker` starting at
    /// `now`.
    ///
    /// Note the range constraint (iii) is measured from the worker's *current*
    /// location to each task, matching the paper (`td(w.l, s_i.l) < w.d`), not
    /// cumulatively along the route.
    pub fn check_validity(
        &self,
        worker: &Worker,
        tasks: &TaskStore,
        travel: &TravelModel,
        now: Timestamp,
    ) -> Option<ValidityViolation> {
        // Duplicate detection without allocation for the common short case.
        for (i, &a) in self.tasks.iter().enumerate() {
            if self.tasks[i + 1..].contains(&a) {
                return Some(ValidityViolation::Duplicate(a));
            }
        }
        let arrivals = self.arrival_times(worker, tasks, travel, now);
        for (idx, &tid) in self.tasks.iter().enumerate() {
            let task = tasks.get(tid);
            let arrive = arrivals.per_task[idx];
            if arrive.0 >= task.expiration.0 {
                return Some(ValidityViolation::Expiration(tid));
            }
            if arrive.0 >= worker.off().0 {
                return Some(ValidityViolation::OfflineTime(tid));
            }
            if travel.travel_distance(&worker.location, &task.location) > worker.reachable_distance
            {
                return Some(ValidityViolation::OutOfRange(tid));
            }
        }
        None
    }

    /// Whether the sequence is valid for `worker` at `now` (Definition 4).
    pub fn is_valid(
        &self,
        worker: &Worker,
        tasks: &TaskStore,
        travel: &TravelModel,
        now: Timestamp,
    ) -> bool {
        self.check_validity(worker, tasks, travel, now).is_none()
    }

    /// The completion time of the sequence (arrival at the last task), used to
    /// compare orderings of the same task set when selecting the *maximal*
    /// valid task sequence (Eq. 10).
    pub fn completion_time(
        &self,
        worker: &Worker,
        tasks: &TaskStore,
        travel: &TravelModel,
        now: Timestamp,
    ) -> Timestamp {
        self.arrival_times(worker, tasks, travel, now).completion
    }
}

impl fmt::Display for TaskSequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, t) in self.tasks.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

impl FromIterator<TaskId> for TaskSequence {
    fn from_iter<I: IntoIterator<Item = TaskId>>(iter: I) -> Self {
        TaskSequence::from_ids(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::location::Location;
    use crate::task::Task;
    use crate::worker::WorkerId;

    fn fixture() -> (Worker, TaskStore, TravelModel) {
        let worker = Worker::new(
            WorkerId(0),
            Location::new(0.0, 0.0),
            10.0,
            Timestamp(0.0),
            Timestamp(100.0),
        );
        let mut store = TaskStore::new();
        // Tasks laid out on a line at x = 1, 2, 3 with generous deadlines.
        store.insert(Task::new(
            TaskId(0),
            Location::new(1.0, 0.0),
            Timestamp(0.0),
            Timestamp(50.0),
        ));
        store.insert(Task::new(
            TaskId(0),
            Location::new(2.0, 0.0),
            Timestamp(0.0),
            Timestamp(50.0),
        ));
        store.insert(Task::new(
            TaskId(0),
            Location::new(3.0, 0.0),
            Timestamp(0.0),
            Timestamp(50.0),
        ));
        (worker, store, TravelModel::euclidean(1.0))
    }

    #[test]
    fn arrival_times_follow_eq1() {
        let (w, s, travel) = fixture();
        let seq = TaskSequence::from_ids([TaskId(0), TaskId(1), TaskId(2)]);
        let arr = seq.arrival_times(&w, &s, &travel, Timestamp(0.0));
        assert_eq!(
            arr.per_task,
            vec![Timestamp(1.0), Timestamp(2.0), Timestamp(3.0)]
        );
        assert_eq!(arr.completion, Timestamp(3.0));
        assert!((arr.total_distance - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_sequence_completes_immediately() {
        let (w, s, travel) = fixture();
        let seq = TaskSequence::empty();
        let arr = seq.arrival_times(&w, &s, &travel, Timestamp(5.0));
        assert_eq!(arr.completion, Timestamp(5.0));
        assert!(arr.per_task.is_empty());
        assert!(seq.is_valid(&w, &s, &travel, Timestamp(5.0)));
    }

    #[test]
    fn expiration_violation_detected() {
        let (w, mut s, travel) = fixture();
        // Task expiring at t=0.5 but 1s away.
        let tid = s.insert(Task::new(
            TaskId(0),
            Location::new(1.0, 0.0),
            Timestamp(0.0),
            Timestamp(0.5),
        ));
        let seq = TaskSequence::from_ids([tid]);
        assert_eq!(
            seq.check_validity(&w, &s, &travel, Timestamp(0.0)),
            Some(ValidityViolation::Expiration(tid))
        );
    }

    #[test]
    fn offline_violation_detected() {
        let (mut w, s, travel) = fixture();
        w.window = crate::worker::AvailabilityWindow::new(Timestamp(0.0), Timestamp(2.5));
        let seq = TaskSequence::from_ids([TaskId(0), TaskId(1), TaskId(2)]);
        assert_eq!(
            seq.check_validity(&w, &s, &travel, Timestamp(0.0)),
            Some(ValidityViolation::OfflineTime(TaskId(2)))
        );
    }

    #[test]
    fn out_of_range_violation_detected() {
        let (mut w, s, travel) = fixture();
        w.reachable_distance = 1.5;
        let seq = TaskSequence::from_ids([TaskId(0), TaskId(1)]);
        assert_eq!(
            seq.check_validity(&w, &s, &travel, Timestamp(0.0)),
            Some(ValidityViolation::OutOfRange(TaskId(1)))
        );
    }

    #[test]
    fn duplicate_violation_detected() {
        let (w, s, travel) = fixture();
        let seq = TaskSequence::from_ids([TaskId(0), TaskId(0)]);
        assert_eq!(
            seq.check_validity(&w, &s, &travel, Timestamp(0.0)),
            Some(ValidityViolation::Duplicate(TaskId(0)))
        );
    }

    #[test]
    fn valid_sequence_passes_all_checks() {
        let (w, s, travel) = fixture();
        let seq = TaskSequence::from_ids([TaskId(0), TaskId(1), TaskId(2)]);
        assert!(seq.is_valid(&w, &s, &travel, Timestamp(0.0)));
        assert_eq!(
            seq.completion_time(&w, &s, &travel, Timestamp(0.0)),
            Timestamp(3.0)
        );
    }

    #[test]
    fn pop_front_and_first() {
        let mut seq = TaskSequence::from_ids([TaskId(3), TaskId(5)]);
        assert_eq!(seq.first(), Some(TaskId(3)));
        assert_eq!(seq.pop_front(), Some(TaskId(3)));
        assert_eq!(seq.first(), Some(TaskId(5)));
        assert_eq!(seq.pop_front(), Some(TaskId(5)));
        assert_eq!(seq.pop_front(), None);
    }

    #[test]
    fn display_formats_like_the_paper() {
        let seq = TaskSequence::from_ids([TaskId(1), TaskId(3)]);
        assert_eq!(format!("{seq}"), "(s1, s3)");
    }
}
