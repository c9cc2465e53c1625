//! Spatial task assignments (Definition 5) and assignment statistics.

use crate::sequence::TaskSequence;
use crate::store::{TaskStore, WorkerStore};
use crate::task::TaskId;
use crate::time::Timestamp;
use crate::travel::TravelModel;
use crate::worker::WorkerId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt;

/// A spatial task assignment `A`: a set of `(w, VR(S_w))` pairs (Definition 5).
///
/// The map is keyed by worker id; workers with no assigned sequence simply do
/// not appear. The single-task-assignment mode of the paper (each task served
/// by at most one worker) is enforced by [`Assignment::validate`] and by the
/// assignment algorithms themselves.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Assignment {
    sequences: BTreeMap<WorkerId, TaskSequence>,
}

/// Aggregate statistics about an assignment, used by the experiment harness.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct AssignmentStats {
    /// Total number of assigned tasks `|A.S|` — the paper's primary metric.
    pub assigned_tasks: usize,
    /// Number of workers with a non-empty sequence.
    pub active_workers: usize,
    /// Length of the longest per-worker sequence.
    pub max_sequence_len: usize,
    /// Mean sequence length over active workers (0 when none).
    pub mean_sequence_len: f64,
}

impl Assignment {
    /// Creates an empty assignment.
    pub fn new() -> Assignment {
        Assignment::default()
    }

    /// Sets (replaces) the sequence planned for `worker`. Empty sequences are
    /// removed from the map.
    pub fn set(&mut self, worker: WorkerId, sequence: TaskSequence) {
        if sequence.is_empty() {
            self.sequences.remove(&worker);
        } else {
            self.sequences.insert(worker, sequence);
        }
    }

    /// Removes the sequence planned for `worker`, returning it if present.
    pub fn remove(&mut self, worker: WorkerId) -> Option<TaskSequence> {
        self.sequences.remove(&worker)
    }

    /// The sequence currently planned for `worker`, if any.
    pub fn get(&self, worker: WorkerId) -> Option<&TaskSequence> {
        self.sequences.get(&worker)
    }

    /// Mutable access to the sequence planned for `worker`, if any.
    pub fn get_mut(&mut self, worker: WorkerId) -> Option<&mut TaskSequence> {
        self.sequences.get_mut(&worker)
    }

    /// Iterates over `(worker, sequence)` pairs in worker-id order.
    pub fn iter(&self) -> impl Iterator<Item = (WorkerId, &TaskSequence)> {
        self.sequences.iter().map(|(w, s)| (*w, s))
    }

    /// Number of workers with a planned sequence.
    pub fn len(&self) -> usize {
        self.sequences.len()
    }

    /// Whether no worker has a planned sequence.
    pub fn is_empty(&self) -> bool {
        self.sequences.is_empty()
    }

    /// The set of all assigned tasks `A.S = ∪_w VR(S_w)`.
    pub fn assigned_tasks(&self) -> BTreeSet<TaskId> {
        self.sequences.values().flat_map(|s| s.iter()).collect()
    }

    /// `|A.S|`, the objective the ATA problem maximises. Counts distinct tasks.
    pub fn assigned_count(&self) -> usize {
        self.assigned_tasks().len()
    }

    /// The worker serving `task`, if any.
    pub fn worker_of(&self, task: TaskId) -> Option<WorkerId> {
        self.sequences
            .iter()
            .find(|(_, seq)| seq.contains(task))
            .map(|(w, _)| *w)
    }

    /// Merges another assignment into this one. Panics in debug builds if a
    /// worker appears in both (sub-problems produced by worker dependency
    /// separation are disjoint by construction).
    pub fn merge(&mut self, other: Assignment) {
        for (w, seq) in other.sequences {
            debug_assert!(
                !self.sequences.contains_key(&w),
                "worker {w} assigned by two sub-problems"
            );
            self.set(w, seq);
        }
    }

    /// Aggregate statistics for reporting.
    pub fn stats(&self) -> AssignmentStats {
        let assigned_tasks = self.assigned_count();
        let active_workers = self.sequences.len();
        let max_sequence_len = self.sequences.values().map(|s| s.len()).max().unwrap_or(0);
        let total_len: usize = self.sequences.values().map(|s| s.len()).sum();
        let mean_sequence_len = if active_workers == 0 {
            0.0
        } else {
            total_len as f64 / active_workers as f64
        };
        AssignmentStats {
            assigned_tasks,
            active_workers,
            max_sequence_len,
            mean_sequence_len,
        }
    }

    /// Full validation of the assignment at time `now`:
    ///
    /// * every per-worker sequence is a valid task sequence (Definition 4), and
    /// * no task is assigned to more than one worker (single task assignment
    ///   mode).
    ///
    /// Returns a list of human-readable violations (empty when valid).
    pub fn validate(
        &self,
        workers: &WorkerStore,
        tasks: &TaskStore,
        travel: &TravelModel,
        now: Timestamp,
    ) -> Vec<String> {
        let mut violations = Vec::new();
        let mut seen: HashSet<TaskId> = HashSet::new();
        for (wid, seq) in self.iter() {
            let worker = match workers.try_get(wid) {
                Some(w) => w,
                None => {
                    violations.push(format!("unknown worker {wid}"));
                    continue;
                }
            };
            if let Some(v) = seq.check_validity(worker, tasks, travel, now) {
                violations.push(format!("worker {wid}: {v}"));
            }
            for tid in seq.iter() {
                if !seen.insert(tid) {
                    violations.push(format!("task {tid} assigned to multiple workers"));
                }
            }
        }
        violations
    }
}

impl fmt::Display for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Assignment ({} tasks):", self.assigned_count())?;
        for (w, seq) in self.iter() {
            writeln!(f, "  {w} -> {seq}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::location::Location;
    use crate::task::Task;
    use crate::worker::Worker;

    fn fixture() -> (WorkerStore, TaskStore, TravelModel) {
        let mut workers = WorkerStore::new();
        workers.insert(Worker::new(
            WorkerId(0),
            Location::new(0.0, 0.0),
            10.0,
            Timestamp(0.0),
            Timestamp(100.0),
        ));
        workers.insert(Worker::new(
            WorkerId(0),
            Location::new(5.0, 0.0),
            10.0,
            Timestamp(0.0),
            Timestamp(100.0),
        ));
        let mut tasks = TaskStore::new();
        for x in 1..=4 {
            tasks.insert(Task::new(
                TaskId(0),
                Location::new(x as f64, 0.0),
                Timestamp(0.0),
                Timestamp(50.0),
            ));
        }
        (workers, tasks, TravelModel::euclidean(1.0))
    }

    #[test]
    fn assigned_count_deduplicates() {
        let mut a = Assignment::new();
        a.set(WorkerId(0), TaskSequence::from_ids([TaskId(0), TaskId(1)]));
        a.set(WorkerId(1), TaskSequence::from_ids([TaskId(1), TaskId(2)]));
        // Task 1 counted once.
        assert_eq!(a.assigned_count(), 3);
        assert_eq!(a.stats().active_workers, 2);
    }

    #[test]
    fn empty_sequences_are_dropped() {
        let mut a = Assignment::new();
        a.set(WorkerId(0), TaskSequence::empty());
        assert!(a.is_empty());
        a.set(WorkerId(0), TaskSequence::from_ids([TaskId(0)]));
        assert_eq!(a.len(), 1);
        a.set(WorkerId(0), TaskSequence::empty());
        assert!(a.is_empty());
    }

    #[test]
    fn validate_accepts_a_feasible_assignment() {
        let (workers, tasks, travel) = fixture();
        let mut a = Assignment::new();
        a.set(WorkerId(0), TaskSequence::from_ids([TaskId(0), TaskId(1)]));
        a.set(WorkerId(1), TaskSequence::from_ids([TaskId(3)]));
        assert!(a
            .validate(&workers, &tasks, &travel, Timestamp(0.0))
            .is_empty());
    }

    #[test]
    fn validate_flags_double_assignment() {
        let (workers, tasks, travel) = fixture();
        let mut a = Assignment::new();
        a.set(WorkerId(0), TaskSequence::from_ids([TaskId(0)]));
        a.set(WorkerId(1), TaskSequence::from_ids([TaskId(0)]));
        let v = a.validate(&workers, &tasks, &travel, Timestamp(0.0));
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("multiple workers"));
    }

    #[test]
    fn merge_combines_disjoint_assignments() {
        let mut a = Assignment::new();
        a.set(WorkerId(0), TaskSequence::from_ids([TaskId(0)]));
        let mut b = Assignment::new();
        b.set(WorkerId(1), TaskSequence::from_ids([TaskId(1)]));
        a.merge(b);
        assert_eq!(a.assigned_count(), 2);
        assert_eq!(a.worker_of(TaskId(1)), Some(WorkerId(1)));
    }

    #[test]
    fn stats_report_sequence_lengths() {
        let mut a = Assignment::new();
        a.set(
            WorkerId(0),
            TaskSequence::from_ids([TaskId(0), TaskId(1), TaskId(2)]),
        );
        a.set(WorkerId(1), TaskSequence::from_ids([TaskId(3)]));
        let s = a.stats();
        assert_eq!(s.assigned_tasks, 4);
        assert_eq!(s.max_sequence_len, 3);
        assert!((s.mean_sequence_len - 2.0).abs() < 1e-12);
    }
}
