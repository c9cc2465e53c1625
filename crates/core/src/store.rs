//! Arena-style stores for tasks and workers.
//!
//! Assignment algorithms and the streaming simulator refer to tasks and
//! workers by their dense identifiers; the stores own the actual records and
//! provide O(1) lookup plus the open-task view the runner keeps. (Which
//! workers are available is kept by the runner itself, as events:
//! `datawa_assign::RunnerState`.)

use crate::task::{Task, TaskId};
use crate::time::Timestamp;
use crate::worker::{Worker, WorkerId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Owning collection of tasks, addressable by [`TaskId`].
///
/// Task identifiers are expected to be dense (0..n); the workload generators
/// in `datawa-sim` always produce dense ids, and [`TaskStore::insert`] assigns
/// the next dense id itself.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TaskStore {
    tasks: Vec<Task>,
}

impl TaskStore {
    /// Creates an empty store.
    pub fn new() -> TaskStore {
        TaskStore { tasks: Vec::new() }
    }

    /// Creates a store from pre-built tasks, re-indexing their ids densely in
    /// input order.
    pub fn from_tasks<I: IntoIterator<Item = Task>>(tasks: I) -> TaskStore {
        let mut store = TaskStore::new();
        for t in tasks {
            store.insert_with_location(t.location, t.publication, t.expiration);
        }
        store
    }

    /// Inserts a task built from its components, assigning the next dense id.
    pub fn insert_with_location(
        &mut self,
        location: crate::location::Location,
        publication: Timestamp,
        expiration: Timestamp,
    ) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        self.tasks
            .push(Task::new(id, location, publication, expiration));
        id
    }

    /// Inserts an already-constructed task, overriding its id with the next
    /// dense id, and returns the assigned id.
    pub fn insert(&mut self, mut task: Task) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        task.id = id;
        self.tasks.push(task);
        id
    }

    /// Number of tasks in the store.
    #[inline]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the store is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Borrow a task by id. Panics if the id is out of range.
    #[inline]
    pub fn get(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// Borrow a task by id if present.
    #[inline]
    pub fn try_get(&self, id: TaskId) -> Option<&Task> {
        self.tasks.get(id.index())
    }

    /// Mutable borrow of a task by id.
    #[inline]
    pub fn get_mut(&mut self, id: TaskId) -> &mut Task {
        &mut self.tasks[id.index()]
    }

    /// Iterates over all tasks.
    pub fn iter(&self) -> impl Iterator<Item = &Task> {
        self.tasks.iter()
    }

    /// All task ids.
    pub fn ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.tasks.len() as u32).map(TaskId)
    }

    /// Ids of tasks that are open (published, unexpired) at `now`.
    pub fn open_at(&self, now: Timestamp) -> Vec<TaskId> {
        self.tasks
            .iter()
            .filter(|t| t.is_open_at(now))
            .map(|t| t.id)
            .collect()
    }

    /// Raw slice of tasks (dense id order).
    #[inline]
    pub fn as_slice(&self) -> &[Task] {
        &self.tasks
    }
}

/// Owning collection of workers, addressable by [`WorkerId`].
///
/// Every slot carries a *mutation stamp*: a counter bumped whenever the
/// worker record is handed out mutably ([`WorkerStore::get_mut`],
/// [`WorkerStore::iter_mut`]). A reader that remembers the stamp it last saw
/// ([`WorkerStore::stamp`]) learns from one `u32` compare that the record
/// cannot have changed since — without loading the record — and no caller
/// has to announce its writes for that to hold.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WorkerStore {
    workers: Vec<Worker>,
    /// Mutation stamp per slot, parallel to `workers`.
    stamps: Vec<u32>,
}

impl WorkerStore {
    /// Creates an empty store.
    pub fn new() -> WorkerStore {
        WorkerStore::default()
    }

    /// Creates a store from pre-built workers, re-indexing their ids densely
    /// in input order.
    pub fn from_workers<I: IntoIterator<Item = Worker>>(workers: I) -> WorkerStore {
        let mut store = WorkerStore::new();
        for w in workers {
            store.insert(w);
        }
        store
    }

    /// Inserts a worker, overriding its id with the next dense id, and returns
    /// the assigned id.
    pub fn insert(&mut self, mut worker: Worker) -> WorkerId {
        let id = WorkerId(self.workers.len() as u32);
        worker.id = id;
        self.workers.push(worker);
        self.stamps.push(0);
        id
    }

    /// Number of workers in the store.
    #[inline]
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Whether the store is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Borrow a worker by id. Panics if the id is out of range.
    #[inline]
    pub fn get(&self, id: WorkerId) -> &Worker {
        &self.workers[id.index()]
    }

    /// Borrow a worker by id if present.
    #[inline]
    pub fn try_get(&self, id: WorkerId) -> Option<&Worker> {
        self.workers.get(id.index())
    }

    /// Mutable borrow of a worker by id. Bumps the slot's mutation stamp
    /// (whether or not the caller ends up writing).
    #[inline]
    pub fn get_mut(&mut self, id: WorkerId) -> &mut Worker {
        let stamp = &mut self.stamps[id.index()];
        *stamp = stamp.wrapping_add(1);
        &mut self.workers[id.index()]
    }

    /// The slot's mutation stamp: equal to an earlier reading only if the
    /// worker was not handed out mutably in between (the counter wraps after
    /// 2³² hand-outs of one slot between two readings).
    #[inline]
    pub fn stamp(&self, id: WorkerId) -> u32 {
        self.stamps[id.index()]
    }

    /// Iterates over all workers.
    pub fn iter(&self) -> impl Iterator<Item = &Worker> {
        self.workers.iter()
    }

    /// Mutable iteration over all workers (the simulator moves workers along
    /// their planned legs). Bumps every slot's mutation stamp.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Worker> {
        for stamp in &mut self.stamps {
            *stamp = stamp.wrapping_add(1);
        }
        self.workers.iter_mut()
    }

    /// All worker ids.
    pub fn ids(&self) -> impl Iterator<Item = WorkerId> + '_ {
        (0..self.workers.len() as u32).map(WorkerId)
    }

    /// Ids of workers that are online and within their availability window at
    /// `now`.
    pub fn available_at(&self, now: Timestamp) -> Vec<WorkerId> {
        self.workers
            .iter()
            .filter(|w| w.is_available_at(now))
            .map(|w| w.id)
            .collect()
    }

    /// Raw slice of workers (dense id order).
    #[inline]
    pub fn as_slice(&self) -> &[Worker] {
        &self.workers
    }
}

/// Incrementally maintained set of *candidate open* task ids.
///
/// The streaming engine keeps one of these next to the [`TaskStore`] so that
/// finding the open tasks at a planning instant costs `O(|open|)` instead of a
/// full `O(|all tasks|)` rescan: arrivals [`OpenTaskView::insert`] in
/// `O(log n)`, expirations and served tasks [`OpenTaskView::remove`] in
/// `O(log n)`, and iteration yields ids in ascending order — the same order
/// a full scan of the store gives, so planning inputs do not depend on how
/// the view was maintained.
///
/// The view is a *candidate* set: a task whose expiration event has not
/// fired yet may still be in it, so readers filter with [`Task::is_open_at`]
/// while iterating ([`OpenTaskView::open_at_into`] also drops what it
/// filters); the expiration event removes it eagerly.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OpenTaskView {
    open: BTreeSet<TaskId>,
}

impl OpenTaskView {
    /// Creates an empty view.
    pub fn new() -> OpenTaskView {
        OpenTaskView::default()
    }

    /// Adds a task id to the view (`O(log n)`). Returns `false` if already
    /// present.
    #[inline]
    pub fn insert(&mut self, id: TaskId) -> bool {
        self.open.insert(id)
    }

    /// Removes a task id from the view (`O(log n)`). Returns `true` if it was
    /// present.
    #[inline]
    pub fn remove(&mut self, id: TaskId) -> bool {
        self.open.remove(&id)
    }

    /// Whether the id is in the view.
    #[inline]
    pub fn contains(&self, id: TaskId) -> bool {
        self.open.contains(&id)
    }

    /// Number of candidate ids.
    #[inline]
    pub fn len(&self) -> usize {
        self.open.len()
    }

    /// Whether the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.open.is_empty()
    }

    /// Iterates the candidate ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.open.iter().copied()
    }

    /// The ids (ascending) of tasks that are really open at `now`, removing
    /// from the view every candidate whose lifetime has already ended (lazy
    /// expiration, ahead of its expiration event).
    pub fn open_at(&mut self, store: &TaskStore, now: Timestamp) -> Vec<TaskId> {
        let mut open = Vec::with_capacity(self.open.len());
        self.open_at_into(store, now, &mut open);
        open
    }

    /// [`OpenTaskView::open_at`] into a buffer the caller keeps across
    /// instants (cleared first). One ascending pass: open ids are pushed,
    /// expired ones dropped in place.
    pub fn open_at_into(&mut self, store: &TaskStore, now: Timestamp, open: &mut Vec<TaskId>) {
        open.clear();
        self.open.retain(|&id| {
            let task = store.get(id);
            if task.is_open_at(now) {
                open.push(id);
            }
            !task.is_expired_at(now)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::location::Location;

    #[test]
    fn task_store_assigns_dense_ids() {
        let mut s = TaskStore::new();
        let a = s.insert_with_location(Location::new(0.0, 0.0), Timestamp(0.0), Timestamp(5.0));
        let b = s.insert_with_location(Location::new(1.0, 0.0), Timestamp(1.0), Timestamp(6.0));
        assert_eq!(a, TaskId(0));
        assert_eq!(b, TaskId(1));
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(b).publication, Timestamp(1.0));
    }

    #[test]
    fn open_at_filters_by_lifetime() {
        let mut s = TaskStore::new();
        s.insert_with_location(Location::ORIGIN, Timestamp(0.0), Timestamp(5.0));
        s.insert_with_location(Location::ORIGIN, Timestamp(10.0), Timestamp(15.0));
        assert_eq!(s.open_at(Timestamp(1.0)), vec![TaskId(0)]);
        assert_eq!(s.open_at(Timestamp(11.0)), vec![TaskId(1)]);
        assert!(s.open_at(Timestamp(6.0)).is_empty());
    }

    #[test]
    fn worker_store_reindexes_ids() {
        let w = Worker::new(
            WorkerId(99),
            Location::ORIGIN,
            1.0,
            Timestamp(0.0),
            Timestamp(10.0),
        );
        let mut s = WorkerStore::new();
        let id = s.insert(w);
        assert_eq!(id, WorkerId(0));
        assert_eq!(s.get(id).id, WorkerId(0));
    }

    #[test]
    fn mutable_access_bumps_the_slot_stamp() {
        let w = Worker::new(
            WorkerId(0),
            Location::ORIGIN,
            1.0,
            Timestamp(0.0),
            Timestamp(10.0),
        );
        let mut s = WorkerStore::from_workers(vec![w, w]);
        let (a, b) = (WorkerId(0), WorkerId(1));
        let (a0, b0) = (s.stamp(a), s.stamp(b));
        let _ = s.get(a);
        assert_eq!(s.stamp(a), a0, "shared access leaves the stamp alone");
        s.get_mut(a).location = Location::new(1.0, 1.0);
        assert_ne!(s.stamp(a), a0);
        assert_eq!(s.stamp(b), b0, "other slots are untouched");
        let a1 = s.stamp(a);
        for worker in s.iter_mut() {
            worker.reachable_distance = 2.0;
        }
        assert_ne!(s.stamp(a), a1);
        assert_ne!(s.stamp(b), b0);
    }

    #[test]
    fn available_at_uses_windows() {
        let mut s = WorkerStore::new();
        s.insert(Worker::new(
            WorkerId(0),
            Location::ORIGIN,
            1.0,
            Timestamp(0.0),
            Timestamp(10.0),
        ));
        s.insert(Worker::new(
            WorkerId(0),
            Location::ORIGIN,
            1.0,
            Timestamp(20.0),
            Timestamp(30.0),
        ));
        assert_eq!(s.available_at(Timestamp(5.0)), vec![WorkerId(0)]);
        assert_eq!(s.available_at(Timestamp(25.0)), vec![WorkerId(1)]);
        assert!(s.available_at(Timestamp(15.0)).is_empty());
    }

    #[test]
    fn open_task_view_tracks_and_prunes() {
        let mut s = TaskStore::new();
        let a = s.insert_with_location(Location::ORIGIN, Timestamp(0.0), Timestamp(5.0));
        let b = s.insert_with_location(Location::ORIGIN, Timestamp(2.0), Timestamp(9.0));
        let mut view = OpenTaskView::new();
        view.insert(a);
        view.insert(b);
        assert_eq!(view.open_at(&s, Timestamp(1.0)), vec![a]);
        assert_eq!(view.open_at(&s, Timestamp(3.0)), vec![a, b]);
        // After a's expiration the lazy scan prunes it from the view.
        assert_eq!(view.open_at(&s, Timestamp(6.0)), vec![b]);
        assert_eq!(view.len(), 1);
        assert!(!view.contains(a));
        assert!(view.remove(b));
        assert!(view.is_empty());
    }

    #[test]
    fn into_variants_overwrite_a_reused_buffer() {
        let mut tasks = TaskStore::new();
        let a = tasks.insert_with_location(Location::ORIGIN, Timestamp(0.0), Timestamp(5.0));
        let b = tasks.insert_with_location(Location::ORIGIN, Timestamp(2.0), Timestamp(9.0));
        let mut open_view = OpenTaskView::new();
        open_view.insert(a);
        open_view.insert(b);
        let mut open = vec![TaskId(77)];
        open_view.open_at_into(&tasks, Timestamp(3.0), &mut open);
        assert_eq!(open, vec![a, b]);
        open_view.open_at_into(&tasks, Timestamp(6.0), &mut open);
        assert_eq!(open, vec![b]);
        assert!(!open_view.contains(a), "pruned like `open_at`");
    }

    #[test]
    fn views_iterate_in_ascending_id_order() {
        let mut view = OpenTaskView::new();
        for raw in [5u32, 1, 3, 2] {
            view.insert(TaskId(raw));
        }
        let order: Vec<u32> = view.iter().map(|t| t.0).collect();
        assert_eq!(order, vec![1, 2, 3, 5]);
    }

    #[test]
    fn from_tasks_reindexes() {
        let t = Task::new(TaskId(7), Location::ORIGIN, Timestamp(0.0), Timestamp(1.0));
        let s = TaskStore::from_tasks(vec![t]);
        assert_eq!(s.get(TaskId(0)).id, TaskId(0));
    }
}
