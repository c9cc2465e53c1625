//! Reachable tasks (§IV-A.1) and the Worker Dependency Graph (§IV-A.2).

use crate::config::AssignConfig;
use datawa_core::{Task, TaskId, TaskStore, Timestamp, Worker, WorkerId, WorkerStore};
use datawa_graph::UnGraph;

/// The reachable task sets `RS_w` of a group of workers at one planning
/// instant.
///
/// Storage is flat (CSR): one span per worker slot (`WorkerId::index()`) into
/// one task vector holding every non-empty list back to back. At the paper's
/// operating point a few workers in a few hundred reach anything, so the
/// structure also keeps those *live* workers as a list of their own: clearing
/// and walking the sets costs what the live workers cost, not what the slot
/// range costs, and a buffer reused across instants allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct ReachableSets {
    /// `(start, len)` into `tasks` per worker slot; `(0, 0)` for every worker
    /// that reaches nothing, listed or not.
    spans: Vec<(u32, u32)>,
    /// The non-empty lists back to back, in listing order; each nearest-first
    /// and capped at [`AssignConfig::max_reachable_per_worker`].
    tasks: Vec<TaskId>,
    /// The workers with a non-empty list, in listing order.
    live: Vec<WorkerId>,
    /// Number of workers the sets were computed for.
    listed: usize,
}

impl ReachableSets {
    /// Reachable tasks of `worker` (empty slice when none).
    pub fn of(&self, worker: WorkerId) -> &[TaskId] {
        match self.spans.get(worker.index()) {
            Some(&(start, len)) => &self.tasks[start as usize..(start + len) as usize],
            None => &[],
        }
    }

    /// The listed workers that reach at least one task, in the given order.
    /// Only these take part in dependency separation and search: a worker
    /// that reaches nothing is an isolated vertex of the dependency graph
    /// and has no candidate sequence.
    pub fn workers_with_reach(&self, worker_ids: &[WorkerId]) -> Vec<WorkerId> {
        worker_ids
            .iter()
            .copied()
            .filter(|&w| !self.of(w).is_empty())
            .collect()
    }

    /// [`ReachableSets::workers_with_reach`] over the whole listing the sets
    /// were computed for, without the walk: the live list is kept as lists
    /// are pushed.
    pub fn live_workers(&self) -> &[WorkerId] {
        &self.live
    }

    /// Total number of (worker, task) reachability pairs.
    pub fn pair_count(&self) -> usize {
        self.tasks.len()
    }

    /// Average number of reachable tasks per worker (the paper's `|RS|`).
    pub fn mean_reachable(&self) -> f64 {
        if self.listed == 0 {
            0.0
        } else {
            self.pair_count() as f64 / self.listed as f64
        }
    }

    /// Empties the sets for a listing of `listed` distinct workers, keeping
    /// the buffers: only the spans of the previously live workers are reset.
    pub(crate) fn restart(&mut self, listed: usize) {
        for w in self.live.drain(..) {
            self.spans[w.index()] = (0, 0);
        }
        self.tasks.clear();
        self.listed = listed;
    }

    /// Records the reachable list of the next listed worker (a no-op for an
    /// empty list: reaching nothing is the default of every slot).
    pub(crate) fn push(&mut self, worker: WorkerId, list: impl IntoIterator<Item = TaskId>) {
        let start = self.tasks.len();
        self.tasks.extend(list);
        let len = self.tasks.len() - start;
        if len == 0 {
            return;
        }
        if self.spans.len() <= worker.index() {
            self.spans.resize(worker.index() + 1, (0, 0));
        }
        self.spans[worker.index()] = (start as u32, len as u32);
        self.live.push(worker);
    }
}

/// One worker's scan of the candidate pool: every candidate passing the
/// §IV-A.1 constraints i–iii at `now`, with its travel distance, nearest
/// first (ties in candidate order) and capped by the config, left in `pairs`.
/// The one definition of a reachable list — [`reachable_tasks`] and the
/// reach layer's rescan both call it, which is what keeps them bitwise equal.
pub(crate) fn scan_reachable(
    worker: &Worker,
    candidate_tasks: &[TaskId],
    tasks: &TaskStore,
    config: &AssignConfig,
    now: Timestamp,
    pairs: &mut Vec<(TaskId, f64)>,
) {
    pairs.clear();
    for &tid in candidate_tasks {
        let task = tasks.get(tid);
        if still_reachable(worker, task, config, now) {
            let d = config
                .travel
                .travel_distance(&worker.location, &task.location);
            pairs.push((tid, d));
        }
    }
    // `total_cmp`, not `partial_cmp(..).unwrap_or(Equal)`: a NaN distance
    // must not silently compare Equal and scramble the nearest-first
    // truncation below. The sort is stable, so equal distances keep
    // candidate order.
    pairs.sort_by(|a, b| a.1.total_cmp(&b.1));
    pairs.truncate(config.max_reachable_per_worker);
}

/// Whether `task` belongs in `worker`'s reachable list at `now`: unexpired
/// and passing [`Worker::can_reach`].
pub(crate) fn still_reachable(
    worker: &Worker,
    task: &Task,
    config: &AssignConfig,
    now: Timestamp,
) -> bool {
    !task.is_expired_at(now) && worker.can_reach(task, &config.travel, now)
}

/// Computes the reachable task set of every listed worker over the candidate
/// tasks (§IV-A.1 constraints i–iii), nearest-first and capped by the config.
/// `worker_ids` must be distinct.
///
/// The from-scratch definition: the planner derives its sets through the
/// reach layer, which is tested against this function.
pub fn reachable_tasks(
    worker_ids: &[WorkerId],
    candidate_tasks: &[TaskId],
    workers: &WorkerStore,
    tasks: &TaskStore,
    config: &AssignConfig,
    now: Timestamp,
) -> ReachableSets {
    let mut sets = ReachableSets::default();
    sets.restart(worker_ids.len());
    let mut pairs = Vec::new();
    for &wid in worker_ids {
        scan_reachable(
            workers.get(wid),
            candidate_tasks,
            tasks,
            config,
            now,
            &mut pairs,
        );
        sets.push(wid, pairs.iter().map(|&(t, _)| t));
    }
    sets
}

/// Builds the Worker Dependency Graph: one node per listed worker, an edge
/// between two workers whenever their reachable task sets intersect
/// (§IV-A.2). Returns the graph together with the worker id carried by each
/// node index. The planner builds the same graph in place, through
/// `fill_worker_dependency_graph`, into a row buffer it keeps across instants.
pub fn build_worker_dependency_graph(
    worker_ids: &[WorkerId],
    reachable: &ReachableSets,
) -> (UnGraph, Vec<WorkerId>) {
    let mut graph = UnGraph::default();
    fill_worker_dependency_graph(worker_ids, reachable, &mut graph);
    (graph, worker_ids.to_vec())
}

/// [`build_worker_dependency_graph`] into `graph`, whose node `i` is
/// `worker_ids[i]`.
///
/// The construction inverts the reachable sets into `(task, worker index)`
/// keys (one `u64`, the task in the high half), sorts them and makes the
/// co-reachers of each run of equal tasks a clique, instead of testing all `O(|W|²)` worker pairs for set
/// intersection. A run ORs each co-reacher's bit into the bit row of every
/// other, so a pair sharing several tasks costs a few idempotent ORs, not a
/// lookup; with the per-worker reachable cap `k` the cost is
/// `O(Σ_task (co-reachers)²)` bit sets, near linear in `|W|·k` on spatially
/// spread instances.
pub(crate) fn fill_worker_dependency_graph(
    worker_ids: &[WorkerId],
    reachable: &ReachableSets,
    graph: &mut UnGraph,
) {
    graph.reset(worker_ids.len());
    let mut by_task = Vec::with_capacity(reachable.pair_count());
    for (i, &w) in worker_ids.iter().enumerate() {
        by_task.extend(
            reachable
                .of(w)
                .iter()
                .map(|t| u64::from(t.0) << 32 | i as u64),
        );
    }
    by_task.sort_unstable();
    for co_reachers in by_task.chunk_by(|a, b| a >> 32 == b >> 32) {
        graph.add_clique(co_reachers.iter().map(|&key| key as u32 as usize));
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use datawa_core::{Location, Task, Worker};

    /// Two workers near the origin and one far away, with a task by each.
    pub(crate) fn fixture() -> (WorkerStore, TaskStore, AssignConfig) {
        let mut workers = WorkerStore::new();
        // Two workers near the origin, one far away.
        workers.insert(Worker::new(
            WorkerId(0),
            Location::new(0.0, 0.0),
            2.0,
            Timestamp(0.0),
            Timestamp(100.0),
        ));
        workers.insert(Worker::new(
            WorkerId(0),
            Location::new(1.0, 0.0),
            2.0,
            Timestamp(0.0),
            Timestamp(100.0),
        ));
        workers.insert(Worker::new(
            WorkerId(0),
            Location::new(50.0, 50.0),
            2.0,
            Timestamp(0.0),
            Timestamp(100.0),
        ));
        let mut tasks = TaskStore::new();
        tasks.insert(Task::new(
            TaskId(0),
            Location::new(0.5, 0.0),
            Timestamp(0.0),
            Timestamp(50.0),
        ));
        tasks.insert(Task::new(
            TaskId(0),
            Location::new(1.5, 0.0),
            Timestamp(0.0),
            Timestamp(50.0),
        ));
        tasks.insert(Task::new(
            TaskId(0),
            Location::new(51.0, 50.0),
            Timestamp(0.0),
            Timestamp(50.0),
        ));
        (workers, tasks, AssignConfig::unit_speed())
    }

    #[test]
    fn reachable_respects_distance_and_sorts_nearest_first() {
        let (workers, tasks, config) = fixture();
        let wids: Vec<WorkerId> = workers.ids().collect();
        let tids: Vec<TaskId> = tasks.ids().collect();
        let rs = reachable_tasks(&wids, &tids, &workers, &tasks, &config, Timestamp(0.0));
        assert_eq!(rs.of(WorkerId(0)), &[TaskId(0), TaskId(1)]);
        assert_eq!(rs.of(WorkerId(1)), &[TaskId(0), TaskId(1)]);
        assert_eq!(rs.of(WorkerId(2)), &[TaskId(2)]);
        assert!((rs.mean_reachable() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn expired_tasks_are_not_reachable() {
        let (workers, tasks, config) = fixture();
        let wids: Vec<WorkerId> = workers.ids().collect();
        let tids: Vec<TaskId> = tasks.ids().collect();
        let rs = reachable_tasks(&wids, &tids, &workers, &tasks, &config, Timestamp(60.0));
        assert!(rs.of(WorkerId(0)).is_empty());
        assert_eq!(rs.pair_count(), 0);
    }

    #[test]
    fn cap_limits_the_reachable_set() {
        let (workers, tasks, mut config) = fixture();
        config.max_reachable_per_worker = 1;
        let wids: Vec<WorkerId> = workers.ids().collect();
        let tids: Vec<TaskId> = tasks.ids().collect();
        let rs = reachable_tasks(&wids, &tids, &workers, &tasks, &config, Timestamp(0.0));
        assert_eq!(rs.of(WorkerId(0)), &[TaskId(0)]); // nearest kept
    }

    #[test]
    fn dependency_graph_links_workers_sharing_tasks() {
        let (workers, tasks, config) = fixture();
        let wids: Vec<WorkerId> = workers.ids().collect();
        let tids: Vec<TaskId> = tasks.ids().collect();
        let rs = reachable_tasks(&wids, &tids, &workers, &tasks, &config, Timestamp(0.0));
        let (graph, mapping) = build_worker_dependency_graph(&wids, &rs);
        assert_eq!(mapping.len(), 3);
        assert!(graph.has_edge(0, 1), "workers 0 and 1 share tasks");
        assert!(!graph.has_edge(0, 2));
        assert!(!graph.has_edge(1, 2));
        assert_eq!(graph.connected_components().len(), 2);
    }

    #[test]
    fn empty_inputs_produce_empty_outputs() {
        let (workers, tasks, config) = fixture();
        let rs = reachable_tasks(&[], &[], &workers, &tasks, &config, Timestamp(0.0));
        assert_eq!(rs.pair_count(), 0);
        assert_eq!(rs.mean_reachable(), 0.0);
        let (graph, mapping) = build_worker_dependency_graph(&[], &rs);
        assert_eq!(graph.node_count(), 0);
        assert!(mapping.is_empty());
    }
}
