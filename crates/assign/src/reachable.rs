//! Reachable tasks (§IV-A.1) and the Worker Dependency Graph (§IV-A.2).

use crate::config::AssignConfig;
use datawa_core::{TaskId, TaskStore, Timestamp, WorkerId, WorkerStore};
use datawa_graph::UnGraph;
use std::collections::HashMap;

/// The reachable task sets `RS_w` of a group of workers at one planning
/// instant.
#[derive(Debug, Clone, Default)]
pub struct ReachableSets {
    /// `RS_w` per worker, nearest-first, capped at
    /// [`AssignConfig::max_reachable_per_worker`].
    pub per_worker: HashMap<WorkerId, Vec<TaskId>>,
}

impl ReachableSets {
    /// Reachable tasks of `worker` (empty slice when none).
    pub fn of(&self, worker: WorkerId) -> &[TaskId] {
        self.per_worker
            .get(&worker)
            .map(Vec::as_slice)
            .unwrap_or(&[])
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

    /// Total number of (worker, task) reachability pairs.
    pub fn pair_count(&self) -> usize {
        self.per_worker.values().map(Vec::len).sum()
    }

    /// Average number of reachable tasks per worker (the paper's `|RS|`).
    pub fn mean_reachable(&self) -> f64 {
        if self.per_worker.is_empty() {
            0.0
        } else {
            self.pair_count() as f64 / self.per_worker.len() as f64
        }
    }
}

/// Computes the reachable task set of every listed worker over the candidate
/// tasks (§IV-A.1 constraints i–iii), nearest-first and capped by the config.
pub fn reachable_tasks(
    worker_ids: &[WorkerId],
    candidate_tasks: &[TaskId],
    workers: &WorkerStore,
    tasks: &TaskStore,
    config: &AssignConfig,
    now: Timestamp,
) -> ReachableSets {
    let mut per_worker = HashMap::with_capacity(worker_ids.len());
    for &wid in worker_ids {
        let worker = workers.get(wid);
        let mut reachable: Vec<(TaskId, f64)> = Vec::new();
        for &tid in candidate_tasks {
            let task = tasks.get(tid);
            if task.is_expired_at(now) {
                continue;
            }
            if worker.can_reach(task, &config.travel, now) {
                let d = config
                    .travel
                    .travel_distance(&worker.location, &task.location);
                reachable.push((tid, d));
            }
        }
        // `total_cmp`, not `partial_cmp(..).unwrap_or(Equal)`: a NaN distance
        // must not silently compare Equal and scramble the nearest-first
        // truncation below (the plan cache re-sorts with the identical
        // comparator and must agree bitwise).
        reachable.sort_by(|a, b| a.1.total_cmp(&b.1));
        reachable.truncate(config.max_reachable_per_worker);
        per_worker.insert(wid, reachable.into_iter().map(|(t, _)| t).collect());
    }
    ReachableSets { per_worker }
}

/// Builds the Worker Dependency Graph: one node per listed worker, an edge
/// between two workers whenever their reachable task sets intersect
/// (§IV-A.2). Returns the graph together with the worker id carried by each
/// node index.
///
/// The construction inverts the reachable sets into a task → workers index
/// and links co-reachers per task, instead of testing all `O(|W|²)` worker
/// pairs for set intersection: with the per-worker reachable cap `k` this is
/// `O(Σ_task (co-reachers)²)`, which on spatially spread instances is near
/// linear in `|W|·k` — the graph itself is identical either way, only the
/// cost of producing it changes (it is the serial step ahead of the
/// partition-parallel search, so it must not dominate the planning instant).
pub fn build_worker_dependency_graph(
    worker_ids: &[WorkerId],
    reachable: &ReachableSets,
) -> (UnGraph, Vec<WorkerId>) {
    let mut graph = UnGraph::new(worker_ids.len());
    let mut by_task: HashMap<TaskId, Vec<usize>> = HashMap::new();
    for (i, &w) in worker_ids.iter().enumerate() {
        for &t in reachable.of(w) {
            by_task.entry(t).or_default().push(i);
        }
    }
    // Pairs sharing several tasks come up once per shared task; the
    // `has_edge` guard makes the duplicates a single adjacency lookup
    // instead of two idempotent set inserts, with no transient memory
    // beyond the graph itself (the co-reacher lists of a hotspot can cover
    // most worker pairs, so materialising the pair list would be quadratic
    // in workers).
    // datawa-lint: allow(unordered-iteration) -- edge accumulation into BTreeSet adjacency is commutative; the final graph is independent of visit order
    for co_reachers in by_task.values() {
        for (a, &u) in co_reachers.iter().enumerate() {
            for &v in &co_reachers[a + 1..] {
                if !graph.has_edge(u, v) {
                    graph.add_edge(u, v);
                }
            }
        }
    }
    (graph, worker_ids.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use datawa_core::{Location, Task, Worker};

    fn fixture() -> (WorkerStore, TaskStore, AssignConfig) {
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
