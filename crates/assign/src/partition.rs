//! Planning partitions: the independent subproblems of one planning instant.
//!
//! Worker dependency separation (§IV-A.2) already proves that different root
//! subtrees of the cluster tree share no workers and no reachable tasks
//! (`ClusterTree::verify_sibling_independence`). A [`Partition`] materialises
//! one such subtree as a self-contained subproblem — its workers, its
//! candidate-task universe, and the root it hangs off — so the search can run
//! every partition against a partition-local available-task set and still
//! produce exactly the plan a sweep over one shared set would.
//!
//! Determinism: partitions are ordered by their root's position in
//! [`ClusterTree::roots`] (itself deterministic), each partition's result
//! depends only on its own inputs, and the planner searches and merges them
//! in that order.
//!
//! Identity across instants: none. A partition has no persistent name — its
//! position changes whenever the dependency graph reshapes — and nothing
//! looks for one: every partition is searched at the instant that formed it
//! and forgotten (the runner dispatches its workers in that same instant, so
//! a content-identical partition does not come back; see the crate docs).
//! The planner drops workers with empty reachable sets *before* the graph is
//! built, on every route (each would form a trivial partition assigning
//! nothing), so in a planning call every partition has at least one
//! reachable task; [`split_cluster_tree`] itself still materialises such a
//! worker as a trivial partition if handed one.

use crate::reachable::ReachableSets;
use datawa_core::{TaskId, WorkerId};
use datawa_graph::ClusterTree;
use std::collections::HashSet;

/// One independent planning subproblem: the workers of a single cluster-tree
/// root subtree plus the union of their reachable tasks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// The root node (index into [`ClusterTree::nodes`]) of the subtree.
    pub root: usize,
    /// Workers of the subtree, in subtree-member order (sorted graph-node
    /// order mapped through the worker mapping).
    pub worker_ids: Vec<WorkerId>,
    /// The candidate-task universe of this partition: the union of its
    /// workers' reachable sets, ascending and deduplicated. Disjoint from
    /// every other partition's universe by sibling independence.
    pub tasks: Vec<TaskId>,
}

impl Partition {
    /// The partition's available-task set, pre-sized to its task universe.
    pub fn task_set(&self) -> HashSet<TaskId> {
        let mut set = HashSet::with_capacity(self.tasks.len());
        set.extend(self.tasks.iter().copied());
        set
    }
}

/// Splits a cluster tree into one [`Partition`] per root subtree.
///
/// `mapping[i]` is the worker id of graph node `i` (as produced by
/// `build_worker_dependency_graph`); `reachable` supplies each worker's
/// candidate tasks. Workers with empty reachable sets still form (trivial)
/// partitions, so every planned worker belongs to exactly one partition.
pub fn split_cluster_tree(
    tree: &ClusterTree,
    mapping: &[WorkerId],
    reachable: &ReachableSets,
) -> Vec<Partition> {
    let mut partitions = Vec::with_capacity(tree.roots.len());
    for &root in &tree.roots {
        let worker_ids: Vec<WorkerId> = tree
            .subtree_members(root)
            .into_iter()
            .map(|i| mapping[i])
            .collect();
        let mut tasks: Vec<TaskId> = worker_ids
            .iter()
            .flat_map(|&w| reachable.of(w).iter().copied())
            .collect();
        tasks.sort_unstable();
        tasks.dedup();
        partitions.push(Partition {
            root,
            worker_ids,
            tasks,
        });
    }
    partitions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AssignConfig;
    use crate::reachable::{build_worker_dependency_graph, reachable_tasks};
    use datawa_core::{Location, Task, TaskStore, Timestamp, Worker, WorkerStore};

    /// Two spatially separated clusters of workers/tasks plus one isolated
    /// worker that can reach nothing.
    fn fixture() -> (WorkerStore, TaskStore) {
        let mut workers = WorkerStore::new();
        for x in [0.0, 1.0, 40.0, 41.0, 500.0] {
            workers.insert(Worker::new(
                WorkerId(0),
                Location::new(x, 0.0),
                3.0,
                Timestamp(0.0),
                Timestamp(100.0),
            ));
        }
        let mut tasks = TaskStore::new();
        for x in [0.5, 1.5, 40.5] {
            tasks.insert(Task::new(
                TaskId(0),
                Location::new(x, 0.0),
                Timestamp(0.0),
                Timestamp(90.0),
            ));
        }
        (workers, tasks)
    }

    fn split(workers: &WorkerStore, tasks: &TaskStore) -> Vec<Partition> {
        let config = AssignConfig::unit_speed();
        let wids: Vec<WorkerId> = workers.ids().collect();
        let tids: Vec<TaskId> = tasks.ids().collect();
        let reachable = reachable_tasks(&wids, &tids, workers, tasks, &config, Timestamp(0.0));
        let (graph, mapping) = build_worker_dependency_graph(&wids, &reachable);
        let tree = datawa_graph::ClusterTree::build(&graph);
        split_cluster_tree(&tree, &mapping, &reachable)
    }

    #[test]
    fn partitions_cover_every_worker_exactly_once() {
        let (workers, tasks) = fixture();
        let partitions = split(&workers, &tasks);
        let mut covered: Vec<WorkerId> = partitions
            .iter()
            .flat_map(|p| p.worker_ids.iter().copied())
            .collect();
        covered.sort_unstable();
        assert_eq!(covered, workers.ids().collect::<Vec<_>>());
    }

    #[test]
    fn partition_task_universes_are_pairwise_disjoint() {
        let (workers, tasks) = fixture();
        let partitions = split(&workers, &tasks);
        assert!(partitions.len() >= 3, "two clusters + isolated worker");
        let mut seen = HashSet::new();
        for p in &partitions {
            for &t in &p.tasks {
                assert!(seen.insert(t), "{t:?} appears in two partitions");
            }
        }
        // Every open task reachable by someone is in some partition.
        assert_eq!(seen.len(), tasks.len());
    }

    #[test]
    fn isolated_worker_forms_a_trivial_partition() {
        let (workers, tasks) = fixture();
        let partitions = split(&workers, &tasks);
        let trivial = partitions
            .iter()
            .find(|p| p.worker_ids == vec![WorkerId(4)])
            .expect("the far worker is its own partition");
        assert!(trivial.tasks.is_empty());
        assert!(trivial.task_set().is_empty());
    }
}
