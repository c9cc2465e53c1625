//! Property-based integration tests: the assignment invariants of the paper
//! (Definitions 4–5 and the single-task-assignment mode) must hold for every
//! randomly generated scenario, not just the hand-built fixtures — plus the
//! planner's own structural invariant: searching partitions against
//! partition-local task sets equals one sweep over a shared set.

use datawa::prelude::*;
use proptest::prelude::*;

/// Strategy: a batch of workers scattered over a small area.
fn workers_strategy(max: usize) -> impl Strategy<Value = Vec<Worker>> {
    prop::collection::vec(
        (
            0.0f64..10.0,
            0.0f64..10.0,
            0.2f64..3.0,    // reachable distance
            0.0f64..50.0,   // online time
            60.0f64..400.0, // window length
        ),
        1..max,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .map(|(x, y, d, on, len)| {
                Worker::new(
                    WorkerId(0),
                    Location::new(x, y),
                    d,
                    Timestamp(on),
                    Timestamp(on + len),
                )
            })
            .collect()
    })
}

/// Strategy: a batch of tasks with bounded lifetimes.
fn tasks_strategy(max: usize) -> impl Strategy<Value = Vec<Task>> {
    prop::collection::vec(
        (
            0.0f64..10.0,
            0.0f64..10.0,
            0.0f64..120.0,  // publication
            20.0f64..200.0, // valid time
        ),
        1..max,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .map(|(x, y, p, v)| {
                Task::new(
                    TaskId(0),
                    Location::new(x, y),
                    Timestamp(p),
                    Timestamp(p + v),
                )
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every planner mode produces a feasible, single-assignment plan on
    /// arbitrary snapshots.
    #[test]
    fn planner_output_is_always_feasible(
        workers in workers_strategy(10),
        tasks in tasks_strategy(20),
        exact in any::<bool>(),
    ) {
        let worker_store = WorkerStore::from_workers(workers);
        let task_store = TaskStore::from_tasks(tasks);
        let now = Timestamp(60.0);
        let config = AssignConfig {
            travel: TravelModel::euclidean(0.05),
            ..AssignConfig::default()
        };
        let mode = if exact { SearchMode::Exact } else { SearchMode::Greedy };
        let mut planner = Planner::new(config, mode);
        let worker_ids: Vec<WorkerId> = worker_store.available_at(now);
        let task_ids: Vec<TaskId> = task_store.open_at(now);
        let (assignment, _) = planner.plan(&worker_ids, &task_ids, &worker_store, &task_store, now);
        // Feasibility per Definition 4 + single assignment per Definition 5.
        prop_assert!(assignment
            .validate(&worker_store, &task_store, &config.travel, now)
            .is_empty());
        // Only open tasks may be assigned.
        for task in assignment.assigned_tasks() {
            prop_assert!(task_ids.contains(&task));
        }
    }

    /// The streaming runner never serves a task twice, never serves more
    /// tasks than exist, and its per-worker counts sum to the total.
    #[test]
    fn adaptive_runner_invariants(
        workers in workers_strategy(8),
        tasks in tasks_strategy(15),
    ) {
        let config = AssignConfig {
            travel: TravelModel::euclidean(0.05),
            ..AssignConfig::default()
        };
        let workload = Workload { workers, tasks };
        for policy in [PolicyKind::Greedy, PolicyKind::Fta, PolicyKind::Dta] {
            let runner = AdaptiveRunner::new(config, policy);
            let mut blind = StaticForecast::default();
            let outcome = run_workload(&runner, &workload, &mut blind, EngineConfig::default()).run;
            prop_assert!(outcome.assigned_tasks <= workload.tasks.len());
            let sum: usize = outcome.per_worker.values().sum();
            prop_assert_eq!(sum, outcome.assigned_tasks);
            prop_assert_eq!(outcome.events, workload.arrival_count());
        }
    }

    /// Exact planning never assigns fewer tasks than greedy planning on the
    /// same snapshot.
    #[test]
    fn exact_dominates_greedy(
        workers in workers_strategy(6),
        tasks in tasks_strategy(12),
    ) {
        let worker_store = WorkerStore::from_workers(workers);
        let task_store = TaskStore::from_tasks(tasks);
        let now = Timestamp(60.0);
        let config = AssignConfig {
            travel: TravelModel::euclidean(0.05),
            ..AssignConfig::default()
        };
        let worker_ids: Vec<WorkerId> = worker_store.available_at(now);
        let task_ids: Vec<TaskId> = task_store.open_at(now);
        let (exact, _) = Planner::new(config, SearchMode::Exact)
            .plan(&worker_ids, &task_ids, &worker_store, &task_store, now);
        let (greedy, _) = Planner::new(config, SearchMode::Greedy)
            .plan(&worker_ids, &task_ids, &worker_store, &task_store, now);
        prop_assert!(exact.assigned_count() >= greedy.assigned_count());
    }
}

/// The partitioned planner (one partition-local available set per root
/// subtree) reproduces the whole-tree exact search over one shared available
/// set bit for bit, on planning snapshots of a synthetic trace.
#[test]
fn partitioned_exact_search_equals_the_whole_tree_serial_search() {
    use datawa::assign::{
        build_worker_dependency_graph, reachable_tasks, CandidateSequences, DfSearch, SearchScratch,
    };
    use datawa::graph::ClusterTree;

    let trace = SyntheticTrace::generate(TraceSpec::yueche().scaled(0.03));
    let config = AssignConfig::default();
    let mut checked = 0;
    for i in 1..8 {
        let now = Timestamp(trace.spec.horizon * i as f64 / 8.0);
        let worker_ids: Vec<WorkerId> = trace.workers.available_at(now);
        let task_ids: Vec<TaskId> = trace.tasks.open_at(now);
        if worker_ids.is_empty() || task_ids.is_empty() {
            continue;
        }
        // The reference: one shared available set swept root by root over
        // the whole tree.
        let reachable = reachable_tasks(
            &worker_ids,
            &task_ids,
            &trace.workers,
            &trace.tasks,
            &config,
            now,
        );
        let sequences = CandidateSequences::generate(
            &worker_ids,
            &trace.workers,
            &trace.tasks,
            &reachable,
            &config,
            now,
        );
        let mut scratch = SearchScratch::default();
        let mut search = DfSearch::new(
            &trace.workers,
            &trace.tasks,
            &task_ids,
            &config,
            now,
            &sequences,
            &reachable,
            &mut scratch,
        );
        let (graph, mapping) = build_worker_dependency_graph(&worker_ids, &reachable);
        let tree = ClusterTree::build(&graph);
        let reference = search.exact(&tree, None);
        // `PlanningReport::partitions` counts the root subtrees with at least
        // one reachable task (the planner drops workers that reach nothing).
        let reaching_partitions = tree
            .roots
            .iter()
            .filter(|&&root| {
                tree.subtree_members(root)
                    .iter()
                    .any(|&i| !reachable.of(mapping[i]).is_empty())
            })
            .count();

        let mut planner = Planner::new(config, SearchMode::Exact);
        let (assignment, report) =
            planner.plan(&worker_ids, &task_ids, &trace.workers, &trace.tasks, now);
        assert_eq!(
            assignment, reference,
            "partitioned plan diverged from the whole-tree search at t={now}"
        );
        assert_eq!(report.partitions, reaching_partitions);
        assert_eq!(report.partitions_recomputed, reaching_partitions);
        assert_eq!(report.partitions_reused, 0, "the full route reuses nothing");
        checked += 1;
    }
    assert!(
        checked >= 3,
        "too few non-trivial planning instants checked"
    );
}
