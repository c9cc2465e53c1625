//! The determinism contract of the sharded planning refactor, pinned at the
//! integration level: assignment totals must be identical between 1 and 4
//! planner threads for Greedy, FTA, DTA and DATA-WA on all four built-in
//! scenario generators, and the partitioned planner must reproduce the
//! whole-tree serial search exactly.

use datawa::prelude::*;
use std::collections::HashSet;

fn outcome_with_threads(
    workload: &Workload,
    policy: PolicyKind,
    threads: usize,
) -> datawa::stream::EngineOutcome {
    let config = AssignConfig {
        threads,
        ..AssignConfig::default()
    };
    let mut runner = AdaptiveRunner::new(config, policy);
    if policy == PolicyKind::DataWa {
        // Identical (seeded) TVF on both sides keeps the comparison exact.
        runner = runner.with_tvf(TaskValueFunction::new(8, 7));
    }
    run_workload(&runner, workload, &[], EngineConfig::batched(8))
}

/// 1-thread and 4-thread runs must agree task for task, worker for worker,
/// for every policy family on every scenario generator.
#[test]
fn one_thread_equals_four_threads_for_all_policies_and_scenarios() {
    let spec = ScenarioSpec::small().with_tasks(150).with_workers(12);
    for scenario in builtin_scenarios(spec) {
        let workload = scenario.generate();
        for policy in [
            PolicyKind::Greedy,
            PolicyKind::Fta,
            PolicyKind::Dta,
            PolicyKind::DataWa,
        ] {
            let one = outcome_with_threads(&workload, policy, 1);
            let four = outcome_with_threads(&workload, policy, 4);
            assert_eq!(
                one.run.assigned_tasks,
                four.run.assigned_tasks,
                "{} on {} diverged between 1 and 4 threads",
                policy.name(),
                scenario.name()
            );
            assert_eq!(
                one.run.per_worker,
                four.run.per_worker,
                "{} on {}: per-worker counts diverged",
                policy.name(),
                scenario.name()
            );
            assert_eq!(one.run.planning_calls, four.run.planning_calls);
            assert!(four.stats.peak_pool_occupancy <= 4);
            assert!(one.stats.peak_pool_occupancy <= 1);
        }
    }
}

/// The partitioned planner (partition-local available sets, pooled merge)
/// reproduces the pre-refactor whole-tree serial exact search bit for bit on
/// planning snapshots of a real synthetic trace.
#[test]
fn partitioned_exact_search_equals_the_whole_tree_serial_search() {
    use datawa::assign::{
        build_worker_dependency_graph, generate_sequences, reachable_tasks, DfSearch, Planner,
        SequenceSet,
    };
    use datawa::graph::ClusterTree;
    use std::collections::HashMap;

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
        // The pre-refactor reference: one shared available set swept root by
        // root over the whole tree.
        let reachable = reachable_tasks(
            &worker_ids,
            &task_ids,
            &trace.workers,
            &trace.tasks,
            &config,
            now,
        );
        let mut sequences: HashMap<WorkerId, SequenceSet> = HashMap::new();
        for &w in &worker_ids {
            sequences.insert(
                w,
                generate_sequences(
                    trace.workers.get(w),
                    reachable.of(w),
                    &trace.tasks,
                    &config,
                    now,
                ),
            );
        }
        let search = DfSearch::new(
            &trace.workers,
            &trace.tasks,
            &config,
            now,
            &sequences,
            &reachable,
        );
        let (graph, mapping) = build_worker_dependency_graph(&worker_ids, &reachable);
        let tree = ClusterTree::build(&graph);
        let mut available: HashSet<TaskId> = task_ids.iter().copied().collect();
        let reference = search.exact(&tree, &mapping, &mut available, None);
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

        // The partitioned path, at 1 and 4 threads.
        for threads in [1usize, 4] {
            let mut planner = Planner::new(AssignConfig { threads, ..config }, SearchMode::Exact);
            let (assignment, report) =
                planner.plan(&worker_ids, &task_ids, &trace.workers, &trace.tasks, now);
            assert_eq!(
                assignment, reference,
                "partitioned plan (threads={threads}) diverged from the serial search at t={now}"
            );
            assert_eq!(report.partitions, reaching_partitions);
            assert_eq!(report.partitions_recomputed, reaching_partitions);
            assert_eq!(report.partitions_reused, 0, "the full route reuses nothing");
        }
        checked += 1;
    }
    assert!(
        checked >= 3,
        "too few non-trivial planning instants checked"
    );
}
