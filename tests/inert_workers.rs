//! Inert workers are invisible: a worker whose reachable set is empty is
//! dropped before dependency separation, so handing it to the planner changes
//! neither the assignment, nor the partitions reported, nor the TVF training
//! samples — for every search family, and with predicted tasks in the
//! planning store.

use datawa::assign::{reachable_tasks, PlanningReport};
use datawa::prelude::*;
use proptest::prelude::*;

/// Workers over a small area; about a third are inert by construction (far
/// outside the task area, or with next to no reach), the rest may or may not
/// reach something.
fn workers_strategy() -> impl Strategy<Value = Vec<Worker>> {
    prop::collection::vec((0.0f64..10.0, 0.0f64..10.0, 0.3f64..3.0, 0usize..6), 2..14).prop_map(
        |specs| {
            specs
                .into_iter()
                .map(|(x, y, reach, kind)| {
                    let (location, reach) = match kind {
                        0 => (Location::new(x + 1_000.0, y), reach),
                        1 => (Location::new(x, y), 1e-6),
                        _ => (Location::new(x, y), reach),
                    };
                    Worker::new(
                        WorkerId(0),
                        location,
                        reach,
                        Timestamp(0.0),
                        Timestamp(600.0),
                    )
                })
                .collect()
        },
    )
}

/// Tasks open at `now = 60`; with `predicted`, some are published only later
/// (the planning store's phantoms).
fn tasks_strategy(predicted: bool) -> impl Strategy<Value = Vec<Task>> {
    let latest_publication = if predicted { 120.0 } else { 60.0 };
    prop::collection::vec(
        (
            0.0f64..10.0,
            0.0f64..10.0,
            0.0f64..latest_publication,
            80.0f64..300.0,
        ),
        1..16,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .map(|(x, y, p, valid)| {
                Task::new(
                    TaskId(0),
                    Location::new(x, y),
                    Timestamp(p),
                    Timestamp(p + valid),
                )
            })
            .collect()
    })
}

const NOW: Timestamp = Timestamp(60.0);

fn config() -> AssignConfig {
    AssignConfig {
        travel: TravelModel::euclidean(0.05),
        threads: 1,
        ..AssignConfig::default()
    }
}

/// Everything of a report except the wall clock and the inputs' sizes.
fn shape(report: &PlanningReport) -> (usize, usize, usize, usize, usize, usize) {
    (
        report.partitions,
        report.max_partition_workers,
        report.tree_nodes,
        report.partitions_recomputed,
        report.nodes_expanded,
        report.reach_live,
    )
}

/// One planning instant: the stores, every worker, every task, and the
/// workers that reach at least one task.
struct Instant {
    workers: WorkerStore,
    tasks: TaskStore,
    all: Vec<WorkerId>,
    candidates: Vec<TaskId>,
    reaching: Vec<WorkerId>,
}

fn instant(workers: Vec<Worker>, tasks: Vec<Task>, config: &AssignConfig) -> Instant {
    let workers = WorkerStore::from_workers(workers);
    let tasks = TaskStore::from_tasks(tasks);
    let all: Vec<WorkerId> = workers.ids().collect();
    let candidates: Vec<TaskId> = tasks.ids().collect();
    let reachable = reachable_tasks(&all, &candidates, &workers, &tasks, config, NOW);
    let reaching = all
        .iter()
        .copied()
        .filter(|&w| !reachable.of(w).is_empty())
        .collect();
    Instant {
        workers,
        tasks,
        all,
        candidates,
        reaching,
    }
}

/// Plans `workers` × `tasks` twice on fresh planners in `mode` — every
/// worker, then only the workers that reach something — and requires
/// identical output. With `tvf`, both plans are the guided search's.
fn assert_inert_workers_invisible(
    workers: Vec<Worker>,
    tasks: Vec<Task>,
    mode: SearchMode,
    tvf: Option<TvfInference>,
) {
    let config = config();
    let Instant {
        workers,
        tasks,
        all,
        candidates,
        reaching,
    } = instant(workers, tasks, &config);
    let plan = |worker_ids: &[WorkerId]| {
        let mut planner = Planner::new(config, mode);
        match &tvf {
            Some(tvf) => planner.plan_guided(worker_ids, &candidates, &workers, &tasks, NOW, tvf),
            None => planner.plan(worker_ids, &candidates, &workers, &tasks, NOW),
        }
    };
    let (with_inert, report_all) = plan(&all);
    let (without, report_reaching) = plan(&reaching);
    assert_eq!(with_inert, without);
    assert_eq!(shape(&report_all), shape(&report_reaching));
    assert!(report_all.partitions <= reaching.len());
    for (w, _) in with_inert.iter() {
        assert!(
            reaching.contains(&w),
            "{w:?} reaches nothing yet was planned"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn exact_search_ignores_inert_workers(
        workers in workers_strategy(),
        tasks in tasks_strategy(false),
    ) {
        assert_inert_workers_invisible(workers, tasks, SearchMode::Exact, None);
    }

    #[test]
    fn greedy_search_ignores_inert_workers(
        workers in workers_strategy(),
        tasks in tasks_strategy(false),
    ) {
        assert_inert_workers_invisible(workers, tasks, SearchMode::Greedy, None);
    }

    #[test]
    fn guided_search_ignores_inert_workers(
        workers in workers_strategy(),
        tasks in tasks_strategy(false),
        seed in 0usize..1_000,
    ) {
        let tvf = TaskValueFunction::new(8, seed as u64).inference();
        assert_inert_workers_invisible(workers, tasks, SearchMode::Exact, Some(tvf));
    }

    #[test]
    fn predicted_tasks_do_not_make_inert_workers_visible(
        workers in workers_strategy(),
        tasks in tasks_strategy(true),
    ) {
        let tvf = TaskValueFunction::new(8, 7).inference();
        for (mode, tvf) in [(SearchMode::Exact, None), (SearchMode::Exact, Some(tvf)), (SearchMode::Greedy, None)] {
            assert_inert_workers_invisible(workers.clone(), tasks.clone(), mode, tvf);
        }
    }

    #[test]
    fn training_samples_ignore_inert_workers(
        workers in workers_strategy(),
        tasks in tasks_strategy(false),
    ) {
        let config = config();
        let Instant { workers, tasks, all, candidates, reaching } = instant(workers, tasks, &config);
        let mut planner = Planner::new(config, SearchMode::Exact);
        let with_inert = planner.collect_training_samples(&all, &candidates, &workers, &tasks, NOW);
        let without = planner.collect_training_samples(&reaching, &candidates, &workers, &tasks, NOW);
        prop_assert_eq!(with_inert, without);
    }
}
