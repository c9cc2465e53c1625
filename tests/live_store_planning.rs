//! `RunnerState::step` plans straight on the live `TaskStore` — every task
//! ever published, ten thousand of them here — with the ascending slice of
//! open ids as candidates, instead of copying the open tasks into a dense
//! planning store of their own first. The planner must not care: for the
//! exact, the TVF-guided and the greedy search, planning over a gappy
//! candidate slice of a large store equals planning over the dense copy with
//! the plan's ids mapped back, report for report — context-free and, over
//! two instants, through `Planner::plan_live`, whose sets must also equal
//! `reachable_tasks`.
//!
//! The tasks of the live store that are *not* candidates are decoys meant to
//! be noticed if anything looks at them: they sit on top of the workers, and
//! every other one publishes in the future (a phantom, had it been a
//! candidate — one of those anywhere in a planning store changes how the
//! guided and the greedy search rank sequences).

use datawa::assign::{reachable_tasks, PlanningReport};
use datawa::prelude::*;
use proptest::prelude::*;

const STORE_SIZE: usize = 10_000;
const MODES: [SearchMode; 3] = [SearchMode::Exact, SearchMode::Guided, SearchMode::Greedy];

fn config() -> AssignConfig {
    AssignConfig {
        travel: TravelModel::euclidean(0.05),
        ..AssignConfig::default()
    }
}

fn planner(mode: SearchMode) -> Planner {
    let planner = Planner::new(config(), mode);
    if mode == SearchMode::Guided {
        planner.with_tvf(TaskValueFunction::new(8, 7))
    } else {
        planner
    }
}

/// `(x, y, reach, window length)` per worker.
type WorkerSpec = (f64, f64, f64, f64);
/// `(id gap to the previous open task, x, y, valid time)` per open task.
type TaskSpec = (usize, f64, f64, f64);

/// The live store (decoys everywhere but at the open ids) and the open ids.
fn live_store(workers: &[WorkerSpec], open_specs: &[TaskSpec]) -> (TaskStore, Vec<TaskId>) {
    let mut open = Vec::new();
    let mut next = 0;
    for &(gap, ..) in open_specs {
        next += gap;
        if next >= STORE_SIZE {
            break;
        }
        open.push(TaskId(next as u32));
        next += 1;
    }
    let mut store = TaskStore::new();
    let mut spec_of = open.iter().zip(open_specs).peekable();
    for i in 0..STORE_SIZE {
        let task = match spec_of.next_if(|(id, _)| id.index() == i) {
            Some((_, &(_, x, y, valid))) => Task::new(
                TaskId(0),
                Location::new(x, y),
                Timestamp(0.0),
                Timestamp(valid),
            ),
            None => {
                let (x, y, ..) = workers[i % workers.len()];
                let publication = if i % 2 == 0 { 0.0 } else { 30.0 };
                Task::new(
                    TaskId(0),
                    Location::new(x, y),
                    Timestamp(publication),
                    Timestamp(500.0),
                )
            }
        };
        store.insert(task);
    }
    (store, open)
}

/// The dense copy `RunnerState::step` used to plan on: the open tasks in
/// ascending id order, ids dense from zero.
fn dense_copy(live: &TaskStore, open: &[TaskId]) -> (TaskStore, Vec<TaskId>) {
    let mut store = TaskStore::new();
    for &t in open {
        store.insert(*live.get(t));
    }
    let ids = store.ids().collect();
    (store, ids)
}

/// `plan`, planned over the dense copy, in the ids of the live store.
fn mapped_back(plan: &Assignment, open: &[TaskId]) -> Assignment {
    let mut mapped = Assignment::new();
    for (worker, sequence) in plan.iter() {
        mapped.set(
            worker,
            TaskSequence::from_ids(sequence.iter().map(|t| open[t.index()])),
        );
    }
    mapped
}

/// Everything of a report but the wall clock.
fn shape(report: &PlanningReport) -> PlanningReport {
    PlanningReport {
        elapsed_seconds: 0.0,
        ..*report
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn planning_on_the_live_store_equals_planning_on_a_dense_copy(
        worker_specs in prop::collection::vec(
            (0.0f64..10.0, 0.0f64..10.0, 0.5f64..3.0, 100.0f64..400.0), 2..8),
        open_specs in prop::collection::vec(
            (0usize..1500, 0.0f64..10.0, 0.0f64..10.0, 20.0f64..200.0), 2..16),
        left in 0usize..100,
    ) {
        let mut workers = WorkerStore::new();
        for &(x, y, reach, len) in &worker_specs {
            workers.insert(Worker::new(
                WorkerId(0),
                Location::new(x, y),
                reach,
                Timestamp(0.0),
                Timestamp(len),
            ));
        }
        let worker_ids: Vec<WorkerId> = workers.ids().collect();
        let (live, all_open) = live_store(&worker_specs, &open_specs);
        prop_assert!(all_open.windows(2).all(|p| p[0] < p[1]));

        for mode in MODES {
            let mut open = all_open.clone();
            let mut on_live = planner(mode);
            let mut on_copy = planner(mode);
            let mut through_reach_layer = planner(mode);
            // Two instants; between them one task leaves the pool, so the
            // copy's dense ids shift under the same live ids.
            for (instant, now) in [Timestamp(5.0), Timestamp(25.0)].into_iter().enumerate() {
                if instant == 1 {
                    open.remove(left % open.len());
                }
                let (copy, dense_ids) = dense_copy(&live, &open);
                let (expected, expected_report) =
                    on_copy.plan(&worker_ids, &dense_ids, &workers, &copy, now);
                let expected = mapped_back(&expected, &open);

                let (plan, report) = on_live.plan(&worker_ids, &open, &workers, &live, now);
                prop_assert_eq!(&plan, &expected, "{:?}, context-free, t={}", mode, now.0);
                prop_assert_eq!(shape(&report), shape(&expected_report));

                let (plan, report) =
                    through_reach_layer.plan_live(&worker_ids, &open, &workers, &live, now, None);
                prop_assert_eq!(&plan, &expected, "{:?}, reach layer, t={}", mode, now.0);
                let oracle = reachable_tasks(&worker_ids, &open, &workers, &live, &config(), now);
                for &w in &worker_ids {
                    prop_assert_eq!(through_reach_layer.reachable().of(w), oracle.of(w));
                }
                prop_assert_eq!(report.partitions, expected_report.partitions);
                prop_assert_eq!(report.nodes_expanded, expected_report.nodes_expanded);
                prop_assert_eq!(report.reach_live, expected_report.reach_live);
            }
        }
    }
}
