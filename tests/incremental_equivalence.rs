//! The correctness contract of incremental replanning, pinned at the
//! planner and runner level: a planner fed through `Planner::plan_live` —
//! reachable sets carried from one instant to the next by the reach layer —
//! must plan bit for bit what a cold planner plans from scratch, and its sets
//! must equal `reachable_tasks`, whatever single world event or short script
//! of events happens between instants, including instants planned on a copy
//! of the open tasks. Both sides plan on the live task store with the open
//! ids as candidates, as `RunnerState::step` does;
//! `tests/live_store_planning.rs` pins that against planning on a dense copy.
//!
//! At the runner level the reference is data: [`FULL_REPLAN`] holds the
//! outcomes of whole runs as a full replan (every listed worker rescanned at
//! every instant) produced them, and `tests/golden_counts.rs` pins the same
//! runs' decision streams.

use datawa::assign::{reachable_tasks, RunOutcome};
use datawa::prelude::*;
use proptest::prelude::*;

fn outcome(workload: &Workload, policy: PolicyKind) -> datawa::stream::EngineOutcome {
    let mut runner = AdaptiveRunner::new(AssignConfig::default(), policy);
    if policy == PolicyKind::DataWa {
        runner = runner.with_tvf(TaskValueFunction::new(8, 7));
    }
    run_workload(&runner, workload, &[], EngineConfig::batched(8))
}

/// One run as the full replan produced it: scenario, policy,
/// `assigned_tasks`, `planning_calls`, the `workers_rescanned` of the live
/// route, and an FNV-1a digest of the sorted per-worker tallies — none for
/// DATA-WA, whose TVF goes through libm `tanh`, which no platform pins
/// bitwise.
type Row = (&'static str, &'static str, usize, usize, usize, Option<u64>);

/// Written while the full replan still ran beside the live route, with both
/// agreeing on every row: the four built-in scenario generators at 150 tasks
/// and 12 workers, batched by eight, under Greedy / FTA / DTA / DATA-WA (an
/// untrained seeded TVF), then DTA+TP on the hotspot-drift scenario with
/// twelve predicted tasks. The `workers_rescanned` column was rewritten once
/// since, when the live route began to merge a clean worker's list instead
/// of rescanning it; every other column is as first written.
#[rustfmt::skip]
const FULL_REPLAN: &[Row] = &[
    ("uniform-baseline", "Greedy", 0, 19, 123, Some(0xcbf29ce484222325)),
    ("uniform-baseline", "FTA", 1, 152, 12, Some(0xaf63ba998601b62c)),
    ("uniform-baseline", "DTA", 0, 19, 12, Some(0xcbf29ce484222325)),
    ("uniform-baseline", "DATA-WA", 0, 19, 12, None),
    ("rush-hour-burst", "Greedy", 8, 20, 110, Some(0x6a5482d8d98237c1)),
    ("rush-hour-burst", "FTA", 9, 160, 12, Some(0xcafa11fa0b03a624)),
    ("rush-hour-burst", "DTA", 8, 20, 20, Some(0x6a5482d8d98237c1)),
    ("rush-hour-burst", "DATA-WA", 8, 20, 20, None),
    ("hotspot-drift", "Greedy", 2, 19, 126, Some(0x0837c403b4e88e77)),
    ("hotspot-drift", "FTA", 4, 156, 12, Some(0x5d4ba3db4c7d7499)),
    ("hotspot-drift", "DTA", 2, 19, 14, Some(0x0837c403b4e88e77)),
    ("hotspot-drift", "DATA-WA", 2, 19, 14, None),
    ("heavy-tailed-churn", "Greedy", 2, 26, 152, Some(0x083dc41bb4e88e77)),
    ("heavy-tailed-churn", "FTA", 7, 202, 61, Some(0x7e4ab4c626a692fe)),
    ("heavy-tailed-churn", "DTA", 2, 26, 61, Some(0x083dc41bb4e88e77)),
    ("heavy-tailed-churn", "DATA-WA", 2, 26, 61, None),
    ("hotspot-drift+12", "DTA+TP", 0, 15, 44, Some(0xcbf29ce484222325)),
];

fn row(scenario: &'static str, policy: PolicyKind, run: &RunOutcome) -> Row {
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for (&worker, &served) in &run.per_worker {
        digest = (digest ^ (u64::from(worker.0) << 32 | served as u64))
            .wrapping_mul(0x0000_0100_0000_01b3);
    }
    (
        scenario,
        policy.name(),
        run.assigned_tasks,
        run.planning_calls,
        run.workers_rescanned,
        (policy != PolicyKind::DataWa).then_some(digest),
    )
}

/// Asserts `actual` equals the rows of [`FULL_REPLAN`] named like it,
/// printing every actual row in paste-ready form on a mismatch.
fn assert_full_replan_rows(actual: &[Row]) {
    let expected: Vec<Row> = FULL_REPLAN
        .iter()
        .filter(|r| actual.iter().any(|a| (a.0, a.1) == (r.0, r.1)))
        .copied()
        .collect();
    let table: String = actual
        .iter()
        .map(|(scenario, policy, assigned, calls, rescanned, digest)| {
            let digest = digest.map_or("None".to_string(), |d| format!("Some(0x{d:016x})"));
            format!(
                "    (\"{scenario}\", \"{policy}\", {assigned}, {calls}, {rescanned}, {digest}),\n"
            )
        })
        .collect();
    assert!(
        actual == expected,
        "live runs diverged from the full replan; the actual rows:\n{table}"
    );
}

/// Incremental and full-replan runs must agree task for task, worker for
/// worker, planning call for planning call, for every policy family on every
/// scenario generator. Every route but greedy's — the exact and the guided
/// search alike — plans from carried-over lists: fewer rescans than one per
/// worker per planning call.
#[test]
fn incremental_equals_full_replan_for_all_policies_and_scenarios() {
    let spec = ScenarioSpec::small().with_tasks(150).with_workers(12);
    let mut rows = Vec::new();
    for scenario in builtin_scenarios(spec) {
        let workload = scenario.generate();
        for policy in [
            PolicyKind::Greedy,
            PolicyKind::Fta,
            PolicyKind::Dta,
            PolicyKind::DataWa,
        ] {
            let on = outcome(&workload, policy);
            if policy != PolicyKind::Greedy {
                assert!(
                    on.run.workers_rescanned < on.run.planning_calls * workload.workers.len(),
                    "{} on {}: {} rescans over {} planning calls",
                    policy.name(),
                    scenario.name(),
                    on.run.workers_rescanned,
                    on.run.planning_calls
                );
            }
            rows.push(row(scenario.name(), policy, &on.run));
        }
    }
    assert_eq!(rows.len(), 16);
    assert_full_replan_rows(&rows);
}

/// The prediction-aware policies plan over phantom (predicted) tasks, which
/// have no id in the live store — those instants plan on a copy through a
/// cold pass, the others on the live store through the reach layer — and the
/// run must still match full replanning exactly.
#[test]
fn prediction_policies_stay_equivalent() {
    let spec = ScenarioSpec::small().with_tasks(120).with_workers(10);
    let workload = HotspotDrift::new(spec).generate();
    let predicted: Vec<PredictedTaskInput> = (0..12)
        .map(|i| PredictedTaskInput {
            location: Location::new(1.0 + i as f64 * 0.7, 2.0),
            publication: Timestamp(60.0 * i as f64 + 30.0),
            expiration: Timestamp(60.0 * i as f64 + 300.0),
        })
        .collect();
    let registry = MetricsRegistry::new();
    let runner = AdaptiveRunner::new(AssignConfig::default(), PolicyKind::DtaTp)
        .with_metrics(registry.clone());
    let on = run_workload(&runner, &workload, &predicted, EngineConfig::batched(8));
    // Both routes are taken.
    let phantom_instants = registry.snapshot().counters["assign.phantom_instants"];
    assert!(phantom_instants > 0);
    assert!((phantom_instants as usize) < on.run.planning_calls);
    assert_full_replan_rows(&[row("hotspot-drift+12", PolicyKind::DtaTp, &on.run)]);
}

/// The accounting the benchmark harness reads stays alive: the exact
/// search's live route reports in `partitions_reused` the listed workers it
/// dropped for reaching nothing (no plan is reused — every partition is
/// searched), and a rush-hour run has both inert workers and searched
/// partitions. It rescans fewer workers than it lists.
#[test]
fn incremental_runs_reuse_partitions() {
    let spec = ScenarioSpec::small().with_tasks(150).with_workers(12);
    let workload = RushHourBurst::new(spec).generate();
    let on = outcome(&workload, PolicyKind::Dta);
    assert!(on.run.assigned_tasks > 0, "scenario assigns nothing");
    assert!(
        on.run.partitions_reused > 0,
        "no idle worker ever reached nothing on a rush-hour workload"
    );
    assert!(on.run.partitions_recomputed > 0);
    assert!(on.run.workers_rescanned < on.run.planning_calls * workload.workers.len());
}

/// Only the exact search's live route reports dropped workers as reuse; the
/// guided search and the greedy baseline drop them silently (the greedy one
/// plans every listed worker and searches no partition). Every route but
/// greedy's carries reachable lists over.
#[test]
fn reuse_accounting_is_coherent() {
    let spec = ScenarioSpec::small().with_tasks(100).with_workers(8);
    let workload = RushHourBurst::new(spec).generate();
    let dta = outcome(&workload, PolicyKind::Dta);
    let guided = outcome(&workload, PolicyKind::DataWa);
    let greedy = outcome(&workload, PolicyKind::Greedy);
    assert!(dta.run.partitions_reused > 0);
    assert_eq!(guided.run.partitions_reused, 0);
    assert_eq!(greedy.run.partitions_reused, 0);
    assert_eq!(greedy.run.partitions_recomputed, 0);
    for run in [&dta.run, &guided.run] {
        assert!(run.workers_rescanned < greedy.run.workers_rescanned);
    }
}

// ---------------------------------------------------------------------------
// Property: a single world event never stales the reach layer undetected.
// ---------------------------------------------------------------------------

/// One mutation of the world between two planning instants.
#[derive(Debug, Clone)]
enum WorldEvent {
    /// A new task is published (arrival).
    TaskArrives { x: f64, y: f64, valid: f64 },
    /// An open task leaves the pool (expiration or served by someone else).
    TaskLeaves { pick: usize },
    /// A worker goes offline (drops out of the planning set).
    WorkerOffline { pick: usize },
    /// A new worker comes online.
    WorkerOnline { x: f64, y: f64, reach: f64 },
    /// A worker moved (served a task elsewhere between the instants).
    WorkerMoves { pick: usize, x: f64, y: f64 },
    /// Nothing changes, but an instant plans on a copy of the open tasks
    /// with a predicted task at `(x, y)` appended, as the runner does.
    CopyInstant { x: f64, y: f64 },
}

fn event_strategy() -> impl Strategy<Value = WorldEvent> {
    prop_oneof![
        (0.0f64..10.0, 0.0f64..10.0, 50.0f64..200.0)
            .prop_map(|(x, y, valid)| WorldEvent::TaskArrives { x, y, valid }),
        (0usize..100).prop_map(|pick| WorldEvent::TaskLeaves { pick }),
        (0usize..100).prop_map(|pick| WorldEvent::WorkerOffline { pick }),
        (0.0f64..10.0, 0.0f64..10.0, 0.5f64..3.0)
            .prop_map(|(x, y, reach)| WorldEvent::WorkerOnline { x, y, reach }),
        (0usize..100, 0.0f64..10.0, 0.0f64..10.0)
            .prop_map(|(pick, x, y)| WorldEvent::WorkerMoves { pick, x, y }),
        (0.0f64..10.0, 0.0f64..10.0).prop_map(|(x, y)| WorldEvent::CopyInstant { x, y }),
    ]
}

/// A live pass of `planner` must plan what a cold planner plans, from sets
/// equal to `reachable_tasks`.
fn assert_live_equals_cold(
    planner: &mut Planner,
    worker_ids: &[WorkerId],
    open: &[TaskId],
    workers: &WorkerStore,
    tasks: &TaskStore,
    now: Timestamp,
    what: &str,
) {
    let (warm, report) = planner.plan_live(worker_ids, open, workers, tasks, now, None);
    let (cold, _) =
        Planner::new(planner.config, planner.mode).plan(worker_ids, open, workers, tasks, now);
    assert_eq!(
        warm,
        cold,
        "{what}: live plan diverged ({} of {} workers rescanned)",
        report.workers_rescanned,
        worker_ids.len()
    );
    let oracle = reachable_tasks(worker_ids, open, workers, tasks, &planner.config, now);
    for &w in worker_ids {
        assert_eq!(
            planner.reachable().of(w),
            oracle.of(w),
            "{what}: reachable list of {w:?}"
        );
    }
}

/// The runner's instant with a predicted task in the lookahead: the open
/// tasks copied into a store of their own, the prediction appended, a
/// context-free call on the same planner.
fn plan_on_copy(
    planner: &mut Planner,
    worker_ids: &[WorkerId],
    open: &[TaskId],
    workers: &WorkerStore,
    tasks: &TaskStore,
    now: Timestamp,
    at: Location,
) {
    let mut copy = TaskStore::new();
    for &t in open {
        copy.insert(*tasks.get(t));
    }
    copy.insert(Task::new(
        TaskId(0),
        at,
        Timestamp(now.0 + 1.0),
        Timestamp(now.0 + 100.0),
    ));
    let ids: Vec<TaskId> = copy.ids().collect();
    let _ = planner.plan(worker_ids, &ids, workers, &copy, now);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Warm the reach layer at `t0`, apply exactly one world event, replan
    /// at `t1` through a live pass, and diff against a cold replan of the
    /// mutated world: the plans must be identical — i.e. the verification
    /// rules can never miss a worker whose reachable list changed.
    #[test]
    fn single_event_never_stales_the_cache(
        worker_specs in prop::collection::vec(
            (0.0f64..10.0, 0.0f64..10.0, 0.5f64..3.0, 100.0f64..400.0), 2..8),
        task_specs in prop::collection::vec(
            (0.0f64..10.0, 0.0f64..10.0, 30.0f64..200.0), 2..16),
        event in event_strategy(),
    ) {
        let config = AssignConfig {
            travel: TravelModel::euclidean(0.05),
            ..AssignConfig::default()
        };
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
        let mut world_tasks = TaskStore::new();
        for &(x, y, valid) in &task_specs {
            world_tasks.insert(Task::new(
                TaskId(0),
                Location::new(x, y),
                Timestamp(0.0),
                Timestamp(valid),
            ));
        }
        let mut worker_ids: Vec<WorkerId> = workers.ids().collect();
        let mut open: Vec<TaskId> = world_tasks.ids().collect();

        // Instant t0: warm the live planner's reach layer.
        let t0 = Timestamp(5.0);
        let mut live = Planner::new(config, SearchMode::Exact);
        let _ = live.plan_live(&worker_ids, &open, &workers, &world_tasks, t0, None);

        // Exactly one world event between the instants.
        match event {
            WorldEvent::TaskArrives { x, y, valid } => {
                let id = world_tasks.insert(Task::new(
                    TaskId(0),
                    Location::new(x, y),
                    Timestamp(6.0),
                    Timestamp(6.0 + valid),
                ));
                open.push(id);
            }
            WorldEvent::TaskLeaves { pick } => {
                let i = pick % open.len();
                open.remove(i);
            }
            WorldEvent::WorkerOffline { pick } => {
                let i = pick % worker_ids.len();
                worker_ids.remove(i);
            }
            WorldEvent::WorkerOnline { x, y, reach } => {
                let id = workers.insert(Worker::new(
                    WorkerId(0),
                    Location::new(x, y),
                    reach,
                    Timestamp(6.0),
                    Timestamp(400.0),
                ));
                worker_ids.push(id);
            }
            WorldEvent::WorkerMoves { pick, x, y } => {
                let i = pick % worker_ids.len();
                workers.get_mut(worker_ids[i]).location = Location::new(x, y);
            }
            WorldEvent::CopyInstant { x, y } => {
                let (at, t) = (Location::new(x, y), Timestamp(6.0));
                plan_on_copy(&mut live, &worker_ids, &open, &workers, &world_tasks, t, at);
            }
        }
        if worker_ids.is_empty() || open.is_empty() {
            return; // degenerate case: nothing left to plan
        }

        // Instant t1: live replan of the mutated world vs a cold replan (the
        // oracle rescans every worker from scratch).
        let t1 = Timestamp(7.0);
        let what = format!("after {event:?}");
        assert_live_equals_cold(&mut live, &worker_ids, &open, &workers, &world_tasks, t1, &what);
    }

    /// Multi-instant version: a short random event script replanned after
    /// every event stays equivalent to cold replans throughout; a copy
    /// instant plans on a copy in place of the live pass.
    #[test]
    fn event_scripts_never_stale_the_cache(
        worker_specs in prop::collection::vec(
            (0.0f64..10.0, 0.0f64..10.0, 0.5f64..3.0, 100.0f64..400.0), 2..6),
        task_specs in prop::collection::vec(
            (0.0f64..10.0, 0.0f64..10.0, 30.0f64..200.0), 2..10),
        events in prop::collection::vec(event_strategy(), 1..6),
    ) {
        let config = AssignConfig {
            travel: TravelModel::euclidean(0.05),
            ..AssignConfig::default()
        };
        let mut workers = WorkerStore::new();
        for &(x, y, reach, len) in &worker_specs {
            workers.insert(Worker::new(
                WorkerId(0), Location::new(x, y), reach,
                Timestamp(0.0), Timestamp(len)));
        }
        let mut world_tasks = TaskStore::new();
        for &(x, y, valid) in &task_specs {
            world_tasks.insert(Task::new(
                TaskId(0), Location::new(x, y),
                Timestamp(0.0), Timestamp(valid)));
        }
        let mut worker_ids: Vec<WorkerId> = workers.ids().collect();
        let mut open: Vec<TaskId> = world_tasks.ids().collect();
        let mut live = Planner::new(config, SearchMode::Exact);

        for (step, event) in events.into_iter().enumerate() {
            let now = Timestamp(5.0 + 2.0 * step as f64);
            match event {
                WorldEvent::TaskArrives { x, y, valid } => {
                    let id = world_tasks.insert(Task::new(
                        TaskId(0), Location::new(x, y),
                        now, Timestamp(now.0 + valid)));
                    open.push(id);
                }
                WorldEvent::TaskLeaves { pick } if !open.is_empty() => {
                    let i = pick % open.len();
                    open.remove(i);
                }
                WorldEvent::WorkerOffline { pick } if !worker_ids.is_empty() => {
                    let i = pick % worker_ids.len();
                    worker_ids.remove(i);
                }
                WorldEvent::WorkerOnline { x, y, reach } => {
                    let id = workers.insert(Worker::new(
                        WorkerId(0), Location::new(x, y), reach,
                        now, Timestamp(500.0)));
                    worker_ids.push(id);
                }
                WorldEvent::WorkerMoves { pick, x, y } if !worker_ids.is_empty() => {
                    let i = pick % worker_ids.len();
                    workers.get_mut(worker_ids[i]).location = Location::new(x, y);
                }
                _ => {}
            }
            if worker_ids.is_empty() || open.is_empty() {
                continue;
            }
            if let WorldEvent::CopyInstant { x, y } = event {
                let at = Location::new(x, y);
                plan_on_copy(&mut live, &worker_ids, &open, &workers, &world_tasks, now, at);
                continue;
            }
            let what = format!("script step {step}");
            assert_live_equals_cold(&mut live, &worker_ids, &open, &workers, &world_tasks, now, &what);
        }
    }
}
