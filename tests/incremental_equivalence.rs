//! The correctness contract of incremental replanning, pinned at the
//! integration level: with the reach layer on, every policy on every
//! built-in scenario generator must produce bit-for-bit the same run as with
//! it off (every worker rescanned at every instant) — plus a property test
//! that no single world event can ever leave a carried-over reachable list
//! stale without the planner noticing (oracle: a cold planner that scans
//! everything, and diff). Both sides plan on the live task store with the
//! open ids as candidates, as `RunnerState::step` does;
//! `tests/live_store_planning.rs` pins that against planning on a dense copy.

use datawa::prelude::*;
use proptest::prelude::*;

fn outcome(
    workload: &Workload,
    policy: PolicyKind,
    incremental: IncrementalMode,
) -> datawa::stream::EngineOutcome {
    let config = AssignConfig {
        incremental,
        ..AssignConfig::default()
    };
    let mut runner = AdaptiveRunner::new(config, policy);
    if policy == PolicyKind::DataWa {
        // Identical (seeded) TVF on both sides keeps the comparison exact.
        runner = runner.with_tvf(TaskValueFunction::new(8, 7));
    }
    run_workload(&runner, workload, &[], EngineConfig::batched(8))
}

/// Incremental and full-replan runs must agree task for task, worker for worker,
/// for every policy family on every scenario generator.
#[test]
fn incremental_equals_full_replan_for_all_policies_and_scenarios() {
    let spec = ScenarioSpec::small().with_tasks(150).with_workers(12);
    for scenario in builtin_scenarios(spec) {
        let workload = scenario.generate();
        for policy in [
            PolicyKind::Greedy,
            PolicyKind::Fta,
            PolicyKind::Dta,
            PolicyKind::DataWa,
        ] {
            let on = outcome(&workload, policy, IncrementalMode::On);
            let off = outcome(&workload, policy, IncrementalMode::Off);
            assert_eq!(
                on.run.assigned_tasks,
                off.run.assigned_tasks,
                "{} on {}: incremental diverged from full replan",
                policy.name(),
                scenario.name()
            );
            assert_eq!(
                on.run.per_worker,
                off.run.per_worker,
                "{} on {}: per-worker counts diverged",
                policy.name(),
                scenario.name()
            );
            assert_eq!(on.run.planning_calls, off.run.planning_calls);
            // The off side must never report reuse.
            assert_eq!(off.run.partitions_reused, 0);
            // The greedy baseline ignores the context: both sides scan
            // every listed worker at every planning call.
            if policy == PolicyKind::Greedy {
                assert_eq!(on.run.workers_rescanned, off.run.workers_rescanned);
                continue;
            }
            // The on side really plans from the reach index, under the
            // exact and the guided search alike: fewer rescans than one per
            // worker per planning call, and fewer than the off side, which
            // rescans every worker it lists.
            assert!(
                on.run.workers_rescanned < on.run.planning_calls * workload.workers.len(),
                "{} on {}: {} rescans over {} planning calls",
                policy.name(),
                scenario.name(),
                on.run.workers_rescanned,
                on.run.planning_calls
            );
            assert!(on.run.workers_rescanned < off.run.workers_rescanned);
        }
    }
}

/// The accounting the benchmark harness reads stays alive: on the exact
/// search's incremental route `partitions_reused` counts the listed workers
/// dropped for reaching nothing (no plan is reused — every partition is
/// searched), and a rush-hour run has both inert workers and searched
/// partitions.
#[test]
fn incremental_runs_reuse_partitions() {
    let spec = ScenarioSpec::small().with_tasks(150).with_workers(12);
    let workload = RushHourBurst::new(spec).generate();
    let on = outcome(&workload, PolicyKind::Dta, IncrementalMode::On);
    assert!(on.run.assigned_tasks > 0, "scenario assigns nothing");
    assert!(
        on.run.partitions_reused > 0,
        "no idle worker ever reached nothing on a rush-hour workload"
    );
    assert!(on.run.partitions_recomputed > 0);
}

/// The prediction-aware policies plan over phantom (predicted) tasks, which
/// have no id in the live store — those instants plan on a copy and must
/// bypass the reach layer, and the run must still match full replanning
/// exactly.
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
    let config_on = AssignConfig {
        incremental: IncrementalMode::On,
        ..AssignConfig::default()
    };
    let config_off = AssignConfig {
        incremental: IncrementalMode::Off,
        ..config_on
    };
    let on = run_workload(
        &AdaptiveRunner::new(config_on, PolicyKind::DtaTp),
        &workload,
        &predicted,
        EngineConfig::batched(8),
    );
    let off = run_workload(
        &AdaptiveRunner::new(config_off, PolicyKind::DtaTp),
        &workload,
        &predicted,
        EngineConfig::batched(8),
    );
    assert_eq!(on.run.assigned_tasks, off.run.assigned_tasks);
    assert_eq!(on.run.per_worker, off.run.per_worker);
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
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Warm the reach layer at `t0`, apply exactly one world event, replan
    /// at `t1` incrementally, and diff against a cold full replan of the
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
            incremental: IncrementalMode::On,
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

        // Instant t0: warm the incremental planner's cache.
        let t0 = Timestamp(5.0);
        let mut incremental = Planner::new(config, SearchMode::Exact);
        let _ = incremental.plan_incremental(
            &worker_ids, &open, &workers, &world_tasks, t0, Some(IncrementalContext));

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
        }
        if worker_ids.is_empty() || open.is_empty() {
            return; // degenerate case: nothing left to plan
        }

        // Instant t1: incremental replan of the mutated world vs a cold
        // full replan (the oracle rescans every worker from scratch).
        let t1 = Timestamp(7.0);
        let (warm, report) = incremental.plan_incremental(
            &worker_ids, &open, &workers, &world_tasks, t1, Some(IncrementalContext));
        let off = AssignConfig { incremental: IncrementalMode::Off, ..config };
        let (cold, _) = Planner::new(off, SearchMode::Exact)
            .plan(&worker_ids, &open, &workers, &world_tasks, t1);
        prop_assert_eq!(
            warm, cold,
            "incremental replan diverged after {:?} ({} of {} workers rescanned)",
            event, report.workers_rescanned, worker_ids.len()
        );
    }

    /// Multi-instant version: a short random event script replanned after
    /// every event stays equivalent to cold full replans throughout.
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
            incremental: IncrementalMode::On,
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
        let mut incremental = Planner::new(config, SearchMode::Exact);
        let off = AssignConfig { incremental: IncrementalMode::Off, ..config };

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
            let (warm, _) = incremental.plan_incremental(
                &worker_ids, &open, &workers, &world_tasks, now, Some(IncrementalContext));
            let (cold, _) = Planner::new(off, SearchMode::Exact)
                .plan(&worker_ids, &open, &workers, &world_tasks, now);
            prop_assert_eq!(warm, cold, "diverged at script step {}", step);
        }
    }
}

/// Incremental and full replanning search the same partitions on the
/// identical run, and the off side never reports a dropped worker as reuse.
#[test]
fn reuse_accounting_is_coherent() {
    let spec = ScenarioSpec::small().with_tasks(100).with_workers(8);
    let workload = RushHourBurst::new(spec).generate();
    let on = outcome(&workload, PolicyKind::Dta, IncrementalMode::On);
    let off = outcome(&workload, PolicyKind::Dta, IncrementalMode::Off);
    assert_eq!(on.run.partitions_recomputed, off.run.partitions_recomputed);
    assert_eq!(off.run.partitions_reused, 0);
}
