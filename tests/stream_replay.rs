//! Integration tests for the `datawa-stream` session engine: replaying the
//! synthetic traces reproduces pinned assignment totals, every arrival
//! schedules its lifetime-closing event, and the scenarios run through the
//! facade.

use datawa::prelude::*;

fn config() -> PipelineConfig {
    PipelineConfig {
        grid_cells_per_side: 3,
        k: 2,
        history_len: 3,
        training: TrainingConfig {
            epochs: 1,
            learning_rate: 0.02,
        },
        replan_every: 1,
        tvf_training_instants: 2,
        tvf_epochs: 5,
        ..PipelineConfig::default()
    }
}

/// `(preset, policy, assigned_tasks, events)` of the retired synchronous
/// loop-over-sorted-arrivals driver on 2 % of each preset at
/// `replan_every = 1`, written while that driver and `run_policy` still ran
/// side by side and agreed.
#[rustfmt::skip]
const PRESETS: &[(&str, &str, usize, usize)] = &[
    ("yueche", "Greedy", 15, 233),
    ("yueche", "FTA", 8, 233),
    ("yueche", "DTA", 15, 233),
    ("didi", "Greedy", 16, 192),
    ("didi", "FTA", 9, 192),
    ("didi", "DTA", 17, 192),
];

/// Replaying a trace through `run_policy` reports the same completed
/// assignments and arrival events as the retired synchronous driver did, for
/// every non-predictive policy on both dataset presets.
#[test]
fn engine_replay_equals_legacy_loop_on_both_presets() {
    let cfg = config();
    let mut rows = Vec::new();
    for (name, spec) in [
        ("yueche", TraceSpec::yueche().scaled(0.02)),
        ("didi", TraceSpec::didi().scaled(0.02)),
    ] {
        let trace = SyntheticTrace::generate(spec);
        for policy in [PolicyKind::Greedy, PolicyKind::Fta, PolicyKind::Dta] {
            let summary = run_policy(&trace, policy, &mut StaticForecast::default(), None, &cfg);
            rows.push((name, policy.name(), summary.assigned_tasks, summary.events));
        }
    }
    assert_eq!(rows, PRESETS);
}

/// DATA-WA (TVF-guided search) too: TVF training is fully seeded, so the
/// pinned total of the retired driver stays exact.
#[test]
fn engine_replay_equals_legacy_loop_for_data_wa() {
    let cfg = config();
    let trace = SyntheticTrace::generate(TraceSpec::yueche().scaled(0.015));
    let summary = run_policy(
        &trace,
        PolicyKind::DataWa,
        &mut StaticForecast::default(),
        Some(train_tvf_on_prefix(&trace, &cfg)),
        &cfg,
    );
    assert_eq!((summary.assigned_tasks, summary.events), (6, 175));
}

/// Direct session use through the facade: ingest the replay workload, close,
/// and check the lifecycle accounting (every arrival schedules exactly one
/// lifetime-closing event).
#[test]
fn engine_lifecycle_accounting_is_complete() {
    let trace = SyntheticTrace::generate(TraceSpec::yueche().scaled(0.02));
    let workload = trace.workload();
    let runner = AdaptiveRunner::new(AssignConfig::default(), PolicyKind::Greedy);
    let mut forecast = StaticForecast::default();
    let mut session = Session::open(&runner, &mut forecast, EngineConfig::default());
    session
        .ingest_workload(&workload)
        .expect("a replay workload ingests");
    assert_eq!(session.pending(), workload.arrival_count());
    let outcome = session.close(&mut NullSink);
    assert_eq!(outcome.stats.arrivals, workload.arrival_count());
    assert_eq!(outcome.stats.expirations, workload.tasks.len());
    assert_eq!(outcome.stats.offline, workload.workers.len());
    assert_eq!(
        outcome.stats.events_processed,
        workload.arrival_count() + workload.tasks.len() + workload.workers.len()
    );
}

/// Time-driven batching produces far fewer planning calls than per-arrival
/// replanning while still serving a comparable share of tasks.
#[test]
fn time_batched_replanning_cuts_planning_calls() {
    let trace = SyntheticTrace::generate(TraceSpec::yueche().scaled(0.02));
    let runner = AdaptiveRunner::new(AssignConfig::default(), PolicyKind::Greedy);
    let per_arrival = run_workload(
        &runner,
        &trace.workload(),
        &mut StaticForecast::default(),
        EngineConfig::default(),
    );
    let ticked = run_workload(
        &runner,
        &trace.workload(),
        &mut StaticForecast::default(),
        EngineConfig::ticked(60.0),
    );
    assert!(ticked.run.planning_calls < per_arrival.run.planning_calls / 2);
    assert!(ticked.run.assigned_tasks > 0);
}

/// All four built-in scenario generators drive the full engine pipeline from
/// the facade.
#[test]
fn builtin_scenarios_run_through_the_facade() {
    let spec = ScenarioSpec::small().with_tasks(120).with_workers(10);
    let runner = AdaptiveRunner::new(AssignConfig::default(), PolicyKind::Dta);
    let mut names = Vec::new();
    for scenario in builtin_scenarios(spec) {
        let outcome = run_workload(
            &runner,
            &scenario.generate(),
            &mut StaticForecast::default(),
            EngineConfig::default(),
        );
        assert!(outcome.run.assigned_tasks > 0, "{}", scenario.name());
        names.push(scenario.name());
    }
    assert_eq!(
        names,
        vec![
            "uniform-baseline",
            "rush-hour-burst",
            "hotspot-drift",
            "heavy-tailed-churn"
        ]
    );
}
