//! Runs the four built-in `datawa-stream` scenario generators (uniform
//! baseline, rush-hour burst, hotspot drift, heavy-tailed churn) through the
//! discrete-event engine, comparing the non-predictive policies under
//! per-arrival and batched re-planning.
//!
//! ```text
//! cargo run --release -p datawa-experiments --bin stream_scenarios
//! DATAWA_SCALE=0.5 cargo run --release -p datawa-experiments --bin stream_scenarios
//! ```

use datawa_assign::{AdaptiveRunner, AssignConfig, PolicyKind};
use datawa_experiments::{format_table, ExperimentScale, Table};
use datawa_stream::{
    builtin_scenarios, CollectingSink, Decision, EngineConfig, ScenarioSpec, Session,
    StaticForecast,
};

fn main() {
    let scale = ExperimentScale::from_env();
    // The scale factor maps the Yueche-like magnitudes onto the scenarios.
    let spec = ScenarioSpec::small()
        .with_workers(((624.0 * scale.factor).round() as usize).max(4))
        .with_tasks(((11_052.0 * scale.factor).round() as usize).max(40));
    let configs: [(&str, EngineConfig); 3] = [
        ("per-arrival", EngineConfig::default()),
        ("every 8 events", EngineConfig::batched(8)),
        ("every 30 s", EngineConfig::ticked(30.0)),
    ];

    let mut table = Table::new(vec![
        "Scenario",
        "Replanning",
        "Method",
        "Assigned tasks",
        "Planning calls",
        "CPU time (s)",
        "Engine events",
        "Expired unserved",
        "Partitions (peak)",
        "Max part. |W|",
    ]);
    for scenario in builtin_scenarios(spec) {
        let workload = scenario.generate();
        for (label, engine_config) in configs {
            for policy in [PolicyKind::Greedy, PolicyKind::Fta, PolicyKind::Dta] {
                let runner = AdaptiveRunner::new(AssignConfig::default(), policy);
                // Session API: open, ingest the workload, drain — with the
                // incremental decisions collected so unserved losses are
                // reportable alongside the totals.
                let mut sink = CollectingSink::new();
                let mut forecast = StaticForecast::default();
                let mut session = Session::open(&runner, &mut forecast, engine_config);
                session
                    .ingest_workload(&workload)
                    .expect("scenario workloads carry finite times");
                let outcome = session.close(&mut sink);
                let expired_unserved = sink
                    .decisions()
                    .iter()
                    .filter(|d| matches!(d, Decision::TaskExpired { .. }))
                    .count();
                assert_eq!(expired_unserved, outcome.stats.expired_open);
                table.push_row(vec![
                    scenario.name().to_string(),
                    label.to_string(),
                    policy.name().to_string(),
                    outcome.run.assigned_tasks.to_string(),
                    outcome.run.planning_calls.to_string(),
                    format!("{:.4}", outcome.run.mean_planning_seconds),
                    outcome.stats.events_processed.to_string(),
                    expired_unserved.to_string(),
                    outcome.stats.peak_partitions.to_string(),
                    outcome.stats.peak_partition_workers.to_string(),
                ]);
            }
        }
    }
    println!(
        "datawa-stream scenario tour — {} workers, {} tasks per scenario (scale {:.3})\n",
        spec.workers, spec.tasks, scale.factor
    );
    println!("{}", format_table(&table));
}
