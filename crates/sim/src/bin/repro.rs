//! `repro <subcommand> [--scale F] [--epochs N]` regenerates one table or
//! figure of the paper's evaluation (§V) — `table2`, `table3`, `fig5` …
//! `fig11` — or one of the stream engine's scenario reports,
//! `stream-scenarios` and `forecast-scenarios` ([`Experiment`]).
//!
//! ```text
//! cargo run --release -p datawa-sim --bin repro -- fig7
//! cargo run --release -p datawa-sim --bin repro -- fig8 --scale 0.1 --epochs 2
//! ```

use datawa_assign::{AdaptiveRunner, AssignConfig, PolicyKind};
use datawa_predict::TrainingConfig;
use datawa_sim::params::{
    AVAILABLE_TIME_SWEEP, DELTA_T_SWEEP, REACHABLE_DISTANCE_SWEEP, VALID_TIME_SWEEP,
};
use datawa_sim::{
    assignment_sweep, format_table, prediction_effect_of_delta_t, scenario_online_vs_blind,
    scenario_prediction_report, Dataset, Experiment, ExperimentArgs, PipelineConfig, SweepAxis,
    SyntheticTrace, Table, TraceSpec,
};
use datawa_stream::{
    builtin_scenarios, CollectingSink, Decision, EngineConfig, ScenarioSpec, Session,
    StaticForecast,
};
use std::fmt::Display;

fn main() {
    let (experiment, args) = Experiment::from_cli();
    match experiment {
        Experiment::Table2 => table2(),
        Experiment::Table3 => table3(),
        Experiment::Prediction(dataset) => prediction_figure(dataset, &args),
        Experiment::Assignment(figure) => assignment_figure(figure, &args),
        Experiment::StreamScenarios => stream_scenarios(args.scale),
        Experiment::ForecastScenarios => forecast_scenarios(args.scale),
    }
}

/// Table II: the dataset statistics of the two (synthetic stand-in) traces.
fn table2() {
    let mut table = Table::new(vec!["Dataset", "|W|", "|S|", "Time range", "Region"]);
    for dataset in [Dataset::Yueche, Dataset::Didi] {
        let spec = dataset.spec();
        let trace = SyntheticTrace::generate(spec);
        let (horizon, history, area) = (spec.horizon / 3600.0, spec.history / 3600.0, spec.area_km);
        table.push_row(vec![
            dataset.name().to_string(),
            trace.workers.len().to_string(),
            trace.tasks.len().to_string(),
            format!("{horizon:.0}h horizon (+{history:.0}h history)"),
            format!("synthetic {area:.0}x{area:.0} km hotspot city"),
        ]);
    }
    print(
        "Table II — datasets (synthetic stand-ins matching the published counts)",
        &table,
    );
}

/// Prints `title`, a blank line, then `table`.
fn print(title: impl Display, table: &Table) {
    println!("{title}\n");
    println!("{}", format_table(table));
}

/// A sweep's values, the default marked `*`.
fn fmt_sweep<T: PartialEq + Display>(values: &[T], default: T) -> String {
    let mark = |v: &T| if *v == default { "*" } else { "" };
    let marked: Vec<String> = values.iter().map(|v| format!("{v}{}", mark(v))).collect();
    marked.join(", ")
}

/// Table III: the experiment parameter grid (defaults marked *).
fn table3() {
    let (yueche, didi) = (Dataset::Yueche, Dataset::Didi);
    let mut table = Table::new(vec!["Parameter", "Values (default *)"]);
    #[rustfmt::skip]
    let rows = [
        ("Time interval ΔT (s)", fmt_sweep(&DELTA_T_SWEEP, 5.0)),
        ("Number of tasks |S| (Yueche)", fmt_sweep(&yueche.task_sweep(), 11_000)),
        ("Number of tasks |S| (DiDi)", fmt_sweep(&didi.task_sweep(), 9_000)),
        ("Number of workers |W| (Yueche)", fmt_sweep(&yueche.worker_sweep(), 600)),
        ("Number of workers |W| (DiDi)", fmt_sweep(&didi.worker_sweep(), 700)),
        ("Reachable distance d (km)", fmt_sweep(&REACHABLE_DISTANCE_SWEEP, 1.0)),
        ("Available time off-on (h)", fmt_sweep(&AVAILABLE_TIME_SWEEP, 1.0)),
        ("Valid time of tasks e-p (s)", fmt_sweep(&VALID_TIME_SWEEP, 40.0)),
    ];
    for (parameter, values) in rows {
        table.push_row(vec![parameter.to_string(), values]);
    }
    print("Table III — experiment parameters", &table);
}

/// Fig. 5 (Yueche) or Fig. 6 (DiDi): prediction vs ΔT.
fn prediction_figure(dataset: Dataset, args: &ExperimentArgs) {
    let figure = match dataset {
        Dataset::Yueche => 5,
        Dataset::Didi => 6,
    };
    let rows = prediction_effect_of_delta_t(dataset, args.scale, &args.pipeline_config(), true);
    let mut table = Table::new(vec![
        "ΔT (s)",
        "Model",
        "Average Precision",
        "Assigned tasks (DTA+TP)",
        "Train time (s)",
        "Test time (s)",
    ]);
    for r in &rows {
        table.push_row(vec![
            format!("{}", r.delta_t),
            r.summary.model.clone(),
            format!("{:.3}", r.summary.evaluation.average_precision),
            r.assigned_tasks.to_string(),
            format!("{:.2}", r.summary.training.train_seconds),
            format!("{:.4}", r.summary.evaluation.test_seconds),
        ]);
    }
    let (name, scale) = (dataset.name(), args.scale);
    print(
        format!("Fig. {figure} — prediction vs ΔT on {name} (scale {scale:.3})"),
        &table,
    );
}

/// A figure's Table III sweep on one dataset.
type AxisOn = fn(Dataset) -> SweepAxis;

/// Figs. 7–11: the figure number, the Table III sweep it runs on a dataset,
/// and the sweep's column header.
#[rustfmt::skip]
const ASSIGNMENT_FIGURES: [(u8, AxisOn, &str); 5] = [
    (7, |d| SweepAxis::Tasks(d.task_sweep()), "number of tasks |S|"),
    (8, |d| SweepAxis::Workers(d.worker_sweep()), "number of workers |W|"),
    (9, |_| SweepAxis::ReachableDistance(REACHABLE_DISTANCE_SWEEP.to_vec()), "reachable distance d (km)"),
    (10, |_| SweepAxis::AvailableTime(AVAILABLE_TIME_SWEEP.to_vec()), "available time off-on (h)"),
    (11, |_| SweepAxis::ValidTime(VALID_TIME_SWEEP.to_vec()), "valid time of tasks e-p (s)"),
];

/// One of Figs. 7–11 on both datasets.
fn assignment_figure(figure: u8, args: &ExperimentArgs) {
    let (_, axis, header) = ASSIGNMENT_FIGURES
        .into_iter()
        .find(|(number, ..)| *number == figure)
        .expect("every assignment subcommand names a figure of the table");
    let config = args.pipeline_config();
    for dataset in [Dataset::Yueche, Dataset::Didi] {
        let rows = assignment_sweep(dataset, axis(dataset), args.scale, &config);
        let mut table = Table::new(vec![
            header,
            "Method",
            "Assigned tasks",
            "CPU time (s)",
            "Events",
        ]);
        for r in &rows {
            table.push_row(vec![
                r.value.clone(),
                r.policy.name().to_string(),
                r.run.assigned_tasks.to_string(),
                format!("{:.4}", r.run.mean_planning_seconds),
                r.run.events.to_string(),
            ]);
        }
        let (name, scale) = (dataset.name(), args.scale);
        print(
            format!("Fig. {figure} — effect of {header} on {name} (scale {scale:.3}, datawa-stream engine)"),
            &table,
        );
    }
}

/// The Yueche-like magnitudes mapped onto a scenario by `scale`, with floors
/// that keep the smallest scales meaningful.
fn scenario_spec(scale: f64, min_workers: usize, min_tasks: usize) -> ScenarioSpec {
    let yueche = TraceSpec::yueche().scaled(scale);
    ScenarioSpec::small()
        .with_workers(yueche.workers.max(min_workers))
        .with_tasks(yueche.tasks.max(min_tasks))
}

/// The four scenario generators through the engine: the non-predictive
/// policies under per-arrival and batched re-planning.
fn stream_scenarios(scale: f64) {
    let spec = scenario_spec(scale, 4, 40);
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
                    outcome.run.peak_partitions.to_string(),
                    outcome.run.peak_partition_workers.to_string(),
                ]);
            }
        }
    }
    print(
        format!(
            "datawa-stream scenario tour — {} workers, {} tasks per scenario (scale {:.3})",
            spec.workers, spec.tasks, scale
        ),
        &table,
    );
}

/// Scenario-conditioned prediction, then online DTA+TP against blind DTA.
/// Exits 1 when the online forecaster never re-forecast.
fn forecast_scenarios(scale: f64) {
    let spec = scenario_spec(scale, 6, 80);
    let config = PipelineConfig {
        grid_cells_per_side: 4,
        delta_t: 10.0,
        k: 3,
        history_len: 4,
        prediction_threshold: 0.6,
        training: TrainingConfig {
            epochs: 3,
            learning_rate: 0.02,
        },
        ..PipelineConfig::default()
    };
    // Train on the first 80 % of each horizon; re-forecast every 30 s.
    let (train_fraction, refresh_every) = (0.8, 30.0);

    let (cells, factor) = (config.grid_cells_per_side, scale);
    println!(
        "scenario-conditioned prediction — {} workers, {} tasks per scenario \
         (scale {factor:.3}), {cells}×{cells} grid, ΔT={}s k={} P={}\n",
        spec.workers, spec.tasks, config.delta_t, config.k, config.history_len,
    );

    let mut ap_table = Table::new(vec!["Scenario", "Model", "AP", "Train (s)", "Test (s)"]);
    for row in scenario_prediction_report(spec, &config, train_fraction) {
        let (training, evaluation) = (row.summary.training, row.summary.evaluation);
        ap_table.push_row(vec![
            row.scenario,
            row.summary.model,
            format!("{:.3}", evaluation.average_precision),
            format!("{:.2}", training.train_seconds),
            format!("{:.3}", evaluation.test_seconds),
        ]);
    }
    println!("{}", format_table(&ap_table));

    let mut assign_table = Table::new(vec![
        "Scenario",
        "DTA (blind)",
        "DTA+TP (online DDGNN)",
        "Re-forecasts",
    ]);
    let mut total_refreshes = 0usize;
    for row in scenario_online_vs_blind(spec, &config, train_fraction, refresh_every) {
        let refreshes = row.online.forecast.refreshes;
        total_refreshes += refreshes;
        assign_table.push_row(vec![
            row.scenario,
            row.blind.assigned_tasks.to_string(),
            row.online.assigned_tasks.to_string(),
            refreshes.to_string(),
        ]);
    }
    println!("{}", format_table(&assign_table));
    // The CI forecast-smoke step greps this line: a zero here means the
    // online provider never actually re-forecast mid-stream.
    println!("forecast_refreshes={total_refreshes}");
    if total_refreshes == 0 {
        eprintln!("error: the online forecaster performed no re-forecasts");
        std::process::exit(1);
    }
}
