//! Scenario-conditioned prediction report: Average Precision of the three
//! demand predictors (LSTM, Graph-WaveNet, DDGNN) under the distribution
//! shift created by each of the four built-in `datawa-stream` scenario
//! generators, followed by the online-vs-blind assignment comparison (DTA+TP
//! over a live DDGNN [`OnlineForecaster`] against prediction-blind DTA).
//!
//! ```text
//! cargo run --release -p datawa-experiments --bin forecast_scenarios
//! cargo run --release -p datawa-experiments --bin forecast_scenarios -- --scale 0.5
//! ```
//!
//! [`OnlineForecaster`]: datawa_predict::OnlineForecaster

use datawa_experiments::{
    format_table, scenario_online_vs_blind, scenario_prediction_report, ExperimentArgs,
    ForecastScenarioConfig, Table,
};
use datawa_stream::ScenarioSpec;

fn main() {
    let scale = ExperimentArgs::from_cli().scale;
    // The scale factor maps the Yueche-like magnitudes onto the scenarios,
    // matching the stream_scenarios binary.
    let spec = ScenarioSpec::small()
        .with_workers(((624.0 * scale.factor).round() as usize).max(6))
        .with_tasks(((11_052.0 * scale.factor).round() as usize).max(80));
    let config = ForecastScenarioConfig::default();

    println!(
        "scenario-conditioned prediction — {} workers, {} tasks per scenario \
         (scale {:.3}), {}×{} grid, ΔT={}s k={} P={}\n",
        spec.workers,
        spec.tasks,
        scale.factor,
        config.grid_cells_per_side,
        config.grid_cells_per_side,
        config.delta_t,
        config.k,
        config.history_len,
    );

    let mut ap_table = Table::new(vec!["Scenario", "Model", "AP", "Train (s)", "Test (s)"]);
    for row in scenario_prediction_report(spec, &config) {
        ap_table.push_row(vec![
            row.scenario,
            row.model,
            format!("{:.3}", row.average_precision),
            format!("{:.2}", row.train_seconds),
            format!("{:.3}", row.test_seconds),
        ]);
    }
    println!("{}", format_table(&ap_table));

    let mut assign_table = Table::new(vec![
        "Scenario",
        "DTA (blind)",
        "DTA+TP (online DDGNN)",
        "Re-forecasts",
    ]);
    let rows = scenario_online_vs_blind(spec, &config);
    let mut total_refreshes = 0usize;
    for row in rows {
        total_refreshes += row.refreshes;
        assign_table.push_row(vec![
            row.scenario,
            row.blind_assigned.to_string(),
            row.online_assigned.to_string(),
            row.refreshes.to_string(),
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
