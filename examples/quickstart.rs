//! Quickstart: generate a small synthetic ride-hailing trace, train the DDGNN
//! demand predictor on its historical hour, and run the full DATA-WA pipeline
//! (prediction → predicted tasks → TVF → adaptive assignment), comparing it
//! against the non-predictive DTA baseline.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use datawa::prelude::*;

fn main() {
    // 5 % of the Yueche-like preset keeps this example in the seconds range.
    let trace = SyntheticTrace::generate(TraceSpec::yueche().scaled(0.05));
    println!(
        "trace: {} workers, {} tasks over {:.0} minutes ({} historical tasks for training)",
        trace.workers.len(),
        trace.tasks.len(),
        trace.spec.horizon / 60.0,
        trace.history_tasks.len(),
    );

    let config = PipelineConfig {
        training: TrainingConfig {
            epochs: 4,
            learning_rate: 0.02,
        },
        replan_every: 2,
        ..PipelineConfig::default()
    };

    // 1. Task demand prediction with the proposed DDGNN.
    let cells = (config.grid_cells_per_side * config.grid_cells_per_side) as usize;
    let mut ddgnn = DdgnnPredictor::with_defaults(cells, config.k, 42);
    let (prediction, predicted_tasks) = run_prediction(&mut ddgnn, &trace, &config);
    println!(
        "\n[prediction] {}: AP={:.3}  train={:.1}s  test={:.3}s  predicted_tasks={}",
        prediction.model,
        prediction.evaluation.average_precision,
        prediction.training.train_seconds,
        prediction.evaluation.test_seconds,
        predicted_tasks.len(),
    );

    // 2. Assignment: DTA (no prediction) vs the full DATA-WA.
    let dta = run_policy(
        &trace,
        PolicyKind::Dta,
        &mut StaticForecast::default(),
        None,
        &config,
    );
    let tvf = train_tvf_on_prefix(&trace, &config);
    let data_wa = run_policy(
        &trace,
        PolicyKind::DataWa,
        &mut StaticForecast::from_slice(&predicted_tasks),
        Some(tvf),
        &config,
    );

    println!("\n[assignment]");
    for (policy, summary) in [(PolicyKind::Dta, &dta), (PolicyKind::DataWa, &data_wa)] {
        println!(
            "  {:<8} assigned={:<5} mean CPU per instance={:.4}s",
            policy.name(),
            summary.assigned_tasks,
            summary.mean_planning_seconds
        );
    }
    println!(
        "\nDATA-WA assigned {} tasks vs {} for DTA, spending {:.0}% of DTA+exact-search planning time.",
        data_wa.assigned_tasks,
        dta.assigned_tasks,
        if dta.mean_planning_seconds > 0.0 {
            100.0 * data_wa.mean_planning_seconds / dta.mean_planning_seconds
        } else {
            100.0
        }
    );
}
