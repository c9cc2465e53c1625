//! Peak-hour scenario: the food-delivery / ride-hailing motivation from the
//! paper's introduction. Demand surges in a handful of hotspot regions while
//! supply (online drivers) stays flat, and the five assignment methods are
//! compared on how many requests they manage to serve and how much planning
//! CPU they burn per time instance. The three demand predictors are also
//! compared head-to-head on the same trace (the Fig. 5 story in miniature).
//!
//! ```text
//! cargo run --release --example peak_hour_comparison
//! ```

use datawa::prelude::*;

fn main() {
    // A dense DiDi-like evening peak at 4 % scale: many tasks per worker.
    let spec = TraceSpec::didi().scaled(0.04).with_available_hours(0.75);
    let trace = SyntheticTrace::generate(spec);
    println!(
        "peak-hour trace: {} drivers, {} requests, {:.0}x{:.0} km area",
        trace.workers.len(),
        trace.tasks.len(),
        trace.spec.area_km,
        trace.spec.area_km
    );

    let config = PipelineConfig {
        training: TrainingConfig {
            epochs: 3,
            learning_rate: 0.02,
        },
        replan_every: 2,
        ..PipelineConfig::default()
    };
    let cells = (config.grid_cells_per_side * config.grid_cells_per_side) as usize;

    // --- Demand prediction comparison (Fig. 5 in miniature) ---------------
    println!("\n[demand prediction]  model            AP     train(s)  test(s)");
    let mut predictors: Vec<Box<dyn DemandPredictor>> = vec![
        Box::new(LstmPredictor::new(config.k, 12, 7)),
        Box::new(GraphWaveNetPredictor::new(cells, config.k, 12, 8, 7)),
        Box::new(DdgnnPredictor::with_defaults(cells, config.k, 7)),
    ];
    let mut best_predictions: Vec<PredictedTaskInput> = Vec::new();
    let mut best_ap = -1.0;
    for model in predictors.iter_mut() {
        let (summary, predicted) = run_prediction(model.as_mut(), &trace, &config);
        println!(
            "                     {:<15} {:.3}  {:>7.1}  {:>7.3}",
            summary.model,
            summary.evaluation.average_precision,
            summary.training.train_seconds,
            summary.evaluation.test_seconds
        );
        if summary.evaluation.average_precision > best_ap {
            best_ap = summary.evaluation.average_precision;
            best_predictions = predicted;
        }
    }

    // --- Assignment comparison (Fig. 7–11 in miniature) --------------------
    println!("\n[assignment]         method    assigned   CPU/instance (s)");
    for policy in PolicyKind::all() {
        let mut forecast = if policy.uses_prediction() {
            StaticForecast::from_slice(&best_predictions)
        } else {
            StaticForecast::default()
        };
        let summary = run_policy(&trace, policy, &mut forecast, None, &config);
        println!(
            "                     {:<9} {:>8}   {:.4}",
            policy.name(),
            summary.assigned_tasks,
            summary.mean_planning_seconds
        );
    }
    println!("\nExpected shape: DTA+TP and DATA-WA serve the most requests; Greedy is the");
    println!("fastest but serves the fewest; DATA-WA needs well under the planning time of");
    println!("DTA+TP thanks to the learned task value function.");
}
