//! Regenerates Fig. 5: task-demand prediction vs the time interval ΔT on the
//! Yueche trace — Average Precision, assigned tasks under DTA+TP, training time
//! and testing time for LSTM, Graph-WaveNet and DDGNN.

use datawa_experiments::{
    format_table, prediction_effect_of_delta_t, Dataset, ExperimentArgs, Table,
};

fn main() {
    let args = ExperimentArgs::from_cli();
    let (scale, config) = (args.scale, args.pipeline_config());
    let rows = prediction_effect_of_delta_t(Dataset::Yueche, scale, &config, true);
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
            r.model.clone(),
            format!("{:.3}", r.average_precision),
            r.assigned_tasks.to_string(),
            format!("{:.2}", r.train_seconds),
            format!("{:.4}", r.test_seconds),
        ]);
    }
    println!(
        "Fig. 5 — prediction vs ΔT on {} (scale {:.3})\n",
        Dataset::Yueche.name(),
        scale.factor
    );
    println!("{}", format_table(&table));
}
