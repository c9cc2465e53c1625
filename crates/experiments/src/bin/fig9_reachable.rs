//! Regenerates Fig. 9: task assignment vs reachable distance d (km) — number of assigned
//! tasks and CPU time per time instance for Greedy, FTA, DTA, DTA+TP and
//! DATA-WA, on both datasets. The sweep is driven by the `datawa-stream`
//! session engine, one session per run, re-planning at every
//! arrival (the paper's setting).

use datawa_experiments::{
    assignment_sweep, format_table, Dataset, ExperimentArgs, SweepAxis, Table,
};

fn main() {
    let args = ExperimentArgs::from_cli();
    let (scale, config) = (args.scale, args.pipeline_config());
    for dataset in [Dataset::Yueche, Dataset::Didi] {
        let axis = SweepAxis::ReachableDistance(
            datawa_experiments::params::REACHABLE_DISTANCE_SWEEP.to_vec(),
        );
        let rows = assignment_sweep(dataset, axis, scale, &config);
        let mut table = Table::new(vec![
            "reachable distance d (km)",
            "Method",
            "Assigned tasks",
            "CPU time (s)",
            "Events",
        ]);
        for r in &rows {
            table.push_row(vec![
                r.value.clone(),
                r.policy.clone(),
                r.assigned_tasks.to_string(),
                format!("{:.4}", r.cpu_seconds),
                r.events.to_string(),
            ]);
        }
        println!("Fig. 9 — effect of reachable distance d (km) on {} (scale {:.3}, datawa-stream engine)\n", dataset.name(), scale.factor);
        println!("{}", format_table(&table));
    }
}
