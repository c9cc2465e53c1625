//! Regenerates Fig. 10: task assignment vs available time off-on (h) — number of assigned
//! tasks and CPU time per time instance for Greedy, FTA, DTA, DTA+TP and
//! DATA-WA, on both datasets. The sweep is driven by the `datawa-stream`
//! session engine, one session per run (`DATAWA_REPLAN` /
//! `DATAWA_REPLAN_DT` select event- or time-batched re-planning).

use datawa_experiments::{
    assignment_sweep, format_table, Dataset, ExperimentScale, SweepAxis, Table,
};

fn main() {
    let scale = ExperimentScale::from_env();
    let config = datawa_experiments::params::pipeline_config_from_env();
    for dataset in [Dataset::Yueche, Dataset::Didi] {
        let axis =
            SweepAxis::AvailableTime(datawa_experiments::params::AVAILABLE_TIME_SWEEP.to_vec());
        let rows = assignment_sweep(dataset, axis, scale, &config);
        let mut table = Table::new(vec![
            "available time off-on (h)",
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
        println!("Fig. 10 — effect of available time off-on (h) on {} (scale {:.3}, datawa-stream engine)\n", dataset.name(), scale.factor);
        println!("{}", format_table(&table));
    }
}
