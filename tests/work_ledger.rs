//! The work ledger: exact counts of the work every golden workload costs,
//! held as ceilings.
//!
//! Timings on a shared box move by tens of percent between runs; counts do
//! not. An extra rescan, a lost prune or a dispatch loop that visits idle
//! workers shows here first, as a count that rose. The rows are the
//! `golden_counts` runs on the scaled Yueche trace and the 400 × 150
//! heavy-tailed churn scenario, both seeds, every policy those rows pin,
//! driven the same way with a [`MetricsRegistry`] attached (attaching one
//! changes no decision: `obs_equivalence`). Per row the ledger reads
//! [`COLUMNS`] from the registry's snapshot.
//!
//! **Ceilings, not equalities.** A count may fall; a change that lowers one
//! lowers its ceiling in the same commit. A change that raises one names the
//! row and the reason, as for a golden row. A failure prints every actual
//! row in paste-ready form.

use datawa::prelude::*;

/// The counters (and, for `forecast.refreshes`, the gauge) each row holds.
const COLUMNS: [&str; 6] = [
    "assign.planning_calls",
    "assign.partitions_recomputed",
    "assign.search_nodes",
    "assign.reach_rescans",
    "assign.dispatch_visits",
    "forecast.refreshes",
];

/// One ledger row: scenario, seed, policy and the counts in [`COLUMNS`]
/// order.
type Row = (&'static str, u64, &'static str, [u64; 6]);

const SEEDS: [u64; 2] = [77003, 20161101];

#[rustfmt::skip]
const LEDGER: [Row; 16] = [
    ("yueche-0.1", 77003, "Greedy", [1156, 0, 0, 35245, 236, 0]),
    ("yueche-0.1", 77003, "FTA", [1058, 57, 200, 62, 57, 0]),
    ("yueche-0.1", 77003, "DTA", [1156, 235, 920, 296, 235, 0]),
    ("yueche-0.1", 77003, "DATA-WA", [1156, 236, 236, 297, 236, 202]),
    ("churn", 77003, "Greedy", [77, 0, 0, 5178, 116, 0]),
    ("churn", 77003, "FTA", [1233, 147, 534, 834, 147, 0]),
    ("churn", 77003, "DTA", [77, 114, 447, 931, 121, 0]),
    ("churn", 77003, "DATA-WA", [77, 115, 116, 936, 116, 0]),
    ("yueche-0.1", 20161101, "Greedy", [1114, 0, 0, 35495, 210, 0]),
    ("yueche-0.1", 20161101, "FTA", [988, 59, 207, 62, 59, 0]),
    ("yueche-0.1", 20161101, "DTA", [1114, 229, 842, 290, 229, 0]),
    ("yueche-0.1", 20161101, "DATA-WA", [1114, 210, 210, 271, 210, 199]),
    ("churn", 20161101, "Greedy", [76, 0, 0, 5162, 132, 0]),
    ("churn", 20161101, "FTA", [1213, 176, 683, 827, 176, 0]),
    ("churn", 20161101, "DTA", [76, 129, 557, 941, 131, 0]),
    ("churn", 20161101, "DATA-WA", [76, 130, 132, 944, 132, 0]),
];

const BLIND: [PolicyKind; 3] = [PolicyKind::Greedy, PolicyKind::Fta, PolicyKind::Dta];

fn counts(
    runner: AdaptiveRunner,
    workload: &Workload,
    forecast: &mut dyn ForecastProvider,
    engine: EngineConfig,
) -> [u64; 6] {
    let registry = MetricsRegistry::new();
    let runner = runner.with_metrics(registry.clone());
    let _ = run_workload(&runner, workload, forecast, engine);
    let snapshot = registry.snapshot();
    COLUMNS.map(|name| match snapshot.counters.get(name) {
        Some(&count) => count,
        None => snapshot.gauges[name].value as u64,
    })
}

/// The pipeline the `golden_counts` DATA-WA rows train with: the defaults
/// at a fraction of the training effort.
fn pipeline() -> PipelineConfig {
    let defaults = PipelineConfig::default();
    PipelineConfig {
        training: TrainingConfig {
            epochs: 1,
            ..defaults.training
        },
        tvf_epochs: 8,
        tvf_training_instants: 3,
        ..defaults
    }
}

fn yueche_rows(seed: u64, rows: &mut Vec<Row>) {
    let trace = SyntheticTrace::generate(TraceSpec::yueche().scaled(0.1).with_seed(seed));
    let workload = trace.workload();
    let engine = EngineConfig::default();
    for policy in BLIND {
        let runner = AdaptiveRunner::new(AssignConfig::default(), policy);
        let counts = counts(runner, &workload, &mut StaticForecast::default(), engine);
        rows.push(("yueche-0.1", seed, policy.name(), counts));
    }
    let pipeline = pipeline();
    let runner = AdaptiveRunner::new(AssignConfig::default(), PolicyKind::DataWa)
        .with_tvf(train_tvf_on_prefix(&trace, &pipeline));
    let grid = datawa::sim::prediction_grid(&trace, &pipeline);
    let model = DdgnnPredictor::with_defaults(grid.cell_count(), pipeline.k, seed);
    let mut forecaster = online_forecaster(&trace, Box::new(model), &pipeline, 30.0);
    let counts = counts(runner, &workload, &mut forecaster, engine);
    rows.push(("yueche-0.1", seed, PolicyKind::DataWa.name(), counts));
}

fn churn_rows(seed: u64, rows: &mut Vec<Row>) {
    let spec = ScenarioSpec::small()
        .with_tasks(400)
        .with_workers(150)
        .with_seed(seed);
    let workload = HeavyTailedChurn::new(spec).generate();
    let engine = EngineConfig::batched(16);
    for policy in BLIND {
        let runner = AdaptiveRunner::new(AssignConfig::default(), policy);
        let counts = counts(runner, &workload, &mut StaticForecast::default(), engine);
        rows.push(("churn", seed, policy.name(), counts));
    }
    let runner = AdaptiveRunner::new(AssignConfig::default(), PolicyKind::DataWa)
        .with_tvf(TaskValueFunction::new(8, 7));
    let counts = counts(runner, &workload, &mut StaticForecast::default(), engine);
    rows.push(("churn", seed, PolicyKind::DataWa.name(), counts));
}

#[test]
fn work_counts_stay_under_the_ledger_ceilings() {
    let mut actual = Vec::new();
    for seed in SEEDS {
        yueche_rows(seed, &mut actual);
        churn_rows(seed, &mut actual);
    }
    let table: String = actual.iter().map(|row| format!("    {row:?},\n")).collect();
    let keys = |rows: &[Row]| -> Vec<(&str, u64, &str)> {
        rows.iter().map(|&(s, seed, p, _)| (s, seed, p)).collect()
    };
    assert_eq!(
        keys(&actual),
        keys(&LEDGER),
        "the ledger's rows changed; actual rows:\n{table}"
    );
    let over: Vec<String> = actual
        .iter()
        .zip(&LEDGER)
        .flat_map(|(&(scenario, seed, policy, got), &(.., ceiling))| {
            (0..COLUMNS.len())
                .filter(move |&i| got[i] > ceiling[i])
                .map(move |i| {
                    format!(
                        "{scenario}/{seed}/{policy} {}: {} > {}",
                        COLUMNS[i], got[i], ceiling[i]
                    )
                })
        })
        .collect();
    assert!(
        over.is_empty(),
        "work rose above the ledger:\n{}\nactual rows:\n{table}",
        over.join("\n")
    );
    println!("{table}");
}
