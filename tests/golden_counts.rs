//! Golden same-seed outcomes: data instead of a kept-alive reference path.
//!
//! Every suite next to this one pins the system against *itself* at the same
//! commit (incremental == full, recovered == uninterrupted, attached ==
//! detached). This one pins it against *earlier commits*: a planner refactor
//! that promises "every same-seed decision identical" must leave this file
//! passing unchanged. One scaled Yueche trace and one heavy-tailed churn
//! scenario, two fixed seeds each:
//!
//! * Greedy / FTA / DTA — `assigned_tasks`, the number of streamed decisions
//!   and an FNV-1a digest of the decision stream (the fold of the benchmark
//!   harness's `DigestSink`: time and eta by their `f64` bits);
//! * DATA-WA — `assigned_tasks` and the decision count only. Its forecaster
//!   and its TVF go through libm `tanh`/`exp`, which no platform pins
//!   bitwise, so a digest of its decisions would pin the build machine.
//!
//! Two more Yueche rows per seed run DTA+TP over a non-empty
//! `StaticForecast` — an oracle for every fourth, resp. eighth, task of the
//! trace — so predicted tasks keep entering and leaving the lookahead and
//! planning instants switch back and forth between the two routes of
//! `RunnerState::step`: straight on the live task store when no phantom is
//! in the lookahead (about 8 % resp. 30 % of the instants), on a copy with the
//! phantoms appended when one is. No model is involved, so they are
//! digested.
//!
//! A deliberate behaviour change regenerates the table: a mismatch prints
//! every actual row in paste-ready form.

use datawa::prelude::*;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Counts and digests the decision stream, one 64-bit word at a time.
struct DigestSink {
    digest: u64,
    decisions: usize,
}

impl DigestSink {
    fn new() -> DigestSink {
        DigestSink {
            digest: FNV_OFFSET,
            decisions: 0,
        }
    }

    fn fold(&mut self, word: u64) {
        self.digest = (self.digest ^ word).wrapping_mul(FNV_PRIME);
    }
}

impl DecisionSink for DigestSink {
    fn emit(&mut self, decision: Decision) {
        self.decisions += 1;
        match decision {
            Decision::Dispatch {
                at,
                worker,
                task,
                eta,
            } => {
                self.fold(1);
                self.fold(at.0.to_bits());
                self.fold(u64::from(worker.0) << 32 | u64::from(task.0));
                self.fold(eta.0.to_bits());
            }
            Decision::TaskExpired { at, task } => {
                self.fold(2);
                self.fold(at.0.to_bits());
                self.fold(u64::from(task.0));
            }
            Decision::WorkerOffline { at, worker } => {
                self.fold(3);
                self.fold(at.0.to_bits());
                self.fold(u64::from(worker.0));
            }
        }
    }
}

/// One pinned run: scenario, seed, policy, `assigned_tasks`, decisions, and
/// the decision digest where it is platform-independent.
type Row = (&'static str, u64, &'static str, usize, usize, Option<u64>);

const SEEDS: [u64; 2] = [77003, 20161101];

const DIGESTED: [PolicyKind; 3] = [PolicyKind::Greedy, PolicyKind::Fta, PolicyKind::Dta];

fn run(
    runner: &AdaptiveRunner,
    workload: &Workload,
    forecast: &mut dyn ForecastProvider,
    engine: EngineConfig,
) -> (usize, usize, u64) {
    let mut sink = DigestSink::new();
    let mut stream = StreamEngine::new(engine);
    stream.load(workload);
    let outcome = stream.run_with_forecast(runner, forecast, &mut sink);
    (outcome.run.assigned_tasks, sink.decisions, sink.digest)
}

/// The pipeline `yueche` DATA-WA rows train with: the defaults at a fraction
/// of the training effort (the counts pin the planner, not the model).
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
    for policy in DIGESTED {
        let runner = AdaptiveRunner::new(AssignConfig::default(), policy);
        let (assigned, decisions, digest) =
            run(&runner, &workload, &mut StaticForecast::default(), engine);
        rows.push((
            "yueche-0.1",
            seed,
            policy.name(),
            assigned,
            decisions,
            Some(digest),
        ));
    }
    // DATA-WA as the pipeline runs it: TVF trained on exact-search samples,
    // DDGNN trained on the historical hour and re-forecast live.
    let pipeline = pipeline();
    let runner = AdaptiveRunner::new(AssignConfig::default(), PolicyKind::DataWa)
        .with_tvf(train_tvf_on_prefix(&trace, &pipeline));
    let grid = datawa::sim::prediction_grid(&trace, &pipeline);
    let model = DdgnnPredictor::with_defaults(grid.cell_count(), pipeline.k, seed);
    let mut forecaster = online_forecaster(&trace, Box::new(model), &pipeline, 30.0);
    let (assigned, decisions, _) = run(&runner, &workload, &mut forecaster, engine);
    rows.push((
        "yueche-0.1",
        seed,
        PolicyKind::DataWa.name(),
        assigned,
        decisions,
        None,
    ));
}

/// DTA+TP told, a lookahead ahead, where and when every `step`-th task of the
/// trace will appear.
fn phantom_rows(seed: u64, step: usize, scenario: &'static str, rows: &mut Vec<Row>) {
    let trace = SyntheticTrace::generate(TraceSpec::yueche().scaled(0.1).with_seed(seed));
    let predicted: Vec<PredictedTaskInput> = trace
        .tasks
        .iter()
        .step_by(step)
        .map(|t| PredictedTaskInput {
            location: t.location,
            publication: t.publication,
            expiration: t.expiration,
        })
        .collect();
    let runner = AdaptiveRunner::new(AssignConfig::default(), PolicyKind::DtaTp);
    let (assigned, decisions, digest) = run(
        &runner,
        &trace.workload(),
        &mut StaticForecast::new(predicted),
        EngineConfig::default(),
    );
    rows.push((
        scenario,
        seed,
        PolicyKind::DtaTp.name(),
        assigned,
        decisions,
        Some(digest),
    ));
}

fn churn_rows(seed: u64, rows: &mut Vec<Row>) {
    let spec = ScenarioSpec::small()
        .with_tasks(400)
        .with_workers(150)
        .with_seed(seed);
    let workload = HeavyTailedChurn::new(spec).generate();
    let engine = EngineConfig::batched(16);
    for policy in DIGESTED {
        let runner = AdaptiveRunner::new(AssignConfig::default(), policy);
        let (assigned, decisions, digest) =
            run(&runner, &workload, &mut StaticForecast::default(), engine);
        rows.push((
            "churn",
            seed,
            policy.name(),
            assigned,
            decisions,
            Some(digest),
        ));
    }
    let runner = AdaptiveRunner::new(AssignConfig::default(), PolicyKind::DataWa)
        .with_tvf(TaskValueFunction::new(8, 7));
    let (assigned, decisions, _) = run(&runner, &workload, &mut StaticForecast::default(), engine);
    rows.push((
        "churn",
        seed,
        PolicyKind::DataWa.name(),
        assigned,
        decisions,
        None,
    ));
}

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("yueche-0.1", 77003, "Greedy", 236, 1167, Some(0xa0ce53b96515c71e)),
    ("yueche-0.1", 77003, "FTA", 57, 1167, Some(0x5096a15cc36a2d46)),
    ("yueche-0.1", 77003, "DTA", 235, 1167, Some(0x8a62fe1650532e5b)),
    ("yueche-0.1", 77003, "DATA-WA", 236, 1167, None),
    ("yueche-0.1", 20161101, "Greedy", 210, 1167, Some(0x481c408be5bd6f55)),
    ("yueche-0.1", 20161101, "FTA", 59, 1167, Some(0xefc37ffca130baac)),
    ("yueche-0.1", 20161101, "DTA", 229, 1167, Some(0xda0d49ea1f9faf5d)),
    ("yueche-0.1", 20161101, "DATA-WA", 210, 1167, None),
    ("churn", 77003, "Greedy", 116, 1234, Some(0x8f1b1360c9ce911f)),
    ("churn", 77003, "FTA", 147, 1234, Some(0xb63d088d8065db99)),
    ("churn", 77003, "DTA", 115, 1234, Some(0x569345e8e815f9a0)),
    ("churn", 77003, "DATA-WA", 116, 1234, None),
    ("churn", 20161101, "Greedy", 132, 1227, Some(0x37deba609ba005b0)),
    ("churn", 20161101, "FTA", 176, 1227, Some(0x2a6c98e0dcf5a276)),
    ("churn", 20161101, "DTA", 131, 1227, Some(0x9ec32d8f29b7c8e7)),
    ("churn", 20161101, "DATA-WA", 132, 1227, None),
    ("yueche-0.1+oracle/4", 77003, "DTA+TP", 235, 1167, Some(0x824ed06d5d37829f)),
    ("yueche-0.1+oracle/8", 77003, "DTA+TP", 235, 1167, Some(0x824ed06d5d37829f)),
    ("yueche-0.1+oracle/4", 20161101, "DTA+TP", 229, 1167, Some(0x19e7cf1e5dd7f2ae)),
    ("yueche-0.1+oracle/8", 20161101, "DTA+TP", 229, 1167, Some(0xda0d49ea1f9faf5d)),
];

#[test]
fn same_seed_counts_and_digests_match_the_golden_table() {
    let mut rows: Vec<Row> = Vec::new();
    for seed in SEEDS {
        yueche_rows(seed, &mut rows);
    }
    for seed in SEEDS {
        churn_rows(seed, &mut rows);
    }
    for seed in SEEDS {
        phantom_rows(seed, 4, "yueche-0.1+oracle/4", &mut rows);
        phantom_rows(seed, 8, "yueche-0.1+oracle/8", &mut rows);
    }
    let mut table = String::new();
    for (scenario, seed, policy, assigned, decisions, digest) in &rows {
        let digest = match digest {
            Some(d) => format!("Some(0x{d:016x})"),
            None => "None".to_string(),
        };
        table.push_str(&format!(
            "    (\"{scenario}\", {seed}, \"{policy}\", {assigned}, {decisions}, {digest}),\n"
        ));
    }
    assert!(
        rows.iter().any(|r| r.3 > 0),
        "every pinned run assigned nothing"
    );
    assert!(
        rows == GOLDEN,
        "same-seed outcomes moved; the actual table:\n{table}"
    );
}
