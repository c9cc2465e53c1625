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
//! The last rows pin the worker-lifecycle edges the rows above miss (written
//! at the PR 24 commit, before the runner kept its idle set by events):
//!
//! * `run-sync` — written by a since-retired synchronous driver (one time
//!   instance per arrival, no expiry or offline events, plans kept at
//!   offline) and now replayed through a session that keeps plans at
//!   offline. That driver streamed no decisions, so these rows put the
//!   planning calls in the decisions column and digest the sorted
//!   per-worker tallies: the session must reproduce its instants and
//!   tallies, not just its totals;
//! * `*-ticked` — a purely time-driven session (`EngineConfig::ticked`):
//!   arrivals never replan, so dispatch between ticks runs on kept plans;
//! * `churn-release` / `churn-keep` — FTA per-arrival on the churn scenario
//!   with and without `release_on_offline` (no offline worker strands a
//!   reserved task there, so they agree), and `fta-handoff-*`, a two-worker
//!   stream built so that one does and release hands the task over;
//! * `*-rewind` — batched sessions with a `Session::force_replan` at an
//!   instant earlier than the last event processed, four times per run.
//!
//! `churn-budget16` runs DTA on one session of the benchmark's
//! `churn-batched` shape (625 tasks, 1,000 workers, batches of 64, partitions
//! of up to ~30 workers) with a search budget of sixteen expansions per
//! partition: most partitions run out of budget, so the greedy completion
//! inside the exact search decides much of each plan.
//!
//! The rows named after a built-in generator (seed 7, its default) and
//! `hotspot-drift+12` are the runs a runner-level reference route (every
//! listed worker rescanned at every instant) was once compared against: the
//! four built-in scenario generators at 150 tasks and 12 workers, batched by
//! eight, under Greedy / FTA / DTA / DATA-WA (an untrained seeded TVF), plus
//! DTA+TP on the hotspot-drift scenario with twelve predicted tasks. They
//! were written and run green while that route still existed.
//!
//! A second table pins the TVF's training data: DATA-WA's rows above hold
//! counts only, yet the samples `Planner::collect_training_samples` hands to
//! TVF training are plain arithmetic on the planning state (no `tanh`, no
//! `exp`), so they are digested bit for bit — every state, action and `opt`.
//!
//! A deliberate behaviour change regenerates a table: a mismatch prints
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
    let mut session = Session::open(runner, forecast, engine);
    session
        .ingest_workload(workload)
        .expect("a generated workload ingests");
    let outcome = session.close(&mut sink);
    (outcome.run.assigned_tasks, sink.decisions, sink.digest)
}

/// Replanning on every `n`-th arrival, with a worker going offline keeping
/// its plan (under FTA its undone tasks stay reserved).
fn keep_plans(n: usize) -> EngineConfig {
    EngineConfig {
        release_on_offline: false,
        ..EngineConfig::batched(n)
    }
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

/// Every arrival a time instance, replanning on every arrival and on every
/// fourth, plans kept at offline: the rows the retired synchronous driver
/// wrote, now replayed through a session.
fn run_sync_rows(seed: u64, rows: &mut Vec<Row>) {
    let trace = SyntheticTrace::generate(TraceSpec::yueche().scaled(0.1).with_seed(seed));
    let workload = trace.workload();
    for (policy, replan_every) in [
        (PolicyKind::Dta, 1),
        (PolicyKind::Fta, 1),
        (PolicyKind::Dta, 4),
    ] {
        let runner = AdaptiveRunner::new(AssignConfig::default(), policy);
        let mut forecast = StaticForecast::default();
        let mut session = Session::open(&runner, &mut forecast, keep_plans(replan_every));
        session
            .ingest_workload(&workload)
            .expect("a replay workload ingests");
        let outcome = session.close(&mut NullSink).run;
        let mut sink = DigestSink::new();
        for (worker, served) in outcome.per_worker {
            sink.fold(u64::from(worker.0) << 32 | served as u64);
        }
        rows.push((
            if replan_every == 1 {
                "run-sync"
            } else {
                "run-sync/4"
            },
            seed,
            policy.name(),
            outcome.assigned_tasks,
            outcome.planning_calls,
            Some(sink.digest),
        ));
    }
}

/// Time-driven ticks (no arrival replans), FTA with and without releasing
/// fixed plans at offline, and a forced replan behind the last event.
fn lifecycle_rows(seed: u64, rows: &mut Vec<Row>) {
    let trace = SyntheticTrace::generate(TraceSpec::yueche().scaled(0.1).with_seed(seed));
    let yueche = trace.workload();
    let churn = HeavyTailedChurn::new(
        ScenarioSpec::small()
            .with_tasks(400)
            .with_workers(150)
            .with_seed(seed),
    )
    .generate();
    for (scenario, workload, policy, engine) in [
        (
            "yueche-0.1-ticked",
            &yueche,
            PolicyKind::Dta,
            EngineConfig::ticked(5.0),
        ),
        (
            "churn-ticked",
            &churn,
            PolicyKind::Dta,
            EngineConfig::ticked(20.0),
        ),
        (
            "churn-ticked",
            &churn,
            PolicyKind::Greedy,
            EngineConfig::ticked(20.0),
        ),
        (
            "churn-release",
            &churn,
            PolicyKind::Fta,
            EngineConfig::default(),
        ),
        ("churn-keep", &churn, PolicyKind::Fta, keep_plans(1)),
    ] {
        let runner = AdaptiveRunner::new(AssignConfig::default(), policy);
        let (assigned, decisions, digest) =
            run(&runner, workload, &mut StaticForecast::default(), engine);
        rows.push((
            scenario,
            seed,
            policy.name(),
            assigned,
            decisions,
            Some(digest),
        ));
    }
    // The churn scenarios never strand a reserved task, so hand-build one:
    // worker 0 is fixed `[a, b]` at t = 1, reaches `a` at 2 and sees no other
    // instant before going offline at 100 with `b` still reserved; worker 1
    // comes online on top of `b` at 200. Releasing hands `b` over (a
    // zero-travel dispatch), keeping strands it. Seed-independent.
    if seed == SEEDS[0] {
        let handoff = Workload {
            workers: vec![
                Worker::new(
                    WorkerId(0),
                    Location::new(0.0, 0.0),
                    5.0,
                    Timestamp(1.0),
                    Timestamp(100.0),
                ),
                Worker::new(
                    WorkerId(1),
                    Location::new(2.0, 0.0),
                    5.0,
                    Timestamp(200.0),
                    Timestamp(1000.0),
                ),
            ],
            tasks: vec![
                Task::new(
                    TaskId(0),
                    Location::new(1.0, 0.0),
                    Timestamp(0.0),
                    Timestamp(1000.0),
                ),
                Task::new(
                    TaskId(1),
                    Location::new(2.0, 0.0),
                    Timestamp(0.0),
                    Timestamp(1000.0),
                ),
            ],
        };
        for (scenario, engine) in [
            ("fta-handoff-release", EngineConfig::default()),
            ("fta-handoff-keep", keep_plans(1)),
        ] {
            let runner = AdaptiveRunner::new(AssignConfig::unit_speed(), PolicyKind::Fta);
            let (assigned, decisions, digest) =
                run(&runner, &handoff, &mut StaticForecast::default(), engine);
            rows.push((scenario, 0, "FTA", assigned, decisions, Some(digest)));
        }
    }
    // Batched, so the forced replan finds tasks waiting for their batch.
    for (scenario, workload, policy, batch) in [
        ("yueche-0.1-rewind", &yueche, PolicyKind::Dta, 8),
        ("churn-rewind", &churn, PolicyKind::Dta, 16),
        ("churn-rewind", &churn, PolicyKind::Greedy, 16),
    ] {
        let runner = AdaptiveRunner::new(AssignConfig::default(), policy);
        let mut forecast = StaticForecast::default();
        let mut sink = DigestSink::new();
        let mut session = Session::open(&runner, &mut forecast, EngineConfig::batched(batch));
        session
            .ingest_workload(workload)
            .expect("a generated workload ingests");
        // At each fifth of the arrivals, one forced replan 30 s behind.
        let mut times: Vec<f64> = workload.workers.iter().map(|w| w.on().0).collect();
        times.extend(workload.tasks.iter().map(|t| t.publication.0));
        times.sort_by(f64::total_cmp);
        for fifth in 1..5 {
            let at = Timestamp(times[times.len() * fifth / 5]);
            session.advance_to(at, &mut sink);
            session.force_replan(Timestamp(at.0 - 30.0), &mut sink);
        }
        let outcome = session.close(&mut sink);
        rows.push((
            scenario,
            seed,
            policy.name(),
            outcome.run.assigned_tasks,
            sink.decisions,
            Some(sink.digest),
        ));
    }
}

/// One session of the benchmark's `churn-batched` workload.
fn dense_churn(seed: u64) -> (ScenarioSpec, Workload) {
    let spec = ScenarioSpec::small()
        .with_tasks(625)
        .with_workers(1_000)
        .with_horizon(1_250.0)
        .with_seed(seed);
    (spec, HeavyTailedChurn::new(spec).generate())
}

/// DTA with sixteen search expansions per partition.
fn budget_rows(seed: u64, rows: &mut Vec<Row>) {
    let config = AssignConfig {
        search_node_budget: 16,
        ..AssignConfig::default()
    };
    let runner = AdaptiveRunner::new(config, PolicyKind::Dta);
    let (assigned, decisions, digest) = run(
        &runner,
        &dense_churn(seed).1,
        &mut StaticForecast::default(),
        EngineConfig::batched(64),
    );
    rows.push((
        "churn-budget16",
        seed,
        PolicyKind::Dta.name(),
        assigned,
        decisions,
        Some(digest),
    ));
}

/// Every built-in scenario generator under the four policy families, and
/// DTA+TP with twelve predicted tasks on the hotspot-drift scenario.
fn builtin_rows(rows: &mut Vec<Row>) {
    let spec = ScenarioSpec::small().with_tasks(150).with_workers(12);
    let engine = EngineConfig::batched(8);
    for scenario in builtin_scenarios(spec) {
        let workload = scenario.generate();
        for policy in [
            PolicyKind::Greedy,
            PolicyKind::Fta,
            PolicyKind::Dta,
            PolicyKind::DataWa,
        ] {
            let mut runner = AdaptiveRunner::new(AssignConfig::default(), policy);
            if policy == PolicyKind::DataWa {
                runner = runner.with_tvf(TaskValueFunction::new(8, 7));
            }
            let (assigned, decisions, digest) =
                run(&runner, &workload, &mut StaticForecast::default(), engine);
            rows.push((
                scenario.name(),
                spec.seed,
                policy.name(),
                assigned,
                decisions,
                (policy != PolicyKind::DataWa).then_some(digest),
            ));
        }
    }
    let spec = ScenarioSpec::small().with_tasks(120).with_workers(10);
    let predicted: Vec<PredictedTaskInput> = (0..12)
        .map(|i| PredictedTaskInput {
            location: Location::new(1.0 + i as f64 * 0.7, 2.0),
            publication: Timestamp(60.0 * i as f64 + 30.0),
            expiration: Timestamp(60.0 * i as f64 + 300.0),
        })
        .collect();
    let runner = AdaptiveRunner::new(AssignConfig::default(), PolicyKind::DtaTp);
    let (assigned, decisions, digest) = run(
        &runner,
        &HotspotDrift::new(spec).generate(),
        &mut StaticForecast::new(predicted),
        engine,
    );
    rows.push((
        "hotspot-drift+12",
        spec.seed,
        PolicyKind::DtaTp.name(),
        assigned,
        decisions,
        Some(digest),
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
    ("run-sync", 77003, "DTA", 235, 1156, Some(0xc8c89b510ad51104)),
    ("run-sync", 77003, "FTA", 57, 1058, Some(0x6e306ba9755040f4)),
    ("run-sync/4", 77003, "DTA", 173, 289, Some(0x5c4c07e1eb6dffb8)),
    ("yueche-0.1-ticked", 77003, "DTA", 214, 1167, Some(0x4a8a5b829ff5d10d)),
    ("churn-ticked", 77003, "DTA", 121, 1234, Some(0x6f78028740a3d161)),
    ("churn-ticked", 77003, "Greedy", 120, 1234, Some(0x64e455280719a2e9)),
    ("churn-release", 77003, "FTA", 147, 1234, Some(0xb63d088d8065db99)),
    ("churn-keep", 77003, "FTA", 147, 1234, Some(0xb63d088d8065db99)),
    ("fta-handoff-release", 0, "FTA", 2, 4, Some(0x8e6cc312dba03245)),
    ("fta-handoff-keep", 0, "FTA", 1, 4, Some(0x0aee5d9b55074628)),
    ("yueche-0.1-rewind", 77003, "DTA", 102, 1167, Some(0x9fa675b10fe4c537)),
    ("churn-rewind", 77003, "DTA", 116, 1234, Some(0xdbfef2e340d2b03c)),
    ("churn-rewind", 77003, "Greedy", 117, 1234, Some(0x4305a2c2b2cd3c8b)),
    ("run-sync", 20161101, "DTA", 229, 1114, Some(0xecb37983bdb47dee)),
    ("run-sync", 20161101, "FTA", 59, 988, Some(0x3023b9fb755da48a)),
    ("run-sync/4", 20161101, "DTA", 167, 278, Some(0x63b53c545470306a)),
    ("yueche-0.1-ticked", 20161101, "DTA", 216, 1167, Some(0xe27df428633c4b84)),
    ("churn-ticked", 20161101, "DTA", 145, 1227, Some(0xb49a9190c406f74c)),
    ("churn-ticked", 20161101, "Greedy", 144, 1227, Some(0x9c6638b3934be71c)),
    ("churn-release", 20161101, "FTA", 176, 1227, Some(0x2a6c98e0dcf5a276)),
    ("churn-keep", 20161101, "FTA", 176, 1227, Some(0x2a6c98e0dcf5a276)),
    ("yueche-0.1-rewind", 20161101, "DTA", 96, 1167, Some(0x111d9d8307253420)),
    ("churn-rewind", 20161101, "DTA", 131, 1227, Some(0x9ec32d8f29b7c8e7)),
    ("churn-rewind", 20161101, "Greedy", 132, 1227, Some(0x37deba609ba005b0)),
    ("uniform-baseline", 7, "Greedy", 0, 162, Some(0xc0cbe2e8afe9219b)),
    ("uniform-baseline", 7, "FTA", 1, 162, Some(0x6b0f7b86e73dda9b)),
    ("uniform-baseline", 7, "DTA", 0, 162, Some(0xc0cbe2e8afe9219b)),
    ("uniform-baseline", 7, "DATA-WA", 0, 162, None),
    ("rush-hour-burst", 7, "Greedy", 8, 162, Some(0x2326a67fced7d662)),
    ("rush-hour-burst", 7, "FTA", 9, 162, Some(0xa3efb8ba7f3a56cb)),
    ("rush-hour-burst", 7, "DTA", 8, 162, Some(0x2326a67fced7d662)),
    ("rush-hour-burst", 7, "DATA-WA", 8, 162, None),
    ("hotspot-drift", 7, "Greedy", 2, 162, Some(0x6ff1801c146f7da9)),
    ("hotspot-drift", 7, "FTA", 4, 162, Some(0xdfbfafa4a5ec2552)),
    ("hotspot-drift", 7, "DTA", 2, 162, Some(0x6ff1801c146f7da9)),
    ("hotspot-drift", 7, "DATA-WA", 2, 162, None),
    ("heavy-tailed-churn", 7, "Greedy", 2, 211, Some(0x0043458bc47fb72a)),
    ("heavy-tailed-churn", 7, "FTA", 7, 211, Some(0xb7d627429ec68457)),
    ("heavy-tailed-churn", 7, "DTA", 2, 211, Some(0x0043458bc47fb72a)),
    ("heavy-tailed-churn", 7, "DATA-WA", 2, 211, None),
    ("hotspot-drift+12", 7, "DTA+TP", 0, 130, Some(0x6dac7c65bb9107b6)),
    ("churn-budget16", 77003, "DTA", 501, 4604, Some(0xd2f842f2f1e53be6)),
    ("churn-budget16", 20161101, "DTA", 529, 4611, Some(0xd046b3e20d14f2c0)),
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
    for seed in SEEDS {
        run_sync_rows(seed, &mut rows);
        lifecycle_rows(seed, &mut rows);
    }
    builtin_rows(&mut rows);
    for seed in SEEDS {
        budget_rows(seed, &mut rows);
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

/// One pinned sample collection: scenario, seed, number of samples and the
/// FNV-1a digest of their bits.
type SampleRow = (&'static str, u64, usize, u64);

/// `Planner::collect_training_samples` at `instants`, over every worker
/// available and every task open at each, on one exact planner kept across
/// the instants — as `train_tvf_on_prefix` collects the TVF's training set.
fn sample_row(
    scenario: &'static str,
    seed: u64,
    workers: &WorkerStore,
    tasks: &TaskStore,
    instants: &[Timestamp],
) -> SampleRow {
    let mut planner = Planner::new(AssignConfig::default(), SearchMode::Exact);
    let mut sink = DigestSink::new();
    let mut count = 0;
    for &now in instants {
        let worker_ids = workers.available_at(now);
        let task_ids = tasks.open_at(now);
        for s in planner.collect_training_samples(&worker_ids, &task_ids, workers, tasks, now) {
            count += 1;
            sink.fold(s.state.remaining_workers as u64);
            sink.fold(s.state.remaining_tasks as u64);
            sink.fold(s.state.mean_reachable.to_bits());
            sink.fold(s.action.sequence_len as u64);
            sink.fold(s.action.travel_time.to_bits());
            sink.fold(s.action.travel_distance.to_bits());
            sink.fold(s.action.remaining_window.to_bits());
            sink.fold(s.opt.to_bits());
        }
    }
    (scenario, seed, count, sink.digest)
}

/// `n` instants evenly spaced over `[0, horizon)`, each in the middle of its
/// slice.
fn instants(horizon: f64, n: usize) -> Vec<Timestamp> {
    (0..n)
        .map(|i| Timestamp(horizon * (i as f64 + 0.5) / n as f64))
        .collect()
}

#[rustfmt::skip]
const GOLDEN_SAMPLES: &[SampleRow] = &[
    ("yueche-0.1", 77003, 33, 0xa0100ceb70c899ff),
    ("yueche-0.1", 20161101, 36, 0xd51fe259c60aeb10),
    ("churn", 77003, 455, 0xb93d9bc9d8919e37),
];

/// The TVF's training samples, on the Yueche trace at 64 evenly spaced
/// instants (both seeds) and on one session of the benchmark's
/// `churn-batched` shape at eight.
#[test]
fn tvf_training_samples_match_the_golden_digests() {
    let mut rows: Vec<SampleRow> = Vec::new();
    for seed in SEEDS {
        let trace = SyntheticTrace::generate(TraceSpec::yueche().scaled(0.1).with_seed(seed));
        let at = instants(trace.spec.horizon, 64);
        rows.push(sample_row(
            "yueche-0.1",
            seed,
            &trace.workers,
            &trace.tasks,
            &at,
        ));
    }
    let (spec, workload) = dense_churn(SEEDS[0]);
    let workers = WorkerStore::from_workers(workload.workers.iter().copied());
    let tasks = TaskStore::from_tasks(workload.tasks.iter().copied());
    let at = instants(spec.horizon, 8);
    rows.push(sample_row("churn", SEEDS[0], &workers, &tasks, &at));
    let table: String = rows
        .iter()
        .map(|(scenario, seed, count, digest)| {
            format!("    (\"{scenario}\", {seed}, {count}, 0x{digest:016x}),\n")
        })
        .collect();
    assert!(
        rows.iter().all(|r| r.2 > 0),
        "an instant set collected no sample:\n{table}"
    );
    assert!(
        rows == GOLDEN_SAMPLES,
        "training samples moved; the actual table:\n{table}"
    );
}
