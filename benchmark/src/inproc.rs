//! The three in-process workloads (`yueche-dta`, `yueche-datawa`,
//! `churn-batched`): set-up, one untimed warm-up round, timed rounds of the
//! identical seeded load, recovery, checks.

use crate::load::{self, assign_config, Sizing, WorkloadPlan};
use crate::metrics::{Measured, RunResult, END_TO_END, PER_LAYER};
use crate::probes;
use crate::session::{check_dispatches, recover_session, run_session, TimedForecast};
use crate::stats::{percentile_sorted, Summary};
use crate::sys::process_cpu_ms;
use crate::trace::Tracer;
use crate::RunConfig;
use datawa_assign::{AdaptiveRunner, ForecastProvider, PolicyKind, StaticForecast};
use datawa_predict::{DdgnnPredictor, TrainingConfig};
use datawa_sim::{
    online_forecaster, prediction_grid, train_tvf_on_prefix, PipelineConfig, SyntheticTrace,
};
use datawa_stream::EventJournal;
use std::collections::BTreeMap;
use std::time::Instant;

/// Simulated seconds between model re-forecasts on `yueche-datawa`.
const FORECAST_REFRESH_S: f64 = 30.0;

/// Attempted and failed operations, and what failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts operations the program was asked to do and how many it refused.
    pub fn ops(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.failures.push(format!("{failed} {what}"));
        }
    }

    /// Counts one output check.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(message());
        }
    }
}

/// Builds the demand-forecast provider of each session. Providers hold the
/// arrivals they have observed, so every session (and every recovery) gets a
/// fresh one; on `yueche-datawa` that retrains the model, outside the timed
/// part of the round.
pub struct ForecastFactory<'a> {
    trace: Option<&'a SyntheticTrace>,
    pipeline: PipelineConfig,
    seed: u64,
    /// Seconds each model-backed provider took to build (train + warm-up).
    pub train_s: Vec<f64>,
}

impl ForecastFactory<'_> {
    pub fn make(&mut self) -> Box<dyn ForecastProvider> {
        let Some(trace) = self.trace else {
            return Box::new(StaticForecast::default());
        };
        let started = Instant::now();
        let grid = prediction_grid(trace, &self.pipeline);
        let model = DdgnnPredictor::with_defaults(grid.cell_count(), self.pipeline.k, self.seed);
        let forecaster =
            online_forecaster(trace, Box::new(model), &self.pipeline, FORECAST_REFRESH_S);
        self.train_s.push(started.elapsed().as_secs_f64());
        Box::new(forecaster)
    }
}

/// The pipeline configuration `yueche-datawa` trains with.
pub fn pipeline_config(sizing: &Sizing) -> PipelineConfig {
    let defaults = PipelineConfig::default();
    PipelineConfig {
        assign: assign_config(),
        training: TrainingConfig {
            epochs: sizing.predictor_epochs,
            ..defaults.training
        },
        tvf_epochs: sizing.tvf_epochs,
        tvf_training_instants: sizing.tvf_instants,
        ..defaults
    }
}

/// One round: every session of the plan, once.
pub struct Round {
    /// Sum of the session walls.
    pub wall_ns: u64,
    pub cpu_ms: f64,
    /// Heap growth and allocation count over the sessions, when this was the
    /// round that measured them.
    pub memory: Option<crate::alloc::Measured>,
    pub events: u64,
    pub decisions: u64,
    pub assigned: u64,
    /// Ascending `ingest` + `advance_to` walls of the pairs that dispatched.
    pub latencies_ns: Vec<u64>,
    pub close_ns: u64,
    pub planning_seconds: f64,
    pub planning_calls: u64,
    pub partitions_reused: u64,
    pub partitions_recomputed: u64,
    pub peak_partitions: usize,
    pub peak_partition_workers: usize,
    pub peak_queue: usize,
    pub forecast_refreshes: u64,
    pub forecast_queries: u64,
    pub predicted_tasks: u64,
    /// What recovery needs of each session, in session order.
    pub journaled: Vec<Journaled>,
}

/// A session's journal and where its decision stream stood when the journal
/// ends (the drain at close is not journaled).
pub struct Journaled {
    pub journal: EventJournal,
    pub digest: u64,
    pub decisions: u64,
    /// Digest of the whole decision stream, close included.
    pub full_digest: u64,
}

impl Round {
    pub fn events_per_s(&self) -> f64 {
        self.events as f64 / (self.wall_ns as f64 / 1e9)
    }

    pub fn latency_ms(&self, p: f64) -> f64 {
        percentile_sorted(&self.latencies_ns, p) as f64 / 1e6
    }

    pub fn cpu_ms_per_kevent(&self) -> f64 {
        self.cpu_ms / (self.events as f64 / 1000.0)
    }

    /// Heap high-water of the round in MB (0 unless it measured memory).
    pub fn memory_mb(&self) -> f64 {
        self.memory.map_or(0.0, |m| m.high_water_mb())
    }
}

pub fn run_round(
    cfg: &RunConfig,
    runner: &AdaptiveRunner,
    plan: &WorkloadPlan,
    factory: &mut ForecastFactory<'_>,
    tracer: Option<&Tracer>,
    measure_memory: bool,
    checks: &mut Checks,
) -> Round {
    // Untimed preparation: one fresh forecast provider per session.
    let mut forecasts: Vec<Box<dyn ForecastProvider>> =
        plan.sessions.iter().map(|_| factory.make()).collect();
    let mut outcomes = Vec::with_capacity(plan.sessions.len());
    let mut predicted_tasks = 0;

    if let Some(t) = tracer {
        t.enter("round");
    }
    if measure_memory {
        cfg.alloc.start();
    }
    let cpu_before = process_cpu_ms();
    for (load, forecast) in plan.sessions.iter().zip(forecasts.drain(..)) {
        outcomes.push(match tracer {
            None => {
                let mut forecast = forecast;
                run_session(runner, forecast.as_mut(), plan.engine, load, None)
            }
            Some(t) => {
                let mut timed = TimedForecast {
                    inner: forecast,
                    tracer: t,
                    predicted_tasks: 0,
                };
                let outcome = run_session(runner, &mut timed, plan.engine, load, tracer);
                predicted_tasks += timed.predicted_tasks;
                outcome
            }
        });
    }
    let cpu_ms = process_cpu_ms() - cpu_before;
    let memory = measure_memory.then(|| cfg.alloc.stop());
    if let Some(t) = tracer {
        t.exit();
    }

    let mut latencies_ns: Vec<u64> = outcomes
        .iter_mut()
        .flat_map(|s| std::mem::take(&mut s.latencies_ns))
        .collect();
    latencies_ns.sort_unstable();
    let mut round = Round {
        wall_ns: 0,
        cpu_ms,
        memory,
        events: 0,
        decisions: 0,
        assigned: 0,
        latencies_ns,
        close_ns: 0,
        planning_seconds: 0.0,
        planning_calls: 0,
        partitions_reused: 0,
        partitions_recomputed: 0,
        peak_partitions: 0,
        peak_partition_workers: 0,
        peak_queue: 0,
        forecast_refreshes: 0,
        forecast_queries: 0,
        predicted_tasks,
        journaled: outcomes
            .iter()
            .map(|s| Journaled {
                journal: s.journal.clone(),
                digest: s.digest_before_close,
                decisions: s.decisions_before_close,
                full_digest: s.sink.digest,
            })
            .collect(),
    };
    for (load, s) in plan.sessions.iter().zip(&outcomes) {
        let run = &s.outcome.run;
        round.wall_ns += s.wall_ns;
        round.close_ns += s.close_ns;
        round.events += s.outcome.stats.events_processed as u64;
        round.decisions += s.sink.decisions;
        round.assigned += run.assigned_tasks as u64;
        round.planning_seconds += run.total_planning_seconds;
        round.planning_calls += run.planning_calls as u64;
        round.partitions_reused += run.partitions_reused as u64;
        round.partitions_recomputed += run.partitions_recomputed as u64;
        round.peak_partitions = round.peak_partitions.max(run.peak_partitions);
        round.peak_partition_workers = round.peak_partition_workers.max(run.peak_partition_workers);
        round.peak_queue = round.peak_queue.max(s.outcome.stats.peak_queue_len);
        round.forecast_refreshes += run.forecast.refreshes as u64;
        round.forecast_queries += run.forecast.queries as u64;

        checks.ops(
            load.arrivals.len() as u64,
            s.rejected,
            "events refused by ingest",
        );
        checks.check(run.assigned_tasks == s.sink.dispatches.len(), || {
            format!(
                "session reports {} assigned tasks but emitted {} dispatches",
                run.assigned_tasks,
                s.sink.dispatches.len()
            )
        });
        let violations = check_dispatches(&s.sink.dispatches, &load.tasks);
        checks.check(violations.is_empty(), || violations.join("; "));
    }
    round
}

/// Recovers every session of the round from its journal bytes into a fresh
/// session and checks that each rebuilt decision stream is the uninterrupted
/// one. Returns the summed recovery time and the events the replays
/// processed.
pub fn recover_round(
    runner: &AdaptiveRunner,
    plan: &WorkloadPlan,
    factory: &mut ForecastFactory<'_>,
    round: &Round,
    checks: &mut Checks,
) -> (f64, u64) {
    let (mut seconds, mut events) = (0.0, 0);
    for (i, session) in round.journaled.iter().enumerate() {
        let bytes = session
            .journal
            .snapshot_bytes()
            .expect("in-memory journals cannot fail to read");
        let mut forecast = factory.make();
        match recover_session(runner, forecast.as_mut(), plan.engine, bytes) {
            Ok(recovered) => {
                checks.check(
                    recovered.digest == session.digest && recovered.decisions == session.decisions,
                    || {
                        format!(
                            "session {i}: recovered {} decisions (digest {:016x}), the uninterrupted run {} ({:016x})",
                            recovered.decisions, recovered.digest, session.decisions, session.digest
                        )
                    },
                );
                seconds += recovered.seconds;
                events += recovered.events_processed;
            }
            Err(e) => {
                checks.check(false, || {
                    format!("session {i}: journal recovery failed: {e}")
                });
                seconds = f64::NAN;
            }
        }
    }
    (seconds, events)
}

/// Whether recovery is measured after timed round `index` (0-based): after
/// every second round (a recovery costs as much as the sessions it replays),
/// or once in a traced run, whose rounds are pairs already.
pub fn recovery_due(cfg: &RunConfig, index: usize) -> bool {
    if cfg.traced {
        index == 0
    } else {
        index.is_multiple_of(2)
    }
}

/// Timed rounds of this run: what the `--seconds` budget gives (see
/// `Sizing::rounds`); a traced run, whose rounds are pairs of an untraced and
/// a traced one, makes half as many.
pub fn timed_rounds(cfg: &RunConfig) -> usize {
    let rounds = cfg.scale.sizing().rounds(cfg.seconds);
    if cfg.traced {
        rounds.div_ceil(2)
    } else {
        rounds
    }
}

/// Does the set-up `sizing.setups` times, keeps the last one and returns it
/// with the seconds each took; the first is counted from the start of the
/// process. `setup_s` is the median of these plus the warm-up round.
pub fn repeat_set_up<T>(cfg: &RunConfig, mut set_up: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut seconds = Vec::new();
    let mut started = cfg.process_start;
    loop {
        let made = set_up();
        seconds.push(started.elapsed().as_secs_f64());
        if seconds.len() == cfg.scale.sizing().setups {
            return (made, seconds);
        }
        drop(made);
        started = Instant::now();
    }
}

/// `setup_s`: the median set-up plus the warm-up round that began at
/// `warmup_started`.
pub fn setup_seconds(set_ups_s: &[f64], warmup_started: Instant) -> Summary {
    let warmup_s = warmup_started.elapsed().as_secs_f64();
    let with_warmup: Vec<f64> = set_ups_s.iter().map(|s| s + warmup_s).collect();
    Summary::of(&with_warmup)
}

/// What the set-up of a workload makes from the seed: the generated load,
/// the runner (with the TVF trained for DATA-WA) and the pipeline
/// configuration the forecast factory trains with.
pub struct Prepared {
    pub plan: WorkloadPlan,
    pub runner: AdaptiveRunner,
    pub pipeline: PipelineConfig,
    pub tvf_train_s: f64,
}

/// Generates the load of `cfg.workload` from `cfg.seed` and builds its runner.
pub fn prepare(cfg: &RunConfig) -> Prepared {
    let sizing = cfg.scale.sizing();
    let plan = load::plan(&cfg.workload, cfg.seed, cfg.scale).expect("a known workload");
    let pipeline = pipeline_config(&sizing);
    let mut runner = AdaptiveRunner::new(assign_config(), plan.policy);
    let mut tvf_train_s = 0.0;
    if plan.policy == PolicyKind::DataWa {
        let started = Instant::now();
        let tvf = train_tvf_on_prefix(&plan.traces[0], &pipeline);
        tvf_train_s = started.elapsed().as_secs_f64();
        runner = runner.with_tvf(tvf);
    }
    Prepared {
        plan,
        runner,
        pipeline,
        tvf_train_s,
    }
}

/// The forecast factory of `plan`: model-backed for DATA-WA, the empty static
/// forecast for the policies that never consult it.
pub fn forecast_factory(prepared: &Prepared, seed: u64) -> ForecastFactory<'_> {
    let plan = &prepared.plan;
    ForecastFactory {
        trace: (plan.policy == PolicyKind::DataWa).then(|| &plan.traces[0]),
        pipeline: prepared.pipeline,
        seed,
        train_s: Vec::new(),
    }
}

/// In-process rounds of one run and what the traced run derives from them.
pub struct Rounds {
    pub warmup: Round,
    pub untraced: Vec<Round>,
    pub traced: Vec<Round>,
    pub recovery_s: Vec<f64>,
    /// Events the last recovery replayed.
    pub recovered_events: u64,
}

impl Rounds {
    /// Every round must repeat the warm-up round's counts and decision
    /// streams exactly.
    pub fn check_counts(&self, checks: &mut Checks) {
        let counts = |r: &Round| (r.events, r.decisions, r.assigned);
        let digests = |r: &Round| {
            r.journaled
                .iter()
                .map(|j| j.full_digest)
                .collect::<Vec<_>>()
        };
        for (i, round) in self.untraced.iter().chain(&self.traced).enumerate() {
            checks.check(counts(round) == counts(&self.warmup), || {
                format!(
                    "round {i} counted (events, decisions, assigned) = {:?}, the warm-up round {:?}",
                    counts(round),
                    counts(&self.warmup)
                )
            });
            checks.check(digests(round) == digests(&self.warmup), || {
                format!("round {i} emitted a different decision stream than the warm-up round")
            });
        }
    }

    /// The median of a per-round value over the timed (untraced) rounds.
    fn over(&self, f: &dyn Fn(&Round) -> f64) -> Summary {
        Summary::of(&self.untraced.iter().map(f).collect::<Vec<_>>())
    }

    /// The best of a per-round value over the timed rounds.
    fn best(&self, higher_is_better: bool, f: &dyn Fn(&Round) -> f64) -> Summary {
        Summary::best(
            &self.untraced.iter().map(f).collect::<Vec<_>>(),
            higher_is_better,
        )
    }
}

/// Runs an in-process workload.
pub fn run(cfg: &RunConfig) -> RunResult {
    let mut checks = Checks::default();

    // ---- set-up -----------------------------------------------------------
    let (prepared, set_ups_s) = repeat_set_up(cfg, || prepare(cfg));
    let (plan, runner) = (&prepared.plan, &prepared.runner);
    let mut factory = forecast_factory(&prepared, cfg.seed);
    // The warm-up round is the identical load, untimed: lazy set-up (first
    // touch of the heap, page faults) is paid here, it gives the counts every
    // timed round must repeat, and it is the round whose memory is measured
    // (see `alloc`), so the timed rounds run on the bare allocator.
    let warmup_started = Instant::now();
    let warmup = run_round(cfg, runner, plan, &mut factory, None, true, &mut checks);
    let setup_s = setup_seconds(&set_ups_s, warmup_started);

    // ---- timed rounds -----------------------------------------------------
    let tracer = cfg.traced.then(Tracer::new);
    if let Some(t) = &tracer {
        t.enter("run");
    }
    let mut rounds = Rounds {
        warmup,
        untraced: Vec::new(),
        traced: Vec::new(),
        recovery_s: Vec::new(),
        recovered_events: 0,
    };
    for index in 0..timed_rounds(cfg) {
        let round = run_round(cfg, runner, plan, &mut factory, None, false, &mut checks);
        if recovery_due(cfg, index) {
            let (seconds, events) = recover_round(runner, plan, &mut factory, &round, &mut checks);
            rounds.recovery_s.push(seconds);
            rounds.recovered_events = events;
        }
        rounds.untraced.push(round);
        if let Some(t) = &tracer {
            rounds.traced.push(run_round(
                cfg,
                runner,
                plan,
                &mut factory,
                Some(t),
                false,
                &mut checks,
            ));
        }
    }
    rounds.check_counts(&mut checks);
    print_round_walls(rounds.untraced.iter().map(|r| r.wall_ns));

    // ---- metrics ----------------------------------------------------------
    let mut values: BTreeMap<&'static str, Summary> = BTreeMap::new();
    match &tracer {
        None => {
            values.insert("setup_s", setup_s);
            values.insert("events_per_s", rounds.best(true, &Round::events_per_s));
            values.insert(
                "decision_latency_p50_ms",
                rounds.best(false, &|r| r.latency_ms(50.0)),
            );
            values.insert(
                "decision_latency_p90_ms",
                rounds.best(false, &|r| r.latency_ms(90.0)),
            );
            values.insert(
                "mem_high_water_mb",
                Summary::single(rounds.warmup.memory_mb()),
            );
            values.insert("recovery_s", Summary::best(&rounds.recovery_s, false));
            values.insert(
                "assigned_tasks",
                Summary::single(rounds.warmup.assigned as f64),
            );
        }
        Some(tracer) => {
            layer_values(cfg, &prepared, &rounds, tracer, &mut values);
            if !factory.train_s.is_empty() {
                values.insert("predict.train_s", Summary::of(&factory.train_s));
            }
            finish_trace(cfg, tracer, &mut checks);
        }
    }
    finish(cfg, rounds.untraced.len(), checks, values)
}

/// The `stream.`, `assign.`, `graph.`, `predict.` and `obs.` metrics of a
/// traced run, from its in-process rounds, the tracer's per-name totals and
/// the planner probes.
pub fn layer_values(
    cfg: &RunConfig,
    prepared: &Prepared,
    rounds: &Rounds,
    tracer: &Tracer,
    values: &mut BTreeMap<&'static str, Summary>,
) {
    let sizing = cfg.scale.sizing();
    let plan = &prepared.plan;
    let (warmup, untraced, traced) = (&rounds.warmup, &rounds.untraced, &rounds.traced);
    let first = &plan.sessions[0];
    let events = |rs: &[Round]| rs.iter().map(|r| r.events).sum::<u64>() as f64;
    let wall_s = |rs: &[Round]| rs.iter().map(|r| r.wall_ns).sum::<u64>() as f64 / 1e9;
    let (traced_events, untraced_events) = (events(traced), events(untraced));

    let ingest = tracer.totals("ingest");
    let advance = tracer.totals("advance");
    let journal = tracer.totals("journal");
    let observe = tracer.totals("forecast.observe");
    let query = tracer.totals("forecast.query");
    let first_journal = &warmup.journaled[0].journal;
    let journal_bytes = first_journal.snapshot_bytes().map_or(0, |b| b.len());
    // The first session's journal against that session's share of the events.
    let first_events = warmup.events as f64 / plan.sessions.len() as f64;

    let mut put = |name: &'static str, summary: Summary| {
        values.insert(name, summary);
    };
    let single = Summary::single;
    put(
        "stream.session_us_per_event",
        rounds.over(&|r| r.wall_ns as f64 / 1e3 / r.events as f64),
    );
    put(
        "stream.ingest_ns_per_event",
        single(ingest.total_ns as f64 / traced_events),
    );
    put(
        "stream.advance_us_per_call",
        single(advance.total_ns as f64 / 1e3 / advance.count.max(1) as f64),
    );
    put(
        "stream.journal_append_ns_per_event",
        single(journal.total_ns as f64 / traced_events),
    );
    put(
        "stream.journal_bytes_per_event",
        single(journal_bytes as f64 / first_events),
    );
    put(
        "stream.journal_scan_ns_per_record",
        single(probes::journal_scan_ns_per_record(first_journal)),
    );
    if let Some(recovery_s) = rounds.recovery_s.first() {
        put(
            "stream.recover_us_per_event",
            single(recovery_s * 1e6 / rounds.recovered_events.max(1) as f64),
        );
    }
    put("stream.queue_depth_peak", single(warmup.peak_queue as f64));
    put(
        "stream.decisions_per_event",
        single(warmup.decisions as f64 / warmup.events as f64),
    );
    put(
        "stream.close_drain_ms",
        rounds.over(&|r| r.close_ns as f64 / 1e6),
    );
    put(
        "stream.decision_latency_p99_ms",
        rounds.over(&|r| r.latency_ms(99.0)),
    );

    put(
        "assign.replan_share_pct",
        rounds.over(&|r| 100.0 * r.planning_seconds / (r.wall_ns as f64 / 1e9)),
    );
    put(
        "assign.replan_us_mean",
        rounds.over(&|r| r.planning_seconds * 1e6 / r.planning_calls.max(1) as f64),
    );
    put(
        "assign.planning_calls",
        single(warmup.planning_calls as f64),
    );
    let partitions = (warmup.partitions_reused + warmup.partitions_recomputed).max(1);
    put(
        "assign.cache_hit_pct",
        single(100.0 * warmup.partitions_reused as f64 / partitions as f64),
    );
    put(
        "assign.partitions_peak",
        single(warmup.peak_partitions as f64),
    );
    put(
        "assign.partition_workers_peak",
        single(warmup.peak_partition_workers as f64),
    );
    put("assign.tvf_train_s", single(prepared.tvf_train_s));
    let planner = probes::planner(first, &prepared.runner, sizing.probe_instants, tracer);
    put("assign.plan_full_us_per_instant", single(planner.plan_us));
    put(
        "assign.search_nodes_per_instant",
        single(planner.search_nodes),
    );
    put(
        "assign.reachable_us_per_instant",
        single(planner.reachable_us),
    );
    put(
        "assign.sequences_us_per_instant",
        single(planner.sequences_us),
    );
    put(
        "graph.cluster_tree_us_per_instant",
        single(planner.cluster_tree_us),
    );
    if cfg.workload == "churn-batched" {
        let two = probes::round_wall_s_at_threads(plan, 2, tracer);
        let one = rounds.over(&|r| r.wall_ns as f64 / 1e9).value;
        put("assign.threads2_slowdown_ratio", single(two / one));
    }

    put(
        "predict.observe_ns_per_arrival",
        single(observe.total_ns as f64 / observe.count.max(1) as f64),
    );
    put(
        "predict.forecast_us_per_query",
        single(query.total_ns as f64 / 1e3 / query.count.max(1) as f64),
    );
    // Zero on the policies that never consult the forecast.
    put(
        "predict.refreshes",
        single(warmup.forecast_refreshes as f64),
    );
    let queries: u64 = traced.iter().map(|r| r.forecast_queries).sum();
    let predicted: u64 = traced.iter().map(|r| r.predicted_tasks).sum();
    put(
        "predict.predicted_tasks_per_query",
        single(predicted as f64 / queries.max(1) as f64),
    );

    put(
        "obs.allocs_per_event",
        single(warmup.memory.map_or(0, |m| m.allocations) as f64 / warmup.events as f64),
    );
    put(
        "obs.cpu_ms_per_kevent",
        rounds.over(&Round::cpu_ms_per_kevent),
    );
    put(
        "obs.trace_overhead_pct",
        single(
            100.0 * ((wall_s(traced) / traced_events) / (wall_s(untraced) / untraced_events) - 1.0),
        ),
    );
}

/// Prints the wall of every timed round, so a disturbed round can be seen.
pub fn print_round_walls(walls_ns: impl Iterator<Item = u64>) {
    let walls: Vec<String> = walls_ns
        .map(|ns| format!("{:.3}", ns as f64 / 1e9))
        .collect();
    println!("timed round walls (s): {}", walls.join(" "));
}

/// Closes the `run` span, prints the span totals and writes `trace.json`.
pub fn finish_trace(cfg: &RunConfig, tracer: &Tracer, checks: &mut Checks) {
    tracer.exit(); // "run"
    report_coverage(tracer);
    match tracer.write_json(&cfg.trace_path, &cfg.workload) {
        Ok(()) => println!(
            "trace: {} spans recorded, written to {}",
            tracer.span_count(),
            cfg.trace_path.display()
        ),
        Err(e) => checks.check(false, || {
            format!("cannot write {}: {e}", cfg.trace_path.display())
        }),
    }
}

/// Prints how much of the traced session wall the harness-side spans explain.
fn report_coverage(tracer: &Tracer) {
    let session = tracer.totals("session").total_ns as f64;
    if session == 0.0 {
        return;
    }
    let self_ns = |name: &str| tracer.totals(name).self_ns as f64;
    let core = self_ns("journal") + self_ns("ingest") + self_ns("advance");
    let nested = self_ns("forecast.observe") + self_ns("forecast.query") + self_ns("sink");
    println!(
        "span coverage of session wall: journal+ingest+advance self {:.1} %, forecast+sink self {:.1} %, close {:.1} %, harness loop {:.1} %",
        100.0 * core / session,
        100.0 * nested / session,
        100.0 * tracer.totals("close").total_ns as f64 / session,
        100.0 * (self_ns("event") + self_ns("session")) / session,
    );
    for (name, t) in tracer.all_totals() {
        println!(
            "  span {:<18} count {:>9}  total {:>12.3} ms  self {:>12.3} ms",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
}

/// Assembles the result: the end-to-end metrics of an untraced run or the
/// per-layer metrics of a traced one, in catalogue order.
pub fn finish(
    cfg: &RunConfig,
    rounds: usize,
    checks: Checks,
    values: BTreeMap<&'static str, Summary>,
) -> RunResult {
    let catalogue: &[_] = if cfg.traced { &PER_LAYER } else { &END_TO_END };
    let mut checks = checks;
    let metrics = catalogue
        .iter()
        .map(|def| {
            let summary = values
                .get(def.name)
                .copied()
                .unwrap_or(Summary::single(0.0));
            checks.check(summary.value.is_finite(), || {
                format!("metric {} is not a finite number", def.name)
            });
            Measured {
                def: *def,
                summary: if summary.value.is_finite() {
                    summary
                } else {
                    Summary::single(0.0)
                },
            }
        })
        .collect();
    RunResult {
        workload: cfg.workload.clone(),
        seed: cfg.seed,
        scale: cfg.scale.name(),
        traced: cfg.traced,
        rounds,
        attempted: checks.attempted,
        failed: checks.failed,
        failures: checks.failures,
        metrics,
    }
}
