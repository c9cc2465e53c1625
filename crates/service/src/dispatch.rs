//! The dispatch service: a long-running pump from an ingest source through an
//! open session into a decision sink.
//!
//! [`DispatchService`] is the service front-end the ROADMAP's "async service
//! front-end" item asks for, built synchronously and deterministically: a
//! bounded ingest queue between the source and the session provides
//! backpressure (planning can lag bursts only so far before admission
//! pauses to let the session drain), pacing comes from the source, and the
//! caller can pump one step at a time ([`DispatchService::pump`]) with
//! mid-stream [`DispatchService::stats`] / [`DispatchService::snapshot`]
//! inspection, or run to completion ([`DispatchService::run`]).

use crate::source::{IngestSource, SourcePoll};
use datawa_assign::{AdaptiveRunner, ForecastProvider, ForecastStats};
use datawa_core::Timestamp;
use datawa_obs::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};
use datawa_stream::{
    DecisionSink, EngineConfig, EngineOutcome, EventJournal, JournalError, JournalRecord, Session,
    SessionSnapshot,
};

/// Service knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// The session's engine behaviour (replan batching, release-on-offline).
    pub engine: EngineConfig,
    /// Backpressure bound on the admission backlog: once this many arrivals
    /// have been admitted since the session last advanced, admission pauses
    /// and the service advances the session to the newest admitted arrival
    /// before ingesting more. (The session queue itself also holds the
    /// not-yet-due lifecycle events of everything currently alive — those
    /// are future work, not backlog, and do not count against the bound.)
    pub max_pending: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            engine: EngineConfig::default(),
            max_pending: 256,
        }
    }
}

/// Counters describing a service run so far.
///
/// `backpressure_flushes` and `backlog_high_water` are sourced from the
/// service's observability registry (see [`DispatchService::metrics`]) so
/// they report cumulative truth — the stall count and the admission-backlog
/// high-water mark over the whole run — not just the state at the instant
/// [`DispatchService::stats`] was called.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Arrivals admitted into the session.
    pub ingested: usize,
    /// Quiet-period waits observed from the source.
    pub waits: usize,
    /// Times the backpressure bound paused admission and forced a drain
    /// (cumulative, from the `service.backpressure_stalls` counter).
    pub backpressure_flushes: usize,
    /// High-water mark of the admission backlog — arrivals admitted since
    /// the session last advanced — from the `service.backlog` gauge.
    pub backlog_high_water: usize,
    /// High-water mark of the session's pending-event queue at admission
    /// time.
    pub peak_pending: usize,
    /// Whether the source has been fully consumed.
    pub source_exhausted: bool,
    /// Activity counters of the session's forecast provider (observations,
    /// forecast queries, model refreshes) — live, so a dashboard polling
    /// [`DispatchService::stats`] sees re-forecasts as they happen.
    pub forecast: ForecastStats,
    /// Idle workers the planner dropped for reaching nothing (cumulative,
    /// from the `assign.partitions_reused` counter — the name is historical:
    /// each would have been a trivial partition, no plan is ever reused).
    pub partitions_reused: usize,
    /// Planning partitions searched — every partition of every instant
    /// (cumulative, from the `assign.partitions_recomputed` counter).
    pub partitions_recomputed: usize,
}

/// Outcome of one [`DispatchService::pump`] step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PumpStatus {
    /// An arrival was admitted (and, under backpressure, the session may
    /// have been advanced first).
    Admitted,
    /// The source reported a quiet period; the session advanced through it.
    Waited,
    /// The source is exhausted; nothing was admitted. The next step is
    /// [`DispatchService::finish`].
    SourceDrained,
}

/// A live dispatch loop: source → session → sink.
///
/// The service owns the session and the sink; the source paces it, the
/// backpressure bound keeps the unprocessed admission backlog from growing
/// without limit when planning is slower than admission.
pub struct DispatchService<'a, Src, Sink> {
    source: Src,
    sink: Sink,
    session: Session<'a>,
    config: ServiceConfig,
    stats: ServiceStats,
    /// Newest admitted arrival time: the watermark a backpressure flush
    /// advances to.
    admitted_up_to: Timestamp,
    /// Arrivals admitted since the session last advanced (the backlog the
    /// backpressure bound applies to).
    unadvanced: usize,
    obs: MetricsRegistry,
    metrics: ServiceMetrics,
}

/// Service-layer handles into the observability registry.
///
/// Always registered against an *attached* registry: the runner's when
/// `DATAWA_OBS=on` (one combined snapshot across every layer), otherwise a
/// private one owned by this service — so [`DispatchService::stats`] can
/// source its high-water and stall counters from the registry
/// unconditionally.
struct ServiceMetrics {
    ingested: Counter,
    waits: Counter,
    backpressure_stalls: Counter,
    backlog: Gauge,
    pump_seconds: Histogram,
    /// Assign-layer partition counters (recorded by the session's runner
    /// state into this same registry); surfaced through
    /// [`DispatchService::stats`].
    partitions_reused: Counter,
    partitions_recomputed: Counter,
}

impl ServiceMetrics {
    fn register(registry: &MetricsRegistry) -> ServiceMetrics {
        ServiceMetrics {
            ingested: registry.counter("service.ingested"),
            waits: registry.counter("service.waits"),
            backpressure_stalls: registry.counter("service.backpressure_stalls"),
            backlog: registry.gauge("service.backlog"),
            pump_seconds: registry.histogram("service.pump_seconds"),
            partitions_reused: registry.counter("assign.partitions_reused"),
            partitions_recomputed: registry.counter("assign.partitions_recomputed"),
        }
    }
}

impl<'a, Src: IngestSource, Sink: DecisionSink> DispatchService<'a, Src, Sink> {
    /// Opens a service over `runner`: a fresh session, an unread source.
    ///
    /// `forecast` is the session's demand-prediction source (see
    /// [`Session::open`]): wrap a precomputed slice in
    /// [`StaticForecast`](datawa_assign::StaticForecast) for the fixed
    /// oracle, or pass an `OnlineForecaster` (from `datawa-predict`) to
    /// re-forecast live as arrivals flow.
    #[must_use]
    pub fn open(
        runner: &'a AdaptiveRunner,
        forecast: &'a mut dyn ForecastProvider,
        source: Src,
        sink: Sink,
        config: ServiceConfig,
    ) -> DispatchService<'a, Src, Sink> {
        // Record into the runner's registry when it is attached (one
        // combined snapshot across assign/stream/service); otherwise carry a
        // private attached registry so registry-sourced stats always work.
        let obs = if runner.metrics().is_attached() {
            runner.metrics().clone()
        } else {
            MetricsRegistry::new()
        };
        DispatchService {
            source,
            sink,
            session: Session::open_with_metrics(runner, forecast, config.engine, &obs),
            config,
            stats: ServiceStats::default(),
            admitted_up_to: Timestamp(f64::NEG_INFINITY),
            unadvanced: 0,
            metrics: ServiceMetrics::register(&obs),
            obs,
        }
    }

    /// [`DispatchService::open`], but resuming an interrupted run from its
    /// journal: the fresh session replays every journaled ingest and advance
    /// in order (reproduced decisions flow into `sink` — wrap it in
    /// [`SkipSink`](datawa_stream::SkipSink) to suppress what a consumer
    /// already received), and the service's admission bookkeeping
    /// (`admitted_up_to`, the unadvanced backlog, the ingested count) is
    /// restored from the record stream so post-recovery backpressure flushes
    /// fire at exactly the instants the uninterrupted run would have chosen.
    /// The journal is re-attached afterwards, so the recovered service keeps
    /// recording and can itself be recovered.
    ///
    /// # Errors
    ///
    /// Propagates [`JournalError`] from reading or replaying the journal.
    pub fn open_recovered(
        runner: &'a AdaptiveRunner,
        forecast: &'a mut dyn ForecastProvider,
        source: Src,
        sink: Sink,
        config: ServiceConfig,
        journal: EventJournal,
    ) -> Result<DispatchService<'a, Src, Sink>, JournalError> {
        let records = journal.recovered_records()?;
        let mut service = DispatchService::open(runner, forecast, source, sink, config);
        for record in records {
            match record {
                JournalRecord::Event(time, event) => {
                    service
                        .session
                        .ingest(time, event)
                        .map_err(JournalError::Replay)?;
                    service.stats.ingested += 1;
                    service.metrics.ingested.inc();
                    service.unadvanced += 1;
                    service.metrics.backlog.set(service.unadvanced as i64);
                    service.stats.peak_pending =
                        service.stats.peak_pending.max(service.session.pending());
                    if time.0 > service.admitted_up_to.0 {
                        service.admitted_up_to = time;
                    }
                }
                JournalRecord::Advance(time) => {
                    service.session.advance_to(time, &mut service.sink);
                    service.unadvanced = 0;
                    service.metrics.backlog.set(0);
                }
            }
        }
        service.session.attach_journal(journal);
        Ok(service)
    }

    /// Attaches `journal` to the service's session: every subsequently
    /// admitted event and advance target is recorded for crash recovery
    /// (see [`DispatchService::open_recovered`]).
    pub fn attach_journal(&mut self, journal: EventJournal) {
        self.session.attach_journal(journal);
    }

    /// Service counters so far, including the live forecast-provider
    /// counters. The stall count and the backlog high-water come from the
    /// observability registry, so they are cumulative over the whole run.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            forecast: self.session.forecast_stats(),
            backpressure_flushes: self.metrics.backpressure_stalls.value() as usize,
            backlog_high_water: self.metrics.backlog.high_water().max(0) as usize,
            partitions_reused: self.metrics.partitions_reused.value() as usize,
            partitions_recomputed: self.metrics.partitions_recomputed.value() as usize,
            ..self.stats
        }
    }

    /// The observability registry the service (and its session) records
    /// into: the runner's when that is attached, otherwise a private
    /// always-attached one.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.obs
    }

    /// A point-in-time snapshot of every metric in the service's registry.
    pub fn obs_snapshot(&self) -> MetricsSnapshot {
        self.obs.snapshot()
    }

    /// Mid-stream view of the session's live state.
    pub fn snapshot(&self) -> SessionSnapshot {
        self.session.snapshot()
    }

    /// The decision sink (for example to read a collecting sink's tally
    /// mid-stream).
    pub fn sink(&self) -> &Sink {
        &self.sink
    }

    /// One pump step: poll the source once and react.
    pub fn pump(&mut self) -> PumpStatus {
        let _pump_span = self.metrics.pump_seconds.span();
        match self.source.poll() {
            SourcePoll::Ready(time, event) => {
                // Backpressure: drain decisions for the admitted backlog
                // before taking more traffic. Never advance when the backlog
                // head shares the incoming arrival's timestamp — advancing
                // *to* an instant before all of its arrivals are ingested
                // would fire a replan tick due there ahead of them.
                if self.unadvanced >= self.config.max_pending && self.admitted_up_to.0 < time.0 {
                    self.stats.backpressure_flushes += 1;
                    self.metrics.backpressure_stalls.inc();
                    self.session.advance_to(self.admitted_up_to, &mut self.sink);
                    self.unadvanced = 0;
                    self.metrics.backlog.set(0);
                }
                self.session
                    .ingest(time, event)
                    .expect("sources produce finite, non-decreasing times");
                self.stats.ingested += 1;
                self.metrics.ingested.inc();
                self.unadvanced += 1;
                self.metrics.backlog.set(self.unadvanced as i64);
                self.stats.peak_pending = self.stats.peak_pending.max(self.session.pending());
                if time.0 > self.admitted_up_to.0 {
                    self.admitted_up_to = time;
                }
                PumpStatus::Admitted
            }
            SourcePoll::Wait(until) => {
                self.stats.waits += 1;
                self.metrics.waits.inc();
                self.session.advance_to(until, &mut self.sink);
                self.unadvanced = 0;
                self.metrics.backlog.set(0);
                PumpStatus::Waited
            }
            SourcePoll::Exhausted => {
                self.stats.source_exhausted = true;
                PumpStatus::SourceDrained
            }
        }
    }

    /// Pumps until the source is exhausted, then closes the session. Returns
    /// the engine outcome, the service counters and the sink.
    pub fn run(mut self) -> (EngineOutcome, ServiceStats, Sink) {
        while self.pump() != PumpStatus::SourceDrained {}
        self.finish()
    }

    /// Closes the session (draining every remaining event into the sink) and
    /// returns the outcome, the counters and the sink.
    pub fn finish(mut self) -> (EngineOutcome, ServiceStats, Sink) {
        self.stats.source_exhausted = self.source.remaining() == 0;
        let outcome = self.session.close(&mut self.sink);
        // close() drains remaining events, which may observe more arrivals;
        // the outcome carries the provider's final counters.
        self.stats.forecast = outcome.run.forecast;
        self.stats.backpressure_flushes = self.metrics.backpressure_stalls.value() as usize;
        self.stats.backlog_high_water = self.metrics.backlog.high_water().max(0) as usize;
        (outcome, self.stats, self.sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{LiveSource, WorkloadSource};
    use datawa_assign::{AssignConfig, PolicyKind, StaticForecast};
    use datawa_stream::{
        run_workload, CollectingSink, ScenarioGenerator, ScenarioSpec, UniformBaseline,
    };

    fn runner(policy: PolicyKind) -> AdaptiveRunner {
        AdaptiveRunner::new(AssignConfig::default(), policy)
    }

    #[test]
    fn replay_service_matches_the_batch_driver_exactly() {
        let workload =
            UniformBaseline::new(ScenarioSpec::small().with_tasks(200).with_workers(15)).generate();
        for policy in [PolicyKind::Greedy, PolicyKind::Fta, PolicyKind::Dta] {
            let r = runner(policy);
            let batch = run_workload(&r, &workload, &[], EngineConfig::default());
            let mut forecast = StaticForecast::default();
            let service = DispatchService::open(
                &r,
                &mut forecast,
                WorkloadSource::new(&workload),
                CollectingSink::new(),
                ServiceConfig::default(),
            );
            let (outcome, stats, sink) = service.run();
            assert_eq!(outcome.run.assigned_tasks, batch.run.assigned_tasks);
            assert_eq!(outcome.run.per_worker, batch.run.per_worker);
            assert_eq!(outcome.run.planning_calls, batch.run.planning_calls);
            assert_eq!(stats.ingested, workload.arrival_count());
            assert_eq!(sink.dispatches(), batch.run.assigned_tasks);
        }
    }

    #[test]
    fn recovered_service_matches_the_uninterrupted_run_bitwise() {
        use datawa_stream::{EventJournal, SkipSink};
        let workload =
            UniformBaseline::new(ScenarioSpec::small().with_tasks(250).with_workers(18)).generate();
        let r = runner(PolicyKind::Dta);
        // Tight backpressure so the replay must also restore the admission
        // bookkeeping: a drifted `unadvanced` count would flush at different
        // instants and change decision order.
        let tight = ServiceConfig {
            max_pending: 8,
            ..ServiceConfig::default()
        };

        // Uninterrupted reference run.
        let mut ref_forecast = StaticForecast::default();
        let reference = DispatchService::open(
            &r,
            &mut ref_forecast,
            WorkloadSource::new(&workload),
            CollectingSink::new(),
            tight,
        );
        let (ref_outcome, ref_stats, ref_sink) = reference.run();

        // Journaled run, "crashed" mid-stream.
        let journal = EventJournal::in_memory();
        let mut live_forecast = StaticForecast::default();
        let mut live = DispatchService::open(
            &r,
            &mut live_forecast,
            WorkloadSource::new(&workload),
            CollectingSink::new(),
            tight,
        );
        live.attach_journal(journal.clone());
        for _ in 0..137 {
            assert_ne!(live.pump(), PumpStatus::SourceDrained);
        }
        let seen = live.sink().decisions().len() as u64;
        drop(live); // the crash

        // Recover: replay the journal, resume the source past what was
        // already admitted, and suppress the decisions the consumer saw.
        let mut rest = WorkloadSource::new(&workload);
        for _ in 0..journal.event_count() {
            let _ = rest.poll();
        }
        let mut rec_forecast = StaticForecast::default();
        let recovered = DispatchService::open_recovered(
            &r,
            &mut rec_forecast,
            rest,
            SkipSink::new(CollectingSink::new(), seen),
            tight,
            journal,
        )
        .expect("journal replays cleanly");
        let (outcome, stats, sink) = recovered.run();
        assert_eq!(sink.skipped(), seen, "replay reproduced the seen prefix");
        let post = sink.into_inner().into_decisions();
        assert_eq!(
            &ref_sink.decisions()[seen as usize..],
            &post[..],
            "post-crash decisions continue the reference stream bitwise"
        );
        assert_eq!(outcome.run.assigned_tasks, ref_outcome.run.assigned_tasks);
        assert_eq!(outcome.run.planning_calls, ref_outcome.run.planning_calls);
        assert_eq!(outcome.run.per_worker, ref_outcome.run.per_worker);
        assert_eq!(stats.ingested, ref_stats.ingested);
    }

    #[test]
    fn backpressure_bounds_the_session_queue() {
        let workload =
            UniformBaseline::new(ScenarioSpec::small().with_tasks(300).with_workers(20)).generate();
        let r = runner(PolicyKind::Greedy);
        let tight = ServiceConfig {
            max_pending: 8,
            ..ServiceConfig::default()
        };
        let mut forecast = StaticForecast::default();
        let service = DispatchService::open(
            &r,
            &mut forecast,
            WorkloadSource::new(&workload),
            CollectingSink::new(),
            tight,
        );
        let (outcome, stats, _) = service.run();
        assert!(stats.backpressure_flushes > 0, "bound never engaged");
        // Pending can exceed the bound only by the lifecycle events of the
        // burst admitted since the last flush, never unboundedly.
        assert!(stats.peak_pending < workload.arrival_count());
        assert!(outcome.run.assigned_tasks > 0);
        // Backpressure changes *when* decisions surface, not what is
        // decided: totals still match the unbounded batch run.
        let batch = run_workload(&r, &workload, &[], EngineConfig::default());
        assert_eq!(outcome.run.assigned_tasks, batch.run.assigned_tasks);
    }

    #[test]
    fn paced_service_matches_batch_when_an_arrival_lands_on_a_tick_instant() {
        // Regression: under time-driven planning, a task published at
        // exactly a tick instant (t=20 with ticks every 10 s) must still be
        // seen by that tick. The paced source must therefore never make the
        // service advance *to* t=20 before the arrival is ingested — the
        // batch driver fires same-instant ticks last and assigns the task;
        // a Wait clamped to the arrival's timestamp used to lose it.
        use datawa_core::{Location, Task, TaskId, Timestamp, Worker, WorkerId};
        let workload = datawa_stream::Workload {
            workers: vec![Worker::new(
                WorkerId(0),
                Location::new(0.0, 0.0),
                5.0,
                Timestamp(0.0),
                Timestamp(100.0),
            )],
            tasks: vec![Task::new(
                TaskId(0),
                Location::new(1.0, 0.0),
                Timestamp(20.0),
                Timestamp(25.0),
            )],
        };
        let r = AdaptiveRunner::new(AssignConfig::unit_speed(), PolicyKind::Dta);
        let config = EngineConfig::ticked(10.0);
        let batch = run_workload(&r, &workload, &[], config);
        assert_eq!(batch.run.assigned_tasks, 1, "the t=20 tick plans the task");
        // A 4 s pacing step lands the clock exactly on t=20.
        let mut forecast = StaticForecast::default();
        let service = DispatchService::open(
            &r,
            &mut forecast,
            LiveSource::new(&workload, 4.0),
            CollectingSink::new(),
            ServiceConfig {
                engine: config,
                ..ServiceConfig::default()
            },
        );
        let (outcome, _, sink) = service.run();
        assert_eq!(outcome.run.assigned_tasks, batch.run.assigned_tasks);
        assert_eq!(sink.dispatches(), 1);
    }

    #[test]
    fn paced_live_source_serves_and_reports_waits() {
        let workload =
            UniformBaseline::new(ScenarioSpec::small().with_tasks(150).with_workers(12)).generate();
        let r = runner(PolicyKind::Dta);
        let mut forecast = StaticForecast::default();
        let service = DispatchService::open(
            &r,
            &mut forecast,
            LiveSource::new(&workload, 30.0),
            CollectingSink::new(),
            ServiceConfig::default(),
        );
        let (outcome, stats, sink) = service.run();
        assert!(stats.waits > 0, "pacing produced no quiet periods");
        assert!(stats.source_exhausted);
        assert!(outcome.run.assigned_tasks > 0);
        assert_eq!(sink.dispatches(), outcome.run.assigned_tasks);
        // Decisions arrive in non-decreasing time order.
        for pair in sink.decisions().windows(2) {
            assert!(pair[0].at().0 <= pair[1].at().0);
        }
    }

    #[test]
    fn stats_source_stalls_and_backlog_high_water_from_the_registry() {
        let workload =
            UniformBaseline::new(ScenarioSpec::small().with_tasks(300).with_workers(20)).generate();
        let r = runner(PolicyKind::Greedy);
        let tight = ServiceConfig {
            max_pending: 8,
            ..ServiceConfig::default()
        };
        let mut forecast = StaticForecast::default();
        let mut service = DispatchService::open(
            &r,
            &mut forecast,
            WorkloadSource::new(&workload),
            CollectingSink::new(),
            tight,
        );
        // Even with DATAWA_OBS unset the service carries its own attached
        // registry, so the registry-sourced stats always work.
        assert!(service.metrics().is_attached());
        let mut pumps = 0;
        while service.pump() != PumpStatus::SourceDrained {
            pumps += 1;
        }
        let mid = service.stats();
        let (_, stats, _) = service.finish();
        assert_eq!(stats.backpressure_flushes, mid.backpressure_flushes);
        assert!(stats.backpressure_flushes > 0, "bound never engaged");
        // The backlog gauge's high-water is the largest burst admitted
        // between drains: it must at least reach the bound that forced the
        // flushes, and can never exceed what was admitted overall.
        assert!(stats.backlog_high_water >= tight.max_pending);
        assert!(stats.backlog_high_water <= stats.ingested);
        let snap = mid;
        assert_eq!(snap.ingested, workload.arrival_count());
        // The shared registry carries service- and stream-layer metrics in
        // one snapshot.
        let obs = service_snapshot_of(&r, &workload, tight);
        assert_eq!(
            obs.counters.get("service.ingested").copied(),
            Some(workload.arrival_count() as u64)
        );
        assert_eq!(
            obs.counters.get("stream.ingested_events").copied(),
            Some(workload.arrival_count() as u64)
        );
        let pump_hist = obs
            .histograms
            .get("service.pump_seconds")
            .expect("pump latency histogram registered");
        assert_eq!(pump_hist.count, pumps + 1, "one span per pump call");
    }

    fn service_snapshot_of(
        r: &AdaptiveRunner,
        workload: &datawa_stream::Workload,
        config: ServiceConfig,
    ) -> MetricsSnapshot {
        let mut forecast = StaticForecast::default();
        let mut service = DispatchService::open(
            r,
            &mut forecast,
            WorkloadSource::new(workload),
            CollectingSink::new(),
            config,
        );
        while service.pump() != PumpStatus::SourceDrained {}
        service.obs_snapshot()
    }

    #[test]
    fn mid_stream_inspection_sees_progress() {
        let workload =
            UniformBaseline::new(ScenarioSpec::small().with_tasks(120).with_workers(10)).generate();
        let r = runner(PolicyKind::Greedy);
        let mut forecast = StaticForecast::default();
        let mut service = DispatchService::open(
            &r,
            &mut forecast,
            LiveSource::new(&workload, 60.0),
            CollectingSink::new(),
            ServiceConfig::default(),
        );
        let mut inspected = 0;
        while service.pump() != PumpStatus::SourceDrained {
            let snap = service.snapshot();
            assert!(snap.assigned_tasks <= service.stats().ingested);
            inspected += 1;
        }
        assert!(inspected > 0);
        let before_close = service.sink().dispatches();
        let (outcome, _, sink) = service.finish();
        assert!(before_close > 0, "decisions surfaced before close");
        assert!(sink.dispatches() >= before_close);
        assert_eq!(sink.dispatches(), outcome.run.assigned_tasks);
    }
}
