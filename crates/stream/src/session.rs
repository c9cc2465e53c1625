//! The open-loop session API: live ingest, incremental advancement and typed
//! assignment decisions.
//!
//! [`Session`] is the one driver of the runner's state machine
//! ([`RunnerState`]): [`run_workload`](crate::run_workload), the dispatch
//! service and the network front-end each open one. A session stays open:
//! the caller ingests events as they arrive ([`Session::ingest`]), advances
//! simulated time in increments ([`Session::advance_to`]), inspects the live
//! state mid-stream ([`Session::stats`] / [`Session::snapshot`]) and receives
//! every assignment decision *as it is made* through a pluggable
//! [`DecisionSink`]. A batch run is the degenerate case: ingest everything,
//! then close.
//!
//! Determinism is inherited from the [`EventQueue`]: pending events fire in
//! `(time, class, ingest order)` order regardless of ingest granularity.
//! Feeding a workload event-by-event therefore produces bit-identical
//! outcomes to ingesting it whole (pinned by the workspace
//! `session_equivalence` tests) *provided each event is ingested before the
//! session advances to its timestamp*. Ingesting at exactly the watermark is
//! allowed — but under a time-driven replan interval, a tick due at that
//! instant has then already fired, ahead of where a whole-workload ingest's
//! tick-last ordering would put it; drivers that need exact replay (the
//! `datawa-service` sources) keep every advance strictly before the next
//! arrival's timestamp.
//!
//! A worker's availability window closes when its [`Event::WorkerOffline`]
//! fires at `off`, ahead of every arrival and tick at that instant: the
//! session then calls [`RunnerState::retire_worker`], which is the retirement
//! contract `RunnerState` asks of its driver. No step runs ahead of the
//! queue — [`Session::force_replan`] past the watermark advances to its
//! instant first.

use crate::engine::{arrival_triggers_replan, EngineConfig, EngineOutcome, EngineStats};
use crate::event::{Event, EventQueue, ScheduledEvent};
use crate::journal::{EventJournal, JournalError, JournalRecord};
use crate::scenario::Workload;
use datawa_assign::{AdaptiveRunner, ForecastProvider, ForecastStats, RunnerState};
use datawa_core::{Duration, TaskId, Timestamp, WorkerId};
use datawa_obs::{Counter, Gauge, MetricsRegistry, MetricsSnapshot};
use std::sync::mpsc::Sender;

/// One incremental decision emitted by a session.
///
/// `Dispatch` is the assignment decision proper; the lifecycle variants
/// surface the two ways supply/demand leaves the system so a live consumer
/// can track unserved losses without polling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decision {
    /// A worker departs for a task (ids are the run's dense store ids).
    Dispatch {
        /// The time instance at which the assignment was decided.
        at: Timestamp,
        /// The dispatched worker.
        worker: WorkerId,
        /// The task it will serve.
        task: TaskId,
        /// When the worker reaches the task.
        eta: Timestamp,
    },
    /// An open task's lifetime ended before any worker served it.
    TaskExpired {
        /// The expiration instant.
        at: Timestamp,
        /// The lost task.
        task: TaskId,
    },
    /// A worker's availability window closed.
    WorkerOffline {
        /// The window-close instant.
        at: Timestamp,
        /// The departing worker.
        worker: WorkerId,
    },
}

impl Decision {
    /// The simulated time of the decision.
    pub fn at(&self) -> Timestamp {
        match self {
            Decision::Dispatch { at, .. }
            | Decision::TaskExpired { at, .. }
            | Decision::WorkerOffline { at, .. } => *at,
        }
    }

    /// Whether this is an assignment (dispatch) decision.
    #[inline]
    pub fn is_dispatch(&self) -> bool {
        matches!(self, Decision::Dispatch { .. })
    }
}

/// A consumer of incremental session output.
///
/// `emit` receives every [`Decision`] in decision order. `observe_event` is
/// an optional hook that sees every processed event (arrivals, lifecycle
/// events and replan ticks) in deterministic firing order — useful for
/// tracing and for pinning the same-instant ordering contract in tests;
/// the default implementation does nothing.
pub trait DecisionSink {
    /// Receives one decision.
    fn emit(&mut self, decision: Decision);

    /// Observes one processed event at its firing time (default: no-op).
    fn observe_event(&mut self, _time: Timestamp, _event: &Event) {}
}

/// A sink that drops everything (batch runs that only need totals).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl DecisionSink for NullSink {
    fn emit(&mut self, _decision: Decision) {}
}

/// A sink that collects decisions into a vector.
#[derive(Debug, Clone, Default)]
pub struct CollectingSink {
    decisions: Vec<Decision>,
}

impl CollectingSink {
    /// Creates an empty collecting sink.
    #[must_use]
    pub fn new() -> CollectingSink {
        CollectingSink::default()
    }

    /// The decisions collected so far, in decision order.
    pub fn decisions(&self) -> &[Decision] {
        &self.decisions
    }

    /// Number of dispatch (assignment) decisions collected.
    pub fn dispatches(&self) -> usize {
        self.decisions.iter().filter(|d| d.is_dispatch()).count()
    }

    /// Consumes the sink, returning the collected decisions.
    #[must_use]
    pub fn into_decisions(self) -> Vec<Decision> {
        self.decisions
    }
}

impl DecisionSink for CollectingSink {
    fn emit(&mut self, decision: Decision) {
        self.decisions.push(decision);
    }
}

/// A channel-backed sink: every decision is sent to an `mpsc` consumer (for
/// example a logging/serving thread). A hung-up receiver does not fail the
/// session; undeliverable decisions are counted instead — both in the sink's
/// own fields and, when built with [`ChannelSink::with_metrics`], in the
/// observability registry (`stream.sink.undeliverable`), so a dropped
/// consumer shows up in metric snapshots instead of being a silent local
/// tally.
#[derive(Debug)]
pub struct ChannelSink {
    tx: Sender<Decision>,
    sent: usize,
    undeliverable: usize,
    delivered_metric: Counter,
    undeliverable_metric: Counter,
    observed_metric: Counter,
}

impl ChannelSink {
    /// Wraps a channel sender (no metrics; equivalent to
    /// [`ChannelSink::with_metrics`] over a detached registry).
    #[must_use]
    pub fn new(tx: Sender<Decision>) -> ChannelSink {
        ChannelSink::with_metrics(tx, &MetricsRegistry::detached())
    }

    /// Wraps a channel sender and registers the sink's counters:
    /// `stream.sink.delivered` / `stream.sink.undeliverable` per emitted
    /// decision, and `stream.sink.events_observed` for every event the
    /// session shows to [`DecisionSink::observe_event`].
    #[must_use]
    pub fn with_metrics(tx: Sender<Decision>, registry: &MetricsRegistry) -> ChannelSink {
        ChannelSink {
            tx,
            sent: 0,
            undeliverable: 0,
            delivered_metric: registry.counter("stream.sink.delivered"),
            undeliverable_metric: registry.counter("stream.sink.undeliverable"),
            observed_metric: registry.counter("stream.sink.events_observed"),
        }
    }

    /// Decisions successfully handed to the channel.
    pub fn sent(&self) -> usize {
        self.sent
    }

    /// Decisions dropped because the receiver hung up.
    pub fn undeliverable(&self) -> usize {
        self.undeliverable
    }
}

impl DecisionSink for ChannelSink {
    fn emit(&mut self, decision: Decision) {
        match self.tx.send(decision) {
            Ok(()) => {
                self.sent += 1;
                self.delivered_metric.inc();
            }
            Err(_) => {
                self.undeliverable += 1;
                self.undeliverable_metric.inc();
            }
        }
    }

    fn observe_event(&mut self, _time: Timestamp, _event: &Event) {
        self.observed_metric.inc();
    }
}

/// Why [`Session::ingest`] rejected an event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IngestError {
    /// The scheduling time is NaN or infinite.
    NonFiniteTime {
        /// The offending time.
        time: Timestamp,
    },
    /// The event is scheduled before time the session has already advanced
    /// past — it could never fire in order.
    BehindWatermark {
        /// The offending time.
        time: Timestamp,
        /// How far the session has advanced.
        watermark: Timestamp,
    },
    /// The attached [`EventJournal`] failed to record the event (file-backend
    /// I/O failure); the event was **not** ingested, so journal and session
    /// cannot diverge.
    JournalAppend,
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::NonFiniteTime { time } => {
                write!(f, "cannot ingest an event at non-finite time {time}")
            }
            IngestError::BehindWatermark { time, watermark } => write!(
                f,
                "cannot ingest an event at {time}: the session already advanced to {watermark}"
            ),
            IngestError::JournalAppend => write!(
                f,
                "the attached journal failed to record the event; it was not ingested"
            ),
        }
    }
}

impl std::error::Error for IngestError {}

/// A mid-stream view of a session's live state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionSnapshot {
    /// How far simulated time has advanced (`-inf` before the first
    /// [`Session::advance_to`]).
    pub now: Timestamp,
    /// Events still pending in the session queue.
    pub pending_events: usize,
    /// Candidate open tasks tracked by the incremental view.
    pub open_tasks: usize,
    /// Candidate available workers tracked by the incremental view.
    pub available_workers: usize,
    /// Real tasks dispatched so far.
    pub assigned_tasks: usize,
    /// Events processed so far (arrivals + lifecycle + ticks).
    pub events_processed: usize,
    /// Activity counters of the session's [`ForecastProvider`]
    /// (observations, forecast queries, model refreshes).
    pub forecast: ForecastStats,
}

/// An open streaming run: the session owns the event queue and the runner
/// state, and the caller controls time.
///
/// ```
/// use datawa_assign::{AdaptiveRunner, AssignConfig, PolicyKind, StaticForecast};
/// use datawa_core::{Location, Task, TaskId, Timestamp, Worker, WorkerId};
/// use datawa_stream::{CollectingSink, EngineConfig, Event, Session};
///
/// let runner = AdaptiveRunner::new(AssignConfig::unit_speed(), PolicyKind::Dta);
/// let mut sink = CollectingSink::new();
/// let mut forecast = StaticForecast::default(); // no predictions for DTA
/// let mut session = Session::open(&runner, &mut forecast, EngineConfig::default());
///
/// let w = Worker::new(WorkerId(0), Location::new(0.0, 0.0), 5.0, Timestamp(0.0), Timestamp(100.0));
/// let t = Task::new(TaskId(0), Location::new(1.0, 0.0), Timestamp(1.0), Timestamp(50.0));
/// session.ingest(w.on(), Event::WorkerOnline(w)).unwrap();
/// session.advance_to(Timestamp(0.5), &mut sink);
/// session.ingest(t.publication, Event::TaskArrival(t)).unwrap();
/// session.advance_to(Timestamp(2.0), &mut sink);
/// assert_eq!(sink.dispatches(), 1, "decision emitted as soon as it was made");
///
/// let outcome = session.close(&mut sink);
/// assert_eq!(outcome.run.assigned_tasks, 1);
/// ```
pub struct Session<'a, F: ForecastProvider + ?Sized = dyn ForecastProvider + 'a> {
    config: EngineConfig,
    queue: EventQueue,
    state: RunnerState<'a, F>,
    stats: EngineStats,
    arrivals_seen: usize,
    watermark: Timestamp,
    /// The armed time-driven replan tick, if any. Ticks live outside the
    /// queue so a live session can re-arm a chain that died while the queue
    /// was momentarily empty.
    next_tick: Option<Timestamp>,
    dispatches_emitted: usize,
    obs: MetricsRegistry,
    metrics: StreamMetrics,
    /// When attached, every accepted ingest and finite advance target is
    /// recorded for crash recovery (see [`Session::recover`]).
    journal: Option<EventJournal>,
}

/// Pre-resolved stream-layer handles into the session's registry (see the
/// crate-level "Observability" docs for the metric catalogue). Inert when
/// the registry is detached.
struct StreamMetrics {
    /// `stream.ingested_events`: events accepted by [`Session::ingest`].
    ingested_events: Counter,
    /// `stream.events_processed`: events fired (arrivals, lifecycle, ticks).
    events_processed: Counter,
    /// `stream.replan_ticks`: time-driven and explicit replan ticks fired.
    replan_ticks: Counter,
    /// `stream.decisions`: decisions emitted to the sink.
    decisions: Counter,
    /// `stream.queue_depth`: pending events (high-water = ingest burst peak).
    queue_depth: Gauge,
}

impl StreamMetrics {
    fn register(registry: &MetricsRegistry) -> StreamMetrics {
        StreamMetrics {
            ingested_events: registry.counter("stream.ingested_events"),
            events_processed: registry.counter("stream.events_processed"),
            replan_ticks: registry.counter("stream.replan_ticks"),
            decisions: registry.counter("stream.decisions"),
            queue_depth: registry.gauge("stream.queue_depth"),
        }
    }
}

impl<'a, F: ForecastProvider + ?Sized> Session<'a, F> {
    /// Opens a session over `runner`.
    ///
    /// `forecast` is the session's demand-prediction source: every task
    /// arrival processed by the session is routed into it
    /// ([`ForecastProvider::observe`]) and the prediction-aware policies
    /// re-query it at every planning instant. Wrap a precomputed slice in
    /// [`StaticForecast`](datawa_assign::StaticForecast) for the
    /// pre-redesign fixed-oracle behaviour (bit-identical), or pass an
    /// `OnlineForecaster` (from `datawa-predict`) for live re-forecasting.
    ///
    /// Panics on a non-positive or non-finite
    /// [`EngineConfig::replan_interval`]: a tick that does not advance
    /// simulated time would re-arm itself at the head of the queue forever
    /// and the session would never drain.
    #[must_use]
    pub fn open(
        runner: &'a AdaptiveRunner,
        forecast: &'a mut F,
        config: EngineConfig,
    ) -> Session<'a, F> {
        let registry = runner.metrics().clone();
        Session::open_with_metrics(runner, forecast, config, &registry)
    }

    /// [`Session::open`] with an explicit observability registry instead of
    /// the runner's own: the session's stream-layer metrics (and its
    /// [`Session::obs_snapshot`]) use `registry`, while the runner state
    /// keeps recording into the runner's registry. Pass the runner's
    /// registry (what [`Session::open`] does) to get one combined snapshot;
    /// pass a different attached registry to keep stream-layer counters
    /// separate (the dispatch service does this when the runner's registry
    /// is detached).
    #[must_use]
    pub fn open_with_metrics(
        runner: &'a AdaptiveRunner,
        forecast: &'a mut F,
        config: EngineConfig,
        registry: &MetricsRegistry,
    ) -> Session<'a, F> {
        if let Some(dt) = config.replan_interval {
            assert!(
                dt.is_finite() && dt > 0.0,
                "replan_interval must be a positive finite number of seconds, got {dt}"
            );
        }
        Session {
            config,
            queue: EventQueue::new(),
            state: runner.start(forecast),
            stats: EngineStats::default(),
            arrivals_seen: 0,
            watermark: Timestamp(f64::NEG_INFINITY),
            next_tick: None,
            dispatches_emitted: 0,
            obs: registry.clone(),
            metrics: StreamMetrics::register(registry),
            journal: None,
        }
    }

    /// Attaches `journal`: every subsequently accepted [`Session::ingest`]
    /// and every finite [`Session::advance_to`] target is appended, in call
    /// order, so an interrupted session can be rebuilt bit-for-bit by
    /// [`Session::recover`]. Appends happen *before* the session mutates, and
    /// an append failure rejects the ingest — journal and session cannot
    /// diverge.
    pub fn attach_journal(&mut self, journal: EventJournal) {
        self.journal = Some(journal);
    }

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<&EventJournal> {
        self.journal.as_ref()
    }

    /// Rebuilds an interrupted session from its journal: opens a fresh
    /// session, replays every recorded ingest and advance in order (emitting
    /// the reproduced decision prefix to `sink` — wrap it in
    /// [`SkipSink`](crate::SkipSink) to suppress decisions a consumer
    /// already received), then re-attaches the journal so the recovered
    /// session keeps recording. Because the engine is deterministic over its
    /// command sequence, the recovered session is bitwise identical to the
    /// uninterrupted one — same pending queue, same watermark, same armed
    /// tick, same planning state (pinned by `tests/chaos_recovery.rs`).
    ///
    /// # Errors
    ///
    /// Propagates [`JournalError`] from reading the journal; a record the
    /// fresh session rejects (impossible for a journal written through
    /// `ingest`) surfaces as [`JournalError::Replay`].
    pub fn recover(
        runner: &'a AdaptiveRunner,
        forecast: &'a mut F,
        config: EngineConfig,
        journal: EventJournal,
        sink: &mut dyn DecisionSink,
    ) -> Result<Session<'a, F>, JournalError> {
        let records = journal.recovered_records()?;
        let mut session = Session::open(runner, forecast, config);
        for record in records {
            match record {
                JournalRecord::Event(time, event) => {
                    session.ingest(time, event).map_err(JournalError::Replay)?;
                }
                JournalRecord::Advance(time) => {
                    session.advance_to(time, sink);
                }
            }
        }
        session.journal = Some(journal);
        Ok(session)
    }

    /// The observability registry this session records into (detached unless
    /// `DATAWA_OBS=on`, the runner carries an attached registry, or the
    /// session was opened through [`Session::open_with_metrics`]).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.obs
    }

    /// A point-in-time snapshot of every metric in the session's registry
    /// (empty when detached). Includes the assign-layer metrics when the
    /// session records into the runner's registry (the default).
    pub fn obs_snapshot(&self) -> MetricsSnapshot {
        self.obs.snapshot()
    }

    /// The session's engine configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// How far simulated time has advanced (`-inf` before the first
    /// [`Session::advance_to`]).
    pub fn now(&self) -> Timestamp {
        self.watermark
    }

    /// Events pending in the session queue.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Dispatch decisions emitted so far.
    pub fn dispatches_emitted(&self) -> usize {
        self.dispatches_emitted
    }

    /// A snapshot of the engine counters so far (the queue high-water mark is
    /// filled in live, everything else accumulates as events fire).
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            peak_queue_len: self.queue.peak_len(),
            ..self.stats
        }
    }

    /// A mid-stream view of the live state.
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            now: self.watermark,
            pending_events: self.queue.len(),
            open_tasks: self.state.open_candidates(),
            available_workers: self.state.available_candidates(),
            assigned_tasks: self.state.assigned_so_far(),
            events_processed: self.stats.events_processed,
            forecast: self.state.forecast_stats(),
        }
    }

    /// Activity counters of the session's forecast provider so far.
    #[inline]
    pub fn forecast_stats(&self) -> ForecastStats {
        self.state.forecast_stats()
    }

    /// Schedules one event. Arrival events may be ingested at any time at or
    /// after the watermark; their lifetime-closing events
    /// ([`Event::TaskExpiration`] / [`Event::WorkerOffline`]) are scheduled
    /// automatically when the arrival fires. An explicitly ingested
    /// [`Event::ReplanTick`] forces a one-shot re-plan at its time (it does
    /// not re-arm).
    pub fn ingest(&mut self, time: Timestamp, event: Event) -> Result<(), IngestError> {
        if !time.is_finite() {
            return Err(IngestError::NonFiniteTime { time });
        }
        if time.0 < self.watermark.0 {
            return Err(IngestError::BehindWatermark {
                time,
                watermark: self.watermark,
            });
        }
        if let Some(journal) = &self.journal {
            if journal.append_event(time, &event).is_err() {
                return Err(IngestError::JournalAppend);
            }
        }
        self.queue.push(time, event);
        self.metrics.ingested_events.inc();
        self.metrics.queue_depth.set(self.queue.len() as i64);
        Ok(())
    }

    /// Ingests a whole workload: every worker at its online time, every task
    /// at its publication time. Returns the number of events ingested.
    ///
    /// # Errors
    ///
    /// Fails on the first entity whose online/publication time is non-finite
    /// or behind the watermark (events ingested before the failure stay
    /// scheduled).
    pub fn ingest_workload(&mut self, workload: &Workload) -> Result<usize, IngestError> {
        for w in &workload.workers {
            self.ingest(w.on(), Event::WorkerOnline(*w))?;
        }
        for t in &workload.tasks {
            self.ingest(t.publication, Event::TaskArrival(*t))?;
        }
        Ok(workload.arrival_count())
    }

    /// Advances simulated time to `target`, firing every pending event and
    /// armed replan tick due at or before it, in deterministic `(time,
    /// class, ingest order)` order, and emitting decisions to `sink` as they
    /// are made. Returns the number of events processed by this call.
    pub fn advance_to(&mut self, target: Timestamp, sink: &mut dyn DecisionSink) -> usize {
        // Journal the advance before any event fires so replay issues the
        // identical call sequence. Only finite targets are recorded: the
        // close-time drain to +inf must not poison a recovered session's
        // watermark. A failed append (file I/O) is best-effort here — the
        // in-memory backend cannot fail, and advance targets are
        // reconstructible from the admission protocol if a file write drops.
        if target.is_finite() {
            if let Some(journal) = &self.journal {
                let _ = journal.append_advance(target);
            }
        }
        self.arm_tick();
        let mut processed = 0usize;
        loop {
            let event_due = self.queue.peek_time().filter(|t| t.0 <= target.0);
            let tick_due = self.next_tick.filter(|t| t.0 <= target.0);
            match (event_due, tick_due) {
                (None, None) => break,
                (Some(et), Some(tt)) if tt.0 < et.0 => self.fire_tick(tt, sink),
                (None, Some(tt)) => self.fire_tick(tt, sink),
                (Some(_), _) => {
                    // datawa-lint: allow(unwrap-in-hot-path) -- pop follows a successful peek with no intervening mutation
                    let scheduled = self.queue.pop().expect("peeked event vanished");
                    self.process(scheduled, sink);
                }
            }
            processed += 1;
        }
        if target.0 > self.watermark.0 {
            self.watermark = target;
        }
        processed
    }

    /// Forces an immediate re-plan at `now` (outside the tick chain), for
    /// example when an external controller detects demand drift. Counts
    /// toward the outcome's planning statistics but not toward the queue's
    /// event counters. A `now` past the watermark is first reached by
    /// [`Session::advance_to`], so every event due by then fires (arrivals
    /// join, closed windows retire) before the re-plan; at or behind the
    /// watermark nothing fires.
    pub fn force_replan(&mut self, now: Timestamp, sink: &mut dyn DecisionSink) {
        if now.0 > self.watermark.0 {
            self.advance_to(now, sink);
        }
        self.state.step(now, true);
        self.emit_dispatches(sink);
    }

    /// Closes the session: drains every remaining event (and the tick chain,
    /// which dies with the queue), emits the final decisions to `sink` and
    /// returns the combined outcome.
    #[must_use = "the outcome carries the run totals"]
    pub fn close(mut self, sink: &mut dyn DecisionSink) -> EngineOutcome {
        self.advance_to(Timestamp(f64::INFINITY), sink);
        self.stats.peak_queue_len = self.queue.peak_len();
        let run = self.state.finish();
        self.stats.peak_partitions = run.peak_partitions;
        self.stats.peak_partition_workers = run.peak_partition_workers;
        EngineOutcome {
            run,
            stats: self.stats,
        }
    }

    /// Arms (or re-arms) the time-driven tick chain off the earliest pending
    /// event: the first tick fires one interval after the earliest scheduled
    /// event. A chain that died while the queue was empty re-arms here once
    /// new events are ingested.
    fn arm_tick(&mut self) {
        if let (Some(dt), None) = (self.config.replan_interval, self.next_tick) {
            if let Some(first) = self.queue.peek_time() {
                self.next_tick = Some(first + Duration(dt));
            }
        }
    }

    /// Fires the armed time-driven tick at `tt` and re-arms it while any
    /// event is still pending (the chain dies with the queue, so draining
    /// always terminates).
    fn fire_tick(&mut self, tt: Timestamp, sink: &mut dyn DecisionSink) {
        self.stats.events_processed += 1;
        self.stats.replan_ticks += 1;
        self.metrics.events_processed.inc();
        self.metrics.replan_ticks.inc();
        sink.observe_event(tt, &Event::ReplanTick);
        self.state.step(tt, true);
        self.emit_dispatches(sink);
        self.next_tick = match self.config.replan_interval {
            Some(dt) if !self.queue.is_empty() => Some(tt + Duration(dt)),
            _ => None,
        };
    }

    fn process(&mut self, scheduled: ScheduledEvent, sink: &mut dyn DecisionSink) {
        let now = scheduled.time;
        self.stats.events_processed += 1;
        self.metrics.events_processed.inc();
        sink.observe_event(now, &scheduled.event);
        match scheduled.event {
            Event::WorkerOnline(w) => {
                self.stats.arrivals += 1;
                self.state.record_event();
                let off = w.off();
                let wid = self.state.insert_worker(w);
                // An always-available worker (infinite window) is legal in
                // the core model; its death event simply never fires.
                if off.is_finite() {
                    self.queue.push(off, Event::WorkerOffline(wid));
                }
                let replan = arrival_triggers_replan(&self.config, self.arrivals_seen);
                self.arrivals_seen += 1;
                self.state.step(now, replan);
                self.emit_dispatches(sink);
            }
            Event::TaskArrival(t) => {
                self.stats.arrivals += 1;
                self.state.record_event();
                let expiration = t.expiration;
                let tid = self.state.insert_task(t);
                // Never-expiring tasks stay in the open view until served
                // (or lazily pruned); no expiration event to schedule.
                if expiration.is_finite() {
                    self.queue.push(expiration, Event::TaskExpiration(tid));
                }
                let replan = arrival_triggers_replan(&self.config, self.arrivals_seen);
                self.arrivals_seen += 1;
                self.state.step(now, replan);
                self.emit_dispatches(sink);
            }
            Event::TaskExpiration(tid) => {
                self.stats.expirations += 1;
                if self.state.expire_task(tid) {
                    self.stats.expired_open += 1;
                    self.metrics.decisions.inc();
                    sink.emit(Decision::TaskExpired { at: now, task: tid });
                }
            }
            Event::WorkerOffline(wid) => {
                self.stats.offline += 1;
                self.state
                    .retire_worker(wid, self.config.release_on_offline);
                self.metrics.decisions.inc();
                sink.emit(Decision::WorkerOffline {
                    at: now,
                    worker: wid,
                });
            }
            Event::ReplanTick => {
                // An explicitly ingested tick: one-shot forced re-plan.
                self.stats.replan_ticks += 1;
                self.metrics.replan_ticks.inc();
                self.state.step(now, true);
                self.emit_dispatches(sink);
            }
        }
        // Arrivals push lifetime-closing events; keep the depth gauge (and
        // its high-water mark) tracking the post-event queue.
        self.metrics.queue_depth.set(self.queue.len() as i64);
    }

    fn emit_dispatches(&mut self, sink: &mut dyn DecisionSink) {
        for d in self.state.take_dispatches() {
            self.dispatches_emitted += 1;
            self.metrics.decisions.inc();
            sink.emit(Decision::Dispatch {
                at: d.decided_at,
                worker: d.worker,
                task: d.task,
                eta: d.eta,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datawa_assign::{AssignConfig, PolicyKind, StaticForecast};
    use datawa_core::{Location, Task, Worker};

    fn worker(x: f64, on: f64, off: f64, d: f64) -> Worker {
        Worker::new(
            WorkerId(0),
            Location::new(x, 0.0),
            d,
            Timestamp(on),
            Timestamp(off),
        )
    }

    fn task(x: f64, p: f64, e: f64) -> Task {
        Task::new(TaskId(0), Location::new(x, 0.0), Timestamp(p), Timestamp(e))
    }

    fn runner(policy: PolicyKind) -> AdaptiveRunner {
        AdaptiveRunner::new(AssignConfig::unit_speed(), policy)
    }

    #[test]
    fn decisions_stream_out_as_time_advances() {
        let r = runner(PolicyKind::Dta);
        let mut sink = CollectingSink::new();
        let mut forecast = StaticForecast::default();
        let mut session = Session::open(&r, &mut forecast, EngineConfig::default());
        session
            .ingest(
                Timestamp(0.0),
                Event::WorkerOnline(worker(0.0, 0.0, 100.0, 5.0)),
            )
            .unwrap();
        session
            .ingest(Timestamp(1.0), Event::TaskArrival(task(1.0, 1.0, 50.0)))
            .unwrap();
        session.advance_to(Timestamp(1.0), &mut sink);
        assert_eq!(sink.dispatches(), 1, "dispatch visible before close");
        assert_eq!(session.dispatches_emitted(), 1);

        // A later arrival, ingested after the first advance, still works.
        session
            .ingest(Timestamp(5.0), Event::TaskArrival(task(2.0, 5.0, 60.0)))
            .unwrap();
        let outcome = session.close(&mut sink);
        assert_eq!(outcome.run.assigned_tasks, 2);
        assert_eq!(sink.dispatches(), 2);
        // One offline + two expirations are lifecycle records, not
        // dispatches; the served tasks never emit TaskExpired.
        let expired = sink
            .decisions()
            .iter()
            .filter(|d| matches!(d, Decision::TaskExpired { .. }))
            .count();
        assert_eq!(expired, 0, "served tasks left the open view at dispatch");
    }

    #[test]
    fn unserved_expiration_is_reported_as_a_decision() {
        let r = runner(PolicyKind::Dta);
        let mut sink = CollectingSink::new();
        let mut forecast = StaticForecast::default();
        let session = {
            let mut s = Session::open(&r, &mut forecast, EngineConfig::ticked(100.0));
            s.ingest(
                Timestamp(0.0),
                Event::WorkerOnline(worker(0.0, 0.0, 50.0, 5.0)),
            )
            .unwrap();
            // Expires at t=3, before the first tick at t=100: never planned.
            s.ingest(Timestamp(1.0), Event::TaskArrival(task(0.5, 1.0, 3.0)))
                .unwrap();
            s
        };
        let outcome = session.close(&mut sink);
        assert_eq!(outcome.run.assigned_tasks, 0);
        assert!(sink
            .decisions()
            .iter()
            .any(|d| matches!(d, Decision::TaskExpired { .. })));
    }

    #[test]
    fn ingest_rejects_times_behind_the_watermark() {
        let r = runner(PolicyKind::Greedy);
        let mut sink = NullSink;
        let mut forecast = StaticForecast::default();
        let mut session = Session::open(&r, &mut forecast, EngineConfig::default());
        session.advance_to(Timestamp(10.0), &mut sink);
        let err = session
            .ingest(Timestamp(5.0), Event::TaskArrival(task(0.0, 5.0, 20.0)))
            .unwrap_err();
        assert!(matches!(err, IngestError::BehindWatermark { .. }));
        let err = session
            .ingest(Timestamp(f64::NAN), Event::ReplanTick)
            .unwrap_err();
        assert!(matches!(err, IngestError::NonFiniteTime { .. }));
        // At the watermark is fine (half-open advance).
        assert!(session
            .ingest(Timestamp(10.0), Event::TaskArrival(task(0.0, 10.0, 20.0)))
            .is_ok());
    }

    #[test]
    fn snapshot_tracks_live_state() {
        let r = runner(PolicyKind::Dta);
        let mut sink = NullSink;
        let mut forecast = StaticForecast::default();
        let mut session = Session::open(&r, &mut forecast, EngineConfig::default());
        session
            .ingest(
                Timestamp(0.0),
                Event::WorkerOnline(worker(0.0, 0.0, 100.0, 5.0)),
            )
            .unwrap();
        session
            .ingest(Timestamp(1.0), Event::TaskArrival(task(9.0, 1.0, 500.0)))
            .unwrap();
        session.advance_to(Timestamp(2.0), &mut sink);
        let snap = session.snapshot();
        assert_eq!(snap.now, Timestamp(2.0));
        assert_eq!(snap.available_workers, 1);
        assert_eq!(snap.open_tasks, 1, "task too far away to serve yet");
        assert_eq!(snap.assigned_tasks, 0);
        assert!(snap.pending_events >= 2, "offline + expiration pending");
    }

    #[test]
    fn tick_chain_rearms_after_a_quiet_period() {
        // The chain dies when the queue empties mid-session; ingesting more
        // work and advancing again must restart time-driven planning.
        let r = runner(PolicyKind::Dta);
        let mut sink = NullSink;
        let mut forecast = StaticForecast::default();
        let mut session = Session::open(&r, &mut forecast, EngineConfig::ticked(2.0));
        session
            .ingest(
                Timestamp(0.0),
                Event::WorkerOnline(worker(0.0, 0.0, 1000.0, 5.0)),
            )
            .unwrap();
        session
            .ingest(Timestamp(1.0), Event::TaskArrival(task(0.5, 1.0, 30.0)))
            .unwrap();
        session.advance_to(Timestamp(40.0), &mut sink);
        let before = session.stats().replan_ticks;
        assert!(before >= 1);
        assert_eq!(session.snapshot().assigned_tasks, 1);

        session
            .ingest(
                Timestamp(100.0),
                Event::TaskArrival(task(1.0, 100.0, 130.0)),
            )
            .unwrap();
        let outcome = session.close(&mut sink);
        assert!(outcome.stats.replan_ticks > before, "chain re-armed");
        assert_eq!(outcome.run.assigned_tasks, 2);
    }

    #[test]
    fn channel_sink_counts_post_disconnect_decisions_and_closes_cleanly() {
        // A consumer hanging up mid-run must not fail the session: every
        // decision made after the disconnect is counted as undeliverable,
        // none are silently lost, and close() still drains to completion.
        let r = runner(PolicyKind::Dta);
        let (tx, rx) = std::sync::mpsc::channel();
        let mut sink = ChannelSink::new(tx);
        let mut forecast = StaticForecast::default();
        let mut session = Session::open(&r, &mut forecast, EngineConfig::default());
        session
            .ingest(
                Timestamp(0.0),
                Event::WorkerOnline(worker(0.0, 0.0, 100.0, 5.0)),
            )
            .unwrap();
        session
            .ingest(Timestamp(1.0), Event::TaskArrival(task(0.5, 1.0, 50.0)))
            .unwrap();
        session.advance_to(Timestamp(1.0), &mut sink);
        let delivered = sink.sent();
        assert_eq!(delivered, 1, "first dispatch reached the live consumer");
        assert_eq!(rx.try_iter().count(), 1);

        // The consumer goes away; the rest of the run keeps deciding.
        drop(rx);
        session
            .ingest(Timestamp(10.0), Event::TaskArrival(task(1.5, 10.0, 60.0)))
            .unwrap();
        session
            .ingest(Timestamp(20.0), Event::TaskArrival(task(2.5, 20.0, 70.0)))
            .unwrap();
        let outcome = session.close(&mut sink);
        assert_eq!(outcome.run.assigned_tasks, 3, "session closed cleanly");
        assert_eq!(sink.sent(), delivered, "nothing delivered after hang-up");
        // Post-disconnect decisions: 2 dispatches + 1 worker-offline + any
        // unserved expirations; every one of them lands in the undeliverable
        // counter, so sent + undeliverable covers the full decision stream.
        assert_eq!(
            sink.undeliverable(),
            2 + 1 + outcome.stats.expired_open,
            "every post-disconnect decision was counted"
        );
    }

    #[test]
    fn journaled_session_recovers_bitwise() {
        use crate::journal::EventJournal;

        let r = runner(PolicyKind::Dta);
        let journal = EventJournal::in_memory();

        // Uninterrupted reference run.
        let mut ref_sink = CollectingSink::new();
        let mut ref_forecast = StaticForecast::default();
        let mut reference = Session::open(&r, &mut ref_forecast, EngineConfig::ticked(2.0));

        // Journaled run, "crashed" after the first advance.
        let mut live_sink = CollectingSink::new();
        let mut live_forecast = StaticForecast::default();
        let mut live = Session::open(&r, &mut live_forecast, EngineConfig::ticked(2.0));
        live.attach_journal(journal.clone());

        let w = Event::WorkerOnline(worker(0.0, 0.0, 100.0, 5.0));
        let t1 = Event::TaskArrival(task(1.0, 1.0, 50.0));
        let t2 = Event::TaskArrival(task(2.0, 6.0, 60.0));
        for (time, event) in [(0.0, w.clone()), (1.0, t1.clone())] {
            live.ingest(Timestamp(time), event.clone()).unwrap();
            reference.ingest(Timestamp(time), event).unwrap();
        }
        live.advance_to(Timestamp(5.0), &mut live_sink);
        reference.advance_to(Timestamp(5.0), &mut ref_sink);
        drop(live); // the crash: session lost, journal survives

        // Recovery replays the prefix; skip what the consumer already saw.
        let mut rec_forecast = StaticForecast::default();
        let mut replay_sink = CollectingSink::new();
        let mut recovered = Session::recover(
            &r,
            &mut rec_forecast,
            EngineConfig::ticked(2.0),
            journal,
            &mut replay_sink,
        )
        .unwrap();
        assert_eq!(
            replay_sink.decisions(),
            live_sink.decisions(),
            "replay reproduces the emitted prefix bitwise"
        );
        assert_eq!(recovered.now(), Timestamp(5.0));
        assert_eq!(recovered.pending(), reference.pending());

        // Both runs continue identically.
        recovered.ingest(Timestamp(6.0), t2.clone()).unwrap();
        reference.ingest(Timestamp(6.0), t2).unwrap();
        let rec_out = recovered.close(&mut replay_sink);
        let ref_out = reference.close(&mut ref_sink);
        assert_eq!(replay_sink.decisions(), ref_sink.decisions());
        assert_eq!(rec_out.run.assigned_tasks, ref_out.run.assigned_tasks);
        assert_eq!(
            rec_out.stats.events_processed,
            ref_out.stats.events_processed
        );
        assert_eq!(rec_out.stats.replan_ticks, ref_out.stats.replan_ticks);
    }

    #[test]
    fn explicit_replan_tick_is_one_shot() {
        let r = runner(PolicyKind::Dta);
        let mut sink = CollectingSink::new();
        // Arrival-driven planning off entirely: only the explicit tick plans.
        let config = EngineConfig {
            replan_every_events: 0,
            replan_interval: None,
            release_on_offline: true,
        };
        let mut forecast = StaticForecast::default();
        let mut session = Session::open(&r, &mut forecast, config);
        session
            .ingest(
                Timestamp(0.0),
                Event::WorkerOnline(worker(0.0, 0.0, 100.0, 5.0)),
            )
            .unwrap();
        session
            .ingest(Timestamp(1.0), Event::TaskArrival(task(0.5, 1.0, 50.0)))
            .unwrap();
        session.ingest(Timestamp(2.0), Event::ReplanTick).unwrap();
        let outcome = session.close(&mut sink);
        assert_eq!(outcome.run.assigned_tasks, 1, "the explicit tick planned");
        assert_eq!(outcome.stats.replan_ticks, 1, "and it did not re-arm");
    }

    #[test]
    fn a_forced_replan_past_the_watermark_fires_what_is_due_first() {
        // Arrivals never plan, so only the forced replan does. Queued between
        // the watermark (1) and the forced instant (10): w1 coming online at
        // 4 and w0's window closing at 5.
        let r = runner(PolicyKind::Dta);
        let mut sink = CollectingSink::new();
        let config = EngineConfig {
            replan_every_events: 0,
            ..EngineConfig::default()
        };
        let mut forecast = StaticForecast::default();
        let mut session = Session::open(&r, &mut forecast, config);
        let w0 = worker(0.0, 0.0, 5.0, 5.0);
        session.ingest(w0.on(), Event::WorkerOnline(w0)).unwrap();
        session
            .ingest(Timestamp(0.5), Event::TaskArrival(task(1.0, 0.5, 100.0)))
            .unwrap();
        session.advance_to(Timestamp(1.0), &mut sink);
        let w1 = worker(2.0, 4.0, 100.0, 5.0);
        session.ingest(w1.on(), Event::WorkerOnline(w1)).unwrap();

        session.force_replan(Timestamp(10.0), &mut sink);
        assert_eq!(session.now(), Timestamp(10.0));
        assert_eq!(
            session.stats().events_processed,
            4,
            "online, arrival, online, offline"
        );
        assert_eq!(
            sink.decisions(),
            &[
                Decision::WorkerOffline {
                    at: Timestamp(5.0),
                    worker: WorkerId(0),
                },
                Decision::Dispatch {
                    at: Timestamp(10.0),
                    worker: WorkerId(1),
                    task: TaskId(0),
                    eta: Timestamp(11.0),
                },
            ]
        );
    }
}
