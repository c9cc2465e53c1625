//! The discrete-event engine: event loop, batched re-planning, incremental
//! world-view maintenance.

use crate::event::{Event, EventQueue};
use crate::scenario::Workload;
use crate::session::{DecisionSink, NullSink, Session};
use datawa_assign::{
    AdaptiveRunner, ForecastProvider, PredictedTaskInput, RunOutcome, StaticForecast,
};
use datawa_core::Timestamp;

/// Engine knobs: when to re-plan and what happens when a worker leaves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Trigger a re-plan on every `n`-th arrival event (`1` = the paper's
    /// per-arrival setting, `0` = arrivals never trigger planning — combine
    /// with [`EngineConfig::replan_interval`] for purely time-driven
    /// batching). Dispatching still happens at every arrival either way.
    pub replan_every_events: usize,
    /// Also re-plan every `Δt` simulated seconds via [`Event::ReplanTick`]s.
    pub replan_interval: Option<f64>,
    /// Whether a worker going offline releases the undone tasks of its
    /// planned sequence back to the pool (under FTA they become claimable by
    /// later fixed plans). The legacy synchronous driver never releases, so
    /// [`EngineConfig::replay_compat`] turns this off.
    pub release_on_offline: bool,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            replan_every_events: 1,
            replan_interval: None,
            release_on_offline: true,
        }
    }
}

impl EngineConfig {
    /// Bit-for-bit compatibility with the legacy `AdaptiveRunner::run` loop:
    /// re-plan every `replan_every` arrivals, no time-driven ticks, no
    /// release-on-offline. Running a replayed trace under this config
    /// produces the same assignment totals as the legacy driver.
    #[must_use]
    pub fn replay_compat(replan_every: usize) -> EngineConfig {
        EngineConfig {
            replan_every_events: replan_every.max(1),
            replan_interval: None,
            release_on_offline: false,
        }
    }

    /// Batched planning: re-plan every `n` arrivals instead of every arrival.
    #[must_use]
    pub fn batched(n: usize) -> EngineConfig {
        EngineConfig {
            replan_every_events: n.max(1),
            ..EngineConfig::default()
        }
    }

    /// Purely time-driven planning: re-plan every `delta_t` seconds only.
    #[must_use]
    pub fn ticked(delta_t: f64) -> EngineConfig {
        assert!(delta_t > 0.0, "replan interval must be positive");
        EngineConfig {
            replan_every_events: 0,
            replan_interval: Some(delta_t),
            release_on_offline: true,
        }
    }
}

/// Counters describing one engine run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Total events popped from the queue (arrivals + lifecycle + ticks).
    pub events_processed: usize,
    /// Worker-online + task-arrival events.
    pub arrivals: usize,
    /// Task-expiration events fired.
    pub expirations: usize,
    /// Expiration events that actually removed a still-open task from the
    /// view (the rest were already served or lazily pruned).
    pub expired_open: usize,
    /// Worker-offline events fired.
    pub offline: usize,
    /// Re-plan ticks fired.
    pub replan_ticks: usize,
    /// High-water mark of the pending-event queue.
    pub peak_queue_len: usize,
    /// Largest number of independent planning partitions (cluster-tree root
    /// subtrees) any single planning instant split into.
    pub peak_partitions: usize,
    /// Workers in the largest partition observed across the run.
    pub peak_partition_workers: usize,
}

/// Result of one engine run: the assignment outcome plus engine counters.
#[derive(Debug, Clone)]
pub struct EngineOutcome {
    /// The policy outcome, identical in shape to the legacy driver's.
    pub run: RunOutcome,
    /// Engine-side counters.
    pub stats: EngineStats,
}

/// The discrete-event simulation engine.
///
/// The engine owns a deterministic [`EventQueue`] and drives an
/// [`AdaptiveRunner`]'s stepwise [`datawa_assign::RunnerState`]:
///
/// * arrivals insert the entity, auto-schedule its lifetime-closing event
///   ([`Event::TaskExpiration`] / [`Event::WorkerOffline`]) and step the
///   runner (dispatch always, planning per the batching config);
/// * lifecycle events maintain the incremental open-task/available-worker
///   views in `O(log n)` — no full store rescans;
/// * [`Event::ReplanTick`]s force a batched re-plan every `Δt` simulated
///   seconds and re-arm themselves while any work remains.
pub struct StreamEngine {
    config: EngineConfig,
    queue: EventQueue,
    stats: EngineStats,
}

impl StreamEngine {
    /// Creates an engine with the given configuration.
    ///
    /// Panics on a non-positive or non-finite `replan_interval`: a tick that
    /// does not advance simulated time would re-arm itself at the head of the
    /// queue forever and the run would never terminate.
    pub fn new(config: EngineConfig) -> StreamEngine {
        if let Some(dt) = config.replan_interval {
            assert!(
                dt.is_finite() && dt > 0.0,
                "replan_interval must be a positive finite number of seconds, got {dt}"
            );
        }
        StreamEngine {
            config,
            queue: EventQueue::new(),
            stats: EngineStats::default(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Schedules one event explicitly. Arrival events may be scheduled at any
    /// time; note that expiration/offline events for arrivals are scheduled
    /// automatically by the run loop, using the dense ids the stores assign
    /// in insertion order.
    pub fn schedule(&mut self, time: Timestamp, event: Event) {
        self.queue.push(time, event);
    }

    /// Schedules a whole workload: every worker at its online time, every
    /// task at its publication time.
    pub fn load(&mut self, workload: &Workload) {
        for w in &workload.workers {
            self.queue.push(w.on(), Event::WorkerOnline(*w));
        }
        for t in &workload.tasks {
            self.queue.push(t.publication, Event::TaskArrival(*t));
        }
    }

    /// Number of currently pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Drains the queue, driving `runner` over every event, and returns the
    /// combined outcome. The engine can be re-loaded and re-run afterwards
    /// (stats reset per run).
    ///
    /// This is now a thin wrapper over the open-loop [`Session`] API — open,
    /// ingest everything, drain — with a sink that drops the incremental
    /// decisions and the precomputed `predicted` slice wrapped in a
    /// [`StaticForecast`] (the fixed-oracle bridge); callers that want live
    /// re-forecasting pass a provider to
    /// [`StreamEngine::run_with_forecast`], and callers that want the
    /// decisions drive a [`Session`] directly (or use
    /// [`StreamEngine::run_with_sink`]).
    pub fn run(
        &mut self,
        runner: &AdaptiveRunner,
        predicted: &[PredictedTaskInput],
    ) -> EngineOutcome {
        self.run_with_sink(runner, predicted, &mut NullSink)
    }

    /// [`StreamEngine::run`], but with every incremental [`Decision`]
    /// (dispatches, unserved expirations, worker departures) emitted to
    /// `sink` as it happens.
    ///
    /// [`Decision`]: crate::Decision
    pub fn run_with_sink(
        &mut self,
        runner: &AdaptiveRunner,
        predicted: &[PredictedTaskInput],
        sink: &mut dyn DecisionSink,
    ) -> EngineOutcome {
        let mut forecast = StaticForecast::from_slice(predicted);
        self.run_with_forecast(runner, &mut forecast, sink)
    }

    /// The forecast-native batch entry point: drains the queue through a
    /// session whose predictions come from `forecast` — re-queried at every
    /// planning instant and fed every task arrival — emitting incremental
    /// [`Decision`]s to `sink`.
    ///
    /// [`Decision`]: crate::Decision
    pub fn run_with_forecast(
        &mut self,
        runner: &AdaptiveRunner,
        forecast: &mut dyn ForecastProvider,
        sink: &mut dyn DecisionSink,
    ) -> EngineOutcome {
        self.stats = EngineStats::default();
        let mut session = Session::open(runner, forecast, self.config);
        while let Some(scheduled) = self.queue.pop() {
            session
                .ingest(scheduled.time, scheduled.event)
                // datawa-lint: allow(unwrap-in-hot-path) -- enqueue already validated finiteness; a fresh session cannot reject monotone re-delivery
                .expect("engine queue times are finite and the session is fresh");
        }
        // The engine queue is drained; restart its high-water mark so the
        // next load/run pair reports a per-run peak.
        self.queue.reset_peak();
        let outcome = session.close(sink);
        self.stats = outcome.stats;
        outcome
    }
}

/// Whether the `arrivals_seen`-th arrival (0-based) triggers an event-batched
/// re-plan.
#[inline]
pub(crate) fn arrival_triggers_replan(config: &EngineConfig, arrivals_seen: usize) -> bool {
    let n = config.replan_every_events;
    n > 0 && arrivals_seen.is_multiple_of(n)
}

/// One-shot convenience: build an engine, load `workload`, run `runner` with
/// the precomputed `predicted` slice as a fixed [`StaticForecast`] oracle.
pub fn run_workload(
    runner: &AdaptiveRunner,
    workload: &Workload,
    predicted: &[PredictedTaskInput],
    config: EngineConfig,
) -> EngineOutcome {
    let mut engine = StreamEngine::new(config);
    engine.load(workload);
    engine.run(runner, predicted)
}

/// One-shot convenience for live forecasting: build an engine, load
/// `workload`, run `runner` with predictions re-queried from `forecast` at
/// every planning instant.
pub fn run_workload_forecast(
    runner: &AdaptiveRunner,
    workload: &Workload,
    forecast: &mut dyn ForecastProvider,
    config: EngineConfig,
) -> EngineOutcome {
    let mut engine = StreamEngine::new(config);
    engine.load(workload);
    engine.run_with_forecast(runner, forecast, &mut NullSink)
}
