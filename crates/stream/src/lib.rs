//! # datawa-stream
//!
//! An event-driven streaming engine for DATA-WA: the discrete-event substrate
//! that drives the adaptive streaming algorithm (Algorithm 3) over a
//! deterministic event queue, with explicit lifecycle events and batched
//! re-planning. Every run — a batch replay, the dispatch service, the network
//! front-end — is one [`Session`].
//!
//! ## Event lifecycle
//!
//! Every entity flows through the engine as a pair of events:
//!
//! 1. **Birth.** A [`Event::WorkerOnline`] or [`Event::TaskArrival`] pops at
//!    the entity's online/publication time. The engine inserts the record
//!    into the run's [`datawa_core::WorkerStore`]/[`datawa_core::TaskStore`]
//!    (which assigns its dense id), adds a task to the open view
//!    ([`datawa_core::OpenTaskView`]) and a worker to the runner's lifecycle
//!    (pending until its window opens), each an `O(log n)` insertion, and
//!    immediately schedules the entity's **death** event for its window-close
//!    instant.
//! 2. **Life.** While alive, the entity participates in planning and
//!    dispatch: every arrival steps the
//!    [`datawa_assign::RunnerState`] state machine (dispatch always;
//!    re-planning when the batching policy triggers — every N arrivals, every
//!    Δt seconds via [`Event::ReplanTick`], or both). Serving a task removes
//!    it from the open view at dispatch time.
//! 3. **Death.** [`Event::TaskExpiration`] / [`Event::WorkerOffline`] pops at
//!    the boundary of the half-open lifetime interval and removes the id from
//!    the open view or the lifecycle — no full-store rescans ever happen. A worker
//!    going offline can optionally release the undone remainder of its
//!    planned sequence back to the pool
//!    ([`EngineConfig::release_on_offline`]).
//!
//! Determinism: the queue orders events by `(time, class, insertion seq)`,
//! where same-instant classes fire as *expiration → offline → online →
//! arrival → replan-tick*, mirroring the half-open `[p, e)` / `[on, off)`
//! interval semantics of the domain model, and FIFO order breaks exact ties.
//! Two runs over the same workload are therefore bit-identical.
//!
//! ## Sessions and live ingest
//!
//! The engine's one entry point is the open-loop [`Session`] API:
//! [`Session::open`] starts a run, [`Session::ingest`] schedules events as
//! they arrive (a live request front-end feeds this incrementally;
//! [`run_workload`] ingests a whole workload at once),
//! [`Session::advance_to`] moves simulated time forward firing everything
//! due, and [`Session::close`] drains the remainder and returns the
//! [`EngineOutcome`]. Assignment decisions are not buffered until the end of
//! the run: every dispatch (and every unserved expiration / worker
//! departure) is emitted as a typed
//! [`Decision`] through a pluggable [`DecisionSink`] the moment it is made —
//! [`CollectingSink`] gathers them in memory, [`ChannelSink`] streams them to
//! an `mpsc` consumer thread, and [`NullSink`] drops them for totals-only
//! runs. Mid-stream, [`Session::stats`] and [`Session::snapshot`] expose the
//! live counters and world-view sizes without stopping the run.
//!
//! Because the deterministic queue orders events by `(time, class, ingest
//! order)` regardless of when they were ingested, feeding a workload
//! event-by-event through a session — ingesting each event before advancing
//! to its timestamp — is bit-identical to ingesting it whole through
//! [`run_workload`] (pinned by the workspace `session_equivalence` tests; see
//! [`session`] for the exact contract around time-driven replan ticks). The
//! long-running service loop built on top of sessions (sources, pacing,
//! backpressure) lives in the `datawa-service` crate.
//!
//! ## Live forecasting
//!
//! Sessions no longer bake in a fixed prediction slice: [`Session::open`]
//! takes a [`ForecastProvider`] — the pluggable demand-forecast API from
//! `datawa-assign`. Every ingested [`Event::TaskArrival`] is routed into
//! the provider ([`ForecastProvider::observe`]) and the prediction-aware
//! policies (DTA+TP, DATA-WA) re-query [`ForecastProvider::forecast`] at
//! every planning instant, so a long-lived session can track demand drift
//! instead of replaying a whole-trace oracle. [`StaticForecast`] wraps a
//! precomputed slice and reproduces the pre-redesign engine bit for bit
//! (every equivalence pin in the workspace runs through it); the
//! model-backed `OnlineForecaster` in `datawa-predict` maintains rolling
//! per-cell occurrence series and re-forecasts on a refresh cadence — hand
//! it to a session exactly like the static bridge:
//!
//! ```text
//! let mut forecaster = OnlineForecaster::new(model, grid, spec, config);
//! let mut session = Session::open(&runner, &mut forecaster, EngineConfig::default());
//! // … ingest / advance_to: arrivals flow into the forecaster, planning
//! // instants re-query it, and Session::snapshot().forecast exposes the
//! // live observe/refresh counters.
//! ```
//!
//! (A compilable end-to-end example lives in the `datawa-predict` crate
//! docs, which own the model side.) [`run_workload_forecast`] is the batch
//! convenience over the same API.
//!
//! ## Incremental replanning
//!
//! The engine tells the planner nothing about what its events changed. At
//! each planning instant the runner hands its live stores to
//! [`Planner::plan_live`](datawa_assign::Planner::plan_live), whose reach
//! layer finds what changed from the inputs themselves: it carries a
//! worker's reachable list over only after checking the worker's store
//! mutation stamp, the pass marks of the worker and of every list member,
//! and re-validating each member against the live stores (see the
//! "Incremental replanning" section of the `datawa-assign` docs). No plan
//! is carried over: every partition is searched at every instant. Output
//! equals planning from scratch bit for bit, which the `reach_delta` and
//! `incremental_equivalence` workspace suites pin against a cold planner,
//! and `golden_counts` pins every policy on every scenario generator to
//! fixed same-seed outcomes.
//!
//! ## Observability
//!
//! Sessions record into a `datawa-obs` [`MetricsRegistry`]: ingest and
//! processed-event counters (`stream.ingested_events`,
//! `stream.events_processed`), emitted decisions (`stream.decisions`),
//! re-plan ticks (`stream.replan_ticks`) and a pending-queue depth gauge
//! whose high-water mark survives in every snapshot
//! (`stream.queue_depth`). [`Session::open`] inherits the runner's
//! registry — detached by default, attached when the runner was built with
//! [`AdaptiveRunner::with_metrics`](datawa_assign::AdaptiveRunner::with_metrics)
//! — so one registry carries the assign-layer metrics (replan latency
//! histogram, partition gauges, search-node counters) and the stream-layer
//! metrics side by side; [`Session::obs_snapshot`] serialises all of it to
//! JSON. `Session::open_with_metrics` substitutes an explicit registry.
//! A detached registry makes every handle a no-op —
//! no atomics touched, no clocks read — which is what lets the
//! `obs_equivalence` workspace tests pin metrics-on runs bitwise against
//! metrics-off runs on all four policies.
//!
//! [`MetricsRegistry`]: datawa_obs::MetricsRegistry
//!
//! ## Scenarios
//!
//! [`ScenarioGenerator`] abstracts workload construction; the four built-ins
//! ([`UniformBaseline`], [`RushHourBurst`], [`HotspotDrift`],
//! [`HeavyTailedChurn`]) cover uniform control, bursty rush hours, demand
//! drift and heavy-tailed worker churn. The Yueche/DiDi-style synthetic-trace
//! replay adapter lives in `datawa-sim` (`SyntheticTrace::workload`), which
//! depends on this crate.

// The ingest path serves live sessions: a panic there takes one down, so an
// unwrap or expect outside tests carries an allow with its invariant.
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod engine;
pub mod event;
pub mod journal;
pub mod scenario;
pub mod session;

pub use engine::{run_workload, run_workload_forecast, EngineConfig, EngineOutcome, EngineStats};
pub use event::{Event, EventQueue, ScheduledEvent};
pub use journal::{EventJournal, JournalError, JournalRecord, SkipSink};
pub use scenario::{
    builtin_scenarios, HeavyTailedChurn, HotspotDrift, RushHourBurst, ScenarioGenerator,
    ScenarioSpec, UniformBaseline, Workload,
};
pub use session::{
    ChannelSink, CollectingSink, Decision, DecisionSink, IngestError, NullSink, Session,
    SessionSnapshot,
};

// The forecast API surface, re-exported from the consumer layer so session
// drivers need only this crate (the model-backed `OnlineForecaster` lives in
// `datawa-predict`).
pub use datawa_assign::{ForecastProvider, ForecastStats, StaticForecast};

#[cfg(test)]
mod tests {
    use super::*;
    use datawa_assign::{AdaptiveRunner, AssignConfig, PolicyKind};
    use datawa_core::{Location, Task, TaskId, Timestamp, Worker, WorkerId};

    fn worker(x: f64, y: f64, on: f64, off: f64, d: f64) -> Worker {
        Worker::new(
            WorkerId(0),
            Location::new(x, y),
            d,
            Timestamp(on),
            Timestamp(off),
        )
    }

    fn task(x: f64, y: f64, p: f64, e: f64) -> Task {
        Task::new(TaskId(0), Location::new(x, y), Timestamp(p), Timestamp(e))
    }

    fn runner(policy: PolicyKind) -> AdaptiveRunner {
        AdaptiveRunner::new(AssignConfig::unit_speed(), policy)
    }

    #[test]
    fn engine_serves_a_simple_stream() {
        let workload = Workload {
            workers: vec![worker(0.0, 0.0, 0.0, 100.0, 5.0)],
            tasks: vec![task(1.0, 0.0, 1.0, 50.0), task(2.0, 0.0, 2.0, 60.0)],
        };
        let outcome = run_workload(
            &runner(PolicyKind::Dta),
            &workload,
            &[],
            EngineConfig::default(),
        );
        assert_eq!(outcome.run.assigned_tasks, 2);
        assert_eq!(outcome.run.events, 3, "arrival events only");
        assert_eq!(outcome.stats.arrivals, 3);
        // 3 arrivals + 1 offline + 2 expirations.
        assert_eq!(outcome.stats.events_processed, 6);
        assert!(outcome.stats.peak_queue_len >= 3);
    }

    #[test]
    fn task_expiring_before_any_replan_tick_is_never_assigned() {
        // Time-driven planning only: the tick fires at t=11 but the task
        // expired at t=3 — its expiration event must have scrubbed it from
        // the open view, so nothing is ever planned or dispatched.
        let workload = Workload {
            workers: vec![worker(0.0, 0.0, 0.0, 100.0, 5.0)],
            tasks: vec![task(0.5, 0.0, 1.0, 3.0)],
        };
        let outcome = run_workload(
            &runner(PolicyKind::Dta),
            &workload,
            &[],
            EngineConfig::ticked(11.0),
        );
        assert_eq!(outcome.run.assigned_tasks, 0);
        assert_eq!(outcome.stats.expirations, 1);
        assert_eq!(outcome.stats.expired_open, 1);
        assert!(outcome.stats.replan_ticks >= 1);
        assert_eq!(outcome.run.planning_calls, 0, "no open task at any tick");
    }

    #[test]
    fn same_task_is_assigned_when_a_tick_arrives_in_time() {
        let workload = Workload {
            workers: vec![worker(0.0, 0.0, 0.0, 100.0, 5.0)],
            tasks: vec![task(0.5, 0.0, 1.0, 30.0)],
        };
        let outcome = run_workload(
            &runner(PolicyKind::Dta),
            &workload,
            &[],
            EngineConfig::ticked(2.0),
        );
        assert_eq!(outcome.run.assigned_tasks, 1);
    }

    #[test]
    fn offline_worker_releases_its_fixed_plan_for_others() {
        // w0 comes online after both tasks are published, receives the FTA
        // fixed sequence [A, B] (both east of it), serves A, then goes
        // offline at t=4 with B still undone. With release-on-offline, B
        // returns to the pool and the late-arriving w1 gets it in its own
        // fixed plan; without it B stays reserved forever and is lost.
        let w0 = worker(0.0, 0.0, 1.0, 4.0, 10.0);
        let w1 = worker(2.5, 0.0, 50.0, 100.0, 10.0);
        let a = task(1.0, 0.0, 0.5, 90.0);
        let b = task(2.0, 0.0, 0.6, 95.0);
        let workload = Workload {
            workers: vec![w0, w1],
            tasks: vec![a, b],
        };
        let released = run_workload(
            &runner(PolicyKind::Fta),
            &workload,
            &[],
            EngineConfig::default(),
        );
        let kept = run_workload(
            &runner(PolicyKind::Fta),
            &workload,
            &[],
            EngineConfig {
                release_on_offline: false,
                ..EngineConfig::default()
            },
        );
        assert_eq!(released.run.assigned_tasks, 2, "B released and re-served");
        assert_eq!(
            kept.run.assigned_tasks, 1,
            "B stays reserved by the dead worker"
        );
    }

    #[test]
    fn batched_replanning_plans_less_often_but_still_serves() {
        let spec = ScenarioSpec::small().with_tasks(150).with_workers(12);
        let workload = UniformBaseline::new(spec).generate();
        let per_arrival = run_workload(
            &runner(PolicyKind::Greedy),
            &workload,
            &[],
            EngineConfig::default(),
        );
        let batched = run_workload(
            &runner(PolicyKind::Greedy),
            &workload,
            &[],
            EngineConfig::batched(16),
        );
        assert!(batched.run.planning_calls < per_arrival.run.planning_calls);
        assert!(batched.run.assigned_tasks > 0);
        assert!(per_arrival.run.assigned_tasks > 0);
    }

    #[test]
    fn engine_runs_are_deterministic() {
        let spec = ScenarioSpec::small().with_tasks(120).with_workers(10);
        let workload = HeavyTailedChurn::new(spec).generate();
        let a = run_workload(
            &runner(PolicyKind::Dta),
            &workload,
            &[],
            EngineConfig::default(),
        );
        let b = run_workload(
            &runner(PolicyKind::Dta),
            &workload,
            &[],
            EngineConfig::default(),
        );
        assert_eq!(a.run.assigned_tasks, b.run.assigned_tasks);
        assert_eq!(a.run.per_worker, b.run.per_worker);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn infinite_windows_and_expirations_are_legal() {
        // An always-available worker and a never-expiring task are valid in
        // the core model; the engine must skip their death events instead of
        // panicking on a non-finite schedule time.
        let workload = Workload {
            workers: vec![worker(0.0, 0.0, 0.0, f64::INFINITY, 5.0)],
            tasks: vec![
                task(1.0, 0.0, 1.0, f64::INFINITY),
                task(2.0, 0.0, 2.0, 60.0),
            ],
        };
        let outcome = run_workload(
            &runner(PolicyKind::Dta),
            &workload,
            &[],
            EngineConfig::default(),
        );
        assert_eq!(outcome.run.assigned_tasks, 2);
        assert_eq!(outcome.stats.offline, 0, "no offline event scheduled");
        assert_eq!(outcome.stats.expirations, 1, "only the finite task expires");
    }

    #[test]
    #[should_panic(expected = "replan_interval")]
    fn zero_tick_interval_is_rejected() {
        // A tick that does not advance time would re-arm at the queue head
        // forever; opening a session must refuse it.
        let r = runner(PolicyKind::Dta);
        let mut forecast = StaticForecast::default();
        let _ = Session::open(
            &r,
            &mut forecast,
            EngineConfig {
                replan_interval: Some(0.0),
                ..EngineConfig::default()
            },
        );
    }

    #[test]
    fn all_scenarios_run_end_to_end_on_the_engine() {
        let spec = ScenarioSpec::small().with_tasks(150).with_workers(15);
        for scenario in builtin_scenarios(spec) {
            let workload = scenario.generate();
            let outcome = run_workload(
                &runner(PolicyKind::Greedy),
                &workload,
                &[],
                EngineConfig::default(),
            );
            assert!(
                outcome.run.assigned_tasks > 0,
                "{} served nothing",
                scenario.name()
            );
            assert_eq!(outcome.stats.arrivals, workload.arrival_count());
            assert!(outcome.run.assigned_tasks <= workload.tasks.len());
        }
    }
}
