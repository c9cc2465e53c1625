//! # datawa-service
//!
//! The live-ingest service front-end over the `datawa-stream` session API.
//!
//! Everything below the service boundary is an open-loop [`Session`]: events
//! in, typed [`Decision`]s out, time under caller control. This crate adds
//! the pieces a long-running dispatcher needs on top of that:
//!
//! * **[`IngestSource`]** — where arrivals come from. [`WorkloadSource`]
//!   replays a pre-built workload in the engine's deterministic order;
//!   [`LiveSource`] paces the same arrivals against a simulated wall clock,
//!   so quiet periods (with their expirations and time-driven re-plans)
//!   actually elapse between bursts. [`NetSource`] is the push-fed variant: a connection handler feeds
//!   events across threads through a [`NetSourceHandle`], which is how the
//!   `datawa-net` TCP front-end (wire format in the workspace-root
//!   `PROTOCOL.md`) runs one `DispatchService` per tenant connection. A
//!   `&mut` source is a source too, so a supervisor lends its `NetSource`
//!   to each pump incarnation and keeps the queued events across a crash.
//! * **[`DispatchService`]** — the pump: source → session → sink, with
//!   bounded-queue backpressure (admission pauses and the session drains
//!   when planning lags a burst by more than
//!   [`ServiceConfig::max_pending`] events) and mid-stream
//!   [`DispatchService::stats`] / [`DispatchService::snapshot`] inspection,
//!   including the live forecast-provider counters
//!   ([`ServiceStats::forecast`]) when the session runs over an online
//!   demand forecaster instead of a fixed
//!   [`StaticForecast`](datawa_assign::StaticForecast) oracle.
//!
//! Decisions leave through any [`DecisionSink`](datawa_stream::DecisionSink)
//! — for example a [`CollectingSink`](datawa_stream::CollectingSink) that
//! gathers them in memory (the `live_dispatch` example streams a paced
//! workload this way):
//!
//! ```
//! use datawa_assign::{AdaptiveRunner, AssignConfig, PolicyKind, StaticForecast};
//! use datawa_service::{DispatchService, LiveSource, ServiceConfig};
//! use datawa_stream::{CollectingSink, ScenarioGenerator, ScenarioSpec, UniformBaseline};
//!
//! let workload = UniformBaseline::new(ScenarioSpec::small().with_tasks(80).with_workers(8))
//!     .generate();
//! let runner = AdaptiveRunner::new(AssignConfig::default(), PolicyKind::Dta);
//!
//! let mut forecast = StaticForecast::default(); // DTA ignores predictions
//! let service = DispatchService::open(
//!     &runner,
//!     &mut forecast,
//!     LiveSource::new(&workload, 30.0), // 30 simulated seconds per quiet poll
//!     CollectingSink::new(),
//!     ServiceConfig::default(),
//! );
//! let (outcome, stats, sink) = service.run();
//!
//! assert!(stats.source_exhausted);
//! assert_eq!(sink.dispatches(), outcome.run.assigned_tasks);
//! assert!(outcome.run.assigned_tasks > 0);
//! ```
//!
//! Replaying through [`WorkloadSource`] is bit-identical to the batch
//! [`run_workload`](datawa_stream::run_workload) driver (pinned by this
//! crate's tests and the workspace `session_equivalence` suite), so the
//! service is a strict generalisation of the replay path, not a fork of it.
//!
//! ## Observability
//!
//! The service records into a `datawa-obs`
//! [`MetricsRegistry`](datawa_obs::MetricsRegistry): admissions
//! (`service.ingested`), quiet-period waits (`service.waits`), cumulative
//! backpressure stalls (`service.backpressure_stalls`), the admission
//! backlog gauge with its high-water mark (`service.backlog`) and a pump
//! latency histogram (`service.pump_seconds`). When the runner carries an
//! attached registry
//! ([`AdaptiveRunner::with_metrics`](datawa_assign::AdaptiveRunner::with_metrics)),
//! the service joins it, so [`DispatchService::obs_snapshot`] returns one
//! combined assign + stream + service snapshot; otherwise the service
//! carries a private always-attached registry, which is how
//! [`DispatchService::stats`] can source [`ServiceStats::backpressure_flushes`]
//! and [`ServiceStats::backlog_high_water`] from registry counters
//! unconditionally — they report cumulative truth over the whole run, not
//! the instant of the call.
//!
//! [`Session`]: datawa_stream::Session
//! [`Decision`]: datawa_stream::Decision

pub mod dispatch;
pub mod source;

pub use dispatch::{DispatchService, PumpStatus, ServiceConfig, ServiceStats};
pub use source::{
    IngestSource, LiveSource, NetSource, NetSourceHandle, SourceClosed, SourcePoll, WorkloadSource,
};
