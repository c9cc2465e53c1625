//! # datawa-obs — zero-overhead observability for the DATA-WA engine
//!
//! A lock-light metrics layer the rest of the workspace threads through its
//! hot paths: atomic [`Counter`]s and [`Gauge`]s (with high-water marks),
//! log-bucketed latency [`Histogram`]s (p50/p95/p99/max with ≤ 12.5 %
//! relative error, mergeable across threads), a scoped
//! [`SpanTimer`], and a [`MetricsSnapshot`] that copies them all out.
//!
//! ## Zero overhead when nobody is watching
//!
//! Everything hangs off a [`MetricsRegistry`] that is either *attached* or
//! *detached*. A detached registry hands out inert handles: `inc`, `set` and
//! `record` reduce to a branch on a `None`, and [`Histogram::span`] never
//! reads the clock. Instrumented code therefore keeps its handles
//! unconditionally, and the workspace equivalence tests pin that attaching a
//! registry does not change assignment output bitwise.
//!
//! Nothing attaches by default and nothing reads the environment:
//! `AdaptiveRunner::new` starts detached, and a caller that wants numbers
//! passes an attached registry in (`AdaptiveRunner::with_metrics`), which
//! every layer above the runner then records into.
//!
//! ## Pattern
//!
//! ```
//! use datawa_obs::MetricsRegistry;
//!
//! let registry = MetricsRegistry::new(); // or ::detached()
//! let replans = registry.counter("assign.planning_calls");
//! let latency = registry.histogram("assign.replan_seconds");
//! {
//!     let _span = latency.span(); // records elapsed ns on drop
//!     replans.inc();
//! }
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counters["assign.planning_calls"], 1);
//! ```
//!
//! Registration (`counter`/`gauge`/`histogram`) locks a name table and is a
//! cold-path operation: resolve handles once at construction and keep them.
//! Handles are `Arc`s over atomics — clones for the same name share storage,
//! which is how per-tenant sessions and worker threads aggregate without
//! locks.
//!
//! ## Namespace
//!
//! Names are dot-namespaced by owning layer, and the list below is the
//! catalogue: `tests/obs_namespace.rs` holds it against every name the
//! workspace registers, both ways. A segment written `<t>` is a tenant's
//! name. The registry itself imposes no schema; the convention keeps
//! snapshots diffable across layers.
//!
//! **`assign.*` — the planner and the adaptive runner.**
//!
//! * `assign.planning_calls` — planning instants; `assign.replan_seconds` —
//!   the latency of each.
//! * `assign.stage_ns.reach`, `assign.stage_ns.sequences`,
//!   `assign.stage_ns.tree` (dependency graph, cluster tree and partition
//!   split) and `assign.stage_ns.search` — histograms of the nanoseconds
//!   each stage of a planning call took.
//! * `assign.reach_rescans` — workers whose reachable list a planning
//!   instant re-derived by scanning the open tasks. A list merged from its
//!   surviving members and the newly added tasks that reach its worker is
//!   not a rescan. `assign.reach_live` — workers that reached anything at the
//!   latest instant.
//! * `assign.search_nodes` — search nodes expanded across all partitions.
//! * `assign.partitions` and `assign.partition_workers` — the partitions of
//!   the latest instant and the workers in its largest (high-water: the
//!   run's peak).
//! * `assign.open_tasks` and `assign.available_workers` — open unserved
//!   tasks and idle available workers at the latest time instance.
//! * `assign.dispatches` — real tasks dispatched; `assign.dispatch_visits` —
//!   workers the dispatch loop examined: the *armed* ones (holding a plan or
//!   a positioning hold), not every idle worker.
//! * `assign.phantom_instants` — planning instants that had a predicted task
//!   inside the lookahead and therefore planned on a copy of the open tasks
//!   instead of the live store.
//! * Three names older than what they count: `assign.partitions_reused` is
//!   the idle workers dropped for reaching nothing,
//!   `assign.partitions_recomputed` every partition searched, and
//!   `assign.cache_hit_pct` the first as a share of both. The planner holds
//!   no plan cache and reuses no plan.
//!
//! **`forecast.*` — the run's forecast provider.** `forecast.observed`,
//! `forecast.queries` and `forecast.refreshes`: its activity counters,
//! mirrored into gauges after each planning instant.
//!
//! **`stream.*` — the session.** `stream.ingested_events` (events accepted),
//! `stream.events_processed` (events fired), `stream.replan_ticks`,
//! `stream.decisions` (decisions emitted) and `stream.queue_depth` (pending
//! events; high-water: the ingest burst peak).
//!
//! **`service.*` — the dispatch service.** `service.ingested` (arrivals
//! admitted), `service.waits` (quiet periods seen from the source),
//! `service.backpressure_stalls`, `service.backlog` (arrivals admitted since
//! the session last advanced) and `service.pump_seconds` (pump latency).
//!
//! **`net.*` — the transport.** `net.connections`, `net.frames_in`,
//! `net.frames_out`, `net.decision_writes` (one per write of a pump's
//! decision outbox, so `net.frames_out` over it is about the decision
//! frames per write), `net.rejected_admission` and `net.ingest_seconds`; per
//! tenant `net.tenant.<t>.frames_in`, `net.tenant.<t>.rejected` and
//! `net.tenant.<t>.decisions`; and the fault-tolerance family
//! `net.pump_recoveries`, `net.tenant.<t>.recoveries` and the
//! `net.recovery_seconds` journal-replay histogram, exercised by the chaos
//! suite.

mod hist;
mod registry;

pub use hist::{Histogram, HistogramSummary, SpanTimer, BUCKETS, SUB};
pub use registry::{Counter, Gauge, GaugeSnapshot, MetricsRegistry, MetricsSnapshot};
