//! # datawa-obs — zero-overhead observability for the DATA-WA engine
//!
//! A lock-light metrics layer the rest of the workspace threads through its
//! hot paths: atomic [`Counter`]s and [`Gauge`]s (with high-water marks),
//! log-bucketed latency [`Histogram`]s (p50/p95/p99/max with ≤ 12.5 %
//! relative error, mergeable across threads), a scoped
//! [`SpanTimer`], and a [`MetricsSnapshot`] that renders to JSON through the
//! crate's own [`JsonValue`] model (the vendored serde is a marker stub, so
//! serialization is hand-rolled here).
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
//! The default wiring is one environment toggle:
//! [`MetricsRegistry::from_env`] attaches when `DATAWA_OBS=on|1|true` and
//! detaches otherwise, and `AdaptiveRunner::new` calls it, so exporting
//! `DATAWA_OBS=on` lights up the whole stack with no code changes.
//!
//! ## Pattern
//!
//! ```
//! use datawa_obs::MetricsRegistry;
//!
//! let registry = MetricsRegistry::new(); // or ::from_env() / ::detached()
//! let replans = registry.counter("assign.planning_calls");
//! let latency = registry.histogram("assign.replan_seconds");
//! {
//!     let _span = latency.span(); // records elapsed ns on drop
//!     replans.inc();
//! }
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counters["assign.planning_calls"], 1);
//! let text = snapshot.to_json(); // deterministic key order
//! assert!(datawa_obs::MetricsSnapshot::from_json(&text).is_ok());
//! ```
//!
//! Registration (`counter`/`gauge`/`histogram`) locks a name table and is a
//! cold-path operation: resolve handles once at construction and keep them.
//! Handles are `Arc`s over atomics — clones for the same name share storage,
//! which is how per-tenant sessions and worker threads aggregate without
//! locks.
//!
//! Names are dot-namespaced by owning layer: `assign.*` (planner),
//! `stream.*` (engine), `service.*` (dispatch service), `net.*` (transport —
//! including the fault-tolerance family `net.pump_recoveries`,
//! `net.tenant.<name>.recoveries` and the `net.recovery_seconds` journal
//! replay histogram, exercised by the chaos suite). The registry itself
//! imposes no schema; the convention keeps snapshots diffable across
//! layers. Within `assign.*`:
//!
//! * `assign.reach_rescans` — workers whose reachable list a planning
//!   instant re-derived by scanning the open tasks; `assign.reach_live` —
//!   workers that reached anything at the latest instant.
//! * `assign.stage_ns.reach`, `assign.stage_ns.sequences`,
//!   `assign.stage_ns.tree` (dependency graph, cluster tree and partition
//!   split) and `assign.stage_ns.search` — histograms of the nanoseconds
//!   each stage of a planning call took.
//! * `assign.dispatch_visits` — workers the dispatch loop examined: the
//!   *armed* ones (holding a plan or a positioning hold), not every idle
//!   worker.
//! * `assign.phantom_instants` — planning instants that had a predicted task
//!   inside the lookahead and therefore planned on a copy of the open tasks
//!   instead of the live store.
//! * Three names older than what they count: `assign.partitions_reused` is
//!   the idle workers dropped for reaching nothing,
//!   `assign.partitions_recomputed` every partition searched, and
//!   `assign.cache_hit_pct` the first as a share of both. The planner holds
//!   no plan cache and reuses no plan.

mod hist;
mod json;
mod registry;

pub use hist::{Histogram, HistogramSummary, SpanTimer, BUCKETS, SUB};
pub use json::JsonValue;
pub use registry::{
    parse_obs_toggle, Counter, Gauge, GaugeSnapshot, MetricsRegistry, MetricsSnapshot, OBS_ENV,
};
