//! # datawa-net
//!
//! The TCP transport front-end over the `datawa-service` dispatch stack: a
//! hand-rolled length-prefixed binary wire protocol (normatively described
//! in `PROTOCOL.md` at the workspace root), a threaded acceptor that
//! multiplexes many concurrent client connections onto per-tenant dispatch
//! sessions, and admission control that degrades gracefully — retry-after
//! frames and stalest-tenant shedding — instead of dropping events
//! silently.
//!
//! ## Shape
//!
//! * [`wire`] — the [`Frame`] vocabulary and its codec: the engine's event
//!   types (task arrival/expiration, worker online/offline, replan,
//!   advance, close) plus tenant hello/auth, decision, retry-after, error
//!   and closed frames. Total decoding: hostile bytes become typed
//!   [`WireError`]s, never panics.
//! * [`server`] — [`NetServer`]: the acceptor, the per-connection reader
//!   threads, the per-tenant pump threads (each one a
//!   [`DispatchService`](datawa_service::DispatchService) fed by a
//!   [`NetSource`](datawa_service::NetSource)), and the three admission
//!   layers ([connection cap, global shedding, per-tenant
//!   quota](NetConfig)).
//! * [`client`] — [`NetClient`]: a loopback client with a background frame
//!   collector, which is how CI exercises the full stack over
//!   `127.0.0.1` without real network access; and [`ResilientClient`], the
//!   retrying variant that owns its command log and survives transport
//!   faults via capped jittered backoff plus reconnect-with-resume.
//! * [`chaos`] — deterministic fault injection: [`ChaosProxy`], a
//!   frame-aware TCP proxy that executes a seeded [`ChaosPlan`] of
//!   connection resets, torn frames, duplicates and stalls, replayable
//!   from a single seed (the `chaos_smoke` CI harness fixes seed 218).
//!
//! ## Fault tolerance
//!
//! Admitted commands are journaled per tenant before they reach the
//! session; pump threads run supervised (a panicking pump is caught,
//! rebuilt by journal replay, and resumed while clients see typed
//! `Recovering` retry-afters), and reconnecting clients resume from a
//! count-based watermark (`Resume`/`ResumeAck`) so re-ingest is
//! idempotent. `PROTOCOL.md` at the workspace root specifies the frames
//! and semantics; `tests/chaos_recovery.rs` pins crash-recovery output
//! bitwise-equal to the uninterrupted run for every policy × generator.
//!
//! ## Observability
//!
//! Every server carries an attached
//! [`MetricsRegistry`](datawa_obs::MetricsRegistry)
//! ([`NetServer::metrics`]): `net.connections` (gauge), `net.frames_in` /
//! `net.frames_out`, `net.rejected_admission`, the `net.ingest_seconds`
//! latency histogram, and per-tenant `net.tenant.<name>.frames_in` /
//! `.decisions` / `.rejected` counters — alongside every tenant session's
//! engine and planner metrics, since the sessions record into the same
//! registry. Recovery is observable too: `net.pump_recoveries` and
//! per-tenant `net.tenant.<name>.recoveries` count supervised restarts,
//! and the `net.recovery_seconds` histogram times each journal replay.
//!
//! ## Equivalence
//!
//! The transport adds no behaviour: a workload streamed through a loopback
//! connection produces decisions bitwise-identical to the same workload
//! driven through `Session::ingest` directly (pinned per policy and
//! generator by `tests/net_equivalence.rs`).

pub mod chaos;
pub mod client;
pub mod server;
pub mod wire;

pub use chaos::{ChaosPlan, ChaosProxy, Fault};
pub use client::{
    ClientError, ClientOutcome, ClosedSummary, NetClient, ResilientClient, RetryOutcome,
    RetryPolicy,
};
pub use server::{NetConfig, NetServer};
pub use wire::{ErrorCode, Frame, RetryReason, WireError, MAX_FRAME_LEN, PROTOCOL_VERSION};
