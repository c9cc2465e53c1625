//! Engine configuration, run counters and the one-shot batch conveniences
//! over [`Session`].

use crate::scenario::Workload;
use crate::session::{NullSink, Session};
use datawa_assign::{AdaptiveRunner, ForecastProvider, RunOutcome};

/// Engine knobs: when to re-plan and what happens when a worker leaves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Trigger a re-plan on every `n`-th arrival event (`1` = the paper's
    /// per-arrival setting, `0` = arrivals never trigger planning — combine
    /// with [`EngineConfig::replan_interval`] for purely time-driven
    /// batching). Dispatching still happens at every arrival either way.
    pub replan_every_events: usize,
    /// Also re-plan every `Δt` simulated seconds via
    /// [`Event::ReplanTick`](crate::Event::ReplanTick)s.
    pub replan_interval: Option<f64>,
    /// Whether a worker going offline releases the undone tasks of its
    /// planned sequence back to the pool (under FTA they become claimable by
    /// later fixed plans). Off, a retired worker's FTA reservations are
    /// permanent.
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
}

/// Result of one engine run: the assignment outcome plus engine counters.
#[derive(Debug, Clone)]
pub struct EngineOutcome {
    /// The policy outcome: assigned tasks, planning calls and times,
    /// per-worker tallies.
    pub run: RunOutcome,
    /// Engine-side counters.
    pub stats: EngineStats,
}

/// Whether the `arrivals_seen`-th arrival (0-based) triggers an event-batched
/// re-plan.
#[inline]
pub(crate) fn arrival_triggers_replan(config: &EngineConfig, arrivals_seen: usize) -> bool {
    let n = config.replan_every_events;
    n > 0 && arrivals_seen.is_multiple_of(n)
}

/// One-shot convenience: open a [`Session`] over `runner` and `forecast`,
/// ingest `workload` and close it. Pass a [`StaticForecast`] over a
/// precomputed prediction slice for a fixed oracle, or a live provider that
/// the prediction-aware policies re-query at every planning instant.
///
/// [`StaticForecast`]: datawa_assign::StaticForecast
///
/// # Panics
///
/// On a worker online time or task publication time that is not finite.
pub fn run_workload(
    runner: &AdaptiveRunner,
    workload: &Workload,
    forecast: &mut dyn ForecastProvider,
    config: EngineConfig,
) -> EngineOutcome {
    let mut session = Session::open(runner, forecast, config);
    if let Err(err) = session.ingest_workload(workload) {
        panic!("cannot run the workload: {err}");
    }
    session.close(&mut NullSink)
}
