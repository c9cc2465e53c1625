//! The pluggable demand-forecast API consumed by the planning layer.
//!
//! Historically the adaptive runner received its demand predictions as one
//! immutable `&[PredictedTaskInput]` slice fixed at `start`/`run` time — a
//! whole-trace oracle that a live session could never update. The
//! [`ForecastProvider`] trait replaces that seam: the streaming drivers feed
//! every task arrival into the provider through
//! [`ForecastProvider::observe`], and the runner re-queries
//! [`ForecastProvider::forecast`] at every planning instant, so a provider
//! may refresh its view of near-future demand as the distribution shifts
//! mid-stream.
//!
//! Two families of implementations exist:
//!
//! * [`StaticForecast`] (this crate) wraps a precomputed prediction slice and
//!   returns it unchanged at every query — the bitwise-parity bridge to the
//!   pre-redesign engine. Every replay/equivalence pin in the workspace runs
//!   through it.
//! * `OnlineForecaster` (in `datawa-predict`, which owns the models)
//!   maintains a rolling per-cell occurrence window from the observed
//!   arrivals and re-runs a trained demand predictor on a configurable
//!   refresh cadence.
//!
//! ## Record ownership
//!
//! The planning layer owns [`PredictedTaskInput`] (location + lifetime — the
//! minimum the planner consumes); the prediction layer owns
//! `datawa_predict::PredictedTask` (which additionally carries the grid cell
//! and the model confidence). `datawa-predict` provides the single
//! conversion path between them (`impl From<PredictedTask> for
//! PredictedTaskInput`); nothing else should copy the fields by hand.

use crate::adaptive::PredictedTaskInput;
use datawa_core::{Duration, Task, Timestamp};

/// Counters describing a provider's activity so far. All fields accumulate
/// monotonically except [`ForecastStats::forecast_tasks`], which reflects the
/// latest forecast.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForecastStats {
    /// Task arrivals fed through [`ForecastProvider::observe`].
    pub observed: usize,
    /// [`ForecastProvider::forecast`] queries answered (one per planning
    /// instant of a prediction-aware policy).
    pub queries: usize,
    /// Model re-forecasts actually performed (always 0 for
    /// [`StaticForecast`]; bounded by the refresh cadence for online
    /// providers).
    pub refreshes: usize,
    /// Predicted tasks in the latest forecast.
    pub forecast_tasks: usize,
}

/// A refreshable source of near-future demand predictions.
///
/// Drivers push every task arrival into the provider via `observe`; the
/// runner pulls a fresh prediction slice via `forecast` at every planning
/// instant of a prediction-aware policy ([`PolicyKind::uses_prediction`]).
/// The runner applies its own lookahead filtering on top of the returned
/// slice (only predictions publishing inside `(now, now + lookahead]` and
/// not yet expired take part in planning), so providers may return their
/// whole current forecast without trimming it to the horizon.
///
/// [`PolicyKind::uses_prediction`]: crate::PolicyKind::uses_prediction
pub trait ForecastProvider {
    /// Human-readable provider name (used in service/experiment reports).
    fn name(&self) -> &str;

    /// Feeds one observed task arrival at time `now` (its publication
    /// instant). Called by the streaming drivers for *every* arrival, under
    /// every policy, so a provider's occurrence history stays complete even
    /// while a non-predictive policy runs.
    fn observe(&mut self, now: Timestamp, task: &Task);

    /// Returns the current forecast of near-future demand as of `now`.
    /// `horizon` is the runner's prediction lookahead — a hint that lets
    /// providers bound how far ahead they materialise predictions; the
    /// runner filters the returned slice to the horizon either way.
    fn forecast(&mut self, now: Timestamp, horizon: Duration) -> &[PredictedTaskInput];

    /// Activity counters so far.
    fn stats(&self) -> ForecastStats;
}

/// The whole-trace oracle bridge: wraps a precomputed prediction slice and
/// returns it unchanged at every query.
///
/// This is bitwise-identical to the pre-redesign engine, which baked the
/// same slice into the runner at start time and filtered it at every
/// planning instant — the filtering now happens on the `forecast` return
/// value instead, over the same elements in the same order.
#[derive(Debug, Clone, Default)]
pub struct StaticForecast {
    predicted: Vec<PredictedTaskInput>,
    observed: usize,
    queries: usize,
}

impl StaticForecast {
    /// Wraps an owned prediction list.
    #[must_use]
    pub fn new(predicted: Vec<PredictedTaskInput>) -> StaticForecast {
        StaticForecast {
            predicted,
            observed: 0,
            queries: 0,
        }
    }

    /// Copies a borrowed prediction slice (the signature every pre-redesign
    /// call site carried).
    #[must_use]
    pub fn from_slice(predicted: &[PredictedTaskInput]) -> StaticForecast {
        StaticForecast::new(predicted.to_vec())
    }

    /// The wrapped predictions.
    pub fn predicted(&self) -> &[PredictedTaskInput] {
        &self.predicted
    }
}

impl ForecastProvider for StaticForecast {
    fn name(&self) -> &str {
        "static"
    }

    fn observe(&mut self, _now: Timestamp, _task: &Task) {
        self.observed += 1;
    }

    fn forecast(&mut self, _now: Timestamp, _horizon: Duration) -> &[PredictedTaskInput] {
        self.queries += 1;
        &self.predicted
    }

    fn stats(&self) -> ForecastStats {
        ForecastStats {
            observed: self.observed,
            queries: self.queries,
            refreshes: 0,
            forecast_tasks: self.predicted.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datawa_core::{Location, TaskId};

    fn input(x: f64, p: f64) -> PredictedTaskInput {
        PredictedTaskInput {
            location: Location::new(x, 0.0),
            publication: Timestamp(p),
            expiration: Timestamp(p + 40.0),
        }
    }

    #[test]
    fn static_forecast_returns_the_wrapped_slice_verbatim() {
        let predicted = vec![input(1.0, 10.0), input(2.0, 20.0)];
        let mut f = StaticForecast::new(predicted.clone());
        let out = f.forecast(Timestamp(0.0), Duration(60.0));
        assert_eq!(out, &predicted[..]);
        // Re-querying at a later instant returns the same slice: the static
        // provider is exactly the old baked-in oracle.
        let out = f.forecast(Timestamp(500.0), Duration(60.0));
        assert_eq!(out, &predicted[..]);
        assert_eq!(f.stats().queries, 2);
        assert_eq!(f.stats().refreshes, 0);
        assert_eq!(f.stats().forecast_tasks, 2);
    }

    #[test]
    fn observations_are_counted_but_change_nothing() {
        let mut f = StaticForecast::from_slice(&[input(1.0, 10.0)]);
        let t = Task::new(
            TaskId(0),
            Location::new(0.0, 0.0),
            Timestamp(1.0),
            Timestamp(2.0),
        );
        f.observe(t.publication, &t);
        f.observe(t.publication, &t);
        assert_eq!(f.stats().observed, 2);
        assert_eq!(f.forecast(Timestamp(0.0), Duration(1.0)).len(), 1);
    }
}
