//! Live demand forecasting: the model-backed [`ForecastProvider`]
//! implementation and the prediction-record conversion path.
//!
//! The [`ForecastProvider`] trait itself lives in `datawa-assign` (the layer
//! that consumes forecasts); this module supplies
//!
//! * the single sanctioned conversion between the two prediction records —
//!   [`PredictedTask`] (model-facing: cell + confidence) into
//!   [`PredictedTaskInput`] (planning-facing: location + lifetime) — as a
//!   `From` impl, and
//! * [`OnlineForecaster`], which wraps any trained [`DemandPredictor`]
//!   (LSTM / Graph-WaveNet / DDGNN) over a [`UniformGrid`] and keeps the
//!   task multivariate time series of §III-A rolling *incrementally*: every
//!   observed arrival sets one occurrence bit, and the model re-forecasts
//!   the current window on a configurable refresh cadence instead of once
//!   per whole trace.
//!
//! ```
//! use datawa_core::{BoundingBox, Duration, Location, Task, TaskId, Timestamp};
//! use datawa_geo::{GridSpec, UniformGrid};
//! use datawa_predict::{
//!     ForecastProvider, LstmPredictor, OnlineForecastConfig, OnlineForecaster, SeriesSpec,
//! };
//!
//! let area = BoundingBox::new(Location::new(0.0, 0.0), Location::new(4.0, 4.0));
//! let grid = UniformGrid::new(GridSpec::new(area, 2, 2));
//! // ΔT = 5 s, k = 2 buckets per window, 2 history windows per example.
//! let spec = SeriesSpec::new(Timestamp(0.0), 5.0, 2, 2);
//! let mut forecaster = OnlineForecaster::new(
//!     Box::new(LstmPredictor::new(spec.k, 8, 7)),
//!     grid,
//!     spec,
//!     OnlineForecastConfig {
//!         threshold: 0.0, // emit every cell for the demo
//!         valid_time: 40.0,
//!         refresh_every: 10.0,
//!     },
//! );
//!
//! // Feed arrivals as they happen (a live session does this per ingest).
//! for t in [1.0, 6.0, 12.0, 17.0, 23.0] {
//!     let task = Task::new(TaskId(0), Location::new(1.0, 1.0), Timestamp(t), Timestamp(t + 40.0));
//!     forecaster.observe(task.publication, &task);
//! }
//!
//! // Re-query at a planning instant: the forecaster rolls its occurrence
//! // window forward and runs the model for the current ΔT window.
//! let predicted = forecaster.forecast(Timestamp(25.0), Duration(60.0));
//! assert!(!predicted.is_empty());
//! assert_eq!(forecaster.stats().refreshes, 1);
//! ```

use crate::predicted::{predicted_tasks_from, PredictedTask, DEFAULT_THRESHOLD};
use crate::series::SeriesSpec;
use crate::trainer::DemandPredictor;
use datawa_assign::{ForecastProvider, ForecastStats, PredictedTaskInput};
use datawa_core::{Duration, Task, Timestamp};
use datawa_geo::UniformGrid;
use datawa_tensor::Matrix;
use std::collections::VecDeque;

impl From<PredictedTask> for PredictedTaskInput {
    /// The one conversion path from the model-facing record to the
    /// planning-facing record: the grid cell and the confidence are the
    /// prediction layer's business; the planner consumes only where and
    /// when demand is expected.
    fn from(p: PredictedTask) -> PredictedTaskInput {
        PredictedTaskInput {
            location: p.location,
            publication: p.publication,
            expiration: p.expiration,
        }
    }
}

/// Knobs of an [`OnlineForecaster`] beyond the series geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineForecastConfig {
    /// Decision threshold above which a cell/bucket probability becomes a
    /// predicted task (the paper uses 0.85).
    pub threshold: f64,
    /// Lifetime assigned to each predicted task, in seconds (typically the
    /// dataset's task valid time `e − p`).
    pub valid_time: f64,
    /// Minimum simulated seconds between model re-forecasts. Between
    /// refreshes, [`ForecastProvider::forecast`] returns the cached slice,
    /// so planning instants stay cheap even at per-arrival re-planning.
    pub refresh_every: f64,
}

impl Default for OnlineForecastConfig {
    fn default() -> OnlineForecastConfig {
        OnlineForecastConfig {
            threshold: DEFAULT_THRESHOLD,
            valid_time: 40.0,
            refresh_every: 30.0,
        }
    }
}

/// A live, model-backed demand forecaster.
///
/// Maintains the binary occurrence series of every grid cell incrementally
/// (one `(cells × k)` matrix per ΔT·k window, at most `history_len + 1`
/// windows retained), and re-runs the wrapped predictor over the most recent
/// `history_len` *complete* windows to forecast the in-progress window —
/// re-forecasting at most once per [`OnlineForecastConfig::refresh_every`]
/// simulated seconds.
///
/// The wrapped model is used as-is: train it beforehand (for example on a
/// [`SeriesDataset`](crate::SeriesDataset) built from a historical prefix)
/// or hand it over untrained for a cold start.
pub struct OnlineForecaster {
    predictor: Box<dyn DemandPredictor>,
    grid: UniformGrid,
    spec: SeriesSpec,
    config: OnlineForecastConfig,
    /// Occurrence matrices of the retained windows, oldest first; the entry
    /// for window `base_window + i` sits at index `i`. The newest entry is
    /// the in-progress window.
    windows: VecDeque<Matrix>,
    /// Window index of `windows[0]`.
    base_window: usize,
    /// Scratch of the autoregressive rollout, reused across refreshes: the
    /// `history_len` model-input windows followed by one predicted
    /// probability window per forecast step.
    rollout: Vec<Matrix>,
    /// The cached forecast of the last refresh.
    cache: Vec<PredictedTaskInput>,
    last_refresh: Option<Timestamp>,
    stats: ForecastStats,
}

impl OnlineForecaster {
    /// Wraps `predictor` over `grid` with the series geometry the model was
    /// trained for (`spec.t0` anchors window 0 — set it to the start of the
    /// observation horizon, e.g. `-history` when warm-starting on a
    /// historical prefix).
    ///
    /// Panics if the model/series parameters are degenerate (via
    /// [`SeriesSpec`]'s own invariants) or the config carries non-positive
    /// cadence/lifetime values.
    #[must_use]
    pub fn new(
        predictor: Box<dyn DemandPredictor>,
        grid: UniformGrid,
        spec: SeriesSpec,
        config: OnlineForecastConfig,
    ) -> OnlineForecaster {
        assert!(
            config.refresh_every.is_finite() && config.refresh_every > 0.0,
            "refresh cadence must be a positive finite number of seconds"
        );
        assert!(
            config.valid_time.is_finite() && config.valid_time > 0.0,
            "predicted-task valid time must be a positive finite number of seconds"
        );
        OnlineForecaster {
            predictor,
            grid,
            spec,
            config,
            windows: VecDeque::new(),
            base_window: 0,
            rollout: Vec::new(),
            cache: Vec::new(),
            last_refresh: None,
            stats: ForecastStats::default(),
        }
    }

    /// Feeds a whole historical task store through
    /// [`ForecastProvider::observe`] (warm start before a live session
    /// begins). Tasks published before `spec.t0` are ignored.
    pub fn warm_up(&mut self, tasks: &datawa_core::TaskStore) {
        for task in tasks.iter() {
            self.observe(task.publication, task);
        }
    }

    /// The prediction grid.
    pub fn grid(&self) -> &UniformGrid {
        &self.grid
    }

    /// The series geometry.
    pub fn spec(&self) -> SeriesSpec {
        self.spec
    }

    /// The cached forecast of the last refresh (what the next
    /// [`ForecastProvider::forecast`] call returns unless the cadence
    /// triggers a re-forecast first).
    pub fn latest_forecast(&self) -> &[PredictedTaskInput] {
        &self.cache
    }

    /// Index of the window containing `t`, or `None` before the series
    /// origin.
    fn window_of(&self, t: Timestamp) -> Option<usize> {
        let offset = (t - self.spec.t0).seconds();
        if offset < 0.0 {
            return None;
        }
        Some((offset / self.spec.window_span()).floor() as usize)
    }

    /// Ensures the buffer covers `window`, pushing zero matrices for skipped
    /// quiet windows and dropping windows that fell out of the history.
    fn roll_to(&mut self, window: usize) {
        let cells = self.grid.cell_count();
        if self.windows.is_empty() {
            // First observation: backfill just enough (empty) history.
            self.base_window = window.saturating_sub(self.spec.history_len);
        }
        while self.base_window + self.windows.len() <= window {
            self.windows.push_back(Matrix::zeros(cells, self.spec.k));
        }
        // Retain the in-progress window plus `history_len` complete ones.
        while self.windows.len() > self.spec.history_len + 1 {
            self.windows.pop_front();
            self.base_window += 1;
        }
    }

    /// Re-runs the model and rebuilds the cached forecast: the window
    /// containing `now` is predicted from the last `history_len` complete
    /// occurrence windows, then the rollout continues autoregressively —
    /// each predicted probability window re-enters the history as soft
    /// pseudo-occurrence — until the forecast covers `horizon` past `now`.
    /// No-op (empty forecast) while fewer than `history_len` complete
    /// windows have been observed.
    fn refresh(&mut self, now: Timestamp, horizon: Duration) {
        self.last_refresh = Some(now);
        self.stats.refreshes += 1;
        self.cache.clear();
        let Some(current) = self.window_of(now) else {
            return;
        };
        self.roll_to(current);
        let p = self.spec.history_len;
        if current < p || self.base_window + p > current {
            return; // not enough completed history yet
        }
        let cells = self.grid.cell_count();
        let k = self.spec.k;
        let span = self.spec.window_span();
        // Cover every window the lookahead horizon touches.
        let last_window = self
            .window_of(now + horizon)
            .unwrap_or(current)
            .max(current);
        let steps = last_window - current + 1;
        // Rolling model input: the last `p` complete windows (buffer indices
        // `current - p - base .. current - base`), oldest first, copied to
        // the head of the rollout scratch; step `i` reads scratch windows
        // `i .. i + p` and writes window `p + i`, so each prediction
        // re-enters the history of the steps after it.
        let start = current - p - self.base_window;
        while self.rollout.len() < p + steps {
            self.rollout.push(Matrix::zeros(cells, k));
        }
        for (slot, window) in self
            .rollout
            .iter_mut()
            .zip(self.windows.range(start..start + p))
        {
            slot.data_mut().copy_from_slice(window.data());
        }
        for step in 0..steps {
            let (history, predicted) = self.rollout.split_at_mut(p + step);
            let probabilities = &mut predicted[0];
            self.predictor.predict_next(&history[step..], probabilities);
            let window_start = self.spec.t0 + Duration((current + step) as f64 * span);
            self.cache.extend(
                predicted_tasks_from(
                    probabilities,
                    &self.grid,
                    &self.spec,
                    window_start,
                    Duration(self.config.valid_time),
                    self.config.threshold,
                )
                .into_iter()
                .map(PredictedTaskInput::from),
            );
        }
    }
}

impl ForecastProvider for OnlineForecaster {
    fn name(&self) -> &str {
        self.predictor.name()
    }

    fn observe(&mut self, _now: Timestamp, task: &Task) {
        self.stats.observed += 1;
        let Some(window) = self.window_of(task.publication) else {
            return;
        };
        self.roll_to(window);
        if window < self.base_window {
            return; // older than the retained history (late replay)
        }
        let offset = (task.publication - self.spec.t0).seconds();
        let within = offset - window as f64 * self.spec.window_span();
        let bucket = ((within / self.spec.delta_t).floor() as usize).min(self.spec.k - 1);
        let cell = self.grid.cell_of(&task.location).index();
        self.windows[window - self.base_window].set(cell, bucket, 1.0);
    }

    fn forecast(&mut self, now: Timestamp, horizon: Duration) -> &[PredictedTaskInput] {
        self.stats.queries += 1;
        let due = match self.last_refresh {
            None => true,
            Some(last) => (now - last).seconds() >= self.config.refresh_every,
        };
        if due {
            self.refresh(now, horizon);
            self.stats.forecast_tasks = self.cache.len();
        }
        &self.cache
    }

    fn stats(&self) -> ForecastStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lstm::LstmPredictor;
    use datawa_core::{BoundingBox, Location, TaskId};
    use datawa_geo::GridSpec;

    fn grid2x2() -> UniformGrid {
        let area = BoundingBox::new(Location::new(0.0, 0.0), Location::new(4.0, 4.0));
        UniformGrid::new(GridSpec::new(area, 2, 2))
    }

    fn task_at(x: f64, y: f64, t: f64) -> Task {
        Task::new(
            TaskId(0),
            Location::new(x, y),
            Timestamp(t),
            Timestamp(t + 40.0),
        )
    }

    fn forecaster(threshold: f64, refresh_every: f64) -> OnlineForecaster {
        let spec = SeriesSpec::new(Timestamp(0.0), 5.0, 2, 2); // 10 s windows
        OnlineForecaster::new(
            Box::new(LstmPredictor::new(spec.k, 8, 3)),
            grid2x2(),
            spec,
            OnlineForecastConfig {
                threshold,
                valid_time: 40.0,
                refresh_every,
            },
        )
    }

    #[test]
    fn conversion_path_preserves_the_planning_fields() {
        use datawa_geo::CellId;
        let p = PredictedTask {
            cell: CellId(3),
            location: Location::new(3.0, 3.0),
            publication: Timestamp(10.0),
            expiration: Timestamp(50.0),
            probability: 0.9,
        };
        let input = PredictedTaskInput::from(p);
        assert_eq!(input.location, p.location);
        assert_eq!(input.publication, p.publication);
        assert_eq!(input.expiration, p.expiration);
    }

    #[test]
    fn forecast_is_empty_until_enough_history_accumulates() {
        let mut f = forecaster(0.0, 1.0);
        f.observe(Timestamp(1.0), &task_at(1.0, 1.0, 1.0));
        // Still inside window 0: no complete history.
        assert!(f.forecast(Timestamp(5.0), Duration(60.0)).is_empty());
        // Two complete windows later, the model can forecast.
        f.observe(Timestamp(12.0), &task_at(1.0, 1.0, 12.0));
        assert!(!f.forecast(Timestamp(25.0), Duration(60.0)).is_empty());
        assert!(f.stats().refreshes >= 2);
        assert_eq!(f.stats().observed, 2);
    }

    #[test]
    fn refresh_cadence_bounds_model_invocations() {
        let mut f = forecaster(0.0, 100.0);
        for t in 0..30 {
            f.observe(Timestamp(t as f64), &task_at(1.0, 1.0, t as f64));
        }
        // Many planning instants inside one cadence period: one refresh.
        for t in [30.0, 31.0, 40.0, 75.0, 99.0] {
            let _ = f.forecast(Timestamp(t), Duration(60.0));
        }
        assert_eq!(f.stats().refreshes, 1);
        assert_eq!(f.stats().queries, 5);
        // Crossing the cadence boundary triggers exactly one more.
        let _ = f.forecast(Timestamp(131.0), Duration(60.0));
        assert_eq!(f.stats().refreshes, 2);
    }

    #[test]
    fn forecast_covers_the_lookahead_horizon() {
        let mut f = forecaster(0.0, 1.0);
        for t in [1.0, 7.0, 12.0, 18.0, 22.0] {
            f.observe(Timestamp(t), &task_at(1.0, 1.0, t));
        }
        let now = Timestamp(25.0); // inside window 2 ([20, 30))
        let predicted = f.latest_and(now);
        // The rollout spans the current window through the window containing
        // now + horizon = 85, i.e. windows 2..=8 ([20, 90)).
        for p in &predicted {
            assert!(p.publication.0 >= 20.0 && p.publication.0 < 90.0);
            assert!(p.expiration.0 > p.publication.0);
        }
        assert!(
            predicted.iter().any(|p| p.publication.0 > 25.0 + 30.0),
            "autoregressive rollout must reach past the first window"
        );
        // threshold 0 → every (cell, bucket) pair of all 7 windows.
        assert_eq!(predicted.len(), 7 * 4 * 2);
    }

    impl OnlineForecaster {
        /// Test helper: forecast then clone the slice out of the borrow.
        fn latest_and(&mut self, now: Timestamp) -> Vec<PredictedTaskInput> {
            self.forecast(now, Duration(60.0)).to_vec()
        }
    }

    #[test]
    fn quiet_periods_backfill_zero_windows() {
        let mut f = forecaster(0.0, 1.0);
        f.observe(Timestamp(1.0), &task_at(1.0, 1.0, 1.0));
        // A long quiet gap: the roll must insert empty windows, not panic.
        f.observe(Timestamp(500.0), &task_at(3.0, 3.0, 500.0));
        assert!(!f.latest_and(Timestamp(505.0)).is_empty());
    }

    #[test]
    fn warm_up_replays_a_historical_store() {
        let mut store = datawa_core::TaskStore::new();
        for t in 0..20 {
            store.insert_with_location(
                Location::new(1.0, 1.0),
                Timestamp(t as f64),
                Timestamp(t as f64 + 40.0),
            );
        }
        let mut f = forecaster(0.0, 1.0);
        f.warm_up(&store);
        assert_eq!(f.stats().observed, 20);
        assert!(!f.latest_and(Timestamp(21.0)).is_empty());
    }

    #[test]
    #[should_panic(expected = "refresh cadence")]
    fn non_positive_cadence_is_rejected() {
        let _ = forecaster(0.5, 0.0);
    }
}
