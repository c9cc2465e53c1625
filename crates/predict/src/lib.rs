//! # datawa-predict
//!
//! Task demand prediction (§III of the DATA-WA paper).
//!
//! The study area is partitioned into a uniform grid (`datawa-geo`); the task
//! history of every cell becomes a *task multivariate time series* of binary
//! occurrence vectors (Eq. 2). Three predictors forecast the next occurrence
//! vector of every cell:
//!
//! * [`LstmPredictor`] — the LSTM baseline of §V-B.1;
//! * [`GraphWaveNetPredictor`] — the Graph-WaveNet baseline (static
//!   self-adaptive adjacency + gated temporal convolution);
//! * [`DdgnnPredictor`] — the proposed Dynamic Dependency-based Graph Neural
//!   Network: a demand-dependency learning module that infers a dynamic
//!   adjacency matrix from the current snapshot (Eq. 4–6), gated dilated
//!   causal temporal convolution (Eq. 7) and APPNP propagation (Eq. 8–9).
//!
//! Predictions above a confidence threshold are converted into *predicted
//! tasks* (located at the centre of their grid cell) that the assignment layer
//! plans for ahead of time (DTA+TP and DATA-WA).
//!
//! ## Live forecasting
//!
//! Batch prediction over a whole trace is the evaluation path; production
//! sessions forecast *live* through the [`ForecastProvider`] API (the trait
//! lives in `datawa-assign`, the consumer layer; this crate re-exports it
//! alongside the model-backed implementation). [`OnlineForecaster`] wraps
//! any trained [`DemandPredictor`] over a [`UniformGrid`](datawa_geo::UniformGrid),
//! maintains the
//! per-cell occurrence series incrementally from the observed arrivals, and
//! re-forecasts the current ΔT window on a configurable refresh cadence —
//! so a long-lived dispatch session tracks demand drift instead of replaying
//! a frozen whole-trace oracle. The worked example below trains a DDGNN on a
//! historical prefix and then lets the forecaster take over online:
//!
//! ```
//! use datawa_core::{BoundingBox, Duration, Location, Task, TaskId, Timestamp};
//! use datawa_geo::{GridSpec, UniformGrid};
//! use datawa_predict::{
//!     DdgnnPredictor, DemandPredictor, ForecastProvider, OnlineForecastConfig,
//!     OnlineForecaster, SeriesDataset, SeriesSpec, TrainingConfig,
//! };
//!
//! // A historical prefix of task publications (here: one cell drumming
//! // every ΔT) becomes the training series …
//! let area = BoundingBox::new(Location::new(0.0, 0.0), Location::new(4.0, 4.0));
//! let grid = UniformGrid::new(GridSpec::new(area, 2, 2));
//! let spec = SeriesSpec::new(Timestamp(0.0), 5.0, 2, 2);
//! let mut history = datawa_core::TaskStore::new();
//! for t in 0..40 {
//!     history.insert_with_location(
//!         Location::new(1.0, 1.0),
//!         Timestamp(t as f64 * 5.0),
//!         Timestamp(t as f64 * 5.0 + 40.0),
//!     );
//! }
//! let dataset = SeriesDataset::build(&history, &grid, spec, Timestamp(200.0));
//! let mut model = DdgnnPredictor::with_defaults(grid.cell_count(), spec.k, 7);
//! model.train(&dataset, &TrainingConfig { epochs: 2, learning_rate: 0.02 });
//!
//! // … and the trained model goes live: warm-start on the same prefix,
//! // then observe arrivals / re-forecast as the session advances.
//! let cell_buckets = grid.cell_count() * spec.k;
//! let mut forecaster = OnlineForecaster::new(
//!     Box::new(model),
//!     grid,
//!     spec,
//!     OnlineForecastConfig { threshold: 0.2, ..OnlineForecastConfig::default() },
//! );
//! forecaster.warm_up(&history);
//! let task = Task::new(TaskId(0), Location::new(1.0, 1.0), Timestamp(201.0), Timestamp(241.0));
//! forecaster.observe(task.publication, &task);
//! let predicted = forecaster.forecast(Timestamp(205.0), Duration(60.0));
//! // The rollout covers every ΔT·k window the 60 s lookahead touches.
//! assert!(predicted.len() <= 7 * cell_buckets);
//! assert_eq!(forecaster.stats().refreshes, 1);
//! ```
//!
//! A `datawa_stream::Session` (or the `datawa-service` pump) accepts the
//! forecaster wherever it accepts a
//! [`StaticForecast`]: pass `&mut forecaster`
//! to `Session::open` and every ingested arrival flows into
//! [`ForecastProvider::observe`] automatically while every planning instant
//! of a prediction-aware policy re-queries
//! [`ForecastProvider::forecast`].

pub mod ddgnn;
pub mod dependency;
pub mod forecast;
pub mod graph_wavenet;
pub mod lstm;
pub mod metrics;
pub mod predicted;
pub mod series;
pub mod trainer;

pub use ddgnn::DdgnnPredictor;
pub use dependency::DependencyLearner;
pub use forecast::{OnlineForecastConfig, OnlineForecaster};
pub use graph_wavenet::GraphWaveNetPredictor;
pub use lstm::LstmPredictor;
pub use metrics::{average_precision, precision_recall_at};
pub use predicted::{predicted_tasks_from, PredictedTask};
pub use series::{SeriesDataset, SeriesExample, SeriesSpec};
pub use trainer::{DemandPredictor, EvaluationReport, TrainingConfig};

// The forecast API surface, re-exported from the consumer layer so
// prediction-side users need only this crate.
pub use datawa_assign::{ForecastProvider, ForecastStats, StaticForecast};

use datawa_tensor::Matrix;

/// Gathers the last-timestep causal unfold of every cell: the only row of a
/// gated temporal convolution (Eq. 7) that the graph predictors read, since
/// they keep each cell's newest timestep alone. Row `cell` of `unfolded`,
/// `(M, k·kernel)`, becomes `[x_t, x_{t−d}, …, x_{t−(kernel−1)·d}]` for the
/// cell's newest occurrence vector `x_t` and dilation `d`.
/// `latest(cell, age)` is the cell's vector `age` timesteps before its
/// newest one, or `None` before its history starts, where the tap is zero
/// (the causal padding).
pub(crate) fn unfold_last_timestep<'a>(
    kernel: usize,
    dilation: usize,
    latest: impl Fn(usize, usize) -> Option<&'a [f64]>,
    unfolded: &mut Matrix,
) {
    let k = unfolded.cols() / kernel;
    for cell in 0..unfolded.rows() {
        let row = unfolded.row_mut(cell);
        for tap in 0..kernel {
            let dst = &mut row[tap * k..(tap + 1) * k];
            match latest(cell, tap * dilation) {
                Some(src) => dst.copy_from_slice(src),
                None => dst.fill(0.0),
            }
        }
    }
}

/// [`unfold_last_timestep`] of an example's per-cell histories, as a new
/// `(M, k·kernel)` matrix.
pub(crate) fn unfold_example(example: &SeriesExample, kernel: usize, dilation: usize) -> Matrix {
    let mut unfolded = Matrix::zeros(example.history.len(), example.snapshot.cols() * kernel);
    unfold_last_timestep(kernel, dilation, history_taps(example), &mut unfolded);
    unfolded
}

/// The `latest` of [`unfold_last_timestep`] over an example's histories.
pub(crate) fn history_taps<'a>(
    example: &'a SeriesExample,
) -> impl Fn(usize, usize) -> Option<&'a [f64]> + 'a {
    move |cell, age| {
        let history = &example.history[cell];
        (age < history.rows()).then(|| history.row(history.rows() - 1 - age))
    }
}

#[cfg(test)]
mod unfold_tests {
    use super::*;

    #[test]
    fn last_timestep_unfold_is_the_lagged_concat_with_zero_padding() {
        // Kernel 3 at dilation 2 reads ages 0, 2 and 4: cell 0 meets the
        // padding at its third tap, cell 1 at its second; the buffer's old
        // contents are overwritten.
        let example = SeriesExample {
            history: vec![
                Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]),
                Matrix::from_rows(&[&[7.0, 8.0]]),
            ],
            snapshot: Matrix::zeros(2, 2),
            target: Matrix::zeros(2, 2),
            target_window: 3,
        };
        let mut unfolded = Matrix::filled(2, 6, f64::NAN);
        unfold_last_timestep(3, 2, history_taps(&example), &mut unfolded);
        assert_eq!(unfolded.row(0), &[5.0, 6.0, 1.0, 2.0, 0.0, 0.0]);
        assert_eq!(unfolded.row(1), &[7.0, 8.0, 0.0, 0.0, 0.0, 0.0]);
        let dense = unfold_example(&example, 3, 1);
        assert_eq!(dense.row(0), &[5.0, 6.0, 3.0, 4.0, 1.0, 2.0]);
    }
}
