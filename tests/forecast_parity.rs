//! Inference parity of the demand-forecast path.
//!
//! Training runs `DemandPredictor::forward` through the autograd graph;
//! live forecasting does not. These tests pin the two to the same bits:
//!
//! * `DdgnnPredictor::predict` / `predict_next` (plain-`Matrix` buffers, last
//!   timestep only, all cells in one product) `==` `forward(..).value()`;
//! * `OnlineForecaster`'s rollout (straight from its rolling windows) `==` a
//!   reference that unfolds the windows into `SeriesExample`s by hand and
//!   calls `forward`, for DDGNN, LSTM and Graph-WaveNet.

use datawa::predict::ddgnn::DdgnnConfig;
use datawa::predict::{predicted_tasks_from, SeriesExample};
use datawa::prelude::*;
use datawa::tensor::Matrix;
use proptest::prelude::*;

/// A value stream with exact zeros and ones among fractions: occurrence bits
/// and fed-back probabilities both occur in a live rollout, and
/// `Matrix::matmul` skips zero left operands.
fn values_strategy() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((0.0f64..1.0, 0usize..4), 120..121).prop_map(|raw| {
        raw.into_iter()
            .map(|(v, kind)| match kind {
                0 => 0.0,
                1 => 1.0,
                _ => v,
            })
            .collect()
    })
}

/// The example whose cell `c` history row `t` is `values[(c·P + t)·k ..]`.
fn example_from(values: &[f64], cells: usize, history_len: usize, k: usize) -> SeriesExample {
    let mut next = values.iter().copied().cycle();
    let history: Vec<Matrix> = (0..cells)
        .map(|_| {
            Matrix::from_vec(
                history_len,
                k,
                next.by_ref().take(history_len * k).collect(),
            )
        })
        .collect();
    let mut snapshot = Matrix::zeros(cells, k);
    for (cell, h) in history.iter().enumerate() {
        snapshot
            .row_mut(cell)
            .copy_from_slice(h.row(history_len - 1));
    }
    SeriesExample {
        history,
        snapshot,
        target: Matrix::zeros(cells, k),
        target_window: history_len,
    }
}

/// Window `t` of the rolling buffer the example corresponds to: row `c` is
/// cell `c`'s history row `t`.
fn windows_of(example: &SeriesExample) -> Vec<Matrix> {
    let (cells, k) = example.snapshot.shape();
    (0..example.history[0].rows())
        .map(|t| {
            let mut window = Matrix::zeros(cells, k);
            for cell in 0..cells {
                window
                    .row_mut(cell)
                    .copy_from_slice(example.history[cell].row(t));
            }
            window
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `history_len` 1 and 2 sit below the kernel (zero-padded taps), 3 at
    /// it, 5 and 7 above; dilation 2 pads even at `history_len` 3.
    #[test]
    fn ddgnn_inference_equals_the_autograd_forward_pass(
        values in values_strategy(),
        cells in 2usize..7,
        k in 2usize..5,
        history_choice in 0usize..5,
        dilation in 1usize..3,
        propagation_steps in 0usize..4,
        dynamic in any::<bool>(),
        seed in 0usize..1_000,
    ) {
        let history_len = [1, 2, 3, 5, 7][history_choice];
        let config = DdgnnConfig {
            hidden: 5,
            embedding: 4,
            alpha: 0.15,
            propagation_steps,
            dilation,
            kernel: 3,
        };
        let mut model = DdgnnPredictor::new(cells, k, config, seed as u64);
        if !dynamic {
            model = model.without_dynamic_adjacency();
        }
        let example = example_from(&values, cells, history_len, k);
        // A few optimiser steps move the biases off zero.
        let mut target = example.clone();
        target.target = example.snapshot.clone();
        let dataset = SeriesDataset {
            spec: SeriesSpec::new(Timestamp(0.0), 1.0, k, history_len),
            cells,
            examples: vec![target],
        };
        model.train(&dataset, &TrainingConfig { epochs: 2, learning_rate: 0.05 });

        let reference = model.forward(&example).value();
        prop_assert_eq!(&model.predict(&example), &reference);
        let mut next = Matrix::filled(cells, k, f64::NAN);
        model.predict_next(&windows_of(&example), &mut next);
        prop_assert_eq!(&next, &reference);
        // The buffers are reused: a second call on other data, then the
        // first again, must not leak state between calls.
        let other = example_from(&values[7..], cells, history_len, k);
        prop_assert_eq!(model.predict(&other), model.forward(&other).value());
        prop_assert_eq!(&model.predict(&example), &reference);
    }
}

const CELLS_PER_SIDE: u32 = 3;
const K: usize = 3;
const HISTORY_LEN: usize = 4;
const DELTA_T: f64 = 5.0;
const VALID_TIME: f64 = 40.0;
/// Untrained sigmoid heads sit around 0.5, so this threshold splits the
/// (cell, bucket) pairs and the emitted set depends on the probabilities.
const THRESHOLD: f64 = 0.5;

fn grid() -> UniformGrid {
    let area = BoundingBox::new(Location::new(0.0, 0.0), Location::new(9.0, 9.0));
    UniformGrid::new(GridSpec::new(area, CELLS_PER_SIDE, CELLS_PER_SIDE))
}

fn spec() -> SeriesSpec {
    SeriesSpec::new(Timestamp(0.0), DELTA_T, K, HISTORY_LEN)
}

fn model(kind: usize, seed: u64) -> Box<dyn DemandPredictor> {
    let cells = (CELLS_PER_SIDE * CELLS_PER_SIDE) as usize;
    match kind {
        0 => Box::new(DdgnnPredictor::with_defaults(cells, K, seed)),
        1 => Box::new(LstmPredictor::new(K, 6, seed)),
        _ => Box::new(GraphWaveNetPredictor::new(cells, K, 6, 4, seed)),
    }
}

/// The forecast of `now` the way `OnlineForecaster::refresh` produced it
/// before it read its windows directly: occurrence windows rebuilt from the
/// arrivals, one `SeriesExample` per step with a `(P, k)` history matrix per
/// cell, the autograd forward pass, predictions fed back as soft occurrence.
fn reference_forecast(
    model: &dyn DemandPredictor,
    arrivals: &[Task],
    now: Timestamp,
    horizon: Duration,
) -> Vec<PredictedTaskInput> {
    let (grid, spec) = (grid(), spec());
    let cells = grid.cell_count();
    let span = spec.window_span();
    let window_of = |t: Timestamp| (t.0 / span).floor() as usize;
    let current = window_of(now);
    if current < HISTORY_LEN {
        return Vec::new();
    }
    let mut recent: Vec<Matrix> = (current - HISTORY_LEN..current)
        .map(|window| {
            let mut occurrence = Matrix::zeros(cells, K);
            for task in arrivals.iter().filter(|t| t.publication.0 <= now.0) {
                if window_of(task.publication) == window {
                    let within = task.publication.0 - window as f64 * span;
                    let bucket = ((within / DELTA_T).floor() as usize).min(K - 1);
                    occurrence.set(grid.cell_of(&task.location).index(), bucket, 1.0);
                }
            }
            occurrence
        })
        .collect();
    let mut forecast = Vec::new();
    for window in current..=window_of(now + horizon).max(current) {
        let mut history = Vec::with_capacity(cells);
        for cell in 0..cells {
            let mut h = Matrix::zeros(HISTORY_LEN, K);
            for (row, m) in recent.iter().enumerate() {
                for j in 0..K {
                    h.set(row, j, m.get(cell, j));
                }
            }
            history.push(h);
        }
        let example = SeriesExample {
            history,
            snapshot: recent.last().expect("history_len >= 1").clone(),
            target: Matrix::zeros(cells, K),
            target_window: window,
        };
        let probabilities = model.forward(&example).value();
        forecast.extend(
            predicted_tasks_from(
                &probabilities,
                &grid,
                &spec,
                Timestamp(window as f64 * span),
                Duration(VALID_TIME),
                THRESHOLD,
            )
            .into_iter()
            .map(PredictedTaskInput::from),
        );
        recent.remove(0);
        recent.push(probabilities);
    }
    forecast
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn online_rollout_equals_the_series_example_reference(
        arrivals in prop::collection::vec((0.0f64..9.0, 0.0f64..9.0, 0.0f64..200.0), 20..60),
        seed in 0usize..1_000,
    ) {
        let mut arrivals: Vec<Task> = arrivals
            .into_iter()
            .map(|(x, y, t)| {
                Task::new(TaskId(0), Location::new(x, y), Timestamp(t), Timestamp(t + VALID_TIME))
            })
            .collect();
        arrivals.sort_by(|a, b| a.publication.0.total_cmp(&b.publication.0));
        let horizon = Duration(60.0);
        let pairs_per_step = (CELLS_PER_SIDE * CELLS_PER_SIDE) as usize * K;
        for kind in 0..3 {
            let mut forecaster = OnlineForecaster::new(
                model(kind, seed as u64),
                grid(),
                spec(),
                OnlineForecastConfig {
                    threshold: THRESHOLD,
                    valid_time: VALID_TIME,
                    refresh_every: 1.0,
                },
            );
            let reference_model = model(kind, seed as u64);
            let mut fed = 0;
            let mut split = false;
            // Longer, shorter, longer rollouts in turn: the rollout scratch
            // is reused across refreshes of different lengths.
            for (now, horizon) in [(70.0, horizon), (110.0, Duration(10.0)), (205.0, horizon)] {
                let now = Timestamp(now);
                while fed < arrivals.len() && arrivals[fed].publication.0 <= now.0 {
                    forecaster.observe(arrivals[fed].publication, &arrivals[fed]);
                    fed += 1;
                }
                let live = forecaster.forecast(now, horizon).to_vec();
                let reference = reference_forecast(reference_model.as_ref(), &arrivals, now, horizon);
                prop_assert_eq!(&live, &reference, "{} diverged at t={}", forecaster.name(), now.0);
                split |= !live.is_empty() && live.len() % pairs_per_step != 0;
            }
            prop_assert_eq!(forecaster.stats().refreshes, 3);
            prop_assert!(split, "threshold never split a window: the comparison is vacuous");
        }
    }
}
