//! Golden digest of the DDGNN's output bits at the production geometry.
//!
//! `forecast_parity` holds the inference path against the autograd forward
//! pass of the same build, so a kernel change that moves both paths' bits at
//! once passes it. This suite pins the bits against *earlier commits*: the
//! geometry `yueche-datawa` forecasts at (a 6×6 grid, `k` = 3,
//! `history_len` 6, the default `DdgnnConfig`), a model trained for one
//! epoch at a fixed seed on the historical hour of a scaled Yueche trace,
//! and an FNV-1a digest over the `f64` bits of
//!
//! * `predict` and `predict_next` on every series example of the trace
//!   (history and horizon), and
//! * every step of two live `OnlineForecaster` rollouts: one right after
//!   the warm-up, one ten minutes into the horizon.
//!
//! A refactor of the tensor kernels or the DDGNN inference path that promises
//! "every probability bit-identical" must leave this file passing unchanged.
//!
//! The model goes through libm `tanh` and `exp`, whose last bit no standard
//! pins, so the digests hold for the platform they were written on (x86-64
//! Linux with glibc) and the test is ignored elsewhere. A deliberate change
//! to the model's arithmetic regenerates them: a mismatch prints the actual
//! digests.

use datawa::predict::SeriesExample;
use datawa::prelude::*;
use datawa::sim::{build_series, prediction_grid};
use datawa::tensor::{Matrix, Var};
use std::cell::Cell;
use std::rc::Rc;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

const SEED: u64 = 77003;

/// Folds the bits of every element of `m`, row-major, into `digest`.
fn fold(digest: u64, m: &Matrix) -> u64 {
    m.data()
        .iter()
        .fold(digest, |d, v| (d ^ v.to_bits()).wrapping_mul(FNV_PRIME))
}

/// The occurrence windows an example unfolds from, oldest first: row `c` of
/// window `t` is cell `c`'s history row `t`.
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

/// Passes every call through to the model and folds each rollout step's
/// probabilities into a shared digest.
struct Recording {
    model: DdgnnPredictor,
    digest: Rc<Cell<u64>>,
    steps: Rc<Cell<usize>>,
}

impl DemandPredictor for Recording {
    fn name(&self) -> &'static str {
        self.model.name()
    }

    fn parameters(&self) -> Vec<Var> {
        self.model.parameters()
    }

    fn forward(&self, example: &SeriesExample) -> Var {
        self.model.forward(example)
    }

    fn predict(&self, example: &SeriesExample) -> Matrix {
        self.model.predict(example)
    }

    fn predict_next(&self, recent: &[Matrix], out: &mut Matrix) {
        self.model.predict_next(recent, out);
        self.digest.set(fold(self.digest.get(), out));
        self.steps.set(self.steps.get() + 1);
    }
}

#[test]
#[cfg_attr(
    not(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu")),
    ignore = "the digests pin glibc's tanh and exp on x86-64"
)]
fn ddgnn_probabilities_match_the_golden_digests() {
    let trace = SyntheticTrace::generate(TraceSpec::yueche().scaled(0.1).with_seed(SEED));
    let defaults = PipelineConfig::default();
    let config = PipelineConfig {
        training: TrainingConfig {
            epochs: 1,
            ..defaults.training
        },
        ..defaults
    };
    let grid = prediction_grid(&trace, &config);
    let spec = SeriesSpec::new(
        Timestamp(-trace.spec.history),
        config.delta_t,
        config.k,
        config.history_len,
    );
    assert_eq!((grid.cell_count(), spec.k, spec.history_len), (36, 3, 6));

    let mut model = DdgnnPredictor::with_defaults(grid.cell_count(), spec.k, SEED);
    model.train(
        &SeriesDataset::build(&trace.history_tasks, &grid, spec, Timestamp(0.0)),
        &config.training,
    );

    let series = build_series(&trace, &config);
    let mut predict = FNV_OFFSET;
    let mut predict_next = FNV_OFFSET;
    let mut next = Matrix::zeros(grid.cell_count(), spec.k);
    for example in &series.examples {
        predict = fold(predict, &model.predict(example));
        model.predict_next(&windows_of(example), &mut next);
        predict_next = fold(predict_next, &next);
    }

    let digest = Rc::new(Cell::new(FNV_OFFSET));
    let steps = Rc::new(Cell::new(0));
    let mut forecaster = OnlineForecaster::new(
        Box::new(Recording {
            model,
            digest: Rc::clone(&digest),
            steps: Rc::clone(&steps),
        }),
        grid,
        spec,
        OnlineForecastConfig {
            threshold: config.prediction_threshold,
            valid_time: trace.spec.valid_time,
            refresh_every: 30.0,
        },
    );
    forecaster.warm_up(&trace.history_tasks);
    let horizon = Duration(60.0);
    let _ = forecaster.forecast(Timestamp(0.0), horizon);
    let now = Timestamp(600.0);
    for task in trace.tasks.iter().filter(|t| t.publication.0 < now.0) {
        forecaster.observe(task.publication, task);
    }
    let _ = forecaster.forecast(now, horizon);

    let actual = (
        series.examples.len(),
        predict,
        predict_next,
        steps.get(),
        digest.get(),
    );
    let golden = (
        714,
        0x1cb3_1a95_b85d_70c2,
        0x1cb3_1a95_b85d_70c2,
        10,
        0xdcc2_6f28_18f3_2fd7,
    );
    assert_eq!(
        actual, golden,
        "(examples, predict, predict_next, rollout steps, rollout): {actual:#x?}"
    );
}
