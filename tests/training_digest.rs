//! Golden digest of the trained predictors' weights.
//!
//! `forecast_digest` pins the DDGNN's probabilities after training, which
//! catches a training change only through the outputs it moves. This suite
//! pins training itself against *earlier commits*: DDGNN, Graph-WaveNet and
//! LSTM are trained from fixed seeds on the historical hour of a scaled
//! Yueche trace, and an FNV-1a digest folds the `f64` bits of every trained
//! parameter (in `parameters()` order, row-major) and of the final loss.
//! Two geometries:
//!
//! * the production one `yueche-datawa` trains at (a 6×6 grid, `k` = 3,
//!   `history_len` 6, one epoch), as `forecast_digest` uses;
//! * a small one (a 3×3 grid, `k` = 2, `history_len` 2, two epochs) with a
//!   DDGNN `dilation` of 2, so the kernel-3 causal taps of both convolutional
//!   models reach before the history starts and meet the zero padding.
//!
//! A refactor of the autograd graph, the layers or a model's forward pass
//! that promises "every trained weight bit-identical" must leave this file
//! passing unchanged; if a digest moves, the accumulation order moved.
//!
//! The models go through libm `tanh` and `exp`, whose last bit no standard
//! pins, so the digests hold for the platform they were written on (x86-64
//! Linux with glibc) and the test is ignored elsewhere. A mismatch prints the
//! actual digests.

use datawa::predict::ddgnn::DdgnnConfig;
use datawa::prelude::*;
use datawa::sim::prediction_grid;
use datawa::tensor::Matrix;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

const SEED: u64 = 77003;

/// Folds the bits of every element of `m`, row-major, into `digest`.
fn fold(digest: u64, m: &Matrix) -> u64 {
    m.data()
        .iter()
        .fold(digest, |d, v| (d ^ v.to_bits()).wrapping_mul(FNV_PRIME))
}

/// Trains `model` and digests its parameters, then its final loss.
fn trained_digest(
    mut model: Box<dyn DemandPredictor>,
    dataset: &SeriesDataset,
    training: &TrainingConfig,
) -> u64 {
    let report = model.train(dataset, training);
    let digest = model
        .parameters()
        .iter()
        .fold(FNV_OFFSET, |d, p| fold(d, &p.value()));
    (digest ^ report.final_loss.to_bits()).wrapping_mul(FNV_PRIME)
}

/// One geometry: a `cells_per_side`² grid, occurrence vectors of width `k`,
/// `history_len` windows per example, the DDGNN's `ddgnn` configuration, and
/// LSTM trained on the first `lstm_examples` examples only.
struct Geometry {
    cells_per_side: u32,
    k: usize,
    history_len: usize,
    ddgnn: DdgnnConfig,
    lstm_examples: usize,
}

/// The `(examples, DDGNN, Graph-WaveNet, LSTM)` digests of one geometry,
/// every model trained for one epoch at the pipeline's learning rate.
fn digests(trace: &SyntheticTrace, geometry: &Geometry) -> (usize, u64, u64, u64) {
    let Geometry {
        cells_per_side,
        k,
        history_len,
        ddgnn,
        lstm_examples,
    } = *geometry;
    let defaults = PipelineConfig::default();
    let config = PipelineConfig {
        grid_cells_per_side: cells_per_side,
        k,
        history_len,
        training: TrainingConfig {
            epochs: 1,
            ..defaults.training
        },
        ..defaults
    };
    let grid = prediction_grid(trace, &config);
    let cells = grid.cell_count();
    let spec = SeriesSpec::new(
        Timestamp(-trace.spec.history),
        config.delta_t,
        k,
        history_len,
    );
    let dataset = SeriesDataset::build(&trace.history_tasks, &grid, spec, Timestamp(0.0));
    let lstm_dataset = SeriesDataset {
        examples: dataset.examples[..lstm_examples.min(dataset.examples.len())].to_vec(),
        ..dataset.clone()
    };
    let training = config.training;
    (
        dataset.examples.len(),
        trained_digest(
            Box::new(DdgnnPredictor::new(cells, k, ddgnn, SEED)),
            &dataset,
            &training,
        ),
        trained_digest(
            Box::new(GraphWaveNetPredictor::new(cells, k, 12, 8, SEED)),
            &dataset,
            &training,
        ),
        trained_digest(
            Box::new(LstmPredictor::new(k, 12, SEED)),
            &lstm_dataset,
            &training,
        ),
    )
}

#[test]
#[cfg_attr(
    not(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu")),
    ignore = "the digests pin glibc's tanh and exp on x86-64"
)]
fn trained_weights_match_the_golden_digests() {
    let trace = SyntheticTrace::generate(TraceSpec::yueche().scaled(0.1).with_seed(SEED));
    let production = Geometry {
        cells_per_side: 6,
        k: 3,
        history_len: 6,
        ddgnn: DdgnnConfig::default(),
        lstm_examples: 32,
    };
    let padded = Geometry {
        cells_per_side: 3,
        k: 2,
        history_len: 2,
        ddgnn: DdgnnConfig {
            dilation: 2,
            ..DdgnnConfig::default()
        },
        lstm_examples: usize::MAX,
    };
    let actual = [digests(&trace, &production), digests(&trace, &padded)];
    let golden = [
        (
            234,
            0x1c89_48b9_9164_c6f6,
            0x183e_c66a_6f6f_ca18,
            0xa442_4a42_f200_c7ac,
        ),
        (
            358,
            0xa8a5_c271_0b25_80ad,
            0x8d0e_0d7d_7de8_2c84,
            0x5793_9d94_489a_b3b0,
        ),
    ];
    assert_eq!(
        actual, golden,
        "[(examples, DDGNN, Graph-WaveNet, LSTM); production, padded]: {actual:#x?}"
    );
}
