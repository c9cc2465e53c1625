//! Task multivariate time series (§III-A, Eq. 2).
//!
//! For every grid cell the history of task publications is discretised into
//! binary occurrence vectors: one vector covers `k` consecutive intervals of
//! length ΔT, and bit `j` is set when at least one task was published in the
//! cell during interval `j`. A prediction example consists of the `P` most
//! recent vectors of every cell (the history), the latest vector (the snapshot
//! `C^t` fed to the dependency learner) and the next vector (the target).

use datawa_core::{TaskStore, Timestamp};
use datawa_geo::UniformGrid;
use datawa_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// Parameters of the series construction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeriesSpec {
    /// Start of the observation horizon.
    pub t0: Timestamp,
    /// Interval length ΔT, in seconds (Table III sweeps 5–9 s).
    pub delta_t: f64,
    /// Number of ΔT intervals per vector (`k > 1`).
    pub k: usize,
    /// Number of history vectors per example (`P`).
    pub history_len: usize,
}

impl SeriesSpec {
    /// Creates a specification; `k` must be at least 2 (the paper requires a
    /// multivariate vector) and `history_len` at least 1.
    pub fn new(t0: Timestamp, delta_t: f64, k: usize, history_len: usize) -> SeriesSpec {
        assert!(delta_t > 0.0, "ΔT must be positive");
        assert!(k > 1, "k must be greater than 1 (multivariate vectors)");
        assert!(history_len >= 1, "history length must be at least 1");
        SeriesSpec {
            t0,
            delta_t,
            k,
            history_len,
        }
    }

    /// Span of one vector, `k · ΔT` seconds.
    #[inline]
    pub fn window_span(&self) -> f64 {
        self.k as f64 * self.delta_t
    }
}

/// One training/evaluation example.
#[derive(Debug, Clone)]
pub struct SeriesExample {
    /// Per-cell history matrices of shape `(P, k)`, indexed by cell.
    pub history: Vec<Matrix>,
    /// Snapshot `C^t`: the latest history vector of every cell, `(M, k)`.
    pub snapshot: Matrix,
    /// Target: the next occurrence vector of every cell, `(M, k)`.
    pub target: Matrix,
    /// Index of the first predicted window (for converting predictions back
    /// into absolute times).
    pub target_window: usize,
}

impl SeriesExample {
    /// The (target-less) example a live forecaster's rolling buffer unfolds
    /// into: `recent` holds the last `P` occurrence windows, oldest first,
    /// each `(M, k)`; cell `c`'s history is row `c` of every window, the
    /// snapshot is the newest window, the target is all zeros and
    /// `target_window` is 0 (a rolling buffer has no absolute position).
    pub fn from_windows(recent: &[Matrix]) -> SeriesExample {
        let snapshot = recent.last().expect("at least one history window").clone();
        let (cells, k) = snapshot.shape();
        let history = (0..cells)
            .map(|cell| {
                let mut h = Matrix::zeros(recent.len(), k);
                for (row, window) in recent.iter().enumerate() {
                    h.row_mut(row).copy_from_slice(window.row(cell));
                }
                h
            })
            .collect();
        SeriesExample {
            history,
            snapshot,
            target: Matrix::zeros(cells, k),
            target_window: 0,
        }
    }
}

/// A full dataset of examples carved out of one task trace.
#[derive(Debug, Clone)]
pub struct SeriesDataset {
    /// Construction parameters.
    pub spec: SeriesSpec,
    /// Number of grid cells `M`.
    pub cells: usize,
    /// The examples, in chronological order of their target window.
    pub examples: Vec<SeriesExample>,
}

impl SeriesDataset {
    /// Builds the dataset from a task trace.
    ///
    /// Occurrence bits are derived from task *publication* times, as in Eq. 2.
    /// Examples are produced for every window index `p` such that both the `P`
    /// history windows and the target window fit in `[t0, horizon_end)`.
    pub fn build(
        tasks: &TaskStore,
        grid: &UniformGrid,
        spec: SeriesSpec,
        horizon_end: Timestamp,
    ) -> SeriesDataset {
        let cells = grid.cell_count();
        let span = spec.window_span();
        let total_seconds = (horizon_end - spec.t0).seconds();
        let total_windows = if total_seconds <= 0.0 {
            0
        } else {
            (total_seconds / span).floor() as usize
        };
        // occurrence[cell][window][bucket]
        let mut occurrence = vec![vec![vec![0.0_f64; spec.k]; total_windows]; cells];
        for task in tasks.iter() {
            let offset = (task.publication - spec.t0).seconds();
            if offset < 0.0 {
                continue;
            }
            let window = (offset / span).floor() as usize;
            if window >= total_windows {
                continue;
            }
            let within = offset - window as f64 * span;
            let bucket = ((within / spec.delta_t).floor() as usize).min(spec.k - 1);
            let cell = grid.cell_of(&task.location).index();
            occurrence[cell][window][bucket] = 1.0;
        }
        let mut examples = Vec::new();
        if total_windows > spec.history_len {
            for target_window in spec.history_len..total_windows {
                let start = target_window - spec.history_len;
                let mut history = Vec::with_capacity(cells);
                let mut snapshot = Matrix::zeros(cells, spec.k);
                let mut target = Matrix::zeros(cells, spec.k);
                for (cell, cell_occurrence) in occurrence.iter().enumerate().take(cells) {
                    let mut h = Matrix::zeros(spec.history_len, spec.k);
                    for (row, window) in (start..target_window).enumerate() {
                        for (j, &v) in cell_occurrence[window].iter().enumerate() {
                            h.set(row, j, v);
                        }
                    }
                    for (j, (&snap, &tgt)) in cell_occurrence[target_window - 1]
                        .iter()
                        .zip(&cell_occurrence[target_window])
                        .enumerate()
                        .take(spec.k)
                    {
                        snapshot.set(cell, j, snap);
                        target.set(cell, j, tgt);
                    }
                    history.push(h);
                }
                examples.push(SeriesExample {
                    history,
                    snapshot,
                    target,
                    target_window,
                });
            }
        }
        SeriesDataset {
            spec,
            cells,
            examples,
        }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.examples.len()
    }

    /// Whether the dataset has no examples.
    pub fn is_empty(&self) -> bool {
        self.examples.is_empty()
    }

    /// Chronological train/test split: the first `train_fraction` of examples
    /// train the model, the rest evaluate it (the paper uses 80 % / 20 %).
    pub fn split(&self, train_fraction: f64) -> (SeriesDataset, SeriesDataset) {
        assert!((0.0..=1.0).contains(&train_fraction));
        let cut = ((self.examples.len() as f64) * train_fraction).round() as usize;
        let cut = cut.min(self.examples.len());
        (
            SeriesDataset {
                spec: self.spec,
                cells: self.cells,
                examples: self.examples[..cut].to_vec(),
            },
            SeriesDataset {
                spec: self.spec,
                cells: self.cells,
                examples: self.examples[cut..].to_vec(),
            },
        )
    }

    /// Absolute time interval covered by the target window of `example`.
    pub fn target_interval(&self, example: &SeriesExample) -> (Timestamp, Timestamp) {
        let span = self.spec.window_span();
        let start = self.spec.t0 + datawa_core::Duration(example.target_window as f64 * span);
        (start, start + datawa_core::Duration(span))
    }

    /// Fraction of positive bits in all targets (class balance diagnostic).
    pub fn positive_rate(&self) -> f64 {
        let mut pos = 0.0;
        let mut total = 0.0;
        for e in &self.examples {
            pos += e.target.sum();
            total += (e.target.rows() * e.target.cols()) as f64;
        }
        if total == 0.0 {
            0.0
        } else {
            pos / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datawa_core::{BoundingBox, Location};
    use datawa_geo::GridSpec;

    fn grid2x2() -> UniformGrid {
        let area = BoundingBox::new(Location::new(0.0, 0.0), Location::new(2.0, 2.0));
        UniformGrid::new(GridSpec::new(area, 2, 2))
    }

    fn store_with(tasks: &[(f64, f64, f64)]) -> TaskStore {
        let mut s = TaskStore::new();
        for &(x, y, p) in tasks {
            s.insert_with_location(Location::new(x, y), Timestamp(p), Timestamp(p + 100.0));
        }
        s
    }

    #[test]
    fn occurrence_bits_match_eq2() {
        // ΔT = 1, k = 3, so each window spans 3 s. One task at t=0.5 in cell
        // (0,0), one at t=1.5 same cell, none in the 3rd bucket → <1,1,0>.
        let tasks = store_with(&[(0.5, 0.5, 0.5), (0.5, 0.5, 1.5), (0.5, 0.5, 4.0)]);
        let spec = SeriesSpec::new(Timestamp(0.0), 1.0, 3, 1);
        let ds = SeriesDataset::build(&tasks, &grid2x2(), spec, Timestamp(6.0));
        // Two windows total, history 1 → exactly one example predicting window 1.
        assert_eq!(ds.len(), 1);
        let e = &ds.examples[0];
        let cell = grid2x2().cell_of(&Location::new(0.5, 0.5)).index();
        assert_eq!(e.history[cell].row(0), &[1.0, 1.0, 0.0]);
        // Window 1 covers [3,6): the task at t=4.0 falls in bucket 1.
        assert_eq!(e.target.row(cell), &[0.0, 1.0, 0.0]);
        // Other cells stay zero.
        let other = grid2x2().cell_of(&Location::new(1.5, 1.5)).index();
        assert_eq!(e.target.row(other), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn tasks_outside_the_horizon_are_ignored() {
        let tasks = store_with(&[(0.5, 0.5, -1.0), (0.5, 0.5, 100.0)]);
        let spec = SeriesSpec::new(Timestamp(0.0), 1.0, 2, 1);
        let ds = SeriesDataset::build(&tasks, &grid2x2(), spec, Timestamp(8.0));
        assert!(ds.examples.iter().all(|e| e.target.sum() == 0.0));
        assert_eq!(ds.positive_rate(), 0.0);
    }

    #[test]
    fn split_is_chronological() {
        let tasks = store_with(&[(0.5, 0.5, 1.0)]);
        let spec = SeriesSpec::new(Timestamp(0.0), 1.0, 2, 2);
        let ds = SeriesDataset::build(&tasks, &grid2x2(), spec, Timestamp(20.0));
        let (train, test) = ds.split(0.8);
        assert_eq!(train.len() + test.len(), ds.len());
        assert!(train.len() >= test.len());
        if let (Some(last_train), Some(first_test)) = (train.examples.last(), test.examples.first())
        {
            assert!(last_train.target_window < first_test.target_window);
        }
    }

    #[test]
    fn target_interval_maps_back_to_absolute_time() {
        let tasks = store_with(&[(0.5, 0.5, 1.0)]);
        let spec = SeriesSpec::new(Timestamp(10.0), 2.0, 2, 1);
        let ds = SeriesDataset::build(&tasks, &grid2x2(), spec, Timestamp(30.0));
        let e = &ds.examples[0];
        let (start, end) = ds.target_interval(e);
        assert_eq!(start, Timestamp(10.0 + e.target_window as f64 * 4.0));
        assert_eq!((end - start).seconds(), 4.0);
    }

    #[test]
    fn history_window_count_matches_spec() {
        let tasks = store_with(&[(0.5, 0.5, 1.0), (1.5, 1.5, 7.0)]);
        let spec = SeriesSpec::new(Timestamp(0.0), 1.0, 2, 3);
        let ds = SeriesDataset::build(&tasks, &grid2x2(), spec, Timestamp(20.0));
        for e in &ds.examples {
            assert_eq!(e.history.len(), 4); // M = 4 cells
            for h in &e.history {
                assert_eq!(h.shape(), (3, 2)); // P × k
            }
            assert_eq!(e.snapshot.shape(), (4, 2));
            assert_eq!(e.target.shape(), (4, 2));
        }
    }

    #[test]
    #[should_panic(expected = "greater than 1")]
    fn univariate_vectors_are_rejected() {
        let _ = SeriesSpec::new(Timestamp(0.0), 1.0, 1, 1);
    }
}
