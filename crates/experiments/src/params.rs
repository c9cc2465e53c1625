//! The experiment parameter grid (Table III) and dataset presets (Table II).

use datawa_sim::TraceSpec;

/// Which real-data stand-in a sweep runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// The Yueche-like trace (624 workers, 11 052 tasks, 9:00–11:00).
    Yueche,
    /// The DiDi-like trace (760 workers, 8 869 tasks, 21:00–23:00).
    Didi,
}

impl Dataset {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::Yueche => "Yueche",
            Dataset::Didi => "DiDi",
        }
    }

    /// The trace preset for this dataset.
    pub fn spec(&self) -> TraceSpec {
        match self {
            Dataset::Yueche => TraceSpec::yueche(),
            Dataset::Didi => TraceSpec::didi(),
        }
    }

    /// The |S| sweep of Fig. 7 (Table III).
    pub fn task_sweep(&self) -> Vec<usize> {
        match self {
            Dataset::Yueche => vec![7_000, 8_000, 9_000, 10_000, 11_000],
            Dataset::Didi => vec![5_000, 6_000, 7_000, 8_000, 9_000],
        }
    }

    /// The |W| sweep of Fig. 8 (Table III).
    pub fn worker_sweep(&self) -> Vec<usize> {
        match self {
            Dataset::Yueche => vec![200, 300, 400, 500, 600],
            Dataset::Didi => vec![300, 400, 500, 600, 700],
        }
    }
}

/// The ΔT sweep of Fig. 5/6, in seconds (Table III; default 5).
pub const DELTA_T_SWEEP: [f64; 5] = [5.0, 6.0, 7.0, 8.0, 9.0];

/// The reachable-distance sweep of Fig. 9, in kilometres (default 1).
pub const REACHABLE_DISTANCE_SWEEP: [f64; 5] = [0.05, 0.1, 0.5, 1.0, 5.0];

/// The availability-window sweep of Fig. 10, in hours (default 1).
pub const AVAILABLE_TIME_SWEEP: [f64; 5] = [0.25, 0.5, 0.75, 1.0, 1.25];

/// The task valid-time sweep of Fig. 11, in seconds (default 40).
pub const VALID_TIME_SWEEP: [f64; 5] = [10.0, 20.0, 30.0, 40.0, 50.0];

/// Global scaling of the experiment workloads, read from `DATAWA_SCALE`.
///
/// The paper's full-size traces with per-event exact replanning take hours of
/// CPU; the default scale keeps every binary in the minutes range while
/// preserving the worker-to-task ratio (and therefore which method wins and
/// by roughly what factor). Set `DATAWA_SCALE=1` to reproduce the full sizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentScale {
    /// Multiplicative factor applied to |W| and |S|.
    pub factor: f64,
}

impl ExperimentScale {
    /// The default scale used when the environment variable is absent.
    pub const DEFAULT_FACTOR: f64 = 0.04;

    /// Reads the scale from the `DATAWA_SCALE` environment variable (via
    /// [`datawa_core::env_config::scale_factor`], which validates the range).
    pub fn from_env() -> ExperimentScale {
        let factor = datawa_core::env_config::scale_factor().unwrap_or(Self::DEFAULT_FACTOR);
        ExperimentScale { factor }
    }

    /// A fixed scale (used by tests).
    pub fn fixed(factor: f64) -> ExperimentScale {
        assert!(factor > 0.0);
        ExperimentScale { factor }
    }

    /// Applies the scale to a raw count from the Table III sweeps.
    pub fn apply(&self, count: usize) -> usize {
        ((count as f64 * self.factor).round() as usize).max(1)
    }
}

/// Builds the pipeline configuration used by the experiment binaries, honouring
/// four optional environment variables so that quick, scaled-down captures
/// are possible without recompiling:
///
/// * `DATAWA_EPOCHS` — predictor training epochs (default 8);
/// * `DATAWA_REPLAN` — re-plan every N arrival events (default 1, the paper's
///   setting);
/// * `DATAWA_REPLAN_DT` — additionally re-plan every Δt simulated seconds via
///   the discrete-event engine's replan ticks (default off);
/// * `DATAWA_GRID` — prediction grid cells per side (default 6).
pub fn pipeline_config_from_env() -> datawa_sim::PipelineConfig {
    use datawa_core::env_config;
    let mut config = datawa_sim::PipelineConfig::default();
    if let Some(epochs) = env_config::epochs() {
        config.training.epochs = epochs;
    }
    if let Some(replan) = env_config::replan_every() {
        config.replan_every = replan;
    }
    if let Some(dt) = env_config::replan_interval() {
        config.replan_interval = Some(dt);
    }
    if let Some(grid) = env_config::grid_cells_per_side() {
        config.grid_cells_per_side = grid;
    }
    config
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_match_table_iii() {
        assert_eq!(Dataset::Yueche.task_sweep().len(), 5);
        assert_eq!(Dataset::Didi.task_sweep()[0], 5_000);
        assert_eq!(DELTA_T_SWEEP[0], 5.0);
        assert_eq!(REACHABLE_DISTANCE_SWEEP[4], 5.0);
        assert_eq!(AVAILABLE_TIME_SWEEP[3], 1.0);
        assert_eq!(VALID_TIME_SWEEP[3], 40.0);
    }

    #[test]
    fn dataset_presets_match_table_ii() {
        assert_eq!(Dataset::Yueche.spec().workers, 624);
        assert_eq!(Dataset::Didi.spec().tasks, 8_869);
        assert_eq!(Dataset::Yueche.name(), "Yueche");
    }

    #[test]
    fn scale_application_rounds_and_clamps() {
        let s = ExperimentScale::fixed(0.1);
        assert_eq!(s.apply(11_000), 1_100);
        assert_eq!(ExperimentScale::fixed(0.0001).apply(100), 1);
    }
}
