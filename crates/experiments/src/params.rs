//! The experiment parameter grid (Table III) and dataset presets (Table II).

use datawa_sim::{PipelineConfig, TraceSpec};

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

/// Global scaling of the experiment workloads, set by `--scale`.
///
/// The paper's full-size traces with per-event exact replanning take hours of
/// CPU; the default scale keeps every binary in the minutes range while
/// preserving the worker-to-task ratio (and therefore which method wins and
/// by roughly what factor). Pass `--scale 1` to reproduce the full sizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentScale {
    /// Multiplicative factor applied to |W| and |S|.
    pub factor: f64,
}

impl ExperimentScale {
    /// The default scale used when `--scale` is absent.
    pub const DEFAULT_FACTOR: f64 = 0.04;

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

/// What the experiment binaries print when their arguments do not parse.
pub const USAGE: &str = "usage: <binary> [--scale F] [--epochs N]
  --scale F   workload scale in (0, 1]; 1 is the full Table II size (default 0.04)
  --epochs N  predictor training epochs, at least 1 (default 8; the fig5-fig11 binaries)";

/// The command line every experiment binary takes: `--scale` and `--epochs`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentArgs {
    /// Workload scale (`--scale`).
    pub scale: ExperimentScale,
    /// Predictor training epochs (`--epochs`).
    pub epochs: usize,
}

impl ExperimentArgs {
    /// Parses arguments (without the program name).
    ///
    /// # Errors
    /// On an unknown flag, a flag without its value, a scale outside `(0, 1]`
    /// or an epoch count that is not a positive integer.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<ExperimentArgs, String> {
        let mut parsed = ExperimentArgs {
            scale: ExperimentScale {
                factor: ExperimentScale::DEFAULT_FACTOR,
            },
            epochs: PipelineConfig::default().training.epochs,
        };
        let mut args = args;
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--scale" => {
                    let v = value()?;
                    let factor = v
                        .parse::<f64>()
                        .ok()
                        .filter(|f| *f > 0.0 && *f <= 1.0)
                        .ok_or_else(|| format!("--scale must be a number in (0, 1], got {v:?}"))?;
                    parsed.scale = ExperimentScale { factor };
                }
                "--epochs" => {
                    let v = value()?;
                    parsed.epochs =
                        v.parse::<usize>().ok().filter(|n| *n >= 1).ok_or_else(|| {
                            format!("--epochs must be a positive integer, got {v:?}")
                        })?;
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        Ok(parsed)
    }

    /// Parses the process arguments; on an error prints it with [`USAGE`]
    /// and exits with status 2.
    pub fn from_cli() -> ExperimentArgs {
        ExperimentArgs::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2)
        })
    }

    /// The pipeline configuration of the figure binaries: the defaults (one
    /// replan per arrival, a 6 × 6 grid) with `--epochs` applied.
    pub fn pipeline_config(&self) -> PipelineConfig {
        let mut config = PipelineConfig::default();
        config.training.epochs = self.epochs;
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ExperimentArgs, String> {
        ExperimentArgs::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn scale_and_epochs_parse() {
        let args = parse(&["--scale", "0.01", "--epochs", "1"]).expect("valid arguments");
        assert_eq!(args.scale, ExperimentScale::fixed(0.01));
        assert_eq!(args.pipeline_config().training.epochs, 1);
        let defaults = parse(&[]).expect("no arguments");
        assert_eq!(defaults.scale.factor, ExperimentScale::DEFAULT_FACTOR);
        assert_eq!(defaults.pipeline_config(), PipelineConfig::default());
    }

    #[test]
    fn bad_arguments_are_errors() {
        for scale in ["0", "1.5", "abc", "NaN", "-0.5"] {
            let err = parse(&["--scale", scale]).expect_err(scale);
            assert!(err.contains("--scale"), "{err}");
        }
        for epochs in ["0", "-1", "2.5"] {
            assert!(parse(&["--epochs", epochs]).is_err(), "{epochs}");
        }
        assert!(parse(&["--grid", "6"])
            .expect_err("unknown flag")
            .contains("unknown argument"));
        assert!(parse(&["--scale"])
            .expect_err("missing value")
            .contains("needs a value"));
        assert!(parse(&["--scale", "0.1", "--epochs"]).is_err());
    }

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
