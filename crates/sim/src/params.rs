//! The experiment parameter grid (Table III) and dataset presets (Table II).

use crate::{PipelineConfig, TraceSpec};

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

/// The `--scale` used when the flag is absent.
///
/// The paper's full-size traces with per-event exact replanning take hours of
/// CPU; the default scale keeps every subcommand in the minutes range while
/// preserving the worker-to-task ratio (and therefore which method wins and
/// by roughly what factor). Pass `--scale 1` to reproduce the full sizes.
pub const DEFAULT_SCALE: f64 = 0.04;

/// What `repro` prints when its arguments do not parse.
pub const USAGE: &str = "usage: repro <subcommand> [--scale F] [--epochs N]
  subcommands: table2 table3 fig5 fig6 fig7 fig8 fig9 fig10 fig11 stream-scenarios forecast-scenarios
  --scale F   workload scale in (0, 1]; 1 is the full Table II size (default 0.04)
  --epochs N  predictor training epochs, at least 1 (default 8; fig5-fig11 train)";

/// One `repro` subcommand: a table or figure of the paper's evaluation
/// (§V), or one of the two scenario reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Experiment {
    /// Table II: the dataset statistics.
    Table2,
    /// Table III: the parameter grid.
    Table3,
    /// Fig. 5 (Yueche) or Fig. 6 (DiDi): prediction vs ΔT.
    Prediction(Dataset),
    /// Figs. 7–11, by figure number: assignment vs one Table III sweep.
    Assignment(u8),
    /// The stream engine's scenario tour.
    StreamScenarios,
    /// Scenario-conditioned prediction and the online-vs-blind comparison.
    ForecastScenarios,
}

impl Experiment {
    /// Every subcommand and its name.
    pub const ALL: [(&'static str, Experiment); 11] = [
        ("table2", Experiment::Table2),
        ("table3", Experiment::Table3),
        ("fig5", Experiment::Prediction(Dataset::Yueche)),
        ("fig6", Experiment::Prediction(Dataset::Didi)),
        ("fig7", Experiment::Assignment(7)),
        ("fig8", Experiment::Assignment(8)),
        ("fig9", Experiment::Assignment(9)),
        ("fig10", Experiment::Assignment(10)),
        ("fig11", Experiment::Assignment(11)),
        ("stream-scenarios", Experiment::StreamScenarios),
        ("forecast-scenarios", Experiment::ForecastScenarios),
    ];

    /// Parses `<subcommand> [flags]` (without the program name).
    ///
    /// # Errors
    /// On a missing or unknown subcommand, with the subcommands listed, and
    /// on anything [`ExperimentArgs::parse`] rejects.
    pub fn parse(
        mut args: impl Iterator<Item = String>,
    ) -> Result<(Experiment, ExperimentArgs), String> {
        let name = args.next().unwrap_or_default();
        let Some(&(_, experiment)) = Experiment::ALL.iter().find(|(n, _)| *n == name) else {
            let names: Vec<&str> = Experiment::ALL.iter().map(|(n, _)| *n).collect();
            let problem = match name.as_str() {
                "" => "missing subcommand".to_string(),
                _ => format!("unknown subcommand {name:?}"),
            };
            return Err(format!("{problem}; expected one of {}", names.join(", ")));
        };
        Ok((experiment, ExperimentArgs::parse(args)?))
    }

    /// Parses the process arguments; on an error prints it with [`USAGE`]
    /// and exits with status 2.
    pub fn from_cli() -> (Experiment, ExperimentArgs) {
        Experiment::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2)
        })
    }
}

/// The flags every `repro` subcommand takes: `--scale` and `--epochs`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentArgs {
    /// Workload scale (`--scale`): the factor [`TraceSpec::scaled`] applies
    /// to |W| and |S|.
    pub scale: f64,
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
            scale: DEFAULT_SCALE,
            epochs: PipelineConfig::default().training.epochs,
        };
        let mut args = args;
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--scale" => {
                    let v = value()?;
                    parsed.scale = v
                        .parse::<f64>()
                        .ok()
                        .filter(|f| *f > 0.0 && *f <= 1.0)
                        .ok_or_else(|| format!("--scale must be a number in (0, 1], got {v:?}"))?;
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

    /// The pipeline configuration of the figure subcommands: the defaults (one
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
        assert_eq!(args.scale, 0.01);
        assert_eq!(args.pipeline_config().training.epochs, 1);
        let defaults = parse(&[]).expect("no arguments");
        assert_eq!(defaults.scale, DEFAULT_SCALE);
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

    fn parse_command(args: &[&str]) -> Result<(Experiment, ExperimentArgs), String> {
        Experiment::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn every_subcommand_parses_and_is_in_the_usage() {
        for (name, experiment) in Experiment::ALL {
            let (parsed, args) = parse_command(&[name]).expect(name);
            assert_eq!(parsed, experiment);
            assert_eq!(args, parse(&[]).expect("no flags"));
            assert!(USAGE.contains(name), "{name}");
        }
    }

    #[test]
    fn flags_follow_the_subcommand() {
        let (experiment, args) =
            parse_command(&["fig9", "--scale", "0.01", "--epochs", "1"]).expect("valid");
        assert_eq!(experiment, Experiment::Assignment(9));
        assert_eq!(args.scale, 0.01);
        assert_eq!(args.epochs, 1);
        let err = parse_command(&["table2", "--scale", "2"]).expect_err("bad scale");
        assert!(err.contains("--scale"), "{err}");
    }

    #[test]
    fn missing_and_unknown_subcommands_list_the_subcommands() {
        for args in [&[][..], &["fig12"], &["--scale", "0.01", "fig7"]] {
            let err = parse_command(args).expect_err("no valid subcommand");
            for (name, _) in Experiment::ALL {
                assert!(err.contains(name), "{err:?} lacks {name}");
            }
        }
        assert!(parse_command(&[])
            .expect_err("missing")
            .contains("missing subcommand"));
        assert!(parse_command(&["fig12"])
            .expect_err("unknown")
            .contains("unknown subcommand \"fig12\""));
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
    fn scale_application_rounds_and_clamps() {
        let spec = Dataset::Yueche.spec().with_tasks(11_000).scaled(0.1);
        assert_eq!(spec.tasks, 1_100);
        assert_eq!(
            Dataset::Didi
                .spec()
                .with_workers(100)
                .scaled(0.0001)
                .workers,
            1
        );
    }

    #[test]
    fn dataset_presets_match_table_ii() {
        assert_eq!(Dataset::Yueche.spec().workers, 624);
        assert_eq!(Dataset::Didi.spec().tasks, 8_869);
        assert_eq!(Dataset::Yueche.name(), "Yueche");
    }
}
