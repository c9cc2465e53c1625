//! `benchmark run | compare | calibrate` — see `README.md`.

use datawa_benchmark::alloc::RoundAlloc;
use datawa_benchmark::load::Scale;
use datawa_benchmark::{compare, out_dir, run, RunConfig, DEFAULT_SECONDS, DEFAULT_SEED};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: RoundAlloc = RoundAlloc::new();

const USAGE: &str = "usage:
  benchmark run --workload <name> [--seed <u64>] [--seconds <s>] [--trace [0|1]]
                [--scale full|smoke] [--out <file>]
  benchmark compare <A.json> <B.json>
  benchmark calibrate
workloads: yueche-dta, yueche-datawa, churn-batched, net-greedy";

/// `--flag value` pairs and bare words of one subcommand's arguments.
struct Args {
    flags: Vec<(String, Option<String>)>,
    words: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Args {
        let mut parsed = Args {
            flags: Vec::new(),
            words: Vec::new(),
        };
        let mut i = 0;
        while i < args.len() {
            if let Some(flag) = args[i].strip_prefix("--") {
                let value = args.get(i + 1).filter(|v| !v.starts_with("--")).cloned();
                i += 1 + usize::from(value.is_some());
                parsed.flags.push((flag.to_string(), value));
            } else {
                parsed.words.push(args[i].clone());
                i += 1;
            }
        }
        parsed
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    /// The value of the last `--flag value`.
    fn value(&self, flag: &str) -> Option<String> {
        self.flags
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .and_then(|(_, v)| v.clone())
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{flag}: cannot read {v:?} as a number")),
        }
    }
}

fn run_command(args: &Args, process_start: Instant) -> Result<ExitCode, String> {
    let workload = args
        .value("workload")
        .ok_or("run needs --workload <name>")?;
    let traced = match args.value("trace").as_deref() {
        None => args.has("trace"),
        Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let scale = match args.value("scale") {
        None => Scale::Full,
        Some(s) => Scale::parse(&s).ok_or(format!("--scale takes full or smoke, not {s:?}"))?,
    };
    let seconds: f64 = args.number("seconds", DEFAULT_SECONDS)?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!(
            "--seconds must be a non-negative number, not {seconds}"
        ));
    }
    let cfg = RunConfig {
        trace_path: out_dir().join(format!("trace-{workload}.json")),
        workload,
        seed: args.number("seed", DEFAULT_SEED)?,
        seconds,
        traced,
        scale,
        process_start,
        alloc: &ALLOC,
    };
    let result = run(&cfg)?;
    result.print_table();
    if let Some(path) = args.value("out") {
        let path = PathBuf::from(path);
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(&path, result.detail_json() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", result.contract_line());
    Ok(if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    // The stack reads several `DATAWA_*` variables (planner threads, the
    // incremental-replanning toggle, the metrics toggle). A benchmark run
    // must not depend on the caller's environment, so they are cleared before
    // any thread exists.
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("DATAWA_") {
            std::env::remove_var(&name);
        }
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let args = Args::parse(rest);
    let outcome = match command.as_str() {
        "run" => run_command(&args, process_start),
        "compare" => compare::compare_command(&args.words),
        "calibrate" => compare::calibrate_command(),
        _ => Err(format!("unknown command {command:?}\n{USAGE}")),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
