//! The repo benchmark of the DATA-WA dispatch stack: four seeded workloads,
//! eight end-to-end metrics, and per-layer metrics measured from outside.
//! `README.md` beside this crate's manifest is the guide; `BENCHMARK.json` at
//! the repository root is the contract.

pub mod alloc;
pub mod compare;
pub mod inproc;
pub mod json;
pub mod load;
pub mod metrics;
pub mod net;
pub mod probes;
pub mod session;
pub mod stats;
pub mod sys;
pub mod trace;

use std::path::PathBuf;
use std::time::Instant;

/// Budget of the timed rounds when `--seconds` is not given;
/// `BENCHMARK.json`'s `run_seconds`.
pub const DEFAULT_SECONDS: f64 = 20.0;

/// The seed used when none is given (the Yueche preset's own).
pub const DEFAULT_SEED: u64 = 20_161_101;

/// Everything one `run` needs.
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    /// Budget of the timed rounds, in seconds: it fixes their number (see
    /// `load::Sizing::rounds`).
    pub seconds: f64,
    pub traced: bool,
    pub scale: load::Scale,
    /// When the process started: `setup_s` counts from here.
    pub process_start: Instant,
    /// The binary's global allocator.
    pub alloc: &'static alloc::RoundAlloc,
    /// Where the traced run writes its spans.
    pub trace_path: PathBuf,
}

/// The directory run outputs go to: `out/` beside this crate's manifest,
/// wherever the binary is started from.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Generates the load of `cfg.workload` from `cfg.seed` and runs it.
pub fn run(cfg: &RunConfig) -> Result<metrics::RunResult, String> {
    if !metrics::WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; the workloads are {}",
            cfg.workload,
            metrics::WORKLOADS.join(", ")
        ));
    }
    Ok(match cfg.workload.as_str() {
        "net-greedy" => net::run(cfg),
        _ => inproc::run(cfg),
    })
}
