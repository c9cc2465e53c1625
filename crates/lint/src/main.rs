//! `datawa-lint` CLI. See the crate docs and the top-level `LINTS.md`.
//!
//! ```text
//! datawa-lint --workspace [--root <dir>]
//! datawa-lint [--context <crate>] <path>…
//! datawa-lint --list
//! ```
//!
//! Exit codes: `0` clean, `1` unsuppressed findings, `2` usage/I-O error.

use datawa_lint::{run, Options};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: datawa-lint (--workspace | <path>…) [--root <dir>] [--context <crate>] [--list]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut opts = Options {
        root: PathBuf::from("."),
        ..Options::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => opts.workspace = true,
            "--root" => opts.root = PathBuf::from(args.next().unwrap_or_else(|| usage())),
            "--context" => {
                opts.context_crate = Some(args.next().unwrap_or_else(|| usage()));
            }
            "--list" => {
                for (name, what) in datawa_lint::rules::RULES {
                    println!("{name}: {what}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => usage(),
            flag if flag.starts_with('-') => usage(),
            path => opts.paths.push(PathBuf::from(path)),
        }
    }
    if !opts.workspace && opts.paths.is_empty() {
        usage();
    }

    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("datawa-lint: {e}");
            return ExitCode::from(2);
        }
    };

    for f in &report.findings {
        println!("{f}");
    }
    eprintln!(
        "datawa-lint: {} finding(s), {} suppressed, {} file(s) scanned",
        report.findings.len(),
        report.suppressed,
        report.files_scanned
    );
    if report.failed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
