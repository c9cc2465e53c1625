//! # datawa-lint — determinism & concurrency static analysis for DATA-WA
//!
//! Every layer of this workspace stakes its correctness on one invariant:
//! planning output is bitwise identical across cache on/off and metrics
//! on/off. The runtime equivalence suites defend that invariant only for the
//! seeds they run; this crate defends it at the source level by scanning the
//! workspace's Rust files for the hazard classes that historically break it:
//!
//! | rule | catches |
//! |------|---------|
//! | `unordered-iteration` | iterating `HashMap`/`HashSet` in deterministic crates without an immediate sort or order-insensitive sink |
//! | `wall-clock-in-hot-path` | `Instant::now`/`SystemTime` outside `obs` and `service` |
//! | `stray-env-read` | `std::env::var` outside `datawa_core::env_config` |
//! | `relaxed-atomic-audit` | `Ordering::Relaxed` outside the audited allowlist |
//! | `unchecked-float-ordering` | `partial_cmp` call sites (NaN-unsafe sort keys) in planning code |
//! | `unwrap-in-hot-path` | `unwrap`/`expect` in non-test `assign`/`stream` code |
//! | `blocking-sleep` | `thread::sleep` in deterministic crates (observe-only warning) |
//!
//! The full catalogue — what each rule threatens, why, and how to suppress
//! it with a rationale — lives in the top-level `LINTS.md`.
//!
//! ## Scanner, not a compiler plugin
//!
//! The scanner is a purpose-built line/token pass (comment- and
//! string-literal-stripping, `#[cfg(test)]`/test-file exclusion, per-file
//! identifier tracking for hash-typed bindings). It is deliberately
//! heuristic: cheap enough to run on every CI job with zero dependencies,
//! precise enough that every current finding is a real site to either fix
//! or document. False positives are handled by inline suppression:
//!
//! ```text
//! // datawa-lint: allow(unordered-iteration) -- accumulation is commutative
//! ```
//!
//! A suppression without a `-- reason` is itself a finding
//! (`missing-suppression-reason`), so the audit trail stays honest.
//!
//! ## Running
//!
//! ```text
//! cargo run -p datawa-lint --release -- --workspace
//! cargo run -p datawa-lint --release -- --workspace --format json
//! ```
//!
//! Exits `0` on a clean tree, `1` on any unsuppressed *error* finding, `2`
//! on usage or I/O errors. Rules can land observe-only as
//! [`Severity::Warning`]: their findings are reported (and carried in the
//! JSON `severity` field) but never affect the exit code, so a new rule can
//! bake against the tree before being promoted to `Error` in
//! [`rules::severity_of`]. CI runs the linter in the `check` job next to
//! fmt and clippy, and a dedicated `lint` job uploads the JSON report as an
//! artifact.

pub mod diag;
pub mod engine;
pub mod rules;
pub mod source;

pub use diag::{Finding, Severity};
pub use engine::{run, Options, Report};
pub use source::{FileKind, SourceFile};
