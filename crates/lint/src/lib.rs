//! # datawa-lint — determinism & concurrency static analysis for DATA-WA
//!
//! Every layer of this workspace stakes its correctness on one invariant:
//! planning output is bitwise identical with metrics on or off, and from one
//! run to the next. The runtime equivalence suites defend that invariant
//! only for the seeds they run; this crate defends it at the source level
//! with the rules clippy cannot express:
//!
//! | rule | catches |
//! |------|---------|
//! | `unordered-iteration` | iterating `HashMap`/`HashSet` in deterministic crates without an immediate sort or order-insensitive sink |
//! | `relaxed-atomic-audit` | `Ordering::Relaxed` outside the audited allowlist |
//! | `unchecked-float-ordering` | `partial_cmp` call sites (NaN-unsafe sort keys) in planning code |
//!
//! Wall clocks, environment reads and unwraps on the hot path are clippy's
//! (`clippy.toml` and the `datawa-assign`/`datawa-stream` crate attributes).
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
//! ```
//!
//! Exits `0` on a clean tree, `1` on any unsuppressed finding, `2` on usage
//! or I/O errors. CI runs the linter in the `check` job next to fmt and
//! clippy.

pub mod diag;
pub mod engine;
pub mod rules;
pub mod source;

pub use diag::Finding;
pub use engine::{run, Options, Report};
pub use source::{FileKind, SourceFile};
