//! # datawa-assign
//!
//! Task assignment for DATA-WA (§IV of the paper): reachable-task computation,
//! maximal valid task sequence generation, the worker dependency graph and its
//! separation into a cluster tree (via `datawa-graph`), the exact DFSearch of
//! Algorithm 1, the Task Value Function trained by Q-learning on DFSearch
//! samples (Eq. 11–12), the TVF-guided search of Algorithm 2, the Task
//! Planning Assignment of Algorithm 4 and the streaming adaptive algorithm of
//! Algorithm 3.
//!
//! The five evaluated methods (Greedy, FTA, DTA, DTA+TP, DATA-WA, §V-B.2) are
//! exposed as [`PolicyKind`] variants interpreted by the adaptive runner.
//!
//! ## Incremental replanning
//!
//! The adaptive runner replans at every time instance, but most events touch
//! only a handful of spatial clusters. The first stage of a replan is a
//! delta — work proportional to what changed, output bitwise identical to a
//! scan from scratch — and the runner keeps the rest proportional to the few
//! workers that reach anything:
//!
//! * **Reachability as a delta.** The planner has one route to reachable
//!   sets, a private reach layer: per-worker sets live in dense worker slots
//!   across instants, and a pass rescans only the workers that were not
//!   listed at the previous pass, were mutated, lost a member of their list
//!   or gained a new task within reach distance, telling old from new by
//!   pass marks. [`Planner::plan_live`] runs *live* passes, which carry
//!   lists from one to the next; every other call — [`Planner::plan`],
//!   [`Planner::plan_guided`], the greedy baseline — runs a *cold* pass,
//!   which scans every listed worker and equals [`reachable_tasks`].
//! * **Planning in place**: the runner hands the planner its live
//!   `TaskStore` and the ascending open ids through [`Planner::plan_live`] —
//!   no per-instant copy of the open tasks, no second id space — unless a
//!   predicted task falls inside the lookahead: a phantom has no id in the
//!   live store, so such an instant plans on a copy, through a cold pass.
//! * **No plan reuse.** Candidate sequences, dependency graph, cluster tree,
//!   partition split and search run at every instant for the workers that
//!   reach something (about three per instant at the paper's operating
//!   point). A per-partition plan cache was deleted on measurement: over
//!   whole benchmark sessions it never hit (407,568 probes on `yueche-dta`,
//!   240,216 on `churn-batched`), because the runner dispatches every
//!   planned worker in the instant that planned it, which moves the worker
//!   and takes the task out of the pool.
//!
//! Observable through the `assign.reach_rescans` counter, the
//! `assign.reach_live` gauge, the `assign.stage_ns.*` histograms and the
//! `assign.phantom_instants` counter. `assign.partitions_reused` (and
//! [`RunOutcome::partitions_reused`]) counts the idle workers dropped for
//! reaching nothing — not plan-cache hits — `assign.partitions_recomputed`
//! every partition searched, and the `assign.cache_hit_pct` gauge is the
//! ratio of the two.

pub mod adaptive;
pub mod config;
pub mod forecast;
pub mod partition;
pub mod planner;
mod reach_layer;
pub mod reachable;
pub mod search;
pub mod sequences;
pub mod tvf;

pub use adaptive::{
    AdaptiveRunner, DispatchRecord, PolicyKind, PredictedTaskInput, RunOutcome, RunnerState,
};
pub use config::AssignConfig;
pub use forecast::{ForecastProvider, ForecastStats, StaticForecast};
pub use partition::{split_cluster_tree, Partition};
pub use planner::{Planner, PlanningReport, SearchMode};
pub use reachable::{build_worker_dependency_graph, reachable_tasks, ReachableSets};
pub use search::{DfSearch, SearchSample};
pub use sequences::{generate_sequences, generate_sequences_into, GenScratch, SequenceSet};
pub use tvf::{ActionFeatures, StateFeatures, TaskValueFunction, TvfInference};
