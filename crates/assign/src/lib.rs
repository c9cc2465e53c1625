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
//! only a handful of spatial clusters. The [`cache`] module makes the first
//! stage of a replan *incremental* — work proportional to what changed,
//! output bitwise identical to a scan from scratch — and the runner keeps
//! the rest proportional to the few workers that reach anything:
//!
//! * **Reachability as a delta** ([`PlanCache`]): per-worker reachable sets
//!   live in dense worker slots across instants; a planning instant rescans
//!   only the workers that entered the idle list, were mutated, lost a
//!   member of their list or gained a new task within reach distance, and
//!   emits sets for the workers that reach something only. The exact and
//!   the TVF-guided search read these sets whenever the driver supplies an
//!   [`IncrementalContext`]; the greedy baseline scans from scratch.
//! * **Planning in place**: the runner hands the planner its live
//!   `TaskStore` and the ascending open ids — no per-instant copy of the
//!   open tasks, no second id space — unless a predicted task falls inside
//!   the lookahead: a phantom has no id in the live store, so such an
//!   instant plans on a copy, context-free.
//! * **No plan reuse.** Candidate sequences, dependency graph, cluster tree,
//!   partition split and search run at every instant for the workers that
//!   reach something (about three per instant at the paper's operating
//!   point). A per-partition plan cache existed until PR 24 and was deleted
//!   on measurement: it never hit, because the runner dispatches every
//!   planned worker in the instant that planned it (see [`cache`]).
//! * **Dirty-set log** ([`DirtySet`]): which tasks and workers each event
//!   touched since the last planning instant, for drivers and operators.
//!   The planner never reads it: it detects what changed from its own
//!   inputs (worker-list and open-task diffs, the `WorkerStore` mutation
//!   stamps), so a missed hook can never corrupt a plan.
//! * **Reference path**: [`IncrementalMode::Off`] in [`AssignConfig`]
//!   rescans every listed worker at every instant; it exists for the
//!   `incremental_equivalence` suite to compare against, not as a knob.
//!
//! Observable through the `assign.reach_rescans` counter, the
//! `assign.reach_live` gauge, the `assign.stage_ns.*` histograms and the
//! `assign.phantom_instants` counter. `assign.partitions_reused` (and
//! [`RunOutcome::partitions_reused`]) counts the idle workers dropped for
//! reaching nothing — not plan-cache hits — `assign.partitions_recomputed`
//! every partition searched, and the `assign.cache_hit_pct` gauge and
//! `assign.dirty_fraction_pct` histogram are ratios of those two.

pub mod adaptive;
pub mod cache;
pub mod config;
pub mod forecast;
pub mod partition;
pub mod planner;
pub mod reachable;
pub mod search;
pub mod sequences;
pub mod tvf;

pub use adaptive::{
    AdaptiveRunner, ArrivalEvent, DispatchRecord, PolicyKind, PredictedTaskInput, RunOutcome,
    RunnerState,
};
pub use cache::{DirtySet, IncrementalContext, PlanCache};
pub use config::{AssignConfig, IncrementalMode};
pub use forecast::{ForecastProvider, ForecastStats, StaticForecast};
pub use partition::{split_cluster_tree, Partition};
pub use planner::{Planner, PlanningReport, SearchMode};
pub use reachable::{build_worker_dependency_graph, reachable_tasks, ReachableSets};
pub use search::{DfSearch, SearchSample};
pub use sequences::{generate_sequences, generate_sequences_into, GenScratch, SequenceSet};
pub use tvf::{ActionFeatures, StateFeatures, TaskValueFunction, TvfInference};
