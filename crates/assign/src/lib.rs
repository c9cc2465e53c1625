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
//! only a handful of spatial clusters. The [`cache`] module makes the exact
//! partitioned search *incremental*: work proportional to what changed,
//! output bitwise identical to a full replan.
//!
//! * **Dirty-set rules** ([`DirtySet`]): every world event maps to what it
//!   can invalidate — a task arrival dirties partitions whose workers could
//!   reach the new task; an expiration/serve dirties partitions holding it;
//!   a worker coming online, going offline, or moving dirties its partition;
//!   a forecast refresh bumps the epoch and dirties every
//!   prediction-influenced partition. The tracker is a log: the planner
//!   detects what changed from its own inputs (worker-list and open-task
//!   diffs, the `WorkerStore` mutation stamps) and *verifies* every cached
//!   entry against the live stores, so a missed hook can never corrupt a
//!   plan.
//! * **Reachability as a delta** ([`PlanCache`], layer 1): per-worker
//!   reachable sets live in dense worker slots across instants; a planning
//!   instant rescans only the workers that entered the idle list, were
//!   mutated, lost a member of their list or gained a new task within reach
//!   distance, and emits sets for the workers that reach something only.
//!   The exact and the TVF-guided search read these sets whenever the
//!   driver supplies an [`IncrementalContext`]; the greedy baseline scans
//!   from scratch.
//! * **Fingerprint definition** ([`PlanCache`]): each partition is keyed by
//!   an FNV-1a hash over the forecast epoch, the sorted member worker ids,
//!   each member's position / reachable distance / availability-window
//!   edges (as exact `f64` bit patterns), and its reachable task list as
//!   stable real ids. A probe additionally compares the regenerated
//!   candidate sequences in full — hash collisions and `now`-dependent
//!   sequence drift both degrade to a recompute, never a wrong reuse.
//! * **Reference path**: [`IncrementalMode::Off`] in [`AssignConfig`]
//!   searches every partition at every instant; it exists for the
//!   `incremental_equivalence` suite to compare against, not as a knob.
//! * **Exemptions**: the TVF-guided search (DATA-WA) never reuses a
//!   *plan* — its inputs depend on `now` in ways a content fingerprint
//!   cannot capture — and instants planning over predicted phantom tasks
//!   take the full path altogether (phantom planning ids are not stable
//!   across instants).
//!
//! Reuse is observable through `assign.partitions_reused` /
//! `assign.partitions_recomputed` counters, the `assign.cache_hit_pct`
//! gauge, the `assign.dirty_fraction_pct` histogram, the
//! `assign.reach_rescans` counter and `assign.reach_live` gauge, and through
//! [`RunOutcome`]'s reuse totals.

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
