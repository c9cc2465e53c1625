//! Task Planning Assignment (TPA, Algorithm 4).
//!
//! The planner wires the whole §IV pipeline together for one planning
//! instant: reachable tasks → candidate sequences → worker dependency graph →
//! graph partition and recursive tree construction → exact or TVF-guided
//! depth-first search, per connected component.
//!
//! Reachable sets come from one place, the planner's reach layer: a live pass
//! through [`Planner::plan_live`], a cold pass from every other entry point.
//!
//! Workers that reach no task are dropped right after the reachable sets are
//! known, on every partitioned route (exact, guided, training-sample
//! collection; the greedy baseline keeps every listed worker): such a worker
//! is an isolated vertex of the dependency graph with no candidate sequence,
//! so it can neither be assigned anything nor influence another worker's
//! partition, and at the paper's operating point it is the overwhelming
//! majority of idle workers.
//!
//! ## Partitioned planning
//!
//! Each root subtree of the cluster tree is an independent subproblem (its
//! workers and reachable tasks are disjoint from every other subtree's), so
//! the planner splits the instant into [`Partition`](crate::Partition)s and
//! searches them one after another, in cluster-tree root order, each against
//! a partition-local available-task set: a bitset over the partition's
//! ascending task universe. The candidate sequences of the planned workers,
//! the dependency graph, the tree construction's buffers and the search's
//! buffers are scratch kept across calls. The planner is
//! serial: [`AssignConfig::threads`] is accepted and ignored.
//!
//! State features fed to the TVF (and recorded in training samples) are
//! *subproblem-local*: `remaining_tasks` counts the partition's own open
//! tasks, not the whole instant's, so training and inference see the same
//! distribution regardless of how many partitions the instant split into.

use crate::config::AssignConfig;
use crate::partition::split_cluster_tree;
use crate::reach_layer::ReachLayer;
use crate::reachable::{fill_worker_dependency_graph, ReachableSets};
use crate::search::{greedy_baseline, DfSearch, SearchSample, SearchScratch};
use crate::sequences::{generate_sequences, CandidateSequences, SequenceSet};
use crate::tvf::TvfInference;
use datawa_core::{Assignment, TaskId, TaskStore, Timestamp, WorkerId, WorkerStore};
use datawa_graph::{ClusterTree, TreeScratch, UnGraph};
use datawa_obs::{Histogram, MetricsRegistry};
use std::time::Instant;

/// Diagnostics of one planning call.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlanningReport {
    /// Wall-clock planning time, in seconds.
    pub elapsed_seconds: f64,
    /// Number of workers that took part in planning.
    pub workers_considered: usize,
    /// Number of candidate tasks (current + predicted) that took part.
    pub tasks_considered: usize,
    /// Number of cluster-tree nodes built across all components.
    pub tree_nodes: usize,
    /// Average reachable tasks per worker.
    pub mean_reachable: f64,
    /// Number of independent planning partitions (cluster-tree root
    /// subtrees) this instant split into: partitions with at least one
    /// reachable task — workers that reach nothing are dropped before the
    /// dependency graph is built and form none. Zero for the greedy
    /// baseline, which has no dependency graph, and for an instant at which
    /// no worker reaches any task.
    pub partitions: usize,
    /// Workers in the largest of those partitions.
    pub max_partition_workers: usize,
    /// Search nodes expanded across all partitions: budgeted depth-first
    /// expansions for the exact search, one per planned worker for the
    /// guided search (which visits each worker exactly once), zero for the
    /// greedy baseline.
    pub nodes_expanded: usize,
    /// Listed workers dropped this instant for reaching nothing, reported by
    /// the exact search of [`Planner::plan_live`] (each would have been a
    /// trivial singleton partition assigning nothing; every other route
    /// drops them too and reports zero). The name is historical: no plan is
    /// ever reused — every partition counted by `partitions` is searched at
    /// every instant, see the crate docs for the measurement that retired
    /// the plan cache — and the field keeps it because the benchmark harness
    /// reads it.
    pub partitions_reused: usize,
    /// Partitions searched this instant: every partition counted by
    /// `partitions`, on every route.
    pub partitions_recomputed: usize,
    /// Workers whose reachable list was re-derived by a scan of the
    /// candidate pool this instant: every listed worker on a cold pass; on a
    /// live pass only those not listed at the previous pass, mutated since,
    /// or whose full list lost a member. A list merged from its surviving
    /// members and the newly added candidates that reach it is not a
    /// rescan.
    pub workers_rescanned: usize,
    /// Workers that reach at least one task this instant — the ones that
    /// were planned.
    pub reach_live: usize,
}

/// How the planner searches each cluster tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMode {
    /// Greedy baseline (no dependency separation, no search).
    Greedy,
    /// Exact DFSearch (Algorithm 1). The TVF-guided search (Algorithm 2)
    /// is not a mode: it runs through [`Planner::plan_guided`] or
    /// [`Planner::plan_live`] with a borrowed [`TvfInference`].
    Exact,
}

/// The TPA planner.
///
/// The planner owns reusable scratch storage for the hot replan path (the
/// candidate sequences, the dependency graph's bit rows, the cluster tree's
/// masks and the search's bitset, plan and walk buffers, rebuilt at every
/// planning instant), so callers that keep one planner
/// alive across instants — the adaptive runner does — pay their allocation
/// once instead of per call. Planning therefore takes `&mut self`.
pub struct Planner {
    /// Shared configuration.
    pub config: AssignConfig,
    /// Search mode.
    pub mode: SearchMode,
    /// Scratch: the candidate sequences of the planned workers, one slot per
    /// planned-worker position, regenerated into the same buffers at every
    /// call by the exact and guided searches.
    sequences: CandidateSequences,
    /// Scratch: the searches' buffers, lent to every search.
    search: SearchScratch,
    /// Scratch: the dependency graph's bit rows (sized by the planned
    /// workers) and the cluster tree's masks, rebuilt in place at every call.
    graph: UnGraph,
    rtc: TreeScratch,
    /// Every call's reachable sets: carried from one live pass to the next,
    /// scanned afresh by a cold one.
    reach: ReachLayer,
    /// `assign.stage_ns.*`: where a planning call's time goes. Detached
    /// until [`Planner::with_metrics`].
    stages: StageTimers,
}

/// Per-stage wall time of a planning call, in nanoseconds: reachable sets
/// (`reach`), candidate sequences (`sequences`), dependency graph + cluster
/// tree + partition split (`tree`; the greedy baseline has none) and the
/// search itself (`search`). A detached handle costs one branch per stage and
/// never reads the clock.
#[derive(Debug, Clone, Default)]
struct StageTimers {
    reach: Histogram,
    sequences: Histogram,
    tree: Histogram,
    search: Histogram,
}

impl Planner {
    /// Creates a planner with the given mode.
    pub fn new(config: AssignConfig, mode: SearchMode) -> Planner {
        Planner {
            config,
            mode,
            sequences: CandidateSequences::default(),
            search: SearchScratch::default(),
            graph: UnGraph::default(),
            rtc: TreeScratch::default(),
            reach: ReachLayer::default(),
            stages: StageTimers::default(),
        }
    }

    /// Records the per-stage histograms `assign.stage_ns.{reach, sequences,
    /// tree, search}` into `registry` from now on (a detached registry hands
    /// out inert handles). Timing never feeds back into planning.
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Planner {
        self.stages = StageTimers {
            reach: registry.histogram("assign.stage_ns.reach"),
            sequences: registry.histogram("assign.stage_ns.sequences"),
            tree: registry.histogram("assign.stage_ns.tree"),
            search: registry.histogram("assign.stage_ns.search"),
        };
        self
    }

    /// The reachable sets the latest planning call worked from, in that
    /// call's task ids (diagnostic; a call with no worker or no task
    /// computes none and leaves the previous call's in place).
    pub fn reachable(&self) -> &ReachableSets {
        self.reach.sets()
    }

    /// Plans task sequences for `worker_ids` over `candidate_tasks` at `now`
    /// (Algorithm 4), returning the assignment and planning diagnostics.
    /// Context-free: the reachable sets come from a cold pass, which scans
    /// every listed worker. Streaming drivers that plan on one live store
    /// call [`Planner::plan_live`] instead.
    pub fn plan(
        &mut self,
        worker_ids: &[WorkerId],
        candidate_tasks: &[TaskId],
        workers: &WorkerStore,
        tasks: &TaskStore,
        now: Timestamp,
    ) -> (Assignment, PlanningReport) {
        self.plan_in_mode(worker_ids, candidate_tasks, workers, tasks, now, false)
    }

    /// Plans with the TVF-guided search using a caller-provided inference
    /// snapshot, context-free like [`Planner::plan`].
    pub fn plan_guided(
        &mut self,
        worker_ids: &[WorkerId],
        candidate_tasks: &[TaskId],
        workers: &WorkerStore,
        tasks: &TaskStore,
        now: Timestamp,
        tvf: &TvfInference,
    ) -> (Assignment, PlanningReport) {
        self.plan_partitioned(
            worker_ids,
            candidate_tasks,
            workers,
            tasks,
            now,
            Route::Guided(tvf),
            false,
        )
    }

    /// The streaming driver's entry point: [`Planner::plan`] — or, with
    /// `tvf`, [`Planner::plan_guided`] with that snapshot — whose reachable
    /// sets are carried from the previous `plan_live` call as a delta: a
    /// clean worker's list is merged, and only the workers the reach layer
    /// cannot merge are rescanned. The sets are
    /// identical to [`reachable_tasks`](crate::reachable_tasks) and every
    /// partition is searched at every call, so the output is bitwise that of
    /// the context-free call.
    ///
    /// The caller promises that, at every `plan_live` call to one planner,
    /// the candidate ids are stable ids of one live `TaskStore`, listed
    /// ascending — a `TaskId` names the same task at every call, so no
    /// per-call copy and no predicted phantom; equal distances rank in
    /// candidate order — and the worker ids are slots of one `WorkerStore`,
    /// whose mutation stamps tell the planner a changed worker. Any other
    /// call in between is a cold pass and breaks the chain, as does a call
    /// at an earlier `now` or under another config. The greedy mode always
    /// takes the cold pass.
    pub fn plan_live(
        &mut self,
        worker_ids: &[WorkerId],
        candidate_tasks: &[TaskId],
        workers: &WorkerStore,
        tasks: &TaskStore,
        now: Timestamp,
        tvf: Option<&TvfInference>,
    ) -> (Assignment, PlanningReport) {
        match tvf {
            Some(tvf) => self.plan_partitioned(
                worker_ids,
                candidate_tasks,
                workers,
                tasks,
                now,
                Route::Guided(tvf),
                true,
            ),
            None => self.plan_in_mode(worker_ids, candidate_tasks, workers, tasks, now, true),
        }
    }

    /// Plans in the planner's own [`SearchMode`]; `live` as in
    /// [`Planner::plan_live`].
    fn plan_in_mode(
        &mut self,
        worker_ids: &[WorkerId],
        candidate_tasks: &[TaskId],
        workers: &WorkerStore,
        tasks: &TaskStore,
        now: Timestamp,
        live: bool,
    ) -> (Assignment, PlanningReport) {
        match self.mode {
            SearchMode::Greedy => {
                self.plan_greedy(worker_ids, candidate_tasks, workers, tasks, now)
            }
            SearchMode::Exact => self.plan_partitioned(
                worker_ids,
                candidate_tasks,
                workers,
                tasks,
                now,
                Route::Exact(None),
                live,
            ),
        }
    }

    /// Lines 2–3 of Algorithm 4: this instant's reachable sets, a pass of the
    /// reach layer (live or cold). Reads them back through
    /// [`Planner::reachable`].
    #[allow(clippy::too_many_arguments)]
    fn fill_reachable(
        &mut self,
        worker_ids: &[WorkerId],
        candidate_tasks: &[TaskId],
        workers: &WorkerStore,
        tasks: &TaskStore,
        now: Timestamp,
        live: bool,
        report: &mut PlanningReport,
    ) {
        let _span = self.stages.reach.span();
        report.workers_rescanned = self.reach.refresh(
            worker_ids,
            candidate_tasks,
            workers,
            tasks,
            &self.config,
            now,
            live,
        );
        let reachable = self.reach.sets();
        report.mean_reachable = reachable.mean_reachable();
        report.reach_live = reachable.live_workers().len();
    }

    /// The greedy baseline: no dependency graph, no partitions, one ordered
    /// pass over the listed workers. It always takes a cold pass of the reach
    /// layer, and offers every listed worker its sequences at every instant,
    /// generated one worker at a time (see the `search` module docs for why
    /// it keeps this route).
    fn plan_greedy(
        &mut self,
        worker_ids: &[WorkerId],
        candidate_tasks: &[TaskId],
        workers: &WorkerStore,
        tasks: &TaskStore,
        now: Timestamp,
    ) -> (Assignment, PlanningReport) {
        // Feeds the replan-latency histogram only; never read by planning logic.
        #[allow(clippy::disallowed_methods)]
        let start = Instant::now();
        let mut report = PlanningReport {
            workers_considered: worker_ids.len(),
            tasks_considered: candidate_tasks.len(),
            ..PlanningReport::default()
        };
        if worker_ids.is_empty() || candidate_tasks.is_empty() {
            report.elapsed_seconds = start.elapsed().as_secs_f64();
            return (Assignment::new(), report);
        }
        let config = self.config;
        self.fill_reachable(
            worker_ids,
            candidate_tasks,
            workers,
            tasks,
            now,
            false,
            &mut report,
        );
        let reachable = self.reach.sets();
        let span = self.stages.sequences.span();
        let sequences: Vec<SequenceSet> = worker_ids
            .iter()
            .map(|&w| generate_sequences(workers.get(w), reachable.of(w), tasks, &config, now))
            .collect();
        span.finish();
        let span = self.stages.search.span();
        let assignment = greedy_baseline(worker_ids, &sequences, candidate_tasks, tasks, now);
        span.finish();
        report.elapsed_seconds = start.elapsed().as_secs_f64();
        (assignment, report)
    }

    /// The partitioned search path shared by [`SearchMode::Exact`], the
    /// TVF-guided search and training-sample collection: drop the workers
    /// that reach nothing, build the dependency graph and cluster tree over
    /// the rest once, split the instant into independent partitions, and
    /// search each partition against its own available set, in partition
    /// order, splicing its plan into the assignment.
    ///
    /// A `live` call takes a live pass of the reach layer (per-worker
    /// merge-or-rescan), any other a cold one; everything after the sets —
    /// candidate sequences, graph, tree, split, search — runs for the
    /// planned workers at every instant either way, so the output is bitwise
    /// identical.
    #[allow(clippy::too_many_arguments)]
    fn plan_partitioned(
        &mut self,
        worker_ids: &[WorkerId],
        candidate_tasks: &[TaskId],
        workers: &WorkerStore,
        tasks: &TaskStore,
        now: Timestamp,
        mut route: Route<'_>,
        live: bool,
    ) -> (Assignment, PlanningReport) {
        // Feeds the replan-latency histogram only; never read by planning logic.
        #[allow(clippy::disallowed_methods)]
        let start = Instant::now();
        let mut report = PlanningReport {
            workers_considered: worker_ids.len(),
            tasks_considered: candidate_tasks.len(),
            ..PlanningReport::default()
        };
        if worker_ids.is_empty() || candidate_tasks.is_empty() {
            report.elapsed_seconds = start.elapsed().as_secs_f64();
            return (Assignment::new(), report);
        }
        let config = self.config;
        // Lines 2–5: reachable tasks and candidate sequences per worker.
        self.fill_reachable(
            worker_ids,
            candidate_tasks,
            workers,
            tasks,
            now,
            live,
            &mut report,
        );
        let reachable = self.reach.sets();
        // A worker that reaches nothing is an isolated vertex of the
        // dependency graph with no candidate sequence: it would form a
        // singleton partition assigning nothing. Dropping it here leaves
        // every other component's member order, edges and subtree shape —
        // hence every plan and every index tie-break — unchanged.
        let planned = reachable.live_workers();
        if live && matches!(route, Route::Exact(_)) {
            report.partitions_reused = worker_ids.len() - planned.len();
        }
        if planned.is_empty() {
            report.elapsed_seconds = start.elapsed().as_secs_f64();
            return (Assignment::new(), report);
        }
        let span = self.stages.sequences.span();
        self.sequences
            .fill(planned, workers, tasks, reachable, &config, now);
        span.finish();
        // Line 6: worker dependency graph; lines 7–10: per component,
        // partition, build the tree, and search it — one partition per root
        // subtree.
        let span = self.stages.tree.span();
        fill_worker_dependency_graph(planned, reachable, &mut self.graph);
        let tree = ClusterTree::build_with(&self.graph, &mut self.rtc);
        report.tree_nodes = tree.len();
        let partitions = split_cluster_tree(&tree, planned, reachable);
        span.finish();
        report.partitions = partitions.len();
        report.partitions_recomputed = partitions.len();
        report.max_partition_workers = partitions
            .iter()
            .map(|p| p.members.len())
            .max()
            .unwrap_or(0);
        let span = self.stages.search.span();
        let mut search = DfSearch::new(
            workers,
            tasks,
            candidate_tasks,
            &config,
            now,
            &self.sequences,
            reachable,
            &mut self.search,
        );
        let mut assignment = Assignment::new();
        for p in &partitions {
            report.nodes_expanded += match &mut route {
                Route::Exact(samples) => {
                    search.exact_partition(&tree, p, samples.as_deref_mut(), &mut assignment)
                }
                Route::Guided(tvf) => search.guided_partition(&tree, p, tvf, &mut assignment),
            };
        }
        span.finish();
        report.elapsed_seconds = start.elapsed().as_secs_f64();
        (assignment, report)
    }

    /// Runs the exact search while collecting `(state, action, opt)` samples
    /// for TVF training (the data-gathering phase of §IV-B). Partitions are
    /// searched against partition-local available sets, so recorded state
    /// features match what the guided search will later observe.
    pub fn collect_training_samples(
        &mut self,
        worker_ids: &[WorkerId],
        candidate_tasks: &[TaskId],
        workers: &WorkerStore,
        tasks: &TaskStore,
        now: Timestamp,
    ) -> Vec<SearchSample> {
        let mut samples = Vec::new();
        self.plan_partitioned(
            worker_ids,
            candidate_tasks,
            workers,
            tasks,
            now,
            Route::Exact(Some(&mut samples)),
            false,
        );
        samples
    }
}

/// What the partitioned path searches each partition with.
enum Route<'a> {
    /// The exact search, appending its TVF training samples to the sink when
    /// there is one.
    Exact(Option<&'a mut Vec<SearchSample>>),
    /// The TVF-guided search.
    Guided(&'a TvfInference),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tvf::TaskValueFunction;
    use datawa_core::{Location, Task, Worker};

    fn scenario(n_workers: usize, n_tasks: usize) -> (WorkerStore, TaskStore) {
        let mut workers = WorkerStore::new();
        for i in 0..n_workers {
            workers.insert(Worker::new(
                WorkerId(0),
                Location::new(i as f64 * 2.0, 0.0),
                5.0,
                Timestamp(0.0),
                Timestamp(200.0),
            ));
        }
        let mut tasks = TaskStore::new();
        for j in 0..n_tasks {
            tasks.insert(Task::new(
                TaskId(0),
                Location::new(j as f64 * 1.0, 1.0),
                Timestamp(0.0),
                Timestamp(150.0),
            ));
        }
        (workers, tasks)
    }

    #[test]
    fn exact_planner_produces_a_feasible_assignment() {
        let (workers, tasks) = scenario(4, 8);
        let mut planner = Planner::new(AssignConfig::unit_speed(), SearchMode::Exact);
        let wids: Vec<WorkerId> = workers.ids().collect();
        let tids: Vec<TaskId> = tasks.ids().collect();
        let (assignment, report) = planner.plan(&wids, &tids, &workers, &tasks, Timestamp(0.0));
        assert!(assignment.assigned_count() > 0);
        assert!(assignment
            .validate(&workers, &tasks, &planner.config.travel, Timestamp(0.0))
            .is_empty());
        assert!(report.elapsed_seconds >= 0.0);
        assert!(report.tree_nodes >= 1);
        assert!(report.partitions >= 1);
        assert!(report.max_partition_workers >= 1);
        assert_eq!(report.workers_considered, 4);
    }

    #[test]
    fn exact_assigns_at_least_as_many_as_greedy() {
        let (workers, tasks) = scenario(5, 10);
        let wids: Vec<WorkerId> = workers.ids().collect();
        let tids: Vec<TaskId> = tasks.ids().collect();
        let mut exact = Planner::new(AssignConfig::unit_speed(), SearchMode::Exact);
        let mut greedy = Planner::new(AssignConfig::unit_speed(), SearchMode::Greedy);
        let (a_exact, _) = exact.plan(&wids, &tids, &workers, &tasks, Timestamp(0.0));
        let (a_greedy, _) = greedy.plan(&wids, &tids, &workers, &tasks, Timestamp(0.0));
        assert!(a_exact.assigned_count() >= a_greedy.assigned_count());
    }

    #[test]
    fn guided_planner_matches_feasibility_with_a_trained_tvf() {
        let (workers, tasks) = scenario(4, 8);
        let wids: Vec<WorkerId> = workers.ids().collect();
        let tids: Vec<TaskId> = tasks.ids().collect();
        let mut collector = Planner::new(AssignConfig::unit_speed(), SearchMode::Exact);
        let samples =
            collector.collect_training_samples(&wids, &tids, &workers, &tasks, Timestamp(0.0));
        assert!(!samples.is_empty());
        let mut tvf = TaskValueFunction::new(16, 0);
        let tuples: Vec<_> = samples.iter().map(|s| (s.state, s.action, s.opt)).collect();
        tvf.train(&tuples, 60, 16, 0.01, 0);
        let mut guided = Planner::new(AssignConfig::unit_speed(), SearchMode::Exact);
        let (assignment, _) = guided.plan_guided(
            &wids,
            &tids,
            &workers,
            &tasks,
            Timestamp(0.0),
            &tvf.inference(),
        );
        assert!(assignment
            .validate(&workers, &tasks, &guided.config.travel, Timestamp(0.0))
            .is_empty());
        assert!(assignment.assigned_count() > 0);
    }

    #[test]
    fn empty_inputs_plan_nothing() {
        let (workers, tasks) = scenario(2, 2);
        let mut planner = Planner::new(AssignConfig::unit_speed(), SearchMode::Exact);
        let (a, r) = planner.plan(&[], &[], &workers, &tasks, Timestamp(0.0));
        assert!(a.is_empty());
        assert_eq!(r.tasks_considered, 0);
        assert!(planner
            .collect_training_samples(&[], &[], &workers, &tasks, Timestamp(0.0))
            .is_empty());
    }

    /// `AssignConfig::threads` is accepted and ignored: every value produces
    /// the identical assignment and the identical partition count, for both
    /// search families.
    #[test]
    fn thread_count_never_changes_the_plan() {
        let (workers, tasks) = scenario(6, 12);
        let wids: Vec<WorkerId> = workers.ids().collect();
        let tids: Vec<TaskId> = tasks.ids().collect();
        let tvf = TaskValueFunction::new(8, 42).inference();
        for guided in [false, true] {
            let mut reference = None;
            for threads in [1usize, 2, 16] {
                let config = AssignConfig {
                    threads,
                    ..AssignConfig::unit_speed()
                };
                let mut planner = Planner::new(config, SearchMode::Exact);
                let now = Timestamp(0.0);
                let (assignment, report) = if guided {
                    planner.plan_guided(&wids, &tids, &workers, &tasks, now, &tvf)
                } else {
                    planner.plan(&wids, &tids, &workers, &tasks, now)
                };
                let planned = (assignment, report.partitions);
                match &reference {
                    None => reference = Some(planned),
                    Some(r) => {
                        assert_eq!(r, &planned, "guided={guided} diverged at threads={threads}")
                    }
                }
            }
        }
    }
}
