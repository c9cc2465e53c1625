//! DFSearch (Algorithm 1), the TVF-guided search (Algorithm 2) and the greedy
//! baseline assignment.
//!
//! Both searches operate on one cluster tree produced by worker dependency
//! separation. Because sibling subtrees are worker-independent (their
//! reachable task sets do not intersect), the searches can consume a shared
//! pool of available tasks sequentially without losing optimality — or, since
//! root subtrees are additionally *task*-independent, each root can be
//! searched against a partition-local available set
//! ([`DfSearch::exact_partition`] / [`DfSearch::guided_partition`], driven by
//! the planner's partition loop). The whole-tree entry points below are thin
//! sequential sweeps over the same per-root searches.

use crate::config::AssignConfig;
use crate::reachable::ReachableSets;
use crate::sequences::SequenceSet;
use crate::tvf::{ActionFeatures, StateFeatures, TvfInference};
use datawa_core::{Assignment, TaskId, TaskSequence, TaskStore, Timestamp, WorkerId, WorkerStore};
use datawa_graph::ClusterTree;
use std::collections::{HashMap, HashSet};

/// One `(state, action, reward)` sample collected during exact search, used to
/// train the Task Value Function (Eq. 12).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchSample {
    /// State features at the moment the action was evaluated.
    pub state: StateFeatures,
    /// Action features (worker, sequence).
    pub action: ActionFeatures,
    /// The best cumulative reward observed from this state when taking the
    /// action (the `opt` of Algorithm 1, line 11).
    pub opt: f64,
}

/// Search context shared by the exact and TVF-guided searches.
pub struct DfSearch<'a> {
    workers: &'a WorkerStore,
    tasks: &'a TaskStore,
    config: &'a AssignConfig,
    now: Timestamp,
    sequences: &'a HashMap<WorkerId, SequenceSet>,
    reachable: &'a ReachableSets,
    /// Objective weight of a *real* (already published) task relative to a
    /// *predicted* (future-published) one at this planning instant.
    ///
    /// The planning store mixes both kinds for the prediction-aware
    /// policies (§III-C, §IV-C); scoring them equally would let confident
    /// phantoms displace real work one for one. The weight is
    /// the number of candidate tasks plus one — strictly larger than any
    /// plan's possible phantom tally — so the weighted count is a true
    /// lexicographic objective even
    /// when summed across a whole partition's plan: maximise real tasks
    /// served first, and use predicted demand only to break ties (pure
    /// positioning). Planning stores without predicted tasks score every
    /// sequence at `weight × len`, so the argmax (and therefore every
    /// non-predictive policy) is bit-identical to the unweighted count.
    real_weight: usize,
    /// Whether any candidate task is a predicted (future-published) one.
    /// Phantom-free instants keep every pre-forecast code path
    /// byte-identical (the guided search ranks purely by TVF value, exactly
    /// as before the forecast redesign).
    has_predicted: bool,
}

impl<'a> DfSearch<'a> {
    /// Creates a search context over `candidate_tasks`, the tasks of `tasks`
    /// that take part in this planning instant (`sequences` and `reachable`
    /// were derived from them). The store may hold any number of others —
    /// the live store of a streaming run holds every task ever published —
    /// and none of them is looked at.
    pub fn new(
        workers: &'a WorkerStore,
        tasks: &'a TaskStore,
        candidate_tasks: &[TaskId],
        config: &'a AssignConfig,
        now: Timestamp,
        sequences: &'a HashMap<WorkerId, SequenceSet>,
        reachable: &'a ReachableSets,
    ) -> DfSearch<'a> {
        let has_predicted = candidate_tasks
            .iter()
            .any(|&t| tasks.get(t).publication.0 > now.0);
        DfSearch {
            workers,
            tasks,
            config,
            now,
            sequences,
            reachable,
            real_weight: candidate_tasks.len() + 1,
            has_predicted,
        }
    }

    // ------------------------------------------------------------------
    // Exact search (Algorithm 1)
    // ------------------------------------------------------------------

    /// Exact depth-first search over one cluster tree. `mapping[i]` is the
    /// worker id of graph node `i`. When `samples` is provided, `(state,
    /// action, opt)` tuples are appended for TVF training.
    pub fn exact(
        &self,
        tree: &ClusterTree,
        mapping: &[WorkerId],
        available: &mut HashSet<TaskId>,
        mut samples: Option<&mut Vec<SearchSample>>,
    ) -> Assignment {
        let mut assignment = Assignment::new();
        for &root in &tree.roots {
            let plan = self.exact_partition(tree, mapping, root, available, samples.as_deref_mut());
            for (w, seq) in plan {
                for t in seq.iter() {
                    available.remove(&t);
                }
                assignment.set(w, seq);
            }
        }
        assignment
    }

    /// Exact search over a single root subtree (one planning partition).
    ///
    /// `available` is restored to its input state before returning (the
    /// caller commits the plan); because root subtrees are task-disjoint it
    /// may equally be the shared whole-instant set or a partition-local one —
    /// the returned plan is identical, which is what lets the planner cache
    /// and reuse plans per partition without changing any assignment.
    pub fn exact_partition(
        &self,
        tree: &ClusterTree,
        mapping: &[WorkerId],
        root: usize,
        available: &mut HashSet<TaskId>,
        samples: Option<&mut Vec<SearchSample>>,
    ) -> Vec<(WorkerId, TaskSequence)> {
        self.exact_partition_counted(tree, mapping, root, available, samples)
            .0
    }

    /// [`DfSearch::exact_partition`] plus the number of search nodes the
    /// budgeted depth-first search actually expanded (the observability
    /// layer's `assign.search_nodes` counter; also a direct read on how much
    /// of [`AssignConfig::search_node_budget`] the instant consumed).
    pub fn exact_partition_counted(
        &self,
        tree: &ClusterTree,
        mapping: &[WorkerId],
        root: usize,
        available: &mut HashSet<TaskId>,
        mut samples: Option<&mut Vec<SearchSample>>,
    ) -> (Vec<(WorkerId, TaskSequence)>, usize) {
        let mut budget = self.config.search_node_budget;
        let (_, plan) = self.exact_node(
            tree,
            mapping,
            root,
            &self.node_workers(tree, mapping, root),
            available,
            &mut budget,
            &mut samples,
        );
        (plan, self.config.search_node_budget - budget)
    }

    /// Weighted objective contribution of one sequence: real tasks (already
    /// published at the planning instant) count `real_weight`, predicted
    /// tasks (publication still in the future) count 1 — see the field's
    /// docs for why this makes the count lexicographic.
    fn sequence_weight(&self, q: &TaskSequence) -> usize {
        q.iter()
            .map(|t| {
                if self.tasks.get(t).publication.0 > self.now.0 {
                    1
                } else {
                    self.real_weight
                }
            })
            .sum()
    }

    fn node_workers(&self, tree: &ClusterTree, mapping: &[WorkerId], node: usize) -> Vec<WorkerId> {
        tree.nodes[node]
            .members
            .iter()
            .map(|&i| mapping[i])
            .collect()
    }

    fn descendant_worker_count(&self, tree: &ClusterTree, node: usize) -> usize {
        tree.nodes[node]
            .children
            .iter()
            .map(|&c| tree.subtree_members(c).len())
            .sum()
    }

    fn state_features(
        &self,
        pending: &[WorkerId],
        descendant_workers: usize,
        available: &HashSet<TaskId>,
    ) -> StateFeatures {
        let remaining_workers = pending.len() + descendant_workers;
        let mean_reachable = if pending.is_empty() {
            0.0
        } else {
            pending
                .iter()
                .map(|w| self.reachable.of(*w).len() as f64)
                .sum::<f64>()
                / pending.len() as f64
        };
        StateFeatures {
            remaining_workers,
            remaining_tasks: available.len(),
            mean_reachable,
        }
    }

    /// Recursive exact search on `node`. `pending` is the queue of this node's
    /// workers not yet branched on. Returns the best count and the plan
    /// achieving it. `available` is restored to its input state before
    /// returning.
    #[allow(clippy::too_many_arguments)]
    fn exact_node(
        &self,
        tree: &ClusterTree,
        mapping: &[WorkerId],
        node: usize,
        pending: &[WorkerId],
        available: &mut HashSet<TaskId>,
        budget: &mut usize,
        samples: &mut Option<&mut Vec<SearchSample>>,
    ) -> (usize, Vec<(WorkerId, TaskSequence)>) {
        if *budget == 0 {
            // Budget exhausted: finish this subtree greedily.
            let mut remaining: Vec<WorkerId> = pending.to_vec();
            for &child in &tree.nodes[node].children {
                remaining.extend(tree.subtree_members(child).into_iter().map(|i| mapping[i]));
            }
            let plan = self.greedy_completion(&remaining, available);
            let count = plan.iter().map(|(_, s)| self.sequence_weight(s)).sum();
            return (count, plan);
        }
        *budget -= 1;

        if pending.is_empty() {
            // All of this node's workers are decided: recurse into children
            // (Algorithm 1, lines 15–16). Children are worker-independent, so
            // a sequential pass over the shared task pool stays exact.
            let mut total = 0;
            let mut plan = Vec::new();
            for &child in &tree.nodes[node].children {
                let child_workers = self.node_workers(tree, mapping, child);
                let (count, child_plan) = self.exact_node(
                    tree,
                    mapping,
                    child,
                    &child_workers,
                    available,
                    budget,
                    samples,
                );
                // Commit the child plan while processing the remaining
                // children, then roll back before returning.
                for (_, seq) in &child_plan {
                    for t in seq.iter() {
                        available.remove(&t);
                    }
                }
                total += count;
                plan.extend(child_plan);
            }
            for (_, seq) in &plan {
                for t in seq.iter() {
                    available.insert(t);
                }
            }
            return (total, plan);
        }

        let worker = pending[0];
        let rest = &pending[1..];
        let descendant_workers = self.descendant_worker_count(tree, node);
        let state = self.state_features(pending, descendant_workers, available);

        // Option 0: leave this worker unassigned.
        let (mut best_count, mut best_plan) =
            self.exact_node(tree, mapping, node, rest, available, budget, samples);

        // Options: every candidate sequence of the worker whose tasks are all
        // still available (Algorithm 1, lines 6–12).
        if let Some(sequence_set) = self.sequences.get(&worker) {
            let worker_record = self.workers.get(worker);
            for q in sequence_set.iter() {
                if !q.iter().all(|t| available.contains(&t)) {
                    continue;
                }
                for t in q.iter() {
                    available.remove(&t);
                }
                let (sub_count, sub_plan) =
                    self.exact_node(tree, mapping, node, rest, available, budget, samples);
                for t in q.iter() {
                    available.insert(t);
                }
                let count = sub_count + self.sequence_weight(q);
                if let Some(out) = samples.as_deref_mut() {
                    out.push(SearchSample {
                        state,
                        action: ActionFeatures::compute(
                            worker_record,
                            q,
                            self.tasks,
                            &self.config.travel,
                            self.now,
                        ),
                        // Report `opt` in task units: training stores hold
                        // only real tasks, so this is exactly the pre-weight
                        // cumulative count.
                        opt: count as f64 / self.real_weight as f64,
                    });
                }
                if count > best_count {
                    best_count = count;
                    let mut plan = sub_plan;
                    plan.push((worker, q.clone()));
                    best_plan = plan;
                }
            }
        }
        (best_count, best_plan)
    }

    // ------------------------------------------------------------------
    // TVF-guided search (Algorithm 2)
    // ------------------------------------------------------------------

    /// Greedy tree traversal guided by the trained Task Value Function: each
    /// worker receives the candidate sequence with the highest predicted
    /// long-term value, without backtracking.
    ///
    /// Takes a [`TvfInference`] snapshot (see [`crate::TaskValueFunction::inference`])
    /// so the same code path serves both the sweep here and the planner's
    /// partition loop.
    ///
    /// Unlike the exact search, the guided search *reads* the available set
    /// (its `remaining_tasks` state feature is `available.len()`), so each
    /// root is searched against a partition-local set — the subtree's
    /// reachable tasks still present in `available` — exactly as the
    /// planner's partition loop does. The sweep is therefore bitwise
    /// identical to the planner's output, and matches the subproblem-local
    /// features the TVF was trained on.
    pub fn guided(
        &self,
        tree: &ClusterTree,
        mapping: &[WorkerId],
        available: &mut HashSet<TaskId>,
        tvf: &TvfInference,
    ) -> Assignment {
        let mut assignment = Assignment::new();
        for &root in &tree.roots {
            let mut local: HashSet<TaskId> = tree
                .subtree_members(root)
                .into_iter()
                .flat_map(|i| self.reachable.of(mapping[i]).iter().copied())
                .filter(|t| available.contains(t))
                .collect();
            for (w, seq) in self.guided_partition(tree, mapping, root, &mut local, tvf) {
                for t in seq.iter() {
                    available.remove(&t);
                }
                assignment.set(w, seq);
            }
        }
        assignment
    }

    /// Guided search over a single root subtree (one planning partition).
    ///
    /// Assigned tasks are removed from `available` as sequences are pinned
    /// (the guided search never backtracks), so the returned plan is already
    /// exclusive within the partition.
    pub fn guided_partition(
        &self,
        tree: &ClusterTree,
        mapping: &[WorkerId],
        root: usize,
        available: &mut HashSet<TaskId>,
        tvf: &TvfInference,
    ) -> Vec<(WorkerId, TaskSequence)> {
        let mut plan = Vec::new();
        self.guided_node(
            tree,
            mapping,
            root,
            &self.node_workers(tree, mapping, root),
            available,
            tvf,
            &mut plan,
        );
        plan
    }

    #[allow(clippy::too_many_arguments)]
    fn guided_node(
        &self,
        tree: &ClusterTree,
        mapping: &[WorkerId],
        node: usize,
        pending: &[WorkerId],
        available: &mut HashSet<TaskId>,
        tvf: &TvfInference,
        plan: &mut Vec<(WorkerId, TaskSequence)>,
    ) {
        if pending.is_empty() {
            for &child in &tree.nodes[node].children {
                let child_workers = self.node_workers(tree, mapping, child);
                self.guided_node(tree, mapping, child, &child_workers, available, tvf, plan);
            }
            return;
        }
        let worker = pending[0];
        let rest = &pending[1..];
        let descendant_workers = self.descendant_worker_count(tree, node);
        let state = self.state_features(pending, descendant_workers, available);
        // When the planning store carries predicted tasks, rank candidates
        // by real-task count first and TVF value second — the guided
        // analogue of the exact search's lexicographic weighting: predicted
        // tasks steer the choice among equally-real sequences but never
        // displace real work. Phantom-free instants (every non-predictive
        // policy, and prediction-aware ones whose current forecast is
        // empty) rank purely by TVF value, exactly as before the forecast
        // redesign.
        let mut best: Option<(usize, f64, &TaskSequence)> = None;
        if let Some(sequence_set) = self.sequences.get(&worker) {
            let worker_record = self.workers.get(worker);
            for q in sequence_set.iter() {
                if !q.iter().all(|t| available.contains(&t)) {
                    continue;
                }
                let real = if self.has_predicted {
                    q.iter()
                        .filter(|t| self.tasks.get(*t).publication.0 <= self.now.0)
                        .count()
                } else {
                    0 // constant key: ranking falls through to the TVF value
                };
                let action = ActionFeatures::compute(
                    worker_record,
                    q,
                    self.tasks,
                    &self.config.travel,
                    self.now,
                );
                let value = tvf.value(&state, &action);
                if best.is_none_or(|(r, v, _)| real > r || (real == r && value > v)) {
                    best = Some((real, value, q));
                }
            }
        }
        if let Some((_, _, q)) = best {
            for t in q.iter() {
                available.remove(&t);
            }
            plan.push((worker, q.clone()));
        }
        self.guided_node(tree, mapping, node, rest, available, tvf, plan);
    }

    // ------------------------------------------------------------------
    // Greedy baseline
    // ------------------------------------------------------------------

    /// The Greedy baseline of §V-B.2: every worker (in the given order) takes
    /// the longest candidate sequence still fully available.
    pub fn greedy(&self, worker_ids: &[WorkerId], available: &mut HashSet<TaskId>) -> Assignment {
        let plan = self.greedy_completion(worker_ids, available);
        let mut assignment = Assignment::new();
        for (w, seq) in plan {
            for t in seq.iter() {
                available.remove(&t);
            }
            assignment.set(w, seq);
        }
        assignment
    }

    /// Greedy completion used both by the Greedy baseline and as the
    /// budget-exhausted fallback of the exact search. Does not mutate
    /// `available`.
    fn greedy_completion(
        &self,
        worker_ids: &[WorkerId],
        available: &HashSet<TaskId>,
    ) -> Vec<(WorkerId, TaskSequence)> {
        let mut taken: HashSet<TaskId> = HashSet::new();
        let mut plan = Vec::new();
        for &w in worker_ids {
            if let Some(sequence_set) = self.sequences.get(&w) {
                // Sequences are sorted longest-first, so in a phantom-free
                // store (every pre-forecast caller, including the Greedy
                // policy) the first compatible one is the greedy choice and
                // the scan can stop there. With predicted tasks in the
                // store, rank compatible candidates by the lexicographic
                // weight instead, so a budget-exhausted fallback can never
                // hand a worker phantoms over real work.
                let mut compatible = sequence_set.iter().filter(|q| {
                    q.iter()
                        .all(|t| available.contains(&t) && !taken.contains(&t))
                });
                let chosen: Option<&TaskSequence> = if !self.has_predicted {
                    compatible.next()
                } else {
                    let mut best: Option<(usize, &TaskSequence)> = None;
                    for q in compatible {
                        let weight = self.sequence_weight(q);
                        if best.is_none_or(|(bw, _)| weight > bw) {
                            best = Some((weight, q));
                        }
                    }
                    best.map(|(_, q)| q)
                };
                if let Some(q) = chosen {
                    for t in q.iter() {
                        taken.insert(t);
                    }
                    plan.push((w, q.clone()));
                }
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reachable::{build_worker_dependency_graph, reachable_tasks};
    use crate::sequences::generate_sequences;
    use crate::tvf::TaskValueFunction;
    use datawa_core::{Location, Task, Worker};

    /// Builds the full search context for a small scenario: two workers close
    /// together competing over three tasks on a line.
    struct Fixture {
        workers: WorkerStore,
        tasks: TaskStore,
        config: AssignConfig,
    }

    fn fixture() -> Fixture {
        let mut workers = WorkerStore::new();
        workers.insert(Worker::new(
            WorkerId(0),
            Location::new(0.0, 0.0),
            10.0,
            Timestamp(0.0),
            Timestamp(100.0),
        ));
        workers.insert(Worker::new(
            WorkerId(0),
            Location::new(4.0, 0.0),
            10.0,
            Timestamp(0.0),
            Timestamp(100.0),
        ));
        let mut tasks = TaskStore::new();
        tasks.insert(Task::new(
            TaskId(0),
            Location::new(1.0, 0.0),
            Timestamp(0.0),
            Timestamp(100.0),
        ));
        tasks.insert(Task::new(
            TaskId(0),
            Location::new(2.0, 0.0),
            Timestamp(0.0),
            Timestamp(100.0),
        ));
        tasks.insert(Task::new(
            TaskId(0),
            Location::new(3.0, 0.0),
            Timestamp(0.0),
            Timestamp(100.0),
        ));
        Fixture {
            workers,
            tasks,
            config: AssignConfig::unit_speed(),
        }
    }

    struct Built {
        candidates: Vec<TaskId>,
        sequences: HashMap<WorkerId, SequenceSet>,
        reachable: ReachableSets,
        tree: ClusterTree,
        mapping: Vec<WorkerId>,
    }

    fn build(f: &Fixture) -> Built {
        let wids: Vec<WorkerId> = f.workers.ids().collect();
        let tids: Vec<TaskId> = f.tasks.ids().collect();
        let reachable = reachable_tasks(
            &wids,
            &tids,
            &f.workers,
            &f.tasks,
            &f.config,
            Timestamp(0.0),
        );
        let mut sequences = HashMap::new();
        for &w in &wids {
            sequences.insert(
                w,
                generate_sequences(
                    f.workers.get(w),
                    reachable.of(w),
                    &f.tasks,
                    &f.config,
                    Timestamp(0.0),
                ),
            );
        }
        let (graph, mapping) = build_worker_dependency_graph(&wids, &reachable);
        let tree = ClusterTree::build(&graph);
        Built {
            candidates: tids,
            sequences,
            reachable,
            tree,
            mapping,
        }
    }

    #[test]
    fn exact_search_assigns_all_tasks_when_possible() {
        let f = fixture();
        let b = build(&f);
        let search = DfSearch::new(
            &f.workers,
            &f.tasks,
            &b.candidates,
            &f.config,
            Timestamp(0.0),
            &b.sequences,
            &b.reachable,
        );
        let mut available: HashSet<TaskId> = f.tasks.ids().collect();
        let assignment = search.exact(&b.tree, &b.mapping, &mut available, None);
        assert_eq!(
            assignment.assigned_count(),
            3,
            "all three tasks are assignable"
        );
        assert!(assignment
            .validate(&f.workers, &f.tasks, &f.config.travel, Timestamp(0.0))
            .is_empty());
    }

    #[test]
    fn exact_search_beats_or_matches_greedy() {
        let f = fixture();
        let b = build(&f);
        let search = DfSearch::new(
            &f.workers,
            &f.tasks,
            &b.candidates,
            &f.config,
            Timestamp(0.0),
            &b.sequences,
            &b.reachable,
        );
        let wids: Vec<WorkerId> = f.workers.ids().collect();
        let mut avail_greedy: HashSet<TaskId> = f.tasks.ids().collect();
        let greedy = search.greedy(&wids, &mut avail_greedy);
        let mut avail_exact: HashSet<TaskId> = f.tasks.ids().collect();
        let exact = search.exact(&b.tree, &b.mapping, &mut avail_exact, None);
        assert!(exact.assigned_count() >= greedy.assigned_count());
    }

    #[test]
    fn exact_search_collects_training_samples() {
        let f = fixture();
        let b = build(&f);
        let search = DfSearch::new(
            &f.workers,
            &f.tasks,
            &b.candidates,
            &f.config,
            Timestamp(0.0),
            &b.sequences,
            &b.reachable,
        );
        let mut available: HashSet<TaskId> = f.tasks.ids().collect();
        let mut samples = Vec::new();
        let _ = search.exact(&b.tree, &b.mapping, &mut available, Some(&mut samples));
        assert!(!samples.is_empty());
        // Rewards are bounded by the number of tasks.
        assert!(samples.iter().all(|s| s.opt >= 1.0 && s.opt <= 3.0));
        assert!(samples.iter().all(|s| s.action.sequence_len >= 1));
    }

    #[test]
    fn guided_search_respects_task_exclusivity() {
        let f = fixture();
        let b = build(&f);
        let search = DfSearch::new(
            &f.workers,
            &f.tasks,
            &b.candidates,
            &f.config,
            Timestamp(0.0),
            &b.sequences,
            &b.reachable,
        );
        let tvf = TaskValueFunction::new(8, 0).inference();
        let mut available: HashSet<TaskId> = f.tasks.ids().collect();
        let assignment = search.guided(&b.tree, &b.mapping, &mut available, &tvf);
        // Whatever the untrained TVF picks, the assignment must stay feasible
        // and single-assignment.
        assert!(assignment
            .validate(&f.workers, &f.tasks, &f.config.travel, Timestamp(0.0))
            .is_empty());
        assert!(assignment.assigned_count() <= 3);
    }

    #[test]
    fn trained_tvf_recovers_near_exact_quality_on_the_fixture() {
        let f = fixture();
        let b = build(&f);
        let search = DfSearch::new(
            &f.workers,
            &f.tasks,
            &b.candidates,
            &f.config,
            Timestamp(0.0),
            &b.sequences,
            &b.reachable,
        );
        let mut available: HashSet<TaskId> = f.tasks.ids().collect();
        let mut samples = Vec::new();
        let exact = search.exact(&b.tree, &b.mapping, &mut available, Some(&mut samples));
        let mut tvf = TaskValueFunction::new(16, 3);
        let tuples: Vec<_> = samples.iter().map(|s| (s.state, s.action, s.opt)).collect();
        tvf.train(&tuples, 150, 8, 0.01, 3);
        let mut available: HashSet<TaskId> = f.tasks.ids().collect();
        let guided = search.guided(&b.tree, &b.mapping, &mut available, &tvf.inference());
        assert!(
            guided.assigned_count() + 1 >= exact.assigned_count(),
            "guided search should be within one task of exact on this toy instance (guided={}, exact={})",
            guided.assigned_count(),
            exact.assigned_count()
        );
    }

    #[test]
    fn zero_budget_falls_back_to_greedy_but_stays_feasible() {
        let f = fixture();
        let b = build(&f);
        let mut config = f.config;
        config.search_node_budget = 0;
        let search = DfSearch::new(
            &f.workers,
            &f.tasks,
            &b.candidates,
            &config,
            Timestamp(0.0),
            &b.sequences,
            &b.reachable,
        );
        let mut available: HashSet<TaskId> = f.tasks.ids().collect();
        let assignment = search.exact(&b.tree, &b.mapping, &mut available, None);
        assert!(assignment
            .validate(&f.workers, &f.tasks, &config.travel, Timestamp(0.0))
            .is_empty());
        assert!(assignment.assigned_count() >= 1);
    }
}
