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
//! the planner's partition loop). [`DfSearch::exact`], a sweep of the exact
//! search over every root against one shared available set, is the
//! reference the partitioned search is held to.
//!
//! **Dense state.** A search runs over one task universe at a time — a
//! partition's ascending task list, or the sorted candidate list for the
//! whole-tree sweep and the greedy baseline — whose positions index the
//! tasks `0..n`. The available set is a reused bitset over them. Every
//! candidate sequence's tasks are resolved to those indices once per
//! universe, so "all still available" is a few bit tests and take/restore
//! are bit flips. Candidate sequences are
//! read from [`CandidateSequences`] by slot, which is the graph node index of
//! the tree. The exact search records its choices (slot, candidate) in a
//! reused buffer, where the best plan of every subproblem is a run at the
//! end, and builds `TaskSequence`s once, for the final plan only. State
//! features, and the subtree walks they need, are computed only when samples
//! are collected; the guided search ranks by them, so it always computes
//! them. Nothing is allocated per expansion: the buffers live in a
//! [`SearchScratch`] that the planner keeps across instants and lends to
//! each search.
//!
//! **One dive.** The greedy baseline, Algorithm 2 and the exact search's
//! budget fallback make the same pass: each slot in turn takes its best
//! still-available candidate under a key, without branching (`dive`). The
//! greedy baseline runs on the dense state like the searches, but its
//! reachable sets come from a cold pass of the planner's reach layer: the
//! live pass would move `net-greedy` further than the benchmark's spread
//! can judge, and waits on its re-base (ROADMAP item 5).

use crate::config::AssignConfig;
use crate::partition::Partition;
use crate::reachable::ReachableSets;
use crate::sequences::CandidateSequences;
use crate::tvf::{ActionFeatures, StateFeatures, TvfInference};
use datawa_core::{Assignment, TaskId, TaskStore, Timestamp, WorkerStore};
use datawa_graph::ClusterTree;

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

/// The searches' reusable buffers (see the module docs). A caller that
/// searches at every planning instant keeps one alive and lends it to each
/// [`DfSearch`]; what a search leaves in it never changes the next one's
/// result.
#[derive(Debug, Default)]
pub struct SearchScratch {
    /// One bit per universe index, plus one never-set bit past the end: the
    /// tasks still available.
    available: Vec<u64>,
    /// Universe index of every task of every candidate, parallel to the
    /// candidates' flat task storage; valid for the slots resolved last.
    local: Vec<u32>,
    /// The sorted candidate tasks, when they are the universe.
    universe: Vec<TaskId>,
    /// Choices (slot, candidate) of the plans under construction.
    plan: Vec<(u32, u32)>,
    /// The slots a greedy dive visits, in order.
    order: Vec<usize>,
    /// Tree-walk stack.
    stack: Vec<usize>,
}

/// Search context shared by the greedy baseline and the exact and
/// TVF-guided searches.
pub struct DfSearch<'a> {
    ctx: Context<'a>,
    scratch: &'a mut SearchScratch,
}

/// What a search reads and never writes.
struct Context<'a> {
    workers: &'a WorkerStore,
    candidate_tasks: &'a [TaskId],
    config: &'a AssignConfig,
    now: Timestamp,
    sequences: &'a CandidateSequences,
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
    /// were derived from them; slot `i` of `sequences` is graph node `i` of
    /// every tree searched). The store may hold any number of others — the
    /// live store of a streaming run holds every task ever published — and
    /// none of them is looked at. The search works in `scratch`'s buffers.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        workers: &'a WorkerStore,
        tasks: &'a TaskStore,
        candidate_tasks: &'a [TaskId],
        config: &'a AssignConfig,
        now: Timestamp,
        sequences: &'a CandidateSequences,
        reachable: &'a ReachableSets,
        scratch: &'a mut SearchScratch,
    ) -> DfSearch<'a> {
        let has_predicted = candidate_tasks
            .iter()
            .any(|&t| tasks.get(t).publication.0 > now.0);
        DfSearch {
            ctx: Context {
                workers,
                candidate_tasks,
                config,
                now,
                sequences,
                reachable,
                real_weight: candidate_tasks.len() + 1,
                has_predicted,
            },
            scratch,
        }
    }

    // ------------------------------------------------------------------
    // Exact search (Algorithm 1)
    // ------------------------------------------------------------------

    /// Exact depth-first search over one cluster tree, root after root
    /// against one shared available set: every candidate task. When
    /// `samples` is provided, `(state, action, opt)` tuples are appended for
    /// TVF training.
    pub fn exact(
        &mut self,
        tree: &ClusterTree,
        mut samples: Option<&mut Vec<SearchSample>>,
    ) -> Assignment {
        let DfSearch { ctx, scratch: sc } = self;
        ctx.enter_candidates(sc);
        let mut assignment = Assignment::new();
        for &root in &tree.roots {
            sc.plan.clear();
            let mut budget = ctx.config.search_node_budget;
            ctx.exact_node(sc, tree, root, 0, &mut budget, &mut samples);
            ctx.flip_plan(sc, 0, false);
            ctx.emit(sc, &mut assignment);
        }
        assignment
    }

    /// Exact search over a single root subtree (one planning partition),
    /// against the partition's own available set: writes the plan into
    /// `out` and returns the number of search nodes the budgeted
    /// depth-first search expanded (the observability layer's
    /// `assign.search_nodes` counter; also a direct read on how much of
    /// [`AssignConfig::search_node_budget`] the instant consumed).
    ///
    /// Because root subtrees are task-disjoint, the plan is the one a sweep
    /// over one shared available set finds for this root.
    pub fn exact_partition(
        &mut self,
        tree: &ClusterTree,
        partition: &Partition,
        mut samples: Option<&mut Vec<SearchSample>>,
        out: &mut Assignment,
    ) -> usize {
        let DfSearch { ctx, scratch: sc } = self;
        let slots = partition.members.iter().copied();
        ctx.enter(&mut sc.available, &mut sc.local, slots, &partition.tasks);
        sc.plan.clear();
        let mut budget = ctx.config.search_node_budget;
        ctx.exact_node(sc, tree, partition.root, 0, &mut budget, &mut samples);
        ctx.emit(sc, out);
        ctx.config.search_node_budget - budget
    }

    /// The Greedy baseline of §V-B.2: every slot, in ascending order, dives
    /// under the weight key against every candidate task. Writes the plan
    /// into `out`.
    pub(crate) fn greedy(&mut self, out: &mut Assignment) {
        let DfSearch { ctx, scratch: sc } = self;
        ctx.enter_candidates(sc);
        sc.plan.clear();
        let mut order = std::mem::take(&mut sc.order);
        order.clear();
        order.extend(0..ctx.sequences.len());
        ctx.dive(sc, &order, Key::Weight);
        sc.order = order;
        ctx.emit(sc, out);
    }

    // ------------------------------------------------------------------
    // TVF-guided search (Algorithm 2)
    // ------------------------------------------------------------------

    /// Greedy tree traversal guided by the trained Task Value Function (a
    /// [`TvfInference`] snapshot, see
    /// [`crate::TaskValueFunction::inference`]) over a single root subtree
    /// (one planning partition): each worker receives the candidate sequence
    /// with the highest predicted long-term value, without backtracking.
    /// Writes the plan into `out` and returns the number of workers it
    /// assigned a sequence.
    ///
    /// Unlike the exact search, the guided search *reads* the available set
    /// (its `remaining_tasks` state feature counts it), so it runs against
    /// the partition's own tasks, matching the subproblem-local features the
    /// TVF was trained on.
    pub fn guided_partition(
        &mut self,
        tree: &ClusterTree,
        partition: &Partition,
        tvf: &TvfInference,
        out: &mut Assignment,
    ) -> usize {
        let DfSearch { ctx, scratch: sc } = self;
        let slots = partition.members.iter().copied();
        ctx.enter(&mut sc.available, &mut sc.local, slots, &partition.tasks);
        sc.plan.clear();
        ctx.guided_walk(sc, tree, partition.root, tvf);
        ctx.emit(sc, out);
        sc.plan.len()
    }
}

/// How a dive ranks a slot's still-available candidates; ties go to the
/// first.
#[derive(Clone, Copy)]
enum Key<'t> {
    /// The candidate's weight (`Context::weight`). Sequences are sorted
    /// longest-first, so with no predicted task in the store the first
    /// available candidate is the heaviest and the scan stops there.
    Weight,
    /// Algorithm 2, for the members of a node with this many workers below
    /// it: real-task count first when the store holds predicted tasks, then
    /// the TVF value of the action in the current state. Predicted tasks
    /// thus steer the choice among equally-real sequences but never
    /// displace real work; phantom-free instants rank by TVF value alone.
    Tvf(&'t TvfInference, usize),
}

impl Context<'_> {
    /// Makes `universe` (ascending) the search's task universe, every task
    /// available, and resolves the candidates of `slots` into it.
    ///
    /// Every task of a candidate is in its worker's reachable list, hence in
    /// the universe of any caller that keeps the `new` contract. A task that
    /// is not resolves to the never-set bit past the end, so a candidate
    /// holding one is never available, as if it were taken.
    fn enter(
        &self,
        available: &mut Vec<u64>,
        local: &mut Vec<u32>,
        slots: impl Iterator<Item = usize>,
        universe: &[TaskId],
    ) {
        let n = universe.len();
        available.clear();
        available.resize(n / 64, !0);
        available.push((1u64 << (n % 64)) - 1);
        let ids = self.sequences.tasks();
        if local.len() < ids.len() {
            local.resize(ids.len(), 0);
        }
        for slot in slots {
            for c in self.sequences.of(slot) {
                for j in self.sequences.candidate(c).span() {
                    local[j] = universe.binary_search(&ids[j]).unwrap_or(n) as u32;
                }
            }
        }
    }

    /// [`Context::enter`] with the sorted candidate tasks as the universe
    /// and every slot resolved.
    fn enter_candidates(&self, sc: &mut SearchScratch) {
        sc.universe.clear();
        sc.universe.extend_from_slice(self.candidate_tasks);
        sc.universe.sort_unstable();
        sc.universe.dedup();
        let slots = 0..self.sequences.len();
        self.enter(&mut sc.available, &mut sc.local, slots, &sc.universe);
    }

    fn all_available(&self, sc: &SearchScratch, c: usize) -> bool {
        sc.local[self.sequences.candidate(c).span()]
            .iter()
            .all(|&l| sc.available[l as usize / 64] & (1 << (l % 64)) != 0)
    }

    /// Takes candidate `c`'s tasks (`on == false`) or gives them back.
    fn flip(&self, sc: &mut SearchScratch, c: usize, on: bool) {
        for &l in &sc.local[self.sequences.candidate(c).span()] {
            let word = &mut sc.available[l as usize / 64];
            if on {
                *word |= 1 << (l % 64);
            } else {
                *word &= !(1 << (l % 64));
            }
        }
    }

    /// [`Context::flip`] for every choice of the plan from `from` on.
    fn flip_plan(&self, sc: &mut SearchScratch, from: usize, on: bool) {
        for k in from..sc.plan.len() {
            self.flip(sc, sc.plan[k].1 as usize, on);
        }
    }

    /// Writes the plan into `out`: one `TaskSequence` per chosen worker.
    fn emit(&self, sc: &SearchScratch, out: &mut Assignment) {
        for &(slot, c) in &sc.plan {
            out.set(
                self.sequences.worker(slot as usize),
                self.sequences.sequence(c as usize),
            );
        }
    }

    /// Weighted objective contribution of candidate `c`: real tasks
    /// (already published at the planning instant) count `real_weight`,
    /// predicted tasks (publication still in the future) count 1 — see the
    /// field's docs for why this makes the count lexicographic.
    fn weight(&self, c: usize) -> usize {
        let candidate = self.sequences.candidate(c);
        let real = candidate.real as usize;
        real * self.real_weight + (candidate.len() - real)
    }

    /// The TVF action features of giving slot `slot` candidate `c`: what
    /// [`ActionFeatures::compute`] derives from the route, which the
    /// candidate carries.
    fn action(&self, slot: usize, c: usize) -> ActionFeatures {
        let candidate = self.sequences.candidate(c);
        let worker = self.workers.get(self.sequences.worker(slot));
        ActionFeatures {
            sequence_len: candidate.len(),
            travel_time: (candidate.completion - self.now).seconds().max(0.0),
            travel_distance: candidate.distance,
            remaining_window: worker.remaining_window(self.now).seconds(),
        }
    }

    /// Workers in the subtrees below `node`.
    fn descendant_workers(&self, sc: &mut SearchScratch, tree: &ClusterTree, node: usize) -> usize {
        sc.stack.clear();
        sc.stack.extend_from_slice(&tree.nodes[node].children);
        let mut count = 0;
        while let Some(n) = sc.stack.pop() {
            count += tree.nodes[n].members.len();
            sc.stack.extend_from_slice(&tree.nodes[n].children);
        }
        count
    }

    fn state_features(
        &self,
        sc: &SearchScratch,
        pending: &[usize],
        descendant_workers: usize,
    ) -> StateFeatures {
        let remaining_workers = pending.len() + descendant_workers;
        let mean_reachable = if pending.is_empty() {
            0.0
        } else {
            pending
                .iter()
                .map(|&i| self.reachable.of(self.sequences.worker(i)).len() as f64)
                .sum::<f64>()
                / pending.len() as f64
        };
        StateFeatures {
            remaining_workers,
            remaining_tasks: sc.available.iter().map(|w| w.count_ones() as usize).sum(),
            mean_reachable,
        }
    }

    /// Recursive exact search on `node`, whose members from the `k`-th on
    /// are not branched on yet. Returns the best count and leaves the plan
    /// achieving it at the end of `sc.plan`, after what was there on entry.
    /// `sc.available` is restored to its input state before returning.
    fn exact_node(
        &self,
        sc: &mut SearchScratch,
        tree: &ClusterTree,
        node: usize,
        k: usize,
        budget: &mut usize,
        samples: &mut Option<&mut Vec<SearchSample>>,
    ) -> usize {
        let members = &tree.nodes[node].members;
        if *budget == 0 {
            // Budget exhausted: finish this subtree with a dive — the pending
            // members, then each child subtree's members in ascending order.
            sc.order.clear();
            sc.order.extend_from_slice(&members[k..]);
            for &child in &tree.nodes[node].children {
                let from = sc.order.len();
                sc.stack.clear();
                sc.stack.push(child);
                while let Some(n) = sc.stack.pop() {
                    sc.order.extend_from_slice(&tree.nodes[n].members);
                    sc.stack.extend_from_slice(&tree.nodes[n].children);
                }
                sc.order[from..].sort_unstable();
            }
            let (base, order) = (sc.plan.len(), std::mem::take(&mut sc.order));
            let count = self.dive(sc, &order, Key::Weight);
            sc.order = order;
            self.flip_plan(sc, base, true);
            return count;
        }
        *budget -= 1;

        if k == members.len() {
            // All of this node's workers are decided: recurse into children
            // (Algorithm 1, lines 15–16). Children are worker-independent, so
            // a sequential pass over the shared task pool stays exact: each
            // child's plan is committed while the next ones are searched,
            // then everything is given back.
            let base = sc.plan.len();
            let mut total = 0;
            for &child in &tree.nodes[node].children {
                let from = sc.plan.len();
                total += self.exact_node(sc, tree, child, 0, budget, samples);
                self.flip_plan(sc, from, false);
            }
            self.flip_plan(sc, base, true);
            return total;
        }

        let slot = members[k];
        let state = match samples {
            Some(_) => {
                let descendants = self.descendant_workers(sc, tree, node);
                Some(self.state_features(sc, &members[k..], descendants))
            }
            None => None,
        };

        // Option 0: leave this worker unassigned.
        let base = sc.plan.len();
        let mut best = self.exact_node(sc, tree, node, k + 1, budget, samples);

        // Options: every candidate sequence of the worker whose tasks are all
        // still available (Algorithm 1, lines 6–12).
        for c in self.sequences.of(slot) {
            if !self.all_available(sc, c) {
                continue;
            }
            self.flip(sc, c, false);
            let mark = sc.plan.len();
            let sub = self.exact_node(sc, tree, node, k + 1, budget, samples);
            self.flip(sc, c, true);
            let count = sub + self.weight(c);
            if let (Some(out), Some(state)) = (samples.as_deref_mut(), state) {
                out.push(SearchSample {
                    state,
                    action: self.action(slot, c),
                    // Report `opt` in task units: training stores hold
                    // only real tasks, so this is exactly the pre-weight
                    // cumulative count.
                    opt: count as f64 / self.real_weight as f64,
                });
            }
            if count > best {
                // The new best plan replaces the old one at `base`.
                best = count;
                sc.plan.push((slot as u32, c as u32));
                sc.plan.copy_within(mark.., base);
                sc.plan.truncate(base + sc.plan.len() - mark);
            } else {
                sc.plan.truncate(mark);
            }
        }
        best
    }

    /// Algorithm 2's walk over the subtree of `node`: the node's workers
    /// dive in member order, then its children's subtrees follow in order.
    fn guided_walk(
        &self,
        sc: &mut SearchScratch,
        tree: &ClusterTree,
        node: usize,
        tvf: &TvfInference,
    ) {
        let descendants = self.descendant_workers(sc, tree, node);
        self.dive(sc, &tree.nodes[node].members, Key::Tvf(tvf, descendants));
        for &child in &tree.nodes[node].children {
            self.guided_walk(sc, tree, child, tvf);
        }
    }

    /// The dive: each of `slots` in turn takes its best still-available
    /// candidate under `key`, without branching; the choices are appended
    /// to the plan with their tasks taken. Returns their weight.
    fn dive(&self, sc: &mut SearchScratch, slots: &[usize], key: Key<'_>) -> usize {
        let mut total = 0;
        for (i, &slot) in slots.iter().enumerate() {
            let state = match key {
                Key::Tvf(_, descendants) => self.state_features(sc, &slots[i..], descendants),
                Key::Weight => StateFeatures::default(),
            };
            let mut best: Option<(usize, f64, usize)> = None;
            for c in self.sequences.of(slot) {
                if !self.all_available(sc, c) {
                    continue;
                }
                let (rank, value) = match key {
                    Key::Weight => (self.weight(c), 0.0),
                    Key::Tvf(tvf, _) => (
                        self.sequences.candidate(c).real as usize * usize::from(self.has_predicted),
                        tvf.value(&state, &self.action(slot, c)),
                    ),
                };
                if best.is_none_or(|(r, v, _)| rank > r || (rank == r && value > v)) {
                    best = Some((rank, value, c));
                }
                if matches!(key, Key::Weight) && !self.has_predicted {
                    break;
                }
            }
            if let Some((_, _, c)) = best {
                self.flip(sc, c, false);
                sc.plan.push((slot as u32, c as u32));
                total += self.weight(c);
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::split_cluster_tree;
    use crate::planner::{Planner, SearchMode};
    use crate::reachable::{build_worker_dependency_graph, reachable_tasks};
    use crate::tvf::TaskValueFunction;
    use datawa_core::{Location, Task, TaskSequence, Worker, WorkerId};

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
        workers: Vec<WorkerId>,
        candidates: Vec<TaskId>,
        sequences: CandidateSequences,
        reachable: ReachableSets,
        tree: ClusterTree,
    }

    fn build(f: &Fixture) -> Built {
        let wids: Vec<WorkerId> = f.workers.ids().collect();
        let tids: Vec<TaskId> = f.tasks.ids().collect();
        let now = Timestamp(0.0);
        let reachable = reachable_tasks(&wids, &tids, &f.workers, &f.tasks, &f.config, now);
        let sequences =
            CandidateSequences::generate(&wids, &f.workers, &f.tasks, &reachable, &f.config, now);
        let (graph, _) = build_worker_dependency_graph(&wids, &reachable);
        let tree = ClusterTree::build(&graph);
        Built {
            workers: wids,
            candidates: tids,
            sequences,
            reachable,
            tree,
        }
    }

    fn search<'a>(
        f: &'a Fixture,
        b: &'a Built,
        config: &'a AssignConfig,
        scratch: &'a mut SearchScratch,
    ) -> DfSearch<'a> {
        DfSearch::new(
            &f.workers,
            &f.tasks,
            &b.candidates,
            config,
            Timestamp(0.0),
            &b.sequences,
            &b.reachable,
            scratch,
        )
    }

    /// The guided search over every partition of the fixture's tree, in
    /// root order, as the planner's partition loop runs it.
    fn guided(s: &mut DfSearch<'_>, b: &Built, tvf: &TvfInference) -> Assignment {
        let mut out = Assignment::new();
        for p in split_cluster_tree(&b.tree, &b.workers, &b.reachable) {
            s.guided_partition(&b.tree, &p, tvf, &mut out);
        }
        out
    }

    #[test]
    fn exact_search_assigns_all_tasks_when_possible() {
        let f = fixture();
        let b = build(&f);
        let mut scratch = SearchScratch::default();
        let assignment = search(&f, &b, &f.config, &mut scratch).exact(&b.tree, None);
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
        let mut planner = Planner::new(f.config, SearchMode::Greedy);
        let (greedy, _) = planner.plan(
            &b.workers,
            &b.candidates,
            &f.workers,
            &f.tasks,
            Timestamp(0.0),
        );
        let mut scratch = SearchScratch::default();
        let exact = search(&f, &b, &f.config, &mut scratch).exact(&b.tree, None);
        assert!(exact.assigned_count() >= greedy.assigned_count());
        assert!(greedy.assigned_count() >= 1);
        assert!(greedy
            .validate(&f.workers, &f.tasks, &f.config.travel, Timestamp(0.0))
            .is_empty());
    }

    #[test]
    fn exact_search_collects_training_samples() {
        let f = fixture();
        let b = build(&f);
        let mut samples = Vec::new();
        let mut scratch = SearchScratch::default();
        let _ = search(&f, &b, &f.config, &mut scratch).exact(&b.tree, Some(&mut samples));
        assert!(!samples.is_empty());
        // Rewards are bounded by the number of tasks.
        assert!(samples.iter().all(|s| s.opt >= 1.0 && s.opt <= 3.0));
        assert!(samples.iter().all(|s| s.action.sequence_len >= 1));
        // The carried route gives the action features `compute` derives.
        for s in &samples {
            assert!(s.state.remaining_tasks <= 3);
            assert!(s.action.travel_time > 0.0);
        }
    }

    /// The action features the search builds from a candidate's carried
    /// route are bitwise those `ActionFeatures::compute` derives from the
    /// sequence.
    #[test]
    fn action_features_equal_the_computed_ones() {
        let f = fixture();
        let b = build(&f);
        let mut scratch = SearchScratch::default();
        let s = search(&f, &b, &f.config, &mut scratch);
        for slot in 0..b.sequences.len() {
            let worker = f.workers.get(b.sequences.worker(slot));
            for c in b.sequences.of(slot) {
                let seq: TaskSequence = b.sequences.sequence(c);
                let computed = ActionFeatures::compute(
                    worker,
                    &seq,
                    &f.tasks,
                    &f.config.travel,
                    Timestamp(0.0),
                );
                assert_eq!(s.ctx.action(slot, c), computed);
            }
        }
    }

    #[test]
    fn guided_search_respects_task_exclusivity() {
        let f = fixture();
        let b = build(&f);
        let tvf = TaskValueFunction::new(8, 0).inference();
        let mut scratch = SearchScratch::default();
        let assignment = guided(&mut search(&f, &b, &f.config, &mut scratch), &b, &tvf);
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
        let mut samples = Vec::new();
        let mut scratch = SearchScratch::default();
        let exact = search(&f, &b, &f.config, &mut scratch).exact(&b.tree, Some(&mut samples));
        let mut tvf = TaskValueFunction::new(16, 3);
        let tuples: Vec<_> = samples.iter().map(|s| (s.state, s.action, s.opt)).collect();
        tvf.train(&tuples, 150, 8, 0.01, 3);
        let mut s = search(&f, &b, &f.config, &mut scratch);
        let planned = guided(&mut s, &b, &tvf.inference());
        assert!(
            planned.assigned_count() + 1 >= exact.assigned_count(),
            "guided search should be within one task of exact on this toy instance (guided={}, exact={})",
            planned.assigned_count(),
            exact.assigned_count()
        );
    }

    #[test]
    fn zero_budget_falls_back_to_greedy_but_stays_feasible() {
        let f = fixture();
        let b = build(&f);
        let mut config = f.config;
        config.search_node_budget = 0;
        let mut scratch = SearchScratch::default();
        let assignment = search(&f, &b, &config, &mut scratch).exact(&b.tree, None);
        assert!(assignment
            .validate(&f.workers, &f.tasks, &config.travel, Timestamp(0.0))
            .is_empty());
        assert!(assignment.assigned_count() >= 1);
    }

    /// A candidate holding a task outside the search's universe is never
    /// available, so no plan takes such a task — neither the search's nor
    /// its greedy completion's; an empty universe (a multiple of 64 tasks)
    /// still has room for the never-set bit.
    #[test]
    fn a_task_outside_the_universe_is_never_taken() {
        let f = fixture();
        let b = build(&f);
        for universe in [&b.candidates[..2], &[]] {
            for step in ["exact", "completion"] {
                let mut config = f.config;
                config.search_node_budget = if step == "completion" { 0 } else { 100 };
                let mut scratch = SearchScratch::default();
                let mut s = DfSearch::new(
                    &f.workers,
                    &f.tasks,
                    universe,
                    &config,
                    Timestamp(0.0),
                    &b.sequences,
                    &b.reachable,
                    &mut scratch,
                );
                let plan = s.exact(&b.tree, None);
                let taken = plan.assigned_tasks();
                assert!(taken.iter().all(|t| universe.contains(t)), "{step}");
                assert_eq!(taken.len(), universe.len(), "{step}");
            }
        }
    }

    /// A scratch carried from one search to the next — across the exact
    /// search, its greedy completion, the greedy baseline and the guided
    /// search, whose universes differ — plans what fresh buffers plan.
    #[test]
    fn reused_scratch_plans_like_fresh_buffers() {
        let f = fixture();
        let b = build(&f);
        let tvf = TaskValueFunction::new(8, 0).inference();
        let mut warm = SearchScratch::default();
        let steps = [
            "exact",
            "completion",
            "guided",
            "greedy",
            "exact",
            "guided",
            "completion",
            "greedy",
            "guided",
        ];
        for (round, step) in steps.into_iter().enumerate() {
            let mut config = f.config;
            // Out of budget at once: the exact search is its greedy completion.
            config.search_node_budget = if step == "completion" { 0 } else { 100 };
            let run = |scratch: &mut SearchScratch| {
                let mut s = search(&f, &b, &config, scratch);
                match step {
                    "guided" => guided(&mut s, &b, &tvf),
                    "greedy" => {
                        let mut out = Assignment::new();
                        s.greedy(&mut out);
                        out
                    }
                    _ => s.exact(&b.tree, None),
                }
            };
            let reused = run(&mut warm);
            let fresh = run(&mut SearchScratch::default());
            assert_eq!(reused, fresh, "round {round}: {step}");
        }
    }
}
