//! Maximal valid task sequence generation (§IV-A.1, Eq. 10).
//!
//! For every worker we enumerate valid task sequences over their reachable
//! task set and keep, for each distinct *set* of tasks, the ordering with the
//! earliest completion time (Eq. 10). The result `Q_w` is what both DFSearch
//! variants branch over.
//!
//! **Generation allocates nothing per prefix.** The enumeration is
//! depth-first over orderings of the reachable list and carries the prefix's
//! location, arrival time and travelled distance down the recursion. Eq. 1
//! accumulates left to right, so the carried running sum is bitwise the
//! float [`TaskSequence::arrival_times`] computes. An extension is validated
//! by checking the new task alone: the prefix passed Definition 4 when it was
//! formed, and appending a task changes none of its arrival times. A prefix
//! that violates a constraint cannot be extended into a valid sequence, so
//! its subtree is skipped.
//!
//! Every valid prefix is staged as a record in flat buffers that are reused
//! across workers and instants: its ordering, its sorted task set, its
//! completion time and its DFS order. A sort groups the records by task set.
//! Per set the earliest completion wins, and among equal completions the
//! ordering found first wins, as a strict `<` over DFS order gives. Every
//! task set is kept, subsets of another included: the exact search needs
//! them to reach the optimum. The survivors are sorted by decreasing
//! length, then increasing completion, then lexicographically by task id —
//! a total order, so no tie is left to the order of any container. No `TaskSequence` is built for a prefix that
//! is not kept.
//!
//! **Storage.** [`CandidateSequences`] holds `Q_w` of every planned worker
//! flat: one slot per position of the worker list it was filled for, each
//! candidate with its tasks, its completion time, its travelled distance and
//! its count of already-published tasks — all the searches and the TVF's
//! action features read. [`generate_sequences`] is the one-worker form that
//! returns `TaskSequence`s; only the benchmark harness's planner probe and
//! tests call it.

use crate::config::AssignConfig;
use crate::reachable::ReachableSets;
use datawa_core::time::cmp_timestamps;
use datawa_core::{
    Location, TaskId, TaskSequence, TaskStore, Timestamp, TravelModel, Worker, WorkerId,
    WorkerStore,
};
use std::ops::Range;

/// The candidate sequences `Q_w` of one worker.
#[derive(Debug, Clone, Default)]
pub struct SequenceSet {
    /// Candidate sequences, sorted by decreasing length then increasing
    /// completion time, so greedy consumers can take the front element.
    pub sequences: Vec<TaskSequence>,
}

impl SequenceSet {
    /// Number of candidate sequences.
    pub fn len(&self) -> usize {
        self.sequences.len()
    }

    /// Whether the worker has no candidate sequence.
    pub fn is_empty(&self) -> bool {
        self.sequences.is_empty()
    }

    /// Iterates over the candidate sequences.
    pub fn iter(&self) -> impl Iterator<Item = &TaskSequence> {
        self.sequences.iter()
    }
}

/// Enumerates `Q_w` for `worker` over its reachable tasks (see the module
/// docs).
pub fn generate_sequences(
    worker: &Worker,
    reachable: &[TaskId],
    tasks: &TaskStore,
    config: &AssignConfig,
    now: Timestamp,
) -> SequenceSet {
    let mut out = CandidateSequences::default();
    out.gen
        .generate(worker, reachable, tasks, config, now, &mut out.pool);
    SequenceSet {
        sequences: (0..out.pool.candidates.len())
            .map(|c| out.sequence(c))
            .collect(),
    }
}

/// One candidate sequence of a [`CandidateSequences`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate {
    /// Offset of its tasks in the flat task storage.
    start: u32,
    /// Number of tasks.
    len: u32,
    /// Arrival time at the last task (Eq. 1).
    pub(crate) completion: Timestamp,
    /// Distance travelled from the worker's location through every task.
    pub(crate) distance: f64,
    /// Tasks already published at the planning instant (the rest are
    /// predicted ones).
    pub(crate) real: u32,
}

impl Candidate {
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    /// Positions of its tasks in the flat task storage.
    pub(crate) fn span(&self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// Candidates and their tasks, back to back.
#[derive(Debug, Default)]
struct Pool {
    candidates: Vec<Candidate>,
    tasks: Vec<TaskId>,
}

/// The candidate sequences `Q_w` of every worker of one planning instant.
///
/// Slot `i` belongs to the `i`-th worker of the list the sequences were
/// generated for — which is graph node `i` of a worker dependency graph
/// built over the same list, the index the searches address slots by. The
/// buffers are reused from one instant to the next.
#[derive(Debug, Default)]
pub struct CandidateSequences {
    /// The worker of each slot.
    workers: Vec<WorkerId>,
    /// Per slot, its candidates' index range, in `Q_w` order.
    spans: Vec<(u32, u32)>,
    pool: Pool,
    gen: GenScratch,
}

impl CandidateSequences {
    /// `Q_w` of every worker of `worker_ids`, in that order, over its list
    /// in `reachable`.
    pub fn generate(
        worker_ids: &[WorkerId],
        workers: &WorkerStore,
        tasks: &TaskStore,
        reachable: &ReachableSets,
        config: &AssignConfig,
        now: Timestamp,
    ) -> CandidateSequences {
        let mut out = CandidateSequences::default();
        out.fill(worker_ids, workers, tasks, reachable, config, now);
        out
    }

    /// [`CandidateSequences::generate`] into these buffers.
    pub(crate) fn fill(
        &mut self,
        worker_ids: &[WorkerId],
        workers: &WorkerStore,
        tasks: &TaskStore,
        reachable: &ReachableSets,
        config: &AssignConfig,
        now: Timestamp,
    ) {
        self.workers.clear();
        self.workers.extend_from_slice(worker_ids);
        self.spans.clear();
        self.pool.candidates.clear();
        self.pool.tasks.clear();
        for &w in worker_ids {
            let first = self.pool.candidates.len() as u32;
            self.gen.generate(
                workers.get(w),
                reachable.of(w),
                tasks,
                config,
                now,
                &mut self.pool,
            );
            self.spans.push((first, self.pool.candidates.len() as u32));
        }
    }

    /// Number of slots.
    pub(crate) fn len(&self) -> usize {
        self.workers.len()
    }

    /// The worker of slot `slot`.
    pub(crate) fn worker(&self, slot: usize) -> WorkerId {
        self.workers[slot]
    }

    /// Indices of the candidates of slot `slot`, in `Q_w` order.
    pub(crate) fn of(&self, slot: usize) -> Range<usize> {
        let (first, end) = self.spans[slot];
        first as usize..end as usize
    }

    pub(crate) fn candidate(&self, c: usize) -> &Candidate {
        &self.pool.candidates[c]
    }

    /// The flat task storage every [`Candidate::span`] points into.
    pub(crate) fn tasks(&self) -> &[TaskId] {
        &self.pool.tasks
    }

    /// Candidate `c` as a `TaskSequence`.
    pub(crate) fn sequence(&self, c: usize) -> TaskSequence {
        TaskSequence::from_ids(
            self.pool.tasks[self.pool.candidates[c].span()]
                .iter()
                .copied(),
        )
    }
}

/// What generation reads of one reachable task, loaded once per worker.
#[derive(Debug, Clone, Copy)]
struct Stop {
    id: TaskId,
    location: Location,
    expiration: f64,
    /// Travel distance from the worker's location: the first leg of every
    /// sequence starting here, and the range constraint (iii).
    from_worker: f64,
    /// Violates Definition 4 (iii): outside the worker's reachable range.
    out_of_range: bool,
    /// Not yet published at the planning instant.
    predicted: bool,
}

/// One valid prefix met by the enumeration.
#[derive(Debug, Clone, Copy)]
struct Record {
    /// Offset of its ordering in `GenScratch::orders` and of its sorted task
    /// set in `GenScratch::sets`.
    at: u32,
    len: u32,
    completion: Timestamp,
    distance: f64,
    real: u32,
}

/// Generation's reusable buffers.
#[derive(Debug, Default)]
struct GenScratch {
    stops: Vec<Stop>,
    /// The DFS prefix, as indices into `stops`.
    prefix: Vec<usize>,
    /// Every valid prefix, in DFS order.
    records: Vec<Record>,
    /// Per record, at `Record::at`: its ordering and its sorted task set.
    orders: Vec<TaskId>,
    sets: Vec<TaskId>,
    /// Record indices: grouped by task set, then the kept ones.
    grouped: Vec<u32>,
    kept: Vec<u32>,
}

impl GenScratch {
    /// Appends `Q_w` of `worker` over `reachable` to `out`.
    fn generate(
        &mut self,
        worker: &Worker,
        reachable: &[TaskId],
        tasks: &TaskStore,
        config: &AssignConfig,
        now: Timestamp,
        out: &mut Pool,
    ) {
        let travel = &config.travel;
        self.stops.clear();
        self.stops.extend(reachable.iter().map(|&id| {
            let task = tasks.get(id);
            let from_worker = travel.travel_distance(&worker.location, &task.location);
            Stop {
                id,
                location: task.location,
                expiration: task.expiration.0,
                from_worker,
                out_of_range: from_worker > worker.reachable_distance,
                predicted: task.publication.0 > now.0,
            }
        }));
        self.prefix.clear();
        self.records.clear();
        self.orders.clear();
        self.sets.clear();
        let max_len = config.max_sequence_len.min(reachable.len());
        self.extend(worker, travel, max_len, worker.location, now, 0.0, 0);
        self.select();
        for &r in &self.kept {
            let r = self.records[r as usize];
            let start = out.tasks.len() as u32;
            out.tasks
                .extend_from_slice(&self.orders[r.at as usize..(r.at + r.len) as usize]);
            out.candidates.push(Candidate {
                start,
                len: r.len,
                completion: r.completion,
                distance: r.distance,
                real: r.real,
            });
        }
    }

    /// Stages every valid extension of the current prefix — which ends at
    /// `from` at time `at`, after travelling `distance` — and recurses into
    /// it.
    #[allow(clippy::too_many_arguments)]
    fn extend(
        &mut self,
        worker: &Worker,
        travel: &TravelModel,
        max_len: usize,
        from: Location,
        at: Timestamp,
        distance: f64,
        real: u32,
    ) {
        if self.prefix.len() >= max_len {
            return;
        }
        for next in 0..self.stops.len() {
            let stop = self.stops[next];
            if self.prefix.iter().any(|&p| self.stops[p].id == stop.id) {
                continue;
            }
            let leg = if self.prefix.is_empty() {
                stop.from_worker
            } else {
                travel.travel_distance(&from, &stop.location)
            };
            // `TravelModel::travel_time` of the leg, added as Eq. 1 adds it.
            let arrival = Timestamp(at.0 + leg / travel.speed);
            // Definition 4 for the new task: (i) before its expiration, (ii)
            // before the worker goes offline, (iii) within range.
            if arrival.0 >= stop.expiration || arrival.0 >= worker.off().0 || stop.out_of_range {
                continue;
            }
            let distance = distance + leg;
            let real = real + u32::from(!stop.predicted);
            self.prefix.push(next);
            self.stage(arrival, distance, real);
            self.extend(
                worker,
                travel,
                max_len,
                stop.location,
                arrival,
                distance,
                real,
            );
            self.prefix.pop();
        }
    }

    /// Records the current prefix.
    fn stage(&mut self, completion: Timestamp, distance: f64, real: u32) {
        let at = self.orders.len();
        for &p in &self.prefix {
            self.orders.push(self.stops[p].id);
        }
        self.sets.extend_from_slice(&self.orders[at..]);
        self.sets[at..].sort_unstable();
        self.records.push(Record {
            at: at as u32,
            len: self.prefix.len() as u32,
            completion,
            distance,
            real,
        });
    }

    /// Leaves in `kept` the records that make `Q_w`, in `Q_w` order.
    fn select(&mut self) {
        let records = &self.records;
        let set = |r: u32| {
            let r = &records[r as usize];
            &self.sets[r.at as usize..(r.at + r.len) as usize]
        };
        // Eq. 10: per task set, the earliest completion; among equal
        // completions the ordering found first.
        self.grouped.clear();
        self.grouped.extend(0..records.len() as u32);
        self.grouped
            .sort_unstable_by(|&a, &b| set(a).cmp(set(b)).then(a.cmp(&b)));
        self.kept.clear();
        for group in self.grouped.chunk_by(|&a, &b| set(a) == set(b)) {
            let mut best = group[0];
            for &r in &group[1..] {
                if records[r as usize].completion < records[best as usize].completion {
                    best = r;
                }
            }
            self.kept.push(best);
        }
        let order = |r: u32| {
            let r = &records[r as usize];
            &self.orders[r.at as usize..(r.at + r.len) as usize]
        };
        self.kept.sort_unstable_by(|&a, &b| {
            let (ra, rb) = (&records[a as usize], &records[b as usize]);
            rb.len
                .cmp(&ra.len)
                .then_with(|| cmp_timestamps(ra.completion, rb.completion))
                .then_with(|| order(a).cmp(order(b)))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reachable::reachable_tasks;
    use datawa_core::{Location, Task, WorkerId};
    use std::collections::BTreeMap;

    fn store(line: &[(f64, f64)]) -> TaskStore {
        let mut s = TaskStore::new();
        for &(x, e) in line {
            s.insert(Task::new(
                TaskId(0),
                Location::new(x, 0.0),
                Timestamp(0.0),
                Timestamp(e),
            ));
        }
        s
    }

    fn worker_at_origin(d: f64, off: f64) -> Worker {
        Worker::new(
            WorkerId(0),
            Location::new(0.0, 0.0),
            d,
            Timestamp(0.0),
            Timestamp(off),
        )
    }

    /// The definition, as generation read before it was made
    /// allocation-free: every ordering validated and timed from scratch, a
    /// map from task set to its best ordering, then the same total sort.
    fn reference(
        worker: &Worker,
        reachable: &[TaskId],
        tasks: &TaskStore,
        config: &AssignConfig,
        now: Timestamp,
    ) -> Vec<TaskSequence> {
        fn dfs(
            current: &mut Vec<TaskId>,
            ctx: (
                &Worker,
                &[TaskId],
                &TaskStore,
                &AssignConfig,
                Timestamp,
                usize,
            ),
            best: &mut BTreeMap<Vec<TaskId>, (TaskSequence, Timestamp)>,
        ) {
            let (worker, reachable, tasks, config, now, max_len) = ctx;
            if current.len() >= max_len {
                return;
            }
            for &t in reachable {
                if current.contains(&t) {
                    continue;
                }
                current.push(t);
                let seq = TaskSequence::from_ids(current.iter().copied());
                if seq.is_valid(worker, tasks, &config.travel, now) {
                    let completion = seq.completion_time(worker, tasks, &config.travel, now);
                    let mut key = current.clone();
                    key.sort_unstable();
                    match best.get_mut(&key) {
                        Some(entry) if completion < entry.1 => *entry = (seq, completion),
                        Some(_) => {}
                        None => {
                            best.insert(key, (seq, completion));
                        }
                    }
                    dfs(current, ctx, best);
                }
                current.pop();
            }
        }
        let mut best = BTreeMap::new();
        let max_len = config.max_sequence_len.min(reachable.len());
        let ctx = (worker, reachable, tasks, config, now, max_len);
        dfs(&mut Vec::new(), ctx, &mut best);
        let mut kept: Vec<(TaskSequence, Timestamp)> = best.into_values().collect();
        kept.sort_by(|a, b| {
            b.0.len()
                .cmp(&a.0.len())
                .then_with(|| cmp_timestamps(a.1, b.1))
                .then_with(|| a.0.iter().cmp(b.0.iter()))
        });
        kept.into_iter().map(|(s, _)| s).collect()
    }

    #[test]
    fn keeps_minimum_completion_ordering_per_task_set() {
        // Tasks at x = 1 and x = 2: order (1, 2) completes at t=2, order (2, 1)
        // at t=3. Only the former must survive for the pair set (Eq. 10).
        let tasks = store(&[(1.0, 100.0), (2.0, 100.0)]);
        let worker = worker_at_origin(10.0, 100.0);
        let config = AssignConfig::unit_speed();
        let qs = generate_sequences(
            &worker,
            &[TaskId(0), TaskId(1)],
            &tasks,
            &config,
            Timestamp(0.0),
        );
        let pair = qs
            .iter()
            .find(|s| s.len() == 2)
            .expect("the pair sequence must be generated");
        assert_eq!(pair.tasks(), &[TaskId(0), TaskId(1)]);
        // Singletons + the pair.
        assert_eq!(qs.len(), 3);
        assert_eq!(qs.sequences[0].len(), 2);
    }

    #[test]
    fn the_ordering_found_first_wins_a_completion_tie() {
        // Tasks at x = -1 and x = +1: both orderings of the pair complete at
        // t = 3; the enumeration meets (0, 1) first.
        let mut tasks = TaskStore::new();
        for x in [-1.0, 1.0] {
            tasks.insert(Task::new(
                TaskId(0),
                Location::new(x, 0.0),
                Timestamp(0.0),
                Timestamp(100.0),
            ));
        }
        let worker = worker_at_origin(10.0, 100.0);
        let config = AssignConfig::unit_speed();
        for reachable in [[TaskId(0), TaskId(1)], [TaskId(1), TaskId(0)]] {
            let qs = generate_sequences(&worker, &reachable, &tasks, &config, Timestamp(0.0));
            assert_eq!(qs.sequences[0].tasks(), &reachable);
        }
    }

    #[test]
    fn invalid_prefixes_are_pruned() {
        // Second task expires too early to be reached after the first.
        let tasks = store(&[(1.0, 100.0), (2.0, 1.5)]);
        let worker = worker_at_origin(10.0, 100.0);
        let config = AssignConfig::unit_speed();
        let qs = generate_sequences(
            &worker,
            &[TaskId(0), TaskId(1)],
            &tasks,
            &config,
            Timestamp(0.0),
        );
        // (s1) alone is valid (reached at t=2 >= 1.5? no: travel 2.0 > 1.5 so
        // s1 alone is invalid too) — only (s0) and nothing containing s1.
        assert!(qs.iter().all(|s| !s.contains(TaskId(1))));
        assert_eq!(qs.len(), 1);
    }

    #[test]
    fn max_sequence_len_caps_candidates() {
        let tasks = store(&[(1.0, 100.0), (2.0, 100.0), (3.0, 100.0)]);
        let worker = worker_at_origin(10.0, 100.0);
        let mut config = AssignConfig::unit_speed();
        config.max_sequence_len = 1;
        let qs = generate_sequences(
            &worker,
            &[TaskId(0), TaskId(1), TaskId(2)],
            &tasks,
            &config,
            Timestamp(0.0),
        );
        assert_eq!(qs.len(), 3);
        assert!(qs.iter().all(|s| s.len() == 1));
    }

    #[test]
    fn every_generated_sequence_is_valid() {
        let tasks = store(&[(0.5, 5.0), (1.5, 6.0), (2.5, 4.0), (0.8, 9.0)]);
        let worker = worker_at_origin(2.0, 7.0);
        let config = AssignConfig::unit_speed();
        let reachable: Vec<TaskId> = tasks.ids().collect();
        let qs = generate_sequences(&worker, &reachable, &tasks, &config, Timestamp(0.0));
        assert!(!qs.is_empty());
        for seq in qs.iter() {
            assert!(seq.is_valid(&worker, &tasks, &config.travel, Timestamp(0.0)));
        }
    }

    /// Generation equals the from-scratch definition, sequence for sequence
    /// and completion for completion, on a grid of small scenes: tasks on a
    /// lattice with tight deadlines, several length caps and a worker whose
    /// window closes mid-route.
    #[test]
    fn generation_equals_the_from_scratch_definition() {
        let mut scenes = 0;
        for seed in 0..40u64 {
            let mut tasks = TaskStore::new();
            let n = 2 + (seed % 6) as usize;
            for i in 0..n {
                let k = (seed * 7 + i as u64 * 13) % 17;
                tasks.insert(Task::new(
                    TaskId(0),
                    Location::new((k % 5) as f64 * 0.7, (k / 5) as f64 * 0.6),
                    Timestamp(if k.is_multiple_of(4) { 1.0 } else { 0.0 }),
                    Timestamp(2.0 + (k % 7) as f64),
                ));
            }
            let worker = Worker::new(
                WorkerId(0),
                Location::new(1.0, 0.5),
                1.5 + (seed % 3) as f64,
                Timestamp(0.0),
                Timestamp(4.0 + (seed % 5) as f64),
            );
            let mut reachable: Vec<TaskId> = tasks.ids().collect();
            reachable.reverse();
            for max_len in [2, 3, 4, 5] {
                let config = AssignConfig {
                    max_sequence_len: max_len,
                    ..AssignConfig::unit_speed()
                };
                let now = Timestamp(0.5);
                let expected = reference(&worker, &reachable, &tasks, &config, now);
                let qs = generate_sequences(&worker, &reachable, &tasks, &config, now);
                assert_eq!(qs.sequences, expected, "seed {seed}, {config:?}");
                scenes += usize::from(expected.len() > 3);
            }
        }
        assert!(scenes > 40, "too few scenes with several candidates");
    }

    /// The candidates carry what `TaskSequence::arrival_times` computes,
    /// bitwise, and their published-task count.
    #[test]
    fn candidates_carry_their_route_bitwise() {
        let mut tasks = store(&[(0.3, 50.0), (1.7, 60.0), (2.9, 40.0), (0.8, 90.0)]);
        tasks.insert(Task::new(
            TaskId(0),
            Location::new(1.1, 0.4),
            Timestamp(5.0),
            Timestamp(80.0),
        ));
        let mut workers = WorkerStore::new();
        let w = workers.insert(worker_at_origin(4.0, 70.0));
        let config = AssignConfig::unit_speed();
        let now = Timestamp(0.1);
        let ids: Vec<TaskId> = tasks.ids().collect();
        let reachable = reachable_tasks(&[w], &ids, &workers, &tasks, &config, now);
        let qs = CandidateSequences::generate(&[w], &workers, &tasks, &reachable, &config, now);
        assert_eq!((qs.len(), qs.worker(0)), (1, w));
        assert!(qs.of(0).len() > 5);
        for c in qs.of(0) {
            let seq = qs.sequence(c);
            let arrivals = seq.arrival_times(workers.get(w), &tasks, &config.travel, now);
            let candidate = qs.candidate(c);
            assert_eq!(
                candidate.completion.0.to_bits(),
                arrivals.completion.0.to_bits()
            );
            assert_eq!(
                candidate.distance.to_bits(),
                arrivals.total_distance.to_bits()
            );
            let real = seq.iter().filter(|&t| tasks.get(t).publication.0 <= now.0);
            assert_eq!(candidate.real as usize, real.count());
        }
    }

    #[test]
    fn reused_buffers_are_byte_identical_to_fresh_generation() {
        let tasks = store(&[(0.5, 5.0), (1.5, 6.0), (2.5, 4.0), (0.8, 9.0)]);
        let mut workers = WorkerStore::new();
        let near = workers.insert(worker_at_origin(2.0, 7.0));
        let far = workers.insert(worker_at_origin(0.6, 7.0));
        let config = AssignConfig::unit_speed();
        let now = Timestamp(0.0);
        let ids: Vec<TaskId> = tasks.ids().collect();
        let reachable = reachable_tasks(&[near, far], &ids, &workers, &tasks, &config, now);
        let mut pooled = CandidateSequences::default();
        for (round, list) in [[near, far], [far, near], [near, far]].iter().enumerate() {
            pooled.fill(list, &workers, &tasks, &reachable, &config, now);
            for (slot, &w) in list.iter().enumerate() {
                let fresh =
                    generate_sequences(workers.get(w), reachable.of(w), &tasks, &config, now);
                let got: Vec<TaskSequence> = pooled.of(slot).map(|c| pooled.sequence(c)).collect();
                assert_eq!(got, fresh.sequences, "round {round}, slot {slot}");
            }
        }
    }

    #[test]
    fn worker_with_no_reachable_tasks_has_empty_qw() {
        let tasks = store(&[(1.0, 100.0)]);
        let worker = worker_at_origin(10.0, 100.0);
        let config = AssignConfig::unit_speed();
        let qs = generate_sequences(&worker, &[], &tasks, &config, Timestamp(0.0));
        assert!(qs.is_empty());
    }
}
