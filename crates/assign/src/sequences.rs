//! Maximal valid task sequence generation (§IV-A.1, Eq. 10).
//!
//! For every worker we enumerate valid task sequences over their reachable
//! task set and keep, for each distinct *set* of tasks, the ordering with the
//! earliest completion time (Eq. 10). The result `Q_w` is what both DFSearch
//! variants branch over.

use crate::config::AssignConfig;
use datawa_core::{TaskId, TaskSequence, TaskStore, Timestamp, Worker};
use std::collections::HashMap;

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

    /// The longest candidate (first after sorting), if any.
    pub fn best(&self) -> Option<&TaskSequence> {
        self.sequences.first()
    }

    /// Iterates over the candidate sequences.
    pub fn iter(&self) -> impl Iterator<Item = &TaskSequence> {
        self.sequences.iter()
    }
}

/// Reusable allocation scratch for [`generate_sequences_into`].
///
/// Sequence generation runs once per planning worker per planning instant —
/// the deepest allocation hot spot of the replan path. The scratch keeps the
/// per-task-set map, the DFS prefix, the key staging buffer and a free list
/// of retired task-set keys alive across calls, so both the greedy baseline
/// and the partitioned path (which share the planner's scratch) pay the
/// allocations once instead of per worker per instant. Output is byte
/// identical to the plain [`generate_sequences`]: the candidate order is
/// pinned by a total sort, never by map iteration order.
#[derive(Debug, Default)]
pub struct GenScratch {
    /// best completion time per task-set key (sorted ids).
    best: HashMap<Vec<TaskId>, (TaskSequence, Timestamp)>,
    /// DFS prefix.
    current: Vec<TaskId>,
    /// Staging buffer for the sorted task-set key of the current prefix.
    key: Vec<TaskId>,
    /// Retired key vectors, recycled into future map inserts.
    free_keys: Vec<Vec<TaskId>>,
    /// Surviving (sequence, completion) pairs, pre-sort.
    sorted: Vec<(TaskSequence, Timestamp)>,
}

/// Retired-key pool bound — enough to cover `|Q_w|` at the default caps.
const MAX_FREE_KEYS: usize = 256;

/// Enumerates `Q_w` for `worker` over its reachable tasks.
///
/// Depth-first enumeration over orderings with pruning: a prefix that violates
/// any Definition 4 constraint cannot be extended into a valid sequence, so
/// the subtree is skipped. For every distinct task set the minimum-completion
/// ordering is kept (Eq. 10). When `config.include_subsets` is `false`, task
/// sets strictly contained in another surviving task set are dropped
/// ("maximal" sequences only).
pub fn generate_sequences(
    worker: &Worker,
    reachable: &[TaskId],
    tasks: &TaskStore,
    config: &AssignConfig,
    now: Timestamp,
) -> SequenceSet {
    generate_sequences_into(
        &mut GenScratch::default(),
        worker,
        reachable,
        tasks,
        config,
        now,
    )
}

/// [`generate_sequences`] against caller-owned scratch buffers (the hot-path
/// entry point: the planner keeps one [`GenScratch`] alive across instants).
pub fn generate_sequences_into(
    scratch: &mut GenScratch,
    worker: &Worker,
    reachable: &[TaskId],
    tasks: &TaskStore,
    config: &AssignConfig,
    now: Timestamp,
) -> SequenceSet {
    // Recycle the previous call's key vectors instead of dropping them.
    let GenScratch {
        best,
        current,
        key,
        free_keys,
        sorted,
    } = scratch;
    // datawa-lint: allow(unordered-iteration) -- free-key recycling: which Vec allocations are reused never affects their contents
    for (k, _) in best.drain() {
        if free_keys.len() < MAX_FREE_KEYS {
            free_keys.push(k);
        }
    }
    current.clear();
    sorted.clear();
    let max_len = config.max_sequence_len.min(reachable.len());
    dfs(
        worker, reachable, tasks, config, now, current, key, free_keys, max_len, best,
    );
    // datawa-lint: allow(unordered-iteration) -- collection order is washed out by the total-order sort on `sorted` below
    let mut keys: Vec<Vec<TaskId>> = best.keys().cloned().collect();
    if !config.include_subsets {
        keys.retain(|k| {
            !best
                .keys()
                .any(|other| other.len() > k.len() && k.iter().all(|t| other.contains(t)))
        });
    }
    sorted.extend(
        keys.into_iter()
            // datawa-lint: allow(unwrap-in-hot-path) -- every key was just cloned out of `best` and nothing removed since
            .map(|k| best.get(&k).expect("key from map").clone()),
    );
    sorted.sort_by(|a, b| {
        b.0.len()
            .cmp(&a.0.len())
            .then_with(|| datawa_core::time::cmp_timestamps(a.1, b.1))
            // Total order: without the lexicographic tiebreak, sequences tied
            // on (length, completion) would keep the HashMap's per-instance
            // random iteration order, and downstream tie-breaking ("first
            // best wins") would differ between otherwise identical planners.
            .then_with(|| a.0.iter().cmp(b.0.iter()))
    });
    SequenceSet {
        sequences: sorted.drain(..).map(|(s, _)| s).collect(),
    }
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    worker: &Worker,
    reachable: &[TaskId],
    tasks: &TaskStore,
    config: &AssignConfig,
    now: Timestamp,
    current: &mut Vec<TaskId>,
    key: &mut Vec<TaskId>,
    free_keys: &mut Vec<Vec<TaskId>>,
    max_len: usize,
    best: &mut HashMap<Vec<TaskId>, (TaskSequence, Timestamp)>,
) {
    if current.len() >= max_len {
        return;
    }
    for &tid in reachable {
        if current.contains(&tid) {
            continue;
        }
        current.push(tid);
        let sequence = TaskSequence::from_ids(current.iter().copied());
        if sequence.is_valid(worker, tasks, &config.travel, now) {
            let completion = sequence.completion_time(worker, tasks, &config.travel, now);
            // Stage the sorted task-set key in the reusable buffer; a fresh
            // vector (recycled when possible) is materialised only on first
            // insert for this set.
            key.clear();
            key.extend_from_slice(current);
            key.sort_unstable();
            match best.get_mut(key.as_slice()) {
                Some(entry) => {
                    if completion < entry.1 {
                        *entry = (sequence.clone(), completion);
                    }
                }
                None => {
                    let owned = match free_keys.pop() {
                        Some(mut k) => {
                            k.clear();
                            k.extend_from_slice(key);
                            k
                        }
                        None => key.clone(),
                    };
                    best.insert(owned, (sequence.clone(), completion));
                }
            }
            dfs(
                worker, reachable, tasks, config, now, current, key, free_keys, max_len, best,
            );
        }
        current.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datawa_core::{Location, Task, WorkerId};

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
        // Singletons + the pair (include_subsets default true).
        assert_eq!(qs.len(), 3);
        assert_eq!(qs.best().unwrap().len(), 2);
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
    fn maximal_only_drops_subsets() {
        let tasks = store(&[(1.0, 100.0), (2.0, 100.0), (3.0, 100.0)]);
        let worker = worker_at_origin(10.0, 100.0);
        let mut config = AssignConfig::unit_speed();
        config.include_subsets = false;
        let qs = generate_sequences(
            &worker,
            &[TaskId(0), TaskId(1), TaskId(2)],
            &tasks,
            &config,
            Timestamp(0.0),
        );
        assert_eq!(qs.len(), 1);
        assert_eq!(qs.best().unwrap().len(), 3);
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

    #[test]
    fn scratch_reuse_is_byte_identical_to_fresh_generation() {
        let tasks = store(&[(0.5, 5.0), (1.5, 6.0), (2.5, 4.0), (0.8, 9.0)]);
        let worker = worker_at_origin(2.0, 7.0);
        let config = AssignConfig::unit_speed();
        let reachable: Vec<TaskId> = tasks.ids().collect();
        let mut scratch = GenScratch::default();
        for round in 0..3 {
            let pooled = generate_sequences_into(
                &mut scratch,
                &worker,
                &reachable,
                &tasks,
                &config,
                Timestamp(0.0),
            );
            let fresh = generate_sequences(&worker, &reachable, &tasks, &config, Timestamp(0.0));
            assert_eq!(pooled.sequences, fresh.sequences, "round {round}");
        }
    }

    #[test]
    fn worker_with_no_reachable_tasks_has_empty_qw() {
        let tasks = store(&[(1.0, 100.0)]);
        let worker = worker_at_origin(10.0, 100.0);
        let config = AssignConfig::unit_speed();
        let qs = generate_sequences(&worker, &[], &tasks, &config, Timestamp(0.0));
        assert!(qs.is_empty());
        assert!(qs.best().is_none());
    }
}
