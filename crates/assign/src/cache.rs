//! Incremental replanning: dirty tracking and the partition plan cache.
//!
//! Most planning instants touch only a handful of spatial clusters — a task
//! arrival dirties the partitions of the workers that can reach it, one
//! worker going offline dirties only its own partition. This module gives
//! the planner the machinery to *reuse* everything the instant did not
//! touch, while staying bitwise identical to a full replan:
//!
//! * [`DirtySet`] — the event-side tracker kept by `RunnerState`: which
//!   tasks arrived/expired/were served and which workers came online, went
//!   offline or moved since the last planning instant, plus the forecast
//!   epoch (the provider's refresh count). Drivers read it for diagnostics;
//!   the dirty-fraction histogram in `datawa-obs` is fed from the planner's
//!   own accounting, which is derived independently (see below) so a missed
//!   hook can never corrupt plans.
//! * [`IncrementalContext`] — what a driver hands the planner alongside a
//!   planning call so caching is sound: the *real* task id behind every
//!   planning-store id (valid only when the store holds no predicted
//!   phantoms — phantom instants always take the full path), and the
//!   forecast epoch that folds into every fingerprint.
//! * [`PlanCache`] — owned by the `Planner`. Two layers:
//!
//!   1. **Per-worker reachable sets.** A worker's capped nearest-first
//!      reachable list is re-derived from scratch only when it may have
//!      changed. A cached list is still exact when (a) the worker's
//!      location, reach and availability window are bit-identical, (b)
//!      every cached member is still an open candidate and still passes
//!      `Worker::can_reach` *re-evaluated at the current instant*, and (c)
//!      no task that joined the candidate pool since the last pass lies
//!      within the worker's reachable distance. Soundness of (b)+(c) rests
//!      on monotonicity: every `can_reach` constraint only decays as `now`
//!      advances and distances are static while the worker stands still, so
//!      a task outside the list cannot climb into the capped nearest-first
//!      ranking unless it is new — and (c) catches those conservatively by
//!      distance alone.
//!   2. **Per-partition plans.** Each searched partition is stored under a
//!      fingerprint of its content — ordered member workers, their
//!      location/reach/window bits, their reachable sets (as real task
//!      ids) and the forecast epoch — and verified on probe by full content
//!      comparison *including the regenerated candidate sequences* (their
//!      validity and Eq. 10 orderings depend on `now`, so sequence equality
//!      is part of the hit criterion, never assumed). On a hit the stored
//!      plan, kept in real-id space, is translated back into the instant's
//!      planning ids and spliced in partition-index order; only misses are
//!      searched. The exact search's result is a pure function of exactly
//!      the compared content (member order, reachable lists, ordered
//!      sequence id-lists, the partition task universe and the per-node
//!      budget), so a verified hit is bitwise identical to a recompute.
//!
//! Workers whose reachable set is empty never reach this module's partition
//! layer: the planner drops them before the dependency graph is built, on
//! the incremental and the full route alike (each would form an isolated
//! singleton partition whose search assigns nothing). The incremental route
//! counts them as reused partitions.

use crate::config::AssignConfig;
use crate::partition::Partition;
use crate::reachable::ReachableSets;
use crate::sequences::SequenceSet;
use datawa_core::{TaskId, TaskSequence, TaskStore, Timestamp, Worker, WorkerId, WorkerStore};
use std::collections::HashMap;

/// Everything that changed since the previous planning instant, tracked by
/// event kind. `RunnerState` fills it from its event hooks (arrival,
/// expiration, dispatch, online/offline, replan tick, forecast refresh) and
/// drains it after every planning call.
///
/// The tracker is *diagnostic*: the planner derives its own dirty set from
/// its actual inputs (candidate-list diff + per-worker re-verification), so
/// plan correctness never depends on a driver calling every hook.
#[derive(Debug, Clone, Default)]
pub struct DirtySet {
    /// Tasks that arrived since the last planning instant.
    pub arrived_tasks: Vec<TaskId>,
    /// Tasks that expired since the last planning instant.
    pub expired_tasks: Vec<TaskId>,
    /// Tasks dispatched (served) since the last planning instant.
    pub served_tasks: Vec<TaskId>,
    /// Workers that came online since the last planning instant.
    pub online_workers: Vec<WorkerId>,
    /// Workers that went offline since the last planning instant.
    pub offline_workers: Vec<WorkerId>,
    /// Workers that moved (dispatch relocates the worker to the task).
    pub moved_workers: Vec<WorkerId>,
    /// Replan ticks since the last planning instant.
    pub replan_ticks: usize,
    /// The forecast provider's refresh count — a bumped epoch invalidates
    /// every cached fingerprint (it is hashed into all of them).
    pub forecast_epoch: u64,
}

impl DirtySet {
    /// Whether nothing has been recorded since the last drain (the forecast
    /// epoch is a watermark, not an event, and does not count).
    pub fn is_clean(&self) -> bool {
        self.events() == 0
    }

    /// Total recorded events since the last drain.
    pub fn events(&self) -> usize {
        self.arrived_tasks.len()
            + self.expired_tasks.len()
            + self.served_tasks.len()
            + self.online_workers.len()
            + self.offline_workers.len()
            + self.moved_workers.len()
            + self.replan_ticks
    }

    /// Records a task arrival.
    pub fn note_task_arrival(&mut self, id: TaskId) {
        self.arrived_tasks.push(id);
    }

    /// Records a task expiration.
    pub fn note_task_expiration(&mut self, id: TaskId) {
        self.expired_tasks.push(id);
    }

    /// Records a task dispatch.
    pub fn note_task_served(&mut self, id: TaskId) {
        self.served_tasks.push(id);
    }

    /// Records a worker coming online.
    pub fn note_worker_online(&mut self, id: WorkerId) {
        self.online_workers.push(id);
    }

    /// Records a worker going offline.
    pub fn note_worker_offline(&mut self, id: WorkerId) {
        self.offline_workers.push(id);
    }

    /// Records a worker relocation (dispatch moves the worker to the task).
    pub fn note_worker_moved(&mut self, id: WorkerId) {
        self.moved_workers.push(id);
    }

    /// Records a replan tick.
    pub fn note_replan_tick(&mut self) {
        self.replan_ticks += 1;
    }

    /// Updates the forecast-epoch watermark.
    pub fn note_forecast_epoch(&mut self, epoch: u64) {
        self.forecast_epoch = epoch;
    }

    /// Drains the per-instant event lists (the forecast epoch persists — it
    /// is a watermark).
    pub fn clear(&mut self) {
        self.arrived_tasks.clear();
        self.expired_tasks.clear();
        self.served_tasks.clear();
        self.online_workers.clear();
        self.offline_workers.clear();
        self.moved_workers.clear();
        self.replan_ticks = 0;
    }
}

/// The driver-side facts that make plan caching sound for one planning call.
///
/// Drivers may only construct this when every planning-store task stands for
/// a real open task (`real_ids[i]` is the real id behind planning id `i`,
/// ascending); instants whose store contains predicted phantoms must pass
/// `None` instead, forcing the full path (phantom scoring depends on `now`
/// in ways content fingerprints cannot capture).
#[derive(Debug, Clone, Copy)]
pub struct IncrementalContext<'a> {
    /// Real task id behind each planning-store id, in planning-id order
    /// (ascending, since open views iterate in ascending real-id order).
    pub real_ids: &'a [TaskId],
    /// The forecast provider's refresh count at this instant; folded into
    /// every partition fingerprint so a model refresh invalidates all
    /// cached plans at once.
    pub forecast_epoch: u64,
}

/// Exact bit patterns of every worker attribute the reachable computation
/// and the search read: location, reachable distance, availability window.
/// Bit equality (not float equality) keeps the comparison total and exact.
fn worker_bits(w: &Worker) -> [u64; 5] {
    [
        w.location.x.to_bits(),
        w.location.y.to_bits(),
        w.reachable_distance.to_bits(),
        w.on().0.to_bits(),
        w.off().0.to_bits(),
    ]
}

/// Planning id of a real task in this instant's candidate list, if open.
fn planning_id(real_ids: &[TaskId], real: TaskId) -> Option<TaskId> {
    real_ids.binary_search(&real).ok().map(|i| TaskId(i as u32))
}

/// FNV-1a over a stream of 64-bit words — deterministic across runs and
/// platforms, no dependencies.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x1_0000_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[derive(Debug, Default)]
struct WorkerEntry {
    /// Pass at which this entry was last verified or rebuilt; only entries
    /// verified at the immediately preceding incremental pass are eligible
    /// for the clean check (anything older missed candidate-pool diffs).
    verified_pass: u64,
    /// Worker attribute bits the entry was computed under.
    bits: [u64; 5],
    /// The capped nearest-first reachable list, in *real* task ids (stable
    /// across instants, unlike the per-instant dense planning ids).
    reachable_real: Vec<TaskId>,
}

/// One cached partition: the full content it was computed from plus the plan
/// it produced, everything in real-id space.
#[derive(Debug)]
struct PartitionEntry {
    epoch: u64,
    members: Vec<MemberKey>,
    /// The searched plan, per worker, in real task ids.
    plan: Vec<(WorkerId, Vec<TaskId>)>,
    last_used: u64,
}

#[derive(Debug)]
struct MemberKey {
    wid: WorkerId,
    bits: [u64; 5],
    /// Reachable list in real ids (defines the partition's task universe
    /// and, together with the other members', its tree shape).
    reachable: Vec<TaskId>,
    /// Candidate sequences in `SequenceSet` order, each as real ids.
    sequences: Vec<Vec<TaskId>>,
}

/// Entry cap: above this the cache sweeps out entries not used recently.
/// Eviction is deterministic and output-invisible (a miss recomputes the
/// identical plan); the cap only bounds memory on long drifting sessions.
const MAX_PARTITION_ENTRIES: usize = 8192;
/// Sweep age (in incremental passes) once the cap is exceeded.
const EVICT_AGE: u64 = 16;

/// The planner's incremental state across planning instants: verified
/// per-worker reachable sets, the previous candidate pool, and fingerprinted
/// per-partition plans. See the module docs for the invariants.
#[derive(Debug, Default)]
pub struct PlanCache {
    /// Incremental passes completed (full-path calls do not advance this —
    /// they also do not touch the world model the cache verifies against).
    pass: u64,
    /// Config the cached state was computed under; a live change clears all.
    config: Option<AssignConfig>,
    /// Candidate pool (real ids, ascending) of the previous incremental pass.
    prev_open: Vec<TaskId>,
    has_prev: bool,
    workers: HashMap<WorkerId, WorkerEntry>,
    partitions: HashMap<u64, PartitionEntry>,
    /// Scratch: candidate pool additions since the previous pass.
    added: Vec<TaskId>,
    /// Scratch: (task, distance) pairs of a per-worker rescan.
    scratch_pairs: Vec<(TaskId, f64)>,
}

impl PlanCache {
    /// Refreshes every listed worker's reachable set for this instant —
    /// verifying cached lists where sound, rescanning where not — and
    /// returns the per-worker sets (in planning ids, exactly what
    /// `reachable_tasks` would have produced) plus the number of workers
    /// that needed a rescan.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn refresh_reachable(
        &mut self,
        worker_ids: &[WorkerId],
        candidate_tasks: &[TaskId],
        real_ids: &[TaskId],
        workers: &WorkerStore,
        tasks: &TaskStore,
        config: &AssignConfig,
        now: Timestamp,
    ) -> (ReachableSets, usize) {
        self.pass += 1;
        if self.config != Some(*config) {
            self.workers.clear();
            self.partitions.clear();
            self.has_prev = false;
            self.config = Some(*config);
        }
        // Tasks that joined the candidate pool since the previous pass
        // (both lists ascending — one merge sweep).
        self.added.clear();
        if self.has_prev {
            let mut i = 0;
            for &t in real_ids {
                while i < self.prev_open.len() && self.prev_open[i] < t {
                    i += 1;
                }
                if i >= self.prev_open.len() || self.prev_open[i] != t {
                    self.added.push(t);
                }
            }
        }
        let mut per_worker = HashMap::with_capacity(worker_ids.len());
        let mut rescanned = 0usize;
        for &wid in worker_ids {
            let worker = workers.get(wid);
            let bits = worker_bits(worker);
            let entry = self.workers.entry(wid).or_default();
            let mut pids: Vec<TaskId> = Vec::with_capacity(entry.reachable_real.len());
            let mut clean =
                self.has_prev && entry.verified_pass + 1 == self.pass && entry.bits == bits;
            if clean {
                // (b) every cached member still open, unexpired, reachable —
                // the exact predicates, re-evaluated at this instant.
                for &rt in &entry.reachable_real {
                    match planning_id(real_ids, rt) {
                        Some(pid) => {
                            let task = tasks.get(pid);
                            if task.is_expired_at(now)
                                || !worker.can_reach(task, &config.travel, now)
                            {
                                clean = false;
                                break;
                            }
                            pids.push(pid);
                        }
                        None => {
                            clean = false;
                            break;
                        }
                    }
                }
            }
            if clean {
                // (c) no new candidate within reach distance (conservative:
                // time feasibility is not consulted, so this can only
                // over-report dirtiness, never miss a ranking change).
                for &rt in &self.added {
                    // datawa-lint: allow(unwrap-in-hot-path) -- DirtySet::added is built from the same candidate list real_ids indexes
                    let pid = planning_id(real_ids, rt).expect("added tasks are candidates");
                    let task = tasks.get(pid);
                    let d = config
                        .travel
                        .travel_distance(&worker.location, &task.location);
                    if d <= worker.reachable_distance {
                        clean = false;
                        break;
                    }
                }
            }
            if clean {
                entry.verified_pass = self.pass;
            } else {
                rescanned += 1;
                // Full rescan — the same loop (and the same stable sort with
                // the same tie order) as `reachable_tasks`.
                let pairs = &mut self.scratch_pairs;
                pairs.clear();
                for &tid in candidate_tasks {
                    let task = tasks.get(tid);
                    if task.is_expired_at(now) {
                        continue;
                    }
                    if worker.can_reach(task, &config.travel, now) {
                        let d = config
                            .travel
                            .travel_distance(&worker.location, &task.location);
                        pairs.push((tid, d));
                    }
                }
                // Must match `reachable::compute_reachable_sets` bitwise —
                // same `total_cmp` comparator, same truncation.
                pairs.sort_by(|a, b| a.1.total_cmp(&b.1));
                pairs.truncate(config.max_reachable_per_worker);
                pids.clear();
                pids.extend(pairs.iter().map(|&(t, _)| t));
                entry.bits = bits;
                entry.verified_pass = self.pass;
                entry.reachable_real.clear();
                entry
                    .reachable_real
                    .extend(pids.iter().map(|&p| real_ids[p.index()]));
            }
            per_worker.insert(wid, pids);
        }
        self.prev_open.clear();
        self.prev_open.extend_from_slice(real_ids);
        self.has_prev = true;
        (ReachableSets { per_worker }, rescanned)
    }

    /// Fingerprint of a partition's content at this instant: forecast epoch,
    /// ordered members, their attribute bits and reachable real-id lists.
    /// Sequences are deliberately left out of the hash — they are compared
    /// in full on probe, where a mismatch is a miss, not a correctness
    /// hazard.
    fn fingerprint(&self, partition: &Partition, workers: &WorkerStore, epoch: u64) -> u64 {
        let mut h = Fnv::new();
        h.word(epoch);
        h.word(partition.worker_ids.len() as u64);
        for &wid in &partition.worker_ids {
            h.word(wid.index() as u64 + 1);
            for b in worker_bits(workers.get(wid)) {
                h.word(b);
            }
            let entry = &self.workers[&wid];
            h.word(entry.reachable_real.len() as u64);
            for &t in &entry.reachable_real {
                h.word(t.index() as u64 + 1);
            }
        }
        h.finish()
    }

    /// Probes the cache for `partition`. Returns the fingerprint plus, on a
    /// verified hit, the stored plan translated into this instant's planning
    /// ids. A hash match with *any* content difference (members, bits,
    /// reachable lists, regenerated sequences, epoch) is a miss.
    pub(crate) fn probe(
        &mut self,
        partition: &Partition,
        sequences: &HashMap<WorkerId, SequenceSet>,
        real_ids: &[TaskId],
        workers: &WorkerStore,
        epoch: u64,
    ) -> (u64, Option<Vec<(WorkerId, TaskSequence)>>) {
        let key = self.fingerprint(partition, workers, epoch);
        let pass = self.pass;
        let worker_entries = &self.workers;
        let Some(entry) = self.partitions.get_mut(&key) else {
            return (key, None);
        };
        if !entry_matches(
            entry,
            partition,
            sequences,
            real_ids,
            workers,
            worker_entries,
            epoch,
        ) {
            return (key, None);
        }
        let mut plan = Vec::with_capacity(entry.plan.len());
        for (wid, seq_real) in &entry.plan {
            let mut seq = TaskSequence::empty();
            for &rt in seq_real {
                match planning_id(real_ids, rt) {
                    Some(pid) => seq.push(pid),
                    // Unreachable given content equality (plan tasks come
                    // from the matched reachable lists); treated as a miss
                    // defensively rather than trusted.
                    None => return (key, None),
                }
            }
            plan.push((*wid, seq));
        }
        entry.last_used = pass;
        (key, Some(plan))
    }

    /// Stores a freshly searched partition plan under `key` (the fingerprint
    /// returned by [`PlanCache::probe`] this same call).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn store(
        &mut self,
        key: u64,
        partition: &Partition,
        sequences: &HashMap<WorkerId, SequenceSet>,
        real_ids: &[TaskId],
        workers: &WorkerStore,
        epoch: u64,
        plan: &[(WorkerId, TaskSequence)],
    ) {
        let members = partition
            .worker_ids
            .iter()
            .map(|&wid| MemberKey {
                wid,
                bits: worker_bits(workers.get(wid)),
                reachable: self.workers[&wid].reachable_real.clone(),
                sequences: sequences
                    .get(&wid)
                    .map(|s| {
                        s.sequences
                            .iter()
                            .map(|seq| seq.iter().map(|p| real_ids[p.index()]).collect())
                            .collect()
                    })
                    .unwrap_or_default(),
            })
            .collect();
        let plan_real = plan
            .iter()
            .map(|(w, seq)| (*w, seq.iter().map(|p| real_ids[p.index()]).collect()))
            .collect();
        let pass = self.pass;
        self.partitions.insert(
            key,
            PartitionEntry {
                epoch,
                members,
                plan: plan_real,
                last_used: pass,
            },
        );
        if self.partitions.len() > MAX_PARTITION_ENTRIES {
            self.partitions
                // datawa-lint: allow(unordered-iteration) -- the age predicate is per-entry, so the surviving set is identical under any iteration order
                .retain(|_, e| pass.saturating_sub(e.last_used) <= EVICT_AGE);
        }
    }

    /// Cached partition plans currently held.
    pub fn cached_partitions(&self) -> usize {
        self.partitions.len()
    }
}

/// Full content comparison backing a fingerprint hit (collision-proof: the
/// fingerprint only routes to the entry, equality decides).
fn entry_matches(
    entry: &PartitionEntry,
    partition: &Partition,
    sequences: &HashMap<WorkerId, SequenceSet>,
    real_ids: &[TaskId],
    workers: &WorkerStore,
    worker_entries: &HashMap<WorkerId, WorkerEntry>,
    epoch: u64,
) -> bool {
    if entry.epoch != epoch || entry.members.len() != partition.worker_ids.len() {
        return false;
    }
    for (member, &wid) in entry.members.iter().zip(&partition.worker_ids) {
        if member.wid != wid
            || member.bits != worker_bits(workers.get(wid))
            || member.reachable != worker_entries[&wid].reachable_real
        {
            return false;
        }
        let live = sequences
            .get(&wid)
            .map(|s| s.sequences.as_slice())
            .unwrap_or(&[]);
        if member.sequences.len() != live.len() {
            return false;
        }
        for (stored, seq) in member.sequences.iter().zip(live) {
            if stored.len() != seq.len() {
                return false;
            }
            for (&stored_real, planning) in stored.iter().zip(seq.iter()) {
                if real_ids[planning.index()] != stored_real {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirty_set_counts_and_clears() {
        let mut d = DirtySet::default();
        assert!(d.is_clean());
        d.note_task_arrival(TaskId(3));
        d.note_worker_moved(WorkerId(1));
        d.note_replan_tick();
        d.note_forecast_epoch(2);
        assert_eq!(d.events(), 3);
        d.clear();
        assert!(d.is_clean());
        assert_eq!(d.forecast_epoch, 2, "the epoch watermark persists");
    }

    #[test]
    fn fnv_is_order_sensitive_and_deterministic() {
        let mut a = Fnv::new();
        a.word(1);
        a.word(2);
        let mut b = Fnv::new();
        b.word(2);
        b.word(1);
        assert_ne!(a.finish(), b.finish());
        let mut c = Fnv::new();
        c.word(1);
        c.word(2);
        assert_eq!(a.finish(), c.finish());
    }

    #[test]
    fn planning_id_translates_through_the_ascending_pool() {
        let pool = [TaskId(2), TaskId(5), TaskId(9)];
        assert_eq!(planning_id(&pool, TaskId(5)), Some(TaskId(1)));
        assert_eq!(planning_id(&pool, TaskId(9)), Some(TaskId(2)));
        assert_eq!(planning_id(&pool, TaskId(4)), None);
    }
}
