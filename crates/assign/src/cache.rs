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
//!   epoch (the provider's refresh count). It is a log for drivers and
//!   operators to read; the planner never does. What changed is detected
//!   from the planner's own inputs — a merge-diff of the worker list and of
//!   the candidate pool against the previous pass, and the per-slot
//!   mutation stamp `WorkerStore` bumps on every mutable hand-out — so a
//!   driver that forgets a hook, or has none, cannot corrupt a plan.
//! * [`IncrementalContext`] — what a driver hands the planner alongside a
//!   planning call so caching is sound: the *real* task id behind every
//!   planning-store id (valid only when the store holds no predicted
//!   phantoms — phantom instants always take the full path), and the
//!   forecast epoch that folds into every fingerprint.
//! * [`PlanCache`] — owned by the `Planner`. Two layers:
//!
//!   1. **Per-worker reachable sets, kept as a delta.** The layer is
//!      persistent and dense: one slot per `WorkerId::index()` holding the
//!      store mutation stamp, location and reachable distance the worker's
//!      list was scanned under; the sorted worker list and candidate pool of
//!      the previous pass; and the lists themselves (flat, in real task
//!      ids) of the *live* workers only — those that reach anything, about
//!      ten of three hundred at the paper's operating point. A pass walks
//!      the instant's worker list once against the previous one and
//!      re-derives a list from scratch only where it may have changed. A
//!      list is still exact when the worker was listed at the previous pass
//!      and (a) its mutation stamp has not moved — no one was handed the
//!      record mutably, so location, reach, window and mode are what they
//!      were; (b) every cached member is still an open candidate and still
//!      passes `Worker::can_reach` *re-evaluated at the current instant*;
//!      and (c) no task that joined the candidate pool since the last pass
//!      lies within the worker's reachable distance. A worker that reaches
//!      nothing has no member to re-verify, so (a) and (c) — a `u32`
//!      compare and one distance per added task against slot-resident
//!      coordinates — are its whole cost: its record is not loaded, nothing
//!      is written, no span is emitted. Soundness of (b)+(c) rests on
//!      monotonicity: every `can_reach` constraint only decays as `now`
//!      advances (a pass at an earlier `now` than its predecessor resets the
//!      layer; a worker listed ahead of its window is rescanned until the
//!      window opens) and distances are static while the worker stands
//!      still, so a task outside the list cannot climb into the capped
//!      nearest-first ranking unless it is new — and (c) catches those
//!      conservatively by distance alone. The exact and the TVF-guided
//!      search read these sets when the driver supplies a context;
//!      `reachable_tasks` remains the context-free route (the greedy
//!      baseline's too) and the oracle they are tested against
//!      (`tests/reach_delta.rs`).
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
use crate::reachable::{scan_reachable, still_reachable, ReachableSets};
use crate::sequences::SequenceSet;
use datawa_core::{
    Location, TaskId, TaskSequence, TaskStore, Timestamp, Worker, WorkerId, WorkerStore,
};
use std::collections::HashMap;

/// Everything that changed since the previous planning instant, tracked by
/// event kind. `RunnerState` fills it from its event hooks (arrival,
/// expiration, dispatch, online/offline, replan tick, forecast refresh) and
/// drains it after every planning call.
///
/// The tracker is a log, not an input: the planner derives what changed
/// from its actual inputs (worker-list and candidate-pool diffs, store
/// mutation stamps, per-member re-verification), so plan correctness never
/// depends on a driver calling every hook.
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
/// in ways content fingerprints cannot capture). Identity is the driver's
/// word: a real id names the same task, and a `WorkerId` a slot of the same
/// `WorkerStore`, at every call that passes a context to one planner — the
/// reach layer tells a changed worker by that store's mutation stamp.
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

/// What the reach layer keeps per worker slot (`WorkerId::index()`), for
/// every worker it has ever scanned: enough to decide "still nothing
/// changed" for a worker without loading its record.
#[derive(Debug, Clone, Copy, Default)]
struct ReachSlot {
    /// The store's mutation stamp of the worker when its list was last
    /// scanned — check (a) is one compare against [`WorkerStore::stamp`].
    stamp: u32,
    /// Location and reachable distance at that stamp: all that check (c)
    /// reads.
    location: Location,
    reach: f64,
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
/// per-worker reachable sets, the previous worker list and candidate pool,
/// and fingerprinted per-partition plans. See the module docs for the
/// invariants.
#[derive(Debug, Default)]
pub struct PlanCache {
    /// Incremental passes completed (full-path calls do not advance this —
    /// they also do not touch the world model the cache verifies against).
    pass: u64,
    /// Config the cached state was computed under; a live change clears all.
    config: Option<AssignConfig>,
    /// Instant of the previous pass: reuse rests on `now` never decreasing.
    prev_now: Timestamp,
    /// Candidate pool (real ids, ascending) of the previous pass.
    prev_open: Vec<TaskId>,
    /// Worker list (ascending) of the previous pass; empty before the first
    /// pass, after a reset and after a pass whose list was not ascending —
    /// every worker then counts as having entered the list.
    prev_workers: Vec<WorkerId>,
    /// Per-slot scan state, dense by worker index.
    slots: Vec<ReachSlot>,
    /// The lists of this pass's live workers (non-empty reach), in *real*
    /// task ids — stable across instants, unlike the per-instant dense
    /// planning ids.
    real: ReachableSets,
    /// `real` of the previous pass (the two swap every pass).
    real_prev: ReachableSets,
    partitions: HashMap<u64, PartitionEntry>,
    /// Scratch: locations of the tasks that joined the pool since the
    /// previous pass.
    added: Vec<Location>,
    /// Scratch: (task, distance) pairs of one worker's rescan.
    scratch_pairs: Vec<(TaskId, f64)>,
    /// Scratch: one verified worker's list in planning ids.
    scratch_pids: Vec<TaskId>,
}

impl PlanCache {
    /// Refreshes the reachable sets of the listed workers for this instant
    /// into `out` (in planning ids, exactly what `reachable_tasks` would
    /// have produced) — carrying verified lists over, rescanning where a
    /// check fails — and returns the number of workers that were rescanned.
    ///
    /// A pass walks `worker_ids` once against the previous pass's worker
    /// list (both ascending). A worker is rescanned when
    /// it entered the list, (a) its store mutation stamp moved, (b) it is
    /// live and a member of its list no longer passes the reachability
    /// predicates re-evaluated at `now`, or (c) a task that joined the pool
    /// lies within its reachable distance. A worker that is clean and was
    /// not live costs the stamp compare and one distance per added task: its
    /// record is never loaded and nothing is written for it.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn refresh_reachable(
        &mut self,
        out: &mut ReachableSets,
        worker_ids: &[WorkerId],
        candidate_tasks: &[TaskId],
        real_ids: &[TaskId],
        workers: &WorkerStore,
        tasks: &TaskStore,
        config: &AssignConfig,
        now: Timestamp,
    ) -> usize {
        self.pass += 1;
        if self.config != Some(*config) || now.0 < self.prev_now.0 {
            self.partitions.clear();
            self.prev_workers.clear();
            self.prev_open.clear();
            self.config = Some(*config);
        }
        let ascending = worker_ids.windows(2).all(|p| p[0] < p[1]);
        if !ascending {
            self.prev_workers.clear();
        }
        // Tasks that joined the candidate pool since the previous pass
        // (both lists ascending — one merge sweep); planning id `i` stands
        // for `real_ids[i]`.
        self.added.clear();
        let mut i = 0;
        for (pid, &t) in real_ids.iter().enumerate() {
            while i < self.prev_open.len() && self.prev_open[i] < t {
                i += 1;
            }
            if i >= self.prev_open.len() || self.prev_open[i] != t {
                self.added.push(tasks.get(candidate_tasks[pid]).location);
            }
        }
        std::mem::swap(&mut self.real, &mut self.real_prev);
        self.real.restart(worker_ids.len());
        out.restart(worker_ids.len());
        if self.slots.len() < workers.len() {
            self.slots.resize(workers.len(), ReachSlot::default());
        }
        let mut listed_at = 0;
        let mut rescanned = 0usize;
        for &wid in worker_ids {
            while listed_at < self.prev_workers.len() && self.prev_workers[listed_at] < wid {
                listed_at += 1;
            }
            let slot = &mut self.slots[wid.index()];
            let stamp = workers.stamp(wid);
            // Listed at the previous pass (so its list saw every pool
            // change since) and (a) not handed out mutably since.
            let mut clean = self.prev_workers.get(listed_at) == Some(&wid) && slot.stamp == stamp;
            if clean {
                // (c) no new candidate within reach distance (conservative:
                // time feasibility is not consulted, so this can only
                // over-report dirtiness, never miss a ranking change).
                clean = !self
                    .added
                    .iter()
                    .any(|task| config.travel.travel_distance(&slot.location, task) <= slot.reach);
            }
            if clean && self.real_prev.of(wid).is_empty() {
                // Clean and inert: nothing to re-verify, nothing to emit.
                continue;
            }
            let worker = workers.get(wid);
            if clean {
                // (b) every cached member still open, unexpired, reachable —
                // the exact predicates, re-evaluated at this instant.
                self.scratch_pids.clear();
                for &rt in self.real_prev.of(wid) {
                    match planning_id(real_ids, rt) {
                        Some(pid) if still_reachable(worker, tasks.get(pid), config, now) => {
                            self.scratch_pids.push(pid)
                        }
                        _ => {
                            clean = false;
                            break;
                        }
                    }
                }
            }
            if clean {
                self.real.push(wid, self.real_prev.of(wid).iter().copied());
                out.push(wid, self.scratch_pids.iter().copied());
                continue;
            }
            rescanned += 1;
            scan_reachable(
                worker,
                candidate_tasks,
                tasks,
                config,
                now,
                &mut self.scratch_pairs,
            );
            // A worker listed ahead of its window reaches nothing *yet*:
            // that is the one way a list grows with time alone, so such a
            // scan is never recorded as current.
            slot.stamp = if now.0 < worker.on().0 {
                stamp.wrapping_sub(1)
            } else {
                stamp
            };
            slot.location = worker.location;
            slot.reach = worker.reachable_distance;
            let pids = self.scratch_pairs.iter().map(|&(t, _)| t);
            self.real
                .push(wid, pids.clone().map(|p| real_ids[p.index()]));
            out.push(wid, pids);
        }
        self.prev_workers.clear();
        if ascending {
            self.prev_workers.extend_from_slice(worker_ids);
        }
        self.prev_open.clear();
        self.prev_open.extend_from_slice(real_ids);
        self.prev_now = now;
        rescanned
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
            let reachable = self.real.of(wid);
            h.word(reachable.len() as u64);
            for &t in reachable {
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
        let reachable = &self.real;
        let Some(entry) = self.partitions.get_mut(&key) else {
            return (key, None);
        };
        if !entry_matches(
            entry, partition, sequences, real_ids, workers, reachable, epoch,
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
                reachable: self.real.of(wid).to_vec(),
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
    reachable: &ReachableSets,
    epoch: u64,
) -> bool {
    if entry.epoch != epoch || entry.members.len() != partition.worker_ids.len() {
        return false;
    }
    for (member, &wid) in entry.members.iter().zip(&partition.worker_ids) {
        if member.wid != wid
            || member.bits != worker_bits(workers.get(wid))
            || member.reachable != reachable.of(wid)
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
