//! Incremental replanning: dirty tracking and reachability kept as a delta.
//!
//! Most planning instants touch only a handful of spatial clusters — a task
//! arrival changes the reachable lists of the workers that can reach it, one
//! worker going offline changes nothing but its own. This module gives the
//! planner the machinery to carry every reachable list the instant did not
//! touch over from the previous one, while staying bitwise identical to a
//! scan from scratch:
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
//! * [`IncrementalContext`] — the driver's word, handed in alongside a
//!   planning call, that ids mean across calls what they meant before: the
//!   candidate ids are the stable ids of one live `TaskStore` (no per-instant
//!   copy, no predicted phantom among them), the worker ids slots of one
//!   `WorkerStore`.
//! * [`PlanCache`] — owned by the `Planner`: **per-worker reachable sets,
//!   kept as a delta.** The state is persistent and dense: one slot per
//!   `WorkerId::index()` holding the store mutation stamp, location and
//!   reachable distance the worker's list was scanned under; the sorted
//!   worker list and candidate pool of the previous pass; and the lists
//!   themselves (flat, double-buffered) of the *live* workers only — those
//!   that reach anything, about ten of three hundred at the paper's
//!   operating point. A pass walks the instant's worker list once against
//!   the previous one and re-derives a list from scratch only where it may
//!   have changed. A list is still exact when the worker was listed at the
//!   previous pass and (a) its mutation stamp has not moved — no one was
//!   handed the record mutably, so location, reach, window and mode are what
//!   they were; (b) every cached member is still an open candidate and still
//!   passes `Worker::can_reach` *re-evaluated at the current instant*; and
//!   (c) no task that joined the candidate pool since the last pass lies
//!   within the worker's reachable distance. A worker that reaches nothing
//!   has no member to re-verify, so (a) and (c) — a `u32` compare and one
//!   distance per added task against slot-resident coordinates — are its
//!   whole cost: its record is not loaded, nothing is written, no span is
//!   emitted. Soundness of (b)+(c) rests on monotonicity: every `can_reach`
//!   constraint only decays as `now` advances (a pass at an earlier `now`
//!   than its predecessor resets the layer; a worker listed ahead of its
//!   window is rescanned until the window opens) and distances are static
//!   while the worker stands still, so a task outside the list cannot climb
//!   into the capped nearest-first ranking unless it is new — and (c)
//!   catches those conservatively by distance alone. The exact and the
//!   TVF-guided search read these sets when the driver supplies a context;
//!   `reachable_tasks` remains the context-free route (the greedy
//!   baseline's too) and the oracle they are tested against
//!   (`tests/reach_delta.rs`).
//!
//! There is no plan layer. Until PR 24 each searched partition was also
//! stored under a hash of its content and looked up at later instants;
//! measured over whole benchmark sessions the lookup never hit
//! (407,568 probes on `yueche-dta`, 240,216 on `churn-batched`, 0 hits):
//! `RunnerState::step` dispatches every planned idle worker in the instant
//! that planned it, the dispatch moves the worker and takes the task out of
//! the pool, so no partition survives to the next instant with its content
//! intact. What `PlanningReport::partitions_reused` counts is the workers
//! dropped for reaching nothing, which the planner never hands to dependency
//! separation at all.

use crate::config::AssignConfig;
use crate::reachable::{scan_reachable, still_reachable, ReachableSets};
use datawa_core::{Location, TaskId, TaskStore, Timestamp, WorkerId, WorkerStore};

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
    /// The forecast provider's refresh count at the latest planning instant.
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

/// The driver's word that makes carrying reachable lists from one planning
/// call to the next sound.
///
/// Passing one vouches that, at every call that passes a context to one
/// planner, a `TaskId` among the candidates names the same task of the same
/// live `TaskStore` (the candidates are listed ascending and none is a
/// predicted phantom — an instant that plans over phantoms copies its tasks
/// into a store of its own, whose ids mean nothing at the next instant, and
/// must pass `None`), and a `WorkerId` names a slot of the same
/// `WorkerStore` — the reach layer tells a changed worker by that store's
/// mutation stamp.
#[derive(Debug, Clone, Copy, Default)]
pub struct IncrementalContext;

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

/// The planner's incremental state across planning instants: verified
/// per-worker reachable sets plus the previous worker list and candidate
/// pool they are diffed against. See the module docs for the invariants.
#[derive(Debug, Default)]
pub struct PlanCache {
    /// Config the cached state was computed under; a live change clears all.
    config: Option<AssignConfig>,
    /// Instant of the previous pass: reuse rests on `now` never decreasing.
    prev_now: Timestamp,
    /// Candidate pool (ascending) of the previous pass.
    prev_open: Vec<TaskId>,
    /// Worker list (ascending) of the previous pass; empty before the first
    /// pass, after a reset and after a pass whose worker list or pool was
    /// not ascending — every worker then counts as having entered the list.
    prev_workers: Vec<WorkerId>,
    /// Per-slot scan state, dense by worker index.
    slots: Vec<ReachSlot>,
    /// The lists of this pass's live workers (non-empty reach).
    lists: ReachableSets,
    /// `lists` of the previous pass (the two swap every pass).
    lists_prev: ReachableSets,
    /// Scratch: locations of the tasks that joined the pool since the
    /// previous pass.
    added: Vec<Location>,
    /// Scratch: the tasks that left the pool since the previous pass,
    /// ascending.
    removed: Vec<TaskId>,
    /// Scratch: (task, distance) pairs of one worker's rescan.
    scratch_pairs: Vec<(TaskId, f64)>,
}

impl PlanCache {
    /// The reachable sets of the latest pass: exactly what `reachable_tasks`
    /// would have produced for that pass's workers and candidates.
    pub(crate) fn reach(&self) -> &ReachableSets {
        &self.lists
    }

    /// Refreshes the reachable sets of the listed workers for this instant
    /// (read them through [`PlanCache::reach`]) — carrying verified lists
    /// over, rescanning where a check fails — and returns the number of
    /// workers that were rescanned.
    ///
    /// A pass walks `worker_ids` once against the previous pass's worker
    /// list (both ascending). A worker is rescanned when
    /// it entered the list, (a) its store mutation stamp moved, (b) it is
    /// live and a member of its list left the pool or no longer passes the
    /// reachability predicates re-evaluated at `now`, or (c) a task that
    /// joined the pool lies within its reachable distance. A worker that is
    /// clean and was not live costs the stamp compare and one distance per
    /// added task: its record is never loaded and nothing is written for it.
    pub(crate) fn refresh_reachable(
        &mut self,
        worker_ids: &[WorkerId],
        candidate_tasks: &[TaskId],
        workers: &WorkerStore,
        tasks: &TaskStore,
        config: &AssignConfig,
        now: Timestamp,
    ) -> usize {
        if self.config != Some(*config) || now.0 < self.prev_now.0 {
            self.prev_workers.clear();
            self.prev_open.clear();
            self.config = Some(*config);
        }
        // The diffs below are merge sweeps: a worker list or a pool that is
        // not ascending makes this pass, and the next, scan everyone.
        let ascending = worker_ids.windows(2).all(|p| p[0] < p[1])
            && candidate_tasks.windows(2).all(|p| p[0] < p[1]);
        if !ascending {
            self.prev_workers.clear();
        }
        // Tasks that joined and tasks that left the candidate pool since the
        // previous pass (`removed` comes out ascending, like the pool it is
        // taken from).
        self.added.clear();
        self.removed.clear();
        let mut i = 0;
        for &t in candidate_tasks {
            while i < self.prev_open.len() && self.prev_open[i] < t {
                self.removed.push(self.prev_open[i]);
                i += 1;
            }
            if i < self.prev_open.len() && self.prev_open[i] == t {
                i += 1;
            } else {
                self.added.push(tasks.get(t).location);
            }
        }
        self.removed.extend_from_slice(&self.prev_open[i..]);
        std::mem::swap(&mut self.lists, &mut self.lists_prev);
        self.lists.restart(worker_ids.len());
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
            let carried = self.lists_prev.of(wid);
            if clean && carried.is_empty() {
                // Clean and inert: nothing to re-verify, nothing to emit.
                continue;
            }
            let worker = workers.get(wid);
            // (b) every cached member still in the pool, unexpired, reachable
            // — the exact predicates, re-evaluated at this instant.
            if clean
                && carried.iter().all(|&t| {
                    self.removed.binary_search(&t).is_err()
                        && still_reachable(worker, tasks.get(t), config, now)
                })
            {
                self.lists.push(wid, carried.iter().copied());
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
            self.lists
                .push(wid, self.scratch_pairs.iter().map(|&(t, _)| t));
        }
        self.prev_workers.clear();
        if ascending {
            self.prev_workers.extend_from_slice(worker_ids);
        }
        self.prev_open.clear();
        self.prev_open.extend_from_slice(candidate_tasks);
        self.prev_now = now;
        rescanned
    }
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
}
