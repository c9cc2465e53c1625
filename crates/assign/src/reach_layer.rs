//! The reach layer: the planner's one route to reachable sets, kept across
//! planning passes as a delta.
//!
//! Most planning instants touch only a handful of spatial clusters — a task
//! arrival changes the reachable lists of the workers that can reach it, one
//! worker going offline changes nothing but its own. The layer carries every
//! list an instant did not touch over from the previous pass, and stays
//! bitwise identical to [`reachable_tasks`](crate::reachable_tasks), the
//! from-scratch definition it is tested against (`tests/reach_delta.rs`).
//!
//! **State.** Dense and persistent: one slot per `WorkerId::index()` holding
//! the pass the worker was last listed at and the store mutation stamp,
//! location and reachable distance its list was scanned under; one mark per
//! `TaskId::index()` holding the pass the task was last a candidate at; and
//! the lists themselves (flat, double-buffered) of the *live* workers only —
//! those that reach anything, about ten of three hundred at the paper's
//! operating point.
//!
//! **Old from new, by pass marks.** Passes are numbered. A worker was listed
//! at the previous pass exactly when its slot's mark is `pass − 1`; a
//! candidate joined the pool since then when its mark was not `pass − 1`
//! before this pass set it; a carried member left the pool when its mark is
//! not `pass`. That is O(1) per listed worker and per candidate, whatever
//! the order of the worker list.
//!
//! **When a list is still exact.** The worker was listed at the previous pass
//! and (a) its mutation stamp has not moved — no one was handed the record
//! mutably, so location, reach, window and mode are what they were; (b) every
//! carried member is still a candidate and still passes `Worker::can_reach`
//! *re-evaluated at the current instant*; and (c) no candidate that joined
//! the pool lies within the worker's reachable distance. A worker that
//! reaches nothing has no member to re-verify, so (a) and (c) — a compare and
//! one distance per added task against slot-resident coordinates — are its
//! whole cost: its record is not loaded and nothing is emitted for it. Every
//! other worker is rescanned. Soundness of (b)+(c) rests on monotonicity:
//! every `can_reach` constraint only decays as `now` advances (a worker
//! listed ahead of its window is rescanned until the window opens) and
//! distances are static while the worker stands still, so a task outside the
//! list cannot climb into the capped nearest-first ranking unless it is new —
//! and (c) catches those conservatively, by distance alone.
//!
//! **Cold passes.** A pass links to its predecessor only when both are live
//! (the caller's promise, [`Planner::plan_live`](crate::Planner::plan_live):
//! the candidates are stable ids of one live `TaskStore`, the workers slots
//! of one `WorkerStore`), under one config, with `now` not behind. Any other
//! pass — a context-free `Planner::plan`, the greedy baseline, the runner's
//! instant on a copied store with predicted tasks appended — is *cold*: the
//! counter skips a number first, so no mark equals `pass − 1` and every
//! listed worker is scanned, and skips one more after a cold pass, whose ids
//! may name other tasks than the next live pass's.

use crate::config::AssignConfig;
use crate::reachable::{scan_reachable, still_reachable, ReachableSets};
use datawa_core::{Location, TaskId, TaskStore, Timestamp, WorkerId, WorkerStore};

/// What the layer keeps per worker slot (`WorkerId::index()`), for every
/// worker it has ever listed: enough to decide "nothing changed" for a worker
/// without loading its record.
#[derive(Debug, Clone, Copy, Default)]
struct ReachSlot {
    /// The pass the worker was last listed at.
    listed: u64,
    /// The store's mutation stamp of the worker when its list was last
    /// scanned — check (a) is one compare against [`WorkerStore::stamp`].
    stamp: u32,
    /// Location and reachable distance at that stamp: all that check (c)
    /// reads.
    location: Location,
    reach: f64,
}

/// The planner's reachable sets across planning passes. See the module docs
/// for the invariants.
#[derive(Debug, Default)]
pub(crate) struct ReachLayer {
    /// Config of the previous pass; a change makes the next pass cold.
    config: Option<AssignConfig>,
    /// Instant of the previous pass: linking rests on `now` never decreasing.
    prev_now: Timestamp,
    /// The number of the latest pass.
    pass: u64,
    /// Per-slot state, dense by worker index.
    slots: Vec<ReachSlot>,
    /// Per task, dense by `TaskId::index()`: the pass it was last a
    /// candidate at.
    candidate_at: Vec<u64>,
    /// The lists of this pass's live workers (non-empty reach).
    lists: ReachableSets,
    /// `lists` of the previous pass (the two swap every pass).
    lists_prev: ReachableSets,
    /// Scratch: locations of the candidates that joined the pool since the
    /// previous pass.
    added: Vec<Location>,
    /// Scratch: (task, distance) pairs of one worker's rescan.
    scratch_pairs: Vec<(TaskId, f64)>,
}

impl ReachLayer {
    /// The reachable sets of the latest pass: exactly what `reachable_tasks`
    /// produces for that pass's workers and candidates.
    pub(crate) fn sets(&self) -> &ReachableSets {
        &self.lists
    }

    /// Runs one pass for the listed workers at `now` (read the sets through
    /// [`ReachLayer::sets`]) and returns the number of workers rescanned. A
    /// `live` pass carries verified lists over from the previous pass when
    /// it links to it; a cold one scans every listed worker.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn refresh(
        &mut self,
        worker_ids: &[WorkerId],
        candidate_tasks: &[TaskId],
        workers: &WorkerStore,
        tasks: &TaskStore,
        config: &AssignConfig,
        now: Timestamp,
        live: bool,
    ) -> usize {
        let linked = live && self.config == Some(*config) && now.0 >= self.prev_now.0;
        self.pass += if linked { 1 } else { 2 };
        let pass = self.pass;
        self.config = Some(*config);
        self.prev_now = now;
        if self.candidate_at.len() < tasks.len() {
            self.candidate_at.resize(tasks.len(), 0);
        }
        self.added.clear();
        for &t in candidate_tasks {
            let mark = &mut self.candidate_at[t.index()];
            if *mark != pass - 1 {
                self.added.push(tasks.get(t).location);
            }
            *mark = pass;
        }
        std::mem::swap(&mut self.lists, &mut self.lists_prev);
        self.lists.restart(worker_ids.len());
        if self.slots.len() < workers.len() {
            self.slots.resize(workers.len(), ReachSlot::default());
        }
        let mut rescanned = 0usize;
        for &wid in worker_ids {
            let slot = &mut self.slots[wid.index()];
            let stamp = workers.stamp(wid);
            // Listed at the previous pass (so its list saw every pool change
            // since) and (a) not handed out mutably since.
            let mut clean = slot.listed == pass - 1 && slot.stamp == stamp;
            slot.listed = pass;
            if clean {
                // (c) no new candidate within reach distance (conservative:
                // time feasibility is not consulted, so this can only
                // over-report a change, never miss a ranking change).
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
            // (b) every carried member still a candidate, unexpired and
            // reachable — the exact predicates, re-evaluated at this instant.
            if clean
                && carried.iter().all(|&t| {
                    self.candidate_at[t.index()] == pass
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
        if !live {
            // The next pass must not link to this one.
            self.pass += 1;
        }
        rescanned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reachable::tests::fixture;

    #[test]
    fn a_reused_buffer_forgets_the_previous_listing() {
        let (workers, tasks, config) = fixture();
        let tids: Vec<TaskId> = tasks.ids().collect();
        let all: Vec<WorkerId> = workers.ids().collect();
        let mut layer = ReachLayer::default();
        let now = Timestamp(0.0);
        layer.refresh(&all, &tids, &workers, &tasks, &config, now, false);
        assert_eq!(layer.sets().live_workers(), &all[..]);
        assert_eq!(layer.sets().workers_with_reach(&all), all);
        // Relisting the far worker alone leaves nothing behind of the others.
        layer.refresh(&all[2..], &tids, &workers, &tasks, &config, now, false);
        let sets = layer.sets();
        assert!(sets.of(WorkerId(0)).is_empty());
        assert_eq!(sets.of(WorkerId(2)), &[TaskId(2)]);
        assert_eq!(sets.live_workers(), &[WorkerId(2)]);
        assert_eq!(sets.pair_count(), 1);
        assert_eq!(sets.mean_reachable(), 1.0);
        // A worker beyond every slot seen so far reaches nothing.
        assert!(sets.of(WorkerId(99)).is_empty());
    }

    /// Live passes link to each other and nothing else: a cold pass between
    /// two live ones scans everyone, and so does the live pass after it.
    #[test]
    fn only_consecutive_live_passes_link() {
        let (workers, tasks, config) = fixture();
        let tids: Vec<TaskId> = tasks.ids().collect();
        let all: Vec<WorkerId> = workers.ids().collect();
        let mut layer = ReachLayer::default();
        let mut pass = |live: bool, at: f64| {
            let now = Timestamp(at);
            layer.refresh(&all, &tids, &workers, &tasks, &config, now, live)
        };
        assert_eq!(pass(true, 1.0), 3, "the first pass scans everyone");
        assert_eq!(pass(true, 2.0), 0);
        assert_eq!(pass(false, 3.0), 3, "cold");
        assert_eq!(pass(true, 4.0), 3, "after a cold pass");
        assert_eq!(pass(true, 5.0), 0);
        assert_eq!(pass(true, 4.5), 3, "time ran backwards");
    }
}
