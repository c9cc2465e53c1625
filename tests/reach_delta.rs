//! The planner's reach layer is a delta: per-worker reachable sets persist in
//! dense worker slots and a live pass (`Planner::plan_live`) rescans only the
//! workers whose set may have changed, telling old from new by pass marks.
//! This suite pins the delta against the from-scratch definition: after every
//! pass of a seeded event script the planner's refreshed sets equal
//! `reachable_tasks` for every listed worker — list order included — under
//! the exact and TVF-guided modes (the greedy baseline always takes a cold
//! pass), and the plans equal a cold context-free planner's. Some instants
//! of a script plan on a copy of the open tasks with a predicted task
//! appended, as the runner does: a cold pass whose ids name other tasks,
//! which the live pass after it must not be misled by.
//!
//! The scripts live on an integer lattice with half-unit reach distances, so
//! equal-distance ties and tasks exactly at reach distance are the common
//! case, and cap the lists at three, so full lists losing a member are too.
//! The `Planner` API takes no word about what changed, so every worker
//! mutation below is detected from the store's mutation stamps alone.

use datawa::assign::{reachable_tasks, PlanningReport};
use datawa::prelude::*;
use proptest::prelude::*;

/// One change of the world between two planning instants.
#[derive(Debug, Clone)]
enum WorldEvent {
    /// A task is published.
    TaskArrives { x: usize, y: usize, valid: f64 },
    /// An open task leaves the pool (expiration event, or served).
    TaskLeaves { pick: usize },
    /// A worker comes online and joins the idle list — `early`: listed a few
    /// seconds ahead of its window.
    WorkerOnline {
        x: usize,
        y: usize,
        reach: usize,
        len: f64,
        early: bool,
    },
    /// A worker goes offline: its mode flips, and it leaves the idle list
    /// unless `stays_listed`.
    WorkerOffline { pick: usize, stays_listed: bool },
    /// A dispatch moved an idle worker (it stays listed).
    WorkerMoves { pick: usize, x: usize, y: usize },
    /// A worker leaves the idle list for `passes` planning instants (busy),
    /// possibly somewhere else when it is back.
    WorkerBusy {
        pick: usize,
        passes: usize,
        x: usize,
        y: usize,
        moved: bool,
    },
    /// Time runs ahead: past member deadlines and worker windows.
    TimeJump { dt: f64 },
    /// The instant plans on a copy of the open tasks with a predicted task
    /// at `(x, y)` appended.
    CopyInstant { x: usize, y: usize },
    /// Nothing happens and no time passes.
    Quiet,
}

fn event_strategy() -> impl Strategy<Value = WorldEvent> {
    prop_oneof![
        (0usize..9, 0usize..9, 6.0f64..60.0).prop_map(|(x, y, valid)| WorldEvent::TaskArrives {
            x,
            y,
            valid
        }),
        (0usize..9, 0usize..9, 6.0f64..60.0).prop_map(|(x, y, valid)| WorldEvent::TaskArrives {
            x,
            y,
            valid
        }),
        (0usize..100).prop_map(|pick| WorldEvent::TaskLeaves { pick }),
        (
            0usize..9,
            0usize..9,
            0usize..5,
            30.0f64..300.0,
            any::<bool>()
        )
            .prop_map(|(x, y, reach, len, early)| WorldEvent::WorkerOnline {
                x,
                y,
                reach,
                len,
                early
            }),
        (0usize..100, any::<bool>())
            .prop_map(|(pick, stays_listed)| WorldEvent::WorkerOffline { pick, stays_listed }),
        (0usize..100, 0usize..9, 0usize..9).prop_map(|(pick, x, y)| WorldEvent::WorkerMoves {
            pick,
            x,
            y
        }),
        (0usize..100, 1usize..4, 0usize..9, 0usize..9, any::<bool>()).prop_map(
            |(pick, passes, x, y, moved)| WorldEvent::WorkerBusy {
                pick,
                passes,
                x,
                y,
                moved
            }
        ),
        (10.0f64..80.0).prop_map(|dt| WorldEvent::TimeJump { dt }),
        (0usize..9, 0usize..9).prop_map(|(x, y)| WorldEvent::CopyInstant { x, y }),
        Just(WorldEvent::Quiet),
    ]
}

fn config() -> AssignConfig {
    AssignConfig {
        travel: TravelModel::euclidean(0.5),
        max_reachable_per_worker: 3,
        max_sequence_len: 2,
        threads: 1,
        ..AssignConfig::default()
    }
}

fn lattice(x: usize, y: usize) -> Location {
    Location::new(x as f64, y as f64)
}

fn reach_distance(step: usize) -> f64 {
    1.0 + 0.5 * step as f64
}

/// The driver's side of a streaming run: the stores, the candidate pool and
/// the idle list (both ascending), the workers currently busy, and the
/// predicted task the next instant plans over, if any.
struct World {
    workers: WorkerStore,
    tasks: TaskStore,
    open: Vec<TaskId>,
    listed: Vec<WorkerId>,
    busy: Vec<(WorkerId, usize)>,
    now: f64,
    phantom: Option<Location>,
}

impl World {
    fn new(
        worker_specs: &[(usize, usize, usize, f64)],
        task_specs: &[(usize, usize, f64)],
    ) -> World {
        let mut workers = WorkerStore::new();
        for &(x, y, reach, len) in worker_specs {
            workers.insert(Worker::new(
                WorkerId(0),
                lattice(x, y),
                reach_distance(reach),
                Timestamp(0.0),
                Timestamp(len),
            ));
        }
        let mut tasks = TaskStore::new();
        for &(x, y, valid) in task_specs {
            tasks.insert(Task::new(
                TaskId(0),
                lattice(x, y),
                Timestamp(0.0),
                Timestamp(valid),
            ));
        }
        World {
            listed: workers.ids().collect(),
            open: tasks.ids().collect(),
            workers,
            tasks,
            busy: Vec::new(),
            now: 1.0,
            phantom: None,
        }
    }

    fn list(&mut self, worker: WorkerId) {
        if let Err(at) = self.listed.binary_search(&worker) {
            self.listed.insert(at, worker);
        }
    }

    /// Applies one event, then lets the busy workers whose time is up back
    /// onto the idle list. Returns whether the pass that follows may rescan
    /// someone: anything but a quiet instant with no re-entry.
    fn apply(&mut self, event: &WorldEvent) -> bool {
        let mut quiet = false;
        self.phantom = None;
        match *event {
            WorldEvent::TaskArrives { x, y, valid } => {
                let id = self.tasks.insert(Task::new(
                    TaskId(0),
                    lattice(x, y),
                    Timestamp(self.now),
                    Timestamp(self.now + valid),
                ));
                self.open.push(id);
            }
            WorldEvent::TaskLeaves { pick } if !self.open.is_empty() => {
                self.open.remove(pick % self.open.len());
            }
            WorldEvent::WorkerOnline {
                x,
                y,
                reach,
                len,
                early,
            } => {
                let on = if early { self.now + 4.0 } else { self.now };
                let id = self.workers.insert(Worker::new(
                    WorkerId(0),
                    lattice(x, y),
                    reach_distance(reach),
                    Timestamp(on),
                    Timestamp(on + len),
                ));
                self.list(id);
            }
            WorldEvent::WorkerOffline { pick, stays_listed } if !self.listed.is_empty() => {
                let at = pick % self.listed.len();
                let id = self.listed[at];
                self.workers.get_mut(id).mode = WorkerMode::Offline;
                if !stays_listed {
                    self.listed.remove(at);
                }
            }
            WorldEvent::WorkerMoves { pick, x, y } if !self.listed.is_empty() => {
                let id = self.listed[pick % self.listed.len()];
                self.workers.get_mut(id).location = lattice(x, y);
            }
            WorldEvent::WorkerBusy {
                pick,
                passes,
                x,
                y,
                moved,
            } if !self.listed.is_empty() => {
                let id = self.listed.remove(pick % self.listed.len());
                if moved {
                    self.workers.get_mut(id).location = lattice(x, y);
                }
                self.busy.push((id, passes));
            }
            WorldEvent::TimeJump { dt } => self.now += dt,
            WorldEvent::CopyInstant { x, y } => self.phantom = Some(lattice(x, y)),
            WorldEvent::Quiet => quiet = true,
            _ => {}
        }
        if !quiet && !matches!(event, WorldEvent::TimeJump { .. }) {
            self.now += 1.5;
        }
        let mut back = Vec::new();
        self.busy.retain_mut(|(id, passes)| {
            *passes -= 1;
            if *passes == 0 {
                back.push(*id);
            }
            *passes > 0
        });
        quiet &= back.is_empty();
        for id in back {
            self.list(id);
        }
        !quiet
    }
}

/// The search modes that read the reach layer.
const MODES: [SearchMode; 2] = [SearchMode::Exact, SearchMode::Guided];

fn planner(config: AssignConfig, mode: SearchMode) -> Planner {
    let planner = Planner::new(config, mode);
    if mode == SearchMode::Guided {
        planner.with_tvf(TaskValueFunction::new(8, 7))
    } else {
        planner
    }
}

fn warm_planners() -> Vec<Planner> {
    MODES.iter().map(|&mode| planner(config(), mode)).collect()
}

/// One planning instant on every warm planner: the refreshed sets must equal
/// the from-scratch sets and the plan a cold context-free planner's. Returns
/// the reports of the live passes — none at an instant planned on a copy —
/// or `None` when there was nothing to plan.
fn plan_and_check(world: &World, warm: &mut [Planner], label: &str) -> Option<Vec<PlanningReport>> {
    if world.listed.is_empty() || world.open.is_empty() {
        return None;
    }
    let now = Timestamp(world.now);
    if let Some(at) = world.phantom {
        // As the runner plans an instant with a predicted task in its
        // lookahead: the open tasks copied into a store of their own, ids
        // dense from zero, the prediction appended, a context-free call.
        let mut copy = TaskStore::new();
        for &t in &world.open {
            copy.insert(*world.tasks.get(t));
        }
        copy.insert(Task::new(
            TaskId(0),
            at,
            Timestamp(world.now + 1.0),
            Timestamp(world.now + 30.0),
        ));
        let ids: Vec<TaskId> = copy.ids().collect();
        for planner in warm.iter_mut() {
            let mode = planner.mode;
            let (plan, _) = planner.plan(&world.listed, &ids, &world.workers, &copy, now);
            let (cold, _) =
                self::planner(config(), mode).plan(&world.listed, &ids, &world.workers, &copy, now);
            assert_eq!(plan, cold, "{label}, {mode:?}: plan on the copy diverged");
        }
        return Some(Vec::new());
    }
    // The live store and the open ids, as `RunnerState::step` hands them in.
    let (store, pids) = (&world.tasks, &world.open);
    let oracle = reachable_tasks(&world.listed, pids, &world.workers, store, &config(), now);
    let mut reports = Vec::new();
    for planner in warm.iter_mut() {
        let mode = planner.mode;
        let (plan, report) =
            planner.plan_live(&world.listed, pids, &world.workers, store, now, None);
        let refreshed = planner.reachable();
        for &w in &world.listed {
            assert_eq!(
                refreshed.of(w),
                oracle.of(w),
                "{label}, {mode:?}: reachable list of {w:?} at t={}",
                world.now
            );
        }
        assert_eq!(
            refreshed.live_workers(),
            oracle.workers_with_reach(&world.listed).as_slice(),
            "{label}, {mode:?}: live workers"
        );
        assert_eq!(report.reach_live, refreshed.live_workers().len());
        assert_eq!(
            report.mean_reachable.to_bits(),
            oracle.mean_reachable().to_bits(),
            "{label}, {mode:?}: mean reachable"
        );
        let (cold, cold_report) =
            self::planner(config(), mode).plan(&world.listed, pids, &world.workers, store, now);
        assert_eq!(plan, cold, "{label}, {mode:?}: plan diverged");
        assert_eq!(cold_report.workers_rescanned, world.listed.len());
        reports.push(report);
    }
    Some(reports)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn refreshed_sets_equal_a_scan_from_scratch_after_every_pass(
        worker_specs in prop::collection::vec(
            (0usize..9, 0usize..9, 0usize..5, 30.0f64..300.0), 2..10),
        task_specs in prop::collection::vec(
            (0usize..9, 0usize..9, 6.0f64..60.0), 2..14),
        events in prop::collection::vec(event_strategy(), 1..14),
    ) {
        let mut world = World::new(&worker_specs, &task_specs);
        let mut warm = warm_planners();
        plan_and_check(&world, &mut warm, "warm-up");
        let mut after_copy = false;
        for (step, event) in events.iter().enumerate() {
            let may_rescan = world.apply(event);
            let label = format!("step {step} after {event:?}");
            let Some(reports) = plan_and_check(&world, &mut warm, &label) else {
                continue;
            };
            // A worker listed ahead of its window is rescanned until the
            // window opens; everyone else is left alone by a quiet instant,
            // unless the instant before it planned on a copy.
            let early = world
                .listed
                .iter()
                .any(|&w| world.workers.get(w).on().0 > world.now);
            let linked = !std::mem::replace(&mut after_copy, world.phantom.is_some());
            if !may_rescan && !early && linked {
                for report in reports {
                    prop_assert_eq!(report.workers_rescanned, 0, "{}", label);
                }
            }
        }
    }
}

/// The fixed scene of the deterministic cases: four workers on a line, the
/// last one far from everything, and three tasks around the first two.
fn scene() -> World {
    World::new(
        &[
            (0, 0, 2, 500.0),
            (2, 0, 2, 500.0),
            (4, 0, 0, 500.0),
            (8, 8, 0, 500.0),
        ],
        &[(1, 0, 400.0), (1, 1, 400.0), (3, 0, 400.0)],
    )
}

#[test]
fn a_pass_in_which_nothing_changed_rescans_no_one() {
    let mut world = scene();
    let mut warm = warm_planners();
    let first = plan_and_check(&world, &mut warm, "first").expect("planned");
    for report in first {
        assert_eq!(report.workers_rescanned, 4, "the first pass scans everyone");
        assert!(report.reach_live >= 2 && report.reach_live < 4);
    }
    // Same instant again, then a later one no deadline falls before.
    for now in [1.0, 20.0] {
        world.now = now;
        for report in plan_and_check(&world, &mut warm, "unchanged").expect("planned") {
            assert_eq!(report.workers_rescanned, 0, "t={now}");
        }
    }
    // A task out of everyone's reach changes no list either.
    world.apply(&WorldEvent::TaskArrives {
        x: 8,
        y: 0,
        valid: 300.0,
    });
    for report in plan_and_check(&world, &mut warm, "far arrival").expect("planned") {
        assert_eq!(report.workers_rescanned, 0);
    }
    // One within reach of the third worker alone rescans that worker alone.
    world.apply(&WorldEvent::TaskArrives {
        x: 5,
        y: 0,
        valid: 300.0,
    });
    for report in plan_and_check(&world, &mut warm, "near arrival").expect("planned") {
        assert_eq!(report.workers_rescanned, 1);
    }
}

/// Check (a) runs in every build and needs no announcement: each attribute a
/// reachable list depends on is changed through `WorkerStore::get_mut` —
/// and once through `iter_mut` — with no hook of any kind in between.
#[test]
fn a_worker_mutated_behind_the_planners_back_is_rescanned() {
    let mut world = scene();
    let mut warm = warm_planners();
    plan_and_check(&world, &mut warm, "warm-up");
    let inert = WorkerId(3);
    type Mutation = fn(&mut Worker);
    let mutations: [(&str, Mutation); 4] = [
        ("location", |w| w.location = Location::new(1.0, 0.0)),
        ("reachable distance", |w| w.reachable_distance = 0.25),
        ("window", |w| {
            w.set_window(AvailabilityWindow::new(Timestamp(0.0), Timestamp(2.0)))
        }),
        ("mode", |w| w.mode = WorkerMode::Offline),
    ];
    for (what, mutate) in mutations {
        world.now += 0.5;
        mutate(world.workers.get_mut(inert));
        for report in plan_and_check(&world, &mut warm, what).expect("planned") {
            assert_eq!(report.workers_rescanned, 1, "{what}");
        }
    }
    world.now += 0.5;
    for worker in world.workers.iter_mut() {
        worker.reachable_distance += 0.5;
    }
    for report in plan_and_check(&world, &mut warm, "iter_mut").expect("planned") {
        assert_eq!(report.workers_rescanned, 4);
    }
}

/// Pass marks do not care about the order of the worker list: a reversed
/// one still equals cold, and carries every list over. A clock running backwards is
/// not trusted: the pass scans everyone.
#[test]
fn unsorted_lists_still_equal_cold_and_a_clock_running_backwards_rescans() {
    let mut world = scene();
    let mut warm = warm_planners();
    world.now = 50.0;
    plan_and_check(&world, &mut warm, "warm-up");
    world.listed.reverse();
    for report in plan_and_check(&world, &mut warm, "reversed").expect("planned") {
        assert_eq!(report.workers_rescanned, 0);
    }
    world.listed.reverse();
    plan_and_check(&world, &mut warm, "ascending again");
    world.now = 10.0;
    for report in plan_and_check(&world, &mut warm, "earlier instant").expect("planned") {
        assert_eq!(report.workers_rescanned, 4);
    }
}

/// An instant planned on a copy — ids dense from zero, a predicted task
/// appended — between two live passes. The copy's ids name other tasks than
/// the live store's, and the task that arrives after it takes the id the
/// prediction had on the copy: had the live pass linked to the copy pass,
/// that arrival would pass for old, and the far worker, which reaches it
/// and nothing on the copy, would keep an empty list.
#[test]
fn a_live_pass_after_a_copy_store_pass_equals_cold() {
    let mut world = scene();
    let mut warm = warm_planners();
    plan_and_check(&world, &mut warm, "live");
    world.apply(&WorldEvent::CopyInstant { x: 0, y: 8 });
    assert_eq!(
        plan_and_check(&world, &mut warm, "copy").map(|r| r.len()),
        Some(0)
    );
    world.apply(&WorldEvent::TaskArrives {
        x: 8,
        y: 8,
        valid: 300.0,
    });
    assert_eq!(world.open.last(), Some(&TaskId(3)), "the prediction's id");
    for report in plan_and_check(&world, &mut warm, "live after copy").expect("planned") {
        assert_eq!(report.workers_rescanned, 4);
        assert_eq!(report.reach_live, 4, "the far worker included");
    }
}
