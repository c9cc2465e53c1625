//! The adaptive streaming algorithm (Algorithm 3) and the five evaluated
//! assignment policies (§V-B.2).
//!
//! The runner's state machine ([`RunnerState`]) consumes worker and task
//! arrivals and retirements, re-plans according to the selected policy at the
//! time instances its driver steps it to, dispatches the first task of each
//! idle worker's planned sequence, and tracks the two metrics the paper
//! reports: the total number of assigned tasks and the CPU time spent planning
//! at each time instance.

use crate::config::AssignConfig;
use crate::forecast::{ForecastProvider, ForecastStats};
use crate::planner::{Planner, PlanningReport, SearchMode};
use crate::tvf::{TaskValueFunction, TvfInference};
use datawa_core::{
    Duration, Location, OpenTaskView, Task, TaskId, TaskSequence, TaskStore, Timestamp, Worker,
    WorkerId, WorkerMode, WorkerStore,
};
use datawa_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

/// How far ahead of `now` predicted tasks are allowed to influence planning.
const PREDICTION_LOOKAHEAD: Duration = Duration(60.0);

/// The five task-assignment methods compared in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Greedy: each worker takes the maximal valid task set from the
    /// unassigned tasks, no search, no prediction.
    Greedy,
    /// Fixed Task Assignment: each worker receives a fixed sequence when they
    /// come online and never deviates from it.
    Fta,
    /// Dynamic Task Assignment: the sequence of every idle worker is
    /// re-planned at every time instance (no prediction).
    Dta,
    /// DTA plus task-demand prediction: predicted near-future tasks take part
    /// in planning.
    DtaTp,
    /// The full DATA-WA method: DTA+TP with the TVF-guided search instead of
    /// the exact DFSearch.
    DataWa,
}

impl PolicyKind {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::Greedy => "Greedy",
            PolicyKind::Fta => "FTA",
            PolicyKind::Dta => "DTA",
            PolicyKind::DtaTp => "DTA+TP",
            PolicyKind::DataWa => "DATA-WA",
        }
    }

    /// Whether the policy plans over predicted tasks.
    pub fn uses_prediction(&self) -> bool {
        matches!(self, PolicyKind::DtaTp | PolicyKind::DataWa)
    }

    /// All five policies, in the order the paper lists them.
    pub fn all() -> [PolicyKind; 5] {
        [
            PolicyKind::Greedy,
            PolicyKind::Fta,
            PolicyKind::Dta,
            PolicyKind::DtaTp,
            PolicyKind::DataWa,
        ]
    }
}

/// A predicted near-future task fed to the prediction-aware policies.
///
/// This is the *planning-facing* prediction record: the minimum the planner
/// consumes (where and when demand is expected). The model-facing record —
/// `datawa_predict::PredictedTask`, which additionally carries the grid cell
/// and the model confidence — converts into this type through the `From`
/// impl provided by `datawa-predict`; that impl is the single sanctioned
/// conversion path between the two layers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictedTaskInput {
    /// Expected location.
    pub location: Location,
    /// Expected publication time.
    pub publication: Timestamp,
    /// Expected expiration time.
    pub expiration: Timestamp,
}

/// One dispatch performed by [`RunnerState::step`]: a worker departing for a
/// task at a time instance. The state machine appends every dispatch to an
/// internal log that drivers drain through [`RunnerState::take_dispatches`] —
/// this is what lets the `datawa-stream` session API emit assignment
/// decisions incrementally instead of only reporting end-of-run totals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DispatchRecord {
    /// The dispatched worker.
    pub worker: WorkerId,
    /// The real task it departs for.
    pub task: TaskId,
    /// The time instance at which the dispatch was decided.
    pub decided_at: Timestamp,
    /// When the worker reaches the task (its busy-until horizon).
    pub eta: Timestamp,
}

/// Aggregate outcome of one streaming run.
#[derive(Debug, Clone, Default)]
pub struct RunOutcome {
    /// Total number of real tasks dispatched to (and therefore served by)
    /// workers — the paper's primary metric.
    pub assigned_tasks: usize,
    /// Number of arrival events processed.
    pub events: usize,
    /// Number of planning invocations.
    pub planning_calls: usize,
    /// Total wall-clock seconds spent planning.
    pub total_planning_seconds: f64,
    /// Mean planning seconds per planning call (the paper's "CPU time").
    pub mean_planning_seconds: f64,
    /// Tasks served per worker.
    pub per_worker: BTreeMap<WorkerId, usize>,
    /// Largest number of independent planning partitions any single planning
    /// instant split into.
    pub peak_partitions: usize,
    /// Workers in the largest partition observed across all instants.
    pub peak_partition_workers: usize,
    /// Activity counters of the run's [`ForecastProvider`] (observations,
    /// forecast queries, model refreshes).
    pub forecast: ForecastStats,
    /// Listed workers the exact search dropped for reaching nothing at the
    /// instants planned on the live store, summed over the whole run
    /// ([`PlanningReport::partitions_reused`](crate::PlanningReport) — the
    /// name is historical, no plan is ever reused). The guided search and
    /// the instants planned on a copy report none.
    pub partitions_reused: usize,
    /// Planning partitions searched, summed over the whole run: every
    /// partition of every instant.
    pub partitions_recomputed: usize,
    /// Workers whose reachable list was re-derived by a scan of the open
    /// tasks, summed over the whole run
    /// ([`PlanningReport::workers_rescanned`](crate::PlanningReport)); a
    /// merged list is not a rescan. An instant with a phantom in the
    /// planning store, the one after it, and every greedy instant rescan
    /// every worker they list.
    pub workers_rescanned: usize,
}

/// The streaming adaptive runner (Algorithm 3).
pub struct AdaptiveRunner {
    /// Assignment configuration shared with the planner.
    pub config: AssignConfig,
    /// Which of the five methods to run.
    pub policy: PolicyKind,
    /// Inference snapshot of the trained TVF (required by
    /// [`PolicyKind::DataWa`]; set through [`AdaptiveRunner::with_tvf`]).
    /// Stored as a snapshot so the runner is `Sync`.
    pub tvf: Option<TvfInference>,
    /// Observability registry every run state records into. Detached (every
    /// recording a no-op) unless [`AdaptiveRunner::with_metrics`] attaches
    /// one. Private so the field cannot bypass the construction path — use
    /// [`AdaptiveRunner::metrics`] to read it.
    obs: MetricsRegistry,
}

#[derive(Debug, Clone)]
struct WorkerRuntime {
    busy_until: Timestamp,
    /// The worker's current planned sequence of *real* task ids (Algorithm 3
    /// keeps the planning assignment `PA` alive between planning instants, so
    /// idle workers can be dispatched even at events where no re-planning
    /// happened). For FTA this is the fixed sequence pinned once; for the
    /// adaptive policies it is overwritten at every planning instant.
    plan: TaskSequence,
    /// When the worker's latest planned sequence *starts* with a predicted
    /// (not yet published) task, the worker holds position for it until its
    /// expected publication instant — this is task-demand prediction's
    /// positioning mechanism: the planner reserved this worker for imminent
    /// demand at its location, so dispatching it elsewhere would squander
    /// the reservation. The hold is re-derived at every planning instant and
    /// expires on its own if the prediction never materialises.
    hold_until: Option<Timestamp>,
    /// Whether an FTA fixed plan has already been pinned for this worker (a
    /// worker receives its fixed sequence exactly once, at the first planning
    /// instant where it is idle and tasks are available).
    fixed_assigned: bool,
}

impl WorkerRuntime {
    /// Whether dispatch has anything to do for the worker: a planned task or
    /// a positioning hold. Only such workers are kept in
    /// `RunnerState::armed`.
    fn is_armed(&self) -> bool {
        !self.plan.is_empty() || self.hold_until.is_some()
    }
}

/// Where a worker slot stands in its lifecycle between time instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lane {
    /// Inserted and not idle yet: its window has not opened or it is still
    /// travelling. A due-heap entry wakes it.
    Pending,
    /// In the idle list: window open, not travelling.
    Idle,
    /// Retired. Out for good.
    Gone,
}

/// A worker's wake-up time in [`Lifecycle`]'s min-heap.
#[derive(Debug, Clone, Copy)]
struct Wake {
    at: Timestamp,
    worker: WorkerId,
}

impl Ord for Wake {
    /// Reversed, so that `BinaryHeap` (a max-heap) pops the earliest time
    /// first, ties by the lower id; times by `f64::total_cmp`.
    fn cmp(&self, other: &Wake) -> Ordering {
        other
            .at
            .0
            .total_cmp(&self.at.0)
            .then(other.worker.cmp(&self.worker))
    }
}

impl PartialOrd for Wake {
    fn partial_cmp(&self, other: &Wake) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Wake {
    fn eq(&self, other: &Wake) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Wake {}

/// When a worker with window opening at `on` and busy until `busy_until`
/// becomes idle.
fn due_at(on: Timestamp, busy_until: Timestamp) -> Timestamp {
    if busy_until.0 > on.0 {
        busy_until
    } else {
        on
    }
}

/// Pushes a wake-up; a NaN time never comes due, so it is not kept.
fn push_wake(heap: &mut BinaryHeap<Wake>, at: Timestamp, worker: WorkerId) {
    if !at.0.is_nan() {
        heap.push(Wake { at, worker });
    }
}

/// The worker lifecycle kept as events: who is idle at the current instant,
/// maintained from the moments it changes instead of found by a walk.
///
/// A worker inserted into the run is *pending* until it is due at
/// `max(on, busy_until)` — both known when they are set, at insertion and at
/// each dispatch, which push the due time on a min-heap. A step pops every
/// wake-up at or before `now` into the ascending idle list (a gone worker's
/// is stale and skipped, and one whose window is already over by then is not
/// admitted). A window closes by `RunnerState::retire_worker`, which the
/// driver calls at or before its first step at or after `off`. After
/// [`Lifecycle::advance`] the idle list then holds exactly the workers not
/// retired, inside their window at `now`, and with `busy_until <= now`;
/// `in_view` counts the workers not retired.
///
/// Monotone time makes this sound: a step at an earlier `now` than its
/// predecessor rebuilds everything with one walk, the same rule the reach
/// layer resets by.
#[derive(Debug)]
struct Lifecycle {
    /// One lane per worker slot.
    lanes: Vec<Lane>,
    /// The idle workers, ascending.
    idle: Vec<WorkerId>,
    /// Due times of pending workers (and stale ones of gone workers).
    due: BinaryHeap<Wake>,
    /// Workers not gone (`RunnerState::available_candidates`).
    in_view: usize,
    /// The instant of the latest [`Lifecycle::advance`].
    now: Timestamp,
}

impl Default for Lifecycle {
    fn default() -> Lifecycle {
        Lifecycle {
            lanes: Vec::new(),
            idle: Vec::new(),
            due: BinaryHeap::new(),
            in_view: 0,
            now: Timestamp(f64::NEG_INFINITY),
        }
    }
}

impl Lifecycle {
    /// A worker joins, pending until its window opens.
    fn insert(&mut self, id: WorkerId, worker: &Worker) {
        debug_assert_eq!(id.index(), self.lanes.len(), "dense worker ids");
        self.lanes.push(Lane::Pending);
        self.in_view += 1;
        push_wake(&mut self.due, worker.on(), id);
    }

    /// A worker leaves for good (no-op if it already has).
    fn retire(&mut self, id: WorkerId) {
        match self.lanes[id.index()] {
            Lane::Gone => return,
            Lane::Idle => self.leave_idle(id),
            Lane::Pending => {}
        }
        self.lanes[id.index()] = Lane::Gone;
        self.in_view -= 1;
    }

    /// An idle worker departs for a task and is due again at `due`
    /// ([`due_at`] of its window and new `busy_until`).
    fn depart(&mut self, id: WorkerId, due: Timestamp) {
        debug_assert_eq!(self.lanes[id.index()], Lane::Idle);
        self.leave_idle(id);
        self.lanes[id.index()] = Lane::Pending;
        push_wake(&mut self.due, due, id);
    }

    fn leave_idle(&mut self, id: WorkerId) {
        if let Ok(at) = self.idle.binary_search(&id) {
            self.idle.remove(at);
        }
    }

    /// Brings the idle list to `now`: wakes every pending worker due by
    /// `now`.
    fn advance(&mut self, now: Timestamp, workers: &WorkerStore, runtime: &[WorkerRuntime]) {
        if now.0.is_nan() || now.0 < self.now.0 {
            self.rebuild(now, workers, runtime);
            return;
        }
        self.now = now;
        while let Some(&Wake { at, worker }) = self.due.peek() {
            if at.0 > now.0 {
                break;
            }
            self.due.pop();
            // A gone worker's wake-up is stale. A pending worker has exactly
            // one, pushed when its due time was set: it turns idle only by
            // popping it, and only an idle worker departs.
            if self.lanes[worker.index()] != Lane::Pending {
                continue;
            }
            let w = workers.get(worker);
            debug_assert_eq!(
                due_at(w.on(), runtime[worker.index()].busy_until)
                    .0
                    .to_bits(),
                at.0.to_bits()
            );
            // A window empty or already over at insertion is never admitted;
            // a NaN `off` admits no one either.
            if now.0 < w.off().0 {
                self.lanes[worker.index()] = Lane::Idle;
                let at = self.idle.partition_point(|&w| w < worker);
                self.idle.insert(at, worker);
            }
        }
    }

    /// Re-derives every lane, the idle list and the due heap at `now` in one
    /// walk (a step that went back in time). Gone stays gone: a window closed
    /// at an earlier instant does not reopen.
    fn rebuild(&mut self, now: Timestamp, workers: &WorkerStore, runtime: &[WorkerRuntime]) {
        self.now = now;
        self.idle.clear();
        self.due.clear();
        for (slot, lane) in self.lanes.iter_mut().enumerate() {
            if *lane == Lane::Gone {
                continue;
            }
            let id = WorkerId(slot as u32);
            let w = workers.get(id);
            let busy_until = runtime[slot].busy_until;
            if w.window.contains(now) && busy_until.0 <= now.0 {
                *lane = Lane::Idle;
                self.idle.push(id);
            } else {
                *lane = Lane::Pending;
                push_wake(&mut self.due, due_at(w.on(), busy_until), id);
            }
        }
    }
}

/// A set of task ids, one bit per `TaskId::index()`.
#[derive(Debug, Default)]
struct TaskBits(Vec<u64>);

impl TaskBits {
    fn contains(&self, id: TaskId) -> bool {
        self.0
            .get(id.index() / 64)
            .is_some_and(|word| word >> (id.index() % 64) & 1 == 1)
    }

    /// Adds `id`; whether it was absent.
    fn insert(&mut self, id: TaskId) -> bool {
        let (word, bit) = (id.index() / 64, 1u64 << (id.index() % 64));
        if word >= self.0.len() {
            self.0.resize(word + 1, 0);
        }
        let absent = self.0[word] & bit == 0;
        self.0[word] |= bit;
        absent
    }

    fn remove(&mut self, id: TaskId) {
        if let Some(word) = self.0.get_mut(id.index() / 64) {
            *word &= !(1u64 << (id.index() % 64));
        }
    }
}

/// Pre-resolved handles into the runner's [`MetricsRegistry`] (resolving by
/// name locks the registry's table, so it happens once per run, in
/// [`AdaptiveRunner::start`], never on the per-event path). Every handle is
/// inert when the registry is detached.
struct AssignMetrics {
    /// `assign.replan_seconds`: wall-clock latency of each planning instant.
    replan_seconds: Histogram,
    /// `assign.planning_calls`: planning invocations.
    planning_calls: Counter,
    /// `assign.search_nodes`: search nodes expanded across all partitions.
    search_nodes: Counter,
    /// `assign.dispatches`: real tasks dispatched.
    dispatches: Counter,
    /// `assign.dispatch_visits`: workers the dispatch loop examined (the
    /// armed ones: a plan or a hold).
    dispatch_visits: Counter,
    /// `assign.partitions`: independent partitions of the latest instant
    /// (high-water = the run's peak).
    partitions: Gauge,
    /// `assign.partition_workers`: workers in the instant's largest
    /// partition.
    partition_workers: Gauge,
    /// `assign.open_tasks`: open unserved tasks at the latest time instance.
    open_tasks: Gauge,
    /// `assign.available_workers`: idle available workers at the latest time
    /// instance.
    available_workers: Gauge,
    /// `assign.partitions_reused`: listed workers dropped for reaching
    /// nothing (each would have been a trivial partition; the name is
    /// historical — no plan is ever reused).
    partitions_reused: Counter,
    /// `assign.partitions_recomputed`: partitions searched — all of them.
    partitions_recomputed: Counter,
    /// `assign.cache_hit_pct`: cumulative `reused / (reused + recomputed)`
    /// so far this run (0–100): the share of listed workers that reached
    /// nothing, not a hit rate of any cache.
    cache_hit_pct: Gauge,
    /// `assign.phantom_instants`: planning instants at which a predicted
    /// task fell inside the lookahead, so the open tasks were copied into a
    /// planning store of their own and planned through a cold pass. Every
    /// other instant plans straight on the live store.
    phantom_instants: Counter,
    /// `assign.reach_rescans`: workers whose reachable list was re-derived
    /// by a scan of the open tasks (the rest were merged from their
    /// surviving members and the newly added tasks, or never looked at).
    reach_rescans: Counter,
    /// `assign.reach_live`: workers reaching at least one task at the latest
    /// planning instant (high-water = the run's peak).
    reach_live: Gauge,
    /// `forecast.observed` / `forecast.queries` / `forecast.refreshes`:
    /// activity counters of the run's forecast provider (mirrored into
    /// gauges after each planning instant).
    forecast_observed: Gauge,
    forecast_queries: Gauge,
    forecast_refreshes: Gauge,
}

impl AssignMetrics {
    fn register(registry: &MetricsRegistry) -> AssignMetrics {
        AssignMetrics {
            replan_seconds: registry.histogram("assign.replan_seconds"),
            planning_calls: registry.counter("assign.planning_calls"),
            search_nodes: registry.counter("assign.search_nodes"),
            dispatches: registry.counter("assign.dispatches"),
            dispatch_visits: registry.counter("assign.dispatch_visits"),
            partitions: registry.gauge("assign.partitions"),
            partition_workers: registry.gauge("assign.partition_workers"),
            open_tasks: registry.gauge("assign.open_tasks"),
            available_workers: registry.gauge("assign.available_workers"),
            partitions_reused: registry.counter("assign.partitions_reused"),
            partitions_recomputed: registry.counter("assign.partitions_recomputed"),
            cache_hit_pct: registry.gauge("assign.cache_hit_pct"),
            phantom_instants: registry.counter("assign.phantom_instants"),
            reach_rescans: registry.counter("assign.reach_rescans"),
            reach_live: registry.gauge("assign.reach_live"),
            forecast_observed: registry.gauge("forecast.observed"),
            forecast_queries: registry.gauge("forecast.queries"),
            forecast_refreshes: registry.gauge("forecast.refreshes"),
        }
    }
}

impl AdaptiveRunner {
    /// Creates a runner with the paper's defaults.
    pub fn new(config: AssignConfig, policy: PolicyKind) -> AdaptiveRunner {
        AdaptiveRunner {
            config,
            policy,
            tvf: None,
            obs: MetricsRegistry::detached(),
        }
    }

    /// Attaches a trained TVF (required for DATA-WA); the runner keeps a
    /// thread-safe inference snapshot of its weights.
    pub fn with_tvf(mut self, tvf: TaskValueFunction) -> AdaptiveRunner {
        self.tvf = Some(tvf.inference());
        self
    }

    /// Replaces the runner's observability registry (e.g. with
    /// [`MetricsRegistry::new`] to turn metrics on).
    pub fn with_metrics(mut self, registry: MetricsRegistry) -> AdaptiveRunner {
        self.obs = registry;
        self
    }

    /// The runner's observability registry (detached unless
    /// [`AdaptiveRunner::with_metrics`] attached one). Drivers that layer
    /// their own metrics on top — the stream session, the dispatch service —
    /// register into this same registry so one snapshot covers the stack.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.obs
    }

    fn planner(&self) -> Planner {
        let planner = match self.policy {
            PolicyKind::Greedy => Planner::new(self.config, SearchMode::Greedy),
            PolicyKind::Fta | PolicyKind::Dta | PolicyKind::DtaTp => {
                Planner::new(self.config, SearchMode::Exact)
            }
            PolicyKind::DataWa => {
                // DATA-WA plans through `Planner::plan_guided`, which borrows
                // the snapshot owned by the runner; fail fast if it is
                // missing.
                assert!(
                    self.tvf.is_some(),
                    "PolicyKind::DataWa requires a trained TVF (use with_tvf)"
                );
                Planner::new(self.config, SearchMode::Exact)
            }
        };
        planner.with_metrics(&self.obs)
    }

    /// Opens a stepwise run: the caller feeds arrivals, retirements and time
    /// instances itself, under the contract [`RunnerState`] states. The
    /// `datawa-stream` session is that driver.
    ///
    /// `forecast` is the run's demand-prediction source: every inserted task
    /// is routed into it through [`ForecastProvider::observe`], and the
    /// prediction-aware policies re-query [`ForecastProvider::forecast`] at
    /// every planning instant. Wrap a precomputed slice in
    /// [`StaticForecast`](crate::StaticForecast) to reproduce the
    /// pre-redesign fixed-oracle behaviour bit for bit.
    ///
    /// The state is generic over the provider so `Send` providers yield
    /// `Send` states (a per-tenant pump may own one on its own thread);
    /// `F = dyn ForecastProvider` (the default) erases the type for drivers
    /// that do not care.
    pub fn start<'a, F: ForecastProvider + ?Sized>(
        &'a self,
        forecast: &'a mut F,
    ) -> RunnerState<'a, F> {
        RunnerState {
            runner: self,
            forecast,
            planner: self.planner(),
            workers: WorkerStore::new(),
            tasks: TaskStore::new(),
            open_view: OpenTaskView::new(),
            life: Lifecycle::default(),
            runtime: Vec::new(),
            armed: Vec::new(),
            armed_spare: Vec::new(),
            served: TaskBits::default(),
            reserved_by_fta: TaskBits::default(),
            dispatch_log: Vec::new(),
            outcome: RunOutcome::default(),
            metrics: AssignMetrics::register(&self.obs),
            open_tasks: Vec::new(),
            unfixed_idle: Vec::new(),
        }
    }
}

/// The planning store of an instant with predicted tasks inside the
/// lookahead: a copy of the open real tasks followed by the `phantoms`, with
/// dense ids of its own, and what each of those ids stands for. Instants
/// without a phantom never get here — they plan on the live store.
fn build_planning_store(
    tasks: &TaskStore,
    open_tasks: &[TaskId],
    phantoms: &[PredictedTaskInput],
) -> (TaskStore, Vec<PlanningEntry>) {
    debug_assert!(!phantoms.is_empty(), "phantom-free instants plan in place");
    let mut store = TaskStore::new();
    let mut mapping = Vec::with_capacity(open_tasks.len() + phantoms.len());
    for &tid in open_tasks {
        store.insert(*tasks.get(tid));
        mapping.push(PlanningEntry::Real(tid));
    }
    for p in phantoms {
        store.insert_with_location(p.location, p.publication, p.expiration);
        mapping.push(PlanningEntry::Predicted {
            publication: p.publication,
        });
    }
    (store, mapping)
}

/// What a planning-store task id stands for once the plan is mapped back to
/// the live world: an open real task, or a predicted (not yet published)
/// task that can steer sequences but never be dispatched.
#[derive(Debug, Clone, Copy, PartialEq)]
enum PlanningEntry {
    /// An open real task (dense id in the run's task store).
    Real(TaskId),
    /// A predicted task expected to publish at the carried instant.
    Predicted {
        /// Expected publication time of the predicted task.
        publication: Timestamp,
    },
}

/// The live state of one streaming run of Algorithm 3, exposed stepwise to
/// its driver (the `datawa-stream` session).
///
/// A driver feeds the state machine three kinds of inputs:
///
/// * **arrivals** — [`RunnerState::insert_worker`] / [`RunnerState::insert_task`];
/// * **retirements** — [`RunnerState::expire_task`] /
///   [`RunnerState::retire_worker`], which update the open-task view and the
///   worker lifecycle in `O(log n)`;
/// * **time instances** — [`RunnerState::step`], which optionally re-plans
///   (the batched-replan entry point) and then dispatches idle workers.
///
/// The contract: a driver retires a worker at or before its first step at
/// or after the worker's `off`. A step does not close windows itself: a
/// worker the driver keeps past `off` stays in the idle list. Expiring a task
/// is optional: a step prunes expired tasks lazily from the open view.
///
/// A step costs what changed, not the number of workers. The idle workers
/// are kept by events (see `Lifecycle`: a due-time heap, an ascending idle
/// list), and dispatch and plan-apply visit only the *armed* workers — those
/// holding a plan or a positioning hold, usually none between instants —
/// since a worker with neither has nothing to dispatch and nothing for a new
/// plan to clear.
pub struct RunnerState<'a, F: ForecastProvider + ?Sized = dyn ForecastProvider + 'a> {
    runner: &'a AdaptiveRunner,
    forecast: &'a mut F,
    planner: Planner,
    workers: WorkerStore,
    tasks: TaskStore,
    open_view: OpenTaskView,
    /// Who is idle, kept by events.
    life: Lifecycle,
    runtime: Vec<WorkerRuntime>,
    /// Ascending; every worker not gone whose runtime
    /// [`is_armed`](WorkerRuntime::is_armed), plus possibly some that no
    /// longer are (dropped when next visited).
    armed: Vec<WorkerId>,
    /// The buffer `armed` is rebuilt into at a plan-apply (the two swap).
    armed_spare: Vec<WorkerId>,
    served: TaskBits,
    reserved_by_fta: TaskBits,
    dispatch_log: Vec<DispatchRecord>,
    outcome: RunOutcome,
    metrics: AssignMetrics,
    /// Buffers [`RunnerState::step`] refills at every time instance: the
    /// open tasks and, under FTA, the idle workers without a fixed plan,
    /// both ascending.
    open_tasks: Vec<TaskId>,
    unfixed_idle: Vec<WorkerId>,
}

impl<F: ForecastProvider + ?Sized> RunnerState<'_, F> {
    /// Counts one arrival event in the outcome (drivers call this once per
    /// worker/task arrival, which is what [`RunOutcome::events`] counts).
    #[inline]
    pub fn record_event(&mut self) {
        self.outcome.events += 1;
    }

    /// Number of candidate open tasks currently tracked by the incremental
    /// view (may include lazily prunable entries).
    #[inline]
    pub fn open_candidates(&self) -> usize {
        self.open_view.len()
    }

    /// Number of workers not retired (idle, busy, or not yet in their
    /// window).
    #[inline]
    pub fn available_candidates(&self) -> usize {
        self.life.in_view
    }

    /// Total real tasks dispatched so far (the running value of
    /// [`RunOutcome::assigned_tasks`]).
    #[inline]
    pub fn assigned_so_far(&self) -> usize {
        self.outcome.assigned_tasks
    }

    /// Drains the dispatches performed since the previous call (or since the
    /// run started), in decision order. Drivers that surface incremental
    /// decisions (the `datawa-stream` session) call this after every
    /// [`RunnerState::step`]; drivers that only need totals may ignore the
    /// log entirely — it is dropped at [`RunnerState::finish`].
    #[inline]
    pub fn take_dispatches(&mut self) -> Vec<DispatchRecord> {
        std::mem::take(&mut self.dispatch_log)
    }

    /// Inserts an arriving worker and returns its dense id.
    pub fn insert_worker(&mut self, worker: Worker) -> WorkerId {
        let id = self.workers.insert(worker);
        self.runtime.push(WorkerRuntime {
            busy_until: Timestamp(f64::NEG_INFINITY),
            plan: TaskSequence::empty(),
            hold_until: None,
            fixed_assigned: false,
        });
        self.life.insert(id, &worker);
        id
    }

    /// Inserts an arriving task and returns its dense id. The arrival is
    /// also routed into the run's [`ForecastProvider`] so an online
    /// forecaster's occurrence history tracks the live stream (a no-op
    /// beyond counting for [`StaticForecast`](crate::StaticForecast)).
    pub fn insert_task(&mut self, task: Task) -> TaskId {
        self.forecast.observe(task.publication, &task);
        let id = self.tasks.insert(task);
        self.open_view.insert(id);
        id
    }

    /// Activity counters of the run's forecast provider so far.
    #[inline]
    pub fn forecast_stats(&self) -> ForecastStats {
        self.forecast.stats()
    }

    /// Removes an expired task from the open view (`O(log n)`; called by
    /// event-driven drivers when the expiration event fires). Returns whether
    /// the task was still in the view.
    pub fn expire_task(&mut self, id: TaskId) -> bool {
        self.open_view.remove(id)
    }

    /// Takes a worker offline for good: this is how its availability window
    /// closes (the session calls it when the worker's offline event fires at
    /// `off`; see the driver contract on [`RunnerState`]).
    ///
    /// With `release_plan`, the worker's undone planned tasks are released:
    /// its remaining sequence is cleared and, under FTA, the tasks return to
    /// the unreserved pool so later fixed plans may claim them. Without it,
    /// FTA reservations are permanent.
    pub fn retire_worker(&mut self, id: WorkerId, release_plan: bool) {
        self.life.retire(id);
        self.workers.get_mut(id).mode = WorkerMode::Offline;
        if release_plan {
            let plan = std::mem::replace(&mut self.runtime[id.index()].plan, TaskSequence::empty());
            for tid in plan.iter() {
                self.reserved_by_fta.remove(tid);
            }
        }
    }

    /// One time instance of Algorithm 3: plan (if the batching policy asks
    /// for it via `replan`, or unconditionally for FTA workers still waiting
    /// for their fixed sequence) and dispatch every idle worker to the first
    /// still-servable task of its plan.
    pub fn step(&mut self, now: Timestamp, replan: bool) {
        let policy = self.runner.policy;

        // Idle workers at this instant, ascending: the lifecycle wakes the
        // ones that came due and drops the ones whose window closed.
        self.life.advance(now, &self.workers, &self.runtime);

        // Open, unserved real tasks (served tasks leave the view eagerly at
        // dispatch time, expired ones lazily here or eagerly via
        // `expire_task`).
        let mut open_tasks = std::mem::take(&mut self.open_tasks);
        self.open_view
            .open_at_into(&self.tasks, now, &mut open_tasks);

        self.metrics.open_tasks.set(open_tasks.len() as i64);
        self.metrics
            .available_workers
            .set(self.life.idle.len() as i64);

        // Planning (Algorithm 3, lines 3–9). FTA plans only for workers that
        // have never received their fixed sequence; the adaptive policies
        // re-plan every idle worker when the driver's batching policy says
        // so.
        let idle = std::mem::take(&mut self.life.idle);
        let mut unfixed_idle = std::mem::take(&mut self.unfixed_idle);
        let planning_workers: &[WorkerId] = if policy == PolicyKind::Fta {
            unfixed_idle.clear();
            unfixed_idle.extend(
                idle.iter()
                    .filter(|w| !self.runtime[w.index()].fixed_assigned),
            );
            &unfixed_idle
        } else {
            &idle
        };
        let should_plan = match policy {
            PolicyKind::Fta => !planning_workers.is_empty(),
            _ => replan,
        };
        if should_plan && !open_tasks.is_empty() {
            self.plan_instant(now, planning_workers, &open_tasks);
        }
        self.life.idle = idle;
        self.unfixed_idle = unfixed_idle;
        self.open_tasks = open_tasks;

        // Dispatch (Algorithm 3, lines 10–14): every idle worker departs for
        // the first still-servable task of its current plan. Only an armed
        // worker has a plan or a hold, so only those are visited, in
        // ascending order like the idle list; the visit also drops the ones
        // that are no longer armed, or gone.
        let mut armed = std::mem::take(&mut self.armed);
        self.metrics.dispatch_visits.add(armed.len() as u64);
        let mut kept = 0;
        for at in 0..armed.len() {
            let wid = armed[at];
            match self.life.lanes[wid.index()] {
                Lane::Gone => continue,
                Lane::Pending => {}
                Lane::Idle => self.dispatch(wid, now),
            }
            if self.runtime[wid.index()].is_armed() {
                armed[kept] = wid;
                kept += 1;
            }
        }
        armed.truncate(kept);
        self.armed = armed;
    }

    /// Dispatches one idle worker at `now` to the first still-servable task
    /// of its plan, if its hold allows.
    fn dispatch(&mut self, wid: WorkerId, now: Timestamp) {
        let runtime = &mut self.runtime[wid.index()];
        // A positioning hold keeps the worker in place for imminent
        // predicted demand; it expires on its own at the expected
        // publication (the next planning instant then re-plans the worker
        // over whatever actually arrived).
        if let Some(hold) = runtime.hold_until {
            if now.0 < hold.0 {
                return;
            }
            runtime.hold_until = None;
        }
        // Drop plan entries that were served by someone else or have
        // already expired.
        let mut dispatch_target: Option<TaskId> = None;
        while let Some(candidate) = runtime.plan.first() {
            if self.served.contains(candidate) || self.tasks.get(candidate).is_expired_at(now) {
                runtime.plan.pop_front();
                continue;
            }
            dispatch_target = Some(candidate);
            break;
        }
        let Some(tid) = dispatch_target else { return };
        let task = *self.tasks.get(tid);
        let w = self.workers.get(wid);
        let travel_time = self
            .runner
            .config
            .travel
            .travel_time(&w.location, &task.location);
        // The worker must still be able to reach it before expiry and before
        // going offline.
        let arrival = now + travel_time;
        if arrival.0 < task.expiration.0 && arrival.0 < w.off().0 {
            let due = due_at(w.on(), arrival);
            self.served.insert(tid);
            self.open_view.remove(tid);
            runtime.plan.pop_front();
            self.outcome.assigned_tasks += 1;
            *self.outcome.per_worker.entry(wid).or_insert(0) += 1;
            runtime.busy_until = arrival;
            self.life.depart(wid, due);
            self.workers.get_mut(wid).location = task.location;
            self.metrics.dispatches.inc();
            self.dispatch_log.push(DispatchRecord {
                worker: wid,
                task: tid,
                decided_at: now,
                eta: arrival,
            });
        } else if self.runner.policy != PolicyKind::Fta {
            // An adaptive plan whose head became unreachable is stale; drop
            // the head so the next planning instant can replace it. FTA keeps
            // its fixed sequence.
            runtime.plan.pop_front();
        }
    }

    /// The planning half of [`RunnerState::step`]: query the forecast, plan
    /// `planning_workers` (ascending, possibly none) over `open_tasks`
    /// (ascending, not empty) and write the plan back into the workers'
    /// runtime records.
    fn plan_instant(
        &mut self,
        now: Timestamp,
        planning_workers: &[WorkerId],
        open_tasks: &[TaskId],
    ) {
        let policy = self.runner.policy;
        // Re-query the forecast at this planning instant (only the
        // prediction-aware policies pay for it) and keep the predicted tasks
        // that publish inside the lookahead and are not already over.
        let phantoms: Vec<PredictedTaskInput> = if policy.uses_prediction() {
            let horizon = now + PREDICTION_LOOKAHEAD;
            self.forecast
                .forecast(now, PREDICTION_LOOKAHEAD)
                .iter()
                .filter(|p| {
                    p.publication.0 > now.0
                        && p.publication.0 <= horizon.0
                        && p.expiration.0 > now.0
                })
                .copied()
                .collect()
        } else {
            Vec::new()
        };
        if planning_workers.is_empty() {
            return;
        }
        // With no phantom to plan over — every instant of the policies that
        // do not predict, and of the others whenever the forecast is empty
        // or beyond the lookahead — the planner works straight on the live
        // store: the open ids are the candidates, they mean the same task at
        // every instant, which is what `Planner::plan_live` asks for and what
        // lets the reach layer carry lists over. A phantom has no id in the
        // live store, so an instant with one plans on a copy through a
        // context-free call, and maps the plan back.
        let copy = if phantoms.is_empty() {
            None
        } else {
            self.metrics.phantom_instants.inc();
            Some(build_planning_store(&self.tasks, open_tasks, &phantoms))
        };
        let runner = self.runner;
        // Construction invariant: a DataWa runner is only built via
        // with_tvf, which sets this.
        #[allow(clippy::expect_used)]
        let tvf = (policy == PolicyKind::DataWa).then(|| {
            runner
                .tvf
                .as_ref()
                .expect("PolicyKind::DataWa requires a trained TVF (use with_tvf)")
        });
        let workers = &self.workers;
        let (assignment, report) = match &copy {
            None => {
                self.planner
                    .plan_live(planning_workers, open_tasks, workers, &self.tasks, now, tvf)
            }
            Some((store, _)) => {
                let ids: Vec<TaskId> = store.ids().collect();
                match tvf {
                    Some(tvf) => {
                        self.planner
                            .plan_guided(planning_workers, &ids, workers, store, now, tvf)
                    }
                    None => self
                        .planner
                        .plan(planning_workers, &ids, workers, store, now),
                }
            }
        };
        self.record_report(&report);
        // What a task id of the plan stands for in the live world.
        let entry = |tid: TaskId| match &copy {
            None => PlanningEntry::Real(tid),
            Some((_, mapping)) => mapping[tid.index()],
        };
        // Apply. The plan lists a subset of the planning workers; a planning
        // worker it leaves out keeps nothing of its previous plan, and only
        // an armed one had anything to keep. So one merge-walk over the plan
        // and the armed list (both ascending) reaches every worker the apply
        // changes, and rebuilds the armed list on the way. Under FTA a worker
        // the plan leaves out keeps what it has.
        let adaptive = policy != PolicyKind::Fta;
        let previously_armed = std::mem::take(&mut self.armed);
        let mut armed = std::mem::take(&mut self.armed_spare);
        armed.clear();
        let mut planned = assignment.iter().peekable();
        let mut kept = previously_armed.iter().copied().peekable();
        loop {
            let wid = match (planned.peek().map(|&(w, _)| w), kept.peek()) {
                (None, None) => break,
                (Some(p), Some(&k)) => p.min(k),
                (Some(p), None) => p,
                (None, Some(&k)) => k,
            };
            kept.next_if_eq(&wid);
            let sequence = planned.next_if(|&(w, _)| w == wid).map(|(_, seq)| seq);
            debug_assert!(
                sequence.is_none() || planning_workers.binary_search(&wid).is_ok(),
                "the planner planned a worker it was not handed"
            );
            let lane = self.life.lanes[wid.index()];
            let runtime = &mut self.runtime[wid.index()];
            match sequence {
                // For an adaptive policy the planning workers are the idle
                // ones.
                None if adaptive && lane == Lane::Idle => {
                    runtime.plan = TaskSequence::empty();
                    runtime.hold_until = None;
                }
                None => {}
                Some(seq) if !adaptive => {
                    // Pin the fixed plan of a planned worker, skipping tasks
                    // already reserved by earlier fixed plans. A worker is
                    // only marked as "fixed" once it receives a non-empty
                    // sequence, matching the paper's notion that every
                    // worker gets exactly one predetermined sequence.
                    let mut fixed = TaskSequence::empty();
                    for tid in seq.iter() {
                        if let PlanningEntry::Real(real) = entry(tid) {
                            if self.reserved_by_fta.insert(real) {
                                fixed.push(real);
                            }
                        }
                    }
                    if !fixed.is_empty() {
                        runtime.plan = fixed;
                        runtime.fixed_assigned = true;
                    }
                }
                Some(seq) => {
                    // Refresh the persistent plan with the real tasks of the
                    // new sequence. Predicted tasks guide the search but
                    // cannot be dispatched — they are filtered out.
                    runtime.plan =
                        TaskSequence::from_ids(seq.iter().filter_map(|tid| match entry(tid) {
                            PlanningEntry::Real(real) => Some(real),
                            PlanningEntry::Predicted { .. } => None,
                        }));
                    // A *pure-phantom* plan reserves the worker for imminent
                    // demand at its position: it stays put until the first
                    // expected publication instead of being dispatched to
                    // whatever real task comes next. Plans containing any
                    // real task dispatch immediately — the weighted search
                    // already guarantees predicted demand never displaced
                    // real work in them.
                    runtime.hold_until = match seq.first().map(entry) {
                        Some(PlanningEntry::Predicted { publication })
                            if runtime.plan.is_empty() =>
                        {
                            Some(publication)
                        }
                        _ => None,
                    };
                }
            }
            if lane != Lane::Gone && runtime.is_armed() {
                armed.push(wid);
            }
        }
        self.armed = armed;
        self.armed_spare = previously_armed;
    }

    /// Folds one planning call's report into the run outcome and the
    /// metrics.
    fn record_report(&mut self, report: &PlanningReport) {
        self.outcome.planning_calls += 1;
        self.outcome.total_planning_seconds += report.elapsed_seconds;
        self.outcome.peak_partitions = self.outcome.peak_partitions.max(report.partitions);
        self.outcome.peak_partition_workers = self
            .outcome
            .peak_partition_workers
            .max(report.max_partition_workers);
        self.outcome.partitions_reused += report.partitions_reused;
        self.outcome.partitions_recomputed += report.partitions_recomputed;
        self.outcome.workers_rescanned += report.workers_rescanned;
        self.metrics
            .reach_rescans
            .add(report.workers_rescanned as u64);
        self.metrics.reach_live.set(report.reach_live as i64);
        self.metrics
            .partitions_reused
            .add(report.partitions_reused as u64);
        self.metrics
            .partitions_recomputed
            .add(report.partitions_recomputed as u64);
        let cumulative = self.outcome.partitions_reused + self.outcome.partitions_recomputed;
        if let Some(pct) = (100 * self.outcome.partitions_reused).checked_div(cumulative) {
            self.metrics.cache_hit_pct.set(pct as i64);
        }
        self.metrics
            .replan_seconds
            .record_seconds(report.elapsed_seconds);
        self.metrics.planning_calls.inc();
        self.metrics.search_nodes.add(report.nodes_expanded as u64);
        self.metrics.partitions.set(report.partitions as i64);
        self.metrics
            .partition_workers
            .set(report.max_partition_workers as i64);
        if self.metrics.forecast_observed.is_attached() {
            let stats = self.forecast.stats();
            self.metrics.forecast_observed.set(stats.observed as i64);
            self.metrics.forecast_queries.set(stats.queries as i64);
            self.metrics.forecast_refreshes.set(stats.refreshes as i64);
        }
    }

    /// Closes the run and returns the aggregated outcome.
    pub fn finish(self) -> RunOutcome {
        let mut outcome = self.outcome;
        outcome.forecast = self.forecast.stats();
        if self.metrics.forecast_observed.is_attached() {
            self.metrics
                .forecast_observed
                .set(outcome.forecast.observed as i64);
            self.metrics
                .forecast_queries
                .set(outcome.forecast.queries as i64);
            self.metrics
                .forecast_refreshes
                .set(outcome.forecast.refreshes as i64);
        }
        outcome.mean_planning_seconds = if outcome.planning_calls == 0 {
            0.0
        } else {
            outcome.total_planning_seconds / outcome.planning_calls as f64
        };
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forecast::StaticForecast;

    /// One arrival of a test stream.
    #[derive(Debug, Clone, Copy)]
    enum Arrival {
        Worker(Worker),
        Task(Task),
    }

    fn worker(x: f64, y: f64, on: f64, off: f64, d: f64) -> Arrival {
        Arrival::Worker(Worker::new(
            WorkerId(0),
            Location::new(x, y),
            d,
            Timestamp(on),
            Timestamp(off),
        ))
    }

    fn task(x: f64, y: f64, p: f64, e: f64) -> Arrival {
        Arrival::Task(Task::new(
            TaskId(0),
            Location::new(x, y),
            Timestamp(p),
            Timestamp(e),
        ))
    }

    /// A compact stream where a single worker can serve two nearby tasks.
    fn simple_stream() -> Vec<Arrival> {
        vec![
            worker(0.0, 0.0, 0.0, 100.0, 5.0),
            task(1.0, 0.0, 1.0, 50.0),
            task(2.0, 0.0, 2.0, 60.0),
        ]
    }

    fn runner(policy: PolicyKind) -> AdaptiveRunner {
        AdaptiveRunner::new(AssignConfig::unit_speed(), policy)
    }

    fn insert(state: &mut RunnerState<'_, impl ForecastProvider>, arrival: Arrival) {
        match arrival {
            Arrival::Worker(w) => {
                state.insert_worker(w);
            }
            Arrival::Task(t) => {
                state.insert_task(t);
            }
        }
    }

    /// Retires every worker not gone whose window has closed by `now`, as a
    /// session does when the worker's offline event fires.
    fn retire_closed(state: &mut RunnerState<'_, impl ForecastProvider>, now: Timestamp) {
        for slot in 0..state.runtime.len() {
            let id = WorkerId(slot as u32);
            if state.life.lanes[slot] != Lane::Gone && now.0 >= state.workers.get(id).off().0 {
                state.retire_worker(id, true);
            }
        }
    }

    /// Drives a time-ordered `stream` the way a session replanning at every
    /// arrival does: retire the closed windows, insert the arrival, step to
    /// its time.
    fn run(
        runner: &AdaptiveRunner,
        stream: &[Arrival],
        predicted: &[PredictedTaskInput],
    ) -> RunOutcome {
        let mut forecast = StaticForecast::from_slice(predicted);
        let mut state = runner.start(&mut forecast);
        for &arrival in stream {
            let now = match arrival {
                Arrival::Worker(w) => w.on(),
                Arrival::Task(t) => t.publication,
            };
            retire_closed(&mut state, now);
            state.record_event();
            insert(&mut state, arrival);
            state.step(now, true);
        }
        state.finish()
    }

    #[test]
    fn greedy_serves_reachable_tasks() {
        let outcome = run(&runner(PolicyKind::Greedy), &simple_stream(), &[]);
        assert_eq!(outcome.assigned_tasks, 2);
        assert_eq!(outcome.events, 3);
        assert!(outcome.planning_calls > 0);
        assert!(outcome.mean_planning_seconds >= 0.0);
    }

    #[test]
    fn dta_serves_at_least_as_many_as_greedy_here() {
        let g = run(&runner(PolicyKind::Greedy), &simple_stream(), &[]);
        let d = run(&runner(PolicyKind::Dta), &simple_stream(), &[]);
        assert!(d.assigned_tasks >= g.assigned_tasks);
    }

    #[test]
    fn fta_pins_a_single_fixed_sequence_per_worker() {
        // The worker receives its fixed plan at the first instant tasks are
        // available and then serves them in order.
        let outcome = run(&runner(PolicyKind::Fta), &simple_stream(), &[]);
        assert!(outcome.assigned_tasks >= 1);
        // The fixed plan is never revised: a task published *after* the plan
        // was pinned (and not in it) is missed even though the worker could
        // reach it, which is exactly FTA's weakness versus DTA.
        let stream = vec![
            worker(0.0, 0.0, 0.0, 100.0, 5.0),
            task(1.0, 0.0, 1.0, 50.0),
            task(-1.0, 0.0, 30.0, 90.0),
        ];
        let fta = run(&runner(PolicyKind::Fta), &stream, &[]);
        let dta = run(&runner(PolicyKind::Dta), &stream, &[]);
        assert!(dta.assigned_tasks >= fta.assigned_tasks);
    }

    #[test]
    fn expired_tasks_are_never_served() {
        let stream = vec![
            worker(0.0, 0.0, 0.0, 100.0, 5.0),
            task(4.0, 0.0, 1.0, 2.0), // expires before the worker can arrive
        ];
        let outcome = run(&runner(PolicyKind::Dta), &stream, &[]);
        assert_eq!(outcome.assigned_tasks, 0);
    }

    #[test]
    fn workers_respect_their_availability_window() {
        let stream = vec![
            worker(0.0, 0.0, 0.0, 1.5, 5.0), // goes offline at t=1.5
            task(3.0, 0.0, 1.0, 50.0),       // 3 s away
        ];
        let outcome = run(&runner(PolicyKind::Dta), &stream, &[]);
        assert_eq!(outcome.assigned_tasks, 0);
    }

    #[test]
    fn prediction_lets_dta_tp_position_for_future_tasks() {
        // One worker, one real task to the east, and a predicted task further
        // east. Prediction does not change the count here (only one real task
        // exists), but the run must remain feasible and count only real tasks.
        let stream = vec![
            worker(0.0, 0.0, 0.0, 100.0, 10.0),
            task(1.0, 0.0, 1.0, 50.0),
        ];
        let predicted = vec![PredictedTaskInput {
            location: Location::new(2.0, 0.0),
            publication: Timestamp(5.0),
            expiration: Timestamp(80.0),
        }];
        let outcome = run(&runner(PolicyKind::DtaTp), &stream, &predicted);
        assert_eq!(outcome.assigned_tasks, 1, "only real tasks count");
    }

    #[test]
    fn data_wa_runs_with_a_trained_tvf() {
        let tvf = TaskValueFunction::new(8, 0);
        let r = runner(PolicyKind::DataWa).with_tvf(tvf);
        let outcome = run(&r, &simple_stream(), &[]);
        // Even an untrained TVF must yield a feasible (if suboptimal) run.
        assert!(outcome.assigned_tasks <= 2);
        assert!(outcome.planning_calls > 0);
    }

    #[test]
    #[should_panic(expected = "requires a trained TVF")]
    fn data_wa_without_tvf_panics() {
        let _ = run(&runner(PolicyKind::DataWa), &simple_stream(), &[]);
    }

    /// A forecast that predicts `0` at its first query and nothing after.
    struct Once(Vec<PredictedTaskInput>, usize);

    impl ForecastProvider for Once {
        fn name(&self) -> &str {
            "once"
        }
        fn observe(&mut self, _now: Timestamp, _task: &Task) {}
        fn forecast(&mut self, _now: Timestamp, _horizon: Duration) -> &[PredictedTaskInput] {
            self.1 += 1;
            if self.1 == 1 {
                &self.0
            } else {
                &[]
            }
        }
        fn stats(&self) -> ForecastStats {
            ForecastStats::default()
        }
    }

    /// The merge-walk clears what it does not overwrite: a worker holding
    /// position for a predicted task at instant k, and absent from the
    /// assignment at k+1 (the prediction is gone and it reaches nothing
    /// real), is released from the hold there and then.
    #[test]
    fn a_worker_the_next_plan_leaves_out_loses_its_hold() {
        let runner = runner(PolicyKind::DtaTp);
        let mut forecast = Once(
            vec![PredictedTaskInput {
                location: Location::new(1.0, 0.0),
                publication: Timestamp(50.0),
                expiration: Timestamp(90.0),
            }],
            0,
        );
        let mut state = runner.start(&mut forecast);
        insert(&mut state, worker(0.0, 0.0, 0.0, 1000.0, 5.0));
        // Planning needs an open task; this one is out of everyone's reach.
        insert(&mut state, task(500.0, 500.0, 0.0, 1000.0));
        state.step(Timestamp(10.0), true);
        assert_eq!(state.runtime[0].hold_until, Some(Timestamp(50.0)));
        assert!(state.runtime[0].plan.is_empty(), "a pure-phantom plan");
        state.step(Timestamp(20.0), true);
        assert_eq!(state.runtime[0].hold_until, None);
        assert_eq!(state.assigned_so_far(), 0);
    }

    /// Same for the plan itself: worker 0 is planned `[a, b]` at instant k
    /// and departs for `a`; back at k+1 it shares `b` with a newcomer, the
    /// search gives `b` to the newcomer and leaves worker 0 out of the
    /// assignment — and worker 0, dispatched first, must not fall back on
    /// the `b` of its previous plan.
    #[test]
    fn a_worker_the_next_plan_leaves_out_loses_its_plan() {
        let runner = runner(PolicyKind::Dta);
        let mut forecast = StaticForecast::default();
        let mut state = runner.start(&mut forecast);
        insert(&mut state, worker(0.0, 0.0, 0.0, 1000.0, 5.0));
        insert(&mut state, task(1.0, 0.0, 0.0, 1000.0)); // a
        insert(&mut state, task(2.0, 0.0, 0.0, 1000.0)); // b
        state.step(Timestamp(10.0), true);
        assert_eq!(
            state.runtime[0].plan.tasks(),
            &[TaskId(1)],
            "a left, b kept"
        );
        assert_eq!(state.take_dispatches().len(), 1);
        insert(&mut state, worker(2.5, 0.0, 12.0, 1000.0, 5.0));
        state.step(Timestamp(12.0), true);
        assert!(state.runtime[0].plan.is_empty());
        let dispatches = state.take_dispatches();
        assert_eq!(dispatches.len(), 1);
        assert_eq!(
            (dispatches[0].worker, dispatches[0].task),
            (WorkerId(1), TaskId(1))
        );
    }

    /// `build_planning_store` is reached exactly at the planning instants
    /// with a predicted task inside the lookahead; every other instant plans
    /// on the live store.
    #[test]
    fn only_phantom_instants_copy_the_open_tasks() {
        let stream = vec![
            worker(0.0, 0.0, 0.0, 1000.0, 5.0),
            task(1.0, 0.0, 1.0, 500.0),
            task(400.0, 0.0, 100.0, 500.0),
            task(400.0, 0.0, 200.0, 500.0),
        ];
        // In the lookahead (60 s) of the second planning instant (t = 100)
        // only: not yet at t = 1, already published at t = 200.
        let predicted = [PredictedTaskInput {
            location: Location::new(300.0, 0.0),
            publication: Timestamp(150.0),
            expiration: Timestamp(400.0),
        }];
        let phantom_instants = |policy: PolicyKind| {
            let registry = MetricsRegistry::new();
            let runner = runner(policy).with_metrics(registry.clone());
            let outcome = run(&runner, &stream, &predicted);
            assert_eq!(outcome.planning_calls, 3);
            registry.snapshot().counters["assign.phantom_instants"]
        };
        assert_eq!(phantom_instants(PolicyKind::DtaTp), 1);
        assert_eq!(phantom_instants(PolicyKind::Dta), 0);
        assert_eq!(phantom_instants(PolicyKind::Greedy), 0);
    }

    /// The lifecycle edges a run of [`random_lifecycle`] went through.
    #[derive(Debug, Default)]
    struct Edges {
        before_window: usize,
        endless_window: usize,
        zero_travel: usize,
        released: usize,
        kept: usize,
        repeated_now: usize,
        earlier_now: usize,
    }

    /// One random lifecycle: workers and tasks on a small integer grid (so
    /// some dispatches travel nowhere), windows opening in the future or
    /// never closing, retirements with and without release, expirations,
    /// and steps that repeat or go back in time. Before every step the
    /// windows closed by `now` are retired, and the maintained idle list
    /// must equal the rule the available-worker view applied — in the view
    /// (inserted, not retired), inside the window at `now`,
    /// `busy_until <= now` — and `available_candidates()` the view's size. After every step the
    /// armed list must hold every live worker with a plan or a hold.
    fn random_lifecycle(policy: PolicyKind, seed: u64, edges: &mut Edges) {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        use std::collections::BTreeSet;

        let mut rng = StdRng::seed_from_u64(seed);
        let runner = runner(policy);
        let mut forecast = StaticForecast::default();
        let mut state = runner.start(&mut forecast);
        let mut view: BTreeSet<WorkerId> = BTreeSet::new();
        let mut tasks: Vec<TaskId> = Vec::new();
        let mut clock = 0.0f64;
        let mut last_now = f64::NEG_INFINITY;
        let spot = |rng: &mut StdRng| {
            Location::new(rng.gen_range(0..4) as f64, rng.gen_range(0..4) as f64)
        };
        for _ in 0..80 {
            match rng.gen_range(0..10) {
                0..=2 => {
                    let on = if rng.gen_f64() < 0.3 {
                        edges.before_window += 1;
                        clock + rng.gen_range(1.0..15.0)
                    } else {
                        clock
                    };
                    let off = if rng.gen_f64() < 0.15 {
                        edges.endless_window += 1;
                        f64::INFINITY
                    } else {
                        on + rng.gen_range(1.0..40.0)
                    };
                    let w = Worker::new(
                        WorkerId(0),
                        spot(&mut rng),
                        4.0,
                        Timestamp(on),
                        Timestamp(off),
                    );
                    view.insert(state.insert_worker(w));
                }
                3..=6 => {
                    let e = clock + rng.gen_range(2.0..30.0);
                    let t = Task::new(TaskId(0), spot(&mut rng), Timestamp(clock), Timestamp(e));
                    tasks.push(state.insert_task(t));
                }
                7 if !state.runtime.is_empty() => {
                    let wid = WorkerId(rng.gen_range(0..state.runtime.len() as u32));
                    let release = rng.gen_f64() < 0.5;
                    if release {
                        edges.released += 1;
                    } else {
                        edges.kept += 1;
                    }
                    state.retire_worker(wid, release);
                    view.remove(&wid);
                }
                8 if !tasks.is_empty() => {
                    let tid = tasks[rng.gen_range(0..tasks.len())];
                    state.expire_task(tid);
                }
                _ => {}
            }
            let now = match rng.gen_range(0..10) {
                0 | 1 => clock,
                2 if clock > 0.0 => clock - rng.gen_range(0.5..10.0),
                _ => {
                    clock += rng.gen_range(0.1..4.0);
                    clock
                }
            };
            if now == last_now {
                edges.repeated_now += 1;
            } else if now < last_now {
                edges.earlier_now += 1;
            }
            last_now = now;
            let now = Timestamp(now);

            // Closed windows are retired before the step, as a session does
            // when the offline events fire, and leave the reference view.
            retire_closed(&mut state, now);
            view.retain(|&w| now.0 < state.workers.get(w).off().0);
            let expected: Vec<WorkerId> = view
                .iter()
                .copied()
                .filter(|&w| {
                    let worker = state.workers.get(w);
                    worker.mode == WorkerMode::Online
                        && worker.window.contains(now)
                        && state.runtime[w.index()].busy_until.0 <= now.0
                })
                .collect();
            state.life.advance(now, &state.workers, &state.runtime);
            assert_eq!(
                state.life.idle, expected,
                "idle list at {now:?} ({policy:?}, seed {seed})"
            );
            assert_eq!(state.available_candidates(), view.len());

            state.step(now, rng.gen_f64() < 0.6);
            edges.zero_travel += state
                .take_dispatches()
                .iter()
                .filter(|d| d.eta == d.decided_at)
                .count();
            assert!(state.armed.windows(2).all(|p| p[0] < p[1]));
            for (slot, runtime) in state.runtime.iter().enumerate() {
                if runtime.is_armed() && state.life.lanes[slot] != Lane::Gone {
                    assert!(
                        state.armed.binary_search(&WorkerId(slot as u32)).is_ok(),
                        "worker {slot} holds a plan but is not armed"
                    );
                }
            }
        }
    }

    #[test]
    fn the_idle_list_kept_by_events_is_the_available_view_rule() {
        let mut edges = Edges::default();
        for policy in [PolicyKind::Dta, PolicyKind::Fta, PolicyKind::Greedy] {
            for seed in 0..40 {
                random_lifecycle(policy, seed, &mut edges);
            }
        }
        assert!(edges.before_window > 0, "{edges:?}");
        assert!(edges.endless_window > 0, "{edges:?}");
        assert!(edges.zero_travel > 0, "{edges:?}");
        assert!(edges.released > 0 && edges.kept > 0, "{edges:?}");
        assert!(edges.repeated_now > 0, "{edges:?}");
        assert!(edges.earlier_now > 0, "{edges:?}");
    }

    /// A zero-travel dispatch leaves the worker busy until `now`: it is out
    /// of the idle list for the rest of the step and back at the next step
    /// at the same `now`.
    #[test]
    fn a_zero_travel_dispatch_is_idle_again_at_the_same_now() {
        let runner = runner(PolicyKind::Dta);
        let mut forecast = StaticForecast::default();
        let mut state = runner.start(&mut forecast);
        insert(&mut state, worker(1.0, 1.0, 0.0, 100.0, 5.0));
        insert(&mut state, task(1.0, 1.0, 0.0, 50.0));
        state.step(Timestamp(3.0), true);
        let dispatched = state.take_dispatches();
        assert_eq!(dispatched.len(), 1);
        assert_eq!(dispatched[0].eta, Timestamp(3.0));
        assert!(state.life.idle.is_empty());
        state
            .life
            .advance(Timestamp(3.0), &state.workers, &state.runtime);
        assert_eq!(state.life.idle, vec![WorkerId(0)]);
    }

    /// Dispatch visits the armed workers only: none once every plan has been
    /// dispatched, however many workers are idle.
    #[test]
    fn dispatch_visits_only_armed_workers() {
        let registry = MetricsRegistry::new();
        let runner = runner(PolicyKind::Dta).with_metrics(registry.clone());
        let mut forecast = StaticForecast::default();
        let mut state = runner.start(&mut forecast);
        for x in 0..50 {
            insert(&mut state, worker(100.0 * x as f64, 0.0, 0.0, 1000.0, 5.0));
        }
        insert(&mut state, task(1.0, 0.0, 0.0, 500.0));
        state.step(Timestamp(1.0), true);
        assert_eq!(state.life.idle.len(), 49, "one of fifty departed");
        assert!(state.armed.is_empty());
        let visits = || registry.snapshot().counters["assign.dispatch_visits"];
        let after_plan = visits();
        assert_eq!(after_plan, 1, "the one planned worker");
        state.step(Timestamp(2.0), false);
        state.step(Timestamp(3.0), true);
        assert_eq!(visits(), after_plan);
    }

    #[test]
    fn policy_kind_metadata() {
        assert_eq!(PolicyKind::all().len(), 5);
        assert!(PolicyKind::DataWa.uses_prediction());
        assert!(!PolicyKind::Dta.uses_prediction());
        assert_eq!(PolicyKind::DtaTp.name(), "DTA+TP");
    }
}
