//! The adaptive streaming algorithm (Algorithm 3) and the five evaluated
//! assignment policies (§V-B.2).
//!
//! The runner consumes a time-ordered stream of worker and task arrivals,
//! re-plans according to the selected policy, dispatches the first task of
//! each idle worker's planned sequence, and tracks the two metrics the paper
//! reports: the total number of assigned tasks and the CPU time spent planning
//! at each time instance.

use crate::cache::{DirtySet, IncrementalContext};
use crate::config::AssignConfig;
use crate::forecast::{ForecastProvider, ForecastStats, StaticForecast};
use crate::planner::{Planner, PlanningReport, SearchMode};
use crate::tvf::{TaskValueFunction, TvfInference};
use datawa_core::{
    AvailableWorkerView, Duration, Location, OpenTaskView, Task, TaskId, TaskSequence, TaskStore,
    Timestamp, Worker, WorkerId, WorkerMode, WorkerStore,
};
use datawa_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use std::collections::{HashMap, HashSet};

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

    /// Whether the policy re-plans at every time instance (as opposed to
    /// fixing each worker's sequence on arrival).
    pub fn replans(&self) -> bool {
        !matches!(self, PolicyKind::Fta)
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

/// One arrival in the input stream.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalEvent {
    /// A worker comes online.
    Worker(Worker),
    /// A task is published.
    Task(Task),
}

impl ArrivalEvent {
    /// The time at which the arrival happens (worker online time or task
    /// publication time).
    pub fn time(&self) -> Timestamp {
        match self {
            ArrivalEvent::Worker(w) => w.on(),
            ArrivalEvent::Task(t) => t.publication,
        }
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
    pub per_worker: HashMap<WorkerId, usize>,
    /// Largest number of independent planning partitions any single planning
    /// instant split into.
    pub peak_partitions: usize,
    /// Workers in the largest partition observed across all instants.
    pub peak_partition_workers: usize,
    /// Activity counters of the run's [`ForecastProvider`] (observations,
    /// forecast queries, model refreshes).
    pub forecast: ForecastStats,
    /// Listed workers the exact search's incremental route dropped for
    /// reaching nothing, summed over the whole run
    /// ([`PlanningReport::partitions_reused`](crate::PlanningReport) — the
    /// name is historical, no plan is ever reused). Zero when incremental
    /// replanning is off or inapplicable.
    pub partitions_reused: usize,
    /// Planning partitions searched, summed over the whole run: every
    /// partition of every instant.
    pub partitions_recomputed: usize,
    /// Workers whose reachable list was re-derived by a scan of the open
    /// tasks, summed over the whole run
    /// ([`PlanningReport::workers_rescanned`](crate::PlanningReport)). With
    /// incremental replanning off — or a phantom in the planning store —
    /// an instant rescans every worker it lists.
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
    /// How far ahead of `now` predicted tasks are allowed to influence
    /// planning.
    pub prediction_lookahead: Duration,
    /// Re-plan every `replan_every` events (1 = every event, the paper's
    /// setting; larger values trade assignment quality for speed on large
    /// traces).
    pub replan_every: usize,
    /// Observability registry every run state records into. Defaults to
    /// [`MetricsRegistry::from_env`] (`DATAWA_OBS=on` attaches it, anything
    /// else leaves it detached and every recording a no-op); override with
    /// [`AdaptiveRunner::with_metrics`]. Private so the field cannot bypass
    /// the construction path — use [`AdaptiveRunner::metrics`] to read it.
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
    /// `assign.dirty_fraction_pct`: per-instant `recomputed / (reused +
    /// recomputed)` (0–100) — searched partitions against inert workers.
    dirty_fraction_pct: Histogram,
    /// `assign.phantom_instants`: planning instants at which a predicted
    /// task fell inside the lookahead, so the open tasks were copied into a
    /// planning store of their own and planned context-free. Every other
    /// instant plans straight on the live store.
    phantom_instants: Counter,
    /// `assign.reach_rescans`: workers whose reachable list was re-derived
    /// by a scan of the open tasks (the rest were carried over verified, or
    /// never looked at).
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
            partitions: registry.gauge("assign.partitions"),
            partition_workers: registry.gauge("assign.partition_workers"),
            open_tasks: registry.gauge("assign.open_tasks"),
            available_workers: registry.gauge("assign.available_workers"),
            partitions_reused: registry.counter("assign.partitions_reused"),
            partitions_recomputed: registry.counter("assign.partitions_recomputed"),
            cache_hit_pct: registry.gauge("assign.cache_hit_pct"),
            dirty_fraction_pct: registry.histogram("assign.dirty_fraction_pct"),
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
            prediction_lookahead: Duration::from_secs(60.0),
            replan_every: 1,
            obs: MetricsRegistry::from_env(),
        }
    }

    /// Attaches a trained TVF (required for DATA-WA); the runner keeps a
    /// thread-safe inference snapshot of its weights.
    pub fn with_tvf(mut self, tvf: TaskValueFunction) -> AdaptiveRunner {
        self.tvf = Some(tvf.inference());
        self
    }

    /// Replaces the runner's observability registry (e.g. with
    /// [`MetricsRegistry::new`] to force metrics on regardless of
    /// `DATAWA_OBS`, or [`MetricsRegistry::detached`] to force them off).
    pub fn with_metrics(mut self, registry: MetricsRegistry) -> AdaptiveRunner {
        self.obs = registry;
        self
    }

    /// The runner's observability registry (detached unless `DATAWA_OBS=on`
    /// or [`AdaptiveRunner::with_metrics`] attached one). Drivers that layer
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

    /// Opens a stepwise run: the caller feeds arrivals and time instances
    /// itself (this is the entry point the `datawa-stream` discrete-event
    /// engine drives; [`AdaptiveRunner::run`] is a thin synchronous loop over
    /// the same state machine).
    ///
    /// `forecast` is the run's demand-prediction source: every inserted task
    /// is routed into it through [`ForecastProvider::observe`], and the
    /// prediction-aware policies re-query [`ForecastProvider::forecast`] at
    /// every planning instant. Wrap a precomputed slice in
    /// [`StaticForecast`] to reproduce the pre-redesign fixed-oracle
    /// behaviour bit for bit.
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
            available_view: AvailableWorkerView::new(),
            runtime: Vec::new(),
            served: HashSet::new(),
            reserved_by_fta: HashSet::new(),
            dispatch_log: Vec::new(),
            outcome: RunOutcome::default(),
            metrics: AssignMetrics::register(&self.obs),
            dirty: DirtySet::default(),
            idle_workers: Vec::new(),
            open_tasks: Vec::new(),
        }
    }

    /// Runs the policy over a time-ordered arrival stream (the legacy
    /// synchronous driver: one time instance per arrival).
    ///
    /// `predicted` holds the output of the demand-prediction component
    /// (wrapped in a [`StaticForecast`] internally); it is ignored by the
    /// policies that do not use prediction.
    pub fn run(&self, events: &[ArrivalEvent], predicted: &[PredictedTaskInput]) -> RunOutcome {
        let mut events: Vec<ArrivalEvent> = events.to_vec();
        events.sort_by(|a, b| datawa_core::time::cmp_timestamps(a.time(), b.time()));

        let mut forecast = StaticForecast::from_slice(predicted);
        let mut state = self.start(&mut forecast);
        for (event_index, event) in events.iter().enumerate() {
            let now = event.time();
            state.record_event();
            match event {
                ArrivalEvent::Worker(w) => {
                    state.insert_worker(*w);
                }
                ArrivalEvent::Task(t) => {
                    state.insert_task(*t);
                }
            }
            state.step(now, event_index % self.replan_every.max(1) == 0);
        }
        state.finish()
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

/// The live state of one streaming run, exposed stepwise so that external
/// drivers (the synchronous [`AdaptiveRunner::run`] loop and the
/// `datawa-stream` discrete-event engine) share one implementation of
/// Algorithm 3.
///
/// A driver feeds the state machine three kinds of inputs:
///
/// * **arrivals** — [`RunnerState::insert_worker`] / [`RunnerState::insert_task`];
/// * **retirements** — [`RunnerState::expire_task`] /
///   [`RunnerState::retire_worker`], which maintain the incremental open-task
///   and available-worker views in `O(log n)` (drivers without such events may
///   skip them: the views also prune lazily);
/// * **time instances** — [`RunnerState::step`], which optionally re-plans
///   (the batched-replan entry point) and then dispatches idle workers.
pub struct RunnerState<'a, F: ForecastProvider + ?Sized = dyn ForecastProvider + 'a> {
    runner: &'a AdaptiveRunner,
    forecast: &'a mut F,
    planner: Planner,
    workers: WorkerStore,
    tasks: TaskStore,
    open_view: OpenTaskView,
    available_view: AvailableWorkerView,
    runtime: Vec<WorkerRuntime>,
    served: HashSet<TaskId>,
    reserved_by_fta: HashSet<TaskId>,
    dispatch_log: Vec<DispatchRecord>,
    outcome: RunOutcome,
    metrics: AssignMetrics,
    /// Events recorded since the last planning instant (see
    /// [`DirtySet`]): the diagnostic view of *why* the next incremental
    /// plan will recompute whatever it recomputes. Cleared after every
    /// planning call.
    dirty: DirtySet,
    /// Buffers [`RunnerState::step`] refills at every time instance: the
    /// idle available workers and the open tasks, both ascending.
    idle_workers: Vec<WorkerId>,
    open_tasks: Vec<TaskId>,
}

impl<F: ForecastProvider + ?Sized> RunnerState<'_, F> {
    /// Counts one arrival event in the outcome (drivers call this once per
    /// worker/task arrival so [`RunOutcome::events`] matches the legacy loop).
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

    /// Number of candidate available workers currently tracked by the
    /// incremental view.
    #[inline]
    pub fn available_candidates(&self) -> usize {
        self.available_view.len()
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

    /// Events recorded since the last planning instant (diagnostics; see
    /// [`DirtySet`]).
    #[inline]
    pub fn dirty_set(&self) -> &DirtySet {
        &self.dirty
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
        self.available_view.insert(id);
        self.dirty.note_worker_online(id);
        id
    }

    /// Inserts an arriving task and returns its dense id. The arrival is
    /// also routed into the run's [`ForecastProvider`] so an online
    /// forecaster's occurrence history tracks the live stream (a no-op
    /// beyond counting for [`StaticForecast`]).
    pub fn insert_task(&mut self, task: Task) -> TaskId {
        self.forecast.observe(task.publication, &task);
        let id = self.tasks.insert(task);
        self.open_view.insert(id);
        self.dirty.note_task_arrival(id);
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
        self.dirty.note_task_expiration(id);
        self.open_view.remove(id)
    }

    /// Takes a worker offline (`O(log n)` view update; called by event-driven
    /// drivers when the offline event fires).
    ///
    /// With `release_plan`, the worker's undone planned tasks are released:
    /// its remaining sequence is cleared and, under FTA, the tasks return to
    /// the unreserved pool so later fixed plans may claim them. The legacy
    /// synchronous driver never releases (FTA reservations are permanent
    /// there), which is why this is a flag and not the default behaviour of
    /// going offline.
    pub fn retire_worker(&mut self, id: WorkerId, release_plan: bool) {
        self.dirty.note_worker_offline(id);
        self.available_view.remove(id);
        self.workers.get_mut(id).mode = WorkerMode::Offline;
        if release_plan {
            let plan = std::mem::replace(&mut self.runtime[id.index()].plan, TaskSequence::empty());
            for tid in plan.iter() {
                self.reserved_by_fta.remove(&tid);
            }
        }
    }

    /// One time instance of Algorithm 3: plan (if the batching policy asks
    /// for it via `replan`, or unconditionally for FTA workers still waiting
    /// for their fixed sequence) and dispatch every idle worker to the first
    /// still-servable task of its plan.
    pub fn step(&mut self, now: Timestamp, replan: bool) {
        let policy = self.runner.policy;
        if replan {
            self.dirty.note_replan_tick();
        }

        // Idle, available workers at this instant (ascending id order, like
        // the full scans the incremental views replace).
        let mut idle_workers = std::mem::take(&mut self.idle_workers);
        self.available_view
            .available_at_into(&self.workers, now, &mut idle_workers);
        idle_workers.retain(|w| self.runtime[w.index()].busy_until.0 <= now.0);

        // Open, unserved real tasks (served tasks leave the view eagerly at
        // dispatch time, expired ones lazily here or eagerly via
        // `expire_task`).
        let mut open_tasks = std::mem::take(&mut self.open_tasks);
        self.open_view
            .open_at_into(&self.tasks, now, &mut open_tasks);

        self.metrics.open_tasks.set(open_tasks.len() as i64);
        self.metrics
            .available_workers
            .set(idle_workers.len() as i64);

        // Planning (Algorithm 3, lines 3–9). FTA plans only for workers that
        // have never received their fixed sequence; the adaptive policies
        // re-plan every idle worker when the driver's batching policy says
        // so.
        let unfixed_idle: Vec<WorkerId>;
        let planning_workers: &[WorkerId] = if policy == PolicyKind::Fta {
            unfixed_idle = idle_workers
                .iter()
                .copied()
                .filter(|w| !self.runtime[w.index()].fixed_assigned)
                .collect();
            &unfixed_idle
        } else {
            &idle_workers
        };
        let should_plan = match policy {
            PolicyKind::Fta => !planning_workers.is_empty(),
            _ => replan,
        };
        if should_plan && !open_tasks.is_empty() {
            self.plan_instant(now, planning_workers, &open_tasks);
        }

        // Dispatch (Algorithm 3, lines 10–14): every idle worker departs for
        // the first still-servable task of its current plan.
        for &wid in &idle_workers {
            // A positioning hold keeps the worker in place for imminent
            // predicted demand; it expires on its own at the expected
            // publication (the next planning instant then re-plans the
            // worker over whatever actually arrived).
            if let Some(hold) = self.runtime[wid.index()].hold_until {
                if now.0 < hold.0 {
                    continue;
                }
                self.runtime[wid.index()].hold_until = None;
            }
            // Drop plan entries that were served by someone else or have
            // already expired.
            let mut dispatch_target: Option<TaskId> = None;
            while let Some(candidate) = self.runtime[wid.index()].plan.first() {
                let task = self.tasks.get(candidate);
                if self.served.contains(&candidate) || task.is_expired_at(now) {
                    self.runtime[wid.index()].plan.pop_front();
                    continue;
                }
                dispatch_target = Some(candidate);
                break;
            }
            if let Some(tid) = dispatch_target {
                let task = *self.tasks.get(tid);
                let travel_time = {
                    let w = self.workers.get(wid);
                    self.runner
                        .config
                        .travel
                        .travel_time(&w.location, &task.location)
                };
                // The worker must still be able to reach it before expiry and
                // before going offline.
                let arrival = now + travel_time;
                let w = self.workers.get(wid);
                if arrival.0 < task.expiration.0 && arrival.0 < w.off().0 {
                    self.served.insert(tid);
                    self.open_view.remove(tid);
                    self.runtime[wid.index()].plan.pop_front();
                    self.outcome.assigned_tasks += 1;
                    *self.outcome.per_worker.entry(wid).or_insert(0) += 1;
                    self.runtime[wid.index()].busy_until = arrival;
                    self.workers.get_mut(wid).location = task.location;
                    self.dirty.note_task_served(tid);
                    self.dirty.note_worker_moved(wid);
                    self.metrics.dispatches.inc();
                    self.dispatch_log.push(DispatchRecord {
                        worker: wid,
                        task: tid,
                        decided_at: now,
                        eta: arrival,
                    });
                } else if policy != PolicyKind::Fta {
                    // An adaptive plan whose head became unreachable is stale;
                    // drop the head so the next planning instant can replace
                    // it. FTA keeps its fixed sequence.
                    self.runtime[wid.index()].plan.pop_front();
                }
            }
        }
        self.idle_workers = idle_workers;
        self.open_tasks = open_tasks;
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
            let lookahead = self.runner.prediction_lookahead;
            let horizon = now + lookahead;
            self.forecast
                .forecast(now, lookahead)
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
        self.dirty
            .note_forecast_epoch(self.forecast.stats().refreshes as u64);
        // With no phantom to plan over — every instant of the policies that
        // do not predict, and of the others whenever the forecast is empty
        // or beyond the lookahead — the planner works straight on the live
        // store: the open ids are the candidates, they mean the same task at
        // every instant, and that is what lets the reach layer carry lists
        // over (`open_at` lists them ascending, as the context promises). A
        // phantom has no id in the live store, so an instant with one plans
        // on a copy, context-free, and maps the plan back.
        let copy = if phantoms.is_empty() {
            None
        } else {
            self.metrics.phantom_instants.inc();
            Some(build_planning_store(&self.tasks, open_tasks, &phantoms))
        };
        let copied_ids: Vec<TaskId>;
        let (store, candidates, ctx) = match &copy {
            None => (&self.tasks, open_tasks, Some(IncrementalContext)),
            Some((store, _)) => {
                copied_ids = store.ids().collect();
                (store, copied_ids.as_slice(), None)
            }
        };
        let (assignment, report) = if policy == PolicyKind::DataWa {
            let tvf = self
                .runner
                .tvf
                .as_ref()
                // datawa-lint: allow(unwrap-in-hot-path) -- construction invariant: a DataWa runner is only built via with_tvf, which sets this
                .expect("PolicyKind::DataWa requires a trained TVF (use with_tvf)");
            self.planner.plan_guided_incremental(
                planning_workers,
                candidates,
                &self.workers,
                store,
                now,
                tvf,
                ctx,
            )
        } else {
            self.planner.plan_incremental(
                planning_workers,
                candidates,
                &self.workers,
                store,
                now,
                ctx,
            )
        };
        self.dirty.clear();
        self.record_report(&report);
        // What a task id of the plan stands for in the live world.
        let entry = |tid: TaskId| match &copy {
            None => PlanningEntry::Real(tid),
            Some((_, mapping)) => mapping[tid.index()],
        };
        // The plan lists a subset of the planning workers and both are
        // ascending: one walk pairs each worker with its sequence, if any.
        let mut planned = assignment.iter().peekable();
        for &wid in planning_workers {
            let sequence = planned.next_if(|&(w, _)| w == wid).map(|(_, seq)| seq);
            let runtime = &mut self.runtime[wid.index()];
            if policy == PolicyKind::Fta {
                // Pin the fixed plan of a planned worker, skipping tasks
                // already reserved by earlier fixed plans. A worker is only
                // marked as "fixed" once it receives a non-empty sequence,
                // matching the paper's notion that every worker gets exactly
                // one predetermined sequence.
                let Some(seq) = sequence else { continue };
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
                continue;
            }
            // Refresh the persistent plan of every planning worker with the
            // real tasks of its new sequence; a worker the plan leaves out
            // keeps nothing of its previous one. Predicted tasks guide the
            // search but cannot be dispatched — they are filtered out.
            let Some(seq) = sequence else {
                if !runtime.plan.is_empty() {
                    runtime.plan = TaskSequence::empty();
                }
                runtime.hold_until = None;
                continue;
            };
            runtime.plan = TaskSequence::from_ids(seq.iter().filter_map(|tid| match entry(tid) {
                PlanningEntry::Real(real) => Some(real),
                PlanningEntry::Predicted { .. } => None,
            }));
            // A *pure-phantom* plan reserves the worker for imminent demand
            // at its position: it stays put until the first expected
            // publication instead of being dispatched to whatever real task
            // comes next. Plans containing any real task dispatch
            // immediately — the weighted search already guarantees predicted
            // demand never displaced real work in them.
            runtime.hold_until = match seq.first().map(entry) {
                Some(PlanningEntry::Predicted { publication }) if runtime.plan.is_empty() => {
                    Some(publication)
                }
                _ => None,
            };
        }
        debug_assert!(
            planned.peek().is_none(),
            "the planner planned a worker it was not handed, or out of order"
        );
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
        let instant_total = report.partitions_reused + report.partitions_recomputed;
        if let Some(pct) = (100 * report.partitions_recomputed).checked_div(instant_total) {
            self.metrics.dirty_fraction_pct.record(pct as u64);
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

    fn worker(x: f64, y: f64, on: f64, off: f64, d: f64) -> ArrivalEvent {
        ArrivalEvent::Worker(Worker::new(
            WorkerId(0),
            Location::new(x, y),
            d,
            Timestamp(on),
            Timestamp(off),
        ))
    }

    fn task(x: f64, y: f64, p: f64, e: f64) -> ArrivalEvent {
        ArrivalEvent::Task(Task::new(
            TaskId(0),
            Location::new(x, y),
            Timestamp(p),
            Timestamp(e),
        ))
    }

    /// A compact stream where a single worker can serve two nearby tasks.
    fn simple_stream() -> Vec<ArrivalEvent> {
        vec![
            worker(0.0, 0.0, 0.0, 100.0, 5.0),
            task(1.0, 0.0, 1.0, 50.0),
            task(2.0, 0.0, 2.0, 60.0),
        ]
    }

    fn runner(policy: PolicyKind) -> AdaptiveRunner {
        AdaptiveRunner::new(AssignConfig::unit_speed(), policy)
    }

    #[test]
    fn greedy_serves_reachable_tasks() {
        let outcome = runner(PolicyKind::Greedy).run(&simple_stream(), &[]);
        assert_eq!(outcome.assigned_tasks, 2);
        assert_eq!(outcome.events, 3);
        assert!(outcome.planning_calls > 0);
        assert!(outcome.mean_planning_seconds >= 0.0);
    }

    #[test]
    fn dta_serves_at_least_as_many_as_greedy_here() {
        let g = runner(PolicyKind::Greedy).run(&simple_stream(), &[]);
        let d = runner(PolicyKind::Dta).run(&simple_stream(), &[]);
        assert!(d.assigned_tasks >= g.assigned_tasks);
    }

    #[test]
    fn fta_pins_a_single_fixed_sequence_per_worker() {
        // The worker receives its fixed plan at the first instant tasks are
        // available and then serves them in order.
        let outcome = runner(PolicyKind::Fta).run(&simple_stream(), &[]);
        assert!(outcome.assigned_tasks >= 1);
        // The fixed plan is never revised: a task published *after* the plan
        // was pinned (and not in it) is missed even though the worker could
        // reach it, which is exactly FTA's weakness versus DTA.
        let stream = vec![
            worker(0.0, 0.0, 0.0, 100.0, 5.0),
            task(1.0, 0.0, 1.0, 50.0),
            task(-1.0, 0.0, 30.0, 90.0),
        ];
        let fta = runner(PolicyKind::Fta).run(&stream, &[]);
        let dta = runner(PolicyKind::Dta).run(&stream, &[]);
        assert!(dta.assigned_tasks >= fta.assigned_tasks);
    }

    #[test]
    fn expired_tasks_are_never_served() {
        let stream = vec![
            worker(0.0, 0.0, 0.0, 100.0, 5.0),
            task(4.0, 0.0, 1.0, 2.0), // expires before the worker can arrive
        ];
        let outcome = runner(PolicyKind::Dta).run(&stream, &[]);
        assert_eq!(outcome.assigned_tasks, 0);
    }

    #[test]
    fn workers_respect_their_availability_window() {
        let stream = vec![
            worker(0.0, 0.0, 0.0, 1.5, 5.0), // goes offline at t=1.5
            task(3.0, 0.0, 1.0, 50.0),       // 3 s away
        ];
        let outcome = runner(PolicyKind::Dta).run(&stream, &[]);
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
        let outcome = runner(PolicyKind::DtaTp).run(&stream, &predicted);
        assert_eq!(outcome.assigned_tasks, 1, "only real tasks count");
    }

    #[test]
    fn data_wa_runs_with_a_trained_tvf() {
        let tvf = TaskValueFunction::new(8, 0);
        let r = runner(PolicyKind::DataWa).with_tvf(tvf);
        let outcome = r.run(&simple_stream(), &[]);
        // Even an untrained TVF must yield a feasible (if suboptimal) run.
        assert!(outcome.assigned_tasks <= 2);
        assert!(outcome.planning_calls > 0);
    }

    #[test]
    #[should_panic(expected = "requires a trained TVF")]
    fn data_wa_without_tvf_panics() {
        let _ = runner(PolicyKind::DataWa).run(&simple_stream(), &[]);
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

    fn insert(state: &mut RunnerState<'_, impl ForecastProvider>, event: ArrivalEvent) {
        match event {
            ArrivalEvent::Worker(w) => {
                state.insert_worker(w);
            }
            ArrivalEvent::Task(t) => {
                state.insert_task(t);
            }
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
            let outcome = runner(policy)
                .with_metrics(registry.clone())
                .run(&stream, &predicted);
            assert_eq!(outcome.planning_calls, 3);
            registry.snapshot().counters["assign.phantom_instants"]
        };
        assert_eq!(phantom_instants(PolicyKind::DtaTp), 1);
        assert_eq!(phantom_instants(PolicyKind::Dta), 0);
        assert_eq!(phantom_instants(PolicyKind::Greedy), 0);
    }

    #[test]
    fn policy_kind_metadata() {
        assert_eq!(PolicyKind::all().len(), 5);
        assert!(PolicyKind::DataWa.uses_prediction());
        assert!(!PolicyKind::Dta.uses_prediction());
        assert!(!PolicyKind::Fta.replans());
        assert!(PolicyKind::Greedy.replans());
        assert_eq!(PolicyKind::DtaTp.name(), "DTA+TP");
    }
}
