//! One-off probes of the traced run: the planner's stages at evenly spaced
//! instants of the trace, the journal scan, and one session at two planner
//! threads. Each is timed by the harness around public calls.

use crate::load::{assign_config, SessionLoad, WorkloadPlan};
use crate::session::run_session;
use crate::trace::Tracer;
use datawa_assign::{
    build_worker_dependency_graph, generate_sequences, reachable_tasks, AdaptiveRunner,
    AssignConfig, Planner, PolicyKind, SearchMode, StaticForecast,
};
use datawa_core::{TaskStore, Timestamp, WorkerStore};
use datawa_graph::ClusterTree;
use datawa_stream::{Event, EventJournal};
use std::time::Instant;

/// Mean cost of each planning stage per probed instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlannerProbe {
    pub plan_us: f64,
    pub search_nodes: f64,
    pub reachable_us: f64,
    pub sequences_us: f64,
    pub cluster_tree_us: f64,
}

/// Plans from scratch at `instants` evenly spaced instants of `load`, over
/// every worker available and every task open at that instant (nothing is
/// marked served, so an instant is at least as heavy as a live one), with the
/// search the workload's policy uses. The stages the planner runs inside
/// `plan` — reachable sets, candidate sequences, the cluster tree — are also
/// timed on their own through their public entry points.
pub fn planner(
    load: &SessionLoad,
    runner: &AdaptiveRunner,
    instants: usize,
    tracer: &Tracer,
) -> PlannerProbe {
    let workers = WorkerStore::from_workers(load.arrivals.iter().filter_map(|(_, e)| match e {
        Event::WorkerOnline(w) => Some(*w),
        _ => None,
    }));
    let tasks = TaskStore::from_tasks(load.tasks.iter().copied());
    let config = runner.config;
    let mode = match runner.policy {
        PolicyKind::Greedy => SearchMode::Greedy,
        _ => SearchMode::Exact,
    };
    let mut planner = Planner::new(config, mode);
    let mut probe = PlannerProbe::default();
    let us = |ns: u64| ns as f64 / 1e3;
    tracer.enter("probe.planner");
    for i in 0..instants {
        let now = Timestamp(load.horizon * (i as f64 + 0.5) / instants as f64);
        let worker_ids = workers.available_at(now);
        let task_ids = tasks.open_at(now);

        tracer.enter("probe.reachable");
        let reachable = reachable_tasks(&worker_ids, &task_ids, &workers, &tasks, &config, now);
        probe.reachable_us += us(tracer.exit());

        tracer.enter("probe.sequences");
        for &w in &worker_ids {
            std::hint::black_box(generate_sequences(
                workers.get(w),
                reachable.of(w),
                &tasks,
                &config,
                now,
            ));
        }
        probe.sequences_us += us(tracer.exit());

        let (graph, _) = build_worker_dependency_graph(&worker_ids, &reachable);
        tracer.enter("probe.cluster_tree");
        std::hint::black_box(ClusterTree::build(&graph));
        probe.cluster_tree_us += us(tracer.exit());

        tracer.enter("probe.plan");
        let (assignment, report) = match &runner.tvf {
            // DATA-WA plans through the TVF-guided search.
            Some(tvf) => planner.plan_guided(&worker_ids, &task_ids, &workers, &tasks, now, tvf),
            None => planner.plan(&worker_ids, &task_ids, &workers, &tasks, now),
        };
        probe.plan_us += us(tracer.exit());
        std::hint::black_box(assignment);
        probe.search_nodes += report.nodes_expanded as f64;
    }
    tracer.exit();
    let n = instants.max(1) as f64;
    PlannerProbe {
        plan_us: probe.plan_us / n,
        search_nodes: probe.search_nodes / n,
        reachable_us: probe.reachable_us / n,
        sequences_us: probe.sequences_us / n,
        cluster_tree_us: probe.cluster_tree_us / n,
    }
}

/// Time to decode a journal's records, per record.
pub fn journal_scan_ns_per_record(journal: &EventJournal) -> f64 {
    let bytes = journal
        .snapshot_bytes()
        .expect("in-memory journals cannot fail to read");
    let copy = EventJournal::from_bytes(bytes);
    let started = Instant::now();
    let records = copy
        .recovered_records()
        .expect("a journal written through a session decodes");
    let ns = started.elapsed().as_nanos() as f64;
    ns / records.len().max(1) as f64
}

/// Summed wall of one untraced round of `plan` with the planner pool at
/// `threads`.
pub fn round_wall_s_at_threads(plan: &WorkloadPlan, threads: usize, tracer: &Tracer) -> f64 {
    let runner = AdaptiveRunner::new(
        AssignConfig {
            threads,
            ..assign_config()
        },
        plan.policy,
    );
    tracer.enter("probe.threads");
    let wall_ns: u64 = plan
        .sessions
        .iter()
        .map(|load| {
            let mut forecast = StaticForecast::default();
            run_session(&runner, &mut forecast, plan.engine, load, None).wall_ns
        })
        .sum();
    tracer.exit();
    wall_ns as f64 / 1e9
}
