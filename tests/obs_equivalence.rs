//! The zero-overhead contract of the observability layer: attaching a
//! metrics registry must not change a single decision. Runs with metrics on
//! are pinned bitwise against runs with metrics off, for every policy
//! family, through both the batch driver and the live session path — and the
//! attached run must actually have recorded something, so the pin is not
//! vacuous.

use datawa::prelude::*;

fn runner(policy: PolicyKind, registry: MetricsRegistry) -> AdaptiveRunner {
    let r = AdaptiveRunner::new(AssignConfig::default(), policy);
    let r = if policy == PolicyKind::DataWa {
        // Identical (seeded) TVF on both sides keeps the comparison exact.
        r.with_tvf(TaskValueFunction::new(8, 7))
    } else {
        r
    };
    r.with_metrics(registry)
}

const POLICIES: [PolicyKind; 4] = [
    PolicyKind::Greedy,
    PolicyKind::Fta,
    PolicyKind::Dta,
    PolicyKind::DataWa,
];

/// Batch driver: metrics-on equals metrics-off bitwise on every policy,
/// across every engine counter.
#[test]
fn batch_run_is_bitwise_identical_with_metrics_attached() {
    let spec = ScenarioSpec::small().with_tasks(150).with_workers(12);
    let workload = UniformBaseline::new(spec).generate();
    for policy in POLICIES {
        let observed = MetricsRegistry::new();
        let on = runner(policy, observed.clone());
        let off = runner(policy, MetricsRegistry::detached());
        assert!(
            !AdaptiveRunner::new(AssignConfig::default(), policy)
                .metrics()
                .is_attached(),
            "a runner records nowhere until a registry is passed in"
        );
        let config = EngineConfig::batched(8);
        let with_metrics = run_workload(&on, &workload, &mut StaticForecast::default(), config);
        let without = run_workload(&off, &workload, &mut StaticForecast::default(), config);

        let label = policy.name();
        assert_eq!(
            with_metrics.run.assigned_tasks, without.run.assigned_tasks,
            "{label}: assigned totals diverged"
        );
        assert_eq!(
            with_metrics.run.per_worker, without.run.per_worker,
            "{label}: per-worker counts diverged"
        );
        assert_eq!(with_metrics.run.planning_calls, without.run.planning_calls);
        assert_eq!(with_metrics.run.events, without.run.events);
        assert_eq!(
            with_metrics.stats, without.stats,
            "{label}: engine counters"
        );

        // Not vacuous: the attached side recorded real measurements.
        let snapshot = observed.snapshot();
        assert_eq!(
            snapshot.counters.get("assign.planning_calls").copied(),
            Some(with_metrics.run.planning_calls as u64),
            "{label}: planning calls not mirrored into the registry"
        );
        let replans = snapshot
            .histograms
            .get("assign.replan_seconds")
            .expect("replan latency histogram registered");
        assert_eq!(replans.count as usize, with_metrics.run.planning_calls);
        // The planner's own stage timers hang off the same registry: every
        // planning call with a worker and a task to plan computes reachable
        // sets, and goes on to sequences and search only at the instants
        // some worker reaches something; the searches build a tree there,
        // the greedy baseline never does.
        let stage = |name: &str| {
            snapshot
                .histograms
                .get(&format!("assign.stage_ns.{name}"))
                .map_or(0, |h| h.count)
        };
        let [reach, sequences, tree, search] = ["reach", "sequences", "tree", "search"].map(stage);
        assert!(reach > 0, "{label}: no reach stage recorded");
        assert!(reach as usize <= with_metrics.run.planning_calls);
        assert_eq!(sequences, search, "{label}");
        assert!(search <= reach, "{label}");
        let trees = if policy == PolicyKind::Greedy {
            0
        } else {
            search
        };
        assert_eq!(tree, trees, "{label}");
    }
}

/// Live session path: the stream-layer metrics are also decision-neutral.
#[test]
fn session_run_is_bitwise_identical_with_metrics_attached() {
    let spec = ScenarioSpec::small().with_tasks(150).with_workers(12);
    for scenario in builtin_scenarios(spec) {
        let workload = scenario.generate();
        let run = |registry: MetricsRegistry| {
            let r = runner(PolicyKind::Dta, registry);
            let mut forecast = StaticForecast::default();
            let mut sink = CollectingSink::new();
            let mut session = Session::open(&r, &mut forecast, EngineConfig::batched(8));
            let mut source = WorkloadSource::new(&workload);
            while let SourcePoll::Ready(time, event) = source.poll() {
                session
                    .ingest(time, event)
                    .expect("replay times are finite");
                session.advance_to(time, &mut sink);
            }
            (session.close(&mut sink), sink)
        };
        let observed = MetricsRegistry::new();
        let (on, on_sink) = run(observed.clone());
        let (off, off_sink) = run(MetricsRegistry::detached());

        let label = scenario.name();
        assert_eq!(on.run.assigned_tasks, off.run.assigned_tasks, "{label}");
        assert_eq!(on.run.per_worker, off.run.per_worker, "{label}");
        assert_eq!(on.run.planning_calls, off.run.planning_calls, "{label}");
        assert_eq!(on.stats, off.stats, "{label}");
        assert_eq!(
            on_sink.decisions(),
            off_sink.decisions(),
            "{label}: streamed decisions diverged"
        );
        let snapshot = observed.snapshot();
        assert_eq!(
            snapshot.counters.get("stream.ingested_events").copied(),
            Some(workload.arrival_count() as u64),
            "{label}: ingest counter not recorded"
        );
    }
}
