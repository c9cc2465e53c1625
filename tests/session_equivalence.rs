//! The acceptance bar of the session API redesign: ingesting a workload
//! event-by-event through an open [`Session`] with a channel-backed decision
//! sink must yield bitwise-identical totals to the batch `run_workload`
//! wrapper, for every policy family on every built-in scenario generator —
//! and the decisions streamed mid-run must reconcile exactly with the
//! end-of-run outcome.

use datawa::prelude::*;
use std::sync::mpsc;

fn runner(policy: PolicyKind) -> AdaptiveRunner {
    let r = AdaptiveRunner::new(AssignConfig::default(), policy);
    if policy == PolicyKind::DataWa {
        // Identical (seeded) TVF on both sides keeps the comparison exact.
        r.with_tvf(TaskValueFunction::new(8, 7))
    } else {
        r
    }
}

/// Feeds `workload` one arrival at a time — ingest, then advance to that
/// instant, exactly what a live front-end does — streaming decisions over a
/// channel, and returns the outcome plus every received decision.
fn run_event_by_event(
    workload: &Workload,
    policy: PolicyKind,
    config: EngineConfig,
) -> (EngineOutcome, Vec<Decision>) {
    let r = runner(policy);
    let (tx, rx) = mpsc::channel();
    let mut sink = ChannelSink::new(tx);
    let mut forecast = StaticForecast::default();
    let mut session = Session::open(&r, &mut forecast, config);
    // WorkloadSource hands out arrivals in the engine queue's deterministic
    // order (time, workers-before-tasks, FIFO).
    let mut source = WorkloadSource::new(workload);
    while let SourcePoll::Ready(time, event) = source.poll() {
        session
            .ingest(time, event)
            .expect("replay times are finite");
        session.advance_to(time, &mut sink);
    }
    let outcome = session.close(&mut sink);
    assert_eq!(sink.undeliverable(), 0);
    drop(sink);
    (outcome, rx.into_iter().collect())
}

/// Event-by-event session ingest equals the batch driver bit for bit: same
/// assignments, same per-worker counts, same planning instants, same engine
/// counters, for all four policies on all four scenarios.
#[test]
fn session_ingest_equals_batch_run_for_all_policies_and_scenarios() {
    let spec = ScenarioSpec::small().with_tasks(150).with_workers(12);
    for scenario in builtin_scenarios(spec) {
        let workload = scenario.generate();
        for policy in [
            PolicyKind::Greedy,
            PolicyKind::Fta,
            PolicyKind::Dta,
            PolicyKind::DataWa,
        ] {
            let batch = run_workload(&runner(policy), &workload, &[], EngineConfig::default());
            let (live, decisions) = run_event_by_event(&workload, policy, EngineConfig::default());

            let label = format!("{} on {}", policy.name(), scenario.name());
            assert_eq!(
                live.run.assigned_tasks, batch.run.assigned_tasks,
                "{label}: assigned totals diverged"
            );
            assert_eq!(
                live.run.per_worker, batch.run.per_worker,
                "{label}: per-worker counts diverged"
            );
            assert_eq!(live.run.planning_calls, batch.run.planning_calls, "{label}");
            assert_eq!(live.run.events, batch.run.events, "{label}");
            // Engine counters: everything except the queue high-water mark
            // (batch preloads every arrival, so its queue peaks at the full
            // workload; live ingest holds only in-flight lifecycle events —
            // that difference is the point of the API).
            let mut live_stats = live.stats;
            let mut batch_stats = batch.stats;
            assert!(
                live_stats.peak_queue_len <= batch_stats.peak_queue_len,
                "{label}"
            );
            live_stats.peak_queue_len = 0;
            batch_stats.peak_queue_len = 0;
            assert_eq!(live_stats, batch_stats, "{label}: engine counters diverged");

            // The streamed decisions reconcile with the outcome exactly.
            let dispatches = decisions.iter().filter(|d| d.is_dispatch()).count();
            assert_eq!(dispatches, live.run.assigned_tasks, "{label}");
            let expired = decisions
                .iter()
                .filter(|d| matches!(d, Decision::TaskExpired { .. }))
                .count();
            assert_eq!(expired, live.stats.expired_open, "{label}");
            for pair in decisions.windows(2) {
                assert!(
                    pair[0].at().0 <= pair[1].at().0,
                    "{label}: decisions out of time order"
                );
            }
        }
    }
}

/// The prediction-aware policy also replays identically through a session
/// when both drivers see the same predicted-task feed.
#[test]
fn session_ingest_equals_batch_run_with_predicted_tasks() {
    let spec = ScenarioSpec::small().with_tasks(150).with_workers(12);
    let workload = UniformBaseline::new(spec).generate();
    let predicted: Vec<PredictedTaskInput> = workload
        .tasks
        .iter()
        .step_by(9)
        .map(|t| PredictedTaskInput {
            location: t.location,
            publication: t.publication + Duration(90.0),
            expiration: t.expiration + Duration(90.0),
        })
        .collect();
    assert!(!predicted.is_empty());

    let r = runner(PolicyKind::DtaTp);
    let batch = run_workload(&r, &workload, &predicted, EngineConfig::default());

    let mut sink = CollectingSink::new();
    let mut forecast = StaticForecast::from_slice(&predicted);
    let mut session = Session::open(&r, &mut forecast, EngineConfig::default());
    let mut source = WorkloadSource::new(&workload);
    while let SourcePoll::Ready(time, event) = source.poll() {
        session.ingest(time, event).unwrap();
        session.advance_to(time, &mut sink);
    }
    let live = session.close(&mut sink);
    assert_eq!(live.run.assigned_tasks, batch.run.assigned_tasks);
    assert_eq!(live.run.per_worker, batch.run.per_worker);
    assert_eq!(sink.dispatches(), live.run.assigned_tasks);
}

/// With every event ingested up front, chunked `advance_to` calls (a session
/// advanced in slices of simulated time) also reproduce the batch driver —
/// including under purely time-driven re-planning, where tick instants must
/// land identically.
#[test]
fn chunked_advance_equals_batch_run_under_time_driven_planning() {
    let spec = ScenarioSpec::small().with_tasks(120).with_workers(10);
    let workload = HotspotDrift::new(spec).generate();
    let config = EngineConfig::ticked(45.0);
    let r = runner(PolicyKind::Dta);
    let batch = run_workload(&r, &workload, &[], config);

    let mut sink = CollectingSink::new();
    let mut forecast = StaticForecast::default();
    let mut session = Session::open(&r, &mut forecast, config);
    session.ingest_workload(&workload).unwrap();
    let end = workload.end_time();
    let mut t = 0.0;
    while t < end.0 {
        session.advance_to(Timestamp(t), &mut sink);
        t += 97.0; // deliberately incommensurate with the 45 s tick interval
    }
    let live = session.close(&mut sink);
    assert_eq!(live.run.assigned_tasks, batch.run.assigned_tasks);
    assert_eq!(live.run.per_worker, batch.run.per_worker);
    assert_eq!(live.run.planning_calls, batch.run.planning_calls);
    assert_eq!(live.stats.replan_ticks, batch.stats.replan_ticks);
}
