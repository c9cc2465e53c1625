//! Live-ingest demo: a paced rush-hour workload pumped through the dispatch
//! service, with every assignment decision streamed over a channel to a
//! consumer thread while the service keeps running.
//!
//! ```text
//! cargo run --release -p datawa-service --bin service_live
//! ```
//!
//! Exits nonzero if the run produces no dispatch decision (the CI
//! `service-smoke` step runs this under `timeout` and checks the
//! `decisions=` line).

use datawa_assign::{AdaptiveRunner, AssignConfig, PolicyKind, StaticForecast};
use datawa_service::{DispatchService, LiveSource, PumpStatus, ServiceConfig};
use datawa_stream::{ChannelSink, Decision, RushHourBurst, ScenarioGenerator, ScenarioSpec};
use std::sync::mpsc;

fn main() {
    let spec = ScenarioSpec::small().with_tasks(600).with_workers(40);
    let workload = RushHourBurst::new(spec).generate();
    let runner = AdaptiveRunner::new(AssignConfig::default(), PolicyKind::Dta);

    // The decision consumer: a separate thread draining the channel while
    // the service pumps — the shape of a real serving front-end.
    let (tx, rx) = mpsc::channel::<Decision>();
    let consumer = std::thread::spawn(move || {
        let (mut dispatches, mut expired, mut offline) = (0usize, 0usize, 0usize);
        let mut first_dispatch: Option<f64> = None;
        for decision in rx {
            match decision {
                Decision::Dispatch { at, .. } => {
                    dispatches += 1;
                    first_dispatch.get_or_insert(at.0);
                }
                Decision::TaskExpired { .. } => expired += 1,
                Decision::WorkerOffline { .. } => offline += 1,
            }
        }
        (dispatches, expired, offline, first_dispatch)
    });

    let mut forecast = StaticForecast::default();
    let mut service = DispatchService::open(
        &runner,
        &mut forecast,
        LiveSource::new(&workload, 15.0),
        ChannelSink::new(tx),
        ServiceConfig::default(),
    );

    // Pump with periodic mid-stream inspection.
    let mut pumps = 0usize;
    while service.pump() != PumpStatus::SourceDrained {
        pumps += 1;
        if pumps.is_multiple_of(500) {
            let snap = service.snapshot();
            println!(
                "t={:8.1}s  ingested={:5}  pending={:4}  open={:4}  available={:3}  assigned={:5}",
                snap.now.0,
                service.stats().ingested,
                snap.pending_events,
                snap.open_tasks,
                snap.available_workers,
                snap.assigned_tasks,
            );
        }
    }
    let (outcome, stats, sink) = service.finish();
    drop(sink); // hang up the channel so the consumer finishes
    let (dispatches, expired, offline, first_dispatch) =
        consumer.join().expect("decision consumer panicked");

    println!();
    println!(
        "workload: {} workers, {} tasks (rush-hour burst)",
        workload.workers.len(),
        workload.tasks.len()
    );
    println!(
        "service:  {} arrivals ingested, {} quiet-period waits, {} backpressure flushes",
        stats.ingested, stats.waits, stats.backpressure_flushes
    );
    println!(
        "outcome:  {} assigned, {} planning calls, {} events processed",
        outcome.run.assigned_tasks, outcome.run.planning_calls, outcome.stats.events_processed
    );
    if let Some(t) = first_dispatch {
        println!("first dispatch decision streamed at t={t:.1}s (long before close)");
    }
    println!("lifecycle: {expired} tasks expired unserved, {offline} workers went offline");
    println!("decisions={dispatches}");

    assert_eq!(
        dispatches, outcome.run.assigned_tasks,
        "every assignment surfaced as a streamed decision"
    );
    if dispatches == 0 {
        eprintln!("error: live service produced no dispatch decisions");
        std::process::exit(1);
    }
}
