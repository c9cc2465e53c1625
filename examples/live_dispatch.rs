//! Live dispatch through the facade: a paced hotspot-drift workload pumped
//! through the `datawa-service` loop, decisions collected as they are made,
//! with mid-stream snapshots printed while the run is still in flight.
//!
//! ```text
//! cargo run --release --example live_dispatch
//! ```
//!
//! The last line is `decisions=<n>`, the dispatch count; the run exits
//! nonzero when no dispatch was made.

use datawa::prelude::*;

fn main() {
    let spec = ScenarioSpec::small().with_tasks(400).with_workers(30);
    let workload = HotspotDrift::new(spec).generate();
    let runner = AdaptiveRunner::new(AssignConfig::default(), PolicyKind::Dta);

    let mut forecast = StaticForecast::default();
    let mut service = DispatchService::open(
        &runner,
        &mut forecast,
        LiveSource::new(&workload, 20.0),
        CollectingSink::new(),
        ServiceConfig::default(),
    );

    println!(
        "pumping {} arrivals through the live session…\n",
        workload.arrival_count()
    );
    let mut pumps = 0usize;
    while service.pump() != PumpStatus::SourceDrained {
        pumps += 1;
        if pumps.is_multiple_of(400) {
            let snap = service.snapshot();
            println!(
                "  t={:7.1}s  open tasks={:3}  available workers={:2}  assigned so far={:3}",
                snap.now.0, snap.open_tasks, snap.available_workers, snap.assigned_tasks
            );
        }
    }
    let (outcome, stats, sink) = service.finish();

    println!(
        "\nsource: {} ingested, {} quiet-period waits",
        stats.ingested, stats.waits
    );
    println!(
        "outcome: {} of {} tasks assigned, {} planning calls",
        outcome.run.assigned_tasks,
        workload.tasks.len(),
        outcome.run.planning_calls
    );
    let expired = sink
        .decisions()
        .iter()
        .filter(|d| matches!(d, Decision::TaskExpired { .. }))
        .count();
    println!(
        "decisions: {} dispatches, {} tasks expired unserved (streamed, not post-hoc)",
        sink.dispatches(),
        expired
    );
    println!("decisions={}", sink.dispatches());
    assert_eq!(sink.dispatches(), outcome.run.assigned_tasks);
    if sink.dispatches() == 0 {
        eprintln!("error: live dispatch produced no dispatch decisions");
        std::process::exit(1);
    }
}
