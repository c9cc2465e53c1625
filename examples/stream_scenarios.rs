//! Tour of the `datawa-stream` discrete-event engine: generate each built-in
//! scenario, run DTA on it, and show how batched re-planning trades planning
//! effort for assignments.
//!
//! ```text
//! cargo run --release --example stream_scenarios
//! ```

use datawa::prelude::*;

fn main() {
    let spec = ScenarioSpec::small();
    println!(
        "engine tour: {} workers, {} tasks, {:.0} s horizon\n",
        spec.workers, spec.tasks, spec.horizon
    );
    for scenario in builtin_scenarios(spec) {
        let workload = scenario.generate();
        let runner = AdaptiveRunner::new(AssignConfig::default(), PolicyKind::Dta);
        let per_arrival = run_workload(
            &runner,
            &workload,
            &mut StaticForecast::default(),
            EngineConfig::default(),
        );
        let batched = run_workload(
            &runner,
            &workload,
            &mut StaticForecast::default(),
            EngineConfig::batched(16),
        );
        println!(
            "{:<20} sessions={:<4} per-arrival: {:>3} assigned / {:>4} plans | \
             batched(16): {:>3} assigned / {:>4} plans | {} events, queue peak {}",
            scenario.name(),
            workload.workers.len(),
            per_arrival.run.assigned_tasks,
            per_arrival.run.planning_calls,
            batched.run.assigned_tasks,
            batched.run.planning_calls,
            per_arrival.stats.events_processed,
            per_arrival.stats.peak_queue_len,
        );
    }
    println!("\nevery run above is deterministic: same spec + seed => same numbers.");
}
