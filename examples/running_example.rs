//! The running example of Fig. 1 in the paper: three workers and nine tasks
//! with the exact coordinates, publication and expiration times from the
//! figure's table, a reachable distance of 1.2 units, and unit travel speed.
//!
//! The Fixed Task Assignment baseline serves 5 tasks; the adaptive,
//! re-planning methods serve more because they can reshuffle each worker's
//! remaining sequence as new tasks appear.
//!
//! ```text
//! cargo run --release --example running_example
//! ```

use datawa::prelude::*;

/// The nine tasks of Fig. 1: (x, y, publication, expiration).
const TASKS: [(f64, f64, f64, f64); 9] = [
    (1.5, 1.2, 1.0, 4.0), // s1
    (2.5, 2.0, 1.0, 6.0), // s2
    (2.2, 1.5, 1.0, 4.0), // s3
    (3.2, 1.7, 1.0, 6.0), // s4
    (1.5, 2.5, 2.0, 8.0), // s5
    (2.0, 3.2, 2.0, 8.0), // s6
    (4.0, 1.0, 4.0, 9.0), // s7
    (1.0, 3.0, 4.0, 8.0), // s8
    (1.0, 1.7, 4.0, 9.0), // s9
];

/// The three workers of Fig. 1: (x, y, online time).
const WORKERS: [(f64, f64, f64); 3] = [(0.5, 1.0, 1.0), (2.5, 3.2, 1.0), (4.0, 2.2, 3.0)];

fn workload() -> Workload {
    Workload {
        workers: WORKERS
            .iter()
            .enumerate()
            .map(|(i, &(x, y, on))| {
                Worker::new(
                    WorkerId(i as u32),
                    Location::new(x, y),
                    1.2,
                    Timestamp(on),
                    Timestamp(20.0),
                )
            })
            .collect(),
        tasks: TASKS
            .iter()
            .enumerate()
            .map(|(i, &(x, y, p, e))| {
                Task::new(
                    TaskId(i as u32),
                    Location::new(x, y),
                    Timestamp(p),
                    Timestamp(e),
                )
            })
            .collect(),
    }
}

fn main() {
    let config = AssignConfig::unit_speed();
    println!("Fig. 1 running example: 3 workers, 9 tasks, reachable distance 1.2, unit speed\n");
    for policy in [PolicyKind::Fta, PolicyKind::Dta, PolicyKind::Greedy] {
        let runner = AdaptiveRunner::new(config, policy);
        let outcome = run_workload(&runner, &workload(), &[], EngineConfig::default()).run;
        println!(
            "{:<8} assigned {} of {} tasks (planning calls: {})",
            policy.name(),
            outcome.assigned_tasks,
            TASKS.len(),
            outcome.planning_calls
        );
        let mut per_worker: Vec<_> = outcome.per_worker.iter().collect();
        per_worker.sort();
        for (worker, count) in per_worker {
            println!("    w{} served {count} task(s)", worker.0 + 1);
        }
    }
    println!("\nThe fixed assignment cannot react to the tasks published at t=2 and t=4,");
    println!(
        "while the dynamic methods reshuffle each worker's remaining sequence and serve more."
    );
}
