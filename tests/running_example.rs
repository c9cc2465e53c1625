//! Integration test reproducing the Fig. 1 running example end-to-end through
//! the public API: the fixed task assignment serves strictly fewer tasks than
//! the dynamic methods on the paper's hand-built scenario.

use datawa::prelude::*;

fn workload() -> Workload {
    let tasks: [(f64, f64, f64, f64); 9] = [
        (1.5, 1.2, 1.0, 4.0),
        (2.5, 2.0, 1.0, 6.0),
        (2.2, 1.5, 1.0, 4.0),
        (3.2, 1.7, 1.0, 6.0),
        (1.5, 2.5, 2.0, 8.0),
        (2.0, 3.2, 2.0, 8.0),
        (4.0, 1.0, 4.0, 9.0),
        (1.0, 3.0, 4.0, 8.0),
        (1.0, 1.7, 4.0, 9.0),
    ];
    let workers: [(f64, f64, f64); 3] = [(0.5, 1.0, 1.0), (2.5, 3.2, 1.0), (4.0, 2.2, 3.0)];
    Workload {
        workers: workers
            .iter()
            .map(|&(x, y, on)| {
                Worker::new(
                    WorkerId(0),
                    Location::new(x, y),
                    1.2,
                    Timestamp(on),
                    Timestamp(20.0),
                )
            })
            .collect(),
        tasks: tasks
            .iter()
            .map(|&(x, y, p, e)| {
                Task::new(TaskId(0), Location::new(x, y), Timestamp(p), Timestamp(e))
            })
            .collect(),
    }
}

fn run(policy: PolicyKind) -> datawa::assign::RunOutcome {
    let runner = AdaptiveRunner::new(AssignConfig::unit_speed(), policy);
    run_workload(
        &runner,
        &workload(),
        &mut StaticForecast::default(),
        EngineConfig::default(),
    )
    .run
}

#[test]
fn dynamic_assignment_beats_fixed_assignment_on_fig1() {
    let fta = run(PolicyKind::Fta);
    let dta = run(PolicyKind::Dta);
    assert!(
        dta.assigned_tasks > fta.assigned_tasks,
        "DTA ({}) should beat FTA ({}) on the Fig. 1 scenario",
        dta.assigned_tasks,
        fta.assigned_tasks
    );
    assert!(dta.assigned_tasks <= 9);
    // The paper's adaptive method serves 8 of the 9 tasks; our streaming
    // re-implementation should serve a clear majority of them too.
    assert!(
        dta.assigned_tasks >= 6,
        "adaptive assignment only served {} tasks on the Fig. 1 scenario",
        dta.assigned_tasks
    );
}

#[test]
fn all_streaming_policies_stay_within_bounds_on_fig1() {
    // On a nine-task toy instance the streaming tie-breaks can let Greedy
    // match the search-based methods; the robust claims are the bounds and
    // that the fixed assignment is the weakest method.
    let fta = run(PolicyKind::Fta);
    for policy in [PolicyKind::Greedy, PolicyKind::Dta] {
        let outcome = run(policy);
        assert!(outcome.assigned_tasks <= 9);
        assert!(outcome.assigned_tasks >= fta.assigned_tasks);
    }
}

#[test]
fn per_worker_counts_sum_to_the_total() {
    let outcome = run(PolicyKind::Dta);
    let sum: usize = outcome.per_worker.values().sum();
    assert_eq!(sum, outcome.assigned_tasks);
}
