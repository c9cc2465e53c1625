//! Translation invariance: the planner's answers depend on differences of
//! times and of locations, never on where the origin is.
//!
//! Greedy, FTA and DTA run on `yueche-0.1` and on the 400×150 heavy-tailed
//! churn scenario at both golden seeds, as `golden_counts` runs those rows
//! (per arrival, resp. batched by sixteen), once untransformed and once
//! under each of two transforms of the whole workload:
//!
//! * every time — publication, expiration, online, offline — moves 1,000 s
//!   later;
//! * every location moves by (10⁴, 10⁴).
//!
//! Each transformed run must dispatch the same `(worker, task)` pairs, in
//! the same order, and assign the same number of tasks. Dispatch times and
//! ETAs are not compared: they move with the clock.

use datawa::prelude::*;

const SEEDS: [u64; 2] = [77003, 20161101];

const POLICIES: [PolicyKind; 3] = [PolicyKind::Greedy, PolicyKind::Fta, PolicyKind::Dta];

/// The `(worker, task)` pair of every dispatch, in emission order.
#[derive(Default)]
struct PairSink(Vec<(WorkerId, TaskId)>);

impl DecisionSink for PairSink {
    fn emit(&mut self, decision: Decision) {
        if let Decision::Dispatch { worker, task, .. } = decision {
            self.0.push((worker, task));
        }
    }
}

fn run(
    policy: PolicyKind,
    workload: &Workload,
    engine: EngineConfig,
) -> (usize, Vec<(WorkerId, TaskId)>) {
    let runner = AdaptiveRunner::new(AssignConfig::default(), policy);
    let mut forecast = StaticForecast::default();
    let mut session = Session::open(&runner, &mut forecast, engine);
    session
        .ingest_workload(workload)
        .expect("a generated workload ingests");
    let mut sink = PairSink::default();
    let outcome = session.close(&mut sink);
    (outcome.run.assigned_tasks, sink.0)
}

fn shift_times(workload: &Workload, by: f64) -> Workload {
    let later = |t: Timestamp| Timestamp(t.0 + by);
    Workload {
        workers: workload
            .workers
            .iter()
            .map(|w| {
                Worker::new(
                    w.id,
                    w.location,
                    w.reachable_distance,
                    later(w.on()),
                    later(w.off()),
                )
            })
            .collect(),
        tasks: workload
            .tasks
            .iter()
            .map(|t| Task::new(t.id, t.location, later(t.publication), later(t.expiration)))
            .collect(),
    }
}

fn shift_locations(workload: &Workload, dx: f64, dy: f64) -> Workload {
    let moved = |l: Location| Location::new(l.x + dx, l.y + dy);
    Workload {
        workers: workload
            .workers
            .iter()
            .map(|w| Worker {
                location: moved(w.location),
                ..*w
            })
            .collect(),
        tasks: workload
            .tasks
            .iter()
            .map(|t| Task {
                location: moved(t.location),
                ..*t
            })
            .collect(),
    }
}

/// Runs every policy on `workload` and on both transforms of it.
fn assert_invariant(scenario: &str, seed: u64, workload: &Workload, engine: EngineConfig) {
    let transforms = [
        ("time + 1000 s", shift_times(workload, 1_000.0)),
        ("location + (1e4, 1e4)", shift_locations(workload, 1e4, 1e4)),
    ];
    for policy in POLICIES {
        let (assigned, pairs) = run(policy, workload, engine);
        assert!(
            assigned > 0,
            "{scenario}, seed {seed}, {}: nothing assigned",
            policy.name()
        );
        for (name, transformed) in &transforms {
            let (t_assigned, t_pairs) = run(policy, transformed, engine);
            assert_eq!(
                t_assigned,
                assigned,
                "{scenario}, seed {seed}, {}, {name}: assigned count",
                policy.name()
            );
            assert_eq!(
                t_pairs,
                pairs,
                "{scenario}, seed {seed}, {}, {name}: dispatch pairs",
                policy.name()
            );
        }
    }
}

#[test]
fn dispatch_pairs_are_invariant_under_time_and_location_shifts() {
    for seed in SEEDS {
        let trace = SyntheticTrace::generate(TraceSpec::yueche().scaled(0.1).with_seed(seed));
        assert_invariant(
            "yueche-0.1",
            seed,
            &trace.workload(),
            EngineConfig::default(),
        );
    }
}

#[test]
fn churn_dispatch_pairs_are_invariant_under_time_and_location_shifts() {
    for seed in SEEDS {
        let spec = ScenarioSpec::small()
            .with_tasks(400)
            .with_workers(150)
            .with_seed(seed);
        let workload = HeavyTailedChurn::new(spec).generate();
        assert_invariant("churn", seed, &workload, EngineConfig::batched(16));
    }
}
