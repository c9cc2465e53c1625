//! CI chaos harness: drive one tenant through a [`ChaosProxy`] that resets
//! the first connection mid-stream and tears a frame on the second, against
//! a server configured to panic the tenant's pump twice at seeded event
//! indices — then assert the [`ResilientClient`] still delivers a decision
//! stream *bitwise identical* to an uninterrupted direct session run.
//! Prints `chaos_ok=1` on success; the whole scenario replays from one
//! fixed seed, 218.

use datawa_assign::{AdaptiveRunner, AssignConfig, PolicyKind, StaticForecast, TaskValueFunction};
use datawa_net::{
    ChaosPlan, ChaosProxy, Fault, NetConfig, NetServer, ResilientClient, RetryOutcome, RetryPolicy,
};
use datawa_service::{IngestSource, SourcePoll, WorkloadSource};
use datawa_stream::{
    CollectingSink, Decision, EngineConfig, ScenarioGenerator, ScenarioSpec, Session,
    UniformBaseline, Workload,
};
use rand::prelude::{Rng, SeedableRng, StdRng};

const TENANT: &str = "chaos";

/// The seed every fault, kill point and jitter of the scenario derives from.
const SEED: u64 = 218;

/// The uninterrupted reference: the workload ingested into a session
/// directly, mirroring the server's pump construction exactly.
fn direct_decisions(policy: PolicyKind, workload: &Workload) -> Vec<Decision> {
    let mut runner = AdaptiveRunner::new(AssignConfig::default(), policy);
    if policy == PolicyKind::DataWa {
        runner = runner.with_tvf(TaskValueFunction::new(8, 0));
    }
    let mut forecast = StaticForecast::default();
    let mut session = Session::open(&runner, &mut forecast, EngineConfig::default());
    let mut source = WorkloadSource::new(workload);
    while let SourcePoll::Ready(time, event) = source.poll() {
        session.ingest(time, event).expect("replay order is valid");
    }
    let mut sink = CollectingSink::new();
    let _ = session.close(&mut sink);
    sink.into_decisions()
}

fn main() {
    let mut rng = StdRng::seed_from_u64(SEED);

    let policy = PolicyKind::Dta;
    let workload: Workload = UniformBaseline::new(
        ScenarioSpec::small()
            .with_tasks(300)
            .with_workers(20)
            .with_seed(7),
    )
    .generate();
    let expected = direct_decisions(policy, &workload);
    let mut total_events: u64 = 0;
    let mut counter = WorkloadSource::new(&workload);
    while let SourcePoll::Ready(..) = counter.poll() {
        total_events += 1;
    }

    // Two seeded pump kills in the middle half of the stream, strictly
    // ordered so both fire.
    let kill_a = rng.gen_range(total_events / 4..total_events / 2);
    let kill_b = rng.gen_range(total_events / 2..3 * total_events / 4);
    let mut server = NetServer::bind(NetConfig {
        policy,
        pump_kills: vec![(TENANT.into(), kill_a), (TENANT.into(), kill_b)],
        ..NetConfig::default()
    })
    .expect("bind 127.0.0.1:0");

    // Connection 0: reset mid-stream. Connection 1: torn frame. Connection
    // 2: one more seeded fault from the full vocabulary. Everything after
    // that is transparent so the retrying client can finish.
    let reset_at = rng.gen_range(10..total_events / 2);
    let tear_at = rng.gen_range(10..total_events / 2);
    let mut plan = ChaosPlan::seeded(SEED, 1, total_events / 2);
    plan.conns.insert(
        0,
        Some(Fault::Reset {
            after_frames: reset_at,
        }),
    );
    plan.conns.insert(
        1,
        Some(Fault::Truncate {
            frame: tear_at,
            keep_bytes: rng.gen_range(1..5usize),
        }),
    );
    let mut proxy = ChaosProxy::spawn(server.addr(), plan.clone()).expect("bind chaos proxy");

    let mut client = ResilientClient::new(
        proxy.addr(),
        TENANT,
        "",
        RetryPolicy {
            jitter_seed: SEED,
            ..RetryPolicy::default()
        },
    );
    let mut source = WorkloadSource::new(&workload);
    while let SourcePoll::Ready(time, event) = source.poll() {
        client.send_event(time, &event);
    }

    let (outcome, attempts) = match client.deliver() {
        RetryOutcome::Completed { outcome, attempts } => (outcome, attempts),
        RetryOutcome::GaveUp {
            attempts,
            last_error,
        } => panic!("chaos tenant gave up after {attempts} attempts: {last_error}"),
    };

    assert!(
        attempts > 1,
        "the fault plan injected nothing — seed {SEED} produced a clean run"
    );
    assert_eq!(
        outcome.decisions, expected,
        "recovered decision stream diverged from the uninterrupted run"
    );
    let closed = outcome.closed.expect("orderly Closed frame");
    assert_eq!(
        closed.decisions as usize,
        expected.len(),
        "server-side decision count diverged"
    );
    // `closed.events` counts engine-processed events (arrivals plus the
    // expirations/offlines the engine schedules itself), so the meaningful
    // no-loss/no-dup check is that it is at least every client event once —
    // a double-ingest would also break the bitwise pin above.
    assert!(
        closed.events >= total_events,
        "engine processed fewer events ({}) than the client sent ({total_events})",
        closed.events
    );

    let snapshot = server.metrics().snapshot();
    let recoveries = snapshot
        .counters
        .get("net.pump_recoveries")
        .copied()
        .unwrap_or(0);
    assert!(
        recoveries >= 2,
        "expected both seeded pump kills to trigger recovery, saw {recoveries}"
    );

    proxy.shutdown();
    server.shutdown();

    println!(
        "chaos_smoke seed={SEED} attempts={attempts} decisions={} kills=({kill_a},{kill_b}) \
         reset_at={reset_at} tear_at={tear_at} recoveries={recoveries}",
        expected.len()
    );
    println!("chaos_ok=1");
}
