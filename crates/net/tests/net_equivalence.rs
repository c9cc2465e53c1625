//! The multi-tenant equivalence pin: a workload streamed over a TCP
//! loopback connection produces decisions *bitwise-identical* to the same
//! workload driven through `Session::ingest` directly — for Greedy and
//! DATA-WA, on two scenario generators, and with several tenants connected
//! concurrently. The transport is a front-end, not a fork of the engine.

use datawa_assign::{AdaptiveRunner, AssignConfig, PolicyKind, StaticForecast, TaskValueFunction};
use datawa_net::{Frame, NetClient, NetConfig, NetServer, RetryOutcome, RetryPolicy, TENANT_TVF};
use datawa_service::{IngestSource, SourcePoll, WorkloadSource};
use datawa_stream::{
    CollectingSink, Decision, EngineConfig, HotspotDrift, ScenarioGenerator, ScenarioSpec, Session,
    UniformBaseline, Workload,
};

fn spec(seed: u64) -> ScenarioSpec {
    ScenarioSpec::small()
        .with_tasks(120)
        .with_workers(10)
        .with_seed(seed)
}

fn workloads() -> Vec<(&'static str, Workload)> {
    vec![
        ("uniform-baseline", UniformBaseline::new(spec(7)).generate()),
        ("hotspot-drift", HotspotDrift::new(spec(11)).generate()),
    ]
}

/// The reference decision stream: the workload ingested into a session
/// directly (engine arrival order), then closed.
fn direct_decisions(policy: PolicyKind, workload: &Workload) -> Vec<Decision> {
    let mut runner = AdaptiveRunner::new(AssignConfig::default(), policy);
    if policy == PolicyKind::DataWa {
        // The server's (hidden, seed) pair, so the direct run and the
        // per-tenant pump share identical TVF weights.
        let (hidden, seed) = TENANT_TVF;
        runner = runner.with_tvf(TaskValueFunction::new(hidden, seed));
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

/// The same workload pushed through the wire by a loopback client.
fn loopback_decisions(client: &mut NetClient, workload: &Workload) {
    let mut source = WorkloadSource::new(workload);
    while let SourcePoll::Ready(time, event) = source.poll() {
        client.send_event(time, &event).expect("send event frame");
    }
}

#[test]
fn tcp_loopback_matches_direct_session_per_policy_and_generator() {
    for policy in [PolicyKind::Greedy, PolicyKind::DataWa] {
        let mut server = NetServer::bind(NetConfig {
            policy,
            ..NetConfig::default()
        })
        .expect("bind loopback");
        for (name, workload) in workloads() {
            let expected = direct_decisions(policy, &workload);
            let mut client = NetClient::connect(server.addr(), name, "").expect("handshake");
            loopback_decisions(&mut client, &workload);
            let outcome = client.close();
            assert!(
                outcome.errors.is_empty(),
                "{policy:?}/{name}: {:?}",
                outcome.errors
            );
            assert!(
                outcome.retry_after.is_empty(),
                "{policy:?}/{name} was throttled"
            );
            assert_eq!(
                outcome.decisions, expected,
                "{policy:?}/{name}: wire decisions diverged from direct ingest"
            );
            let closed = outcome.closed.expect("orderly close");
            assert_eq!(closed.decisions as usize, expected.len());
            assert!(closed.assigned > 0, "{policy:?}/{name} assigned nothing");
        }
        server.shutdown();
    }
}

#[test]
fn concurrent_tenants_each_match_their_own_direct_run() {
    let mut server = NetServer::bind(NetConfig {
        policy: PolicyKind::DataWa,
        ..NetConfig::default()
    })
    .expect("bind loopback");
    let addr = server.addr();

    let tenants: Vec<(String, Workload)> = (0..4)
        .map(|i| {
            (
                format!("tenant-{i}"),
                UniformBaseline::new(spec(100 + i)).generate(),
            )
        })
        .collect();

    let handles: Vec<_> = tenants
        .iter()
        .cloned()
        .map(|(name, workload)| {
            std::thread::spawn(move || {
                let mut client = NetClient::connect(addr, &name, "").expect("handshake");
                loopback_decisions(&mut client, &workload);
                (name, workload, client.close())
            })
        })
        .collect();

    // A fifth tenant sends through the retrying delivery, alongside the
    // streaming ones: over a healthy loopback it completes on the first
    // attempt.
    let retrying = UniformBaseline::new(spec(104)).generate();
    let mut log = Vec::new();
    let mut source = WorkloadSource::new(&retrying);
    while let SourcePoll::Ready(time, event) = source.poll() {
        log.push(Frame::from_event(time, &event));
    }
    let delivery = std::thread::spawn(move || {
        NetClient::deliver(addr, "tenant-r", "", &log, &RetryPolicy::default())
    });

    for handle in handles {
        let (name, workload, outcome) = handle.join().expect("tenant thread");
        let expected = direct_decisions(PolicyKind::DataWa, &workload);
        assert_eq!(
            outcome.decisions, expected,
            "{name}: concurrent tenants must not perturb each other's sessions"
        );
    }
    match delivery.join().expect("retrying tenant thread") {
        RetryOutcome::Completed { outcome, attempts } => {
            assert_eq!(attempts, 1, "loopback delivery needed retries");
            assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);
            assert_eq!(
                outcome.decisions,
                direct_decisions(PolicyKind::DataWa, &retrying),
                "tenant-r: delivered decisions diverged from direct ingest"
            );
        }
        RetryOutcome::GaveUp {
            attempts,
            last_error,
        } => panic!("retrying tenant gave up after {attempts} attempts: {last_error}"),
    }

    let snapshot = server.metrics().snapshot();
    for tenant in ["tenant-0", "tenant-1", "tenant-2", "tenant-3", "tenant-r"] {
        let decisions = snapshot
            .counters
            .get(&format!("net.tenant.{tenant}.decisions"))
            .copied()
            .unwrap_or(0);
        assert!(decisions > 0, "{tenant} streamed no decisions");
    }
    let recoveries = snapshot.counters.get("net.pump_recoveries").copied();
    assert_eq!(
        recoveries.unwrap_or(0),
        0,
        "healthy loopback triggered pump recoveries"
    );

    // Server-side teardown races with the clients' Closed receipt, so the
    // connection accounting is checked after shutdown joins the workers.
    server.shutdown();
    assert_eq!(server.connections(), 0, "shutdown left live connections");
    let connections = server
        .metrics()
        .snapshot()
        .gauges
        .get("net.connections")
        .map(|g| g.value);
    assert_eq!(
        connections.unwrap_or(0),
        0,
        "connections still registered after shutdown"
    );
}

#[test]
fn duplicate_tenant_names_are_refused_without_disturbing_the_owner() {
    let server = NetServer::bind(NetConfig::default()).expect("bind loopback");
    let workload = UniformBaseline::new(spec(3)).generate();
    let expected = direct_decisions(PolicyKind::Greedy, &workload);

    let mut owner = NetClient::connect(server.addr(), "acme", "").expect("handshake");
    match NetClient::connect(server.addr(), "acme", "") {
        Err(datawa_net::ClientError::Refused { code, .. }) => {
            assert_eq!(code, datawa_net::ErrorCode::TenantBusy);
        }
        other => panic!("duplicate tenant accepted: {other:?}"),
    }
    loopback_decisions(&mut owner, &workload);
    let outcome = owner.close();
    assert_eq!(outcome.decisions, expected, "owner session was disturbed");
}
