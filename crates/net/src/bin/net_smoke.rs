//! CI smoke test for the transport front-end: bind a loopback server, drive
//! two concurrent tenant clients through real TCP connections plus one
//! retrying [`ResilientClient`], and assert nonzero per-tenant decision
//! counts, zero gave-ups, and a clean shutdown. Prints `net_smoke_ok=1` on
//! success; any failure exits nonzero (the CI job also wraps the whole run
//! in `timeout`, so a hang fails too).

use datawa_net::{NetClient, NetConfig, NetServer, ResilientClient, RetryOutcome, RetryPolicy};
use datawa_service::{IngestSource, SourcePoll, WorkloadSource};
use datawa_stream::{ScenarioGenerator, ScenarioSpec, UniformBaseline, Workload};

fn drive(addr: std::net::SocketAddr, tenant: &'static str, seed: u64) -> (u64, u64) {
    let workload: Workload = UniformBaseline::new(
        ScenarioSpec::small()
            .with_tasks(200)
            .with_workers(12)
            .with_seed(seed),
    )
    .generate();
    let mut client = NetClient::connect(addr, tenant, "").expect("loopback handshake");
    let mut source = WorkloadSource::new(&workload);
    while let SourcePoll::Ready(time, event) = source.poll() {
        client.send_event(time, &event).expect("send event frame");
    }
    let outcome = client.close();
    assert!(
        outcome.errors.is_empty(),
        "{tenant}: server reported errors: {:?}",
        outcome.errors
    );
    let closed = outcome.closed.expect("orderly Closed frame");
    (closed.assigned, closed.decisions)
}

/// Drives the retrying client over a healthy loopback: it must complete on
/// the first attempt — a give-up (or any retry) here is a server bug.
fn drive_resilient(addr: std::net::SocketAddr) -> (u64, u64) {
    let workload: Workload = UniformBaseline::new(
        ScenarioSpec::small()
            .with_tasks(200)
            .with_workers(12)
            .with_seed(43),
    )
    .generate();
    let mut client = ResilientClient::new(addr, "smoke-r", "", RetryPolicy::default());
    let mut source = WorkloadSource::new(&workload);
    while let SourcePoll::Ready(time, event) = source.poll() {
        client.send_event(time, &event);
    }
    match client.deliver() {
        RetryOutcome::Completed { outcome, attempts } => {
            assert_eq!(attempts, 1, "loopback delivery needed retries");
            assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);
            let closed = outcome.closed.expect("orderly Closed frame");
            (closed.assigned, closed.decisions)
        }
        RetryOutcome::GaveUp {
            attempts,
            last_error,
        } => panic!("resilient tenant gave up after {attempts} attempts: {last_error}"),
    }
}

fn main() {
    let mut server = NetServer::bind(NetConfig::default()).expect("bind 127.0.0.1:0");
    let addr = server.addr();

    let a = std::thread::spawn(move || drive(addr, "smoke-a", 41));
    let b = std::thread::spawn(move || drive(addr, "smoke-b", 42));
    let r = std::thread::spawn(move || drive_resilient(addr));
    let (assigned_a, decisions_a) = a.join().expect("tenant a thread");
    let (assigned_b, decisions_b) = b.join().expect("tenant b thread");
    let (assigned_r, _decisions_r) = r.join().expect("resilient tenant thread");

    assert!(assigned_a > 0, "tenant smoke-a assigned nothing");
    assert!(assigned_b > 0, "tenant smoke-b assigned nothing");
    assert!(assigned_r > 0, "tenant smoke-r assigned nothing");

    let snapshot = server.metrics().snapshot();
    for tenant in ["smoke-a", "smoke-b", "smoke-r"] {
        let streamed = snapshot
            .counters
            .get(&format!("net.tenant.{tenant}.decisions"))
            .copied()
            .unwrap_or(0);
        assert!(streamed > 0, "{tenant} streamed no decisions");
    }
    let recoveries = snapshot
        .counters
        .get("net.pump_recoveries")
        .copied()
        .unwrap_or(0);
    assert_eq!(recoveries, 0, "healthy loopback triggered pump recoveries");
    // Server-side teardown races with the client's Closed receipt, so the
    // connection accounting is only checked after shutdown joins the workers.
    server.shutdown();
    assert_eq!(server.connections(), 0, "shutdown left live connections");
    let snapshot = server.metrics().snapshot();
    let connections = snapshot
        .gauges
        .get("net.connections")
        .map(|g| g.value)
        .unwrap_or(0);
    assert_eq!(
        connections, 0,
        "connections still registered after shutdown"
    );

    println!(
        "net_smoke tenants=2 assigned_a={assigned_a} assigned_b={assigned_b} \
         decisions_a={decisions_a} decisions_b={decisions_b}"
    );
    println!("net_smoke_ok=1");
}
