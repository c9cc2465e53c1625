//! Admission control sheds load visibly: past-quota producers get
//! retry-after frames (the refused events are *not* ingested),
//! `net.rejected_admission` counts every refusal, and tenants inside their
//! quota see decision streams identical to an undisturbed direct run.

use datawa_assign::{AdaptiveRunner, AssignConfig, PolicyKind, StaticForecast, TaskValueFunction};
use datawa_net::{
    ClientError, Frame, NetClient, NetConfig, NetServer, RetryOutcome, RetryPolicy, RetryReason,
    TENANT_TVF,
};
use datawa_service::{IngestSource, SourcePoll, WorkloadSource};
use datawa_stream::{
    CollectingSink, Decision, EngineConfig, ScenarioGenerator, ScenarioSpec, Session,
    UniformBaseline, Workload,
};

fn direct_decisions(policy: PolicyKind, workload: &Workload) -> Vec<Decision> {
    let mut runner = AdaptiveRunner::new(AssignConfig::default(), policy);
    if policy == PolicyKind::DataWa {
        // The server's TVF (hidden, seed) pair: identical weights to the
        // server-side pump.
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

fn send_all(client: &mut NetClient, workload: &Workload) {
    let mut source = WorkloadSource::new(workload);
    while let SourcePoll::Ready(time, event) = source.poll() {
        client.send_event(time, &event).expect("send event frame");
    }
}

#[test]
fn past_quota_producers_get_retry_after_and_calm_tenants_are_unaffected() {
    // DATA-WA plans on every arrival, so the pump drains far slower than a
    // loopback reader can push: a large burst reliably piles the backlog
    // past a small quota.
    let server = NetServer::bind(NetConfig {
        policy: PolicyKind::DataWa,
        tenant_pending_quota: 16,
        retry_after_secs: 0.01,
        ..NetConfig::default()
    })
    .expect("bind loopback");

    // Within quota: a workload whose whole event count fits the quota.
    let calm_workload = UniformBaseline::new(
        ScenarioSpec::small()
            .with_tasks(10)
            .with_workers(4)
            .with_seed(5),
    )
    .generate();
    let expected_calm = direct_decisions(PolicyKind::DataWa, &calm_workload);

    // Far past quota.
    let flood_workload = UniformBaseline::new(
        ScenarioSpec::small()
            .with_tasks(1200)
            .with_workers(60)
            .with_seed(6),
    )
    .generate();

    let addr = server.addr();
    let flood = std::thread::spawn(move || {
        let mut client = NetClient::connect(addr, "flood", "").expect("handshake");
        send_all(&mut client, &flood_workload);
        client.close()
    });
    let mut calm_client = NetClient::connect(addr, "calm", "").expect("handshake");
    send_all(&mut calm_client, &calm_workload);
    let calm = calm_client.close();
    let flood = flood.join().expect("flood tenant thread");

    assert!(
        !flood.retry_after.is_empty(),
        "a 1260-event burst against quota 16 must trip admission"
    );
    assert!(
        flood
            .retry_after
            .iter()
            .all(|(secs, reason)| *secs == 0.01 && *reason == RetryReason::TenantQuota),
        "refusals carry the configured backoff and the quota reason: {:?}",
        &flood.retry_after[..flood.retry_after.len().min(3)]
    );

    assert!(calm.retry_after.is_empty(), "calm tenant was throttled");
    assert_eq!(
        calm.decisions, expected_calm,
        "an admitted tenant's decisions must be unaffected by a flooding neighbour"
    );

    let snapshot = server.metrics().snapshot();
    let rejected = snapshot
        .counters
        .get("net.rejected_admission")
        .copied()
        .unwrap_or(0);
    assert_eq!(
        rejected as usize,
        flood.retry_after.len(),
        "net.rejected_admission counts exactly the emitted retry-after frames"
    );
    let flood_rejected = snapshot
        .counters
        .get("net.tenant.flood.rejected")
        .copied()
        .unwrap_or(0);
    assert_eq!(flood_rejected, rejected, "per-tenant counter matches");
    assert_eq!(
        snapshot
            .counters
            .get("net.tenant.calm.rejected")
            .copied()
            .unwrap_or(0),
        0
    );

    // The refused events were dropped, not ingested: the flooding session
    // still closed cleanly and processed its admitted prefix. (Whether that
    // prefix produced assignments depends on which events the pump's drain
    // pace happened to admit, so only processing is asserted.)
    let closed = flood.closed.expect("orderly close");
    assert!(closed.events > 0, "admitted prefix was never processed");
}

#[test]
fn global_overload_sheds_the_stalest_tenant_first() {
    // Tiny global cap, effectively unlimited per-tenant quota: only the
    // server-wide limit can refuse, and it must pick the oldest connection.
    let server = NetServer::bind(NetConfig {
        policy: PolicyKind::DataWa,
        tenant_pending_quota: usize::MAX,
        global_pending_cap: 48,
        ..NetConfig::default()
    })
    .expect("bind loopback");
    let addr = server.addr();

    // One big workload for the stale tenant, sent in two halves so every
    // frame respects the connection's non-decreasing-time contract.
    let stale_workload = UniformBaseline::new(
        ScenarioSpec::small()
            .with_tasks(1200)
            .with_workers(50)
            .with_seed(21),
    )
    .generate();
    let mut stale_events = Vec::new();
    {
        let mut source = WorkloadSource::new(&stale_workload);
        while let SourcePoll::Ready(time, event) = source.poll() {
            stale_events.push((time, event));
        }
    }
    let half = stale_events.len() / 2;

    // Small enough that the young tenant's own backlog can never breach the
    // global cap by itself — only the stale flood can, so the young tenant
    // is provably never the shedding victim.
    let young_workload = UniformBaseline::new(
        ScenarioSpec::small()
            .with_tasks(30)
            .with_workers(8)
            .with_seed(22),
    )
    .generate();

    // The stale tenant connects first and floods, building global pressure
    // far past the cap (DATA-WA pumps drain slowly).
    let mut stale = NetClient::connect(addr, "stale", "").expect("handshake");
    for (time, event) in &stale_events[..half] {
        stale.send_event(*time, event).expect("send event frame");
    }

    // A younger tenant sends a modest stream: its reader sees the breached
    // cap and sheds the stalest connection — not itself.
    let mut young = NetClient::connect(addr, "young", "").expect("handshake");
    send_all(&mut young, &young_workload);

    // The stale tenant keeps sending while pressure is high and gets
    // refused with the overload reason.
    for (time, event) in &stale_events[half..] {
        stale.send_event(*time, event).expect("send event frame");
    }

    let stale_outcome = stale.close();
    let young_outcome = young.close();

    assert!(
        stale_outcome
            .retry_after
            .iter()
            .any(|(_, reason)| *reason == RetryReason::GlobalOverload),
        "the stalest tenant must be shed under global overload (got {} refusals)",
        stale_outcome.retry_after.len()
    );
    assert!(
        young_outcome
            .retry_after
            .iter()
            .all(|(_, reason)| *reason != RetryReason::GlobalOverload),
        "the younger tenant must not be shed while the stalest one exists"
    );
    assert!(stale_outcome.closed.is_some() && young_outcome.closed.is_some());
}

#[test]
fn connection_cap_refuses_with_retry_after_at_accept() {
    let server = NetServer::bind(NetConfig {
        max_connections: 1,
        retry_after_secs: 0.25,
        ..NetConfig::default()
    })
    .expect("bind loopback");

    let first = NetClient::connect(server.addr(), "first", "").expect("handshake");
    match NetClient::connect(server.addr(), "second", "") {
        Err(ClientError::Busy {
            retry_after_secs,
            reason,
        }) => {
            assert_eq!(retry_after_secs, 0.25);
            assert_eq!(reason, RetryReason::ConnectionCap);
        }
        other => panic!("over-cap connection was not refused with Busy: {other:?}"),
    }
    drop(first.close());

    // Capacity freed: the next connection is served. The connection count
    // drops when the server-side thread finishes, so allow a short grace
    // period for the teardown to land.
    let mut attempts = 0;
    let again = loop {
        match NetClient::connect(server.addr(), "second", "") {
            Ok(client) => break client,
            Err(ClientError::Busy { .. }) if attempts < 100 => {
                attempts += 1;
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            Err(e) => panic!("post-close handshake failed: {e}"),
        }
    };
    drop(again.close());
}

#[test]
fn throttled_delivery_gives_up_naming_the_quota() {
    // Quota 0 refuses every event, so no attempt can deliver the log: each
    // one ends on a sticky TenantQuota refusal until retries run out.
    let server = NetServer::bind(NetConfig {
        tenant_pending_quota: 0,
        retry_after_secs: 0.001,
        ..NetConfig::default()
    })
    .expect("bind loopback");
    let workload = UniformBaseline::new(
        ScenarioSpec::small()
            .with_tasks(10)
            .with_workers(4)
            .with_seed(5),
    )
    .generate();
    let mut log = Vec::new();
    let mut source = WorkloadSource::new(&workload);
    while let SourcePoll::Ready(time, event) = source.poll() {
        log.push(Frame::from_event(time, &event));
    }
    let policy = RetryPolicy {
        max_attempts: 3,
        base_backoff_secs: 0.001,
        max_backoff_secs: 0.001,
        jitter_seed: 0,
    };
    match NetClient::deliver(server.addr(), "throttled", "", &log, &policy) {
        RetryOutcome::GaveUp {
            attempts,
            last_error: last_error @ ClientError::Busy { reason, .. },
        } => {
            assert_eq!(attempts, policy.max_attempts);
            assert_eq!(reason, RetryReason::TenantQuota);
            let message = last_error.to_string();
            assert!(message.contains("TenantQuota"), "{message}");
            assert!(!message.contains("connection cap"), "{message}");
        }
        other => panic!("quota-0 delivery did not give up on the quota: {other:?}"),
    }
}
