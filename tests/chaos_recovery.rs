//! The fault-tolerance acceptance pins: a dispatch session interrupted at a
//! proptest-chosen point and rebuilt from its [`EventJournal`] must be
//! *bitwise identical* to the uninterrupted run — at the session layer for
//! all four policies on all four scenario generators, and end-to-end over
//! TCP under three injected fault classes (pump kill, connection reset,
//! torn frame) healed by [`NetClient::deliver`]'s journaled resume — at
//! proptest-chosen points, and for one fixed plan derived from seed 218. A
//! torn-write proptest additionally pins that truncating a journal at *any*
//! byte offset recovers a clean record prefix (or a typed error) — never a
//! panic, never silent divergence.

use datawa::net::{
    ChaosPlan, ChaosProxy, Fault, Frame, NetClient, NetConfig, NetServer, RetryOutcome, RetryPolicy,
};
use datawa::prelude::*;
use datawa::stream::{EventJournal, JournalRecord, SkipSink};
use proptest::prelude::*;
use rand::prelude::{Rng, SeedableRng, StdRng};

const POLICIES: [PolicyKind; 4] = [
    PolicyKind::Greedy,
    PolicyKind::Fta,
    PolicyKind::Dta,
    PolicyKind::DataWa,
];

/// The same (hidden, seed) TVF pair as `NetConfig::default()`, so session
/// runs, direct references and server pumps all share identical weights.
fn runner(policy: PolicyKind) -> AdaptiveRunner {
    let r = AdaptiveRunner::new(AssignConfig::default(), policy);
    if policy == PolicyKind::DataWa {
        r.with_tvf(TaskValueFunction::new(8, 0))
    } else {
        r
    }
}

/// The journaled command stream every driver below applies: ingest each
/// arrival, then advance to its instant — what a live front-end does.
fn commands(workload: &Workload) -> Vec<(Timestamp, Event)> {
    let mut source = WorkloadSource::new(workload);
    let mut out = Vec::new();
    while let SourcePoll::Ready(time, event) = source.poll() {
        out.push((time, event));
    }
    out
}

/// Runs the full command stream uninterrupted (journaling along the way)
/// and returns the outcome, the decision stream, and the journal bytes.
fn uninterrupted(
    policy: PolicyKind,
    workload: &Workload,
) -> (EngineOutcome, Vec<Decision>, Vec<u8>) {
    let r = runner(policy);
    let mut forecast = StaticForecast::default();
    let mut session = Session::open(&r, &mut forecast, EngineConfig::default());
    session.attach_journal(EventJournal::in_memory());
    let mut sink = CollectingSink::new();
    for (time, event) in commands(workload) {
        session.ingest(time, event).expect("replay order is valid");
        session.advance_to(time, &mut sink);
    }
    let bytes = session
        .journal()
        .expect("journal attached")
        .snapshot_bytes()
        .expect("in-memory journal snapshots");
    let outcome = session.close(&mut sink);
    (outcome, sink.into_decisions(), bytes)
}

/// Runs the first `crash_after` commands, drops the session mid-flight (the
/// crash), recovers a fresh session from the journal, finishes the stream
/// on the recovered session, and returns the outcome plus the full decision
/// stream a client would have observed across both incarnations.
fn crashed_and_recovered(
    policy: PolicyKind,
    workload: &Workload,
    crash_after: usize,
) -> (EngineOutcome, Vec<Decision>) {
    let journal = EventJournal::in_memory();
    let r = runner(policy);
    let cmds = commands(workload);
    let crash_after = crash_after.min(cmds.len());

    // First incarnation: journal attached, dies after `crash_after` commands.
    let mut pre_crash = CollectingSink::new();
    {
        let mut forecast = StaticForecast::default();
        let mut session = Session::open(&r, &mut forecast, EngineConfig::default());
        session.attach_journal(journal.clone());
        for (time, event) in &cmds[..crash_after] {
            session
                .ingest(*time, event.clone())
                .expect("replay order is valid");
            session.advance_to(*time, &mut pre_crash);
        }
        // Dropped without `close`: the crash. The journal survives.
    }
    let delivered = pre_crash.into_decisions();

    // Second incarnation: replay the journal, suppressing exactly the
    // decision prefix the first incarnation already delivered.
    let mut forecast = StaticForecast::default();
    let mut resumed = SkipSink::new(CollectingSink::new(), delivered.len() as u64);
    let mut session = Session::recover(
        &r,
        &mut forecast,
        EngineConfig::default(),
        journal,
        &mut resumed,
    )
    .expect("journal written through ingest replays cleanly");
    assert_eq!(
        resumed.skipped(),
        delivered.len() as u64,
        "replay emitted fewer decisions than the crashed run delivered"
    );
    for (time, event) in &cmds[crash_after..] {
        session
            .ingest(*time, event.clone())
            .expect("replay order is valid");
        session.advance_to(*time, &mut resumed);
    }
    let outcome = session.close(&mut resumed);

    let mut all = delivered;
    all.extend(resumed.into_inner().into_decisions());
    (outcome, all)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Crash → journal recovery is invisible: for every policy on every
    /// generator, a session killed after a proptest-chosen number of
    /// commands and rebuilt from its journal produces the same assignments,
    /// per-worker counts, planning calls, engine counters and the same
    /// client-visible decision stream (no loss, no duplicate) as the run
    /// that never crashed.
    #[test]
    fn recovered_session_is_bitwise_equal_to_uninterrupted(crash_frac in 0.0f64..1.0) {
        let spec = ScenarioSpec::small().with_tasks(60).with_workers(8);
        for scenario in builtin_scenarios(spec) {
            let workload = scenario.generate();
            let n_cmds = commands(&workload).len();
            let crash_after = ((n_cmds as f64) * crash_frac) as usize;
            for policy in POLICIES {
                let label = format!(
                    "{} on {} crashed at {crash_after}/{n_cmds}",
                    policy.name(),
                    scenario.name()
                );
                let (expected, expected_decisions, _) = uninterrupted(policy, &workload);
                let (recovered, recovered_decisions) =
                    crashed_and_recovered(policy, &workload, crash_after);
                prop_assert_eq!(
                    recovered_decisions, expected_decisions,
                    "{}: decision streams diverged", label
                );
                prop_assert_eq!(
                    recovered.run.assigned_tasks, expected.run.assigned_tasks,
                    "{}: assigned totals diverged", label
                );
                prop_assert_eq!(
                    &recovered.run.per_worker, &expected.run.per_worker,
                    "{}: per-worker counts diverged", label
                );
                prop_assert_eq!(
                    recovered.run.planning_calls, expected.run.planning_calls,
                    "{}: planning calls diverged", label
                );
                prop_assert_eq!(
                    recovered.run.events, expected.run.events,
                    "{}: event counts diverged", label
                );
            }
        }
    }

    /// Torn-write safety: a journal truncated at *any* byte offset either
    /// recovers the longest clean record prefix or reports a typed
    /// [`JournalError`] — never a panic, and never records that were not an
    /// exact prefix of the original stream.
    #[test]
    fn truncated_journal_recovers_a_clean_prefix(cut_frac in 0.0f64..1.0) {
        let workload = UniformBaseline::new(
            ScenarioSpec::small().with_tasks(40).with_workers(6),
        )
        .generate();
        let (_, _, bytes) = uninterrupted(PolicyKind::Greedy, &workload);
        let full: Vec<JournalRecord> = EventJournal::from_bytes(bytes.clone())
            .recovered_records()
            .expect("untruncated journal is clean");
        prop_assert!(!full.is_empty());

        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let torn = EventJournal::from_bytes(bytes[..cut].to_vec());
        match torn.recovered_records() {
            Ok(records) => {
                prop_assert!(
                    records.len() <= full.len()
                        && records[..] == full[..records.len()],
                    "recovered records are not a prefix of the original stream"
                );
                // The clean prefix must also replay into a working session.
                let r = runner(PolicyKind::Greedy);
                let mut forecast = StaticForecast::default();
                let mut sink = CollectingSink::new();
                let session = Session::recover(
                    &r,
                    &mut forecast,
                    EngineConfig::default(),
                    torn,
                    &mut sink,
                )
                .expect("clean prefix replays");
                prop_assert!(session.pending() <= full.len());
            }
            Err(err) => {
                // Typed, descriptive — the contract is "no panic, no silent
                // divergence", not "always recoverable".
                let msg = format!("{err}");
                prop_assert!(!msg.is_empty());
            }
        }
    }
}

/// Drives `workload` through a [`ChaosProxy`] into a faulted server and
/// returns what the retrying delivery received, its attempt count and the
/// server's pump recoveries.
fn deliver_through_chaos(
    policy: PolicyKind,
    workload: &Workload,
    plan: ChaosPlan,
    pump_kills: Vec<(String, u64)>,
    seed: u64,
) -> (datawa::net::ClientOutcome, u32, u64) {
    let mut server = NetServer::bind(NetConfig {
        policy,
        pump_kills,
        ..NetConfig::default()
    })
    .expect("bind loopback");
    let mut proxy = ChaosProxy::spawn(server.addr(), plan).expect("bind chaos proxy");

    let log: Vec<Frame> = commands(workload)
        .iter()
        .map(|(time, event)| Frame::from_event(*time, event))
        .collect();
    let policy = RetryPolicy {
        jitter_seed: seed,
        ..RetryPolicy::default()
    };
    let (outcome, attempts) = match NetClient::deliver(proxy.addr(), "chaos", "", &log, &policy) {
        RetryOutcome::Completed { outcome, attempts } => (outcome, attempts),
        RetryOutcome::GaveUp {
            attempts,
            last_error,
        } => panic!("client gave up after {attempts} attempts: {last_error}"),
    };
    let recoveries = server
        .metrics()
        .snapshot()
        .counters
        .get("net.pump_recoveries")
        .copied()
        .unwrap_or(0);
    proxy.shutdown();
    server.shutdown();
    (outcome, attempts, recoveries)
}

/// The wire-level reference: the workload ingested directly, as in
/// `tests/net_equivalence.rs` (events only — the TCP driver sends no
/// explicit advances, so neither does the reference).
fn direct_reference(policy: PolicyKind, workload: &Workload) -> Vec<Decision> {
    let r = runner(policy);
    let mut forecast = StaticForecast::default();
    let mut session = Session::open(&r, &mut forecast, EngineConfig::default());
    for (time, event) in commands(workload) {
        session.ingest(time, event).expect("replay order is valid");
    }
    let mut sink = CollectingSink::new();
    let _ = session.close(&mut sink);
    sink.into_decisions()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// End-to-end healing under three fault classes at proptest-chosen
    /// points — a pump kill mid-stream, a connection reset, and a torn
    /// frame — for every policy: the retrying client's merged stream is
    /// bitwise equal to the uninterrupted direct run, the server's stream
    /// position agrees, and no client-visible decision is lost or
    /// duplicated.
    #[test]
    fn faulted_delivery_heals_to_bitwise_parity(
        kill_at in 20usize..100,
        reset_after in 10usize..80,
        tear_frame in 10usize..80,
        keep_bytes in 1usize..5,
    ) {
        let (kill_at, reset_after, tear_frame) =
            (kill_at as u64, reset_after as u64, tear_frame as u64);
        let workload: Workload = UniformBaseline::new(
            ScenarioSpec::small().with_tasks(100).with_workers(10).with_seed(7),
        )
        .generate();
        for policy in POLICIES {
            let expected = direct_reference(policy, &workload);
            let plan = ChaosPlan {
                conns: vec![
                    Some(Fault::Reset { after_frames: reset_after }),
                    Some(Fault::Truncate { frame: tear_frame, keep_bytes }),
                ],
            };
            let (outcome, attempts, recoveries) = deliver_through_chaos(
                policy,
                &workload,
                plan,
                vec![("chaos".to_string(), kill_at)],
                kill_at ^ reset_after,
            );
            let label = format!(
                "{} kill@{kill_at} reset@{reset_after} tear@{tear_frame}+{keep_bytes}",
                policy.name()
            );
            prop_assert!(attempts > 1, "{}: no fault actually landed", label);
            prop_assert!(recoveries >= 1, "{}: pump kill never fired", label);
            prop_assert_eq!(
                &outcome.decisions, &expected,
                "{}: healed stream diverged from uninterrupted run", label
            );
            let closed = outcome.closed.expect("orderly Closed frame");
            prop_assert_eq!(
                closed.decisions as usize, expected.len(),
                "{}: server stream position diverged (lost or duplicated)", label
            );
        }
    }
}

/// One fixed scenario, every fault and jitter derived from seed 218: two
/// seeded pump kills in the middle half of the stream, a reset on the first
/// connection, a torn frame on the second and one [`ChaosPlan::seeded`]
/// fault on the third, under DTA on a 300-task workload.
#[test]
fn seed_218_plan_heals_to_bitwise_parity() {
    const SEED: u64 = 218;
    let mut rng = StdRng::seed_from_u64(SEED);
    let workload: Workload = UniformBaseline::new(
        ScenarioSpec::small()
            .with_tasks(300)
            .with_workers(20)
            .with_seed(7),
    )
    .generate();
    let expected = direct_reference(PolicyKind::Dta, &workload);
    let sent = commands(&workload).len() as u64;

    // Strictly ordered so both kills fire.
    let kill_a = rng.gen_range(sent / 4..sent / 2);
    let kill_b = rng.gen_range(sent / 2..3 * sent / 4);
    let reset_at = rng.gen_range(10..sent / 2);
    let tear_at = rng.gen_range(10..sent / 2);
    let mut plan = ChaosPlan::seeded(SEED, 1, sent / 2);
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
    let (outcome, attempts, recoveries) = deliver_through_chaos(
        PolicyKind::Dta,
        &workload,
        plan,
        vec![("chaos".to_string(), kill_a), ("chaos".to_string(), kill_b)],
        SEED,
    );

    let label = format!("kills ({kill_a}, {kill_b}) reset@{reset_at} tear@{tear_at}");
    assert!(attempts > 1, "{label}: no fault actually landed");
    assert!(
        recoveries >= 2,
        "{label}: {recoveries} of 2 pump kills recovered"
    );
    assert_eq!(
        outcome.decisions, expected,
        "{label}: healed stream diverged from the uninterrupted run"
    );
    let closed = outcome.closed.expect("orderly Closed frame");
    assert_eq!(
        closed.decisions as usize,
        expected.len(),
        "{label}: server stream position diverged (lost or duplicated)"
    );
    // `closed.events` counts engine-processed events (arrivals plus the
    // expirations the engine schedules itself), so every sent event at
    // least once; a double ingest would also break the bitwise check.
    assert!(
        closed.events >= sent,
        "{label}: engine processed {} events, fewer than the {sent} sent",
        closed.events
    );
}
