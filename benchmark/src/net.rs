//! The `net-greedy` workload: the seeded events over a loopback `NetServer`.
//!
//! The load generator is two threads (the box has two cores): the calling
//! thread sends, a second one blocks on the socket and stamps what comes
//! back. Every client event is followed by `AdvanceTo{same time}`: without
//! it the service only drains once `max_pending` events are admitted, and
//! "latency" would measure that batching. The client sets `TCP_NODELAY` and
//! writes each frame through a `BufWriter`, one `write` per frame: a client
//! that writes length and payload separately with Nagle on measures its own
//! delayed-ACK stall instead of the server.
//!
//! A round is two fresh tenant sessions. *Paced* is an open loop: event `i`
//! is due `i / rate` seconds after the start whatever the server does, a
//! late generator does not shift later due times, and each `Dispatch` is
//! timed from the instant the event that caused it was due. *Saturation*
//! writes the same frames as fast as the socket accepts them and ends when
//! `Closed` arrives.

use crate::inproc::{self, Checks, Prepared, Rounds};
use crate::load::{assign_config, SessionLoad};
use crate::metrics::RunResult;
use crate::session::{check_dispatches, DigestSink};
use crate::stats::{percentile_sorted, Summary};
use crate::sys::{process_cpu_ms, thread_cpu_ms};
use crate::trace::Tracer;
use crate::RunConfig;
use datawa_assign::{AdaptiveRunner, StaticForecast};
use datawa_core::Timestamp;
use datawa_net::wire::{read_frame, write_frame, Frame, PROTOCOL_VERSION};
use datawa_net::{NetConfig, NetServer};
use datawa_service::{DispatchService, IngestSource, PumpStatus, ServiceConfig, SourcePoll};
use datawa_stream::{DecisionSink, Event};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufReader, BufWriter, Read};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Admission limits far above anything one connection can have in flight, so
/// that a refusal is a failure of the program, not of the sizing.
const UNLIMITED_PENDING: usize = 1 << 30;

/// The same events through `DispatchService`: each arrival as `Ready`, then a
/// `Wait` at its time — what `AdvanceTo` becomes on the server.
struct MemSource<'a> {
    arrivals: &'a [(Timestamp, Event)],
    polls: usize,
}

impl IngestSource for MemSource<'_> {
    fn poll(&mut self) -> SourcePoll {
        let Some((time, event)) = self.arrivals.get(self.polls / 2) else {
            return SourcePoll::Exhausted;
        };
        let poll = if self.polls.is_multiple_of(2) {
            SourcePoll::Ready(*time, event.clone())
        } else {
            SourcePoll::Wait(*time)
        };
        self.polls += 1;
        poll
    }

    fn remaining(&self) -> usize {
        self.arrivals.len() - self.polls.div_ceil(2)
    }
}

/// The reference run through `DispatchService`.
struct ServiceRun {
    wall_ns: u64,
    events: u64,
    digest: u64,
    decisions: u64,
    backpressure_flushes: u64,
    backlog_high_water: u64,
}

fn run_service(runner: &AdaptiveRunner, load: &SessionLoad, tracer: Option<&Tracer>) -> ServiceRun {
    let mut forecast = StaticForecast::default();
    let source = MemSource {
        arrivals: &load.arrivals,
        polls: 0,
    };
    if let Some(t) = tracer {
        t.enter("service");
    }
    let started = Instant::now();
    let mut service = DispatchService::open(
        runner,
        &mut forecast,
        source,
        DigestSink::default(),
        ServiceConfig::default(),
    );
    while service.pump() != PumpStatus::SourceDrained {}
    let (outcome, stats, sink) = service.finish();
    let wall_ns = started.elapsed().as_nanos() as u64;
    if let Some(t) = tracer {
        t.exit();
    }
    ServiceRun {
        wall_ns,
        events: outcome.stats.events_processed as u64,
        digest: sink.digest,
        decisions: sink.decisions,
        backpressure_flushes: stats.backpressure_flushes as u64,
        backlog_high_water: stats.backlog_high_water as u64,
    }
}

/// Counts the bytes read from the socket.
struct CountingReader {
    inner: TcpStream,
    bytes: Arc<std::sync::atomic::AtomicU64>,
}

impl Read for CountingReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        // Relaxed: a statistic read after the reader thread is joined.
        self.bytes
            .fetch_add(n as u64, std::sync::atomic::Ordering::Relaxed);
        Ok(n)
    }
}

/// Totals of the `Closed` frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ClosedTotals {
    assigned: u64,
    decisions: u64,
    events: u64,
    planning_calls: u64,
}

/// What the reader thread saw.
struct Received {
    closed: Option<(ClosedTotals, Instant)>,
    sink: DigestSink,
    /// Ascending due-to-receipt times of the dispatches of a paced session.
    latencies_ns: Vec<u64>,
    /// Dispatches whose `at` is no sent event's time.
    unmatched: u64,
    /// `RetryAfter` and `Error` frames.
    refused: u64,
    frames: u64,
    cpu_ms: f64,
}

/// One tenant session over the socket.
struct NetSession {
    /// First event written to `Closed` received.
    wall_ns: u64,
    connect_ns: u64,
    /// `Close` written to `Closed` received.
    close_drain_ns: u64,
    closed: Option<ClosedTotals>,
    received: Received,
    /// Ascending send-time minus due-time of every event (paced sessions).
    late_ns: Vec<u64>,
    bytes_out: u64,
    bytes_in: u64,
    /// A socket error ended the session early.
    broken: Option<String>,
}

/// What a client needs to replay the load.
struct Client<'a> {
    addr: SocketAddr,
    /// Event frame and `AdvanceTo` frame, alternating.
    frames: &'a [Frame],
    bytes_out: u64,
    /// Index of the first client event with a given time (`f64` bits).
    first_index: Arc<HashMap<u64, u32>>,
    /// Open-loop rate of the paced session, client events per second.
    paced_rate: f64,
    /// The load behind `frames` and what every session must reproduce.
    load: &'a SessionLoad,
    reference: Reference,
}

/// What the reader thread needs besides the socket.
struct ReceivePlan {
    first_index: Arc<HashMap<u64, u32>>,
    /// Start of the paced clock and the interval between due times.
    pacing: Option<(Instant, Duration)>,
    events: usize,
}

fn receive(mut reader: BufReader<CountingReader>, plan: ReceivePlan) -> Received {
    let cpu_before = thread_cpu_ms();
    let mut received = Received {
        closed: None,
        sink: DigestSink::default(),
        latencies_ns: Vec::new(),
        unmatched: 0,
        refused: 0,
        frames: 0,
        cpu_ms: 0.0,
    };
    received.sink.dispatches.reserve(plan.events);
    while let Ok(frame) = read_frame(&mut reader) {
        let now = Instant::now();
        received.frames += 1;
        match frame {
            Frame::Closed {
                assigned,
                decisions,
                events,
                planning_calls,
            } => {
                let totals = ClosedTotals {
                    assigned,
                    decisions,
                    events,
                    planning_calls,
                };
                received.closed = Some((totals, now));
                break;
            }
            Frame::RetryAfter { .. } | Frame::Error { .. } => received.refused += 1,
            frame => {
                if let (Frame::Dispatch { at, .. }, Some((start, interval))) = (&frame, plan.pacing)
                {
                    match plan.first_index.get(&at.0.to_bits()) {
                        Some(&i) => {
                            let due = start + interval * i;
                            received
                                .latencies_ns
                                .push(now.saturating_duration_since(due).as_nanos() as u64);
                        }
                        None => received.unmatched += 1,
                    }
                }
                if let Some(decision) = frame.into_decision() {
                    received.sink.emit(decision);
                }
            }
        }
    }
    received.latencies_ns.sort_unstable();
    received.cpu_ms = thread_cpu_ms() - cpu_before;
    received
}

impl Client<'_> {
    /// Opens a fresh tenant session, sends every frame (paced at `rate`
    /// client events per second, or unpaced), closes, and waits for `Closed`.
    fn session(&self, tenant: &str, rate: Option<f64>, tracer: Option<&Tracer>) -> NetSession {
        let enter = |name| {
            if let Some(t) = tracer {
                t.enter(name);
            }
        };
        let exit = || {
            if let Some(t) = tracer {
                t.exit();
            }
        };
        let bytes_in = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut broken = None;

        enter("net.connect");
        let connect_started = Instant::now();
        let stream = TcpStream::connect(self.addr).expect("loopback connect");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        let mut writer = BufWriter::new(stream.try_clone().expect("clone socket"));
        let mut reader = BufReader::new(CountingReader {
            inner: stream,
            bytes: Arc::clone(&bytes_in),
        });
        let hello = Frame::Hello {
            version: PROTOCOL_VERSION,
            tenant: tenant.to_string(),
            token: String::new(),
        };
        if write_frame(&mut writer, &hello).is_err()
            || !matches!(read_frame(&mut reader), Ok(Frame::HelloAck { .. }))
        {
            broken = Some("handshake failed".to_string());
        }
        let connect_ns = connect_started.elapsed().as_nanos() as u64;
        exit();

        let events = self.frames.len() / 2;
        let interval = rate.map(|r| Duration::from_secs_f64(1.0 / r));
        // The paced clock starts a moment from now, so the reader thread is
        // already blocked on the socket when the first event is due.
        let start = Instant::now() + Duration::from_millis(2);
        let plan = ReceivePlan {
            first_index: Arc::clone(&self.first_index),
            pacing: interval.map(|i| (start, i)),
            events,
        };
        let reader_thread = std::thread::spawn(move || receive(reader, plan));

        enter("net.send");
        let mut late_ns = Vec::with_capacity(if interval.is_some() { events } else { 0 });
        let mut first_write = None;
        if broken.is_none() {
            for (i, pair) in self.frames.chunks_exact(2).enumerate() {
                if let Some(interval) = interval {
                    let due = start + interval * i as u32;
                    let mut now = Instant::now();
                    if now < due {
                        std::thread::sleep(due - now);
                        now = Instant::now();
                    }
                    late_ns.push(now.saturating_duration_since(due).as_nanos() as u64);
                }
                first_write.get_or_insert_with(Instant::now);
                if let Err(e) = write_frame(&mut writer, &pair[0])
                    .and_then(|()| write_frame(&mut writer, &pair[1]))
                {
                    broken = Some(format!("socket write failed at event {i}: {e}"));
                    break;
                }
            }
        }
        exit();

        enter("net.close_drain");
        let close_sent = Instant::now();
        if let Err(e) = write_frame(&mut writer, &Frame::Close) {
            broken.get_or_insert(format!("socket write failed at Close: {e}"));
            // The reader would otherwise wait for a `Closed` that cannot come.
            let _ = writer.get_ref().shutdown(std::net::Shutdown::Both);
        }
        let received = reader_thread.join().expect("reader thread panicked");
        exit();

        let first_write = first_write.unwrap_or(close_sent);
        let closed_at = received.closed.map_or_else(Instant::now, |(_, at)| at);
        let since = |later: Instant, earlier: Instant| {
            later.saturating_duration_since(earlier).as_nanos() as u64
        };
        late_ns.sort_unstable();
        NetSession {
            wall_ns: since(closed_at, first_write),
            connect_ns,
            close_drain_ns: since(closed_at, close_sent),
            closed: received.closed.map(|(totals, _)| totals),
            received,
            late_ns,
            bytes_out: self.bytes_out,
            bytes_in: bytes_in.load(std::sync::atomic::Ordering::Relaxed),
            broken,
        }
    }
}

/// One round over the socket: a paced session, then a saturation session.
struct NetRound {
    paced: NetSession,
    saturation: NetSession,
    /// Process CPU over both sessions minus the generator's two threads.
    cpu_ms: f64,
    /// Heap growth and allocation count over both sessions, when this was
    /// the round that measured them.
    memory: Option<crate::alloc::Measured>,
}

impl NetRound {
    fn sessions(&self) -> [&NetSession; 2] {
        [&self.paced, &self.saturation]
    }

    fn events(&self) -> u64 {
        self.sessions()
            .iter()
            .map(|s| s.closed.map_or(0, |c| c.events))
            .sum()
    }

    /// Engine events of the saturation session over its wall.
    fn events_per_s(&self) -> f64 {
        self.saturation.closed.map_or(0, |c| c.events) as f64
            / (self.saturation.wall_ns as f64 / 1e9)
    }

    /// Percentile `p` of the paced session's due-to-receipt times.
    fn latency_ms(&self, p: f64) -> f64 {
        let sorted_ns = &self.paced.received.latencies_ns;
        if sorted_ns.is_empty() {
            return f64::NAN;
        }
        percentile_sorted(sorted_ns, p) as f64 / 1e6
    }

    fn cpu_ms_per_kevent(&self) -> f64 {
        self.cpu_ms / (self.events() as f64 / 1000.0)
    }
}

/// The reference every session over the socket must reproduce.
struct Reference {
    totals: ClosedTotals,
    digest: u64,
}

fn run_round(
    cfg: &RunConfig,
    client: &Client<'_>,
    label: &str,
    tracer: Option<&Tracer>,
    measure_memory: bool,
    checks: &mut Checks,
) -> NetRound {
    let (load, reference) = (client.load, &client.reference);
    if let Some(t) = tracer {
        t.enter("round");
    }
    if measure_memory {
        cfg.alloc.start();
    }
    let cpu_before = process_cpu_ms();
    let sender_cpu_before = thread_cpu_ms();
    let paced = client.session(&format!("{label}-paced"), Some(client.paced_rate), tracer);
    let saturation = client.session(&format!("{label}-saturation"), None, tracer);
    let generator_cpu_ms =
        (thread_cpu_ms() - sender_cpu_before) + paced.received.cpu_ms + saturation.received.cpu_ms;
    let cpu_ms = (process_cpu_ms() - cpu_before - generator_cpu_ms).max(0.0);
    let memory = measure_memory.then(|| cfg.alloc.stop());
    if let Some(t) = tracer {
        t.exit();
    }

    for (kind, session) in [("paced", &paced), ("saturation", &saturation)] {
        let sent = load.arrivals.len() as u64;
        // Two frames per client event; a refusal frame refuses one of them.
        checks.ops(
            2 * sent,
            session.received.refused,
            "frames answered with RetryAfter or Error",
        );
        checks.check(session.broken.is_none(), || {
            format!(
                "{label} {kind}: {}",
                session.broken.clone().unwrap_or_default()
            )
        });
        checks.check(session.closed == Some(reference.totals), || {
            format!(
                "{label} {kind}: Closed reported {:?}, the in-process run {:?}",
                session.closed, reference.totals
            )
        });
        checks.check(session.received.sink.digest == reference.digest, || {
            format!(
                "{label} {kind}: decision digest {:016x} differs from DispatchService in-process {:016x}",
                session.received.sink.digest, reference.digest
            )
        });
        let violations = check_dispatches(&session.received.sink.dispatches, &load.tasks);
        checks.check(violations.is_empty(), || violations.join("; "));
    }
    checks.check(paced.received.unmatched == 0, || {
        format!(
            "{label}: {} dispatches carry an `at` that is no sent event's time",
            paced.received.unmatched
        )
    });
    NetRound {
        paced,
        saturation,
        cpu_ms,
        memory,
    }
}

/// Encode and decode cost of the client frames, per frame.
fn codec_ns_per_frame(frames: &[Frame], tracer: &Tracer) -> (f64, f64) {
    tracer.enter("probe.encode");
    let payloads: Vec<Vec<u8>> = frames.iter().map(Frame::encode).collect();
    let encode_ns = tracer.exit();
    tracer.enter("probe.decode");
    for payload in &payloads {
        std::hint::black_box(Frame::decode(payload).expect("own frames decode"));
    }
    let decode_ns = tracer.exit();
    let n = frames.len().max(1) as f64;
    (encode_ns as f64 / n, decode_ns as f64 / n)
}

/// What the set-up of `net-greedy` makes from the seed: the load and its
/// frames, the in-process references, and a server bound to a loopback port.
struct SetUp {
    prepared: Prepared,
    /// The same events through a bare session, whose journal recovery
    /// replays.
    bare: inproc::Round,
    reference: Reference,
    /// Event frame and `AdvanceTo` frame, alternating.
    frames: Vec<Frame>,
    first_index: Arc<HashMap<u64, u32>>,
    server: NetServer,
}

fn set_up(cfg: &RunConfig, checks: &mut Checks) -> SetUp {
    let prepared = inproc::prepare(cfg);
    let (plan, runner) = (&prepared.plan, &prepared.runner);
    let load = &plan.sessions[0];
    // The same events in-process, twice: through a bare session and through
    // `DispatchService`, whose decision stream every session over the socket
    // must reproduce bit for bit.
    let mut factory = inproc::forecast_factory(&prepared, cfg.seed);
    let bare = inproc::run_round(cfg, runner, plan, &mut factory, None, false, checks);
    let service = run_service(runner, load, None);
    checks.check(
        service.digest == bare.journaled[0].full_digest && service.events == bare.events,
        || "DispatchService and a bare session disagree on the same events".to_string(),
    );
    let reference = Reference {
        totals: ClosedTotals {
            assigned: bare.assigned,
            decisions: service.decisions,
            events: service.events,
            planning_calls: bare.planning_calls,
        },
        digest: service.digest,
    };
    let frames: Vec<Frame> = load
        .arrivals
        .iter()
        .flat_map(|(time, event)| {
            [
                Frame::from_event(*time, event),
                Frame::AdvanceTo { time: *time },
            ]
        })
        .collect();
    let mut first_index = HashMap::with_capacity(load.arrivals.len());
    for (i, (time, _)) in load.arrivals.iter().enumerate() {
        first_index.entry(time.0.to_bits()).or_insert(i as u32);
    }
    let server = NetServer::bind(NetConfig {
        policy: plan.policy,
        assign: assign_config(),
        service: ServiceConfig::default(),
        tenant_pending_quota: UNLIMITED_PENDING,
        global_pending_cap: UNLIMITED_PENDING,
        ..NetConfig::default()
    })
    .expect("bind a loopback port");
    SetUp {
        prepared,
        bare,
        reference,
        frames,
        first_index: Arc::new(first_index),
        server,
    }
}

/// Runs the `net-greedy` workload.
pub fn run(cfg: &RunConfig) -> RunResult {
    let sizing = cfg.scale.sizing();
    let mut checks = Checks::default();

    // ---- set-up -----------------------------------------------------------
    let (made, set_ups_s) = inproc::repeat_set_up(cfg, || set_up(cfg, &mut checks));
    let SetUp {
        prepared,
        bare,
        reference,
        frames,
        first_index,
        mut server,
    } = made;
    let (plan, runner) = (&prepared.plan, &prepared.runner);
    let load = &plan.sessions[0];
    let mut factory = inproc::forecast_factory(&prepared, cfg.seed);
    let client = Client {
        addr: server.addr(),
        frames: &frames,
        bytes_out: frames.iter().map(|f| 4 + f.encode().len() as u64).sum(),
        first_index,
        paced_rate: sizing.paced_rate,
        load,
        reference,
    };
    let reference = &client.reference;
    // The warm-up round also measures memory: see `alloc`.
    let warmup_started = Instant::now();
    let warmup = run_round(cfg, &client, "warmup", None, true, &mut checks);
    let setup_s = inproc::setup_seconds(&set_ups_s, warmup_started);

    // ---- timed rounds -----------------------------------------------------
    let tracer = cfg.traced.then(Tracer::new);
    if let Some(t) = &tracer {
        t.enter("run");
    }
    let mut rounds: Vec<NetRound> = Vec::new();
    let mut recovery_s = Vec::new();
    let mut recovered_events = 0;
    for index in 0..inproc::timed_rounds(cfg) {
        let label = format!("round{index}");
        rounds.push(run_round(
            cfg,
            &client,
            &label,
            tracer.as_ref(),
            false,
            &mut checks,
        ));
        if inproc::recovery_due(cfg, index) {
            let (seconds, events) =
                inproc::recover_round(runner, plan, &mut factory, &bare, &mut checks);
            recovery_s.push(seconds);
            recovered_events = events;
        }
    }
    server.shutdown();
    inproc::print_round_walls(
        rounds
            .iter()
            .map(|r| r.paced.wall_ns + r.saturation.wall_ns),
    );

    // ---- metrics ----------------------------------------------------------
    let over = |f: &dyn Fn(&NetRound) -> f64| -> Summary {
        Summary::of(&rounds.iter().map(f).collect::<Vec<_>>())
    };
    let mut values: BTreeMap<&'static str, Summary> = BTreeMap::new();
    match &tracer {
        None => {
            values.insert("setup_s", setup_s);
            let best = |higher_is_better: bool, f: &dyn Fn(&NetRound) -> f64| -> Summary {
                Summary::best(&rounds.iter().map(f).collect::<Vec<_>>(), higher_is_better)
            };
            values.insert("events_per_s", best(true, &NetRound::events_per_s));
            values.insert(
                "decision_latency_p50_ms",
                best(false, &|r| r.latency_ms(50.0)),
            );
            values.insert(
                "decision_latency_p90_ms",
                best(false, &|r| r.latency_ms(90.0)),
            );
            values.insert(
                "mem_high_water_mb",
                Summary::single(warmup.memory.map_or(0.0, |m| m.high_water_mb())),
            );
            values.insert("recovery_s", Summary::best(&recovery_s, false));
            values.insert(
                "assigned_tasks",
                Summary::single(reference.totals.assigned as f64),
            );
        }
        Some(tracer) => {
            // The layers under the socket, measured in-process on the same
            // events: one more untraced and one traced session.
            let untraced_round =
                inproc::run_round(cfg, runner, plan, &mut factory, None, false, &mut checks);
            let traced_round = inproc::run_round(
                cfg,
                runner,
                plan,
                &mut factory,
                Some(tracer),
                false,
                &mut checks,
            );
            let inproc_rounds = Rounds {
                warmup: bare,
                untraced: vec![untraced_round],
                traced: vec![traced_round],
                recovery_s: recovery_s.clone(),
                recovered_events,
            };
            inproc_rounds.check_counts(&mut checks);
            inproc::layer_values(cfg, &prepared, &inproc_rounds, tracer, &mut values);
            let service = run_service(runner, load, Some(tracer));

            let events = reference.totals.events as f64;
            let session_us = values["stream.session_us_per_event"].value;
            let pump_us = service.wall_ns as f64 / 1e3 / events;
            let loopback = over(&|r| r.saturation.wall_ns as f64 / 1e3 / events);
            let (encode_ns, decode_ns) = codec_ns_per_frame(&frames, tracer);
            let sessions = |f: &dyn Fn(&NetSession) -> f64| -> Summary {
                Summary::of(
                    &rounds
                        .iter()
                        .flat_map(NetRound::sessions)
                        .map(f)
                        .collect::<Vec<_>>(),
                )
            };
            let single = Summary::single;
            values.insert("net.encode_ns_per_frame", single(encode_ns));
            values.insert("net.decode_ns_per_frame", single(decode_ns));
            values.insert(
                "net.wire_bytes_per_event",
                over(&|r| (r.paced.bytes_out + r.paced.bytes_in) as f64 / events),
            );
            values.insert(
                "net.frames_out_per_event",
                over(&|r| r.paced.received.frames as f64 / events),
            );
            values.insert("net.connect_ms", sessions(&|s| s.connect_ns as f64 / 1e6));
            values.insert(
                "net.close_drain_ms",
                sessions(&|s| s.close_drain_ns as f64 / 1e6),
            );
            values.insert("net.loopback_us_per_event", loopback);
            values.insert(
                "net.overhead_us_per_event",
                single(loopback.value - pump_us),
            );
            values.insert(
                "net.refused_frames",
                single(
                    rounds
                        .iter()
                        .flat_map(NetRound::sessions)
                        .map(|s| s.received.refused)
                        .sum::<u64>() as f64,
                ),
            );
            values.insert(
                "net.generator_late_p90_ms",
                over(&|r| percentile_sorted(&r.paced.late_ns, 90.0) as f64 / 1e6),
            );
            values.insert("net.decision_latency_p99_ms", over(&|r| r.latency_ms(99.0)));
            values.insert("service.pump_us_per_event", single(pump_us));
            values.insert(
                "service.overhead_us_per_event",
                single(pump_us - session_us),
            );
            values.insert(
                "service.backpressure_flushes",
                single(service.backpressure_flushes as f64),
            );
            values.insert(
                "service.backlog_high_water",
                single(service.backlog_high_water as f64),
            );
            // On this workload the allocations that matter are the ones of
            // the whole stack under the socket.
            values.insert(
                "obs.allocs_per_event",
                single(warmup.memory.map_or(0, |m| m.allocations) as f64 / warmup.events() as f64),
            );
            // Likewise the CPU: the server's threads behind the socket.
            values.insert("obs.cpu_ms_per_kevent", over(&NetRound::cpu_ms_per_kevent));
            println!(
                "per event: stream.session {session_us:.3} us + service.overhead {:.3} us + net.overhead {:.3} us = net.loopback {:.3} us",
                pump_us - session_us,
                loopback.value - pump_us,
                loopback.value
            );
            inproc::finish_trace(cfg, tracer, &mut checks);
        }
    }
    inproc::finish(cfg, rounds.len(), checks, values)
}
