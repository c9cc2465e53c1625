//! The threaded TCP acceptor: many concurrent client connections, one
//! dispatch session per tenant, admission control in front of the pump.
//!
//! ## Threads
//!
//! * **Acceptor** — blocks on `accept`, enforces the global connection cap
//!   (over-cap connections get a [`Frame::RetryAfter`] and are closed), and
//!   spawns one *connection* thread per accepted socket.
//! * **Connection (reader)** — performs the `Hello` handshake, registers
//!   the tenant (one live connection per tenant name), then decodes frames
//!   and applies admission control before pushing events into the tenant's
//!   [`NetSource`]. Protocol violations answer with a typed
//!   [`Frame::Error`] and close *this* connection only — a misbehaving
//!   client can never stall another tenant's session.
//! * **Pump** — one per tenant connection: owns the tenant's
//!   [`AdaptiveRunner`] and [`DispatchService`] and blocks on the
//!   `NetSource` channel. A routing `FrameSink` encodes every [`Decision`]
//!   into the pump's `Outbox`, which goes to the owning socket in one write
//!   when the channel runs dry (just before the pump would block), when it
//!   holds `OUTBOX_FLUSH_BYTES`, and before the session totals go out as a
//!   [`Frame::Closed`]. So the decisions of one wake leave together and
//!   none waits for the next command. Every socket has `TCP_NODELAY` on:
//!   each write is a whole frame or a run of them, and Nagle's algorithm
//!   could only hold one back until the client acknowledged the last.
//!
//! ## Admission control
//!
//! Three layers, all answering with retry-after frames instead of silently
//! dropping (the refused event is *not* ingested; the client owns the
//! retry):
//!
//! 1. **Connection cap** (`max_connections`) at accept time.
//! 2. **Global backlog cap** (`global_pending_cap`): when the sum of all
//!    tenants' un-pumped backlogs exceeds it, the *stalest* tenant (oldest
//!    live connection) is shed — its ingests are refused with
//!    [`RetryReason::GlobalOverload`] until pressure clears.
//! 3. **Per-tenant quota** (`tenant_pending_quota`): a tenant whose own
//!    backlog exceeds its quota is refused with
//!    [`RetryReason::TenantQuota`].
//!
//! Below all of that, each session still runs the service layer's bounded
//! backlog (`ServiceConfig::max_pending`), so an admitted burst drains
//! through the engine exactly like any other `DispatchService` run.
//!
//! ## Fault tolerance
//!
//! Every tenant carries a **ledger** that outlives individual connections:
//! an append-only [`EventJournal`] of every admitted command plus the count
//! of decisions written back. The pump thread runs under a supervisor
//! (`catch_unwind`): a panicking pump — injected by the chaos harness or
//! genuine — is restarted from the journal via
//! [`DispatchService::open_recovered`], with a [`SkipSink`] suppressing the
//! replayed decision prefix already written to the client; decisions still
//! in the dead pump's outbox are replayed and sent. The supervisor
//! owns the tenant's [`NetSource`] and lends it to each incarnation, so
//! commands admitted but not yet pumped survive the crash too. Because the
//! engine is deterministic over its command sequence, the client-visible
//! decision stream continues with neither losses nor duplicates. While a
//! replay is in flight the reader refuses new events with
//! [`RetryReason::Recovering`] instead of presenting a dead socket.
//!
//! Admission refusals are **sticky per connection**: after the first refusal
//! every subsequent command is refused with the same reason until the client
//! reconnects. This guarantees the admitted sequence is an exact prefix of
//! the client's command log, which makes count-based resume exact: a
//! reconnecting client sends [`Frame::Resume`] with the decision count it
//! received, the server answers [`Frame::ResumeAck`] with the admitted
//! command count, and the client resends its log from that index. An orderly
//! `Close` ends the tenant's journaled identity; an unclean end (disconnect,
//! protocol error, shed) preserves the ledger for resume and skips the
//! session drain entirely, so no decision is fabricated on a dead stream.

use crate::wire::{read_frame, write_frame, ErrorCode, Frame, RetryReason, WireError};
use datawa_assign::{AdaptiveRunner, AssignConfig, PolicyKind, StaticForecast, TaskValueFunction};
use datawa_obs::{Counter, Histogram, MetricsRegistry};
use datawa_service::{
    DispatchService, IngestSource, NetSource, NetSourceHandle, PumpStatus, ServiceConfig,
    SourcePoll,
};
use datawa_stream::{Decision, DecisionSink, EventJournal, SkipSink};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// The `(hidden width, seed)` of every tenant's Task Value Function (DATA-WA
/// only). Every tenant pump builds its TVF from this pair, so a direct run
/// constructed with `TaskValueFunction::new(hidden, seed)` is bit-identical.
pub const TENANT_TVF: (usize, u64) = (8, 0);

/// Server configuration: which policy tenants run, and where the admission
/// limits sit.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Assignment policy every tenant session runs.
    pub policy: PolicyKind,
    /// Planner configuration (travel model, search caps, …).
    pub assign: AssignConfig,
    /// Per-session service behaviour (engine config, bounded backlog).
    pub service: ServiceConfig,
    /// Shared-secret token `Hello` frames must carry; `None` disables auth.
    pub auth_token: Option<String>,
    /// Global cap on concurrently served connections.
    pub max_connections: usize,
    /// Per-tenant bound on events pushed but not yet pumped.
    pub tenant_pending_quota: usize,
    /// Server-wide bound on the summed backlog before the stalest tenant is
    /// shed.
    pub global_pending_cap: usize,
    /// Backoff carried in retry-after frames, in seconds.
    pub retry_after_secs: f64,
    /// Deterministic fault injection: `(tenant, n)` entries panic that
    /// tenant's pump at the instant its journal holds exactly `n` events —
    /// i.e. just before the `n+1`-th event would be admitted. Each entry
    /// fires once; the supervisor then recovers the pump from its journal.
    /// Empty (the default) disables injection.
    pub pump_kills: Vec<(String, u64)>,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            policy: PolicyKind::Greedy,
            assign: AssignConfig::default(),
            service: ServiceConfig::default(),
            auth_token: None,
            max_connections: 64,
            tenant_pending_quota: 1024,
            global_pending_cap: 8192,
            retry_after_secs: 0.05,
            pump_kills: Vec::new(),
        }
    }
}

/// Admission-control state of one live tenant connection.
struct TenantSlot {
    /// A clone of the tenant's source handle — `pending()` is the tenant's
    /// un-pumped backlog, which the global-pressure sum reads. Taken (set to
    /// `None`) at teardown so the channel can exhaust while the slot itself
    /// keeps blocking re-registration until the pump has fully drained.
    handle: Option<NetSourceHandle>,
    /// Set when the global cap shed this tenant; cleared by its own reader
    /// once pressure drops back under the cap.
    shed: Arc<AtomicBool>,
    /// Connection sequence number — lower = older = first to be shed.
    seq: u64,
}

/// The per-tenant state that outlives any one connection: the journal of
/// every admitted command, the count of decisions streamed back so far, and
/// whether a crashed pump is currently replaying.
///
/// Created on the tenant's first connection; removed only by an orderly
/// `Close` (which ends the journaled identity) — an unclean disconnect
/// leaves the ledger in place so the next connection can resume against it.
struct TenantLedger {
    journal: EventJournal,
    /// Client commands (events *and* advances) admitted by the reader,
    /// cumulative across resumed connections. This — not the journal's
    /// record count — is what `ResumeAck` reports: the journal also holds
    /// service-generated backpressure-flush advances, which the client
    /// never sent and must not count against its command log.
    admitted_commands: AtomicU64,
    /// Decisions actually written towards the client, cumulative across
    /// resumed connections; decisions still in a pump's outbox do not
    /// count. A restarted pump skips exactly this many replayed decisions
    /// (or the client-reported `Resume` count after a reconnect).
    decisions_streamed: Arc<AtomicU64>,
    /// Set by the pump supervisor while a journal replay is in flight; the
    /// reader answers events with [`RetryReason::Recovering`] meanwhile.
    recovering: AtomicBool,
}

/// State shared by the acceptor and every connection/pump thread.
struct Shared {
    cfg: NetConfig,
    obs: MetricsRegistry,
    live_connections: AtomicUsize,
    conn_seq: AtomicU64,
    tenants: Mutex<BTreeMap<String, TenantSlot>>,
    ledgers: Mutex<BTreeMap<String, Arc<TenantLedger>>>,
    stop: AtomicBool,
}

impl Shared {
    fn new(cfg: NetConfig) -> Shared {
        Shared {
            cfg,
            obs: MetricsRegistry::new(),
            live_connections: AtomicUsize::new(0),
            conn_seq: AtomicU64::new(0),
            tenants: Mutex::new(BTreeMap::new()),
            ledgers: Mutex::new(BTreeMap::new()),
            stop: AtomicBool::new(false),
        }
    }

    /// Summed un-pumped backlog across every live tenant.
    fn global_pending(&self) -> usize {
        let tenants = self.tenants.lock().expect("tenant registry poisoned");
        tenants
            .values()
            .map(|t| t.handle.as_ref().map_or(0, NetSourceHandle::pending))
            .sum()
    }

    /// Marks the stalest (oldest-connection) un-shed tenant for shedding.
    fn shed_stalest(&self) {
        let tenants = self.tenants.lock().expect("tenant registry poisoned");
        if tenants.values().any(|t| t.shed.load(Ordering::SeqCst)) {
            return; // one sacrifice at a time; re-evaluated as pressure persists
        }
        if let Some(stalest) = tenants
            .values()
            .filter(|t| t.handle.is_some())
            .min_by_key(|t| t.seq)
        {
            stalest.shed.store(true, Ordering::SeqCst);
        }
    }

    /// The tenant's ledger, created on first use.
    fn ledger_for(&self, tenant: &str) -> Arc<TenantLedger> {
        let mut ledgers = self.ledgers.lock().expect("ledger registry poisoned");
        Arc::clone(ledgers.entry(tenant.to_string()).or_insert_with(|| {
            Arc::new(TenantLedger {
                journal: EventJournal::in_memory(),
                admitted_commands: AtomicU64::new(0),
                decisions_streamed: Arc::new(AtomicU64::new(0)),
                recovering: AtomicBool::new(false),
            })
        }))
    }
}

/// Handles to the obs counters a connection touches per frame.
struct ConnMetrics {
    frames_in: Counter,
    frames_out: Counter,
    rejected: Counter,
    ingest_seconds: Histogram,
    tenant_frames_in: Counter,
    tenant_rejected: Counter,
}

impl ConnMetrics {
    fn for_tenant(obs: &MetricsRegistry, tenant: &str) -> ConnMetrics {
        ConnMetrics {
            frames_in: obs.counter("net.frames_in"),
            frames_out: obs.counter("net.frames_out"),
            rejected: obs.counter("net.rejected_admission"),
            ingest_seconds: obs.histogram("net.ingest_seconds"),
            tenant_frames_in: obs.counter(&format!("net.tenant.{tenant}.frames_in")),
            tenant_rejected: obs.counter(&format!("net.tenant.{tenant}.rejected")),
        }
    }
}

/// The socket's write half, shared between the reader (errors, retry-afters,
/// acks: one frame per lock) and the pump's [`Outbox`] (a run of decisions
/// per lock), so frames never interleave mid-frame.
type SharedWriter = Arc<Mutex<TcpStream>>;

/// Every spawned connection thread plus a clone of its socket's read half,
/// kept so [`NetServer::shutdown`] can unblock a parked reader and join it.
type WorkerList = Arc<Mutex<Vec<(JoinHandle<()>, TcpStream)>>>;

/// Writes one frame, counting it; a write failure (client already gone)
/// must not kill the session — the pump still drains and the totals still
/// land in the obs registry.
fn send(writer: &SharedWriter, frames_out: &Counter, frame: &Frame) {
    let mut stream = writer.lock().expect("connection writer poisoned");
    if write_frame(&mut *stream, frame).is_ok() {
        frames_out.inc();
    }
}

/// Buffered decision bytes at which a pump writes its outbox even though
/// the tenant queue still holds commands. It bounds the memory a burst can
/// pin and how long the first decision of a burst waits.
const OUTBOX_FLUSH_BYTES: usize = 8 * 1024;

/// One pump incarnation's decision frames, encoded but not yet written.
///
/// A flush writes the whole buffer with one lock and one `write_all`. The
/// tenant's streamed count moves only then: it lives in the ledger (not
/// here) so it survives pump restarts and reconnects, and it is exactly
/// the resume skip of the next incarnation — a pump that dies with frames
/// still buffered replays them instead of losing them.
///
/// The count is a stream *position* (the skip this incarnation opened with
/// plus the frames pushed since), not a write counter: after a reconnect
/// resumes below the old high-water mark, the re-streamed span must not be
/// double-counted, so each flush stores its absolute position rather than
/// incrementing.
struct Outbox {
    writer: SharedWriter,
    bytes: Vec<u8>,
    /// Frames in `bytes`.
    frames: u64,
    /// Stream position just past the last frame in `bytes`.
    position: u64,
    streamed: Arc<AtomicU64>,
    frames_out: Counter,
    writes: Counter,
}

impl Outbox {
    fn push(&mut self, decision: &Decision) {
        Frame::from_decision(decision).encode_into(&mut self.bytes);
        self.frames += 1;
        self.position += 1;
        if self.bytes.len() >= OUTBOX_FLUSH_BYTES {
            self.flush();
        }
    }

    /// Writes every buffered frame at once. A failed write (client already
    /// gone) must not kill the session — the pump still drains and the
    /// totals still land in the obs registry — and the frames still count
    /// as streamed: a client that reconnects says with `Resume` what it
    /// actually received.
    fn flush(&mut self) {
        if self.frames == 0 {
            return;
        }
        let written = self
            .writer
            .lock()
            .expect("connection writer poisoned")
            .write_all(&self.bytes)
            .is_ok();
        if written {
            self.frames_out.add(self.frames);
            self.writes.inc();
        }
        self.streamed.store(self.position, Ordering::SeqCst);
        self.bytes.clear();
        self.frames = 0;
    }
}

/// The routing [`DecisionSink`]: encodes every decision of one tenant's
/// session into that pump's [`Outbox`].
struct FrameSink<'o> {
    outbox: &'o RefCell<Outbox>,
    tenant_decisions: Counter,
}

impl DecisionSink for FrameSink<'_> {
    fn emit(&mut self, decision: Decision) {
        self.tenant_decisions.inc();
        self.outbox.borrow_mut().push(&decision);
    }
}

/// The tenant's channel as its pump polls it: when no command is queued,
/// the outbox is written before the poll blocks.
struct OutboxSource<'o> {
    source: &'o mut NetSource,
    outbox: &'o RefCell<Outbox>,
}

impl IngestSource for OutboxSource<'_> {
    fn poll(&mut self) -> SourcePoll {
        if let Some(poll) = self.source.try_poll() {
            return poll;
        }
        self.outbox.borrow_mut().flush();
        self.source.poll()
    }

    fn remaining(&self) -> usize {
        self.source.remaining()
    }
}

/// A running TCP front-end. Bound to a loopback address; dropped or
/// [`shutdown`](NetServer::shutdown) servers join every thread they spawned.
pub struct NetServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: WorkerList,
}

impl NetServer {
    /// Binds `127.0.0.1:0` (an ephemeral loopback port — this front-end is
    /// CI-testable without real network access) and starts the acceptor.
    pub fn bind(cfg: NetConfig) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared::new(cfg));
        let workers: WorkerList = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let workers = Arc::clone(&workers);
            std::thread::spawn(move || accept_loop(&listener, &shared, &workers))
        };
        Ok(NetServer {
            addr,
            shared,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound loopback address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's observability registry (`net.*` counters, per-tenant
    /// counters, the ingest-latency histogram, plus every session's engine
    /// and planner metrics).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.shared.obs
    }

    /// Live connections being served right now.
    pub fn connections(&self) -> usize {
        self.shared.live_connections.load(Ordering::SeqCst)
    }

    /// Stops accepting, unblocks and joins every connection thread, and
    /// joins the acceptor. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor's `accept` with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let workers = std::mem::take(&mut *self.workers.lock().expect("worker list poisoned"));
        for (handle, stream) in workers {
            // Unblocks a reader parked in `read_exact` on a live client.
            let _ = stream.shutdown(Shutdown::Both);
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, workers: &WorkerList) {
    let connections_gauge = shared.obs.gauge("net.connections");
    let frames_out = shared.obs.counter("net.frames_out");
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        if shared.live_connections.load(Ordering::SeqCst) >= shared.cfg.max_connections {
            // Graceful degradation at the cap: tell the client when to come
            // back instead of silently resetting the connection.
            shared.obs.counter("net.rejected_admission").inc();
            let mut stream = stream;
            if write_frame(
                &mut stream,
                &Frame::RetryAfter {
                    seconds: shared.cfg.retry_after_secs,
                    reason: RetryReason::ConnectionCap,
                },
            )
            .is_ok()
            {
                frames_out.inc();
            }
            // Closing outright can race the client's in-flight Hello: its
            // unread bytes would turn the close into an RST, which may
            // discard the buffered RetryAfter before the client reads it.
            // Instead FIN the write half and drain the client briefly off
            // the acceptor thread, so the frame stays deliverable.
            let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(1)));
            let _ = stream.shutdown(Shutdown::Write);
            std::thread::spawn(move || {
                let mut sink = [0u8; 256];
                while matches!(std::io::Read::read(&mut stream, &mut sink), Ok(n) if n > 0) {}
            });
            continue;
        }
        let n = shared.live_connections.fetch_add(1, Ordering::SeqCst) + 1;
        connections_gauge.set(n as i64);
        let read_half = match stream.try_clone() {
            Ok(clone) => clone,
            Err(_) => {
                shared.live_connections.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
        };
        let handle = {
            let shared = Arc::clone(shared);
            std::thread::spawn(move || {
                connection_main(&shared, stream);
                let left = shared.live_connections.fetch_sub(1, Ordering::SeqCst) - 1;
                shared.obs.gauge("net.connections").set(left as i64);
            })
        };
        workers
            .lock()
            .expect("worker list poisoned")
            .push((handle, read_half));
    }
}

/// Reads and validates the handshake. Answers on the socket itself on
/// failure and returns `None` (the connection is then closed).
fn handshake(
    shared: &Shared,
    reader: &mut BufReader<TcpStream>,
    writer: &SharedWriter,
    frames_out: &Counter,
) -> Option<String> {
    let refuse = |code, message: &str| {
        send(
            writer,
            frames_out,
            &Frame::Error {
                code,
                message: message.to_string(),
            },
        );
        None
    };
    let frame = match read_frame(reader) {
        Ok(frame) => frame,
        Err(e) if e.is_clean_eof() => return None, // probe connection, no Hello
        Err(_) => return refuse(ErrorCode::BadHello, "first frame was not a Hello"),
    };
    let Frame::Hello {
        version,
        tenant,
        token,
    } = frame
    else {
        return refuse(ErrorCode::BadHello, "first frame was not a Hello");
    };
    if version != crate::wire::PROTOCOL_VERSION {
        return refuse(
            ErrorCode::VersionMismatch,
            &format!(
                "protocol version {version} unsupported (server speaks {})",
                crate::wire::PROTOCOL_VERSION
            ),
        );
    }
    if tenant.is_empty() || tenant.len() > 64 || !tenant.bytes().all(|b| b.is_ascii_graphic()) {
        return refuse(
            ErrorCode::BadHello,
            "tenant name must be 1..=64 printable ASCII bytes",
        );
    }
    if let Some(expected) = &shared.cfg.auth_token {
        if &token != expected {
            return refuse(ErrorCode::AuthFailed, "bad auth token");
        }
    }
    Some(tenant)
}

/// How a connection's frame stream ended, which decides the pump's fate:
/// an orderly `Close` drains the session and ends the tenant's journaled
/// identity; anything else preserves the ledger for a later resume.
#[derive(PartialEq)]
enum StreamEnd {
    Orderly,
    Unclean,
}

fn connection_main(shared: &Arc<Shared>, stream: TcpStream) {
    let frames_out = shared.obs.counter("net.frames_out");
    // Every write is a whole frame or a run of them; with Nagle on, one
    // would wait for the client to acknowledge the previous one. Failing to
    // set it costs latency, not correctness.
    let _ = stream.set_nodelay(true);
    let writer: SharedWriter = match stream.try_clone() {
        Ok(clone) => Arc::new(Mutex::new(clone)),
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);

    let Some(tenant) = handshake(shared, &mut reader, &writer, &frames_out) else {
        return;
    };

    // Register the tenant: one live connection per tenant name. A slot with
    // `handle: None` is a previous connection still draining its pump; that
    // refusal is retryable, so it answers TenantBusy like a true duplicate.
    let (handle, source) = NetSource::channel();
    let seq = shared.conn_seq.fetch_add(1, Ordering::SeqCst);
    let shed = Arc::new(AtomicBool::new(false));
    {
        let mut tenants = shared.tenants.lock().expect("tenant registry poisoned");
        if tenants.contains_key(&tenant) {
            send(
                &writer,
                &frames_out,
                &Frame::Error {
                    code: ErrorCode::TenantBusy,
                    message: format!("tenant {tenant} already has a live connection"),
                },
            );
            return;
        }
        tenants.insert(
            tenant.clone(),
            TenantSlot {
                handle: Some(handle.clone()),
                shed: Arc::clone(&shed),
                seq,
            },
        );
    }
    let ledger = shared.ledger_for(&tenant);
    let metrics = ConnMetrics::for_tenant(&shared.obs, &tenant);
    send(
        &writer,
        &frames_out,
        &Frame::HelloAck {
            version: crate::wire::PROTOCOL_VERSION,
        },
    );

    // Resume arming: the pump's decision skip must be fixed before it opens,
    // so peek the first post-handshake frame. A `Resume` carries the decision
    // count the client actually received and is answered with the admitted
    // command count (quiescent here — no pump or reader is running for this
    // tenant); anything else falls back to the server-side streamed count
    // and is re-processed by the read loop below.
    let initial_admitted = ledger.admitted_commands.load(Ordering::SeqCst);
    let (skip, stashed) = match read_frame(&mut reader) {
        Ok(Frame::Resume { decisions_seen }) => {
            metrics.frames_in.inc();
            metrics.tenant_frames_in.inc();
            send(
                &writer,
                &frames_out,
                &Frame::ResumeAck {
                    events_ingested: initial_admitted,
                },
            );
            (decisions_seen, None)
        }
        first => (
            ledger.decisions_streamed.load(Ordering::SeqCst),
            Some(first),
        ),
    };

    // The pump: this tenant's whole dispatch stack, fed by the channel and
    // restarted from the journal by its supervisor if it panics.
    let orderly = Arc::new(AtomicBool::new(false));
    let pump = {
        let shared = Arc::clone(shared);
        let writer = Arc::clone(&writer);
        let ledger = Arc::clone(&ledger);
        let orderly = Arc::clone(&orderly);
        let tenant = tenant.clone();
        std::thread::spawn(move || {
            pump_main(&shared, &writer, &ledger, &orderly, source, &tenant, skip)
        })
    };

    let end = read_loop(
        shared,
        &mut reader,
        &writer,
        &handle,
        &shed,
        &metrics,
        &ledger,
        stashed,
        initial_admitted,
    );

    // End of stream. Drop every sender clone so the channel exhausts and the
    // pump can finish — but keep the slot registered (handle: None) until the
    // pump has drained, so a racing reconnect gets a retryable TenantBusy
    // instead of a second pump over the same journal.
    if end == StreamEnd::Orderly {
        orderly.store(true, Ordering::SeqCst);
    }
    if let Some(slot) = shared
        .tenants
        .lock()
        .expect("tenant registry poisoned")
        .get_mut(&tenant)
    {
        slot.handle = None;
    }
    drop(handle);
    let _ = pump.join();
    if end == StreamEnd::Orderly {
        // Orderly close ends the journaled identity: a future connection
        // under this tenant name starts a fresh session from record zero.
        shared
            .ledgers
            .lock()
            .expect("ledger registry poisoned")
            .remove(&tenant);
    }
    shared
        .tenants
        .lock()
        .expect("tenant registry poisoned")
        .remove(&tenant);
    // The shutdown worker list still holds a clone of this socket, so
    // dropping our handles alone never FINs the peer — do it explicitly.
    // Orderly closes have already flushed their `Closed` frame (FIN queues
    // behind sent data); unclean ends have no terminal frame at all, and a
    // client (or a chaos proxy's byte copier) still reading would otherwise
    // stall silently instead of seeing EOF.
    let _ = writer
        .lock()
        .expect("connection writer poisoned")
        .shutdown(Shutdown::Both);
}

/// Consecutive no-progress recoveries tolerated before the pump gives up.
const MAX_STALLED_RECOVERIES: u32 = 3;

/// The pump supervisor: owns the tenant's [`NetSource`], lends it to
/// [`pump_once`] under `catch_unwind`, and on a panic replays the tenant's
/// journal into a fresh service with the already streamed decision prefix
/// suppressed — the commands still queued in the channel carry over. Gives
/// up (typed [`ErrorCode::PumpFailed`]) only after
/// [`MAX_STALLED_RECOVERIES`] consecutive restarts with no new journal
/// records — a pump that keeps progressing may recover any number of
/// injected faults.
#[allow(clippy::too_many_arguments)]
fn pump_main(
    shared: &Arc<Shared>,
    writer: &SharedWriter,
    ledger: &Arc<TenantLedger>,
    orderly: &Arc<AtomicBool>,
    mut source: NetSource,
    tenant: &str,
    mut skip: u64,
) {
    let frames_out = shared.obs.counter("net.frames_out");
    let recoveries = shared.obs.counter("net.pump_recoveries");
    let tenant_recoveries = shared
        .obs
        .counter(&format!("net.tenant.{tenant}.recoveries"));
    let mut kills: Vec<u64> = shared
        .cfg
        .pump_kills
        .iter()
        .filter(|(t, _)| t == tenant)
        .map(|(_, n)| *n)
        .collect();
    let mut attempt: u32 = 0;
    let mut stalled: u32 = 0;
    let mut last_records = ledger.journal.record_count();
    loop {
        let run = catch_unwind(AssertUnwindSafe(|| {
            pump_once(
                shared,
                writer,
                ledger,
                orderly,
                &mut source,
                tenant,
                &mut kills,
                skip,
                attempt,
            );
        }));
        match run {
            Ok(()) => return,
            Err(_) => {
                // The dead service took nothing with it: admitted commands
                // live in the journal (ingested) or the channel this
                // supervisor still owns (not yet pumped), and the streamed
                // count sits in the ledger.
                ledger.recovering.store(true, Ordering::SeqCst);
                recoveries.inc();
                tenant_recoveries.inc();
                let records = ledger.journal.record_count();
                if records == last_records {
                    stalled += 1;
                } else {
                    stalled = 0;
                    last_records = records;
                }
                if stalled >= MAX_STALLED_RECOVERIES {
                    // Leave `recovering` set: the reader keeps answering this
                    // tenant's events with a typed retry-after instead of a
                    // silently dead pump, and the ledger survives for a
                    // reconnect to resume against.
                    send(
                        writer,
                        &frames_out,
                        &Frame::Error {
                            code: ErrorCode::PumpFailed,
                            message: format!(
                                "tenant pump failed {stalled} consecutive recovery attempts"
                            ),
                        },
                    );
                    // Commands still queued in the channel will never reach
                    // the journal — drain and un-count them so a later
                    // `ResumeAck` tells the client to resend exactly what was
                    // lost. (Blocks until the reader closes the handle, which
                    // it does before joining this thread.)
                    while let SourcePoll::Ready(..) | SourcePoll::Wait(_) = source.poll() {
                        ledger.admitted_commands.fetch_sub(1, Ordering::SeqCst);
                    }
                    return;
                }
                skip = ledger.decisions_streamed.load(Ordering::SeqCst);
                attempt += 1;
            }
        }
    }
}

/// One pump incarnation: replay the journal (a no-op on the first run of a
/// fresh tenant), then pump the lent channel to exhaustion. Only an
/// orderly close drains the session and reports [`Frame::Closed`]; an
/// unclean end drops the service un-finished so no decision is emitted at a
/// dead client.
#[allow(clippy::too_many_arguments)]
fn pump_once(
    shared: &Arc<Shared>,
    writer: &SharedWriter,
    ledger: &Arc<TenantLedger>,
    orderly: &Arc<AtomicBool>,
    source: &mut NetSource,
    tenant: &str,
    kills: &mut Vec<u64>,
    skip: u64,
    attempt: u32,
) {
    let mut runner =
        AdaptiveRunner::new(shared.cfg.assign, shared.cfg.policy).with_metrics(shared.obs.clone());
    if shared.cfg.policy == PolicyKind::DataWa {
        // with_tvf consumes the TVF and the type is not Clone, so every pump
        // rebuilds it from the shared (hidden, seed) pair — deterministic,
        // hence still bit-equal to a direct run.
        let (hidden, seed) = TENANT_TVF;
        runner = runner.with_tvf(TaskValueFunction::new(hidden, seed));
    }
    let mut forecast = StaticForecast::default();
    let outbox = RefCell::new(Outbox {
        writer: Arc::clone(writer),
        bytes: Vec::new(),
        frames: 0,
        position: skip,
        streamed: Arc::clone(&ledger.decisions_streamed),
        frames_out: shared.obs.counter("net.frames_out"),
        writes: shared.obs.counter("net.decision_writes"),
    });
    let sink = SkipSink::new(
        FrameSink {
            outbox: &outbox,
            tenant_decisions: shared
                .obs
                .counter(&format!("net.tenant.{tenant}.decisions")),
        },
        skip,
    );
    let source = OutboxSource {
        source,
        outbox: &outbox,
    };
    // Restarts time the journal replay into `net.recovery_seconds`; the
    // first incarnation of a fresh tenant replays nothing and records
    // nothing.
    let recovery_seconds = shared.obs.histogram("net.recovery_seconds");
    let recovery_span = (attempt > 0).then(|| recovery_seconds.span());
    let mut service = DispatchService::open_recovered(
        &runner,
        &mut forecast,
        source,
        sink,
        shared.cfg.service,
        ledger.journal.clone(),
    )
    .expect("tenant journal replays cleanly");
    drop(recovery_span);
    ledger.recovering.store(false, Ordering::SeqCst);
    loop {
        if let Some(at) = kills
            .iter()
            .position(|n| *n == ledger.journal.event_count())
        {
            kills.remove(at);
            // Deterministic chaos injection, caught by the pump supervisor.
            panic!("chaos: injected pump kill for tenant {tenant}");
        }
        if service.pump() == PumpStatus::SourceDrained {
            break;
        }
    }
    // What the close drains goes out before the totals that count it.
    let closed = orderly.load(Ordering::SeqCst).then(|| service.finish().0);
    outbox.borrow_mut().flush();
    if let Some(outcome) = closed {
        send(
            writer,
            &shared.obs.counter("net.frames_out"),
            &Frame::Closed {
                assigned: outcome.run.assigned_tasks as u64,
                decisions: ledger.decisions_streamed.load(Ordering::SeqCst),
                events: outcome.stats.events_processed as u64,
                planning_calls: outcome.run.planning_calls as u64,
            },
        );
    }
}

/// Decodes frames and applies admission until the stream ends.
///
/// Refusals are sticky: the first refused command fixes the refusal reason
/// for the rest of the connection, so the admitted sequence is always an
/// exact prefix of what the client sent — the invariant count-based resume
/// relies on. `stashed` carries the first post-handshake frame when it was
/// not a `Resume` (the connection peeks it to arm the pump's skip).
#[allow(clippy::too_many_arguments)]
fn read_loop(
    shared: &Shared,
    reader: &mut BufReader<TcpStream>,
    writer: &SharedWriter,
    handle: &NetSourceHandle,
    shed: &Arc<AtomicBool>,
    metrics: &ConnMetrics,
    ledger: &Arc<TenantLedger>,
    mut stashed: Option<Result<Frame, WireError>>,
    mut admitted: u64,
) -> StreamEnd {
    // Times must be non-decreasing per connection; an AdvanceTo moves the
    // session watermark, so a later event below it would panic the pump.
    let mut watermark = f64::NEG_INFINITY;
    // Once set, every later command answers with this same retry-after.
    let mut refusing: Option<RetryReason> = None;
    let protocol_error = |writer: &SharedWriter, code, message: String| {
        send(writer, &metrics.frames_out, &Frame::Error { code, message });
    };
    let refuse = |writer: &SharedWriter, reason: RetryReason| {
        metrics.rejected.inc();
        metrics.tenant_rejected.inc();
        send(
            writer,
            &metrics.frames_out,
            &Frame::RetryAfter {
                seconds: shared.cfg.retry_after_secs,
                reason,
            },
        );
    };
    loop {
        let frame = match stashed.take().unwrap_or_else(|| read_frame(reader)) {
            Ok(frame) => frame,
            Err(WireError::Io(_)) => return StreamEnd::Unclean, // disconnect
            Err(e) => {
                // Junk bytes, oversized prefix, unknown type: answer with a
                // typed error, then close this connection only.
                protocol_error(writer, ErrorCode::Protocol, e.to_string());
                return StreamEnd::Unclean;
            }
        };
        metrics.frames_in.inc();
        metrics.tenant_frames_in.inc();
        match frame {
            Frame::Close => return StreamEnd::Orderly,
            Frame::Resume { .. } => {
                // Mid-stream Resume is a sync ping: the answer counts every
                // command admitted so far (queued refusals for earlier
                // commands are already ordered before it on the wire), which
                // tells the client exactly where its log prefix ends.
                send(
                    writer,
                    &metrics.frames_out,
                    &Frame::ResumeAck {
                        events_ingested: admitted,
                    },
                );
            }
            Frame::AdvanceTo { time } => {
                if let Some(reason) = refusing {
                    refuse(writer, reason);
                    continue;
                }
                if ledger.recovering.load(Ordering::SeqCst) {
                    refusing = Some(RetryReason::Recovering);
                    refuse(writer, RetryReason::Recovering);
                    continue;
                }
                if time.0 < watermark {
                    protocol_error(
                        writer,
                        ErrorCode::BadEvent,
                        format!("AdvanceTo {} is behind watermark {watermark}", time.0),
                    );
                    return StreamEnd::Unclean;
                }
                watermark = time.0;
                if handle.push_advance(time).is_err() {
                    return StreamEnd::Unclean; // pump is gone
                }
                admitted += 1;
                ledger.admitted_commands.store(admitted, Ordering::SeqCst);
            }
            event_frame @ (Frame::TaskArrival { .. }
            | Frame::WorkerOnline { .. }
            | Frame::TaskExpiration { .. }
            | Frame::WorkerOffline { .. }
            | Frame::ReplanTick { .. }) => {
                let _ingest_span = metrics.ingest_seconds.span();
                if let Some(reason) = refusing {
                    refuse(writer, reason);
                    continue;
                }
                if let Frame::TaskArrival { task, .. } = &event_frame {
                    if !task.is_well_formed() {
                        protocol_error(
                            writer,
                            ErrorCode::BadEvent,
                            format!("malformed task {}", task.id),
                        );
                        return StreamEnd::Unclean;
                    }
                }
                if let Frame::WorkerOnline { worker, .. } = &event_frame {
                    if !worker.is_well_formed() {
                        protocol_error(
                            writer,
                            ErrorCode::BadEvent,
                            format!("malformed worker {}", worker.id),
                        );
                        return StreamEnd::Unclean;
                    }
                }
                let (time, event) = event_frame.into_event().expect("matched an event frame");
                if time.0 < watermark {
                    protocol_error(
                        writer,
                        ErrorCode::BadEvent,
                        format!("event at {} is behind watermark {watermark}", time.0),
                    );
                    return StreamEnd::Unclean;
                }
                // Admission. A replaying pump refuses first (typed signal,
                // not a dead socket); then global pressure — under it the
                // stalest tenant is shed, and a shed tenant stays refused
                // until the total backlog is back under the cap — then the
                // per-tenant quota.
                if shared.global_pending() >= shared.cfg.global_pending_cap {
                    shared.shed_stalest();
                } else {
                    shed.store(false, Ordering::SeqCst);
                }
                let reason = if ledger.recovering.load(Ordering::SeqCst) {
                    Some(RetryReason::Recovering)
                } else if shed.load(Ordering::SeqCst) {
                    Some(RetryReason::GlobalOverload)
                } else if handle.pending() >= shared.cfg.tenant_pending_quota {
                    Some(RetryReason::TenantQuota)
                } else {
                    None
                };
                if let Some(reason) = reason {
                    refusing = Some(reason);
                    refuse(writer, reason);
                    continue;
                }
                watermark = time.0;
                if handle.push_event(time, event).is_err() {
                    return StreamEnd::Unclean;
                }
                admitted += 1;
                ledger.admitted_commands.store(admitted, Ordering::SeqCst);
            }
            Frame::Hello { .. } => {
                protocol_error(
                    writer,
                    ErrorCode::Protocol,
                    "Hello after handshake".to_string(),
                );
                return StreamEnd::Unclean;
            }
            _server_only => {
                protocol_error(
                    writer,
                    ErrorCode::Protocol,
                    "client sent a server-only frame".to_string(),
                );
                return StreamEnd::Unclean;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datawa_service::WorkloadSource;
    use datawa_stream::{
        CollectingSink, EngineConfig, ScenarioGenerator, ScenarioSpec, Session, UniformBaseline,
    };

    /// A pump killed while its outbox holds decisions not yet written
    /// replays them: the client stream stays bitwise equal to a direct run.
    /// The whole command log is queued before the pump starts, so the
    /// channel never runs dry and until the close only the byte cap writes
    /// the outbox — a kill almost always finds frames in it, and the test
    /// checks that this one did.
    #[test]
    fn a_pump_killed_with_a_full_outbox_replays_what_it_had_not_written() {
        let workload = UniformBaseline::new(
            ScenarioSpec::small()
                .with_tasks(1000)
                .with_workers(40)
                .with_seed(5),
        )
        .generate();
        let mut commands = Vec::new();
        let mut arrivals = WorkloadSource::new(&workload);
        while let SourcePoll::Ready(time, event) = arrivals.poll() {
            commands.push((time, event));
        }

        // The direct run: each event ingested, then the session advanced to
        // its instant — what the queued `AdvanceTo`s make the pump do.
        let runner = AdaptiveRunner::new(AssignConfig::default(), PolicyKind::Greedy);
        let mut forecast = StaticForecast::default();
        let mut session = Session::open(&runner, &mut forecast, EngineConfig::default());
        let mut direct = CollectingSink::new();
        for (time, event) in &commands {
            session.ingest(*time, event.clone()).expect("valid order");
            session.advance_to(*time, &mut direct);
        }
        let _ = session.close(&mut direct);
        let expected = direct.into_decisions();

        let kill_at = commands.len() as u64 / 2;
        let shared = Arc::new(Shared::new(NetConfig {
            pump_kills: vec![("t".to_string(), kill_at)],
            ..NetConfig::default()
        }));
        let ledger = shared.ledger_for("t");
        let (handle, source) = NetSource::channel();
        for (time, event) in &commands {
            handle
                .push_event(*time, event.clone())
                .expect("pump side open");
            handle.push_advance(*time).expect("pump side open");
        }
        drop(handle);

        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback");
        let client = TcpStream::connect(listener.local_addr().expect("bound")).expect("connect");
        let (server_end, _) = listener.accept().expect("accept");
        let client = std::thread::spawn(move || {
            let mut reader = BufReader::new(client);
            let mut decisions = Vec::new();
            loop {
                match read_frame(&mut reader).expect("a frame before Closed") {
                    Frame::Closed { decisions: n, .. } => return (decisions, n),
                    frame => decisions.push(frame.into_decision().expect("a decision frame")),
                }
            }
        });
        let writer: SharedWriter = Arc::new(Mutex::new(server_end));
        let orderly = Arc::new(AtomicBool::new(true));
        pump_main(&shared, &writer, &ledger, &orderly, source, "t", 0);
        let (decisions, closed_decisions) = client.join().expect("client thread");

        let counters = shared.obs.snapshot().counters;
        assert_eq!(counters.get("net.pump_recoveries"), Some(&1));
        assert_eq!(
            decisions, expected,
            "client stream diverged from the direct run"
        );
        assert_eq!(closed_decisions, expected.len() as u64);
        let emitted = counters["net.tenant.t.decisions"];
        assert!(
            emitted > expected.len() as u64,
            "the kill found the outbox empty: {emitted} decisions emitted, none replayed"
        );
    }
}
