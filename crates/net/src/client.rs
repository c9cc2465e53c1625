//! A loopback client for the wire protocol: handshake, event sending, and
//! a background collector thread that drains server frames so decision
//! traffic can never back up the socket while the client is still sending.
//!
//! Two clients live here. [`NetClient`] is the transparent one: every send
//! is one socket write, every failure surfaces immediately. On top of it,
//! [`ResilientClient`] keeps a local command log and delivers it with
//! automatic retries — capped exponential backoff with deterministic seeded
//! jitter, honouring server [`Frame::RetryAfter`] hints — and resumes after
//! a reconnect via the [`Frame::Resume`]/[`Frame::ResumeAck`] exchange, so a
//! connection reset, a truncated frame, or a recovering server pump costs
//! retries but never a lost or double-ingested command (the semantics are
//! specified in `PROTOCOL.md` at the workspace root).

use crate::wire::{
    read_frame, write_frame, ErrorCode, Frame, RetryReason, WireError, PROTOCOL_VERSION,
};
use datawa_core::Timestamp;
use datawa_stream::{Decision, Event};
use rand::prelude::{Rng, SeedableRng, StdRng};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;

/// Everything the server streamed back over one connection's lifetime.
#[derive(Debug, Default)]
pub struct ClientOutcome {
    /// Decisions, in the order the server emitted them.
    pub decisions: Vec<Decision>,
    /// Admission refusals: `(suggested backoff seconds, reason)` per
    /// refused event.
    pub retry_after: Vec<(f64, RetryReason)>,
    /// Fatal protocol errors the server answered with.
    pub errors: Vec<(ErrorCode, String)>,
    /// The final session totals (present after an orderly `Close`).
    pub closed: Option<ClosedSummary>,
}

/// The totals carried by a [`Frame::Closed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClosedSummary {
    /// Tasks assigned over the whole session.
    pub assigned: u64,
    /// Decisions streamed back.
    pub decisions: u64,
    /// Events the engine processed.
    pub events: u64,
    /// Planning invocations.
    pub planning_calls: u64,
}

/// Why a connection attempt or send failed.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server's first answer was unreadable.
    Wire(WireError),
    /// The server refused the handshake with a typed error.
    Refused {
        /// The refusal code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The connection cap was hit; retry after the suggested backoff.
    Busy {
        /// Suggested backoff in seconds.
        retry_after_secs: f64,
    },
    /// The server answered the handshake with something unexpected.
    UnexpectedFrame,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Refused { code, message } => {
                write!(f, "refused ({code:?}): {message}")
            }
            ClientError::Busy { retry_after_secs } => {
                write!(
                    f,
                    "server at connection cap; retry after {retry_after_secs}s"
                )
            }
            ClientError::UnexpectedFrame => write!(f, "unexpected handshake answer"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// A connected tenant client. Send events with the typed helpers; server
/// frames are collected on a background thread and returned by
/// [`NetClient::close`].
#[derive(Debug)]
pub struct NetClient {
    writer: TcpStream,
    collector: Option<JoinHandle<ClientOutcome>>,
}

impl NetClient {
    /// Connects, performs the `Hello` handshake as `tenant`, and starts the
    /// frame collector.
    pub fn connect(addr: SocketAddr, tenant: &str, token: &str) -> Result<NetClient, ClientError> {
        let mut writer = TcpStream::connect(addr)?;
        // A server refusing at the connection cap may answer and FIN before
        // this Hello ever lands, failing the write with a broken pipe — the
        // refusal frame is still in the receive buffer, so read it before
        // deciding how the handshake failed.
        let hello_sent = write_frame(
            &mut writer,
            &Frame::Hello {
                version: PROTOCOL_VERSION,
                tenant: tenant.to_string(),
                token: token.to_string(),
            },
        );
        let mut reader = BufReader::new(writer.try_clone()?);
        match read_frame(&mut reader) {
            Ok(Frame::HelloAck { .. }) => hello_sent?,
            Ok(Frame::RetryAfter {
                seconds,
                reason: RetryReason::ConnectionCap,
            }) => {
                return Err(ClientError::Busy {
                    retry_after_secs: seconds,
                })
            }
            Ok(Frame::Error { code, message }) => {
                return Err(ClientError::Refused { code, message })
            }
            Ok(_) => return Err(ClientError::UnexpectedFrame),
            // Nothing readable either: report the write failure when there
            // was one (the root cause), else the read error.
            Err(e) => {
                hello_sent?;
                return Err(ClientError::Wire(e));
            }
        }
        let collector = std::thread::spawn(move || collect(reader));
        Ok(NetClient {
            writer,
            collector: Some(collector),
        })
    }

    /// Sends one engine event at `time`.
    pub fn send_event(&mut self, time: Timestamp, event: &Event) -> std::io::Result<()> {
        write_frame(&mut self.writer, &Frame::from_event(time, event))
    }

    /// Asks the server to advance the tenant session to `time`.
    pub fn advance_to(&mut self, time: Timestamp) -> std::io::Result<()> {
        write_frame(&mut self.writer, &Frame::AdvanceTo { time })
    }

    /// Sends a raw frame (tests use this to probe protocol violations).
    pub fn send_frame(&mut self, frame: &Frame) -> std::io::Result<()> {
        write_frame(&mut self.writer, frame)
    }

    /// Sends `Close`, waits for the server to drain the session, and
    /// returns everything it streamed back.
    pub fn close(mut self) -> ClientOutcome {
        // The server may already have closed the connection (protocol error
        // paths); the collector still holds whatever arrived before that.
        let _ = write_frame(&mut self.writer, &Frame::Close);
        self.join_collector()
    }

    /// Drops the write half without an orderly `Close` (tests use this for
    /// mid-stream disconnects) and returns what was collected.
    pub fn abandon(mut self) -> ClientOutcome {
        let _ = self.writer.shutdown(std::net::Shutdown::Write);
        self.join_collector()
    }

    fn join_collector(&mut self) -> ClientOutcome {
        self.collector
            .take()
            .map(|c| c.join().unwrap_or_default())
            .unwrap_or_default()
    }
}

/// Backoff and give-up policy for a [`ResilientClient`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Connection attempts before giving up.
    pub max_attempts: u32,
    /// First backoff, in seconds; each retry doubles it.
    pub base_backoff_secs: f64,
    /// Ceiling on any single backoff, in seconds. A server
    /// [`Frame::RetryAfter`] hint larger than the computed backoff wins.
    pub max_backoff_secs: f64,
    /// Seed for the jitter stream: a fixed seed makes the whole retry
    /// schedule deterministic, which is what the chaos harness replays.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 8,
            base_backoff_secs: 0.01,
            max_backoff_secs: 0.5,
            jitter_seed: 0,
        }
    }
}

/// How a [`ResilientClient::deliver`] run ended.
#[derive(Debug)]
pub enum RetryOutcome {
    /// The full command log was ingested and the session closed in order.
    Completed {
        /// Everything the server streamed back, merged across attempts.
        outcome: ClientOutcome,
        /// Connection attempts used (1 = no retries were needed).
        attempts: u32,
    },
    /// Retries exhausted (or a fatal refusal) before the log was delivered.
    GaveUp {
        /// Connection attempts used.
        attempts: u32,
        /// The error that ended the final attempt.
        last_error: ClientError,
    },
}

/// One journaled client command: exactly what [`ResilientClient`] resends
/// from its log after a reconnect.
#[derive(Debug, Clone)]
enum ClientCommand {
    Event(Timestamp, Event),
    Advance(Timestamp),
}

impl ClientCommand {
    fn to_frame(&self) -> Frame {
        match self {
            ClientCommand::Event(time, event) => Frame::from_event(*time, event),
            ClientCommand::Advance(time) => Frame::AdvanceTo { time: *time },
        }
    }
}

/// Why one delivery attempt stopped, and whether another should follow.
enum AttemptEnd {
    /// Transient: reconnect and resume after a backoff. Carries the server's
    /// retry-after hint in seconds when one was received.
    Retry(ClientError, Option<f64>),
    /// Permanent: surface as [`RetryOutcome::GaveUp`] immediately.
    Fatal(ClientError),
}

fn refusal_is_fatal(code: ErrorCode) -> bool {
    match code {
        // The server is draining a previous incarnation of this tenant, or
        // its pump gave up but left the ledger behind: both heal on retry.
        ErrorCode::TenantBusy | ErrorCode::PumpFailed => false,
        ErrorCode::BadHello
        | ErrorCode::VersionMismatch
        | ErrorCode::AuthFailed
        | ErrorCode::Protocol
        | ErrorCode::BadEvent => true,
    }
}

/// A client that owns its command log and survives transport faults.
///
/// Commands are appended locally ([`send_event`](ResilientClient::send_event)
/// / [`advance_to`](ResilientClient::advance_to) never touch the socket);
/// [`deliver`](ResilientClient::deliver) then drives the whole log to the
/// server, reconnect-resuming through resets, truncations and pump
/// recoveries. Across every retry, each command is ingested exactly once and
/// each decision is received exactly once — the server's journaled replay
/// and the `Resume` count exchange carry the proof (see `PROTOCOL.md`).
#[derive(Debug)]
pub struct ResilientClient {
    addr: SocketAddr,
    tenant: String,
    token: String,
    policy: RetryPolicy,
    log: Vec<ClientCommand>,
}

impl ResilientClient {
    /// A client for `tenant` at `addr`; nothing is sent until
    /// [`deliver`](ResilientClient::deliver).
    pub fn new(
        addr: SocketAddr,
        tenant: &str,
        token: &str,
        policy: RetryPolicy,
    ) -> ResilientClient {
        ResilientClient {
            addr,
            tenant: tenant.to_string(),
            token: token.to_string(),
            policy,
            log: Vec::new(),
        }
    }

    /// Appends one engine event to the command log.
    pub fn send_event(&mut self, time: Timestamp, event: &Event) {
        self.log.push(ClientCommand::Event(time, event.clone()));
    }

    /// Appends a session advance to the command log.
    pub fn advance_to(&mut self, time: Timestamp) {
        self.log.push(ClientCommand::Advance(time));
    }

    /// Commands logged so far.
    pub fn logged(&self) -> usize {
        self.log.len()
    }

    /// Delivers the whole log and closes the session, retrying through
    /// transient faults per the [`RetryPolicy`].
    pub fn deliver(self) -> RetryOutcome {
        let mut rng = StdRng::seed_from_u64(self.policy.jitter_seed);
        let mut merged = ClientOutcome::default();
        let mut decisions_seen: u64 = 0;
        let mut attempts: u32 = 0;
        loop {
            attempts += 1;
            match self.attempt(&mut merged, &mut decisions_seen) {
                Ok(()) => {
                    return RetryOutcome::Completed {
                        outcome: merged,
                        attempts,
                    }
                }
                Err(AttemptEnd::Fatal(last_error)) => {
                    return RetryOutcome::GaveUp {
                        attempts,
                        last_error,
                    }
                }
                Err(AttemptEnd::Retry(last_error, hint)) => {
                    if attempts >= self.policy.max_attempts {
                        return RetryOutcome::GaveUp {
                            attempts,
                            last_error,
                        };
                    }
                    // Capped exponential backoff with deterministic jitter in
                    // [1.0, 1.5)x; a larger server hint overrides the ramp.
                    let exp =
                        self.policy.base_backoff_secs * f64::from(1u32 << (attempts - 1).min(20));
                    let mut backoff = exp.min(self.policy.max_backoff_secs);
                    if let Some(hint) = hint {
                        backoff = backoff.max(hint);
                    }
                    backoff *= 1.0 + 0.5 * rng.gen_f64();
                    std::thread::sleep(std::time::Duration::from_secs_f64(backoff));
                }
            }
        }
    }

    /// One connection attempt: handshake, resume exchange, send the
    /// unacknowledged log suffix, verify the admitted count with a sync
    /// ping, then close in order. Any transient failure tears the socket
    /// down (the server keeps the tenant ledger) and reports `Retry`.
    fn attempt(
        &self,
        merged: &mut ClientOutcome,
        decisions_seen: &mut u64,
    ) -> Result<(), AttemptEnd> {
        let mut conn = match AttemptConn::open(self.addr, &self.tenant, &self.token) {
            Ok(conn) => conn,
            Err(ClientError::Busy { retry_after_secs }) => {
                return Err(AttemptEnd::Retry(
                    ClientError::Busy { retry_after_secs },
                    Some(retry_after_secs),
                ));
            }
            Err(ClientError::Refused { code, message }) => {
                let refused = ClientError::Refused { code, message };
                return Err(if refusal_is_fatal(code) {
                    AttemptEnd::Fatal(refused)
                } else {
                    AttemptEnd::Retry(refused, None)
                });
            }
            Err(e) => return Err(AttemptEnd::Retry(e, None)),
        };

        // Arm resume: tell the server how many decisions we have, learn how
        // many commands it already holds.
        conn.write(&Frame::Resume {
            decisions_seen: *decisions_seen,
        })?;
        let admitted = conn.await_resume_ack(merged, decisions_seen)?;
        let resend_from = usize::try_from(admitted).unwrap_or(usize::MAX);
        if resend_from > self.log.len() {
            // The server claims more commands than we ever logged: a
            // protocol breakage no retry can repair.
            return Err(AttemptEnd::Fatal(ClientError::UnexpectedFrame));
        }

        for command in &self.log[resend_from..] {
            conn.write(&command.to_frame())?;
        }

        // Sync ping: only when the admitted count matches the full log is it
        // safe to close (a sticky refusal or a mid-send fault leaves a
        // shorter prefix — reconnect and resume instead).
        conn.write(&Frame::Resume {
            decisions_seen: *decisions_seen,
        })?;
        let admitted = conn.await_resume_ack(merged, decisions_seen)?;
        if admitted < self.log.len() as u64 {
            return Err(AttemptEnd::Retry(
                conn.refusal_error().unwrap_or(ClientError::UnexpectedFrame),
                conn.refusal_hint(),
            ));
        }

        conn.write(&Frame::Close)?;
        conn.await_closed(merged, decisions_seen)
    }
}

/// One live socket of a [`ResilientClient`] attempt: a writer plus a reader
/// thread funnelling every server frame through a channel, so refusals keep
/// draining while the writer is mid-log.
struct AttemptConn {
    writer: TcpStream,
    frames: std::sync::mpsc::Receiver<Frame>,
    reader: Option<JoinHandle<()>>,
    /// Retry-after refusals seen on this attempt: `(seconds, reason)`.
    refusals: Vec<(f64, RetryReason)>,
}

impl AttemptConn {
    fn open(addr: SocketAddr, tenant: &str, token: &str) -> Result<AttemptConn, ClientError> {
        let mut writer = TcpStream::connect(addr)?;
        let hello_sent = write_frame(
            &mut writer,
            &Frame::Hello {
                version: PROTOCOL_VERSION,
                tenant: tenant.to_string(),
                token: token.to_string(),
            },
        );
        let mut reader = BufReader::new(writer.try_clone()?);
        match read_frame(&mut reader) {
            Ok(Frame::HelloAck { .. }) => hello_sent?,
            Ok(Frame::RetryAfter {
                seconds,
                reason: RetryReason::ConnectionCap,
            }) => {
                return Err(ClientError::Busy {
                    retry_after_secs: seconds,
                })
            }
            Ok(Frame::Error { code, message }) => {
                return Err(ClientError::Refused { code, message })
            }
            Ok(_) => return Err(ClientError::UnexpectedFrame),
            Err(e) => {
                hello_sent?;
                return Err(ClientError::Wire(e));
            }
        }
        let (tx, frames) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || {
            while let Ok(frame) = read_frame(&mut reader) {
                if tx.send(frame).is_err() {
                    return;
                }
            }
        });
        Ok(AttemptConn {
            writer,
            frames,
            reader: Some(reader),
            refusals: Vec::new(),
        })
    }

    fn write(&mut self, frame: &Frame) -> Result<(), AttemptEnd> {
        write_frame(&mut self.writer, frame)
            .map_err(|e| AttemptEnd::Retry(ClientError::Io(e), self.refusal_hint()))
    }

    /// Routes one received frame into the merged outcome. Returns the frame
    /// back when it is a control frame the caller is waiting on.
    fn absorb(
        &mut self,
        frame: Frame,
        merged: &mut ClientOutcome,
        decisions_seen: &mut u64,
    ) -> Option<Frame> {
        match frame {
            Frame::RetryAfter { seconds, reason } => {
                self.refusals.push((seconds, reason));
                merged.retry_after.push((seconds, reason));
                None
            }
            Frame::Error { code, message } => Some(Frame::Error { code, message }),
            Frame::ResumeAck { events_ingested } => Some(Frame::ResumeAck { events_ingested }),
            Frame::Closed {
                assigned,
                decisions,
                events,
                planning_calls,
            } => Some(Frame::Closed {
                assigned,
                decisions,
                events,
                planning_calls,
            }),
            frame => {
                if let Some(decision) = frame.into_decision() {
                    // The server's skip logic guarantees every decision frame
                    // is new to us, across any number of reconnects.
                    merged.decisions.push(decision);
                    *decisions_seen += 1;
                }
                None
            }
        }
    }

    /// Drains frames until a `ResumeAck` answers the pending `Resume`.
    fn await_resume_ack(
        &mut self,
        merged: &mut ClientOutcome,
        decisions_seen: &mut u64,
    ) -> Result<u64, AttemptEnd> {
        loop {
            let frame = self
                .frames
                .recv()
                .map_err(|_| AttemptEnd::Retry(disconnect_error(), self.refusal_hint()))?;
            match self.absorb(frame, merged, decisions_seen) {
                Some(Frame::ResumeAck { events_ingested }) => return Ok(events_ingested),
                Some(Frame::Error { code, message }) => {
                    return Err(self.error_end(code, message, merged))
                }
                _ => {}
            }
        }
    }

    /// Drains frames until the orderly `Closed` summary lands.
    fn await_closed(
        mut self,
        merged: &mut ClientOutcome,
        decisions_seen: &mut u64,
    ) -> Result<(), AttemptEnd> {
        loop {
            let frame = self
                .frames
                .recv()
                .map_err(|_| AttemptEnd::Retry(disconnect_error(), self.refusal_hint()))?;
            match self.absorb(frame, merged, decisions_seen) {
                Some(Frame::Closed {
                    assigned,
                    decisions,
                    events,
                    planning_calls,
                }) => {
                    merged.closed = Some(ClosedSummary {
                        assigned,
                        decisions,
                        events,
                        planning_calls,
                    });
                    return Ok(());
                }
                Some(Frame::Error { code, message }) => {
                    return Err(self.error_end(code, message, merged))
                }
                _ => {}
            }
        }
    }

    fn error_end(
        &self,
        code: ErrorCode,
        message: String,
        merged: &mut ClientOutcome,
    ) -> AttemptEnd {
        merged.errors.push((code, message.clone()));
        let refused = ClientError::Refused { code, message };
        if refusal_is_fatal(code) {
            AttemptEnd::Fatal(refused)
        } else {
            AttemptEnd::Retry(refused, self.refusal_hint())
        }
    }

    fn refusal_error(&self) -> Option<ClientError> {
        self.refusals.last().map(|(secs, _)| ClientError::Busy {
            retry_after_secs: *secs,
        })
    }

    fn refusal_hint(&self) -> Option<f64> {
        self.refusals.last().map(|(secs, _)| *secs)
    }
}

impl Drop for AttemptConn {
    fn drop(&mut self) {
        // Unblocks the reader thread (the server holds the socket open), so
        // a failed attempt never leaks a parked thread.
        let _ = self.writer.shutdown(std::net::Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

fn disconnect_error() -> ClientError {
    ClientError::Io(std::io::Error::new(
        std::io::ErrorKind::ConnectionReset,
        "server stream ended mid-attempt",
    ))
}

/// Drains server frames until the stream ends, accumulating the outcome.
fn collect(mut reader: BufReader<TcpStream>) -> ClientOutcome {
    let mut outcome = ClientOutcome::default();
    loop {
        match read_frame(&mut reader) {
            Ok(Frame::RetryAfter { seconds, reason }) => {
                outcome.retry_after.push((seconds, reason));
            }
            Ok(Frame::Error { code, message }) => {
                outcome.errors.push((code, message));
            }
            Ok(Frame::Closed {
                assigned,
                decisions,
                events,
                planning_calls,
            }) => {
                outcome.closed = Some(ClosedSummary {
                    assigned,
                    decisions,
                    events,
                    planning_calls,
                });
                return outcome;
            }
            Ok(frame) => {
                if let Some(decision) = frame.into_decision() {
                    outcome.decisions.push(decision);
                }
            }
            Err(_) => return outcome, // disconnect: report what we have
        }
    }
}
