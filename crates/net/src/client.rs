//! The wire client: handshake, event sending, and a reader thread that
//! drains server frames into a channel so decision traffic can never back
//! up the socket while the client is still sending.
//!
//! [`NetClient`] is one connection: every send is one socket write, and
//! [`NetClient::close`] collects what the server streamed back.
//! [`NetClient::deliver`] drives a whole command log over as many
//! connections as it takes — capped exponential backoff with deterministic
//! seeded jitter, honouring server [`Frame::RetryAfter`] hints, and resuming
//! each reconnect via the [`Frame::Resume`]/[`Frame::ResumeAck`] exchange —
//! so a connection reset, a truncated frame, or a recovering server pump
//! costs retries but never a lost or double-ingested command (the semantics
//! are specified in `PROTOCOL.md` at the workspace root).

use crate::wire::{
    read_frame, write_frame, ErrorCode, Frame, RetryReason, WireError, PROTOCOL_VERSION,
};
use datawa_core::Timestamp;
use datawa_stream::{Decision, Event};
use rand::prelude::{Rng, SeedableRng, StdRng};
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc::{channel, Receiver};
use std::thread::JoinHandle;

/// Everything the server streamed back over one connection's lifetime (or,
/// from [`NetClient::deliver`], merged across every attempt).
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
    /// The server refused admission — the connection at the cap, or an
    /// event under throttling; retry after the suggested backoff.
    Busy {
        /// Suggested backoff in seconds.
        retry_after_secs: f64,
        /// Which admission layer refused.
        reason: RetryReason,
    },
    /// The server answered with a frame the exchange does not allow.
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
            ClientError::Busy {
                retry_after_secs,
                reason,
            } => {
                write!(
                    f,
                    "admission refused ({reason:?}); retry after {retry_after_secs}s"
                )
            }
            ClientError::UnexpectedFrame => write!(f, "unexpected server frame"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// A server frame that ends a wait: everything else (decisions,
/// retry-afters) is recorded in the outcome on the way.
enum Control {
    ResumeAck(u64),
    Closed,
    Error(ErrorCode, String),
}

/// A connected tenant client. Send events with the typed helpers; server
/// frames queue on a reader thread and are returned by
/// [`NetClient::close`].
#[derive(Debug)]
pub struct NetClient {
    writer: TcpStream,
    frames: Receiver<Frame>,
    reader: Option<JoinHandle<()>>,
}

impl NetClient {
    /// Connects, performs the `Hello` handshake as `tenant`, and starts the
    /// reader thread.
    pub fn connect(addr: SocketAddr, tenant: &str, token: &str) -> Result<NetClient, ClientError> {
        let mut writer = TcpStream::connect(addr)?;
        // Each send is one whole frame; with Nagle on, it could wait for the
        // server to acknowledge the previous one.
        writer.set_nodelay(true)?;
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
                reason: reason @ RetryReason::ConnectionCap,
            }) => {
                return Err(ClientError::Busy {
                    retry_after_secs: seconds,
                    reason,
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
        let (tx, frames) = channel();
        let reader = std::thread::spawn(move || {
            while let Ok(frame) = read_frame(&mut reader) {
                if tx.send(frame).is_err() {
                    return;
                }
            }
        });
        Ok(NetClient {
            writer,
            frames,
            reader: Some(reader),
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

    /// Sends `Close`, waits for the server to drain the session, and
    /// returns everything it streamed back.
    pub fn close(mut self) -> ClientOutcome {
        // The server may already have closed the connection (protocol error
        // paths); the channel still holds whatever arrived before that.
        let _ = write_frame(&mut self.writer, &Frame::Close);
        let mut outcome = ClientOutcome::default();
        while let Some(control) = self.next_control(&mut outcome) {
            if let Control::Closed = control {
                break;
            }
        }
        outcome
    }

    /// Routes server frames into `outcome` until a control frame arrives:
    /// decisions and retry-afters are recorded and skipped, `Error` and
    /// `Closed` are recorded and returned, `ResumeAck` is returned. `None`
    /// once the server's stream has ended.
    fn next_control(&self, outcome: &mut ClientOutcome) -> Option<Control> {
        loop {
            match self.frames.recv().ok()? {
                Frame::RetryAfter { seconds, reason } => {
                    outcome.retry_after.push((seconds, reason));
                }
                Frame::Error { code, message } => {
                    outcome.errors.push((code, message.clone()));
                    return Some(Control::Error(code, message));
                }
                Frame::ResumeAck { events_ingested } => {
                    return Some(Control::ResumeAck(events_ingested))
                }
                Frame::Closed {
                    assigned,
                    decisions,
                    events,
                    planning_calls,
                } => {
                    outcome.closed = Some(ClosedSummary {
                        assigned,
                        decisions,
                        events,
                        planning_calls,
                    });
                    return Some(Control::Closed);
                }
                frame => {
                    // The server's resume skip guarantees every decision
                    // frame is new to us, across any number of reconnects.
                    if let Some(decision) = frame.into_decision() {
                        outcome.decisions.push(decision);
                    }
                }
            }
        }
    }

    /// Delivers `log` — client command frames (events and `AdvanceTo`s) —
    /// to `tenant` at `addr` and closes the session, retrying through
    /// transient faults per `policy`.
    ///
    /// Each attempt connects, exchanges `Resume`/`ResumeAck` to learn how
    /// much of the log the server already holds, sends the rest, confirms
    /// the admitted count with a sync ping and closes in order. Across every
    /// retry, each command is ingested exactly once and each decision is
    /// received exactly once — the server's journaled replay and the
    /// `Resume` count exchange carry the proof (see `PROTOCOL.md`).
    pub fn deliver(
        addr: SocketAddr,
        tenant: &str,
        token: &str,
        log: &[Frame],
        policy: &RetryPolicy,
    ) -> RetryOutcome {
        let mut rng = StdRng::seed_from_u64(policy.jitter_seed);
        let mut merged = ClientOutcome::default();
        let mut attempts: u32 = 0;
        loop {
            attempts += 1;
            let (last_error, hint) = match attempt(addr, tenant, token, log, &mut merged) {
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
                Err(AttemptEnd::Retry(last_error, hint)) => (last_error, hint),
            };
            if attempts >= policy.max_attempts {
                return RetryOutcome::GaveUp {
                    attempts,
                    last_error,
                };
            }
            // Capped exponential backoff with deterministic jitter in
            // [1.0, 1.5)x; a larger server hint overrides the ramp.
            let exp = policy.base_backoff_secs * f64::from(1u32 << (attempts - 1).min(20));
            let mut backoff = exp.min(policy.max_backoff_secs);
            if let Some(hint) = hint {
                backoff = backoff.max(hint);
            }
            backoff *= 1.0 + 0.5 * rng.gen_f64();
            std::thread::sleep(std::time::Duration::from_secs_f64(backoff));
        }
    }
}

impl Drop for NetClient {
    fn drop(&mut self) {
        // Hang up, then let the reader drain until the server closes its
        // end: the server tears the tenant down before it closes, so a
        // reconnect after this returns never races the previous
        // incarnation's teardown.
        let _ = self.writer.shutdown(Shutdown::Write);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// Backoff and give-up policy for [`NetClient::deliver`].
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

/// How a [`NetClient::deliver`] run ended.
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

/// One connection attempt: handshake, resume exchange, send the
/// unacknowledged log suffix, verify the admitted count with a sync ping,
/// then close in order. Any transient failure tears the socket down (the
/// server keeps the tenant ledger) and reports `Retry`.
fn attempt(
    addr: SocketAddr,
    tenant: &str,
    token: &str,
    log: &[Frame],
    merged: &mut ClientOutcome,
) -> Result<(), AttemptEnd> {
    let mut conn = NetClient::connect(addr, tenant, token).map_err(|e| match e {
        ClientError::Busy {
            retry_after_secs, ..
        } => AttemptEnd::Retry(e, Some(retry_after_secs)),
        ClientError::Refused { code, .. } if refusal_is_fatal(code) => AttemptEnd::Fatal(e),
        e => AttemptEnd::Retry(e, None),
    })?;
    // Refusals recorded from here on are this attempt's; the latest one is
    // the backoff hint and, if the log falls short, the cause.
    let refused_from = merged.retry_after.len();
    let refusal = |merged: &ClientOutcome| merged.retry_after[refused_from..].last().copied();
    let retry = |e: ClientError, merged: &ClientOutcome| {
        AttemptEnd::Retry(e, refusal(merged).map(|(secs, _)| secs))
    };
    let send = |conn: &mut NetClient, frame: &Frame, merged: &ClientOutcome| {
        write_frame(&mut conn.writer, frame).map_err(|e| retry(ClientError::Io(e), merged))
    };
    let answer = |conn: &NetClient, merged: &mut ClientOutcome| match conn.next_control(merged) {
        Some(Control::Error(code, message)) => {
            let refused = ClientError::Refused { code, message };
            Err(if refusal_is_fatal(code) {
                AttemptEnd::Fatal(refused)
            } else {
                retry(refused, merged)
            })
        }
        Some(control) => Ok(control),
        None => Err(retry(
            ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "server stream ended mid-attempt",
            )),
            merged,
        )),
    };
    // The sync ping: `Resume` carries the decisions we hold; the answer is
    // how many commands the server has admitted.
    let sync = |conn: &mut NetClient, merged: &mut ClientOutcome| {
        let decisions_seen = merged.decisions.len() as u64;
        send(conn, &Frame::Resume { decisions_seen }, merged)?;
        match answer(conn, merged)? {
            Control::ResumeAck(admitted) => usize::try_from(admitted)
                .ok()
                .filter(|&admitted| admitted <= log.len())
                // More commands than we ever logged: a protocol breakage no
                // retry can repair.
                .ok_or(AttemptEnd::Fatal(ClientError::UnexpectedFrame)),
            _ => Err(AttemptEnd::Fatal(ClientError::UnexpectedFrame)),
        }
    };

    let resend_from = sync(&mut conn, merged)?;
    for frame in &log[resend_from..] {
        send(&mut conn, frame, merged)?;
    }
    // Only when the admitted count matches the full log is it safe to close
    // (a sticky refusal or a mid-send fault leaves a shorter prefix —
    // reconnect and resume instead).
    if sync(&mut conn, merged)? < log.len() {
        let cause = refusal(merged).map_or(
            ClientError::UnexpectedFrame,
            |(retry_after_secs, reason)| ClientError::Busy {
                retry_after_secs,
                reason,
            },
        );
        return Err(retry(cause, merged));
    }
    send(&mut conn, &Frame::Close, merged)?;
    match answer(&conn, merged)? {
        Control::Closed => Ok(()),
        _ => Err(AttemptEnd::Fatal(ClientError::UnexpectedFrame)),
    }
}
