//! The length-prefixed binary wire protocol (see `PROTOCOL.md` at the
//! workspace root for the normative byte-level description).
//!
//! Every frame on the wire is a little-endian `u32` payload length followed
//! by the payload; the payload's first byte is the frame type (client→server
//! types in `0x01..=0x7f`, server→client in `0x80..=0xff`). Payloads are
//! fixed-layout primitives — `f64` as IEEE-754 little-endian bits, strings
//! as a `u16` length plus UTF-8 bytes — so a decoded [`Frame`] re-encodes to
//! the identical bytes (pinned by round-trip proptests in
//! `tests/codec_roundtrip.rs`).
//!
//! The six command frames (types `0x02..=0x07`) carry a session command,
//! and their layout lives once, in `datawa_stream::codec`, which the event
//! journal encodes with too: a journal record *is* a command frame. This
//! module holds only the other frames' layouts, written and read with that
//! codec's `Writer` and `Reader`.
//!
//! Decoding is total: junk bytes, truncated payloads, unknown types,
//! non-finite floats and oversized length prefixes all surface as typed
//! [`WireError`]s, never panics — a misbehaving client must not be able to
//! take down a connection handler with malformed input.

use datawa_core::{Task, TaskId, Timestamp, Worker, WorkerId};
use datawa_stream::codec::{self, DecodeError, Reader, Writer};
use datawa_stream::{Decision, Event, JournalRecord};
use std::io::{Read, Write};

/// Protocol version carried (and checked) in the `Hello` handshake.
pub const PROTOCOL_VERSION: u8 = 1;

pub use datawa_stream::codec::MAX_FRAME_LEN;

/// Why an admission was refused, carried in a [`Frame::RetryAfter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RetryReason {
    /// This tenant's own ingest backlog exceeded its quota.
    TenantQuota = 0,
    /// The server-wide backlog cap was exceeded and this tenant (the
    /// stalest admitter) is being shed until pressure clears.
    GlobalOverload = 1,
    /// The global connection cap was reached; the connection is closed.
    ConnectionCap = 2,
    /// The tenant's pump crashed and is being restarted from its journal;
    /// the event was *not* ingested. Resend it after the suggested backoff.
    Recovering = 3,
}

impl RetryReason {
    fn from_byte(b: u8) -> Result<RetryReason, WireError> {
        match b {
            0 => Ok(RetryReason::TenantQuota),
            1 => Ok(RetryReason::GlobalOverload),
            2 => Ok(RetryReason::ConnectionCap),
            3 => Ok(RetryReason::Recovering),
            _ => Err(WireError::Malformed("unknown retry-after reason")),
        }
    }
}

/// A fatal protocol error, carried in a [`Frame::Error`] before the server
/// closes the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The first frame was not a well-formed `Hello`.
    BadHello = 0,
    /// The `Hello` version byte does not match [`PROTOCOL_VERSION`].
    VersionMismatch = 1,
    /// The `Hello` token was rejected.
    AuthFailed = 2,
    /// Another live connection already owns this tenant name.
    TenantBusy = 3,
    /// A frame violated the protocol (unknown type, malformed payload,
    /// oversized length prefix, client sent a server-only frame, …).
    Protocol = 4,
    /// An event frame violated the session's time contract (non-finite or
    /// decreasing timestamp, malformed task/worker fields).
    BadEvent = 5,
    /// The tenant's pump exhausted its recovery attempts without making
    /// progress; the ledger survives, so a reconnect may still resume.
    PumpFailed = 6,
}

impl ErrorCode {
    fn from_byte(b: u8) -> Result<ErrorCode, WireError> {
        match b {
            0 => Ok(ErrorCode::BadHello),
            1 => Ok(ErrorCode::VersionMismatch),
            2 => Ok(ErrorCode::AuthFailed),
            3 => Ok(ErrorCode::TenantBusy),
            4 => Ok(ErrorCode::Protocol),
            5 => Ok(ErrorCode::BadEvent),
            6 => Ok(ErrorCode::PumpFailed),
            _ => Err(WireError::Malformed("unknown error code")),
        }
    }
}

/// One protocol frame, client→server or server→client.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    // ---- client → server ----
    /// Handshake: must be the first frame on a connection.
    Hello {
        /// Must equal [`PROTOCOL_VERSION`].
        version: u8,
        /// Tenant name this connection ingests for (one live connection per
        /// tenant).
        tenant: String,
        /// Shared-secret auth token (checked when the server has one).
        token: String,
    },
    /// A task publication at `time`.
    TaskArrival {
        /// Ingest instant.
        time: Timestamp,
        /// The published task.
        task: Task,
    },
    /// A worker check-in at `time`.
    WorkerOnline {
        /// Ingest instant.
        time: Timestamp,
        /// The worker coming online.
        worker: Worker,
    },
    /// An externally-driven task expiration.
    TaskExpiration {
        /// Ingest instant.
        time: Timestamp,
        /// The expiring task.
        task: TaskId,
    },
    /// An externally-driven worker departure.
    WorkerOffline {
        /// Ingest instant.
        time: Timestamp,
        /// The departing worker.
        worker: WorkerId,
    },
    /// An explicit re-planning request at `time`.
    ReplanTick {
        /// Ingest instant.
        time: Timestamp,
    },
    /// Advance the session through a quiet period to `time`.
    AdvanceTo {
        /// Target instant.
        time: Timestamp,
    },
    /// Orderly end of the tenant's stream; the server drains the session
    /// and answers with [`Frame::Closed`].
    Close,
    /// Reconnect-and-resume: tells the server how many decision frames the
    /// client has already received, so a recovered pump suppresses exactly
    /// that replayed prefix. As the first post-handshake frame it arms
    /// resume; mid-stream it is a sync ping the server answers with a
    /// [`Frame::ResumeAck`] carrying the current ingested-command count.
    Resume {
        /// Decision frames the client has already received on earlier
        /// connections for this tenant.
        decisions_seen: u64,
    },

    // ---- server → client ----
    /// Handshake accepted.
    HelloAck {
        /// The server's protocol version.
        version: u8,
    },
    /// A worker departs for a task ([`Decision::Dispatch`]).
    Dispatch {
        /// Decision instant.
        at: Timestamp,
        /// Dispatched worker.
        worker: WorkerId,
        /// Task it will serve.
        task: TaskId,
        /// When the worker reaches the task.
        eta: Timestamp,
    },
    /// A task expired unserved ([`Decision::TaskExpired`]).
    TaskExpired {
        /// Expiration instant.
        at: Timestamp,
        /// The lost task.
        task: TaskId,
    },
    /// A worker's availability window closed ([`Decision::WorkerOffline`]).
    OfflineNotice {
        /// Window-close instant.
        at: Timestamp,
        /// The departing worker.
        worker: WorkerId,
    },
    /// Admission refused; the event was *not* ingested. Retry after the
    /// suggested backoff.
    RetryAfter {
        /// Suggested client backoff in seconds.
        seconds: f64,
        /// Which limit was hit.
        reason: RetryReason,
    },
    /// Fatal protocol error; the server closes the connection after this.
    Error {
        /// What went wrong.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Answers a [`Frame::Resume`] (and is also sent unconditionally once a
    /// tenant pump starts or restarts): how many of the tenant's commands
    /// (events + advances) the server has durably ingested. A resuming
    /// client replays its command log from this index — commands the server
    /// never admitted are resent, admitted ones are not, so nothing is lost
    /// or double-ingested.
    ResumeAck {
        /// Commands (events + advances) ingested into the tenant's journal.
        events_ingested: u64,
    },
    /// Final frame of an orderly shutdown: the session's totals.
    Closed {
        /// Tasks assigned over the whole session.
        assigned: u64,
        /// Decisions streamed back (dispatches + expirations + offlines).
        decisions: u64,
        /// Events the engine processed (including auto-scheduled lifetimes).
        events: u64,
        /// Planning invocations.
        planning_calls: u64,
    },
}

/// A decode or transport failure.
#[derive(Debug)]
pub enum WireError {
    /// Underlying socket/file error.
    Io(std::io::Error),
    /// The length prefix exceeded [`MAX_FRAME_LEN`] (or was zero).
    BadLength(usize),
    /// The payload ended before the advertised field layout.
    Truncated,
    /// The payload's first byte is not a known frame type.
    UnknownType(u8),
    /// A field violated its invariant (bad enum byte, non-UTF-8 string,
    /// non-finite float, trailing garbage).
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::BadLength(n) => {
                write!(f, "frame length {n} outside 1..={MAX_FRAME_LEN}")
            }
            WireError::Truncated => write!(f, "payload shorter than its frame layout"),
            WireError::UnknownType(b) => write!(f, "unknown frame type byte {b:#04x}"),
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e)
    }
}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> WireError {
        match e {
            DecodeError::Truncated => WireError::Truncated,
            DecodeError::Malformed(what) => WireError::Malformed(what),
        }
    }
}

impl WireError {
    /// Whether this is a clean end-of-stream *between* frames (the peer hung
    /// up without violating the protocol mid-frame).
    pub fn is_clean_eof(&self) -> bool {
        matches!(self, WireError::Io(e) if e.kind() == std::io::ErrorKind::UnexpectedEof)
    }
}

// Frame type bytes. Client→server types have the high bit clear,
// server→client types have it set. The command types `0x02..=0x07` are the
// codec's.
const T_HELLO: u8 = 0x01;
const T_CLOSE: u8 = 0x08;
const T_RESUME: u8 = 0x09;
const T_HELLO_ACK: u8 = 0x81;
const T_DISPATCH: u8 = 0x82;
const T_TASK_EXPIRED: u8 = 0x83;
const T_OFFLINE_NOTICE: u8 = 0x84;
const T_RETRY_AFTER: u8 = 0x85;
const T_ERROR: u8 = 0x86;
const T_CLOSED: u8 = 0x87;
const T_RESUME_ACK: u8 = 0x88;

impl Frame {
    /// Serialises the frame payload (type byte included, length prefix not).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        self.encode_payload(&mut payload);
        payload
    }

    /// Appends the whole wire frame to `out`: the `u32` length prefix, then
    /// the payload. Frames queued back to back in one buffer go out in one
    /// write.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        codec::length_prefixed(out, |out| self.encode_payload(out));
        debug_assert!(
            (1..=MAX_FRAME_LEN).contains(&(out.len() - start - 4)),
            "encoded frame violates MAX_FRAME_LEN"
        );
    }

    /// Appends the payload (type byte included, length prefix not) to `out`.
    fn encode_payload(&self, out: &mut Vec<u8>) {
        if let Some(command) = self.command() {
            codec::encode_command(&command, out);
            return;
        }
        match self {
            Frame::Hello {
                version,
                tenant,
                token,
            } => {
                let mut e = Writer::new(out, T_HELLO);
                e.u8(*version);
                e.str(tenant);
                e.str(token);
            }
            Frame::Close => out.push(T_CLOSE),
            Frame::Resume { decisions_seen } => {
                let mut e = Writer::new(out, T_RESUME);
                e.u64(*decisions_seen);
            }
            Frame::ResumeAck { events_ingested } => {
                let mut e = Writer::new(out, T_RESUME_ACK);
                e.u64(*events_ingested);
            }
            Frame::HelloAck { version } => {
                let mut e = Writer::new(out, T_HELLO_ACK);
                e.u8(*version);
            }
            Frame::Dispatch {
                at,
                worker,
                task,
                eta,
            } => {
                let mut e = Writer::new(out, T_DISPATCH);
                e.f64(at.0);
                e.u32(worker.0);
                e.u32(task.0);
                e.f64(eta.0);
            }
            Frame::TaskExpired { at, task } => {
                let mut e = Writer::new(out, T_TASK_EXPIRED);
                e.f64(at.0);
                e.u32(task.0);
            }
            Frame::OfflineNotice { at, worker } => {
                let mut e = Writer::new(out, T_OFFLINE_NOTICE);
                e.f64(at.0);
                e.u32(worker.0);
            }
            Frame::RetryAfter { seconds, reason } => {
                let mut e = Writer::new(out, T_RETRY_AFTER);
                e.f64(*seconds);
                e.u8(*reason as u8);
            }
            Frame::Error { code, message } => {
                let mut e = Writer::new(out, T_ERROR);
                e.u8(*code as u8);
                e.str(message);
            }
            Frame::Closed {
                assigned,
                decisions,
                events,
                planning_calls,
            } => {
                let mut e = Writer::new(out, T_CLOSED);
                e.u64(*assigned);
                e.u64(*decisions);
                e.u64(*events);
                e.u64(*planning_calls);
            }
            // Encoded by the command codec above.
            Frame::TaskArrival { .. }
            | Frame::WorkerOnline { .. }
            | Frame::TaskExpiration { .. }
            | Frame::WorkerOffline { .. }
            | Frame::ReplanTick { .. }
            | Frame::AdvanceTo { .. } => {}
        }
    }

    /// Parses one frame payload (as produced by [`Frame::encode`]).
    pub fn decode(payload: &[u8]) -> Result<Frame, WireError> {
        let (&ty, rest) = payload
            .split_first()
            .ok_or(WireError::Malformed("empty payload"))?;
        let mut d = Reader::new(rest);
        let frame = match ty {
            T_HELLO => Frame::Hello {
                version: d.u8()?,
                tenant: d.str()?,
                token: d.str()?,
            },
            T_CLOSE => Frame::Close,
            T_RESUME => Frame::Resume {
                decisions_seen: d.u64()?,
            },
            T_RESUME_ACK => Frame::ResumeAck {
                events_ingested: d.u64()?,
            },
            T_HELLO_ACK => Frame::HelloAck { version: d.u8()? },
            T_DISPATCH => Frame::Dispatch {
                at: Timestamp(d.finite()?),
                worker: WorkerId(d.u32()?),
                task: TaskId(d.u32()?),
                eta: Timestamp(d.finite_or_inf()?),
            },
            T_TASK_EXPIRED => Frame::TaskExpired {
                at: Timestamp(d.finite()?),
                task: TaskId(d.u32()?),
            },
            T_OFFLINE_NOTICE => Frame::OfflineNotice {
                at: Timestamp(d.finite()?),
                worker: WorkerId(d.u32()?),
            },
            T_RETRY_AFTER => Frame::RetryAfter {
                seconds: d.finite()?,
                reason: RetryReason::from_byte(d.u8()?)?,
            },
            T_ERROR => Frame::Error {
                code: ErrorCode::from_byte(d.u8()?)?,
                message: d.str()?,
            },
            T_CLOSED => Frame::Closed {
                assigned: d.u64()?,
                decisions: d.u64()?,
                events: d.u64()?,
                planning_calls: d.u64()?,
            },
            ty if codec::is_command(ty) => match codec::decode_command(ty, &mut d)? {
                JournalRecord::Event(time, event) => Frame::from_event(time, &event),
                JournalRecord::Advance(time) => Frame::AdvanceTo { time },
            },
            other => return Err(WireError::UnknownType(other)),
        };
        d.done()?;
        Ok(frame)
    }

    /// The session command a client command frame carries; `None` for every
    /// other frame.
    fn command(&self) -> Option<JournalRecord> {
        let (time, event) = match *self {
            Frame::TaskArrival { time, task } => (time, Event::TaskArrival(task)),
            Frame::WorkerOnline { time, worker } => (time, Event::WorkerOnline(worker)),
            Frame::TaskExpiration { time, task } => (time, Event::TaskExpiration(task)),
            Frame::WorkerOffline { time, worker } => (time, Event::WorkerOffline(worker)),
            Frame::ReplanTick { time } => (time, Event::ReplanTick),
            Frame::AdvanceTo { time } => return Some(JournalRecord::Advance(time)),
            _ => return None,
        };
        Some(JournalRecord::Event(time, event))
    }

    /// Maps a client event frame onto the engine's `(time, event)`
    /// vocabulary; `None` for every non-event frame.
    #[must_use]
    pub fn into_event(self) -> Option<(Timestamp, Event)> {
        match self.command()? {
            JournalRecord::Event(time, event) => Some((time, event)),
            JournalRecord::Advance(_) => None,
        }
    }

    /// The event frame carrying `event` at `time` — the inverse of
    /// [`Frame::into_event`].
    #[must_use]
    pub fn from_event(time: Timestamp, event: &Event) -> Frame {
        match *event {
            Event::TaskArrival(task) => Frame::TaskArrival { time, task },
            Event::WorkerOnline(worker) => Frame::WorkerOnline { time, worker },
            Event::TaskExpiration(task) => Frame::TaskExpiration { time, task },
            Event::WorkerOffline(worker) => Frame::WorkerOffline { time, worker },
            Event::ReplanTick => Frame::ReplanTick { time },
        }
    }

    /// The decision frame announcing `decision` — what a routing sink
    /// streams back to the owning connection.
    #[must_use]
    pub fn from_decision(decision: &Decision) -> Frame {
        match *decision {
            Decision::Dispatch {
                at,
                worker,
                task,
                eta,
            } => Frame::Dispatch {
                at,
                worker,
                task,
                eta,
            },
            Decision::TaskExpired { at, task } => Frame::TaskExpired { at, task },
            Decision::WorkerOffline { at, worker } => Frame::OfflineNotice { at, worker },
        }
    }

    /// The decision a server decision frame announces; `None` for every
    /// other frame.
    #[must_use]
    pub fn into_decision(self) -> Option<Decision> {
        match self {
            Frame::Dispatch {
                at,
                worker,
                task,
                eta,
            } => Some(Decision::Dispatch {
                at,
                worker,
                task,
                eta,
            }),
            Frame::TaskExpired { at, task } => Some(Decision::TaskExpired { at, task }),
            Frame::OfflineNotice { at, worker } => Some(Decision::WorkerOffline { at, worker }),
            _ => None,
        }
    }
}

/// Writes one length-prefixed frame with a single `write_all`, then flushes.
/// Prefix and payload never go out as two writes: on a socket with Nagle's
/// algorithm on, the payload would wait for the peer to acknowledge the
/// prefix — a delayed-ACK stall of up to tens of milliseconds per frame.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    let mut bytes = Vec::with_capacity(64);
    frame.encode_into(&mut bytes);
    w.write_all(&bytes)?;
    w.flush()
}

/// Reads one length-prefixed frame, rejecting oversized/zero length
/// prefixes *before* reading (or allocating) the payload.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, WireError> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if !(1..=MAX_FRAME_LEN).contains(&len) {
        return Err(WireError::BadLength(len));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Frame::decode(&payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datawa_core::Location;

    fn task() -> Task {
        Task::new(
            TaskId(7),
            Location::new(1.5, -2.25),
            Timestamp(3.0),
            Timestamp(9.5),
        )
    }

    fn worker() -> Worker {
        Worker::new(
            WorkerId(11),
            Location::new(0.5, 0.25),
            4.0,
            Timestamp(1.0),
            Timestamp(100.0),
        )
    }

    fn all_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                version: PROTOCOL_VERSION,
                tenant: "acme".into(),
                token: "s3cret".into(),
            },
            Frame::TaskArrival {
                time: Timestamp(3.0),
                task: task(),
            },
            Frame::WorkerOnline {
                time: Timestamp(1.0),
                worker: worker(),
            },
            Frame::TaskExpiration {
                time: Timestamp(9.5),
                task: TaskId(7),
            },
            Frame::WorkerOffline {
                time: Timestamp(100.0),
                worker: WorkerId(11),
            },
            Frame::ReplanTick {
                time: Timestamp(4.0),
            },
            Frame::AdvanceTo {
                time: Timestamp(50.0),
            },
            Frame::Close,
            Frame::Resume { decisions_seen: 12 },
            Frame::ResumeAck {
                events_ingested: 345,
            },
            Frame::HelloAck {
                version: PROTOCOL_VERSION,
            },
            Frame::Dispatch {
                at: Timestamp(3.0),
                worker: WorkerId(11),
                task: TaskId(7),
                eta: Timestamp(4.25),
            },
            Frame::TaskExpired {
                at: Timestamp(9.5),
                task: TaskId(7),
            },
            Frame::OfflineNotice {
                at: Timestamp(100.0),
                worker: WorkerId(11),
            },
            Frame::RetryAfter {
                seconds: 0.05,
                reason: RetryReason::TenantQuota,
            },
            Frame::RetryAfter {
                seconds: 0.1,
                reason: RetryReason::Recovering,
            },
            Frame::Error {
                code: ErrorCode::TenantBusy,
                message: "tenant acme already connected".into(),
            },
            Frame::Closed {
                assigned: 42,
                decisions: 99,
                events: 1000,
                planning_calls: 17,
            },
        ]
    }

    #[test]
    fn every_frame_round_trips_bitwise() {
        for frame in all_frames() {
            let payload = frame.encode();
            let back = Frame::decode(&payload).expect("decode own encoding");
            assert_eq!(back, frame);
            assert_eq!(back.encode(), payload, "re-encode is byte-identical");
        }
    }

    #[test]
    fn encode_into_appends_prefix_then_payload() {
        let mut buf = vec![0xAA];
        for frame in all_frames() {
            let start = buf.len();
            frame.encode_into(&mut buf);
            let payload = frame.encode();
            assert_eq!(buf[start..start + 4], (payload.len() as u32).to_le_bytes());
            assert_eq!(buf[start + 4..], payload[..]);
        }
        assert_eq!(buf[0], 0xAA, "earlier bytes are left alone");
    }

    #[test]
    fn stream_round_trip_through_a_byte_pipe() {
        let mut pipe = Vec::new();
        for frame in all_frames() {
            write_frame(&mut pipe, &frame).unwrap();
        }
        let mut cursor = std::io::Cursor::new(pipe);
        for frame in all_frames() {
            assert_eq!(read_frame(&mut cursor).unwrap(), frame);
        }
        assert!(
            read_frame(&mut cursor).unwrap_err().is_clean_eof(),
            "drained pipe ends cleanly between frames"
        );
    }

    #[test]
    fn oversized_and_zero_length_prefixes_are_rejected_before_allocation() {
        let huge = (u32::MAX).to_le_bytes();
        assert!(matches!(
            read_frame(&mut std::io::Cursor::new(huge)),
            Err(WireError::BadLength(_))
        ));
        let zero = 0u32.to_le_bytes();
        assert!(matches!(
            read_frame(&mut std::io::Cursor::new(zero)),
            Err(WireError::BadLength(0))
        ));
    }

    #[test]
    fn junk_payloads_decode_to_typed_errors_not_panics() {
        assert!(matches!(Frame::decode(&[]), Err(WireError::Malformed(_))));
        assert!(matches!(
            Frame::decode(&[0x42]),
            Err(WireError::UnknownType(0x42))
        ));
        // A truncated task arrival.
        let mut short = Frame::TaskArrival {
            time: Timestamp(3.0),
            task: task(),
        }
        .encode();
        short.truncate(short.len() - 1);
        assert!(matches!(Frame::decode(&short), Err(WireError::Truncated)));
        // Trailing garbage after a complete layout.
        let mut long = Frame::Close.encode();
        long.push(0);
        assert!(matches!(Frame::decode(&long), Err(WireError::Malformed(_))));
    }

    #[test]
    fn non_finite_times_are_refused_at_the_codec() {
        let mut payload = Frame::ReplanTick {
            time: Timestamp(1.0),
        }
        .encode();
        payload[1..9].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(matches!(
            Frame::decode(&payload),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn open_ended_expirations_survive_the_wire() {
        let frame = Frame::TaskArrival {
            time: Timestamp(0.0),
            task: Task::new(
                TaskId(1),
                Location::new(0.0, 0.0),
                Timestamp(0.0),
                Timestamp(f64::INFINITY),
            ),
        };
        assert_eq!(Frame::decode(&frame.encode()).unwrap(), frame);
    }

    #[test]
    fn journal_bytes_are_wire_event_frame_bytes() {
        // A tenant's journal is the admitted prefix of its wire command
        // stream, byte for byte: both encode commands through
        // `datawa_stream::codec`, and this pins the framing around it.
        use datawa_stream::EventJournal;
        let journal = EventJournal::in_memory();
        let commands = [
            (Timestamp(1.0), Event::WorkerOnline(worker())),
            (Timestamp(3.0), Event::TaskArrival(task())),
            (Timestamp(4.0), Event::ReplanTick),
            (Timestamp(9.5), Event::TaskExpiration(TaskId(7))),
            (Timestamp(100.0), Event::WorkerOffline(WorkerId(11))),
        ];
        let mut pipe = Vec::new();
        for (time, event) in &commands {
            journal.append_event(*time, event).unwrap();
            write_frame(&mut pipe, &Frame::from_event(*time, event)).unwrap();
        }
        journal.append_advance(Timestamp(50.0)).unwrap();
        write_frame(
            &mut pipe,
            &Frame::AdvanceTo {
                time: Timestamp(50.0),
            },
        )
        .unwrap();
        assert_eq!(
            journal.snapshot_bytes().unwrap(),
            pipe,
            "journal byte stream == wire frame stream"
        );
        // And the journal's reader decodes a captured wire stream.
        let recovered = EventJournal::from_bytes(pipe).recovered_records().unwrap();
        assert_eq!(recovered.len(), commands.len() + 1);
    }

    #[test]
    fn event_and_decision_mappings_invert() {
        let arrivals = [
            Event::TaskArrival(task()),
            Event::WorkerOnline(worker()),
            Event::TaskExpiration(TaskId(7)),
            Event::WorkerOffline(WorkerId(11)),
            Event::ReplanTick,
        ];
        for event in arrivals {
            let frame = Frame::from_event(Timestamp(2.0), &event);
            let (t, back) = frame.into_event().expect("event frames map to events");
            assert_eq!(t, Timestamp(2.0));
            assert_eq!(back.kind(), event.kind());
        }
        let decision = Decision::Dispatch {
            at: Timestamp(1.0),
            worker: WorkerId(3),
            task: TaskId(4),
            eta: Timestamp(2.0),
        };
        assert_eq!(
            Frame::from_decision(&decision).into_decision(),
            Some(decision)
        );
        assert_eq!(Frame::Close.into_event(), None);
        assert_eq!(
            Frame::HelloAck {
                version: PROTOCOL_VERSION
            }
            .into_decision(),
            None
        );
    }
}
