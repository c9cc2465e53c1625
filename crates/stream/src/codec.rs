//! The one byte layout of a session command, shared by the journal and the
//! wire protocol.
//!
//! A session command is one accepted [`Session::ingest`] call or one finite
//! [`Session::advance_to`] target, i.e. a [`JournalRecord`]. Its payload is
//! a type byte (`PROTOCOL.md` types `0x02..=0x07`) followed by a fixed
//! field layout: `f64`s as IEEE-754 little-endian bits, ids as little-endian
//! `u32`s. [`EventJournal`] stores exactly these payloads, and `datawa-net`
//! sends its six command frames through [`encode_command`] and
//! [`decode_command`], so a tenant's journal is its admitted wire command
//! stream by construction. The [`Writer`] and [`Reader`] here are the only
//! byte writer and reader of either format; the wire's handshake, control
//! and decision frames use them too.
//!
//! Decoding is total: a short payload is [`DecodeError::Truncated`], and a
//! field that breaks its rule (a non-finite time, a NaN coordinate, an
//! unknown worker mode, trailing bytes) is [`DecodeError::Malformed`].
//!
//! [`Session::ingest`]: crate::Session::ingest
//! [`Session::advance_to`]: crate::Session::advance_to
//! [`EventJournal`]: crate::EventJournal

use crate::event::Event;
use crate::journal::JournalRecord;
use datawa_core::{
    AvailabilityWindow, Location, Task, TaskId, Timestamp, Worker, WorkerId, WorkerMode,
};

/// Upper bound on a frame payload, wire frame and journal record alike (a
/// journal record *is* a command frame). The largest legitimate frame is a
/// wire `Hello` with maximal tenant/token strings; event and decision frames
/// are all well under 100 bytes. A larger length prefix is a framing desync,
/// a stream that is not a journal, or an attack, and is rejected before any
/// allocation of the claimed size.
pub const MAX_FRAME_LEN: usize = 4096;

const TASK_ARRIVAL: u8 = 0x02;
const WORKER_ONLINE: u8 = 0x03;
const TASK_EXPIRATION: u8 = 0x04;
const WORKER_OFFLINE: u8 = 0x05;
const REPLAN_TICK: u8 = 0x06;
const ADVANCE_TO: u8 = 0x07;

/// Why a payload did not decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended before its layout did.
    Truncated,
    /// A field violated its rule; the text says which.
    Malformed(&'static str),
}

impl DecodeError {
    /// What the decoder objected to.
    pub fn what(self) -> &'static str {
        match self {
            DecodeError::Truncated => "payload shorter than its frame layout",
            DecodeError::Malformed(what) => what,
        }
    }
}

/// Sequential payload writer, appending to a borrowed buffer.
pub struct Writer<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> Writer<'a> {
    /// Starts a payload of type `ty` at the end of `buf`.
    pub fn new(buf: &'a mut Vec<u8>, ty: u8) -> Writer<'a> {
        buf.push(ty);
        Writer { buf }
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64`'s IEEE-754 bits, little-endian.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u16` byte length, then the string's UTF-8 bytes.
    pub fn str(&mut self, s: &str) {
        debug_assert!(s.len() <= u16::MAX as usize, "string field too long");
        self.buf.extend_from_slice(&(s.len() as u16).to_le_bytes());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Sequential payload reader over a borrowed slice.
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Reads `bytes` from the start.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { rest: bytes }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.rest.len() < n {
            return Err(DecodeError::Truncated);
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut raw = [0u8; N];
        raw.copy_from_slice(self.take(N)?);
        Ok(raw)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// An `f64` that must be finite (timestamps, coordinates, distances —
    /// the engine rejects or misbehaves on NaN/∞, so the codec refuses them
    /// at the boundary).
    pub fn finite(&mut self) -> Result<f64, DecodeError> {
        let v = self.f64()?;
        if v.is_finite() {
            Ok(v)
        } else {
            Err(DecodeError::Malformed("non-finite float field"))
        }
    }

    /// Like [`Reader::finite`] but additionally permits `+∞` (open-ended
    /// expirations, availability windows and arrival estimates are legal).
    pub fn finite_or_inf(&mut self) -> Result<f64, DecodeError> {
        let v = self.f64()?;
        if v.is_finite() || v == f64::INFINITY {
            Ok(v)
        } else {
            Err(DecodeError::Malformed("NaN or -inf float field"))
        }
    }

    /// A `u16` byte length, then that many bytes of UTF-8.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        let len = usize::from(self.u16()?);
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| DecodeError::Malformed("non-UTF-8 string field"))
    }

    /// Succeeds only if the whole payload was read.
    pub fn done(self) -> Result<(), DecodeError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::Malformed("trailing bytes after frame layout"))
        }
    }
}

/// Appends `encode`'s output to `out` behind its little-endian `u32` byte
/// length: one journal record, or one wire frame.
pub fn length_prefixed(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    encode(out);
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// Whether `ty` is the type byte of a command payload.
pub fn is_command(ty: u8) -> bool {
    (TASK_ARRIVAL..=ADVANCE_TO).contains(&ty)
}

/// Appends `command`'s payload (type byte first) to `out`.
pub fn encode_command(command: &JournalRecord, out: &mut Vec<u8>) {
    let (time, event) = match command {
        JournalRecord::Event(time, event) => (time, event),
        JournalRecord::Advance(time) => return Writer::new(out, ADVANCE_TO).f64(time.0),
    };
    let ty = match event {
        Event::TaskArrival(_) => TASK_ARRIVAL,
        Event::WorkerOnline(_) => WORKER_ONLINE,
        Event::TaskExpiration(_) => TASK_EXPIRATION,
        Event::WorkerOffline(_) => WORKER_OFFLINE,
        Event::ReplanTick => REPLAN_TICK,
    };
    let mut w = Writer::new(out, ty);
    w.f64(time.0);
    match event {
        Event::TaskArrival(task) => {
            w.u32(task.id.0);
            w.f64(task.location.x);
            w.f64(task.location.y);
            w.f64(task.publication.0);
            w.f64(task.expiration.0);
        }
        Event::WorkerOnline(worker) => {
            w.u32(worker.id.0);
            w.f64(worker.location.x);
            w.f64(worker.location.y);
            w.f64(worker.reachable_distance);
            w.f64(worker.window.on.0);
            w.f64(worker.window.off.0);
            w.u8(match worker.mode {
                WorkerMode::Online => 0,
                WorkerMode::Offline => 1,
            });
        }
        Event::TaskExpiration(task) => w.u32(task.0),
        Event::WorkerOffline(worker) => w.u32(worker.0),
        Event::ReplanTick => {}
    }
}

/// Decodes the fields of a command of type `ty` from `r`, leaving the
/// trailing-bytes check ([`Reader::done`]) to the caller.
pub fn decode_command(ty: u8, r: &mut Reader<'_>) -> Result<JournalRecord, DecodeError> {
    if !is_command(ty) {
        return Err(DecodeError::Malformed("unknown command type byte"));
    }
    let time = Timestamp(r.finite()?);
    let event = match ty {
        TASK_ARRIVAL => Event::TaskArrival(Task {
            id: TaskId(r.u32()?),
            location: Location::new(r.finite()?, r.finite()?),
            publication: Timestamp(r.finite()?),
            expiration: Timestamp(r.finite_or_inf()?),
        }),
        // A struct literal, not `Worker::new`: the constructor debug-asserts
        // window sanity, and hostile bytes must decode to a rejectable value,
        // never a panic. Semantic validation (`is_well_formed`) is the
        // admitting layer's job.
        WORKER_ONLINE => Event::WorkerOnline(Worker {
            id: WorkerId(r.u32()?),
            location: Location::new(r.finite()?, r.finite()?),
            reachable_distance: r.finite()?,
            window: AvailabilityWindow {
                on: Timestamp(r.finite()?),
                off: Timestamp(r.finite_or_inf()?),
            },
            mode: match r.u8()? {
                0 => WorkerMode::Online,
                1 => WorkerMode::Offline,
                _ => return Err(DecodeError::Malformed("unknown worker mode")),
            },
        }),
        TASK_EXPIRATION => Event::TaskExpiration(TaskId(r.u32()?)),
        WORKER_OFFLINE => Event::WorkerOffline(WorkerId(r.u32()?)),
        REPLAN_TICK => Event::ReplanTick,
        // `ADVANCE_TO`, the one type `is_command` admits that is left.
        _ => return Ok(JournalRecord::Advance(time)),
    };
    Ok(JournalRecord::Event(time, event))
}
