//! Append-only event journaling and crash recovery for [`Session`]s.
//!
//! An [`EventJournal`] records every accepted [`Session::ingest`] call and
//! every finite [`Session::advance_to`] target, in call order, as
//! length-prefixed binary records. A record's payload is its command's one
//! byte layout in [`codec`], which the wire protocol's six command frames
//! (`PROTOCOL.md` types `0x02..=0x07`) are encoded by too, so a tenant's
//! journal is the admitted prefix of its wire command stream by
//! construction. Because the engine is bitwise-deterministic over its
//! ingest/advance call sequence, replaying a journal into a fresh session
//! ([`Session::recover`]) reproduces the interrupted run's decision stream
//! exactly, decision for decision, bit for bit.
//!
//! The journal has one backend: an in-memory byte buffer, shared by every
//! clone of the handle, for supervised in-process restarts and tests. A
//! captured byte stream rebuilds a journal with [`EventJournal::from_bytes`].
//! Torn tails — a record cut mid-length-prefix or mid-payload, the signature
//! of a crash during append — are silently dropped, yielding the longest
//! clean prefix; a *complete* record that fails to decode is a typed
//! [`JournalError::Corrupt`], never a panic.
//!
//! [`Session`]: crate::Session
//! [`Session::ingest`]: crate::Session::ingest
//! [`Session::advance_to`]: crate::Session::advance_to
//! [`Session::recover`]: crate::Session::recover

use crate::codec::{self, DecodeError, Reader, MAX_FRAME_LEN};
use crate::event::Event;
use crate::session::{Decision, DecisionSink, IngestError};
use datawa_core::Timestamp;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// One replayable session command.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// An accepted [`Session::ingest`](crate::Session::ingest) call.
    Event(Timestamp, Event),
    /// A finite [`Session::advance_to`](crate::Session::advance_to) target.
    Advance(Timestamp),
}

/// Why a journal operation failed.
#[derive(Debug)]
pub enum JournalError {
    /// A complete record at `offset` failed to decode — the byte stream is
    /// not (or no longer) a journal. Torn tails are *not* corruption; they
    /// are dropped silently.
    Corrupt {
        /// Byte offset of the record's length prefix.
        offset: usize,
        /// What the decoder objected to.
        what: &'static str,
    },
    /// Replaying a decoded record into a fresh session was rejected — the
    /// journal's command sequence violates the session's time contract,
    /// which a journal written through [`Session::ingest`](crate::Session::ingest) never does.
    Replay(IngestError),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Corrupt { offset, what } => {
                write!(f, "corrupt journal record at byte {offset}: {what}")
            }
            JournalError::Replay(e) => write!(f, "journal replay rejected: {e}"),
        }
    }
}

impl std::error::Error for JournalError {}

/// A cloneable handle to one append-only journal. Clones share the buffer;
/// the dispatch pump appends through one clone while the supervisor keeps
/// another for replay after a crash.
#[derive(Clone)]
pub struct EventJournal {
    bytes: Arc<Mutex<Vec<u8>>>,
    records: Arc<AtomicU64>,
    events: Arc<AtomicU64>,
}

impl std::fmt::Debug for EventJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventJournal")
            .field("records", &self.record_count())
            .field("events", &self.event_count())
            .finish()
    }
}

impl EventJournal {
    /// An empty in-memory journal.
    #[must_use]
    pub fn in_memory() -> EventJournal {
        EventJournal::over(Vec::new(), &[])
    }

    /// A journal over `bytes`, whose clean record prefix is `records`.
    fn over(bytes: Vec<u8>, records: &[JournalRecord]) -> EventJournal {
        let events = records
            .iter()
            .filter(|r| matches!(r, JournalRecord::Event(..)))
            .count();
        EventJournal {
            bytes: Arc::new(Mutex::new(bytes)),
            records: Arc::new(AtomicU64::new(records.len() as u64)),
            events: Arc::new(AtomicU64::new(events as u64)),
        }
    }

    /// A journal over existing bytes (tests and transports use this to
    /// rebuild a journal from a captured byte stream). Counts cover the
    /// longest clean record prefix, also when a corrupt record follows it;
    /// a torn or corrupt tail surfaces through
    /// [`EventJournal::recovered_records`].
    #[must_use]
    pub fn from_bytes(bytes: Vec<u8>) -> EventJournal {
        let mut records = Vec::new();
        // A corrupt record ends the prefix; the error is reported on read.
        let _ = scan(&bytes, &mut records);
        EventJournal::over(bytes, &records)
    }

    /// Records one accepted ingest. Called by [`Session::ingest`](crate::Session::ingest) *after* validation, so the journal only ever
    /// holds commands the session admitted. An in-memory append cannot
    /// fail: the result is always `Ok`, here and in
    /// [`EventJournal::append_advance`] and [`EventJournal::snapshot_bytes`].
    pub fn append_event(&self, time: Timestamp, event: &Event) -> Result<(), JournalError> {
        self.append(&JournalRecord::Event(time, event.clone()));
        self.events.fetch_add(1, Ordering::SeqCst);
        self.records.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    /// Records one finite advance target.
    pub fn append_advance(&self, time: Timestamp) -> Result<(), JournalError> {
        self.append(&JournalRecord::Advance(time));
        self.records.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    /// Encodes the frame on its own first, then copies it in: the shared
    /// buffer grows by whole frames only.
    fn append(&self, command: &JournalRecord) {
        let mut framed = Vec::with_capacity(64);
        codec::length_prefixed(&mut framed, |out| codec::encode_command(command, out));
        self.lock().extend_from_slice(&framed);
    }

    /// Records appended so far (events + advances). This is exactly the
    /// index into the replayable command sequence, which the wire protocol's
    /// `ResumeAck` reports back to reconnecting clients.
    pub fn record_count(&self) -> u64 {
        self.records.load(Ordering::SeqCst)
    }

    /// Event records appended so far (excluding advances).
    pub fn event_count(&self) -> u64 {
        self.events.load(Ordering::SeqCst)
    }

    /// Decodes the longest clean record prefix, dropping any torn tail.
    ///
    /// # Errors
    ///
    /// [`JournalError::Corrupt`] if a *complete* record fails to decode.
    pub fn recovered_records(&self) -> Result<Vec<JournalRecord>, JournalError> {
        let mut records = Vec::new();
        scan(&self.lock(), &mut records)?;
        Ok(records)
    }

    /// The journal's raw byte stream (for transport or inspection).
    pub fn snapshot_bytes(&self) -> Result<Vec<u8>, JournalError> {
        Ok(self.lock().clone())
    }

    /// A panicking pump must not take the journal down with it: the lock is
    /// recovered from poisoning because an append is one
    /// `extend_from_slice` call that never leaves the buffer half-written.
    fn lock(&self) -> MutexGuard<'_, Vec<u8>> {
        match self.bytes.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// Decodes one record payload: a command's type byte, then its layout.
fn decode_record(payload: &[u8]) -> Result<JournalRecord, DecodeError> {
    let (&ty, rest) = payload
        .split_first()
        .ok_or(DecodeError::Malformed("empty record payload"))?;
    let mut r = Reader::new(rest);
    let record = codec::decode_command(ty, &mut r)?;
    r.done()?;
    Ok(record)
}

/// Walks the byte stream, pushing the longest clean record prefix onto
/// `records`, and returns that prefix's byte length. A tail cut mid-prefix
/// or mid-payload is a torn write and ends the walk silently; a complete
/// record that fails to decode is [`JournalError::Corrupt`], with the
/// records before it already pushed.
fn scan(bytes: &[u8], records: &mut Vec<JournalRecord>) -> Result<usize, JournalError> {
    let mut offset = 0usize;
    while let Ok(len) = Reader::new(&bytes[offset..]).u32() {
        let len = len as usize;
        if !(1..=MAX_FRAME_LEN).contains(&len) {
            return Err(JournalError::Corrupt {
                offset,
                what: "record length outside bounds",
            });
        }
        let start = offset + 4;
        if bytes.len() - start < len {
            break; // torn payload: clean prefix ends here
        }
        let record =
            decode_record(&bytes[start..start + len]).map_err(|e| JournalError::Corrupt {
                offset,
                what: e.what(),
            })?;
        records.push(record);
        offset = start + len;
    }
    Ok(offset)
}

/// A sink adapter that swallows the first `skip` decisions and forwards the
/// rest — how a recovered pump suppresses the replayed decision prefix its
/// client already received, so the client-visible stream continues seamlessly
/// with neither losses nor duplicates.
#[derive(Debug)]
pub struct SkipSink<S: DecisionSink> {
    inner: S,
    remaining: u64,
    skipped: u64,
}

impl<S: DecisionSink> SkipSink<S> {
    /// Wraps `inner`, suppressing its first `skip` decisions.
    #[must_use]
    pub fn new(inner: S, skip: u64) -> SkipSink<S> {
        SkipSink {
            inner,
            remaining: skip,
            skipped: 0,
        }
    }

    /// Decisions suppressed so far.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Decisions still to be suppressed.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Unwraps the inner sink.
    #[must_use]
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: DecisionSink> DecisionSink for SkipSink<S> {
    fn emit(&mut self, decision: Decision) {
        if self.remaining > 0 {
            self.remaining -= 1;
            self.skipped += 1;
        } else {
            self.inner.emit(decision);
        }
    }

    fn observe_event(&mut self, time: Timestamp, event: &Event) {
        self.inner.observe_event(time, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::CollectingSink;
    use datawa_core::{Location, Task, TaskId, Worker, WorkerId};

    fn encode_record(record: &JournalRecord) -> Vec<u8> {
        let mut payload = Vec::new();
        codec::encode_command(record, &mut payload);
        payload
    }

    fn task(id: u32, p: f64, e: f64) -> Task {
        Task::new(
            TaskId(id),
            Location::new(1.5, -2.25),
            Timestamp(p),
            Timestamp(e),
        )
    }

    fn worker(id: u32, on: f64, off: f64) -> Worker {
        Worker::new(
            WorkerId(id),
            Location::new(0.5, 0.25),
            4.0,
            Timestamp(on),
            Timestamp(off),
        )
    }

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Event(Timestamp(0.0), Event::WorkerOnline(worker(3, 0.0, 90.0))),
            JournalRecord::Advance(Timestamp(0.5)),
            JournalRecord::Event(Timestamp(1.0), Event::TaskArrival(task(7, 1.0, 9.5))),
            JournalRecord::Event(Timestamp(2.0), Event::ReplanTick),
            JournalRecord::Event(Timestamp(3.0), Event::TaskExpiration(TaskId(7))),
            JournalRecord::Event(Timestamp(4.0), Event::WorkerOffline(WorkerId(3))),
            JournalRecord::Advance(Timestamp(5.0)),
        ]
    }

    fn journal_with(records: &[JournalRecord]) -> EventJournal {
        let j = EventJournal::in_memory();
        for r in records {
            match r {
                JournalRecord::Event(t, e) => j.append_event(*t, e).unwrap(),
                JournalRecord::Advance(t) => j.append_advance(*t).unwrap(),
            }
        }
        j
    }

    #[test]
    fn records_round_trip_bitwise() {
        for record in sample_records() {
            let payload = encode_record(&record);
            let back = decode_record(&payload).expect("decode own encoding");
            assert_eq!(back, record);
            assert_eq!(encode_record(&back), payload, "re-encode is byte-identical");
        }
    }

    #[test]
    fn append_then_recover_preserves_order_and_counts() {
        let records = sample_records();
        let j = journal_with(&records);
        assert_eq!(j.record_count(), 7);
        assert_eq!(j.event_count(), 5);
        assert_eq!(j.recovered_records().unwrap(), records);
        // A clone shares the backend and the counters.
        let clone = j.clone();
        clone.append_advance(Timestamp(6.0)).unwrap();
        assert_eq!(j.record_count(), 8);
    }

    #[test]
    fn torn_tail_yields_the_clean_prefix() {
        let records = sample_records();
        let full = journal_with(&records).snapshot_bytes().unwrap();
        // Every strictly-shorter truncation either drops whole records or
        // tears the last one; the reader must return the clean prefix.
        for cut in 0..full.len() {
            let j = EventJournal::from_bytes(full[..cut].to_vec());
            let recovered = j.recovered_records().expect("truncation never corrupts");
            assert!(recovered.len() <= records.len());
            assert_eq!(
                &records[..recovered.len()],
                &recovered[..],
                "prefix at cut {cut}"
            );
        }
    }

    #[test]
    fn corrupt_complete_records_surface_typed_errors() {
        let j = journal_with(&sample_records());
        let mut bytes = j.snapshot_bytes().unwrap();
        // Overwrite the first record's type byte (offset 4, after the length
        // prefix) with an unknown type: a complete-but-undecodable record.
        bytes[4] = 0x7e;
        let err = EventJournal::from_bytes(bytes)
            .recovered_records()
            .unwrap_err();
        assert!(
            matches!(err, JournalError::Corrupt { offset: 0, .. }),
            "got {err}"
        );

        // A hostile length prefix is corruption, not a torn tail.
        let mut huge = j.snapshot_bytes().unwrap();
        huge[..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        let err = EventJournal::from_bytes(huge)
            .recovered_records()
            .unwrap_err();
        assert!(matches!(err, JournalError::Corrupt { offset: 0, .. }));
    }

    #[test]
    fn counts_cover_the_clean_prefix_before_a_corrupt_record() {
        let records = sample_records();
        let mut bytes = journal_with(&records).snapshot_bytes().unwrap();
        let clean_len = bytes.len();
        // A complete record with an unknown type byte.
        bytes.extend_from_slice(&9u32.to_le_bytes());
        bytes.push(0x7e);
        bytes.extend_from_slice(&1.0f64.to_le_bytes());
        let j = EventJournal::from_bytes(bytes);
        assert_eq!(j.record_count(), records.len() as u64);
        assert_eq!(j.event_count(), 5);
        assert!(matches!(
            j.recovered_records(),
            Err(JournalError::Corrupt { offset, .. }) if offset == clean_len
        ));
    }

    #[test]
    fn skip_sink_swallows_exactly_the_prefix() {
        let mut sink = SkipSink::new(CollectingSink::new(), 2);
        for i in 0..5 {
            sink.emit(Decision::TaskExpired {
                at: Timestamp(i as f64),
                task: TaskId(i),
            });
        }
        assert_eq!(sink.skipped(), 2);
        assert_eq!(sink.remaining(), 0);
        let decisions = sink.into_inner().into_decisions();
        assert_eq!(decisions.len(), 3);
        assert_eq!(
            decisions[0].at(),
            Timestamp(2.0),
            "prefix suppressed in order"
        );
    }
}
