//! Property tests over the wire codec: every frame the protocol can express
//! survives an encode → decode round trip unchanged, and the decoder is
//! *total* — arbitrary bytes either decode to some frame or return a typed
//! [`WireError`], never a panic or an allocation stampede.

use datawa_core::{
    AvailabilityWindow, Location, Task, TaskId, Timestamp, Worker, WorkerId, WorkerMode,
};
use datawa_net::wire::write_frame;
use datawa_net::{ErrorCode, Frame, RetryReason, MAX_FRAME_LEN};
use datawa_stream::{EventJournal, JournalError, JournalRecord};
use proptest::prelude::*;

/// A finite, codec-exact timestamp. The wire carries raw `f64` bits, so any
/// finite value round-trips bit-for-bit; NaN is rejected by the decoder and
/// excluded here.
fn timestamp() -> impl Strategy<Value = Timestamp> {
    (-1.0e6f64..1.0e6).prop_map(Timestamp)
}

/// Short printable-ASCII strings for tenant names, tokens and messages.
fn short_string() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..62, 0..12).prop_map(|picks| {
        picks
            .into_iter()
            .map(|p| {
                let alphabet = b"abcdefghijklmnopqrstuvwxyz0123456789-ABCDEFGHIJKLMNOPQRSTUVWX";
                alphabet[p % alphabet.len()] as char
            })
            .collect()
    })
}

fn task() -> impl Strategy<Value = Task> {
    (
        0usize..10_000,
        -100.0f64..100.0,
        -100.0f64..100.0,
        0.0f64..1.0e5,
        0.0f64..1.0e5,
        any::<bool>(),
    )
        .prop_map(|(id, x, y, publication, extra, unbounded)| Task {
            id: TaskId(id as u32),
            location: Location::new(x, y),
            publication: Timestamp(publication),
            // Exercise the +inf deadline encoding alongside finite ones.
            expiration: if unbounded {
                Timestamp(f64::INFINITY)
            } else {
                Timestamp(publication + extra)
            },
        })
}

fn worker() -> impl Strategy<Value = Worker> {
    (
        0usize..10_000,
        (-100.0f64..100.0, -100.0f64..100.0),
        0.1f64..50.0,
        0.0f64..1.0e5,
        0.0f64..1.0e5,
        any::<bool>(),
    )
        .prop_map(|(id, (x, y), reach, on, span, online)| Worker {
            id: WorkerId(id as u32),
            location: Location::new(x, y),
            reachable_distance: reach,
            window: AvailabilityWindow {
                on: Timestamp(on),
                off: Timestamp(on + span),
            },
            mode: if online {
                WorkerMode::Online
            } else {
                WorkerMode::Offline
            },
        })
}

fn frame() -> impl Strategy<Value = Frame> {
    prop_oneof!(
        (short_string(), short_string()).prop_map(|(tenant, token)| Frame::Hello {
            version: datawa_net::PROTOCOL_VERSION,
            tenant,
            token,
        }),
        (timestamp(), task()).prop_map(|(time, task)| Frame::TaskArrival { time, task }),
        (timestamp(), worker()).prop_map(|(time, worker)| Frame::WorkerOnline { time, worker }),
        (timestamp(), 0usize..10_000).prop_map(|(time, id)| Frame::TaskExpiration {
            time,
            task: TaskId(id as u32),
        }),
        (timestamp(), 0usize..10_000).prop_map(|(time, id)| Frame::WorkerOffline {
            time,
            worker: WorkerId(id as u32),
        }),
        timestamp().prop_map(|time| Frame::ReplanTick { time }),
        timestamp().prop_map(|time| Frame::AdvanceTo { time }),
        Just(Frame::Close),
        Just(Frame::HelloAck {
            version: datawa_net::PROTOCOL_VERSION,
        }),
        (timestamp(), 0usize..10_000, 0usize..10_000, timestamp()).prop_map(
            |(at, worker, task, eta)| Frame::Dispatch {
                at,
                worker: WorkerId(worker as u32),
                task: TaskId(task as u32),
                eta,
            }
        ),
        (timestamp(), 0usize..10_000).prop_map(|(at, id)| Frame::TaskExpired {
            at,
            task: TaskId(id as u32),
        }),
        (timestamp(), 0usize..10_000).prop_map(|(at, id)| Frame::OfflineNotice {
            at,
            worker: WorkerId(id as u32),
        }),
        (0.001f64..60.0, 0usize..3).prop_map(|(seconds, pick)| Frame::RetryAfter {
            seconds,
            reason: [
                RetryReason::TenantQuota,
                RetryReason::GlobalOverload,
                RetryReason::ConnectionCap,
            ][pick],
        }),
        (0usize..6, short_string()).prop_map(|(pick, message)| Frame::Error {
            code: [
                ErrorCode::BadHello,
                ErrorCode::VersionMismatch,
                ErrorCode::AuthFailed,
                ErrorCode::TenantBusy,
                ErrorCode::Protocol,
                ErrorCode::BadEvent,
            ][pick],
            message,
        }),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(assigned, decisions, events, planning_calls)| Frame::Closed {
                assigned,
                decisions,
                events,
                planning_calls,
            }
        ),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_frame_round_trips(frame in frame()) {
        let bytes = frame.encode();
        prop_assert!(
            !bytes.is_empty() && bytes.len() <= MAX_FRAME_LEN,
            "encoded frame must fit the length limit: {} bytes",
            bytes.len()
        );
        let decoded = Frame::decode(&bytes).expect("codec-produced bytes decode");
        prop_assert_eq!(decoded, frame);
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(
        payload in prop::collection::vec(0usize..256, 0..64)
    ) {
        let bytes: Vec<u8> = payload.into_iter().map(|b| b as u8).collect();
        // Total decoding: a typed result either way, no panics.
        let _ = Frame::decode(&bytes);
    }

    #[test]
    fn truncations_of_valid_frames_are_errors_not_panics(
        frame in frame(),
        cut in 0.0f64..1.0,
    ) {
        let bytes = frame.encode();
        let keep = ((bytes.len() as f64) * cut) as usize;
        if keep < bytes.len() {
            prop_assert!(
                Frame::decode(&bytes[..keep]).is_err(),
                "a strict prefix of a frame must not decode"
            );
        }
    }

    #[test]
    fn corrupted_type_bytes_are_errors_not_panics(
        frame in frame(),
        rogue in 0usize..256,
    ) {
        let mut bytes = frame.encode();
        bytes[0] = rogue as u8;
        // Either the rogue byte names another type whose layout happens to
        // match, or decode fails — both are fine, panicking is not.
        let _ = Frame::decode(&bytes);
    }

    #[test]
    fn command_frames_are_journal_records(frame in frame()) {
        // The session command a frame carries; `None` for the frames that
        // are not commands (handshake, control and decision frames).
        let command = match frame.clone() {
            Frame::AdvanceTo { time } => JournalRecord::Advance(time),
            other => match other.into_event() {
                Some((time, event)) => JournalRecord::Event(time, event),
                None => return,
            },
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).expect("writing to a Vec cannot fail");
        let recovered = EventJournal::from_bytes(wire.clone())
            .recovered_records()
            .expect("a command frame is a journal record");
        prop_assert_eq!(recovered, vec![command.clone()]);

        let journal = EventJournal::in_memory();
        match &command {
            JournalRecord::Event(time, event) => journal.append_event(*time, event),
            JournalRecord::Advance(time) => journal.append_advance(*time),
        }
        .expect("in-memory appends cannot fail");
        prop_assert_eq!(journal.snapshot_bytes().expect("in-memory read"), wire);
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_journal_scan(
        raw in prop::collection::vec(0usize..256, 0..257)
    ) {
        let bytes: Vec<u8> = raw.into_iter().map(|b| b as u8).collect();
        match EventJournal::from_bytes(bytes).recovered_records() {
            Ok(_) | Err(JournalError::Corrupt { .. }) => {}
            Err(other) => panic!("an in-memory scan fails only as Corrupt, got {other}"),
        }
    }
}
