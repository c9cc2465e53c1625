//! Tenant isolation: a misbehaving client — oversized frames, junk bytes,
//! mid-frame disconnects, watermark violations, malformed entities — is
//! answered with a typed error (or silently dropped on disconnect) and
//! loses *its own* connection only. A well-behaved tenant running
//! concurrently must finish with a bit-identical decision stream, and the
//! server must keep accepting new connections afterwards.

use datawa_assign::{AdaptiveRunner, AssignConfig, PolicyKind, StaticForecast};
use datawa_core::{Location, Task, TaskId, Timestamp, Worker, WorkerId};
use datawa_net::{
    wire::{read_frame, write_frame},
    ClientError, ErrorCode, Frame, NetClient, NetConfig, NetServer, RetryOutcome, RetryPolicy,
    PROTOCOL_VERSION,
};
use datawa_service::{IngestSource, SourcePoll, WorkloadSource};
use datawa_stream::{
    CollectingSink, Decision, EngineConfig, Event, ScenarioGenerator, ScenarioSpec, Session,
    UniformBaseline, Workload,
};
use std::io::Write;
use std::net::TcpStream;

fn workload() -> Workload {
    UniformBaseline::new(
        ScenarioSpec::small()
            .with_tasks(80)
            .with_workers(8)
            .with_seed(9),
    )
    .generate()
}

fn direct_decisions(workload: &Workload) -> Vec<Decision> {
    let runner = AdaptiveRunner::new(AssignConfig::default(), PolicyKind::Greedy);
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

/// Runs a well-behaved tenant to completion and asserts its stream is
/// untouched; meanwhile `misbehave` does its worst on its own connection.
fn assert_good_tenant_survives(server: &NetServer, misbehave: impl FnOnce(std::net::SocketAddr)) {
    let workload = workload();
    let expected = direct_decisions(&workload);
    let addr = server.addr();

    let good = std::thread::spawn(move || {
        let mut client = NetClient::connect(addr, "good", "").expect("handshake");
        let mut source = WorkloadSource::new(&workload);
        while let SourcePoll::Ready(time, event) = source.poll() {
            client.send_event(time, &event).expect("send event frame");
        }
        client.close()
    });

    misbehave(addr);

    let outcome = good.join().expect("good tenant thread");
    assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);
    assert_eq!(
        outcome.decisions, expected,
        "a misbehaving neighbour corrupted a well-behaved tenant's stream"
    );

    // The server is still healthy: a fresh connection round-trips.
    let follow_up = NetClient::connect(addr, "follow-up", "").expect("post-abuse handshake");
    let closed = follow_up.close().closed.expect("clean close");
    assert_eq!(closed.assigned, 0, "empty session closes cleanly");
}

/// A raw socket that completed the handshake and can write arbitrary bytes.
fn raw_handshake(addr: std::net::SocketAddr, tenant: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_frame(
        &mut stream,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
            tenant: tenant.to_string(),
            token: String::new(),
        },
    )
    .expect("send hello");
    match read_frame(&mut stream) {
        Ok(Frame::HelloAck { .. }) => stream,
        other => panic!("handshake failed: {other:?}"),
    }
}

/// Reads server frames until the connection drops, returning the first
/// error frame if any.
fn first_error(stream: &mut TcpStream) -> Option<(ErrorCode, String)> {
    loop {
        match read_frame(stream) {
            Ok(Frame::Error { code, message }) => return Some((code, message)),
            Ok(_) => continue,
            Err(_) => return None,
        }
    }
}

#[test]
fn oversized_frame_is_refused_with_a_typed_error() {
    let server = NetServer::bind(NetConfig::default()).expect("bind loopback");
    assert_good_tenant_survives(&server, |addr| {
        let mut stream = raw_handshake(addr, "oversize");
        // A length prefix far past MAX_FRAME_LEN; the payload never follows.
        stream
            .write_all(&(u32::MAX / 2).to_le_bytes())
            .expect("write rogue length prefix");
        let (code, message) = first_error(&mut stream).expect("typed error before close");
        assert_eq!(code, ErrorCode::Protocol);
        assert!(message.contains("length"), "{message}");
    });
}

#[test]
fn junk_payload_is_refused_with_a_typed_error() {
    let server = NetServer::bind(NetConfig::default()).expect("bind loopback");
    assert_good_tenant_survives(&server, |addr| {
        let mut stream = raw_handshake(addr, "junk");
        // A valid length prefix followed by garbage bytes.
        let junk = [0x55u8, 0xde, 0xad, 0xbe, 0xef];
        stream
            .write_all(&(junk.len() as u32).to_le_bytes())
            .and_then(|()| stream.write_all(&junk))
            .expect("write junk frame");
        let (code, _) = first_error(&mut stream).expect("typed error before close");
        assert_eq!(code, ErrorCode::Protocol);
    });
}

#[test]
fn mid_frame_disconnect_is_contained() {
    let server = NetServer::bind(NetConfig::default()).expect("bind loopback");
    assert_good_tenant_survives(&server, |addr| {
        let mut stream = raw_handshake(addr, "ghost");
        // Promise 64 bytes, deliver 5, vanish.
        stream
            .write_all(&64u32.to_le_bytes())
            .and_then(|()| stream.write_all(&[1, 2, 3, 4, 5]))
            .expect("write partial frame");
        drop(stream);
    });
}

#[test]
fn watermark_violations_and_malformed_entities_are_bad_events() {
    let server = NetServer::bind(NetConfig::default()).expect("bind loopback");

    // Time running backwards after an advance.
    let mut client = NetClient::connect(server.addr(), "rewind", "").expect("handshake");
    client.advance_to(Timestamp(100.0)).expect("advance");
    client
        .send_event(
            Timestamp(1.0),
            &Event::TaskArrival(Task::new(
                TaskId(0),
                Location::new(0.0, 0.0),
                Timestamp(1.0),
                Timestamp(2.0),
            )),
        )
        .expect("send stale event");
    let outcome = client.close();
    assert!(
        outcome
            .errors
            .iter()
            .any(|(code, _)| *code == ErrorCode::BadEvent),
        "{:?}",
        outcome.errors
    );

    // A worker whose window ends before it starts survives the codec (it is
    // structurally valid bytes) but is rejected at admission.
    let mut stream = raw_handshake(server.addr(), "invalid-worker");
    let mut bad_worker = Worker::new(
        WorkerId(1),
        Location::new(0.0, 0.0),
        1.0,
        Timestamp(0.0),
        Timestamp(10.0),
    );
    bad_worker.window.off = Timestamp(-5.0); // bypasses the constructor's check
    write_frame(
        &mut stream,
        &Frame::WorkerOnline {
            time: Timestamp(0.0),
            worker: bad_worker,
        },
    )
    .expect("send malformed worker");
    let (code, message) = first_error(&mut stream).expect("typed error before close");
    assert_eq!(code, ErrorCode::BadEvent);
    assert!(message.contains("worker"), "{message}");
}

#[test]
fn handshake_violations_are_typed() {
    let server = NetServer::bind(NetConfig {
        auth_token: Some("sesame".to_string()),
        ..NetConfig::default()
    })
    .expect("bind loopback");

    // Wrong token.
    match NetClient::connect(server.addr(), "acme", "wrong") {
        Err(ClientError::Refused { code, .. }) => {
            assert_eq!(code, ErrorCode::AuthFailed);
        }
        other => panic!("bad token accepted: {other:?}"),
    }

    // Wrong protocol version.
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    write_frame(
        &mut stream,
        &Frame::Hello {
            version: PROTOCOL_VERSION + 1,
            tenant: "acme".to_string(),
            token: "sesame".to_string(),
        },
    )
    .expect("send hello");
    match read_frame(&mut stream) {
        Ok(Frame::Error { code, .. }) => assert_eq!(code, ErrorCode::VersionMismatch),
        other => panic!("version skew accepted: {other:?}"),
    }

    // First frame not a Hello at all.
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    write_frame(&mut stream, &Frame::Close).expect("send close first");
    match read_frame(&mut stream) {
        Ok(Frame::Error { code, .. }) => assert_eq!(code, ErrorCode::BadHello),
        other => panic!("hello-less stream accepted: {other:?}"),
    }

    // The right token still works.
    let client = NetClient::connect(server.addr(), "acme", "sesame").expect("handshake");
    drop(client.close());
}

#[test]
fn wrong_token_delivery_gives_up_on_the_first_attempt() {
    let server = NetServer::bind(NetConfig {
        auth_token: Some("sesame".to_string()),
        ..NetConfig::default()
    })
    .expect("bind loopback");
    let log = [Frame::AdvanceTo {
        time: Timestamp(1.0),
    }];
    // A refusal that cannot heal is not retried, whatever the budget.
    match NetClient::deliver(
        server.addr(),
        "acme",
        "wrong",
        &log,
        &RetryPolicy::default(),
    ) {
        RetryOutcome::GaveUp {
            attempts: 1,
            last_error:
                ClientError::Refused {
                    code: ErrorCode::AuthFailed,
                    ..
                },
        } => {}
        other => panic!("a bad token was retried or accepted: {other:?}"),
    }
}
