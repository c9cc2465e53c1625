//! A closed-loop client sends its next command only once the decision for
//! the last one has arrived, so nothing it sends can carry an
//! acknowledgement early. A server that let Nagle's algorithm hold a frame
//! until the client acknowledged the previous write would make every such
//! round trip wait out the client's delayed-ACK timer (about 40 ms on
//! Linux); with `TCP_NODELAY` and whole-frame writes it takes well under a
//! millisecond on loopback.

use datawa_core::{Location, Task, TaskId, Timestamp, Worker, WorkerId};
use datawa_net::wire::{read_frame, write_frame, Frame, PROTOCOL_VERSION};
use datawa_net::{NetConfig, NetServer};
use std::io::BufReader;
use std::net::TcpStream;
use std::time::{Duration, Instant};

#[test]
fn closed_loop_round_trips_do_not_wait_for_a_delayed_ack() {
    let server = NetServer::bind(NetConfig::default()).expect("bind loopback");
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("TCP_NODELAY");
    let mut writer = stream.try_clone().expect("clone socket");
    let mut reader = BufReader::new(stream);
    let hello = Frame::Hello {
        version: PROTOCOL_VERSION,
        tenant: "closed-loop".to_string(),
        token: String::new(),
    };
    write_frame(&mut writer, &hello).expect("send Hello");
    assert!(matches!(
        read_frame(&mut reader),
        Ok(Frame::HelloAck { .. })
    ));

    // Each round brings a worker and a task online at one spot and advances
    // to their instant, then waits for the task's dispatch.
    let spot = Location::new(0.0, 0.0);
    let mut round_trips = Vec::new();
    for i in 0..50u32 {
        let time = Timestamp(10.0 * f64::from(i));
        let worker = Worker::new(WorkerId(i), spot, 1.0, time, Timestamp(time.0 + 1000.0));
        let task = Task::new(TaskId(i), spot, time, Timestamp(time.0 + 5.0));
        // The round trip's wall time is what this test measures.
        #[allow(clippy::disallowed_methods)]
        let sent = Instant::now();
        for frame in [
            Frame::WorkerOnline { time, worker },
            Frame::TaskArrival { time, task },
            Frame::AdvanceTo { time },
        ] {
            write_frame(&mut writer, &frame).expect("send command");
        }
        loop {
            let frame = read_frame(&mut reader).expect("a server frame");
            if matches!(frame, Frame::Dispatch { task: t, .. } if t == TaskId(i)) {
                break;
            }
            assert!(
                frame.clone().into_decision().is_some(),
                "round {i}: unexpected frame {frame:?}"
            );
        }
        round_trips.push(sent.elapsed());
    }
    round_trips.sort_unstable();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(5),
        "median closed-loop round trip {median:?} (min {:?}, max {:?}): \
         a decision waited for a delayed ACK",
        round_trips[0],
        round_trips[round_trips.len() - 1]
    );

    write_frame(&mut writer, &Frame::Close).expect("send Close");
    while !matches!(
        read_frame(&mut reader).expect("frames until Closed"),
        Frame::Closed { .. }
    ) {}
}
