//! Ingest sources: where a dispatch service's arrivals come from.
//!
//! An [`IngestSource`] produces `(time, event)` pairs in non-decreasing
//! timestamp order. [`WorkloadSource`] replays a pre-built
//! [`Workload`] as fast as the service will take it;
//! [`LiveSource`] paces the same arrivals against a simulated wall clock, so
//! the session experiences quiet periods (in which expirations and time-driven
//! re-plans fire) between bursts — the shape of real request traffic.
//! [`NetSource`] is the push half: a connection handler feeds events through
//! a [`NetSourceHandle`] from another thread, which is how the `datawa-net`
//! transport front-end bridges TCP connections into a [`DispatchService`]
//! (see `PROTOCOL.md` at the workspace root for the wire format).
//!
//! [`DispatchService`]: crate::DispatchService

use datawa_core::{Duration, Timestamp};
use datawa_stream::{Event, Workload};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

/// One poll of an ingest source.
#[derive(Debug, Clone, PartialEq)]
pub enum SourcePoll {
    /// An arrival is due now: ingest it.
    Ready(Timestamp, Event),
    /// No arrival is due yet; simulated time has advanced to the carried
    /// instant, and the service should advance its session there.
    Wait(Timestamp),
    /// The source has no further arrivals.
    Exhausted,
}

/// A producer of arrivals in non-decreasing timestamp order.
pub trait IngestSource {
    /// Polls for the next arrival.
    fn poll(&mut self) -> SourcePoll;

    /// Arrivals not yet handed out.
    fn remaining(&self) -> usize;
}

/// Replays a workload's arrivals in the engine's deterministic order:
/// ascending time, workers before tasks at equal times, original order within
/// each kind — exactly the order the batch driver's queue would pop them, so
/// a service fed by this source reproduces batch outcomes bit for bit.
#[derive(Debug, Clone)]
pub struct WorkloadSource {
    arrivals: Vec<(Timestamp, Event)>,
    cursor: usize,
}

impl WorkloadSource {
    /// Builds a replay source over `workload`.
    #[must_use]
    pub fn new(workload: &Workload) -> WorkloadSource {
        let mut arrivals: Vec<(Timestamp, Event)> = workload
            .workers
            .iter()
            .map(|w| (w.on(), Event::WorkerOnline(*w)))
            .chain(
                workload
                    .tasks
                    .iter()
                    .map(|t| (t.publication, Event::TaskArrival(*t))),
            )
            .collect();
        // Stable sort on (time, class): FIFO within each (time, class)
        // bucket matches the queue's insertion-order tie-break.
        arrivals
            .sort_by(|(ta, ea), (tb, eb)| ta.0.total_cmp(&tb.0).then(ea.class().cmp(&eb.class())));
        WorkloadSource {
            arrivals,
            cursor: 0,
        }
    }

    /// The next due arrival, without consuming it.
    pub fn peek(&self) -> Option<&(Timestamp, Event)> {
        self.arrivals.get(self.cursor)
    }
}

impl IngestSource for WorkloadSource {
    fn poll(&mut self) -> SourcePoll {
        match self.arrivals.get(self.cursor) {
            Some((t, e)) => {
                let poll = SourcePoll::Ready(*t, e.clone());
                self.cursor += 1;
                poll
            }
            None => SourcePoll::Exhausted,
        }
    }

    fn remaining(&self) -> usize {
        self.arrivals.len() - self.cursor
    }
}

/// A paced source: arrivals are released only once a simulated clock reaches
/// their timestamp; while the head arrival is still in the future, each poll
/// advances the clock by at most one pacing step and reports
/// [`SourcePoll::Wait`] so the service can advance its session through the
/// quiet period.
///
/// A `Wait` is always *strictly before* the next arrival's timestamp: the
/// step that would land on (or past) the head arrival releases the arrival
/// instead. This matters for correctness, not just pacing — if the service
/// advanced its session *to* an arrival's instant before ingesting it, a
/// replan tick due at that exact instant would fire ahead of the arrival,
/// inverting the engine's tick-last same-instant ordering (and losing
/// assignments the batch driver makes).
///
/// The clock is simulated (no real sleeping), so paced runs stay
/// deterministic and as fast as the hardware allows — the pacing step only
/// controls how finely quiet periods are sliced.
#[derive(Debug, Clone)]
pub struct LiveSource {
    inner: WorkloadSource,
    clock: Timestamp,
    step: Duration,
}

impl LiveSource {
    /// Paces `workload` with the given pacing step (simulated seconds per
    /// quiet-period poll). The clock starts at the first arrival, so a
    /// non-empty workload is never preceded by dead waiting.
    ///
    /// Panics on a non-positive or non-finite step: the clock must advance.
    #[must_use]
    pub fn new(workload: &Workload, step: f64) -> LiveSource {
        assert!(
            step.is_finite() && step > 0.0,
            "pacing step must be a positive finite number of seconds, got {step}"
        );
        let inner = WorkloadSource::new(workload);
        let clock = inner.peek().map(|(t, _)| *t).unwrap_or(Timestamp(0.0));
        LiveSource {
            inner,
            clock,
            step: Duration(step),
        }
    }

    /// The current simulated wall-clock time.
    pub fn now(&self) -> Timestamp {
        self.clock
    }
}

impl IngestSource for LiveSource {
    fn poll(&mut self) -> SourcePoll {
        match self.inner.peek() {
            None => SourcePoll::Exhausted,
            Some((t, _)) if t.0 <= self.clock.0 => self.inner.poll(),
            Some((t, _)) => {
                // Head arrival is in the future: advance the simulated clock
                // one pacing step toward it. A step that reaches the arrival
                // releases it in the same poll, so every reported Wait stays
                // strictly before the next arrival's timestamp.
                let stepped = self.clock.0 + self.step.0;
                if stepped >= t.0 {
                    self.clock = Timestamp(t.0);
                    self.inner.poll()
                } else {
                    self.clock = Timestamp(stepped);
                    SourcePoll::Wait(self.clock)
                }
            }
        }
    }

    fn remaining(&self) -> usize {
        self.inner.remaining()
    }
}

/// What a [`NetSourceHandle`] feeds into the channel: the same vocabulary a
/// pull source's [`SourcePoll`] reports, minus `Exhausted` (that is signalled
/// by dropping the sender, so a crashed producer thread and an orderly
/// [`NetSourceHandle::close`] both end the stream).
#[derive(Debug)]
enum NetItem {
    Event(Timestamp, Event),
    Advance(Timestamp),
}

/// The push half of a [`NetSource`]: lives on the connection (producer) side
/// and feeds events across threads into the service's pump.
///
/// Cloning is cheap; the source is exhausted once *every* clone has been
/// dropped or [`closed`](NetSourceHandle::close).
/// [`pending`](NetSourceHandle::pending) exposes the not-yet-polled backlog so callers
/// can apply admission control *before* pushing — the channel itself is
/// unbounded and never blocks the producer.
#[derive(Debug, Clone)]
pub struct NetSourceHandle {
    tx: Sender<NetItem>,
    depth: Arc<AtomicUsize>,
}

/// The handle's event was not delivered: the consuming service has shut
/// down (its [`NetSource`] was dropped).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceClosed;

impl NetSourceHandle {
    /// Pushes one event; the paired [`NetSource`] will report it as
    /// [`SourcePoll::Ready`]. Callers must preserve the non-decreasing
    /// timestamp contract of [`IngestSource`].
    pub fn push_event(&self, time: Timestamp, event: Event) -> Result<(), SourceClosed> {
        // Count before sending so a poll racing the send can never observe
        // the backlog under-reported. (SeqCst: this counter is cross-thread
        // admission-control state, not an audited obs-crate hot path.)
        self.depth.fetch_add(1, Ordering::SeqCst);
        self.tx.send(NetItem::Event(time, event)).map_err(|_| {
            self.depth.fetch_sub(1, Ordering::SeqCst);
            SourceClosed
        })
    }

    /// Requests that the service advance its session to `time` (reported as
    /// [`SourcePoll::Wait`]), letting expirations and time-driven re-plans
    /// fire through a quiet period.
    pub fn push_advance(&self, time: Timestamp) -> Result<(), SourceClosed> {
        self.tx
            .send(NetItem::Advance(time))
            .map_err(|_| SourceClosed)
    }

    /// Events pushed but not yet polled by the service — the admission
    /// backlog this producer is responsible for.
    pub fn pending(&self) -> usize {
        self.depth.load(Ordering::SeqCst)
    }

    /// Ends the stream for this clone. Once all clones are closed or
    /// dropped, the paired [`NetSource`] reports [`SourcePoll::Exhausted`].
    pub fn close(self) {
        drop(self);
    }
}

/// A push-fed [`IngestSource`]: the pull half of a cross-thread channel
/// whose push half is a [`NetSourceHandle`].
///
/// `poll` *blocks* until the producer pushes something or hangs up, so a
/// service pumping a `NetSource` is a dedicated thread that sleeps through
/// quiet periods instead of spinning. This is the bridge the `datawa-net`
/// listener uses to run one [`DispatchService`](crate::DispatchService) per
/// tenant connection.
#[derive(Debug)]
pub struct NetSource {
    rx: Receiver<NetItem>,
    depth: Arc<AtomicUsize>,
    exhausted: bool,
}

impl NetSource {
    /// Builds a connected handle/source pair.
    #[must_use]
    pub fn channel() -> (NetSourceHandle, NetSource) {
        let (tx, rx) = channel();
        let depth = Arc::new(AtomicUsize::new(0));
        (
            NetSourceHandle {
                tx,
                depth: Arc::clone(&depth),
            },
            NetSource {
                rx,
                depth,
                exhausted: false,
            },
        )
    }
}

impl IngestSource for NetSource {
    fn poll(&mut self) -> SourcePoll {
        if self.exhausted {
            return SourcePoll::Exhausted;
        }
        match self.rx.recv() {
            Ok(NetItem::Event(time, event)) => {
                self.depth.fetch_sub(1, Ordering::SeqCst);
                SourcePoll::Ready(time, event)
            }
            Ok(NetItem::Advance(time)) => SourcePoll::Wait(time),
            Err(_) => {
                self.exhausted = true;
                SourcePoll::Exhausted
            }
        }
    }

    fn remaining(&self) -> usize {
        self.depth.load(Ordering::SeqCst)
    }
}

/// An [`IngestSource`] that survives its consumer: the wrapped source lives
/// behind a shared lock held only for the duration of a single poll, so a
/// supervisor can hand a pump thread one clone, catch the pump's panic, and
/// hand a fresh pump another clone — events still queued inside the source
/// (for example a [`NetSource`]'s channel backlog) are not lost with the
/// crashed pump.
#[derive(Debug)]
pub struct SharedSource<S: IngestSource> {
    inner: Arc<std::sync::Mutex<S>>,
}

impl<S: IngestSource> Clone for SharedSource<S> {
    fn clone(&self) -> SharedSource<S> {
        SharedSource {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<S: IngestSource> SharedSource<S> {
    /// Wraps `source` for shared cross-restart access.
    #[must_use]
    pub fn new(source: S) -> SharedSource<S> {
        SharedSource {
            inner: Arc::new(std::sync::Mutex::new(source)),
        }
    }

    /// The lock cannot be poisoned by a pump panic in practice — polls do
    /// not panic and the guard never outlives one call — but a supervisor
    /// recovering from arbitrary panics must not find its source wedged, so
    /// poisoning is recovered rather than unwrapped.
    fn lock(&self) -> std::sync::MutexGuard<'_, S> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl<S: IngestSource> IngestSource for SharedSource<S> {
    fn poll(&mut self) -> SourcePoll {
        self.lock().poll()
    }

    fn remaining(&self) -> usize {
        self.lock().remaining()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datawa_core::{Location, Task, TaskId, Worker, WorkerId};

    fn workload() -> Workload {
        let worker = |on: f64| {
            Worker::new(
                WorkerId(0),
                Location::new(0.0, 0.0),
                1.0,
                Timestamp(on),
                Timestamp(on + 100.0),
            )
        };
        let task = |p: f64| {
            Task::new(
                TaskId(0),
                Location::new(1.0, 0.0),
                Timestamp(p),
                Timestamp(p + 50.0),
            )
        };
        Workload {
            workers: vec![worker(5.0), worker(0.0)],
            tasks: vec![task(5.0), task(2.0)],
        }
    }

    #[test]
    fn workload_source_orders_like_the_engine_queue() {
        let mut source = WorkloadSource::new(&workload());
        assert_eq!(source.remaining(), 4);
        let mut order = Vec::new();
        while let SourcePoll::Ready(t, e) = source.poll() {
            order.push((t.0, e.kind()));
        }
        assert_eq!(
            order,
            vec![
                (0.0, "WorkerOnline"),
                (2.0, "TaskArrival"),
                (5.0, "WorkerOnline"), // workers before tasks at equal times
                (5.0, "TaskArrival"),
            ]
        );
        assert_eq!(source.remaining(), 0);
        assert_eq!(source.poll(), SourcePoll::Exhausted);
    }

    #[test]
    fn live_source_paces_against_the_simulated_clock() {
        let mut source = LiveSource::new(&workload(), 1.0);
        assert_eq!(
            source.now(),
            Timestamp(0.0),
            "clock starts at first arrival"
        );
        // The first arrival is due immediately; the step that reaches the
        // next arrival's timestamp releases it instead of waiting at it.
        assert!(matches!(source.poll(), SourcePoll::Ready(t, _) if t.0 == 0.0));
        assert_eq!(source.poll(), SourcePoll::Wait(Timestamp(1.0)));
        assert!(matches!(source.poll(), SourcePoll::Ready(t, _) if t.0 == 2.0));
        // Every Wait stays strictly before the head arrival at t=5.
        let mut waits = 0;
        loop {
            match source.poll() {
                SourcePoll::Wait(t) => {
                    waits += 1;
                    assert!(t.0 < 5.0);
                }
                SourcePoll::Ready(t, _) => {
                    assert_eq!(t.0, 5.0);
                    break;
                }
                SourcePoll::Exhausted => panic!("source drained early"),
            }
        }
        assert_eq!(waits, 2, "3.0 and 4.0; the step to 5.0 releases instead");
    }

    #[test]
    #[should_panic(expected = "pacing step")]
    fn zero_pacing_step_is_rejected() {
        let _ = LiveSource::new(&workload(), 0.0);
    }

    #[test]
    fn net_source_delivers_pushes_in_order_and_exhausts_on_close() {
        let (handle, mut source) = NetSource::channel();
        let w = workload();
        handle
            .push_event(Timestamp(0.0), Event::WorkerOnline(w.workers[1]))
            .unwrap();
        handle
            .push_event(Timestamp(2.0), Event::TaskArrival(w.tasks[1]))
            .unwrap();
        handle.push_advance(Timestamp(3.0)).unwrap();
        assert_eq!(handle.pending(), 2, "advances are not backlog");
        assert_eq!(source.remaining(), 2);
        assert!(matches!(source.poll(), SourcePoll::Ready(t, _) if t.0 == 0.0));
        assert!(matches!(source.poll(), SourcePoll::Ready(t, _) if t.0 == 2.0));
        assert_eq!(source.poll(), SourcePoll::Wait(Timestamp(3.0)));
        assert_eq!(source.remaining(), 0);
        handle.close();
        assert_eq!(source.poll(), SourcePoll::Exhausted);
        assert_eq!(source.poll(), SourcePoll::Exhausted, "exhaustion is sticky");
    }

    #[test]
    fn net_source_push_fails_once_the_service_side_is_gone() {
        let (handle, source) = NetSource::channel();
        drop(source);
        let w = workload();
        assert_eq!(
            handle.push_event(Timestamp(0.0), Event::TaskArrival(w.tasks[0])),
            Err(SourceClosed)
        );
        assert_eq!(handle.push_advance(Timestamp(1.0)), Err(SourceClosed));
        assert_eq!(handle.pending(), 0, "undelivered events are not counted");
    }

    #[test]
    fn shared_source_survives_a_crashed_consumer() {
        let (handle, source) = NetSource::channel();
        let shared = SharedSource::new(source);
        let w = workload();
        handle
            .push_event(Timestamp(0.0), Event::TaskArrival(w.tasks[1]))
            .unwrap();
        handle
            .push_event(Timestamp(5.0), Event::TaskArrival(w.tasks[0]))
            .unwrap();
        let mut doomed = shared.clone();
        let crash = std::thread::spawn(move || {
            assert!(matches!(doomed.poll(), SourcePoll::Ready(t, _) if t.0 == 0.0));
            panic!("injected pump crash");
        });
        assert!(crash.join().is_err());
        // The second event queued in the channel survives the crash.
        let mut recovered = shared.clone();
        assert_eq!(recovered.remaining(), 1);
        assert!(matches!(recovered.poll(), SourcePoll::Ready(t, _) if t.0 == 5.0));
        handle.close();
        assert_eq!(recovered.poll(), SourcePoll::Exhausted);
    }

    #[test]
    fn net_source_works_across_threads() {
        let (handle, mut source) = NetSource::channel();
        let w = workload();
        let producer = std::thread::spawn(move || {
            for (i, task) in w.tasks.iter().enumerate() {
                handle
                    .push_event(Timestamp(i as f64), Event::TaskArrival(*task))
                    .unwrap();
            }
        });
        let mut seen = 0;
        while let SourcePoll::Ready(..) = source.poll() {
            seen += 1;
        }
        producer.join().unwrap();
        assert_eq!(seen, 2);
    }
}
