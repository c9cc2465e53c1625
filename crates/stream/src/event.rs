//! Typed simulation events and the deterministic event queue.

use datawa_core::{Task, TaskId, Timestamp, Worker, WorkerId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One discrete event in the simulated world.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A task's lifetime ends (scheduled automatically at insertion time; the
    /// id is the dense store id assigned on arrival).
    TaskExpiration(TaskId),
    /// A worker's availability window closes.
    WorkerOffline(WorkerId),
    /// A worker comes online (the carried record's ids are reassigned densely
    /// by the store on insertion).
    WorkerOnline(Worker),
    /// A task is published.
    TaskArrival(Task),
    /// A batched re-planning instant (armed by the session when a
    /// time-based replan interval Δt is configured).
    ReplanTick,
}

impl Event {
    /// The deterministic same-timestamp processing class of the event.
    ///
    /// Lifetime-closing events come first because both task lifetimes
    /// `[p, e)` and availability windows `[on, off)` are half-open: at the
    /// boundary instant the entity is already gone, so its removal must be
    /// visible to any arrival or replan happening at that exact timestamp.
    /// Worker arrivals precede task arrivals, so a task published at the
    /// instant a worker comes online is planned with that worker already in,
    /// and replan ticks run last so a batched plan at time `t` sees
    /// everything that arrived at `t`.
    #[inline]
    pub fn class(&self) -> u8 {
        match self {
            Event::TaskExpiration(_) => 0,
            Event::WorkerOffline(_) => 1,
            Event::WorkerOnline(_) => 2,
            Event::TaskArrival(_) => 3,
            Event::ReplanTick => 4,
        }
    }

    /// Short display name of the event kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::TaskExpiration(_) => "TaskExpiration",
            Event::WorkerOffline(_) => "WorkerOffline",
            Event::WorkerOnline(_) => "WorkerOnline",
            Event::TaskArrival(_) => "TaskArrival",
            Event::ReplanTick => "ReplanTick",
        }
    }
}

/// An event bound to its firing time and queue sequence number.
#[derive(Debug, Clone)]
pub struct ScheduledEvent {
    /// When the event fires.
    pub time: Timestamp,
    /// FIFO tie-break within the same `(time, class)` bucket.
    pub seq: u64,
    /// The event payload.
    pub event: Event,
}

impl ScheduledEvent {
    fn key(&self) -> (f64, u8, u64) {
        (self.time.0, self.event.class(), self.seq)
    }
}

impl PartialEq for ScheduledEvent {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for ScheduledEvent {}

impl PartialOrd for ScheduledEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ScheduledEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        let (t1, c1, s1) = self.key();
        let (t2, c2, s2) = other.key();
        t1.total_cmp(&t2).then(c1.cmp(&c2)).then(s1.cmp(&s2))
    }
}

/// A binary-heap priority queue over [`ScheduledEvent`]s with a fully
/// deterministic pop order: ascending time, then event class (see
/// [`Event::class`]), then insertion order.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<std::cmp::Reverse<ScheduledEvent>>,
    next_seq: u64,
    peak_len: usize,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> EventQueue {
        EventQueue::default()
    }

    /// Schedules `event` at `time` (`O(log n)`). Panics on non-finite times:
    /// an event at NaN/∞ would silently never fire or wedge the queue head.
    pub fn push(&mut self, time: Timestamp, event: Event) {
        assert!(
            time.is_finite(),
            "cannot schedule {} at non-finite time {time}",
            event.kind()
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap
            .push(std::cmp::Reverse(ScheduledEvent { time, seq, event }));
        self.peak_len = self.peak_len.max(self.heap.len());
    }

    /// Pops the earliest event (`O(log n)`).
    pub fn pop(&mut self) -> Option<ScheduledEvent> {
        self.heap.pop().map(|r| r.0)
    }

    /// The firing time of the earliest pending event.
    pub fn peek_time(&self) -> Option<Timestamp> {
        self.heap.peek().map(|r| r.0.time)
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The largest number of events ever pending at once.
    #[inline]
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datawa_core::Location;

    fn task(id: u32) -> Task {
        Task::new(
            TaskId(id),
            Location::new(0.0, 0.0),
            Timestamp(0.0),
            Timestamp(10.0),
        )
    }

    fn worker(id: u32) -> Worker {
        Worker::new(
            WorkerId(id),
            Location::new(0.0, 0.0),
            1.0,
            Timestamp(0.0),
            Timestamp(10.0),
        )
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Timestamp(3.0), Event::ReplanTick);
        q.push(Timestamp(1.0), Event::TaskArrival(task(0)));
        q.push(Timestamp(2.0), Event::WorkerOnline(worker(0)));
        let times: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|e| e.time.0).collect();
        assert_eq!(times, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn same_timestamp_ties_break_by_class_then_seq() {
        let mut q = EventQueue::new();
        let t = Timestamp(5.0);
        q.push(t, Event::ReplanTick);
        q.push(t, Event::TaskArrival(task(7)));
        q.push(t, Event::WorkerOnline(worker(3)));
        q.push(t, Event::WorkerOffline(WorkerId(1)));
        q.push(t, Event::TaskExpiration(TaskId(2)));
        let kinds: Vec<&'static str> = std::iter::from_fn(|| q.pop())
            .map(|e| e.event.kind())
            .collect();
        assert_eq!(
            kinds,
            vec![
                "TaskExpiration",
                "WorkerOffline",
                "WorkerOnline",
                "TaskArrival",
                "ReplanTick"
            ]
        );
    }

    #[test]
    fn equal_time_and_class_is_fifo() {
        let mut q = EventQueue::new();
        let t = Timestamp(1.0);
        for id in [4u32, 2, 9] {
            q.push(t, Event::TaskArrival(task(id)));
        }
        let ids: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.event {
                Event::TaskArrival(task) => task.id.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, vec![4, 2, 9], "FIFO within the tie bucket");
    }

    #[test]
    fn peak_len_tracks_high_water_mark() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.push(Timestamp(i as f64), Event::ReplanTick);
        }
        q.pop();
        q.pop();
        q.push(Timestamp(9.0), Event::ReplanTick);
        assert_eq!(q.peak_len(), 5);
        assert_eq!(q.len(), 4);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_times_are_rejected() {
        let mut q = EventQueue::new();
        q.push(Timestamp(f64::NAN), Event::ReplanTick);
    }
}
