//! One in-process session: the harness feeds the seeded arrivals through
//! `Session::ingest` + `Session::advance_to`, one pair per client event, and
//! digests every decision that comes out.

use crate::load::SessionLoad;
use crate::trace::Tracer;
use datawa_assign::{AdaptiveRunner, ForecastProvider, ForecastStats, PredictedTaskInput};
use datawa_core::{Duration, Task, Timestamp};
use datawa_stream::{
    Decision, DecisionSink, EngineConfig, EngineOutcome, EventJournal, JournalError, Session,
};
use std::time::Instant;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The sink every measured session writes to: an FNV-1a digest of the
/// decision stream (folded a 64-bit word at a time), the counts, and the
/// `(task, at)` of every dispatch for the checks that run after the session.
#[derive(Debug, Clone)]
pub struct DigestSink {
    pub digest: u64,
    pub decisions: u64,
    pub dispatches: Vec<(u32, u64)>,
}

impl Default for DigestSink {
    fn default() -> DigestSink {
        DigestSink {
            digest: FNV_OFFSET,
            decisions: 0,
            dispatches: Vec::new(),
        }
    }
}

impl DigestSink {
    fn fold(&mut self, word: u64) {
        self.digest = (self.digest ^ word).wrapping_mul(FNV_PRIME);
    }
}

impl DecisionSink for DigestSink {
    fn emit(&mut self, decision: Decision) {
        self.decisions += 1;
        match decision {
            Decision::Dispatch {
                at,
                worker,
                task,
                eta,
            } => {
                self.fold(1);
                self.fold(at.0.to_bits());
                self.fold(u64::from(worker.0) << 32 | u64::from(task.0));
                self.fold(eta.0.to_bits());
                self.dispatches.push((task.0, at.0.to_bits()));
            }
            Decision::TaskExpired { at, task } => {
                self.fold(2);
                self.fold(at.0.to_bits());
                self.fold(u64::from(task.0));
            }
            Decision::WorkerOffline { at, worker } => {
                self.fold(3);
                self.fold(at.0.to_bits());
                self.fold(u64::from(worker.0));
            }
        }
    }
}

/// Records a `sink` span around every decision the session emits.
struct TracedSink<'a> {
    inner: &'a mut DigestSink,
    tracer: &'a Tracer,
}

impl DecisionSink for TracedSink<'_> {
    fn emit(&mut self, decision: Decision) {
        self.tracer.enter("sink");
        self.inner.emit(decision);
        self.tracer.exit();
    }
}

/// The timing `ForecastProvider` adapter of the traced run: spans and call
/// counts around `observe` and `forecast`, nothing else.
pub struct TimedForecast<'a> {
    pub inner: Box<dyn ForecastProvider>,
    pub tracer: &'a Tracer,
    /// Predicted tasks returned, summed over all queries.
    pub predicted_tasks: u64,
}

impl ForecastProvider for TimedForecast<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn observe(&mut self, now: Timestamp, task: &Task) {
        self.tracer.enter("forecast.observe");
        self.inner.observe(now, task);
        self.tracer.exit();
    }

    fn forecast(&mut self, now: Timestamp, horizon: Duration) -> &[PredictedTaskInput] {
        self.tracer.enter("forecast.query");
        let predicted = self.inner.forecast(now, horizon);
        self.tracer.exit();
        self.predicted_tasks += predicted.len() as u64;
        predicted
    }

    fn stats(&self) -> ForecastStats {
        self.inner.stats()
    }
}

/// What one session produced.
pub struct SessionOutcome {
    /// `Session::open` to the return of `Session::close`.
    pub wall_ns: u64,
    /// The `Session::close` drain alone.
    pub close_ns: u64,
    /// Walls of the `ingest` + `advance_to` pairs that emitted a dispatch, in
    /// event order.
    pub latencies_ns: Vec<u64>,
    pub outcome: EngineOutcome,
    pub sink: DigestSink,
    /// Digest and decision count when the last `advance_to` returned, which
    /// is as far as a journal reaches (the drain at close is not journaled).
    pub digest_before_close: u64,
    pub decisions_before_close: u64,
    /// Events `ingest` refused; any is a failed operation.
    pub rejected: u64,
    /// The journal of the session (attached to it, or in the traced run
    /// written by the harness beside it).
    pub journal: EventJournal,
}

/// Runs `load` through a fresh session. With a `tracer`, the session runs
/// without an attached journal and the harness appends each event to one
/// itself, so that the journal gets a span of its own beside `ingest` and
/// `advance`.
pub fn run_session(
    runner: &AdaptiveRunner,
    forecast: &mut dyn ForecastProvider,
    engine: EngineConfig,
    load: &SessionLoad,
    tracer: Option<&Tracer>,
) -> SessionOutcome {
    let mut sink = DigestSink::default();
    sink.dispatches.reserve(load.tasks.len());
    let journal = EventJournal::in_memory();
    let mut rejected = 0u64;
    let mut latencies_ns = Vec::with_capacity(load.tasks.len());
    if let Some(t) = tracer {
        t.enter("session");
    }
    let started = Instant::now();
    let mut session = Session::open(runner, forecast, engine);
    if tracer.is_none() {
        session.attach_journal(journal.clone());
    }
    for (time, event) in &load.arrivals {
        let before = sink.dispatches.len();
        let t0 = Instant::now();
        match tracer {
            None => {
                if session.ingest(*time, event.clone()).is_err() {
                    rejected += 1;
                }
                session.advance_to(*time, &mut sink);
            }
            Some(t) => {
                t.enter("event");
                t.enter("journal");
                if journal.append_event(*time, event).is_err() {
                    rejected += 1;
                }
                t.exit();
                t.enter("ingest");
                if session.ingest(*time, event.clone()).is_err() {
                    rejected += 1;
                }
                t.exit();
                t.enter("advance");
                session.advance_to(
                    *time,
                    &mut TracedSink {
                        inner: &mut sink,
                        tracer: t,
                    },
                );
                t.exit();
                t.exit();
            }
        }
        let pair_ns = t0.elapsed().as_nanos() as u64;
        if sink.dispatches.len() > before {
            latencies_ns.push(pair_ns);
        }
    }
    let digest_before_close = sink.digest;
    let decisions_before_close = sink.decisions;
    let close_started = Instant::now();
    let outcome = match tracer {
        None => session.close(&mut sink),
        Some(t) => {
            t.enter("close");
            let outcome = session.close(&mut TracedSink {
                inner: &mut sink,
                tracer: t,
            });
            t.exit();
            outcome
        }
    };
    let close_ns = close_started.elapsed().as_nanos() as u64;
    let wall_ns = started.elapsed().as_nanos() as u64;
    if let Some(t) = tracer {
        t.exit();
    }
    SessionOutcome {
        wall_ns,
        close_ns,
        latencies_ns,
        outcome,
        sink,
        digest_before_close,
        decisions_before_close,
        rejected,
        journal,
    }
}

/// What `Session::recover` rebuilt from a journal.
pub struct Recovered {
    pub seconds: f64,
    pub digest: u64,
    pub decisions: u64,
    pub events_processed: u64,
}

/// Rebuilds a session from journal bytes into a fresh session and times it
/// (reading the bytes back into a journal included).
pub fn recover_session(
    runner: &AdaptiveRunner,
    forecast: &mut dyn ForecastProvider,
    engine: EngineConfig,
    journal_bytes: Vec<u8>,
) -> Result<Recovered, JournalError> {
    let mut sink = DigestSink::default();
    let started = Instant::now();
    let journal = EventJournal::from_bytes(journal_bytes);
    let session = Session::recover(runner, forecast, engine, journal, &mut sink)?;
    let seconds = started.elapsed().as_secs_f64();
    Ok(Recovered {
        seconds,
        digest: sink.digest,
        decisions: sink.decisions,
        events_processed: session.stats().events_processed as u64,
    })
}

/// The per-dispatch checks: no task dispatched twice, every dispatch decided
/// inside its task's `[publication, expiration]`. Returns one line per
/// violated rule (with the first offender), so a broken run does not print
/// thousands of lines.
pub fn check_dispatches(dispatches: &[(u32, u64)], tasks: &[Task]) -> Vec<String> {
    let mut seen = vec![false; tasks.len()];
    let (mut unknown, mut twice, mut outside) = (None, None, None);
    for &(task, at_bits) in dispatches {
        let Some(t) = tasks.get(task as usize) else {
            unknown.get_or_insert(task);
            continue;
        };
        if std::mem::replace(&mut seen[task as usize], true) {
            twice.get_or_insert(task);
        }
        let at = f64::from_bits(at_bits);
        if !(t.publication.0 <= at && at <= t.expiration.0) {
            outside.get_or_insert(task);
        }
    }
    let mut failures = Vec::new();
    if let Some(task) = unknown {
        failures.push(format!("dispatch names task {task}, which was never sent"));
    }
    if let Some(task) = twice {
        failures.push(format!("task {task} was dispatched twice"));
    }
    if let Some(task) = outside {
        failures.push(format!(
            "task {task} was dispatched outside its [publication, expiration]"
        ));
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use datawa_core::{Location, TaskId};

    fn task(p: f64, e: f64) -> Task {
        Task::new(
            TaskId(0),
            Location::new(0.0, 0.0),
            Timestamp(p),
            Timestamp(e),
        )
    }

    #[test]
    fn dispatch_checks_catch_each_violation() {
        let tasks = [task(0.0, 10.0), task(5.0, 15.0)];
        let at = |t: f64| t.to_bits();
        assert!(check_dispatches(&[(0, at(1.0)), (1, at(15.0))], &tasks).is_empty());
        assert_eq!(
            check_dispatches(&[(0, at(1.0)), (0, at(2.0))], &tasks).len(),
            1
        );
        assert_eq!(check_dispatches(&[(1, at(4.9))], &tasks).len(), 1);
        assert_eq!(check_dispatches(&[(2, at(1.0))], &tasks).len(), 1);
    }

    #[test]
    fn digest_depends_on_order_and_content() {
        let a = Decision::TaskExpired {
            at: Timestamp(1.0),
            task: TaskId(1),
        };
        let b = Decision::TaskExpired {
            at: Timestamp(1.0),
            task: TaskId(2),
        };
        let digest = |ds: &[Decision]| {
            let mut sink = DigestSink::default();
            for d in ds {
                sink.emit(*d);
            }
            sink.digest
        };
        assert_eq!(digest(&[a, b]), digest(&[a, b]));
        assert_ne!(digest(&[a, b]), digest(&[b, a]));
        assert_ne!(digest(&[a]), digest(&[b]));
    }
}
