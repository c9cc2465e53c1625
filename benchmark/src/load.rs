//! Seeded load generation: every input of a run is made here from `--seed`.
//! The program under test receives only the generated events.

use datawa_assign::{AssignConfig, PolicyKind};
use datawa_core::{Task, Timestamp};
use datawa_service::{IngestSource, SourcePoll, WorkloadSource};
use datawa_sim::{PipelineConfig, SyntheticTrace, TraceSpec};
use datawa_stream::{
    EngineConfig, Event, HeavyTailedChurn, ScenarioGenerator, ScenarioSpec, Workload,
};

/// How big a run is. `Full` is what `BENCHMARK.json` measures; `Smoke` keeps
/// every code path but finishes in about a second, for the crate's own test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }

    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::Full),
            "smoke" => Some(Scale::Smoke),
            _ => None,
        }
    }
}

/// The sizes that differ between the scales.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Factor on the Yueche preset's worker and task counts (`yueche-dta`
    /// and `net-greedy`; `yueche-datawa` has its own), and on its horizon and
    /// history lengths.
    pub yueche_factor: f64,
    pub datawa_factor: f64,
    pub yueche_span_factor: f64,
    /// Sessions (traces on consecutive seeds) per `yueche-dta` round.
    pub dta_sessions: u64,
    /// Sessions (scenarios on consecutive seeds) per `churn-batched` round,
    /// and the size of each.
    pub churn_sessions: u64,
    pub churn_tasks: usize,
    pub churn_workers: usize,
    pub churn_horizon: f64,
    /// Open-loop rate of the paced `net-greedy` session, client events/s.
    pub paced_rate: f64,
    /// Timed rounds: one per `ROUND_SECONDS` of the `--seconds` budget, at
    /// least `min_rounds` and at most `max_rounds`. The count follows from the
    /// argument alone, never from how fast the box is, so two runs with the
    /// same arguments take their statistics over the same number of rounds.
    pub min_rounds: usize,
    pub max_rounds: usize,
    /// Times the set-up is done; `setup_s` takes the median.
    pub setups: usize,
    /// Instants at which the traced run probes the planner.
    pub probe_instants: usize,
    /// Model and TVF training effort (`yueche-datawa`).
    pub predictor_epochs: usize,
    pub tvf_epochs: usize,
    pub tvf_instants: usize,
}

/// What one timed round (with its share of the recoveries) takes at full
/// scale on the box the workloads were sized on, rounded up.
const ROUND_SECONDS: f64 = 4.0;

impl Sizing {
    /// Timed rounds of a run with a budget of `seconds`.
    pub fn rounds(&self, seconds: f64) -> usize {
        ((seconds / ROUND_SECONDS) as usize).clamp(self.min_rounds, self.max_rounds)
    }
}

impl Scale {
    pub fn sizing(self) -> Sizing {
        match self {
            Scale::Full => {
                let defaults = PipelineConfig::default();
                Sizing {
                    yueche_factor: 1.0,
                    datawa_factor: 0.5,
                    yueche_span_factor: 1.0,
                    dta_sessions: 6,
                    churn_sessions: 64,
                    churn_tasks: 625,
                    churn_workers: 1_000,
                    churn_horizon: 1_250.0,
                    paced_rate: 4_000.0,
                    min_rounds: 3,
                    max_rounds: 7,
                    setups: 3,
                    probe_instants: 32,
                    predictor_epochs: defaults.training.epochs,
                    tvf_epochs: defaults.tvf_epochs,
                    tvf_instants: defaults.tvf_training_instants,
                }
            }
            Scale::Smoke => Sizing {
                yueche_factor: 0.06,
                datawa_factor: 0.06,
                yueche_span_factor: 0.25,
                dta_sessions: 2,
                churn_sessions: 2,
                churn_tasks: 750,
                churn_workers: 100,
                churn_horizon: 1_500.0,
                paced_rate: 20_000.0,
                min_rounds: 2,
                max_rounds: 2,
                setups: 2,
                probe_instants: 4,
                predictor_epochs: 1,
                tvf_epochs: 4,
                tvf_instants: 2,
            },
        }
    }
}

/// Planner configuration of every workload: the defaults, with the planner
/// pool pinned to one thread so that no environment variable is consulted
/// for it (`threads = 0` would defer to `DATAWA_THREADS`).
pub fn assign_config() -> AssignConfig {
    AssignConfig {
        threads: 1,
        ..AssignConfig::default()
    }
}

/// The client events of one session, in the order a client would send them
/// (ascending time; workers before tasks at equal times), and the tasks in
/// the order the session will number them.
#[derive(Debug, Clone)]
pub struct SessionLoad {
    pub arrivals: Vec<(Timestamp, Event)>,
    /// `tasks[k]` is the task the session stores under `TaskId(k)`: ids are
    /// dense in firing order, which for arrivals is this order.
    pub tasks: Vec<Task>,
    /// End of the horizon arrivals were drawn from (for the planner probes).
    pub horizon: f64,
}

impl SessionLoad {
    pub fn from_workload(workload: &Workload, horizon: f64) -> SessionLoad {
        // `WorkloadSource` yields exactly the order the engine's queue pops
        // arrivals in, so the harness does not restate that rule.
        let mut source = WorkloadSource::new(workload);
        let mut arrivals = Vec::with_capacity(source.remaining());
        while let SourcePoll::Ready(time, event) = source.poll() {
            arrivals.push((time, event));
        }
        let tasks = arrivals
            .iter()
            .filter_map(|(_, e)| match e {
                Event::TaskArrival(t) => Some(*t),
                _ => None,
            })
            .collect();
        SessionLoad {
            arrivals,
            tasks,
            horizon,
        }
    }
}

/// What a workload runs: policy, engine configuration and its sessions.
pub struct WorkloadPlan {
    pub policy: PolicyKind,
    pub engine: EngineConfig,
    /// One load per session of a round.
    pub sessions: Vec<SessionLoad>,
    /// The generated traces (`yueche-*`, `net-greedy`): model and TVF
    /// training need the history the session loads do not carry.
    pub traces: Vec<SyntheticTrace>,
}

/// The Yueche preset on `seed` with `factor` of its workers and tasks (1.0 is
/// the preset untouched).
fn yueche(seed: u64, factor: f64, sizing: &Sizing) -> SyntheticTrace {
    let spec = TraceSpec::yueche().with_seed(seed);
    SyntheticTrace::generate(TraceSpec {
        horizon: spec.horizon * sizing.yueche_span_factor,
        history: spec.history * sizing.yueche_span_factor,
        ..spec.scaled(factor)
    })
}

fn trace_load(trace: &SyntheticTrace) -> SessionLoad {
    SessionLoad::from_workload(&trace.workload(), trace.spec.horizon)
}

/// Generates the inputs of `workload` from `seed`.
pub fn plan(workload: &str, seed: u64, scale: Scale) -> Option<WorkloadPlan> {
    let sizing = scale.sizing();
    match workload {
        "yueche-dta" => {
            let traces: Vec<SyntheticTrace> = (0..sizing.dta_sessions)
                .map(|i| yueche(seed.wrapping_add(i), sizing.yueche_factor, &sizing))
                .collect();
            Some(WorkloadPlan {
                policy: PolicyKind::Dta,
                engine: EngineConfig::default(),
                sessions: traces.iter().map(trace_load).collect(),
                traces,
            })
        }
        "yueche-datawa" => {
            let trace = yueche(seed, sizing.datawa_factor, &sizing);
            Some(WorkloadPlan {
                policy: PolicyKind::DataWa,
                engine: EngineConfig::default(),
                sessions: vec![trace_load(&trace)],
                traces: vec![trace],
            })
        }
        "churn-batched" => {
            let sessions = (0..sizing.churn_sessions)
                .map(|i| {
                    let spec = ScenarioSpec::small()
                        .with_tasks(sizing.churn_tasks)
                        .with_workers(sizing.churn_workers)
                        .with_horizon(sizing.churn_horizon)
                        .with_seed(seed.wrapping_add(i));
                    let workload = HeavyTailedChurn::new(spec).generate();
                    SessionLoad::from_workload(&workload, spec.horizon)
                })
                .collect();
            Some(WorkloadPlan {
                policy: PolicyKind::Dta,
                engine: EngineConfig::batched(64),
                sessions,
                traces: Vec::new(),
            })
        }
        "net-greedy" => {
            let trace = yueche(seed, sizing.yueche_factor, &sizing);
            Some(WorkloadPlan {
                policy: PolicyKind::Greedy,
                engine: EngineConfig::default(),
                sessions: vec![trace_load(&trace)],
                traces: vec![trace],
            })
        }
        _ => None,
    }
}
