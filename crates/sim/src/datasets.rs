//! Synthetic ride-hailing trace generation (the Yueche / DiDi stand-ins).
//!
//! The generator samples task locations from a mixture of spatial hotspots
//! (restaurant districts, campuses, transit hubs) over a city-scale bounding
//! box and modulates the arrival rate with a smooth temporal wave, which
//! yields the demand-dependency structure the prediction component relies on.
//! Workers come online near hotspots (drivers position themselves where
//! demand is) with availability windows and reachable distances drawn from
//! the Table III parameter grid.

use datawa_core::{
    BoundingBox, Duration, Location, Task, TaskId, TaskStore, Timestamp, Worker, WorkerId,
    WorkerStore,
};
use rand::prelude::*;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Parameters of one synthetic trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceSpec {
    /// Number of workers `|W|`.
    pub workers: usize,
    /// Number of tasks `|S|`.
    pub tasks: usize,
    /// Observation horizon, in seconds (the paper uses two hours).
    pub horizon: f64,
    /// Extra historical horizon generated *before* t=0 to train the demand
    /// predictor (the paper uses the preceding hour).
    pub history: f64,
    /// Side length of the (square) study area, in kilometres.
    pub area_km: f64,
    /// Number of demand hotspots.
    pub hotspots: usize,
    /// Standard deviation of each hotspot, in kilometres.
    pub hotspot_sigma: f64,
    /// Worker reachable distance, in kilometres (Table III sweeps 0.05–5).
    pub reachable_distance: f64,
    /// Worker availability window length, in seconds (Table III sweeps
    /// 0.25–1.25 h).
    pub available_time: f64,
    /// Task valid time `e − p`, in seconds (Table III sweeps 10–50 s).
    pub valid_time: f64,
    /// RNG seed (fixed defaults keep the experiments reproducible).
    pub seed: u64,
}

impl TraceSpec {
    /// The Yueche-like preset: 624 workers, 11 052 tasks, two hours, Chengdu
    /// urban-core-sized area (Table II), with the Table III default
    /// parameters underlined in the paper (d = 1 km, off−on = 1 h, e−p = 40 s).
    pub fn yueche() -> TraceSpec {
        TraceSpec {
            workers: 624,
            tasks: 11_052,
            horizon: 2.0 * 3600.0,
            history: 3600.0,
            area_km: 10.0,
            hotspots: 12,
            hotspot_sigma: 0.8,
            reachable_distance: 1.0,
            available_time: 3600.0,
            valid_time: 40.0,
            seed: 20161101,
        }
    }

    /// The DiDi-like preset: 760 workers, 8 869 tasks, two hours (Table II).
    pub fn didi() -> TraceSpec {
        TraceSpec {
            workers: 760,
            tasks: 8_869,
            horizon: 2.0 * 3600.0,
            history: 3600.0,
            area_km: 10.0,
            hotspots: 10,
            hotspot_sigma: 0.9,
            reachable_distance: 1.0,
            available_time: 3600.0,
            valid_time: 40.0,
            seed: 20161102,
        }
    }

    /// Scales the worker and task counts by `factor` (used by the experiment
    /// harness to keep full parameter sweeps tractable on a laptop while
    /// preserving the worker-to-task ratio; `1.0` reproduces the full size).
    pub fn scaled(mut self, factor: f64) -> TraceSpec {
        assert!(factor > 0.0, "scale factor must be positive");
        self.workers = ((self.workers as f64 * factor).round() as usize).max(1);
        self.tasks = ((self.tasks as f64 * factor).round() as usize).max(1);
        self
    }

    /// Overrides the number of tasks (the Fig. 7 sweep axis).
    pub fn with_tasks(mut self, tasks: usize) -> TraceSpec {
        self.tasks = tasks;
        self
    }

    /// Overrides the number of workers (the Fig. 8 sweep axis).
    pub fn with_workers(mut self, workers: usize) -> TraceSpec {
        self.workers = workers;
        self
    }

    /// Overrides the reachable distance (the Fig. 9 sweep axis).
    pub fn with_reachable_distance(mut self, d: f64) -> TraceSpec {
        self.reachable_distance = d;
        self
    }

    /// Overrides the availability window length in hours (the Fig. 10 axis).
    pub fn with_available_hours(mut self, hours: f64) -> TraceSpec {
        self.available_time = hours * 3600.0;
        self
    }

    /// Overrides the task valid time in seconds (the Fig. 11 axis).
    pub fn with_valid_time(mut self, seconds: f64) -> TraceSpec {
        self.valid_time = seconds;
        self
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> TraceSpec {
        self.seed = seed;
        self
    }
}

/// A generated trace: workers, tasks (including the pre-horizon history used
/// for predictor training) and the derived arrival-event stream.
#[derive(Debug, Clone)]
pub struct SyntheticTrace {
    /// The generation parameters.
    pub spec: TraceSpec,
    /// The study area.
    pub area: BoundingBox,
    /// Workers (online times spread over the first part of the horizon).
    pub workers: WorkerStore,
    /// Tasks published during the evaluation horizon `[0, horizon)`.
    pub tasks: TaskStore,
    /// Historical tasks published during `[-history, 0)`, used to train the
    /// demand predictor.
    pub history_tasks: TaskStore,
    /// Hotspot centres (exposed for tests and visual inspection).
    pub hotspots: Vec<Location>,
}

impl SyntheticTrace {
    /// Generates a trace from its specification.
    pub fn generate(spec: TraceSpec) -> SyntheticTrace {
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let area = BoundingBox::new(
            Location::new(0.0, 0.0),
            Location::new(spec.area_km, spec.area_km),
        );
        // Hotspot centres.
        let hotspots: Vec<Location> = (0..spec.hotspots.max(1))
            .map(|_| {
                Location::new(
                    rng.gen_range(area.min.x..area.max.x),
                    rng.gen_range(area.min.y..area.max.y),
                )
            })
            .collect();
        // Each hotspot has a phase in the temporal demand wave so that demand
        // shifts between regions over time (the dependency DDGNN learns).
        let phases: Vec<f64> = (0..hotspots.len())
            .map(|_| rng.gen_range(0.0..std::f64::consts::TAU))
            .collect();

        let sample_location = |rng: &mut StdRng, hotspot: usize| -> Location {
            let c = hotspots[hotspot];
            let p = Location::new(
                c.x + rng.sample::<f64, _>(StandardNormal) * spec.hotspot_sigma,
                c.y + rng.sample::<f64, _>(StandardNormal) * spec.hotspot_sigma,
            );
            area.clamp(&p)
        };

        // Hotspot weight at time t: a raised cosine wave with per-hotspot
        // phase; always positive.
        let weight = |hotspot: usize, t: f64| -> f64 {
            let period = 1800.0; // 30-minute demand waves
            1.0 + 0.9 * ((std::f64::consts::TAU * t / period) + phases[hotspot]).cos()
        };

        let pick_hotspot = |rng: &mut StdRng, t: f64| -> usize {
            let weights: Vec<f64> = (0..hotspots.len()).map(|h| weight(h, t)).collect();
            let total: f64 = weights.iter().sum();
            let mut x = rng.gen_range(0.0..total);
            for (h, w) in weights.iter().enumerate() {
                if x < *w {
                    return h;
                }
                x -= w;
            }
            hotspots.len() - 1
        };

        // Tasks over [-history, horizon). The two segments are sampled
        // separately so the evaluation horizon always holds exactly
        // `spec.tasks` tasks (the historical density matches the horizon's).
        let mut tasks = TaskStore::new();
        let mut history_tasks = TaskStore::new();
        let history_count = ((spec.tasks as f64) * spec.history / spec.horizon).round() as usize;
        for i in 0..history_count + spec.tasks {
            let t = if i < history_count {
                rng.gen_range(-spec.history..0.0)
            } else {
                rng.gen_range(0.0..spec.horizon)
            };
            let hotspot = pick_hotspot(&mut rng, t);
            let location = sample_location(&mut rng, hotspot);
            let publication = Timestamp(t);
            let expiration = publication + Duration(spec.valid_time);
            let task = Task::new(TaskId(0), location, publication, expiration);
            if t < 0.0 {
                history_tasks.insert(task);
            } else {
                tasks.insert(task);
            }
        }

        // Workers: online times spread over the first half of the horizon so
        // supply overlaps demand; locations near hotspots.
        let mut workers = WorkerStore::new();
        for _ in 0..spec.workers {
            let on = rng.gen_range(0.0..(spec.horizon * 0.5));
            let hotspot = pick_hotspot(&mut rng, on);
            let location = sample_location(&mut rng, hotspot);
            let off = on + spec.available_time;
            workers.insert(Worker::new(
                WorkerId(0),
                location,
                spec.reachable_distance,
                Timestamp(on),
                Timestamp(off),
            ));
        }

        SyntheticTrace {
            spec,
            area,
            workers,
            tasks,
            history_tasks,
            hotspots,
        }
    }

    /// The replay adapter: the trace's evaluation-horizon workers and tasks
    /// as a `datawa-stream` workload for a session to ingest. Workers precede
    /// tasks and both keep their dense-id order, which is the order same-time
    /// arrivals of one class fire in.
    pub fn workload(&self) -> datawa_stream::Workload {
        datawa_stream::Workload {
            workers: self.workers.iter().copied().collect(),
            tasks: self.tasks.iter().copied().collect(),
        }
    }

    /// All tasks (history + evaluation horizon) in one store, for building the
    /// full task multivariate time series.
    pub fn all_tasks(&self) -> TaskStore {
        let mut all = TaskStore::new();
        for t in self.history_tasks.iter() {
            all.insert(*t);
        }
        for t in self.tasks.iter() {
            all.insert(*t);
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table_ii_counts() {
        let y = TraceSpec::yueche();
        assert_eq!(y.workers, 624);
        assert_eq!(y.tasks, 11_052);
        assert_eq!(y.horizon, 7200.0);
        let d = TraceSpec::didi();
        assert_eq!(d.workers, 760);
        assert_eq!(d.tasks, 8_869);
    }

    #[test]
    fn generation_is_deterministic_for_a_fixed_seed() {
        let spec = TraceSpec::yueche().scaled(0.02);
        let a = SyntheticTrace::generate(spec);
        let b = SyntheticTrace::generate(spec);
        assert_eq!(a.tasks.len(), b.tasks.len());
        assert_eq!(a.workers.len(), b.workers.len());
        assert_eq!(
            a.tasks.get(TaskId(0)).location,
            b.tasks.get(TaskId(0)).location
        );
        let c = SyntheticTrace::generate(spec.with_seed(7));
        assert_ne!(
            a.tasks.get(TaskId(0)).location,
            c.tasks.get(TaskId(0)).location
        );
    }

    #[test]
    fn generated_entities_respect_the_spec() {
        let spec = TraceSpec::didi()
            .scaled(0.05)
            .with_valid_time(30.0)
            .with_reachable_distance(0.5);
        let trace = SyntheticTrace::generate(spec);
        assert_eq!(trace.tasks.len(), spec.tasks);
        assert_eq!(trace.workers.len(), spec.workers);
        for t in trace.tasks.iter() {
            assert!(t.publication.0 >= 0.0 && t.publication.0 < spec.horizon);
            assert!((t.valid_time().seconds() - 30.0).abs() < 1e-9);
            assert!(trace.area.contains(&t.location));
        }
        for t in trace.history_tasks.iter() {
            assert!(t.publication.0 < 0.0 && t.publication.0 >= -spec.history);
        }
        for w in trace.workers.iter() {
            assert!((w.reachable_distance - 0.5).abs() < 1e-9);
            assert!((w.window.length().seconds() - spec.available_time).abs() < 1e-9);
            assert!(trace.area.contains(&w.location));
        }
    }

    #[test]
    fn tasks_cluster_around_hotspots() {
        let trace = SyntheticTrace::generate(TraceSpec::yueche().scaled(0.1));
        // Average distance from each task to its nearest hotspot should be on
        // the order of the hotspot sigma, far below the uniform-baseline
        // expectation (several kilometres on a 10 km box).
        let mean_nearest: f64 = trace
            .tasks
            .iter()
            .map(|t| {
                trace
                    .hotspots
                    .iter()
                    .map(|h| h.euclidean(&t.location))
                    .fold(f64::INFINITY, f64::min)
            })
            .sum::<f64>()
            / trace.tasks.len() as f64;
        assert!(
            mean_nearest < 2.0 * trace.spec.hotspot_sigma,
            "tasks are not clustered: mean nearest-hotspot distance {mean_nearest:.2} km"
        );
    }

    #[test]
    fn scaling_preserves_the_ratio() {
        let full = TraceSpec::yueche();
        let small = full.scaled(0.1);
        let ratio_full = full.tasks as f64 / full.workers as f64;
        let ratio_small = small.tasks as f64 / small.workers as f64;
        assert!((ratio_full - ratio_small).abs() / ratio_full < 0.05);
    }

    #[test]
    fn all_tasks_concatenates_history_and_horizon() {
        let trace = SyntheticTrace::generate(TraceSpec::didi().scaled(0.02));
        assert_eq!(
            trace.all_tasks().len(),
            trace.tasks.len() + trace.history_tasks.len()
        );
    }
}
