//! Workloads and scenario generators.
//!
//! A [`Workload`] is the engine's input: bare workers and tasks, scheduled by
//! the engine at their online/publication times. [`ScenarioGenerator`]s
//! produce workloads procedurally; four built-ins cover qualitatively
//! different demand/supply regimes beyond the Yueche/DiDi-style synthetic
//! traces (whose replay adapter lives in `datawa-sim`, which depends on this
//! crate):
//!
//! * [`UniformBaseline`] — spatially and temporally uniform; the control.
//! * [`RushHourBurst`] — demand concentrated in Gaussian bursts (morning and
//!   evening peaks) around a few hotspots.
//! * [`HotspotDrift`] — a single demand hotspot whose centre migrates across
//!   the study area over the horizon (the distribution shift the paper's
//!   DDGNN dependency modelling targets).
//! * [`HeavyTailedChurn`] — worker sessions with Pareto-distributed lengths:
//!   many short online stints, a few marathon shifts, per-driver churn.

use datawa_core::{Location, Task, TaskId, Timestamp, Worker, WorkerId};
use rand::prelude::*;

/// A schedulable batch of workers and tasks (ids are placeholders; the
/// engine's stores assign dense ids in insertion order).
#[derive(Debug, Clone, Default)]
pub struct Workload {
    /// Workers, scheduled at their online times.
    pub workers: Vec<Worker>,
    /// Tasks, scheduled at their publication times.
    pub tasks: Vec<Task>,
}

impl Workload {
    /// Total number of arrival events this workload schedules.
    pub fn arrival_count(&self) -> usize {
        self.workers.len() + self.tasks.len()
    }

    /// Latest timestamp any entity in the workload touches (offline or
    /// expiration), or `t=0` for an empty workload.
    pub fn end_time(&self) -> Timestamp {
        let mut end: f64 = 0.0;
        for w in &self.workers {
            end = end.max(w.off().0);
        }
        for t in &self.tasks {
            end = end.max(t.expiration.0);
        }
        Timestamp(end)
    }
}

/// A procedural workload generator.
pub trait ScenarioGenerator {
    /// Display name of the scenario.
    fn name(&self) -> &'static str;

    /// Generates the workload (deterministic for a fixed spec/seed).
    fn generate(&self) -> Workload;
}

/// Shared sizing knobs for the built-in scenarios.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioSpec {
    /// Number of workers (sessions, for the churn scenario's base count).
    pub workers: usize,
    /// Number of tasks.
    pub tasks: usize,
    /// Horizon in seconds; all arrivals happen in `[0, horizon)`.
    pub horizon: f64,
    /// Side length of the square study area, in kilometres.
    pub area_km: f64,
    /// Worker reachable distance, in kilometres.
    pub reachable_distance: f64,
    /// Task valid time `e − p`, in seconds.
    pub valid_time: f64,
    /// Worker availability-window length, in seconds (scenarios with churn
    /// use it as the scale of their session-length distribution).
    pub available_time: f64,
    /// RNG seed.
    pub seed: u64,
}

impl ScenarioSpec {
    /// A laptop-sized default: 40 workers, 600 tasks, a 30-minute horizon on
    /// a 10 km box with the paper's Table III defaults for the rest.
    pub fn small() -> ScenarioSpec {
        ScenarioSpec {
            workers: 40,
            tasks: 600,
            horizon: 1800.0,
            area_km: 10.0,
            reachable_distance: 1.0,
            valid_time: 40.0,
            available_time: 900.0,
            seed: 7,
        }
    }

    /// Overrides the worker count.
    pub fn with_workers(mut self, workers: usize) -> ScenarioSpec {
        self.workers = workers;
        self
    }

    /// Overrides the task count.
    pub fn with_tasks(mut self, tasks: usize) -> ScenarioSpec {
        self.tasks = tasks;
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> ScenarioSpec {
        self.seed = seed;
        self
    }

    /// Overrides the horizon (seconds).
    pub fn with_horizon(mut self, horizon: f64) -> ScenarioSpec {
        self.horizon = horizon;
        self
    }

    fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed)
    }

    fn uniform_location(&self, rng: &mut StdRng) -> Location {
        Location::new(
            rng.gen_range(0.0..self.area_km),
            rng.gen_range(0.0..self.area_km),
        )
    }

    fn clamp(&self, l: Location) -> Location {
        Location::new(l.x.clamp(0.0, self.area_km), l.y.clamp(0.0, self.area_km))
    }

    fn task_at(&self, location: Location, publication: f64) -> Task {
        let p = Timestamp(publication);
        Task::new(
            TaskId(0),
            location,
            p,
            Timestamp(publication + self.valid_time),
        )
    }

    fn worker_at(&self, location: Location, on: f64, window: f64) -> Worker {
        Worker::new(
            WorkerId(0),
            location,
            self.reachable_distance,
            Timestamp(on),
            Timestamp(on + window),
        )
    }
}

/// Standard-normal sample (shared Box–Muller sampler from the rand stub).
fn normal(rng: &mut StdRng) -> f64 {
    rng.sample::<f64, _>(StandardNormal)
}

/// Uniform demand in space and time — the control scenario every other one
/// is compared against.
#[derive(Debug, Clone, Copy)]
pub struct UniformBaseline {
    /// Sizing knobs.
    pub spec: ScenarioSpec,
}

impl UniformBaseline {
    /// Creates the scenario.
    pub fn new(spec: ScenarioSpec) -> UniformBaseline {
        UniformBaseline { spec }
    }
}

impl ScenarioGenerator for UniformBaseline {
    fn name(&self) -> &'static str {
        "uniform-baseline"
    }

    fn generate(&self) -> Workload {
        let spec = self.spec;
        let mut rng = spec.rng();
        let mut workload = Workload::default();
        for _ in 0..spec.workers {
            let on = rng.gen_range(0.0..spec.horizon * 0.5);
            let location = spec.uniform_location(&mut rng);
            workload
                .workers
                .push(spec.worker_at(location, on, spec.available_time));
        }
        for _ in 0..spec.tasks {
            let publication = rng.gen_range(0.0..spec.horizon);
            let location = spec.uniform_location(&mut rng);
            workload.tasks.push(spec.task_at(location, publication));
        }
        workload
    }
}

/// Demand concentrated in Gaussian bursts around a few hotspots: a morning
/// and an evening rush with a quiet valley in between. Workers come online
/// shortly before the bursts they serve.
#[derive(Debug, Clone)]
pub struct RushHourBurst {
    /// Sizing knobs.
    pub spec: ScenarioSpec,
}

impl RushHourBurst {
    /// Burst centres as fractions of the horizon; each burst's temporal σ
    /// is horizon/12 seconds.
    const PEAKS: [f64; 2] = [0.25, 0.75];
    /// Number of spatial hotspots tasks cluster around.
    const HOTSPOTS: usize = 4;
    /// Spatial σ of each hotspot, in kilometres.
    const HOTSPOT_SIGMA: f64 = 0.7;

    /// Creates the scenario with its two-peak shape.
    pub fn new(spec: ScenarioSpec) -> RushHourBurst {
        RushHourBurst { spec }
    }
}

impl ScenarioGenerator for RushHourBurst {
    fn name(&self) -> &'static str {
        "rush-hour-burst"
    }

    fn generate(&self) -> Workload {
        let spec = self.spec;
        let sigma = spec.horizon / 12.0;
        let mut rng = spec.rng();
        let centres: Vec<Location> = (0..RushHourBurst::HOTSPOTS)
            .map(|_| spec.uniform_location(&mut rng))
            .collect();
        let peaks = RushHourBurst::PEAKS;
        let sample_instant = |rng: &mut StdRng| -> f64 {
            let frac = peaks[rng.gen_range(0..peaks.len())];
            (frac * spec.horizon + normal(rng) * sigma).clamp(0.0, spec.horizon * 0.999)
        };
        let mut workload = Workload::default();
        for _ in 0..spec.workers {
            // Come online roughly one σ before a burst, so supply meets the
            // ramp of demand.
            let frac = peaks[rng.gen_range(0..peaks.len())];
            let on = (frac * spec.horizon - sigma + normal(&mut rng) * sigma * 0.5)
                .clamp(0.0, spec.horizon * 0.9);
            let centre = centres[rng.gen_range(0..centres.len())];
            let location = spec.clamp(Location::new(
                centre.x + normal(&mut rng) * RushHourBurst::HOTSPOT_SIGMA,
                centre.y + normal(&mut rng) * RushHourBurst::HOTSPOT_SIGMA,
            ));
            workload
                .workers
                .push(spec.worker_at(location, on, spec.available_time));
        }
        for _ in 0..spec.tasks {
            let publication = sample_instant(&mut rng);
            let centre = centres[rng.gen_range(0..centres.len())];
            let location = spec.clamp(Location::new(
                centre.x + normal(&mut rng) * RushHourBurst::HOTSPOT_SIGMA,
                centre.y + normal(&mut rng) * RushHourBurst::HOTSPOT_SIGMA,
            ));
            workload.tasks.push(spec.task_at(location, publication));
        }
        workload
    }
}

/// A single demand hotspot migrating across the study area over the horizon
/// (left edge to right edge along a sine-wave vertical path): the
/// distribution at the end of the run looks nothing like the beginning.
#[derive(Debug, Clone, Copy)]
pub struct HotspotDrift {
    /// Sizing knobs.
    pub spec: ScenarioSpec,
}

impl HotspotDrift {
    /// Spatial σ of the moving hotspot, in kilometres.
    const SIGMA_KM: f64 = 0.8;

    /// Creates the scenario.
    pub fn new(spec: ScenarioSpec) -> HotspotDrift {
        HotspotDrift { spec }
    }

    /// Hotspot centre at time `t`.
    pub fn centre_at(&self, t: f64) -> Location {
        let spec = self.spec;
        let progress = (t / spec.horizon).clamp(0.0, 1.0);
        let x = progress * spec.area_km;
        let y = spec.area_km * (0.5 + 0.35 * (progress * std::f64::consts::TAU).sin());
        Location::new(x, y)
    }
}

impl ScenarioGenerator for HotspotDrift {
    fn name(&self) -> &'static str {
        "hotspot-drift"
    }

    fn generate(&self) -> Workload {
        let spec = self.spec;
        let mut rng = spec.rng();
        let mut workload = Workload::default();
        for _ in 0..spec.workers {
            let on = rng.gen_range(0.0..spec.horizon * 0.5);
            // Drivers position themselves where demand currently is.
            let centre = self.centre_at(on);
            let location = spec.clamp(Location::new(
                centre.x + normal(&mut rng) * HotspotDrift::SIGMA_KM * 2.0,
                centre.y + normal(&mut rng) * HotspotDrift::SIGMA_KM * 2.0,
            ));
            workload
                .workers
                .push(spec.worker_at(location, on, spec.available_time));
        }
        for _ in 0..spec.tasks {
            let publication = rng.gen_range(0.0..spec.horizon);
            let centre = self.centre_at(publication);
            let location = spec.clamp(Location::new(
                centre.x + normal(&mut rng) * HotspotDrift::SIGMA_KM,
                centre.y + normal(&mut rng) * HotspotDrift::SIGMA_KM,
            ));
            workload.tasks.push(spec.task_at(location, publication));
        }
        workload
    }
}

/// Worker churn with Pareto(α)-distributed session lengths: most sessions are
/// much shorter than `spec.available_time`, a few are far longer, and each
/// driver cycles through several sessions with gaps — a heavy-tailed
/// online/offline flapping pattern that stresses the engine's
/// `WorkerOffline` handling. Tasks arrive uniformly around a few hotspots.
#[derive(Debug, Clone, Copy)]
pub struct HeavyTailedChurn {
    /// Sizing knobs (`spec.workers` counts *drivers*; every driver
    /// contributes one worker record per session).
    pub spec: ScenarioSpec,
}

impl HeavyTailedChurn {
    /// Pareto tail index (smaller ⇒ heavier tail). Must be > 1 so the mean
    /// session length exists.
    const ALPHA: f64 = 1.5;
    /// Minimum session length in seconds (the Pareto scale parameter).
    const MIN_SESSION: f64 = 60.0;

    /// Creates the scenario with α = 1.5 and 60 s minimum sessions.
    pub fn new(spec: ScenarioSpec) -> HeavyTailedChurn {
        HeavyTailedChurn { spec }
    }

    fn session_length(&self, rng: &mut StdRng) -> f64 {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        // Inverse-CDF Pareto sample, capped at the nominal window length so a
        // single tail draw cannot swallow the whole horizon.
        (HeavyTailedChurn::MIN_SESSION * u.powf(-1.0 / HeavyTailedChurn::ALPHA))
            .min(self.spec.available_time)
    }
}

impl ScenarioGenerator for HeavyTailedChurn {
    fn name(&self) -> &'static str {
        "heavy-tailed-churn"
    }

    fn generate(&self) -> Workload {
        let spec = self.spec;
        let mut rng = spec.rng();
        let hotspots: Vec<Location> = (0..5).map(|_| spec.uniform_location(&mut rng)).collect();
        let mut workload = Workload::default();
        for _ in 0..spec.workers {
            let home = hotspots[rng.gen_range(0..hotspots.len())];
            let location = spec.clamp(Location::new(
                home.x + normal(&mut rng) * 1.0,
                home.y + normal(&mut rng) * 1.0,
            ));
            // Sessions separated by heavy-tailed gaps until the horizon ends.
            let mut clock = rng.gen_range(0.0..spec.horizon * 0.25);
            while clock < spec.horizon * 0.9 {
                let length = self.session_length(&mut rng);
                workload
                    .workers
                    .push(spec.worker_at(location, clock, length));
                let gap = self.session_length(&mut rng);
                clock += length + gap;
            }
        }
        for _ in 0..spec.tasks {
            let publication = rng.gen_range(0.0..spec.horizon);
            let centre = hotspots[rng.gen_range(0..hotspots.len())];
            let location = spec.clamp(Location::new(
                centre.x + normal(&mut rng) * 0.8,
                centre.y + normal(&mut rng) * 0.8,
            ));
            workload.tasks.push(spec.task_at(location, publication));
        }
        workload
    }
}

/// The four built-in scenarios over one spec, boxed for sweeping.
pub fn builtin_scenarios(spec: ScenarioSpec) -> Vec<Box<dyn ScenarioGenerator>> {
    vec![
        Box::new(UniformBaseline::new(spec)),
        Box::new(RushHourBurst::new(spec)),
        Box::new(HotspotDrift::new(spec)),
        Box::new(HeavyTailedChurn::new(spec)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_builtin_scenarios_generate_well_formed_workloads() {
        let spec = ScenarioSpec::small().with_tasks(200).with_workers(20);
        for scenario in builtin_scenarios(spec) {
            let w = scenario.generate();
            assert!(!w.workers.is_empty(), "{}: no workers", scenario.name());
            assert_eq!(w.tasks.len(), 200, "{}", scenario.name());
            for t in &w.tasks {
                assert!(t.is_well_formed(), "{}", scenario.name());
                assert!(t.publication.0 >= 0.0 && t.publication.0 < spec.horizon);
            }
            for worker in &w.workers {
                assert!(worker.is_well_formed(), "{}", scenario.name());
            }
            assert!(w.end_time().0 > 0.0);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = ScenarioSpec::small();
        let a = RushHourBurst::new(spec).generate();
        let b = RushHourBurst::new(spec).generate();
        assert_eq!(a.tasks.len(), b.tasks.len());
        for (x, y) in a.tasks.iter().zip(&b.tasks) {
            assert_eq!(x.location, y.location);
            assert_eq!(x.publication, y.publication);
        }
        let c = RushHourBurst::new(spec.with_seed(99)).generate();
        assert_ne!(a.tasks[0].location, c.tasks[0].location);
    }

    #[test]
    fn rush_hour_concentrates_demand_near_peaks() {
        let spec = ScenarioSpec::small().with_tasks(2000);
        let w = RushHourBurst::new(spec).generate();
        let sigma = spec.horizon / 12.0;
        // At least 70 % of tasks within 2σ of a peak (vs ~44 % if uniform).
        let near_peak = w
            .tasks
            .iter()
            .filter(|t| {
                RushHourBurst::PEAKS
                    .iter()
                    .any(|&frac| (t.publication.0 - frac * spec.horizon).abs() <= 2.0 * sigma)
            })
            .count();
        assert!(
            near_peak as f64 >= 0.7 * w.tasks.len() as f64,
            "only {near_peak}/{} tasks near a peak",
            w.tasks.len()
        );
    }

    #[test]
    fn hotspot_drift_moves_the_demand_centroid() {
        let spec = ScenarioSpec::small().with_tasks(2000);
        let w = HotspotDrift::new(spec).generate();
        let (mut early_x, mut early_n, mut late_x, mut late_n) = (0.0, 0usize, 0.0, 0usize);
        for t in &w.tasks {
            if t.publication.0 < spec.horizon * 0.2 {
                early_x += t.location.x;
                early_n += 1;
            } else if t.publication.0 > spec.horizon * 0.8 {
                late_x += t.location.x;
                late_n += 1;
            }
        }
        let early = early_x / early_n.max(1) as f64;
        let late = late_x / late_n.max(1) as f64;
        assert!(
            late - early > 0.5 * spec.area_km,
            "demand centroid did not drift: early x̄ {early:.2}, late x̄ {late:.2}"
        );
    }

    #[test]
    fn heavy_tailed_churn_produces_dispersed_session_lengths() {
        let spec = ScenarioSpec::small().with_workers(60);
        let w = HeavyTailedChurn::new(spec).generate();
        assert!(
            w.workers.len() > spec.workers,
            "churn should yield more sessions than drivers"
        );
        let lengths: Vec<f64> = w
            .workers
            .iter()
            .map(|x| x.window.length().seconds())
            .collect();
        let short = lengths.iter().filter(|&&l| l < 180.0).count();
        let long = lengths.iter().filter(|&&l| l > 600.0).count();
        assert!(
            short > 0 && long > 0,
            "no heavy tail: {short} short, {long} long"
        );
        let max = lengths.iter().cloned().fold(0.0, f64::max);
        let median = {
            let mut sorted = lengths.clone();
            sorted.sort_by(f64::total_cmp);
            sorted[sorted.len() / 2]
        };
        assert!(
            max > 4.0 * median,
            "tail not heavy: max {max:.0}s median {median:.0}s"
        );
    }
}
