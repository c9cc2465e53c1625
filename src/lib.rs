//! # datawa
//!
//! Umbrella crate for the DATA-WA reproduction (ICDE 2025: *Demand-based
//! Adaptive Task Assignment with Dynamic Worker Availability Windows*).
//!
//! This crate re-exports the whole workspace so applications can depend on a
//! single crate:
//!
//! * [`core`] — tasks, workers, availability windows, travel model, task
//!   sequences and assignments (Definitions 1–5);
//! * [`geo`] — the uniform grid over the study area;
//! * [`tensor`] — the minimal autograd/NN substrate;
//! * [`graph`] — chordal completion, maximal cliques, recursive tree
//!   construction;
//! * [`obs`] — the zero-overhead observability layer: metrics registry,
//!   mergeable latency histograms, span timers and JSON snapshots;
//! * [`predict`] — task multivariate time series, DDGNN and the LSTM /
//!   Graph-WaveNet baselines;
//! * [`assign`] — reachable tasks, maximal valid sequences, DFSearch, the
//!   Task Value Function, the adaptive streaming runner and the five
//!   evaluated policies;
//! * [`stream`] — the discrete-event streaming engine: the open-loop
//!   session API (live ingest, incremental typed decisions), typed
//!   lifecycle events, deterministic queue, batched re-planning and the
//!   built-in scenario generators;
//! * [`service`] — the long-running dispatch service over sessions: ingest
//!   sources (workload replay, paced live traffic), backpressure and
//!   mid-stream inspection;
//! * [`sim`] — synthetic Yueche/DiDi-like trace generation and the
//!   end-to-end pipeline (driven through the session API).
//!
//! ## Quickstart
//!
//! ```
//! use datawa::prelude::*;
//!
//! // A tiny synthetic trace (1 % of the Yueche-like preset).
//! let trace = SyntheticTrace::generate(TraceSpec::yueche().scaled(0.01));
//! let config = PipelineConfig::default();
//! let summary = run_policy(&trace, PolicyKind::Dta, &[], None, &config);
//! assert!(summary.assigned_tasks <= trace.tasks.len());
//! ```

pub use datawa_assign as assign;
pub use datawa_core as core;
pub use datawa_geo as geo;
pub use datawa_graph as graph;
pub use datawa_net as net;
pub use datawa_obs as obs;
pub use datawa_predict as predict;
pub use datawa_service as service;
pub use datawa_sim as sim;
pub use datawa_stream as stream;
pub use datawa_tensor as tensor;

/// One-stop imports for examples and downstream binaries.
pub mod prelude {
    pub use datawa_assign::{
        AdaptiveRunner, AssignConfig, DispatchRecord, ForecastProvider, ForecastStats, Planner,
        PolicyKind, PredictedTaskInput, RunnerState, SearchMode, StaticForecast, TaskValueFunction,
        TvfInference,
    };
    pub use datawa_core::prelude::*;
    pub use datawa_geo::{GridSpec, UniformGrid};
    pub use datawa_obs::{Histogram, MetricsRegistry, MetricsSnapshot, SpanTimer};
    pub use datawa_predict::{
        DdgnnPredictor, DemandPredictor, GraphWaveNetPredictor, LstmPredictor,
        OnlineForecastConfig, OnlineForecaster, SeriesDataset, SeriesSpec, TrainingConfig,
    };
    pub use datawa_service::{
        DispatchService, IngestSource, LiveSource, PumpStatus, ServiceConfig, ServiceStats,
        SourcePoll, WorkloadSource,
    };
    pub use datawa_sim::{
        online_forecaster, run_policy, run_policy_with_forecast, run_prediction,
        train_tvf_on_prefix, PipelineConfig, SyntheticTrace, TraceSpec,
    };
    pub use datawa_stream::{
        builtin_scenarios, run_workload, ChannelSink, CollectingSink, Decision, DecisionSink,
        EngineConfig, EngineOutcome, Event, EventQueue, HeavyTailedChurn, HotspotDrift,
        IngestError, NullSink, RushHourBurst, ScenarioGenerator, ScenarioSpec, Session,
        SessionSnapshot, UniformBaseline, Workload,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_resolve() {
        use crate::prelude::*;
        let w = Worker::new(
            WorkerId(0),
            Location::new(0.0, 0.0),
            1.0,
            Timestamp(0.0),
            Timestamp(1.0),
        );
        assert_eq!(w.id, WorkerId(0));
        assert_eq!(PolicyKind::all().len(), 5);
    }
}
