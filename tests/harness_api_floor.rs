//! The public-API floor of the frozen benchmark harness. `benchmark/` is a
//! workspace of its own, so tier-1 never compiles it; this test imports,
//! straight from the crates, every name `benchmark/src/*.rs` imports, so a
//! refactor that removes one fails `cargo test -q` at the root and not only
//! the separate benchmark smoke test.

#[test]
#[allow(unused_imports)]
fn names_the_benchmark_harness_imports_still_exist() {
    use datawa_assign::{
        build_worker_dependency_graph, generate_sequences, reachable_tasks, AdaptiveRunner,
        AssignConfig, ForecastProvider, ForecastStats, Planner, PolicyKind, PredictedTaskInput,
        SearchMode, StaticForecast,
    };
    use datawa_core::{Duration, Location, Task, TaskId, TaskStore, Timestamp, WorkerStore};
    use datawa_graph::ClusterTree;
    use datawa_net::wire::{read_frame, write_frame, Frame, PROTOCOL_VERSION};
    use datawa_net::{NetConfig, NetServer};
    use datawa_predict::{DdgnnPredictor, TrainingConfig};
    use datawa_service::{
        DispatchService, IngestSource, PumpStatus, ServiceConfig, SourcePoll, WorkloadSource,
    };
    use datawa_sim::{
        online_forecaster, prediction_grid, train_tvf_on_prefix, PipelineConfig, SyntheticTrace,
        TraceSpec,
    };
    use datawa_stream::{
        Decision, DecisionSink, EngineConfig, EngineOutcome, Event, EventJournal, HeavyTailedChurn,
        JournalError, ScenarioGenerator, ScenarioSpec, Session, Workload,
    };

    // The harness writes the planner thread count into its config.
    let config = AssignConfig {
        threads: 1,
        ..AssignConfig::default()
    };
    assert_eq!(config.threads, 1);
}
