//! # datawa-core
//!
//! Domain model for the DATA-WA spatial-crowdsourcing framework (ICDE 2025).
//!
//! This crate contains the vocabulary types shared by every other crate in the
//! workspace: spatial [`Location`]s, [`Timestamp`]s, [`Task`]s, [`Worker`]s with
//! dynamic availability windows, travel models, task sequences and spatial task
//! assignments, together with the validity rules of Definitions 1–5 of the paper.
//!
//! The crate is deliberately free of any algorithmic policy: prediction lives in
//! `datawa-predict`, assignment search in `datawa-assign`, and workload
//! generation in `datawa-sim`.
//!
//! ## Quick tour
//!
//! ```
//! use datawa_core::prelude::*;
//!
//! let travel = TravelModel::euclidean(1.0); // 1 distance-unit per second
//! let task = Task::new(TaskId(0), Location::new(1.5, 1.2), Timestamp(1.0), Timestamp(4.0));
//! let worker = Worker::new(WorkerId(0), Location::new(0.5, 1.0), 1.2, Timestamp(1.0), Timestamp(10.0));
//! assert!(worker.can_reach(&task, &travel, Timestamp(1.0)));
//! ```

pub mod assignment;
pub mod location;
pub mod sequence;
pub mod store;
pub mod task;
pub mod time;
pub mod travel;
pub mod worker;

pub use assignment::{Assignment, AssignmentStats};
pub use location::{BoundingBox, Location};
pub use sequence::{ArrivalTimes, TaskSequence, ValidityViolation};
pub use store::{OpenTaskView, TaskStore, WorkerStore};
pub use task::{Task, TaskId};
pub use time::{Duration, Timestamp};
pub use travel::{DistanceMetric, TravelModel};
pub use worker::{AvailabilityWindow, Worker, WorkerId, WorkerMode};

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::assignment::{Assignment, AssignmentStats};
    pub use crate::location::{BoundingBox, Location};
    pub use crate::sequence::{ArrivalTimes, TaskSequence, ValidityViolation};
    pub use crate::store::{OpenTaskView, TaskStore, WorkerStore};
    pub use crate::task::{Task, TaskId};
    pub use crate::time::{Duration, Timestamp};
    pub use crate::travel::{DistanceMetric, TravelModel};
    pub use crate::worker::{AvailabilityWindow, Worker, WorkerId, WorkerMode};
}
