//! # Stampede-like threaded runtime
//!
//! Executes the color tracker as *real* concurrent tasks over
//! [`stm`] channels — the reproduction of the paper's actual execution
//! model, where "each task is a POSIX thread" and "the channel mechanism is
//! provided by Space-Time Memory".
//!
//! Two executors are provided:
//!
//! * [`exec_online::OnlineExecutor`] — one free-running thread per task,
//!   synchronized only by blocking STM gets and channel flow control: the
//!   real-threads analogue of the paper's pthread baseline. The one
//!   data-parallel task, target detection, farms chunks to a
//!   [`pool::WorkerPool`] through the splitter/worker/joiner structure of
//!   Fig. 9.
//! * [`exec_scheduled::ScheduledExecutor`] — one *master thread per modeled
//!   processor*, each interpreting its precomputed placement sequence from a
//!   [`cds_core::PipelinedSchedule`] (the paper's §3.3 lists exactly this
//!   implementation option: "one might generate a master for each processor
//!   that controls its pre-computed processor-specific schedule").
//!   Dependences are enforced for free by blocking STM gets, so a legal
//!   schedule needs no extra synchronization.
//!
//! [`regime_rt::RegimeController`] closes the constrained-dynamism loop at
//! run time: the peak detector's people count feeds a debounced detector,
//! and the splitter "looks up the decomposition for the current state from
//! a pre-computed table" on every frame.
//!
//! Observability: attach a [`TraceMode`](obs::TraceMode) through
//! [`TrackerConfig::trace`](app::TrackerConfig) and every stage body, STM
//! get/put, pool chunk, skip, and regime switch reports spans into an
//! [`obs::Recorder`] for Chrome-trace export and schedule-conformance
//! checking (see the `obs` crate).

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod app;
pub mod error;
pub mod exec_online;
pub mod exec_scheduled;
pub mod faults;
pub mod fleet;
pub mod frame_pool;
pub mod lifecycle;
pub mod measure;
pub mod pool;
pub mod record;
pub mod regime_rt;
pub mod tasks;

pub use app::{SharedResources, TrackerApp, TrackerConfig};
pub use error::{HealthReport, RuntimeError, RuntimeHealth, Stage};
pub use exec_online::OnlineExecutor;
pub use exec_scheduled::ScheduledExecutor;
pub use faults::{FaultInjector, FaultPlan, InjectedCounts};
pub use fleet::{run_fleet, Fleet, FleetConfig, FleetObs, FleetRun, TenantRollup, TenantRun};
pub use frame_pool::{BufPool, PoolStats, Pooled, PooledFrame, PooledMask};
pub use lifecycle::{AttachOutcome, LifecycleState, TenantSpec};
pub use measure::{Measurements, RunStats};
pub use pool::{PoolClosed, PoolHealth, PriorityClass, WorkerPool};
pub use record::{
    record_run, record_run_with_scene, replay_config, replay_run, RecordedRun, ReplayOutcome,
};
pub use regime_rt::{RegimeController, RegimeError, ReschedSwap};
pub use tasks::{ChunkJob, TaskBody};
