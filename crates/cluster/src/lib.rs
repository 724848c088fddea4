//! # Cluster model and discrete-event simulator
//!
//! The execution substrate of the reproduction: a deterministic model of a
//! cluster of SMPs (the paper ran on four 4-way AlphaServer 4100s) plus a
//! discrete-event simulator that executes streaming task graphs against it.
//!
//! Two execution styles are provided:
//!
//! * [`online::simulate_online`] — a *general on-line scheduler* in the style
//!   of the pthread scheduler the paper uses as its baseline (§3.2): a
//!   dependence-blind, FIFO, optionally preemptive policy that knows nothing
//!   about the task graph. It reproduces the paper's enumerated pathologies —
//!   bursty upstream production, partially processed items, the
//!   one-processor-per-thread restriction, and downstream tasks that cannot
//!   keep up.
//! * Explicit timetable execution, used by the `cds-core` crate to evaluate
//!   precomputed schedules; it shares this crate's [`trace`] and [`metrics`]
//!   types so online and offline runs are directly comparable.
//!
//! All simulated time is in [`Micros`](taskgraph::Micros); runs are exactly
//! reproducible.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod analysis;
pub mod gantt;
pub mod metrics;
pub mod online;
pub mod online_ref;
pub mod spec;
pub mod sweep;
pub mod trace;
pub mod workload;

pub use analysis::{pathology_report, PathologyReport};
pub use gantt::{render_gantt, GanttOptions};
pub use metrics::{FrameRecord, Metrics, MetricsScratch};
pub use online::{simulate_online, OnlineConfig, SimArena, SimOutcome, SimSummary};
pub use online_ref::simulate_online_ref;
pub use spec::{ClusterSpec, NodeId, ProcId};
pub use sweep::{sweep, SweepConfig, SweepOutput, SweepStats};
pub use trace::{ExecutionTrace, TraceEntry, TraceMode};
pub use workload::{FrameClock, StateTrack};
