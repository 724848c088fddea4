//! # Constrained-dynamic scheduling (the paper's contribution)
//!
//! This crate implements the scheduling framework of *Scheduling Constrained
//! Dynamic Applications on Clusters* (SC 1999):
//!
//! 1. **Per-regime optimal scheduling** (Fig. 6): for one application state,
//!    enumerate data decompositions and all legal single-iteration schedules
//!    ([`optimal`]), compute the minimal latency `L*`, collect the set `S`
//!    of schedules achieving `L*`, and pick from `S` the multi-iteration
//!    (software-pipelined) schedule with the best throughput via the
//!    initiation-interval search ([`ii`]).
//! 2. **Baselines**: the naive software pipeline of Fig. 4(b)
//!    ([`pipeline`]), a bottom-level list scheduler used as comparator and
//!    branch-and-bound seed ([`listsched`]), and — in the `cluster` crate —
//!    the dependence-blind online scheduler of Fig. 4(a).
//! 3. **Constrained dynamism** (§3.4): precompute one optimal schedule per
//!    state into a [`table::ScheduleTable`], detect state changes with a
//!    debounced [`detector::RegimeDetector`], and switch among schedules at
//!    run time ([`switcher`]) under a drain or cut-over transition policy.
//! 4. **Hand-tuning methodology** (§3.1): the digitizer-period sweep that
//!    produces Fig. 3's tuning curve ([`tuning`]).
//!
//! ```
//! use cds_core::optimal::{optimal_schedule, OptimalConfig};
//! use cluster::ClusterSpec;
//! use taskgraph::{builders, AppState};
//!
//! let graph = builders::color_tracker();
//! let cluster = ClusterSpec::single_node(4);
//! let best = optimal_schedule(&graph, &cluster, &AppState::new(8), &OptimalConfig::default());
//! // The optimal latency at 8 models beats the serial iteration by a wide margin.
//! assert!(best.minimal_latency < graph.total_work(&AppState::new(8)));
//! ```
//!
//! See `docs/ARCHITECTURE.md` for the full paper-to-code map.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod detector;
pub mod evaluate;
pub mod expand;
pub mod ii;
pub mod legality;
pub mod listsched;
pub mod multinode;
pub mod optimal;
pub mod persist;
pub mod pipeline;
pub mod schedule;
pub mod sharedcache;
pub mod switcher;
pub mod table;
pub mod tuning;

pub use detector::RegimeDetector;
pub use evaluate::evaluate_schedule;
pub use expand::{ExpandedGraph, Instance};
pub use ii::{find_best_ii, find_best_ii_rotations};
pub use legality::{check_iteration, check_pipelined};
pub use listsched::list_schedule;
pub use multinode::{is_node_confined, node_pipelined};
pub use optimal::{optimal_schedule, optimal_schedule_warm, OptimalConfig, OptimalResult};
pub use persist::{
    schedule_cache_key, schedule_from_str, schedule_to_string, table_from_str, table_to_string,
    CacheMiss, ScheduleCache,
};
pub use pipeline::naive_pipeline;
pub use schedule::{IterationSchedule, PipelinedSchedule, Placement, StagePrediction};
pub use sharedcache::SharedScheduleCache;
pub use switcher::{simulate_regime_switched, SwitchConfig, TransitionPolicy};
pub use table::{ScheduleTable, TableBuildStats};
pub use tuning::{tuning_curve, TuningPoint};
