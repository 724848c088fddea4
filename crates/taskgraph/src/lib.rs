//! # Task-graph application model
//!
//! The macro-dataflow representation of the paper's application class:
//! "nodes represent high level operations that produce and consume data items
//! and edges represent communication among producers and consumers"
//! (Fig. 6, *Input*). A [`TaskGraph`] couples
//!
//! * [`Task`]s with *state-dependent* [`CostModel`]s — in the color tracker,
//!   T1–T3 cost the same regardless of how many people are tracked while T4
//!   and T5 are linear in the number of models with very different constants —
//! * [`ChannelSpec`]s with item-size models driving communication costs, and
//! * optional [`DataParallelSpec`]s describing how a task may be decomposed
//!   into chunks (by frame partitions FP and/or model partitions MP, Table 1).
//!
//! The graph is *fixed*; only the relative costs vary with the
//! [`AppState`] — this is exactly the "constrained dynamism" the scheduler
//! exploits: a small number of states, each with its own optimal schedule.
//!
//! ```
//! use taskgraph::{builders, AppState};
//!
//! let g = builders::color_tracker();
//! g.validate().unwrap();
//! let one = g.total_work(&AppState::new(1));
//! let eight = g.total_work(&AppState::new(8));
//! assert!(eight > one, "work grows with the number of tracked models");
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod analysis;
pub mod builders;
mod comm;
mod cost;
mod decomp;
mod dot;
mod graph;
mod ids;
mod state;

pub use analysis::{CriticalPath, GraphAnalysis};
pub use comm::{CommCosts, Locality};
pub use cost::{CostModel, Micros, SizeModel};
pub use decomp::{ChunkPlan, DataParallelSpec, Decomposition};
pub use dot::to_dot;
pub use graph::{ChannelSpec, GraphError, Task, TaskGraph, TaskGraphBuilder};
pub use ids::{ChanId, TaskId};
pub use state::AppState;
