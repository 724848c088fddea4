//! # Deterministic record/replay for the live tracker pipeline
//!
//! A live run's output is a deterministic function of a small set of
//! nondeterministic inputs: the digitized frames, the set of frames each
//! stage skipped (deadline timeouts, injected faults, load sheds), and the
//! order the sink's observations reached the regime controller. This crate
//! captures exactly that set at the channel boundary into a compact
//! columnar [`Recording`], and provides the [`ReplaySource`] that re-drives
//! the *real* pipeline from it — same task bodies, same STM channels, same
//! kernels — with every timing-dependent decision pinned to what the live
//! run did.
//!
//! Replayability rests on three properties the runtime already guarantees:
//!
//! * every compute stage is a pure function of its STM inputs (kernels are
//!   bit-identical across decompositions and backends);
//! * all nondeterminism enters through the `StageCtx` funnel — input
//!   skips and digitizer output are the only timing-dependent events;
//! * the sink settles frames in timestamp order, so the controller's
//!   observation sequence is determined by which frames committed.
//!
//! So a replay that (a) feeds the recorded frames without pacing, (b)
//! re-injects the recorded skips at their `(stage, frame)` coordinates, and
//! (c) runs with the deadline watchdog off produces bit-identical commits —
//! verified per frame by an FNV-64 hash over the model locations.
//!
//! The [`Recording`] serializes to a columnar log (`CDSREC01`): sorted
//! parallel columns per event family, so two encodes of equal content are
//! byte-identical — the determinism witness CI checks.
//!
//! `StageCtx` is crate-private to `runtime` (which depends on this one):
//! each stage's view of its app's one run context, through which every
//! STM get/put, skip and commit of the six stages passes. The tap sits in
//! that run context, so the integration points are [`RecordTap`] (live
//! side) and [`ReplaySource`] (replay side).

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod format;
pub mod tap;

pub use format::{FormatError, Header, Recording};
pub use tap::{fnv64, location_hash, RecordTap, ReplaySource};
