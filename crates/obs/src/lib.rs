//! Live observability for the tracker runtime.
//!
//! The simulator (`cluster`) has had structured tracing since PR 3; this
//! crate gives the *live* pipeline the equivalent, built for production
//! overhead budgets:
//!
//! * [`span`] — the span model, the lock-free per-thread [`SpanRing`], and
//!   the [`Recorder`] handle that stage bodies, pool workers, and STM
//!   accessors report through.
//! * [`hist`] — allocation-free log-bucketed histograms ([`LogHist`]) for
//!   latency/throughput aggregation on the hot path.
//! * [`frames`] — reconstruction of per-frame lifecycles
//!   (digitize → stage spans → commit/skip) from a drained [`SpanDump`].
//! * [`chrome`] — `chrome://tracing` JSON export shared by live runs and
//!   the simulator, so both can be diffed side by side in one timeline.
//! * [`diff`](mod@diff) — semantic trace diffing: compares two span dumps on their
//!   per-frame outcome skeletons (ignoring timing), the checker behind
//!   live-vs-replay determinism verification.
//! * [`conformance`] — the schedule-conformance checker: measured
//!   per-stage costs and latencies joined against the precomputed
//!   schedule's predictions, flagging cost drift, regime
//!   misclassification, and channel-occupancy violations.
//!
//! The crate is dependency-free (shims aside) and sits below both
//! `runtime` and `cluster` so the trace format has a single owner.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod chrome;
pub mod conformance;
pub mod diff;
pub mod frames;
pub mod hist;
pub mod span;

pub use chrome::ChromeTrace;
pub use conformance::{ratio_drifts, ChannelCheck, ConformanceReport, RegimeSpec, StageRow};
pub use diff::{diff, diff_ignoring_decomp, DiffReport, FrameDiff};
pub use frames::{FrameLife, FrameOutcome, LifecycleStats};
pub use hist::LogHist;
pub use span::{Recorder, Span, SpanDump, SpanKind, SpanRing, TraceMode};
