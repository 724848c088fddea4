//! Typed runtime faults and the health ledger of the live data path.
//!
//! The paper's latest-value STM semantics (§2.1) explicitly allow a
//! consumer to *skip* frames rather than stall: "tasks can be modified at
//! run-time" and the kiosk keeps serving whatever frames it can. This
//! module is the Rust rendering of that degradation ladder — every fault a
//! task can hit on the steady-state frame path becomes a [`RuntimeError`]
//! value, the frame is dropped, the task's frontier advances, and a counter
//! in [`RuntimeHealth`] records what happened. Nothing on the frame path
//! panics; the pipeline keeps streaming.
//!
//! The ladder, from least to most severe:
//!
//! 1. **absorb** — transient delays under the latency budget pass through
//!    untouched (nothing recorded);
//! 2. **drop the frame** — an unexpected STM error, a missed deadline, or a
//!    rejected late `put` skips exactly one frame at one stage
//!    ([`RuntimeError`] recorded, frontier advanced, stream continues);
//! 3. **recompute inline** — a data-parallel chunk lost to a worker panic
//!    is recomputed by the joiner, so the frame's output is still
//!    bit-identical (`chunk_recomputes` in the [`HealthReport`]);
//! 4. **stop the task** — only genuine end-of-stream (channel closed)
//!    terminates a task, exactly as before.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use stm::{GetError, PutError};

/// The six pipeline stages of the Fig. 2 tracker, used to attribute faults.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Stage {
    /// T1 — frame source.
    Digitizer,
    /// T2 — whole-image color histogram.
    Histogram,
    /// T3 — frame differencing.
    Change,
    /// T4 — target detection.
    Detect,
    /// T5 — peak detection.
    Peak,
    /// Sink — DECface update.
    Face,
}

impl Stage {
    /// All six stages in task-graph order (the order
    /// [`index`](Self::index) numbers them in).
    pub const ALL: [Stage; 6] = [
        Stage::Digitizer,
        Stage::Histogram,
        Stage::Change,
        Stage::Detect,
        Stage::Peak,
        Stage::Face,
    ];

    /// The stage's index in task-graph order (0 = digitizer … 5 = face),
    /// used as the span stage id in observability traces.
    #[must_use]
    pub fn index(self) -> u8 {
        match self {
            Stage::Digitizer => 0,
            Stage::Histogram => 1,
            Stage::Change => 2,
            Stage::Detect => 3,
            Stage::Peak => 4,
            Stage::Face => 5,
        }
    }

    /// The stage's name: its task's name in
    /// [`taskgraph::builders::color_tracker`], and its task body's.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Digitizer => "Digitizer",
            Stage::Histogram => "Histogram",
            Stage::Change => "Change Detection",
            Stage::Detect => "Target Detection",
            Stage::Peak => "Peak Detection",
            Stage::Face => "DECface Update",
        }
    }

    /// Display names of all stages in [`index`](Self::index) order — the
    /// `stage_names` every [`obs::Recorder`] for this pipeline should use.
    #[must_use]
    pub fn names() -> Vec<String> {
        Stage::ALL.iter().map(ToString::to_string).collect()
    }

    /// Stages strictly downstream of `self` on the dependency path — the
    /// number of cascaded deadline skips one dropped frame causes.
    #[must_use]
    pub fn downstream_depth(self) -> u64 {
        match self {
            // A digitizer drop starves T2/T3 which starves T4 … but the
            // digitizer itself never drops via a get (it has no inputs), so
            // its depth is the full chain when a put is rejected late.
            Stage::Digitizer => 4,
            Stage::Histogram | Stage::Change => 3,
            Stage::Detect => 2,
            Stage::Peak => 1,
            Stage::Face => 0,
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A typed fault on the live frame path. Each value corresponds to exactly
/// one dropped (or inline-recovered) frame-stage event; none of them is
/// fatal to the pipeline.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RuntimeError {
    /// An STM `get` failed in a way end-of-stream semantics don't cover
    /// (e.g. `AlreadyConsumed` from a mis-sequenced sibling). Formerly a
    /// `panic!` — now the frame is dropped and the stream continues.
    StmGet {
        /// Stage that observed the error.
        stage: Stage,
        /// Frame timestamp.
        ts: u64,
        /// The underlying STM error.
        err: GetError,
    },
    /// An STM `put` was rejected: the frame arrived after downstream
    /// frontiers had already passed it (a straggler overtaken by the
    /// watchdog), or a duplicate timestamp. The frame is dropped.
    StmPut {
        /// Stage whose output was rejected.
        stage: Stage,
        /// Frame timestamp.
        ts: u64,
        /// The underlying STM error.
        err: PutError,
    },
    /// The stage's input did not arrive within the latency budget; the
    /// frame is skipped (STM latest-value semantics) so one stuck frame
    /// cannot back-pressure the digitizer.
    DeadlineExceeded {
        /// Stage that gave up waiting.
        stage: Stage,
        /// Frame timestamp.
        ts: u64,
    },
    /// A scheduled chunk count disagreed with the configured decomposition;
    /// the frame is dropped rather than asserting.
    ChunkMismatch {
        /// Frame timestamp.
        ts: u64,
        /// Chunk count the schedule expects.
        expected: u32,
        /// Chunk count the decomposition produces.
        got: u32,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::StmGet { stage, ts, err } => {
                write!(f, "{stage}: unexpected STM get error at frame {ts}: {err}")
            }
            RuntimeError::StmPut { stage, ts, err } => {
                write!(f, "{stage}: STM put rejected at frame {ts}: {err}")
            }
            RuntimeError::DeadlineExceeded { stage, ts } => {
                write!(f, "{stage}: frame {ts} missed its latency budget")
            }
            RuntimeError::ChunkMismatch { ts, expected, got } => {
                write!(
                    f,
                    "schedule expects {expected} chunks but decomposition yields {got} at frame {ts}"
                )
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Most recent faults retained for diagnostics (counters are unbounded).
const FAULT_LOG_CAP: usize = 1024;

/// Shared health ledger of one tracker run: lock-free counters on the hot
/// path, plus a capped log of the typed faults for diagnostics.
#[derive(Debug, Default)]
pub struct RuntimeHealth {
    stm_get_drops: AtomicU64,
    stm_put_drops: AtomicU64,
    deadline_skips: AtomicU64,
    chunk_mismatches: AtomicU64,
    chunk_recomputes: AtomicU64,
    regime_clamps: AtomicU64,
    mark_drops: AtomicU64,
    load_sheds: AtomicU64,
    log: Mutex<Vec<RuntimeError>>,
}

impl RuntimeHealth {
    /// Record one fault: bump its counter and append to the capped log.
    pub fn record(&self, e: RuntimeError) {
        match e {
            RuntimeError::StmGet { .. } => &self.stm_get_drops,
            RuntimeError::StmPut { .. } => &self.stm_put_drops,
            RuntimeError::DeadlineExceeded { .. } => &self.deadline_skips,
            RuntimeError::ChunkMismatch { .. } => &self.chunk_mismatches,
        }
        .fetch_add(1, Ordering::SeqCst);
        let mut log = self.log.lock();
        if log.len() < FAULT_LOG_CAP {
            log.push(e);
        }
    }

    /// Record that a joiner recomputed a data-parallel chunk whose pool
    /// reply never arrived (worker panic): the frame's output stayed
    /// bit-identical, only the latency paid.
    pub fn record_chunk_recompute(&self) {
        self.chunk_recomputes.fetch_add(1, Ordering::SeqCst);
    }

    /// Record that the regime controller clamped an observation outside the
    /// precomputed table to the nearest known regime.
    pub fn record_regime_clamp(&self) {
        self.regime_clamps.fetch_add(1, Ordering::SeqCst);
    }

    /// Record that a measurement mark (digitize/complete/stage) arrived for
    /// a timestamp outside the preallocated window and was dropped.
    /// Formerly this drop was silent; now the report shows it.
    pub fn record_mark_drop(&self) {
        self.mark_drops.fetch_add(1, Ordering::SeqCst);
    }

    /// Record that the digitizer deliberately skip-committed a frame
    /// because the fleet flagged this (BestEffort) tenant to shed load —
    /// a policy decision, not a fault, so it is tallied separately from
    /// the drop ladder and excluded from
    /// [`total_drops`](HealthReport::total_drops).
    pub fn record_load_shed(&self) {
        self.load_sheds.fetch_add(1, Ordering::SeqCst);
    }

    /// Snapshot of all counters.
    #[must_use]
    pub fn report(&self) -> HealthReport {
        HealthReport {
            stm_get_drops: self.stm_get_drops.load(Ordering::SeqCst),
            stm_put_drops: self.stm_put_drops.load(Ordering::SeqCst),
            deadline_skips: self.deadline_skips.load(Ordering::SeqCst),
            chunk_mismatches: self.chunk_mismatches.load(Ordering::SeqCst),
            chunk_recomputes: self.chunk_recomputes.load(Ordering::SeqCst),
            regime_clamps: self.regime_clamps.load(Ordering::SeqCst),
            mark_drops: self.mark_drops.load(Ordering::SeqCst),
            load_sheds: self.load_sheds.load(Ordering::SeqCst),
        }
    }

    /// The retained fault log (up to the first `FAULT_LOG_CAP` faults).
    #[must_use]
    pub fn faults(&self) -> Vec<RuntimeError> {
        self.log.lock().clone()
    }
}

/// Counter snapshot of a [`RuntimeHealth`] ledger.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct HealthReport {
    /// Frames dropped on unexpected STM get errors.
    pub stm_get_drops: u64,
    /// Frames dropped because a late put was rejected.
    pub stm_put_drops: u64,
    /// Frames skipped by the deadline watchdog.
    pub deadline_skips: u64,
    /// Frames dropped on schedule/decomposition chunk-count disagreement.
    pub chunk_mismatches: u64,
    /// Data-parallel chunks recomputed inline after a lost pool reply.
    pub chunk_recomputes: u64,
    /// Observations clamped to the nearest known regime.
    pub regime_clamps: u64,
    /// Measurement marks dropped for out-of-window timestamps.
    pub mark_drops: u64,
    /// Frames deliberately skip-committed by the shed policy (BestEffort
    /// degradation under fleet pressure). Not part of the drop ladder.
    pub load_sheds: u64,
}

impl HealthReport {
    /// Total frame-stage drop events (a frame dropped at stage `k` also
    /// cascades one deadline skip per downstream stage).
    #[must_use]
    pub fn total_drops(&self) -> u64 {
        self.stm_get_drops + self.stm_put_drops + self.deadline_skips + self.chunk_mismatches
    }

    /// True when nothing was dropped, recomputed, or clamped.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        *self == HealthReport::default()
    }
}

impl fmt::Display for HealthReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "get-drops={} put-drops={} deadline-skips={} chunk-mismatches={} chunk-recomputes={} regime-clamps={} mark-drops={} load-sheds={}",
            self.stm_get_drops,
            self.stm_put_drops,
            self.deadline_skips,
            self.chunk_mismatches,
            self.chunk_recomputes,
            self.regime_clamps,
            self.mark_drops,
            self.load_sheds
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm::MissReason;

    #[test]
    fn record_routes_to_the_right_counter() {
        let h = RuntimeHealth::default();
        h.record(RuntimeError::StmGet {
            stage: Stage::Histogram,
            ts: 3,
            err: GetError::Unsatisfiable(MissReason::AlreadyConsumed),
        });
        h.record(RuntimeError::DeadlineExceeded {
            stage: Stage::Detect,
            ts: 4,
        });
        h.record(RuntimeError::StmPut {
            stage: Stage::Change,
            ts: 5,
            err: PutError::BelowFrontier(stm::Timestamp(5)),
        });
        let r = h.report();
        assert_eq!(r.stm_get_drops, 1);
        assert_eq!(r.deadline_skips, 1);
        assert_eq!(r.stm_put_drops, 1);
        assert_eq!(r.total_drops(), 3);
        assert!(!r.is_clean());
        assert_eq!(h.faults().len(), 3);
    }

    #[test]
    fn clean_report_is_clean() {
        let h = RuntimeHealth::default();
        assert!(h.report().is_clean());
        h.record_chunk_recompute();
        assert!(!h.report().is_clean());
        assert_eq!(h.report().total_drops(), 0, "recompute is not a drop");
    }

    #[test]
    fn log_is_capped() {
        let h = RuntimeHealth::default();
        for ts in 0..(FAULT_LOG_CAP as u64 + 50) {
            h.record(RuntimeError::DeadlineExceeded {
                stage: Stage::Peak,
                ts,
            });
        }
        assert_eq!(h.faults().len(), FAULT_LOG_CAP);
        assert_eq!(h.report().deadline_skips, FAULT_LOG_CAP as u64 + 50);
    }

    #[test]
    fn errors_display() {
        let e = RuntimeError::StmGet {
            stage: Stage::Histogram,
            ts: 7,
            err: GetError::Timeout,
        };
        assert!(e.to_string().contains("Histogram"));
        assert!(e.to_string().contains('7'));
        let r = HealthReport::default();
        assert!(r.to_string().contains("deadline-skips=0"));
    }

    #[test]
    fn stage_indices_cover_graph_order() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index() as usize, i);
        }
        let names = Stage::names();
        assert_eq!(names.len(), 6);
        assert_eq!(names[0], "Digitizer");
        assert_eq!(names[5], "DECface Update");
    }

    #[test]
    fn mark_drops_surface_in_the_report() {
        let h = RuntimeHealth::default();
        assert!(h.report().is_clean());
        h.record_mark_drop();
        let r = h.report();
        assert_eq!(r.mark_drops, 1);
        assert!(!r.is_clean(), "a dropped mark is not a clean run");
        assert_eq!(r.total_drops(), 0, "mark drops are not frame drops");
        assert!(r.to_string().contains("mark-drops=1"));
    }

    #[test]
    fn load_sheds_surface_in_the_report() {
        let h = RuntimeHealth::default();
        h.record_load_shed();
        let r = h.report();
        assert_eq!(r.load_sheds, 1);
        assert_eq!(r.total_drops(), 0, "a shed is policy, not a drop");
        assert!(!r.is_clean(), "the shed tenant's own ledger shows it");
        assert!(r.to_string().contains("load-sheds=1"));
    }

    #[test]
    fn downstream_depths() {
        assert_eq!(Stage::Histogram.downstream_depth(), 3);
        assert_eq!(Stage::Detect.downstream_depth(), 2);
        assert_eq!(Stage::Peak.downstream_depth(), 1);
        assert_eq!(Stage::Face.downstream_depth(), 0);
    }
}
