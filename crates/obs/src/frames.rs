//! Frame-lifecycle reconstruction: turn a flat [`SpanDump`] back into
//! per-frame journeys (digitize → stage work → commit/skip) plus aggregate
//! latency/throughput/uniformity statistics.
//!
//! This is the live-run mirror of the simulator's `FrameRecord` bookkeeping
//! in `cluster::trace`, reconstructed after the fact so the hot path only
//! ever appends spans.

use crate::hist::LogHist;
use crate::span::{SpanDump, SpanKind};
use std::collections::BTreeMap;

/// How a frame's journey ended, as far as the spans show.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrameOutcome {
    /// The sink committed it (a [`SpanKind::Commit`] instant exists).
    Committed,
    /// Some stage skipped it and no commit followed.
    Skipped,
    /// Neither committed nor skipped — still in flight at drain time, or
    /// its terminal span was evicted from a ring.
    Incomplete,
}

/// One frame's reconstructed journey through the pipeline.
#[derive(Clone, Debug)]
pub struct FrameLife {
    /// Frame timestamp (the pipeline's logical frame id).
    pub frame: u64,
    /// When digitizing finished (ns since the recorder epoch), if seen.
    pub digitize_ns: Option<u64>,
    /// When the sink committed it, if it did.
    pub commit_ns: Option<u64>,
    /// Terminal outcome.
    pub outcome: FrameOutcome,
    /// Per-stage busy time: sum of compute + pool-chunk span durations.
    pub stage_busy_ns: Vec<u64>,
    /// Per-stage wall time: last span end minus first span start, which is
    /// what a pipelined schedule's per-stage cost predicts.
    pub stage_wall_ns: Vec<u64>,
    /// The `(FP, MP)` decomposition the splitter used, if recorded.
    pub decomp: Option<(u16, u16)>,
    /// Stage index of the first skip, if any.
    pub skipped_at: Option<u8>,
}

impl FrameLife {
    /// End-to-end latency (commit − digitize), when both ends were seen.
    #[must_use]
    pub fn latency_ns(&self) -> Option<u64> {
        match (self.digitize_ns, self.commit_ns) {
            (Some(d), Some(c)) => Some(c.saturating_sub(d)),
            _ => None,
        }
    }
}

/// Rebuild per-frame lifecycles from a drained dump, sorted by frame.
///
/// [`SpanKind::Switch`] spans carry observation ordinals rather than frame
/// timestamps, so they are excluded from frame grouping.
#[must_use]
pub fn reconstruct(dump: &SpanDump) -> Vec<FrameLife> {
    let n_stages = dump.stage_names.len().max(
        dump.spans
            .iter()
            .map(|s| s.stage as usize + 1)
            .max()
            .unwrap_or(0),
    );
    let mut by_frame: BTreeMap<u64, FrameLife> = BTreeMap::new();
    // Track span extents per (frame, stage) for wall-time reconstruction.
    let mut extents: BTreeMap<(u64, u8), (u64, u64)> = BTreeMap::new();

    for s in &dump.spans {
        if s.kind == SpanKind::Switch {
            continue;
        }
        let life = by_frame.entry(s.frame).or_insert_with(|| FrameLife {
            frame: s.frame,
            digitize_ns: None,
            commit_ns: None,
            outcome: FrameOutcome::Incomplete,
            stage_busy_ns: vec![0; n_stages],
            stage_wall_ns: vec![0; n_stages],
            decomp: None,
            skipped_at: None,
        });
        match s.kind {
            SpanKind::Digitize => life.digitize_ns = Some(s.start_ns),
            SpanKind::Commit => life.commit_ns = Some(s.start_ns),
            SpanKind::Skip => {
                if life.skipped_at.is_none() {
                    life.skipped_at = Some(s.stage);
                }
            }
            SpanKind::Decomp => life.decomp = s.chunk,
            SpanKind::Compute | SpanKind::PoolChunk => {
                if let Some(busy) = life.stage_busy_ns.get_mut(s.stage as usize) {
                    *busy += s.dur_ns;
                }
                let e = extents
                    .entry((s.frame, s.stage))
                    .or_insert((s.start_ns, s.end_ns()));
                e.0 = e.0.min(s.start_ns);
                e.1 = e.1.max(s.end_ns());
            }
            SpanKind::Get | SpanKind::Put | SpanKind::Join | SpanKind::Switch => {}
        }
    }

    for ((frame, stage), (start, end)) in extents {
        if let Some(life) = by_frame.get_mut(&frame) {
            if let Some(wall) = life.stage_wall_ns.get_mut(stage as usize) {
                *wall = end.saturating_sub(start);
            }
        }
    }

    let mut frames: Vec<FrameLife> = by_frame.into_values().collect();
    for life in &mut frames {
        life.outcome = if life.commit_ns.is_some() {
            FrameOutcome::Committed
        } else if life.skipped_at.is_some() {
            FrameOutcome::Skipped
        } else {
            FrameOutcome::Incomplete
        };
    }
    frames
}

/// Aggregate statistics over a set of reconstructed frames.
#[derive(Debug)]
pub struct LifecycleStats {
    /// Frames with any span at all.
    pub frames_total: u64,
    /// Frames that committed.
    pub committed: u64,
    /// Frames the degradation ladder skipped.
    pub skipped: u64,
    /// Frames with neither terminal event.
    pub incomplete: u64,
    /// End-to-end latency histogram (ns) over committed frames.
    pub latency: LogHist,
    /// Committed frames per second over the observed commit window.
    pub throughput_hz: f64,
    /// Coefficient of variation of inter-commit gaps — the paper's
    /// "temporal uniformity" metric (0 = perfectly periodic output).
    pub uniformity_cov: f64,
}

impl LifecycleStats {
    /// Compute stats over `frames` (typically the output of
    /// [`reconstruct`], optionally filtered to one regime).
    #[must_use]
    pub fn from_frames(frames: &[FrameLife]) -> LifecycleStats {
        let latency = LogHist::new();
        let mut commits: Vec<u64> = Vec::new();
        let mut committed = 0u64;
        let mut skipped = 0u64;
        let mut incomplete = 0u64;
        for f in frames {
            match f.outcome {
                FrameOutcome::Committed => committed += 1,
                FrameOutcome::Skipped => skipped += 1,
                FrameOutcome::Incomplete => incomplete += 1,
            }
            if let Some(l) = f.latency_ns() {
                latency.record(l);
            }
            if let Some(c) = f.commit_ns {
                commits.push(c);
            }
        }
        commits.sort_unstable();
        let throughput_hz = match (commits.first(), commits.last()) {
            (Some(&first), Some(&last)) if last > first && commits.len() > 1 => {
                (commits.len() - 1) as f64 / ((last - first) as f64 / 1e9)
            }
            _ => 0.0,
        };
        let uniformity_cov = if commits.len() > 2 {
            let gaps: Vec<f64> = commits.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            if mean > 0.0 {
                let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
                var.sqrt() / mean
            } else {
                0.0
            }
        } else {
            0.0
        };
        LifecycleStats {
            frames_total: frames.len() as u64,
            committed,
            skipped,
            incomplete,
            latency,
            throughput_hz,
            uniformity_cov,
        }
    }
}

impl std::fmt::Display for LifecycleStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "frames={} committed={} skipped={} incomplete={}",
            self.frames_total, self.committed, self.skipped, self.incomplete
        )?;
        writeln!(f, "latency(ns): {}", self.latency)?;
        write!(
            f,
            "throughput={:.2} Hz, uniformity CoV={:.3}",
            self.throughput_hz, self.uniformity_cov
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Recorder, Span, TraceMode};

    fn rec() -> Recorder {
        Recorder::new(
            TraceMode::Full,
            vec!["Digitizer".into(), "Histogram".into(), "Change".into()],
        )
    }

    fn push(
        r: &Recorder,
        kind: SpanKind,
        stage: u8,
        frame: u64,
        start: u64,
        dur: u64,
        chunk: Option<(u16, u16)>,
    ) {
        r.record(Span {
            kind,
            stage,
            frame,
            chunk,
            start_ns: start,
            dur_ns: dur,
            tid: 0,
        });
    }

    #[test]
    fn committed_frame_reconstructs_latency_and_stage_times() {
        let r = rec();
        push(&r, SpanKind::Digitize, 0, 33, 100, 0, None);
        push(&r, SpanKind::Compute, 1, 33, 150, 40, None);
        // Two pool chunks on stage 2, overlapping in wall time.
        push(&r, SpanKind::PoolChunk, 2, 33, 200, 50, Some((0, 2)));
        push(&r, SpanKind::PoolChunk, 2, 33, 210, 60, Some((1, 2)));
        push(&r, SpanKind::Decomp, 2, 33, 195, 0, Some((2, 1)));
        push(&r, SpanKind::Commit, 2, 33, 400, 0, None);
        let frames = reconstruct(&r.drain());
        assert_eq!(frames.len(), 1);
        let f = &frames[0];
        assert_eq!(f.outcome, FrameOutcome::Committed);
        assert_eq!(f.latency_ns(), Some(300));
        assert_eq!(f.stage_busy_ns[1], 40);
        assert_eq!(f.stage_busy_ns[2], 110, "busy sums chunk durations");
        assert_eq!(f.stage_wall_ns[2], 70, "wall spans first start to last end");
        assert_eq!(f.decomp, Some((2, 1)));
    }

    #[test]
    fn skip_and_incomplete_outcomes() {
        let r = rec();
        push(&r, SpanKind::Digitize, 0, 1, 0, 0, None);
        push(&r, SpanKind::Skip, 2, 1, 10, 0, None);
        push(&r, SpanKind::Digitize, 0, 2, 20, 0, None);
        let frames = reconstruct(&r.drain());
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].outcome, FrameOutcome::Skipped);
        assert_eq!(frames[0].skipped_at, Some(2));
        assert!(frames[0].latency_ns().is_none());
        assert_eq!(frames[1].outcome, FrameOutcome::Incomplete);
    }

    #[test]
    fn switch_spans_do_not_create_phantom_frames() {
        let r = rec();
        push(&r, SpanKind::Switch, 0, 999_999, 5, 0, None);
        assert!(reconstruct(&r.drain()).is_empty());
    }

    #[test]
    fn stats_over_periodic_commits() {
        let r = rec();
        for f in 0..5u64 {
            push(&r, SpanKind::Digitize, 0, f, f * 1_000_000_000, 0, None);
            push(&r, SpanKind::Commit, 2, f, f * 1_000_000_000 + 50, 0, None);
        }
        let stats = LifecycleStats::from_frames(&reconstruct(&r.drain()));
        assert_eq!(stats.committed, 5);
        assert_eq!(stats.latency.count(), 5);
        assert!(
            (stats.throughput_hz - 1.0).abs() < 1e-6,
            "{}",
            stats.throughput_hz
        );
        assert!(stats.uniformity_cov < 1e-9, "perfectly periodic");
    }

    #[test]
    fn stats_on_empty_and_single_frame() {
        let empty = LifecycleStats::from_frames(&[]);
        assert_eq!(empty.frames_total, 0);
        assert_eq!(empty.throughput_hz, 0.0);
        assert_eq!(empty.uniformity_cov, 0.0);

        let r = rec();
        push(&r, SpanKind::Digitize, 0, 0, 0, 0, None);
        push(&r, SpanKind::Commit, 2, 0, 100, 0, None);
        let one = LifecycleStats::from_frames(&reconstruct(&r.drain()));
        assert_eq!(one.committed, 1);
        assert_eq!(one.throughput_hz, 0.0, "one commit has no rate window");
    }
}
