//! Schedule-conformance checking: join *measured* per-frame behaviour
//! against the *predicted* behaviour of the precomputed schedule table.
//!
//! The paper's central claim is that a table of per-regime schedules,
//! computed offline from a cost model, stays valid online. This module
//! tests that claim on a live run, flagging three failure classes:
//!
//! 1. **Cost drift** — a stage whose measured wall time deviates from its
//!    predicted cost beyond tolerance, *after* a global calibration factor
//!    maps abstract cost-model micros onto wall nanoseconds (the model is
//!    unitless; only relative deviations are meaningful).
//! 2. **Regime misclassification** — frames whose recorded `(FP, MP)`
//!    decomposition differs from the table's choice for the regime their
//!    observed target count assigns them to.
//! 3. **Channel-occupancy violations** — `ChannelStats::peak_live`
//!    exceeding the channel's capacity (hard failure) or the schedule's
//!    overlapping-iteration bound (the "fixed schedule bounds occupancy"
//!    claim; a warning).

use crate::frames::{FrameLife, FrameOutcome};
use crate::hist::LogHist;

/// The predictions of one regime's precomputed schedule, extracted from
/// the `ScheduleTable` (see `cds-core`'s `stage_predictions`).
#[derive(Clone, Debug)]
pub struct RegimeSpec {
    /// The regime's state (target count) as stored in the table.
    pub regime: u32,
    /// Predicted end-to-end latency L* in cost-model micros.
    pub predicted_latency_us: u64,
    /// Predicted initiation interval in cost-model micros.
    pub ii_us: u64,
    /// Schedule occupancy bound: max concurrently-live iterations.
    pub occupancy_bound: u32,
    /// The `(FP, MP)` decomposition this regime's schedule uses.
    pub decomp: (u16, u16),
    /// Per-stage predicted wall cost: `(stage index, micros)`.
    pub stage_costs_us: Vec<(u8, u64)>,
}

/// One channel's observed occupancy next to its bounds.
#[derive(Clone, Debug)]
pub struct ChannelCheck {
    /// Channel name (e.g. "Motion Mask").
    pub name: String,
    /// Configured capacity (items).
    pub capacity: u32,
    /// `ChannelStats::peak_live` at the end of the run.
    pub peak_live: u32,
    /// The schedule's occupancy bound for this channel (overlapping
    /// iterations of the active regime, typically).
    pub schedule_bound: u32,
}

/// Per-stage conformance within one regime.
#[derive(Clone, Debug)]
pub struct StageRow {
    /// Stage index.
    pub stage: u8,
    /// Predicted wall cost in cost-model micros.
    pub predicted_us: u64,
    /// Mean measured wall time in nanoseconds.
    pub measured_wall_ns_mean: f64,
    /// `measured / (predicted × calibration)`; 1.0 = perfectly on-model.
    pub ratio: f64,
    /// Whether `ratio` deviates from 1.0 beyond the tolerance, in either
    /// direction (see [`ratio_drifts`]).
    pub drift: bool,
}

/// The symmetric drift predicate: `ratio` drifts when it exceeds
/// `1 + tolerance` (slow-down) **or** falls below `1 / (1 + tolerance)`
/// (speed-up). The multiplicative symmetry makes an N× speed-up exactly as
/// visible as an N× slow-down at any tolerance — the old additive rule
/// `|ratio − 1| > tolerance` could never flag a speed-up once
/// `tolerance ≥ 1`, leaving faster-than-modeled stages invisible.
#[must_use]
pub fn ratio_drifts(ratio: f64, tolerance: f64) -> bool {
    ratio > 1.0 + tolerance || ratio < 1.0 / (1.0 + tolerance)
}

/// Conformance summary for one regime.
#[derive(Clone, Debug)]
pub struct RegimeRow {
    /// The regime's state (target count).
    pub regime: u32,
    /// Frames assigned to this regime (0 = regime never observed).
    pub frames: u64,
    /// Of those, frames that committed.
    pub committed: u64,
    /// Predicted latency L* in cost-model micros.
    pub predicted_latency_us: u64,
    /// Mean measured end-to-end latency in nanoseconds.
    pub measured_latency_ns_mean: f64,
    /// Frames whose recorded decomposition differs from the table's.
    pub misclassified: u64,
    /// Per-stage rows (only stages with both a prediction and data).
    pub stages: Vec<StageRow>,
}

/// Channel-occupancy verdict.
#[derive(Clone, Debug)]
pub struct ChannelRow {
    /// Channel name.
    pub name: String,
    /// Configured capacity.
    pub capacity: u32,
    /// Observed peak occupancy.
    pub peak_live: u32,
    /// Schedule bound.
    pub schedule_bound: u32,
    /// Peak exceeded capacity (hard violation).
    pub over_capacity: bool,
    /// Peak exceeded the schedule's bound (model warning).
    pub over_bound: bool,
}

/// The full conformance report; render with `Display` or inspect fields.
#[derive(Clone, Debug)]
pub struct ConformanceReport {
    /// Global calibration factor: wall nanoseconds per cost-model micro,
    /// the median over all (regime, stage) measured/predicted ratios.
    /// 0.0 when no stage had both data and a prediction.
    pub calibration_ns_per_us: f64,
    /// Per-regime rows, in table order.
    pub regimes: Vec<RegimeRow>,
    /// Per-channel occupancy rows.
    pub channels: Vec<ChannelRow>,
    /// Human-readable flags, one per detected violation. Empty = conformant.
    pub flags: Vec<String>,
    /// Stage index → display name, for rendering.
    pub stage_names: Vec<String>,
}

impl ConformanceReport {
    /// Whether the run conformed to the schedule (no flags raised).
    #[must_use]
    pub fn conformant(&self) -> bool {
        self.flags.is_empty()
    }
}

/// Assign a frame's observed target count to a regime exactly the way the
/// live `RegimeController` does: the largest spec at or below the count,
/// clamping to the smallest spec when the count undershoots every regime.
fn assign_regime(count: u32, regimes: &[RegimeSpec]) -> Option<usize> {
    let mut best: Option<usize> = None;
    let mut smallest: Option<usize> = None;
    for (i, spec) in regimes.iter().enumerate() {
        if smallest.is_none_or(|s: usize| spec.regime < regimes[s].regime) {
            smallest = Some(i);
        }
        if spec.regime <= count && best.is_none_or(|b: usize| spec.regime > regimes[b].regime) {
            best = Some(i);
        }
    }
    best.or(smallest)
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    v[v.len() / 2]
}

/// Run the conformance check.
///
/// * `frames` — reconstructed lifecycles (see [`crate::frames::reconstruct`]).
/// * `frame_count` — the observed target count for a frame timestamp,
///   which determines its regime (mirror of what the sink fed the
///   controller; typically derived from the scene or the location log).
/// * `regimes` — the table's predictions, one per precomputed state.
/// * `channels` — end-of-run channel occupancy snapshots.
/// * `tolerance` — allowed relative deviation of a stage's calibrated
///   cost ratio from 1.0 before it is flagged as drift, applied
///   symmetrically (0.5 flags ratios above 1.5 or below 1/1.5 ≈ 0.67;
///   see [`ratio_drifts`]).
#[must_use]
pub fn check(
    frames: &[FrameLife],
    frame_count: &dyn Fn(u64) -> u32,
    regimes: &[RegimeSpec],
    channels: &[ChannelCheck],
    tolerance: f64,
    stage_names: &[String],
) -> ConformanceReport {
    let mut flags = Vec::new();

    // Bucket frames by assigned regime.
    let mut buckets: Vec<Vec<&FrameLife>> = vec![Vec::new(); regimes.len()];
    for f in frames {
        if let Some(i) = assign_regime(frame_count(f.frame), regimes) {
            buckets[i].push(f);
        }
    }

    // First pass: per-(regime, stage) measured means, to calibrate the
    // unitless cost model against wall time.
    let mut ratios = Vec::new();
    let mut stage_means: Vec<Vec<(u8, u64, f64)>> = Vec::with_capacity(regimes.len());
    for (spec, bucket) in regimes.iter().zip(&buckets) {
        let mut rows = Vec::new();
        for &(stage, predicted_us) in &spec.stage_costs_us {
            let samples: Vec<u64> = bucket
                .iter()
                .filter(|f| f.outcome == FrameOutcome::Committed)
                .filter_map(|f| f.stage_wall_ns.get(stage as usize).copied())
                .filter(|&w| w > 0)
                .collect();
            if samples.is_empty() || predicted_us == 0 {
                continue;
            }
            let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
            rows.push((stage, predicted_us, mean));
            ratios.push(mean / predicted_us as f64);
        }
        stage_means.push(rows);
    }
    let calibration = median(ratios);

    // Second pass: build rows and raise flags.
    let mut regime_rows = Vec::with_capacity(regimes.len());
    for ((spec, bucket), rows) in regimes.iter().zip(&buckets).zip(stage_means) {
        let latency = LogHist::new();
        let mut committed = 0u64;
        let mut misclassified = 0u64;
        for f in bucket {
            if f.outcome == FrameOutcome::Committed {
                committed += 1;
            }
            if let Some(l) = f.latency_ns() {
                latency.record(l);
            }
            if let Some(d) = f.decomp {
                if d != spec.decomp {
                    misclassified += 1;
                }
            }
        }
        if misclassified > 0 {
            flags.push(format!(
                "regime {}: {misclassified} frame(s) ran decomposition other than FP={} MP={} (misclassification or switch lag)",
                spec.regime, spec.decomp.0, spec.decomp.1
            ));
        }
        let mut stage_rows = Vec::with_capacity(rows.len());
        for (stage, predicted_us, mean) in rows {
            let ratio = if calibration > 0.0 {
                mean / (predicted_us as f64 * calibration)
            } else {
                0.0
            };
            let drift = calibration > 0.0 && ratio_drifts(ratio, tolerance);
            if drift {
                let name = stage_names
                    .get(stage as usize)
                    .map_or("stage?", String::as_str);
                flags.push(format!(
                    "regime {}: stage {name} cost drift — measured {:.0} ns vs calibrated prediction {:.0} ns (ratio {ratio:.2})",
                    spec.regime,
                    mean,
                    predicted_us as f64 * calibration
                ));
            }
            stage_rows.push(StageRow {
                stage,
                predicted_us,
                measured_wall_ns_mean: mean,
                ratio,
                drift,
            });
        }
        regime_rows.push(RegimeRow {
            regime: spec.regime,
            frames: bucket.len() as u64,
            committed,
            predicted_latency_us: spec.predicted_latency_us,
            measured_latency_ns_mean: latency.mean(),
            misclassified,
            stages: stage_rows,
        });
    }

    let mut channel_rows = Vec::with_capacity(channels.len());
    for c in channels {
        let over_capacity = c.peak_live > c.capacity;
        let over_bound = c.peak_live > c.schedule_bound;
        if over_capacity {
            flags.push(format!(
                "channel {}: peak occupancy {} exceeded capacity {}",
                c.name, c.peak_live, c.capacity
            ));
        } else if over_bound {
            flags.push(format!(
                "channel {}: peak occupancy {} exceeded schedule bound {} (capacity {})",
                c.name, c.peak_live, c.schedule_bound, c.capacity
            ));
        }
        channel_rows.push(ChannelRow {
            name: c.name.clone(),
            capacity: c.capacity,
            peak_live: c.peak_live,
            schedule_bound: c.schedule_bound,
            over_capacity,
            over_bound,
        });
    }

    ConformanceReport {
        calibration_ns_per_us: calibration,
        regimes: regime_rows,
        channels: channel_rows,
        flags,
        stage_names: stage_names.to_vec(),
    }
}

impl std::fmt::Display for ConformanceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "schedule conformance")?;
        writeln!(
            f,
            "  calibration: {:.1} ns of wall time per cost-model unit",
            self.calibration_ns_per_us
        )?;
        writeln!(
            f,
            "  {:>7} {:>7} {:>9} {:>14} {:>14} {:>8}",
            "regime", "frames", "committed", "predicted L*", "measured", "misclass"
        )?;
        for r in &self.regimes {
            let measured = if r.measured_latency_ns_mean > 0.0 {
                format!("{:.2} ms", r.measured_latency_ns_mean / 1e6)
            } else {
                "-".to_string()
            };
            writeln!(
                f,
                "  {:>7} {:>7} {:>9} {:>11} us {:>14} {:>8}",
                r.regime, r.frames, r.committed, r.predicted_latency_us, measured, r.misclassified
            )?;
            for s in &r.stages {
                let name = self
                    .stage_names
                    .get(s.stage as usize)
                    .map_or("stage?", String::as_str);
                writeln!(
                    f,
                    "      {:<18} predicted {:>6} us, measured {:>10.0} ns, ratio {:>5.2}{}",
                    name,
                    s.predicted_us,
                    s.measured_wall_ns_mean,
                    s.ratio,
                    if s.drift { "  DRIFT" } else { "" }
                )?;
            }
        }
        if !self.channels.is_empty() {
            writeln!(
                f,
                "  {:<20} {:>8} {:>10} {:>6}",
                "channel", "capacity", "peak-live", "bound"
            )?;
            for c in &self.channels {
                writeln!(
                    f,
                    "  {:<20} {:>8} {:>10} {:>6}{}",
                    c.name,
                    c.capacity,
                    c.peak_live,
                    c.schedule_bound,
                    if c.over_capacity {
                        "  VIOLATION"
                    } else if c.over_bound {
                        "  OVER-BOUND"
                    } else {
                        ""
                    }
                )?;
            }
        }
        if self.flags.is_empty() {
            write!(f, "  conformant: yes")
        } else {
            writeln!(f, "  flags:")?;
            for (i, flag) in self.flags.iter().enumerate() {
                if i > 0 {
                    writeln!(f)?;
                }
                write!(f, "    - {flag}")?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn life(
        frame: u64,
        latency: u64,
        stage_wall: &[(usize, u64)],
        decomp: Option<(u16, u16)>,
    ) -> FrameLife {
        let mut wall = vec![0u64; 6];
        for &(s, w) in stage_wall {
            wall[s] = w;
        }
        FrameLife {
            frame,
            digitize_ns: Some(frame * 1_000_000),
            commit_ns: Some(frame * 1_000_000 + latency),
            outcome: FrameOutcome::Committed,
            stage_busy_ns: wall.clone(),
            stage_wall_ns: wall,
            decomp,
            skipped_at: None,
        }
    }

    fn spec(regime: u32, decomp: (u16, u16)) -> RegimeSpec {
        RegimeSpec {
            regime,
            predicted_latency_us: 1_000,
            ii_us: 500,
            occupancy_bound: 2,
            decomp,
            stage_costs_us: vec![(1, 100), (3, 300)],
        }
    }

    #[test]
    fn on_model_run_is_conformant() {
        // Measured walls are exactly 1000 ns per predicted unit everywhere.
        let frames: Vec<FrameLife> = (0..10)
            .map(|f| life(f, 1_000_000, &[(1, 100_000), (3, 300_000)], Some((2, 1))))
            .collect();
        let report = check(
            &frames,
            &|_| 1,
            &[spec(1, (2, 1))],
            &[ChannelCheck {
                name: "Frame".into(),
                capacity: 4,
                peak_live: 2,
                schedule_bound: 2,
            }],
            0.25,
            &[
                "D".into(),
                "H".into(),
                "C".into(),
                "T".into(),
                "P".into(),
                "F".into(),
            ],
        );
        assert!(report.conformant(), "{:?}", report.flags);
        assert!((report.calibration_ns_per_us - 1_000.0).abs() < 1e-6);
        assert_eq!(report.regimes[0].frames, 10);
        assert!(report.regimes[0]
            .stages
            .iter()
            .all(|s| (s.ratio - 1.0).abs() < 1e-9));
    }

    #[test]
    fn cost_drift_is_flagged_per_stage() {
        // Stages 1 and 2 are on-model (1000 ns/unit); stage 3 runs 3x over,
        // so the median calibration isolates it as the drifter.
        let frames: Vec<FrameLife> = (0..10)
            .map(|f| {
                life(
                    f,
                    1_000_000,
                    &[(1, 100_000), (2, 200_000), (3, 900_000)],
                    Some((2, 1)),
                )
            })
            .collect();
        let mut sp = spec(1, (2, 1));
        sp.stage_costs_us = vec![(1, 100), (2, 200), (3, 300)];
        let report = check(
            &frames,
            &|_| 1,
            &[sp],
            &[],
            0.5,
            &[
                "D".into(),
                "H".into(),
                "C".into(),
                "T".into(),
                "P".into(),
                "F".into(),
            ],
        );
        assert!(!report.conformant());
        let drifted: Vec<u8> = report.regimes[0]
            .stages
            .iter()
            .filter(|s| s.drift)
            .map(|s| s.stage)
            .collect();
        assert!(drifted.contains(&3), "stage 3 must drift: {report}");
    }

    #[test]
    fn misclassified_decomp_is_flagged() {
        let frames: Vec<FrameLife> = (0..4)
            .map(|f| life(f, 1_000_000, &[(1, 100_000)], Some((1, 3))))
            .collect();
        let report = check(&frames, &|_| 1, &[spec(1, (2, 1))], &[], 0.5, &[]);
        assert_eq!(report.regimes[0].misclassified, 4);
        assert!(!report.conformant());
    }

    #[test]
    fn occupancy_violations_and_bounds() {
        let channels = [
            ChannelCheck {
                name: "ok".into(),
                capacity: 4,
                peak_live: 2,
                schedule_bound: 3,
            },
            ChannelCheck {
                name: "overbound".into(),
                capacity: 8,
                peak_live: 5,
                schedule_bound: 3,
            },
            ChannelCheck {
                name: "overcap".into(),
                capacity: 4,
                peak_live: 5,
                schedule_bound: 3,
            },
        ];
        let report = check(&[], &|_| 1, &[], &channels, 0.5, &[]);
        assert!(!report.channels[0].over_bound && !report.channels[0].over_capacity);
        assert!(report.channels[1].over_bound && !report.channels[1].over_capacity);
        assert!(report.channels[2].over_capacity);
        assert_eq!(report.flags.len(), 2);
    }

    #[test]
    fn regime_with_no_frames_renders_without_flags() {
        // Frames all observe count 1; the count-3 regime stays empty.
        let frames: Vec<FrameLife> = (0..5)
            .map(|f| life(f, 1_000_000, &[(1, 100_000)], Some((2, 1))))
            .collect();
        let report = check(
            &frames,
            &|_| 1,
            &[spec(1, (2, 1)), spec(3, (1, 3))],
            &[],
            0.5,
            &[
                "D".into(),
                "H".into(),
                "C".into(),
                "T".into(),
                "P".into(),
                "F".into(),
            ],
        );
        assert!(report.conformant(), "{:?}", report.flags);
        let empty = &report.regimes[1];
        assert_eq!(empty.frames, 0);
        assert_eq!(empty.committed, 0);
        assert_eq!(empty.measured_latency_ns_mean, 0.0);
        assert!(
            empty.stages.is_empty(),
            "no data rows for an unobserved regime"
        );
        // Display renders without panicking and shows the empty row.
        let text = report.to_string();
        assert!(text.contains('3'), "{text}");
    }

    #[test]
    fn speedups_drift_symmetrically_even_at_large_tolerance() {
        // Regression for the PR 6 caveat: with the additive rule
        // `|ratio − 1| > tolerance`, a speed-up could never fire once
        // tolerance ≥ 1 (ratios are bounded below by 0). Stage 3 runs 4×
        // *faster* than calibrated; at tolerance 1.0 the symmetric rule
        // flags it (0.25 < 1/2) while on-model stages stay quiet.
        let frames: Vec<FrameLife> = (0..10)
            .map(|f| {
                life(
                    f,
                    1_000_000,
                    &[(1, 100_000), (2, 200_000), (3, 100_000)],
                    Some((2, 1)),
                )
            })
            .collect();
        let mut sp = spec(1, (2, 1));
        // Stage 3's ratio is 0.25: 4× faster than the model.
        sp.stage_costs_us = vec![(1, 100), (2, 200), (3, 400)];
        let report = check(&frames, &|_| 1, &[sp], &[], 1.0, &[]);
        let cal = report.calibration_ns_per_us;
        assert!((cal - 1_000.0).abs() < 1e-6, "median calibration: {cal}");
        let rows = &report.regimes[0].stages;
        assert!(!rows[0].drift && !rows[1].drift);
        assert!((rows[2].ratio - 0.25).abs() < 1e-9);
        assert!(rows[2].drift, "4× speed-up invisible at tolerance 1.0");
        // The predicate itself, both directions, multiplicatively symmetric.
        assert!(ratio_drifts(2.01, 1.0) && ratio_drifts(0.49, 1.0));
        assert!(!ratio_drifts(1.99, 1.0) && !ratio_drifts(0.51, 1.0));
        assert!(ratio_drifts(1.51, 0.5) && ratio_drifts(1.0 / 1.51, 0.5));
        assert!(!ratio_drifts(1.49, 0.5) && !ratio_drifts(1.0 / 1.49, 0.5));
    }

    #[test]
    fn regime_assignment_clamps_like_the_controller() {
        let specs = [spec(2, (2, 1)), spec(5, (1, 3))];
        assert_eq!(
            assign_regime(0, &specs),
            Some(0),
            "undershoot clamps to smallest"
        );
        assert_eq!(assign_regime(2, &specs), Some(0));
        assert_eq!(assign_regime(4, &specs), Some(0), "nearest at-or-below");
        assert_eq!(assign_regime(5, &specs), Some(1));
        assert_eq!(assign_regime(99, &specs), Some(1));
        assert_eq!(assign_regime(1, &[]), None);
    }
}
