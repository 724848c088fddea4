//! Wall-clock measurement of runtime executions: per-frame digitize,
//! per-stage, and completion instants, reduced to the paper's metrics
//! (latency, throughput, uniformity).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::error::RuntimeHealth;

/// Shared per-run measurement store. The digitizer and the sink task write
/// into it (optionally every stage, via [`mark_stage`](Measurements::mark_stage));
/// `stats` reduces at the end.
///
/// The mark vectors start empty and grow to the highest timestamp marked,
/// never past the frame budget given to [`new`](Measurements::new): building
/// a store costs nothing per budgeted frame, and a run that stops early
/// never pays for the frames it did not reach. (Reserving the budget with
/// `Vec::with_capacity` instead would spare the dozen doubling
/// reallocations a 4,096-frame run makes under the mark lock, but costs
/// 9-12 % of a four-tenant fleet's set-up time: measured, see
/// EXPERIMENTS.md "PR 12".) A mark for a timestamp
/// outside the budget is *counted* (never silently lost, never a panic):
/// see [`mark_drops`](Measurements::mark_drops) and, when a health ledger
/// is attached, `HealthReport::mark_drops`.
#[derive(Debug, Default)]
pub struct Measurements {
    /// The frame budget: marks land for `ts < limit` only.
    limit: usize,
    digitized: Mutex<Vec<Option<Instant>>>,
    completed: Mutex<Vec<Option<Instant>>>,
    /// Per-stage completion instants: `stage_marks[stage][ts]`.
    stage_marks: Mutex<Vec<Vec<Option<Instant>>>>,
    mark_drops: AtomicU64,
    health: Mutex<Option<Arc<RuntimeHealth>>>,
    // O(1) progress counters so a monitor thread can read backlog
    // (digitized − completed) without taking the mark locks.
    n_digitized: AtomicU64,
    n_completed: AtomicU64,
    /// Frames the digitizer skip-committed under the fleet's shed policy
    /// (BestEffort degradation): never digitized, never a latency sample.
    n_shed: AtomicU64,
}

/// The slot of frame `ts` in `marks`, grown on demand; `None` when `ts` is
/// outside the frame budget `limit`.
fn mark_slot(
    marks: &mut Vec<Option<Instant>>,
    ts: u64,
    limit: usize,
) -> Option<&mut Option<Instant>> {
    let i = usize::try_from(ts).ok().filter(|&i| i < limit)?;
    if marks.len() <= i {
        marks.resize(i + 1, None);
    }
    marks.get_mut(i)
}

impl Measurements {
    /// A store for frames `0..n_frames` (digitize/complete marks only).
    #[must_use]
    pub fn new(n_frames: usize) -> Self {
        Measurements {
            limit: n_frames,
            digitized: Mutex::new(Vec::new()),
            completed: Mutex::new(Vec::new()),
            stage_marks: Mutex::new(Vec::new()),
            mark_drops: AtomicU64::new(0),
            health: Mutex::new(None),
            n_digitized: AtomicU64::new(0),
            n_completed: AtomicU64::new(0),
            n_shed: AtomicU64::new(0),
        }
    }

    /// Also keep per-stage marks for `n_stages` stages, so
    /// [`mark_stage`](Self::mark_stage) marks land instead of being
    /// ignored.
    #[must_use]
    pub fn with_stages(self, n_stages: usize) -> Self {
        *self.stage_marks.lock() = vec![Vec::new(); n_stages];
        self
    }

    /// Route out-of-window drop counts into the run's shared health ledger
    /// as well as the local counter.
    #[must_use]
    pub fn with_health(self, health: Arc<RuntimeHealth>) -> Self {
        *self.health.lock() = Some(health);
        self
    }

    fn on_drop(&self) {
        self.mark_drops.fetch_add(1, Ordering::SeqCst);
        if let Some(h) = self.health.lock().as_ref() {
            h.record_mark_drop();
        }
    }

    /// Marks that arrived outside the frame budget and were dropped.
    #[must_use]
    pub fn mark_drops(&self) -> u64 {
        self.mark_drops.load(Ordering::SeqCst)
    }

    /// Record that frame `ts` finished digitizing now. A timestamp beyond
    /// the frame budget is counted in [`mark_drops`](Self::mark_drops)
    /// — measurement must never panic the live path.
    pub fn mark_digitized(&self, ts: u64) {
        match mark_slot(&mut self.digitized.lock(), ts, self.limit) {
            Some(slot) => {
                *slot = Some(Instant::now());
                self.n_digitized.fetch_add(1, Ordering::Relaxed);
            }
            None => self.on_drop(),
        }
    }

    /// Record that frame `ts` finished all processing now (out-of-window
    /// timestamps are counted, as in [`mark_digitized`](Self::mark_digitized)).
    pub fn mark_completed(&self, ts: u64) {
        match mark_slot(&mut self.completed.lock(), ts, self.limit) {
            Some(slot) => {
                *slot = Some(Instant::now());
                self.n_completed.fetch_add(1, Ordering::Relaxed);
            }
            None => self.on_drop(),
        }
    }

    /// Frames digitized so far — lock-free, safe to poll from a monitor.
    #[must_use]
    pub fn digitized_count(&self) -> u64 {
        self.n_digitized.load(Ordering::Relaxed)
    }

    /// Frames completed so far — lock-free, safe to poll from a monitor.
    #[must_use]
    pub fn completed_count(&self) -> u64 {
        self.n_completed.load(Ordering::Relaxed)
    }

    /// Record that the digitizer skip-committed frame `ts` under the shed
    /// policy instead of rendering it.
    pub fn mark_shed(&self, _ts: u64) {
        self.n_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Frames shed so far — lock-free, safe to poll from a monitor.
    #[must_use]
    pub fn shed_count(&self) -> u64 {
        self.n_shed.load(Ordering::Relaxed)
    }

    /// Frames currently in flight: digitized but not yet completed. The
    /// fleet monitor uses this as a per-tenant backlog signal to decide
    /// which tenants get the urgent pool lane.
    #[must_use]
    pub fn backlog(&self) -> u64 {
        // Counters are updated independently; a completion may land between
        // the two loads, so saturate rather than underflow.
        self.digitized_count()
            .saturating_sub(self.completed_count())
    }

    /// Record that `stage` finished its work on frame `ts` now. A no-op
    /// unless [`with_stages`](Self::with_stages) enabled stage marks; once
    /// enabled, an unknown stage or out-of-window timestamp counts as a
    /// dropped mark.
    pub fn mark_stage(&self, stage: usize, ts: u64) {
        let mut marks = self.stage_marks.lock();
        if marks.is_empty() {
            return;
        }
        match marks
            .get_mut(stage)
            .and_then(|row| mark_slot(row, ts, self.limit))
        {
            Some(slot) => *slot = Some(Instant::now()),
            None => self.on_drop(),
        }
    }

    /// Digitize→stage latencies for `stage`, one per frame where both marks
    /// landed, in frame order. Empty when stage marks were not enabled.
    #[must_use]
    pub fn stage_latencies(&self, stage: usize) -> Vec<Duration> {
        let dig = self.digitized.lock();
        let marks = self.stage_marks.lock();
        let Some(row) = marks.get(stage) else {
            return Vec::new();
        };
        dig.iter()
            .zip(row.iter())
            .filter_map(|(d, m)| match (d, m) {
                (Some(d), Some(m)) => Some(m.saturating_duration_since(*d)),
                _ => None,
            })
            .collect()
    }

    /// Completed frames (after skipping `warmup` of them, in frame order)
    /// whose digitize→complete latency exceeded `deadline` — the fleet's
    /// per-tenant deadline-miss count.
    #[must_use]
    pub fn over_deadline(&self, deadline: Duration, warmup: usize) -> u64 {
        let dig = self.digitized.lock();
        let done = self.completed.lock();
        dig.iter()
            .zip(done.iter())
            .filter_map(|(d, c)| match (d, c) {
                (Some(d), Some(c)) => Some(c.duration_since(*d)),
                _ => None,
            })
            .skip(warmup)
            .filter(|lat| *lat > deadline)
            .count() as u64
    }

    /// Reduce to run statistics, skipping `warmup` completed frames.
    #[must_use]
    pub fn stats(&self, warmup: usize) -> RunStats {
        let dig = self.digitized.lock();
        let done = self.completed.lock();
        let mut latencies: Vec<Duration> = Vec::new();
        let mut completions: Vec<Instant> = Vec::new();
        for (d, c) in dig.iter().zip(done.iter()) {
            if let (Some(d), Some(c)) = (d, c) {
                latencies.push(c.duration_since(*d));
                completions.push(*c);
            }
        }
        completions.sort();
        let completed = latencies.len();
        let latencies = if latencies.len() > warmup {
            latencies.split_off(warmup)
        } else {
            Vec::new()
        };
        let completions = if completions.len() > warmup {
            completions.split_off(warmup)
        } else {
            Vec::new()
        };

        let (mean, min, max, p95, p99) = if latencies.is_empty() {
            (
                Duration::ZERO,
                Duration::ZERO,
                Duration::ZERO,
                Duration::ZERO,
                Duration::ZERO,
            )
        } else {
            let sum: Duration = latencies.iter().sum();
            let mut sorted = latencies.clone();
            sorted.sort();
            let pct =
                |p: usize| sorted[((sorted.len() * p).div_ceil(100)).clamp(1, sorted.len()) - 1];
            (
                sum / latencies.len() as u32,
                sorted.first().copied().unwrap_or_default(),
                sorted.last().copied().unwrap_or_default(),
                pct(95),
                pct(99),
            )
        };
        let gaps: Vec<f64> = completions
            .windows(2)
            .map(|w| w[1].duration_since(w[0]).as_secs_f64())
            .collect();
        let (throughput_hz, uniformity_cov) = if gaps.is_empty() {
            (0.0, 0.0)
        } else {
            let mg = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mg) * (g - mg)).sum::<f64>() / gaps.len() as f64;
            if mg > 0.0 {
                (1.0 / mg, var.sqrt() / mg)
            } else {
                (0.0, 0.0)
            }
        };
        RunStats {
            frames_completed: completed as u64,
            mean_latency: mean,
            min_latency: min,
            max_latency: max,
            p95_latency: p95,
            p99_latency: p99,
            throughput_hz,
            uniformity_cov,
        }
    }
}

/// Reduced wall-clock statistics of one run.
#[derive(Clone, Copy, Debug)]
pub struct RunStats {
    /// Frames that completed end to end.
    pub frames_completed: u64,
    /// Mean digitize→complete latency (after warmup).
    pub mean_latency: Duration,
    /// Minimum latency.
    pub min_latency: Duration,
    /// Maximum latency.
    pub max_latency: Duration,
    /// 95th-percentile latency.
    pub p95_latency: Duration,
    /// 99th-percentile latency — the fleet's deadline-miss criterion.
    pub p99_latency: Duration,
    /// Completions per second.
    pub throughput_hz: f64,
    /// Coefficient of variation of completion gaps.
    pub uniformity_cov: f64,
}

impl std::fmt::Display for RunStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "latency mean={:.1}ms min={:.1}ms p95={:.1}ms p99={:.1}ms max={:.1}ms | throughput={:.2}/s | CoV={:.3} | frames={}",
            self.mean_latency.as_secs_f64() * 1e3,
            self.min_latency.as_secs_f64() * 1e3,
            self.p95_latency.as_secs_f64() * 1e3,
            self.p99_latency.as_secs_f64() * 1e3,
            self.max_latency.as_secs_f64() * 1e3,
            self.throughput_hz,
            self.uniformity_cov,
            self.frames_completed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_on_empty_are_zero() {
        let m = Measurements::new(4);
        let s = m.stats(0);
        assert_eq!(s.frames_completed, 0);
        assert_eq!(s.mean_latency, Duration::ZERO);
        assert_eq!(s.throughput_hz, 0.0);
    }

    #[test]
    fn latency_measured_per_frame() {
        let m = Measurements::new(2);
        m.mark_digitized(0);
        std::thread::sleep(Duration::from_millis(15));
        m.mark_completed(0);
        m.mark_digitized(1);
        m.mark_completed(1);
        let s = m.stats(0);
        assert_eq!(s.frames_completed, 2);
        assert!(s.max_latency >= Duration::from_millis(15));
        assert!(s.min_latency < Duration::from_millis(5));
        assert_eq!(s.p95_latency, s.max_latency, "two samples: p95 is max");
    }

    #[test]
    fn warmup_skips_initial_frames() {
        let m = Measurements::new(3);
        for ts in 0..3 {
            m.mark_digitized(ts);
            if ts == 0 {
                std::thread::sleep(Duration::from_millis(20));
            }
            m.mark_completed(ts);
        }
        let all = m.stats(0);
        let warm = m.stats(1);
        assert!(warm.max_latency < all.max_latency);
        assert_eq!(all.frames_completed, 3);
    }

    #[test]
    fn incomplete_frames_are_ignored() {
        let m = Measurements::new(3);
        m.mark_digitized(0);
        m.mark_completed(0);
        m.mark_digitized(1); // never completes
        let s = m.stats(0);
        assert_eq!(s.frames_completed, 1);
    }

    #[test]
    fn stats_on_single_frame_have_zero_throughput() {
        // One completion: no gaps, so throughput and CoV are 0, and every
        // latency percentile equals the single sample.
        let m = Measurements::new(1);
        m.mark_digitized(0);
        m.mark_completed(0);
        let s = m.stats(0);
        assert_eq!(s.frames_completed, 1);
        assert_eq!(s.throughput_hz, 0.0);
        assert_eq!(s.uniformity_cov, 0.0);
        assert_eq!(s.p95_latency, s.mean_latency);
        assert_eq!(s.min_latency, s.max_latency);
    }

    #[test]
    fn stats_when_every_frame_skipped_are_zero() {
        // Frames digitized but never completed (all skipped downstream):
        // no latency sample may be fabricated.
        let m = Measurements::new(3);
        for ts in 0..3 {
            m.mark_digitized(ts);
        }
        let s = m.stats(0);
        assert_eq!(s.frames_completed, 0);
        assert_eq!(s.mean_latency, Duration::ZERO);
        assert_eq!(s.max_latency, Duration::ZERO);
        assert_eq!(s.throughput_hz, 0.0);
        assert_eq!(s.uniformity_cov, 0.0);
    }

    #[test]
    fn out_of_window_marks_are_counted_not_silent() {
        use crate::error::RuntimeHealth;
        use std::sync::Arc;
        let health = Arc::new(RuntimeHealth::default());
        let m = Measurements::new(2).with_health(Arc::clone(&health));
        m.mark_digitized(0);
        m.mark_digitized(7); // out of window: formerly silently ignored
        m.mark_completed(9);
        assert_eq!(m.mark_drops(), 2);
        assert_eq!(health.report().mark_drops, 2);
        assert_eq!(m.stats(0).frames_completed, 0);
    }

    #[test]
    fn marks_land_in_any_order_and_reduce_as_preallocated_storage_would() {
        use crate::error::RuntimeHealth;
        // The mark vectors grow on demand, so marks arriving out of frame
        // order (highest first, gaps, a stage mark before its digitize
        // mark) must land exactly where eager `limit`-long vectors would
        // have put them. The expected figures are counted from the sets
        // marked, not from the store.
        let limit = 64u64;
        let shuffled: Vec<u64> = (0..limit).map(|i| (i * 37 + 11) % limit).collect();
        let health = Arc::new(RuntimeHealth::default());
        let m = Measurements::new(limit as usize)
            .with_stages(2)
            .with_health(Arc::clone(&health));
        for &ts in shuffled.iter().filter(|&&ts| ts % 3 == 0) {
            m.mark_stage(1, ts);
        }
        for &ts in shuffled.iter().filter(|&&ts| ts % 5 != 0) {
            m.mark_digitized(ts);
        }
        std::thread::sleep(Duration::from_millis(2));
        for &ts in shuffled.iter().rev().filter(|&&ts| ts % 2 == 0) {
            m.mark_completed(ts);
            m.mark_stage(0, ts);
        }
        let count = |keep: &dyn Fn(u64) -> bool| (0..limit).filter(|&ts| keep(ts)).count();
        let both = count(&|ts| ts % 5 != 0 && ts % 2 == 0);
        assert_eq!(m.digitized_count() as usize, count(&|ts| ts % 5 != 0));
        assert_eq!(m.completed_count() as usize, count(&|ts| ts % 2 == 0));
        assert_eq!(m.stats(0).frames_completed as usize, both);
        assert!(m.stats(0).min_latency >= Duration::from_millis(2));
        assert_eq!(m.stage_latencies(0).len(), both);
        // Stage 1 was marked before the digitize marks: the pairs exist,
        // their latencies saturate to zero.
        let early = m.stage_latencies(1);
        assert_eq!(early.len(), count(&|ts| ts % 5 != 0 && ts % 3 == 0));
        assert!(early.iter().all(|d| *d == Duration::ZERO));
        assert_eq!(
            m.over_deadline(Duration::from_millis(1), 4) as usize,
            both - 4
        );
        assert_eq!(m.over_deadline(Duration::from_secs(3600), 0), 0);
        assert_eq!(m.mark_drops(), 0, "every mark was inside the budget");

        // The budget still bounds the store: marks at or past it are
        // counted as drops on the store and on the health ledger.
        m.mark_digitized(limit);
        m.mark_completed(limit + 7);
        m.mark_stage(1, u64::MAX);
        assert_eq!(m.mark_drops(), 3);
        assert_eq!(health.report().mark_drops, 3);
        assert_eq!(m.stats(0).frames_completed as usize, both);
    }

    #[test]
    fn stage_marks_record_per_stage_latency() {
        let m = Measurements::new(2).with_stages(3);
        m.mark_digitized(0);
        std::thread::sleep(Duration::from_millis(5));
        m.mark_stage(1, 0);
        m.mark_stage(1, 1); // frame 1 was never digitized: no sample
        m.mark_stage(9, 0); // unknown stage: counted as a drop
        m.mark_stage(1, 99); // out-of-window frame: counted as a drop
        let lat = m.stage_latencies(1);
        assert_eq!(lat.len(), 1);
        assert!(lat[0] >= Duration::from_millis(5));
        assert!(m.stage_latencies(0).is_empty());
        assert!(m.stage_latencies(9).is_empty());
        assert_eq!(m.mark_drops(), 2);
    }

    #[test]
    fn progress_counters_track_backlog() {
        let m = Measurements::new(4);
        m.mark_digitized(0);
        m.mark_digitized(1);
        m.mark_digitized(2);
        m.mark_completed(0);
        assert_eq!(m.digitized_count(), 3);
        assert_eq!(m.completed_count(), 1);
        assert_eq!(m.backlog(), 2);
        // Out-of-window marks count as drops, never as progress.
        m.mark_digitized(99);
        assert_eq!(m.digitized_count(), 3);
        assert_eq!(m.mark_drops(), 1);
    }

    #[test]
    fn p99_sits_between_p95_and_max() {
        let m = Measurements::new(200);
        for ts in 0..200 {
            m.mark_digitized(ts);
            if ts == 199 {
                std::thread::sleep(Duration::from_millis(12));
            }
            m.mark_completed(ts);
        }
        let s = m.stats(0);
        assert!(s.p95_latency <= s.p99_latency);
        assert!(s.p99_latency <= s.max_latency);
        // One slow frame in 200: it is past the 99th percentile cut, so
        // p99 must not absorb the outlier.
        assert!(s.p99_latency < Duration::from_millis(12));
    }

    #[test]
    fn display_formats() {
        let m = Measurements::new(1);
        m.mark_digitized(0);
        m.mark_completed(0);
        let s = m.stats(0).to_string();
        assert!(s.contains("latency") && s.contains("throughput"));
    }
}
