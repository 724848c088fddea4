//! The adaptation loop: drift-triggered online re-scheduling.
//!
//! PR 5's conformance checker could *tell* you, after a run, that measured
//! per-stage costs had drifted away from the schedule's predictions. This
//! module closes the loop at run time:
//!
//! 1. **Measure** — every stage body reports its compute wall time into a
//!    lock-free [`CostFeed`] (two relaxed atomic adds per frame per stage;
//!    nothing allocated, nothing locked).
//! 2. **Calibrate** — every [`AdaptConfig::window`] frames the loop drains
//!    the feed and runs [`obs::calibrate_stages`]: the median
//!    measured/predicted ratio across stages is the clock calibration, and
//!    a stage whose calibrated ratio strays beyond
//!    [`AdaptConfig::tolerance`] is *drifting*.
//! 3. **Re-search** — after [`AdaptConfig::confirm_windows`] consecutive
//!    drifting windows (hysteresis, mirroring the regime detector's
//!    debounce), the loop clones the task graph, rescales the drifting
//!    stages' cost models to measured reality
//!    ([`taskgraph::TaskGraph::with_scaled_cost`]), and launches
//!    [`cds_core::optimal::optimal_schedule_warm`] on the shared
//!    [`WorkerPool`] — warm-started from the incumbent schedule so the
//!    branch-and-bound prunes against a real latency from the first node.
//! 4. **Swap** — when the search lands, the new schedule is grafted into
//!    the controller via [`RegimeController::install_regime`]: one atomic
//!    publish under a fresh generation, *between* frames (the sink drives
//!    [`AdaptLoop::on_frame`] after each commit), never mid-frame.
//!
//! The same machinery synthesizes regimes the offline table never
//! anticipated: a confirmed out-of-table state parks itself in the
//! controller's synthesis mailbox
//! ([`RegimeController::pending_synthesis`]); the loop answers it with a
//! search against the *original* (unscaled) graph, and persists the result
//! through the PR 1 [`ScheduleCache`] under the exact key a process restart
//! will look up — so a regime learned online survives the process.
//!
//! Drift-triggered re-searches run against a *rescaled* graph — and persist
//! under the **rescaled graph's own cache key**: the permille cost vector is
//! part of the key fingerprint, so a restart that confirms the same
//! sustained drift re-derives the same rescaled graph, computes the same
//! key, and is served the re-fit warm (validated against that identical
//! rescaled graph). A restart whose costs went back to normal computes the
//! *original* key and can never be served the drifted schedule — the
//! validate-on-load safety that previously forced "never persist" is now
//! carried by the key itself.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use cds_core::optimal::{optimal_schedule_warm, OptimalConfig};
use cds_core::persist::{schedule_cache_key, ScheduleCache};
use cds_core::schedule::PipelinedSchedule;
use cds_core::table::ScheduleTable;
use cluster::ClusterSpec;
use obs::{calibrate_stages, Recorder, SpanKind};
use taskgraph::{AppState, TaskGraph, TaskId};

use crate::error::Stage;
use crate::pool::WorkerPool;
use crate::regime_rt::RegimeController;
use crate::tasks::PoolJob;

/// Tuning knobs of the adaptation loop.
#[derive(Clone, Debug)]
pub struct AdaptConfig {
    /// Calibrated drift tolerance: a stage whose measured/predicted ratio
    /// (after median calibration) strays more than this from 1.0 counts as
    /// drifting. Matches the conformance checker's tolerance semantics.
    pub tolerance: f64,
    /// Frames per evaluation window: the feed is drained and calibrated
    /// once every this many frames.
    pub window: u64,
    /// Consecutive drifting windows required before a re-search launches
    /// (hysteresis — one noisy window must not trigger a search).
    pub confirm_windows: u32,
    /// Minimum frames between two drift-triggered launches.
    pub cooldown_frames: u64,
    /// Branch-and-bound configuration for background re-searches. Serial by
    /// default: one search occupies one pool worker, not the whole machine.
    pub search: OptimalConfig,
    /// Directory of the persistent schedule cache; synthesized regimes are
    /// stored here so they survive a process restart. `None` disables
    /// persistence.
    pub cache_dir: Option<std::path::PathBuf>,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        AdaptConfig {
            tolerance: 0.5,
            window: 16,
            confirm_windows: 2,
            cooldown_frames: 64,
            search: OptimalConfig::default().serial(),
            cache_dir: None,
        }
    }
}

/// Lock-free per-stage cost accumulator: stage bodies add their compute
/// wall time per frame; the adaptation loop drains window means.
///
/// `take` swaps the counters non-atomically with respect to each other, so
/// a sample landing exactly during a drain may split its count and sum
/// across two windows — at a window of 16+ frames this biases a mean by at
/// most one sample and is harmless for drift detection.
pub struct CostFeed {
    sums_ns: Vec<AtomicU64>,
    counts: Vec<AtomicU64>,
}

impl CostFeed {
    /// A feed for `n_stages` pipeline stages.
    #[must_use]
    pub fn new(n_stages: usize) -> Self {
        CostFeed {
            sums_ns: (0..n_stages).map(|_| AtomicU64::new(0)).collect(),
            counts: (0..n_stages).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Report one frame's compute wall time for `stage`.
    pub fn record(&self, stage: usize, wall_ns: u64) {
        if let (Some(s), Some(c)) = (self.sums_ns.get(stage), self.counts.get(stage)) {
            s.fetch_add(wall_ns, Ordering::Relaxed);
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drain the window: per-stage `(samples, total_ns)`, resetting both.
    #[must_use]
    pub fn take(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .zip(&self.sums_ns)
            .map(|(c, s)| (c.swap(0, Ordering::Relaxed), s.swap(0, Ordering::Relaxed)))
            .collect()
    }
}

/// Why a background search was launched.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReschedReason {
    /// Sustained per-stage cost drift against the active schedule.
    Drift,
    /// A confirmed state with no exact schedule-table entry.
    Synthesis,
}

/// A background re-search job: runs the warm-started branch-and-bound on a
/// pool worker (or a detached thread when no pool is attached) and sends
/// the result back to the [`AdaptLoop`] that launched it.
pub struct ReschedJob {
    graph: TaskGraph,
    cluster: ClusterSpec,
    state: AppState,
    cfg: OptimalConfig,
    warm: Option<PipelinedSchedule>,
    persist_key: Option<u64>,
    reason: ReschedReason,
    /// When the drift (or unknown state) was detected — the start of the
    /// detection→swap latency measurement.
    detected: Instant,
    frame: u64,
    reply: Sender<ReschedOutcome>,
}

impl ReschedJob {
    /// Run the search and post the outcome (the loop installs it on the
    /// next frame boundary). A dropped receiver means the run is over;
    /// the result is discarded.
    pub fn run(self) {
        let t0 = Instant::now();
        let res = optimal_schedule_warm(
            &self.graph,
            &self.cluster,
            &self.state,
            &self.cfg,
            self.warm.as_ref(),
        );
        let _ = self.reply.send(ReschedOutcome {
            state: self.state,
            sched: res.best,
            nodes_explored: res.nodes_explored,
            search_time: t0.elapsed(),
            persist_key: self.persist_key,
            reason: self.reason,
            detected: self.detected,
            launch_frame: self.frame,
        });
    }
}

/// What a finished background search hands back for installation.
struct ReschedOutcome {
    state: AppState,
    sched: PipelinedSchedule,
    nodes_explored: u64,
    search_time: Duration,
    persist_key: Option<u64>,
    reason: ReschedReason,
    detected: Instant,
    launch_frame: u64,
}

/// Counters of the adaptation loop, for benches and tests.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct AdaptStats {
    /// Evaluation windows processed.
    pub windows: u64,
    /// Windows in which at least one stage drifted beyond tolerance.
    pub drift_windows: u64,
    /// Background searches launched (drift and synthesis).
    pub launches: u64,
    /// Schedules atomically installed into the controller.
    pub installs: u64,
    /// Detection→swap latency of the most recent install.
    pub last_detect_to_swap: Option<Duration>,
    /// Branch-and-bound nodes explored by the most recent installed search
    /// (0 when the schedule was served from the persistent cache).
    pub last_nodes_explored: u64,
    /// Pure search time of the most recent installed search.
    pub last_search_time: Option<Duration>,
}

/// Per-launch bookkeeping guarded by one small mutex (touched once per
/// frame by the sink, never by stage bodies).
#[derive(Default)]
struct Inner {
    frames: u64,
    streak: u32,
    in_flight: bool,
    last_launch_frame: Option<u64>,
}

/// The controller of the measure → calibrate → re-search → swap cycle.
///
/// Owned by the application wiring; the sink task calls
/// [`on_frame`](Self::on_frame) after every frame it settles, which is the
/// only entry point — everything the loop does happens between frames.
pub struct AdaptLoop {
    cfg: AdaptConfig,
    feed: Arc<CostFeed>,
    controller: Arc<RegimeController>,
    graph: TaskGraph,
    cluster: ClusterSpec,
    dp_task: TaskId,
    table: Mutex<ScheduleTable>,
    cache: Option<ScheduleCache>,
    pool: Mutex<Option<Arc<WorkerPool<PoolJob>>>>,
    recorder: Mutex<Option<Recorder>>,
    tx: Sender<ReschedOutcome>,
    rx: Receiver<ReschedOutcome>,
    inner: Mutex<Inner>,
    windows: AtomicU64,
    drift_windows: AtomicU64,
    launches: AtomicU64,
    installs: AtomicU64,
    last_latency_ns: AtomicU64,
    last_nodes: AtomicU64,
    last_search_ns: AtomicU64,
    has_install: AtomicU32,
}

impl AdaptLoop {
    /// Build the loop around the offline artifacts: the task graph and
    /// cluster the schedules were computed for, the precomputed table, the
    /// data-parallel task whose decomposition regimes control, and the
    /// shared controller the swaps land in.
    #[must_use]
    pub fn new(
        cfg: AdaptConfig,
        graph: TaskGraph,
        cluster: ClusterSpec,
        table: ScheduleTable,
        dp_task: TaskId,
        controller: Arc<RegimeController>,
    ) -> Arc<Self> {
        let cache = cfg
            .cache_dir
            .as_ref()
            .and_then(|dir| ScheduleCache::open(dir.clone()).ok());
        let (tx, rx) = unbounded();
        Arc::new(AdaptLoop {
            feed: Arc::new(CostFeed::new(Stage::ALL.len())),
            cfg,
            controller,
            graph,
            cluster,
            dp_task,
            table: Mutex::new(table),
            cache,
            pool: Mutex::new(None),
            recorder: Mutex::new(None),
            tx,
            rx,
            inner: Mutex::new(Inner::default()),
            windows: AtomicU64::new(0),
            drift_windows: AtomicU64::new(0),
            launches: AtomicU64::new(0),
            installs: AtomicU64::new(0),
            last_latency_ns: AtomicU64::new(0),
            last_nodes: AtomicU64::new(0),
            last_search_ns: AtomicU64::new(0),
            has_install: AtomicU32::new(0),
        })
    }

    /// The cost feed stage bodies report into.
    #[must_use]
    pub fn feed(&self) -> Arc<CostFeed> {
        Arc::clone(&self.feed)
    }

    /// Run background searches on this pool (the shared data-parallel
    /// worker pool). Without one, each search runs on a detached thread.
    pub fn attach_pool(&self, pool: Arc<WorkerPool<PoolJob>>) {
        *self.pool.lock() = Some(pool);
    }

    /// Report launch and swap instants ([`SpanKind::Resched`]) into `rec`.
    pub fn attach_recorder(&self, rec: Recorder) {
        *self.recorder.lock() = Some(rec);
    }

    /// The frame-boundary hook: the sink calls this after settling each
    /// frame. Installs any finished searches (the atomic swap), answers
    /// pending regime-synthesis requests, and — once per window — drains
    /// the cost feed and evaluates drift.
    pub fn on_frame(&self, frame: u64) {
        self.drain_results(frame);
        self.poll_synthesis(frame);
        let due = {
            let mut g = self.inner.lock();
            g.frames += 1;
            g.frames.is_multiple_of(self.cfg.window)
        };
        if due {
            self.evaluate(frame);
        }
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> AdaptStats {
        let installed = self.has_install.load(Ordering::SeqCst) != 0;
        AdaptStats {
            windows: self.windows.load(Ordering::SeqCst),
            drift_windows: self.drift_windows.load(Ordering::SeqCst),
            launches: self.launches.load(Ordering::SeqCst),
            installs: self.installs.load(Ordering::SeqCst),
            last_detect_to_swap: installed
                .then(|| Duration::from_nanos(self.last_latency_ns.load(Ordering::SeqCst))),
            last_nodes_explored: self.last_nodes.load(Ordering::SeqCst),
            last_search_time: installed
                .then(|| Duration::from_nanos(self.last_search_ns.load(Ordering::SeqCst))),
        }
    }

    /// The live table's schedule for an `n`-model regime, if one exists
    /// (offline-precomputed or synthesized online).
    #[must_use]
    pub fn schedule_for(&self, n: u32) -> Option<PipelinedSchedule> {
        self.table.lock().get(&AppState::new(n)).cloned()
    }

    /// Install every finished search: graft the schedule into the live
    /// table, swap the controller's regime entry under a fresh generation,
    /// persist synthesized regimes, and leave a swap instant on the trace.
    fn drain_results(&self, frame: u64) {
        while let Ok(out) = self.rx.try_recv() {
            let (fp, mp) = out
                .sched
                .iteration
                .decomp
                .get(&self.dp_task)
                .map_or((1, 1), |d| (d.fp, d.mp));
            let swap = self.controller.install_regime(out.state.n_models, fp, mp);
            self.table.lock().insert(out.state, out.sched.clone());
            if let (Some(cache), Some(key)) = (&self.cache, out.persist_key) {
                // Synthesis results are computed against the original graph,
                // so a restart's cache lookup validates and reuses them. An
                // I/O failure here costs persistence, not correctness.
                let _ = cache.store(key, &out.sched);
            }
            if let Some(r) = self.recorder.lock().as_ref().filter(|r| r.enabled()) {
                r.instant(
                    SpanKind::Resched,
                    Stage::Face.index(),
                    frame,
                    Some((swap.decomp.0 as u16, swap.decomp.1 as u16)),
                );
            }
            self.installs.fetch_add(1, Ordering::SeqCst);
            self.last_latency_ns.store(
                u64::try_from(out.detected.elapsed().as_nanos()).unwrap_or(u64::MAX),
                Ordering::SeqCst,
            );
            self.last_nodes.store(out.nodes_explored, Ordering::SeqCst);
            self.last_search_ns.store(
                u64::try_from(out.search_time.as_nanos()).unwrap_or(u64::MAX),
                Ordering::SeqCst,
            );
            self.has_install.store(1, Ordering::SeqCst);
            let _ = (out.reason, out.launch_frame);
            self.inner.lock().in_flight = false;
        }
    }

    /// Answer the controller's synthesis mailbox: an unknown regime gets a
    /// schedule from the persistent cache when one survives from an earlier
    /// process, else a warm-started search against the *original* graph.
    fn poll_synthesis(&self, frame: u64) {
        let Some(n) = self.controller.pending_synthesis() else {
            return;
        };
        {
            let mut g = self.inner.lock();
            if g.in_flight {
                return;
            }
            g.in_flight = true;
        }
        let state = AppState::new(n);
        let key = schedule_cache_key(&self.graph, &self.cluster, &state, &self.cfg.search);
        if let Some(cache) = &self.cache {
            if let Ok(sched) = cache.load(key, &self.graph, &self.cluster, &state) {
                // A regime synthesized by a previous process: no search
                // needed. Route through the normal install path (the send
                // can only fail if we dropped our own receiver).
                let _ = self.tx.send(ReschedOutcome {
                    state,
                    sched,
                    nodes_explored: 0,
                    search_time: Duration::ZERO,
                    persist_key: None,
                    reason: ReschedReason::Synthesis,
                    detected: Instant::now(),
                    launch_frame: frame,
                });
                return;
            }
        }
        let warm = self.warm_for(&state);
        self.launch(
            ReschedJob {
                graph: self.graph.clone(),
                cluster: self.cluster.clone(),
                state,
                cfg: self.cfg.search.clone(),
                warm,
                persist_key: Some(key),
                reason: ReschedReason::Synthesis,
                detected: Instant::now(),
                frame,
                reply: self.tx.clone(),
            },
            frame,
        );
    }

    /// One calibration window: drain the feed, join measured means against
    /// the active schedule's predictions, and launch a re-search when drift
    /// has persisted long enough.
    fn evaluate(&self, frame: u64) {
        self.windows.fetch_add(1, Ordering::SeqCst);
        let window = self.feed.take();
        let active = AppState::new(self.controller.active_regime());
        let preds: Vec<(u8, u64)> = {
            let t = self.table.lock();
            let sched = match t.get(&active) {
                Some(s) => s,
                None if t.is_empty() => return,
                None => t.get_nearest(&active),
            };
            sched
                .iteration
                .stage_predictions()
                .iter()
                .map(|p| (p.task.0 as u8, p.wall.0))
                .collect()
        };
        let samples: Vec<(u8, u64, f64)> = window
            .iter()
            .enumerate()
            .filter(|(_, (count, _))| *count > 0)
            .filter_map(|(stage, (count, sum))| {
                let (_, wall_us) = preds.iter().find(|(t, _)| usize::from(*t) == stage)?;
                #[allow(clippy::cast_precision_loss)]
                Some((stage as u8, *wall_us, *sum as f64 / *count as f64))
            })
            .collect();
        if samples.is_empty() {
            return;
        }
        let (_calibration, rows) = calibrate_stages(&samples, self.cfg.tolerance);
        let drifting: Vec<_> = rows.iter().filter(|r| r.drift).collect();
        {
            let mut g = self.inner.lock();
            if drifting.is_empty() {
                g.streak = 0;
                return;
            }
            self.drift_windows.fetch_add(1, Ordering::SeqCst);
            g.streak += 1;
            if g.streak < self.cfg.confirm_windows || g.in_flight {
                return;
            }
            if let Some(last) = g.last_launch_frame {
                if frame.saturating_sub(last) < self.cfg.cooldown_frames {
                    return;
                }
            }
            g.in_flight = true;
            g.last_launch_frame = Some(frame);
            g.streak = 0;
        }
        // Rescale the drifting stages' cost models to measured reality
        // (integer permille — a 2.37× slowdown becomes 2370/1000) and
        // re-search against the graph the run is actually executing.
        let mut graph = self.graph.clone();
        for r in &drifting {
            let num = (r.ratio * 1000.0).round().max(1.0);
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let num = num.min(1e15) as u64;
            graph = graph.with_scaled_cost(TaskId(usize::from(r.stage)), num, 1000);
        }
        // The re-fit is keyed on the *rescaled* graph (the permille cost
        // vector is in the fingerprint): a restart confirming the same drift
        // re-derives the same key and validates the entry against the same
        // rescaled graph, while undrifted processes compute the original key
        // and never see it. So first probe the cache for a re-fit an earlier
        // process already paid for…
        let key = schedule_cache_key(&graph, &self.cluster, &active, &self.cfg.search);
        if let Some(cache) = &self.cache {
            if let Ok(sched) = cache.load(key, &graph, &self.cluster, &active) {
                // Served warm: route through the normal install path (the
                // send can only fail if we dropped our own receiver).
                let _ = self.tx.send(ReschedOutcome {
                    state: active,
                    sched,
                    nodes_explored: 0,
                    search_time: Duration::ZERO,
                    persist_key: None,
                    reason: ReschedReason::Drift,
                    detected: Instant::now(),
                    launch_frame: frame,
                });
                return;
            }
        }
        // …and only search when no process has.
        let warm = self.warm_for(&active);
        self.launch(
            ReschedJob {
                graph,
                cluster: self.cluster.clone(),
                state: active,
                cfg: self.cfg.search.clone(),
                warm,
                persist_key: Some(key),
                reason: ReschedReason::Drift,
                detected: Instant::now(),
                frame,
                reply: self.tx.clone(),
            },
            frame,
        );
    }

    /// The warm-start incumbent for a state: its exact schedule when the
    /// table has one, else the nearest regime's.
    fn warm_for(&self, state: &AppState) -> Option<PipelinedSchedule> {
        let t = self.table.lock();
        match t.get(state) {
            Some(s) => Some(s.clone()),
            None if t.is_empty() => None,
            None => Some(t.get_nearest(state).clone()),
        }
    }

    /// Hand a job to the shared pool; fall back to a detached thread when
    /// no pool is attached (or it has shut down). Leaves a launch instant
    /// ([`SpanKind::Resched`] with no decomp payload) on the trace.
    fn launch(&self, job: ReschedJob, frame: u64) {
        self.launches.fetch_add(1, Ordering::SeqCst);
        if let Some(r) = self.recorder.lock().as_ref().filter(|r| r.enabled()) {
            r.instant(SpanKind::Resched, Stage::Face.index(), frame, None);
        }
        let pool = self.pool.lock().clone();
        let rejected = match pool {
            Some(p) => match p.submit(PoolJob::Resched(Box::new(job))) {
                Ok(()) => None,
                Err(crate::pool::PoolClosed(PoolJob::Resched(j))) => Some(*j),
                // Unreachable: submit returns the job it was given.
                Err(crate::pool::PoolClosed(_)) => None,
            },
            None => Some(job),
        };
        if let Some(j) = rejected {
            std::thread::spawn(move || j.run());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_core::optimal::optimal_schedule;
    use std::collections::BTreeMap;
    use taskgraph::builders;

    fn fixture() -> (TaskGraph, ClusterSpec, ScheduleTable, TaskId) {
        let g = builders::color_tracker();
        let c = ClusterSpec::single_node(4);
        let states: Vec<AppState> = [1u32, 2].iter().map(|&n| AppState::new(n)).collect();
        let table = ScheduleTable::precompute(&g, &c, &states, &OptimalConfig::default().serial());
        let t4 = g.task_by_name("Target Detection").unwrap();
        (g, c, table, t4)
    }

    fn controller(table: &ScheduleTable, t4: TaskId) -> Arc<RegimeController> {
        Arc::new(RegimeController::from_schedule_table(table, t4, 1, 1).unwrap())
    }

    #[test]
    fn cost_feed_accumulates_and_drains() {
        let f = CostFeed::new(3);
        f.record(0, 100);
        f.record(0, 300);
        f.record(2, 50);
        f.record(9, 1); // out of range: ignored
        assert_eq!(f.take(), vec![(2, 400), (0, 0), (1, 50)]);
        assert_eq!(f.take(), vec![(0, 0), (0, 0), (0, 0)], "drained");
    }

    #[test]
    fn sustained_drift_launches_search_and_installs_swap() {
        let (g, c, table, t4) = fixture();
        let ctl = controller(&table, t4);
        let cfg = AdaptConfig {
            window: 4,
            confirm_windows: 2,
            cooldown_frames: 0,
            tolerance: 0.5,
            ..AdaptConfig::default()
        };
        let adapt = AdaptLoop::new(cfg, g.clone(), c, table, t4, Arc::clone(&ctl));
        let feed = adapt.feed();

        // Predicted per-stage walls for regime 1, in model µs. Feed perfect
        // conformance (ratio 1.0 via a fake 1 ns/µs clock) except stage 3,
        // which runs 4× its share.
        let sched = adapt.schedule_for(1).unwrap();
        let preds: BTreeMap<u8, u64> = sched
            .iteration
            .stage_predictions()
            .iter()
            .map(|p| (p.task.0 as u8, p.wall.0))
            .collect();
        let mut frame = 0u64;
        let mut feed_window = |drift: bool| {
            for _ in 0..4 {
                for (&stage, &wall_us) in &preds {
                    let factor = if drift && stage == 3 { 4 } else { 1 };
                    feed.record(usize::from(stage), wall_us * factor);
                }
                adapt.on_frame(frame);
                frame += 1;
            }
        };

        feed_window(false);
        assert_eq!(adapt.stats().drift_windows, 0, "clean window: no drift");
        feed_window(true);
        assert_eq!(adapt.stats().drift_windows, 1);
        assert_eq!(adapt.stats().launches, 0, "one window is not confirmation");
        feed_window(true);
        assert_eq!(adapt.stats().launches, 1, "second drifting window launches");

        // The search runs on a detached thread (no pool attached); pump the
        // frame hook until the result lands and is installed.
        let t0 = Instant::now();
        while adapt.stats().installs == 0 {
            assert!(
                t0.elapsed() < Duration::from_secs(60),
                "search never landed"
            );
            std::thread::sleep(Duration::from_millis(10));
            adapt.on_frame(frame);
            frame += 1;
        }
        let stats = adapt.stats();
        assert_eq!(stats.installs, 1);
        assert_eq!(ctl.swaps(), 1, "exactly one swap in the ledger");
        assert!(stats.last_detect_to_swap.is_some());
        assert!(stats.last_nodes_explored > 0, "a real search ran");
    }

    /// PR 6 caveat #2 regression: a stage that gets *faster* (a kernel-tier
    /// upgrade, say) must trigger re-scheduling just like a slowdown — the
    /// drift predicate is symmetric, so speed-ups are visible even at
    /// `tolerance ≥ 1.0`, where `ratio < 1` could never exceed `1 + tol`.
    #[test]
    fn sustained_speedup_also_launches_search_and_installs_swap() {
        let (g, c, table, t4) = fixture();
        let ctl = controller(&table, t4);
        let cfg = AdaptConfig {
            window: 4,
            confirm_windows: 2,
            cooldown_frames: 0,
            tolerance: 1.0,
            ..AdaptConfig::default()
        };
        let adapt = AdaptLoop::new(cfg, g.clone(), c, table, t4, Arc::clone(&ctl));
        let feed = adapt.feed();

        let sched = adapt.schedule_for(1).unwrap();
        let preds: BTreeMap<u8, u64> = sched
            .iteration
            .stage_predictions()
            .iter()
            .map(|p| (p.task.0 as u8, p.wall.0))
            .collect();
        let mut frame = 0u64;
        let mut feed_window = |drift: bool| {
            for _ in 0..4 {
                for (&stage, &wall_us) in &preds {
                    // Stage 3 runs at a quarter of its predicted share:
                    // ratio 0.25 < 1 / (1 + tolerance) = 0.5.
                    let div = if drift && stage == 3 { 4 } else { 1 };
                    feed.record(usize::from(stage), (wall_us / div).max(1));
                }
                adapt.on_frame(frame);
                frame += 1;
            }
        };

        feed_window(false);
        assert_eq!(adapt.stats().drift_windows, 0, "clean window: no drift");
        feed_window(true);
        feed_window(true);
        assert_eq!(adapt.stats().launches, 1, "confirmed speed-up launches");

        let t0 = Instant::now();
        while adapt.stats().installs == 0 {
            assert!(
                t0.elapsed() < Duration::from_secs(60),
                "search never landed"
            );
            std::thread::sleep(Duration::from_millis(10));
            adapt.on_frame(frame);
            frame += 1;
        }
        assert_eq!(ctl.swaps(), 1, "the faster reality was installed");
    }

    /// Feed one window (4 frames) of perfectly conformant costs, except
    /// stage 3 at exactly 4× its prediction when `drift` is set — the exact
    /// ratio makes the permille rescale (4000/1000) reproducible across
    /// "processes", which is what keys the persisted re-fit.
    fn feed_drift_window(
        adapt: &AdaptLoop,
        feed: &CostFeed,
        preds: &BTreeMap<u8, u64>,
        frame: &mut u64,
        drift: bool,
    ) {
        for _ in 0..4 {
            for (&stage, &wall_us) in preds {
                let factor = if drift && stage == 3 { 4 } else { 1 };
                feed.record(usize::from(stage), wall_us * factor);
            }
            adapt.on_frame(*frame);
            *frame += 1;
        }
    }

    #[test]
    fn drift_refit_persists_and_restart_is_served_warm() {
        let (g, c, table, t4) = fixture();
        let dir = std::env::temp_dir().join(format!(
            "cds-drift-cache-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = AdaptConfig {
            window: 4,
            confirm_windows: 2,
            cooldown_frames: 0,
            tolerance: 0.5,
            cache_dir: Some(dir.clone()),
            ..AdaptConfig::default()
        };
        let preds: BTreeMap<u8, u64> = table
            .get(&AppState::new(1))
            .unwrap()
            .iteration
            .stage_predictions()
            .iter()
            .map(|p| (p.task.0 as u8, p.wall.0))
            .collect();

        // "First process": confirmed 4× drift on stage 3 → real search,
        // result persisted under the rescaled graph's key.
        let ctl = controller(&table, t4);
        let adapt = AdaptLoop::new(
            cfg.clone(),
            g.clone(),
            c.clone(),
            table.clone(),
            t4,
            Arc::clone(&ctl),
        );
        let feed = adapt.feed();
        let mut frame = 0u64;
        feed_drift_window(&adapt, &feed, &preds, &mut frame, true);
        feed_drift_window(&adapt, &feed, &preds, &mut frame, true);
        assert_eq!(adapt.stats().launches, 1, "confirmed drift launches");
        let t0 = Instant::now();
        while adapt.stats().installs == 0 {
            assert!(
                t0.elapsed() < Duration::from_secs(60),
                "search never landed"
            );
            std::thread::sleep(Duration::from_millis(10));
            adapt.on_frame(frame);
            frame += 1;
        }
        assert!(
            adapt.stats().last_nodes_explored > 0,
            "first process really searched"
        );
        let refit = adapt.schedule_for(1).unwrap();

        // "Second process": fresh loop over the same cache directory
        // confirms the *same* drift — the permille rescale reproduces the
        // key, and the re-fit is installed without exploring a node.
        let ctl2 = controller(&table, t4);
        let adapt2 = AdaptLoop::new(cfg, g, c, table, t4, Arc::clone(&ctl2));
        let feed2 = adapt2.feed();
        let mut frame2 = 0u64;
        feed_drift_window(&adapt2, &feed2, &preds, &mut frame2, true);
        feed_drift_window(&adapt2, &feed2, &preds, &mut frame2, true);
        adapt2.on_frame(frame2); // the cache hit was posted; install it
        let stats = adapt2.stats();
        assert_eq!(stats.installs, 1, "restart installs the persisted re-fit");
        assert_eq!(stats.launches, 0, "no search launched after restart");
        assert_eq!(stats.last_nodes_explored, 0, "zero nodes explored");
        assert_eq!(ctl2.swaps(), 1);
        assert_eq!(
            adapt2.schedule_for(1).unwrap().iteration.latency,
            refit.iteration.latency,
            "the warm-served schedule is the first process's re-fit"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn synthesis_persists_through_cache_and_restart_skips_search() {
        let (g, c, table, t4) = fixture();
        let dir = std::env::temp_dir().join(format!(
            "cds-adapt-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = AdaptConfig {
            cache_dir: Some(dir.clone()),
            ..AdaptConfig::default()
        };

        // "First process": regime 4 is not in the table; a confirmed
        // observation parks it for synthesis and the loop searches it.
        let ctl = controller(&table, t4);
        let adapt = AdaptLoop::new(
            cfg.clone(),
            g.clone(),
            c.clone(),
            table.clone(),
            t4,
            Arc::clone(&ctl),
        );
        assert!(!ctl.has_regime(4));
        ctl.observe(4);
        assert_eq!(ctl.pending_synthesis(), Some(4));
        let mut frame = 0u64;
        let t0 = Instant::now();
        while adapt.stats().installs == 0 {
            assert!(
                t0.elapsed() < Duration::from_secs(60),
                "synthesis never landed"
            );
            adapt.on_frame(frame);
            frame += 1;
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(ctl.has_regime(4), "regime grafted into the controller");
        assert_eq!(ctl.pending_synthesis(), None);
        assert!(
            adapt.stats().last_nodes_explored > 0,
            "first process really searched"
        );
        let synthesized = adapt.schedule_for(4).unwrap();
        // The online result equals the offline optimum for the same state —
        // synthesis is a real search, not an interpolation.
        let offline = optimal_schedule(&g, &c, &AppState::new(4), &cfg.search).best;
        assert_eq!(synthesized.iteration.latency, offline.iteration.latency);

        // "Second process": fresh controller and loop over the same cache
        // directory. The same unknown regime is served from disk: installed
        // without exploring a single node.
        let ctl2 = controller(&table, t4);
        let adapt2 = AdaptLoop::new(cfg, g, c, table, t4, Arc::clone(&ctl2));
        ctl2.observe(4);
        assert_eq!(ctl2.pending_synthesis(), Some(4));
        adapt2.on_frame(0); // cache hit posted…
        adapt2.on_frame(1); // …and installed
        let stats = adapt2.stats();
        assert_eq!(stats.installs, 1, "restart installs from the cache");
        assert_eq!(stats.last_nodes_explored, 0, "no search after restart");
        assert!(ctl2.has_regime(4));
        assert_eq!(
            adapt2.schedule_for(4).unwrap().iteration.latency,
            synthesized.iteration.latency
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
