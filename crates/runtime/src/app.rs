//! Wiring: build the tracker's channels and task bodies into a runnable
//! application (the Fig. 2 graph over real STM channels).

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use obs::{ChannelCheck, Recorder, TraceMode};
use stm::{Channel, ChannelBuilder};
use vision::{BackendKind, BitMask, ColorHist, Frame, ModelLocation, Scene, ScoreMap};

use crate::error::{RuntimeHealth, Stage};
use crate::faults::FaultInjector;
use crate::frame_pool::{BufPool, PoolStats, PooledFrame, PooledMask};
use crate::measure::Measurements;
use crate::pool::{PoolHealth, PriorityClass, WorkerPool};
use crate::regime_rt::RegimeController;
use crate::tasks::{
    Change, ChunkJob, Detect, DigitizerTask, FaceTask, Histogram, Peak, RunCtx, StageCtx, TaskBody,
    Transform,
};

/// Capacity of the "Back Projections" channel, whatever
/// [`TrackerConfig::channel_capacity`] says. Its items are the fattest
/// payload in the system (`n_models × width × height × 4` bytes — ten times
/// a frame at eight models), T5 is its only consumer and reads one item at
/// a time, and one slot already double-buffers: T4 computes frame *f + 1*
/// while T5 holds *f*. A deeper queue buys no throughput; it only lets a
/// free-running pipeline's backlog pile up in its most expensive place.
/// (The scheduled executor, whose T4 instances finish out of order, widens
/// it again: see `TrackerApp::widen_for_schedule`.)
const SCORES_CAPACITY: usize = 1;

/// Floor of the "Frame" channel's capacity. T3 differences frame *ts*
/// against *ts − 1*, so its consume frontier trails the stream by one
/// frame; with a single slot the digitizer can never `put` frame *ts* while
/// T3 still holds *ts − 1*, and an unpaced run deadlocks.
const MIN_FRAME_CAPACITY: usize = 2;

/// Bytes of frames the "Frame" channel admits before the digitizer blocks,
/// however many items [`TrackerConfig::channel_capacity`] allows. The
/// channel is the pipeline's admission valve — "Color Model" and "Motion
/// Mask" can hold no more items than there are frames in flight — so an
/// item count makes the tracker's memory grow with the resolution: eight
/// 640×480 frames are 7 MiB. Three slots already keep every stage busy
/// (T3 trails on *ts − 1*, T2–T4 work on *ts*, the digitizer lands
/// *ts + 1*). Past that the queue buys no throughput once T4 stops being
/// the frame: the digitizer and its consumers are then evenly matched, the
/// backlog random-walks, and the high-water mark of a 400-frame run lands
/// anywhere between 3 and 8 frames (4–8.6 MiB at 640×480, run to run). At
/// the budget it is 3 frames every run; frames of 384 KiB or less keep the
/// configured capacity of 8.
const FRAME_CHANNEL_BUDGET_BYTES: usize = 3 << 20;

/// Slots of the "Frame" channel: the configured capacity, cut to the byte
/// budget, never below the floor.
fn frame_capacity(cfg: &TrackerConfig) -> usize {
    let frame_bytes = (cfg.width * cfg.height * 3).max(1);
    cfg.channel_capacity
        .min(FRAME_CHANNEL_BUDGET_BYTES / frame_bytes)
        .max(MIN_FRAME_CAPACITY)
}

/// Configuration of a tracker run.
#[derive(Clone, Debug)]
pub struct TrackerConfig {
    /// Frame width.
    pub width: usize,
    /// Frame height.
    pub height: usize,
    /// Number of targets in the scene (and enrolled models).
    pub n_targets: usize,
    /// Scene seed.
    pub seed: u64,
    /// Frames to process.
    pub n_frames: u64,
    /// Digitizer period (the §3.1 tuning knob).
    pub period: Duration,
    /// STM channel capacity (flow control), in items. Two channels bound
    /// themselves tighter: "Back Projections" holds one item and "Frame" at
    /// most 3 MiB of frames (see `SCORES_CAPACITY` and
    /// `FRAME_CHANNEL_BUDGET_BYTES` in this module for why).
    pub channel_capacity: usize,
    /// Fixed (FP, MP) decomposition for T4.
    pub decomposition: (u32, u32),
    /// Worker-pool size for online-mode data parallelism (0 = none). The
    /// pool runs T4's detection chunks, the graph's only data-parallel
    /// task.
    pub pool_workers: usize,
    /// Recycle frame and mask buffers through freelists so steady-state
    /// execution allocates nothing per frame. Output is bit-identical
    /// either way (producers overwrite recycled buffers completely).
    pub recycle_buffers: bool,
    /// Peak detection threshold.
    pub min_score: f32,
    /// Failure injection: the digitizer dies after this many frames (the
    /// camera cable is pulled). Downstream tasks must drain and stop
    /// cleanly via channel closure — no hangs, no leaks.
    pub digitizer_dies_after: Option<u64>,
    /// Per-frame latency budget for every stage's input waits (the deadline
    /// watchdog): a frame whose inputs miss the budget is skipped — STM
    /// consume semantics — instead of back-pressuring the digitizer.
    /// `None` waits forever (the pre-watchdog behavior), except that
    /// attaching `faults` defaults the budget so injected drops cascade
    /// cleanly.
    pub frame_deadline: Option<Duration>,
    /// Deterministic fault injection (see [`crate::faults`]); `None` for
    /// production runs.
    pub faults: Option<Arc<FaultInjector>>,
    /// Live observability: `Some(mode)` attaches an [`obs::Recorder`] in
    /// that mode to every stage, pool job, and the regime controller.
    /// `None` builds no recorder at all — the baseline the
    /// [`TraceMode::Off`] overhead claim is measured against.
    pub trace: Option<TraceMode>,
    /// Which compute-kernel tier the stage bodies dispatch through
    /// (scalar oracles, or runtime-detected SIMD over the portable word
    /// kernels). Both tiers are bit-identical; they differ only in speed.
    pub backend: BackendKind,
    /// Record this run's nondeterminism (digitized frames, skips, commits)
    /// into the tap — the live side of `crates/replay`. `None` records
    /// nothing and costs nothing.
    pub record: Option<Arc<replay::RecordTap>>,
    /// Replay a recording: the digitizer plays frames back from here
    /// (unpaced, recorded skips re-marked) instead of rendering. Combine
    /// with a [`FaultInjector`] carrying the recorded downstream skips to
    /// pin the whole pipeline to the recorded run.
    pub source: Option<Arc<replay::ReplaySource>>,
}

impl TrackerConfig {
    /// A small, fast configuration suitable for tests.
    #[must_use]
    pub fn small(n_targets: usize, n_frames: u64) -> Self {
        TrackerConfig {
            width: 96,
            height: 72,
            n_targets,
            seed: 7,
            n_frames,
            period: Duration::from_millis(1),
            channel_capacity: 8,
            decomposition: (1, 1),
            pool_workers: 0,
            recycle_buffers: true,
            min_score: 5.0,
            digitizer_dies_after: None,
            frame_deadline: None,
            faults: None,
            trace: None,
            backend: BackendKind::Simd,
            record: None,
            source: None,
        }
    }
}

/// The worker pool, buffer freelists, flags and class an app runs with. A
/// fleet hands each tenant one over the fleet-wide pool and freelists (a
/// thousand tenants then multiplex one pool instead of spawning a
/// thousand), with the tenant's own flags; a solo app builds its own from
/// its [`TrackerConfig`].
#[derive(Clone)]
pub struct SharedResources {
    /// The worker pool T4's detection chunks are submitted to (`None` runs
    /// them inline).
    pub pool: Option<Arc<WorkerPool<ChunkJob>>>,
    /// Shared frame-buffer freelist (`None` disables recycling).
    pub frame_pool: Option<BufPool<Frame>>,
    /// Shared mask-buffer freelist (`None` disables recycling).
    pub mask_pool: Option<BufPool<BitMask>>,
    /// This tenant's urgency flag: while `true`, the tenant's pool jobs ride
    /// the urgent lane (set by the fleet monitor when the tenant falls
    /// behind its deadline budget).
    pub boost: Arc<AtomicBool>,
    /// The tenant's standing priority class: every pool job it submits
    /// rides the class's queue lane (unless boosted).
    pub class: PriorityClass,
    /// Lifecycle drain flag: the fleet flips it on `detach`, the digitizer
    /// stops producing, and in-flight frames drain to a clean close.
    pub halt: Arc<AtomicBool>,
    /// Shed flag: while `true`, the digitizer skip-commits frames instead
    /// of rendering them (BestEffort degradation under fleet pressure).
    pub shed: Arc<AtomicBool>,
}

impl SharedResources {
    /// A solo app's resources: a private pool of `cfg.pool_workers` (none
    /// at 0), freelists when `cfg.recycle_buffers`, the default class, and
    /// boost, halt and shed flags nobody raises.
    pub(crate) fn solo(cfg: &TrackerConfig) -> Self {
        let pool = (cfg.pool_workers > 0).then(|| match &cfg.faults {
            // With fault injection attached, the handler probes the
            // injector first — the injected panic lands inside the pool's
            // catch_unwind, exactly where a real one would.
            Some(f) => {
                let f = Arc::clone(f);
                Arc::new(WorkerPool::new(cfg.pool_workers, move |job: ChunkJob| {
                    f.maybe_panic_job();
                    job.run();
                }))
            }
            None => Arc::new(WorkerPool::new(cfg.pool_workers, ChunkJob::run)),
        });
        // A few more idle slots than the channel can hold, so a drained
        // pipeline never discards buffers it is about to reuse.
        let slots = cfg.channel_capacity + 2;
        SharedResources {
            pool,
            frame_pool: cfg.recycle_buffers.then(|| BufPool::new(slots)),
            mask_pool: cfg.recycle_buffers.then(|| BufPool::new(slots)),
            boost: Arc::default(),
            class: PriorityClass::default(),
            halt: Arc::default(),
            shed: Arc::default(),
        }
    }
}

/// A fully wired tracker application: six task bodies in the task-id order
/// of [`taskgraph::builders::color_tracker`], sharing STM channels.
pub struct TrackerApp {
    /// Task bodies indexed like the task graph (0 = digitizer … 5 = face).
    pub tasks: Vec<Arc<dyn TaskBody>>,
    /// Wall-clock measurements (digitize/complete per frame).
    pub measure: Arc<Measurements>,
    /// The sink task, for reading back per-frame observations.
    pub face: Arc<FaceTask>,
    /// The regime controller, when one was attached.
    pub controller: Option<Arc<RegimeController>>,
    /// The scene (for ground-truth checks in tests).
    pub scene: Scene,
    /// Number of frames this app will process.
    pub n_frames: u64,
    /// Shared health ledger of the run: every frame-path fault any stage
    /// absorbed (drops, deadline skips, chunk recomputes, regime clamps).
    pub health: Arc<RuntimeHealth>,
    /// The span recorder, when [`TrackerConfig::trace`] asked for one.
    pub recorder: Option<Recorder>,
    channels: AppChannels,
    run: Arc<RunCtx>,
    channel_capacity: usize,
}

struct AppChannels {
    frames: Channel<PooledFrame>,
    hist: Channel<ColorHist>,
    mask: Channel<PooledMask>,
    scores: Channel<Vec<ScoreMap>>,
    locations: Channel<Vec<ModelLocation>>,
}

/// Byte weigher of the "Frame" channel: interleaved RGB payload.
fn weigh_frame(f: &PooledFrame) -> usize {
    f.byte_len()
}

/// Byte weigher of the "Color Model" channel: one `f32` per bin.
fn weigh_hist(_: &ColorHist) -> usize {
    vision::color::N_BINS * std::mem::size_of::<f32>()
}

/// Byte weigher of the "Motion Mask" channel: the packed bit words.
fn weigh_mask(m: &PooledMask) -> usize {
    m.byte_len()
}

/// Byte weigher of the "Back Projections" channel: one `f32` per pixel per
/// model.
// `build_weighed` takes a `fn(&T) -> usize` where `T` is the channel payload
// type (`Vec<ScoreMap>`), so a slice parameter would not match.
#[allow(clippy::ptr_arg)]
fn weigh_scores(s: &Vec<ScoreMap>) -> usize {
    s.iter()
        .map(|m| m.width * m.height * std::mem::size_of::<f32>())
        .sum()
}

/// Byte weigher of the "Model Locations" channel.
// Same `fn(&T) -> usize` pointer constraint as `weigh_scores`.
#[allow(clippy::ptr_arg)]
fn weigh_locations(l: &Vec<ModelLocation>) -> usize {
    l.len() * std::mem::size_of::<ModelLocation>()
}

impl TrackerApp {
    /// Build the application. `controller`, if given, drives T4's
    /// decomposition dynamically; otherwise `cfg.decomposition` is fixed.
    #[must_use]
    pub fn build(cfg: &TrackerConfig, controller: Option<Arc<RegimeController>>) -> TrackerApp {
        let scene = Scene::demo(cfg.width, cfg.height, cfg.n_targets, cfg.seed);
        Self::build_with_scene(cfg, scene, controller)
    }

    /// [`build`](Self::build) with an explicit scene (e.g. one whose target
    /// population changes over time via [`Scene::with_visit`]).
    #[must_use]
    pub fn build_with_scene(
        cfg: &TrackerConfig,
        scene: Scene,
        controller: Option<Arc<RegimeController>>,
    ) -> TrackerApp {
        Self::assemble(cfg, scene, controller, None)
    }

    /// Wire the tracker; every other constructor builds through this one.
    ///
    /// * `controller`, if given, drives T4's decomposition dynamically;
    ///   otherwise `cfg.decomposition` is fixed.
    /// * `shared` makes the app a fleet tenant: the worker pool, buffer
    ///   freelists, flags and class come from it (`cfg.pool_workers` and
    ///   `cfg.recycle_buffers` are then ignored). Without it the app builds
    ///   its own with [`SharedResources`]' solo defaults.
    #[must_use]
    pub fn assemble(
        cfg: &TrackerConfig,
        scene: Scene,
        controller: Option<Arc<RegimeController>>,
        shared: Option<&SharedResources>,
    ) -> TrackerApp {
        assert_eq!(
            (scene.width, scene.height),
            (cfg.width, cfg.height),
            "scene and config sizes must agree"
        );
        let shared = shared.map_or_else(|| SharedResources::solo(cfg), Clone::clone);
        let run = Arc::new(RunCtx::new(cfg, shared));
        let ctx = |stage| StageCtx::new(stage, &run);
        if let Some(c) = &controller {
            c.attach_health(Arc::clone(&run.health));
            if let Some(r) = &run.recorder {
                c.attach_recorder(r.clone());
            }
        }

        // Every channel carries a byte weigher so the store's byte gauges
        // (`bytes_live`/`peak_bytes`) report real payload sizes — the
        // figures the fleet memory rollup and the stmstore GC budget use.
        let cap = cfg.channel_capacity;
        let frames: Channel<PooledFrame> = ChannelBuilder::new("Frame")
            .capacity(frame_capacity(cfg))
            .build_weighed(weigh_frame);
        let hist: Channel<ColorHist> = ChannelBuilder::new("Color Model")
            .capacity(cap)
            .build_weighed(weigh_hist);
        let mask: Channel<PooledMask> = ChannelBuilder::new("Motion Mask")
            .capacity(cap)
            .build_weighed(weigh_mask);
        let scores: Channel<Vec<ScoreMap>> = ChannelBuilder::new("Back Projections")
            .capacity(SCORES_CAPACITY)
            .build_weighed(weigh_scores);
        let locations: Channel<Vec<ModelLocation>> = ChannelBuilder::new("Model Locations")
            .capacity(cap)
            .build_weighed(weigh_locations);

        let digitizer = DigitizerTask::new(
            scene.clone(),
            frames.clone(),
            cfg.period,
            cfg.digitizer_dies_after
                .map_or(cfg.n_frames, |d| d.min(cfg.n_frames)),
            cfg.source.clone(),
            ctx(Stage::Digitizer),
        );
        let histogram = Histogram {
            input: frames.attach_input(),
        };
        let change = Change {
            input: frames.attach_input(),
            threshold: u16::from(vision::change::DEFAULT_THRESHOLD),
        };
        let detect = Detect {
            in_frames: frames.attach_input(),
            in_hist: hist.attach_input(),
            in_mask: mask.attach_input(),
            models: Arc::new(scene.models()),
            width: cfg.width,
            height: cfg.height,
            fixed_decomp: cfg.decomposition,
            controller: controller.clone(),
            pending: Default::default(),
        };
        let peak = Peak {
            input: scores.attach_input(),
            min_score: cfg.min_score,
        };
        let face = Arc::new(FaceTask::new(
            locations.attach_input(),
            controller.clone(),
            ctx(Stage::Face),
        ));
        let tasks: Vec<Arc<dyn TaskBody>> = vec![
            Arc::new(digitizer),
            Arc::new(Transform::new(
                histogram,
                hist.clone(),
                ctx(Stage::Histogram),
            )),
            Arc::new(Transform::new(change, mask.clone(), ctx(Stage::Change))),
            Arc::new(Transform::new(detect, scores.clone(), ctx(Stage::Detect))),
            Arc::new(Transform::new(peak, locations.clone(), ctx(Stage::Peak))),
            Arc::clone(&face) as Arc<dyn TaskBody>,
        ];

        TrackerApp {
            tasks,
            measure: Arc::clone(&run.measure),
            face,
            controller,
            scene,
            n_frames: cfg.n_frames,
            health: Arc::clone(&run.health),
            recorder: run.recorder.clone(),
            channels: AppChannels {
                frames,
                hist,
                mask,
                scores,
                locations,
            },
            run,
            channel_capacity: cap,
        }
    }

    /// The shared worker pool's fault ledger (panics contained, inline
    /// fallbacks), when a pool is attached.
    #[must_use]
    pub fn pool_health(&self) -> Option<PoolHealth> {
        self.run.shared.pool.as_ref().map(|p| p.health())
    }

    /// Block (condvar, not polling) until the attached pool has tallied at
    /// least `n` contained panics or `timeout` elapses. True on success;
    /// trivially true when no pool is attached and `n == 0`.
    #[must_use]
    pub fn wait_pool_panics(&self, n: u64, timeout: Duration) -> bool {
        match &self.run.shared.pool {
            Some(p) => p.wait_panics(n, timeout),
            None => n == 0,
        }
    }

    /// Frame-buffer pool traffic, when recycling is on. `created` stops
    /// growing once the pipeline reaches steady state.
    #[must_use]
    pub fn frame_pool_stats(&self) -> Option<PoolStats> {
        self.run.shared.frame_pool.as_ref().map(BufPool::stats)
    }

    /// Mask-buffer pool traffic, when recycling is on.
    #[must_use]
    pub fn mask_pool_stats(&self) -> Option<PoolStats> {
        self.run.shared.mask_pool.as_ref().map(BufPool::stats)
    }

    /// The worker pool's lifetime load counters `(submitted, executed)`,
    /// when a pool is attached. A worker counts its job executed only after
    /// sending the chunk's reply, so right after a run the joiner can have
    /// every reply while the last job is still uncounted. The read
    /// therefore takes `submitted` first and waits (at most a second) until
    /// `executed` has caught up with it: the count is quiesced up to that
    /// snapshot, whoever else shares the pool.
    #[must_use]
    pub fn pool_load(&self) -> Option<(u64, u64)> {
        let pool = self.run.shared.pool.as_ref()?;
        let submitted = pool.submitted();
        let _quiesced = pool.wait_executed(submitted, Duration::from_secs(1));
        Some((submitted, pool.executed()))
    }

    /// Give "Back Projections" and "Frame" the configured capacity instead
    /// of their one slot and byte budget. For the scheduled executor only:
    /// its masters run instances of T4 for different frames concurrently
    /// and finish them out of order, while T5 frees items in frame order —
    /// with one slot, frame *f + 1* landing first would lock frame *f* out
    /// for good. There the schedule bounds the frames in flight; the slot
    /// counts only have to cover them, which is what callers size
    /// `channel_capacity` for.
    pub(crate) fn widen_for_schedule(&self) {
        self.channels.scores.set_capacity(self.channel_capacity);
        self.channels
            .frames
            .set_capacity(self.channel_capacity.max(MIN_FRAME_CAPACITY));
    }

    /// Per-channel occupancy rows for the schedule-conformance checker:
    /// every channel's capacity and observed `peak_live`, with
    /// `schedule_bound` (the active schedule's occupancy bound, in
    /// overlapping iterations) applied to all channels.
    #[must_use]
    pub fn channel_checks(&self, schedule_bound: u32) -> Vec<ChannelCheck> {
        fn row<T>(name: &str, ch: &Channel<T>, schedule_bound: u32) -> ChannelCheck {
            ChannelCheck {
                name: name.to_string(),
                // Every app channel is built bounded.
                capacity: ch.capacity().map_or(u32::MAX, |c| c as u32),
                peak_live: ch.stats().peak_live as u32,
                schedule_bound,
            }
        }
        let ch = &self.channels;
        vec![
            row("Frame", &ch.frames, schedule_bound),
            row("Color Model", &ch.hist, schedule_bound),
            row("Motion Mask", &ch.mask, schedule_bound),
            row("Back Projections", &ch.scores, schedule_bound),
            row("Model Locations", &ch.locations, schedule_bound),
        ]
    }

    /// Per-channel payload-byte gauges `(name, bytes_now, peak_bytes)`:
    /// bytes currently held (live + retained history) and the high-water
    /// mark, as weighed by the per-channel byte weighers.
    #[must_use]
    pub fn channel_bytes(&self) -> Vec<(&'static str, usize, usize)> {
        vec![
            (
                "Frame",
                self.channels.frames.stats().bytes_total(),
                self.channels.frames.stats().peak_bytes,
            ),
            (
                "Color Model",
                self.channels.hist.stats().bytes_total(),
                self.channels.hist.stats().peak_bytes,
            ),
            (
                "Motion Mask",
                self.channels.mask.stats().bytes_total(),
                self.channels.mask.stats().peak_bytes,
            ),
            (
                "Back Projections",
                self.channels.scores.stats().bytes_total(),
                self.channels.scores.stats().peak_bytes,
            ),
            (
                "Model Locations",
                self.channels.locations.stats().bytes_total(),
                self.channels.locations.stats().peak_bytes,
            ),
        ]
    }

    /// Total peak payload bytes across the five channels — the tenant's
    /// channel-memory high-water figure the fleet rollup sums.
    #[must_use]
    pub fn peak_channel_bytes(&self) -> usize {
        self.channel_bytes().iter().map(|&(_, _, peak)| peak).sum()
    }

    /// Peak live occupancy observed across all channels (validates the
    /// paper's claim that a fixed schedule bounds channel occupancy).
    #[must_use]
    pub fn peak_channel_occupancy(&self) -> usize {
        [
            self.channels.frames.stats().peak_live,
            self.channels.hist.stats().peak_live,
            self.channels.mask.stats().peak_live,
            self.channels.scores.stats().peak_live,
            self.channels.locations.stats().peak_live,
        ]
        .into_iter()
        .max()
        .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_builds_with_six_tasks_in_graph_order() {
        let app = TrackerApp::build(&TrackerConfig::small(2, 4), None);
        assert_eq!(app.tasks.len(), 6);
        let g = taskgraph::builders::color_tracker();
        for (i, t) in app.tasks.iter().enumerate() {
            assert_eq!(t.name(), g.task(taskgraph::TaskId(i)).name, "task {i}");
        }
    }

    #[test]
    fn app_builds_recorder_only_when_asked() {
        let cfg = TrackerConfig::small(2, 4);
        let app = TrackerApp::build(&cfg, None);
        assert!(app.recorder.is_none(), "trace: None attaches no recorder");

        let mut cfg = TrackerConfig::small(2, 4);
        cfg.trace = Some(TraceMode::Ring(256));
        let app = TrackerApp::build(&cfg, None);
        let rec = app.recorder.as_ref().expect("trace: Some builds one");
        assert_eq!(rec.mode(), TraceMode::Ring(256));
        let checks = app.channel_checks(3);
        assert_eq!(checks.len(), 5);
        assert!(checks.iter().all(|c| c.schedule_bound == 3));
        let caps: Vec<u32> = checks.iter().map(|c| c.capacity).collect();
        assert_eq!(caps, [8, 8, 8, 1, 8], "Back Projections holds one item");
    }

    #[test]
    fn app_with_pool_and_controller() {
        let mut cfg = TrackerConfig::small(2, 4);
        cfg.pool_workers = 2;
        let mut table = std::collections::BTreeMap::new();
        table.insert(0, (1, 1));
        let c = Arc::new(RegimeController::new(2, 2, table).unwrap());
        let app = TrackerApp::build(&cfg, Some(c));
        assert!(app.controller.is_some());
    }
}
