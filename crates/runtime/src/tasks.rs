//! The tracker's task bodies: the five stages of Fig. 2 implemented over
//! STM connections, executable by either executor.
//!
//! Every transform stage (T2–T5) has the shape of a Stampede task (§2): get
//! the frame's inputs from STM channels, compute, put the output. One
//! generic body, `Transform<K>`, runs that shape for all four; a stage
//! contributes only its `Kernel` — what it fetches, what it computes, and
//! how its input frontiers advance. The digitizer (no input) and the sink
//! (no output) keep bodies of their own.
//!
//! Bodies take `&self` and are `Sync`: the paper observes that unlike a
//! pthread, "we can execute the same thread operating on multiple
//! processors concurrently as long as they operate on different frames of
//! data" — so one body may have several in-flight timestamps. Garbage
//! collection under that concurrency uses a shared cursor: frontiers
//! advance only over the *contiguous prefix* of completed timestamps, so an
//! in-flight older instance can never lose its inputs to a younger one.
//!
//! Every body is panic-free on the steady-state frame path. Each stage
//! carries a `StageCtx` — its [`Stage`] plus the app's one run context —
//! that routes STM faults, missed latency budgets, and injected faults into
//! the degradation ladder of [`crate::error`]: the frame is dropped, the
//! cursor commits, frontiers advance, and the stream keeps flowing. Only
//! genuine end-of-stream stops a task.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::bounded;
use obs::{Recorder, SpanKind};
use parking_lot::Mutex;

use stm::{
    Channel, GetError, GetOk, InputConn, MissReason, OutputConn, PutError, Timestamp, TsSpec,
};
use vision::detect::{join_partials, PartialScores};
use vision::peak::detected_count;
use vision::{
    detect_chunks, peak_detection, target_detection_chunk, BitMask, ColorHist, ComputeBackend,
    DetectChunk, Frame, ModelLocation, ScoreMap,
};

use crate::app::{SharedResources, TrackerConfig};
use crate::error::{RuntimeError, RuntimeHealth, Stage};
use crate::faults::FaultInjector;
use crate::frame_pool::{Pooled, PooledFrame, PooledMask};
use crate::measure::Measurements;
use crate::pool::{PoolClosed, WorkerPool};
use crate::regime_rt::RegimeController;

/// Signals that a task's stream is finished (channel closed or frame budget
/// exhausted).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Stop;

/// How a frame-path fault concludes: the whole task stops (genuine end of
/// stream), or exactly this frame is skipped and the stream continues (the
/// drop-the-frame rung of the degradation ladder).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum FrameFault {
    Stop,
    Skip,
}

/// Default per-frame latency budget when fault injection is on but no
/// explicit deadline was configured: generous for test-sized frames, yet
/// bounded, so an upstream drop cascades as clean deadline skips instead of
/// deadlocking downstream stages.
const DEFAULT_FAULT_DEADLINE: Duration = Duration::from_millis(400);

/// The run-wide handles every stage of one app shares, built once per app:
/// the health ledger, the measurement store, the deadline budget, the
/// fault injector, the span recorder, the compute backend, the
/// record/replay tap, and the app's [`SharedResources`] (pool, freelists,
/// boost/halt/shed flags, class).
pub(crate) struct RunCtx {
    pub(crate) health: Arc<RuntimeHealth>,
    pub(crate) measure: Arc<Measurements>,
    /// Bound on every input wait: a frame whose inputs miss it is skipped
    /// instead of back-pressuring the whole pipeline.
    deadline: Option<Duration>,
    faults: Option<Arc<FaultInjector>>,
    /// Every STM get/put, compute section, skip and commit of every stage
    /// is reported into it.
    pub(crate) recorder: Option<Recorder>,
    /// The tier every stage's kernels dispatch through.
    backend: &'static dyn ComputeBackend,
    /// Record/replay tap: every nondeterministic event a stage settles
    /// (digitized frame, skip, sink commit) is mirrored into it. The tap
    /// rides the same funnel the recorder does, so the recording is exact
    /// by construction — there is no second code path to drift.
    tap: Option<Arc<replay::RecordTap>>,
    pub(crate) shared: SharedResources,
}

impl RunCtx {
    /// The run context of an app configured by `cfg`, over `shared`.
    pub(crate) fn new(cfg: &TrackerConfig, shared: SharedResources) -> Self {
        let health = Arc::new(RuntimeHealth::default());
        let measure = Arc::new(
            Measurements::new(cfg.n_frames as usize)
                .with_stages(Stage::ALL.len())
                .with_health(Arc::clone(&health)),
        );
        RunCtx {
            health,
            measure,
            // The deadline watchdog: explicit budget wins; injecting faults
            // without one gets a bounded default so upstream drops cascade
            // as recorded deadline skips instead of wedging downstream gets.
            deadline: cfg
                .frame_deadline
                .or(cfg.faults.as_ref().map(|_| DEFAULT_FAULT_DEADLINE)),
            faults: cfg.faults.clone(),
            recorder: cfg.trace.map(|mode| Recorder::new(mode, Stage::names())),
            backend: cfg.backend.get(),
            tap: cfg.record.clone(),
            shared,
        }
    }
}

/// One stage's view of the run: its identity, for fault attribution and
/// span stage ids, and the app's [`RunCtx`].
///
/// All STM traffic of a task body goes through [`StageCtx`] so the
/// degradation policy lives in exactly one place: end-of-stream errors stop
/// the task, everything else drops one frame and is recorded. The same
/// funnel gives observability a single seam: every `get`/`put` emits a
/// span, every skip an instant, with zero cost when tracing is off.
pub(crate) struct StageCtx {
    stage: Stage,
    run: Arc<RunCtx>,
}

impl StageCtx {
    /// Stage `stage`'s context in the run `run`.
    pub(crate) fn new(stage: Stage, run: &Arc<RunCtx>) -> Self {
        StageCtx {
            stage,
            run: Arc::clone(run),
        }
    }

    /// The compute backend this stage's kernels dispatch through.
    fn backend(&self) -> &'static dyn ComputeBackend {
        self.run.backend
    }

    /// Submit `job` to `pool`, choosing the lane from the boost flag (which
    /// outranks the class) or the standing priority class, and run it
    /// inline when the pool is closed (shutdown race: correctness over
    /// parallelism).
    fn submit_or_run(&self, pool: &WorkerPool<ChunkJob>, job: ChunkJob) {
        let shared = &self.run.shared;
        let res = if shared.boost.load(Ordering::Relaxed) {
            pool.submit_urgent(job)
        } else {
            pool.submit_class(job, shared.class)
        };
        if let Err(PoolClosed(job)) = res {
            job.run(); // pool unavailable: compute inline
        }
    }

    /// The shared health ledger.
    fn health(&self) -> &Arc<RuntimeHealth> {
        &self.run.health
    }

    /// A clone of the run's recorder, when one is attached and actually
    /// keeping spans — pool jobs carry this to record chunk spans on worker
    /// threads.
    fn recorder(&self) -> Option<Recorder> {
        self.run.recorder.as_ref().filter(|r| r.enabled()).cloned()
    }

    /// Epoch-relative clock read for span endpoints; `None` when tracing is
    /// off, so callers skip span bookkeeping entirely.
    fn rec_now(&self) -> Option<u64> {
        self.run
            .recorder
            .as_ref()
            .filter(|r| r.enabled())
            .map(Recorder::now_ns)
    }

    /// Record a duration span from `t0` (a [`rec_now`](Self::rec_now) read)
    /// to now. A `None` start is tracing-off: nothing recorded.
    fn rec_span(&self, kind: SpanKind, ts: u64, chunk: Option<(u16, u16)>, t0: Option<u64>) {
        if let (Some(r), Some(t0)) = (&self.run.recorder, t0) {
            let now = r.now_ns();
            r.span(kind, self.stage.index(), ts, chunk, t0, now);
        }
    }

    /// Record an instantaneous event stamped now (no-op when tracing is
    /// off).
    fn rec_instant(&self, kind: SpanKind, ts: u64, chunk: Option<(u16, u16)>) {
        if let Some(r) = self.run.recorder.as_ref().filter(|r| r.enabled()) {
            r.instant(kind, self.stage.index(), ts, chunk);
        }
    }

    /// Record into the tap that this stage skipped frame `ts` (no-op when
    /// no tap is attached). Called on every skip path of the degradation
    /// ladder, so the recording captures the *complete* set of `(stage,
    /// frame)` coordinates replay must re-inject.
    fn tap_skip(&self, ts: u64) {
        if let Some(t) = &self.run.tap {
            t.record_skip(self.stage.index(), ts);
        }
    }

    /// Record one digitized frame's pixels into the tap (digitizer only).
    fn tap_frame(&self, ts: u64, frame: &Frame) {
        if let Some(t) = &self.run.tap {
            t.record_frame(ts, frame);
        }
    }

    /// Record a sink commit — the frame, its detected count, and the
    /// content hash of its model locations — into the tap (sink only).
    fn tap_commit(&self, ts: u64, count: u32, locs: &[ModelLocation]) {
        if let Some(t) = &self.run.tap {
            t.record_commit(ts, count, replay::location_hash(locs));
        }
    }

    /// Record that this stage finished its work on frame `ts` into the
    /// run's per-stage marks.
    fn mark_stage(&self, ts: u64) {
        self.run.measure.mark_stage(self.stage.index() as usize, ts);
    }

    /// Frame entry hook: applies any injected straggler delay.
    fn begin(&self, ts: Timestamp) {
        if let Some(f) = &self.run.faults {
            f.delay(self.stage, ts.0);
        }
    }

    /// Run `work` as frame `ts`'s compute section, recorded as the stage's
    /// `Compute` span.
    fn compute<R>(&self, ts: Timestamp, work: impl FnOnce() -> R) -> R {
        let t0 = self.rec_now();
        let out = work();
        self.rec_span(SpanKind::Compute, ts.0, None, t0);
        out
    }

    /// The falsified regime observation for `ts`, if one is injected.
    fn misread(&self, ts: u64) -> Option<u32> {
        self.run.faults.as_ref().and_then(|f| f.misread(ts))
    }

    /// One STM `get` under the degradation policy. End-of-stream errors map
    /// to [`FrameFault::Stop`]; a missed deadline or an unexpected error
    /// (including an injected one) records a [`RuntimeError`] and maps to
    /// [`FrameFault::Skip`]. This replaces the historical
    /// `panic!("unexpected STM error …")` on the live path.
    fn get<T>(&self, conn: &InputConn<T>, ts: Timestamp) -> Result<GetOk<T>, FrameFault> {
        let t0 = self.rec_now();
        let res = match self.run.deadline {
            Some(d) => conn.get_timeout(TsSpec::Exact(ts), d),
            None => conn.get(TsSpec::Exact(ts)),
        };
        match res {
            // An injected error fires only *after* the real get succeeded:
            // the item is then already in the channel (its producer's put
            // cannot race the skip's frontier advance), so a planned error
            // costs exactly one frame here — never a put rejection upstream.
            Ok(_)
                if self
                    .run
                    .faults
                    .as_ref()
                    .is_some_and(|f| f.stm_error(self.stage, ts.0)) =>
            {
                self.health().record(RuntimeError::StmGet {
                    stage: self.stage,
                    ts: ts.0,
                    err: GetError::Unsatisfiable(MissReason::AlreadyConsumed),
                });
                self.rec_instant(SpanKind::Skip, ts.0, None);
                self.tap_skip(ts.0);
                Err(FrameFault::Skip)
            }
            Ok(v) => {
                self.rec_span(SpanKind::Get, ts.0, None, t0);
                Ok(v)
            }
            // Channel closed, or a sibling instance already settled this
            // frame during shutdown: the stream has ended here.
            Err(e) if e.is_end_of_stream() => Err(FrameFault::Stop),
            // A timed-out wait and an upstream skip mark conclude the same
            // way: the input for this frame isn't coming, drop it and move
            // on. The mark is the load-independent fast path (no wall-clock
            // budget burned); both are accounted as deadline skips so fault
            // arithmetic is identical whichever signal arrives first.
            Err(GetError::Timeout | GetError::Unsatisfiable(MissReason::Skipped)) => {
                self.health().record(RuntimeError::DeadlineExceeded {
                    stage: self.stage,
                    ts: ts.0,
                });
                self.rec_instant(SpanKind::Skip, ts.0, None);
                self.tap_skip(ts.0);
                Err(FrameFault::Skip)
            }
            Err(e) => {
                self.health().record(RuntimeError::StmGet {
                    stage: self.stage,
                    ts: ts.0,
                    err: e,
                });
                self.rec_instant(SpanKind::Skip, ts.0, None);
                self.tap_skip(ts.0);
                Err(FrameFault::Skip)
            }
        }
    }

    /// Wait, off the ledger, until `conn`'s producer has settled frame `ts`:
    /// put it, skip-marked it, or closed the channel. The wait ends with
    /// the one deadline budget that started at `since`, so a skip that
    /// already burned the budget (a timed-out get) waits no further.
    /// Whatever the outcome, the frame itself is already being skipped by
    /// the caller.
    fn await_settled<T>(&self, conn: &InputConn<T>, ts: Timestamp, since: Instant) {
        let _ = match self.run.deadline {
            Some(d) => match d.checked_sub(since.elapsed()) {
                Some(left) if !left.is_zero() => conn.get_timeout(TsSpec::Exact(ts), left),
                _ => return,
            },
            None => conn.get(TsSpec::Exact(ts)),
        };
    }

    /// One STM `put` under the degradation policy: a closed channel stops
    /// the task; a rejected late put (straggler overtaken by the watchdog,
    /// or duplicate) drops the frame and is recorded.
    fn put<T>(&self, out: &OutputConn<T>, ts: Timestamp, value: T) -> Result<(), FrameFault> {
        let t0 = self.rec_now();
        match out.put(ts, value) {
            Ok(()) => {
                self.rec_span(SpanKind::Put, ts.0, None, t0);
                Ok(())
            }
            Err(PutError::Closed) => Err(FrameFault::Stop),
            Err(e) => {
                self.health().record(RuntimeError::StmPut {
                    stage: self.stage,
                    ts: ts.0,
                    err: e,
                });
                self.rec_instant(SpanKind::Skip, ts.0, None);
                self.tap_skip(ts.0);
                Err(FrameFault::Skip)
            }
        }
    }
}

/// A schedulable task body: process one timestamp, or one chunk of it.
pub trait TaskBody: Send + Sync {
    /// Diagnostic name.
    fn name(&self) -> &str;
    /// Process timestamp `ts`. For data-parallel tasks under an explicit
    /// schedule, `chunk = Some((index, count))` processes one chunk; the
    /// body joins internally when the last chunk of a timestamp lands.
    fn process(&self, ts: Timestamp, chunk: Option<(u32, u32)>) -> Result<(), Stop>;
}

/// Tracks the contiguous prefix of completed timestamps across concurrent
/// instances of one task.
#[derive(Debug, Default)]
pub(crate) struct SharedCursor {
    inner: Mutex<CursorInner>,
}

#[derive(Debug, Default)]
struct CursorInner {
    next: u64,
    pending: BTreeSet<u64>,
}

impl SharedCursor {
    /// Mark `ts` complete; returns the new contiguous prefix end (all
    /// timestamps below it are complete).
    pub(crate) fn commit(&self, ts: u64) -> u64 {
        let mut g = self.inner.lock();
        g.pending.insert(ts);
        loop {
            let n = g.next;
            if g.pending.remove(&n) {
                g.next += 1;
            } else {
                break;
            }
        }
        g.next
    }
}

/// Coordinates end-of-stream for a task with concurrent instances: the
/// task's output closes only once (a) some instance has observed its input
/// closed at timestamp `c`, and (b) every instance below `c` has finished.
/// Assumes contiguous upstream streams (frame `c` missing ⇒ nothing above
/// `c` exists), which the digitizer guarantees.
#[derive(Debug, Default)]
pub(crate) struct CloseGate {
    closed_at: Mutex<Option<u64>>,
}

impl CloseGate {
    /// Record that instance `ts` found the input stream closed.
    pub(crate) fn mark_closed(&self, ts: u64) {
        let mut g = self.closed_at.lock();
        *g = Some(g.map_or(ts, |c| c.min(ts)));
    }

    /// Whether the output should close, given the contiguous prefix of
    /// finished instances.
    #[must_use]
    pub(crate) fn should_close(&self, prefix: u64) -> bool {
        self.closed_at.lock().is_some_and(|c| prefix > c)
    }
}

/// The output side of a transform stage (T2–T5): the connection it puts
/// into, the channel it closes at end of stream, and the commit
/// bookkeeping its concurrent instances share.
struct StageOut<T> {
    conn: OutputConn<T>,
    chan: Channel<T>,
    cursor: SharedCursor,
    gate: CloseGate,
}

impl<T> StageOut<T> {
    fn new(chan: Channel<T>) -> Self {
        StageOut {
            conn: chan.attach_output(),
            chan,
            cursor: SharedCursor::default(),
            gate: CloseGate::default(),
        }
    }

    /// Conclude instance `ts`, however its frame went: a computed value is
    /// put; a fault met on the way, or a refused put, lands on the
    /// degradation ladder. End of stream stops the instance, and the output
    /// closes once every instance below it has settled. Any other fault
    /// skip-marks the frame, so consumers learn now that it is not coming.
    /// Unless it stops, the instance commits and `advance` moves the
    /// stage's input frontiers to the contiguous prefix. `held` (what the
    /// instance fetched) is dropped only after `advance` returns: dropped
    /// earlier, it would leave the GC that `advance` runs as the last owner
    /// of ~1 MiB frames, freeing them under the channel lock.
    fn settle<H>(
        &self,
        ctx: &StageCtx,
        ts: Timestamp,
        result: Result<T, FrameFault>,
        held: H,
        advance: impl FnOnce(Timestamp),
    ) -> Result<(), Stop> {
        let settled = result.and_then(|value| ctx.put(&self.conn, ts, value));
        match settled {
            Ok(()) => ctx.mark_stage(ts.0),
            Err(FrameFault::Skip) => self.conn.mark_skipped(ts),
            Err(FrameFault::Stop) => self.gate.mark_closed(ts.0),
        }
        let stop = settled == Err(FrameFault::Stop);
        let prefix = self.cursor.commit(ts.0);
        if !stop {
            advance(Timestamp(prefix));
        }
        if self.gate.should_close(prefix) {
            self.chan.close();
        }
        drop(held);
        if stop {
            Err(Stop)
        } else {
            Ok(())
        }
    }
}

/// What one transform stage (T2–T5) does with a frame; [`Transform`] runs
/// it through the stage's context and output.
pub(crate) trait Kernel: Send + Sync {
    /// A whole frame's inputs, as fetched.
    type In;
    /// What a fetch that failed part-way had already taken.
    type Partial;
    /// The value the stage puts.
    type Out: Send + Sync;

    /// Get frame `ts`'s inputs. A fetch that fails after taking an input
    /// returns it beside the fault, so that it, too, is dropped only after
    /// the frontiers advance.
    fn fetch(&self, ctx: &StageCtx, ts: Timestamp)
        -> Result<Self::In, (FrameFault, Self::Partial)>;

    /// Frame `ts`'s output.
    fn compute(&self, ctx: &StageCtx, ts: Timestamp, input: &Self::In) -> Self::Out;

    /// Move the input frontiers to `prefix`, the contiguous prefix of
    /// settled frames.
    fn advance(&self, prefix: Timestamp);

    /// Chunk `(index, count)` of frame `ts` under an explicit schedule,
    /// given this instance's fetch: `None` while other chunks of the frame
    /// are outstanding, the frame's result from the chunk that completes
    /// it. Only a data-parallel kernel is placed in chunks; any other
    /// computes the whole frame.
    fn compute_chunk(
        &self,
        ctx: &StageCtx,
        ts: Timestamp,
        _chunk: (u32, u32),
        input: Result<&Self::In, FrameFault>,
    ) -> Option<Result<Self::Out, FrameFault>> {
        Some(input.map(|i| ctx.compute(ts, || self.compute(ctx, ts, i))))
    }
}

/// The one body of T2–T5: begin the frame, fetch its inputs, compute,
/// settle through the output.
pub(crate) struct Transform<K: Kernel> {
    kernel: K,
    out: StageOut<K::Out>,
    ctx: StageCtx,
}

impl<K: Kernel> Transform<K> {
    /// Run `kernel` under `ctx`, producing into `out_chan`.
    pub(crate) fn new(kernel: K, out_chan: Channel<K::Out>, ctx: StageCtx) -> Self {
        Transform {
            kernel,
            out: StageOut::new(out_chan),
            ctx,
        }
    }
}

impl<K: Kernel> TaskBody for Transform<K> {
    fn name(&self) -> &str {
        self.ctx.stage.name()
    }

    fn process(&self, ts: Timestamp, chunk: Option<(u32, u32)>) -> Result<(), Stop> {
        let ctx = &self.ctx;
        ctx.begin(ts);
        let fetched = self.kernel.fetch(ctx, ts);
        let input = fetched.as_ref().map_err(|&(fault, _)| fault);
        let result = match chunk {
            None => input.map(|i| ctx.compute(ts, || self.kernel.compute(ctx, ts, i))),
            Some(chunk) => match self.kernel.compute_chunk(ctx, ts, chunk, input) {
                Some(result) => result,
                // Another instance completes the frame and settles it.
                None => return Ok(()),
            },
        };
        self.out.settle(ctx, ts, result, fetched, |prefix| {
            self.kernel.advance(prefix)
        })
    }
}

// ---------------------------------------------------------------------
// T1 — Digitizer
// ---------------------------------------------------------------------

/// T1: renders synthetic frames at a fixed period (the NTSC camera
/// stand-in). The period is the hand-tuning knob of §3.1.
pub(crate) struct DigitizerTask {
    scene: vision::Scene,
    out: OutputConn<PooledFrame>,
    out_chan: Channel<PooledFrame>,
    period: Duration,
    n_frames: u64,
    epoch: Mutex<Option<Instant>>,
    ctx: StageCtx,
    /// Tracks finished instances so the stream closes only after every
    /// frame below `n_frames` has actually been put — concurrent instances
    /// (masters running ahead under rotation) must not cut earlier frames
    /// off.
    cursor: SharedCursor,
    /// First frame index at which the run's halt flag was observed: the
    /// effective end of stream once a detach lands (`u64::MAX` = never
    /// halted).
    halt_at: AtomicU64,
    /// Replay source: when set, the digitizer plays back recorded pixels
    /// instead of rendering, skips the frames the recorded digitizer
    /// skipped, and runs unpaced (virtual time) — the replay side of
    /// `crates/replay`.
    source: Option<Arc<replay::ReplaySource>>,
}

impl DigitizerTask {
    /// Create the digitizer, producing into `out_chan` under `ctx`.
    pub(crate) fn new(
        scene: vision::Scene,
        out_chan: Channel<PooledFrame>,
        period: Duration,
        n_frames: u64,
        source: Option<Arc<replay::ReplaySource>>,
        ctx: StageCtx,
    ) -> Self {
        DigitizerTask {
            scene,
            out: out_chan.attach_output(),
            out_chan,
            period,
            n_frames,
            epoch: Mutex::new(None),
            ctx,
            cursor: SharedCursor::default(),
            halt_at: AtomicU64::new(u64::MAX),
            source,
        }
    }

    /// The effective end of stream: `n_frames`, or the first frame at which
    /// a detach was observed, whichever is lower.
    fn effective_end(&self) -> u64 {
        self.n_frames.min(self.halt_at.load(Ordering::Relaxed))
    }

    /// Record instance `ts` done; close the stream once the contiguous
    /// prefix covers every frame this digitizer will ever produce.
    fn commit_and_maybe_close(&self, ts: u64) {
        let prefix = self.cursor.commit(ts);
        if prefix >= self.effective_end() {
            // End of stream (or injected failure, or lifecycle drain):
            // closing the channel cascades shutdown through every
            // downstream blocking get.
            self.out_chan.close();
        }
    }
}

impl TaskBody for DigitizerTask {
    fn name(&self) -> &str {
        self.ctx.stage.name()
    }

    fn process(&self, ts: Timestamp, _chunk: Option<(u32, u32)>) -> Result<(), Stop> {
        let run = &self.ctx.run;
        if run.shared.halt.load(Ordering::Relaxed) {
            // A detach landed: pin the effective end of stream to the first
            // frame that observed it. Frames below it are already put (or
            // in flight) and drain normally; this and later frames stop.
            self.halt_at.fetch_min(ts.0, Ordering::Relaxed);
        }
        if ts.0 >= self.effective_end() {
            self.commit_and_maybe_close(ts.0);
            return Err(Stop);
        }
        self.ctx.begin(ts);
        if self.source.is_none() {
            // Replay runs unpaced (virtual time); only a live camera waits
            // for its period.
            let epoch = *self.epoch.lock().get_or_insert_with(Instant::now);
            let target = epoch + self.period * ts.0 as u32;
            let now = Instant::now();
            if target > now {
                std::thread::sleep(target - now);
            }
        }
        if run.shared.shed.load(Ordering::Relaxed) {
            // Shed policy: skip-commit without rendering. The skip mark
            // cascades downstream instantly (no deadline budget burned) and
            // the tally is a policy counter, not a fault.
            //
            // A shedding stream must also *yield*: with a period below the
            // floor the skip loop would otherwise spin at µs rate, burning
            // the core it was asked to vacate and inverting the policy's
            // intent. Pace skips to the floor so shed capacity actually
            // returns to the neighbors.
            const SHED_PACE_FLOOR: Duration = Duration::from_millis(1);
            if self.period < SHED_PACE_FLOOR {
                std::thread::sleep(SHED_PACE_FLOOR - self.period);
            }
            run.health.record_load_shed();
            run.measure.mark_shed(ts.0);
            self.ctx.rec_instant(SpanKind::Skip, ts.0, None);
            self.ctx.tap_skip(ts.0);
            self.out.mark_skipped(ts);
            self.commit_and_maybe_close(ts.0);
            return Ok(());
        }
        let rendered = self.ctx.compute(ts, || {
            // `render_into` and `play_into` overwrite every pixel, so a
            // recycled buffer produces bit-identical frames.
            let mut buf = match &run.shared.frame_pool {
                Some(pool) => pool.take_or(|| Frame::new(self.scene.width, self.scene.height)),
                None => Pooled::unpooled(Frame::new(self.scene.width, self.scene.height)),
            };
            match &self.source {
                Some(src) if src.is_skipped(ts.0) || !src.play_into(ts.0, &mut buf) => None,
                Some(_) => Some(buf),
                None => {
                    self.ctx.backend().render_into(&self.scene, ts.0, &mut buf);
                    Some(buf)
                }
            }
        });
        let Some(frame) = rendered else {
            // Replay: a frame the recorded digitizer skipped — or never
            // produced — is re-marked as a skip, pinning the replayed
            // stream to the recorded one.
            self.ctx.rec_instant(SpanKind::Skip, ts.0, None);
            self.ctx.tap_skip(ts.0);
            self.out.mark_skipped(ts);
            self.commit_and_maybe_close(ts.0);
            return Ok(());
        };
        // Tap before the put hands the buffer over; a put that is then
        // refused also taps a digitizer skip, which replay lets outrank
        // the frame.
        self.ctx.tap_frame(ts.0, &frame);
        match self.ctx.put(&self.out, ts, frame) {
            Ok(()) => {
                run.measure.mark_digitized(ts.0);
                self.ctx.rec_instant(SpanKind::Digitize, ts.0, None);
                self.ctx.mark_stage(ts.0);
                self.commit_and_maybe_close(ts.0);
                Ok(())
            }
            Err(FrameFault::Stop) => Err(Stop),
            Err(FrameFault::Skip) => {
                // The frame was refused (recorded); the stream continues.
                // The skip mark tells blocked consumers immediately that
                // this frame is never coming.
                self.out.mark_skipped(ts);
                self.commit_and_maybe_close(ts.0);
                Ok(())
            }
        }
    }
}

// ---------------------------------------------------------------------
// T2 — Histogram
// ---------------------------------------------------------------------

/// T2: whole-image color histogram → "Color Model". Always serial: T4 is
/// the graph's only data-parallel task, and a whole-frame histogram costs
/// less than one worker-pool round trip.
pub(crate) struct Histogram {
    pub(crate) input: InputConn<PooledFrame>,
}

impl Kernel for Histogram {
    type In = GetOk<PooledFrame>;
    type Partial = ();
    type Out = ColorHist;

    fn fetch(&self, ctx: &StageCtx, ts: Timestamp) -> Result<Self::In, (FrameFault, ())> {
        ctx.get(&self.input, ts).map_err(|fault| (fault, ()))
    }

    fn compute(&self, ctx: &StageCtx, _ts: Timestamp, frame: &Self::In) -> ColorHist {
        ctx.backend().image_histogram(&frame.value)
    }

    fn advance(&self, prefix: Timestamp) {
        self.input.advance_frontier(prefix);
    }
}

// ---------------------------------------------------------------------
// T3 — Change Detection
// ---------------------------------------------------------------------

/// T3: frame differencing against timestamp `ts − 1`, read from the same
/// STM channel — no private state, so instances at different timestamps can
/// run concurrently.
pub(crate) struct Change {
    pub(crate) input: InputConn<PooledFrame>,
    pub(crate) threshold: u16,
}

impl Kernel for Change {
    type In = (GetOk<PooledFrame>, Option<GetOk<PooledFrame>>);
    type Partial = Option<GetOk<PooledFrame>>;
    type Out = PooledMask;

    fn fetch(
        &self,
        ctx: &StageCtx,
        ts: Timestamp,
    ) -> Result<Self::In, (FrameFault, Self::Partial)> {
        let cur = ctx.get(&self.input, ts).map_err(|fault| (fault, None))?;
        let Some(p) = ts.prev() else {
            return Ok((cur, None));
        };
        match ctx.get(&self.input, p) {
            Ok(prev) => Ok((cur, Some(prev))),
            Err(fault) => Err((fault, Some(cur))),
        }
    }

    fn compute(&self, ctx: &StageCtx, _ts: Timestamp, (cur, prev): &Self::In) -> PooledMask {
        let frame: &Frame = &cur.value;
        // `change_detection_into` writes every word, so a recycled buffer
        // produces bit-identical masks.
        let mut mask = match &ctx.run.shared.mask_pool {
            Some(pool) => pool.take_or(|| BitMask::new(frame.width, frame.height)),
            None => Pooled::unpooled(BitMask::new(frame.width, frame.height)),
        };
        let prev = prev.as_ref().map(|g| &**g.value);
        ctx.backend()
            .change_detection_into(frame, prev, self.threshold, &mut mask);
        mask
    }

    /// Instance `ts` reads frame `ts − 1`: the frontier trails the prefix.
    fn advance(&self, prefix: Timestamp) {
        self.input
            .advance_frontier(Timestamp(prefix.0.saturating_sub(1)));
    }
}

// ---------------------------------------------------------------------
// T4 — Target Detection (data parallel)
// ---------------------------------------------------------------------

/// The three per-frame inputs of target detection.
pub(crate) type DetectInputs = (Arc<PooledFrame>, Arc<ColorHist>, Arc<PooledMask>);

/// One unit of work farmed to the worker pool in online mode: one T4
/// detection chunk, the pool's only job type.
pub struct ChunkJob {
    frame: Arc<PooledFrame>,
    hist: Arc<ColorHist>,
    mask: Arc<PooledMask>,
    models: Arc<Vec<ColorHist>>,
    chunk: DetectChunk,
    idx: usize,
    /// Frame timestamp and total chunk count, for span attribution.
    ts: u64,
    total: u16,
    /// Records a [`SpanKind::PoolChunk`] span on the worker thread.
    rec: Option<Recorder>,
    reply: crossbeam::channel::Sender<(usize, Vec<PartialScores>)>,
}

impl ChunkJob {
    /// Execute the chunk and send the partials back (the worker of Fig. 9).
    pub fn run(self) {
        let t0 = self.rec.as_ref().map(Recorder::now_ns);
        let partials = target_detection_chunk(
            &self.frame,
            &self.hist,
            &self.models,
            &self.mask,
            self.chunk,
        );
        if let (Some(r), Some(t0)) = (&self.rec, t0) {
            let now = r.now_ns();
            r.span(
                SpanKind::PoolChunk,
                Stage::Detect.index(),
                self.ts,
                Some((self.idx as u16, self.total)),
                t0,
                now,
            );
        }
        // The joiner may already have given up (executor shutdown).
        let _ = self.reply.send((self.idx, partials));
    }
}

/// Join state for one timestamp in scheduled-chunk mode.
#[derive(Default)]
pub(crate) struct PendingJoin {
    arrived: u32,
    /// Some chunk instance faulted: the frame is skip-committed at join
    /// time instead of published.
    abandoned: bool,
    partials: Vec<PartialScores>,
}

/// T4: Swain–Ballard target detection with regime-dependent decomposition.
pub(crate) struct Detect {
    pub(crate) in_frames: InputConn<PooledFrame>,
    pub(crate) in_hist: InputConn<ColorHist>,
    pub(crate) in_mask: InputConn<PooledMask>,
    pub(crate) models: Arc<Vec<ColorHist>>,
    pub(crate) width: usize,
    pub(crate) height: usize,
    /// Decomposition when no controller is attached (FP, MP).
    pub(crate) fixed_decomp: (u32, u32),
    /// Regime controller: "the splitter will look-up the decomposition for
    /// the current state from a pre-computed table" (Fig. 9 discussion).
    pub(crate) controller: Option<Arc<RegimeController>>,
    /// Per-timestamp join state in scheduled-chunk mode.
    pub(crate) pending: Mutex<HashMap<u64, PendingJoin>>,
}

/// What T4's fetch holds when it fails part-way: the frame, and the color
/// model if it got that far.
type DetectPartial = (Option<Arc<PooledFrame>>, Option<Arc<ColorHist>>);

impl Detect {
    fn current_decomp(&self) -> (u32, u32) {
        match &self.controller {
            Some(c) => c.current_decomp(),
            None => self.fixed_decomp,
        }
    }

    fn chunks(&self, (fp, mp): (u32, u32)) -> Vec<DetectChunk> {
        detect_chunks(
            self.width,
            self.height,
            self.models.len(),
            fp as usize,
            mp as usize,
        )
    }

    fn fetch_all(
        &self,
        ctx: &StageCtx,
        ts: Timestamp,
    ) -> Result<DetectInputs, (FrameFault, DetectPartial)> {
        let frame = ctx
            .get(&self.in_frames, ts)
            .map_err(|fault| (fault, (None, None)))?
            .value;
        let hist = match ctx.get(&self.in_hist, ts) {
            Ok(h) => h.value,
            Err(fault) => return Err((fault, (Some(frame), None))),
        };
        match ctx.get(&self.in_mask, ts) {
            Ok(m) => Ok((frame, hist, m.value)),
            Err(fault) => Err((fault, (Some(frame), Some(hist)))),
        }
    }
}

impl Kernel for Detect {
    type In = DetectInputs;
    type Partial = DetectPartial;
    type Out = Vec<ScoreMap>;

    fn fetch(
        &self,
        ctx: &StageCtx,
        ts: Timestamp,
    ) -> Result<DetectInputs, (FrameFault, DetectPartial)> {
        let since = Instant::now();
        let fetched = self.fetch_all(ctx, ts);
        if matches!(fetched, Err((FrameFault::Skip, _))) {
            // Skipping the frame advances all three input frontiers, and a
            // producer that has not settled the frame yet (put it or
            // skip-marked it) would then have its put rejected as late —
            // an unplanned drop on the ledger for a frame that was merely
            // microseconds behind. T2 and T3 start on a frame when T4 does
            // and T4 no longer trails them by a table build, so wait them
            // out first — but only for what is left of this frame's budget:
            // a producer stalled past it is the watchdog's case, and T5 is
            // already counting its own deadline on the next frame.
            ctx.await_settled(&self.in_hist, ts, since);
            ctx.await_settled(&self.in_mask, ts, since);
        }
        fetched
    }

    /// One whole activation: splitter, workers (or serial), joiner.
    fn compute(&self, ctx: &StageCtx, ts: Timestamp, inputs: &DetectInputs) -> Vec<ScoreMap> {
        let (frame, hist, mask) = inputs;
        let (fp, mp) = self.current_decomp();
        ctx.rec_instant(SpanKind::Decomp, ts.0, Some((fp as u16, mp as u16)));
        let chunks = self.chunks((fp, mp));
        let partials: Vec<PartialScores> = match (&ctx.run.shared.pool, chunks.len()) {
            (Some(pool), n) if n > 1 => {
                let (tx, rx) = bounded(n);
                let rec = ctx.recorder();
                for (idx, &c) in chunks.iter().enumerate() {
                    let job = ChunkJob {
                        frame: Arc::clone(frame),
                        hist: Arc::clone(hist),
                        mask: Arc::clone(mask),
                        models: Arc::clone(&self.models),
                        chunk: c,
                        idx,
                        ts: ts.0,
                        total: n as u16,
                        rec: rec.clone(),
                        reply: tx.clone(),
                    };
                    ctx.submit_or_run(pool, job);
                }
                drop(tx);
                // Indexed replies: a missing slot means the chunk's worker
                // panicked before sending — the joiner recomputes it inline
                // (degradation ladder rung 3), keeping the frame's output
                // bit-identical.
                let join_t0 = ctx.rec_now();
                let mut slots: Vec<Option<Vec<PartialScores>>> = (0..n).map(|_| None).collect();
                for (idx, p) in rx.iter() {
                    slots[idx] = Some(p);
                }
                ctx.rec_span(SpanKind::Join, ts.0, None, join_t0);
                let mut partials = Vec::new();
                for (idx, slot) in slots.into_iter().enumerate() {
                    match slot {
                        Some(p) => partials.extend(p),
                        None => {
                            ctx.health().record_chunk_recompute();
                            partials.extend(target_detection_chunk(
                                frame,
                                hist,
                                &self.models,
                                mask,
                                chunks[idx],
                            ));
                        }
                    }
                }
                partials
            }
            _ => chunks
                .iter()
                .flat_map(|&c| target_detection_chunk(frame, hist, &self.models, mask, c))
                .collect(),
        };
        join_partials(self.width, self.height, self.models.len(), partials)
    }

    fn advance(&self, prefix: Timestamp) {
        self.in_frames.advance_frontier(prefix);
        self.in_hist.advance_frontier(prefix);
        self.in_mask.advance_frontier(prefix);
    }

    /// One chunk under an explicit schedule; the last chunk joins. A
    /// faulted instance abandons the frame but still counts toward the
    /// join, so the frame concludes (skipped) instead of leaking pending
    /// state.
    fn compute_chunk(
        &self,
        ctx: &StageCtx,
        ts: Timestamp,
        (idx, count): (u32, u32),
        input: Result<&DetectInputs, FrameFault>,
    ) -> Option<Result<Vec<ScoreMap>, FrameFault>> {
        let input = match input {
            Err(FrameFault::Stop) => return Some(Err(FrameFault::Stop)),
            input => input.ok(),
        };
        let mut partials = Vec::new();
        let mut abandoned = input.is_none();
        if let Some((frame, hist, mask)) = input {
            let chunks = self.chunks(self.fixed_decomp);
            if chunks.len() != count as usize {
                // The schedule and the decomposition disagree: formerly an
                // assert, now one dropped frame.
                ctx.health().record(RuntimeError::ChunkMismatch {
                    ts: ts.0,
                    expected: count,
                    got: chunks.len() as u32,
                });
                abandoned = true;
            } else {
                let t0 = ctx.rec_now();
                partials =
                    target_detection_chunk(frame, hist, &self.models, mask, chunks[idx as usize]);
                ctx.rec_span(
                    SpanKind::Compute,
                    ts.0,
                    Some((idx as u16, count as u16)),
                    t0,
                );
            }
        }
        let join = {
            let mut pending = self.pending.lock();
            let entry = pending.entry(ts.0).or_default();
            entry.arrived += 1;
            entry.abandoned |= abandoned;
            entry.partials.extend(partials);
            if entry.arrived == count {
                pending.remove(&ts.0)
            } else {
                None
            }
        }?;
        Some(if join.abandoned {
            Err(FrameFault::Skip)
        } else {
            Ok(join_partials(
                self.width,
                self.height,
                self.models.len(),
                join.partials,
            ))
        })
    }
}

// ---------------------------------------------------------------------
// T5 — Peak Detection
// ---------------------------------------------------------------------

/// T5: peak detection over the back projections → "Model Locations".
pub(crate) struct Peak {
    pub(crate) input: InputConn<Vec<ScoreMap>>,
    pub(crate) min_score: f32,
}

impl Kernel for Peak {
    type In = GetOk<Vec<ScoreMap>>;
    type Partial = ();
    type Out = Vec<ModelLocation>;

    fn fetch(&self, ctx: &StageCtx, ts: Timestamp) -> Result<Self::In, (FrameFault, ())> {
        ctx.get(&self.input, ts).map_err(|fault| (fault, ()))
    }

    fn compute(&self, _ctx: &StageCtx, _ts: Timestamp, scores: &Self::In) -> Vec<ModelLocation> {
        peak_detection(&scores.value, self.min_score)
    }

    fn advance(&self, prefix: Timestamp) {
        self.input.advance_frontier(prefix);
    }
}

// ---------------------------------------------------------------------
// Sink — DECface update
// ---------------------------------------------------------------------

/// The graph's sink: consumes model locations (in the kiosk this drives
/// DECface's gaze), records completion, and feeds the regime controller
/// with the observed people count. An injected regime misread falsifies
/// only what the controller hears — the log keeps the true observations,
/// which is what makes misreads testable for output-invariance.
pub struct FaceTask {
    input: InputConn<Vec<ModelLocation>>,
    controller: Option<Arc<RegimeController>>,
    ctx: StageCtx,
    log: Mutex<Vec<(u64, Vec<ModelLocation>)>>,
    cursor: SharedCursor,
}

impl FaceTask {
    /// Create the sink task under `ctx`.
    pub(crate) fn new(
        input: InputConn<Vec<ModelLocation>>,
        controller: Option<Arc<RegimeController>>,
        ctx: StageCtx,
    ) -> Self {
        FaceTask {
            input,
            controller,
            ctx,
            log: Mutex::new(Vec::new()),
            cursor: SharedCursor::default(),
        }
    }

    /// `(timestamp, detected count)` per processed frame, in completion
    /// order.
    #[must_use]
    pub fn observations(&self) -> Vec<(u64, u32)> {
        self.log
            .lock()
            .iter()
            .map(|(ts, locs)| (*ts, detected_count(locs)))
            .collect()
    }

    /// `(timestamp, full model locations)` per processed frame, in
    /// completion order — the bit-identity witness used by the fault
    /// harness.
    #[must_use]
    pub fn locations(&self) -> Vec<(u64, Vec<ModelLocation>)> {
        self.log.lock().clone()
    }
}

impl TaskBody for FaceTask {
    fn name(&self) -> &str {
        self.ctx.stage.name()
    }

    fn process(&self, ts: Timestamp, _chunk: Option<(u32, u32)>) -> Result<(), Stop> {
        self.ctx.begin(ts);
        let locs = match self.ctx.get(&self.input, ts) {
            Ok(l) => l,
            Err(FrameFault::Stop) => return Err(Stop),
            Err(FrameFault::Skip) => {
                let prefix = self.cursor.commit(ts.0);
                self.input.advance_frontier(Timestamp(prefix));
                return Ok(());
            }
        };
        let count = self.ctx.compute(ts, || detected_count(&locs.value));
        self.ctx.run.measure.mark_completed(ts.0);
        self.ctx.rec_instant(SpanKind::Commit, ts.0, None);
        self.ctx.tap_commit(ts.0, count, &locs.value);
        self.ctx.mark_stage(ts.0);
        if let Some(c) = &self.controller {
            // A misread lies to the controller only; the log keeps truth.
            c.observe(self.ctx.misread(ts.0).unwrap_or(count));
        }
        self.log.lock().push((ts.0, (*locs.value).clone()));
        let prefix = self.cursor.commit(ts.0);
        self.input.advance_frontier(Timestamp(prefix));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use stm::ChannelBuilder;

    /// Stage `stage`'s context in a solo run configured by `cfg`.
    fn stage_ctx(stage: Stage, cfg: &TrackerConfig) -> StageCtx {
        let run = Arc::new(RunCtx::new(cfg, SharedResources::solo(cfg)));
        StageCtx::new(stage, &run)
    }

    fn small() -> TrackerConfig {
        TrackerConfig::small(1, 8)
    }

    #[test]
    fn shared_cursor_tracks_contiguous_prefix() {
        let c = SharedCursor::default();
        assert_eq!(c.commit(2), 0);
        assert_eq!(c.commit(1), 0);
        assert_eq!(c.commit(0), 3);
        assert_eq!(c.commit(4), 3);
        assert_eq!(c.commit(3), 5);
    }

    #[test]
    fn shared_cursor_is_thread_safe() {
        let c = Arc::new(SharedCursor::default());
        let handles: Vec<_> = (0..8u64)
            .map(|k| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for ts in (k..64).step_by(8) {
                        c.commit(ts);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.commit(64), 65);
    }

    #[test]
    fn ctx_get_maps_timeout_to_skip_and_records() {
        let chan: Channel<u32> = ChannelBuilder::new("t").capacity(4).build();
        let conn = chan.attach_input();
        let mut cfg = small();
        cfg.frame_deadline = Some(Duration::from_millis(5));
        let ctx = stage_ctx(Stage::Peak, &cfg);
        // Nothing was ever put: the deadline watchdog gives up and skips.
        let r = ctx.get(&conn, Timestamp(0));
        assert_eq!(r.err(), Some(FrameFault::Skip));
        let report = ctx.health().report();
        assert_eq!(report.deadline_skips, 1);
        assert_eq!(report.total_drops(), 1);
    }

    #[test]
    fn ctx_get_maps_closed_to_stop() {
        let chan: Channel<u32> = ChannelBuilder::new("t").capacity(4).build();
        let conn = chan.attach_input();
        chan.close();
        let ctx = stage_ctx(Stage::Peak, &small());
        let r = ctx.get(&conn, Timestamp(0));
        assert_eq!(r.err(), Some(FrameFault::Stop));
        assert!(
            ctx.health().report().is_clean(),
            "end-of-stream is not a fault"
        );
    }

    #[test]
    fn ctx_injected_stm_error_skips_and_records() {
        // The headline regression (tasks.rs once panicked here): an
        // unexpected STM error must drop the frame, not the process.
        let chan: Channel<u32> = ChannelBuilder::new("t").capacity(4).build();
        let out = chan.attach_output();
        let conn = chan.attach_input();
        out.put(Timestamp(0), 7).unwrap();
        let inj = FaultPlan::new().stm_error(Stage::Histogram, 0).build();
        let mut cfg = small();
        cfg.faults = Some(Arc::clone(&inj));
        let ctx = stage_ctx(Stage::Histogram, &cfg);
        assert_eq!(ctx.get(&conn, Timestamp(0)).err(), Some(FrameFault::Skip));
        assert_eq!(ctx.health().report().stm_get_drops, 1);
        // The fault fired once; the retry sees the real (healthy) channel.
        assert_eq!(*ctx.get(&conn, Timestamp(0)).unwrap().value, 7);
        assert_eq!(inj.injected().stm_errors, 1);
    }

    #[test]
    fn ctx_put_rejection_skips_and_records() {
        let chan: Channel<u32> = ChannelBuilder::new("t").capacity(4).build();
        let out = chan.attach_output();
        let ctx = stage_ctx(Stage::Change, &small());
        out.put(Timestamp(3), 1).unwrap();
        // Duplicate timestamp: rejected, recorded, stream continues.
        assert_eq!(ctx.put(&out, Timestamp(3), 2).err(), Some(FrameFault::Skip));
        assert_eq!(ctx.health().report().stm_put_drops, 1);
        // Closed channel: genuine stop.
        chan.close();
        assert_eq!(ctx.put(&out, Timestamp(4), 3).err(), Some(FrameFault::Stop));
    }

    #[test]
    fn settle_skips_to_the_prefix_and_the_last_instance_below_a_stop_closes() {
        let upstream: Channel<u32> = ChannelBuilder::new("in").capacity(8).build();
        let input = upstream.attach_input();
        let chan: Channel<u32> = ChannelBuilder::new("out").capacity(8).build();
        let reader = chan.attach_input();
        let out = StageOut::new(chan.clone());
        let ctx = stage_ctx(Stage::Peak, &small());
        let events = Mutex::new(Vec::new());
        let advance = |prefix: Timestamp| {
            input.advance_frontier(prefix);
            events.lock().push("advance");
        };
        struct Held<'a>(&'a Mutex<Vec<&'static str>>);
        impl Drop for Held<'_> {
            fn drop(&mut self) {
                self.0.lock().push("drop");
            }
        }

        // Skip at 1 while 0 is in flight: consumers are told at once, and
        // the frontier waits for the prefix. The fetched inputs outlive
        // the frontier advance.
        let r = out.settle(
            &ctx,
            Timestamp(1),
            Err(FrameFault::Skip),
            Held(&events),
            advance,
        );
        assert_eq!(r, Ok(()));
        assert_eq!(*events.lock(), ["advance", "drop"]);
        let miss = reader.try_get(TsSpec::Exact(Timestamp(1))).err();
        assert_eq!(miss.map(|m| m.reason), Some(MissReason::Skipped));
        assert_eq!(input.frontier(), Timestamp(0));
        assert_eq!(out.settle(&ctx, Timestamp(0), Ok(7), (), advance), Ok(()));
        assert_eq!(input.frontier(), Timestamp(2));
        assert_eq!(*reader.get(TsSpec::Exact(Timestamp(0))).unwrap().value, 7);

        // End of stream seen at 4 while 2 and 3 are unsettled: the output
        // stays open until the last of them settles.
        let r = out.settle(&ctx, Timestamp(4), Err(FrameFault::Stop), (), advance);
        assert_eq!(r, Err(Stop));
        assert!(!chan.is_closed());
        assert_eq!(out.settle(&ctx, Timestamp(3), Ok(9), (), advance), Ok(()));
        assert!(!chan.is_closed(), "frame 2 is still in flight");
        let r = out.settle(&ctx, Timestamp(2), Err(FrameFault::Skip), (), advance);
        assert_eq!(r, Ok(()));
        assert!(chan.is_closed(), "the last instance below the stop closes");
        assert!(ctx.health().report().is_clean());
    }

    #[test]
    fn a_fetch_that_fails_part_way_skips_and_drops_its_input_after_the_advance() {
        // A kernel with two inputs whose second is skip-marked at frame 1:
        // that frame's fetch has already taken its first input when it
        // fails. Consumers must learn of the skip, the frontier must wait
        // for the prefix, and the taken input must outlive the advance.
        type Events = Arc<Mutex<Vec<&'static str>>>;
        struct Taken {
            events: Events,
            _input: GetOk<u32>,
        }
        impl Drop for Taken {
            fn drop(&mut self) {
                self.events.lock().push("drop");
            }
        }
        struct Sum {
            a: InputConn<u32>,
            b: InputConn<u32>,
            events: Events,
        }
        impl Kernel for Sum {
            type In = (GetOk<u32>, GetOk<u32>);
            type Partial = Option<Taken>;
            type Out = u32;
            fn fetch(
                &self,
                ctx: &StageCtx,
                ts: Timestamp,
            ) -> Result<Self::In, (FrameFault, Self::Partial)> {
                let a = ctx.get(&self.a, ts).map_err(|fault| (fault, None))?;
                match ctx.get(&self.b, ts) {
                    Ok(b) => Ok((a, b)),
                    Err(fault) => {
                        let events = Arc::clone(&self.events);
                        Err((fault, Some(Taken { events, _input: a })))
                    }
                }
            }
            fn compute(&self, _: &StageCtx, _: Timestamp, (a, b): &Self::In) -> u32 {
                *a.value + *b.value
            }
            fn advance(&self, prefix: Timestamp) {
                self.a.advance_frontier(prefix);
                self.b.advance_frontier(prefix);
                self.events.lock().push("advance");
            }
        }

        let a: Channel<u32> = ChannelBuilder::new("a").capacity(8).build();
        let b: Channel<u32> = ChannelBuilder::new("b").capacity(8).build();
        let out: Channel<u32> = ChannelBuilder::new("out").capacity(8).build();
        let (a_out, b_out, reader) = (a.attach_output(), b.attach_output(), out.attach_input());
        let events = Events::default();
        let kernel = Sum {
            a: a.attach_input(),
            b: b.attach_input(),
            events: Arc::clone(&events),
        };
        let stage = Transform::new(kernel, out.clone(), stage_ctx(Stage::Detect, &small()));
        for ts in 0..2 {
            a_out.put(Timestamp(ts), 1).unwrap();
        }
        b_out.put(Timestamp(0), 2).unwrap();
        b_out.mark_skipped(Timestamp(1));

        // Frame 1 while 0 is in flight.
        assert_eq!(stage.process(Timestamp(1), None), Ok(()));
        assert_eq!(*events.lock(), ["advance", "drop"]);
        let miss = reader.try_get(TsSpec::Exact(Timestamp(1))).err();
        assert_eq!(miss.map(|m| m.reason), Some(MissReason::Skipped));
        assert_eq!(stage.kernel.a.frontier(), Timestamp(0));
        assert_eq!(stage.ctx.health().report().deadline_skips, 1);

        // Frame 0 completes the prefix.
        assert_eq!(stage.process(Timestamp(0), None), Ok(()));
        assert_eq!(*reader.get(TsSpec::Exact(Timestamp(0))).unwrap().value, 3);
        assert_eq!(stage.kernel.a.frontier(), Timestamp(2));
        assert_eq!(stage.kernel.b.frontier(), Timestamp(2));
    }
}
