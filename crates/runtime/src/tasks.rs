//! The tracker's task bodies: the five stages of Fig. 2 implemented over
//! STM connections, executable by either executor.
//!
//! Bodies take `&self` and are `Sync`: the paper observes that unlike a
//! pthread, "we can execute the same thread operating on multiple
//! processors concurrently as long as they operate on different frames of
//! data" — so one body may have several in-flight timestamps. Garbage
//! collection under that concurrency uses a [`SharedCursor`]: frontiers
//! advance only over the *contiguous prefix* of completed timestamps, so an
//! in-flight older instance can never lose its inputs to a younger one.
//!
//! Every body is panic-free on the steady-state frame path. Each stage
//! carries a [`StageCtx`] that routes STM faults, missed latency budgets,
//! and injected faults into the degradation ladder of [`crate::error`]:
//! the frame is dropped, the cursor commits, frontiers advance, and the
//! stream keeps flowing. Only genuine end-of-stream stops a task.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::bounded;
use obs::{Recorder, SpanKind};
use parking_lot::Mutex;

use stm::{
    Channel, GetError, GetOk, InputConn, MissReason, OutputConn, PutError, Timestamp, TsSpec,
};
use vision::detect::{merge_partials, PartialScores};
use vision::peak::detected_count;
use vision::{
    detect_chunks, peak_detection, target_detection_chunk, BitMask, ColorHist, ComputeBackend,
    DetectChunk, Frame, ModelLocation, ScoreMap,
};

use crate::adapt::{AdaptLoop, CostFeed, ReschedJob};
use crate::error::{RuntimeError, RuntimeHealth, Stage};
use crate::faults::FaultInjector;
use crate::frame_pool::{BufPool, Pooled, PooledFrame, PooledMask};
use crate::measure::Measurements;
use crate::pool::{PoolClosed, PriorityClass, WorkerPool};
use crate::regime_rt::RegimeController;

/// Signals that a task's stream is finished (channel closed or frame budget
/// exhausted).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Stop;

/// How a frame-path fault concludes: the whole task stops (genuine end of
/// stream), or exactly this frame is skipped and the stream continues (the
/// drop-the-frame rung of the degradation ladder).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum FrameFault {
    Stop,
    Skip,
}

/// Per-stage runtime context: the stage's identity for fault attribution,
/// the run's shared [`RuntimeHealth`] ledger, an optional per-frame latency
/// budget (the deadline watchdog), an optional [`FaultInjector`], an
/// optional span [`Recorder`], and an optional [`Measurements`] store for
/// per-stage marks.
///
/// All STM traffic of a task body goes through [`StageCtx`] so the
/// degradation policy lives in exactly one place: end-of-stream errors stop
/// the task, everything else drops one frame and is recorded. The same
/// funnel gives observability a single seam: every `get`/`put` emits a
/// span, every skip an instant, with zero cost when tracing is off.
#[derive(Clone)]
pub struct StageCtx {
    stage: Stage,
    health: Arc<RuntimeHealth>,
    deadline: Option<Duration>,
    faults: Option<Arc<FaultInjector>>,
    recorder: Option<Recorder>,
    measure: Option<Arc<Measurements>>,
    feed: Option<Arc<CostFeed>>,
    backend: &'static dyn ComputeBackend,
    /// When set (by the fleet monitor for a tenant behind on its deadline
    /// budget), this stage's pool jobs ride the urgent lane.
    boost: Option<Arc<AtomicBool>>,
    /// The tenant's standing priority class: picks the pool lane whenever
    /// the boost flag is not overriding it.
    class: PriorityClass,
    /// Record/replay tap: every nondeterministic event this stage settles
    /// (digitized frame, skip, sink commit) is mirrored into it. The tap
    /// rides the same funnel the recorder does, so the recording is exact
    /// by construction — there is no second code path to drift.
    tap: Option<Arc<replay::RecordTap>>,
}

impl StageCtx {
    /// A context for `stage` with a private health ledger, no deadline, and
    /// no fault injection — the default every task starts with.
    #[must_use]
    pub fn new(stage: Stage) -> Self {
        StageCtx {
            stage,
            health: Arc::new(RuntimeHealth::default()),
            deadline: None,
            faults: None,
            recorder: None,
            measure: None,
            feed: None,
            backend: vision::active(),
            boost: None,
            class: PriorityClass::default(),
            tap: None,
        }
    }

    /// Attach a record/replay tap; every skip this stage settles (and, for
    /// the digitizer and sink, every frame and commit) is recorded into it.
    #[must_use]
    pub fn with_tap(mut self, tap: Arc<replay::RecordTap>) -> Self {
        self.tap = Some(tap);
        self
    }

    /// Share the run-wide health ledger.
    #[must_use]
    pub fn with_health(mut self, health: Arc<RuntimeHealth>) -> Self {
        self.health = health;
        self
    }

    /// Bound every input wait by `deadline`; a frame whose inputs miss the
    /// budget is skipped instead of back-pressuring the whole pipeline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attach a deterministic fault injector.
    #[must_use]
    pub fn with_faults(mut self, faults: Arc<FaultInjector>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Attach a span recorder; every STM get/put, compute section, skip,
    /// and commit of this stage is reported into it.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Attach a measurement store for per-stage completion marks.
    #[must_use]
    pub fn with_measure(mut self, measure: Arc<Measurements>) -> Self {
        self.measure = Some(measure);
        self
    }

    /// Attach the adaptation loop's per-stage cost feed; every compute
    /// section reports its wall time into it.
    #[must_use]
    pub fn with_cost_feed(mut self, feed: Arc<CostFeed>) -> Self {
        self.feed = Some(feed);
        self
    }

    /// Select the compute backend this stage's kernels dispatch through.
    /// Defaults to [`vision::active`] (the fastest tier the host supports,
    /// overridable via `CDS_BACKEND`).
    #[must_use]
    pub fn with_backend(mut self, backend: &'static dyn ComputeBackend) -> Self {
        self.backend = backend;
        self
    }

    /// The compute backend this stage's kernels dispatch through.
    #[must_use]
    pub fn backend(&self) -> &'static dyn ComputeBackend {
        self.backend
    }

    /// Attach a weighted-fairness boost flag: while it reads `true`, this
    /// stage's pool jobs are submitted to the urgent lane. A fleet sets one
    /// flag per tenant and flips it from the monitor thread when that tenant
    /// falls behind its frame-deadline budget.
    #[must_use]
    pub fn with_boost(mut self, boost: Arc<AtomicBool>) -> Self {
        self.boost = Some(boost);
        self
    }

    /// Set the tenant's standing [`PriorityClass`]; the fleet assigns it at
    /// admission and every pool job of this stage rides that class's lane.
    #[must_use]
    pub fn with_class(mut self, class: PriorityClass) -> Self {
        self.class = class;
        self
    }

    /// Submit `job` to `pool`, choosing the lane from the boost flag (which
    /// outranks the class) or the standing priority class, and run it
    /// inline when the pool is closed (shutdown race: correctness over
    /// parallelism).
    pub fn submit_or_run(&self, pool: &WorkerPool<PoolJob>, job: PoolJob) {
        let urgent = self
            .boost
            .as_ref()
            .is_some_and(|b| b.load(Ordering::Relaxed));
        let res = if urgent {
            pool.submit_urgent(job)
        } else {
            pool.submit_class(job, self.class)
        };
        if let Err(PoolClosed(job)) = res {
            job.run(); // pool unavailable: compute inline
        }
    }

    /// The shared health ledger.
    #[must_use]
    pub fn health(&self) -> &Arc<RuntimeHealth> {
        &self.health
    }

    /// A clone of the attached recorder, when one is attached and actually
    /// keeping spans — pool jobs carry this to record chunk spans on worker
    /// threads.
    #[must_use]
    pub fn recorder(&self) -> Option<Recorder> {
        self.recorder.as_ref().filter(|r| r.enabled()).cloned()
    }

    /// Epoch-relative clock read for span endpoints; `None` when tracing is
    /// off, so callers skip span bookkeeping entirely.
    fn rec_now(&self) -> Option<u64> {
        self.recorder
            .as_ref()
            .filter(|r| r.enabled())
            .map(Recorder::now_ns)
    }

    /// Record a duration span from `t0` (a [`rec_now`](Self::rec_now) read)
    /// to now. A `None` start is tracing-off: nothing recorded.
    fn rec_span(&self, kind: SpanKind, ts: u64, chunk: Option<(u16, u16)>, t0: Option<u64>) {
        if let (Some(r), Some(t0)) = (&self.recorder, t0) {
            let now = r.now_ns();
            r.span(kind, self.stage.index(), ts, chunk, t0, now);
        }
    }

    /// Record an instantaneous event stamped now (no-op when tracing is
    /// off).
    fn rec_instant(&self, kind: SpanKind, ts: u64, chunk: Option<(u16, u16)>) {
        if let Some(r) = self.recorder.as_ref().filter(|r| r.enabled()) {
            r.instant(kind, self.stage.index(), ts, chunk);
        }
    }

    /// Record into the tap that this stage skipped frame `ts` (no-op when
    /// no tap is attached). Called on every skip path of the degradation
    /// ladder, so the recording captures the *complete* set of `(stage,
    /// frame)` coordinates replay must re-inject.
    fn tap_skip(&self, ts: u64) {
        if let Some(t) = &self.tap {
            t.record_skip(self.stage.index(), ts);
        }
    }

    /// Record one digitized frame's pixels into the tap (digitizer only).
    fn tap_frame(&self, ts: u64, frame: &Frame) {
        if let Some(t) = &self.tap {
            t.record_frame(ts, frame);
        }
    }

    /// Record a sink commit — the frame, its detected count, and the
    /// content hash of its model locations — into the tap (sink only).
    fn tap_commit(&self, ts: u64, count: u32, locs: &[ModelLocation]) {
        if let Some(t) = &self.tap {
            t.record_commit(ts, count, replay::location_hash(locs));
        }
    }

    /// Record that this stage finished its work on frame `ts` into the
    /// attached measurement store's per-stage marks.
    fn mark_stage(&self, ts: u64) {
        if let Some(m) = &self.measure {
            m.mark_stage(self.stage.index() as usize, ts);
        }
    }

    /// Frame entry hook: applies any injected straggler delay.
    fn begin(&self, ts: Timestamp) {
        if let Some(f) = &self.faults {
            f.delay(self.stage, ts.0);
        }
    }

    /// Run `work` as frame `ts`'s compute section: any injected compute
    /// slowdown (the cost-drift fault) lands inside it, its wall time goes
    /// into the adaptation loop's cost feed, and it is recorded as the
    /// stage's `Compute` span.
    fn compute<R>(&self, ts: Timestamp, work: impl FnOnce() -> R) -> R {
        let t0 = self.rec_now();
        // Clock first, sleep second: the injected slowdown models the stage
        // genuinely getting slower, so the feed must measure it.
        let c0 = self.feed.as_ref().map(|_| Instant::now());
        if let Some(f) = &self.faults {
            f.compute_slow(self.stage, ts.0);
        }
        let out = work();
        if let (Some(feed), Some(c0)) = (&self.feed, c0) {
            let ns = u64::try_from(c0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            feed.record(self.stage.index() as usize, ns);
        }
        self.rec_span(SpanKind::Compute, ts.0, None, t0);
        out
    }

    /// The falsified regime observation for `ts`, if one is injected.
    fn misread(&self, ts: u64) -> Option<u32> {
        self.faults.as_ref().and_then(|f| f.misread(ts))
    }

    /// One STM `get` under the degradation policy. End-of-stream errors map
    /// to [`FrameFault::Stop`]; a missed deadline or an unexpected error
    /// (including an injected one) records a [`RuntimeError`] and maps to
    /// [`FrameFault::Skip`]. This replaces the historical
    /// `panic!("unexpected STM error …")` on the live path.
    fn get<T>(&self, conn: &InputConn<T>, ts: Timestamp) -> Result<GetOk<T>, FrameFault> {
        let t0 = self.rec_now();
        let res = match self.deadline {
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
                    .faults
                    .as_ref()
                    .is_some_and(|f| f.stm_error(self.stage, ts.0)) =>
            {
                self.health.record(RuntimeError::StmGet {
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
                self.health.record(RuntimeError::DeadlineExceeded {
                    stage: self.stage,
                    ts: ts.0,
                });
                self.rec_instant(SpanKind::Skip, ts.0, None);
                self.tap_skip(ts.0);
                Err(FrameFault::Skip)
            }
            Err(e) => {
                self.health.record(RuntimeError::StmGet {
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
        let _ = match self.deadline {
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
                self.health.record(RuntimeError::StmPut {
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
pub struct SharedCursor {
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
    pub fn commit(&self, ts: u64) -> u64 {
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
pub struct CloseGate {
    closed_at: Mutex<Option<u64>>,
}

impl CloseGate {
    /// Record that instance `ts` found the input stream closed.
    pub fn mark_closed(&self, ts: u64) {
        let mut g = self.closed_at.lock();
        *g = Some(g.map_or(ts, |c| c.min(ts)));
    }

    /// Whether the output should close, given the contiguous prefix of
    /// finished instances.
    #[must_use]
    pub fn should_close(&self, prefix: u64) -> bool {
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

// ---------------------------------------------------------------------
// T1 — Digitizer
// ---------------------------------------------------------------------

/// T1: renders synthetic frames at a fixed period (the NTSC camera
/// stand-in). The period is the hand-tuning knob of §3.1.
pub struct DigitizerTask {
    scene: vision::Scene,
    out: OutputConn<PooledFrame>,
    out_chan: Channel<PooledFrame>,
    period: Duration,
    n_frames: u64,
    epoch: Mutex<Option<Instant>>,
    measure: Arc<Measurements>,
    ctx: StageCtx,
    /// Recycled frame buffers; `render_into` overwrites every pixel, so a
    /// dirty buffer produces bit-identical frames.
    frame_pool: Option<BufPool<Frame>>,
    /// Tracks finished instances so the stream closes only after every
    /// frame below `n_frames` has actually been put — concurrent instances
    /// (masters running ahead under rotation) must not cut earlier frames
    /// off.
    cursor: SharedCursor,
    /// Lifecycle drain flag: when the fleet detaches this tenant the flag
    /// flips, the digitizer stops producing at the next frame boundary, and
    /// the frames already in flight drain through the pipeline normally.
    halt: Option<Arc<AtomicBool>>,
    /// First frame index at which the halt flag was observed: the effective
    /// end of stream once a detach lands (`u64::MAX` = never halted).
    halt_at: AtomicU64,
    /// Shed flag: while it reads `true` (fleet pressure on a BestEffort
    /// tenant), frames are skip-committed instead of rendered — the tenant
    /// degrades itself rather than inflating the neighbors' p99.
    shed: Option<Arc<AtomicBool>>,
    /// Replay source: when set, the digitizer plays back recorded pixels
    /// instead of rendering, skips the frames the recorded digitizer
    /// skipped, and runs unpaced (virtual time) — the replay side of
    /// `crates/replay`.
    source: Option<Arc<replay::ReplaySource>>,
}

impl DigitizerTask {
    /// Create the digitizer, producing into `out_chan` under `ctx`.
    #[must_use]
    pub fn new(
        scene: vision::Scene,
        out_chan: Channel<PooledFrame>,
        period: Duration,
        n_frames: u64,
        measure: Arc<Measurements>,
        ctx: StageCtx,
    ) -> Self {
        DigitizerTask {
            scene,
            out: out_chan.attach_output(),
            out_chan,
            period,
            n_frames,
            epoch: Mutex::new(None),
            measure,
            ctx,
            frame_pool: None,
            cursor: SharedCursor::default(),
            halt: None,
            halt_at: AtomicU64::new(u64::MAX),
            shed: None,
            source: None,
        }
    }

    /// Replay from `source` instead of rendering: recorded pixels are
    /// played back unpaced and the recorded digitizer skips re-marked.
    #[must_use]
    pub fn with_source(mut self, source: Arc<replay::ReplaySource>) -> Self {
        self.source = Some(source);
        self
    }

    /// Render into recycled buffers from `pool` instead of allocating a
    /// fresh frame each period.
    #[must_use]
    pub fn with_frame_pool(mut self, pool: BufPool<Frame>) -> Self {
        self.frame_pool = Some(pool);
        self
    }

    /// Attach a lifecycle drain flag: once it reads `true`, the digitizer
    /// stops producing at the next frame boundary and the stream closes
    /// after the frames already put have drained downstream — the
    /// detach-side of the fleet's tenant lifecycle.
    #[must_use]
    pub fn with_halt(mut self, halt: Arc<AtomicBool>) -> Self {
        self.halt = Some(halt);
        self
    }

    /// Attach a shed flag: while it reads `true`, frames are
    /// skip-committed (recorded as load sheds) instead of rendered.
    #[must_use]
    pub fn with_shed(mut self, shed: Arc<AtomicBool>) -> Self {
        self.shed = Some(shed);
        self
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
        "Digitizer"
    }

    fn process(&self, ts: Timestamp, _chunk: Option<(u32, u32)>) -> Result<(), Stop> {
        if self
            .halt
            .as_ref()
            .is_some_and(|h| h.load(Ordering::Relaxed))
        {
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
        if self
            .shed
            .as_ref()
            .is_some_and(|s| s.load(Ordering::Relaxed))
        {
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
            self.ctx.health().record_load_shed();
            self.measure.mark_shed(ts.0);
            self.ctx.rec_instant(SpanKind::Skip, ts.0, None);
            self.ctx.tap_skip(ts.0);
            self.out.mark_skipped(ts);
            self.commit_and_maybe_close(ts.0);
            return Ok(());
        }
        let rendered = self.ctx.compute(ts, || {
            let mut buf = match &self.frame_pool {
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
                self.measure.mark_digitized(ts.0);
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

/// T2: whole-image color histogram → "Color Model" channel. Always serial:
/// T4 is the graph's only data-parallel task, and a whole-frame histogram
/// costs less than one worker-pool round trip.
pub struct HistogramTask {
    input: InputConn<PooledFrame>,
    out: StageOut<ColorHist>,
    ctx: StageCtx,
}

impl HistogramTask {
    /// Create the histogram task, producing into `out_chan` under `ctx`.
    #[must_use]
    pub fn new(input: InputConn<PooledFrame>, out_chan: Channel<ColorHist>, ctx: StageCtx) -> Self {
        HistogramTask {
            input,
            out: StageOut::new(out_chan),
            ctx,
        }
    }
}

impl TaskBody for HistogramTask {
    fn name(&self) -> &str {
        "Histogram"
    }

    fn process(&self, ts: Timestamp, _chunk: Option<(u32, u32)>) -> Result<(), Stop> {
        self.ctx.begin(ts);
        let advance = |prefix| self.input.advance_frontier(prefix);
        let frame = match self.ctx.get(&self.input, ts) {
            Ok(f) => f,
            Err(fault) => return self.out.settle(&self.ctx, ts, Err(fault), (), advance),
        };
        let hist = self
            .ctx
            .compute(ts, || self.ctx.backend().image_histogram(&frame.value));
        self.out.settle(&self.ctx, ts, Ok(hist), frame, advance)
    }
}

// ---------------------------------------------------------------------
// T3 — Change Detection
// ---------------------------------------------------------------------

/// T3: frame differencing against timestamp `ts − 1`, read from the same
/// STM channel — no private state, so instances at different timestamps can
/// run concurrently. Its frontier trails one frame behind its commit
/// prefix, since instance `ts` reads frame `ts − 1`.
pub struct ChangeTask {
    input: InputConn<PooledFrame>,
    out: StageOut<PooledMask>,
    threshold: u16,
    /// Recycled mask buffers; `change_detection_into` writes every word, so
    /// a dirty buffer produces bit-identical masks.
    mask_pool: Option<BufPool<BitMask>>,
    ctx: StageCtx,
}

impl ChangeTask {
    /// Create the change-detection task, producing into `out_chan` under
    /// `ctx`.
    #[must_use]
    pub fn new(
        input: InputConn<PooledFrame>,
        out_chan: Channel<PooledMask>,
        threshold: u16,
        ctx: StageCtx,
    ) -> Self {
        ChangeTask {
            input,
            out: StageOut::new(out_chan),
            threshold,
            mask_pool: None,
            ctx,
        }
    }

    /// Write masks into recycled buffers from `pool` instead of allocating
    /// a fresh mask each frame.
    #[must_use]
    pub fn with_mask_pool(mut self, pool: BufPool<BitMask>) -> Self {
        self.mask_pool = Some(pool);
        self
    }
}

impl TaskBody for ChangeTask {
    fn name(&self) -> &str {
        "Change Detection"
    }

    fn process(&self, ts: Timestamp, _chunk: Option<(u32, u32)>) -> Result<(), Stop> {
        self.ctx.begin(ts);
        // Instance `ts` reads frame `ts − 1`: the frontier trails the prefix.
        let advance = |prefix: Timestamp| {
            self.input
                .advance_frontier(Timestamp(prefix.0.saturating_sub(1)));
        };
        let cur = match self.ctx.get(&self.input, ts) {
            Ok(c) => c,
            Err(fault) => return self.out.settle(&self.ctx, ts, Err(fault), (), advance),
        };
        let prev = match ts.prev() {
            Some(p) => match self.ctx.get(&self.input, p) {
                Ok(g) => Some(g),
                Err(fault) => return self.out.settle(&self.ctx, ts, Err(fault), cur, advance),
            },
            None => None,
        };
        let mask = self.ctx.compute(ts, || {
            let frame: &Frame = &cur.value;
            let prev_frame: Option<&Frame> = prev.as_ref().map(|g| &**g.value);
            let backend = self.ctx.backend();
            match &self.mask_pool {
                Some(pool) => {
                    let mut buf = pool.take_or(|| BitMask::new(frame.width, frame.height));
                    backend.change_detection_into(frame, prev_frame, self.threshold, &mut buf);
                    buf
                }
                None => {
                    Pooled::unpooled(backend.change_detection(frame, prev_frame, self.threshold))
                }
            }
        });
        self.out
            .settle(&self.ctx, ts, Ok(mask), (cur, prev), advance)
    }
}

// ---------------------------------------------------------------------
// T4 — Target Detection (data parallel)
// ---------------------------------------------------------------------

/// The three per-frame inputs of target detection.
pub type DetectInputs = (Arc<PooledFrame>, Arc<ColorHist>, Arc<PooledMask>);

/// One unit of work farmed to the worker pool in online mode.
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

/// The job type of the shared worker pool: T4's detection chunks and the
/// adaptation loop's background re-searches ride the same workers, so one
/// pool serves every off-frame-path consumer.
pub enum PoolJob {
    /// A T4 detection chunk.
    Detect(ChunkJob),
    /// A drift- or synthesis-triggered schedule re-search (boxed: it
    /// carries a whole task graph and cluster spec, and must not bloat the
    /// per-chunk variant the hot path allocates).
    Resched(Box<ReschedJob>),
}

impl PoolJob {
    /// Execute the job (the worker body of Fig. 9).
    pub fn run(self) {
        match self {
            PoolJob::Detect(j) => j.run(),
            PoolJob::Resched(j) => j.run(),
        }
    }
}

/// Join state for one timestamp in scheduled-chunk mode.
#[derive(Default)]
struct PendingJoin {
    arrived: u32,
    /// Some chunk instance faulted: the frame is skip-committed at join
    /// time instead of published.
    abandoned: bool,
    partials: Vec<PartialScores>,
}

/// T4: Swain–Ballard target detection with regime-dependent decomposition.
pub struct DetectTask {
    in_frames: InputConn<PooledFrame>,
    in_hist: InputConn<ColorHist>,
    in_mask: InputConn<PooledMask>,
    out: StageOut<Vec<ScoreMap>>,
    models: Arc<Vec<ColorHist>>,
    width: usize,
    height: usize,
    /// Decomposition when no controller is attached (FP, MP).
    fixed_decomp: (u32, u32),
    /// Regime controller: "the splitter will look-up the decomposition for
    /// the current state from a pre-computed table" (Fig. 9 discussion).
    controller: Option<Arc<RegimeController>>,
    /// Worker pool for intra-task parallelism in online mode.
    pool: Option<Arc<WorkerPool<PoolJob>>>,
    ctx: StageCtx,
    /// Per-timestamp join state in scheduled-chunk mode.
    pending: Mutex<HashMap<u64, PendingJoin>>,
}

impl DetectTask {
    /// Create the detection task, producing into `out_chan` under `ctx`.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_frames: InputConn<PooledFrame>,
        in_hist: InputConn<ColorHist>,
        in_mask: InputConn<PooledMask>,
        out_chan: Channel<Vec<ScoreMap>>,
        models: Vec<ColorHist>,
        width: usize,
        height: usize,
        fixed_decomp: (u32, u32),
        ctx: StageCtx,
    ) -> Self {
        DetectTask {
            in_frames,
            in_hist,
            in_mask,
            out: StageOut::new(out_chan),
            models: Arc::new(models),
            width,
            height,
            fixed_decomp,
            controller: None,
            pool: None,
            ctx,
            pending: Mutex::new(HashMap::new()),
        }
    }

    /// Attach a regime controller (online dynamic decomposition).
    #[must_use]
    pub fn with_controller(mut self, c: Arc<RegimeController>) -> Self {
        self.controller = Some(c);
        self
    }

    /// Attach a worker pool (online intra-task data parallelism).
    #[must_use]
    pub fn with_pool(mut self, pool: Arc<WorkerPool<PoolJob>>) -> Self {
        self.pool = Some(pool);
        self
    }

    fn current_decomp(&self) -> (u32, u32) {
        match &self.controller {
            Some(c) => c.current_decomp(),
            None => self.fixed_decomp,
        }
    }

    fn inputs(&self, ts: Timestamp) -> Result<DetectInputs, FrameFault> {
        let since = Instant::now();
        let fetched = self.fetch_inputs(ts);
        if matches!(fetched, Err(FrameFault::Skip)) {
            // Skipping the frame advances all three input frontiers, and a
            // producer that has not settled the frame yet (put it or
            // skip-marked it) would then have its put rejected as late —
            // an unplanned drop on the ledger for a frame that was merely
            // microseconds behind. T2 and T3 start on a frame when T4 does
            // and T4 no longer trails them by a table build, so wait them
            // out first — but only for what is left of this frame's budget:
            // a producer stalled past it is the watchdog's case, and T5 is
            // already counting its own deadline on the next frame.
            self.ctx.await_settled(&self.in_hist, ts, since);
            self.ctx.await_settled(&self.in_mask, ts, since);
        }
        fetched
    }

    fn fetch_inputs(&self, ts: Timestamp) -> Result<DetectInputs, FrameFault> {
        let frame = self.ctx.get(&self.in_frames, ts)?.value;
        let hist = self.ctx.get(&self.in_hist, ts)?.value;
        let mask = self.ctx.get(&self.in_mask, ts)?.value;
        Ok((frame, hist, mask))
    }

    /// Settle frame `ts` through the output; all three input frontiers
    /// advance together.
    fn settle<H>(
        &self,
        ts: Timestamp,
        result: Result<Vec<ScoreMap>, FrameFault>,
        held: H,
    ) -> Result<(), Stop> {
        self.out.settle(&self.ctx, ts, result, held, |prefix| {
            self.in_frames.advance_frontier(prefix);
            self.in_hist.advance_frontier(prefix);
            self.in_mask.advance_frontier(prefix);
        })
    }

    /// One whole activation: splitter, workers (or serial), joiner.
    fn detect_frame(&self, ts: Timestamp, inputs: &DetectInputs) -> Vec<ScoreMap> {
        let (frame, hist, mask) = inputs;
        let (fp, mp) = self.current_decomp();
        self.ctx
            .rec_instant(SpanKind::Decomp, ts.0, Some((fp as u16, mp as u16)));
        let chunks = detect_chunks(
            self.width,
            self.height,
            self.models.len(),
            fp as usize,
            mp as usize,
        );
        let partials: Vec<PartialScores> = match (&self.pool, chunks.len()) {
            (Some(pool), n) if n > 1 => {
                let (tx, rx) = bounded(n);
                let rec = self.ctx.recorder();
                for (idx, &c) in chunks.iter().enumerate() {
                    let job = PoolJob::Detect(ChunkJob {
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
                    });
                    self.ctx.submit_or_run(pool, job);
                }
                drop(tx);
                // Indexed replies: a missing slot means the chunk's worker
                // panicked before sending — the joiner recomputes it inline
                // (degradation ladder rung 3), keeping the frame's output
                // bit-identical.
                let join_t0 = self.ctx.rec_now();
                let mut slots: Vec<Option<Vec<PartialScores>>> = (0..n).map(|_| None).collect();
                for (idx, p) in rx.iter() {
                    slots[idx] = Some(p);
                }
                self.ctx.rec_span(SpanKind::Join, ts.0, None, join_t0);
                let mut partials = Vec::new();
                for (idx, slot) in slots.into_iter().enumerate() {
                    match slot {
                        Some(p) => partials.extend(p),
                        None => {
                            self.ctx.health().record_chunk_recompute();
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
        merge_partials(self.width, self.height, self.models.len(), &partials)
    }
}

impl TaskBody for DetectTask {
    fn name(&self) -> &str {
        "Target Detection"
    }

    fn process(&self, ts: Timestamp, chunk: Option<(u32, u32)>) -> Result<(), Stop> {
        self.ctx.begin(ts);
        match chunk {
            None => {
                let inputs = match self.inputs(ts) {
                    Ok(v) => v,
                    Err(fault) => return self.settle(ts, Err(fault), ()),
                };
                let maps = self.ctx.compute(ts, || self.detect_frame(ts, &inputs));
                self.settle(ts, Ok(maps), inputs)
            }
            Some((idx, count)) => {
                // One chunk under an explicit schedule; the last chunk
                // joins. A faulted instance abandons the frame but still
                // counts toward the join, so the frame concludes (skipped)
                // instead of leaking pending state.
                let inputs = match self.inputs(ts) {
                    Ok(v) => Some(v),
                    Err(FrameFault::Stop) => return self.settle(ts, Err(FrameFault::Stop), ()),
                    Err(FrameFault::Skip) => None,
                };
                let mut partials = Vec::new();
                let mut abandoned = inputs.is_none();
                if let Some((frame, hist, mask)) = &inputs {
                    let (fp, mp) = self.fixed_decomp;
                    let chunks = detect_chunks(
                        self.width,
                        self.height,
                        self.models.len(),
                        fp as usize,
                        mp as usize,
                    );
                    if chunks.len() != count as usize {
                        // The schedule and the decomposition disagree:
                        // formerly an assert, now one dropped frame.
                        self.ctx.health().record(RuntimeError::ChunkMismatch {
                            ts: ts.0,
                            expected: count,
                            got: chunks.len() as u32,
                        });
                        abandoned = true;
                    } else {
                        let t0 = self.ctx.rec_now();
                        partials = target_detection_chunk(
                            frame,
                            hist,
                            &self.models,
                            mask,
                            chunks[idx as usize],
                        );
                        self.ctx.rec_span(
                            SpanKind::Compute,
                            ts.0,
                            Some((idx as u16, count as u16)),
                            t0,
                        );
                    }
                }
                let ready = {
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
                };
                match ready {
                    Some(join) if !join.abandoned => {
                        let maps = merge_partials(
                            self.width,
                            self.height,
                            self.models.len(),
                            &join.partials,
                        );
                        self.settle(ts, Ok(maps), inputs)
                    }
                    Some(_) => self.settle(ts, Err(FrameFault::Skip), inputs),
                    None => Ok(()),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// T5 — Peak Detection
// ---------------------------------------------------------------------

/// T5: peak detection over the back projections → "Model Locations".
pub struct PeakTask {
    input: InputConn<Vec<ScoreMap>>,
    out: StageOut<Vec<ModelLocation>>,
    min_score: f32,
    ctx: StageCtx,
}

impl PeakTask {
    /// Create the peak-detection task, producing into `out_chan` under
    /// `ctx`.
    #[must_use]
    pub fn new(
        input: InputConn<Vec<ScoreMap>>,
        out_chan: Channel<Vec<ModelLocation>>,
        min_score: f32,
        ctx: StageCtx,
    ) -> Self {
        PeakTask {
            input,
            out: StageOut::new(out_chan),
            min_score,
            ctx,
        }
    }
}

impl TaskBody for PeakTask {
    fn name(&self) -> &str {
        "Peak Detection"
    }

    fn process(&self, ts: Timestamp, _chunk: Option<(u32, u32)>) -> Result<(), Stop> {
        self.ctx.begin(ts);
        let advance = |prefix| self.input.advance_frontier(prefix);
        let scores = match self.ctx.get(&self.input, ts) {
            Ok(s) => s,
            Err(fault) => return self.out.settle(&self.ctx, ts, Err(fault), (), advance),
        };
        let locs = self
            .ctx
            .compute(ts, || peak_detection(&scores.value, self.min_score));
        self.out.settle(&self.ctx, ts, Ok(locs), scores, advance)
    }
}

// ---------------------------------------------------------------------
// Sink — DECface update
// ---------------------------------------------------------------------

/// The graph's sink: consumes model locations (in the kiosk this drives
/// DECface's gaze), records completion, and feeds the regime controller
/// with the observed people count. An injected regime misread falsifies
/// only what the controller hears — the logs keep the true observations,
/// which is what makes misreads testable for output-invariance.
pub struct FaceTask {
    input: InputConn<Vec<ModelLocation>>,
    measure: Arc<Measurements>,
    controller: Option<Arc<RegimeController>>,
    adapt: Option<Arc<AdaptLoop>>,
    ctx: StageCtx,
    locations_log: Mutex<Vec<(u64, u32)>>,
    full_log: Mutex<Vec<(u64, Vec<ModelLocation>)>>,
    cursor: SharedCursor,
}

impl FaceTask {
    /// Create the sink task under `ctx`.
    #[must_use]
    pub fn new(
        input: InputConn<Vec<ModelLocation>>,
        measure: Arc<Measurements>,
        controller: Option<Arc<RegimeController>>,
        ctx: StageCtx,
    ) -> Self {
        FaceTask {
            input,
            measure,
            controller,
            adapt: None,
            ctx,
            locations_log: Mutex::new(Vec::new()),
            full_log: Mutex::new(Vec::new()),
            cursor: SharedCursor::default(),
        }
    }

    /// Drive the adaptation loop from this sink: its frame-boundary hook
    /// runs after every frame the sink settles — the "between frames"
    /// moment swaps are allowed to land.
    #[must_use]
    pub fn with_adapt(mut self, adapt: Arc<AdaptLoop>) -> Self {
        self.adapt = Some(adapt);
        self
    }

    /// `(timestamp, detected count)` per processed frame, in completion
    /// order.
    #[must_use]
    pub fn observations(&self) -> Vec<(u64, u32)> {
        self.locations_log.lock().clone()
    }

    /// `(timestamp, full model locations)` per processed frame, in
    /// completion order — the bit-identity witness used by the fault
    /// harness.
    #[must_use]
    pub fn locations(&self) -> Vec<(u64, Vec<ModelLocation>)> {
        self.full_log.lock().clone()
    }
}

impl TaskBody for FaceTask {
    fn name(&self) -> &str {
        "DECface Update"
    }

    fn process(&self, ts: Timestamp, _chunk: Option<(u32, u32)>) -> Result<(), Stop> {
        self.ctx.begin(ts);
        let locs = match self.ctx.get(&self.input, ts) {
            Ok(l) => l,
            Err(FrameFault::Stop) => return Err(Stop),
            Err(FrameFault::Skip) => {
                let prefix = self.cursor.commit(ts.0);
                self.input.advance_frontier(Timestamp(prefix));
                // A skipped frame is settled too: the adaptation loop keeps
                // draining finished searches even under heavy degradation.
                if let Some(a) = &self.adapt {
                    a.on_frame(ts.0);
                }
                return Ok(());
            }
        };
        let count = self.ctx.compute(ts, || detected_count(&locs.value));
        self.measure.mark_completed(ts.0);
        self.ctx.rec_instant(SpanKind::Commit, ts.0, None);
        self.ctx.tap_commit(ts.0, count, &locs.value);
        self.ctx.mark_stage(ts.0);
        if let Some(c) = &self.controller {
            // A misread lies to the controller only; the logs keep truth.
            c.observe(self.ctx.misread(ts.0).unwrap_or(count));
        }
        self.locations_log.lock().push((ts.0, count));
        self.full_log.lock().push((ts.0, (*locs.value).clone()));
        let prefix = self.cursor.commit(ts.0);
        self.input.advance_frontier(Timestamp(prefix));
        // The frame-boundary hook of the adaptation loop: this frame is
        // fully settled, so a re-searched schedule may swap in *now* —
        // never mid-frame.
        if let Some(a) = &self.adapt {
            a.on_frame(ts.0);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use stm::ChannelBuilder;

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
        let ctx = StageCtx::new(Stage::Peak).with_deadline(Duration::from_millis(5));
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
        let ctx = StageCtx::new(Stage::Peak);
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
        let ctx = StageCtx::new(Stage::Histogram).with_faults(Arc::clone(&inj));
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
        let ctx = StageCtx::new(Stage::Change);
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
        let ctx = StageCtx::new(Stage::Peak);
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
}
