//! A *general on-line scheduler* simulator: the paper's pthread baseline.
//!
//! The policy is deliberately dependence-blind (§3.2): it keeps a FIFO ready
//! queue of runnable jobs and assigns the oldest eligible job to any free
//! processor, optionally preempting at a fixed quantum. It "not only knows
//! nothing about the specific application but also has no understanding of
//! the application class". The simulated pathologies match the paper's list:
//!
//! * it "focuses more on throughput" — any runnable upstream work is taken
//!   eagerly, so early tasks produce bursts of items while later, slower
//!   tasks fall behind (the T3/T4 phenomenon of Fig. 4(a));
//! * with a quantum it will "schedule a thread for enough time to generate
//!   two and a half items", leaving partially processed items;
//! * it assumes "a thread can only be scheduled on one processor at a time",
//!   so a task's activations for successive frames serialize even when
//!   processors idle.
//!
//! Flow control is the only STM mechanism retained: channels hold at most
//! `channel_capacity` live items and the digitizer blocks when its output is
//! full, which is what makes latency *plateau* (rather than diverge) when
//! the digitizer period saturates the system — the upper branch of the
//! paper's Fig. 3 tuning curve.
//!
//! ## The event engine
//!
//! All per-step state is index-addressed: processors, tasks, channels, and
//! frames are dense integer ids, so the inner loop touches `Vec`s, never a
//! hash map. Per-frame bookkeeping whose live window is small (channel
//! consumer counts, missing inputs, outstanding chunks) lives in per-entity
//! `(frame, count)` pair lists bounded by the channel capacity. A
//! [`SimArena`] owns every buffer — the event heap, ready queue, occupancy
//! tables, frame records, trace, and metrics scratch — and is rented across
//! runs, so a parameter sweep allocates (almost) nothing after its first
//! simulation. Trace recording is gated by
//! [`TraceMode`]; metrics are identical in every
//! mode.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

use taskgraph::{AppState, ChunkPlan, Decomposition, Micros, TaskGraph, TaskId};

use crate::metrics::{FrameRecord, Metrics, MetricsScratch};
use crate::spec::{ClusterSpec, ProcId};
use crate::trace::{ExecutionTrace, TraceEntry, TraceMode};
use crate::workload::{FrameClock, StateTrack};

/// Configuration of one online-scheduler run.
#[derive(Clone, Debug)]
pub struct OnlineConfig {
    /// Frame arrival clock (digitizer period × frame count).
    pub clock: FrameClock,
    /// The (static) application state used to evaluate task costs. Ignored
    /// when `state_track` is set.
    pub state: AppState,
    /// Per-frame application state (a dynamic environment): task costs and
    /// chunk plans follow the state in force when each frame was digitized.
    pub state_track: Option<StateTrack>,
    /// Maximum live items per channel (flow control). Must be ≥ 1.
    pub channel_capacity: usize,
    /// Preemption quantum; `None` runs every job slice to completion.
    pub quantum: Option<Micros>,
    /// Fixed data decomposition per data-parallel task. Tasks absent from
    /// the map run serially (FP=1, MP=1).
    pub decomposition: BTreeMap<TaskId, Decomposition>,
    /// Completed frames excluded from metrics (pipeline fill).
    pub warmup_frames: usize,
    /// When true, a backlogged task jumps to its newest ready frame and
    /// *skips* the older ones (the STM `NewestUnseen` consumption style).
    /// This keeps latency bounded under overload at the price of dropped
    /// frames — the paper's uniformity pathology: a non-uniform execution
    /// "might process three frames in a row and then skip the next hundred".
    pub skip_stale: bool,
    /// How much of the execution to record. Metrics are identical in every
    /// mode; timing-oriented sweeps use [`TraceMode::Off`] to pay zero trace
    /// cost.
    pub trace_mode: TraceMode,
}

impl OnlineConfig {
    /// A run with sensible defaults: capacity 4, no preemption, serial
    /// tasks, no frame skipping, full trace recording.
    #[must_use]
    pub fn new(clock: FrameClock, state: AppState) -> Self {
        OnlineConfig {
            clock,
            state,
            state_track: None,
            channel_capacity: 4,
            quantum: None,
            decomposition: BTreeMap::new(),
            warmup_frames: 2,
            skip_stale: false,
            trace_mode: TraceMode::Full,
        }
    }
}

/// The result of a simulated run.
#[derive(Clone, Debug)]
pub struct SimOutcome {
    /// Every processor slice executed (as recorded by the run's
    /// [`TraceMode`]).
    pub trace: ExecutionTrace,
    /// Per-frame lifecycle records.
    pub frames: Vec<FrameRecord>,
    /// Aggregate metrics (warmup excluded).
    pub metrics: Metrics,
    /// Total simulated duration.
    pub makespan: Micros,
}

/// The aggregate result of one arena-resident run: everything that escapes
/// the [`SimArena`] by value. Frames and trace stay in the arena and are
/// read (or carried into a [`SimOutcome`]) separately.
#[derive(Clone, Copy, Debug)]
pub struct SimSummary {
    /// Aggregate metrics (warmup excluded).
    pub metrics: Metrics,
    /// Total simulated duration.
    pub makespan: Micros,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum JobKind {
    /// A whole serial activation of a task.
    Serial(TaskId),
    /// The splitter phase of a data-parallel activation.
    Split(TaskId),
    /// One chunk (index, count) of a data-parallel activation.
    Chunk(TaskId, u32, u32),
    /// The joiner phase of a data-parallel activation.
    Join(TaskId),
}

impl JobKind {
    fn task(self) -> TaskId {
        match self {
            JobKind::Serial(t) | JobKind::Split(t) | JobKind::Chunk(t, _, _) | JobKind::Join(t) => {
                t
            }
        }
    }
}

#[derive(Clone, Debug)]
struct Job {
    /// Stable identity across preemptions.
    id: u64,
    /// FIFO position (refreshed on requeue, so preempted jobs go to the
    /// back — the round-robin behaviour of a time-sliced scheduler).
    seq: u64,
    kind: JobKind,
    frame: u64,
    remaining: Micros,
    /// Whether output-channel slots have been reserved for this activation.
    reserved: bool,
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Event {
    Finish(u32),
    Digitize(u64),
}

#[derive(Clone, Debug)]
struct Running {
    job: Job,
    slice_start: Micros,
    slice: Micros,
}

/// A `(frame, count)` pair list: the dense-map replacement for per-frame
/// hash entries. The live window per entity is small (bounded by the
/// channel capacity / outstanding activations), so linear scans beat
/// hashing.
type FrameCounts = Vec<(u64, u32)>;

/// Register `count` for `frame`; the frame must not already be present.
fn slot_insert(v: &mut FrameCounts, frame: u64, count: u32) {
    debug_assert!(v.iter().all(|&(f, _)| f != frame), "duplicate frame slot");
    v.push((frame, count));
}

/// Decrement `frame`'s count, dropping the pair at zero. Panics with `what`
/// if the frame is absent — mirroring the accounting invariants the
/// hash-map version asserted via `expect`.
fn slot_dec(v: &mut FrameCounts, frame: u64, what: &str) -> u32 {
    let i = v
        .iter()
        .position(|&(f, _)| f == frame)
        .unwrap_or_else(|| panic!("{what}"));
    v[i].1 -= 1;
    let left = v[i].1;
    if left == 0 {
        v.swap_remove(i);
    }
    left
}

/// Decrement `frame`'s count, initializing it to `init` first if absent
/// (the `entry().or_insert()` pattern). Drops the pair at zero.
fn slot_dec_or_init(v: &mut FrameCounts, frame: u64, init: u32) -> u32 {
    match v.iter().position(|&(f, _)| f == frame) {
        Some(i) => {
            v[i].1 -= 1;
            let left = v[i].1;
            if left == 0 {
                v.swap_remove(i);
            }
            left
        }
        None => {
            let left = init - 1;
            if left > 0 {
                v.push((frame, left));
            }
            left
        }
    }
}

fn refill_none<T>(v: &mut Vec<Option<T>>, n: usize) {
    v.clear();
    v.resize_with(n, || None);
}

/// Clear every queue in place (keeping capacities) and adjust the outer
/// length to `n`.
fn reset_queues<T>(v: &mut Vec<VecDeque<T>>, n: usize) {
    for q in v.iter_mut() {
        q.clear();
    }
    if v.len() < n {
        v.resize_with(n, VecDeque::new);
    } else {
        v.truncate(n);
    }
}

/// Clear every slot in place (keeping inner capacities) and adjust the
/// outer length to `n`.
fn reset_slots<T>(v: &mut Vec<Vec<T>>, n: usize) {
    for s in v.iter_mut() {
        s.clear();
    }
    if v.len() < n {
        v.resize_with(n, Vec::new);
    } else {
        v.truncate(n);
    }
}

/// Reusable simulator state: every buffer one online run needs, rented
/// across runs.
///
/// A fresh arena per run reproduces the historical `simulate_online`
/// behaviour; reusing one arena across a sweep makes the event loop
/// allocation-free after the first run (buffers are cleared, never freed).
/// Results are bit-identical either way — the arena holds no state that
/// survives `simulate` other than buffer capacity.
///
/// ```
/// use cluster::{ClusterSpec, FrameClock, OnlineConfig, SimArena, TraceMode};
/// use taskgraph::{builders, AppState, Micros};
///
/// let graph = builders::color_tracker();
/// let cluster = ClusterSpec::single_node(4);
/// let mut arena = SimArena::new();
/// let mut cfg = OnlineConfig::new(FrameClock::new(Micros::from_millis(500), 8), AppState::new(2));
/// cfg.trace_mode = TraceMode::Off; // timing run: no trace cost
/// let a = arena.simulate(&graph, &cluster, &cfg);
/// let b = arena.simulate(&graph, &cluster, &cfg); // reuses every buffer
/// assert_eq!(a.metrics, b.metrics);
/// ```
#[derive(Debug, Default)]
pub struct SimArena {
    events: BinaryHeap<Reverse<(Micros, u64, Event)>>,
    /// Per-task FIFO of queued `Serial`/`Split` activations. Jobs are only
    /// ever appended with a fresh, increasing `seq`, so each queue is
    /// seq-sorted and the head is the task's oldest queued activation.
    task_fifo: Vec<VecDeque<Job>>,
    /// Queued `Chunk`/`Join` jobs (also seq-sorted): work any processor may
    /// take without acquiring a task thread.
    pool: VecDeque<Job>,
    /// A preempted `Serial`/`Split` job that still owns its task's thread —
    /// the only job of that task that can be scheduled until it finishes.
    owner: Vec<Option<Job>>,
    /// Scratch for the frame-skip path (frames consumed without running).
    skip_scratch: Vec<u64>,
    /// Per-task thread occupancy: the id of the job holding the thread.
    busy: Vec<Option<u64>>,
    /// Per-processor running slice.
    running: Vec<Option<Running>>,
    free_procs: Vec<u32>,
    /// Live (reserved or present) items per channel.
    occupancy: Vec<usize>,
    /// Per channel: consumers still owing a consume, by frame.
    remaining_consumers: Vec<FrameCounts>,
    /// Per task: inputs not yet present, by frame.
    missing_inputs: Vec<FrameCounts>,
    /// Per task: chunks still running for a DP activation, by frame.
    chunks_left: Vec<FrameCounts>,
    /// Per task: chunk plans keyed by the `n_models` of the frame's state —
    /// a dynamic environment changes the plan between frames.
    plans: Vec<Vec<(u32, ChunkPlan)>>,
    /// Distinct states of the run (scratch for plan construction).
    states: Vec<AppState>,
    /// The graph's source tasks (computed once per run).
    sources: Vec<TaskId>,
    digitized: Vec<Option<Micros>>,
    completed: Vec<Option<Micros>>,
    /// Per-frame count of completed task activations.
    tasks_done: Vec<u32>,
    frames: Vec<FrameRecord>,
    trace: ExecutionTrace,
    scratch: MetricsScratch,
}

impl SimArena {
    /// An empty arena; buffers grow to the working-set size on first use.
    #[must_use]
    pub fn new() -> Self {
        SimArena::default()
    }

    /// Run the online scheduler on `graph` over `cluster`, reusing this
    /// arena's buffers. Identical results to [`simulate_online`] (which is
    /// this method on a throwaway arena).
    ///
    /// Panics under the same conditions as [`simulate_online`].
    pub fn simulate(
        &mut self,
        graph: &TaskGraph,
        cluster: &ClusterSpec,
        cfg: &OnlineConfig,
    ) -> SimSummary {
        graph.validate().expect("graph must validate");
        assert!(cfg.channel_capacity >= 1, "capacity must be at least 1");
        let n_frames = cfg.clock.n_frames;
        let n_procs = cluster.n_procs();
        self.reset(graph, n_procs, n_frames, cfg.trace_mode);

        // Distinct states of the run: a dynamic run needs one chunk plan
        // per (task, state) the track visits.
        match &cfg.state_track {
            Some(track) => {
                for &(_, s) in track.changes() {
                    if !self.states.contains(&s) {
                        self.states.push(s);
                    }
                }
            }
            None => self.states.push(cfg.state),
        }
        for (tid, decomp) in &cfg.decomposition {
            let task = graph.task(*tid);
            let dp = task
                .dp
                .as_ref()
                .unwrap_or_else(|| panic!("task {} is not data parallel", task.name));
            for st in &self.states {
                let plan = dp.plan(task.cost.eval(st), *decomp, st);
                let slots = &mut self.plans[tid.0];
                match slots.iter_mut().find(|e| e.0 == st.n_models) {
                    Some(e) => e.1 = plan,
                    None => slots.push((st.n_models, plan)),
                }
            }
        }

        let mut sim = Sim {
            graph,
            cfg,
            now: Micros::ZERO,
            eseq: 0,
            next_id: 0,
            next_seq: 0,
            makespan: Micros::ZERO,
            a: self,
        };
        for f in 0..n_frames {
            let t = cfg.clock.arrival(f);
            sim.push_event(t, Event::Digitize(f));
        }
        sim.run();
        let makespan = sim.makespan;

        self.frames.clear();
        for f in 0..n_frames {
            self.frames.push(FrameRecord {
                frame: f,
                digitized_at: self.digitized[f as usize].unwrap_or(Micros::ZERO),
                completed_at: self.completed[f as usize],
            });
        }
        let metrics = Metrics::from_records_in(&mut self.scratch, &self.frames, cfg.warmup_frames);
        SimSummary { metrics, makespan }
    }

    /// Per-frame lifecycle records of the most recent run.
    #[must_use]
    pub fn frames(&self) -> &[FrameRecord] {
        &self.frames
    }

    /// The trace of the most recent run (contents per its [`TraceMode`]).
    #[must_use]
    pub fn trace(&self) -> &ExecutionTrace {
        &self.trace
    }

    /// Convert the arena's last run into an owned [`SimOutcome`], consuming
    /// the arena (moves the trace and frame buffers out instead of cloning).
    #[must_use]
    fn into_outcome(self, summary: SimSummary) -> SimOutcome {
        SimOutcome {
            trace: self.trace,
            frames: self.frames,
            metrics: summary.metrics,
            makespan: summary.makespan,
        }
    }

    fn reset(&mut self, graph: &TaskGraph, n_procs: u32, n_frames: u64, mode: TraceMode) {
        let n_tasks = graph.n_tasks();
        let n_chans = graph.channels().len();
        self.events.clear();
        reset_queues(&mut self.task_fifo, n_tasks);
        self.pool.clear();
        refill_none(&mut self.owner, n_tasks);
        self.skip_scratch.clear();
        refill_none(&mut self.busy, n_tasks);
        refill_none(&mut self.running, n_procs as usize);
        self.free_procs.clear();
        self.free_procs.extend((0..n_procs).rev());
        self.occupancy.clear();
        self.occupancy.resize(n_chans, 0);
        reset_slots(&mut self.remaining_consumers, n_chans);
        reset_slots(&mut self.missing_inputs, n_tasks);
        reset_slots(&mut self.chunks_left, n_tasks);
        reset_slots(&mut self.plans, n_tasks);
        self.states.clear();
        self.sources.clear();
        self.sources.extend(graph.sources());
        refill_none(&mut self.digitized, n_frames as usize);
        refill_none(&mut self.completed, n_frames as usize);
        self.tasks_done.clear();
        self.tasks_done.resize(n_frames as usize, 0);
        self.trace.reset(n_procs, mode);
    }
}

struct Sim<'a> {
    graph: &'a TaskGraph,
    cfg: &'a OnlineConfig,
    now: Micros,
    eseq: u64,
    next_id: u64,
    next_seq: u64,
    /// Latest slice end observed (tracked directly so `TraceMode::Off` runs
    /// still report a makespan).
    makespan: Micros,
    a: &'a mut SimArena,
}

/// Run the online scheduler on `graph` over `cluster`.
///
/// Equivalent to [`SimArena::simulate`] on a fresh arena — this is the
/// reference (oracle) path sweeps are checked against.
///
/// Panics if the configuration can deadlock (a diagnostic is printed with
/// the stuck queue) — with a validated DAG and capacity ≥ 1 this does not
/// happen.
#[must_use]
pub fn simulate_online(graph: &TaskGraph, cluster: &ClusterSpec, cfg: OnlineConfig) -> SimOutcome {
    let mut arena = SimArena::new();
    let summary = arena.simulate(graph, cluster, &cfg);
    arena.into_outcome(summary)
}

impl Sim<'_> {
    fn push_event(&mut self, t: Micros, e: Event) {
        self.a.events.push(Reverse((t, self.eseq, e)));
        self.eseq += 1;
    }

    /// The application state in force for `frame`.
    fn state_of(&self, frame: u64) -> AppState {
        match &self.cfg.state_track {
            Some(track) => track.state_at(frame),
            None => self.cfg.state,
        }
    }

    fn plan_of(&self, task: usize, frame: u64) -> Option<&ChunkPlan> {
        let n_models = self.state_of(frame).n_models;
        self.a.plans[task]
            .iter()
            .find(|e| e.0 == n_models)
            .map(|e| &e.1)
    }

    fn spawn(&mut self, kind: JobKind, frame: u64, cost: Micros) {
        let job = Job {
            id: self.next_id,
            seq: self.next_seq,
            kind,
            frame,
            remaining: cost,
            reserved: false,
        };
        self.next_id += 1;
        self.next_seq += 1;
        match kind {
            JobKind::Serial(t) | JobKind::Split(t) => self.a.task_fifo[t.0].push_back(job),
            JobKind::Chunk(..) | JobKind::Join(_) => self.a.pool.push_back(job),
        }
    }

    /// Spawn the activation of `task` for `frame`: a serial job, or the
    /// split phase of a data-parallel activation.
    fn spawn_activation(&mut self, task: TaskId, frame: u64) {
        match self.plan_of(task.0, frame) {
            Some(plan) if plan.chunks > 1 => {
                let split = plan.split_cost;
                self.spawn(JobKind::Split(task), frame, split);
            }
            _ => {
                let cost = self.graph.task(task).cost.eval(&self.state_of(frame));
                self.spawn(JobKind::Serial(task), frame, cost);
            }
        }
    }

    fn outputs_have_space(&self, task: TaskId) -> bool {
        self.graph
            .task(task)
            .outputs
            .iter()
            .all(|c| self.a.occupancy[c.0] < self.cfg.channel_capacity)
    }

    /// Assign eligible jobs to free processors, FIFO by seq.
    ///
    /// The eligible set decomposes per queue, so each assignment scans one
    /// candidate per task plus the pool head — not every queued job:
    ///
    /// * a preempted thread **owner** is its task's only schedulable job
    ///   (thread held, output slots already reserved);
    /// * otherwise a task's seq-sorted FIFO contributes its first job that
    ///   passes the output-space check (`Split` phases bypass it, so they
    ///   can overtake a space-blocked `Serial` head — exactly as in a flat
    ///   scan);
    /// * the chunk/join **pool** contributes its first eligible job.
    ///
    /// The overall pick is the minimum-seq candidate, identical to the
    /// historical full scan for the oldest eligible job because within one
    /// queue eligibility is uniform and seqs are sorted.
    fn dispatch(&mut self) {
        enum Pick {
            Owner(usize),
            Fifo(usize, usize),
            Pool(usize),
        }
        loop {
            if self.a.free_procs.is_empty() {
                return;
            }
            let graph = self.graph;
            let mut best_seq = u64::MAX;
            let mut best: Option<Pick> = None;
            for t in 0..graph.n_tasks() {
                if let Some(owner) = &self.a.owner[t] {
                    if owner.seq < best_seq {
                        best_seq = owner.seq;
                        best = Some(Pick::Owner(t));
                    }
                } else if self.a.busy[t].is_none() && !self.a.task_fifo[t].is_empty() {
                    let space = self.outputs_have_space(TaskId(t));
                    for (i, job) in self.a.task_fifo[t].iter().enumerate() {
                        if space || matches!(job.kind, JobKind::Split(_)) {
                            if job.seq < best_seq {
                                best_seq = job.seq;
                                best = Some(Pick::Fifo(t, i));
                            }
                            break;
                        }
                    }
                }
            }
            for (i, job) in self.a.pool.iter().enumerate() {
                let ok = match job.kind {
                    JobKind::Chunk(..) => true,
                    JobKind::Join(t) => job.reserved || self.outputs_have_space(t),
                    JobKind::Serial(_) | JobKind::Split(_) => {
                        unreachable!("pool holds chunks and joins")
                    }
                };
                if ok {
                    if job.seq < best_seq {
                        best = Some(Pick::Pool(i));
                    }
                    break;
                }
            }

            let mut job = match best {
                None => return,
                Some(Pick::Owner(t)) => self.a.owner[t].take().expect("owner present"),
                Some(Pick::Pool(i)) => self.a.pool.remove(i).expect("pool candidate"),
                Some(Pick::Fifo(t, i)) => {
                    // NewestUnseen-style consumption: when the selected job
                    // is the start of an activation with inputs, jump to the
                    // newest queued frame of the same task and skip (consume
                    // without processing) everything older — the activation
                    // job only exists once all of its inputs are present, so
                    // the skipped inputs are consumable.
                    if self.cfg.skip_stale && !graph.task(TaskId(t)).inputs.is_empty() {
                        let fifo = &mut self.a.task_fifo[t];
                        let newest = fifo.iter().map(|j| j.frame).max().expect("fifo non-empty");
                        let mut skipped = std::mem::take(&mut self.a.skip_scratch);
                        let mut newest_job = None;
                        while let Some(j) = fifo.pop_front() {
                            if j.frame == newest {
                                newest_job = Some(j);
                            } else {
                                skipped.push(j.frame);
                            }
                        }
                        for &f in &skipped {
                            self.consume_inputs(TaskId(t), f);
                        }
                        skipped.clear();
                        self.a.skip_scratch = skipped;
                        newest_job.expect("newest job was queued")
                    } else {
                        self.a.task_fifo[t].remove(i).expect("fifo candidate")
                    }
                }
            };
            let proc = self.a.free_procs.pop().expect("checked non-empty");

            // Acquire the task thread / reserve output slots on first slice.
            match job.kind {
                JobKind::Serial(t) | JobKind::Split(t) => {
                    self.a.busy[t.0] = Some(job.id);
                }
                _ => {}
            }
            if matches!(job.kind, JobKind::Serial(_) | JobKind::Join(_)) && !job.reserved {
                let t = job.kind.task();
                let graph = self.graph;
                for c in &graph.task(t).outputs {
                    self.a.occupancy[c.0] += 1;
                }
                job.reserved = true;
            }

            let slice = match self.cfg.quantum {
                Some(q) => q.min(job.remaining),
                None => job.remaining,
            };
            let end = self.now + slice;
            self.push_event(end, Event::Finish(proc));
            self.a.running[proc as usize] = Some(Running {
                job,
                slice_start: self.now,
                slice,
            });
        }
    }

    fn run(&mut self) {
        while let Some(Reverse((t, _, event))) = self.a.events.pop() {
            self.now = t;
            match event {
                Event::Digitize(frame) => {
                    for i in 0..self.a.sources.len() {
                        let s = self.a.sources[i];
                        self.spawn_activation(s, frame);
                    }
                }
                Event::Finish(proc) => self.finish(proc),
            }
            self.dispatch();
        }
        let queued: Vec<(JobKind, u64)> = self
            .a
            .task_fifo
            .iter()
            .flatten()
            .chain(self.a.pool.iter())
            .chain(self.a.owner.iter().flatten())
            .map(|j| (j.kind, j.frame))
            .collect();
        assert!(
            queued.is_empty() && self.a.running.iter().all(Option::is_none),
            "online simulation deadlocked at {} with {} queued jobs: {:?}",
            self.now,
            queued.len(),
            queued
        );
    }

    fn finish(&mut self, proc: u32) {
        let Running {
            mut job,
            slice_start,
            slice,
        } = self.a.running[proc as usize]
            .take()
            .expect("proc was running");
        self.a.free_procs.push(proc);
        self.makespan = self.makespan.max(self.now);

        let chunk = match job.kind {
            JobKind::Chunk(_, i, n) => Some((i, n)),
            _ => None,
        };
        self.a.trace.push(TraceEntry {
            proc: ProcId(proc),
            task: job.kind.task(),
            frame: job.frame,
            chunk,
            start: slice_start,
            end: self.now,
        });

        job.remaining = job.remaining.saturating_sub(slice);
        if job.remaining > Micros::ZERO {
            // Preempted: requeue at the back (fresh seq keeps every queue
            // seq-sorted). A Serial/Split keeps its task thread, so it goes
            // to the owner slot; chunks and joins rejoin the pool.
            job.seq = self.next_seq;
            self.next_seq += 1;
            match job.kind {
                JobKind::Serial(t) | JobKind::Split(t) => {
                    self.a.owner[t.0] = Some(job);
                }
                JobKind::Chunk(..) | JobKind::Join(_) => self.a.pool.push_back(job),
            }
            return;
        }

        let frame = job.frame;
        match job.kind {
            JobKind::Serial(t) => {
                self.a.busy[t.0] = None;
                self.complete_activation(t, frame);
            }
            JobKind::Split(t) => {
                // Thread blocks awaiting the joiner; chunks go to the pool.
                let plan = *self.plan_of(t.0, frame).expect("split implies plan");
                slot_insert(&mut self.a.chunks_left[t.0], frame, plan.chunks);
                for i in 0..plan.chunks {
                    self.spawn(JobKind::Chunk(t, i, plan.chunks), frame, plan.chunk_cost);
                }
            }
            JobKind::Chunk(t, _, _) => {
                let left = slot_dec(&mut self.a.chunks_left[t.0], frame, "chunk accounting");
                if left == 0 {
                    let join = self
                        .plan_of(t.0, frame)
                        .expect("chunk implies plan")
                        .join_cost;
                    self.spawn(JobKind::Join(t), frame, join);
                }
            }
            JobKind::Join(t) => {
                self.a.busy[t.0] = None;
                self.complete_activation(t, frame);
            }
        }
    }

    /// Release this task's claim on its inputs for `frame` (processing done
    /// or frame skipped): the GC obligation of STM's `consume`.
    fn consume_inputs(&mut self, t: TaskId, frame: u64) {
        let graph = self.graph;
        for &c in &graph.task(t).inputs {
            let left = slot_dec(
                &mut self.a.remaining_consumers[c.0],
                frame,
                "input was present",
            );
            if left == 0 {
                self.a.occupancy[c.0] -= 1;
            }
        }
    }

    /// A logical task activation finished: publish outputs, consume inputs,
    /// track frame progress.
    fn complete_activation(&mut self, t: TaskId, frame: u64) {
        let graph = self.graph;
        let task = graph.task(t);
        // Publish outputs (slots were reserved at start).
        for &c in &task.outputs {
            let consumers = &graph.channel(c).consumers;
            slot_insert(
                &mut self.a.remaining_consumers[c.0],
                frame,
                consumers.len() as u32,
            );
            for &cons in consumers {
                let missing = slot_dec_or_init(
                    &mut self.a.missing_inputs[cons.0],
                    frame,
                    graph.task(cons).inputs.len() as u32,
                );
                if missing == 0 {
                    self.spawn_activation(cons, frame);
                }
            }
        }
        // Consume inputs.
        self.consume_inputs(t, frame);
        // Track the digitizer and per-frame completion.
        if task.inputs.is_empty() {
            self.a.digitized[frame as usize] = Some(self.now);
        }
        let done = &mut self.a.tasks_done[frame as usize];
        *done += 1;
        if *done as usize == graph.n_tasks() {
            self.a.completed[frame as usize] = Some(self.now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskgraph::builders;

    fn tracker_cfg(period_ms: u64, frames: u64, n_models: u32) -> OnlineConfig {
        OnlineConfig::new(
            FrameClock::new(Micros::from_millis(period_ms), frames),
            AppState::new(n_models),
        )
    }

    #[test]
    fn every_frame_completes() {
        let g = builders::color_tracker();
        let c = ClusterSpec::single_node(4);
        let out = simulate_online(&g, &c, tracker_cfg(2000, 10, 2));
        assert_eq!(out.frames.len(), 10);
        assert!(out.frames.iter().all(|f| f.completed_at.is_some()));
        assert!(out.trace.find_overlap().is_none());
    }

    #[test]
    fn deterministic_across_runs() {
        let g = builders::color_tracker();
        let c = ClusterSpec::single_node(4);
        let a = simulate_online(&g, &c, tracker_cfg(500, 12, 3));
        let b = simulate_online(&g, &c, tracker_cfg(500, 12, 3));
        assert_eq!(a.trace.entries(), b.trace.entries());
        assert_eq!(a.frames, b.frames);
    }

    #[test]
    fn arena_reuse_is_bit_identical_to_fresh_runs() {
        // One arena reused across heterogeneous runs (different graphs,
        // processor counts, frame counts, quanta, skip modes) must
        // reproduce every fresh-arena run exactly.
        let tracker = builders::color_tracker();
        let pipe = builders::pipeline(&[100, 200, 300]);
        let c4 = ClusterSpec::single_node(4);
        let c2 = ClusterSpec::single_node(2);
        let mut quantum_cfg = tracker_cfg(500, 5, 4);
        quantum_cfg.quantum = Some(Micros::from_millis(100));
        let mut skip_cfg = tracker_cfg(33, 30, 8);
        skip_cfg.skip_stale = true;
        skip_cfg.channel_capacity = 16;
        let mut dp_cfg = tracker_cfg(33, 20, 8);
        dp_cfg.decomposition.insert(
            tracker.task_by_name("Target Detection").unwrap(),
            Decomposition::new(1, 8),
        );
        let pipe_cfg = OnlineConfig::new(FrameClock::new(Micros(300), 20), AppState::new(1));

        let runs: Vec<(&TaskGraph, &ClusterSpec, OnlineConfig)> = vec![
            (&tracker, &c4, tracker_cfg(2000, 10, 2)),
            (&pipe, &c2, pipe_cfg),
            (&tracker, &c2, quantum_cfg),
            (&tracker, &c4, skip_cfg),
            (&tracker, &c4, dp_cfg),
            (&tracker, &c4, tracker_cfg(33, 25, 8)),
        ];
        let mut arena = SimArena::new();
        for (g, c, cfg) in runs {
            let fresh = simulate_online(g, c, cfg.clone());
            let reused = arena.simulate(g, c, &cfg);
            assert_eq!(fresh.metrics, reused.metrics);
            assert_eq!(fresh.makespan, reused.makespan);
            assert_eq!(fresh.frames, arena.frames());
            assert_eq!(fresh.trace.entries(), arena.trace().entries());
        }
    }

    #[test]
    fn trace_modes_agree_on_everything_but_storage() {
        let g = builders::color_tracker();
        let c = ClusterSpec::single_node(4);
        let mut arena = SimArena::new();
        let mut cfg = tracker_cfg(33, 25, 8);
        cfg.quantum = Some(Micros::from_millis(50));

        cfg.trace_mode = TraceMode::Full;
        let full = arena.simulate(&g, &c, &cfg);
        let full_slices = arena.trace().recorded_slices();
        assert!(full_slices > 0);

        cfg.trace_mode = TraceMode::Off;
        let off = arena.simulate(&g, &c, &cfg);
        assert_eq!(off.metrics, full.metrics);
        assert_eq!(off.makespan, full.makespan, "makespan survives Off mode");
        assert_eq!(arena.trace().recorded_slices(), 0);
        assert!(arena.trace().entries().is_empty());
    }

    #[test]
    fn slow_period_gives_unloaded_latency() {
        // With a very slow digitizer the system is idle between frames, so
        // latency is just the serial critical path through the graph.
        let g = builders::color_tracker();
        let c = ClusterSpec::single_node(4);
        let out = simulate_online(&g, &c, tracker_cfg(20_000, 6, 1));
        // Serial work after the digitizer ≈ 80+60+876+40+2 ms plus waits.
        let lat = out.metrics.mean_latency.as_secs_f64();
        assert!(lat > 0.8 && lat < 1.4, "latency {lat}");
    }

    #[test]
    fn saturation_raises_latency_and_throughput() {
        let g = builders::color_tracker();
        let c = ClusterSpec::single_node(4);
        let fast = simulate_online(&g, &c, tracker_cfg(33, 30, 8));
        let slow = simulate_online(&g, &c, tracker_cfg(9_000, 30, 8));
        assert!(
            fast.metrics.mean_latency > slow.metrics.mean_latency,
            "saturated latency {} must exceed unloaded latency {}",
            fast.metrics.mean_latency,
            slow.metrics.mean_latency
        );
        assert!(
            fast.metrics.throughput_hz > slow.metrics.throughput_hz,
            "saturated throughput {} must exceed unloaded {}",
            fast.metrics.throughput_hz,
            slow.metrics.throughput_hz
        );
    }

    #[test]
    fn capacity_bounds_latency_plateau() {
        // Under saturation, latency scales with channel capacity: the
        // backlog a frame sits behind is capacity-bounded.
        let g = builders::color_tracker();
        let c = ClusterSpec::single_node(4);
        let mut small = tracker_cfg(33, 25, 8);
        small.channel_capacity = 2;
        let mut big = tracker_cfg(33, 25, 8);
        big.channel_capacity = 8;
        let s = simulate_online(&g, &c, small);
        let b = simulate_online(&g, &c, big);
        assert!(b.metrics.mean_latency > s.metrics.mean_latency);
    }

    #[test]
    fn decomposition_reduces_saturated_latency() {
        let g = builders::color_tracker();
        let c = ClusterSpec::single_node(4);
        let t4 = g.task_by_name("Target Detection").unwrap();
        let serial = tracker_cfg(33, 20, 8);
        let mut dp = tracker_cfg(33, 20, 8);
        dp.decomposition.insert(t4, Decomposition::new(1, 8));
        let a = simulate_online(&g, &c, serial);
        let b = simulate_online(&g, &c, dp);
        assert!(
            b.metrics.mean_latency < a.metrics.mean_latency,
            "MP=8 {} must beat serial {} at 8 models",
            b.metrics.mean_latency,
            a.metrics.mean_latency
        );
    }

    #[test]
    fn quantum_preemption_slices_work() {
        let g = builders::color_tracker();
        let c = ClusterSpec::single_node(2);
        let mut cfg = tracker_cfg(500, 5, 4);
        cfg.quantum = Some(Micros::from_millis(100));
        let out = simulate_online(&g, &c, cfg);
        // T4 at 4 models ≈ 3.4 s; with a 100 ms quantum it must appear as
        // many slices.
        let t4 = g.task_by_name("Target Detection").unwrap();
        let slices = out.trace.task_slices(t4);
        assert!(slices.len() > 5 * 10, "got {} slices", slices.len());
        assert!(slices
            .iter()
            .all(|s| s.duration() <= Micros::from_millis(100)));
        assert!(out.frames.iter().all(|f| f.completed_at.is_some()));
    }

    #[test]
    fn single_processor_still_completes() {
        let g = builders::color_tracker();
        let c = ClusterSpec::single_node(1);
        let out = simulate_online(&g, &c, tracker_cfg(100, 8, 2));
        assert!(out.frames.iter().all(|f| f.completed_at.is_some()));
        assert!(out.trace.find_overlap().is_none());
    }

    #[test]
    fn pipeline_graph_runs() {
        let g = builders::pipeline(&[100, 200, 300]);
        let c = ClusterSpec::single_node(3);
        let cfg = OnlineConfig::new(FrameClock::new(Micros(300), 20), AppState::new(1));
        let out = simulate_online(&g, &c, cfg);
        assert_eq!(out.metrics.frames_dropped, 0);
        // Steady state: stage2 (300us) is the bottleneck → throughput ≈ 1/300us.
        assert!(out.metrics.throughput_hz > 2500.0);
    }

    #[test]
    fn trace_conservation_every_task_every_frame() {
        let g = builders::color_tracker();
        let c = ClusterSpec::single_node(4);
        let out = simulate_online(&g, &c, tracker_cfg(1000, 6, 2));
        for f in 0..6u64 {
            for t in g.task_ids() {
                let ran = out
                    .trace
                    .entries()
                    .iter()
                    .any(|e| e.task == t && e.frame == f);
                assert!(ran, "task {t} frame {f} never ran");
            }
        }
    }

    #[test]
    fn skip_stale_bounds_latency_but_drops_frames() {
        // Saturated 8-model run: without skipping the backlog inflates
        // latency; with NewestUnseen-style skipping latency stays near the
        // unloaded value and the drop count absorbs the overload.
        // Generous buffering (16 items) so the backlog materializes instead
        // of blocking the digitizer — the regime where skipping matters.
        let g = builders::color_tracker();
        let c = ClusterSpec::single_node(4);
        let mut keep = tracker_cfg(33, 30, 8);
        keep.channel_capacity = 16;
        let mut skip = tracker_cfg(33, 30, 8);
        skip.channel_capacity = 16;
        skip.skip_stale = true;
        let a = simulate_online(&g, &c, keep);
        let b = simulate_online(&g, &c, skip);
        assert_eq!(a.metrics.frames_dropped, 0);
        assert!(
            b.metrics.frames_dropped > 10,
            "overload must drop frames, got {}",
            b.metrics.frames_dropped
        );
        assert!(
            b.metrics.mean_latency < a.metrics.mean_latency / 2,
            "skip {} vs keep {}",
            b.metrics.mean_latency,
            a.metrics.mean_latency
        );
        assert!(b.trace.find_overlap().is_none());
    }

    #[test]
    fn skip_stale_is_harmless_when_unloaded() {
        let g = builders::color_tracker();
        let c = ClusterSpec::single_node(4);
        let mut cfg = tracker_cfg(10_000, 8, 2);
        cfg.skip_stale = true;
        let out = simulate_online(&g, &c, cfg);
        assert_eq!(out.metrics.frames_dropped, 0);
        assert!(out.frames.iter().all(|f| f.completed_at.is_some()));
    }

    #[test]
    fn skipped_frames_do_not_leak_channel_slots() {
        // After a skip-heavy run, the system still drains completely (the
        // deadlock assertion inside run() would fire otherwise), and late
        // frames complete — proof that skipped inputs were consumed.
        let g = builders::color_tracker();
        let c = ClusterSpec::single_node(2);
        let mut cfg = tracker_cfg(33, 40, 8);
        cfg.skip_stale = true;
        cfg.channel_capacity = 2;
        let out = simulate_online(&g, &c, cfg);
        let last_completed = out
            .frames
            .iter()
            .filter(|f| f.completed_at.is_some())
            .map(|f| f.frame)
            .max()
            .unwrap();
        assert!(last_completed >= 35, "late frames must still complete");
    }

    #[test]
    fn dynamic_state_track_changes_costs_mid_run() {
        // 1 model for frames 0..5, 8 models afterwards: later frames must
        // take much longer end to end.
        let g = builders::color_tracker();
        let c = ClusterSpec::single_node(4);
        let mut cfg = tracker_cfg(9_000, 10, 1);
        cfg.state_track = Some(crate::workload::StateTrack::from_changes(vec![
            (0, AppState::new(1)),
            (5, AppState::new(8)),
        ]));
        let out = simulate_online(&g, &c, cfg);
        assert!(out.frames.iter().all(|f| f.completed_at.is_some()));
        let lat = |f: usize| out.frames[f].latency().unwrap();
        assert!(
            lat(7) > lat(2) * 3,
            "heavy regime {} vs light regime {}",
            lat(7),
            lat(2)
        );
    }

    #[test]
    fn dynamic_track_with_decomposition_replans_per_state() {
        // MP=8 decomposition: at 1 model it collapses to a serial plan, at
        // 8 models it runs 8 chunks — the run must handle both.
        let g = builders::color_tracker();
        let c = ClusterSpec::single_node(4);
        let t4 = g.task_by_name("Target Detection").unwrap();
        let mut cfg = tracker_cfg(9_000, 8, 1);
        cfg.decomposition.insert(t4, Decomposition::new(1, 8));
        cfg.state_track = Some(crate::workload::StateTrack::from_changes(vec![
            (0, AppState::new(1)),
            (4, AppState::new(8)),
        ]));
        let out = simulate_online(&g, &c, cfg);
        assert!(out.frames.iter().all(|f| f.completed_at.is_some()));
        // Early frames: serial T4 (no chunk entries); late frames: chunks.
        let chunks_for = |frame: u64| {
            out.trace
                .entries()
                .iter()
                .filter(|e| e.frame == frame && e.chunk.is_some())
                .count()
        };
        assert_eq!(chunks_for(1), 0, "1 model clamps MP=8 to serial");
        assert_eq!(chunks_for(6), 8, "8 models run 8 chunks");
    }

    #[test]
    #[should_panic(expected = "not data parallel")]
    fn decomposing_serial_task_panics() {
        let g = builders::color_tracker();
        let c = ClusterSpec::single_node(4);
        let t2 = g.task_by_name("Histogram").unwrap();
        let mut cfg = tracker_cfg(100, 2, 1);
        cfg.decomposition.insert(t2, Decomposition::new(2, 1));
        let _ = simulate_online(&g, &c, cfg);
    }
}
