//! The pre-overhaul online simulator, frozen as a reference oracle.
//!
//! This is the hash-map-based event engine exactly as it stood before the
//! arena rework in [`crate::online`]: per-run allocation of the event heap,
//! ready queue and trace, `HashMap` lookups keyed by `(task, frame)` /
//! `(channel, frame)` on every event, per-activation `Vec` clones of input
//! and output channel lists, and unconditional full trace recording. It is
//! kept in-tree — following the data-path overhaul's precedent — as an
//! **oracle**: equivalence tests assert the overhauled engine reproduces
//! this one bit for bit (trace, frames, metrics, makespan) across serial,
//! data-parallel, preemptive, frame-skipping and dynamic-state runs. Timed
//! beside it on the same host, it is also the "before" of the overhaul's
//! speedup, free of hardware drift; no benchmark times it today.
//!
//! Do not extend this module; new simulator features belong in
//! [`crate::online`], with this file untouched as the historical baseline.
//! The one deliberate difference: [`simulate_online_ref`] ignores
//! `cfg.trace_mode` and always records a full trace, which is what the old
//! engine did.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use taskgraph::{AppState, ChunkPlan, Micros, TaskGraph, TaskId};

use crate::metrics::{FrameRecord, Metrics};
use crate::online::{OnlineConfig, SimOutcome};
use crate::spec::{ClusterSpec, ProcId};
use crate::trace::{ExecutionTrace, TraceEntry};

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

struct Running {
    job: Job,
    slice_start: Micros,
    slice: Micros,
}

struct Sim<'g> {
    graph: &'g TaskGraph,
    cfg: OnlineConfig,
    now: Micros,
    events: BinaryHeap<Reverse<(Micros, u64, Event)>>,
    eseq: u64,
    ready: Vec<Job>,
    next_id: u64,
    next_seq: u64,
    /// Per-task thread occupancy: the id of the job holding the thread.
    busy: Vec<Option<u64>>,
    running: HashMap<u32, Running>,
    free_procs: Vec<u32>,
    /// Live (reserved or present) items per channel.
    occupancy: Vec<usize>,
    /// Consumers still owing a consume for (channel, frame).
    remaining_consumers: HashMap<(usize, u64), usize>,
    /// Inputs not yet present for (task, frame).
    missing_inputs: HashMap<(usize, u64), usize>,
    /// Chunks still running for a DP activation (task, frame).
    chunks_left: HashMap<(usize, u64), u32>,
    /// Chunk plans for DP tasks, keyed by (task, n_models of the frame's
    /// state) — a dynamic environment changes the plan between frames.
    plans: HashMap<(usize, u32), ChunkPlan>,
    digitized: Vec<Option<Micros>>,
    completed: Vec<Option<Micros>>,
    tasks_done: HashMap<u64, usize>,
    trace: ExecutionTrace,
}

/// Run the online scheduler on `graph` over `cluster` with the
/// pre-overhaul engine (always records a full trace).
///
/// Panics if the configuration can deadlock (a diagnostic is printed with
/// the stuck queue) — with a validated DAG and capacity ≥ 1 this does not
/// happen.
#[must_use]
pub fn simulate_online_ref(
    graph: &TaskGraph,
    cluster: &ClusterSpec,
    cfg: OnlineConfig,
) -> SimOutcome {
    graph.validate().expect("graph must validate");
    assert!(cfg.channel_capacity >= 1, "capacity must be at least 1");
    let n_frames = cfg.clock.n_frames;
    let n_procs = cluster.n_procs();

    // Chunk plans per (task, state): a dynamic run needs one plan per
    // distinct state the track visits.
    let states: Vec<AppState> = match &cfg.state_track {
        Some(track) => track.distinct_states(),
        None => vec![cfg.state],
    };
    let mut plans = HashMap::new();
    for (tid, decomp) in &cfg.decomposition {
        let task = graph.task(*tid);
        let dp = task
            .dp
            .as_ref()
            .unwrap_or_else(|| panic!("task {} is not data parallel", task.name));
        for st in &states {
            let plan = dp.plan(task.cost.eval(st), *decomp, st);
            plans.insert((tid.0, st.n_models), plan);
        }
    }

    let mut sim = Sim {
        graph,

        now: Micros::ZERO,
        events: BinaryHeap::new(),
        eseq: 0,
        ready: Vec::new(),
        next_id: 0,
        next_seq: 0,
        busy: vec![None; graph.n_tasks()],
        running: HashMap::new(),
        free_procs: (0..n_procs).rev().collect(),
        occupancy: vec![0; graph.channels().len()],
        remaining_consumers: HashMap::new(),
        missing_inputs: HashMap::new(),
        chunks_left: HashMap::new(),
        plans,
        digitized: vec![None; n_frames as usize],
        completed: vec![None; n_frames as usize],
        tasks_done: HashMap::new(),
        trace: ExecutionTrace::new(n_procs),
        cfg,
    };

    for f in 0..n_frames {
        let t = sim.cfg.clock.arrival(f);
        sim.push_event(t, Event::Digitize(f));
    }

    sim.run();

    let frames: Vec<FrameRecord> = (0..n_frames)
        .map(|f| FrameRecord {
            frame: f,
            digitized_at: sim.digitized[f as usize].unwrap_or(Micros::ZERO),
            completed_at: sim.completed[f as usize],
        })
        .collect();
    let metrics = Metrics::from_records(&frames, sim.cfg.warmup_frames);
    let makespan = sim.trace.makespan();
    SimOutcome {
        trace: sim.trace,
        frames,
        metrics,
        makespan,
    }
}

impl<'g> Sim<'g> {
    fn push_event(&mut self, t: Micros, e: Event) {
        self.events.push(Reverse((t, self.eseq, e)));
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
        self.plans.get(&(task, self.state_of(frame).n_models))
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
        self.ready.push(job);
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
            .all(|c| self.occupancy[c.0] < self.cfg.channel_capacity)
    }

    fn eligible(&self, job: &Job) -> bool {
        match job.kind {
            JobKind::Serial(t) | JobKind::Split(t) => {
                let thread_free = match self.busy[t.0] {
                    None => true,
                    Some(id) => id == job.id,
                };
                let space = job.reserved
                    || matches!(job.kind, JobKind::Split(_))
                    || self.outputs_have_space(t);
                thread_free && space
            }
            JobKind::Join(t) => job.reserved || self.outputs_have_space(t),
            JobKind::Chunk(..) => true,
        }
    }

    /// Assign eligible jobs to free processors, FIFO by seq.
    fn dispatch(&mut self) {
        loop {
            if self.free_procs.is_empty() {
                return;
            }
            // Oldest eligible job.
            let mut best: Option<usize> = None;
            for (i, job) in self.ready.iter().enumerate() {
                if self.eligible(job) && best.is_none_or(|b| self.ready[b].seq > job.seq) {
                    best = Some(i);
                }
            }
            let Some(mut i) = best else { return };

            // NewestUnseen-style consumption: when the selected job is the
            // start of an activation with inputs, jump to the newest ready
            // frame of the same task and skip (consume without processing)
            // everything older — the activation job only exists once all of
            // its inputs are present, so the skipped inputs are consumable.
            if self.cfg.skip_stale {
                let kind = self.ready[i].kind;
                if matches!(kind, JobKind::Serial(_) | JobKind::Split(_))
                    && !self.graph.task(kind.task()).inputs.is_empty()
                    && !self.ready[i].reserved
                    && self.busy[kind.task().0] != Some(self.ready[i].id)
                {
                    let t = kind.task();
                    let busy_id = self.busy[t.0];
                    let starts_activation = move |j: &Job| {
                        matches!(j.kind, JobKind::Serial(_) | JobKind::Split(_))
                            && j.kind.task() == t
                            && !j.reserved
                            && busy_id != Some(j.id)
                    };
                    let newest = self
                        .ready
                        .iter()
                        .enumerate()
                        .filter(|(_, j)| starts_activation(j))
                        .max_by_key(|(_, j)| j.frame)
                        .map(|(idx, j)| (idx, j.frame))
                        .expect("selected job qualifies");
                    let skipped: Vec<u64> = self
                        .ready
                        .iter()
                        .filter(|j| starts_activation(j) && j.frame < newest.1)
                        .map(|j| j.frame)
                        .collect();
                    self.ready
                        .retain(|j| !(starts_activation(j) && j.frame < newest.1));
                    for f in skipped {
                        self.consume_inputs(t, f);
                    }
                    // Indices shifted; find the newest job again.
                    i = self
                        .ready
                        .iter()
                        .position(|j| starts_activation(j) && j.frame == newest.1)
                        .expect("newest job still queued");
                }
            }

            let mut job = self.ready.swap_remove(i);
            let proc = self.free_procs.pop().expect("checked non-empty");

            // Acquire the task thread / reserve output slots on first slice.
            match job.kind {
                JobKind::Serial(t) | JobKind::Split(t) => {
                    self.busy[t.0] = Some(job.id);
                }
                _ => {}
            }
            if matches!(job.kind, JobKind::Serial(_) | JobKind::Join(_)) && !job.reserved {
                let t = job.kind.task();
                for c in &self.graph.task(t).outputs {
                    self.occupancy[c.0] += 1;
                }
                job.reserved = true;
            }

            let slice = match self.cfg.quantum {
                Some(q) => q.min(job.remaining),
                None => job.remaining,
            };
            let end = self.now + slice;
            self.push_event(end, Event::Finish(proc));
            self.running.insert(
                proc,
                Running {
                    job,
                    slice_start: self.now,
                    slice,
                },
            );
        }
    }

    fn run(&mut self) {
        while let Some(Reverse((t, _, event))) = self.events.pop() {
            self.now = t;
            match event {
                Event::Digitize(frame) => {
                    let sources = self.graph.sources();
                    for s in sources {
                        self.spawn_activation(s, frame);
                    }
                }
                Event::Finish(proc) => self.finish(proc),
            }
            self.dispatch();
        }
        assert!(
            self.ready.is_empty() && self.running.is_empty(),
            "online simulation deadlocked at {} with {} queued jobs: {:?}",
            self.now,
            self.ready.len(),
            self.ready
                .iter()
                .map(|j| (j.kind, j.frame))
                .collect::<Vec<_>>()
        );
    }

    fn finish(&mut self, proc: u32) {
        let Running {
            mut job,
            slice_start,
            slice,
        } = self.running.remove(&proc).expect("proc was running");
        self.free_procs.push(proc);

        let chunk = match job.kind {
            JobKind::Chunk(_, i, n) => Some((i, n)),
            _ => None,
        };
        self.trace.push(TraceEntry {
            proc: ProcId(proc),
            task: job.kind.task(),
            frame: job.frame,
            chunk,
            start: slice_start,
            end: self.now,
        });

        job.remaining = job.remaining.saturating_sub(slice);
        if job.remaining > Micros::ZERO {
            // Preempted: thread stays owned by this job; requeue at the back.
            job.seq = self.next_seq;
            self.next_seq += 1;
            self.ready.push(job);
            return;
        }

        let frame = job.frame;
        match job.kind {
            JobKind::Serial(t) => {
                self.busy[t.0] = None;
                self.complete_activation(t, frame);
            }
            JobKind::Split(t) => {
                // Thread blocks awaiting the joiner; chunks go to the pool.
                let plan = *self.plan_of(t.0, frame).expect("split implies plan");
                self.chunks_left.insert((t.0, frame), plan.chunks);
                for i in 0..plan.chunks {
                    self.spawn(JobKind::Chunk(t, i, plan.chunks), frame, plan.chunk_cost);
                }
            }
            JobKind::Chunk(t, _, _) => {
                let left = self
                    .chunks_left
                    .get_mut(&(t.0, frame))
                    .expect("chunk accounting");
                *left -= 1;
                if *left == 0 {
                    self.chunks_left.remove(&(t.0, frame));
                    let join = self
                        .plan_of(t.0, frame)
                        .expect("chunk implies plan")
                        .join_cost;
                    self.spawn(JobKind::Join(t), frame, join);
                }
            }
            JobKind::Join(t) => {
                self.busy[t.0] = None;
                self.complete_activation(t, frame);
            }
        }
    }

    /// Release this task's claim on its inputs for `frame` (processing done
    /// or frame skipped): the GC obligation of STM's `consume`.
    fn consume_inputs(&mut self, t: TaskId, frame: u64) {
        for &c in &self.graph.task(t).inputs.clone() {
            let left = self
                .remaining_consumers
                .get_mut(&(c.0, frame))
                .expect("input was present");
            *left -= 1;
            if *left == 0 {
                self.remaining_consumers.remove(&(c.0, frame));
                self.occupancy[c.0] -= 1;
            }
        }
    }

    /// A logical task activation finished: publish outputs, consume inputs,
    /// track frame progress.
    fn complete_activation(&mut self, t: TaskId, frame: u64) {
        let task = self.graph.task(t);
        // Publish outputs (slots were reserved at start).
        for &c in &task.outputs.clone() {
            let consumers = self.graph.channel(c).consumers.clone();
            self.remaining_consumers
                .insert((c.0, frame), consumers.len());
            for cons in consumers {
                let missing = self
                    .missing_inputs
                    .entry((cons.0, frame))
                    .or_insert_with(|| self.graph.task(cons).inputs.len());
                *missing -= 1;
                if *missing == 0 {
                    self.missing_inputs.remove(&(cons.0, frame));
                    self.spawn_activation(cons, frame);
                }
            }
        }
        // Consume inputs.
        self.consume_inputs(t, frame);
        // Track the digitizer and per-frame completion.
        if task.inputs.is_empty() {
            self.digitized[frame as usize] = Some(self.now);
        }
        let done = self.tasks_done.entry(frame).or_insert(0);
        *done += 1;
        if *done == self.graph.n_tasks() {
            self.tasks_done.remove(&frame);
            self.completed[frame as usize] = Some(self.now);
        }
    }
}
