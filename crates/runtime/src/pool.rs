//! A generic worker pool: the "worker" threads of the paper's Fig. 9
//! splitter/worker/joiner structure. "Chunks get assigned to worker threads
//! based on worker availability" — a shared two-lane queue serves as the
//! work queue; replies flow through per-request done channels.
//!
//! The queue has class-ordered priority lanes: an urgent lane on top, then
//! one lane per [`PriorityClass`] (`Guaranteed`, `Standard`, `BestEffort`).
//! [`WorkerPool::submit`] enqueues on the `Standard` lane,
//! [`WorkerPool::submit_urgent`] on the urgent lane, and
//! [`WorkerPool::submit_class`] on the class's own lane; workers always
//! drain higher lanes first. The fleet layer uses the urgent lane for
//! weighted-fair scheduling across tenants — a tenant behind on its
//! frame-deadline budget submits urgent so its backlog overtakes tenants
//! that are ahead — and the class lanes for tenant lifecycle priorities: a
//! `Guaranteed` tenant's chunks overtake any `BestEffort` backlog without
//! needing the boost flag at all.
//!
//! The pool *contains* worker faults instead of propagating them: each job
//! runs under [`std::panic::catch_unwind`], the worker counts the panic in
//! [`PoolHealth::panics`] and takes the next job, and
//! [`WorkerPool::shutdown`] reports what happened through [`PoolHealth`]
//! instead of re-raising a worker's panic into the joiner. A job that
//! panics is consumed — its reply channel drops, which is exactly the
//! signal a Fig. 9 joiner needs to recompute the lost chunk inline.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Scheduling class of a tenant (and of every pool job it submits).
///
/// Maps one-to-one onto a queue lane: workers drain `Guaranteed` jobs
/// before `Standard`, and `Standard` before `BestEffort`. The urgent lane
/// (boost flag) still outranks all three — it is a *temporary* correction
/// for a tenant behind its deadline budget, whereas the class is a
/// standing property assigned at admission.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub enum PriorityClass {
    /// Latency-sensitive tenant: jobs overtake every Standard/BestEffort
    /// backlog. The fleet never sheds or degrades a Guaranteed tenant.
    Guaranteed,
    /// The default class; equivalent to pre-lifecycle behavior.
    #[default]
    Standard,
    /// Scavenger class: runs in whatever capacity is left, and under
    /// pressure the fleet degrades it to skip-commit (load shed) instead
    /// of letting its backlog inflate the neighbors' p99.
    BestEffort,
}

impl PriorityClass {
    /// Queue lane for this class (lane 0 is the urgent lane).
    fn lane(self) -> usize {
        match self {
            PriorityClass::Guaranteed => 1,
            PriorityClass::Standard => 2,
            PriorityClass::BestEffort => 3,
        }
    }

    /// Short label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PriorityClass::Guaranteed => "guaranteed",
            PriorityClass::Standard => "standard",
            PriorityClass::BestEffort => "best-effort",
        }
    }
}

/// Lane 0: the urgent (boost) lane, above every class lane.
const LANE_URGENT: usize = 0;
/// Total number of queue lanes: urgent + one per `PriorityClass`.
const N_LANES: usize = 4;

/// Error returned by [`WorkerPool::submit`] after shutdown (or when the OS
/// refused every worker thread); carries the job back so the caller can run
/// it inline or requeue it elsewhere.
pub struct PoolClosed<J>(pub J);

impl<J> std::fmt::Debug for PoolClosed<J> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PoolClosed(..)")
    }
}

impl<J> std::fmt::Display for PoolClosed<J> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("worker pool is shut down")
    }
}

/// Fault ledger of a [`WorkerPool`]: what the pool absorbed so the rest of
/// the pipeline didn't have to.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PoolHealth {
    /// Jobs whose handler panicked (contained by `catch_unwind`, plus any
    /// worker thread that died in a way `catch_unwind` could not observe).
    pub panics: u64,
    /// Jobs handed back to callers (or drained at shutdown) for inline
    /// execution instead of running on a pool worker.
    pub inline_fallbacks: u64,
}

impl PoolHealth {
    /// True when the pool never saw a fault.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        *self == PoolHealth::default()
    }
}

impl std::fmt::Display for PoolHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "panics={} inline-fallbacks={}",
            self.panics, self.inline_fallbacks
        )
    }
}

/// Counters shared between the pool handle and its worker threads.
#[derive(Default)]
struct Shared {
    panics: AtomicU64,
    inline_fallbacks: AtomicU64,
    /// Jobs accepted into the queue (load counter; see
    /// [`WorkerPool::submitted`]).
    submitted: AtomicU64,
    /// Jobs a worker (or the inline drain) has finished consuming.
    executed: AtomicU64,
    /// Nanoseconds spent inside job handlers, summed over all workers (and
    /// the inline drain). With the worker count and wall time this gives the
    /// pool's utilization — the signal fleet admission control keys on.
    busy_ns: AtomicU64,
    /// Wakes [`WorkerPool::wait_executed`]/[`WorkerPool::wait_panics`]
    /// whenever a counter above advances — the condvar replacement for the
    /// fixed polling sleeps that used to burn CPU and add multi-ms latency
    /// to lifecycle handoffs.
    progress_lock: Mutex<()>,
    progress: Condvar,
}

impl Shared {
    fn health(&self) -> PoolHealth {
        PoolHealth {
            panics: self.panics.load(Ordering::SeqCst),
            inline_fallbacks: self.inline_fallbacks.load(Ordering::SeqCst),
        }
    }

    /// Run one job under `catch_unwind`, timing it and counting a panic.
    /// The job is consumed either way, so a panicking chunk drops its reply
    /// sender and the joiner recomputes it inline.
    fn run_contained<J>(&self, handler: &(dyn Fn(J) + Send + Sync), job: J) {
        let t0 = Instant::now();
        if catch_unwind(AssertUnwindSafe(|| (handler)(job))).is_err() {
            self.panics.fetch_add(1, Ordering::SeqCst);
        }
        self.busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::SeqCst);
        self.executed.fetch_add(1, Ordering::SeqCst);
        self.note_progress();
    }

    /// Publish counter progress to any waiter. Taking and dropping the
    /// progress lock orders this notification after the waiter's predicate
    /// check, so a wakeup between "predicate false" and "wait" cannot be
    /// missed.
    fn note_progress(&self) {
        drop(self.progress_lock.lock());
        self.progress.notify_all();
    }

    /// Block until `pred()` holds or `timeout` elapses; true on success.
    fn wait_progress(&self, timeout: Duration, mut pred: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        let mut guard = self.progress_lock.lock();
        loop {
            if pred() {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let _ = self.progress.wait_for(&mut guard, deadline - now);
        }
    }
}

/// The class-ordered work queue: lane 0 (urgent) always dequeues first,
/// then the Guaranteed, Standard, and BestEffort lanes in that order.
/// Closing wakes every blocked worker; they drain what is left and exit.
struct LaneQueue<J> {
    lanes: Mutex<Lanes<J>>,
    nonempty: Condvar,
}

struct Lanes<J> {
    queues: [VecDeque<J>; N_LANES],
    closed: bool,
}

impl<J> Lanes<J> {
    /// Pop from the highest-priority non-empty lane.
    fn pop_ordered(&mut self) -> Option<J> {
        self.queues.iter_mut().find_map(VecDeque::pop_front)
    }
}

impl<J> LaneQueue<J> {
    fn new() -> Self {
        LaneQueue {
            lanes: Mutex::new(Lanes {
                queues: Default::default(),
                closed: false,
            }),
            nonempty: Condvar::new(),
        }
    }

    /// Enqueue on `lane`; hands the job back if the queue is closed.
    fn push(&self, job: J, lane: usize) -> Result<(), J> {
        {
            let mut g = self.lanes.lock();
            if g.closed {
                return Err(job);
            }
            g.queues[lane].push_back(job);
        }
        self.nonempty.notify_one();
        Ok(())
    }

    /// Blocking dequeue in lane order. `None` once closed *and* empty —
    /// a close never drops queued jobs.
    fn pop(&self) -> Option<J> {
        let mut g = self.lanes.lock();
        loop {
            if let Some(j) = g.pop_ordered() {
                return Some(j);
            }
            if g.closed {
                return None;
            }
            self.nonempty.wait(&mut g);
        }
    }

    /// Non-blocking dequeue for the inline drain path.
    fn try_pop(&self) -> Option<J> {
        self.lanes.lock().pop_ordered()
    }

    fn close(&self) {
        self.lanes.lock().closed = true;
        self.nonempty.notify_all();
    }
}

/// A fixed pool of worker threads consuming jobs of type `J` from the
/// class-ordered lane queue.
///
/// Panics inside the handler never cross the pool boundary: the worker
/// counts the panic in [`PoolHealth`] and keeps serving the queue.
pub struct WorkerPool<J: Send + 'static> {
    queue: Arc<LaneQueue<J>>,
    handler: Arc<dyn Fn(J) + Send + Sync + 'static>,
    handles: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl<J: Send + 'static> WorkerPool<J> {
    /// Spawn `n` workers (at least one), each running `handler` on every job
    /// it receives. If the OS refuses every thread, the pool starts closed
    /// and [`submit`](Self::submit) hands each job back for inline execution.
    #[must_use]
    pub fn new<F>(n: usize, handler: F) -> Self
    where
        F: Fn(J) + Send + Sync + 'static,
    {
        let n = n.max(1);
        let handler: Arc<dyn Fn(J) + Send + Sync> = Arc::new(handler);
        let queue = Arc::new(LaneQueue::new());
        let shared = Arc::new(Shared::default());
        let mut handles = Vec::with_capacity(n);
        for i in 0..n {
            let queue = Arc::clone(&queue);
            let handler = Arc::clone(&handler);
            let shared = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("dp-worker-{i}"))
                .spawn(move || {
                    while let Some(job) = queue.pop() {
                        shared.run_contained(handler.as_ref(), job);
                    }
                });
            // A refused thread degrades the pool (fewer workers) rather
            // than panicking.
            if let Ok(h) = spawned {
                handles.push(h);
            }
        }
        if handles.is_empty() {
            // Nobody would ever serve a queued job: refuse them all.
            queue.close();
        }
        WorkerPool {
            queue,
            handler,
            handles,
            shared,
        }
    }

    /// Enqueue one job on the `Standard` lane, or hand it back if the pool
    /// is shut down (or has no worker thread) so the caller can fall back to
    /// running it inline. The hand-back is counted in
    /// [`PoolHealth::inline_fallbacks`].
    pub fn submit(&self, job: J) -> Result<(), PoolClosed<J>> {
        self.submit_lane(job, PriorityClass::Standard.lane())
    }

    /// Like [`submit`](Self::submit), but on the urgent lane: workers pick
    /// this job up before anything waiting on any class lane. Used by the
    /// fleet layer to boost tenants running behind their deadline budget.
    pub fn submit_urgent(&self, job: J) -> Result<(), PoolClosed<J>> {
        self.submit_lane(job, LANE_URGENT)
    }

    /// Like [`submit`](Self::submit), but on the lane of `class`: a
    /// `Guaranteed` job overtakes any Standard/BestEffort backlog, a
    /// `BestEffort` job yields to everything else.
    pub fn submit_class(&self, job: J, class: PriorityClass) -> Result<(), PoolClosed<J>> {
        self.submit_lane(job, class.lane())
    }

    fn submit_lane(&self, job: J, lane: usize) -> Result<(), PoolClosed<J>> {
        match self.queue.push(job, lane) {
            Ok(()) => {
                self.shared.submitted.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }
            Err(job) => {
                self.shared.inline_fallbacks.fetch_add(1, Ordering::SeqCst);
                Err(PoolClosed(job))
            }
        }
    }

    /// Run any still-queued jobs in the current thread, containing panics.
    fn drain_inline(&self) {
        while let Some(job) = self.queue.try_pop() {
            self.shared.inline_fallbacks.fetch_add(1, Ordering::SeqCst);
            self.shared.run_contained(self.handler.as_ref(), job);
        }
    }

    /// Stop accepting jobs, drain the queue, join every worker, and report
    /// the pool's fault ledger. A worker that died panicking is *reported*
    /// (in [`PoolHealth::panics`]), never re-raised into the caller — the
    /// historical double-panic-on-shutdown is gone. Idempotent; called
    /// implicitly on drop.
    pub fn shutdown(&mut self) -> PoolHealth {
        self.queue.close();
        for h in std::mem::take(&mut self.handles) {
            if h.join().is_err() {
                // A panic escaped catch_unwind (e.g. thrown while dropping
                // the first panic's payload). Report, don't re-raise.
                self.shared.panics.fetch_add(1, Ordering::SeqCst);
                self.shared.note_progress();
            }
        }
        // If every worker died outside catch_unwind before emptying the
        // queue, finish its jobs here so no submitted job is silently
        // dropped.
        self.drain_inline();
        self.shared.health()
    }

    /// Snapshot of the pool's fault ledger.
    #[must_use]
    pub fn health(&self) -> PoolHealth {
        self.shared.health()
    }

    /// Jobs accepted into the queue over the pool's lifetime (monotone).
    #[must_use]
    pub fn submitted(&self) -> u64 {
        self.shared.submitted.load(Ordering::SeqCst)
    }

    /// Jobs fully consumed by a worker or the inline drain (monotone;
    /// includes jobs whose handler panicked — they are consumed too).
    #[must_use]
    pub fn executed(&self) -> u64 {
        self.shared.executed.load(Ordering::SeqCst)
    }

    /// Cumulative nanoseconds spent executing job handlers, summed across
    /// workers (monotone). `busy_ns / (wall_ns * n_workers)` is the pool's
    /// utilization over a window — fleet admission control samples deltas of
    /// this to decide whether a marginal stream fits.
    #[must_use]
    pub fn busy_ns(&self) -> u64 {
        self.shared.busy_ns.load(Ordering::SeqCst)
    }

    /// Block until at least `n` jobs have been consumed (see
    /// [`executed`](Self::executed)) or `timeout` elapses; true on success.
    /// Condvar-driven — no polling sleep, wakeups arrive the moment a
    /// worker finishes a job.
    #[must_use]
    pub fn wait_executed(&self, n: u64, timeout: Duration) -> bool {
        self.shared
            .wait_progress(timeout, || self.shared.executed.load(Ordering::SeqCst) >= n)
    }

    /// Block until at least `n` contained panics have been tallied or
    /// `timeout` elapses; true on success. Replaces the fixed "give the
    /// workers a moment to die" sleeps in fault tests.
    #[must_use]
    pub fn wait_panics(&self, n: u64, timeout: Duration) -> bool {
        self.shared
            .wait_progress(timeout, || self.shared.panics.load(Ordering::SeqCst) >= n)
    }
}

impl<J: Send + 'static> Drop for WorkerPool<J> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // Dropped during an unwind: joining could observe a worker
            // panic and abort the process (panic-in-panic). Detach instead;
            // closing the queue stops the workers after draining.
            self.queue.close();
            return;
        }
        let _ = self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::bounded;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn jobs_are_all_processed() {
        let counter = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&counter);
        let pool: WorkerPool<u64> = WorkerPool::new(4, move |j| {
            c2.fetch_add(j, Ordering::SeqCst);
        });
        for j in 1..=100u64 {
            pool.submit(j).unwrap();
        }
        drop(pool); // joins workers, draining the queue
        assert_eq!(counter.load(Ordering::SeqCst), 5050);
    }

    #[test]
    fn done_channels_collect_replies() {
        // The Fig. 9 pattern: jobs carry their own reply (done) channel.
        let pool: WorkerPool<(u64, crossbeam::channel::Sender<u64>)> =
            WorkerPool::new(3, |(x, reply): (u64, crossbeam::channel::Sender<u64>)| {
                reply.send(x * x).unwrap();
            });
        let (tx, rx) = bounded(16);
        for x in 0..8u64 {
            pool.submit((x, tx.clone())).unwrap();
        }
        let mut squares: Vec<u64> = (0..8).map(|_| rx.recv().unwrap()).collect();
        squares.sort_unstable();
        assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    fn workers_run_concurrently() {
        // Two blocking jobs must overlap on a two-worker pool.
        let (tx, rx) = bounded::<()>(0);
        let (tx2, rx2) = bounded::<()>(0);
        let pool: WorkerPool<u32> = WorkerPool::new(2, move |j| {
            if j == 0 {
                tx.send(()).unwrap(); // rendezvous with job 1
            } else {
                rx2.recv().unwrap();
            }
        });
        pool.submit(1).unwrap(); // blocks until job 0's signal is relayed
        pool.submit(0).unwrap();
        rx.recv().unwrap();
        tx2.send(()).unwrap();
        drop(pool);
    }

    #[test]
    fn n_workers_reported() {
        let pool: WorkerPool<()> = WorkerPool::new(5, |()| {});
        assert_eq!(pool.handles.len(), 5);
    }

    #[test]
    fn urgent_jobs_overtake_normal_backlog() {
        // One worker, gated so a backlog builds: normal jobs enqueued first,
        // urgent jobs enqueued last, yet the urgent ones must run first once
        // the gate opens.
        let (gate_tx, gate_rx) = bounded::<()>(0);
        let order = Arc::new(Mutex::new(Vec::<u64>::new()));
        let o2 = Arc::clone(&order);
        let pool: WorkerPool<u64> = WorkerPool::new(1, move |j| {
            if j == 0 {
                gate_rx.recv().unwrap(); // hold the lone worker
            } else {
                o2.lock().push(j);
            }
        });
        pool.submit(0).unwrap(); // occupies the worker
                                 // Wait until the worker has actually dequeued the gate job, so the
                                 // backlog below stays queued behind it.
        while pool.submitted() - pool.executed() > 1 {
            std::thread::yield_now();
        }
        for j in 1..=3u64 {
            pool.submit(j).unwrap(); // normal lane
        }
        for j in 100..=101u64 {
            pool.submit_urgent(j).unwrap(); // urgent lane, enqueued later
        }
        gate_tx.send(()).unwrap();
        drop(pool); // drains in lane order
        let got = order.lock().clone();
        assert_eq!(
            got,
            vec![100, 101, 1, 2, 3],
            "urgent lane drains before the earlier normal backlog"
        );
    }

    #[test]
    fn class_lanes_dequeue_in_priority_order() {
        // One worker held on a gate job; a BestEffort backlog enqueued
        // first, Standard next, Guaranteed last — yet dequeue order must be
        // Guaranteed, Standard, BestEffort, with the urgent lane on top of
        // all three.
        let (gate_tx, gate_rx) = bounded::<()>(0);
        let (started_tx, started_rx) = bounded::<()>(1);
        let order = Arc::new(Mutex::new(Vec::<u64>::new()));
        let o2 = Arc::clone(&order);
        let pool: WorkerPool<u64> = WorkerPool::new(1, move |j| {
            if j == 0 {
                started_tx.send(()).unwrap();
                gate_rx.recv().unwrap();
            } else {
                o2.lock().push(j);
            }
        });
        pool.submit(0).unwrap(); // occupies the lone worker
        started_rx.recv().unwrap(); // gate job dequeued: backlog stays queued
        for j in 300..=301u64 {
            pool.submit_class(j, PriorityClass::BestEffort).unwrap();
        }
        for j in 200..=201u64 {
            pool.submit_class(j, PriorityClass::Standard).unwrap();
        }
        for j in 100..=101u64 {
            pool.submit_class(j, PriorityClass::Guaranteed).unwrap();
        }
        pool.submit_urgent(1).unwrap();
        gate_tx.send(()).unwrap();
        drop(pool); // drains in lane order
        let got = order.lock().clone();
        assert_eq!(
            got,
            vec![1, 100, 101, 200, 201, 300, 301],
            "urgent, then Guaranteed, Standard, BestEffort"
        );
    }

    #[test]
    fn wait_executed_wakes_without_polling() {
        let pool: WorkerPool<u64> = WorkerPool::new(2, |_| {});
        for j in 0..6u64 {
            pool.submit(j).unwrap();
        }
        assert!(
            pool.wait_executed(6, Duration::from_secs(10)),
            "all six jobs consumed"
        );
        assert!(
            !pool.wait_executed(7, Duration::from_millis(20)),
            "a seventh job never arrives: the wait times out"
        );
    }

    #[test]
    fn busy_ns_accumulates_handler_time() {
        let mut pool: WorkerPool<u64> = WorkerPool::new(1, |_| {
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        pool.submit(1).unwrap();
        pool.submit(2).unwrap();
        pool.shutdown();
        assert!(
            pool.busy_ns() >= 10_000_000,
            "two 5ms jobs: busy_ns={} >= 10ms",
            pool.busy_ns()
        );
    }

    #[test]
    fn submit_after_shutdown_returns_the_job() {
        let mut pool: WorkerPool<u64> = WorkerPool::new(2, |_| {});
        pool.submit(1).unwrap();
        pool.shutdown();
        let PoolClosed(job) = pool.submit(42).unwrap_err();
        assert_eq!(job, 42, "rejected job is handed back intact");
        // Shutdown is idempotent.
        pool.shutdown();
        assert_eq!(pool.handles.len(), 0);
        assert_eq!(pool.health().inline_fallbacks, 1);
    }

    #[test]
    fn shutdown_time_submits_neither_deadlock_nor_drop_jobs() {
        // Regression test for the shutdown/submit interaction: a burst of
        // concurrent submitters races a slow pool into shutdown. Every job
        // must be accounted for exactly once — drained by the workers during
        // `shutdown`'s join, or handed back by `submit` for the caller's
        // inline-fallback path — and the whole dance must terminate (a
        // deadlock here hangs the test, which is the failure signal).
        let processed = Arc::new(AtomicU64::new(0));
        let p2 = Arc::clone(&processed);
        let mut pool: WorkerPool<u64> = WorkerPool::new(2, move |j| {
            // Slow worker: guarantees a backlog still queued when shutdown
            // starts, so the drain path is actually exercised.
            std::thread::sleep(std::time::Duration::from_micros(200));
            p2.fetch_add(j, Ordering::SeqCst);
        });
        let inline = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let pool = &pool;
                let inline = &inline;
                s.spawn(move || {
                    for j in (t * 25 + 1)..=(t * 25 + 25) {
                        if let Err(PoolClosed(job)) = pool.submit(j) {
                            // The documented fallback: run the rejected job
                            // inline.
                            inline.fetch_add(job, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        // Shutdown joins the workers; queued jobs drain first. Stragglers
        // submitted afterwards must all come back for inline execution.
        pool.shutdown();
        for j in 101..=110u64 {
            let PoolClosed(job) = pool.submit(j).unwrap_err();
            inline.fetch_add(job, Ordering::SeqCst);
        }
        let total = processed.load(Ordering::SeqCst) + inline.load(Ordering::SeqCst);
        assert_eq!(
            total,
            5050 + (101..=110u64).sum::<u64>(),
            "every job ran exactly once"
        );
    }

    #[test]
    fn drop_joins_workers_and_drains_queue() {
        // Every worker parks its thread handle count via an Arc; after drop
        // the Arc count proves the closures (and threads) are gone and all
        // queued jobs ran first.
        let processed = Arc::new(AtomicU64::new(0));
        let alive = Arc::new(());
        let p2 = Arc::clone(&processed);
        let a2 = Arc::clone(&alive);
        let pool: WorkerPool<u64> = WorkerPool::new(3, move |j| {
            let _hold = &a2;
            std::thread::sleep(std::time::Duration::from_millis(1));
            p2.fetch_add(j, Ordering::SeqCst);
        });
        for j in 1..=20u64 {
            pool.submit(j).unwrap();
        }
        drop(pool);
        // Drop joined the workers: queue fully drained, handler clones freed.
        assert_eq!(processed.load(Ordering::SeqCst), 210);
        assert_eq!(Arc::strong_count(&alive), 1, "worker closures dropped");
    }

    #[test]
    fn panicking_job_is_contained_and_its_worker_keeps_serving() {
        // A panicking handler must not kill the pool: on a lone worker, the
        // jobs before AND after the fault all run, the panic is tallied,
        // and the same thread serves the jobs behind the fault.
        let processed = Arc::new(AtomicU64::new(0));
        let after_panic = Arc::new(Mutex::new(Vec::<String>::new()));
        let p2 = Arc::clone(&processed);
        let a2 = Arc::clone(&after_panic);
        let mut pool: WorkerPool<u64> = WorkerPool::new(1, move |j| {
            if j == u64::MAX {
                panic!("injected worker panic");
            }
            if j > 10 {
                let name = std::thread::current().name().unwrap_or("").to_owned();
                a2.lock().push(name);
            }
            p2.fetch_add(j, Ordering::SeqCst);
        });
        for j in 1..=10u64 {
            pool.submit(j).unwrap();
        }
        pool.submit(u64::MAX).unwrap();
        for j in 11..=20u64 {
            pool.submit(j).unwrap();
        }
        let health = pool.shutdown();
        assert_eq!(processed.load(Ordering::SeqCst), (1..=20u64).sum::<u64>());
        assert_eq!(health.panics, 1);
        assert_eq!(health.inline_fallbacks, 0, "no job came back: {health}");
        assert_eq!(
            *after_panic.lock(),
            vec!["dp-worker-0"; 10],
            "the worker that caught the panic ran the rest of the queue"
        );
    }

    #[test]
    fn shutdown_under_panic_reports_instead_of_repanicking() {
        // Regression for the double-panic-on-shutdown: every job panics,
        // then shutdown must complete normally and report the faults — the
        // old `join().unwrap()` would have re-raised here.
        let mut pool: WorkerPool<u64> = WorkerPool::new(2, |_| panic!("injected worker panic"));
        pool.submit(1).unwrap();
        pool.submit(2).unwrap();
        // Wait (condvar, not a fixed sleep) for the workers to pick the
        // jobs up and contain them.
        assert!(pool.wait_panics(2, Duration::from_secs(10)));
        let health = pool.shutdown();
        assert_eq!(health.panics, 2, "both panics contained and counted");
        assert_eq!(pool.handles.len(), 0);
    }

    #[test]
    fn drop_during_unwind_does_not_abort() {
        // A pool dropped while the owning thread is already panicking must
        // not join (and thus must not double-panic/abort).
        let r = std::panic::catch_unwind(|| {
            let pool: WorkerPool<u64> = WorkerPool::new(1, |_| panic!("injected worker panic"));
            pool.submit(1).unwrap();
            assert!(pool.wait_panics(1, Duration::from_secs(10)));
            panic!("owner panics with a live pool");
        });
        assert!(r.is_err(), "owner panic propagates cleanly");
    }

    #[test]
    fn load_counters_track_submitted_and_executed() {
        let mut pool: WorkerPool<u64> = WorkerPool::new(2, |_| {});
        for j in 0..10u64 {
            pool.submit(j).unwrap();
        }
        assert_eq!(pool.submitted(), 10);
        pool.shutdown(); // drains: every accepted job is consumed
        assert_eq!(pool.executed(), 10);
        assert_eq!(pool.submitted() - pool.executed(), 0);
    }

    #[test]
    fn health_snapshot_mid_run() {
        let pool: WorkerPool<u64> = WorkerPool::new(2, |_| {});
        assert!(pool.health().is_clean());
        assert_eq!(pool.health().to_string(), "panics=0 inline-fallbacks=0");
    }
}
