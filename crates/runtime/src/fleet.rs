//! Multi-tenant tracker fleet: many independent streams on one shared
//! runtime, with a *dynamic* tenant lifecycle.
//!
//! Each tenant is a full [`TrackerApp`] — its own STM channels, regime
//! controller, health ledger, and measurement store — but heavy compute is
//! multiplexed onto **one** shared [`WorkerPool`], buffers recycle through
//! **one** bounded pair of freelists, and every tenant's schedule table is
//! built through **one** [`SharedScheduleCache`], so a thousand tenants in
//! the same regime pay for a single branch-and-bound search.
//!
//! The fleet is a living system ([`Fleet`]): streams [`attach`](Fleet::attach)
//! and [`detach`](Fleet::detach) *mid-run*. An arrival goes through the EWMA
//! admission gate against current measured utilization; a departure drains
//! the tenant's in-flight frames, releases its freelist buffers and shared
//! schedule-cache locks, and leaves a final rollup behind. A rejected
//! stream stays rejected: the caller decides whether to ask again.
//!
//! Mechanisms that keep the fleet honest under load:
//!
//! - **Admission control**: once the measured pool utilization plus the
//!   marginal cost of one more stream would cross
//!   [`FleetConfig::max_utilization`], arrivals are *rejected* instead of
//!   degrading everyone ("admission rejections, not fleet-wide misses").
//! - **Priority classes**: every tenant carries a
//!   [`PriorityClass`] wired into the pool's class-ordered lanes — a
//!   `Guaranteed` tenant's chunks overtake any `BestEffort` backlog, and
//!   under pressure `BestEffort` tenants degrade to skip-commit (load
//!   shedding) instead of inflating the neighbors' p99.
//! - **Weighted fairness**: a monitor thread samples each tenant's frame
//!   backlog; a (non-BestEffort) tenant behind its deadline budget gets its
//!   boost flag set, which routes its pool jobs onto the urgent lane until
//!   it catches up.
//! - **Containment**: a faulting tenant degrades through its own
//!   degradation ladder and health ledger; other
//!   tenants' outputs stay bit-identical to solo runs (the isolation tests
//!   assert exactly that).
//!
//! Observability composes per tenant: each tenant's span
//! [`Recorder`](obs::Recorder) drains into one Chrome trace under its own
//! `pid`, so a single `chrome://tracing` load shows the whole fleet side by
//! side, and the schedule-conformance checker runs per tenant with a
//! fleet-level rollup.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use cds_core::optimal::OptimalConfig;
use cds_core::sharedcache::SharedScheduleCache;
use cds_core::table::ScheduleTable;
use cluster::ClusterSpec;
use obs::{ChromeTrace, RegimeSpec};
use parking_lot::{Condvar, Mutex};
use taskgraph::{builders, AppState, TaskGraph, TaskId};
use vision::{BitMask, Frame, Scene};

use crate::app::{SharedResources, TrackerApp, TrackerConfig};
use crate::error::{HealthReport, Stage};
use crate::exec_online::OnlineExecutor;
use crate::faults::FaultInjector;
use crate::frame_pool::BufPool;
use crate::lifecycle::{self, AttachOutcome, LifecycleState, TenantSpec};
use crate::measure::{Measurements, RunStats};
use crate::pool::{PriorityClass, WorkerPool};
use crate::regime_rt::RegimeController;
use crate::tasks::ChunkJob;

/// Configuration of a fleet run: one tracker template plus the fleet-level
/// knobs (pool size, deadline budget, admission threshold, fairness and
/// lifecycle policy).
#[derive(Clone)]
pub struct FleetConfig {
    /// Per-tenant tracker template. Each tenant clones this with its own
    /// seed (`base.seed + tenant`); `pool_workers` and `recycle_buffers`
    /// on the template are superseded by the fleet's shared resources.
    pub base: TrackerConfig,
    /// Number of streams asking to run (used by [`run_fleet`]; a [`Fleet`]
    /// driven through [`attach`](Fleet::attach) ignores it).
    pub tenants: usize,
    /// Width of the one shared worker pool.
    pub pool_workers: usize,
    /// Per-tenant frame-deadline budget: the p99 criterion, and the STM
    /// input-wait watchdog for every tenant stage.
    pub deadline: Duration,
    /// Admission threshold: a tenant is rejected when measured pool
    /// utilization plus the marginal utilization of one more stream
    /// (utilization ÷ running streams) would exceed this.
    pub max_utilization: f64,
    /// Streams admitted unconditionally before the utilization probe
    /// applies (there is no signal to measure before the first stream).
    pub min_admitted: usize,
    /// Backlog (frames digitized but not completed) at or above which a
    /// tenant's pool jobs ride the urgent lane.
    boost_backlog: u64,
    /// Completed frames excluded from each tenant's statistics.
    pub warmup: usize,
    /// Per-tenant fault injection, indexed by tenant (missing/`None`
    /// entries inject nothing). Faults ride the tenant's own run context,
    /// so they perturb only that tenant.
    tenant_faults: Vec<Option<Arc<FaultInjector>>>,
    /// Regimes (model counts) every tenant's schedule table covers. Empty
    /// defaults to the template's target count.
    pub regimes: Vec<u32>,
    /// Shed threshold for `BestEffort` tenants: while EWMA utilization
    /// exceeds this, their digitizers skip-commit frames instead of
    /// rendering. `f64::INFINITY` disables shedding.
    pub shed_utilization: f64,
    /// Hysteresis band of the shed gate (release only below
    /// `shed_utilization - shed_hysteresis`).
    pub shed_hysteresis: f64,
}

/// Pacing between [`run_fleet`]'s admission decisions — long enough for
/// the monitor to sample the marginal load of the previous admission.
const ADMIT_INTERVAL: Duration = Duration::from_millis(3);
/// Monitor sampling period (utilization + per-tenant backlog).
const MONITOR_TICK: Duration = Duration::from_millis(1);
/// Weight bound of the shared cross-tenant schedule cache.
const CACHE_WEIGHT: usize = 64;

impl FleetConfig {
    /// A small, fast fleet suitable for tests: tiny frames, a 2-worker
    /// pool, generous deadline, admission effectively open, shedding off.
    #[must_use]
    pub fn small(tenants: usize, n_frames: u64) -> Self {
        let mut base = TrackerConfig::small(2, n_frames);
        base.period = Duration::from_millis(2);
        FleetConfig {
            base,
            tenants,
            pool_workers: 2,
            deadline: Duration::from_secs(5),
            max_utilization: 0.95,
            min_admitted: 1,
            boost_backlog: 4,
            warmup: 0,
            tenant_faults: Vec::new(),
            regimes: vec![1, 2],
            shed_utilization: f64::INFINITY,
            shed_hysteresis: 0.1,
        }
    }
}

/// One tenant's outcome within a fleet run.
pub struct TenantRun {
    /// Tenant index (also its Chrome-trace `pid`).
    pub tenant: usize,
    /// Whether admission control let this stream run.
    pub admitted: bool,
    /// The tenant's scheduling class.
    pub class: PriorityClass,
    /// Where the tenant ended its lifecycle.
    pub state: LifecycleState,
    /// The tenant's application after the run (health ledger, face logs,
    /// channels, recorder) — `None` when rejected.
    pub app: Option<TrackerApp>,
    /// The tenant's wall-clock statistics — `None` when rejected.
    pub stats: Option<RunStats>,
    /// Monitor ticks during which this tenant held the urgent lane.
    pub boost_ticks: u64,
    /// Frames the shed policy skip-committed for this tenant.
    pub sheds: u64,
}

/// A completed fleet run: per-tenant outcomes plus fleet-level signals.
pub struct FleetRun {
    /// Per-tenant outcomes, indexed by tenant.
    pub tenants: Vec<TenantRun>,
    /// Mean pool utilization over all monitor samples.
    pub mean_utilization: f64,
    /// Branch-and-bound searches the shared schedule cache actually ran.
    pub cache_searches: u64,
    /// Table entries served from the shared cache's memory.
    pub cache_hits: u64,
    /// Jobs the shared pool executed across all tenants.
    pub pool_executed: u64,
    /// The deadline budget the run was judged against.
    pub deadline: Duration,
    /// Warmup frames excluded from per-tenant statistics.
    pub warmup: usize,
    /// The schedule table every tenant shares (built once, then served
    /// from the shared cache).
    pub table: ScheduleTable,
    /// T4 (the regime-dependent data-parallel task) in the task graph.
    pub dp_task: TaskId,
}

/// Fleet-level observability: one Chrome trace with a `pid` per tenant,
/// plus the per-tenant schedule-conformance rollup.
pub struct FleetObs {
    /// Chrome `trace.json` covering every traced tenant.
    pub trace_json: String,
    /// `(tenant, conformant)` per traced tenant.
    pub conformance: Vec<(usize, bool)>,
    /// `(tenant, bytes_now, peak_bytes)` per surviving tenant: payload
    /// bytes summed over the tenant's five STM channels, as reported by
    /// the per-channel byte weighers (bytes_now = live + retained).
    pub memory: Vec<(usize, usize, usize)>,
}

/// The final rollup [`Fleet::detach_and_wait`] emits once a tenant has
/// fully drained (or had already finished).
pub struct TenantRollup {
    /// Tenant index.
    pub tenant: usize,
    /// Wall-clock statistics over the frames that ran before departure.
    pub stats: RunStats,
    /// The tenant's final health ledger.
    pub health: HealthReport,
    /// Frames the shed policy skip-committed.
    pub sheds: u64,
    /// Frames the tenant digitized before the drain cut production.
    pub digitized: u64,
}

/// What the monitor tracks per admitted tenant.
struct TenantLive {
    tenant: usize,
    class: PriorityClass,
    measure: Arc<Measurements>,
    boost: Arc<AtomicBool>,
    boost_ticks: Arc<AtomicU64>,
    shed: Arc<AtomicBool>,
    shedding: bool,
}

/// One tenant's lifecycle slot: state, knobs, and (eventually) results.
struct TenantSlot {
    spec: TenantSpec,
    state: LifecycleState,
    boost_ticks: Arc<AtomicU64>,
    halt: Arc<AtomicBool>,
    /// The tenant's own table handle: its `Arc<PipelinedSchedule>` clones
    /// keep the shared cache's entries locked (unevictable) while the
    /// tenant lives; taken on departure so the entries unlock.
    table: Option<ScheduleTable>,
    result: Option<(TrackerApp, RunStats)>,
}

/// Everything the fleet's threads share.
struct FleetInner {
    cfg: FleetConfig,
    workers: usize,
    pool: Arc<WorkerPool<ChunkJob>>,
    frame_pool: Option<BufPool<Frame>>,
    mask_pool: Option<BufPool<BitMask>>,
    cache: SharedScheduleCache,
    graph: TaskGraph,
    cluster: ClusterSpec,
    states: Vec<AppState>,
    search: OptimalConfig,
    table: ScheduleTable,
    dp_task: TaskId,
    stop: AtomicBool,
    util_bits: AtomicU64,
    /// (sum, samples) of the EWMA utilization.
    util_acc: Mutex<(f64, u64)>,
    live: Mutex<Vec<TenantLive>>,
    slots: Mutex<Vec<TenantSlot>>,
    /// Tenant threads currently running.
    running: AtomicUsize,
    /// Wakes [`Fleet::finish`]/[`Fleet::detach_and_wait`] on any tenant
    /// completion — the condvar replacement for the old polling join.
    done_lock: Mutex<()>,
    done_cv: Condvar,
    handles: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl FleetInner {
    fn utilization(&self) -> f64 {
        f64::from_bits(self.util_bits.load(Ordering::Relaxed))
    }

    /// Mark tenant-thread completion and wake every waiter. The lock
    /// acquire/release orders the notification after a waiter's predicate
    /// check, so no completion is missed.
    fn note_done(&self) {
        self.running.fetch_sub(1, Ordering::SeqCst);
        drop(self.done_lock.lock());
        self.done_cv.notify_all();
    }

    /// Build and launch one admitted tenant (index `idx` must already hold
    /// a slot).
    fn start_tenant(self: &Arc<Self>, idx: usize) {
        let cfg = &self.cfg;
        let spec = {
            let mut slots = self.slots.lock();
            let slot = &mut slots[idx];
            slot.state = LifecycleState::Admitted;
            slot.spec.clone()
        };

        // The tenant's table build: a shared-cache hit for every tenant
        // after the first. Holding the table in the slot keeps the cache
        // entries locked for exactly the tenant's lifetime.
        let (tenant_table, _) = ScheduleTable::precompute_shared(
            &self.graph,
            &self.cluster,
            &self.states,
            &self.search,
            &self.cache,
            None,
        );
        let controller = RegimeController::from_schedule_table(
            &tenant_table,
            self.dp_task,
            cfg.base.n_targets as u32,
            2,
        )
        .ok()
        .map(Arc::new);

        let mut tcfg = cfg.base.clone();
        tcfg.seed = cfg.base.seed + idx as u64;
        tcfg.frame_deadline = Some(cfg.deadline);
        tcfg.pool_workers = 0; // the shared pool supersedes it
        tcfg.faults = spec.faults.clone();
        if let Some(p) = spec.period {
            tcfg.period = p;
        }
        if let Some(n) = spec.n_frames {
            tcfg.n_frames = n;
        }
        let scene = Scene::demo(tcfg.width, tcfg.height, tcfg.n_targets, tcfg.seed);

        let boost = Arc::new(AtomicBool::new(false));
        let shed = Arc::new(AtomicBool::new(false));
        let (halt, boost_ticks) = {
            let slots = self.slots.lock();
            (
                Arc::clone(&slots[idx].halt),
                Arc::clone(&slots[idx].boost_ticks),
            )
        };
        let shared = SharedResources {
            pool: Some(Arc::clone(&self.pool)),
            frame_pool: self.frame_pool.clone(),
            mask_pool: self.mask_pool.clone(),
            boost: Arc::clone(&boost),
            class: spec.class,
            halt: Arc::clone(&halt),
            shed: Arc::clone(&shed),
        };
        let app = TrackerApp::assemble(&tcfg, scene, controller, Some(&shared));
        self.slots.lock()[idx].table = Some(tenant_table);
        self.live.lock().push(TenantLive {
            tenant: idx,
            class: spec.class,
            measure: Arc::clone(&app.measure),
            boost,
            boost_ticks,
            shed,
            shedding: false,
        });

        self.running.fetch_add(1, Ordering::SeqCst);
        let inner = Arc::clone(self);
        let warmup = cfg.warmup;
        let handle = thread::Builder::new()
            .name(format!("tenant-{idx}"))
            .spawn(move || {
                let stats = OnlineExecutor::run(&app, warmup);
                inner.finish_tenant(idx, app, stats);
            });
        match handle {
            Ok(h) => self.handles.lock().push(h),
            Err(_) => {
                // The OS refused a thread: the tenant never ran. Record it
                // as departed-with-nothing rather than wedging finish().
                let mut slots = self.slots.lock();
                slots[idx].state = LifecycleState::Departed;
                slots[idx].table = None;
                self.live.lock().retain(|t| t.tenant != idx);
                self.note_done();
            }
        }
    }

    /// Tenant thread epilogue: store results, settle the lifecycle state,
    /// release the tenant's cache locks, and wake waiters.
    fn finish_tenant(&self, idx: usize, app: TrackerApp, stats: RunStats) {
        let departed = {
            let mut slots = self.slots.lock();
            let slot = &mut slots[idx];
            let departed = slot.state == LifecycleState::Draining;
            slot.state = if departed {
                LifecycleState::Departed
            } else {
                LifecycleState::Completed
            };
            slot.result = Some((app, stats));
            // Dropping the tenant's table clones unlocks its shared-cache
            // entries (they become evictable again).
            slot.table = None;
            departed
        };
        self.live.lock().retain(|t| t.tenant != idx);
        if departed {
            // Departure releases capacity: sweep the cache so unlocked
            // entries can actually leave if the weight bound demands it.
            self.cache.release_unused();
        }
        self.note_done();
    }

    /// One monitor pass: sample utilization and drive boost/shed flags.
    fn monitor_tick(&self, prev_busy: &mut u64, prev_t: &mut Instant) {
        let now = Instant::now();
        let busy = self.pool.busy_ns();
        // Raw per-tick samples are spiky — a long pool job's entire busy
        // time lands in whichever tick it completes on — so the published
        // utilization is a clamped exponential moving average; degenerate
        // windows (zero dt, zero workers) are rejected outright instead of
        // poisoning it (see `lifecycle::utilization_sample`).
        let prev = {
            let bits = self.util_bits.load(Ordering::Relaxed);
            let acc = self.util_acc.lock();
            (acc.1 > 0).then(|| f64::from_bits(bits))
        };
        if let Some(util) = lifecycle::utilization_sample(
            busy.saturating_sub(*prev_busy),
            now.duration_since(*prev_t),
            self.workers,
            prev,
        ) {
            self.util_bits.store(util.to_bits(), Ordering::Relaxed);
            let mut acc = self.util_acc.lock();
            acc.0 += util;
            acc.1 += 1;
            *prev_busy = busy;
            *prev_t = now;
        }
        let util = self.utilization();

        for t in self.live.lock().iter_mut() {
            // Boost (urgent lane) is for tenants with service guarantees;
            // a BestEffort tenant never preempts, it sheds instead.
            let behind = t.class != PriorityClass::BestEffort
                && t.measure.backlog() >= self.cfg.boost_backlog;
            t.boost.store(behind, Ordering::Relaxed);
            if behind {
                t.boost_ticks.fetch_add(1, Ordering::Relaxed);
            }
            if t.class == PriorityClass::BestEffort {
                t.shedding = lifecycle::shed_pressure(
                    t.shedding,
                    util,
                    self.cfg.shed_utilization,
                    self.cfg.shed_hysteresis,
                );
                t.shed.store(t.shedding, Ordering::Relaxed);
            }
        }
    }
}

/// A live fleet: launch once, then [`attach`](Self::attach) and
/// [`detach`](Self::detach) tenants while it runs, and
/// [`finish`](Self::finish) to join everything into a [`FleetRun`].
pub struct Fleet {
    inner: Arc<FleetInner>,
    monitor: Option<thread::JoinHandle<()>>,
}

impl Fleet {
    /// Build the shared runtime (pool, freelists, schedule cache, fleet
    /// table) and start the monitor thread. No tenants yet.
    #[must_use]
    pub fn launch(cfg: FleetConfig) -> Fleet {
        let workers = cfg.pool_workers.max(1);
        let pool: Arc<WorkerPool<ChunkJob>> = Arc::new(WorkerPool::new(workers, ChunkJob::run));
        // Bounded regardless of tenant count: overflow returns are dropped,
        // shortfalls allocate fresh — correctness never depends on the
        // freelist being large enough.
        let idle_bound = (cfg.base.channel_capacity + 2) * 4;
        let (frame_pool, mask_pool): (Option<BufPool<Frame>>, Option<BufPool<BitMask>>) =
            if cfg.base.recycle_buffers {
                (
                    Some(BufPool::new(idle_bound)),
                    Some(BufPool::new(idle_bound)),
                )
            } else {
                (None, None)
            };

        // The cross-tenant schedule cache: this first table build searches,
        // every tenant's build is served from memory.
        let cache = SharedScheduleCache::new(CACHE_WEIGHT);
        let graph = builders::color_tracker();
        let cluster = ClusterSpec::single_node(4);
        let dp_task = graph
            .task_by_name(Stage::Detect.name())
            .expect("tracker graph has T4"); // INVARIANT: the builder defines T4 by this name

        let regimes: Vec<u32> = if cfg.regimes.is_empty() {
            vec![cfg.base.n_targets as u32]
        } else {
            cfg.regimes.clone()
        };
        let states: Vec<AppState> = regimes.iter().map(|&n| AppState::new(n)).collect();
        let search = OptimalConfig::default().serial();
        let (table, _) =
            ScheduleTable::precompute_shared(&graph, &cluster, &states, &search, &cache, None);

        let inner = Arc::new(FleetInner {
            cfg,
            workers,
            pool,
            frame_pool,
            mask_pool,
            cache,
            graph,
            cluster,
            states,
            search,
            table,
            dp_task,
            stop: AtomicBool::new(false),
            util_bits: AtomicU64::new(0),
            util_acc: Mutex::new((0.0, 0)),
            live: Mutex::new(Vec::new()),
            slots: Mutex::new(Vec::new()),
            running: AtomicUsize::new(0),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
            handles: Mutex::new(Vec::new()),
        });

        let m_inner = Arc::clone(&inner);
        let monitor = thread::Builder::new()
            .name("fleet-monitor".into())
            .spawn(move || {
                let mut prev_busy = m_inner.pool.busy_ns();
                let mut prev_t = Instant::now();
                while !m_inner.stop.load(Ordering::Relaxed) {
                    thread::sleep(MONITOR_TICK);
                    m_inner.monitor_tick(&mut prev_busy, &mut prev_t);
                }
                // Leave no tenant pinned to the urgent lane after the run.
                for t in m_inner.live.lock().iter() {
                    t.boost.store(false, Ordering::Relaxed);
                }
            })
            .ok();

        Fleet { inner, monitor }
    }

    /// Ask to run one more stream. The EWMA admission gate decides against
    /// *current* measured utilization; a rejected stream stays
    /// [`Rejected`](LifecycleState::Rejected).
    pub fn attach(&self, spec: TenantSpec) -> AttachOutcome {
        let inner = &self.inner;
        let util = inner.utilization();
        let (idx, admitted) = {
            let mut slots = inner.slots.lock();
            let idx = slots.len();
            let admitted = lifecycle::admit(
                util,
                inner.running.load(Ordering::SeqCst),
                idx,
                inner.cfg.min_admitted,
                inner.cfg.max_utilization,
            );
            slots.push(TenantSlot {
                spec,
                state: LifecycleState::Rejected,
                boost_ticks: Arc::new(AtomicU64::new(0)),
                halt: Arc::new(AtomicBool::new(false)),
                table: None,
                result: None,
            });
            (idx, admitted)
        };
        if admitted {
            inner.start_tenant(idx);
        }
        AttachOutcome {
            tenant: idx,
            admitted,
            utilization: util,
        }
    }

    /// Begin a tenant's departure: its digitizer stops at the next frame
    /// boundary and in-flight frames drain through the pipeline. Returns
    /// `false` unless the tenant is currently `Admitted`. Non-blocking;
    /// use [`detach_and_wait`](Self::detach_and_wait) for the rollup.
    pub fn detach(&self, tenant: usize) -> bool {
        let mut slots = self.inner.slots.lock();
        match slots.get_mut(tenant) {
            Some(slot) if slot.state == LifecycleState::Admitted => {
                slot.state = LifecycleState::Draining;
                slot.halt.store(true, Ordering::SeqCst);
                true
            }
            _ => false,
        }
    }

    /// [`detach`](Self::detach), then block until the tenant has fully
    /// drained (or `timeout` elapses) and emit its final rollup. A tenant
    /// that already finished — departed earlier, or ran its whole frame
    /// budget — returns its stored rollup at once, so the call is
    /// idempotent; `None` means an unknown or never-admitted tenant, or a
    /// drain that outlived `timeout`.
    pub fn detach_and_wait(&self, tenant: usize, timeout: Duration) -> Option<TenantRollup> {
        let _ = self.detach(tenant);
        let deadline = Instant::now() + timeout;
        let inner = &self.inner;
        let mut g = inner.done_lock.lock();
        loop {
            {
                let slots = inner.slots.lock();
                let slot = slots.get(tenant)?;
                match slot.state {
                    LifecycleState::Rejected => return None,
                    LifecycleState::Departed | LifecycleState::Completed => {
                        let (app, stats) = slot.result.as_ref()?;
                        return Some(TenantRollup {
                            tenant,
                            stats: *stats,
                            health: app.health.report(),
                            sheds: app.measure.shed_count(),
                            digitized: app.measure.digitized_count(),
                        });
                    }
                    LifecycleState::Admitted | LifecycleState::Draining => {}
                }
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let _ = inner.done_cv.wait_for(&mut g, deadline - now);
        }
    }

    /// A tenant's current lifecycle state.
    #[must_use]
    pub fn tenant_state(&self, tenant: usize) -> Option<LifecycleState> {
        self.inner.slots.lock().get(tenant).map(|s| s.state)
    }

    /// Wait (condvar, not polling) for every running tenant to finish,
    /// stop the monitor, and reduce to a [`FleetRun`].
    #[must_use]
    pub fn finish(mut self) -> FleetRun {
        let inner = &self.inner;
        {
            let mut g = inner.done_lock.lock();
            while inner.running.load(Ordering::SeqCst) > 0 {
                inner.done_cv.wait(&mut g);
            }
        }
        inner.stop.store(true, Ordering::SeqCst);
        if let Some(m) = self.monitor.take() {
            let _ = m.join();
        }
        for h in std::mem::take(&mut *inner.handles.lock()) {
            let _ = h.join();
        }

        let (sum, samples) = *inner.util_acc.lock();
        let mut slots = inner.slots.lock();
        let tenants: Vec<TenantRun> = slots
            .iter_mut()
            .enumerate()
            .map(|(k, slot)| {
                let boost_ticks = slot.boost_ticks.load(Ordering::Relaxed);
                match slot.result.take() {
                    Some((app, stats)) => TenantRun {
                        tenant: k,
                        admitted: true,
                        class: slot.spec.class,
                        state: slot.state,
                        sheds: app.measure.shed_count(),
                        app: Some(app),
                        stats: Some(stats),
                        boost_ticks,
                    },
                    None => TenantRun {
                        tenant: k,
                        admitted: slot.state != LifecycleState::Rejected,
                        class: slot.spec.class,
                        state: slot.state,
                        app: None,
                        stats: None,
                        boost_ticks,
                        sheds: 0,
                    },
                }
            })
            .collect();

        FleetRun {
            tenants,
            mean_utilization: if samples > 0 {
                sum / samples as f64
            } else {
                0.0
            },
            cache_searches: inner.cache.searches(),
            cache_hits: inner.cache.hits(),
            pool_executed: inner.pool.executed(),
            deadline: inner.cfg.deadline,
            warmup: inner.cfg.warmup,
            table: inner.table.clone(),
            dp_task: inner.dp_task,
        }
    }
}

impl FleetRun {
    /// Streams admission control let run.
    #[must_use]
    pub fn admitted(&self) -> usize {
        self.tenants.iter().filter(|t| t.admitted).count()
    }

    /// Streams admission control turned away.
    #[must_use]
    pub fn rejected(&self) -> usize {
        self.tenants.len() - self.admitted()
    }

    /// Deadline misses for one admitted tenant: completed frames over the
    /// budget plus frames that entered the pipeline (were digitized) but
    /// never completed. Frames a departed tenant never produced, and
    /// frames the shed policy skip-committed, are not misses — departure
    /// and shedding are policy, not failures.
    #[must_use]
    pub fn deadline_misses(&self, tenant: usize) -> u64 {
        let t = &self.tenants[tenant];
        match (&t.app, &t.stats) {
            (Some(app), Some(stats)) => {
                let over = app.measure.over_deadline(self.deadline, self.warmup);
                over + app
                    .measure
                    .digitized_count()
                    .saturating_sub(stats.frames_completed)
            }
            _ => 0,
        }
    }

    /// The per-regime predictions of the shared table, for conformance
    /// checking.
    fn regime_specs(&self) -> Vec<RegimeSpec> {
        self.table
            .states()
            .iter()
            .map(|s| {
                // INVARIANT: states() enumerates exactly the table's keys.
                let sched = self.table.get(s).expect("states() lists table entries");
                let decomp = sched
                    .iteration
                    .decomp
                    .get(&self.dp_task)
                    .map_or((1, 1), |d| (d.fp as u16, d.mp as u16));
                RegimeSpec {
                    regime: s.n_models,
                    predicted_latency_us: sched.latency().0,
                    ii_us: sched.ii.0,
                    occupancy_bound: sched.overlapping_iterations() as u32,
                    decomp,
                    stage_costs_us: sched
                        .iteration
                        .stage_predictions()
                        .iter()
                        .map(|p| (p.task.0 as u8, p.wall.0))
                        .collect(),
                }
            })
            .collect()
    }

    /// Drain every traced tenant's recorder into one Chrome trace (`pid` =
    /// tenant index, process name `tenant-N`) and run the per-tenant
    /// schedule-conformance check against the shared table's predictions.
    /// `None` when no tenant was traced. Recorders are drained: call once.
    #[must_use]
    pub fn observability(&self, tolerance: f64) -> Option<FleetObs> {
        let specs = self.regime_specs();
        let bound = specs.iter().map(|s| s.occupancy_bound).max().unwrap_or(1);
        let stage_names = Stage::names();
        let mut chrome = ChromeTrace::new();
        let mut conformance = Vec::new();
        for t in &self.tenants {
            let Some(app) = &t.app else { continue };
            let Some(rec) = &app.recorder else { continue };
            let dump = rec.drain();
            chrome.push_dump(&dump, t.tenant as u32, &format!("tenant-{}", t.tenant));
            let frames = obs::frames::reconstruct(&dump);
            let channels = app.channel_checks(bound);
            let scene = &app.scene;
            let count_fn = move |ts: u64| scene.population_at(ts);
            let report = obs::conformance::check(
                &frames,
                &count_fn,
                &specs,
                &channels,
                tolerance,
                &stage_names,
            );
            conformance.push((t.tenant, report.conformant()));
        }
        if conformance.is_empty() {
            return None;
        }
        // Memory rollup covers every surviving tenant, traced or not: the
        // byte gauges come from the channels themselves, not the recorder.
        let memory = self
            .tenants
            .iter()
            .filter_map(|t| {
                let app = t.app.as_ref()?;
                let now: usize = app.channel_bytes().iter().map(|&(_, b, _)| b).sum();
                Some((t.tenant, now, app.peak_channel_bytes()))
            })
            .collect();
        Some(FleetObs {
            trace_json: chrome.to_json(),
            conformance,
            memory,
        })
    }
}

/// Run a static fleet: admit `cfg.tenants` streams one at a time under the
/// utilization probe (paced by a 3 ms interval so the monitor sees each
/// admission's marginal load), let every admitted tenant run to
/// completion, and collect per-tenant statistics. This is the PR 8
/// batch-shaped entry point, now a thin wrapper over the dynamic
/// [`Fleet`] lifecycle.
#[must_use]
pub fn run_fleet(cfg: &FleetConfig) -> FleetRun {
    assert!(cfg.tenants >= 1, "a fleet needs at least one tenant");
    let fleet = Fleet::launch(cfg.clone());
    for k in 0..cfg.tenants {
        if k > 0 {
            thread::sleep(ADMIT_INTERVAL);
        }
        let spec = TenantSpec {
            class: PriorityClass::Standard,
            faults: cfg.tenant_faults.get(k).cloned().flatten(),
            period: None,
            n_frames: None,
        };
        let _ = fleet.attach(spec);
    }
    fleet.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use obs::TraceMode;

    #[test]
    fn fleet_runs_every_tenant_to_completion_with_one_table_search() {
        let cfg = FleetConfig::small(3, 10);
        let run = run_fleet(&cfg);
        assert_eq!(run.admitted(), 3);
        assert_eq!(run.rejected(), 0);
        for t in &run.tenants {
            let stats = t.stats.as_ref().expect("admitted tenant has stats");
            assert_eq!(stats.frames_completed, 10, "tenant {}", t.tenant);
            assert_eq!(t.state, LifecycleState::Completed);
        }
        // The tentpole cache property: the first table build searched each
        // regime once; the fleet's own build plus 3 tenant builds all hit.
        assert_eq!(run.cache_searches, cfg.regimes.len() as u64);
        assert_eq!(run.cache_hits, 3 * cfg.regimes.len() as u64);
        assert!(run.pool_executed > 0, "tenants multiplexed the shared pool");
    }

    #[test]
    fn admission_rejects_past_the_threshold() {
        // A negative threshold can never be met, so everything past
        // min_admitted is rejected — the deterministic degenerate case of
        // the utilization probe.
        let mut cfg = FleetConfig::small(4, 6);
        cfg.max_utilization = -1.0;
        cfg.min_admitted = 2;
        let run = run_fleet(&cfg);
        assert_eq!(run.admitted(), 2);
        assert_eq!(run.rejected(), 2);
        for t in &run.tenants[2..] {
            assert!(!t.admitted);
            assert_eq!(t.state, LifecycleState::Rejected);
            assert!(t.app.is_none() && t.stats.is_none());
        }
        // Rejection degrades gracefully: admitted tenants still finish.
        for t in &run.tenants[..2] {
            assert_eq!(t.stats.as_ref().unwrap().frames_completed, 6);
        }
    }

    #[test]
    fn boost_flags_engage_when_every_frame_counts_as_backlog() {
        let mut cfg = FleetConfig::small(2, 12);
        cfg.boost_backlog = 0; // any backlog (even 0) holds the urgent lane
        let run = run_fleet(&cfg);
        for t in &run.tenants {
            assert_eq!(t.stats.as_ref().unwrap().frames_completed, 12);
            assert!(t.boost_ticks > 0, "tenant {} never boosted", t.tenant);
        }
    }

    #[test]
    fn faulted_tenant_is_contained_and_others_match_solo_runs_bitwise() {
        let n_frames = 12u64;
        let victim = 1usize;
        let mut cfg = FleetConfig::small(3, n_frames);
        cfg.tenant_faults = vec![
            None,
            Some(
                FaultPlan::new()
                    .stm_error(Stage::Change, 3)
                    .stm_error(Stage::Detect, 7)
                    .build(),
            ),
            None,
        ];
        let run = run_fleet(&cfg);

        let victim_app = run.tenants[victim].app.as_ref().unwrap();
        assert!(
            !victim_app.health.report().is_clean(),
            "injected faults must land in the victim's ledger"
        );
        for t in run.tenants.iter().filter(|t| t.tenant != victim) {
            let app = t.app.as_ref().unwrap();
            assert!(
                app.health.report().is_clean(),
                "tenant {} ledger perturbed by tenant {victim}'s faults",
                t.tenant
            );
            // Bit-identity against a solo run of the same stream: same
            // seed, same schedule table, no fleet, no pool.
            let mut solo_cfg = cfg.base.clone();
            solo_cfg.seed = cfg.base.seed + t.tenant as u64;
            solo_cfg.frame_deadline = Some(cfg.deadline);
            let solo = TrackerApp::build(&solo_cfg, None);
            let solo_stats = OnlineExecutor::run(&solo, 0);
            assert_eq!(solo_stats.frames_completed, n_frames);
            let mut fleet_locs = app.face.locations();
            let mut solo_locs = solo.face.locations();
            fleet_locs.sort_by_key(|(ts, _)| *ts);
            solo_locs.sort_by_key(|(ts, _)| *ts);
            assert_eq!(
                fleet_locs, solo_locs,
                "tenant {} diverged from its solo run",
                t.tenant
            );
        }
    }

    #[test]
    fn fleet_trace_interleaves_tenants_by_pid_and_conformance_rolls_up() {
        let mut cfg = FleetConfig::small(2, 8);
        cfg.base.trace = Some(TraceMode::Full);
        let run = run_fleet(&cfg);
        // Both tenants must have run. Name each one's admission and state,
        // so a failure tells a gate refusal from a tenant that never traced.
        let tenants: Vec<String> = run
            .tenants
            .iter()
            .map(|t| {
                format!(
                    "tenant {}: admitted={} state={:?}",
                    t.tenant, t.admitted, t.state
                )
            })
            .collect();
        let obs = run
            .observability(50.0)
            .unwrap_or_else(|| panic!("no tenant was traced: {tenants:?}"));
        assert_eq!(obs.conformance.len(), 2, "{tenants:?}");
        assert!(obs.trace_json.contains("tenant-0"));
        assert!(obs.trace_json.contains("tenant-1"));
        let events = obs::chrome::validate(&obs.trace_json).expect("trace must parse");
        assert!(events > 0);
    }

    #[test]
    fn detach_and_wait_on_a_finished_tenant_returns_its_rollup() {
        // A tenant that ran its whole frame budget is `Completed`, not
        // `Admitted`: `detach` has nothing to halt, but the rollup exists
        // and asking for it must not read as a failed drain.
        let fleet = Fleet::launch(FleetConfig::small(0, 6));
        let t = fleet.attach(TenantSpec::default());
        assert!(t.admitted);
        let give_up = Instant::now() + Duration::from_secs(30);
        while fleet.tenant_state(t.tenant) != Some(LifecycleState::Completed) {
            assert!(Instant::now() < give_up, "6 frames at 2 ms never finished");
            thread::sleep(Duration::from_millis(1));
        }
        assert!(!fleet.detach(t.tenant), "nothing left to detach");
        for _ in 0..2 {
            let rollup = fleet
                .detach_and_wait(t.tenant, Duration::ZERO)
                .expect("a finished tenant's rollup is there, at once, every time");
            assert_eq!(rollup.digitized, 6);
            assert_eq!(rollup.stats.frames_completed, 6);
        }
        assert!(fleet
            .detach_and_wait(t.tenant + 1, Duration::from_secs(1))
            .is_none());
        let _ = fleet.finish();
    }

    #[test]
    fn detach_drains_and_emits_a_rollup() {
        // A long stream (high frame budget, real period) is detached
        // mid-run: it must settle as Departed with a coherent rollup, and
        // a co-tenant must be untouched.
        let cfg = FleetConfig::small(0, 400);
        let fleet = Fleet::launch(cfg);
        let a = fleet.attach(TenantSpec::default());
        let b = fleet.attach(TenantSpec {
            n_frames: Some(12),
            ..TenantSpec::default()
        });
        assert!(a.admitted && b.admitted);
        assert_eq!(fleet.tenant_state(a.tenant), Some(LifecycleState::Admitted));
        // Let A produce something before pulling it.
        thread::sleep(Duration::from_millis(20));
        let rollup = fleet
            .detach_and_wait(a.tenant, Duration::from_secs(30))
            .expect("tenant A drains within the budget");
        assert_eq!(rollup.tenant, a.tenant);
        assert!(
            rollup.digitized < 400,
            "detach cut production short: {} frames",
            rollup.digitized
        );
        assert_eq!(
            rollup.stats.frames_completed, rollup.digitized,
            "every digitized frame drained to completion"
        );
        assert_eq!(fleet.tenant_state(a.tenant), Some(LifecycleState::Departed));
        let run = fleet.finish();
        assert_eq!(run.tenants[b.tenant].state, LifecycleState::Completed);
        assert_eq!(
            run.tenants[b.tenant]
                .stats
                .as_ref()
                .unwrap()
                .frames_completed,
            12
        );
        assert_eq!(run.deadline_misses(a.tenant), 0, "drained ≠ missed");
        assert_eq!(run.deadline_misses(b.tenant), 0);
    }
}
