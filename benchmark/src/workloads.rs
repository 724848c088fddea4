//! The four workloads: how each builds its inputs from the seed, sets the
//! program up, runs one repetition through the program's public entry
//! points, and how a repetition's commits are checked against a reference
//! run of the same scene.
//!
//! The benchmark adds no thread to a measured run beyond the program's own
//! (six task threads per tracker, the worker pool, the fleet monitor); the
//! main thread sleeps while a run is in flight.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cds_core::{OptimalConfig, ScheduleTable};
use cluster::ClusterSpec;
use obs::{SpanDump, TraceMode};
use runtime::{
    Fleet, FleetConfig, LifecycleState, OnlineExecutor, PriorityClass, RegimeController, Stage,
    TenantSpec, TrackerApp, TrackerConfig,
};
use taskgraph::{builders, AppState};
use vision::{BackendKind, Scene};

use crate::trace::{frame_budgets, BenchSpans, FrameBudget, WARM_FRAMES};
use crate::watchdog::Watchdog;

/// Channel capacity of every tracker. Kept at the library default of 8:
/// `channel_capacity = 1` with `period = 0` deadlocks the solo tracker (see
/// the README's list of program bugs).
const CHANNEL_CAPACITY: usize = 8;

/// Worker-pool width wherever a workload uses the pool: fixed at the
/// reference host's two cores so the workload is the same everywhere.
const POOL_WORKERS: usize = 2;

/// Guaranteed and BestEffort tenants of `fleet_mixed`, in attach order.
const FLEET_GUARANTEED: usize = 2;
const FLEET_HOGS: usize = 2;

/// Frame budget of a hog: far more than it can digitize before it is
/// detached, so only the detach ends it.
const HOG_FRAMES: u64 = 4096;

/// How long a detached hog may take to drain its in-flight frames.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);

pub enum Kind {
    /// One tracker under `OnlineExecutor::run`.
    Solo {
        decomposition: (u32, u32),
        pool_workers: usize,
        /// Drive T4's decomposition from a precomputed schedule table, with
        /// a seeded visit window per person so the population changes.
        regimes: bool,
    },
    /// Guaranteed paced tenants beside closed-loop BestEffort hogs on one
    /// `Fleet`.
    Fleet,
}

pub struct Workload {
    pub name: &'static str,
    pub width: usize,
    pub height: usize,
    pub n_targets: usize,
    /// Frames per repetition (per Guaranteed tenant on the fleet).
    pub frames: u64,
    /// Frames of the warm-up repetition.
    pub warm_frames: u64,
    /// `setup_s` samples per run (each the fastest of a batch of set-ups).
    /// A solo set-up costs microseconds, a fleet's tens of milliseconds
    /// (its hogs drain).
    pub setup_samples: usize,
    /// Digitizer period of the latency-bearing streams; zero = closed loop.
    pub period: Duration,
    pub kind: Kind,
}

impl Workload {
    pub fn open_loop(&self) -> bool {
        !self.period.is_zero()
    }

    /// Streams whose commits are checked (1, or every fleet tenant).
    pub fn tenants(&self) -> usize {
        match self.kind {
            Kind::Solo { .. } => 1,
            Kind::Fleet => FLEET_GUARANTEED + FLEET_HOGS,
        }
    }
}

/// The four workloads, in `BENCHMARK.json` order. `smoke` shrinks every
/// repetition so the whole benchmark exercises each code path in seconds.
pub fn workloads(smoke: bool) -> Vec<Workload> {
    let f = |full: u64, small: u64| if smoke { small } else { full };
    vec![
        Workload {
            name: "kiosk_day_paced",
            width: 160,
            height: 120,
            n_targets: 5,
            frames: f(90, 30),
            warm_frames: f(24, 12),
            setup_samples: f(40, 2) as usize,
            period: Duration::from_millis(50),
            kind: Kind::Solo {
                decomposition: (1, 1),
                pool_workers: POOL_WORKERS,
                regimes: true,
            },
        },
        Workload {
            name: "crowd_saturated",
            width: 96,
            height: 72,
            n_targets: 8,
            frames: f(120, 40),
            warm_frames: f(24, 12),
            setup_samples: f(40, 2) as usize,
            period: Duration::ZERO,
            kind: Kind::Solo {
                decomposition: (1, 2),
                pool_workers: POOL_WORKERS,
                regimes: false,
            },
        },
        Workload {
            name: "wide_saturated",
            width: 640,
            height: 480,
            n_targets: 1,
            frames: f(400, 40),
            warm_frames: f(40, 12),
            setup_samples: f(40, 2) as usize,
            period: Duration::ZERO,
            kind: Kind::Solo {
                decomposition: (1, 1),
                pool_workers: 0,
                regimes: false,
            },
        },
        Workload {
            name: "fleet_mixed",
            width: 96,
            height: 72,
            n_targets: 2,
            frames: f(40, 16),
            warm_frames: f(12, 10),
            setup_samples: f(5, 1) as usize,
            period: Duration::from_millis(100),
            kind: Kind::Fleet,
        },
    ]
}

/// splitmix64: the benchmark's only source of randomness, so a seed maps
/// to the same inputs on every host.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// The scene of tenant `tenant` (0 for a solo workload). With regimes on,
/// every enrolled person gets one seeded visit window: arrivals a few frames
/// apart early in a repetition (after the warm-up frames), departures a few
/// frames apart at its end, the order of persons and a frame or two of
/// jitter drawn from the seed — so the population walks 0 → n → 0 and every
/// regime is visited, while the number of *enrolled* models (what T4's cost
/// follows) stays fixed.
///
/// The kiosk is crowded for most of a repetition on purpose. Frame latency
/// is bimodal across regimes — the table runs two or more persons as `(1,2)`
/// (13–18 ms, depending on how well the host runs two chunks side by side)
/// and fewer as `(1,1)`/`(2,1)` (about 20 ms) — and a median taken near an
/// even mix of the two modes flips between them on a few frames' difference.
/// At four frames in five crowded it sits inside one mode; the other shows
/// in p95.
pub fn scene_for(w: &Workload, seed: u64, tenant: usize, frames: u64) -> Scene {
    let mut scene = Scene::demo(w.width, w.height, w.n_targets, seed + tenant as u64);
    if let Kind::Solo { regimes: true, .. } = w.kind {
        let n = w.n_targets as u64;
        let mut rng = Rng(seed ^ 0x006b_696f_736b);
        let mut order: Vec<usize> = (0..w.n_targets).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let spacing = (frames / 30).max(1);
        let first_enter = frames / 9;
        let last_leave = frames - frames / 18 - 1;
        for (slot, &person) in order.iter().enumerate() {
            let slot = slot as u64;
            let enter = first_enter + slot * spacing + rng.below(spacing);
            let leave = last_leave - (n - 1 - slot) * spacing + rng.below(spacing);
            scene = scene.with_visit(person, enter, leave);
        }
    }
    scene
}

fn tracker_config(w: &Workload, seed: u64, frames: u64, trace: bool) -> TrackerConfig {
    let mut cfg = TrackerConfig::small(w.n_targets, frames);
    cfg.width = w.width;
    cfg.height = w.height;
    cfg.seed = seed;
    cfg.period = w.period;
    cfg.channel_capacity = CHANNEL_CAPACITY;
    cfg.trace = trace.then_some(TraceMode::Full);
    if let Kind::Solo {
        decomposition,
        pool_workers,
        ..
    } = w.kind
    {
        cfg.decomposition = decomposition;
        cfg.pool_workers = pool_workers;
    }
    cfg
}

/// Set-up of a solo workload: schedule-table precompute and controller
/// (when the workload has regimes), scene and model enrolment, app build.
fn solo_setup(
    w: &Workload,
    seed: u64,
    frames: u64,
    trace: bool,
    log: &mut BenchSpans,
) -> TrackerApp {
    let Kind::Solo { regimes, .. } = w.kind else {
        unreachable!("solo_setup on a fleet workload")
    };
    log.scope("bench.setup", |log| {
        let controller = regimes.then(|| {
            log.scope("core.precompute", |_| {
                let graph = builders::color_tracker();
                let states: Vec<AppState> = (0..=w.n_targets as u32).map(AppState::new).collect();
                let table = ScheduleTable::precompute(
                    &graph,
                    &ClusterSpec::single_node(POOL_WORKERS as u32),
                    &states,
                    &OptimalConfig::default().serial(),
                );
                let dp = graph
                    .task_by_name("Target Detection")
                    .expect("the tracker graph names T4");
                Arc::new(
                    RegimeController::from_schedule_table(&table, dp, 0, 2)
                        .expect("the table covers states 0..=n"),
                )
            })
        });
        // Models are enrolled from the scene inside the app build.
        let scene = log.scope("vision.enrol", |_| scene_for(w, seed, 0, frames));
        let cfg = tracker_config(w, seed, frames, trace);
        log.scope("runtime.build", |_| {
            TrackerApp::build_with_scene(&cfg, scene, controller)
        })
    })
}

fn fleet_config(w: &Workload, seed: u64, frames: u64, trace: bool) -> FleetConfig {
    let mut cfg = FleetConfig::small(FLEET_GUARANTEED + FLEET_HOGS, frames);
    cfg.base = tracker_config(w, seed, frames, trace);
    cfg.pool_workers = POOL_WORKERS;
    cfg.deadline = Duration::from_secs(5);
    // Admission open, shedding off: every tenant runs, nothing is refused.
    cfg.max_utilization = 10.0;
    cfg.min_admitted = FLEET_GUARANTEED + FLEET_HOGS;
    cfg.shed_utilization = f64::INFINITY;
    cfg.warmup = WARM_FRAMES as usize;
    cfg.regimes = vec![w.n_targets as u32];
    cfg
}

fn fleet_specs() -> Vec<TenantSpec> {
    let mut specs = vec![TenantSpec::with_class(PriorityClass::Guaranteed); FLEET_GUARANTEED];
    // BestEffort, not Standard: a Standard-class hog variant never returned
    // from detach_and_wait/finish (see the README's list of program bugs).
    let mut hog = TenantSpec::with_class(PriorityClass::BestEffort);
    hog.period = Some(Duration::ZERO);
    hog.n_frames = Some(HOG_FRAMES);
    specs.extend(vec![hog; FLEET_HOGS]);
    specs
}

/// Set-up of the fleet: `Fleet::launch` (pool, freelists, shared-cache
/// search, fleet table) and every `attach`. Tenants start running as they
/// are attached, so this can only be timed on a fleet that then runs.
fn fleet_setup(w: &Workload, seed: u64, frames: u64, trace: bool, log: &mut BenchSpans) -> Fleet {
    log.scope("bench.setup", |log| {
        let cfg = fleet_config(w, seed, frames, trace);
        let fleet = log.scope("runtime.fleet_launch", |_| Fleet::launch(cfg));
        log.scope("runtime.fleet_attach", |_| {
            for spec in fleet_specs() {
                let outcome = fleet.attach(spec);
                assert!(outcome.admitted, "admission is open: every tenant runs");
            }
        });
        fleet
    })
}

/// One timed set-up, torn down without being measured: a tracker that is
/// built and dropped, or a fleet whose tenants are detached at once.
pub fn setup_once(w: &Workload, seed: u64, log: &mut BenchSpans) -> f64 {
    let t0 = Instant::now();
    match w.kind {
        Kind::Solo { .. } => {
            let app = solo_setup(w, seed, w.frames, false, log);
            let s = t0.elapsed().as_secs_f64();
            drop(app);
            s
        }
        Kind::Fleet => {
            let fleet = fleet_setup(w, seed, 1, false, log);
            let s = t0.elapsed().as_secs_f64();
            for hog in FLEET_GUARANTEED..FLEET_GUARANTEED + FLEET_HOGS {
                let _ = fleet.detach_and_wait(hog, DRAIN_TIMEOUT);
            }
            let _ = fleet.finish();
            s
        }
    }
}

/// Counters read from public accessors after a repetition.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    pub peak_live_max: f64,
    pub pool_jobs: f64,
    pub pool_faults: f64,
    pub switches: f64,
    pub clamps: f64,
    pub buf_reused: f64,
    pub buf_created: f64,
    pub completion_cov: f64,
    pub rate_held: f64,
    pub drops: f64,
    pub load_sheds: f64,
    pub fleet_util_mean: f64,
    pub fleet_boost_ticks: f64,
    pub fleet_cache_searches: f64,
    pub fleet_cache_hits: f64,
    pub fleet_guaranteed_fps: f64,
    pub fleet_hog_fps: f64,
}

/// What a traced repetition adds.
pub struct Traced {
    /// `(process name, dump)` per traced tracker, for the Chrome trace.
    pub dumps: Vec<(String, SpanDump)>,
    /// Budgets of the latency-bearing streams, pooled.
    pub budgets: Vec<FrameBudget>,
    pub spans: u64,
}

/// One repetition of a workload.
pub struct Rep {
    /// Wall time of the run the frames-per-second figure divides by.
    pub wall_s: f64,
    /// Digitize→commit latency of every latency-bearing frame after the
    /// first `WARM_FRAMES` of its stream.
    pub latencies_ms: Vec<f64>,
    /// Frames that entered the program, over all tenants.
    pub attempted: u64,
    /// `(frame, location hash)` of every commit, per tenant.
    pub commits: Vec<Vec<(u64, u64)>>,
    pub peak_channel_bytes: usize,
    pub counters: Counters,
    pub traced: Option<Traced>,
}

impl Rep {
    pub fn committed(&self) -> u64 {
        self.commits.iter().map(|c| c.len() as u64).sum()
    }
}

fn latencies_ms(app: &TrackerApp) -> Vec<f64> {
    app.measure
        .stage_latencies(Stage::Face.index() as usize)
        .iter()
        .skip(WARM_FRAMES as usize)
        .map(|d| d.as_secs_f64() * 1e3)
        .collect()
}

fn commits_of(app: &TrackerApp) -> Vec<(u64, u64)> {
    app.face
        .locations()
        .iter()
        .map(|(ts, locs)| (*ts, replay::location_hash(locs)))
        .collect()
}

/// Run one repetition of `frames` frames under the watchdog.
pub fn run_rep(
    w: &Workload,
    seed: u64,
    frames: u64,
    trace: bool,
    budget: Duration,
    log: &mut BenchSpans,
    dog: &Watchdog,
) -> Rep {
    match w.kind {
        Kind::Solo { .. } => solo_rep(w, seed, frames, trace, budget, log, dog),
        Kind::Fleet => fleet_rep(w, seed, frames, trace, budget, log, dog),
    }
}

fn solo_rep(
    w: &Workload,
    seed: u64,
    frames: u64,
    trace: bool,
    budget: Duration,
    log: &mut BenchSpans,
    dog: &Watchdog,
) -> Rep {
    let app = solo_setup(w, seed, frames, trace, log);

    dog.arm(w.name, budget);
    let anchor_ns = app.recorder.as_ref().map_or(0, obs::Recorder::now_ns);
    let t_run = Instant::now();
    let stats = log.scope("bench.run", |_| {
        OnlineExecutor::run(&app, WARM_FRAMES as usize)
    });
    let wall_s = t_run.elapsed().as_secs_f64();
    dog.disarm();

    let health = app.health.report();
    let pool_health = app.pool_health().unwrap_or_default();
    let (frame_pool, mask_pool) = (
        app.frame_pool_stats().unwrap_or_default(),
        app.mask_pool_stats().unwrap_or_default(),
    );
    let counters = Counters {
        peak_live_max: app.peak_channel_occupancy() as f64,
        pool_jobs: app.pool_load().map_or(0.0, |(_, executed)| executed as f64),
        pool_faults: (pool_health.panics + pool_health.inline_fallbacks) as f64,
        switches: app.controller.as_ref().map_or(0.0, |c| c.switches() as f64),
        clamps: app.controller.as_ref().map_or(0.0, |c| c.clamps() as f64),
        buf_reused: (frame_pool.reused + mask_pool.reused) as f64,
        buf_created: (frame_pool.created + mask_pool.created) as f64,
        completion_cov: stats.uniformity_cov,
        rate_held: frames as f64 * w.period.as_secs_f64() / wall_s,
        drops: health.total_drops() as f64,
        load_sheds: health.load_sheds as f64,
        ..Counters::default()
    };
    let traced = app.recorder.as_ref().map(|rec| {
        let dump = rec.drain();
        Traced {
            budgets: frame_budgets(&dump, anchor_ns, w.period.as_nanos() as u64),
            spans: dump.spans.len() as u64,
            dumps: vec![(w.name.to_string(), dump)],
        }
    });
    Rep {
        wall_s,
        latencies_ms: latencies_ms(&app),
        attempted: frames,
        commits: vec![commits_of(&app)],
        peak_channel_bytes: app.peak_channel_bytes(),
        counters,
        traced,
    }
}

fn fleet_rep(
    w: &Workload,
    seed: u64,
    frames: u64,
    trace: bool,
    budget: Duration,
    log: &mut BenchSpans,
    dog: &Watchdog,
) -> Rep {
    dog.arm(w.name, budget);
    let t_run = Instant::now();
    let fleet = fleet_setup(w, seed, frames, trace, log);

    let (guaranteed_s, wall_s) = log.scope("bench.run", |_| {
        // The Guaranteed pair runs to completion; the fleet offers no wait
        // for that short of `finish`, so the (otherwise idle) main thread
        // polls the lifecycle state.
        while (0..FLEET_GUARANTEED)
            .any(|k| fleet.tenant_state(k) != Some(LifecycleState::Completed))
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        let guaranteed_s = t_run.elapsed().as_secs_f64();
        for hog in FLEET_GUARANTEED..FLEET_GUARANTEED + FLEET_HOGS {
            if fleet.detach_and_wait(hog, DRAIN_TIMEOUT).is_none() {
                crate::fail(&format!(
                    "{}: hog tenant {hog} did not drain within {DRAIN_TIMEOUT:?} of its detach",
                    w.name
                ));
            }
        }
        (guaranteed_s, t_run.elapsed().as_secs_f64())
    });
    let run = fleet.finish();
    dog.disarm();

    let mut rep = Rep {
        wall_s,
        latencies_ms: Vec::new(),
        attempted: 0,
        commits: Vec::new(),
        peak_channel_bytes: 0,
        counters: Counters {
            pool_jobs: run.pool_executed as f64,
            rate_held: frames as f64 * w.period.as_secs_f64() / guaranteed_s,
            fleet_util_mean: run.mean_utilization,
            fleet_cache_searches: run.cache_searches as f64,
            fleet_cache_hits: run.cache_hits as f64,
            ..Counters::default()
        },
        traced: trace.then(|| Traced {
            dumps: Vec::new(),
            budgets: Vec::new(),
            spans: 0,
        }),
    };
    let mut covs = Vec::new();
    let (mut guaranteed_commits, mut hog_commits) = (0u64, 0u64);
    for t in &run.tenants {
        let app = t.app.as_ref().expect("admission is open: every tenant ran");
        let guaranteed = t.class == PriorityClass::Guaranteed;
        let commits = commits_of(app);
        if guaranteed {
            rep.latencies_ms.extend(latencies_ms(app));
            rep.attempted += frames;
            guaranteed_commits += commits.len() as u64;
            covs.extend(t.stats.map(|s| s.uniformity_cov));
        } else {
            rep.attempted += app.measure.digitized_count() + app.measure.shed_count();
            hog_commits += commits.len() as u64;
        }
        rep.commits.push(commits);
        rep.peak_channel_bytes += app.peak_channel_bytes();
        let health = app.health.report();
        let c = &mut rep.counters;
        c.peak_live_max = c.peak_live_max.max(app.peak_channel_occupancy() as f64);
        c.drops += health.total_drops() as f64;
        c.load_sheds += health.load_sheds as f64;
        c.fleet_boost_ticks += t.boost_ticks as f64;
        if let Some(ctl) = &app.controller {
            c.switches += ctl.switches() as f64;
            c.clamps += ctl.clamps() as f64;
        }
        if t.tenant == 0 {
            // The pool and the freelists are the fleet's: read them once.
            let ph = app.pool_health().unwrap_or_default();
            c.pool_faults = (ph.panics + ph.inline_fallbacks) as f64;
            let (fp, mp) = (
                app.frame_pool_stats().unwrap_or_default(),
                app.mask_pool_stats().unwrap_or_default(),
            );
            c.buf_reused = (fp.reused + mp.reused) as f64;
            c.buf_created = (fp.created + mp.created) as f64;
        }
        if let (Some(traced), Some(rec)) = (rep.traced.as_mut(), &app.recorder) {
            let dump = rec.drain();
            traced.spans += dump.spans.len() as u64;
            if guaranteed {
                // A tenant's recorder is created in its attach, moments
                // before its run starts: its epoch is the schedule's anchor.
                traced
                    .budgets
                    .extend(frame_budgets(&dump, 0, w.period.as_nanos() as u64));
            }
            traced
                .dumps
                .push((format!("tenant-{}-{}", t.tenant, t.class.label()), dump));
        }
    }
    rep.counters.completion_cov = crate::stats::median(&covs);
    rep.counters.fleet_guaranteed_fps = guaranteed_commits as f64 / guaranteed_s;
    rep.counters.fleet_hog_fps = hog_commits as f64 / wall_s;
    rep
}

/// Per tenant, the location hash of every frame from a serial reference
/// run of the same scene: `(1,1)`, no pool, the scalar oracle kernels,
/// unpaced, no controller — the invariant the fleet and fault suites
/// already assert (decomposition, pooling, pacing and tenancy do not change
/// a frame's output).
pub struct Reference {
    hashes: Vec<Vec<u64>>,
}

impl Reference {
    /// Reference hashes for the first `lens[k]` frames of tenant `k`.
    /// `frames` is the repetition length the scenes were generated for.
    pub fn run(
        w: &Workload,
        seed: u64,
        frames: u64,
        lens: &[u64],
        log: &mut BenchSpans,
    ) -> Reference {
        let hashes = lens
            .iter()
            .enumerate()
            .map(|(tenant, &len)| {
                let mut cfg = tracker_config(w, seed + tenant as u64, len, false);
                cfg.period = Duration::ZERO;
                cfg.decomposition = (1, 1);
                cfg.pool_workers = 0;
                cfg.backend = BackendKind::Scalar;
                let scene = scene_for(w, seed, tenant, frames);
                let app = TrackerApp::build_with_scene(&cfg, scene, None);
                let _ = log.scope("bench.reference", |_| OnlineExecutor::run(&app, 0));
                let mut hashes = vec![None; len as usize];
                for (ts, h) in commits_of(&app) {
                    hashes[ts as usize] = Some(h);
                }
                hashes
                    .into_iter()
                    .map(|h| h.expect("the reference run commits every frame"))
                    .collect()
            })
            .collect();
        Reference { hashes }
    }

    /// Frames of `rep` committed with the reference output. Every other
    /// attempted frame — skipped, dropped, shed, or wrong — has failed.
    pub fn matching(&self, rep: &Rep) -> u64 {
        rep.commits
            .iter()
            .zip(&self.hashes)
            .map(|(commits, want)| {
                commits
                    .iter()
                    .filter(|&&(ts, h)| want.get(ts as usize) == Some(&h))
                    .count() as u64
            })
            .sum()
    }
}

/// How many reference frames each tenant needs to cover every commit of
/// `reps`.
pub fn reference_lens(w: &Workload, reps: &[&Rep]) -> Vec<u64> {
    (0..w.tenants())
        .map(|k| {
            reps.iter()
                .flat_map(|r| r.commits[k].iter().map(|&(ts, _)| ts + 1))
                .max()
                .unwrap_or(0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kiosk_population_walks_up_and_down_for_every_seed() {
        let ws = workloads(false);
        let kiosk = &ws[0];
        for seed in 0..50 {
            let scene = scene_for(kiosk, seed, 0, kiosk.frames);
            let pops: Vec<u32> = (0..kiosk.frames).map(|f| scene.population_at(f)).collect();
            assert_eq!(pops[0], 0, "seed {seed}: starts empty");
            assert_eq!(*pops.last().unwrap(), 0, "seed {seed}: ends empty");
            assert_eq!(
                *pops.iter().max().unwrap(),
                5,
                "seed {seed}: everyone present once"
            );
            for n in 0..=5 {
                assert!(pops.contains(&n), "seed {seed}: regime {n} never visited");
            }
            // The same seed gives the same inputs.
            let again = scene_for(kiosk, seed, 0, kiosk.frames);
            assert!((0..kiosk.frames).all(|f| again.population_at(f) == pops[f as usize]));
        }
    }

    #[test]
    fn workloads_match_the_catalogue() {
        for smoke in [false, true] {
            let names: Vec<&str> = workloads(smoke).iter().map(|w| w.name).collect();
            let catalogue: Vec<&str> = crate::names::WORKLOADS.iter().map(|w| w.name).collect();
            assert_eq!(names, catalogue);
            for w in workloads(smoke) {
                assert!(
                    w.frames > WARM_FRAMES && w.warm_frames > WARM_FRAMES,
                    "{}",
                    w.name
                );
            }
        }
    }
}
