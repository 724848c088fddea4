//! Layer probes: calls into public functions of each crate, timed from
//! here. Light probes run as interleaved batches — every round runs one
//! batch of each, with the lead rotating, so drift and bursts hit all of
//! them alike — and report the median ns/op over rounds. Heavy probes (a
//! whole search, a recorded run) run a few rounds only. Inputs come from
//! the seed at the two shapes `crowd` = 96x72x8 models and `wide` =
//! 640x480x1 model.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cds_core::{
    optimal_schedule_warm, schedule_cache_key, OptimalConfig, ScheduleCache, ScheduleTable,
    SharedScheduleCache,
};
use cluster::{simulate_online, ClusterSpec, FrameClock, OnlineConfig};
use obs::{Recorder, SpanKind, TraceMode};
use runtime::{record_run, replay_run, BufPool, RegimeController, TrackerConfig, WorkerPool};
use stm::{Channel, ChannelBuilder, Timestamp, TsSpec};
use taskgraph::{builders, AppState, Micros, TaskGraph};
use vision::detect::{
    detect_chunks, merge_partials, ratio_lut, target_detection, target_detection_chunk, ScoreMap,
    LUT_SIZE,
};
use vision::{peak_detection, BitMask, ColorHist, Frame, Scene};

use crate::stats::{median, reduce, Reduced};
use crate::trace::BenchSpans;

/// How much probing a run does.
pub struct Plan {
    /// Wall-time budget of the interleaved light probes.
    pub light: Duration,
    pub min_rounds: usize,
    pub heavy_rounds: usize,
}

struct Shape {
    name: &'static str,
    scene: Scene,
    prev: Frame,
    frame: Frame,
    hist: ColorHist,
    mask: BitMask,
    models: Vec<ColorHist>,
    maps: Vec<ScoreMap>,
}

impl Shape {
    fn new(name: &'static str, width: usize, height: usize, n: usize, seed: u64) -> Shape {
        let scene = Scene::demo(width, height, n, seed);
        let backend = vision::active();
        let (mut prev, mut frame) = (Frame::new(width, height), Frame::new(width, height));
        backend.render_into(&scene, 10, &mut prev);
        backend.render_into(&scene, 11, &mut frame);
        let hist = backend.image_histogram(&frame);
        let threshold = u16::from(vision::change::DEFAULT_THRESHOLD);
        let mask = backend.change_detection(&frame, Some(&prev), threshold);
        let models = scene.models();
        let maps = target_detection(&frame, &hist, &models, &mask);
        Shape {
            name,
            scene,
            prev,
            frame,
            hist,
            mask,
            models,
            maps,
        }
    }
}

/// ns/op of `n` back-to-back calls.
fn per_op(n: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..n {
        f();
    }
    t0.elapsed().as_nanos() as f64 / n as f64
}

type Batch<'a> = Box<dyn FnMut() -> f64 + 'a>;

fn vision_probes<'a>(s: &'a Shape, probes: &mut Vec<(String, Batch<'a>)>) {
    let backend = vision::active();
    let small = s.frame.width * s.frame.height < 100_000;
    let n = |few: usize, many: usize| if small { many } else { few };
    let threshold = u16::from(vision::change::DEFAULT_THRESHOLD);
    let name = |stage: &str| format!("vision.{stage}.{}", s.name);

    let mut out = Frame::new(s.frame.width, s.frame.height);
    let mut ts = 0u64;
    let reps = n(1, 8);
    probes.push((
        name("t1_render_ns"),
        Box::new(move || {
            per_op(reps, || {
                ts += 1;
                backend.render_into(&s.scene, ts, &mut out);
                black_box(&out);
            })
        }),
    ));
    let reps = n(4, 64);
    probes.push((
        name("t2_histogram_ns"),
        Box::new(move || per_op(reps, || drop(black_box(backend.image_histogram(&s.frame))))),
    ));
    let mut mask = BitMask::new(s.frame.width, s.frame.height);
    let reps = n(8, 128);
    probes.push((
        name("t3_change_ns"),
        Box::new(move || {
            per_op(reps, || {
                backend.change_detection_into(&s.frame, Some(&s.prev), threshold, &mut mask);
                black_box(&mask);
            })
        }),
    ));
    probes.push((
        name("t4_detect_ns"),
        Box::new(move || {
            per_op(1, || {
                drop(black_box(target_detection(
                    &s.frame, &s.hist, &s.models, &s.mask,
                )));
            })
        }),
    ));
    let reps = n(2, 16);
    probes.push((
        name("t5_peak_ns"),
        Box::new(move || per_op(reps, || drop(black_box(peak_detection(&s.maps, 5.0))))),
    ));
}

fn crowd_only_probes<'a>(s: &'a Shape, probes: &mut Vec<(String, Batch<'a>)>) {
    probes.push((
        "vision.t4_ratio_lut_ns".into(),
        Box::new(move || per_op(1, || drop(black_box(ratio_lut(&s.models[0], &s.hist))))),
    ));
    let (w, h) = (s.frame.width, s.frame.height);
    let chunks = detect_chunks(w, h, s.models.len(), 1, 2);
    let chunk0 = chunks[0];
    probes.push((
        "vision.t4_chunk_ns.crowd_1x2".into(),
        Box::new(move || {
            per_op(1, || {
                drop(black_box(target_detection_chunk(
                    &s.frame, &s.hist, &s.models, &s.mask, chunk0,
                )));
            })
        }),
    ));
    let partials: Vec<_> = chunks
        .iter()
        .flat_map(|&c| target_detection_chunk(&s.frame, &s.hist, &s.models, &s.mask, c))
        .collect();
    let n_models = s.models.len();
    probes.push((
        "vision.t4_merge_ns.crowd".into(),
        Box::new(move || {
            per_op(8, || {
                drop(black_box(merge_partials(w, h, n_models, &partials)))
            })
        }),
    ));
}

/// A consumer thread blocked in `get`, for the cross-thread hand-off probe.
struct Handoff {
    chan: Channel<u64>,
    out: stm::OutputConn<u64>,
    woke: mpsc::Receiver<Instant>,
    next: u64,
    consumer: Option<std::thread::JoinHandle<()>>,
}

impl Handoff {
    fn start() -> Handoff {
        let chan: Channel<u64> = Channel::new("probe-handoff");
        let out = chan.attach_output();
        let inp = chan.attach_input();
        let (tx, woke) = mpsc::channel();
        let consumer = std::thread::Builder::new()
            .name("probe-handoff".into())
            .spawn(move || {
                let mut ts = 0u64;
                while inp.get(TsSpec::Exact(Timestamp(ts))).is_ok() {
                    let now = Instant::now();
                    let _ = inp.consume(Timestamp(ts));
                    if tx.send(now).is_err() {
                        return;
                    }
                    ts += 1;
                }
            })
            .expect("spawn the hand-off probe's consumer");
        Handoff {
            chan,
            out,
            woke,
            next: 0,
            consumer: Some(consumer),
        }
    }

    /// ns from `put` on this thread to the blocked `get` returning on the
    /// other, median of a small batch.
    fn batch(&mut self) -> f64 {
        let mut ns = Vec::with_capacity(16);
        for _ in 0..16 {
            // Let the consumer reach its blocking get first.
            std::thread::sleep(Duration::from_micros(60));
            let t0 = Instant::now();
            self.out
                .put(Timestamp(self.next), self.next)
                .expect("probe channel is open");
            self.next += 1;
            let woke = self.woke.recv().expect("the consumer is alive");
            ns.push(woke.saturating_duration_since(t0).as_nanos() as f64);
        }
        median(&ns)
    }
}

impl Drop for Handoff {
    fn drop(&mut self) {
        self.chan.close();
        if let Some(t) = self.consumer.take() {
            let _ = t.join();
        }
    }
}

fn stm_probes<'a>(handoff: &'a mut Handoff, probes: &mut Vec<(String, Batch<'a>)>) {
    const BATCH: u64 = 64;
    {
        let ch: Channel<u64> = Channel::new("probe-item");
        let (out, inp) = (ch.attach_output(), ch.attach_input());
        let mut base = 0u64;
        probes.push((
            "stm.put_get_consume_ns".into(),
            Box::new(move || {
                let _keep = &ch;
                let t0 = Instant::now();
                for t in base..base + BATCH {
                    out.put(Timestamp(t), t).expect("open unbounded channel");
                    black_box(inp.get(TsSpec::Exact(Timestamp(t))).expect("just put"));
                    inp.consume(Timestamp(t)).expect("just gotten");
                }
                base += BATCH;
                t0.elapsed().as_nanos() as f64 / BATCH as f64
            }),
        ));
    }
    {
        let ch: Channel<u64> = Channel::new("probe-batch");
        let (out, inp) = (ch.attach_output(), ch.attach_input());
        let mut base = 0u64;
        probes.push((
            "stm.batch64_ns_per_item".into(),
            Box::new(move || {
                let _keep = &ch;
                let t0 = Instant::now();
                for _ in 0..8 {
                    out.put_many((base..base + BATCH).map(|t| (Timestamp(t), t)))
                        .expect("open unbounded channel");
                    inp.consume_range(Timestamp(base), Timestamp(base + BATCH));
                    base += BATCH;
                }
                t0.elapsed().as_nanos() as f64 / (8 * BATCH) as f64
            }),
        ));
    }
    probes.push(("stm.handoff_ns".into(), Box::new(move || handoff.batch())));
    {
        // A consumed stream whose history is retained: what latest_at and
        // range query.
        const ROWS: u64 = 4096;
        let ch: Channel<u64> = ChannelBuilder::new("probe-history")
            .retain_buckets(usize::MAX)
            .retain_bytes(usize::MAX)
            .build();
        let (out, inp) = (ch.attach_output(), ch.attach_input());
        for base in (0..ROWS).step_by(BATCH as usize) {
            out.put_many((base..base + BATCH).map(|t| (Timestamp(t), t)))
                .expect("open unbounded channel");
            inp.consume_range(Timestamp(base), Timestamp(base + BATCH));
        }
        let ch2 = ch.clone();
        probes.push((
            "stm.latest_at_ns".into(),
            Box::new(move || per_op(256, || drop(black_box(ch.latest_at(Timestamp(ROWS - 1)))))),
        ));
        probes.push((
            "stm.range32_ns".into(),
            Box::new(move || {
                let _keep = (&out, &inp);
                per_op(64, || {
                    drop(black_box(ch2.range(Timestamp(ROWS - 32), Timestamp(ROWS))));
                })
            }),
        ));
    }
    {
        let ch: Channel<u64> = Channel::new("probe-snapshot");
        let out = ch.attach_output();
        let hold = ch.attach_input();
        for t in 0..BATCH {
            out.put(Timestamp(t), t).expect("open unbounded channel");
        }
        probes.push((
            "stm.snapshot_ns".into(),
            Box::new(move || {
                let _keep = (&out, &hold);
                per_op(512, || {
                    black_box(ch.snapshot());
                })
            }),
        ));
    }
}

/// A pool job that reports how long it waited for a worker.
struct PoolProbeJob {
    submitted: Instant,
    reply: mpsc::Sender<f64>,
}

fn runtime_probes<'a>(probes: &mut Vec<(String, Batch<'a>)>) {
    // An idle pool of the width every pooled workload uses.
    let pool = Arc::new(WorkerPool::new(2, |job: PoolProbeJob| {
        let _ = job.reply.send(job.submitted.elapsed().as_nanos() as f64);
    }));
    let submit = |pool: &WorkerPool<PoolProbeJob>, reply: &mpsc::Sender<f64>| {
        let job = PoolProbeJob {
            submitted: Instant::now(),
            reply: reply.clone(),
        };
        assert!(pool.submit(job).is_ok(), "probe pool is open");
    };
    {
        let pool = Arc::clone(&pool);
        let (tx, rx) = mpsc::channel();
        probes.push((
            "pool.dispatch_ns".into(),
            Box::new(move || {
                let waits: Vec<f64> = (0..32)
                    .map(|_| {
                        submit(&pool, &tx);
                        rx.recv().expect("the job replies")
                    })
                    .collect();
                median(&waits)
            }),
        ));
    }
    {
        let (tx, rx) = mpsc::channel();
        probes.push((
            "pool.fanout2_join_ns".into(),
            Box::new(move || {
                per_op(32, || {
                    submit(&pool, &tx);
                    submit(&pool, &tx);
                    for _ in 0..2 {
                        black_box(rx.recv().expect("the job replies"));
                    }
                })
            }),
        ));
    }

    let table: BTreeMap<u32, (u32, u32)> = [(0, (1, 1)), (1, (2, 1)), (2, (1, 2)), (5, (1, 2))]
        .into_iter()
        .collect();
    let ctl = Arc::new(RegimeController::new(2, 2, table).expect("non-empty table"));
    {
        let ctl = Arc::clone(&ctl);
        probes.push((
            "regime.observe_ns".into(),
            Box::new(move || per_op(1024, || ctl.observe(black_box(2)))),
        ));
    }
    {
        let ctl = Arc::clone(&ctl);
        probes.push((
            "regime.read_decomp_ns".into(),
            Box::new(move || {
                per_op(4096, || {
                    black_box(ctl.current_decomp());
                })
            }),
        ));
    }
    {
        let mut flip = 0u32;
        probes.push((
            "regime.install_ns".into(),
            Box::new(move || {
                per_op(256, || {
                    flip ^= 1;
                    black_box(ctl.install_regime(3, 1 + flip, 2 - flip));
                })
            }),
        ));
    }

    let bufs: BufPool<Frame> = BufPool::new(4);
    probes.push((
        "bufpool.take_return_ns".into(),
        Box::new(move || per_op(512, || drop(black_box(bufs.take_or(|| Frame::new(96, 72)))))),
    ));

    for (name, mode) in [
        ("obs.span_record_ns.full", TraceMode::Full),
        ("obs.span_record_ns.ring", TraceMode::Ring(4096)),
    ] {
        probes.push((
            name.into(),
            Box::new(move || {
                // A fresh recorder per batch: Full mode grows without bound.
                let rec = Recorder::new(mode, Vec::new());
                let mut t = 0u64;
                per_op(2048, || {
                    t += 1;
                    rec.span(SpanKind::Compute, 3, t, None, t, t + 1);
                })
            }),
        ));
    }
}

/// Table lookup and a warm build through the shared cache: what a tenant
/// pays at attach once the fleet's first search is done.
fn core_probes<'a>(probes: &mut Vec<(String, Batch<'a>)>) {
    let [case, _] = search_cases();
    let cfg = OptimalConfig::default().serial();
    let table = ScheduleTable::precompute(&case.graph, &case.cluster, &case.states, &cfg);
    let states = case.states.clone();
    let mut k = 0usize;
    probes.push((
        "core.table_get_ns".into(),
        Box::new(move || {
            per_op(4096, || {
                k = (k + 1) % states.len();
                black_box(table.get(&states[k]));
            })
        }),
    ));
    // One regime, as a fleet tenant's table has.
    let shared = SharedScheduleCache::new(64);
    let regime = [AppState::new(2)];
    let build = move || {
        ScheduleTable::precompute_shared(&case.graph, &case.cluster, &regime, &cfg, &shared, None)
    };
    drop(build());
    probes.push((
        "core.shared_hit_us".into(),
        Box::new(move || per_op(1, || drop(black_box(build()))) / 1e3),
    ));
}

struct SearchCase {
    tag: &'static str,
    graph: TaskGraph,
    cluster: ClusterSpec,
    states: Vec<AppState>,
}

fn search_cases() -> [SearchCase; 2] {
    // Not stereo_surveillance on 1x4 nor the colour tracker on
    // paper_cluster(): minutes, and the latter exhausts the node budget.
    [
        SearchCase {
            tag: "color_1x4",
            graph: builders::color_tracker(),
            cluster: ClusterSpec::single_node(4),
            states: (1..=8).map(AppState::new).collect(),
        },
        SearchCase {
            tag: "stereo_1x2",
            graph: builders::stereo_surveillance(),
            cluster: ClusterSpec::single_node(2),
            states: (1..=8).map(AppState::new).collect(),
        },
    ]
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// One round of every heavy probe, as `(name, value)`.
fn heavy_round(
    seed: u64,
    out_dir: &Path,
    log: &mut BenchSpans,
) -> Result<Vec<(String, f64)>, String> {
    let mut v: Vec<(String, f64)> = Vec::new();
    // Serial search, so node counts repeat exactly.
    let cfg = OptimalConfig::default().serial();
    let mut search = |case: &SearchCase| {
        let (table, stats) = log.scope(&format!("core.search.{}", case.tag), |_| {
            let t0 = Instant::now();
            let built = ScheduleTable::precompute_with_cache(
                &case.graph,
                &case.cluster,
                &case.states,
                &cfg,
                None,
            );
            v.push((format!("core.search_ms.{}", case.tag), ms_since(t0)));
            built
        });
        v.push((
            format!("core.search_nodes.{}", case.tag),
            stats.nodes_explored as f64,
        ));
        table
    };
    let [case, stereo] = search_cases();
    let table = search(&case);
    search(&stereo);

    log.scope("core.search_warm", |_| {
        let t0 = Instant::now();
        for s in &case.states {
            black_box(optimal_schedule_warm(
                &case.graph,
                &case.cluster,
                s,
                &cfg,
                table.get(s),
            ));
        }
        v.push(("core.search_warm_ms.color_1x4".into(), ms_since(t0)));
    });

    log.scope("core.persist", |_| -> Result<(), String> {
        let dir = out_dir.join("probe-schedule-cache");
        let cache = ScheduleCache::open(&dir).map_err(|e| format!("open {dir:?}: {e}"))?;
        let t0 = Instant::now();
        for s in &case.states {
            let key = schedule_cache_key(&case.graph, &case.cluster, s, &cfg);
            let sched = table.get(s).expect("the table covers its states");
            cache.store(key, sched).map_err(|e| format!("store: {e}"))?;
            let back = cache
                .load(key, &case.graph, &case.cluster, s)
                .map_err(|_| "a stored schedule did not load back".to_string())?;
            if back.latency() != sched.latency() {
                return Err("a stored schedule loaded back different".into());
            }
        }
        v.push(("core.persist_roundtrip_ms".into(), ms_since(t0)));
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    })?;

    log.scope("replay.roundtrip", |_| -> Result<(), String> {
        const FRAMES: u64 = 64;
        let mut cfg = TrackerConfig::small(1, FRAMES);
        cfg.seed = seed;
        cfg.period = Duration::ZERO;
        let recorded = record_run(&cfg, None);
        let t0 = Instant::now();
        let bytes = recorded.recording.to_bytes();
        let encode_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let decoded =
            replay::Recording::from_bytes(&bytes).map_err(|e| format!("decode: {e:?}"))?;
        let decode_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let replayed = replay_run(&decoded, None);
        let replay_s = t0.elapsed().as_secs_f64();
        if !replayed.commits_match {
            return Err(format!(
                "replay commits differ from the recording at frames {:?}",
                replayed.mismatched_frames
            ));
        }
        let mb = bytes.len() as f64 / 1e6;
        v.push(("replay.encode_mb_s".into(), mb / encode_s));
        v.push(("replay.decode_mb_s".into(), mb / decode_s));
        v.push((
            "replay.replay_frames_per_s".into(),
            FRAMES as f64 / replay_s,
        ));
        v.push((
            "replay.bytes_per_frame".into(),
            bytes.len() as f64 / FRAMES as f64,
        ));
        let t0 = Instant::now();
        let lives = obs::frames::reconstruct(&recorded.dump);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        v.push((
            "obs.reconstruct_us_per_frame".into(),
            us / lives.len().max(1) as f64,
        ));
        Ok(())
    })?;

    log.scope("cluster.simulate", |_| {
        const FRAMES: u64 = 500;
        let graph = builders::color_tracker();
        let mut cfg = OnlineConfig::new(
            FrameClock::new(Micros::from_millis(33), FRAMES),
            AppState::new(8),
        );
        cfg.trace_mode = cluster::TraceMode::Off;
        let t0 = Instant::now();
        let outcome = simulate_online(&graph, &ClusterSpec::single_node(4), cfg);
        let s = t0.elapsed().as_secs_f64();
        black_box(&outcome.metrics);
        v.push(("cluster.sim_frames_per_s".into(), FRAMES as f64 / s));
    });
    Ok(v)
}

/// Run every probe; `(name, reduced)` for each probe metric of the catalogue.
pub fn run(
    seed: u64,
    plan: &Plan,
    out_dir: &Path,
    log: &mut BenchSpans,
) -> Result<Vec<(String, Reduced)>, String> {
    let shapes = [
        Shape::new("crowd", 96, 72, 8, seed),
        Shape::new("wide", 640, 480, 1, seed),
    ];
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();

    log.scope("bench.probes.heavy", |log| -> Result<(), String> {
        for _ in 0..plan.heavy_rounds.max(1) {
            for (name, value) in heavy_round(seed, out_dir, log)? {
                samples.entry(name).or_default().push(value);
            }
        }
        Ok(())
    })?;

    log.scope("bench.probes.light", |_| {
        let mut handoff = Handoff::start();
        let mut probes: Vec<(String, Batch)> = Vec::new();
        for s in &shapes {
            vision_probes(s, &mut probes);
        }
        crowd_only_probes(&shapes[0], &mut probes);
        stm_probes(&mut handoff, &mut probes);
        runtime_probes(&mut probes);
        core_probes(&mut probes);

        let n = probes.len();
        let t0 = Instant::now();
        let mut round = 0usize;
        while round < plan.min_rounds.max(1) || t0.elapsed() < plan.light {
            for lane in 0..n {
                let (name, batch) = &mut probes[(round + lane) % n];
                samples.entry(name.clone()).or_default().push(batch());
            }
            round += 1;
        }
    });

    for (name, values) in &samples {
        if name.starts_with("core.search_nodes.") && values.iter().any(|v| *v != values[0]) {
            return Err(format!("{name} did not repeat exactly: {values:?}"));
        }
    }
    let mut out: Vec<(String, Reduced)> = samples
        .iter()
        .map(|(name, values)| (name.clone(), reduce(values)))
        .collect();
    let value_of = |name: &str| median(samples.get(name).map_or(&[][..], Vec::as_slice));
    let lut_ns = value_of("vision.t4_ratio_lut_ns");
    for s in &shapes {
        let detect_ns = value_of(&format!("vision.t4_detect_ns.{}", s.name));
        out.push((
            format!("vision.t4_lut_share.{}", s.name),
            Reduced::single(s.models.len() as f64 * lut_ns / detect_ns),
        ));
        let cells = (s.models.len() * LUT_SIZE * LUT_SIZE * LUT_SIZE) as f64;
        out.push((
            format!("vision.t4_lut_cells_per_masked_px.{}", s.name),
            Reduced::single(cells / s.mask.count_set().max(1) as f64),
        ));
    }
    Ok(out)
}
