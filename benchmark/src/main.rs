//! One benchmark for the live tracker and the fleet.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--seed N] [--workload NAME] [--seconds S] [--trace 0|1] \
//!     [--smoke] [--sets N] [--out PATH] [--manifest]
//! ```
//!
//! Without `--trace` every workload (or the one named) is measured both
//! ways — end-to-end metrics with tracing off, then per-layer metrics from
//! probes, run counters and one traced repetition — every metric is printed
//! by name with unit, value, spread and sample count, and the result is
//! written as JSON. With `--workload` and `--trace` the run is one cell of
//! the driver's matrix and the last line of standard output is the
//! contract's result object. See `benchmark/README.md`.

mod json;
mod names;
mod probes;
mod stats;
mod trace;
mod watchdog;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use json::Json;
use names::{END_TO_END, RUN_SECONDS};
use obs::SpanDump;
use stats::{median, percentile, reduce, Reduced};
use trace::{trace_metrics, BenchSpans};
use watchdog::Watchdog;
use workloads::{reference_lens, run_rep, setup_once, Counters, Reference, Rep, Workload};

/// End the process with a named failure. Used where carrying on would
/// report numbers from a run that did not happen as described.
pub fn fail(msg: &str) -> ! {
    eprintln!("benchmark: FAILED: {msg}");
    std::process::exit(3);
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    sets: usize,
    out: Option<PathBuf>,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 11,
        seconds: RUN_SECONDS as f64,
        trace: None,
        smoke: false,
        sets: 1,
        out: None,
        manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                a.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--sets" => {
                a.sets = value("a count")?
                    .parse()
                    .map_err(|e| format!("--sets: {e}"))?
            }
            "--out" => a.out = Some(PathBuf::from(value("a path")?)),
            "--smoke" => a.smoke = true,
            "--manifest" => a.manifest = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(a.seconds >= 0.0 && a.seconds <= 600.0) {
        return Err("--seconds must be between 0 and 600".into());
    }
    if a.sets == 0 {
        return Err("--sets must be at least 1".into());
    }
    Ok(a)
}

/// The benchmark's own directory: where `out/` goes and `../crates` is.
fn bench_dir() -> PathBuf {
    // `cargo run` sets the variable for the process; a binary started by
    // hand falls back on where it was built.
    PathBuf::from(
        std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").into()),
    )
}

/// How much of everything one measurement does.
struct Plan {
    seconds: f64,
    probes: probes::Plan,
}

impl Plan {
    fn new(args: &Args) -> Plan {
        if args.smoke {
            Plan {
                seconds: 0.0,
                probes: probes::Plan {
                    light: Duration::ZERO,
                    min_rounds: 2,
                    heavy_rounds: 1,
                },
            }
        } else {
            Plan {
                seconds: args.seconds,
                probes: probes::Plan {
                    light: Duration::from_secs_f64(args.seconds * 0.35),
                    min_rounds: 3,
                    heavy_rounds: 3,
                },
            }
        }
    }
}

/// One reported metric.
struct Metric {
    name: String,
    unit: &'static str,
    r: Reduced,
    /// Frames (or operations) behind the value, over all repetitions.
    frames: u64,
}

/// One cell of the matrix: a workload measured one way.
struct Measured {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Measured {
    fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.r.value)
    }
}

/// Repetitions a measurement takes at least, whatever `--seconds` says.
const MIN_REPS: usize = 2;

/// Absolute slack of the two-set agreement check on `setup_s`.
const SETUP_AGREEMENT_FLOOR_S: f64 = 0.005;

/// Set-ups per `setup_s` sample; the sample is the fastest of them.
const SETUP_BATCH: usize = 5;

/// What the first run of a process is given, before anything is known.
const FIRST_REP_BUDGET: Duration = Duration::from_secs(120);

/// Run the warm-up repetition (discarded) and derive the deadline of a full
/// one from it: four times its expected wall time.
fn warm_up(w: &Workload, seed: u64, log: &mut BenchSpans, dog: &Watchdog) -> Duration {
    let warm = run_rep(w, seed, w.warm_frames, false, FIRST_REP_BUDGET, log, dog);
    let expected_s = if w.open_loop() {
        w.frames as f64 * w.period.as_secs_f64() + 1.0
    } else {
        warm.wall_s / w.warm_frames as f64 * w.frames as f64
    };
    Duration::from_secs_f64((4.0 * expected_s).max(10.0))
}

/// Check every repetition's commits against the reference run; returns
/// `(attempted, failed)` over all of them.
fn verify(w: &Workload, seed: u64, reps: &[&Rep], log: &mut BenchSpans) -> (u64, u64) {
    let lens = reference_lens(w, reps);
    let reference = log.scope("bench.verify", |log| {
        Reference::run(w, seed, w.frames, &lens, log)
    });
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let good: u64 = reps.iter().map(|r| reference.matching(r)).sum();
    (attempted, attempted - good.min(attempted))
}

fn fps(rep: &Rep) -> f64 {
    rep.committed() as f64 / rep.wall_s
}

/// End-to-end metrics, tracing off: timed set-ups, a warm-up repetition,
/// then identical repetitions back to back until `plan.seconds` are used.
fn measure_end_to_end(
    w: &Workload,
    seed: u64,
    plan: &Plan,
    log: &mut BenchSpans,
    dog: &Watchdog,
) -> Measured {
    // Set-up time is micro- to milliseconds and interference only ever adds
    // to it (on the fleet, tenants attached first already compete with the
    // attaches that follow), so each sample is the fastest of a small batch
    // of set-ups and the metric is the median over batches.
    dog.arm(w.name, FIRST_REP_BUDGET);
    let setups: Vec<f64> = (0..w.setup_samples)
        .map(|_| {
            (0..SETUP_BATCH)
                .map(|_| setup_once(w, seed, log))
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    dog.disarm();

    let budget = warm_up(w, seed, log, dog);
    let mut reps: Vec<Rep> = Vec::new();
    let t0 = Instant::now();
    loop {
        let rep_t0 = Instant::now();
        reps.push(run_rep(w, seed, w.frames, false, budget, log, dog));
        let last_s = rep_t0.elapsed().as_secs_f64();
        // Another repetition only if at least half of it fits the budget.
        if reps.len() >= MIN_REPS && t0.elapsed().as_secs_f64() + last_s / 2.0 > plan.seconds {
            break;
        }
    }

    // Identical repetitions of one scene: the controller must have
    // switched regimes exactly as often in each.
    if reps
        .iter()
        .any(|r| r.counters.switches != reps[0].counters.switches)
    {
        fail(&format!(
            "{}: regime switches differ between identical repetitions",
            w.name
        ));
    }
    let (attempted, failed) = verify(w, seed, &reps.iter().collect::<Vec<_>>(), log);
    let per_rep = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let latency_samples: u64 = reps.iter().map(|r| r.latencies_ms.len() as u64).sum();
    let frames: u64 = reps.iter().map(Rep::committed).sum();
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let (values, frames) = match m.name {
                "frame_latency_p50_ms" => (per_rep(&|r| median(&r.latencies_ms)), latency_samples),
                "frames_per_s" => (per_rep(&fps), frames),
                "peak_channel_mib" => (
                    per_rep(&|r| r.peak_channel_bytes as f64 / (1024.0 * 1024.0)),
                    frames,
                ),
                "setup_s" => (setups.clone(), (w.setup_samples * SETUP_BATCH) as u64),
                other => fail(&format!("{other} is in the catalogue but not measured")),
            };
            Metric {
                name: m.name.to_string(),
                unit: m.unit,
                r: reduce(&values),
                frames,
            }
        })
        .collect();
    Measured {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    }
}

/// `loc.<crate>` and `loc.total`.
fn loc_metrics() -> Vec<(String, Reduced)> {
    let crates = bench_dir().join("../crates");
    let mut v: Vec<(String, Reduced)> = names::LOC_CRATES
        .iter()
        .map(|c| {
            (
                format!("loc.{c}"),
                Reduced::single(rust_lines(&crates.join(c)) as f64),
            )
        })
        .collect();
    let total: f64 = v.iter().map(|(_, r)| r.value).sum();
    v.push(("loc.total".into(), Reduced::single(total)));
    v
}

/// Non-blank, non-comment Rust lines under `dir`.
fn rust_lines(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut total = 0;
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n != "target") {
                total += rust_lines(&p);
            }
        } else if p.extension().is_some_and(|e| e == "rs") {
            if let Ok(text) = std::fs::read_to_string(&p) {
                total += text
                    .lines()
                    .map(str::trim)
                    .filter(|l| !l.is_empty() && !l.starts_with("//"))
                    .count() as u64;
            }
        }
    }
    total
}

fn run_counter_metrics(rep: &Rep, failed_frac: f64) -> Vec<(String, f64)> {
    let c: &Counters = &rep.counters;
    let committed = rep.committed().max(1) as f64;
    let takes = c.buf_reused + c.buf_created;
    let mut v = vec![
        ("stm.peak_live_max", c.peak_live_max),
        ("pool.jobs_per_frame", c.pool_jobs / committed),
        ("pool.faults", c.pool_faults),
        ("regime.switches", c.switches),
        ("regime.clamps", c.clamps),
        (
            "bufpool.reuse_frac",
            if takes > 0.0 {
                c.buf_reused / takes
            } else {
                0.0
            },
        ),
        (
            "runtime.frame_latency_p95_ms",
            percentile(&rep.latencies_ms, 95.0),
        ),
        (
            "runtime.frame_latency_p99_ms",
            percentile(&rep.latencies_ms, 99.0),
        ),
        ("runtime.frame_fail_frac", failed_frac),
        ("runtime.completion_cov", c.completion_cov),
        ("runtime.rate_held", c.rate_held),
        ("health.drops", c.drops),
        ("health.load_sheds", c.load_sheds),
    ];
    // The fleet counters stay 0 on a solo tracker.
    v.extend([
        ("fleet.pool_util_mean", c.fleet_util_mean),
        ("fleet.boost_ticks", c.fleet_boost_ticks),
        ("fleet.cache_searches", c.fleet_cache_searches),
        ("fleet.cache_hits", c.fleet_cache_hits),
        ("fleet.guaranteed_fps", c.fleet_guaranteed_fps),
        ("fleet.hog_fps", c.fleet_hog_fps),
    ]);
    v.into_iter().map(|(n, x)| (n.to_string(), x)).collect()
}

/// Per-layer metrics: the workload-independent values taken once per
/// process (probes, lines of code), then a warm-up, one untraced and one
/// traced repetition (run counters from the first, the latency budget from
/// the second, tracing overhead from the difference). Also returns the
/// traced repetition's span dumps for the Chrome trace.
fn measure_layers(
    w: &Workload,
    seed: u64,
    probed: &[(String, Reduced)],
    log: &mut BenchSpans,
    dog: &Watchdog,
) -> (Measured, Vec<(String, SpanDump)>) {
    let mut values: Vec<(String, Reduced, u64)> = probed
        .iter()
        .map(|(n, r)| (n.clone(), *r, r.samples as u64))
        .collect();

    let budget = warm_up(w, seed, log, dog);
    let plain = run_rep(w, seed, w.frames, false, budget, log, dog);
    let mut traced_rep = run_rep(w, seed, w.frames, true, budget, log, dog);
    let (attempted, failed) = verify(w, seed, &[&plain, &traced_rep], log);

    let frames = plain.committed();
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    for (name, x) in run_counter_metrics(&plain, failed_frac) {
        values.push((name, Reduced::single(x), frames));
    }

    let traced = traced_rep
        .traced
        .take()
        .expect("a traced repetition carries its dump");
    let overhead = if w.open_loop() {
        median(&traced_rep.latencies_ms) / median(&plain.latencies_ms) - 1.0
    } else {
        1.0 - fps(&traced_rep) / fps(&plain)
    };
    let spans_per_frame = traced.spans as f64 / traced_rep.committed().max(1) as f64;
    for (name, x) in trace_metrics(&traced.budgets, spans_per_frame, overhead) {
        values.push((name, Reduced::single(x), traced.budgets.len() as u64));
    }

    // Report in catalogue order, and insist the two agree.
    let metrics = names::per_layer()
        .into_iter()
        .map(|layer| {
            let Some(i) = values.iter().position(|(n, _, _)| *n == layer.name) else {
                fail(&format!("no value was produced for {}", layer.name));
            };
            let (name, r, frames) = values.swap_remove(i);
            Metric {
                name,
                unit: layer.unit,
                r,
                frames,
            }
        })
        .collect();
    if let Some((stray, _, _)) = values.first() {
        fail(&format!("{stray} is measured but not in the catalogue"));
    }
    let measured = Measured {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    };
    (measured, traced.dumps)
}

/// Write a span log (and the program's dumps) as a Chrome trace; a failure
/// to write costs the trace, not the run.
fn write_chrome(path: &Path, log: &BenchSpans, program: &[(String, SpanDump)]) {
    if let Err(e) = std::fs::write(path, log.to_chrome(program)) {
        eprintln!("benchmark: could not write {path:?}: {e}");
    }
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

fn print_measured(workload: &str, m: &Measured) {
    for x in &m.metrics {
        println!(
            "{workload:<16} {:<42} {:>16.6} {:<9} spread {:>6.3}  reps {:>3}  samples {}",
            x.name, x.r.value, x.unit, x.r.spread, x.r.samples, x.frames
        );
    }
    println!(
        "{workload:<16} outputs {} — {} frames attempted, {} failed",
        if m.correct { "correct" } else { "WRONG" },
        m.attempted,
        m.failed
    );
}

/// The contract's result object.
fn contract_json(m: &Measured) -> Json {
    Json::obj([
        ("correct", Json::Bool(m.correct)),
        ("attempted", Json::Int(m.attempted as i64)),
        ("failed", Json::Int(m.failed as i64)),
        (
            "metrics",
            Json::obj(m.metrics.iter().map(|x| {
                (
                    x.name.clone(),
                    Json::obj([("value", Json::Num(x.r.value)), ("unit", Json::str(x.unit))]),
                )
            })),
        ),
    ])
}

fn detailed_json(m: &Measured) -> Json {
    Json::obj(m.metrics.iter().map(|x| {
        (
            x.name.clone(),
            Json::obj([
                ("value", Json::Num(x.r.value)),
                ("unit", Json::str(x.unit)),
                ("spread", Json::Num(x.r.spread)),
                ("reps", Json::Int(x.r.samples as i64)),
                ("samples", Json::Int(x.frames as i64)),
            ]),
        )
    }))
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        // Keep git from looking for a repository above the checkout.
        .env(
            "GIT_CEILING_DIRECTORIES",
            dir.join("../..").canonicalize().unwrap_or_default(),
        )
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Where and on what the numbers were taken. Warns — does not fail — when
/// the host is already busy.
fn environment(args: &Args) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let load1: f64 = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|x| x.parse().ok()))
        .unwrap_or(-1.0);
    if load1 > 0.5 * nproc as f64 {
        eprintln!(
            "benchmark: WARNING: 1-minute load average {load1:.2} exceeds half of {nproc} cores; numbers will be noisy"
        );
    }
    let dir = bench_dir();
    Json::obj([
        ("nproc", Json::Int(nproc as i64)),
        ("cpu_features", Json::str(vision::active().features())),
        ("backend", Json::str(vision::active().kind().name())),
        (
            "CDS_BACKEND",
            std::env::var("CDS_BACKEND").map_or(Json::Null, Json::Str),
        ),
        (
            "rustc",
            Json::str(command_line("rustc", &["--version"], &dir)),
        ),
        (
            "git_revision",
            Json::str(command_line("git", &["rev-parse", "--short", "HEAD"], &dir)),
        ),
        ("seed", Json::Int(args.seed as i64)),
        ("seconds", Json::Num(args.seconds)),
        ("smoke", Json::Bool(args.smoke)),
        ("load_average_1m", Json::Num(load1)),
    ])
}

/// The catalogue as the result carries it: what each name means to a
/// reader comparing two result files.
fn catalogue_json() -> Json {
    Json::obj([
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                names::per_layer()
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name.as_str())),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("should_move", Json::str(m.moves)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

struct WorkloadResult {
    name: &'static str,
    end_to_end: Option<Measured>,
    per_layer: Option<Measured>,
}

impl WorkloadResult {
    fn ok(&self) -> bool {
        [&self.end_to_end, &self.per_layer]
            .into_iter()
            .flatten()
            .all(|m| m.correct && m.failed == 0)
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![("name".to_string(), Json::str(self.name))];
        for (key, m) in [
            ("end_to_end", &self.end_to_end),
            ("per_layer", &self.per_layer),
        ] {
            if let Some(m) = m {
                fields.push((
                    key.to_string(),
                    Json::obj([
                        ("correct", Json::Bool(m.correct)),
                        ("attempted", Json::Int(m.attempted as i64)),
                        ("failed", Json::Int(m.failed as i64)),
                        ("metrics", detailed_json(m)),
                    ]),
                ));
            }
        }
        Json::Obj(fields)
    }
}

/// `|a − b| ÷ min(a, b)` per end-to-end metric and workload between two
/// sets, against the metric's bound.
fn agreement(sets: &[Vec<WorkloadResult>]) -> (Json, bool) {
    let mut rows = Vec::new();
    let mut all_pass = true;
    println!("\ntwo-set agreement (same code, same seed):");
    for (a, b) in sets[0].iter().zip(&sets[1]) {
        let (Some(ma), Some(mb)) = (&a.end_to_end, &b.end_to_end) else {
            continue;
        };
        for m in &END_TO_END {
            let (va, vb) = (ma.value(m.name), mb.value(m.name));
            let low = va.min(vb);
            let diff = if low > 0.0 {
                (va - vb).abs() / low
            } else {
                0.0
            };
            // Set-up is micro- to milliseconds today: two single runs agree
            // within the bound or within 5 ms, whichever is larger (the
            // driver, comparing medians of ten runs, applies the bound alone).
            let pass = diff <= m.bound
                || (m.name == "setup_s" && (va - vb).abs() <= SETUP_AGREEMENT_FLOOR_S);
            all_pass &= pass;
            println!(
                "{:<16} {:<22} {:>14.6} {:>14.6} {:<9} diff {:>6.3}  bound {:.2}  {}",
                a.name,
                m.name,
                va,
                vb,
                m.unit,
                diff,
                m.bound,
                if pass { "PASS" } else { "FAIL" }
            );
            rows.push(Json::obj([
                ("workload", Json::str(a.name)),
                ("metric", Json::str(m.name)),
                ("a", Json::Num(va)),
                ("b", Json::Num(vb)),
                ("diff", Json::Num(diff)),
                ("bound", Json::Num(m.bound)),
                ("pass", Json::Bool(pass)),
            ]));
        }
    }
    (Json::Arr(rows), all_pass)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(2);
        }
    };
    if args.manifest {
        print!("{}", names::manifest().to_pretty());
        return;
    }
    let all = workloads::workloads(args.smoke);
    let chosen: Vec<&Workload> = match &args.workload {
        None => all.iter().collect(),
        Some(name) => match all.iter().find(|w| w.name == name) {
            Some(w) => vec![w],
            None => {
                eprintln!(
                    "benchmark: no workload {name:?}; the workloads are {}",
                    all.iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
                );
                std::process::exit(2);
            }
        },
    };
    let out_dir = bench_dir().join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        fail(&format!("cannot create {out_dir:?}: {e}"));
    }
    let env = environment(&args);
    let plan = Plan::new(&args);
    let dog = Watchdog::start();
    let probed = if args.trace == Some(false) {
        Vec::new()
    } else {
        let mut log = BenchSpans::new();
        let mut probed = probes::run(args.seed, &plan.probes, &out_dir, &mut log)
            .unwrap_or_else(|e| fail(&format!("a layer probe failed: {e}")));
        probed.extend(loc_metrics());
        write_chrome(&out_dir.join("probes.chrome.json"), &log, &[]);
        probed
    };

    let mut sets: Vec<Vec<WorkloadResult>> = Vec::new();
    for set in 0..args.sets {
        let mut results = Vec::new();
        for w in &chosen {
            let mut log = BenchSpans::new();
            let mut result = WorkloadResult {
                name: w.name,
                end_to_end: None,
                per_layer: None,
            };
            let mut dumps = Vec::new();
            if args.trace != Some(true) {
                let m = measure_end_to_end(w, args.seed, &plan, &mut log, &dog);
                print_measured(w.name, &m);
                result.end_to_end = Some(m);
            }
            if args.trace != Some(false) {
                let (m, traced) = measure_layers(w, args.seed, &probed, &mut log, &dog);
                print_measured(w.name, &m);
                result.per_layer = Some(m);
                dumps = traced;
            }
            let chrome_out = out_dir.join(format!("{}.chrome.json", w.name));
            write_chrome(&chrome_out, &log, &dumps);
            results.push(result);
        }
        if args.sets > 1 {
            println!("-- end of set {} of {}", set + 1, args.sets);
        }
        sets.push(results);
    }
    drop(dog);

    let (agreement_json, agree) = if sets.len() >= 2 {
        agreement(&sets)
    } else {
        (Json::Arr(Vec::new()), true)
    };
    let ok = sets.iter().flatten().all(WorkloadResult::ok);
    let report = Json::obj([
        ("schema", Json::str("cds-benchmark/1")),
        ("env", env),
        ("catalogue", catalogue_json()),
        (
            "sets",
            Json::Arr(
                sets.iter()
                    .map(|s| Json::Arr(s.iter().map(WorkloadResult::to_json).collect()))
                    .collect(),
            ),
        ),
        ("agreement", agreement_json),
    ]);
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir.join("result.json"));
    match std::fs::write(&out, report.to_pretty()) {
        Ok(()) => println!("result written to {}", out.display()),
        Err(e) => fail(&format!("cannot write {out:?}: {e}")),
    }

    // One cell of the driver's matrix: the contract's object, last.
    if let (Some(_), Some(traced), [only]) = (&args.workload, args.trace, &sets[0][..]) {
        let m = if traced {
            &only.per_layer
        } else {
            &only.end_to_end
        };
        let m = m.as_ref().expect("the requested cell was measured");
        println!("{}", contract_json(m).to_line());
    }
    if !ok {
        eprintln!("benchmark: FAILED: outputs differ from the reference run, or frames failed");
        std::process::exit(1);
    }
    if !agree {
        eprintln!("benchmark: FAILED: two sets of the same code disagree beyond a bound");
        std::process::exit(4);
    }
}
