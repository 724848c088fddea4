//! Table 1 — "Timing results in seconds/frame for the target detection task
//! with one and eight target models."
//!
//! Two reproductions are printed:
//!
//! 1. **Real kernels**: the synthetic tracker's target-detection stage,
//!    decomposed into exactly the paper's chunk grids. Every chunk's CPU
//!    cost is *measured* on this host; the 4-processor makespan is then
//!    *projected* by longest-processing-time packing of the measured chunks
//!    onto four modeled processors. (This host exposes a single CPU core,
//!    so wall-clock parallel speedup is physically unobservable here — the
//!    same substitution the simulator makes, applied to measured numbers.
//!    The threaded splitter/worker/joiner machinery itself is exercised by
//!    the `runtime` crate's tests and examples.)
//! 2. **Cost model**: the calibrated analytical model used by the
//!    simulator, evaluated at the paper's scale — this reconstructs the
//!    paper's actual cell values to within a few percent.

use std::time::Instant;

use kiosk_bench::{csv_line, exit_unless, print_checks, print_table};
use taskgraph::{AppState, DataParallelSpec, Decomposition, Micros};
use vision::detect::{join_partials, DetectChunk, PartialScores};
use vision::{
    detect_chunks, image_histogram, target_detection_chunk, BitMask, ColorHist, Frame, Scene,
};

const WORKERS: usize = 4;
const WIDTH: usize = 480;
const HEIGHT: usize = 360;
const REPS: u32 = 5;

/// One cell of the grid: a decomposition's chunks with the fastest time
/// seen so far for each chunk and for the merge. Fastest, not mean:
/// interference only ever adds, and chunks now take well under a
/// millisecond.
struct Cell {
    chunks: Vec<DetectChunk>,
    chunk_secs: Vec<f64>,
    merge_secs: f64,
}

impl Cell {
    fn new(n_models: usize, fp: usize, mp: usize) -> Cell {
        let chunks = detect_chunks(WIDTH, HEIGHT, n_models, fp, mp);
        Cell {
            chunk_secs: vec![f64::INFINITY; chunks.len()],
            merge_secs: f64::INFINITY,
            chunks,
        }
    }

    /// Run every chunk and the merge once.
    fn measure_once(
        &mut self,
        frame: &Frame,
        hist: &ColorHist,
        mask: &BitMask,
        models: &[ColorHist],
    ) {
        let mut partials: Vec<PartialScores> = Vec::new();
        for (secs, &chunk) in self.chunk_secs.iter_mut().zip(&self.chunks) {
            let t0 = Instant::now();
            let p = target_detection_chunk(frame, hist, models, mask, chunk);
            *secs = secs.min(t0.elapsed().as_secs_f64());
            partials.extend(p);
        }
        let t0 = Instant::now();
        std::hint::black_box(join_partials(WIDTH, HEIGHT, models.len(), partials));
        self.merge_secs = self.merge_secs.min(t0.elapsed().as_secs_f64());
    }

    /// Project the makespan on `WORKERS` processors by LPT packing of the
    /// measured chunks. Returns (projected seconds/frame, total CPU
    /// seconds).
    fn project(&self) -> (f64, f64) {
        let mut sorted = self.chunk_secs.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let mut procs = [0.0f64; WORKERS];
        for s in sorted {
            let min = procs
                .iter_mut()
                .min_by(|a, b| a.partial_cmp(b).unwrap())
                .unwrap();
            *min += s;
        }
        let makespan = procs.iter().cloned().fold(0.0, f64::max) + self.merge_secs;
        let total: f64 = self.chunk_secs.iter().sum::<f64>() + self.merge_secs;
        (makespan, total)
    }
}

pub(crate) fn run() {
    println!(
        "Reproduction of Table 1 (SC 1999): target-detection latency under data decomposition"
    );
    println!(
        "grid: FP ∈ {{1,4}} × (1 model | 8 models with MP ∈ {{8,1}}), {WORKERS} modeled processors, {WIDTH}x{HEIGHT} frames"
    );
    println!("(single-core host: per-chunk CPU costs measured, makespan projected by LPT packing)");

    // --- Real kernels ----------------------------------------------------
    let scene8 = Scene::demo(WIDTH, HEIGHT, 8, 0xBEEF);
    let models8 = scene8.models();
    let models1 = &models8[..1];
    let frame = scene8.render(3);
    let hist = image_histogram(&frame);
    let mask = BitMask::all_set(WIDTH, HEIGHT);

    // Paper's measured cells, seconds/frame.
    let paper = [
        // (fp, models, mp, paper_seconds)
        (1usize, 1usize, 1usize, 0.876),
        (4, 1, 1, 0.275),
        (1, 8, 8, 1.857),
        (4, 8, 8, 2.155),
        (1, 8, 1, 6.850),
        (4, 8, 1, 2.033),
    ];

    // The cells are compared with each other, so their repetitions are
    // interleaved: a slow spell of the host lands on every cell alike.
    let mut cells: Vec<Cell> = paper
        .iter()
        .map(|&(fp, n_models, mp, _)| Cell::new(n_models, fp, mp))
        .collect();
    for _ in 0..REPS {
        for (cell, &(_, n_models, _, _)) in cells.iter_mut().zip(&paper) {
            let models: &[ColorHist] = if n_models == 1 { models1 } else { &models8 };
            cell.measure_once(&frame, &hist, &mask, models);
        }
    }

    let mut rows = Vec::new();
    let mut measured = std::collections::HashMap::new();
    for (cell, &(fp, n_models, mp, paper_s)) in cells.iter().zip(&paper) {
        let (secs, cpu) = cell.project();
        let chunks = cell.chunks.len();
        measured.insert((fp, n_models, mp), secs);
        rows.push(vec![
            format!("FP={fp}"),
            format!("{n_models}"),
            format!("MP={mp}"),
            format!("({chunks})"),
            format!("{secs:.4}"),
            format!("{cpu:.4}"),
            format!("{paper_s:.3}"),
        ]);
        csv_line(&[
            "table1_real".to_string(),
            fp.to_string(),
            n_models.to_string(),
            mp.to_string(),
            chunks.to_string(),
            format!("{secs:.6}"),
            format!("{paper_s:.3}"),
        ]);
    }
    print_table(
        "Table 1, real kernels (this host, projected on 4 processors)",
        &[
            "partitions",
            "models",
            "decomp",
            "chunks",
            "latency s/frame",
            "total CPU s",
            "paper s/frame",
        ],
        &rows,
    );

    // Shape checks on this host's real kernels. The live T4 evaluates the
    // back projection per masked pixel, so the only per-model-per-chunk
    // set-up is a 4,096-bin ratio histogram, and it runs a chunk's models
    // together as lanes: one mask walk, one colour lookup and one filter
    // pass per pixel serve up to eight models. Splitting the frame keeps
    // that sharing (four eight-lane strips); splitting the model set gives
    // it up (one-lane chunks, each paying the whole per-pixel walk). So
    // FP=4 and MP=8 each beat the serial eight-lane chunk, and 32 one-lane
    // chunks on the same four processors cost more than FP=4's four
    // eight-lane chunks. The MP=8 clause is the tight one: its two rounds
    // of one-lane chunks beat serial only while a one-lane chunk costs
    // under half the eight-lane one, and EXPERIMENTS.md "Table 1" records
    // how near half that ratio sits, with each check's margin. FP=4 vs MP=8
    // is reported, not gated (the paper's crossover lives in the
    // paper-scale cost model below). A failed check does not end the
    // report: every section runs, and the exit status covers them all.
    let g = |fp: usize, n: usize, mp: usize| measured[&(fp, n, mp)];
    let serial8 = g(1, 8, 1);
    println!(
        "\n8 models, FP=4 (4 chunks) vs MP=8 (8 chunks): {:.4} s vs {:.4} s, ratio {:.2} (paper: 2.033 vs 1.857, ratio 1.09)",
        g(4, 8, 1),
        g(1, 8, 8),
        g(4, 8, 1) / g(1, 8, 8)
    );
    println!(
        "8 models, MP=8 (8 chunks) vs serial (1 chunk): {:.4} s vs {serial8:.4} s, ratio {:.2} (paper: 1.857 vs 6.850, ratio 0.27)",
        g(1, 8, 8),
        g(1, 8, 8) / serial8
    );
    let checks = [
        ("1 model: FP=4 beats FP=1", g(4, 1, 1) < g(1, 1, 1)),
        (
            "8 models: FP=4 and MP=8 each beat serial",
            g(4, 8, 1) < serial8 && g(1, 8, 8) < serial8,
        ),
        (
            "8 models: 32 one-lane chunks cost more than FP=4's four eight-lane chunks",
            g(4, 8, 8) > g(4, 8, 1),
        ),
    ];
    println!("\nshape checks:");
    let shapes_ok = print_checks(&checks);

    // --- Cost model at paper scale ---------------------------------------
    let spec = DataParallelSpec::new(vec![1, 4], vec![1, 8], Micros::from_millis(35))
        .with_model_overhead(Micros::from_millis(35));
    let mut rows = Vec::new();
    for &(fp, n_models, mp, paper_s) in &paper {
        let state = AppState::new(n_models as u32);
        let work = Micros::from_millis(20) + Micros::from_millis(856) * n_models as u64;
        let plan = spec.plan(work, Decomposition::new(fp as u32, mp as u32), &state);
        let m = DataParallelSpec::makespan(&plan, WORKERS as u32).as_secs_f64();
        rows.push(vec![
            format!("FP={fp}"),
            format!("{n_models}"),
            format!("MP={mp}"),
            format!("({})", plan.chunks),
            format!("{m:.3}"),
            format!("{paper_s:.3}"),
            format!("{:+.1}%", (m - paper_s) / paper_s * 100.0),
        ]);
        csv_line(&[
            "table1_model".to_string(),
            fp.to_string(),
            n_models.to_string(),
            mp.to_string(),
            plan.chunks.to_string(),
            format!("{m:.4}"),
            format!("{paper_s:.3}"),
        ]);
    }
    print_table(
        "Table 1, calibrated cost model (paper scale)",
        &[
            "partitions",
            "models",
            "decomp",
            "chunks",
            "model s/frame",
            "paper s/frame",
            "error",
        ],
        &rows,
    );

    // --- Calibrate → schedule: the full loop ------------------------------
    // Measure the kernels on this host, build a cost-model graph from the
    // measurements, and let the optimal enumerator pick the decomposition —
    // the regime-dependence conclusion must hold on the host's own numbers.
    use cds_core::optimal::OptimalConfig;
    use cds_core::table::ScheduleTable;
    use cluster::ClusterSpec;
    use vision::calibrate::{calibrated_tracker, measure_kernels};

    let times = measure_kernels(WIDTH, HEIGHT, &[1, 2, 4, 8], 2);
    let graph = calibrated_tracker(WIDTH, HEIGHT, &times);
    let cluster = ClusterSpec::single_node(WORKERS as u32);
    let t4 = graph.task_by_name("Target Detection").unwrap();
    println!("\n== Calibrated graph (this host) → optimal decomposition per regime ==");

    let states: Vec<AppState> = [1u32, 2, 4, 8].iter().map(|&n| AppState::new(n)).collect();
    let cfg = OptimalConfig::default().serial();
    let t0 = Instant::now();
    let table = ScheduleTable::precompute(&graph, &cluster, &states, &cfg);
    let build = t0.elapsed();

    let mut chosen = Vec::new();
    for s in &states {
        let sched = table.get(s).expect("state precomputed");
        let d = sched
            .iteration
            .decomp
            .get(&t4)
            .map_or("serial".to_string(), ToString::to_string);
        println!(
            "  {} models: latency {}  II {}  T4 {}",
            s.n_models, sched.iteration.latency, sched.ii, d
        );
        csv_line(&[
            "table1_calibrated".to_string(),
            s.n_models.to_string(),
            format!("{:.6}", sched.iteration.latency.as_secs_f64()),
            d.clone(),
        ]);
        chosen.push(d);
    }
    println!("\n  table build: {:.3} s", build.as_secs_f64());
    let distinct: std::collections::HashSet<&String> = chosen.iter().collect();
    println!();
    let calibrated_ok = print_checks(&[(
        "calibrated decomposition is regime-dependent on this host",
        distinct.len() > 1,
    )]);
    exit_unless(shapes_ok && calibrated_ok);
}
