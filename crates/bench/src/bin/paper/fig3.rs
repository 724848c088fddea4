//! Figure 3 — "Comparison of optimal and tuned schedules for detecting
//! eight models": the hand-tuning curve (digitizer period swept from 33 ms
//! to 5 s under the online scheduler, with the best data-parallel
//! decomposition) against the precomputed optimal schedule, which must
//! dominate every tuned point.

use cds_core::evaluate::evaluate_schedule;
use cds_core::optimal::{optimal_schedule, OptimalConfig};
use cds_core::tuning::{paper_periods, tuning_curve_stats};
use cluster::sweep::SweepConfig;
use cluster::{ClusterSpec, FrameClock, OnlineConfig};
use kiosk_bench::{csv_line, print_table, run_checks};
use taskgraph::{builders, AppState, Decomposition, Micros};

pub(crate) fn run() {
    let graph = builders::color_tracker();
    let cluster = ClusterSpec::single_node(4);
    let state = AppState::new(8);
    let t4 = graph.task_by_name("Target Detection").unwrap();

    println!("Reproduction of Figure 3 (SC 1999): tuning curve vs optimal schedule, 8 models, 4 processors");

    // Tuning curve: online scheduler with the optimal data-parallel
    // decomposition (MP=8), digitizer period swept.
    let mut template = OnlineConfig::new(FrameClock::new(Micros::from_millis(33), 40), state);
    template.decomposition.insert(t4, Decomposition::new(1, 8));
    template.channel_capacity = 3;
    template.warmup_frames = 4;

    let mut periods = paper_periods();
    // A few intermediate points for a smoother curve.
    for ms in [300u64, 600, 1500, 2500, 3500, 4500] {
        periods.push(Micros::from_millis(ms));
    }
    periods.sort();

    let (points, stats) =
        tuning_curve_stats(&graph, &cluster, &template, &periods, SweepConfig::new());
    eprintln!("tuned sweep: {stats}");
    let mut rows = Vec::new();
    for p in &points {
        rows.push(vec![
            format!("{}", p.period),
            format!("{:.3}", p.metrics.mean_latency.as_secs_f64()),
            format!("{:.3}", p.metrics.throughput_hz),
            format!("{:.3}", p.metrics.uniformity_cov),
        ]);
        csv_line(&[
            "fig3_tuned".to_string(),
            p.period.as_secs_f64().to_string(),
            format!("{:.4}", p.metrics.mean_latency.as_secs_f64()),
            format!("{:.4}", p.metrics.throughput_hz),
        ]);
    }
    print_table(
        "Tuning curve (online scheduler, MP=8)",
        &["digitizer period", "latency (s)", "throughput (1/s)", "CoV"],
        &rows,
    );

    // The other tuning escape hatch: let tasks skip stale frames
    // (NewestUnseen consumption). Latency stays bounded at every period —
    // but the price is dropped frames, the paper's uniformity pathology.
    let mut skip_template = template.clone();
    skip_template.skip_stale = true;
    skip_template.channel_capacity = 8;
    let (skip_points, skip_stats) = tuning_curve_stats(
        &graph,
        &cluster,
        &skip_template,
        &[
            Micros::from_millis(33),
            Micros::from_secs(1),
            Micros::from_secs(3),
            Micros::from_secs(5),
        ],
        SweepConfig::new(),
    );
    eprintln!("skip sweep: {skip_stats}");
    let mut rows = Vec::new();
    for p in &skip_points {
        rows.push(vec![
            format!("{}", p.period),
            format!("{:.3}", p.metrics.mean_latency.as_secs_f64()),
            format!("{:.3}", p.metrics.throughput_hz),
            p.metrics.frames_dropped.to_string(),
        ]);
        csv_line(&[
            "fig3_skip".to_string(),
            p.period.as_secs_f64().to_string(),
            format!("{:.4}", p.metrics.mean_latency.as_secs_f64()),
            format!("{:.4}", p.metrics.throughput_hz),
            p.metrics.frames_dropped.to_string(),
        ]);
    }
    print_table(
        "Tuning with frame skipping (latency bounded, frames dropped)",
        &[
            "digitizer period",
            "latency (s)",
            "throughput (1/s)",
            "dropped",
        ],
        &rows,
    );

    // The precomputed optimal schedule, evaluated at NTSC rate. A large
    // |S| cap lets step 3 pick the highest-throughput minimal-latency
    // member.
    let opt_cfg = OptimalConfig {
        max_schedules: 256,
        ..OptimalConfig::default().serial()
    };
    let opt = optimal_schedule(&graph, &cluster, &state, &opt_cfg);
    let out = evaluate_schedule(
        &opt.best,
        &graph,
        FrameClock::new(Micros::from_millis(33), 40),
        4,
    );
    let opt_lat = out.metrics.mean_latency.as_secs_f64();
    let opt_tp = out.metrics.throughput_hz;
    println!(
        "\noptimal schedule: latency={:.3}s throughput={:.3}/s (II={}, rotation={}, decomp={:?}, |S|={})",
        opt_lat,
        opt_tp,
        opt.best.ii,
        opt.best.rotation,
        opt.best.iteration.decomp.values().collect::<Vec<_>>(),
        opt.candidates,
    );
    csv_line(&[
        "fig3_optimal".to_string(),
        "0.033".to_string(),
        format!("{opt_lat:.4}"),
        format!("{opt_tp:.4}"),
    ]);

    // Dominance checks (the paper: "performance that is strictly better
    // than all of the points on the tuning curve", and optimal latency
    // "less than half of the worst case latency for naive scheduling").
    let min_tuned_lat = points
        .iter()
        .map(|p| p.metrics.mean_latency.as_secs_f64())
        .fold(f64::INFINITY, f64::min);
    let max_tuned_lat = points
        .iter()
        .map(|p| p.metrics.mean_latency.as_secs_f64())
        .fold(0.0, f64::max);
    let max_tuned_tp = points
        .iter()
        .map(|p| p.metrics.throughput_hz)
        .fold(0.0, f64::max);
    println!("\nshape checks:");
    let checks = [
        (
            format!("optimal latency {opt_lat:.3}s <= best tuned latency {min_tuned_lat:.3}s"),
            opt_lat <= min_tuned_lat + 1e-9,
        ),
        // The paper's own caveat applies: the minimal-latency schedule
        // "fails to achieve maximum throughput since the schedule contains
        // some wasted space. This tradeoff is consistent with our desire to
        // minimize latency." The saturated tuned points (latency ≈ 4× worse)
        // set the throughput ceiling; the optimal point must come within a
        // few percent of it while dominating on latency.
        (
            format!(
                "optimal throughput {opt_tp:.3}/s within 3% of the ceiling {max_tuned_tp:.3}/s"
            ),
            opt_tp >= max_tuned_tp * 0.97,
        ),
        (
            format!(
                "optimal latency {opt_lat:.3}s < half the worst tuned latency {:.3}s",
                max_tuned_lat / 2.0
            ),
            opt_lat < max_tuned_lat / 2.0,
        ),
    ];
    run_checks(&checks);
}
