//! Figure 5 — "Schedules that exploit task parallelism (a) and data
//! parallelism (b) exhibit significantly reduced latency": optimal
//! schedules with decompositions disabled (T2 ∥ T3 only) and enabled (T4
//! split across processors), with their wrap-around pipelining.

use cds_core::evaluate::evaluate_schedule;
use cds_core::optimal::{optimal_schedule, OptimalConfig};
use cds_core::pipeline::naive_pipeline;
use cluster::{render_gantt, ClusterSpec, FrameClock, GanttOptions};
use kiosk_bench::{csv_line, run_checks};
use taskgraph::{builders, AppState, Micros};

pub(crate) fn run() {
    let graph = builders::color_tracker();
    let cluster = ClusterSpec::single_node(4);
    let state = AppState::new(2);
    let clock = FrameClock::new(Micros::from_millis(33), 10);
    let opts = GanttOptions {
        bucket: Micros::from_millis(100),
        max_rows: 48,
        from: Micros::ZERO,
    };

    println!("Reproduction of Figure 5 (SC 1999): task-parallel (a) and task+data-parallel (b) optimal schedules");
    println!("2 models, 4 processors\n");

    let pipeline = naive_pipeline(&graph, &cluster, &state);

    // (a) Task parallelism only.
    let cfg_a = OptimalConfig {
        explore_decompositions: false,
        ..OptimalConfig::default().serial()
    };
    let a = optimal_schedule(&graph, &cluster, &state, &cfg_a);
    let out_a = evaluate_schedule(&a.best, &graph, clock, 2);
    println!("--- (a) task parallelism (T2 ∥ T3), wrap-around pipelining ---");
    println!("{}", render_gantt(&out_a.trace, &graph, opts));
    println!(
        "latency={} II={} rotation={} | {}",
        a.minimal_latency, a.best.ii, a.best.rotation, out_a.metrics
    );

    // (b) Task + data parallelism.
    let b = optimal_schedule(&graph, &cluster, &state, &OptimalConfig::default().serial());
    let out_b = evaluate_schedule(&b.best, &graph, clock, 2);
    println!("\n--- (b) task + data parallelism (T4 decomposed) ---");
    println!("{}", render_gantt(&out_b.trace, &graph, opts));
    println!(
        "latency={} II={} rotation={} decomp={:?} | {}",
        b.minimal_latency,
        b.best.ii,
        b.best.rotation,
        b.best.iteration.decomp.iter().collect::<Vec<_>>(),
        out_b.metrics
    );

    for (label, r, out) in [
        ("task_parallel", &a, &out_a),
        ("task_data_parallel", &b, &out_b),
    ] {
        csv_line(&[
            "fig5".to_string(),
            label.to_string(),
            format!("{:.4}", r.minimal_latency.as_secs_f64()),
            format!("{:.4}", r.best.ii.as_secs_f64()),
            format!("{:.4}", out.metrics.mean_latency.as_secs_f64()),
            format!("{:.4}", out.metrics.throughput_hz),
        ]);
    }

    println!("\nshape checks (latency strictly decreases pipeline → (a) → (b)):");
    let checks = [
        (
            format!(
                "(a) {} beats naive pipeline {}",
                a.minimal_latency, pipeline.iteration.latency
            ),
            a.minimal_latency < pipeline.iteration.latency,
        ),
        (
            format!("(b) {} beats (a) {}", b.minimal_latency, a.minimal_latency),
            b.minimal_latency < a.minimal_latency,
        ),
        (
            "(b) decomposes T4".to_string(),
            !b.best.iteration.decomp.is_empty(),
        ),
        (
            "both schedules pipeline without collisions".to_string(),
            a.best.find_collision().is_none() && b.best.find_collision().is_none(),
        ),
    ];
    run_checks(&checks);
}
