//! Figure 4 — "Performance of naive pthread (a) and pipeline (b) scheduling
//! strategies": per-processor timelines and latencies of the
//! dependence-blind online scheduler versus naive software pipelining.

use cds_core::evaluate::evaluate_schedule;
use cds_core::pipeline::naive_pipeline;
use cluster::{render_gantt, simulate_online, ClusterSpec, FrameClock, GanttOptions, OnlineConfig};
use kiosk_bench::{csv_line, run_checks};
use taskgraph::{builders, AppState, Micros};

pub(crate) fn run() {
    let graph = builders::color_tracker();
    let cluster = ClusterSpec::single_node(4);
    let state = AppState::new(2);
    let clock = FrameClock::new(Micros::from_millis(250), 12);

    println!("Reproduction of Figure 4 (SC 1999): pthread-style vs naive pipeline, 2 models, 4 processors\n");

    // (a) pthread-style: dependence-blind FIFO with a preemption quantum.
    let mut cfg = OnlineConfig::new(clock, state);
    cfg.quantum = Some(Micros::from_millis(200));
    cfg.channel_capacity = 4;
    cfg.warmup_frames = 2;
    let online = simulate_online(&graph, &cluster, cfg);
    let pathologies = cluster::pathology_report(&online.trace, &graph);
    println!("--- (a) general online scheduler (pthread-style) ---");
    println!(
        "pathologies: max same-task burst {}, preempted activations {}, max producer lead {} frames",
        pathologies.max_task_burst, pathologies.preempted_slices, pathologies.max_producer_lead
    );
    let opts = GanttOptions {
        bucket: Micros::from_millis(150),
        max_rows: 40,
        from: Micros::ZERO,
    };
    println!("{}", render_gantt(&online.trace, &graph, opts));
    println!("{}", online.metrics);

    // (a') the same scheduler with NewestUnseen-style skipping: latency
    // recovers but whole runs of frames are dropped — the paper's
    // uniformity pathology ("process three frames in a row and then skip
    // the next hundred").
    let mut skip_cfg = OnlineConfig::new(clock, state);
    skip_cfg.quantum = Some(Micros::from_millis(200));
    skip_cfg.channel_capacity = 8;
    skip_cfg.skip_stale = true;
    skip_cfg.warmup_frames = 2;
    let skipping = simulate_online(&graph, &cluster, skip_cfg);
    println!("\n--- (a') online scheduler with frame skipping ---");
    let skipped_frames: Vec<u64> = skipping
        .frames
        .iter()
        .filter(|f| f.completed_at.is_none())
        .map(|f| f.frame)
        .collect();
    println!(
        "{} | skipped frames: {:?}",
        skipping.metrics, skipped_frames
    );

    // (b) naive software pipelining: one iteration per virtual processor.
    let sched = naive_pipeline(&graph, &cluster, &state);
    let pipeline = evaluate_schedule(&sched, &graph, clock, 2);
    println!("\n--- (b) naive software pipelining ---");
    println!("{}", render_gantt(&pipeline.trace, &graph, opts));
    println!("{}", pipeline.metrics);
    println!(
        "pipeline II={} rotation={} (latency = serial iteration = {})",
        sched.ii, sched.rotation, sched.iteration.latency
    );

    csv_line(&[
        "fig4".to_string(),
        "pthread".to_string(),
        format!("{:.4}", online.metrics.mean_latency.as_secs_f64()),
        format!("{:.4}", online.metrics.throughput_hz),
        format!("{:.4}", online.metrics.uniformity_cov),
    ]);
    csv_line(&[
        "fig4".to_string(),
        "pthread_skip".to_string(),
        format!("{:.4}", skipping.metrics.mean_latency.as_secs_f64()),
        format!("{:.4}", skipping.metrics.throughput_hz),
        format!("{}", skipping.metrics.frames_dropped),
    ]);
    csv_line(&[
        "fig4".to_string(),
        "pipeline".to_string(),
        format!("{:.4}", pipeline.metrics.mean_latency.as_secs_f64()),
        format!("{:.4}", pipeline.metrics.throughput_hz),
        format!("{:.4}", pipeline.metrics.uniformity_cov),
    ]);

    println!("\nshape checks:");
    let checks = [
        (
            "pipeline latency <= pthread latency",
            pipeline.metrics.mean_latency <= online.metrics.mean_latency,
        ),
        (
            "pipeline output is more uniform (lower CoV)",
            pipeline.metrics.uniformity_cov <= online.metrics.uniformity_cov + 1e-9,
        ),
        (
            "pipeline latency equals the serial iteration time (minus digitizing)",
            pipeline.metrics.mean_latency
                == sched.iteration.latency
                    - cds_core::evaluate::digitize_offset(&sched.iteration, &graph),
        ),
        (
            "skipping trades dropped frames for latency; pipelining drops nothing",
            skipping.metrics.mean_latency < online.metrics.mean_latency
                && pipeline.metrics.frames_dropped == 0,
        ),
    ];
    run_checks(&checks);
}
