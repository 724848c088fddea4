//! Scaling extension — optimal latency and initiation interval as the
//! processor count grows (1–16), for a light and a heavy regime. Shows
//! where the application stops benefiting from more processors (the span
//! bound) and how the chosen decomposition adapts to the machine size —
//! "the number of nodes and the number of processors within each node" is
//! an *input* of the paper's Fig. 6 algorithm.

use cds_core::optimal::{optimal_schedule, OptimalConfig};
use cluster::ClusterSpec;
use kiosk_bench::{csv_line, print_table, run_checks};
use taskgraph::{builders, AppState};

pub(crate) fn run() {
    let graph = builders::color_tracker();
    println!("Optimal schedule scaling with processor count (color tracker)");

    let cfg = OptimalConfig {
        max_nodes: 300_000,
        ..OptimalConfig::default().serial()
    };
    let t4 = graph.task_by_name("Target Detection").unwrap();

    for n_models in [1u32, 8] {
        let state = AppState::new(n_models);
        let mut rows = Vec::new();
        let mut prev_latency = None;
        let mut monotone = true;
        for procs in [1u32, 2, 3, 4, 6, 8, 12, 16] {
            let cluster = ClusterSpec::single_node(procs);
            let r = optimal_schedule(&graph, &cluster, &state, &cfg);
            let d = r
                .best
                .iteration
                .decomp
                .get(&t4)
                .map_or("serial".to_string(), ToString::to_string);
            if let Some(prev) = prev_latency {
                monotone &= r.minimal_latency <= prev;
            }
            prev_latency = Some(r.minimal_latency);
            rows.push(vec![
                procs.to_string(),
                format!("{:.3}", r.minimal_latency.as_secs_f64()),
                format!("{:.3}", r.best.ii.as_secs_f64()),
                format!("{:.0}%", r.best.utilization() * 100.0),
                d.clone(),
                r.complete.to_string(),
            ]);
            csv_line(&[
                "scaling".to_string(),
                n_models.to_string(),
                procs.to_string(),
                format!("{:.4}", r.minimal_latency.as_secs_f64()),
                format!("{:.4}", r.best.ii.as_secs_f64()),
                d,
            ]);
        }
        print_table(
            &format!("{n_models} model(s)"),
            &[
                "procs",
                "latency (s)",
                "II (s)",
                "utilization",
                "T4 decomp",
                "complete",
            ],
            &rows,
        );
        run_checks(&[("latency is non-increasing in processors", monotone)]);
    }
    println!("\nThe latency floor is the decomposed critical path; beyond it extra processors");
    println!("only buy throughput (lower II via deeper pipelining) — the §3.3 observation.");
}
