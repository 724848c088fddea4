//! §3.3 cluster experiment — "the minimal latency schedule for an iteration
//! may not use all processors but is instead restricted to the processors
//! on a single node. In this case, distinct iterations on distinct nodes
//! can overlap."
//!
//! Sweeps the interconnect cost on the paper's 4×4 cluster and compares:
//!
//! * `whole-cluster` — the optimal enumerator over all 16 processors,
//!   paying locality-dependent communication;
//! * `node-pipelined` — optimal iteration confined to one node, iterations
//!   rotated across nodes.

use cds_core::multinode::{is_node_confined, node_pipelined};
use cds_core::optimal::{optimal_schedule, OptimalConfig};
use cluster::ClusterSpec;
use kiosk_bench::{csv_line, print_table, run_checks};
use taskgraph::{builders, AppState, CommCosts};

pub(crate) fn run() {
    let graph = builders::color_tracker();
    let state = AppState::new(8);
    println!("Reproduction of the paper's §3.3 cluster strategy: 4 nodes x 4 processors, 8 models");
    println!("sweeping the interconnect cost multiplier\n");

    let cfg = OptimalConfig {
        max_nodes: 300_000,
        ..OptimalConfig::default().serial()
    };

    let mut rows = Vec::new();
    for scale in [0u64, 1, 20, 100, 500] {
        let base = CommCosts::default_cluster();
        let comm = CommCosts {
            inter_latency: base.inter_latency * scale,
            inter_per_kib: base.inter_per_kib * scale,
            ..base
        };
        let cluster = ClusterSpec::new(4, 4, comm);

        let whole = optimal_schedule(&graph, &cluster, &state, &cfg);
        let node = node_pipelined(&graph, &cluster, &state, &cfg);
        let whole_confined = {
            // Does the whole-cluster optimum stay on one node?
            let nodes: std::collections::HashSet<_> = whole
                .best
                .iteration
                .placements
                .iter()
                .map(|p| cluster.node_of(p.proc))
                .collect();
            nodes.len() == 1
        };
        assert!(is_node_confined(&node, &cluster));

        rows.push(vec![
            format!("{scale}x"),
            format!("{:.3}", whole.minimal_latency.as_secs_f64()),
            format!("{:.3}", whole.best.ii.as_secs_f64()),
            format!("{}", if whole_confined { "1 node" } else { ">1 node" }),
            format!("{:.3}", node.iteration.latency.as_secs_f64()),
            format!("{:.3}", node.ii.as_secs_f64()),
            format!("{}", whole.complete),
        ]);
        csv_line(&[
            "multinode".to_string(),
            scale.to_string(),
            format!("{:.4}", whole.minimal_latency.as_secs_f64()),
            format!("{:.4}", whole.best.ii.as_secs_f64()),
            whole_confined.to_string(),
            format!("{:.4}", node.iteration.latency.as_secs_f64()),
            format!("{:.4}", node.ii.as_secs_f64()),
        ]);
    }
    print_table(
        "Whole-cluster optimum vs node-pipelined (latency / II in seconds)",
        &[
            "interconnect",
            "whole latency",
            "whole II",
            "whole spread",
            "node latency",
            "node II",
            "search complete",
        ],
        &rows,
    );

    println!("\nshape checks:");
    let cheap_spread = rows[0][3] == ">1 node";
    let costly_confined = rows.last().unwrap().clone();
    let whole_last: f64 = costly_confined[1].parse().unwrap();
    let node_last: f64 = costly_confined[4].parse().unwrap();
    let checks = [
        (
            "with a free interconnect, the optimum spreads across nodes",
            cheap_spread,
        ),
        (
            "with a prohibitive interconnect, node confinement loses nothing",
            node_last <= whole_last + 1e-6,
        ),
        (
            "node pipelining always keeps the one-node latency while multiplying throughput",
            rows.iter().all(|r| {
                let node_ii: f64 = r[5].parse().unwrap();
                let node_lat: f64 = r[4].parse().unwrap();
                node_ii < node_lat
            }),
        ),
    ];
    run_checks(&checks);
}
