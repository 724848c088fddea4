//! Ablation — how much does each ingredient of the Fig. 6 algorithm buy?
//! Across every regime (1–8 models), compare:
//!
//! * naive software pipelining (Fig. 4(b)) — no latency optimization;
//! * list scheduling over the best decomposition — a classic heuristic;
//! * the optimal enumerator without data decompositions (Fig. 5(a));
//! * the full optimal enumerator (Fig. 5(b)).
//!
//! The per-regime work items are independent, so they run through the
//! parallel sweep driver; results come back in regime order.

use cds_core::expand::ExpandedGraph;
use cds_core::ii::find_best_ii;
use cds_core::listsched::list_schedule;
use cds_core::optimal::{decomposition_combos, optimal_schedule, OptimalConfig};
use cds_core::pipeline::naive_pipeline;
use cluster::sweep::{sweep, SweepConfig};
use cluster::ClusterSpec;
use kiosk_bench::{csv_line, print_table, run_checks};
use taskgraph::{builders, AppState, Micros};

struct RegimeResult {
    n: u32,
    pipe_lat: Micros,
    list_lat: Micros,
    task_only_lat: Micros,
    full_lat: Micros,
    full_ii: Micros,
    nodes_explored: u64,
    candidates: usize,
    t4_decomp: String,
    ordering_ok: bool,
}

pub(crate) fn run() {
    let graph = builders::color_tracker();
    let cluster = ClusterSpec::single_node(4);
    let t4 = graph.task_by_name("Target Detection").unwrap();

    println!("Ablation: scheduling strategies across regimes (4 processors)");

    let out = sweep(SweepConfig::new(), (1..=8u32).collect(), |_, _, n| {
        let state = AppState::new(n);

        let pipe = naive_pipeline(&graph, &cluster, &state);

        // Best list schedule over all decompositions.
        let (list_lat, _list_ii) = decomposition_combos(&graph, &state, true)
            .into_iter()
            .map(|d| {
                let e = ExpandedGraph::build(&graph, &state, &d);
                let s = list_schedule(&e, &cluster);
                let p = find_best_ii(&s, cluster.n_procs());
                (s.latency, p.ii)
            })
            .min()
            .unwrap();

        let cfg_task = OptimalConfig {
            explore_decompositions: false,
            ..OptimalConfig::default().serial()
        };
        let task_only = optimal_schedule(&graph, &cluster, &state, &cfg_task);
        let full = optimal_schedule(&graph, &cluster, &state, &OptimalConfig::default().serial());

        let ordering_ok = full.minimal_latency <= list_lat
            && full.minimal_latency <= task_only.minimal_latency
            && task_only.minimal_latency <= pipe.iteration.latency;

        RegimeResult {
            n,
            pipe_lat: pipe.iteration.latency,
            list_lat,
            task_only_lat: task_only.minimal_latency,
            full_lat: full.minimal_latency,
            full_ii: full.best.ii,
            nodes_explored: full.nodes_explored,
            candidates: full.candidates,
            t4_decomp: full
                .best
                .iteration
                .decomp
                .get(&t4)
                .map_or("serial".to_string(), ToString::to_string),
            ordering_ok,
        }
    });
    eprintln!("regime sweep: {}", out.stats);

    let mut rows = Vec::new();
    let mut all_pass = true;
    for r in &out.results {
        all_pass &= r.ordering_ok;
        let s = |m: Micros| format!("{:.3}", m.as_secs_f64());
        rows.push(vec![
            r.n.to_string(),
            s(r.pipe_lat),
            s(r.list_lat),
            s(r.task_only_lat),
            s(r.full_lat),
            s(r.full_ii),
            r.nodes_explored.to_string(),
            r.candidates.to_string(),
        ]);
        csv_line(&[
            "ablation".to_string(),
            r.n.to_string(),
            format!("{:.4}", r.pipe_lat.as_secs_f64()),
            format!("{:.4}", r.list_lat.as_secs_f64()),
            format!("{:.4}", r.task_only_lat.as_secs_f64()),
            format!("{:.4}", r.full_lat.as_secs_f64()),
            format!("{:.4}", r.full_ii.as_secs_f64()),
        ]);
    }
    print_table(
        "Iteration latency (s) by strategy and regime",
        &[
            "models",
            "pipeline",
            "list(best decomp)",
            "optimal(no DP)",
            "optimal(full)",
            "optimal II",
            "B&B nodes",
            "|S|",
        ],
        &rows,
    );

    // The headline regime claim: the optimal decomposition changes with
    // the state (reusing the full results from the sweep above).
    println!("\noptimal T4 decomposition per regime:");
    for r in &out.results {
        println!("  {} models → {}", r.n, r.t4_decomp);
    }
    let distinct: std::collections::HashSet<&String> =
        out.results.iter().map(|r| &r.t4_decomp).collect();

    println!("\nshape checks:");
    let checks = [
        (
            "optimal <= list <= pipeline orderings hold in every regime",
            all_pass,
        ),
        (
            "the optimal decomposition is regime-dependent",
            distinct.len() > 1,
        ),
    ];
    run_checks(&checks);
}
