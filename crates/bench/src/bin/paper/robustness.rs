//! Robustness extension — the paper's schedules are built from *measured
//! average* task costs ("execution times for each operation", Fig. 6), but
//! real kernel times wander. Does the precomputed optimal schedule's
//! advantage over the naive pipeline survive cost noise?
//!
//! Method: per trial, scale every instance duration by an independent
//! uniform factor in `[1−a, 1+a]` and re-time both schedules with the
//! structure (placements, per-processor order) fixed — exactly what happens
//! at run time when a precomputed schedule meets jittery kernels.

use cds_core::evaluate::replay_with_jitter;
use cds_core::expand::ExpandedGraph;
use cds_core::optimal::{optimal_schedule, OptimalConfig};
use cds_core::pipeline::naive_pipeline;
use cluster::ClusterSpec;
use kiosk_bench::{csv_line, print_table, run_checks};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use taskgraph::{builders, AppState};

const TRIALS: usize = 200;

pub(crate) fn run() {
    let graph = builders::color_tracker();
    let cluster = ClusterSpec::single_node(4);
    let state = AppState::new(4);
    println!("Robustness of precomputed schedules to task-cost noise (4 models, 4 processors)");
    println!("{TRIALS} trials per amplitude; durations scaled by U[1-a, 1+a] per instance\n");

    let opt = optimal_schedule(&graph, &cluster, &state, &OptimalConfig::default().serial());
    let pipe = naive_pipeline(&graph, &cluster, &state);
    let e_opt = ExpandedGraph::build(&graph, &state, &opt.best.iteration.decomp);
    let e_pipe = ExpandedGraph::build(&graph, &state, &pipe.iteration.decomp);

    let mut rows = Vec::new();
    let mut advantage_holds = true;
    for amp_pct in [0u32, 10, 20, 30, 50] {
        let a = f64::from(amp_pct) / 100.0;
        let mut rng = StdRng::seed_from_u64(0x0B0E + u64::from(amp_pct));
        let stats =
            |iter: &cds_core::schedule::IterationSchedule, e: &ExpandedGraph, rng: &mut StdRng| {
                let mut lats: Vec<f64> = (0..TRIALS)
                    .map(|_| {
                        let factors: Vec<f64> = (0..e.len())
                            .map(|_| rng.random_range(1.0 - a..=1.0 + a))
                            .collect();
                        replay_with_jitter(iter, e, &cluster, &factors)
                            .latency
                            .as_secs_f64()
                    })
                    .collect();
                lats.sort_by(|x, y| x.partial_cmp(y).unwrap());
                let mean = lats.iter().sum::<f64>() / lats.len() as f64;
                let p95 = lats[(lats.len() * 95) / 100 - 1];
                (mean, p95)
            };
        let (om, op95) = stats(&opt.best.iteration, &e_opt, &mut rng);
        let (pm, pp95) = stats(&pipe.iteration, &e_pipe, &mut rng);
        advantage_holds &= op95 < pm;
        rows.push(vec![
            format!("±{amp_pct}%"),
            format!("{om:.3}"),
            format!("{op95:.3}"),
            format!("{pm:.3}"),
            format!("{pp95:.3}"),
            format!("{:.2}x", pm / om),
        ]);
        csv_line(&[
            "robustness".to_string(),
            amp_pct.to_string(),
            format!("{om:.4}"),
            format!("{op95:.4}"),
            format!("{pm:.4}"),
            format!("{pp95:.4}"),
        ]);
    }
    print_table(
        "Latency under cost noise (seconds)",
        &[
            "amplitude",
            "optimal mean",
            "optimal p95",
            "pipeline mean",
            "pipeline p95",
            "mean advantage",
        ],
        &rows,
    );

    println!("\nshape checks:");
    let zero_noise_exact = rows[0][1] == rows[0][2];
    let checks = [
        (
            "optimal's p95 beats the pipeline's MEAN at every tested amplitude",
            advantage_holds,
        ),
        (
            "zero noise reproduces the deterministic latency",
            zero_noise_exact,
        ),
    ];
    run_checks(&checks);
}
