//! Property tests for the online simulator: conservation, determinism, and
//! trace sanity over random graphs and configurations.

use std::collections::BTreeMap;

use cluster::{
    simulate_online, simulate_online_ref, ClusterSpec, FrameClock, OnlineConfig, SimArena,
    TraceMode,
};
use proptest::prelude::*;
use taskgraph::{AppState, CostModel, Micros, SizeModel, TaskGraph, TaskGraphBuilder, TaskId};

/// Random layered DAG with one source (see cds-core's proptests for the
/// same shape).
fn random_graph(costs: Vec<u64>, edge_bits: u64) -> TaskGraph {
    let n = costs.len();
    let mut b = TaskGraphBuilder::new();
    let ids: Vec<TaskId> = costs
        .iter()
        .enumerate()
        .map(|(i, &c)| b.task(format!("t{i}"), CostModel::Const(Micros(c % 500 + 1))))
        .collect();
    for w in ids.windows(2) {
        let c = b.channel(format!("s{}", w[1].0), SizeModel::Const(8));
        b.produces(w[0], c);
        b.consumes(w[1], c);
    }
    let mut bits = edge_bits;
    for i in 0..n {
        for j in (i + 2)..n {
            bits = bits.rotate_left(9).wrapping_mul(0x9E3779B97F4A7C15);
            if bits & 3 == 0 {
                let c = b.channel(format!("x{i}_{j}"), SizeModel::Const(8));
                b.produces(ids[i], c);
                b.consumes(ids[j], c);
            }
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every digitized frame completes exactly once; the trace never
    /// overlaps; runs are deterministic.
    #[test]
    fn online_sim_conserves_frames(
        costs in proptest::collection::vec(1u64..500, 2..6),
        edges in any::<u64>(),
        procs in 1u32..5,
        period in 1u64..2000,
        capacity in 1usize..6,
        quantum in proptest::option::of(10u64..300),
    ) {
        let g = random_graph(costs, edges);
        let c = ClusterSpec::single_node(procs);
        let mut cfg = OnlineConfig::new(
            FrameClock::new(Micros(period), 12),
            AppState::new(1),
        );
        cfg.channel_capacity = capacity;
        cfg.quantum = quantum.map(Micros);
        let a = simulate_online(&g, &c, cfg.clone());
        prop_assert_eq!(a.frames.len(), 12);
        prop_assert!(a.frames.iter().all(|f| f.completed_at.is_some()));
        prop_assert!(a.trace.find_overlap().is_none());
        // Every (task, frame) pair ran.
        for f in 0..12u64 {
            for t in g.task_ids() {
                prop_assert!(
                    a.trace.entries().iter().any(|e| e.task == t && e.frame == f),
                    "task {t} frame {f} missing"
                );
            }
        }
        // Determinism.
        let b = simulate_online(&g, &c, cfg);
        prop_assert_eq!(a.trace.entries(), b.trace.entries());
    }

    /// Completion order respects dependences: a frame's sink completion
    /// never precedes its source slice.
    #[test]
    fn online_sim_respects_causality(
        costs in proptest::collection::vec(1u64..300, 2..6),
        edges in any::<u64>(),
        procs in 1u32..4,
    ) {
        let g = random_graph(costs, edges);
        let c = ClusterSpec::single_node(procs);
        let cfg = OnlineConfig::new(FrameClock::new(Micros(50), 8), AppState::new(1));
        let out = simulate_online(&g, &c, cfg);
        for rec in &out.frames {
            prop_assert!(rec.completed_at.unwrap() >= rec.digitized_at);
        }
        // Per frame, every consumer slice starts at/after its producer's
        // last slice ends.
        for (from, to, _) in g.edges() {
            for f in 0..8u64 {
                let prod_end = out
                    .trace
                    .entries()
                    .iter()
                    .filter(|e| e.task == from && e.frame == f)
                    .map(|e| e.end)
                    .max()
                    .unwrap();
                let cons_start = out
                    .trace
                    .entries()
                    .iter()
                    .filter(|e| e.task == to && e.frame == f)
                    .map(|e| e.start)
                    .min()
                    .unwrap();
                prop_assert!(
                    cons_start >= prod_end,
                    "frame {f}: {to} started {cons_start:?} before {from} ended {prod_end:?}"
                );
            }
        }
    }

    /// Skip mode never deadlocks and never duplicates work: each (task,
    /// frame) runs at most once.
    #[test]
    fn skip_mode_never_duplicates(
        costs in proptest::collection::vec(1u64..400, 2..6),
        edges in any::<u64>(),
        procs in 1u32..4,
        period in 1u64..100,
    ) {
        let g = random_graph(costs, edges);
        let c = ClusterSpec::single_node(procs);
        let mut cfg = OnlineConfig::new(FrameClock::new(Micros(period), 16), AppState::new(1));
        cfg.skip_stale = true;
        cfg.channel_capacity = 8;
        let out = simulate_online(&g, &c, cfg);
        prop_assert!(out.trace.find_overlap().is_none());
        let mut seen = std::collections::HashSet::new();
        for e in out.trace.entries() {
            // Whole serial activations (chunkless graphs here) appear once
            // unless preempted — no quantum configured, so exactly once.
            prop_assert!(
                seen.insert((e.task, e.frame, e.start)),
                "duplicate slice {e:?}"
            );
        }
        let _ = BTreeMap::<u8, u8>::new();
    }

    /// The overhauled arena engine is bit-identical to the frozen
    /// pre-overhaul reference engine — trace, frames, metrics and makespan —
    /// over random graphs, processor counts, capacities and quanta.
    #[test]
    fn arena_engine_matches_reference_engine(
        costs in proptest::collection::vec(1u64..500, 2..6),
        edges in any::<u64>(),
        procs in 1u32..5,
        period in 1u64..2000,
        capacity in 1usize..6,
        quantum in proptest::option::of(10u64..300),
        skip in any::<bool>(),
    ) {
        let g = random_graph(costs, edges);
        let c = ClusterSpec::single_node(procs);
        let mut cfg = OnlineConfig::new(
            FrameClock::new(Micros(period), 10),
            AppState::new(1),
        );
        cfg.channel_capacity = capacity;
        cfg.quantum = quantum.map(Micros);
        cfg.skip_stale = skip;
        let reference = simulate_online_ref(&g, &c, cfg.clone());
        let new = simulate_online(&g, &c, cfg);
        prop_assert_eq!(reference.trace.entries(), new.trace.entries());
        prop_assert_eq!(&reference.frames, &new.frames);
        prop_assert_eq!(reference.metrics, new.metrics);
        prop_assert_eq!(reference.makespan, new.makespan);
    }

    /// Trace recording never perturbs simulation results: an Off run
    /// produces `Metrics` and a makespan identical to Full — and one reused
    /// arena serves both modes back to back.
    #[test]
    fn trace_mode_never_perturbs_metrics(
        costs in proptest::collection::vec(1u64..500, 2..6),
        edges in any::<u64>(),
        procs in 1u32..5,
        period in 1u64..1500,
        quantum in proptest::option::of(10u64..300),
    ) {
        let g = random_graph(costs, edges);
        let c = ClusterSpec::single_node(procs);
        let mut cfg = OnlineConfig::new(
            FrameClock::new(Micros(period), 10),
            AppState::new(1),
        );
        cfg.quantum = quantum.map(Micros);
        let mut arena = SimArena::new();
        cfg.trace_mode = TraceMode::Full;
        let full = arena.simulate(&g, &c, &cfg);
        cfg.trace_mode = TraceMode::Off;
        let off = arena.simulate(&g, &c, &cfg);
        prop_assert_eq!(off.metrics, full.metrics);
        prop_assert_eq!(off.makespan, full.makespan);
    }
}
