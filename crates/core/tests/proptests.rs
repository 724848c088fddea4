//! Property tests for the scheduling core: the enumerator is compared
//! against an independent unpruned brute force on small random graphs, and
//! structural invariants are fuzzed.

use std::collections::BTreeMap;

use cds_core::evaluate::replay_iteration;
use cds_core::expand::ExpandedGraph;
use cds_core::ii::find_best_ii;
use cds_core::legality::check_iteration;
use cds_core::listsched::list_schedule;
use cds_core::optimal::{optimal_schedule, OptimalConfig};
use cds_core::schedule::{IterationSchedule, Placement};
use cluster::{ClusterSpec, ProcId};
use proptest::prelude::*;
use taskgraph::{AppState, CostModel, Micros, SizeModel, TaskGraph, TaskGraphBuilder, TaskId};

/// Small random layered DAG (≤ 6 tasks) for brute-force comparison.
fn small_dag(costs: Vec<u64>, extra_edges: u64) -> TaskGraph {
    let n = costs.len();
    let mut b = TaskGraphBuilder::new();
    let ids: Vec<TaskId> = costs
        .iter()
        .enumerate()
        .map(|(i, &c)| b.task(format!("t{i}"), CostModel::Const(Micros(c % 200 + 1))))
        .collect();
    // Spine: t0 → t1 → … keeps the graph connected with one source.
    for w in ids.windows(2) {
        let c = b.channel(format!("s{}", w[1].0), SizeModel::Const(8));
        b.produces(w[0], c);
        b.consumes(w[1], c);
    }
    // Extra forward edges from a bitmask.
    let mut bits = extra_edges;
    for i in 0..n {
        for j in (i + 2)..n {
            bits = bits.rotate_left(11).wrapping_mul(0x9E3779B97F4A7C15);
            if bits & 3 == 0 {
                let c = b.channel(format!("x{i}_{j}"), SizeModel::Const(8));
                b.produces(ids[i], c);
                b.consumes(ids[j], c);
            }
        }
    }
    b.build()
}

/// Independent unpruned brute force over semi-active schedules.
fn brute_force_latency(e: &ExpandedGraph, n_procs: u32) -> Micros {
    fn rec(
        e: &ExpandedGraph,
        n_procs: u32,
        placed: &mut Vec<Option<(u32, Micros, Micros)>>, // (proc, start, end)
        preds_left: &mut Vec<usize>,
        proc_ready: &mut Vec<Micros>,
        done: usize,
        best: &mut Micros,
    ) {
        let n = e.len();
        if done == n {
            let latency = placed
                .iter()
                .map(|p| p.unwrap().2)
                .max()
                .unwrap_or(Micros::ZERO);
            if latency < *best {
                *best = latency;
            }
            return;
        }
        for i in 0..n {
            if placed[i].is_some() || preds_left[i] != 0 {
                continue;
            }
            for p in 0..n_procs {
                let mut start = proc_ready[p as usize];
                for pe in &e.instances()[i].preds {
                    let (_, _, pend) = placed[pe.from].unwrap();
                    start = start.max(pend + pe.delay);
                }
                let end = start + e.instances()[i].duration;
                placed[i] = Some((p, start, end));
                let saved = proc_ready[p as usize];
                proc_ready[p as usize] = end;
                for &s in e.succs(i) {
                    preds_left[s] -= 1;
                }
                rec(e, n_procs, placed, preds_left, proc_ready, done + 1, best);
                for &s in e.succs(i) {
                    preds_left[s] += 1;
                }
                proc_ready[p as usize] = saved;
                placed[i] = None;
            }
        }
    }
    let mut placed = vec![None; e.len()];
    let mut preds_left: Vec<usize> = e.instances().iter().map(|i| i.preds.len()).collect();
    let mut proc_ready = vec![Micros::ZERO; n_procs as usize];
    let mut best = Micros(u64::MAX);
    rec(
        e,
        n_procs,
        &mut placed,
        &mut preds_left,
        &mut proc_ready,
        0,
        &mut best,
    );
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The branch-and-bound enumerator finds exactly the brute-force optimal
    /// latency on small graphs.
    #[test]
    fn optimal_matches_brute_force(
        costs in proptest::collection::vec(1u64..200, 2..6),
        edges in any::<u64>(),
        procs in 1u32..4,
    ) {
        let g = small_dag(costs, edges);
        let c = ClusterSpec::single_node(procs);
        let state = AppState::new(1);
        let e = ExpandedGraph::build(&g, &state, &BTreeMap::new());
        let brute = brute_force_latency(&e, procs);
        let r = optimal_schedule(&g, &c, &state, &OptimalConfig::default());
        prop_assert!(r.complete);
        prop_assert_eq!(r.minimal_latency, brute,
            "enumerator {:?} vs brute force {:?}", r.minimal_latency, brute);
    }

    /// Optimal latency never exceeds the list schedule, and both are legal.
    #[test]
    fn optimal_bounded_by_list_schedule(
        costs in proptest::collection::vec(1u64..500, 2..7),
        edges in any::<u64>(),
        procs in 1u32..5,
    ) {
        let g = small_dag(costs, edges);
        let c = ClusterSpec::single_node(procs);
        let state = AppState::new(1);
        let e = ExpandedGraph::build(&g, &state, &BTreeMap::new());
        let ls = list_schedule(&e, &c);
        check_iteration(&ls, &e, &c).unwrap();
        let r = optimal_schedule(&g, &c, &state, &OptimalConfig::default());
        check_iteration(&r.best.iteration, &e, &c).unwrap();
        prop_assert!(r.minimal_latency <= ls.latency);
        prop_assert!(r.minimal_latency >= e.span());
    }

    /// find_best_ii always returns a collision-free pipeline with II between
    /// the work bound and the latency.
    #[test]
    fn ii_is_feasible_and_bounded(
        costs in proptest::collection::vec(1u64..300, 2..7),
        edges in any::<u64>(),
        procs in 1u32..5,
    ) {
        let g = small_dag(costs, edges);
        let c = ClusterSpec::single_node(procs);
        let state = AppState::new(1);
        let e = ExpandedGraph::build(&g, &state, &BTreeMap::new());
        let iter = list_schedule(&e, &c);
        let p = find_best_ii(&iter, procs);
        prop_assert!(p.find_collision().is_none());
        prop_assert!(p.ii <= iter.latency);
        let lb = Micros(iter.busy_time().0.div_ceil(u64::from(procs)));
        prop_assert!(p.ii >= lb.min(iter.latency));
    }

    /// The II search is minimal within its rotation family: no smaller II
    /// is feasible for ANY rotation (checked by exhaustive scan over all
    /// (II, rotation) pairs below the found II).
    #[test]
    fn ii_is_minimal_over_all_rotations(
        costs in proptest::collection::vec(1u64..40, 2..6),
        edges in any::<u64>(),
        procs in 1u32..4,
    ) {
        let g = small_dag(costs, edges);
        let c = ClusterSpec::single_node(procs);
        let state = AppState::new(1);
        let e = ExpandedGraph::build(&g, &state, &BTreeMap::new());
        let iter = list_schedule(&e, &c);
        let found = find_best_ii(&iter, procs);
        // Exhaustive: every II strictly below the found one must collide
        // for every rotation. (Costs are small, so the scan is cheap.)
        for ii in 1..found.ii.0 {
            for rotation in 0..procs {
                let cand = cds_core::schedule::PipelinedSchedule {
                    iteration: iter.clone(),
                    ii: Micros(ii),
                    rotation,
                    n_procs: procs,
                };
                prop_assert!(
                    cand.find_collision().is_some(),
                    "II {} rotation {} feasible below found II {}",
                    ii, rotation, found.ii
                );
            }
        }
    }

    /// Replaying a semi-active schedule under its own state reproduces it
    /// exactly.
    #[test]
    fn replay_is_identity_on_same_state(
        costs in proptest::collection::vec(1u64..300, 2..7),
        edges in any::<u64>(),
        procs in 1u32..4,
    ) {
        let g = small_dag(costs, edges);
        let c = ClusterSpec::single_node(procs);
        let state = AppState::new(1);
        let e = ExpandedGraph::build(&g, &state, &BTreeMap::new());
        let iter = list_schedule(&e, &c);
        let replayed = replay_iteration(&iter, &e, &c);
        prop_assert_eq!(&iter.placements, &replayed.placements);
    }

    /// Legality checker accepts exactly what the simulator-style forward
    /// pass constructs, and rejects a perturbed copy.
    #[test]
    fn perturbed_schedules_are_rejected(
        costs in proptest::collection::vec(2u64..300, 3..7),
        edges in any::<u64>(),
        which in 0usize..100,
    ) {
        let g = small_dag(costs, edges);
        let c = ClusterSpec::single_node(2);
        let state = AppState::new(1);
        let e = ExpandedGraph::build(&g, &state, &BTreeMap::new());
        let sched = list_schedule(&e, &c);
        check_iteration(&sched, &e, &c).unwrap();
        // Pull one non-source placement earlier than its dependences allow.
        let idx = which % sched.placements.len();
        if !e.instances()[idx].preds.is_empty() {
            let mut bad = sched.clone();
            let dur = bad.placements[idx].duration();
            bad.placements[idx] = Placement {
                start: Micros::ZERO,
                end: dur,
                proc: ProcId(1 - bad.placements[idx].proc.0.min(1)),
                ..bad.placements[idx]
            };
            bad.latency = bad.computed_latency();
            prop_assert!(check_iteration(&bad, &e, &c).is_err());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any legal pipelined schedule survives a serialization roundtrip
    /// bit-for-bit.
    #[test]
    fn persist_roundtrips_random_schedules(
        costs in proptest::collection::vec(1u64..400, 2..7),
        edges in any::<u64>(),
        procs in 1u32..5,
    ) {
        let g = small_dag(costs, edges);
        let c = ClusterSpec::single_node(procs);
        let state = AppState::new(1);
        let e = ExpandedGraph::build(&g, &state, &BTreeMap::new());
        let iter = list_schedule(&e, &c);
        let sched = find_best_ii(&iter, procs);
        let text = cds_core::persist::schedule_to_string(&sched);
        let back = cds_core::persist::schedule_from_str(&text).unwrap();
        prop_assert_eq!(sched, back);
    }

    /// The parser rejects any single-line deletion from a valid blob (no
    /// silent partial loads), except removable no-op lines.
    #[test]
    fn persist_detects_truncation(
        costs in proptest::collection::vec(1u64..400, 3..6),
        edges in any::<u64>(),
        drop_line in 0usize..32,
    ) {
        let g = small_dag(costs, edges);
        let c = ClusterSpec::single_node(2);
        let state = AppState::new(1);
        let e = ExpandedGraph::build(&g, &state, &BTreeMap::new());
        let sched = find_best_ii(&list_schedule(&e, &c), 2);
        let text = cds_core::persist::schedule_to_string(&sched);
        let lines: Vec<&str> = text.lines().collect();
        let idx = drop_line % lines.len();
        let mutated: String = lines
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != idx)
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        // Either an error, or (for removable no-op lines such as the
        // optional `places` count) a clean parse; dropping a `place ` line
        // must never parse cleanly.
        if cds_core::persist::schedule_from_str(&mutated).is_ok() {
            prop_assert!(!lines[idx].starts_with("place "),
                "dropped placement line went unnoticed");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The regime-switching simulation conserves frames and keeps issue
    /// times monotone under arbitrary (small) state tracks, for every
    /// strategy and policy.
    #[test]
    fn switcher_conserves_frames(
        changes in proptest::collection::vec((1u64..100, 0u32..5), 0..6),
        strategy_pick in 0usize..4,
        period_ms in 50u64..1000,
    ) {
        use cds_core::switcher::{
            simulate_regime_switched, ScheduleStrategy, SwitchConfig, TransitionPolicy,
        };
        use cds_core::table::ScheduleTable;
        use cluster::{FrameClock, StateTrack};

        // Build a valid track: frame 0 plus strictly increasing changes.
        let mut points = vec![(0u64, AppState::new(1))];
        let mut frame = 0u64;
        for &(gap, n) in &changes {
            frame += gap;
            points.push((frame, AppState::new(n)));
        }
        let track = StateTrack::from_changes(points);

        let g = taskgraph::builders::color_tracker();
        let c = ClusterSpec::single_node(2);
        let states: Vec<AppState> = (0..5).map(AppState::new).collect();
        let table = ScheduleTable::precompute(&g, &c, &states, &OptimalConfig::default());

        let strategy = match strategy_pick {
            0 => ScheduleStrategy::Static(AppState::new(2)),
            1 => ScheduleStrategy::Oracle,
            2 => ScheduleStrategy::RegimeTable {
                confirm_after: 2,
                policy: TransitionPolicy::CutOver,
            },
            _ => ScheduleStrategy::RegimeTable {
                confirm_after: 1,
                policy: TransitionPolicy::Drain,
            },
        };
        let n_frames = 40;
        let out = simulate_regime_switched(
            &g,
            &c,
            &table,
            &track,
            &SwitchConfig {
                clock: FrameClock::new(Micros::from_millis(period_ms), n_frames),
                strategy,
                warmup_frames: 0,
            },
        );
        prop_assert_eq!(out.frames.len() as u64, n_frames);
        prop_assert!(out.frames.iter().all(|f| f.completed_at.is_some()));
        // Issue (digitize) times strictly increase.
        for w in out.frames.windows(2) {
            prop_assert!(w[0].digitized_at < w[1].digitized_at);
        }
        // Metrics cover every frame.
        prop_assert_eq!(out.metrics.frames_completed, n_frames);
        prop_assert_eq!(out.metrics.frames_dropped, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The parallel fan-out returns the same minimal latency L* (and the
    /// same best initiation interval) as the sequential search on random
    /// small graphs — the shared atomic incumbent and the dominance memo
    /// are pure prunes, never result changes.
    #[test]
    fn parallel_search_matches_serial(
        costs in proptest::collection::vec(1u64..300, 2..7),
        edges in any::<u64>(),
        procs in 1u32..5,
        threads in 2usize..5,
    ) {
        let g = small_dag(costs, edges);
        let c = ClusterSpec::single_node(procs);
        let state = AppState::new(1);
        let serial = optimal_schedule(&g, &c, &state, &OptimalConfig::default().serial());
        let cfg = OptimalConfig { threads, ..OptimalConfig::default() };
        let par = optimal_schedule(&g, &c, &state, &cfg);
        prop_assert_eq!(par.minimal_latency, serial.minimal_latency);
        prop_assert_eq!(par.best.ii, serial.best.ii);
        // And with the dominance memo off, still the same optimum.
        let nodom = OptimalConfig { threads, dominance_cap: 0, ..OptimalConfig::default() };
        let r = optimal_schedule(&g, &c, &state, &nodom);
        prop_assert_eq!(r.minimal_latency, serial.minimal_latency);
        let e = ExpandedGraph::build(&g, &state, &par.best.iteration.decomp);
        check_iteration(&par.best.iteration, &e, &c).unwrap();
    }

    /// Persisting a table through the schedule cache and rebuilding from it
    /// reproduces the table exactly, entry for entry, without searching.
    #[test]
    fn cache_roundtrip_reproduces_table(
        costs in proptest::collection::vec(1u64..300, 2..6),
        edges in any::<u64>(),
        procs in 1u32..4,
        tag in any::<u64>(),
    ) {
        use cds_core::persist::ScheduleCache;
        use cds_core::table::ScheduleTable;

        let g = small_dag(costs, edges);
        let c = ClusterSpec::single_node(procs);
        let states = [AppState::new(1)];
        let cfg = OptimalConfig::default();
        let dir = std::env::temp_dir().join(
            format!("cds-prop-cache-{}-{tag:x}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ScheduleCache::open(&dir).unwrap();

        let (cold, cold_stats) =
            ScheduleTable::precompute_with_cache(&g, &c, &states, &cfg, Some(&cache));
        prop_assert_eq!(cold_stats.cache_hits, 0);
        let (warm, warm_stats) =
            ScheduleTable::precompute_with_cache(&g, &c, &states, &cfg, Some(&cache));
        prop_assert_eq!(warm_stats.cache_hits, states.len());
        prop_assert_eq!(warm_stats.nodes_explored, 0);
        prop_assert_eq!(warm.len(), cold.len());
        for s in cold.states() {
            prop_assert_eq!(warm.get(&s), cold.get(&s));
        }

        // Any corruption of the stored entry is detected and re-searched,
        // never served: flip one digit of the latency line.
        for entry in std::fs::read_dir(&dir).unwrap().filter_map(Result::ok) {
            let p = entry.path();
            let text = std::fs::read_to_string(&p).unwrap();
            std::fs::write(&p, text.replace("\nlatency ", "\nlatency 9")).unwrap();
        }
        let (fixed, fixed_stats) =
            ScheduleTable::precompute_with_cache(&g, &c, &states, &cfg, Some(&cache));
        prop_assert_eq!(fixed_stats.cache_hits, 0);
        prop_assert_eq!(
            fixed_stats.cache_invalidated + fixed_stats.cache_misses, states.len());
        for s in cold.states() {
            prop_assert_eq!(fixed.get(&s), cold.get(&s));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Non-proptest regression: the enumerator collects multiple distinct
/// minimal schedules when ties exist.
#[test]
fn tie_schedules_are_collected() {
    // Two equal independent branches on two procs: at least 1 canonical
    // minimal schedule, and the best II uses both procs.
    let g = taskgraph::builders::fork_join(2, 100);
    let c = ClusterSpec::single_node(2);
    let r = optimal_schedule(&g, &c, &AppState::new(1), &OptimalConfig::default());
    assert!(r.candidates >= 1);
    assert_eq!(r.minimal_latency, Micros(102));
}

/// The canonical key treats processor permutations as equal even through
/// the IterationSchedule API.
#[test]
fn canonical_key_permutation_invariance() {
    let mk = |procs: [u32; 2]| {
        let placements = vec![
            Placement {
                task: TaskId(0),
                chunk: None,
                proc: ProcId(procs[0]),
                start: Micros(0),
                end: Micros(10),
            },
            Placement {
                task: TaskId(1),
                chunk: None,
                proc: ProcId(procs[1]),
                start: Micros(0),
                end: Micros(10),
            },
        ];
        IterationSchedule {
            placements,
            latency: Micros(10),
            state: AppState::new(1),
            decomp: BTreeMap::new(),
        }
    };
    assert_eq!(mk([0, 1]).canonical_key(), mk([1, 0]).canonical_key());
}

/// Offline table builds agree whatever the mode: a serial search, a
/// two-thread search and a two-thread search that persists every entry
/// give the same table, and rebuilding from the stored entries serves
/// every state without exploring a node.
#[test]
fn serial_parallel_and_stored_tables_are_identical() {
    use cds_core::persist::ScheduleCache;
    use cds_core::table::ScheduleTable;

    let same = |a: &ScheduleTable, b: &ScheduleTable| {
        a.len() == b.len() && a.states().iter().all(|s| a.get(s) == b.get(s))
    };
    let g = taskgraph::builders::color_tracker();
    let c = ClusterSpec::single_node(4);
    let states = [1u32, 2, 4, 8].map(AppState::new);
    let parallel = OptimalConfig {
        threads: 2,
        ..OptimalConfig::default()
    };
    let dir = std::env::temp_dir().join(format!("cds-table-modes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ScheduleCache::open(&dir).unwrap();

    let serial = ScheduleTable::precompute(&g, &c, &states, &parallel.serial());
    let par = ScheduleTable::precompute(&g, &c, &states, &parallel);
    let (stored, _) =
        ScheduleTable::precompute_with_cache(&g, &c, &states, &parallel, Some(&cache));
    let (warm, warm_stats) =
        ScheduleTable::precompute_with_cache(&g, &c, &states, &parallel, Some(&cache));
    assert!(same(&serial, &par), "parallel table differs");
    assert!(same(&serial, &stored), "stored table differs");
    assert!(same(&stored, &warm), "warm table differs");
    assert_eq!(warm_stats.cache_hits, states.len(), "warm build searched");
    assert_eq!(warm_stats.nodes_explored, 0, "warm build explored nodes");
    let _ = std::fs::remove_dir_all(&dir);
}
