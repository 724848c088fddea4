//! Cross-crate integration tests: the full stack from the vision kernels
//! through the scheduler to both executors.

use std::time::Duration;

use constrained_dynamic_scheduling::cds_core::evaluate::evaluate_schedule;
use constrained_dynamic_scheduling::cds_core::expand::ExpandedGraph;
use constrained_dynamic_scheduling::cds_core::legality::check_iteration;
use constrained_dynamic_scheduling::cds_core::optimal::{optimal_schedule, OptimalConfig};
use constrained_dynamic_scheduling::cds_core::pipeline::naive_pipeline;
use constrained_dynamic_scheduling::cds_core::switcher::{
    simulate_regime_switched, ScheduleStrategy, SwitchConfig, TransitionPolicy,
};
use constrained_dynamic_scheduling::cds_core::table::ScheduleTable;
use constrained_dynamic_scheduling::cds_core::tuning::tuning_curve;
use constrained_dynamic_scheduling::cluster::{
    simulate_online, ClusterSpec, FrameClock, OnlineConfig, StateTrack,
};
use constrained_dynamic_scheduling::runtime::{
    OnlineExecutor, ScheduledExecutor, TrackerApp, TrackerConfig,
};
use constrained_dynamic_scheduling::taskgraph::{builders, AppState, Decomposition, Micros};
use constrained_dynamic_scheduling::vision::kiosk::generate_visits;
use constrained_dynamic_scheduling::vision::{occupancy_track, KioskConfig};

/// The headline experiment: for every regime, the optimal precomputed
/// schedule beats the online scheduler at the same decomposition, on both
/// latency and uniformity, in the simulator.
#[test]
fn optimal_beats_online_in_every_regime() {
    let graph = builders::color_tracker();
    let cluster = ClusterSpec::single_node(4);
    for n in [1u32, 2, 4, 8] {
        let state = AppState::new(n);
        let opt = optimal_schedule(&graph, &cluster, &state, &OptimalConfig::default());

        let mut online_cfg = OnlineConfig::new(FrameClock::new(Micros::from_millis(33), 20), state);
        let t4 = graph.task_by_name("Target Detection").unwrap();
        if let Some(d) = opt.best.iteration.decomp.get(&t4) {
            online_cfg.decomposition.insert(t4, *d);
        }
        let online = simulate_online(&graph, &cluster, online_cfg);
        let sched = evaluate_schedule(
            &opt.best,
            &graph,
            FrameClock::new(Micros::from_millis(33), 20),
            2,
        );
        assert!(
            sched.metrics.mean_latency < online.metrics.mean_latency,
            "{n} models: optimal {} vs online {}",
            sched.metrics.mean_latency,
            online.metrics.mean_latency
        );
        assert!(sched.metrics.uniformity_cov <= online.metrics.uniformity_cov + 1e-9);
    }
}

/// The Fig. 3 structure holds end to end: every tuning-curve point is
/// dominated in latency by the optimal schedule.
#[test]
fn tuning_curve_is_dominated_by_optimal_latency() {
    let graph = builders::color_tracker();
    let cluster = ClusterSpec::single_node(4);
    let state = AppState::new(8);
    let t4 = graph.task_by_name("Target Detection").unwrap();
    let mut template = OnlineConfig::new(FrameClock::new(Micros::from_millis(33), 20), state);
    template.decomposition.insert(t4, Decomposition::new(1, 8));
    let points = tuning_curve(
        &graph,
        &cluster,
        &template,
        &[
            Micros::from_millis(33),
            Micros::from_secs(2),
            Micros::from_secs(5),
        ],
    );
    let opt = optimal_schedule(&graph, &cluster, &state, &OptimalConfig::default());
    let best = evaluate_schedule(
        &opt.best,
        &graph,
        FrameClock::new(Micros::from_millis(33), 20),
        2,
    );
    for p in points {
        assert!(
            best.metrics.mean_latency <= p.metrics.mean_latency,
            "period {}: optimal {} vs tuned {}",
            p.period,
            best.metrics.mean_latency,
            p.metrics.mean_latency
        );
    }
}

/// Kiosk workload → schedule table → regime switching: switching beats the
/// static schedule and approaches the oracle.
#[test]
fn regime_switching_end_to_end() {
    let graph = builders::color_tracker();
    let cluster = ClusterSpec::single_node(4);
    let kiosk = KioskConfig {
        mean_interarrival_frames: 30.0,
        mean_dwell_frames: 250.0,
        max_people: 5,
        n_frames: 300,
        seed: 2,
    };
    let occ = occupancy_track(&generate_visits(&kiosk), kiosk.n_frames);
    let track = StateTrack::from_changes(occ.iter().map(|&(f, n)| (f, AppState::new(n))).collect());
    assert!(track.n_transitions() >= 2, "workload must be dynamic");

    let states: Vec<AppState> = (0..=5u32).map(AppState::new).collect();
    let table = ScheduleTable::precompute(&graph, &cluster, &states, &OptimalConfig::default());

    let run = |strategy| {
        simulate_regime_switched(
            &graph,
            &cluster,
            &table,
            &track,
            &SwitchConfig {
                clock: FrameClock::new(Micros::from_millis(500), kiosk.n_frames),
                strategy,
                warmup_frames: 2,
            },
        )
    };
    let static_small = run(ScheduleStrategy::Static(AppState::new(1)));
    let switched = run(ScheduleStrategy::RegimeTable {
        confirm_after: 2,
        policy: TransitionPolicy::CutOver,
    });
    let oracle = run(ScheduleStrategy::Oracle);

    assert!(switched.metrics.mean_latency <= static_small.metrics.mean_latency);
    assert!(
        switched.metrics.mean_latency.as_secs_f64()
            <= oracle.metrics.mean_latency.as_secs_f64() * 1.5
    );
    assert!(switched.mismatch_frames < static_small.mismatch_frames);
}

/// The real threaded runtime agrees with itself across executors and with
/// the scene's ground truth.
#[test]
fn threaded_runtime_end_to_end() {
    let graph = builders::color_tracker();
    let cluster = ClusterSpec::single_node(3);
    let state = AppState::new(2);
    let opt = optimal_schedule(&graph, &cluster, &state, &OptimalConfig::default());
    let t4 = graph.task_by_name("Target Detection").unwrap();
    let d = opt
        .best
        .iteration
        .decomp
        .get(&t4)
        .copied()
        .unwrap_or(Decomposition::NONE);

    let mut cfg = TrackerConfig::small(2, 6);
    cfg.period = Duration::from_millis(2);
    cfg.decomposition = (d.fp, d.mp);
    cfg.channel_capacity = 2 + opt.best.overlapping_iterations() as usize;

    let online_app = TrackerApp::build(&cfg, None);
    let online = OnlineExecutor::run(&online_app, 0);
    let sched_app = TrackerApp::build(&cfg, None);
    let scheduled = ScheduledExecutor::run(&sched_app, &opt.best, 0);

    assert_eq!(online.frames_completed, 6);
    assert_eq!(scheduled.frames_completed, 6);
    let mut a = online_app.face.observations();
    let mut b = sched_app.face.observations();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "identical detections under both executors");
    // Ground truth: both targets present in every frame.
    assert!(a.iter().all(|&(_, count)| count == 2), "observations {a:?}");
}

/// A legal schedule stays legal when re-expanded, and the naive pipeline
/// conforms to the legality checker on the paper cluster (including
/// communication).
#[test]
fn schedules_validate_against_legality_checker() {
    let graph = builders::color_tracker();
    for procs in [1u32, 2, 4, 8] {
        let cluster = ClusterSpec::single_node(procs);
        for n in [1u32, 4, 8] {
            let state = AppState::new(n);
            let opt = optimal_schedule(&graph, &cluster, &state, &OptimalConfig::default());
            let e = ExpandedGraph::build(&graph, &state, &opt.best.iteration.decomp);
            check_iteration(&opt.best.iteration, &e, &cluster).unwrap();
            assert!(opt.best.find_collision().is_none());

            let pipe = naive_pipeline(&graph, &cluster, &state);
            let e0 = ExpandedGraph::build(&graph, &state, &pipe.iteration.decomp);
            check_iteration(&pipe.iteration, &e0, &cluster).unwrap();
        }
    }
}

/// Offline → persist → online: a schedule computed and serialized in one
/// "process" is parsed back and drives the real threaded executor — the
/// deployment path the paper implies ("the resulting schedule will be
/// operating for months").
#[test]
fn persisted_schedule_drives_the_real_runtime() {
    use constrained_dynamic_scheduling::cds_core::persist;

    let graph = builders::color_tracker();
    let cluster = ClusterSpec::single_node(3);
    let state = AppState::new(2);

    // Offline phase.
    let opt = optimal_schedule(&graph, &cluster, &state, &OptimalConfig::default());
    let blob = persist::schedule_to_string(&opt.best);

    // ... a reboot later ...
    let loaded = persist::schedule_from_str(&blob).expect("parse back");
    assert_eq!(loaded, opt.best);

    let t4 = graph.task_by_name("Target Detection").unwrap();
    let d = loaded
        .iteration
        .decomp
        .get(&t4)
        .copied()
        .unwrap_or(Decomposition::NONE);
    let mut cfg = TrackerConfig::small(2, 5);
    cfg.decomposition = (d.fp, d.mp);
    cfg.channel_capacity = 2 + loaded.overlapping_iterations() as usize;
    let app = TrackerApp::build(&cfg, None);
    let stats = ScheduledExecutor::run(&app, &loaded, 0);
    assert_eq!(stats.frames_completed, 5);
    assert!(app.face.observations().iter().all(|&(_, count)| count == 2));
}

/// Multi-node cluster: the optimal schedule respects communication costs
/// and never does worse than the single-node optimum with the same total
/// processor count restricted to one node's processors.
#[test]
fn paper_cluster_scheduling_is_communication_aware() {
    let graph = builders::color_tracker();
    let state = AppState::new(4);
    let single = ClusterSpec::single_node(4);
    let multi = ClusterSpec::paper_cluster(); // 4 nodes × 4 procs, comm costs

    let s1 = optimal_schedule(&graph, &single, &state, &OptimalConfig::default());
    let s2 = optimal_schedule(&graph, &multi, &state, &OptimalConfig::default());
    // 16 processors with comm costs can't be worse than 4 free ones by more
    // than the comm overhead, and the schedule must be legal under comm.
    let e = ExpandedGraph::build(&graph, &state, &s2.best.iteration.decomp);
    check_iteration(&s2.best.iteration, &e, &multi).unwrap();
    assert!(s2.minimal_latency <= s1.minimal_latency + Micros::from_millis(50));
}
