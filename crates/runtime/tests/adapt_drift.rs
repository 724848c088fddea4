//! End-to-end drift harness: the full measure → calibrate → re-search →
//! swap cycle running against the *live* pipeline, with drift injected
//! deterministically through the fault plan's compute-slow machinery.
//!
//! The scenario the adaptation loop exists for: the offline schedule was
//! computed against cost models that were right at precompute time, then
//! one stage's real cost inflates mid-run (here: a planned `slow_window`
//! stretching Peak Detection's compute by an order of magnitude). The loop
//! must notice the sustained drift from inside the run, re-search in the
//! background against the rescaled costs, and land the new schedule through
//! the controller's atomic swap path — all without dropping a frame.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cds_core::optimal::OptimalConfig;
use cds_core::table::ScheduleTable;
use cluster::ClusterSpec;
use runtime::{
    AdaptConfig, AdaptLoop, FaultPlan, OnlineExecutor, RegimeController, Stage, TrackerApp,
    TrackerConfig,
};
use taskgraph::{builders, AppState};
use vision::Scene;

#[test]
fn injected_compute_drift_triggers_research_and_swap() {
    let n_frames = 96u64;
    let graph = builders::color_tracker();
    let cluster = ClusterSpec::single_node(4);
    let states: Vec<AppState> = [1u32, 2].iter().map(|&n| AppState::new(n)).collect();
    let search = OptimalConfig::default().serial();
    let table = ScheduleTable::precompute(&graph, &cluster, &states, &search);
    let t4 = graph.task_by_name("Target Detection").unwrap();

    let controller = Arc::new(RegimeController::from_schedule_table(&table, t4, 2, 2).unwrap());
    let adapt = AdaptLoop::new(
        AdaptConfig {
            tolerance: 1.0,
            window: 8,
            confirm_windows: 2,
            cooldown_frames: 16,
            search,
            cache_dir: None,
        },
        graph.clone(),
        cluster,
        table,
        t4,
        Arc::clone(&controller),
    );

    // Drift: from frame 8 to the end, Peak Detection's compute inflates by
    // 4 ms per frame — an order of magnitude over its real cost on
    // test-sized frames, far beyond the 2× tolerance, and sustained across
    // every remaining evaluation window.
    let plan = FaultPlan::new().slow_window(Stage::Peak, 8, n_frames, Duration::from_millis(4));
    let inj = plan.build();

    let mut cfg = TrackerConfig::small(2, n_frames);
    cfg.channel_capacity = n_frames as usize + 2;
    cfg.faults = Some(Arc::clone(&inj));
    let scene = Scene::demo(cfg.width, cfg.height, cfg.n_targets, cfg.seed);
    let app = TrackerApp::assemble(
        &cfg,
        scene,
        Some(Arc::clone(&controller)),
        Some(Arc::clone(&adapt)),
        None,
    );

    let stats = OnlineExecutor::run(&app, 0);
    assert_eq!(
        stats.frames_completed, n_frames,
        "slows stretch frames, they never drop them"
    );
    assert!(
        inj.injected().slows > 0,
        "the planned compute-slow windows actually fired"
    );

    // The background search may still be in flight when the last frame
    // settles; keep driving the frame-boundary hook (as a longer run would)
    // until the install lands.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut frame = n_frames;
    while adapt.stats().installs == 0 && Instant::now() < deadline {
        adapt.on_frame(frame);
        frame += 1;
        std::thread::sleep(Duration::from_millis(10));
    }

    let a = adapt.stats();
    assert!(a.windows >= 2, "at least two evaluation windows ran: {a:?}");
    assert!(
        a.drift_windows >= 2,
        "the injected drift was detected and confirmed: {a:?}"
    );
    assert!(a.launches >= 1, "a background re-search launched: {a:?}");
    assert!(
        a.installs >= 1,
        "the re-searched schedule was installed: {a:?}"
    );
    assert!(
        a.last_detect_to_swap.is_some(),
        "detection→swap latency was measured: {a:?}"
    );
    assert!(
        a.last_nodes_explored > 0,
        "the install came from a real search, not a cache hit: {a:?}"
    );
    assert!(
        controller.swaps() >= 1,
        "the swap went through the controller's atomic install path"
    );
    assert_eq!(
        app.health.report().total_drops(),
        0,
        "adaptation is invisible to the fault ledger"
    );
}
