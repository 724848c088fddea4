//! Determinism witnesses over whole runs.
//!
//! - **Record/replay**: for a clean, a faulted and a regime-switching
//!   recording, two replays re-record byte-identically, reproduce the
//!   recorded commits, skips and switches, and agree with the live run on
//!   every frame's span skeleton; both trace forms are valid Chrome JSON.
//! - **Spans vs ledger**: on a traced live run with a regime switch, the
//!   frames reconstructed from spans commit exactly as often as the sink
//!   counted, and the live trace merged with a simulated run of the same
//!   application validates.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use cds_core::optimal::OptimalConfig;
use cds_core::table::ScheduleTable;
use cluster::{simulate_online, ClusterSpec, FrameClock, OnlineConfig};
use obs::{ChromeTrace, LifecycleStats, TraceMode};
use runtime::{
    record_run, record_run_with_scene, replay_run, FaultPlan, OnlineExecutor, RecordedRun,
    RegimeController, Stage, TrackerApp, TrackerConfig,
};
use taskgraph::{builders, AppState, Decomposition, Micros};
use vision::Scene;

const FRAMES: u64 = 10;

fn switch_table() -> BTreeMap<u32, (u32, u32)> {
    // ≤1 person splits the frame, ≥2 splits by models.
    [(0, (2, 1)), (2, (1, 3))].into_iter().collect()
}

fn check_replays(
    name: &str,
    run: &RecordedRun,
    controller: impl Fn() -> Option<Arc<RegimeController>>,
) {
    let rec = &run.recording;
    let a = replay_run(rec, controller());
    let b = replay_run(rec, controller());
    assert!(
        a.commits_match && b.commits_match,
        "{name}: commits diverged"
    );
    assert_eq!(
        a.recording.to_bytes(),
        b.recording.to_bytes(),
        "{name}: two replays re-recorded differently"
    );
    let names = Stage::names();
    let canonical = a.recording.canonical_trace_json(&names);
    assert_eq!(
        canonical,
        b.recording.canonical_trace_json(&names),
        "{name}"
    );
    assert_eq!(a.recording.skips, rec.skips, "{name}: skip set");
    assert_eq!(b.recording.skips, rec.skips, "{name}: skip set");
    assert_eq!(a.recording.switches, rec.switches, "{name}: switches");
    assert_eq!(b.recording.switches, rec.switches, "{name}: switches");

    // Under a live controller, which decomposition an in-flight frame used
    // while a switch confirmed is a wall-clock race the commits above prove
    // benign, so those runs compare without it.
    let skeleton = if rec.switches.is_empty() {
        obs::diff(&run.dump, &a.dump)
    } else {
        obs::diff_ignoring_decomp(&run.dump, &a.dump)
    };
    assert!(skeleton.matches(), "{name}: {skeleton}");

    let mut live = ChromeTrace::new();
    live.push_dump(&run.dump, 0, "live");
    obs::chrome::validate(&live.to_json()).expect("live trace is valid Chrome JSON");
    obs::chrome::validate(&canonical).expect("canonical trace is valid Chrome JSON");
}

#[test]
fn clean_faulted_and_switching_runs_replay_identically() {
    let clean = record_run(&TrackerConfig::small(2, FRAMES), None);
    check_replays("clean", &clean, || None);

    let mut cfg = TrackerConfig::small(2, FRAMES);
    cfg.faults = Some(
        FaultPlan::new()
            .stm_error(Stage::Histogram, 2)
            .stm_error(Stage::Peak, FRAMES / 2)
            .build(),
    );
    let faulted = record_run(&cfg, None);
    assert!(!faulted.recording.skips.is_empty(), "faults were recorded");
    check_replays("faulted", &faulted, || None);

    let mut cfg = TrackerConfig::small(3, FRAMES);
    cfg.pool_workers = 2;
    cfg.seed = 13;
    let scene = Scene::demo(cfg.width, cfg.height, 3, cfg.seed)
        .with_visit(0, 0, u64::MAX)
        .with_visit(1, FRAMES / 3, u64::MAX)
        .with_visit(2, FRAMES / 3, u64::MAX);
    let controller = || {
        Some(Arc::new(
            RegimeController::new(1, 2, switch_table()).unwrap(),
        ))
    };
    let switching = record_run_with_scene(&cfg, scene, controller());
    assert!(
        !switching.recording.switches.is_empty(),
        "a switch confirmed"
    );
    check_replays("regime-switch", &switching, controller);
}

#[test]
fn span_commits_equal_the_sink_ledger_and_merged_trace_validates() {
    let graph = builders::color_tracker();
    let cluster = ClusterSpec::single_node(4);
    let t4 = graph.task_by_name("Target Detection").unwrap();
    let table = ScheduleTable::precompute(
        &graph,
        &cluster,
        &[AppState::new(1), AppState::new(3)],
        &OptimalConfig::default(),
    );

    // Population 1 -> 3 mid-stream, controller attached, every span kept.
    let n_frames = 16;
    let mut cfg = TrackerConfig::small(3, n_frames);
    cfg.period = Duration::from_millis(2);
    cfg.pool_workers = 2;
    cfg.trace = Some(TraceMode::Full);
    let scene = Scene::demo(cfg.width, cfg.height, 3, 13)
        .with_visit(0, 0, u64::MAX)
        .with_visit(1, n_frames / 3, u64::MAX)
        .with_visit(2, n_frames / 3, u64::MAX);
    let controller = Arc::new(RegimeController::from_schedule_table(&table, t4, 1, 2).unwrap());
    let app = TrackerApp::build_with_scene(&cfg, scene, Some(controller));
    let stats = OnlineExecutor::run(&app, 2);

    let dump = app.recorder.as_ref().expect("trace was requested").drain();
    assert!(!dump.spans.is_empty(), "a Full-mode run records spans");
    let life = LifecycleStats::from_frames(&obs::frames::reconstruct(&dump));
    assert!(life.committed > 0, "frames committed");
    assert_eq!(
        life.committed, stats.frames_completed,
        "span-reconstructed commits disagree with the sink ledger"
    );

    let mut chrome = ChromeTrace::new();
    chrome.push_dump(&dump, 0, "live tracker");
    let live_events = obs::chrome::validate(&chrome.to_json()).expect("live trace validates");
    let mut sim_cfg = OnlineConfig::new(
        FrameClock::new(Micros::from_millis(2), n_frames),
        AppState::new(3),
    );
    sim_cfg.decomposition.insert(t4, Decomposition::new(1, 3));
    sim_cfg.trace_mode = cluster::TraceMode::Full;
    let names: Vec<String> = graph.tasks().iter().map(|t| t.name.clone()).collect();
    simulate_online(&graph, &cluster, sim_cfg)
        .trace
        .push_into_chrome(&mut chrome, 1, "simulated", &names);
    let events = obs::chrome::validate(&chrome.to_json()).expect("merged trace validates");
    assert!(events > live_events, "the simulated run joined the trace");
}
