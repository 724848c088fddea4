//! Channel capacities the app fixes itself, whatever
//! `TrackerConfig::channel_capacity` says: the "Frame" channel never has
//! fewer than two slots (one would deadlock an unpaced run) nor admits more
//! than 3 MiB of frames, and the "Back Projections" channel never has more
//! than one slot (its items are the pipeline's fattest payload).

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use runtime::{OnlineExecutor, TrackerApp, TrackerConfig};

#[test]
fn capacity_one_unpaced_run_does_not_deadlock() {
    // T3 instance `ts` still holds frame `ts − 1` (it differences against
    // it), so with a single "Frame" slot the digitizer could never put
    // frame `ts`: the run used to hang after the first frame. Run it on a
    // thread of its own so a regression fails the test instead of wedging
    // the suite.
    let mut cfg = TrackerConfig::small(2, 20);
    cfg.channel_capacity = 1;
    cfg.period = Duration::ZERO;
    let (done, finished) = mpsc::channel();
    thread::spawn(move || {
        let app = TrackerApp::build(&cfg, None);
        let stats = OnlineExecutor::run(&app, 0);
        let _ = done.send(stats.frames_completed);
    });
    let completed = finished
        .recv_timeout(Duration::from_secs(60))
        .expect("capacity-1 unpaced run deadlocked");
    assert_eq!(completed, 20);
}

#[test]
fn back_projections_hold_one_item_under_a_saturated_crowd() {
    // Closed loop, eight models, T4 fanned out over a 2-worker pool: every
    // stage is CPU-bound and the queue forms wherever capacity lets it.
    // With eight slots per channel the "Back Projections" channel must
    // still peak at exactly one item.
    let mut cfg = TrackerConfig::small(8, 120);
    cfg.period = Duration::ZERO;
    cfg.decomposition = (1, 2);
    cfg.pool_workers = 2;
    assert_eq!(cfg.channel_capacity, 8);
    let app = TrackerApp::build(&cfg, None);
    let stats = OnlineExecutor::run(&app, 0);
    assert_eq!(stats.frames_completed, 120);

    let one_item = 8 * cfg.width * cfg.height * std::mem::size_of::<f32>();
    let (_, held, peak) = app
        .channel_bytes()
        .into_iter()
        .find(|&(name, _, _)| name == "Back Projections")
        .expect("the app has a Back Projections channel");
    assert_eq!(peak, one_item, "peak is one item's weight");
    assert_eq!(held, 0, "drained at the end of the run");
    let pool = app.pool_health().expect("a pool is attached");
    assert!(pool.is_clean(), "pool faults: {pool}");
    // T4 is the only stage that farms work out: two chunks a frame, and
    // not one job more. The read waits out the last job's count, which a
    // worker bumps only after sending its reply.
    let (submitted, executed) = app.pool_load().expect("a pool is attached");
    assert_eq!(submitted, 120 * 2, "one job per T4 chunk");
    assert_eq!(executed, 120 * 2, "every job counted once the run is over");
    assert!(app.health.report().is_clean(), "{}", app.health.report());
}

#[test]
fn frame_channel_is_bounded_in_bytes_not_only_in_items() {
    let frame_cap = |app: &TrackerApp| {
        app.channel_checks(0)
            .into_iter()
            .find(|c| c.name == "Frame")
            .map(|c| c.capacity)
    };
    // Small frames: the configured eight slots stand.
    let small = TrackerConfig::small(1, 4);
    assert_eq!(small.channel_capacity, 8);
    assert_eq!(frame_cap(&TrackerApp::build(&small, None)), Some(8));

    // 640×480: 900 KiB a frame, three to the budget. An unpaced run fills
    // them and no more, and "Color Model"/"Motion Mask" (eight slots each)
    // cannot hold more items than there are frames in flight.
    let mut wide = small.clone();
    (wide.width, wide.height, wide.n_frames) = (640, 480, 24);
    wide.period = Duration::ZERO;
    let app = TrackerApp::build(&wide, None);
    assert_eq!(frame_cap(&app), Some(3));
    let stats = OnlineExecutor::run(&app, 0);
    assert_eq!(stats.frames_completed, 24);
    let frame_bytes = 640 * 480 * 3;
    let (_, _, peak) = app
        .channel_bytes()
        .into_iter()
        .find(|&(name, _, _)| name == "Frame")
        .expect("the app has a Frame channel");
    assert!(peak <= 3 * frame_bytes, "Frame peaked at {peak} B");
    for c in app.channel_checks(0) {
        if matches!(c.name.as_str(), "Color Model" | "Motion Mask") {
            assert!(c.peak_live <= 3, "{} held {} items", c.name, c.peak_live);
        }
    }
    assert!(app.health.report().is_clean(), "{}", app.health.report());

    // A frame larger than the whole budget still gets the two slots
    // without which an unpaced run deadlocks.
    (wide.width, wide.height) = (1920, 1080);
    assert_eq!(frame_cap(&TrackerApp::build(&wide, None)), Some(2));
}
