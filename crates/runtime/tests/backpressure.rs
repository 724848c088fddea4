//! Channel capacities the app fixes itself, whatever
//! `TrackerConfig::channel_capacity` says: the "Frame" channel never has
//! fewer than two slots (one would deadlock an unpaced run), and the "Back
//! Projections" channel never has more than one (its items are the
//! pipeline's fattest payload).

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
    assert!(app.health.report().is_clean(), "{}", app.health.report());
}
