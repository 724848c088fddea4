//! The data-path overhaul's contract: buffer recycling and worker-pool
//! farming are pure performance changes. Tracker output must be
//! bit-identical between the old path (fresh allocations, serial kernels)
//! and the new one (pooled buffers, T4 chunk farming) — every kernel
//! overwrites recycled buffers completely and detection partials merge
//! exactly in any order. The two equality tests run once per kernel tier.

use runtime::{OnlineExecutor, TrackerApp, TrackerConfig};
use vision::BackendKind;

fn observations_sorted(app: &TrackerApp) -> Vec<(u64, u32)> {
    let mut obs = app.face.observations();
    obs.sort_unstable();
    obs
}

#[test]
fn pooled_buffers_do_not_change_tracker_output() {
    for backend in BackendKind::ALL {
        let mut old_cfg = TrackerConfig::small(2, 12);
        old_cfg.recycle_buffers = false;
        old_cfg.backend = backend;
        let mut new_cfg = TrackerConfig::small(2, 12);
        new_cfg.recycle_buffers = true;
        new_cfg.backend = backend;

        let old = TrackerApp::build(&old_cfg, None);
        let _ = OnlineExecutor::run(&old, 0);
        let new = TrackerApp::build(&new_cfg, None);
        let _ = OnlineExecutor::run(&new, 0);

        assert_eq!(
            observations_sorted(&old),
            observations_sorted(&new),
            "{backend:?}: recycled buffers must be invisible in tracker output"
        );
        assert!(old.frame_pool_stats().is_none());
        let fp = new.frame_pool_stats().expect("pooling on");
        assert_eq!(fp.created + fp.reused, 12, "one frame buffer per frame");
    }
}

#[test]
fn full_new_data_path_matches_old_serial_path() {
    for backend in BackendKind::ALL {
        // Old path: fresh allocations, (1,1) decomposition, no worker pool.
        let mut old_cfg = TrackerConfig::small(2, 8);
        old_cfg.recycle_buffers = false;
        old_cfg.backend = backend;
        // New path: recycled buffers, (2,2) detect chunks farmed to a
        // worker pool.
        let mut new_cfg = TrackerConfig::small(2, 8);
        new_cfg.recycle_buffers = true;
        new_cfg.decomposition = (2, 2);
        new_cfg.pool_workers = 3;
        new_cfg.backend = backend;

        let old = TrackerApp::build(&old_cfg, None);
        let _ = OnlineExecutor::run(&old, 0);
        let new = TrackerApp::build(&new_cfg, None);
        let _ = OnlineExecutor::run(&new, 0);

        assert_eq!(
            observations_sorted(&old),
            observations_sorted(&new),
            "{backend:?}: the overhauled data path must reproduce the old path exactly"
        );
    }
}

#[test]
fn steady_state_recycles_instead_of_allocating() {
    let mut cfg = TrackerConfig::small(1, 40);
    cfg.channel_capacity = 4;
    let app = TrackerApp::build(&cfg, None);
    let _ = OnlineExecutor::run(&app, 0);

    let fp = app.frame_pool_stats().expect("pooling on by default");
    let mp = app.mask_pool_stats().expect("pooling on by default");
    assert_eq!(fp.created + fp.reused, 40);
    assert_eq!(mp.created + mp.reused, 40);
    // Allocation is bounded by pipeline depth, not stream length: after the
    // pipe fills, every frame and mask rides a recycled buffer.
    assert!(
        fp.created <= 12 && fp.reused >= 28,
        "frames must recycle in steady state: {fp:?}"
    );
    assert!(
        mp.created <= 12 && mp.reused >= 28,
        "masks must recycle in steady state: {mp:?}"
    );
}
