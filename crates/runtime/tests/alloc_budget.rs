//! Heap traffic per steady-state frame, held under recorded bounds.
//!
//! A counting `#[global_allocator]` over [`System`] tallies every
//! allocation (and reallocation) and its requested bytes. Each shape runs
//! the same app twice, for `N₁` and for `N₂` frames, and the per-frame
//! figure is the difference of the two tallies over `N₂ − N₁`: set-up,
//! thread spawns and teardown are the same in both runs and cancel.
//!
//! The counter is process-wide, so the tests take one lock and measure one
//! app at a time.
//!
//! The recorded figures are the largest of several runs of the commit
//! before this test landed (debug and release builds read the same):
//!
//! | shape | allocations / frame | KiB / frame |
//! |-------|---------------------|-------------|
//! | crowd: 96×72, 8 models, `(1,2)` on 2 workers | 47.3 | 433 |
//! | wide: 640×480, 1 model, `(1,1)`, no pool     | 34.9 | 1,317 |
//!
//! Each bound sits 15 % above its recorded figure. Over 50 runs, crowd read
//! 47.2–47.4 allocations and 433–434 KiB, and wide 33.5–35.4 allocations
//! and 1,288–1,317 KiB: wide's bytes move by whole 900 KiB frame buffers,
//! when one run's freelist creates one buffer more than the other's, so
//! its `N₂ − N₁` is 64 frames to keep one such buffer under 15 KiB per
//! frame. A change that moves a figure past its bound states the new
//! figure and why in CHANGES.md.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use runtime::{OnlineExecutor, TrackerApp, TrackerConfig};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One app measured at a time: the counters see every thread.
static SERIAL: Mutex<()> = Mutex::new(());

/// Headroom over the recorded figures.
const HEADROOM: f64 = 1.15;

/// Allocations and bytes of building `cfg` for `n` frames and running it
/// to the end.
fn tally(cfg: &TrackerConfig, n: u64) -> (u64, u64) {
    let mut cfg = cfg.clone();
    cfg.n_frames = n;
    let (a0, b0) = (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
    {
        let app = TrackerApp::build(&cfg, None);
        let stats = OnlineExecutor::run(&app, 0);
        assert_eq!(stats.frames_completed, n, "every frame commits");
    }
    (
        ALLOCS.load(Ordering::SeqCst) - a0,
        BYTES.load(Ordering::SeqCst) - b0,
    )
}

/// Allocations and KiB per steady-state frame: the `n2`-frame run minus the
/// `n1`-frame run, over `n2 − n1`.
fn per_frame(cfg: &TrackerConfig, n1: u64, n2: u64) -> (f64, f64) {
    let _one_at_a_time = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (a1, b1) = tally(cfg, n1);
    let (a2, b2) = tally(cfg, n2);
    let frames = (n2 - n1) as f64;
    (
        (a2 as f64 - a1 as f64) / frames,
        (b2 as f64 - b1 as f64) / frames / 1024.0,
    )
}

fn assert_under(shape: &str, (allocs, kib): (f64, f64), rec_allocs: f64, rec_kib: f64) {
    eprintln!("{shape}: {allocs:.1} allocations, {kib:.0} KiB per frame");
    assert!(
        allocs <= rec_allocs * HEADROOM,
        "{shape}: {allocs:.1} allocations per frame, recorded {rec_allocs}"
    );
    assert!(
        kib <= rec_kib * HEADROOM,
        "{shape}: {kib:.0} KiB per frame, recorded {rec_kib}"
    );
}

#[test]
fn crowd_frame_heap_traffic_within_budget() {
    let mut cfg = TrackerConfig::small(8, 0);
    cfg.period = std::time::Duration::ZERO;
    cfg.decomposition = (1, 2);
    cfg.pool_workers = 2;
    assert_under("crowd", per_frame(&cfg, 40, 200), 47.3, 433.0);
}

#[test]
fn wide_frame_heap_traffic_within_budget() {
    let mut cfg = TrackerConfig::small(1, 0);
    cfg.width = 640;
    cfg.height = 480;
    cfg.period = std::time::Duration::ZERO;
    assert_under("wide", per_frame(&cfg, 8, 72), 34.9, 1317.0);
}
