//! Fleet lifecycle churn: tenants attach and detach *while the fleet
//! runs*, and the invariants hold anyway.
//!
//! - **No lost or duplicated frames**: whatever the attach/detach
//!   interleaving, a tenant that runs to completion is bit-identical to a
//!   solo run of the same stream, and a departed tenant's drained output
//!   is exactly one result per digitized frame — a contiguous prefix, no
//!   gap, no duplicate (the proptest below drives random interleavings).
//! - **Re-admission with hysteresis**: a stream rejected under load is
//!   retried only after utilization drops a full hysteresis band below
//!   the admission threshold — it does not flap in and out at the knee —
//!   and then runs to completion.

use std::thread;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use runtime::{
    Fleet, FleetConfig, LifecycleState, OnlineExecutor, PriorityClass, TenantSpec, TrackerApp,
};

/// Wait (bounded) for `pred`; returns whether it became true.
fn wait_until(timeout: Duration, mut pred: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if pred() {
            return true;
        }
        thread::sleep(Duration::from_millis(2));
    }
    pred()
}

/// Solo (no fleet, no shared pool) reference run of tenant `idx`'s stream.
fn solo_locations(cfg: &FleetConfig, idx: usize) -> Vec<(u64, Vec<vision::ModelLocation>)> {
    let mut solo_cfg = cfg.base.clone();
    solo_cfg.seed = cfg.base.seed + idx as u64;
    solo_cfg.frame_deadline = Some(cfg.deadline);
    let solo = TrackerApp::build(&solo_cfg, None);
    let _ = OnlineExecutor::run(&solo, 0);
    let mut locs = solo.face.locations();
    locs.sort_by_key(|&(ts, _)| ts);
    locs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random attach/detach interleavings: long-running tenants are pulled
    /// mid-run at a random point, in random attach order, around 1–3
    /// short-lived survivors. Survivors must match their solo runs
    /// bit-for-bit; departed tenants must drain every digitized frame
    /// exactly once.
    #[test]
    fn interleaved_attach_detach_never_loses_or_duplicates_frames(
        n_survivors in 1usize..4,
        n_detachees in 1usize..3,
        detachee_first in any::<bool>(),
        detach_delay_ms in 0u64..8,
    ) {
        let n_frames = 10u64;
        let cfg = FleetConfig::small(0, n_frames);
        let fleet = Fleet::launch(cfg.clone());

        let long_spec = TenantSpec {
            n_frames: Some(300), // ~600 ms at the base 2 ms period: detach lands mid-run
            ..TenantSpec::default()
        };
        let mut detachees = Vec::new();
        let mut survivors = Vec::new();
        if detachee_first {
            for _ in 0..n_detachees {
                detachees.push(fleet.attach(long_spec.clone()));
            }
        }
        for _ in 0..n_survivors {
            survivors.push(fleet.attach(TenantSpec::default()));
        }
        if !detachee_first {
            for _ in 0..n_detachees {
                detachees.push(fleet.attach(long_spec.clone()));
            }
        }
        for a in detachees.iter().chain(survivors.iter()) {
            prop_assert!(a.admitted, "open admission in the churn config");
        }

        thread::sleep(Duration::from_millis(detach_delay_ms));
        for d in &detachees {
            // May return false if the tenant already finished — allowed;
            // the state match below handles both endings.
            let _ = fleet.detach(d.tenant);
        }
        let run = fleet.finish();

        for d in &detachees {
            let t = &run.tenants[d.tenant];
            let stats = t.stats.as_ref().expect("admitted tenant has stats");
            let app = t.app.as_ref().expect("admitted tenant has an app");
            match t.state {
                LifecycleState::Departed => {
                    // Drained exactly: one completion per digitized frame…
                    prop_assert_eq!(stats.frames_completed, app.measure.digitized_count());
                    prop_assert!(stats.frames_completed < 300, "detach cut production");
                    // …and the output is the contiguous prefix, no dup, no gap.
                    let ts: Vec<u64> = {
                        let mut locs = app.face.locations();
                        locs.sort_by_key(|&(ts, _)| ts);
                        locs.iter().map(|&(ts, _)| ts).collect()
                    };
                    let expect: Vec<u64> = (0..stats.frames_completed).collect();
                    prop_assert_eq!(ts, expect);
                    prop_assert_eq!(run.deadline_misses(d.tenant), 0, "drained ≠ missed");
                }
                LifecycleState::Completed => {
                    // The detach raced completion: a full clean run then.
                    prop_assert_eq!(stats.frames_completed, 300);
                }
                s => prop_assert!(false, "detachee ended in {:?}", s),
            }
        }
        for a in &survivors {
            let t = &run.tenants[a.tenant];
            prop_assert_eq!(t.state, LifecycleState::Completed);
            let app = t.app.as_ref().unwrap();
            let mut fleet_locs = app.face.locations();
            fleet_locs.sort_by_key(|&(ts, _)| ts);
            let solo = solo_locations(&cfg, a.tenant);
            prop_assert_eq!(solo.len() as u64, n_frames);
            prop_assert_eq!(
                fleet_locs, solo,
                "survivor {} diverged from its solo run under churn", a.tenant
            );
        }
    }
}

#[test]
fn rejected_stream_is_readmitted_after_departure_with_hysteresis() {
    // One worker, free-running (period-zero) BestEffort hogs: utilization
    // climbs, a Standard probe is rejected by the gate, the hogs are
    // detached mid-run, and the retry loop re-admits the probe — at a
    // recorded utilization provably below the hysteresis threshold (the
    // no-flapping evidence) — after which it runs to completion.
    //
    // Pool duty on an unknown host is noisy (the EWMA swings with the
    // pipeline's serial/data-parallel phases), so the test never asserts
    // absolute utilization at a wall-clock instant: the rejection is
    // whichever attach the gate actually refused, and the hysteresis bound
    // is checked against the utilization the fleet recorded *at* the
    // re-admission event.
    const MAX_UTIL: f64 = 0.15;
    const HYSTERESIS: f64 = 0.07;
    let mut cfg = FleetConfig::small(0, 8);
    cfg.pool_workers = 1;
    cfg.min_admitted = 1;
    cfg.max_utilization = MAX_UTIL;
    cfg.monitor_tick = Duration::from_millis(10);
    cfg.readmit = true;
    cfg.readmit_hysteresis = HYSTERESIS;
    let fleet = Fleet::launch(cfg);

    let hog_spec = TenantSpec {
        class: PriorityClass::BestEffort,
        period: Some(Duration::ZERO),
        n_frames: Some(50_000),
        ..TenantSpec::default()
    };
    let hogs: Vec<_> = (0..4).map(|_| fleet.attach(hog_spec.clone())).collect();
    assert!(
        hogs[0].admitted,
        "the min_admitted floor admits the first hog"
    );
    let hogs: Vec<_> = hogs.into_iter().filter(|h| h.admitted).collect();

    // Attach short probes until the gate refuses one against live load.
    // Admitted probes (attached during a utilization trough) are 1-frame
    // streams that finish immediately; the refused one is the probe.
    let deadline = Instant::now() + Duration::from_secs(30);
    let probe = loop {
        let p = fleet.attach(TenantSpec {
            n_frames: Some(1),
            ..TenantSpec::default()
        });
        if !p.admitted {
            break p;
        }
        assert!(
            Instant::now() < deadline,
            "gate never rejected a probe: util={}",
            fleet.utilization()
        );
        thread::sleep(Duration::from_millis(25));
    };
    // Sanity: the gate's decision was driven by real measured load. The
    // true marginal divisor (running streams) is at least the hog count,
    // so this recomputed sum is an upper bound of the gate's own.
    assert!(
        probe.utilization + probe.utilization / hogs.len() as f64 > MAX_UTIL,
        "rejection was made against measured load: {}",
        probe.utilization
    );
    assert_eq!(
        fleet.tenant_state(probe.tenant),
        Some(LifecycleState::Rejected)
    );

    // Mid-run departure: pull every hog and wait for the drains.
    for h in &hogs {
        let rollup = fleet
            .detach_and_wait(h.tenant, Duration::from_secs(60))
            .expect("hog drains");
        assert!(rollup.digitized < 50_000, "hog was cut mid-run");
        // Drain accounting: every digitized frame either completed or was
        // recorded as a policy drop downstream (deadline skip under host
        // load, STM drop) — none vanish silently.
        assert!(
            rollup.stats.frames_completed <= rollup.digitized,
            "more completions than digitized frames"
        );
        let accounted = rollup.stats.frames_completed
            + rollup.health.deadline_skips
            + rollup.health.stm_get_drops
            + rollup.health.stm_put_drops;
        assert!(
            accounted >= rollup.digitized,
            "drain lost in-flight frames: {} completed + {} recorded drops < {} digitized",
            rollup.stats.frames_completed,
            accounted - rollup.stats.frames_completed,
            rollup.digitized
        );
    }

    assert!(
        wait_until(Duration::from_secs(30), || {
            fleet.tenant_state(probe.tenant) != Some(LifecycleState::Rejected)
        }),
        "probe never re-admitted after the departures: util={}",
        fleet.utilization()
    );

    let run = fleet.finish();
    let t = &run.tenants[probe.tenant];
    assert!(t.readmitted, "probe went through the retry queue");
    assert!(t.admitted);
    assert_eq!(t.state, LifecycleState::Completed);
    assert_eq!(t.stats.as_ref().unwrap().frames_completed, 1);
    assert!(
        t.reject_utilization.is_some(),
        "the first rejection is still on record"
    );
    // The hysteresis invariant, timing-free: the retry fired at a recorded
    // utilization at or below max − h, never inside the band.
    let at = t
        .readmit_utilization
        .expect("re-admission records its utilization");
    assert!(
        at <= MAX_UTIL - HYSTERESIS + 1e-9,
        "re-admitted inside the hysteresis band: {at}"
    );
    for h in &hogs {
        assert_eq!(run.tenants[h.tenant].state, LifecycleState::Departed);
    }
}

#[test]
fn guaranteed_pair_keeps_its_slo_through_a_best_effort_burst() {
    // Two paced Guaranteed streams; a burst of free-running BestEffort
    // hogs arrives mid-run on a deliberately narrow pool and departs once
    // the Guaranteed pair is done. The pair's chunks overtake the hogs'
    // backlog, so every Guaranteed frame completes inside the budget.
    let n_frames = 60;
    let mut cfg = FleetConfig::small(0, n_frames);
    cfg.deadline = Duration::from_secs(1);
    cfg.min_admitted = 6;
    cfg.shed_utilization = 0.5;
    cfg.shed_hysteresis = 0.15;
    let fleet = Fleet::launch(cfg.clone());

    let guaranteed: Vec<_> = (0..2)
        .map(|_| fleet.attach(TenantSpec::with_class(PriorityClass::Guaranteed)))
        .collect();
    thread::sleep(Duration::from_millis(20));
    let hog_spec = TenantSpec {
        class: PriorityClass::BestEffort,
        period: Some(Duration::ZERO),
        n_frames: Some(1_000_000),
        ..TenantSpec::default()
    };
    let hogs: Vec<_> = (0..4).map(|_| fleet.attach(hog_spec.clone())).collect();
    for a in guaranteed.iter().chain(&hogs) {
        assert!(a.admitted, "the min_admitted floor covers the burst");
    }

    assert!(
        wait_until(Duration::from_secs(60), || guaranteed.iter().all(|g| fleet
            .tenant_state(g.tenant)
            == Some(LifecycleState::Completed))),
        "Guaranteed streams never finished beside the burst"
    );
    for h in &hogs {
        let rollup = fleet
            .detach_and_wait(h.tenant, Duration::from_secs(60))
            .expect("hog drains");
        assert!(rollup.digitized > 0, "the hog ran beside the pair");
    }
    let run = fleet.finish();

    for g in &guaranteed {
        let t = &run.tenants[g.tenant];
        let stats = t.stats.as_ref().expect("admitted tenant has stats");
        assert_eq!(stats.frames_completed, n_frames, "tenant {}", g.tenant);
        assert!(
            stats.p99_latency <= cfg.deadline,
            "tenant {} p99 {:?}",
            g.tenant,
            stats.p99_latency
        );
        assert_eq!(run.deadline_misses(g.tenant), 0, "tenant {}", g.tenant);
        assert_eq!(t.sheds, 0, "Guaranteed frames are never shed");
    }
    for h in &hogs {
        assert_eq!(run.tenants[h.tenant].state, LifecycleState::Departed);
    }
}
