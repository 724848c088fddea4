//! Fleet lifecycle churn: tenants attach and detach *while the fleet
//! runs*, and the invariants hold anyway.
//!
//! - **No lost or duplicated frames**: whatever the attach/detach
//!   interleaving, a tenant that runs to completion is bit-identical to a
//!   solo run of the same stream, and a departed tenant's drained output
//!   is exactly one result per digitized frame — a contiguous prefix, no
//!   gap, no duplicate (the proptest below drives random interleavings).
//! - **Priority through a burst**: a Guaranteed pair keeps its SLO while
//!   free-running BestEffort hogs arrive and depart beside it.

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
