//! End-to-end fault-injection harness: the panic-free pipeline's contract,
//! proven fault-for-fault.
//!
//! Every test runs the tracker under a deterministic [`FaultPlan`] and
//! asserts three things *exactly* — not approximately:
//!
//! 1. **Progress**: the run completes `n_frames − |dropped|` frames, where
//!    the dropped set is precisely the plan's STM-error frames.
//! 2. **Accounting**: the health ledger equals the injected counts — each
//!    STM drop, cascaded deadline skip, contained worker panic, and regime
//!    clamp is counted once, and nothing else is.
//! 3. **Bit-identity**: every frame the plan did not drop produces model
//!    locations identical to an uninjected run of the same configuration.
//!    Absorbed faults (sub-budget delays, contained panics, misreads) must
//!    be invisible in the output.
//!
//! ## Host-load starvation vs. genuine failures
//!
//! These are wall-clock tests: a loaded host can starve a stage thread past
//! the frame deadline and drop frames the plan never planned. The PR 6 era
//! answer was to keep widening the budget (250 ms → 750 ms → 60 s), which
//! buried the signal: a real hang and a starved run became
//! indistinguishable until the giant budget elapsed. The root cause is that
//! an *unplanned* drop has a distinct ledger signature — more
//! `deadline_skips` than the plan's cascade predicts, or any
//! `stm_put_drops` at all — which a genuine accounting bug (a planned fault
//! that failed to fire or count) never produces. So the harness keeps the
//! tight 250 ms budget, classifies each run with [`starvation_evidence`],
//! and retries (bounded, with a printed diagnosis) only when the ledger
//! proves the run was starved, failing loudly otherwise.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use runtime::{
    FaultInjector, FaultPlan, HealthReport, OnlineExecutor, RegimeController, RuntimeError, Stage,
    TrackerApp, TrackerConfig,
};
use vision::ModelLocation;

/// The per-frame deadline budget: tight again (the pre-PR 6 value).
///
/// Dropped-frame completion does not ride this wall clock: a stage that
/// skips a frame marks the timestamp on its output channel
/// (`OutputConn::mark_skipped`), so downstream `Exact(ts)` waiters fail
/// immediately with a load-independent signal and the cascade settles in
/// microseconds. The budget only has to clear one honestly-scheduled stage
/// body; when host load blows it anyway, [`settle`] detects the starvation
/// signature and retries instead of the budget absorbing the load.
const BUDGET: Duration = Duration::from_millis(250);

/// Bounded retries for runs whose ledger shows host-load starvation.
const SETTLE_ATTEMPTS: usize = 3;

fn faulted_cfg(n_frames: u64, faults: Option<Arc<FaultInjector>>) -> TrackerConfig {
    let mut cfg = TrackerConfig::small(2, n_frames);
    cfg.frame_deadline = Some(BUDGET);
    cfg.faults = faults;
    // Exact drop accounting needs flow control out of the picture: with a
    // tight capacity, a downstream stage stalling out its budget on a
    // dropped frame backpressures the digitizer, which can starve *upstream*
    // stages of later frames on the same budget — real behavior, but a
    // wall-clock race, not a planned fault.
    cfg.channel_capacity = n_frames as usize + 2;
    cfg
}

fn pooled_cfg(n_frames: u64, faults: Option<Arc<FaultInjector>>) -> TrackerConfig {
    let mut cfg = faulted_cfg(n_frames, faults);
    cfg.decomposition = (2, 2);
    cfg.pool_workers = 3;
    cfg
}

/// Run `cfg` online and return the sink's full per-frame location log,
/// sorted by timestamp.
fn run_locations(
    cfg: &TrackerConfig,
    controller: Option<Arc<RegimeController>>,
) -> (TrackerApp, Vec<(u64, Vec<ModelLocation>)>) {
    let app = TrackerApp::build(cfg, controller);
    let _ = OnlineExecutor::run(&app, 0);
    let mut locs = app.face.locations();
    locs.sort_by_key(|&(ts, _)| ts);
    (app, locs)
}

/// Classify a run's ledger against its plan: `Some(diagnosis)` when the
/// run shows *unplanned* drops — the signature of host-load starvation
/// (a stage thread descheduled past the deadline), which warrants a retry.
/// `None` for a settled run, **including** one with *fewer* drops than
/// planned: that is an injection/accounting bug, and the test's exact
/// assertions must fail on it rather than a retry masking it.
fn starvation_evidence(h: &HealthReport, plan: &FaultPlan) -> Option<String> {
    let mut evidence = Vec::new();
    if h.deadline_skips > plan.expected_deadline_skips() {
        evidence.push(format!(
            "{} deadline skips vs {} planned",
            h.deadline_skips,
            plan.expected_deadline_skips()
        ));
    }
    if h.stm_get_drops > plan.n_stm_errors() {
        evidence.push(format!(
            "{} stm get drops vs {} planned",
            h.stm_get_drops,
            plan.n_stm_errors()
        ));
    }
    if h.stm_put_drops > 0 {
        evidence.push(format!("{} unplanned stm put drops", h.stm_put_drops));
    }
    (!evidence.is_empty()).then(|| evidence.join(", "))
}

/// Run `attempt` until its ledger settles (no unplanned drops), retrying
/// up to [`SETTLE_ATTEMPTS`] times with a printed diagnosis. Each attempt
/// must build fresh state (injector, controller, app) and hand back
/// whatever the test needs as `extra`. Persistent starvation evidence
/// fails the test — a genuine pipeline stall, not a scheduling blip.
fn settle<T>(
    plan: &FaultPlan,
    mut attempt: impl FnMut() -> (T, TrackerApp, Vec<(u64, Vec<ModelLocation>)>),
) -> (T, TrackerApp, Vec<(u64, Vec<ModelLocation>)>) {
    for round in 1..=SETTLE_ATTEMPTS {
        let (extra, app, locs) = attempt();
        let h = app.health.report();
        match starvation_evidence(&h, plan) {
            None => return (extra, app, locs),
            Some(diag) if round < SETTLE_ATTEMPTS => {
                eprintln!(
                    "faults: attempt {round}/{SETTLE_ATTEMPTS} starved by host load \
                     ({diag}); retrying under the {BUDGET:?} budget"
                );
            }
            Some(diag) => panic!(
                "unplanned drops persisted across {SETTLE_ATTEMPTS} attempts — a stall, \
                 not host-load starvation: {diag}\n{h}"
            ),
        }
    }
    unreachable!("settle returns a settled run or panics in the loop")
}

/// A settled clean (uninjected) baseline for bit-identity comparison.
fn clean_locations(
    cfg: impl Fn() -> TrackerConfig,
    controller: impl Fn() -> Option<Arc<RegimeController>>,
) -> Vec<(u64, Vec<ModelLocation>)> {
    let none = FaultPlan::new();
    let (_, _, locs) = settle(&none, || {
        let (app, locs) = run_locations(&cfg(), controller());
        ((), app, locs)
    });
    locs
}

/// Assert the faulted run's surviving frames match the clean run exactly,
/// and that exactly the planned frames are missing.
fn assert_survivors_bit_identical(
    clean: &[(u64, Vec<ModelLocation>)],
    faulted: &[(u64, Vec<ModelLocation>)],
    plan: &FaultPlan,
    n_frames: u64,
) {
    let dropped = plan.dropped_frames();
    let completed: Vec<u64> = faulted.iter().map(|&(ts, _)| ts).collect();
    let expected: Vec<u64> = (0..n_frames).filter(|ts| !dropped.contains(ts)).collect();
    assert_eq!(completed, expected, "exactly the planned frames drop");
    let clean_survivors: Vec<_> = clean
        .iter()
        .filter(|(ts, _)| !dropped.contains(ts))
        .cloned()
        .collect();
    assert_eq!(
        faulted, &clean_survivors,
        "non-faulted frames must be bit-identical to the clean run"
    );
}

/// The worker pool's panic counter is bumped by the unwinding worker
/// *after* the joiner has already recovered, so it can trail the run's end
/// by a scheduler quantum. Wait on the pool's progress condvar (no
/// polling) before asserting equality.
fn settled_pool_panics(app: &TrackerApp, expect: u64) -> u64 {
    let _ = app.wait_pool_panics(expect, Duration::from_secs(10));
    app.pool_health().expect("pool attached").panics
}

#[test]
fn clean_run_under_deadline_is_clean() {
    let n = 12;
    let none = FaultPlan::new();
    let (_, app, locs) = settle(&none, || {
        let (app, locs) = run_locations(&faulted_cfg(n, None), None);
        ((), app, locs)
    });
    assert_eq!(locs.len() as u64, n);
    let h = app.health.report();
    assert!(h.is_clean(), "no faults, no drops: {h}");
}

#[test]
fn stm_errors_drop_exactly_the_planned_frames() {
    let n = 12;
    let clean = clean_locations(|| faulted_cfg(n, None), || None);

    // One early-stage error (cascades 3 skips) and one sink error (0).
    let plan = FaultPlan::new()
        .stm_error(Stage::Histogram, 3)
        .stm_error(Stage::Face, 8);
    let (inj, app, faulted) = settle(&plan, || {
        let inj = plan.clone().build();
        let (app, locs) = run_locations(&faulted_cfg(n, Some(Arc::clone(&inj))), None);
        (inj, app, locs)
    });

    assert_survivors_bit_identical(&clean, &faulted, &plan, n);
    assert_eq!(inj.injected().stm_errors, plan.n_stm_errors());
    let h = app.health.report();
    assert_eq!(h.stm_get_drops, plan.n_stm_errors(), "one drop per error");
    assert_eq!(
        h.deadline_skips,
        plan.expected_deadline_skips(),
        "a Histogram drop starves Detect, Peak and Face exactly once each"
    );
    assert_eq!(h.stm_put_drops, 0);
    assert_eq!(h.chunk_recomputes, 0);
}

#[test]
fn worker_panics_are_contained_and_output_unchanged() {
    let n = 10;
    let clean = clean_locations(|| pooled_cfg(n, None), || None);

    let plan = FaultPlan::new().panic_job(2).panic_job(7).panic_job(11);
    let (inj, app, faulted) = settle(&plan, || {
        let inj = plan.clone().build();
        let (app, locs) = run_locations(&pooled_cfg(n, Some(Arc::clone(&inj))), None);
        (inj, app, locs)
    });

    // Panics drop no frames: the joiner recomputes each lost chunk inline.
    assert_survivors_bit_identical(&clean, &faulted, &plan, n);
    assert_eq!(
        inj.injected().panics,
        plan.n_panics(),
        "every planned ordinal fired"
    );
    let h = app.health.report();
    assert_eq!(
        h.chunk_recomputes,
        plan.n_panics(),
        "exactly one inline recompute per contained panic"
    );
    assert_eq!(h.stm_get_drops, 0);
    assert_eq!(h.deadline_skips, 0);
    let panics = settled_pool_panics(&app, plan.n_panics());
    assert_eq!(
        panics,
        plan.n_panics(),
        "pool ledger counts each containment"
    );
    let ph = app.pool_health().expect("pool attached");
    assert_eq!(ph.inline_fallbacks, 0, "every chunk was served by a worker");
}

#[test]
fn sub_budget_delays_are_absorbed_bit_identically() {
    let n = 10;
    let clean = clean_locations(|| faulted_cfg(n, None), || None);

    let plan = FaultPlan::new()
        .delay(Stage::Digitizer, 2, Duration::from_millis(3))
        .delay(Stage::Detect, 5, Duration::from_millis(4))
        .delay(Stage::Peak, 7, Duration::from_millis(2));
    let (inj, app, faulted) = settle(&plan, || {
        let inj = plan.clone().build();
        let (app, locs) = run_locations(&faulted_cfg(n, Some(Arc::clone(&inj))), None);
        (inj, app, locs)
    });

    assert_survivors_bit_identical(&clean, &faulted, &plan, n);
    assert_eq!(inj.injected().delays, plan.n_delays());
    let h = app.health.report();
    assert!(h.is_clean(), "sub-budget stragglers leave no trace: {h}");
}

#[test]
fn a_stall_past_the_budget_costs_only_the_stalled_frames() {
    // T2 sleeps 2.5 budgets before frame 4. The watchdog overtakes it: T4
    // and T5 each give up on a frame once per budget, in step, so by the
    // time T2 wakes the frames inside the stall are gone and its own late
    // puts are rejected — that much is the plan. What must not happen is
    // T4 sitting on a frame it has already given up on (T5's clock keeps
    // running): its next frame's scores would then arrive after T5 moved
    // past them and be rejected too.
    let n = 12;
    let stalled = 4u64;
    let clean = clean_locations(|| faulted_cfg(n, None), || None);

    let inj = FaultPlan::new()
        .delay(Stage::Histogram, stalled, BUDGET * 5 / 2)
        .build();
    let (app, faulted) = run_locations(&faulted_cfg(n, Some(Arc::clone(&inj))), None);
    assert_eq!(inj.injected().delays, 1);

    let missing: Vec<u64> = (0..n)
        .filter(|ts| !faulted.iter().any(|(t, _)| t == ts))
        .collect();
    assert!(missing.contains(&stalled), "the stalled frame drops");
    assert!(
        missing.iter().all(|ts| (stalled..stalled + 3).contains(ts)),
        "only frames inside the stall drop: {missing:?}"
    );
    let clean_survivors: Vec<_> = clean
        .iter()
        .filter(|(ts, _)| !missing.contains(ts))
        .cloned()
        .collect();
    assert_eq!(faulted, clean_survivors, "survivors are bit-identical");
    let foreign_put_drops: Vec<_> = app
        .health
        .faults()
        .into_iter()
        .filter(|f| matches!(f, RuntimeError::StmPut { stage, .. } if *stage != Stage::Histogram))
        .collect();
    assert!(
        foreign_put_drops.is_empty(),
        "only the straggler's own late puts are rejected: {foreign_put_drops:?}"
    );
}

#[test]
fn misreads_lie_to_the_controller_but_not_the_output() {
    let n = 12;
    // Regime table starting at 1: a misread of 0 lies below every entry.
    let table: BTreeMap<u32, (u32, u32)> = [(1, (2, 1)), (3, (1, 2))].into_iter().collect();
    let controller = || Arc::new(RegimeController::new(2, 1, table.clone()).unwrap());

    let clean = clean_locations(|| faulted_cfg(n, None), || Some(controller()));

    let plan = FaultPlan::new().misread(4, 9).misread(7, 0);
    let ((inj, ctl), app, faulted) = settle(&plan, || {
        let inj = plan.clone().build();
        let ctl = controller();
        let (app, locs) = run_locations(
            &faulted_cfg(n, Some(Arc::clone(&inj))),
            Some(Arc::clone(&ctl)),
        );
        ((inj, ctl), app, locs)
    });

    // Misreads drop nothing and change nothing downstream: the sink logs
    // the true detections; only the controller hears the lie.
    assert_survivors_bit_identical(&clean, &faulted, &plan, n);
    assert_eq!(inj.injected().misreads, plan.n_misreads());
    let h = app.health.report();
    assert_eq!(h.total_drops(), 0, "misreads never drop frames: {h}");
    // The out-of-table misread (0, below every entry) was confirmed
    // immediately (confirm_after = 1) and clamped instead of panicking —
    // counted on the controller AND surfaced in the run's health ledger.
    assert_eq!(ctl.clamps(), 1, "misread below the table clamps once");
    assert_eq!(h.regime_clamps, 1, "the clamp reaches the health report");
}

#[test]
fn seeded_fault_mix_accounts_exactly() {
    let n = 24;
    let clean = clean_locations(|| pooled_cfg(n, None), || None);

    let plan = FaultPlan::seeded(0xC0DE, n, 3, 2, 2, 0, Duration::from_millis(3));
    let (inj, app, faulted) = settle(&plan, || {
        let inj = plan.clone().build();
        let (app, locs) = run_locations(&pooled_cfg(n, Some(Arc::clone(&inj))), None);
        (inj, app, locs)
    });

    assert_survivors_bit_identical(&clean, &faulted, &plan, n);

    let got = inj.injected();
    assert_eq!(
        got.stm_errors,
        plan.n_stm_errors(),
        "all planned errors fired"
    );
    assert_eq!(got.delays, plan.n_delays());
    assert_eq!(got.panics, plan.n_panics(), "all planned ordinals reached");

    let h = app.health.report();
    assert_eq!(h.stm_get_drops, plan.n_stm_errors());
    assert_eq!(h.deadline_skips, plan.expected_deadline_skips());
    assert_eq!(h.chunk_recomputes, plan.n_panics());
    assert_eq!(h.stm_put_drops, 0);
    assert_eq!(h.chunk_mismatches, 0);
    assert_eq!(settled_pool_panics(&app, plan.n_panics()), plan.n_panics());
}

#[test]
fn starvation_evidence_separates_host_load_from_genuine_bugs() {
    // The classifier behind the retry loop (the regression for the PR 6
    // budget-bump flake): only *unplanned* drops count as starvation.
    let plan = FaultPlan::new().stm_error(Stage::Histogram, 3); // cascades 3 skips
    let planned = HealthReport {
        stm_get_drops: plan.n_stm_errors(),
        deadline_skips: plan.expected_deadline_skips(),
        ..HealthReport::default()
    };
    assert_eq!(
        starvation_evidence(&planned, &plan),
        None,
        "a run matching its plan exactly is settled"
    );

    // Extra deadline skips: a stage thread starved past the budget.
    let mut starved = planned;
    starved.deadline_skips += 1;
    let diag = starvation_evidence(&starved, &plan).expect("unplanned skip is starvation");
    assert!(
        diag.contains("deadline skips"),
        "diagnosis names the signal: {diag}"
    );

    // Any late-put drop is unplanned by construction.
    let mut late_put = planned;
    late_put.stm_put_drops = 2;
    assert!(starvation_evidence(&late_put, &plan).is_some());

    // Unplanned get drops (an upstream stage timed out reading its input).
    let mut extra_get = planned;
    extra_get.stm_get_drops += 1;
    assert!(starvation_evidence(&extra_get, &plan).is_some());

    // FEWER drops than planned is NOT starvation: the injector failed to
    // fire — retrying would mask a real bug, so the exact asserts must see it.
    let missing_fault = HealthReport {
        stm_get_drops: 0,
        deadline_skips: 0,
        ..HealthReport::default()
    };
    assert_eq!(starvation_evidence(&missing_fault, &plan), None);

    // And a clean run against an empty plan is settled.
    assert_eq!(
        starvation_evidence(&HealthReport::default(), &FaultPlan::new()),
        None
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The harness's headline property: *whatever* the fault schedule, the
    /// frames it does not drop are bit-identical to an uninjected run, and
    /// the ledger accounts for every injected fault exactly.
    #[test]
    fn randomized_fault_schedules_never_change_surviving_frames(
        seed in 0u64..1_000_000,
        n_stm in 0usize..3,
        n_delays in 0usize..3,
        n_panics in 0usize..3,
    ) {
        let n = 10;
        let plan = FaultPlan::seeded(seed, n, n_stm, n_delays, n_panics, 0,
            Duration::from_millis(2));

        let clean = clean_locations(|| pooled_cfg(n, None), || None);
        let (inj, app, faulted) = settle(&plan, || {
            let inj = plan.clone().build();
            let (app, locs) = run_locations(&pooled_cfg(n, Some(Arc::clone(&inj))), None);
            (inj, app, locs)
        });

        assert_survivors_bit_identical(&clean, &faulted, &plan, n);
        let h = app.health.report();
        prop_assert_eq!(h.stm_get_drops, plan.n_stm_errors());
        prop_assert_eq!(h.deadline_skips, plan.expected_deadline_skips());
        prop_assert_eq!(h.chunk_recomputes, plan.n_panics());
        prop_assert_eq!(inj.injected().stm_errors, plan.n_stm_errors());
        prop_assert_eq!(inj.injected().panics, plan.n_panics());
    }
}
