//! §3.4 extension experiment — constrained dynamism end to end: a kiosk
//! customer process (Poisson arrivals, exponential dwell) drives the true
//! state; we compare scheduling strategies over the same frame stream:
//!
//! * `static-1` / `static-max` — one fixed precomputed schedule;
//! * `regime-cutover` / `regime-drain` — the paper's proposal (debounced
//!   detection + table lookup), under both transition policies;
//! * `oracle` — instant, error-free state knowledge (lower bound).

use cds_core::optimal::OptimalConfig;
use cds_core::switcher::{
    simulate_regime_switched, ScheduleStrategy, SwitchConfig, TransitionPolicy,
};
use cds_core::table::ScheduleTable;
use cluster::sweep::{sweep, SweepConfig};
use cluster::{ClusterSpec, FrameClock, OnlineConfig, SimArena, StateTrack, TraceMode};
use kiosk_bench::{csv_line, print_table, run_checks};
use taskgraph::{builders, AppState, Decomposition, Micros};
use vision::kiosk::generate_visits;
use vision::{occupancy_track, KioskConfig};

pub(crate) fn run() {
    let graph = builders::color_tracker();
    let cluster = ClusterSpec::single_node(4);

    println!("Regime switching under a dynamic customer process (paper §3.4)");

    // Customer process: ~600 frames, up to 5 people.
    let kiosk = KioskConfig {
        mean_interarrival_frames: 60.0,
        mean_dwell_frames: 180.0,
        max_people: 5,
        n_frames: 600,
        seed: 20260706,
    };
    let visits = generate_visits(&kiosk);
    let occ = occupancy_track(&visits, kiosk.n_frames);
    let track = StateTrack::from_changes(occ.iter().map(|&(f, n)| (f, AppState::new(n))).collect());
    println!(
        "workload: {} visits, {} regime transitions over {} frames, occupancy 0..={}",
        visits.len(),
        track.n_transitions(),
        kiosk.n_frames,
        occ.iter().map(|&(_, n)| n).max().unwrap_or(0)
    );

    // Precompute the table over the regime set (plus 0 = idle).
    let states: Vec<AppState> = (0..=5u32).map(AppState::new).collect();
    let table = ScheduleTable::precompute(
        &graph,
        &cluster,
        &states,
        &OptimalConfig::default().serial(),
    );
    println!("schedule table: {} entries", table.len());

    let strategies: Vec<(&str, ScheduleStrategy)> = vec![
        ("static-1", ScheduleStrategy::Static(AppState::new(1))),
        ("static-max", ScheduleStrategy::Static(AppState::new(5))),
        (
            "regime-cutover",
            ScheduleStrategy::RegimeTable {
                confirm_after: 3,
                policy: TransitionPolicy::CutOver,
            },
        ),
        (
            "regime-drain",
            ScheduleStrategy::RegimeTable {
                confirm_after: 3,
                policy: TransitionPolicy::Drain,
            },
        ),
        ("oracle", ScheduleStrategy::Oracle),
    ];

    let mut rows = Vec::new();

    // Baseline 0: the general online scheduler facing the same dynamic
    // environment, with one fixed decomposition (a tuner's best guess).
    {
        let t4 = graph.task_by_name("Target Detection").unwrap();
        let mut cfg = OnlineConfig::new(
            FrameClock::new(Micros::from_millis(500), kiosk.n_frames),
            AppState::new(2),
        );
        cfg.state_track = Some(track.clone());
        cfg.decomposition.insert(t4, Decomposition::new(1, 4));
        cfg.warmup_frames = 4;
        cfg.trace_mode = TraceMode::Off;
        let mut arena = SimArena::new();
        let out = arena.simulate(&graph, &cluster, &cfg);
        rows.push(vec![
            "online (pthread)".to_string(),
            format!("{:.3}", out.metrics.mean_latency.as_secs_f64()),
            format!("{:.3}", out.metrics.max_latency.as_secs_f64()),
            format!("{:.3}", out.metrics.throughput_hz),
            "-".to_string(),
            "-".to_string(),
        ]);
        csv_line(&[
            "regime_switch".to_string(),
            "online".to_string(),
            format!("{:.4}", out.metrics.mean_latency.as_secs_f64()),
            format!("{:.4}", out.metrics.throughput_hz),
            "-".to_string(),
            "-".to_string(),
        ]);
    }

    // The five strategies are independent runs over the same frame stream:
    // sweep them in parallel, results in strategy order.
    let swept = sweep(SweepConfig::new(), strategies, |_, _, (name, strategy)| {
        let cfg = SwitchConfig {
            clock: FrameClock::new(Micros::from_millis(500), kiosk.n_frames),
            strategy,
            warmup_frames: 4,
        };
        (
            name,
            simulate_regime_switched(&graph, &cluster, &table, &track, &cfg),
        )
    });
    eprintln!("strategy sweep: {}", swept.stats);
    for (name, out) in &swept.results {
        rows.push(vec![
            name.to_string(),
            format!("{:.3}", out.metrics.mean_latency.as_secs_f64()),
            format!("{:.3}", out.metrics.max_latency.as_secs_f64()),
            format!("{:.3}", out.metrics.throughput_hz),
            out.switches.len().to_string(),
            out.mismatch_frames.to_string(),
        ]);
        csv_line(&[
            "regime_switch".to_string(),
            name.to_string(),
            format!("{:.4}", out.metrics.mean_latency.as_secs_f64()),
            format!("{:.4}", out.metrics.throughput_hz),
            out.switches.len().to_string(),
            out.mismatch_frames.to_string(),
        ]);
    }
    print_table(
        "Strategies over the same customer process",
        &[
            "strategy",
            "mean latency (s)",
            "max latency (s)",
            "throughput (1/s)",
            "switches",
            "mismatched frames",
        ],
        &rows,
    );

    // Row indices: 0 online, 1 static-1, 2 static-max, 3 regime-cutover,
    // 4 regime-drain, 5 oracle.
    let lat = |i: usize| rows[i][1].parse::<f64>().unwrap();
    println!("\nshape checks:");
    let checks = [
        (
            "regime switching beats both static schedules on mean latency",
            lat(3) < lat(1) && lat(3) < lat(2),
        ),
        (
            "regime switching beats the online scheduler",
            lat(3) < lat(0),
        ),
        (
            "regime switching is within 40% of the oracle",
            lat(3) < lat(5) * 1.4,
        ),
        (
            "mismatch exposure is a small fraction of the run",
            rows[3][5].parse::<u64>().unwrap() * 4 < kiosk.n_frames,
        ),
    ];
    run_checks(&checks);
}
