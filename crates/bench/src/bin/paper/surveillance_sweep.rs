//! Cross-validation on the second application: the paper claims a *class*
//! ("surveillance, autonomous agents, and intelligent vehicles and rooms"),
//! so the constrained-dynamism machinery must transfer beyond the kiosk.
//! This harness repeats the regime-switching experiment on the two-camera
//! surveillance graph.

use cds_core::optimal::OptimalConfig;
use cds_core::switcher::{
    simulate_regime_switched, ScheduleStrategy, SwitchConfig, TransitionPolicy,
};
use cds_core::table::ScheduleTable;
use cluster::sweep::{sweep, SweepConfig};
use cluster::{ClusterSpec, FrameClock, StateTrack};
use kiosk_bench::{csv_line, print_table, run_checks};
use taskgraph::{builders, AppState, Micros};
use vision::kiosk::generate_visits;
use vision::{occupancy_track, KioskConfig};

pub(crate) fn run() {
    let graph = builders::stereo_surveillance();
    let cluster = ClusterSpec::single_node(4);
    println!("Regime switching on the surveillance graph (application class cross-check)");

    // Subjects wander through the monitored area.
    let process = KioskConfig {
        mean_interarrival_frames: 50.0,
        mean_dwell_frames: 160.0,
        max_people: 4,
        n_frames: 500,
        seed: 7_777,
    };
    let visits = generate_visits(&process);
    let occ = occupancy_track(&visits, process.n_frames);
    let track = StateTrack::from_changes(occ.iter().map(|&(f, n)| (f, AppState::new(n))).collect());
    println!(
        "workload: {} visits, {} transitions, occupancy 0..={}",
        visits.len(),
        track.n_transitions(),
        occ.iter().map(|&(_, n)| n).max().unwrap_or(0)
    );

    let states: Vec<AppState> = (0..=4u32).map(AppState::new).collect();
    let cfg = OptimalConfig {
        max_nodes: 20_000,
        max_schedules: 8,
        ..OptimalConfig::default().serial()
    };
    let table = ScheduleTable::precompute(&graph, &cluster, &states, &cfg);
    println!("\nper-regime schedules:");
    for s in table.states() {
        let sched = table.get(&s).unwrap();
        println!(
            "  {s}: latency {} II {} decomp {:?}",
            sched.iteration.latency,
            sched.ii,
            sched.iteration.decomp.values().collect::<Vec<_>>()
        );
    }

    // Independent strategy runs over the same subject process: sweep them
    // in parallel, results in strategy order.
    let strategies = vec![
        ("static-0", ScheduleStrategy::Static(AppState::new(0))),
        ("static-max", ScheduleStrategy::Static(AppState::new(4))),
        (
            "regime-cutover",
            ScheduleStrategy::RegimeTable {
                confirm_after: 3,
                policy: TransitionPolicy::CutOver,
            },
        ),
        ("oracle", ScheduleStrategy::Oracle),
    ];
    let swept = sweep(SweepConfig::new(), strategies, |_, _, (name, strategy)| {
        let out = simulate_regime_switched(
            &graph,
            &cluster,
            &table,
            &track,
            &SwitchConfig {
                clock: FrameClock::new(Micros::from_millis(300), process.n_frames),
                strategy,
                warmup_frames: 4,
            },
        );
        (name, out)
    });
    eprintln!("strategy sweep: {}", swept.stats);
    let mut rows = Vec::new();
    for (name, out) in &swept.results {
        rows.push(vec![
            name.to_string(),
            format!("{:.3}", out.metrics.mean_latency.as_secs_f64()),
            format!("{:.3}", out.metrics.p95_latency.as_secs_f64()),
            format!("{:.3}", out.metrics.throughput_hz),
            out.switches.len().to_string(),
            out.mismatch_frames.to_string(),
        ]);
        csv_line(&[
            "surveillance_sweep".to_string(),
            name.to_string(),
            format!("{:.4}", out.metrics.mean_latency.as_secs_f64()),
            format!("{:.4}", out.metrics.throughput_hz),
            out.mismatch_frames.to_string(),
        ]);
    }
    print_table(
        "Strategies over the same subject process (surveillance graph)",
        &[
            "strategy",
            "mean latency (s)",
            "p95 latency (s)",
            "throughput (1/s)",
            "switches",
            "mismatched frames",
        ],
        &rows,
    );

    let lat = |i: usize| rows[i][1].parse::<f64>().unwrap();
    println!("\nshape checks:");
    let checks = [
        (
            "regime switching beats both static schedules",
            lat(2) < lat(0) && lat(2) < lat(1),
        ),
        (
            "regime switching within 40% of oracle",
            lat(2) < lat(3) * 1.4,
        ),
    ];
    run_checks(&checks);
}
