//! Hand-tuning methodology (§3.1): sweep the digitizer period under the
//! online scheduler and record the latency/throughput trade-off — the
//! tuning curve of Fig. 3. "The tuning curve was obtained by plotting the
//! measured latency and throughput as the digitizer period varied from 33 ms
//! to 5 seconds."

use cluster::sweep::{sweep, SweepConfig, SweepStats};
use cluster::{ClusterSpec, FrameClock, Metrics, OnlineConfig, TraceMode};
use taskgraph::{Micros, TaskGraph};

/// One point of the tuning curve.
#[derive(Clone, Debug)]
pub struct TuningPoint {
    /// The digitizer period used.
    pub period: Micros,
    /// Metrics of the run at that period.
    pub metrics: Metrics,
}

/// Run the online scheduler at each period in `periods`, holding everything
/// else in `template` fixed.
///
/// Points come back in `periods` order regardless of worker scheduling;
/// traces are not recorded (metrics are mode-invariant), so this is the
/// cheapest way to regenerate Fig. 3.
#[must_use]
pub fn tuning_curve(
    graph: &TaskGraph,
    cluster: &ClusterSpec,
    template: &OnlineConfig,
    periods: &[Micros],
) -> Vec<TuningPoint> {
    tuning_curve_stats(graph, cluster, template, periods, SweepConfig::new()).0
}

/// [`tuning_curve`] with explicit sweep control, also returning the sweep's
/// wall-clock stats (for `paper fig3`'s sweep wall-clock lines on stderr).
#[must_use]
pub fn tuning_curve_stats(
    graph: &TaskGraph,
    cluster: &ClusterSpec,
    template: &OnlineConfig,
    periods: &[Micros],
    sweep_cfg: SweepConfig,
) -> (Vec<TuningPoint>, SweepStats) {
    let inputs: Vec<(Micros, OnlineConfig)> = periods
        .iter()
        .map(|&period| {
            let mut cfg = template.clone();
            cfg.clock = FrameClock::new(period, template.clock.n_frames);
            cfg.trace_mode = TraceMode::Off;
            (period, cfg)
        })
        .collect();
    let out = sweep(sweep_cfg, inputs, |arena, _i, (period, cfg)| {
        let summary = arena.simulate(graph, cluster, &cfg);
        TuningPoint {
            period,
            metrics: summary.metrics,
        }
    });
    (out.results, out.stats)
}

/// The paper's sweep: 33 ms to 5 s "in steps of approximately one second".
#[must_use]
pub fn paper_periods() -> Vec<Micros> {
    let mut v = vec![Micros::from_millis(33)];
    for s in 1..=5u64 {
        v.push(Micros::from_secs(s));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskgraph::{builders, AppState, Decomposition};

    #[test]
    fn paper_periods_span_33ms_to_5s() {
        let p = paper_periods();
        assert_eq!(p.first().copied(), Some(Micros::from_millis(33)));
        assert_eq!(p.last().copied(), Some(Micros::from_secs(5)));
        assert!(p.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn curve_trades_latency_for_throughput() {
        let g = builders::color_tracker();
        let c = ClusterSpec::single_node(4);
        let t4 = g.task_by_name("Target Detection").unwrap();
        let mut template = OnlineConfig::new(
            FrameClock::new(Micros::from_millis(33), 24),
            AppState::new(8),
        );
        template.decomposition.insert(t4, Decomposition::new(1, 8));
        let points = tuning_curve(
            &g,
            &c,
            &template,
            &[Micros::from_millis(33), Micros::from_secs(5)],
        );
        assert_eq!(points.len(), 2);
        let fast = &points[0].metrics;
        let slow = &points[1].metrics;
        // Saturated: higher latency AND higher throughput (upper-right of
        // Fig. 3); unloaded: lower latency, lower throughput (lower-left).
        assert!(fast.mean_latency > slow.mean_latency);
        assert!(fast.throughput_hz > slow.throughput_hz);
    }
}
