//! The scheduled executor: one master thread per modeled processor, each
//! interpreting its precomputed placement sequence — the implementation
//! option of §3.3 ("one might generate a master for each processor that
//! controls its pre-computed processor-specific schedule").
//!
//! Masters never synchronize with each other directly: a placement's
//! dependences are enforced by its blocking STM gets, so executing
//! placements in schedule order on each processor realizes exactly the
//! planned partial order. Processor rotation (the Fig. 5(a) wrap-around) is
//! applied per iteration, so master `m` executes, at iteration `k`, the
//! placements whose rotated processor equals `m`.

use std::sync::Arc;

use cds_core::schedule::PipelinedSchedule;
use stm::Timestamp;

use crate::app::TrackerApp;
use crate::measure::RunStats;

/// Runs a [`TrackerApp`] under an explicit pipelined schedule.
pub struct ScheduledExecutor;

impl ScheduledExecutor {
    /// Execute all frames under `sched`. The app's fixed decomposition must
    /// match the schedule's (the chunk counts are asserted inside T4).
    /// Returns wall-clock statistics (excluding `warmup` frames).
    #[must_use]
    pub fn run(app: &TrackerApp, sched: &PipelinedSchedule, warmup: usize) -> RunStats {
        // INVARIANT: startup precondition on the *schedule*, checked once
        // before any frame flows — never on the steady-state frame path.
        assert!(
            sched.find_collision().is_none(),
            "refusing to execute a colliding schedule"
        );
        let n_frames = app.n_frames;
        let n_procs = sched.n_procs;
        app.widen_for_schedule();

        // Per-virtual-processor placement sequences, in start order.
        let mut by_vproc: Vec<Vec<usize>> = vec![Vec::new(); n_procs as usize];
        for (i, p) in sched.iteration.placements.iter().enumerate() {
            by_vproc[p.proc.0 as usize].push(i);
        }
        for seq in &mut by_vproc {
            seq.sort_by_key(|&i| (sched.iteration.placements[i].start, i));
        }

        std::thread::scope(|scope| {
            for m in 0..n_procs {
                let by_vproc = &by_vproc;
                let tasks = &app.tasks;
                std::thread::Builder::new()
                    .name(format!("master-{m}"))
                    .spawn_scoped(scope, move || {
                        // Tasks whose stream has ended (failure injection /
                        // early close): skip their placements so the rest of
                        // the schedule keeps draining.
                        let mut stopped = vec![false; tasks.len()];
                        for k in 0..n_frames {
                            // The virtual processor this master plays at
                            // iteration k: proc_of(v, k) == m.
                            let v = ((u64::from(m) + u64::from(n_procs) * k
                                - (k * u64::from(sched.rotation)) % u64::from(n_procs))
                                % u64::from(n_procs)) as usize;
                            for &i in &by_vproc[v] {
                                let p = &sched.iteration.placements[i];
                                if stopped[p.task.0] {
                                    continue;
                                }
                                let body = Arc::clone(&tasks[p.task.0]);
                                if body.process(Timestamp(k), p.chunk).is_err() {
                                    stopped[p.task.0] = true;
                                }
                            }
                            if stopped.iter().all(|&s| s) {
                                return;
                            }
                        }
                    })
                    // INVARIANT: startup-only (before any frame flows), not
                    // on the steady-state frame path.
                    .expect("spawn master thread at startup");
            }
        });
        app.measure.stats(warmup)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::TrackerConfig;
    use crate::exec_online::OnlineExecutor;
    use cds_core::optimal::{optimal_schedule, OptimalConfig};
    use cds_core::pipeline::naive_pipeline;
    use cluster::ClusterSpec;
    use taskgraph::{builders, AppState};

    #[test]
    fn pipeline_schedule_executes_correctly() {
        let g = builders::color_tracker();
        let c = ClusterSpec::single_node(2);
        let sched = naive_pipeline(&g, &c, &AppState::new(2));
        let app = TrackerApp::build(&TrackerConfig::small(2, 5), None);
        let stats = ScheduledExecutor::run(&app, &sched, 0);
        assert_eq!(stats.frames_completed, 5);
        let mut seen: Vec<u64> = app.face.observations().iter().map(|&(ts, _)| ts).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..5).collect::<Vec<_>>());
    }

    #[test]
    fn optimal_schedule_with_chunks_executes_correctly() {
        let g = builders::color_tracker();
        let c = ClusterSpec::single_node(4);
        let state = AppState::new(4);
        let r = optimal_schedule(&g, &c, &state, &OptimalConfig::default());
        // Configure the app's fixed decomposition to match the schedule.
        let t4 = g.task_by_name("Target Detection").unwrap();
        let decomp = r
            .best
            .iteration
            .decomp
            .get(&t4)
            .copied()
            .unwrap_or(taskgraph::Decomposition::NONE);
        let mut cfg = TrackerConfig::small(4, 5);
        cfg.decomposition = (decomp.fp, decomp.mp);
        cfg.channel_capacity = 2 + r.best.overlapping_iterations() as usize;
        let app = TrackerApp::build(&cfg, None);
        let stats = ScheduledExecutor::run(&app, &r.best, 0);
        assert_eq!(stats.frames_completed, 5);
    }

    #[test]
    fn scheduled_results_match_online_results() {
        // Same frames, same detections, regardless of execution strategy.
        let g = builders::color_tracker();
        let c = ClusterSpec::single_node(3);
        let sched = naive_pipeline(&g, &c, &AppState::new(2));

        let online = TrackerApp::build(&TrackerConfig::small(2, 4), None);
        let _ = OnlineExecutor::run(&online, 0);
        let scheduled = TrackerApp::build(&TrackerConfig::small(2, 4), None);
        let _ = ScheduledExecutor::run(&scheduled, &sched, 0);

        let mut a = online.face.observations();
        let mut b = scheduled.face.observations();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);

        // The scheduled run traded the one-slot memory bound on "Back
        // Projections" for the configured capacity; the online run kept it.
        let scores_cap = |app: &TrackerApp| {
            app.channel_checks(0)
                .into_iter()
                .find(|c| c.name == "Back Projections")
                .map(|c| c.capacity)
        };
        let configured = TrackerConfig::small(2, 4).channel_capacity as u32;
        assert!(configured > 1);
        assert_eq!(scores_cap(&scheduled), Some(configured));
        assert_eq!(scores_cap(&online), Some(1));
    }

    #[test]
    fn rotation_mapping_covers_every_placement_once() {
        // Pure mapping check: for each iteration, the union over masters of
        // executed placements equals the placement set.
        let g = builders::color_tracker();
        let c = ClusterSpec::single_node(3);
        let sched = naive_pipeline(&g, &c, &AppState::new(1));
        let n_procs = sched.n_procs;
        for k in 0..7u64 {
            let mut covered = vec![false; sched.iteration.placements.len()];
            for m in 0..n_procs {
                let v = ((u64::from(m) + u64::from(n_procs) * k
                    - (k * u64::from(sched.rotation)) % u64::from(n_procs))
                    % u64::from(n_procs)) as u32;
                for (i, p) in sched.iteration.placements.iter().enumerate() {
                    if p.proc.0 == v {
                        assert_eq!(sched.proc_of(p, k).0, m, "mapping inverse");
                        covered[i] = true;
                    }
                }
            }
            assert!(covered.iter().all(|&c| c), "iteration {k} incomplete");
        }
    }
}
