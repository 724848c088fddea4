//! The schedule table: "We pre-compute the optimal schedule for each of the
//! states. The actions required on a state change are: perform a table
//! look-up to determine the new schedule for the new state; perform a
//! transition to the new schedule." (§3.4)
//!
//! "The fact that there are a small number of states means that
//! pre-computing an optimized schedule for each state is reasonable."

use std::collections::BTreeMap;

use cluster::ClusterSpec;
use taskgraph::{AppState, TaskGraph};

use crate::optimal::{optimal_schedule, OptimalConfig};
use crate::persist::{schedule_cache_key, CacheMiss, ScheduleCache};
use crate::schedule::PipelinedSchedule;

/// How each entry of a cache-assisted table build was obtained.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TableBuildStats {
    /// Entries served from the persistent cache without searching.
    pub cache_hits: usize,
    /// Entries searched because the cache had nothing for their key.
    pub cache_misses: usize,
    /// Entries searched because a cache entry existed but failed
    /// validation (and was deleted).
    pub cache_invalidated: usize,
    /// Total branch-and-bound nodes explored by the searches that ran.
    pub nodes_explored: u64,
}

impl TableBuildStats {
    /// Number of states that required a branch-and-bound search.
    #[must_use]
    pub fn searched(&self) -> usize {
        self.cache_misses + self.cache_invalidated
    }
}

fn key(s: &AppState) -> (u32, u32) {
    (s.n_models, s.aux)
}

/// A precomputed state → schedule map.
///
/// ```
/// use cds_core::optimal::OptimalConfig;
/// use cds_core::table::ScheduleTable;
/// use cluster::ClusterSpec;
/// use taskgraph::{builders, AppState};
///
/// let graph = builders::color_tracker();
/// let cluster = ClusterSpec::single_node(4);
/// let states = [AppState::new(1), AppState::new(4)];
/// let table = ScheduleTable::precompute(&graph, &cluster, &states, &OptimalConfig::default());
/// // A small state change alters the strategy dramatically:
/// let s1 = table.get(&AppState::new(1)).unwrap();
/// let s4 = table.get(&AppState::new(4)).unwrap();
/// assert_ne!(s1.iteration.decomp, s4.iteration.decomp);
/// ```
#[derive(Clone, Debug)]
pub struct ScheduleTable {
    entries: BTreeMap<(u32, u32), (AppState, PipelinedSchedule)>,
}

impl ScheduleTable {
    /// Precompute optimal schedules for every state in `states`. This is
    /// the offline phase; it may take seconds per state — amortized over
    /// "months" of operation, per the paper.
    #[must_use]
    pub fn precompute(
        graph: &TaskGraph,
        cluster: &ClusterSpec,
        states: &[AppState],
        cfg: &OptimalConfig,
    ) -> Self {
        Self::precompute_with_cache(graph, cluster, states, cfg, None).0
    }

    /// [`ScheduleTable::precompute`], consulting a persistent
    /// [`ScheduleCache`] first: states whose key is cached (and validates)
    /// skip the search entirely; misses are searched and the result stored
    /// back, so the next build of the same table is pure I/O.
    #[must_use]
    pub fn precompute_with_cache(
        graph: &TaskGraph,
        cluster: &ClusterSpec,
        states: &[AppState],
        cfg: &OptimalConfig,
        cache: Option<&ScheduleCache>,
    ) -> (Self, TableBuildStats) {
        let mut entries = BTreeMap::new();
        let mut stats = TableBuildStats::default();
        for s in states {
            if let Some(cache) = cache {
                let k = schedule_cache_key(graph, cluster, s, cfg);
                match cache.load(k, graph, cluster, s) {
                    Ok(sched) => {
                        stats.cache_hits += 1;
                        entries.insert(key(s), (*s, sched));
                        continue;
                    }
                    Err(CacheMiss::Absent) => stats.cache_misses += 1,
                    Err(CacheMiss::Invalidated) => stats.cache_invalidated += 1,
                }
                let result = optimal_schedule(graph, cluster, s, cfg);
                stats.nodes_explored += result.nodes_explored;
                // Persist best-effort: a read-only cache dir degrades to a
                // plain cold build rather than failing the table.
                let _ = cache.store(k, &result.best);
                entries.insert(key(s), (*s, result.best));
            } else {
                stats.cache_misses += 1;
                let result = optimal_schedule(graph, cluster, s, cfg);
                stats.nodes_explored += result.nodes_explored;
                entries.insert(key(s), (*s, result.best));
            }
        }
        (ScheduleTable { entries }, stats)
    }

    /// [`ScheduleTable::precompute`], going through the process-wide
    /// [`SharedScheduleCache`](crate::sharedcache::SharedScheduleCache)
    /// first, then the optional persistent disk cache, then the search.
    ///
    /// This is the fleet build path: when N tenants of the same application
    /// build their tables against the same cluster, the first one to reach
    /// each `(state, key)` runs the search (single-flight) and every other
    /// tenant shares the in-memory result — N tables, one search per state.
    /// Search results are written through to `disk` (best-effort) so the
    /// *next process* is warm too.
    #[must_use]
    pub fn precompute_shared(
        graph: &TaskGraph,
        cluster: &ClusterSpec,
        states: &[AppState],
        cfg: &OptimalConfig,
        shared: &crate::sharedcache::SharedScheduleCache,
        disk: Option<&ScheduleCache>,
    ) -> (Self, TableBuildStats) {
        let mut entries = BTreeMap::new();
        let mut stats = TableBuildStats::default();
        for s in states {
            let k = schedule_cache_key(graph, cluster, s, cfg);
            let mut missed = None;
            let mut nodes = 0;
            let sched = shared.get_or_search(k, || {
                if let Some(disk) = disk {
                    match disk.load(k, graph, cluster, s) {
                        Ok(sched) => return sched,
                        Err(CacheMiss::Absent) => missed = Some(CacheMiss::Absent),
                        Err(CacheMiss::Invalidated) => missed = Some(CacheMiss::Invalidated),
                    }
                } else {
                    missed = Some(CacheMiss::Absent);
                }
                let result = optimal_schedule(graph, cluster, s, cfg);
                nodes = result.nodes_explored;
                if let Some(disk) = disk {
                    // Best-effort write-through, as in precompute_with_cache.
                    let _ = disk.store(k, &result.best);
                }
                result.best
            });
            match missed {
                // Served from memory or from a validated disk entry.
                None => stats.cache_hits += 1,
                Some(CacheMiss::Absent) => stats.cache_misses += 1,
                Some(CacheMiss::Invalidated) => stats.cache_invalidated += 1,
            }
            stats.nodes_explored += nodes;
            entries.insert(key(s), (*s, (*sched).clone()));
        }
        (ScheduleTable { entries }, stats)
    }

    /// Build from explicit entries (e.g. hand-tuned or heuristic schedules;
    /// "this approach to constrained dynamism is totally orthogonal to the
    /// approach to determining a good schedule for a single state").
    #[must_use]
    pub fn from_entries(entries: Vec<(AppState, PipelinedSchedule)>) -> Self {
        ScheduleTable {
            entries: entries
                .into_iter()
                .map(|(s, p)| (key(&s), (s, p)))
                .collect(),
        }
    }

    /// Exact lookup.
    #[must_use]
    pub fn get(&self, state: &AppState) -> Option<&PipelinedSchedule> {
        self.entries.get(&key(state)).map(|(_, p)| p)
    }

    /// Nearest lookup by model count (same `aux`): the fallback when an
    /// unanticipated state appears — the "interpolating between known good
    /// strategies in known states" approach the paper contrasts with.
    #[must_use]
    pub fn get_nearest(&self, state: &AppState) -> &PipelinedSchedule {
        assert!(!self.entries.is_empty(), "empty schedule table");
        self.entries
            .values()
            .filter(|(s, _)| s.aux == state.aux)
            .min_by_key(|(s, _)| s.n_models.abs_diff(state.n_models))
            .map(|(_, p)| p)
            .unwrap_or_else(|| {
                self.entries
                    .values()
                    .min_by_key(|(s, _)| s.n_models.abs_diff(state.n_models))
                    .map(|(_, p)| p)
                    .expect("non-empty table")
            })
    }

    /// The states covered by the table.
    #[must_use]
    pub fn states(&self) -> Vec<AppState> {
        self.entries.values().map(|(s, _)| *s).collect()
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskgraph::builders;

    fn small_table() -> (TaskGraph, ScheduleTable) {
        let g = builders::color_tracker();
        let c = ClusterSpec::single_node(4);
        let states: Vec<AppState> = [1u32, 2, 4].iter().map(|&n| AppState::new(n)).collect();
        let t = ScheduleTable::precompute(&g, &c, &states, &OptimalConfig::default());
        (g, t)
    }

    #[test]
    fn precompute_covers_all_states() {
        let (_, t) = small_table();
        assert_eq!(t.len(), 3);
        assert!(t.get(&AppState::new(2)).is_some());
        assert!(t.get(&AppState::new(3)).is_none());
        assert_eq!(t.states().len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn schedules_differ_across_states() {
        // The whole point of regime switching: "a seemingly small state
        // change could alter scheduling strategy dramatically".
        let (_, t) = small_table();
        let s1 = t.get(&AppState::new(1)).unwrap();
        let s4 = t.get(&AppState::new(4)).unwrap();
        assert_ne!(s1.iteration.latency, s4.iteration.latency);
        assert_ne!(
            s1.iteration.decomp, s4.iteration.decomp,
            "optimal decomposition should change with the model count"
        );
    }

    #[test]
    fn nearest_lookup_picks_closest_model_count() {
        let (_, t) = small_table();
        let near3 = t.get_nearest(&AppState::new(3));
        // 3 is nearer to 2 or 4 than to 1; both are one away — min_by_key
        // takes the first (2).
        let at2 = t.get(&AppState::new(2)).unwrap();
        assert_eq!(near3.iteration.latency, at2.iteration.latency);
        let near100 = t.get_nearest(&AppState::new(100));
        let at4 = t.get(&AppState::new(4)).unwrap();
        assert_eq!(near100.iteration.latency, at4.iteration.latency);
    }

    #[test]
    #[should_panic(expected = "empty schedule table")]
    fn nearest_on_empty_table_panics() {
        let t = ScheduleTable::from_entries(vec![]);
        let _ = t.get_nearest(&AppState::new(1));
    }

    #[test]
    fn warm_cache_build_skips_search_and_matches_cold() {
        let g = builders::color_tracker();
        let c = ClusterSpec::single_node(4);
        let states: Vec<AppState> = [1u32, 2, 4].iter().map(|&n| AppState::new(n)).collect();
        let cfg = OptimalConfig::default();
        let dir = std::env::temp_dir().join(format!("cds-table-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ScheduleCache::open(&dir).unwrap();

        let (cold, cold_stats) =
            ScheduleTable::precompute_with_cache(&g, &c, &states, &cfg, Some(&cache));
        assert_eq!(cold_stats.cache_hits, 0);
        assert_eq!(cold_stats.searched(), states.len());
        assert!(cold_stats.nodes_explored > 0);

        let (warm, warm_stats) =
            ScheduleTable::precompute_with_cache(&g, &c, &states, &cfg, Some(&cache));
        assert_eq!(warm_stats.cache_hits, states.len());
        assert_eq!(warm_stats.searched(), 0);
        assert_eq!(warm_stats.nodes_explored, 0, "warm build must not search");

        // The warm table is byte-identical to the cold one.
        assert_eq!(warm.len(), cold.len());
        for s in cold.states() {
            assert_eq!(warm.get(&s), cold.get(&s), "state {s:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_cache_build_searches_once_across_tenant_builds() {
        let g = builders::color_tracker();
        let c = ClusterSpec::single_node(4);
        let states: Vec<AppState> = [1u32, 2].iter().map(|&n| AppState::new(n)).collect();
        let cfg = OptimalConfig::default();
        let shared = crate::sharedcache::SharedScheduleCache::new(4096);

        let (first, cold) = ScheduleTable::precompute_shared(&g, &c, &states, &cfg, &shared, None);
        assert_eq!(cold.searched(), states.len());
        assert!(cold.nodes_explored > 0);

        // A second "tenant" building the same table touches no search at
        // all — every state is handed the resident schedule.
        let (second, warm) = ScheduleTable::precompute_shared(&g, &c, &states, &cfg, &shared, None);
        assert_eq!(warm.cache_hits, states.len());
        assert_eq!(warm.nodes_explored, 0, "warm tenant build must not search");
        assert_eq!(shared.searches(), states.len() as u64);
        for s in first.states() {
            assert_eq!(first.get(&s), second.get(&s), "state {s:?}");
        }

        // And it matches the classic uncached build bit-for-bit.
        let direct = ScheduleTable::precompute(&g, &c, &states, &cfg);
        for s in direct.states() {
            assert_eq!(direct.get(&s), first.get(&s), "state {s:?}");
        }
    }

    #[test]
    fn invalidated_cache_entry_is_researched() {
        let g = builders::color_tracker();
        let c = ClusterSpec::single_node(4);
        let states = [AppState::new(2)];
        let cfg = OptimalConfig::default();
        let dir = std::env::temp_dir().join(format!("cds-table-inval-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ScheduleCache::open(&dir).unwrap();

        let (cold, _) = ScheduleTable::precompute_with_cache(&g, &c, &states, &cfg, Some(&cache));

        // Corrupt the single entry on disk.
        let entry = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .find(|e| e.file_name().to_string_lossy().ends_with(".txt"))
            .unwrap()
            .path();
        let text = std::fs::read_to_string(&entry).unwrap();
        std::fs::write(&entry, text.replace("\nii ", "\nii x")).unwrap();

        let (rebuilt, stats) =
            ScheduleTable::precompute_with_cache(&g, &c, &states, &cfg, Some(&cache));
        assert_eq!(stats.cache_invalidated, 1);
        assert_eq!(stats.cache_hits, 0);
        // The corrupted entry was re-searched, and the result is right.
        assert_eq!(
            rebuilt.get(&states[0]).unwrap(),
            cold.get(&states[0]).unwrap()
        );
        // And the cache was repaired: next build hits.
        let (_, again) = ScheduleTable::precompute_with_cache(&g, &c, &states, &cfg, Some(&cache));
        assert_eq!(again.cache_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
