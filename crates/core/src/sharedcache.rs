//! Shared, pressure-evicted cross-tenant schedule cache.
//!
//! The disk cache ([`ScheduleCache`](crate::persist::ScheduleCache)) makes a
//! *restart* cheap; this module makes a *fleet* cheap. When hundreds of
//! tracker tenants run the same application in the same regime, every one of
//! them computes the same [`schedule_cache_key`](crate::persist::schedule_cache_key)
//! — so the branch-and-bound search should run **once**, with every other
//! tenant blocking briefly and then sharing the result by `Arc`.
//!
//! [`SharedScheduleCache`] is a process-wide `key → Arc<PipelinedSchedule>`
//! map with:
//!
//! - **a weight bound**: a schedule weighs its placement count. When the
//!   total weight overruns the bound, the least recently used entries are
//!   evicted until the map fits;
//! - **held entries**: an entry whose `Arc` some tenant still holds is never
//!   evicted, whatever its age, so held entries may keep the map above its
//!   bound;
//! - **single-flight misses**: the first tenant to miss a key runs the
//!   search; every tenant that arrives while the search is in flight waits
//!   on a condvar and is handed the same `Arc`. A counter records exactly
//!   how many times the compute closure ran, so tests can assert "a
//!   thousand tenants, one search" literally.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::schedule::PipelinedSchedule;

/// A schedule's share of the weight bound: its placement count (everything
/// else is O(1)), floored at 1 so empty schedules still cost.
fn weight(sched: &PipelinedSchedule) -> usize {
    sched.iteration.placements.len().max(1)
}

struct Inner {
    /// Each entry's schedule and the tick of its last use.
    map: HashMap<u64, (Arc<PipelinedSchedule>, u64)>,
    /// Monotone use counter: every lookup and insert takes the next tick.
    tick: u64,
    evictions: u64,
    max_weight: usize,
    /// Keys with a search currently in flight (single-flight gate).
    pending: HashSet<u64>,
}

impl Inner {
    /// Look up `key`, refreshing its last use on a hit.
    fn get(&mut self, key: u64) -> Option<Arc<PipelinedSchedule>> {
        self.tick += 1;
        let (sched, used) = self.map.get_mut(&key)?;
        *used = self.tick;
        Some(Arc::clone(sched))
    }

    fn total_weight(&self) -> usize {
        self.map.values().map(|(s, _)| weight(s)).sum()
    }

    /// Evict the least recently used entries nobody holds (the map's own
    /// `Arc` is the only one) until the total weight fits the bound, or
    /// only held entries remain.
    fn evict_to_bound(&mut self) {
        while self.total_weight() > self.max_weight {
            let victim = self
                .map
                .iter()
                .filter(|(_, (s, _))| Arc::strong_count(s) == 1)
                .min_by_key(|(_, &(_, used))| used)
                .map(|(&k, _)| k);
            let Some(k) = victim else { break };
            self.map.remove(&k);
            self.evictions += 1;
        }
    }
}

/// Process-wide, thread-safe schedule cache shared by every tenant of a
/// fleet: bounded weight, LRU eviction, held entries never evicted, and
/// single-flight misses.
///
/// ```
/// use std::sync::Arc;
/// use cds_core::optimal::{optimal_schedule, OptimalConfig};
/// use cds_core::sharedcache::SharedScheduleCache;
/// use cluster::ClusterSpec;
/// use taskgraph::{builders, AppState};
///
/// let g = builders::color_tracker();
/// let c = ClusterSpec::single_node(2);
/// let cache = SharedScheduleCache::new(256);
/// let search = || optimal_schedule(&g, &c, &AppState::new(1), &OptimalConfig::default()).best;
/// let a = cache.get_or_search(42, search);
/// let b = cache.get_or_search(42, search); // served from memory
/// assert!(Arc::ptr_eq(&a, &b));
/// assert_eq!(cache.searches(), 1);
/// assert_eq!(cache.hits(), 1);
/// ```
pub struct SharedScheduleCache {
    inner: Mutex<Inner>,
    /// Signalled when an in-flight search completes (or aborts).
    ready: Condvar,
    hits: AtomicU64,
    searches: AtomicU64,
}

impl std::fmt::Debug for SharedScheduleCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedScheduleCache")
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("searches", &self.searches())
            .finish()
    }
}

/// Clears the pending mark if the compute closure unwinds, so waiting
/// tenants retry the search instead of blocking forever.
struct PendingGuard<'a> {
    cache: &'a SharedScheduleCache,
    key: u64,
    armed: bool,
}

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.cache.inner.lock().pending.remove(&self.key);
            self.cache.ready.notify_all();
        }
    }
}

impl SharedScheduleCache {
    /// An empty cache bounded at `max_weight` total schedule weight
    /// (roughly: total placements across cached schedules).
    #[must_use]
    pub fn new(max_weight: usize) -> Self {
        SharedScheduleCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                evictions: 0,
                max_weight,
                pending: HashSet::new(),
            }),
            ready: Condvar::new(),
            hits: AtomicU64::new(0),
            searches: AtomicU64::new(0),
        }
    }

    /// Return the schedule for `key`, computing it with `search` on a miss.
    ///
    /// Misses are single-flight: concurrent callers for the same key block
    /// until the one running search finishes, then share its result. The
    /// returned `Arc` pins the entry against eviction for as long as the
    /// caller holds it.
    pub fn get_or_search<F>(&self, key: u64, search: F) -> Arc<PipelinedSchedule>
    where
        F: FnOnce() -> PipelinedSchedule,
    {
        let mut g = self.inner.lock();
        loop {
            if let Some(sched) = g.get(key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return sched;
            }
            if g.pending.insert(key) {
                break; // we won the flight: run the search ourselves
            }
            // Someone else is searching this key — wait for their result.
            self.ready.wait(&mut g);
        }
        drop(g);

        let mut guard = PendingGuard {
            cache: self,
            key,
            armed: true,
        };
        self.searches.fetch_add(1, Ordering::Relaxed);
        let sched = Arc::new(search());
        let mut g = self.inner.lock();
        g.pending.remove(&key);
        g.tick += 1;
        let tick = g.tick;
        g.map.insert(key, (Arc::clone(&sched), tick));
        g.evict_to_bound();
        drop(g);
        guard.armed = false;
        self.ready.notify_all();
        sched
    }

    /// Number of times the compute closure ran — i.e. true cache misses
    /// that reached the search (or disk) path.
    #[must_use]
    pub fn searches(&self) -> u64 {
        self.searches.load(Ordering::Relaxed)
    }

    /// Number of lookups served from memory.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Resident entry count.
    fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Sweep entries whose external handles are gone. A tenant's departure
    /// drops its `Arc<PipelinedSchedule>` clones, which releases the
    /// entries; this sweep then lets the weight bound actually reclaim
    /// them. A no-op while the cache is within budget.
    pub fn release_unused(&self) {
        self.inner.lock().evict_to_bound();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimal::{optimal_schedule, OptimalConfig};
    use cluster::ClusterSpec;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::OnceLock;
    use taskgraph::{builders, AppState};

    fn sample() -> PipelinedSchedule {
        static SAMPLE: OnceLock<PipelinedSchedule> = OnceLock::new();
        SAMPLE
            .get_or_init(|| {
                let g = builders::color_tracker();
                let c = ClusterSpec::single_node(2);
                optimal_schedule(&g, &c, &AppState::new(1), &OptimalConfig::default()).best
            })
            .clone()
    }

    /// A schedule of weight `w`: the sample's placements, cycled or cut to
    /// exactly `w` of them.
    fn weighing(w: usize) -> PipelinedSchedule {
        let mut s = sample();
        let p = &mut s.iteration.placements;
        *p = p.iter().cycle().take(w).copied().collect();
        s
    }

    /// Cache `key` at weight `w` and drop the handle: resident, not held.
    fn put(cache: &SharedScheduleCache, key: u64, w: usize) {
        drop(cache.get_or_search(key, || weighing(w)));
    }

    fn resident(cache: &SharedScheduleCache, key: u64) -> bool {
        cache.inner.lock().get(key).is_some()
    }

    fn total_weight(cache: &SharedScheduleCache) -> usize {
        cache.inner.lock().total_weight()
    }

    fn evictions(cache: &SharedScheduleCache) -> u64 {
        cache.inner.lock().evictions
    }

    #[test]
    fn least_recently_used_entry_is_evicted_first() {
        let cache = SharedScheduleCache::new(10);
        put(&cache, 1, 4);
        put(&cache, 2, 4);
        assert!(resident(&cache, 1)); // refresh 1: 2 is now LRU
        put(&cache, 3, 4); // overruns: 12 > 10
        assert_eq!(total_weight(&cache), 8);
        assert!(!resident(&cache, 2), "stalest entry evicted");
        assert!(resident(&cache, 1));
        assert!(resident(&cache, 3));
        assert_eq!(evictions(&cache), 1);
    }

    #[test]
    fn held_entries_are_never_evicted() {
        let cache = SharedScheduleCache::new(6);
        let held = cache.get_or_search(0, || weighing(4));
        for k in 1..10u64 {
            put(&cache, k, 3 + k as usize % 3);
        }
        // The held entry survives every eviction pass, even though it is
        // by far the least recently used.
        assert!(resident(&cache, 0), "held entry must survive churn");
        assert!(
            total_weight(&cache) <= 6 + 4,
            "only the hold exceeds the bound"
        );
        drop(held);
        put(&cache, 10, 4);
        assert!(total_weight(&cache) <= 6, "unheld weight obeys the bound");
    }

    #[test]
    fn thousand_tenants_in_one_regime_pay_one_search() {
        let cache = SharedScheduleCache::new(1024);
        let schedule = sample();
        let calls = AtomicUsize::new(0);
        let key = 0xF1EE7;
        let n_tenants = 1000;
        let n_threads = 16;
        std::thread::scope(|s| {
            for t in 0..n_threads {
                let cache = &cache;
                let calls = &calls;
                let schedule = &schedule;
                s.spawn(move || {
                    let share = n_tenants / n_threads + usize::from(t < n_tenants % n_threads);
                    for _ in 0..share {
                        let got = cache.get_or_search(key, || {
                            calls.fetch_add(1, Ordering::Relaxed);
                            // Slow search: let other tenants pile up on the
                            // single-flight gate while it runs.
                            std::thread::sleep(std::time::Duration::from_millis(25));
                            schedule.clone()
                        });
                        assert_eq!(&*got, schedule);
                    }
                });
            }
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1, "exactly one search ran");
        assert_eq!(cache.searches(), 1);
        assert_eq!(cache.hits(), (n_tenants - 1) as u64);
    }

    #[test]
    fn returned_arc_pins_entry_against_eviction() {
        let cache = SharedScheduleCache::new(1); // too small for any schedule
        let schedule = sample();
        assert!(schedule.iteration.placements.len() > 1);
        let held = cache.get_or_search(7, || schedule.clone());
        // Over budget but held: stays resident.
        assert_eq!(cache.len(), 1);
        assert!(total_weight(&cache) > 1);
        drop(held);
        // Next pressure pass reclaims it.
        let _other = cache.get_or_search(8, || schedule.clone());
        assert!(
            !resident(&cache, 7),
            "unpinned entry evicted under pressure"
        );
    }

    #[test]
    fn release_unused_sweeps_after_the_last_handle_drops() {
        // The departure path: while a tenant holds its schedule Arc the
        // entry is held; once the tenant departs and drops it, an
        // explicit sweep (not just the next insert) reclaims the weight.
        let cache = SharedScheduleCache::new(1); // too small for any schedule
        let schedule = sample();
        let held = cache.get_or_search(7, || schedule.clone());
        cache.release_unused();
        assert_eq!(cache.len(), 1, "a pinned entry survives the sweep");
        drop(held);
        cache.release_unused();
        assert_eq!(cache.len(), 0, "the departed tenant's entry was swept");
        assert_eq!(evictions(&cache), 1);
    }

    #[test]
    fn distinct_keys_churn_within_bound() {
        let schedule = sample();
        let w = schedule.iteration.placements.len();
        let bound = w * 3;
        let cache = SharedScheduleCache::new(bound);
        for k in 0..50u64 {
            let got = cache.get_or_search(k, || schedule.clone());
            drop(got);
            assert!(
                total_weight(&cache) <= bound,
                "weight {} over bound {bound} at key {k}",
                total_weight(&cache)
            );
        }
        assert_eq!(cache.searches(), 50);
        assert!(evictions(&cache) >= 47);
    }

    #[derive(Clone, Debug)]
    enum ChurnOp {
        /// Look key up (searching a schedule of the given weight on a
        /// miss) and hold it.
        Touch(u8, usize),
        /// Drop the oldest held pin.
        Unpin,
        /// Refresh a key's recency if present.
        Get(u8),
    }

    fn churn_op() -> impl Strategy<Value = ChurnOp> {
        prop_oneof![
            (0u8..32, 1usize..8).prop_map(|(k, w)| ChurnOp::Touch(k, w)),
            Just(ChurnOp::Unpin),
            (0u8..32).prop_map(ChurnOp::Get),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The bounded-weight invariant under random tenant churn: after
        /// any operation sequence, either the total weight fits the bound
        /// or every resident entry is held by a live tenant.
        #[test]
        fn weight_stays_bounded_under_random_churn(
            ops in proptest::collection::vec(churn_op(), 1..80),
            bound in 4usize..24,
        ) {
            let cache = SharedScheduleCache::new(bound);
            let mut pins: Vec<Arc<PipelinedSchedule>> = Vec::new();
            for op in ops {
                match op {
                    ChurnOp::Touch(k, w) => {
                        pins.push(cache.get_or_search(u64::from(k), || weighing(w)));
                    }
                    ChurnOp::Unpin => {
                        if !pins.is_empty() {
                            pins.remove(0);
                        }
                        cache.release_unused();
                    }
                    ChurnOp::Get(k) => {
                        let _ = cache.inner.lock().get(u64::from(k));
                    }
                }
                let g = cache.inner.lock();
                prop_assert!(
                    g.total_weight() <= bound
                        || g.map.values().all(|(s, _)| Arc::strong_count(s) > 1),
                    "weight {} > bound {bound} with evictable entries",
                    g.total_weight()
                );
            }
        }
    }
}
