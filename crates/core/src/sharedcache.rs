//! Shared, pressure-evicted cross-tenant schedule cache.
//!
//! The disk cache ([`ScheduleCache`](crate::persist::ScheduleCache)) makes a
//! *restart* cheap; this module makes a *fleet* cheap. When hundreds of
//! tracker tenants run the same application in the same regime, every one of
//! them computes the same [`schedule_cache_key`](crate::persist::schedule_cache_key)
//! — so the branch-and-bound search should run **once**, with every other
//! tenant blocking briefly and then sharing the result by `Arc`.
//!
//! Two layers:
//!
//! - [`GcMap`] — a bounded-weight map with pluggable eviction: values report
//!   their own [`weight`](TrackableValue::weight) and whether they are
//!   [`locked`](TrackableValue::is_locked) (still referenced by a tenant),
//!   and a [`CollectionStrategy`] ranks the unlocked entries by collection
//!   pressure. When the total weight overruns the bound, the
//!   highest-pressure unlocked entries are evicted until the map fits.
//!   Locked entries are never evicted, whatever the pressure.
//! - [`SharedScheduleCache`] — the schedule-specific wrapper: a process-wide
//!   `key → Arc<PipelinedSchedule>` map with **single-flight** misses. The
//!   first tenant to miss a key runs the search; every tenant that arrives
//!   while the search is in flight waits on a condvar and is handed the same
//!   `Arc`. A counter records exactly how many times the compute closure ran,
//!   so tests can assert "a thousand tenants, one search" literally.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::schedule::PipelinedSchedule;

/// A value a [`GcMap`] can manage: it knows its own eviction cost.
pub trait TrackableValue {
    /// An entry still in use by some holder must never be evicted.
    fn is_locked(&self) -> bool;
    /// This entry's contribution to the map's bounded total weight.
    fn weight(&self) -> usize;
}

/// Ranks entries for eviction. Implementations are per-entry bookkeeping
/// cells: the map calls [`notify_used`](CollectionStrategy::notify_used) on
/// every access with a monotone tick, and reads back a
/// [`collection_pressure`](CollectionStrategy::collection_pressure) when it
/// must shed weight — the *highest*-pressure unlocked entries go first.
pub trait CollectionStrategy: Default {
    /// Comparable eviction rank; greater means evicted sooner.
    type Pressure: Copy + Ord;
    /// Current eviction rank of this entry.
    fn collection_pressure(&self) -> Self::Pressure;
    /// Record an access at monotone time `tick`.
    fn notify_used(&mut self, tick: u64);
}

/// Least-recently-used [`CollectionStrategy`]: pressure is the age of the
/// last access, so the staler an entry the sooner it is evicted.
#[derive(Clone, Copy, Debug, Default)]
pub struct LruStrategy {
    last_used: u64,
}

impl CollectionStrategy for LruStrategy {
    type Pressure = std::cmp::Reverse<u64>;

    fn collection_pressure(&self) -> Self::Pressure {
        // Reverse: an *older* last_used must compare *greater* (more
        // pressure), so max_by_key picks the least recently used entry.
        std::cmp::Reverse(self.last_used)
    }

    fn notify_used(&mut self, tick: u64) {
        self.last_used = tick;
    }
}

/// A bounded-weight map with pressure-driven garbage collection.
///
/// Not itself thread-safe — callers wrap it in a lock (see
/// [`SharedScheduleCache`]). The bound is on total
/// [`weight`](TrackableValue::weight), not entry count, and is enforced on
/// every insert: while the total overruns and an unlocked entry exists, the
/// unlocked entry with the highest collection pressure is evicted. Locked
/// entries may therefore hold the map above its bound — by design, since
/// evicting a schedule a tenant is actively running would be a correctness
/// bug, not a memory win.
#[derive(Debug)]
pub struct GcMap<K, V, S> {
    data: HashMap<K, (V, S)>,
    max_weight: usize,
    tick: u64,
    evictions: u64,
}

impl<K: Clone + Eq + Hash, V: TrackableValue, S: CollectionStrategy> GcMap<K, V, S> {
    /// An empty map that will hold at most `max_weight` total weight of
    /// unlocked entries.
    #[must_use]
    pub fn new(max_weight: usize) -> Self {
        GcMap {
            data: HashMap::new(),
            max_weight,
            tick: 0,
            evictions: 0,
        }
    }

    /// Look up `key`, refreshing its usage tick on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        let (value, strategy) = self.data.get_mut(key)?;
        strategy.notify_used(tick);
        Some(value)
    }

    /// Insert (or replace) `key`, then shed weight back under the bound.
    pub fn insert(&mut self, key: K, value: V) {
        self.tick += 1;
        let mut strategy = S::default();
        strategy.notify_used(self.tick);
        self.data.insert(key, (value, strategy));
        self.perform_gc();
    }

    /// Evict highest-pressure unlocked entries until the total weight fits
    /// the bound (or only locked entries remain).
    pub fn perform_gc(&mut self) {
        while self.total_weight() > self.max_weight {
            let victim = self
                .data
                .iter()
                .filter(|(_, (v, _))| !v.is_locked())
                .max_by_key(|(_, (_, s))| s.collection_pressure())
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    self.data.remove(&k);
                    self.evictions += 1;
                }
                None => break, // everything left is locked
            }
        }
    }

    /// Sum of all entries' weights (locked included).
    #[must_use]
    pub fn total_weight(&self) -> usize {
        self.data.values().map(|(v, _)| v.weight()).sum()
    }

    /// Whether any entry could currently be evicted.
    #[must_use]
    pub fn has_unlocked(&self) -> bool {
        self.data.values().any(|(v, _)| !v.is_locked())
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the map holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The configured weight bound.
    #[must_use]
    pub fn max_weight(&self) -> usize {
        self.max_weight
    }

    /// Cumulative count of pressure evictions.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

/// A cached schedule. Locked exactly while some tenant still holds the
/// `Arc` handed out by [`SharedScheduleCache::get_or_search`] — the map's
/// own reference is the baseline strong count of 1.
#[derive(Debug)]
struct CachedEntry {
    sched: Arc<PipelinedSchedule>,
}

impl TrackableValue for CachedEntry {
    fn is_locked(&self) -> bool {
        Arc::strong_count(&self.sched) > 1
    }

    fn weight(&self) -> usize {
        // Placement count is the schedule's true size driver (everything
        // else is O(1)); floor at 1 so empty schedules still cost.
        self.sched.iteration.placements.len().max(1)
    }
}

struct Inner {
    map: GcMap<u64, CachedEntry, LruStrategy>,
    /// Keys with a search currently in flight (single-flight gate).
    pending: HashSet<u64>,
}

/// Process-wide, thread-safe schedule cache shared by every tenant of a
/// fleet: bounded weight, LRU pressure eviction, locked-while-in-use
/// entries, and single-flight misses.
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
                map: GcMap::new(max_weight),
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
            if let Some(entry) = g.map.get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(&entry.sched);
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
        g.map.insert(
            key,
            CachedEntry {
                sched: Arc::clone(&sched),
            },
        );
        drop(g);
        guard.armed = false;
        self.ready.notify_all();
        sched
    }

    /// Hit-only probe: the cached schedule for `key`, if resident. Never
    /// waits on an in-flight search and never computes.
    pub fn get(&self, key: u64) -> Option<Arc<PipelinedSchedule>> {
        let mut g = self.inner.lock();
        let entry = g.map.get(&key)?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(Arc::clone(&entry.sched))
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

    /// Cumulative pressure evictions.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.inner.lock().map.evictions()
    }

    /// Resident entry count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Whether no entries are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.lock().map.is_empty()
    }

    /// Current total weight (locked entries included).
    #[must_use]
    pub fn total_weight(&self) -> usize {
        self.inner.lock().map.total_weight()
    }

    /// The configured weight bound.
    #[must_use]
    pub fn max_weight(&self) -> usize {
        self.inner.lock().map.max_weight()
    }

    /// Sweep entries whose external handles are gone. A tenant's departure
    /// drops its `Arc<PipelinedSchedule>` clones, which *unlocks* the
    /// entries; this sweep then lets the weight bound actually reclaim
    /// them. A no-op while the cache is within budget.
    pub fn release_unused(&self) {
        self.inner.lock().map.perform_gc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimal::{optimal_schedule, OptimalConfig};
    use cluster::ClusterSpec;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicUsize;
    use taskgraph::{builders, AppState};

    fn sample() -> PipelinedSchedule {
        let g = builders::color_tracker();
        let c = ClusterSpec::single_node(2);
        optimal_schedule(&g, &c, &AppState::new(1), &OptimalConfig::default()).best
    }

    /// Test value: weight is explicit, lock state is the pin Arc.
    struct TestVal {
        pin: Arc<()>,
        weight: usize,
    }

    impl TrackableValue for TestVal {
        fn is_locked(&self) -> bool {
            Arc::strong_count(&self.pin) > 1
        }
        fn weight(&self) -> usize {
            self.weight
        }
    }

    #[test]
    fn gcmap_evicts_lru_first() {
        let mut m: GcMap<&str, TestVal, LruStrategy> = GcMap::new(10);
        let mk = |w| TestVal {
            pin: Arc::new(()),
            weight: w,
        };
        m.insert("a", mk(4));
        m.insert("b", mk(4));
        assert!(m.get(&"a").is_some()); // refresh a: b is now LRU
        m.insert("c", mk(4)); // overruns: 12 > 10
        assert_eq!(m.total_weight(), 8);
        assert!(m.get(&"b").is_none(), "stalest entry evicted");
        assert!(m.get(&"a").is_some());
        assert!(m.get(&"c").is_some());
        assert_eq!(m.evictions(), 1);
    }

    #[test]
    fn gcmap_never_evicts_locked_entries() {
        let mut m: GcMap<u32, TestVal, LruStrategy> = GcMap::new(6);
        let pinned = Arc::new(());
        m.insert(
            0,
            TestVal {
                pin: Arc::clone(&pinned),
                weight: 4,
            },
        );
        for k in 1..10u32 {
            m.insert(
                k,
                TestVal {
                    pin: Arc::new(()),
                    weight: 4,
                },
            );
        }
        // The pinned entry survives every pressure pass, even though it is
        // by far the least recently used.
        assert!(m.get(&0).is_some(), "locked entry must survive churn");
        assert!(m.total_weight() <= 6 + 4, "only the lock exceeds the bound");
        drop(pinned);
        m.insert(
            10,
            TestVal {
                pin: Arc::new(()),
                weight: 4,
            },
        );
        assert!(m.total_weight() <= 6, "unlocked weight obeys the bound");
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
        // Over budget but locked: stays resident.
        assert_eq!(cache.len(), 1);
        assert!(cache.total_weight() > cache.max_weight());
        drop(held);
        // Next pressure pass reclaims it.
        let _other = cache.get_or_search(8, || schedule.clone());
        assert!(
            cache.get(7).is_none(),
            "unpinned entry evicted under pressure"
        );
    }

    #[test]
    fn release_unused_sweeps_after_the_last_handle_drops() {
        // The departure path: while a tenant holds its schedule Arc the
        // entry is locked; once the tenant departs and drops it, an
        // explicit sweep (not just the next insert) reclaims the weight.
        let cache = SharedScheduleCache::new(1); // too small for any schedule
        let schedule = sample();
        let held = cache.get_or_search(7, || schedule.clone());
        cache.release_unused();
        assert_eq!(cache.len(), 1, "a pinned entry survives the sweep");
        drop(held);
        cache.release_unused();
        assert!(cache.is_empty(), "the departed tenant's entry was swept");
        assert_eq!(cache.evictions(), 1);
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
                cache.total_weight() <= bound,
                "weight {} over bound {bound} at key {k}",
                cache.total_weight()
            );
        }
        assert_eq!(cache.searches(), 50);
        assert!(cache.evictions() >= 47);
    }

    #[derive(Clone, Debug)]
    enum ChurnOp {
        /// Insert (or re-search) key with the given weight, pinning it.
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
        /// or every resident entry is locked by a live tenant.
        #[test]
        fn weight_stays_bounded_under_random_churn(
            ops in proptest::collection::vec(churn_op(), 1..80),
            bound in 4usize..24,
        ) {
            let mut m: GcMap<u8, TestVal, LruStrategy> = GcMap::new(bound);
            let mut pins: Vec<Arc<()>> = Vec::new();
            for op in ops {
                match op {
                    ChurnOp::Touch(k, w) => {
                        let pin = Arc::new(());
                        pins.push(Arc::clone(&pin));
                        m.insert(k, TestVal { pin, weight: w });
                    }
                    ChurnOp::Unpin => {
                        if !pins.is_empty() {
                            pins.remove(0);
                        }
                        m.perform_gc();
                    }
                    ChurnOp::Get(k) => {
                        let _ = m.get(&k);
                    }
                }
                prop_assert!(
                    m.total_weight() <= bound || !m.has_unlocked(),
                    "weight {} > bound {bound} with evictable entries",
                    m.total_weight()
                );
            }
        }
    }
}
