//! The channel store: time-indexed items, per-connection cursors, and the
//! virtual-time garbage collector.
//!
//! # The GC fast path
//!
//! Reclamation is *incremental*: every live item carries a `covered` count —
//! the number of attached input connections that have promised never to
//! request it again (frontier above it, or explicit consume). Covering
//! events (consume, frontier advance, detach) bump the counts as they
//! happen, so a GC round only inspects the oldest item's counter instead of
//! re-scanning every connection's cursor state per reclaim ("maintain the
//! min-uncovered frontier across consumers" rather than recompute it).
//!
//! Items live in one time-sorted row queue, [`RowStore`] (see `store.rs`):
//! the reclaim floor advances per item exactly as the old per-item
//! `BTreeMap` backing did, and an optional retention budget keeps the
//! newest reclaimed payloads queryable through [`Channel::latest_at`] /
//! [`Channel::range`].
//!
//! The hottest read-only fields (`gc_floor`, live count, closed flag) are
//! mirrored into atomics so monitoring reads never contend with blocked
//! `get`/`put` waiters on the state lock.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::connection::{ConnId, InputConn, OutputConn};
use crate::error::{ConsumeError, GetMiss, MissReason, PutError};
use crate::stats::{ChannelSnapshot, ChannelStats};
use crate::store::{RowStore, StoreConfig};
use crate::time::Timestamp;
use crate::wildcard::TsSpec;

/// Per-input-connection bookkeeping.
#[derive(Debug)]
pub(crate) struct InConnState {
    /// All timestamps `< frontier` are promised never to be requested over
    /// this connection (implicitly consumed).
    pub(crate) frontier: Timestamp,
    /// Timestamps `>= frontier` explicitly consumed over this connection.
    pub(crate) consumed: std::collections::BTreeSet<Timestamp>,
    /// Largest timestamp ever returned by a `get` on this connection
    /// (drives the `NewestUnseen` / `NextUnseen` wildcards).
    pub(crate) last_gotten: Option<Timestamp>,
}

impl InConnState {
    fn new(frontier: Timestamp) -> Self {
        InConnState {
            frontier,
            consumed: Default::default(),
            last_gotten: None,
        }
    }

    /// Whether this connection will never again request `ts`.
    fn covers(&self, ts: Timestamp) -> bool {
        ts < self.frontier || self.consumed.contains(&ts)
    }
}

pub(crate) struct State<T> {
    /// The time-sorted item store. Owns the GC floor: everything
    /// below `store.floor()` has been reclaimed (prefix GC); puts below it
    /// are rejected, so "one item per timestamp" stays enforceable forever.
    pub(crate) store: RowStore<T>,
    /// Timestamps the producer promised never to put (skipped frames).
    /// Tombstones, not items: they hold no value, don't count toward
    /// capacity, and are pruned as the GC floor passes them.
    pub(crate) skipped: std::collections::BTreeSet<Timestamp>,
    pub(crate) in_conns: HashMap<ConnId, InConnState>,
    pub(crate) out_count: usize,
    pub(crate) ever_output: bool,
    pub(crate) closed: bool,
    pub(crate) capacity: Option<usize>,
    /// Largest timestamp ever returned by a get over any connection
    /// (drives the `NewestUnseenGlobal` wildcard).
    pub(crate) global_last_gotten: Option<Timestamp>,
    pub(crate) stats: ChannelStats,
    next_conn: u64,
}

pub(crate) struct Inner<T> {
    pub(crate) name: String,
    pub(crate) state: Mutex<State<T>>,
    /// Signalled when an item arrives or the channel closes.
    pub(crate) items_changed: Condvar,
    /// Signalled when GC frees space or the channel closes.
    pub(crate) space_freed: Condvar,
    /// Lock-free mirrors of the hottest read-only fields, refreshed by
    /// every mutating operation before it releases the state lock.
    floor_cache: AtomicU64,
    live_cache: AtomicUsize,
    closed_cache: AtomicBool,
}

impl<T> Inner<T> {
    /// Refresh the lock-free mirrors from `st`. Must be called while the
    /// state lock is still held (the caller owns `st`), so snapshot readers
    /// can never observe values newer than the lock ever published.
    pub(crate) fn sync_caches(&self, st: &State<T>) {
        self.floor_cache.store(st.store.floor(), Ordering::Release);
        self.live_cache
            .store(st.store.len_live(), Ordering::Release);
        self.closed_cache.store(st.closed, Ordering::Release);
    }
}

/// A Space-Time Memory channel: a shared, time-indexed collection of items.
///
/// Cloning a `Channel` is cheap and yields another handle to the same
/// underlying store — the STM notion of *location transparency* (tasks on any
/// node of the cluster talk to the same channel through the same API).
pub struct Channel<T> {
    pub(crate) inner: Arc<Inner<T>>,
}

impl<T> Clone for Channel<T> {
    fn clone(&self) -> Self {
        Channel {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// Configures a [`Channel`] before creation.
pub struct ChannelBuilder {
    name: String,
    capacity: Option<usize>,
    store_cfg: StoreConfig,
}

impl ChannelBuilder {
    /// Start building a channel with the given diagnostic name.
    pub fn new(name: impl Into<String>) -> Self {
        ChannelBuilder {
            name: name.into(),
            capacity: None,
            store_cfg: StoreConfig::default(),
        }
    }

    /// Bound the number of simultaneously live items. A blocking
    /// [`put`](OutputConn::put) waits for the GC to free a slot; this is the
    /// explicit flow-control mode ("it could perform flow control by limiting
    /// the number of items each channel could hold", §3.3).
    #[must_use]
    pub fn capacity(mut self, cap: usize) -> Self {
        assert!(cap > 0, "capacity must be positive");
        self.capacity = Some(cap);
        self
    }

    /// Keep up to `n × 256` of the newest reclaimed items as queryable
    /// history for [`Channel::latest_at`] / [`Channel::range`] (default 0:
    /// payloads are dropped the moment the GC floor passes them;
    /// `usize::MAX` keeps all). The unit is 256 rows because the store used
    /// to retire history in buckets of 256, and callers sized their budgets
    /// in those buckets. History never counts toward
    /// [`capacity`](Self::capacity) and is invisible to the `get`/`consume`
    /// API.
    #[must_use]
    pub fn retain_buckets(mut self, n: usize) -> Self {
        self.store_cfg.retain_rows = n.saturating_mul(256);
        self
    }

    /// Cap retained-history payload bytes; the store evicts the oldest
    /// history first to stay under the cap. Only meaningful together with
    /// [`retain_buckets`](Self::retain_buckets).
    #[must_use]
    pub fn retain_bytes(mut self, cap: usize) -> Self {
        self.store_cfg.retain_bytes = cap;
        self
    }

    /// Create the channel, sizing payloads as `size_of::<T>()` for the
    /// byte-occupancy stats. Use [`build_weighed`](Self::build_weighed) when
    /// the payload owns heap memory worth accounting (frames, masks).
    #[must_use]
    pub fn build<T>(self) -> Channel<T> {
        self.build_weighed(|_| std::mem::size_of::<T>())
    }

    /// Create the channel with an explicit payload byte-sizing function,
    /// which drives the byte columns of [`ChannelStats`] and the retained-
    /// history byte budget.
    #[must_use]
    pub fn build_weighed<T>(self, weigh: fn(&T) -> usize) -> Channel<T> {
        Channel {
            inner: Arc::new(Inner {
                name: self.name,
                state: Mutex::new(State {
                    store: RowStore::new(self.store_cfg, weigh),
                    skipped: Default::default(),
                    in_conns: HashMap::new(),
                    out_count: 0,
                    ever_output: false,
                    closed: false,
                    capacity: self.capacity,
                    global_last_gotten: None,
                    stats: ChannelStats::default(),
                    next_conn: 0,
                }),
                items_changed: Condvar::new(),
                space_freed: Condvar::new(),
                floor_cache: AtomicU64::new(0),
                live_cache: AtomicUsize::new(0),
                closed_cache: AtomicBool::new(false),
            }),
        }
    }
}

impl<T> Channel<T> {
    /// Create an unbounded channel with the given diagnostic name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        ChannelBuilder::new(name).build()
    }

    /// Create a channel holding at most `cap` live items (see
    /// [`ChannelBuilder::capacity`]).
    #[must_use]
    pub fn with_capacity(name: impl Into<String>, cap: usize) -> Self {
        ChannelBuilder::new(name).capacity(cap).build()
    }

    /// The channel's diagnostic name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Number of currently live (not yet reclaimed) items. Lock-free.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.live_cache.load(Ordering::Acquire)
    }

    /// Whether no items are currently live. Lock-free.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Timestamp of the newest live item, if any.
    #[must_use]
    pub fn newest_ts(&self) -> Option<Timestamp> {
        self.inner.state.lock().store.last_live().map(Timestamp)
    }

    /// Timestamp of the oldest live item, if any.
    #[must_use]
    pub fn oldest_ts(&self) -> Option<Timestamp> {
        self.inner.state.lock().store.first_live().map(Timestamp)
    }

    /// The newest item at or before `ts`, live **or retained as history**
    /// (see [`ChannelBuilder::retain_buckets`]) — the time-travel query for
    /// late-joining consumers and the replay reader. Ignores connection
    /// cursor state entirely: no frontier, consumed-set, or cover-count
    /// bookkeeping is touched.
    #[must_use]
    pub fn latest_at(&self, ts: Timestamp) -> Option<(Timestamp, Arc<T>)> {
        let st = self.inner.state.lock();
        st.store.latest_at(ts.0).map(|(t, v)| (Timestamp(t), v))
    }

    /// All items with timestamps in `[from, to)`, oldest first, live **or
    /// retained as history**. Like [`latest_at`](Self::latest_at), a pure
    /// read with no cursor side effects.
    #[must_use]
    pub fn range(&self, from: Timestamp, to: Timestamp) -> Vec<(Timestamp, Arc<T>)> {
        let st = self.inner.state.lock();
        st.store
            .range_query(from.0, to.0)
            .into_iter()
            .map(|(t, v)| (Timestamp(t), v))
            .collect()
    }

    /// Everything below this timestamp has been reclaimed by the GC.
    /// Lock-free: reads a mirror of the floor, so it never contends with
    /// (or perturbs) blocked `get`/`put` waiters on the state lock.
    #[must_use]
    pub fn gc_floor(&self) -> Timestamp {
        Timestamp(self.inner.floor_cache.load(Ordering::Acquire))
    }

    /// Lock-free snapshot of the channel's hottest fields (GC floor, live
    /// count, closed flag). Monitoring loops should prefer this over
    /// [`stats`](Self::stats), which must take the state lock.
    #[must_use]
    pub fn snapshot(&self) -> ChannelSnapshot {
        ChannelSnapshot {
            gc_floor: self.inner.floor_cache.load(Ordering::Acquire),
            live: self.inner.live_cache.load(Ordering::Acquire),
            closed: self.inner.closed_cache.load(Ordering::Acquire),
        }
    }

    /// Snapshot of traffic/occupancy statistics (takes the state lock; use
    /// [`snapshot`](Self::snapshot) for contention-free monitoring).
    #[must_use]
    pub fn stats(&self) -> ChannelStats {
        self.inner.state.lock().stats
    }

    /// The live-item capacity a `put` blocks on (`None`: unbounded).
    #[must_use]
    pub fn capacity(&self) -> Option<usize> {
        self.inner.state.lock().capacity
    }

    /// Replace the live-item capacity (see [`ChannelBuilder::capacity`]).
    /// Producers blocked on the old bound wake and re-check against the new
    /// one; items already live stay, whatever the new bound.
    ///
    /// Not general API: capacity belongs to the builder. The one caller is
    /// the tracker's scheduled executor, which learns only after the app's
    /// channels are built that it needs the configured capacity on the two
    /// channels the app bounds tighter ("Back Projections", "Frame").
    #[doc(hidden)]
    pub fn set_capacity(&self, cap: usize) {
        assert!(cap > 0, "capacity must be positive");
        self.inner.state.lock().capacity = Some(cap);
        self.inner.space_freed.notify_all();
    }

    /// Close the channel for input: pending and future blocking `get`s that
    /// cannot be satisfied fail with `Closed`, and all further puts fail.
    pub fn close(&self) {
        let mut st = self.inner.state.lock();
        st.closed = true;
        self.inner.sync_caches(&st);
        drop(st);
        self.inner.items_changed.notify_all();
        self.inner.space_freed.notify_all();
    }

    /// Whether the channel has been closed for input. Lock-free.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.inner.closed_cache.load(Ordering::Acquire)
    }

    /// Attach a new input (consumer) connection. Its frontier starts at the
    /// current GC floor, so it can observe every still-live item.
    #[must_use]
    pub fn attach_input(&self) -> InputConn<T> {
        let mut st = self.inner.state.lock();
        let id = ConnId(st.next_conn);
        st.next_conn += 1;
        let floor = Timestamp(st.store.floor());
        // The new connection covers nothing live (its frontier is the
        // floor), so existing `covered` counts stay valid against the
        // larger connection count.
        st.in_conns.insert(id, InConnState::new(floor));
        drop(st);
        InputConn::new(Arc::clone(&self.inner), id)
    }

    /// Attach a new output (producer) connection.
    #[must_use]
    pub fn attach_output(&self) -> OutputConn<T> {
        let mut st = self.inner.state.lock();
        st.out_count += 1;
        st.ever_output = true;
        drop(st);
        OutputConn::new(Arc::clone(&self.inner))
    }
}

impl<T> std::fmt::Debug for Channel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Deliberately lock-free: debug-printing a channel mid-run must not
        // contend with the data path.
        let snap = self.snapshot();
        f.debug_struct("Channel")
            .field("name", &self.inner.name)
            .field("live", &snap.live)
            .field("gc_floor", &Timestamp(snap.gc_floor))
            .field("closed", &snap.closed)
            .finish()
    }
}

impl<T> State<T> {
    /// Run the prefix garbage collector: reclaim the oldest live items while
    /// their `covered` count equals the number of attached input
    /// connections. Returns the number of reclaimed items. With no input
    /// connections attached, items are retained (a consumer may be about to
    /// attach).
    pub(crate) fn gc(&mut self) -> u64 {
        self.stats.gc_rounds += 1;
        let n_in = self.in_conns.len();
        if n_in == 0 {
            return 0;
        }
        let n = self.store.reclaim(n_in);
        if n > 0 {
            // Keep the per-connection invariant frontier >= gc_floor (so
            // `covers` stays consistent after reclamation) and drop consumed
            // entries for reclaimed timestamps — once per GC round, not once
            // per reclaimed item per connection.
            let floor = Timestamp(self.store.floor());
            for c in self.in_conns.values_mut() {
                if c.frontier < floor {
                    c.frontier = floor;
                }
                if c.consumed.first().is_some_and(|&t| t < floor) {
                    c.consumed = c.consumed.split_off(&floor);
                }
            }
            // Skip tombstones below the floor can never be requested again.
            if self.skipped.first().is_some_and(|&t| t < floor) {
                self.skipped = self.skipped.split_off(&floor);
            }
            self.stats.on_reclaim(n, self.store.occupancy());
        }
        n
    }

    /// Validate and insert a put.
    pub(crate) fn do_put(&mut self, ts: Timestamp, value: Arc<T>) -> Result<(), PutError> {
        if self.closed {
            return Err(PutError::Closed);
        }
        if ts.0 < self.store.floor() {
            return Err(PutError::BelowFrontier(ts));
        }
        if self.store.contains_live(ts.0) {
            return Err(PutError::DuplicateTimestamp(ts));
        }
        if self.skipped.contains(&ts) {
            // A skip tombstone is a promise that the item never arrives;
            // consumers may already have acted on it, so a late put is
            // refused like a duplicate of the (phantom) skipped item.
            return Err(PutError::DuplicateTimestamp(ts));
        }
        // Seed the cover count: a connection may already cover a fresh item
        // (frontier advanced past it, or consume-before-put).
        let mut covered: u32 = 0;
        if !self.in_conns.is_empty() {
            let mut all_above = true;
            for c in self.in_conns.values() {
                if ts < c.frontier {
                    covered += 1;
                } else {
                    all_above = false;
                    if c.consumed.contains(&ts) {
                        covered += 1;
                    }
                }
            }
            if all_above {
                // No attached consumer could ever observe this item.
                return Err(PutError::BelowFrontier(ts));
            }
        }
        self.store.insert(ts.0, value, covered);
        self.stats.on_put(self.store.occupancy());
        Ok(())
    }

    /// Record a skip tombstone at `ts`: the producer promises the item will
    /// never be put. A no-op when an item already exists at `ts` (the item
    /// wins), when `ts` is below the GC floor, or when the channel is
    /// closed. Returns true when a tombstone was newly recorded (the caller
    /// then wakes blocked getters).
    pub(crate) fn do_mark_skipped(&mut self, ts: Timestamp) -> bool {
        if self.closed || ts.0 < self.store.floor() || self.store.contains_live(ts.0) {
            return false;
        }
        self.skipped.insert(ts)
    }

    /// Whether a put would currently block on capacity. Retained history
    /// never counts: capacity bounds *live* items, the flow-control quantity.
    pub(crate) fn at_capacity(&self) -> bool {
        match self.capacity {
            Some(cap) => self.store.len_live() >= cap,
            None => false,
        }
    }

    /// Mark `ts` consumed by `conn`, updating the item's cover count.
    /// Does not run the GC; the caller decides when.
    pub(crate) fn do_consume(&mut self, conn: ConnId, ts: Timestamp) -> Result<(), ConsumeError> {
        // INVARIANT: `conn` comes from a live `InputConn`, whose entry stays
        // in `in_conns` until the connection's own drop detaches it.
        let cs = self.in_conns.get_mut(&conn).expect("attached");
        if ts < cs.frontier {
            return Err(ConsumeError::BelowFrontier(ts));
        }
        if !cs.consumed.insert(ts) {
            return Err(ConsumeError::AlreadyConsumed(ts));
        }
        self.store.bump_covered(ts.0);
        Ok(())
    }

    /// Consume every live, not-yet-consumed timestamp in `[from, to)` on
    /// `conn`, in one pass. Returns the number newly consumed. Timestamps
    /// below the connection's frontier are already covered and are skipped
    /// (not an error, unlike [`do_consume`](Self::do_consume)).
    pub(crate) fn do_consume_range(&mut self, conn: ConnId, from: Timestamp, to: Timestamp) -> u64 {
        // INVARIANT: `conn` comes from a live `InputConn` (see `do_consume`).
        let cs = self.in_conns.get_mut(&conn).expect("attached");
        let lo = from.max(cs.frontier);
        if lo >= to {
            return 0;
        }
        // One binary search to the start row, then one walk over the rows
        // (no per-item tree descent).
        let consumed = &mut cs.consumed;
        self.store
            .bump_covered_range(lo.0, to.0, |t| consumed.insert(Timestamp(t)))
    }

    /// Advance `conn`'s frontier (monotonic: lower values are ignored),
    /// updating cover counts for every newly covered live item. Does not
    /// run the GC; the caller decides when.
    pub(crate) fn do_advance_frontier(&mut self, conn: ConnId, frontier: Timestamp) {
        // INVARIANT: `conn` comes from a live `InputConn` (see `do_consume`).
        let cs = self.in_conns.get_mut(&conn).expect("attached");
        if frontier <= cs.frontier {
            return;
        }
        let old = cs.frontier;
        cs.frontier = frontier;
        let consumed = &mut cs.consumed;
        // Explicitly consumed items were counted at consume time.
        self.store
            .bump_covered_range(old.0, frontier.0, |t| !consumed.contains(&Timestamp(t)));
        // Explicit consumes below the new frontier are now redundant.
        if consumed.first().is_some_and(|&t| t < frontier) {
            *consumed = consumed.split_off(&frontier);
        }
    }

    /// Resolve a [`TsSpec`] against the current contents for connection
    /// `conn`. On success, updates `last_gotten` and returns the timestamp
    /// and value.
    pub(crate) fn do_get(
        &mut self,
        conn: ConnId,
        spec: TsSpec,
    ) -> Result<(Timestamp, Arc<T>), GetMiss> {
        // INVARIANT: `conn` comes from a live `InputConn` (see `do_consume`).
        let cs = self.in_conns.get(&conn).expect("connection detached");
        let eligible =
            |s: &InConnState, ts: Timestamp| ts >= s.frontier && !s.consumed.contains(&ts);

        let found: Option<Timestamp> = match spec {
            TsSpec::Exact(ts) => {
                if ts < cs.frontier {
                    self.stats.on_miss();
                    return Err(self.miss(conn, MissReason::BelowFrontier, Some(ts)));
                }
                if cs.consumed.contains(&ts) {
                    self.stats.on_miss();
                    return Err(self.miss(conn, MissReason::AlreadyConsumed, Some(ts)));
                }
                if !self.store.contains_live(ts.0) && self.skipped.contains(&ts) {
                    self.stats.on_miss();
                    return Err(self.miss(conn, MissReason::Skipped, Some(ts)));
                }
                self.store.contains_live(ts.0).then_some(ts)
            }
            TsSpec::Newest => self
                .store
                .last_match(0, |t| eligible(cs, Timestamp(t)))
                .map(Timestamp),
            TsSpec::Oldest => self
                .store
                .first_match(0, |t| eligible(cs, Timestamp(t)))
                .map(Timestamp),
            TsSpec::NewestUnseen => {
                let lower = cs.last_gotten.map_or(Timestamp::ZERO, Timestamp::next);
                self.store
                    .last_match(lower.0, |t| eligible(cs, Timestamp(t)))
                    .map(Timestamp)
            }
            TsSpec::NewestUnseenGlobal => {
                let lower = self
                    .global_last_gotten
                    .map_or(Timestamp::ZERO, Timestamp::next);
                self.store
                    .last_match(lower.0, |t| eligible(cs, Timestamp(t)))
                    .map(Timestamp)
            }
            TsSpec::NextUnseen => {
                let lower = cs.last_gotten.map_or(Timestamp::ZERO, Timestamp::next);
                self.store
                    .first_match(lower.0, |t| eligible(cs, Timestamp(t)))
                    .map(Timestamp)
            }
            TsSpec::AtOrAfter(bound) => self
                .store
                .first_match(bound.0, |t| eligible(cs, Timestamp(t)))
                .map(Timestamp),
        };

        match found {
            Some(ts) => {
                // INVARIANT: `found` was selected from the store's live rows
                // under this same `&mut self` borrow — it cannot vanish.
                let value = self.store.clone_value(ts.0).expect("found ts present");
                // INVARIANT: `conn` is live (see `do_consume`); re-borrowed
                // mutably only because the lookup above ended the shared one.
                let cs = self.in_conns.get_mut(&conn).expect("connection detached");
                cs.last_gotten = Some(cs.last_gotten.map_or(ts, |p| p.max(ts)));
                self.global_last_gotten = Some(self.global_last_gotten.map_or(ts, |p| p.max(ts)));
                self.stats.on_get();
                Ok((ts, value))
            }
            None => {
                self.stats.on_miss();
                let point = match spec {
                    TsSpec::Exact(ts) | TsSpec::AtOrAfter(ts) => Some(ts),
                    TsSpec::NewestUnseenGlobal => Some(
                        self.global_last_gotten
                            .map_or(Timestamp::ZERO, Timestamp::next),
                    ),
                    TsSpec::NewestUnseen | TsSpec::NextUnseen => Some(
                        self.in_conns[&conn]
                            .last_gotten
                            .map_or(Timestamp::ZERO, Timestamp::next),
                    ),
                    TsSpec::Newest | TsSpec::Oldest => None,
                };
                let reason = if self.closed {
                    MissReason::ClosedEmpty
                } else {
                    MissReason::NotYetAvailable
                };
                Err(self.miss(conn, reason, point))
            }
        }
    }

    /// Build a [`GetMiss`] with the neighbouring available timestamps around
    /// `point` (or around the whole range when `point` is `None`).
    fn miss(&self, _conn: ConnId, reason: MissReason, point: Option<Timestamp>) -> GetMiss {
        let (below, above) = self.store.neighbors(point.map(|p| p.0));
        GetMiss {
            reason,
            below: below.map(Timestamp),
            above: above.map(Timestamp),
        }
    }

    pub(crate) fn detach_input(&mut self, conn: ConnId) {
        if let Some(cs) = self.in_conns.remove(&conn) {
            // Un-count this connection's coverage so remaining counts stay
            // relative to the smaller connection set. (Items it covered are
            // covered by one fewer connection, but also need one fewer.)
            self.store.for_each_live_covered_mut(|ts, covered| {
                if cs.covers(Timestamp(ts)) {
                    *covered -= 1;
                }
            });
        }
        self.gc();
    }

    /// Returns true if the channel should close because the last producer
    /// detached.
    pub(crate) fn detach_output(&mut self) -> bool {
        self.out_count -= 1;
        if self.out_count == 0 && self.ever_output {
            self.closed = true;
            true
        } else {
            false
        }
    }

    /// Debug-only consistency check: every cover count equals the number of
    /// connections whose cursor state covers the item.
    #[cfg(test)]
    pub(crate) fn assert_cover_counts(&self) {
        for (ts, covered) in self.store.live_rows_snapshot() {
            let ts = Timestamp(ts);
            let want = self.in_conns.values().filter(|c| c.covers(ts)).count();
            assert_eq!(
                covered as usize, want,
                "cover count for {ts} diverged from cursor state"
            );
        }
        self.store.check_invariants();
    }
}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        let st = self.state.get_mut();
        st.stats.dropped_live += st.store.len_live() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_configures_capacity_and_name() {
        let ch: Channel<u32> = ChannelBuilder::new("c").capacity(2).build();
        assert_eq!(ch.name(), "c");
        let out = ch.attach_output();
        out.put(Timestamp(0), 10).unwrap();
        out.try_put(Timestamp(1), 11).unwrap();
        assert_eq!(out.try_put(Timestamp(2), 12), Err(PutError::Full));
    }

    #[test]
    fn raising_capacity_admits_and_wakes_producers() {
        let ch: Channel<u32> = Channel::with_capacity("c", 1);
        assert_eq!(ch.capacity(), Some(1));
        let out = ch.attach_output();
        out.put(Timestamp(0), 10).unwrap();
        assert_eq!(out.try_put(Timestamp(1), 11), Err(PutError::Full));
        // A producer parked on the old bound (or arriving after the new
        // one: either way it must return) gets in once there is room.
        let parked = std::thread::spawn(move || out.put(Timestamp(1), 11));
        ch.set_capacity(2);
        parked.join().unwrap().unwrap();
        assert_eq!((ch.capacity(), ch.len()), (Some(2), 2));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = ChannelBuilder::new("c").capacity(0);
    }

    #[test]
    fn duplicate_timestamp_rejected() {
        let ch: Channel<u32> = Channel::new("c");
        let out = ch.attach_output();
        out.put(Timestamp(5), 1).unwrap();
        assert_eq!(
            out.put(Timestamp(5), 2),
            Err(PutError::DuplicateTimestamp(Timestamp(5)))
        );
    }

    #[test]
    fn out_of_order_puts_accepted() {
        let ch: Channel<u32> = Channel::new("c");
        let out = ch.attach_output();
        out.put(Timestamp(3), 3).unwrap();
        out.put(Timestamp(1), 1).unwrap();
        out.put(Timestamp(2), 2).unwrap();
        assert_eq!(ch.oldest_ts(), Some(Timestamp(1)));
        assert_eq!(ch.newest_ts(), Some(Timestamp(3)));
        assert_eq!(ch.len(), 3);
    }

    #[test]
    fn gc_is_prefix_ordered() {
        let ch: Channel<u32> = Channel::new("c");
        let out = ch.attach_output();
        let inp = ch.attach_input();
        for t in 0..4 {
            out.put(Timestamp(t), t as u32).unwrap();
        }
        // Consuming ts 2 alone reclaims nothing: ts 0,1 still uncovered.
        inp.consume(Timestamp(2)).unwrap();
        assert_eq!(ch.len(), 4);
        // Advancing the frontier past 0..=1 reclaims 0,1 AND the already
        // consumed 2, but not 3.
        inp.advance_frontier(Timestamp(2));
        assert_eq!(ch.len(), 1);
        assert_eq!(ch.gc_floor(), Timestamp(3));
        assert_eq!(ch.oldest_ts(), Some(Timestamp(3)));
    }

    #[test]
    fn gc_waits_for_all_consumers() {
        let ch: Channel<u32> = Channel::new("c");
        let out = ch.attach_output();
        let a = ch.attach_input();
        let b = ch.attach_input();
        out.put(Timestamp(0), 7).unwrap();
        a.consume(Timestamp(0)).unwrap();
        assert_eq!(ch.len(), 1, "second consumer still owes a consume");
        b.consume(Timestamp(0)).unwrap();
        assert_eq!(ch.len(), 0);
        assert_eq!(ch.stats().reclaimed, 1);
    }

    #[test]
    fn no_reclamation_without_consumers() {
        let ch: Channel<u32> = Channel::new("c");
        let out = ch.attach_output();
        out.put(Timestamp(0), 7).unwrap();
        assert_eq!(ch.len(), 1);
    }

    #[test]
    fn detach_releases_obligation() {
        let ch: Channel<u32> = Channel::new("c");
        let out = ch.attach_output();
        let a = ch.attach_input();
        let b = ch.attach_input();
        out.put(Timestamp(0), 7).unwrap();
        a.consume(Timestamp(0)).unwrap();
        drop(b); // detach: `a`'s consume now suffices
        assert_eq!(ch.len(), 0);
    }

    #[test]
    fn put_below_all_frontiers_rejected() {
        let ch: Channel<u32> = Channel::new("c");
        let out = ch.attach_output();
        let inp = ch.attach_input();
        inp.advance_frontier(Timestamp(10));
        assert_eq!(
            out.put(Timestamp(5), 0),
            Err(PutError::BelowFrontier(Timestamp(5)))
        );
        // But a second consumer with a low frontier makes it observable.
        let _inp2 = ch.attach_input();
        out.put(Timestamp(5), 0).unwrap();
    }

    #[test]
    fn put_covered_by_some_consumers_seeds_cover_count() {
        let ch: Channel<u32> = Channel::new("c");
        let out = ch.attach_output();
        let a = ch.attach_input();
        let b = ch.attach_input();
        a.advance_frontier(Timestamp(10));
        // `a` already covers ts 5; only `b`'s consume is owed.
        out.put(Timestamp(5), 0).unwrap();
        ch.inner.state.lock().assert_cover_counts();
        b.consume(Timestamp(5)).unwrap();
        assert_eq!(ch.len(), 0, "both covering → reclaimed");
    }

    #[test]
    fn consume_before_put_reclaims_on_put() {
        let ch: Channel<u32> = Channel::new("c");
        let out = ch.attach_output();
        let inp = ch.attach_input();
        inp.consume(Timestamp(3)).unwrap();
        out.put(Timestamp(3), 9).unwrap();
        assert_eq!(ch.len(), 0, "consume-before-put covers the fresh item");
        assert_eq!(ch.stats().reclaimed, 1);
    }

    #[test]
    fn reput_of_reclaimed_timestamp_rejected() {
        let ch: Channel<u32> = Channel::new("c");
        let out = ch.attach_output();
        let inp = ch.attach_input();
        out.put(Timestamp(0), 1).unwrap();
        inp.consume(Timestamp(0)).unwrap();
        assert_eq!(ch.len(), 0);
        assert_eq!(
            out.put(Timestamp(0), 2),
            Err(PutError::BelowFrontier(Timestamp(0)))
        );
    }

    #[test]
    fn close_rejects_puts() {
        let ch: Channel<u32> = Channel::new("c");
        let out = ch.attach_output();
        ch.close();
        assert!(ch.is_closed());
        assert_eq!(out.put(Timestamp(0), 1), Err(PutError::Closed));
    }

    #[test]
    fn last_output_detach_closes_channel() {
        let ch: Channel<u32> = Channel::new("c");
        let out = ch.attach_output();
        let out2 = ch.attach_output();
        drop(out);
        assert!(!ch.is_closed());
        drop(out2);
        assert!(ch.is_closed());
    }

    #[test]
    fn late_consumer_starts_at_gc_floor() {
        let ch: Channel<u32> = Channel::new("c");
        let out = ch.attach_output();
        let a = ch.attach_input();
        out.put(Timestamp(0), 0).unwrap();
        out.put(Timestamp(1), 1).unwrap();
        a.consume(Timestamp(0)).unwrap();
        assert_eq!(ch.gc_floor(), Timestamp(1));
        let b = ch.attach_input();
        // b can see ts 1 but a get for ts 0 is permanently unsatisfiable.
        assert!(b.try_get(TsSpec::Exact(Timestamp(1))).is_ok());
        let miss = b.try_get(TsSpec::Exact(Timestamp(0))).unwrap_err();
        assert_eq!(miss.reason, MissReason::BelowFrontier);
    }

    #[test]
    fn snapshot_tracks_state_without_locking() {
        let ch: Channel<u32> = Channel::new("c");
        let out = ch.attach_output();
        let inp = ch.attach_input();
        assert_eq!(
            ch.snapshot(),
            ChannelSnapshot {
                gc_floor: 0,
                live: 0,
                closed: false
            }
        );
        out.put(Timestamp(0), 1).unwrap();
        out.put(Timestamp(1), 2).unwrap();
        assert_eq!(ch.snapshot().live, 2);
        inp.consume_through(Timestamp(0));
        let snap = ch.snapshot();
        assert_eq!(snap.gc_floor, 1);
        assert_eq!(snap.live, 1);
        ch.close();
        assert!(ch.snapshot().closed);
    }

    #[test]
    fn cover_counts_stay_consistent_across_mixed_ops() {
        let ch: Channel<u32> = Channel::new("c");
        let out = ch.attach_output();
        let a = ch.attach_input();
        let b = ch.attach_input();
        for t in 0..8 {
            out.put(Timestamp(t), t as u32).unwrap();
        }
        a.consume(Timestamp(2)).unwrap();
        a.advance_frontier(Timestamp(2));
        b.consume(Timestamp(0)).unwrap();
        ch.inner.state.lock().assert_cover_counts();
        b.advance_frontier(Timestamp(5));
        ch.inner.state.lock().assert_cover_counts();
        a.advance_frontier(Timestamp(7));
        ch.inner.state.lock().assert_cover_counts();
        drop(b);
        ch.inner.state.lock().assert_cover_counts();
        assert_eq!(ch.gc_floor(), Timestamp(7));
    }

    #[test]
    fn gc_round_counter_increments() {
        let ch: Channel<u32> = Channel::new("c");
        let out = ch.attach_output();
        let inp = ch.attach_input();
        out.put(Timestamp(0), 0).unwrap();
        inp.consume(Timestamp(0)).unwrap();
        assert!(ch.stats().gc_rounds >= 2, "{:?}", ch.stats());
    }

    #[test]
    fn debug_formats() {
        let ch: Channel<u32> = Channel::new("frames");
        assert!(format!("{ch:?}").contains("frames"));
    }
}
