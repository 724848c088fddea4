//! The row store behind a channel: one time-sorted queue of items.
//!
//! Each row holds a timestamp, the payload `Arc`, the row's incremental GC
//! cover count and its payload byte weight. Rows sit in one `VecDeque`,
//! sorted by time:
//!
//! ```text
//!   rows: [ h0 h1 h2 | l0 l1 l2 l3 ]
//!           retained    live (ts >= floor)
//!           history     puts land here: push_back, or insert at
//!           (ts < floor) their partition point when out of order
//! ```
//!
//! Every lookup is one binary search plus one walk over a contiguous run
//! of rows. Monotone puts (every production channel) are a `push_back`;
//! an out-of-order put shifts the rows after it, which is cheap because a
//! channel holds a handful of live items.
//!
//! # GC: floor and history
//!
//! The **floor** advances over the prefix of live rows whose cover count
//! equals the attached-consumer count, exactly as the per-item store did,
//! so duplicate rejection, `BelowFrontier` and capacity behave the same.
//! Each row the floor passes becomes history. History is trimmed
//! oldest-first while it holds more rows than the row cap or more payload
//! bytes than the byte cap. With retention off (the default, a row cap of
//! zero) a passed row is popped in the same reclaim call, which releases
//! its payload `Arc` before the channel lock is dropped, so buffer pools
//! see their buffers return at once. With retention on, history answers
//! [`RowStore::latest_at`] and [`RowStore::range_query`].

use std::collections::VecDeque;
use std::sync::Arc;

/// History budget of a [`RowStore`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct StoreConfig {
    /// Reclaimed rows to keep as queryable history (0: drop each payload
    /// as the floor passes it).
    pub(crate) retain_rows: usize,
    /// Byte cap on history payloads.
    pub(crate) retain_bytes: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            retain_rows: 0,
            retain_bytes: usize::MAX,
        }
    }
}

/// Current occupancy of a store, in every unit the GC policy is judged by.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Occupancy {
    /// Live (not yet reclaimed) rows.
    pub(crate) live: usize,
    /// Payload bytes held by live rows.
    pub(crate) bytes_live: usize,
    /// Payload bytes held as reclaimed-but-retained history.
    pub(crate) retained_bytes: usize,
}

struct Row<T> {
    ts: u64,
    value: Arc<T>,
    covered: u32,
    weight: usize,
}

/// The row store. All methods assume the caller (the channel state, under
/// its lock) has already validated timestamps against the floor and
/// duplicate rules.
pub(crate) struct RowStore<T> {
    /// Sorted by `ts`; the first `retained` rows are history below the
    /// floor, the rest are live.
    rows: VecDeque<Row<T>>,
    retained: usize,
    cfg: StoreConfig,
    /// Everything below this is reclaimed (the channel's `gc_floor`).
    floor: u64,
    bytes_live: usize,
    bytes_retained: usize,
    /// Payload byte sizing hook (defaults to `size_of::<T>()`).
    weigh: fn(&T) -> usize,
}

impl<T> RowStore<T> {
    pub(crate) fn new(cfg: StoreConfig, weigh: fn(&T) -> usize) -> Self {
        RowStore {
            rows: VecDeque::new(),
            retained: 0,
            cfg,
            floor: 0,
            bytes_live: 0,
            bytes_retained: 0,
            weigh,
        }
    }

    pub(crate) fn floor(&self) -> u64 {
        self.floor
    }

    pub(crate) fn len_live(&self) -> usize {
        self.rows.len() - self.retained
    }

    pub(crate) fn occupancy(&self) -> Occupancy {
        Occupancy {
            live: self.len_live(),
            bytes_live: self.bytes_live,
            retained_bytes: self.bytes_retained,
        }
    }

    /// Index of the first row with a timestamp `>= ts`.
    fn lower_bound(&self, ts: u64) -> usize {
        self.rows.partition_point(|r| r.ts < ts)
    }

    /// Index of the live row at exactly `ts`.
    fn find_live(&self, ts: u64) -> Option<usize> {
        if ts < self.floor {
            return None;
        }
        self.rows.binary_search_by_key(&ts, |r| r.ts).ok()
    }

    /// Smallest live timestamp, if any.
    pub(crate) fn first_live(&self) -> Option<u64> {
        self.rows.get(self.retained).map(|r| r.ts)
    }

    /// Largest live timestamp, if any.
    pub(crate) fn last_live(&self) -> Option<u64> {
        self.rows.back().map(|r| r.ts).filter(|&t| t >= self.floor)
    }

    /// Whether a live row exists at exactly `ts`.
    pub(crate) fn contains_live(&self, ts: u64) -> bool {
        self.find_live(ts).is_some()
    }

    /// Clone the payload of the live row at `ts`.
    pub(crate) fn clone_value(&self, ts: u64) -> Option<Arc<T>> {
        self.find_live(ts).map(|i| Arc::clone(&self.rows[i].value))
    }

    /// Insert a live row at its place in time order (the back, for a
    /// monotone put). The caller guarantees `ts >= floor` and that no live
    /// row exists at `ts`; history is all below the floor, so the row
    /// always lands among the live ones.
    pub(crate) fn insert(&mut self, ts: u64, value: Arc<T>, covered: u32) {
        debug_assert!(ts >= self.floor, "insert below floor");
        let weight = (self.weigh)(&value);
        let i = self.lower_bound(ts);
        debug_assert!(self.rows.get(i).is_none_or(|r| r.ts != ts), "duplicate row");
        self.rows.insert(
            i,
            Row {
                ts,
                value,
                covered,
                weight,
            },
        );
        self.bytes_live += weight;
    }

    /// Increment the cover count of the live row at `ts`, if present.
    pub(crate) fn bump_covered(&mut self, ts: u64) {
        if let Some(i) = self.find_live(ts) {
            self.rows[i].covered += 1;
        }
    }

    /// For every live row in `[lo, hi)`, call `cover(ts)`; increment the
    /// row's cover count when it returns true. Returns the number of rows
    /// newly covered.
    pub(crate) fn bump_covered_range(
        &mut self,
        lo: u64,
        hi: u64,
        mut cover: impl FnMut(u64) -> bool,
    ) -> u64 {
        let lo = lo.max(self.floor);
        if lo >= hi {
            return 0;
        }
        let start = self.lower_bound(lo);
        let mut n = 0;
        for r in self.rows.range_mut(start..) {
            if r.ts >= hi {
                break;
            }
            if cover(r.ts) {
                r.covered += 1;
                n += 1;
            }
        }
        n
    }

    /// Visit every live row's cover count mutably (input-detach un-counting).
    pub(crate) fn for_each_live_covered_mut(&mut self, mut f: impl FnMut(u64, &mut u32)) {
        for r in self.rows.range_mut(self.retained..) {
            f(r.ts, &mut r.covered);
        }
    }

    /// Smallest live timestamp `>= lower` satisfying `pred`.
    pub(crate) fn first_match(&self, lower: u64, mut pred: impl FnMut(u64) -> bool) -> Option<u64> {
        let start = self.lower_bound(lower.max(self.floor));
        self.rows.range(start..).map(|r| r.ts).find(|&t| pred(t))
    }

    /// Largest live timestamp `>= lower` satisfying `pred`.
    pub(crate) fn last_match(&self, lower: u64, mut pred: impl FnMut(u64) -> bool) -> Option<u64> {
        let start = self.lower_bound(lower.max(self.floor));
        self.rows
            .range(start..)
            .rev()
            .map(|r| r.ts)
            .find(|&t| pred(t))
    }

    /// Live timestamps neighbouring `point`: the largest live row strictly
    /// below it and the smallest live row at or above it. With no point,
    /// returns the largest live row overall (the old store's miss shape).
    pub(crate) fn neighbors(&self, point: Option<u64>) -> (Option<u64>, Option<u64>) {
        match point {
            Some(p) => {
                let end = self.lower_bound(p.max(self.floor));
                let below = end.checked_sub(1).filter(|&i| i >= self.retained);
                (
                    below.map(|i| self.rows[i].ts),
                    self.rows.get(end).map(|r| r.ts),
                )
            }
            None => (self.last_live(), None),
        }
    }

    /// Reclaim the covered prefix: advance the floor over live rows while
    /// their cover count equals `n_in`, then trim history to its budget.
    /// Returns the number of rows reclaimed.
    pub(crate) fn reclaim(&mut self, n_in: usize) -> u64 {
        let n_in = u32::try_from(n_in).unwrap_or(u32::MAX);
        let mut n = 0u64;
        while let Some(r) = self.rows.get(self.retained) {
            if r.covered != n_in {
                break;
            }
            self.floor = r.ts + 1;
            self.bytes_live -= r.weight;
            self.bytes_retained += r.weight;
            self.retained += 1;
            n += 1;
        }
        while self.retained > 0
            && (self.retained > self.cfg.retain_rows || self.bytes_retained > self.cfg.retain_bytes)
        {
            if let Some(r) = self.rows.pop_front() {
                self.retained -= 1;
                self.bytes_retained -= r.weight;
            }
        }
        n
    }

    /// Newest retained-or-live payload at or before `ts` — the time-travel
    /// query for late-joining consumers and the replay reader. Ignores
    /// consumer cursor state entirely.
    pub(crate) fn latest_at(&self, ts: u64) -> Option<(u64, Arc<T>)> {
        let end = self.rows.partition_point(|r| r.ts <= ts);
        let r = &self.rows[end.checked_sub(1)?];
        Some((r.ts, Arc::clone(&r.value)))
    }

    /// All retained-or-live payloads with timestamps in `[lo, hi)`, oldest
    /// first.
    pub(crate) fn range_query(&self, lo: u64, hi: u64) -> Vec<(u64, Arc<T>)> {
        self.rows
            .range(self.lower_bound(lo)..)
            .take_while(|r| r.ts < hi)
            .map(|r| (r.ts, Arc::clone(&r.value)))
            .collect()
    }

    /// Live rows as `(ts, covered)` pairs, oldest first (test support).
    #[cfg(test)]
    pub(crate) fn live_rows_snapshot(&self) -> Vec<(u64, u32)> {
        self.rows
            .range(self.retained..)
            .map(|r| (r.ts, r.covered))
            .collect()
    }

    /// Structural invariants: ordering, the history/live split, byte
    /// accounting and the history budget.
    #[cfg(test)]
    pub(crate) fn check_invariants(&self) {
        for (a, b) in self.rows.iter().zip(self.rows.iter().skip(1)) {
            assert!(
                a.ts < b.ts,
                "times not strictly increasing: {} then {}",
                a.ts,
                b.ts
            );
        }
        let (history, live) = (
            self.rows.range(..self.retained),
            self.rows.range(self.retained..),
        );
        assert!(
            history.clone().all(|r| r.ts < self.floor),
            "history above floor"
        );
        assert!(
            live.clone().all(|r| r.ts >= self.floor),
            "live row below floor"
        );
        let bytes = |rows: std::collections::vec_deque::Iter<'_, Row<T>>| {
            rows.map(|r| r.weight).sum::<usize>()
        };
        assert_eq!(bytes(live), self.bytes_live, "live byte count diverged");
        assert_eq!(
            bytes(history),
            self.bytes_retained,
            "retained byte count diverged"
        );
        assert!(
            self.retained <= self.cfg.retain_rows,
            "history over row cap"
        );
        assert!(
            self.bytes_retained <= self.cfg.retain_bytes,
            "history over byte cap"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(retain_rows: usize, retain_bytes: usize) -> RowStore<u64> {
        RowStore::new(
            StoreConfig {
                retain_rows,
                retain_bytes,
            },
            |_| 8,
        )
    }

    fn live(s: &RowStore<u64>) -> Vec<u64> {
        s.live_rows_snapshot().iter().map(|r| r.0).collect()
    }

    #[test]
    fn out_of_order_inserts_stay_sorted() {
        let mut s = store(0, usize::MAX);
        for t in [0u64, 2, 4, 6, 3, 9, 1] {
            s.insert(t, Arc::new(t), 0);
        }
        assert_eq!(live(&s), vec![0, 1, 2, 3, 4, 6, 9]);
        assert_eq!(s.len_live(), 7);
        assert_eq!(s.first_live(), Some(0));
        assert_eq!(s.last_live(), Some(9));
        s.check_invariants();
    }

    #[test]
    fn reclaim_advances_floor_and_drops_payloads() {
        let mut s = store(0, usize::MAX);
        let first = Arc::new(0u64);
        s.insert(0, Arc::clone(&first), 1);
        for t in 1..8 {
            s.insert(t, Arc::new(t), 1);
        }
        assert_eq!(s.reclaim(1), 8);
        assert_eq!(s.floor(), 8);
        assert_eq!(s.len_live(), 0);
        assert_eq!(s.occupancy().bytes_live, 0);
        assert_eq!(s.occupancy().retained_bytes, 0);
        assert_eq!(Arc::strong_count(&first), 1, "payload released at reclaim");
        s.check_invariants();
    }

    #[test]
    fn partial_coverage_stops_reclaim() {
        let mut s = store(0, usize::MAX);
        for t in 0..6 {
            s.insert(t, Arc::new(t), u32::from(t != 3));
        }
        assert_eq!(s.reclaim(1), 3);
        assert_eq!(s.floor(), 3);
        assert_eq!(live(&s), vec![3, 4, 5], "uncovered row 3 holds the rest");
        s.check_invariants();
    }

    #[test]
    fn row_cap_keeps_newest_history_for_latest_at() {
        let mut s = store(4, usize::MAX);
        for t in 0..6 {
            s.insert(t, Arc::new(t * 10), 1);
        }
        assert_eq!(s.reclaim(1), 6);
        assert_eq!(s.len_live(), 0);
        assert_eq!(s.occupancy().retained_bytes, 4 * 8);
        assert_eq!(s.latest_at(5).map(|(t, v)| (t, *v)), Some((5, 50)));
        assert_eq!(s.latest_at(2).map(|(t, v)| (t, *v)), Some((2, 20)));
        assert_eq!(s.latest_at(1), None, "evicted beyond the row cap");
        let r: Vec<u64> = s.range_query(0, 10).iter().map(|(t, _)| *t).collect();
        assert_eq!(r, vec![2, 3, 4, 5]);
        s.check_invariants();
    }

    #[test]
    fn byte_cap_evicts_oldest_history_first() {
        let mut s = store(100, 40); // 5 rows of 8 bytes
        for t in 0..8 {
            s.insert(t, Arc::new(t), 1);
        }
        s.reclaim(1);
        assert_eq!(s.occupancy().retained_bytes, 40);
        assert_eq!(s.latest_at(7).map(|(t, _)| t), Some(7));
        assert_eq!(s.latest_at(3).map(|(t, _)| t), Some(3));
        assert_eq!(s.latest_at(2), None, "oldest rows evicted by the byte cap");
        s.check_invariants();
    }

    #[test]
    fn latest_at_sees_no_reclaimed_row_without_retention() {
        let mut s = store(0, usize::MAX);
        for t in 0..6 {
            s.insert(t, Arc::new(t), u32::from(t < 5));
        }
        s.reclaim(1);
        assert_eq!(s.latest_at(4), None);
        assert_eq!(s.latest_at(9).map(|(t, _)| t), Some(5));
        s.check_invariants();
    }

    #[test]
    fn neighbors_ignore_history() {
        let mut s = store(8, usize::MAX);
        for t in [1u64, 3, 5, 7] {
            s.insert(t, Arc::new(t), u32::from(t == 1));
        }
        s.reclaim(1);
        assert_eq!(s.neighbors(Some(4)), (Some(3), Some(5)));
        assert_eq!(s.neighbors(Some(3)), (None, Some(3)), "row 1 is history");
        assert_eq!(s.neighbors(Some(0)), (None, Some(3)));
        assert_eq!(s.neighbors(Some(9)), (Some(7), None));
        assert_eq!(s.neighbors(None), (Some(7), None));
    }

    #[test]
    fn matches_respect_floor_and_predicate() {
        let mut s = store(8, usize::MAX);
        for t in 0..9 {
            s.insert(t, Arc::new(t), u32::from(t < 4));
        }
        s.reclaim(1);
        assert_eq!(s.first_match(0, |_| true), Some(4));
        assert_eq!(s.first_match(0, |t| t % 2 == 1), Some(5));
        assert_eq!(s.last_match(0, |t| t % 2 == 0), Some(8));
        assert_eq!(s.last_match(0, |t| t < 4), None, "history never matches");
        assert_eq!(s.last_match(7, |t| t % 2 == 1), Some(7));
        assert_eq!(s.first_match(20, |_| true), None);
    }
}
