//! The original per-item channel store, frozen in-tree as a
//! bit-identity oracle (the PR 3 `online_ref.rs` pattern).
//!
//! [`RefChannel`] is a single-threaded transcription of the channel state
//! machine exactly as it shipped before the store behind it was rewritten:
//! items in a `BTreeMap`, per-item cover counts, prefix GC run at the same
//! points the connection layer runs it (after every put, consume,
//! consume-range and frontier advance). Property tests drive it in lockstep
//! with a real [`crate::Channel`] over random out-of-order interleavings
//! and assert every result — values, errors, miss neighbourhoods, lengths,
//! floors — is identical (`tests/columnar_oracle.rs`).
//!
//! Nothing in the runtime depends on this module. Do not "improve" it: its
//! value is that it stays exactly as the old store behaved.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::sync::Arc;

use crate::error::{ConsumeError, GetMiss, MissReason, PutError};
use crate::time::Timestamp;
use crate::wildcard::TsSpec;

struct RefConn {
    frontier: u64,
    consumed: BTreeSet<u64>,
    last_gotten: Option<u64>,
    attached: bool,
}

impl RefConn {
    fn covers(&self, ts: u64) -> bool {
        ts < self.frontier || self.consumed.contains(&ts)
    }
}

/// The frozen per-item reference store. Connection handles are plain
/// indices returned by [`attach_input`](Self::attach_input); there is no
/// locking, blocking, or capacity — the oracle models the state machine,
/// not the synchronization.
pub struct RefChannel<T> {
    items: BTreeMap<u64, (Arc<T>, usize)>,
    floor: u64,
    skipped: BTreeSet<u64>,
    conns: Vec<RefConn>,
    global_last_gotten: Option<u64>,
    closed: bool,
    reclaimed: u64,
}

impl<T> Default for RefChannel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> RefChannel<T> {
    /// An empty reference store.
    #[must_use]
    pub fn new() -> Self {
        RefChannel {
            items: BTreeMap::new(),
            floor: 0,
            skipped: BTreeSet::new(),
            conns: Vec::new(),
            global_last_gotten: None,
            closed: false,
            reclaimed: 0,
        }
    }

    /// Attach an input connection; returns its id. Mirrors
    /// `Channel::attach_input`: the frontier starts at the GC floor.
    pub fn attach_input(&mut self) -> usize {
        self.conns.push(RefConn {
            frontier: self.floor,
            consumed: BTreeSet::new(),
            last_gotten: None,
            attached: true,
        });
        self.conns.len() - 1
    }

    /// Detach input `conn`, releasing its GC obligations.
    pub fn detach_input(&mut self, conn: usize) {
        if !self.conns[conn].attached {
            return;
        }
        self.conns[conn].attached = false;
        for (&ts, item) in self.items.iter_mut() {
            if self.conns[conn].covers(ts) {
                item.1 -= 1;
            }
        }
        self.gc();
    }

    /// Close the channel for input.
    pub fn close(&mut self) {
        self.closed = true;
    }

    fn n_in(&self) -> usize {
        self.conns.iter().filter(|c| c.attached).count()
    }

    fn gc(&mut self) -> u64 {
        let n_in = self.n_in();
        if n_in == 0 {
            return 0;
        }
        let mut n = 0;
        while let Some((&ts, item)) = self.items.first_key_value() {
            if item.1 == n_in {
                self.items.remove(&ts);
                self.floor = self.floor.max(ts + 1);
                n += 1;
            } else {
                break;
            }
        }
        if n > 0 {
            let floor = self.floor;
            for c in self.conns.iter_mut().filter(|c| c.attached) {
                if c.frontier < floor {
                    c.frontier = floor;
                }
                c.consumed = c.consumed.split_off(&floor);
            }
            self.skipped = self.skipped.split_off(&floor);
            self.reclaimed += n;
        }
        n
    }

    /// Insert at `ts`, then GC — the exact behavior of `OutputConn::put`
    /// (ignoring capacity blocking, which the oracle does not model).
    pub fn put(&mut self, ts: Timestamp, value: Arc<T>) -> Result<(), PutError> {
        let t = ts.0;
        if self.closed {
            return Err(PutError::Closed);
        }
        if t < self.floor {
            return Err(PutError::BelowFrontier(ts));
        }
        if self.items.contains_key(&t) || self.skipped.contains(&t) {
            return Err(PutError::DuplicateTimestamp(ts));
        }
        let mut covered = 0;
        let attached: Vec<&RefConn> = self.conns.iter().filter(|c| c.attached).collect();
        if !attached.is_empty() {
            let mut all_above = true;
            for c in &attached {
                if t < c.frontier {
                    covered += 1;
                } else {
                    all_above = false;
                    if c.consumed.contains(&t) {
                        covered += 1;
                    }
                }
            }
            if all_above {
                return Err(PutError::BelowFrontier(ts));
            }
        }
        self.items.insert(t, (value, covered));
        self.gc();
        Ok(())
    }

    /// Record a skip tombstone; true when newly recorded.
    pub fn mark_skipped(&mut self, ts: Timestamp) -> bool {
        let t = ts.0;
        if self.closed || t < self.floor || self.items.contains_key(&t) {
            return false;
        }
        self.skipped.insert(t)
    }

    /// Consume `ts` on `conn`, then GC (mirrors `InputConn::consume`).
    pub fn consume(&mut self, conn: usize, ts: Timestamp) -> Result<(), ConsumeError> {
        let t = ts.0;
        let cs = &mut self.conns[conn];
        if t < cs.frontier {
            return Err(ConsumeError::BelowFrontier(ts));
        }
        if !cs.consumed.insert(t) {
            return Err(ConsumeError::AlreadyConsumed(ts));
        }
        if let Some(item) = self.items.get_mut(&t) {
            item.1 += 1;
        }
        self.gc();
        Ok(())
    }

    /// Consume every live, unconsumed timestamp in `[from, to)`, then GC.
    pub fn consume_range(&mut self, conn: usize, from: Timestamp, to: Timestamp) -> u64 {
        let cs = &mut self.conns[conn];
        let lo = from.0.max(cs.frontier);
        let mut n = 0;
        if lo < to.0 {
            for (&ts, item) in self.items.range_mut(lo..to.0) {
                if cs.consumed.insert(ts) {
                    item.1 += 1;
                    n += 1;
                }
            }
        }
        self.gc();
        n
    }

    /// Advance `conn`'s frontier (monotonic), then GC.
    pub fn advance_frontier(&mut self, conn: usize, frontier: Timestamp) {
        let f = frontier.0;
        let cs = &mut self.conns[conn];
        if f > cs.frontier {
            let old = cs.frontier;
            cs.frontier = f;
            let consumed = &mut cs.consumed;
            for (&ts, item) in self.items.range_mut(old..f) {
                if !consumed.contains(&ts) {
                    item.1 += 1;
                }
            }
            *consumed = consumed.split_off(&f);
        }
        self.gc();
    }

    /// Resolve `spec` for `conn` — the old `do_get`, verbatim.
    pub fn get(&mut self, conn: usize, spec: TsSpec) -> Result<(Timestamp, Arc<T>), GetMiss> {
        let cs = &self.conns[conn];
        let eligible = |c: &RefConn, ts: u64| ts >= c.frontier && !c.consumed.contains(&ts);
        let found: Option<u64> = match spec {
            TsSpec::Exact(ts) => {
                let t = ts.0;
                if t < cs.frontier {
                    return Err(self.miss(MissReason::BelowFrontier, Some(t)));
                }
                if cs.consumed.contains(&t) {
                    return Err(self.miss(MissReason::AlreadyConsumed, Some(t)));
                }
                if !self.items.contains_key(&t) && self.skipped.contains(&t) {
                    return Err(self.miss(MissReason::Skipped, Some(t)));
                }
                self.items.contains_key(&t).then_some(t)
            }
            TsSpec::Newest => self.items.keys().rev().copied().find(|&t| eligible(cs, t)),
            TsSpec::Oldest => self.items.keys().copied().find(|&t| eligible(cs, t)),
            TsSpec::NewestUnseen => {
                let lower = cs.last_gotten.map_or(0, |t| t + 1);
                self.items
                    .range(lower..)
                    .rev()
                    .map(|(&t, _)| t)
                    .find(|&t| eligible(cs, t))
            }
            TsSpec::NewestUnseenGlobal => {
                let lower = self.global_last_gotten.map_or(0, |t| t + 1);
                self.items
                    .range(lower..)
                    .rev()
                    .map(|(&t, _)| t)
                    .find(|&t| eligible(cs, t))
            }
            TsSpec::NextUnseen => {
                let lower = cs.last_gotten.map_or(0, |t| t + 1);
                self.items
                    .range(lower..)
                    .map(|(&t, _)| t)
                    .find(|&t| eligible(cs, t))
            }
            TsSpec::AtOrAfter(bound) => self
                .items
                .range(bound.0..)
                .map(|(&t, _)| t)
                .find(|&t| eligible(cs, t)),
        };
        match found {
            Some(t) => {
                // INVARIANT: `found` came from `self.items` keys above.
                let value = Arc::clone(&self.items.get(&t).expect("found ts present").0);
                let cs = &mut self.conns[conn];
                cs.last_gotten = Some(cs.last_gotten.map_or(t, |p| p.max(t)));
                self.global_last_gotten = Some(self.global_last_gotten.map_or(t, |p| p.max(t)));
                Ok((Timestamp(t), value))
            }
            None => {
                let point = match spec {
                    TsSpec::Exact(ts) | TsSpec::AtOrAfter(ts) => Some(ts.0),
                    TsSpec::NewestUnseenGlobal => {
                        Some(self.global_last_gotten.map_or(0, |t| t + 1))
                    }
                    TsSpec::NewestUnseen | TsSpec::NextUnseen => {
                        Some(self.conns[conn].last_gotten.map_or(0, |t| t + 1))
                    }
                    TsSpec::Newest | TsSpec::Oldest => None,
                };
                let reason = if self.closed {
                    MissReason::ClosedEmpty
                } else {
                    MissReason::NotYetAvailable
                };
                Err(self.miss(reason, point))
            }
        }
    }

    fn miss(&self, reason: MissReason, point: Option<u64>) -> GetMiss {
        let (below, above) = match point {
            Some(p) => (
                self.items.range(..p).next_back().map(|(&t, _)| t),
                self.items.range(p..).next().map(|(&t, _)| t),
            ),
            None => (self.items.keys().next_back().copied(), None),
        };
        GetMiss {
            reason,
            below: below.map(Timestamp),
            above: above.map(Timestamp),
        }
    }

    /// Number of live items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no items are live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The GC floor.
    #[must_use]
    pub fn gc_floor(&self) -> Timestamp {
        Timestamp(self.floor)
    }

    /// Oldest live timestamp.
    #[must_use]
    pub fn oldest_ts(&self) -> Option<Timestamp> {
        self.items.keys().next().copied().map(Timestamp)
    }

    /// Newest live timestamp.
    #[must_use]
    pub fn newest_ts(&self) -> Option<Timestamp> {
        self.items.keys().next_back().copied().map(Timestamp)
    }

    /// Total items reclaimed by the GC.
    #[must_use]
    pub fn reclaimed(&self) -> u64 {
        self.reclaimed
    }

    /// `conn`'s current frontier.
    #[must_use]
    pub fn frontier(&self, conn: usize) -> Timestamp {
        Timestamp(self.conns[conn].frontier)
    }

    /// Live payload bytes under `weigh` — the per-item store's memory
    /// occupancy (it has no retained-history tier; everything live is the
    /// bill).
    #[must_use]
    pub fn bytes_live(&self, weigh: fn(&T) -> usize) -> usize {
        self.items.values().map(|(v, _)| weigh(v)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mirrors_basic_put_consume_gc() {
        let mut r: RefChannel<u64> = RefChannel::new();
        let c = r.attach_input();
        r.put(Timestamp(0), Arc::new(10)).unwrap();
        r.put(Timestamp(1), Arc::new(11)).unwrap();
        assert_eq!(r.len(), 2);
        r.consume(c, Timestamp(0)).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.gc_floor(), Timestamp(1));
        assert_eq!(
            r.put(Timestamp(0), Arc::new(12)),
            Err(PutError::BelowFrontier(Timestamp(0)))
        );
        r.advance_frontier(c, Timestamp(2));
        assert_eq!(r.len(), 0);
        assert_eq!(r.reclaimed(), 2);
    }

    #[test]
    fn detach_releases_obligation_like_channel() {
        let mut r: RefChannel<u64> = RefChannel::new();
        let a = r.attach_input();
        let b = r.attach_input();
        r.put(Timestamp(0), Arc::new(7)).unwrap();
        r.consume(a, Timestamp(0)).unwrap();
        assert_eq!(r.len(), 1);
        r.detach_input(b);
        assert_eq!(r.len(), 0);
    }
}
