//! Channel occupancy, traffic, and contention statistics.

use crate::store::Occupancy;

/// Counters describing a channel's history, used by the experiment harnesses
/// to verify the paper's claim that a fixed schedule bounds channel occupancy
/// ("a fixed schedule determines the number of items in each channel"), and
/// by the data-path benchmarks to observe lock contention on the online
/// executor's hot path.
///
/// Occupancy is tracked in every unit the GC policy is judged by: item
/// counts and payload bytes (live and retained history), each with a
/// high-water mark.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ChannelStats {
    /// Successful puts.
    pub puts: u64,
    /// Successful gets (including repeated gets of one item).
    pub gets: u64,
    /// `try_get` calls that missed.
    pub misses: u64,
    /// Items reclaimed by the virtual-time GC.
    pub reclaimed: u64,
    /// Items dropped because the channel was dropped / closed with them live.
    pub dropped_live: u64,
    /// Current number of live items.
    pub live: usize,
    /// Maximum number of simultaneously live items ever observed.
    pub peak_live: usize,
    /// Payload bytes currently held by live items.
    pub bytes_live: usize,
    /// Payload bytes currently held as reclaimed-but-retained history.
    pub retained_bytes: usize,
    /// High-water mark of total payload bytes (live + retained history) —
    /// the occupancy figure the history budget is judged against.
    pub peak_bytes: usize,
    /// Blocking `get`s that had to wait at least once for an item.
    pub blocked_gets: u64,
    /// Total nanoseconds blocking `get`s spent parked on the condvar.
    pub blocked_wait_ns: u64,
    /// State-lock acquisitions by data-path operations (put/get/consume/
    /// frontier). Batch APIs acquire once per batch, which is the point.
    pub lock_acquisitions: u64,
    /// GC rounds run (each put/consume/frontier-advance triggers one).
    pub gc_rounds: u64,
}

impl ChannelStats {
    /// Refresh the occupancy gauges and their high-water marks.
    fn apply(&mut self, occ: Occupancy) {
        self.live = occ.live;
        self.peak_live = self.peak_live.max(occ.live);
        self.bytes_live = occ.bytes_live;
        self.retained_bytes = occ.retained_bytes;
        self.peak_bytes = self.peak_bytes.max(occ.bytes_live + occ.retained_bytes);
    }

    /// Record a put and update occupancy peaks.
    pub(crate) fn on_put(&mut self, occ: Occupancy) {
        self.puts += 1;
        self.apply(occ);
    }

    /// Record a successful get.
    pub(crate) fn on_get(&mut self) {
        self.gets += 1;
    }

    /// Record a missed get.
    pub(crate) fn on_miss(&mut self) {
        self.misses += 1;
    }

    /// Record `n` items reclaimed by GC.
    pub(crate) fn on_reclaim(&mut self, n: u64, occ: Occupancy) {
        self.reclaimed += n;
        self.apply(occ);
    }

    /// Record one condvar wait inside a blocking `get`.
    pub(crate) fn on_blocked_wait(&mut self, ns: u64, first_wait: bool) {
        if first_wait {
            self.blocked_gets += 1;
        }
        self.blocked_wait_ns += ns;
    }

    /// Mean nanoseconds a *blocked* get spent parked (0.0 when no get ever
    /// blocked). Gets that found their item immediately are excluded — this
    /// measures how bad blocking was when it happened, not how often.
    fn blocked_wait_mean_ns(&self) -> f64 {
        if self.blocked_gets == 0 {
            0.0
        } else {
            self.blocked_wait_ns as f64 / self.blocked_gets as f64
        }
    }

    /// Total payload bytes currently held (live + retained history).
    #[must_use]
    pub fn bytes_total(&self) -> usize {
        self.bytes_live + self.retained_bytes
    }
}

impl std::fmt::Display for ChannelStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "puts={} gets={} misses={} live={}/{} (peak) bytes={}/{} (peak) \
             reclaimed={} dropped={} blocked={} \
             (mean {:.0} ns) locks={} gc={}",
            self.puts,
            self.gets,
            self.misses,
            self.live,
            self.peak_live,
            self.bytes_total(),
            self.peak_bytes,
            self.reclaimed,
            self.dropped_live,
            self.blocked_gets,
            self.blocked_wait_mean_ns(),
            self.lock_acquisitions,
            self.gc_rounds
        )
    }
}

/// A cheap point-in-time view of a channel's hottest fields, readable
/// without taking the state lock (and therefore without contending with
/// blocked `get`/`put` waiters). See `Channel::snapshot`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChannelSnapshot {
    /// Everything below this timestamp has been reclaimed (raw `u64`).
    pub gc_floor: u64,
    /// Number of currently live items.
    pub live: usize,
    /// Whether the channel has been closed for input.
    pub closed: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn occ(live: usize) -> Occupancy {
        Occupancy {
            live,
            bytes_live: live * 8,
            retained_bytes: 0,
        }
    }

    #[test]
    fn peak_tracks_maximum() {
        let mut s = ChannelStats::default();
        s.on_put(occ(1));
        s.on_put(occ(2));
        s.on_reclaim(2, occ(0));
        s.on_put(occ(1));
        assert_eq!(s.puts, 3);
        assert_eq!(s.reclaimed, 2);
        assert_eq!(s.live, 1);
        assert_eq!(s.peak_live, 2);
        assert_eq!(s.bytes_live, 8);
        assert_eq!(s.peak_bytes, 16);
    }

    #[test]
    fn retained_bytes_count_toward_peak() {
        let mut s = ChannelStats::default();
        s.on_put(Occupancy {
            live: 1,
            bytes_live: 10,
            retained_bytes: 30,
        });
        assert_eq!(s.bytes_total(), 40);
        assert_eq!(s.peak_bytes, 40);
        s.on_reclaim(
            1,
            Occupancy {
                live: 0,
                bytes_live: 0,
                retained_bytes: 0,
            },
        );
        assert_eq!(s.bytes_total(), 0);
        assert_eq!(s.peak_bytes, 40, "high-water survives the drop");
    }

    #[test]
    fn gets_and_misses_count_independently() {
        let mut s = ChannelStats::default();
        s.on_get();
        s.on_get();
        s.on_miss();
        assert_eq!(s.gets, 2);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn blocked_waits_accumulate() {
        let mut s = ChannelStats::default();
        s.on_blocked_wait(100, true);
        s.on_blocked_wait(50, false);
        s.on_blocked_wait(10, true);
        assert_eq!(s.blocked_gets, 2);
        assert_eq!(s.blocked_wait_ns, 160);
    }

    #[test]
    fn blocked_wait_mean_handles_zero_and_divides() {
        let s = ChannelStats::default();
        assert_eq!(s.blocked_wait_mean_ns(), 0.0);
        let mut s = ChannelStats::default();
        s.on_blocked_wait(100, true);
        s.on_blocked_wait(50, false);
        s.on_blocked_wait(150, true);
        assert!((s.blocked_wait_mean_ns() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn display_summarises_all_counters() {
        let mut s = ChannelStats::default();
        s.on_put(occ(3));
        s.on_get();
        s.on_blocked_wait(200, true);
        let text = s.to_string();
        assert!(text.contains("puts=1"), "{text}");
        assert!(text.contains("live=3/3 (peak)"), "{text}");
        assert!(text.contains("bytes=24/24 (peak)"), "{text}");
        assert!(text.contains("mean 200 ns"), "{text}");
    }
}
