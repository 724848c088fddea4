//! Edge tests for the late-joiner history queries `latest_at` / `range`
//! at bucket boundaries and split points of the columnar store.
//!
//! Bucket size 4 throughout, so timestamps 0..4 land in bucket 0, 4..8 in
//! bucket 1, etc., and out-of-order inserts into a full bucket force a
//! midpoint split — every query here is exercised across at least one
//! physical bucket edge.

use std::sync::Arc;

use stm::{Channel, ChannelBuilder, Timestamp};

fn ts(t: u64) -> Timestamp {
    Timestamp(t)
}

/// Channel with tiny buckets and history retention on.
fn retained(name: &str) -> Channel<u64> {
    ChannelBuilder::new(name)
        .bucket_rows(4)
        .retain_buckets(8)
        .build()
}

fn fill(ch: &Channel<u64>, times: impl IntoIterator<Item = u64>) {
    // One output conn per call is fine for single-burst tests; multi-burst
    // tests keep their own conn alive so the channel doesn't close.
    let out = ch.attach_output();
    for t in times {
        out.put(ts(t), t * 10).unwrap();
    }
}

#[test]
fn latest_at_exact_and_between() {
    let ch = retained("hist-exact");
    fill(&ch, [0, 2, 4, 6, 8, 10]);

    // Exact hits.
    assert_eq!(ch.latest_at(ts(4)).map(|(t, v)| (t, *v)), Some((ts(4), 40)));
    // Between two items: the older one answers.
    assert_eq!(ch.latest_at(ts(5)).map(|(t, v)| (t, *v)), Some((ts(4), 40)));
    // Past the newest: newest answers.
    assert_eq!(
        ch.latest_at(ts(99)).map(|(t, v)| (t, *v)),
        Some((ts(10), 100))
    );
}

#[test]
fn latest_at_before_first_item_is_none() {
    let ch = retained("hist-before");
    fill(&ch, [5, 6, 7]);
    assert_eq!(ch.latest_at(ts(4)).map(|(t, v)| (t, *v)), None);
    assert_eq!(ch.latest_at(ts(5)).map(|(t, v)| (t, *v)), Some((ts(5), 50)));
}

#[test]
fn latest_at_on_empty_channel_is_none() {
    let ch = retained("hist-empty");
    assert!(ch.latest_at(ts(0)).is_none());
    assert!(ch.range(ts(0), ts(100)).is_empty());
}

/// `latest_at` exactly on the first row of a bucket must not be answered
/// by the previous bucket, and one below it must be.
#[test]
fn latest_at_at_bucket_boundary() {
    let ch = retained("hist-boundary");
    // Two full buckets: [0,1,2,3] and [4,5,6,7].
    fill(&ch, 0..8);
    assert_eq!(ch.latest_at(ts(4)).map(|(t, v)| (t, *v)), Some((ts(4), 40)));
    assert_eq!(ch.latest_at(ts(3)).map(|(t, v)| (t, *v)), Some((ts(3), 30)));
}

#[test]
fn range_spans_bucket_boundary() {
    let ch = retained("hist-range-span");
    fill(&ch, 0..12); // three full buckets
    let got: Vec<(u64, u64)> = ch
        .range(ts(2), ts(10))
        .into_iter()
        .map(|(t, v)| (t.0, *v))
        .collect();
    let want: Vec<(u64, u64)> = (2..10).map(|t| (t, t * 10)).collect();
    assert_eq!(got, want, "half-open [2, 10) across three buckets");
}

#[test]
fn range_is_half_open() {
    let ch = retained("hist-half-open");
    fill(&ch, [3, 4, 5]);
    let got: Vec<u64> = ch
        .range(ts(4), ts(5))
        .into_iter()
        .map(|(t, _)| t.0)
        .collect();
    assert_eq!(got, vec![4], "`to` is exclusive, `from` inclusive");
}

/// Out-of-order put into a full bucket splits it; queries that straddle
/// the split point must see a seamless ordered view.
#[test]
fn range_across_a_split_point() {
    let ch = retained("hist-split");
    let out = ch.attach_output();
    // Fill one bucket [0, 2, 4, 6], then force a mid-bucket insert at 3,
    // then keep appending so the split buckets are interior, not the tail.
    for t in [0, 2, 4, 6, 3, 8, 9, 10, 11] {
        out.put(ts(t), t * 10).unwrap();
    }

    let got: Vec<u64> = ch
        .range(ts(0), ts(12))
        .into_iter()
        .map(|(t, _)| t.0)
        .collect();
    assert_eq!(got, vec![0, 2, 3, 4, 6, 8, 9, 10, 11]);
    assert_eq!(ch.latest_at(ts(3)).map(|(t, v)| (t, *v)), Some((ts(3), 30)));
    assert_eq!(ch.latest_at(ts(5)).map(|(t, v)| (t, *v)), Some((ts(4), 40)));
}

/// The whole point of retention: a late joiner can still read items the
/// virtual-time GC already reclaimed from the live window.
#[test]
fn reclaimed_items_stay_queryable_with_retention() {
    let ch = retained("hist-late-joiner");
    let inp = ch.attach_input();
    fill(&ch, 0..8);

    // Consume everything; the GC floor passes all 8 items.
    inp.advance_frontier(ts(8));
    assert_eq!(ch.len(), 0);
    assert_eq!(ch.gc_floor(), ts(8));

    // History still answers below the floor.
    assert_eq!(ch.latest_at(ts(6)).map(|(t, v)| (t, *v)), Some((ts(6), 60)));
    let got: Vec<u64> = ch
        .range(ts(0), ts(8))
        .into_iter()
        .map(|(t, _)| t.0)
        .collect();
    assert_eq!(got, (0..8).collect::<Vec<_>>());
}

/// Without retention (the default), reclaimed payloads are dropped at
/// floor-pass and history queries only see the live window.
#[test]
fn no_retention_drops_reclaimed_payloads() {
    let ch: Channel<u64> = ChannelBuilder::new("hist-noretain").bucket_rows(4).build();
    let inp = ch.attach_input();
    fill(&ch, 0..8);
    inp.advance_frontier(ts(6));

    assert!(ch.latest_at(ts(5)).is_none(), "reclaimed payload is gone");
    let got: Vec<u64> = ch
        .range(ts(0), ts(8))
        .into_iter()
        .map(|(t, _)| t.0)
        .collect();
    assert_eq!(got, vec![6, 7], "only the live tail remains");
}

/// A byte budget evicts whole retained buckets oldest-first; the live
/// window is never evicted.
#[test]
fn retain_bytes_evicts_oldest_history_first() {
    let ch: Channel<u64> = ChannelBuilder::new("hist-budget")
        .bucket_rows(4)
        .retain_buckets(64)
        .retain_bytes(4 * std::mem::size_of::<u64>())
        .build();
    let inp = ch.attach_input();
    fill(&ch, 0..16);
    inp.advance_frontier(ts(16));

    // Budget fits one 4-row bucket of history: only the newest retained
    // bucket [12..16) survives.
    assert!(ch.latest_at(ts(11)).is_none(), "older buckets evicted");
    let got: Vec<u64> = ch
        .range(ts(0), ts(16))
        .into_iter()
        .map(|(t, _)| t.0)
        .collect();
    assert_eq!(got, vec![12, 13, 14, 15]);

    let stats = ch.stats();
    assert_eq!(stats.retained_bytes, 4 * std::mem::size_of::<u64>());
}

/// `latest_at` must skip rows whose payload was cleared (consumed under
/// no-retention) even when newer live rows share the bucket.
#[test]
fn latest_at_skips_cleared_slots_within_a_bucket() {
    let ch: Channel<u64> = ChannelBuilder::new("hist-cleared").bucket_rows(8).build();
    let inp = ch.attach_input();
    fill(&ch, 0..6);
    // Reclaim 0..3 inside the single shared bucket.
    inp.advance_frontier(ts(3));

    assert_eq!(
        ch.latest_at(ts(2)).map(|(t, v)| (t, *v)),
        None,
        "cleared rows don't answer"
    );
    assert_eq!(ch.latest_at(ts(4)).map(|(t, v)| (t, *v)), Some((ts(4), 40)));
}

/// History payloads are the same `Arc`s the live window handed out — no
/// copies are made when a bucket moves from live to retained.
#[test]
fn history_shares_payload_arcs() {
    let ch = retained("hist-arc");
    let inp = ch.attach_input();
    fill(&ch, [0]);
    let live = inp.try_get(stm::TsSpec::Exact(ts(0))).unwrap().value;
    inp.consume(ts(0)).unwrap();
    inp.advance_frontier(ts(1));

    let (_, hist) = ch.latest_at(ts(0)).expect("retained");
    assert!(Arc::ptr_eq(&live, &hist));
}

/// Frame-sized payloads streamed through a channel with columnar history.
mod retention_memory {
    use super::*;

    /// One 64x64 grayscale frame per row.
    const ROW: usize = 64 * 64;
    const BUCKET_ROWS: usize = 32;
    /// Retained-history budget: 64 rows.
    const BUDGET: usize = 64 * ROW;
    const CHUNK: u64 = 16;

    // `build_weighed` takes a `fn(&T) -> usize` with `T = Vec<u8>`.
    #[allow(clippy::ptr_arg)]
    fn weigh(v: &Vec<u8>) -> usize {
        v.len()
    }

    fn row_of(t: u64) -> Vec<u8> {
        vec![(t & 0xff) as u8; ROW]
    }

    /// Stream `n` rows in chunks of `CHUNK`; consume each chunk unless
    /// `hold_live` (the per-item way to keep history: never consume).
    fn stream(builder: ChannelBuilder, hold_live: bool, n: u64) -> Channel<Vec<u8>> {
        let ch = builder.bucket_rows(BUCKET_ROWS).build_weighed(weigh);
        let out = ch.attach_output();
        let inp = ch.attach_input();
        for lo in (0..n).step_by(CHUNK as usize) {
            let hi = (lo + CHUNK).min(n);
            out.put_many((lo..hi).map(|t| (ts(t), row_of(t)))).unwrap();
            if !hold_live {
                inp.consume_range(ts(lo), ts(hi));
            }
        }
        ch
    }

    fn budgeted(n: u64) -> Channel<Vec<u8>> {
        let b = ChannelBuilder::new("hist-budget-frames")
            .retain_buckets(usize::MAX)
            .retain_bytes(BUDGET);
        stream(b, false, n)
    }

    #[test]
    fn budgeted_high_water_stays_flat_while_held_history_grows() {
        let (short, long) = (128, 512);
        let held = |n| {
            stream(ChannelBuilder::new("hist-held-frames"), true, n)
                .stats()
                .peak_bytes
        };
        assert!(
            held(long) >= 2 * held(short),
            "holding items live grows with the stream"
        );

        let (a, b) = (budgeted(short), budgeted(long));
        let (pa, pb) = (a.stats().peak_bytes, b.stats().peak_bytes);
        assert!(
            pb * 2 <= pa * 3,
            "budgeted high-water is flat: {pa} -> {pb}"
        );
        // Eviction is per bucket and the live put window rides on top.
        let slack = BUDGET + BUCKET_ROWS * ROW + CHUNK as usize * ROW;
        assert!(pb <= slack, "high-water {pb} over budget + slack {slack}");

        assert_eq!(
            b.range(ts(long - 32), ts(long)).len(),
            32,
            "recent window kept"
        );
        let (newest, row) = b.latest_at(ts(long - 1)).expect("newest row retained");
        assert_eq!(newest, ts(long - 1));
        assert_eq!(row[0], ((long - 1) & 0xff) as u8);
        assert!(
            b.range(ts(0), ts(BUCKET_ROWS as u64)).is_empty(),
            "oldest buckets evicted"
        );
        assert!(b.gc_floor().0 > 0);
    }

    #[test]
    fn batch_apis_take_fewer_locks_than_per_item_calls() {
        const BATCH: u64 = 64;
        let locks = |batched: bool| {
            let ch = ChannelBuilder::new("hist-locks")
                .bucket_rows(BUCKET_ROWS)
                .build_weighed(weigh);
            let out = ch.attach_output();
            let inp = ch.attach_input();
            let before = ch.stats().lock_acquisitions;
            if batched {
                out.put_many((0..BATCH).map(|t| (ts(t), row_of(t))))
                    .unwrap();
                inp.consume_range(ts(0), ts(BATCH));
            } else {
                for t in 0..BATCH {
                    out.put(ts(t), row_of(t)).unwrap();
                }
                for t in 0..BATCH {
                    inp.consume(ts(t)).unwrap();
                }
            }
            ch.stats().lock_acquisitions - before
        };
        let (per_item, batched) = (locks(false), locks(true));
        assert!(batched * 8 <= per_item, "locks {per_item} -> {batched}");
    }
}
