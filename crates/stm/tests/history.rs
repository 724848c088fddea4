//! Tests for the late-joiner history queries `latest_at` / `range`: edge
//! cases at the boundary between history and live items and after
//! out-of-order puts, the retention budgets, and a property test of
//! history against a model.

use std::sync::Arc;

use proptest::prelude::*;
use stm::{Channel, ChannelBuilder, Timestamp};

fn ts(t: u64) -> Timestamp {
    Timestamp(t)
}

/// Channel with history retention on.
fn retained(name: &str) -> Channel<u64> {
    ChannelBuilder::new(name).retain_buckets(8).build()
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

/// `latest_at` exactly on the oldest live item must be answered by it, and
/// one below it by the newest history item.
#[test]
fn latest_at_at_history_boundary() {
    let ch = retained("hist-boundary");
    let inp = ch.attach_input();
    fill(&ch, 0..8);
    inp.advance_frontier(ts(4)); // history [0, 4), live [4, 8)
    assert_eq!(ch.latest_at(ts(4)).map(|(t, v)| (t, *v)), Some((ts(4), 40)));
    assert_eq!(ch.latest_at(ts(3)).map(|(t, v)| (t, *v)), Some((ts(3), 30)));
}

#[test]
fn range_spans_history_and_live() {
    let ch = retained("hist-range-span");
    let inp = ch.attach_input();
    fill(&ch, 0..12);
    inp.advance_frontier(ts(6));
    let got: Vec<(u64, u64)> = ch
        .range(ts(2), ts(10))
        .into_iter()
        .map(|(t, v)| (t.0, *v))
        .collect();
    let want: Vec<(u64, u64)> = (2..10).map(|t| (t, t * 10)).collect();
    assert_eq!(got, want, "half-open [2, 10) across the floor at 6");
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

/// An out-of-order put lands in time order; queries around it must see a
/// seamless ordered view.
#[test]
fn range_after_an_out_of_order_put() {
    let ch = retained("hist-out-of-order");
    let out = ch.attach_output();
    // Insert 3 between 2 and 4, then keep appending so it is interior.
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
    let ch: Channel<u64> = Channel::new("hist-noretain");
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

/// A byte budget evicts history oldest-first; the live window is never
/// evicted.
#[test]
fn retain_bytes_evicts_oldest_history_first() {
    let ch: Channel<u64> = ChannelBuilder::new("hist-budget")
        .retain_buckets(64)
        .retain_bytes(4 * std::mem::size_of::<u64>())
        .build();
    let inp = ch.attach_input();
    fill(&ch, 0..16);
    inp.advance_frontier(ts(16));

    // Budget fits four rows of history: only the newest four, [12, 16),
    // survive.
    assert!(ch.latest_at(ts(11)).is_none(), "older history evicted");
    let got: Vec<u64> = ch
        .range(ts(0), ts(16))
        .into_iter()
        .map(|(t, _)| t.0)
        .collect();
    assert_eq!(got, vec![12, 13, 14, 15]);

    let stats = ch.stats();
    assert_eq!(stats.retained_bytes, 4 * std::mem::size_of::<u64>());
}

/// Without retention `latest_at` must not answer from a reclaimed item,
/// even with newer live items present.
#[test]
fn latest_at_skips_reclaimed_items_without_retention() {
    let ch: Channel<u64> = Channel::new("hist-cleared");
    let inp = ch.attach_input();
    fill(&ch, 0..6);
    // Reclaim 0..3; 3..6 stay live.
    inp.advance_frontier(ts(3));

    assert_eq!(
        ch.latest_at(ts(2)).map(|(t, v)| (t, *v)),
        None,
        "cleared rows don't answer"
    );
    assert_eq!(ch.latest_at(ts(4)).map(|(t, v)| (t, *v)), Some((ts(4), 40)));
}

/// History payloads are the same `Arc`s the live window handed out — no
/// copies are made when an item moves from live to retained.
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

/// Frame-sized payloads streamed through a channel with history.
mod retention_memory {
    use super::*;

    /// One 64x64 grayscale frame per row.
    const ROW: usize = 64 * 64;
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
        let ch = builder.build_weighed(weigh);
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
        // Eviction is per row; the live put window rides on top.
        let slack = BUDGET + CHUNK as usize * ROW;
        assert!(pb <= slack, "high-water {pb} over budget + slack {slack}");

        assert_eq!(
            b.range(ts(long - 32), ts(long)).len(),
            32,
            "recent window kept"
        );
        let (newest, row) = b.latest_at(ts(long - 1)).expect("newest row retained");
        assert_eq!(newest, ts(long - 1));
        assert_eq!(row[0], ((long - 1) & 0xff) as u8);
        let kept = (BUDGET / ROW) as u64;
        assert!(
            b.range(ts(0), ts(long - kept)).is_empty(),
            "everything older than the budget evicted"
        );
        assert!(b.gc_floor().0 > 0);
    }

    #[test]
    fn batch_apis_take_fewer_locks_than_per_item_calls() {
        const BATCH: u64 = 64;
        let locks = |batched: bool| {
            let ch = ChannelBuilder::new("hist-locks").build_weighed(weigh);
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

/// History against a model under random put / consume / frontier
/// interleavings over two consumers, with both caps set.
mod history_model {
    use super::*;

    #[derive(Clone, Debug)]
    enum Op {
        /// Put at `next + gap`, then move `next` past it.
        Put(u64),
        /// Put `back` below `next` (out of order; may be refused).
        PutLate(u64),
        /// Consume `back` below `next` on a consumer.
        Consume(usize, u64),
        /// Advance a consumer's frontier to `back` below `next`.
        Advance(usize, u64),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..3).prop_map(Op::Put),
            (0u64..3).prop_map(Op::Put),
            (1u64..8).prop_map(Op::PutLate),
            (0usize..2, 0u64..8).prop_map(|(c, b)| Op::Consume(c, b)),
            (0usize..2, 0u64..8).prop_map(|(c, b)| Op::Advance(c, b)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `range(0, MAX)` is always the newest `K` reclaimed items plus
        /// every live one, where `K` is the smaller of the row cap
        /// (`buckets × 256`) and the byte cap in 8-byte items; `latest_at`
        /// and the retained-bytes gauge agree with it.
        #[test]
        fn history_is_newest_reclaimed_within_both_caps(
            buckets in 0usize..3,
            // Tight, near the 256-row cap (either cap may bind), unbounded.
            cap_items in prop_oneof![0usize..8, 250usize..262, Just(1usize << 40)],
            ops in proptest::collection::vec(op_strategy(), 300..1200),
        ) {
            let item = std::mem::size_of::<u64>();
            let ch: Channel<u64> = ChannelBuilder::new("hist-model")
                .retain_buckets(buckets)
                .retain_bytes(cap_items * item)
                .build();
            let out = ch.attach_output();
            let inps = [ch.attach_input(), ch.attach_input()];
            let k = (buckets * 256).min(cap_items);
            let mut put = std::collections::BTreeSet::new();
            let mut next = 0u64;
            for op in &ops {
                match *op {
                    Op::Put(gap) => {
                        let t = next + gap;
                        next = t + 1;
                        if out.put(ts(t), t * 10).is_ok() {
                            put.insert(t);
                        }
                    }
                    Op::PutLate(back) => {
                        let t = next.saturating_sub(back);
                        if out.put(ts(t), t * 10).is_ok() {
                            put.insert(t);
                        }
                    }
                    Op::Consume(c, back) => {
                        let _ = inps[c].consume(ts(next.saturating_sub(back + 1)));
                    }
                    Op::Advance(c, back) => inps[c].advance_frontier(ts(next.saturating_sub(back))),
                }

                let floor = ch.gc_floor().0;
                let reclaimed: Vec<u64> = put.range(..floor).copied().collect();
                let kept = &reclaimed[reclaimed.len().saturating_sub(k)..];
                let want: Vec<(u64, u64)> = kept
                    .iter()
                    .chain(put.range(floor..))
                    .map(|&t| (t, t * 10))
                    .collect();
                let got: Vec<(u64, u64)> = ch
                    .range(ts(0), ts(u64::MAX))
                    .into_iter()
                    .map(|(t, v)| (t.0, *v))
                    .collect();
                prop_assert_eq!(&got, &want, "history diverged after {:?}", op);
                prop_assert_eq!(ch.stats().retained_bytes, std::mem::size_of_val(kept));
                prop_assert_eq!(
                    ch.latest_at(ts(u64::MAX)).map(|(t, _)| t.0),
                    want.last().map(|w| w.0)
                );
            }
        }
    }
}
