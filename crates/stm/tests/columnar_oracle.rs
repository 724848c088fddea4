//! Lockstep bit-identity: the row-store channel vs. the frozen per-item
//! reference store (`stm::oracle::RefChannel`).
//!
//! Every operation — out-of-order puts, every `TsSpec` flavour of `get`,
//! single and ranged consumes, frontier advances, skip tombstones, input
//! detach — is applied to both stores and its *result* compared exactly:
//! put errors, `(ts, value)` pairs, miss reasons and neighbour timestamps.
//! After every op the aggregate views (live count, GC floor, oldest/newest,
//! reclaimed total, frontiers) must agree too. Runs three times per case:
//! with a history budget of three items (history is evicted inside the
//! lockstep on most cases), with roomy retention, and with the default
//! channel. History, kept or evicted, must be invisible to the classic API.

use proptest::prelude::*;
use stm::oracle::RefChannel;
use stm::{Channel, ChannelBuilder, InputConn, Timestamp, TsSpec};

const N_CONNS: usize = 3;
const TS_RANGE: u64 = 48;

#[derive(Clone, Debug)]
enum Op {
    Put(u64),
    MarkSkipped(u64),
    Consume(usize, u64),
    ConsumeRange(usize, u64, u64),
    AdvanceFrontier(usize, u64),
    Get(usize, u8, u64),
    Detach(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let ts = 0u64..TS_RANGE;
    let conn = 0usize..N_CONNS;
    prop_oneof![
        ts.clone().prop_map(Op::Put),
        ts.clone().prop_map(Op::Put),
        ts.clone().prop_map(Op::MarkSkipped),
        (conn.clone(), ts.clone()).prop_map(|(c, t)| Op::Consume(c, t)),
        (conn.clone(), ts.clone(), 1u64..10).prop_map(|(c, t, n)| Op::ConsumeRange(c, t, n)),
        (conn.clone(), ts.clone()).prop_map(|(c, t)| Op::AdvanceFrontier(c, t)),
        (conn.clone(), 0u8..7, ts.clone()).prop_map(|(c, k, t)| Op::Get(c, k, t)),
        (conn.clone(), 0u8..7, ts).prop_map(|(c, k, t)| Op::Get(c, k, t)),
        conn.prop_map(Op::Detach),
    ]
}

fn spec(kind: u8, ts: u64) -> TsSpec {
    match kind {
        0 => TsSpec::Exact(Timestamp(ts)),
        1 => TsSpec::Newest,
        2 => TsSpec::Oldest,
        3 => TsSpec::NewestUnseen,
        4 => TsSpec::NewestUnseenGlobal,
        5 => TsSpec::NextUnseen,
        _ => TsSpec::AtOrAfter(Timestamp(ts)),
    }
}

/// Run one schedule against a channel built by `build` and the oracle,
/// asserting identical observable behavior after every op.
fn run_lockstep(ops: &[Op], build: impl Fn() -> Channel<u64>) {
    let ch = build();
    let out = ch.attach_output();
    let mut conns: Vec<Option<InputConn<u64>>> =
        (0..N_CONNS).map(|_| Some(ch.attach_input())).collect();

    let mut oracle: RefChannel<u64> = RefChannel::new();
    let oconns: Vec<usize> = (0..N_CONNS).map(|_| oracle.attach_input()).collect();

    for op in ops {
        match *op {
            Op::Put(ts) => {
                let got = out.put(Timestamp(ts), ts * 100);
                let want = oracle.put(Timestamp(ts), std::sync::Arc::new(ts * 100));
                prop_assert_eq!(got, want, "put({}) diverged", ts);
            }
            Op::MarkSkipped(ts) => {
                out.mark_skipped(Timestamp(ts));
                oracle.mark_skipped(Timestamp(ts));
            }
            Op::Consume(c, ts) => {
                if let Some(conn) = &conns[c] {
                    let got = conn.consume(Timestamp(ts));
                    let want = oracle.consume(oconns[c], Timestamp(ts));
                    prop_assert_eq!(got, want, "consume({}, {}) diverged", c, ts);
                }
            }
            Op::ConsumeRange(c, from, n) => {
                if let Some(conn) = &conns[c] {
                    let got = conn.consume_range(Timestamp(from), Timestamp(from + n));
                    let want =
                        oracle.consume_range(oconns[c], Timestamp(from), Timestamp(from + n));
                    prop_assert_eq!(got, want, "consume_range({}, {}..{}) diverged", c, from, n);
                }
            }
            Op::AdvanceFrontier(c, ts) => {
                if let Some(conn) = &conns[c] {
                    conn.advance_frontier(Timestamp(ts));
                    oracle.advance_frontier(oconns[c], Timestamp(ts));
                }
            }
            Op::Get(c, kind, ts) => {
                if let Some(conn) = &conns[c] {
                    let got = conn.try_get(spec(kind, ts)).map(|ok| (ok.ts, *ok.value));
                    let want = oracle.get(oconns[c], spec(kind, ts)).map(|(t, v)| (t, *v));
                    prop_assert_eq!(got, want, "get({}, {:?}) diverged", c, spec(kind, ts));
                }
            }
            Op::Detach(c) => {
                if let Some(conn) = conns[c].take() {
                    conn.detach();
                    oracle.detach_input(oconns[c]);
                }
            }
        }

        // Aggregate views must agree after every op.
        prop_assert_eq!(ch.len(), oracle.len(), "live count diverged");
        prop_assert_eq!(ch.gc_floor(), oracle.gc_floor(), "gc floor diverged");
        prop_assert_eq!(ch.oldest_ts(), oracle.oldest_ts(), "oldest diverged");
        prop_assert_eq!(ch.newest_ts(), oracle.newest_ts(), "newest diverged");
        prop_assert_eq!(
            ch.stats().reclaimed,
            oracle.reclaimed(),
            "reclaim totals diverged"
        );
        for (c, conn) in conns.iter().enumerate() {
            if let Some(conn) = conn {
                prop_assert_eq!(
                    conn.frontier(),
                    oracle.frontier(oconns[c]),
                    "frontier {} diverged",
                    c
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// A three-item history budget (24 bytes of `u64`): reclaim evicts
    /// history, oldest first, on nearly every case.
    #[test]
    fn evicting_history_matches_per_item_oracle(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        run_lockstep(&ops, || {
            ChannelBuilder::new("lockstep-evict")
                .retain_buckets(1)
                .retain_bytes(3 * 8)
                .build()
        });
    }

    /// History retention must be invisible to the classic API: same ops,
    /// same results, even though reclaimed payloads stay queryable.
    #[test]
    fn retention_is_invisible_to_classic_api(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        run_lockstep(&ops, || {
            ChannelBuilder::new("lockstep-retain")
                .retain_buckets(3)
                .build()
        });
    }

    /// The default channel: no history, the shape every workload runs.
    #[test]
    fn row_store_matches_per_item_oracle(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        run_lockstep(&ops, || Channel::new("lockstep-default"));
    }
}
