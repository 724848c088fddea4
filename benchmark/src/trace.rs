//! Tracing, both halves: the benchmark's own spans around every call it
//! makes into a layer, and the reduction of the program's span dump (the
//! existing `TrackerConfig::trace` knob) into a per-frame latency budget.
//!
//! The budget follows one frame from its digitize mark to its commit along
//! the path that blocked it — the slower of T2/T3, then T4, T5, T6 — and
//! splits that interval, stage by stage, into
//!
//! * **queue**: the frame's inputs were ready but the stage was still busy
//!   with earlier frames (its first `get` for this frame had not started);
//! * **wake**: the stage was already blocked in `get` and the time from the
//!   input landing to the `get` returning;
//! * **compute** and **put**: the stage's own spans.
//!
//! `critical_path = Σ (wake + compute + put)` is what the frame would cost
//! on an empty pipeline; `queue` is what a saturated pipeline adds;
//! `unattributed = latency − critical_path − queue` is whatever the spans do
//! not cover (marks, frontier advances, span recording itself).

use std::collections::BTreeMap;
use std::time::Instant;

use obs::{ChromeTrace, SpanDump, SpanKind};

use crate::names::STAGE_TAGS;
use crate::stats::{median, percentile};

/// Frames at the head of every repetition left out of latency statistics
/// (pipeline fill).
pub const WARM_FRAMES: u64 = 8;

// ---------------------------------------------------------------------
// The benchmark's own spans
// ---------------------------------------------------------------------

/// One span recorded by the benchmark around a call into a layer.
pub struct BenchSpan {
    pub name: String,
    pub start_us: f64,
    pub dur_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// In-memory span log of the benchmark's main thread; written out as a
/// Chrome trace when the workload ends.
pub struct BenchSpans {
    epoch: Instant,
    spans: Vec<BenchSpan>,
    open: Vec<usize>,
}

impl BenchSpans {
    pub fn new() -> BenchSpans {
        BenchSpans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, nested under whichever span is
    /// open on this log.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut BenchSpans) -> T) -> T {
        let idx = self.spans.len();
        self.spans.push(BenchSpan {
            name: name.to_string(),
            start_us: self.epoch.elapsed().as_secs_f64() * 1e6,
            dur_us: 0.0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end = self.epoch.elapsed().as_secs_f64() * 1e6;
        self.spans[idx].dur_us = end - self.spans[idx].start_us;
        out
    }

    /// Total duration of every span called `name`, in seconds.
    #[cfg(test)]
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us / 1e6)
            .sum()
    }

    /// Render the log (pid 0) plus any program span dumps (pid 1..) as one
    /// Chrome trace. The two clocks have different epochs: lanes line up
    /// within a process, not across them.
    pub fn to_chrome(&self, program: &[(String, SpanDump)]) -> String {
        let mut chrome = ChromeTrace::new();
        chrome.set_process_name(0, "benchmark");
        chrome.set_thread_name(0, 0, "main");
        for s in &self.spans {
            chrome.complete(
                &s.name,
                "bench",
                0,
                0,
                s.start_us,
                s.dur_us,
                s.parent.map(|p| p as u64),
            );
        }
        for (i, (name, dump)) in program.iter().enumerate() {
            chrome.push_dump(dump, i as u32 + 1, name);
        }
        chrome.to_json()
    }
}

// ---------------------------------------------------------------------
// Per-frame budget from a program span dump
// ---------------------------------------------------------------------

const N_STAGES: usize = 6;
const T2: usize = 1;
const T3: usize = 2;
const T4: usize = 3;

/// One committed frame's budget, all in milliseconds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FrameBudget {
    pub frame: u64,
    pub latency: f64,
    /// Digitize mark minus the frame's due time on the open-loop schedule
    /// (0 in a closed loop: there is no schedule to be late against).
    pub late: f64,
    pub compute: [f64; N_STAGES],
    pub get_wait: [f64; N_STAGES],
    /// Whole put time of the stages on the blocking path (the part after the
    /// next stage has the item is off the path and not in `critical_path`).
    pub put: f64,
    pub join_t2: f64,
    pub join_t4: f64,
    /// Mean duration of the frame's T4 pool chunks (0 without a pool).
    pub pool_chunk: f64,
    /// First T4 chunk start minus the splitter's `Decomp` instant.
    pub pool_queue: f64,
    pub critical_path: f64,
    pub queue: f64,
    pub unattributed: f64,
}

#[derive(Default, Clone)]
struct StageSpans {
    gets: Vec<(u64, u64)>,
    compute: Option<(u64, u64)>,
    put: Option<(u64, u64)>,
    join: u64,
}

impl StageSpans {
    /// The gets this stage's own activation issued for the frame. T3 also
    /// reads frame `f` as the predecessor of `f + 1`; that later get is
    /// recorded under `f` too and must not count as `f` waiting.
    fn own_gets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let before = self.compute.map_or(u64::MAX, |(start, _)| start);
        self.gets.iter().copied().filter(move |&(s, _)| s <= before)
    }
}

#[derive(Default)]
struct FrameSpans {
    digitize: Option<u64>,
    commit: Option<u64>,
    decomp_at: Option<u64>,
    stages: [StageSpans; N_STAGES],
    chunk_durs: Vec<u64>,
    chunk_first_start: Option<u64>,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Reduce a drained dump to one budget per committed frame at or after
/// `WARM_FRAMES`, in frame order. `anchor_ns` is the recorder clock just
/// before the run started and `period_ns` the digitizer period (0 = closed
/// loop).
pub fn frame_budgets(dump: &SpanDump, anchor_ns: u64, period_ns: u64) -> Vec<FrameBudget> {
    let mut frames: BTreeMap<u64, FrameSpans> = BTreeMap::new();
    for s in &dump.spans {
        let stage = s.stage as usize;
        if s.kind == SpanKind::Switch || stage >= N_STAGES {
            continue;
        }
        let f = frames.entry(s.frame).or_default();
        let st = &mut f.stages[stage];
        match s.kind {
            SpanKind::Digitize => f.digitize = Some(s.start_ns),
            SpanKind::Commit => f.commit = Some(s.start_ns),
            SpanKind::Decomp => f.decomp_at = Some(s.start_ns),
            SpanKind::Get => st.gets.push((s.start_ns, s.end_ns())),
            // Whole-activation compute only; per-chunk compute spans belong
            // to the scheduled executor, which the benchmark does not run.
            SpanKind::Compute if s.chunk.is_none() => st.compute = Some((s.start_ns, s.end_ns())),
            SpanKind::Put => st.put = Some((s.start_ns, s.end_ns())),
            SpanKind::Join => st.join += s.dur_ns,
            SpanKind::PoolChunk if stage == T4 => {
                f.chunk_durs.push(s.dur_ns);
                f.chunk_first_start = Some(
                    f.chunk_first_start
                        .map_or(s.start_ns, |c| c.min(s.start_ns)),
                );
            }
            _ => {}
        }
    }

    let mut out = Vec::new();
    for (&frame, f) in &frames {
        let (Some(d), Some(c)) = (f.digitize, f.commit) else {
            continue;
        };
        if frame < WARM_FRAMES {
            continue;
        }
        let mut b = FrameBudget {
            frame,
            latency: ms(c.saturating_sub(d)),
            late: if period_ns == 0 {
                0.0
            } else {
                (d as f64 - (anchor_ns + frame * period_ns) as f64) / 1e6
            },
            join_t2: ms(f.stages[T2].join),
            join_t4: ms(f.stages[T4].join),
            ..FrameBudget::default()
        };
        for (i, st) in f.stages.iter().enumerate() {
            b.compute[i] = st.compute.map_or(0.0, |(s, e)| ms(e - s));
            b.get_wait[i] = ms(st.own_gets().map(|(s, e)| e - s).sum());
        }
        if !f.chunk_durs.is_empty() {
            b.pool_chunk = ms(f.chunk_durs.iter().sum::<u64>()) / f.chunk_durs.len() as f64;
            if let (Some(first), Some(dec)) = (f.chunk_first_start, f.decomp_at) {
                b.pool_queue = ms(first.saturating_sub(dec));
            }
        }

        // The blocking path: whichever of T2/T3 published later, then
        // T4, T5, T6. A stage's segment runs from its inputs being ready
        // (`ready`) to its output being published (`done`).
        let put_end = |i: usize| f.stages[i].put.map_or(0, |(_, e)| e);
        let upstream = if put_end(T3) > put_end(T2) { T3 } else { T2 };
        let path = [upstream, T4, 4, 5];
        let in_hand =
            |i: usize, or: u64| f.stages[i].own_gets().map(|(_, e)| e).max().unwrap_or(or);
        let mut ready = d;
        for (k, &stage) in path.iter().enumerate() {
            let st = &f.stages[stage];
            // Clip everything to `ready`: the digitizer can be preempted
            // between its put and its digitize mark, so the upstream stage
            // may already be computing when the frame's clock starts.
            let clip = |(s, e): (u64, u64)| e.saturating_sub(s.max(ready));
            let first_get = st.own_gets().map(|(s, _)| s).min().unwrap_or(ready);
            let got = in_hand(stage, ready);
            let queue = first_get.saturating_sub(ready);
            let wake = got.saturating_sub(first_get.max(ready));
            let compute = st.compute.map_or(0, clip);
            // An item is visible to the next stage part-way through its
            // put (the rest is the store reclaiming what the put retired):
            // the frame moves on when the next stage has it in hand.
            let put_span = st.put.map(|(s, e)| match path.get(k + 1) {
                Some(&next) => (s, e.min(in_hand(next, e).max(s))),
                None => (s, e),
            });
            let put = put_span.map_or(0, clip);
            b.queue += ms(queue);
            b.critical_path += ms(wake + compute + put);
            b.put += ms(st.put.map_or(0, |(s, e)| e - s));
            ready = match put_span {
                Some((_, e)) => e.max(ready),
                None => c,
            };
        }
        b.unattributed = b.latency - b.critical_path - b.queue;
        out.push(b);
    }
    out
}

/// The `trace.*` metrics of one traced run, as `(name, value)` in catalogue
/// order, from the budgets of its latency-bearing tenants: per-frame medians.
pub fn trace_metrics(
    budgets: &[FrameBudget],
    spans_per_frame: f64,
    overhead_frac: f64,
) -> Vec<(String, f64)> {
    let col = |f: &dyn Fn(&FrameBudget) -> f64| median(&budgets.iter().map(f).collect::<Vec<_>>());
    let mut v: Vec<(String, f64)> = Vec::new();
    for (i, t) in STAGE_TAGS.iter().enumerate() {
        v.push((format!("trace.compute_ms.{t}"), col(&|b| b.compute[i])));
    }
    for (i, t) in STAGE_TAGS.iter().enumerate().skip(1) {
        v.push((format!("trace.get_wait_ms.{t}"), col(&|b| b.get_wait[i])));
    }
    v.push(("trace.put_ms".into(), col(&|b| b.put)));
    v.push(("trace.join_ms.t2".into(), col(&|b| b.join_t2)));
    v.push(("trace.join_ms.t4".into(), col(&|b| b.join_t4)));
    v.push(("trace.pool_chunk_ms".into(), col(&|b| b.pool_chunk)));
    v.push(("trace.pool_queue_ms".into(), col(&|b| b.pool_queue)));
    v.push(("trace.critical_path_ms".into(), col(&|b| b.critical_path)));
    v.push(("trace.queue_ms".into(), col(&|b| b.queue)));
    v.push(("trace.unattributed_ms".into(), col(&|b| b.unattributed)));
    v.push((
        "trace.unattributed_frac".into(),
        col(&|b| {
            if b.latency > 0.0 {
                b.unattributed / b.latency
            } else {
                0.0
            }
        }),
    ));
    let late: Vec<f64> = budgets.iter().map(|b| b.late).collect();
    v.push((
        "trace.digitizer_late_ms_p95".into(),
        percentile(&late, 95.0),
    ));
    v.push(("trace.spans_per_frame".into(), spans_per_frame));
    v.push(("trace.overhead_frac".into(), overhead_frac));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::{Span, TraceMode};

    fn span(kind: SpanKind, stage: u8, frame: u64, start_us: u64, dur_us: u64) -> Span {
        Span {
            kind,
            stage,
            frame,
            chunk: None,
            start_ns: start_us * 1000,
            dur_ns: dur_us * 1000,
            tid: u16::from(stage),
        }
    }

    /// Frame 8 on an idle pipeline except at T4, which is busy with frame 7
    /// until t = 3000 us. Times in microseconds from the digitize mark at
    /// t = 1000.
    fn synthetic() -> SpanDump {
        let f = 8;
        let mut spans = vec![
            span(SpanKind::Compute, 0, f, 500, 400),
            span(SpanKind::Put, 0, f, 900, 90),
            span(SpanKind::Digitize, 0, f, 1000, 0),
            // T2: blocked in get since 200, wakes 20 us after the mark,
            // computes 300, puts 10 -> done 1330.
            span(SpanKind::Get, 1, f, 200, 820),
            span(SpanKind::Compute, 1, f, 1020, 300),
            span(SpanKind::Put, 1, f, 1320, 10),
            // T3: wakes 30 us after the mark, computes 500, puts 20 ->
            // done 1550: the upstream stage on the path.
            span(SpanKind::Get, 2, f, 300, 730),
            span(SpanKind::Get, 2, f, 1030, 0),
            span(SpanKind::Compute, 2, f, 1030, 500),
            // ... and reads frame 8 again as the predecessor of frame 9.
            span(SpanKind::Get, 2, f, 7000, 5),
            span(SpanKind::Put, 2, f, 1530, 20),
            // T4: first get at 3000 (queued 1450 behind frame 7), gets
            // return at once, 40 us unaccounted, computes 2000 (join 900),
            // puts 50 -> done 5100.
            span(SpanKind::Get, 3, f, 3000, 5),
            span(SpanKind::Get, 3, f, 3005, 5),
            span(SpanKind::Get, 3, f, 3010, 0),
            span(SpanKind::Decomp, 3, f, 3050, 0),
            span(SpanKind::Compute, 3, f, 3050, 2000),
            span(SpanKind::Join, 3, f, 3100, 900),
            span(SpanKind::Put, 3, f, 5050, 50),
            // T5: waiting since 2000, wakes 15 us after T4's put ends,
            // computes 100; its put lasts 500 (reclaiming) but T6 has the
            // item 15 us into it -> the frame moves on at 5230.
            span(SpanKind::Get, 4, f, 2000, 3115),
            span(SpanKind::Compute, 4, f, 5115, 100),
            span(SpanKind::Put, 4, f, 5215, 500),
            // T6: computes 20, commits at 5260 (10 us unaccounted before
            // the commit instant).
            span(SpanKind::Get, 5, f, 2500, 2730),
            span(SpanKind::Compute, 5, f, 5230, 20),
            span(SpanKind::Commit, 5, f, 5260, 0),
        ];
        // Two pool chunks of T4, the first starting 60 us after Decomp.
        for (i, (start, dur)) in [(3110u64, 800u64), (3120, 880)].into_iter().enumerate() {
            spans.push(Span {
                kind: SpanKind::PoolChunk,
                stage: 3,
                frame: f,
                chunk: Some((i as u16, 2)),
                start_ns: start * 1000,
                dur_ns: dur * 1000,
                tid: 9,
            });
        }
        // A warm-up frame and an uncommitted frame: both left out.
        spans.push(span(SpanKind::Digitize, 0, 2, 10, 0));
        spans.push(span(SpanKind::Commit, 5, 2, 20, 0));
        spans.push(span(SpanKind::Digitize, 0, 9, 6000, 0));
        SpanDump {
            mode: TraceMode::Full,
            stage_names: Vec::new(),
            recorded: spans.len() as u64,
            spans,
            evicted: 0,
            threads: Vec::new(),
        }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn budget_adds_up_on_a_synthetic_dump() {
        let budgets = frame_budgets(&synthetic(), 0, 0);
        assert_eq!(
            budgets.len(),
            1,
            "warm-up and uncommitted frames are left out"
        );
        let b = &budgets[0];
        assert_eq!(b.frame, 8);
        assert!(close(b.latency, 4.260));
        // Path T3 -> T4 -> T5 -> T6.
        // wake: 30 + 10 + 15 + 0; compute: 500 + 2000 + 100 + 20;
        // put on the path: 20 + 50 + 15 (of 500).
        assert!(
            close(b.critical_path, (55.0 + 2620.0 + 85.0) / 1000.0),
            "{b:?}"
        );
        assert!(close(b.put, 0.570));
        assert!(close(b.queue, 1.450));
        // 40 us before T4's compute and 10 us before the commit instant.
        assert!(close(b.unattributed, 0.050), "{b:?}");
        assert!(close(b.critical_path + b.queue + b.unattributed, b.latency));
        assert!(close(b.compute[3], 2.0) && close(b.compute[0], 0.4));
        assert!(close(b.get_wait[1], 0.820) && close(b.get_wait[3], 0.010));
        assert!(close(b.join_t4, 0.9) && close(b.join_t2, 0.0));
        assert!(close(b.pool_chunk, 0.840) && close(b.pool_queue, 0.060));
    }

    #[test]
    fn trace_metrics_cover_the_catalogue_and_report_lateness() {
        // Frame 8 was due at anchor + 8 periods = 100 us + 8 * 100 us.
        let budgets = frame_budgets(&synthetic(), 100_000, 100_000);
        let m = trace_metrics(&budgets, 12.5, 0.03);
        let names: Vec<&str> = m.iter().map(|(n, _)| n.as_str()).collect();
        let expected: Vec<String> = crate::names::per_layer()
            .into_iter()
            .map(|l| l.name)
            .filter(|n| n.starts_with("trace."))
            .collect();
        assert_eq!(
            names,
            expected.iter().map(String::as_str).collect::<Vec<_>>()
        );
        let get = |n: &str| m.iter().find(|(k, _)| k == n).unwrap().1;
        assert!(close(get("trace.digitizer_late_ms_p95"), 0.1));
        assert!(close(get("trace.critical_path_ms"), 2.760));
        assert!(close(get("trace.unattributed_frac"), 0.050 / 4.260));
        assert_eq!(get("trace.spans_per_frame"), 12.5);
        // Closed loop: no schedule, no lateness.
        assert_eq!(frame_budgets(&synthetic(), 0, 0)[0].late, 0.0);
    }

    #[test]
    fn bench_spans_nest_and_export() {
        let mut log = BenchSpans::new();
        let v = log.scope("bench.setup", |s| {
            s.scope("core.precompute", |_| 1) + s.scope("runtime.build", |_| 2)
        });
        assert_eq!(v, 3);
        assert_eq!(log.spans.len(), 3);
        assert_eq!(log.spans[1].parent, Some(0));
        assert_eq!(log.spans[2].parent, Some(0));
        assert_eq!(log.spans[0].parent, None);
        assert!(log.spans[0].dur_us >= log.spans[1].dur_us + log.spans[2].dur_us);
        assert!(log.total_s("bench.setup") >= log.total_s("core.precompute"));
        let json = log.to_chrome(&[("program".to_string(), synthetic())]);
        let events = obs::chrome::validate(&json).expect("valid Chrome trace");
        assert!(events >= 3);
    }
}
