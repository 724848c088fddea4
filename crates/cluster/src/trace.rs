//! Execution traces: what ran where, when — the raw material for the paper's
//! Figures 4 and 5 (per-processor timelines with per-timestamp shading).

use crate::spec::ProcId;
use taskgraph::{Micros, TaskId};

/// How much of the execution a simulator run records.
///
/// Timing-oriented sweeps run thousands of simulations whose traces are
/// never read; recording every slice then costs an allocation-heavy `Vec`
/// push per processor slice plus the final buffer. `TraceMode` gates that
/// cost: metrics ([`crate::Metrics`]) are computed from frame records and
/// are *identical* in both modes (property-tested), so `Off` is always safe
/// for runs that only need numbers.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TraceMode {
    /// Record nothing. Summary statistics (`makespan`, `busy_time`,
    /// `utilization`) read as empty; use the simulator's own makespan.
    Off,
    /// Record every slice.
    #[default]
    Full,
}

/// One contiguous slice of processor time spent on one task activation (or
/// one chunk of a data-parallel activation). Preempted activations appear as
/// several entries.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceEntry {
    /// The processor that ran the slice.
    pub proc: ProcId,
    /// The task.
    pub task: TaskId,
    /// The frame (timestamp / iteration) being processed.
    pub frame: u64,
    /// Chunk index and chunk count when this is a data-parallel chunk.
    pub chunk: Option<(u32, u32)>,
    /// Slice start (absolute simulated time).
    pub start: Micros,
    /// Slice end.
    pub end: Micros,
}

impl TraceEntry {
    /// Slice duration.
    #[must_use]
    pub fn duration(&self) -> Micros {
        self.end - self.start
    }
}

/// A complete per-run trace.
///
/// Aggregates (makespan, per-processor busy time) are maintained
/// incrementally on every [`ExecutionTrace::push`], so the summary
/// accessors are O(1).
#[derive(Clone, Debug)]
pub struct ExecutionTrace {
    entries: Vec<TraceEntry>,
    mode: TraceMode,
    n_procs: u32,
    busy: Vec<Micros>,
    max_end: Micros,
}

impl Default for ExecutionTrace {
    fn default() -> Self {
        ExecutionTrace::new(0)
    }
}

impl ExecutionTrace {
    /// An empty trace over `n_procs` processors, recording every slice.
    #[must_use]
    pub fn new(n_procs: u32) -> Self {
        ExecutionTrace::with_mode(n_procs, TraceMode::Full)
    }

    fn with_mode(n_procs: u32, mode: TraceMode) -> Self {
        ExecutionTrace {
            entries: Vec::new(),
            mode,
            n_procs,
            busy: vec![Micros::ZERO; n_procs as usize],
            max_end: Micros::ZERO,
        }
    }

    /// Reset to an empty trace over `n_procs` processors in `mode`, keeping
    /// the entry buffer's capacity (arena reuse across simulator runs).
    pub fn reset(&mut self, n_procs: u32, mode: TraceMode) {
        self.entries.clear();
        self.mode = mode;
        self.n_procs = n_procs;
        self.busy.clear();
        self.busy.resize(n_procs as usize, Micros::ZERO);
        self.max_end = Micros::ZERO;
    }

    /// The recording mode.
    #[must_use]
    pub fn mode(&self) -> TraceMode {
        self.mode
    }

    /// Append a slice. Panics if the slice is malformed (end before start or
    /// processor out of range) — traces are produced by simulators, so a
    /// malformed entry is a simulator bug.
    ///
    /// In [`TraceMode::Off`] this is a no-op.
    pub fn push(&mut self, e: TraceEntry) {
        if self.mode == TraceMode::Off {
            return;
        }
        assert!(e.end >= e.start, "trace slice ends before it starts");
        assert!(e.proc.0 < self.n_procs, "trace slice on unknown processor");
        self.busy[e.proc.0 as usize] += e.duration();
        self.max_end = self.max_end.max(e.end);
        self.entries.push(e);
    }

    /// All recorded slices in insertion (time) order; empty under
    /// [`TraceMode::Off`].
    #[must_use]
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of recorded slices (0 under [`TraceMode::Off`]).
    #[must_use]
    pub fn recorded_slices(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Number of processors in the run.
    #[must_use]
    pub fn n_procs(&self) -> u32 {
        self.n_procs
    }

    /// Latest end time across all observed slices. O(1).
    #[must_use]
    pub fn makespan(&self) -> Micros {
        self.max_end
    }

    /// Total busy time of one processor, over all observed slices. O(1).
    #[must_use]
    pub fn busy_time(&self, proc: ProcId) -> Micros {
        self.busy
            .get(proc.0 as usize)
            .copied()
            .unwrap_or(Micros::ZERO)
    }

    /// Fraction of `procs × makespan` spent busy, over all observed slices.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        let span = self.makespan();
        if span == Micros::ZERO || self.n_procs == 0 {
            return 0.0;
        }
        let busy: Micros = self.busy.iter().copied().sum();
        busy.0 as f64 / (span.0 as f64 * f64::from(self.n_procs))
    }

    /// Verify no processor runs two slices at once. Returns the first
    /// overlapping pair if any — the basic sanity check every simulator run
    /// is subjected to in tests.
    #[must_use]
    pub fn find_overlap(&self) -> Option<(TraceEntry, TraceEntry)> {
        let mut by_proc: Vec<Vec<&TraceEntry>> = vec![Vec::new(); self.n_procs as usize];
        for e in &self.entries {
            by_proc[e.proc.0 as usize].push(e);
        }
        for slices in &mut by_proc {
            slices.sort_by_key(|e| (e.start, e.end));
            for w in slices.windows(2) {
                if w[1].start < w[0].end {
                    return Some(((*w[0]).clone(), (*w[1]).clone()));
                }
            }
        }
        None
    }

    /// Slices of a given task, in time order.
    #[must_use]
    pub fn task_slices(&self, task: TaskId) -> Vec<&TraceEntry> {
        let mut v: Vec<&TraceEntry> = self.entries.iter().filter(|e| e.task == task).collect();
        v.sort_by_key(|e| (e.start, e.end));
        v
    }

    /// Push the stored slices into a shared [`obs::ChromeTrace`] builder as
    /// process `pid`, one Chrome thread lane per simulated processor. This
    /// is the unification point with the live runtime's trace export: push
    /// a live [`obs::SpanDump`] and a simulated trace into the *same*
    /// builder (distinct pids) and the two runs render side by side in
    /// `chrome://tracing`.
    ///
    /// `task_names` maps `TaskId` indices to display names; missing entries
    /// fall back to `task<N>`.
    pub fn push_into_chrome(
        &self,
        chrome: &mut obs::ChromeTrace,
        pid: u32,
        process_name: &str,
        task_names: &[String],
    ) {
        chrome.set_process_name(pid, process_name);
        for p in 0..self.n_procs {
            chrome.set_thread_name(pid, p, &format!("proc {p}"));
        }
        for e in &self.entries {
            let base = task_names
                .get(e.task.0)
                .map_or_else(|| format!("task{}", e.task.0), String::clone);
            let name = match e.chunk {
                Some((i, n)) => format!("{base} chunk {}/{n}", i + 1),
                None => base,
            };
            chrome.complete(
                &name,
                "sim",
                pid,
                e.proc.0,
                e.start.0 as f64,
                e.duration().0 as f64,
                Some(e.frame),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(proc: u32, task: usize, frame: u64, start: u64, end: u64) -> TraceEntry {
        TraceEntry {
            proc: ProcId(proc),
            task: TaskId(task),
            frame,
            chunk: None,
            start: Micros(start),
            end: Micros(end),
        }
    }

    #[test]
    fn makespan_and_busy_time() {
        let mut t = ExecutionTrace::new(2);
        t.push(entry(0, 0, 0, 0, 10));
        t.push(entry(1, 1, 0, 5, 25));
        t.push(entry(0, 2, 0, 10, 15));
        assert_eq!(t.makespan(), Micros(25));
        assert_eq!(t.busy_time(ProcId(0)), Micros(15));
        assert_eq!(t.busy_time(ProcId(1)), Micros(20));
        let util = t.utilization();
        assert!((util - 35.0 / 50.0).abs() < 1e-9);
    }

    #[test]
    fn overlap_detection() {
        let mut t = ExecutionTrace::new(1);
        t.push(entry(0, 0, 0, 0, 10));
        t.push(entry(0, 1, 0, 10, 20)); // touching is fine
        assert!(t.find_overlap().is_none());
        t.push(entry(0, 2, 0, 15, 18));
        assert!(t.find_overlap().is_some());
    }

    #[test]
    fn task_slices_sorted() {
        let mut t = ExecutionTrace::new(2);
        t.push(entry(1, 7, 1, 20, 30));
        t.push(entry(0, 7, 0, 0, 10));
        let slices = t.task_slices(TaskId(7));
        assert_eq!(slices.len(), 2);
        assert!(slices[0].start < slices[1].start);
    }

    #[test]
    #[should_panic(expected = "unknown processor")]
    fn bad_proc_rejected() {
        let mut t = ExecutionTrace::new(1);
        t.push(entry(1, 0, 0, 0, 1));
    }

    #[test]
    #[should_panic(expected = "ends before it starts")]
    fn reversed_slice_rejected() {
        let mut t = ExecutionTrace::new(1);
        t.push(entry(0, 0, 0, 10, 5));
    }

    #[test]
    fn chrome_export_is_valid_and_named() {
        let to_json = |t: &ExecutionTrace, names: &[String]| {
            let mut chrome = obs::ChromeTrace::new();
            t.push_into_chrome(&mut chrome, 0, "simulated", names);
            chrome.to_json()
        };
        let mut t = ExecutionTrace::new(2);
        t.push(entry(0, 0, 0, 0, 10));
        t.push(TraceEntry {
            proc: ProcId(1),
            task: TaskId(1),
            frame: 0,
            chunk: Some((0, 2)),
            start: Micros(10),
            end: Micros(40),
        });
        let json = to_json(&t, &["Digitizer".to_string(), "Histogram".to_string()]);
        // 3 metadata (process + 2 threads) + 2 slices.
        assert_eq!(obs::chrome::validate(&json), Ok(5), "{json}");
        assert!(json.contains("Digitizer"));
        assert!(json.contains("Histogram chunk 1/2"));
        // Unknown task ids fall back to a stable name.
        let mut u = ExecutionTrace::new(1);
        u.push(entry(0, 9, 0, 0, 1));
        assert!(to_json(&u, &[]).contains("task9"));
    }

    #[test]
    fn empty_trace_is_sane() {
        let t = ExecutionTrace::new(4);
        assert_eq!(t.makespan(), Micros::ZERO);
        assert_eq!(t.utilization(), 0.0);
        assert!(t.find_overlap().is_none());
        assert_eq!(t.recorded_slices(), 0);
    }

    #[test]
    fn off_mode_stores_and_aggregates_nothing() {
        let mut t = ExecutionTrace::with_mode(2, TraceMode::Off);
        t.push(entry(0, 0, 0, 0, 10));
        t.push(entry(1, 1, 0, 5, 25));
        assert!(t.entries().is_empty());
        assert_eq!(t.recorded_slices(), 0);
        assert_eq!(t.makespan(), Micros::ZERO);
    }

    #[test]
    fn reset_clears_but_keeps_mode_change() {
        let mut t = ExecutionTrace::with_mode(1, TraceMode::Full);
        t.push(entry(0, 0, 0, 0, 10));
        t.reset(3, TraceMode::Off);
        assert_eq!(t.n_procs(), 3);
        assert_eq!(t.mode(), TraceMode::Off);
        assert!(t.entries().is_empty());
        assert_eq!(t.recorded_slices(), 0);
        assert_eq!(t.makespan(), Micros::ZERO);
        assert_eq!(t.busy_time(ProcId(2)), Micros::ZERO);
    }
}
