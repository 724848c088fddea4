//! Run-time regime control for the real runtime: the per-state
//! decomposition table of §2.2 ("it is easy for the application to switch
//! the data decomposition strategy based on the current state") wired to
//! the debounced detector.
//!
//! The controller never panics at run time: a detector observation outside
//! the precomputed table *clamps* to the nearest known regime (the §3.4
//! table-lookup semantics — the table covers the constrained set of states,
//! anything else maps to its closest listed neighbour), bumps a counter,
//! and emits a clamp instant into the trace; an empty table is a
//! construction-time [`RegimeError`], not a live panic. Schedules are
//! searched offline (§3.4); at run time the controller only looks them up.
//!
//! ## Generation-counted swaps
//!
//! The published decomposition is a single `AtomicU64` packing
//! `(generation, FP, MP)`: a reader (the splitter, once per frame) performs
//! one load and can never observe a decomposition from one epoch paired
//! with the generation of another. Writers — a confirmed regime switch from
//! [`RegimeController::observe`], or a table entry replaced through
//! [`RegimeController::install_regime`] — bump the generation on every
//! publish, so "frames observe exactly the old or the new schedule" is a
//! property of the word layout, not of locking discipline. The swap ledger
//! ([`RegimeController::swaps`]) counts installs exactly; the property test
//! in this module hammers concurrent readers against a swapping writer to
//! hold both claims.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use obs::{Recorder, SpanKind};
use parking_lot::Mutex;

use cds_core::detector::RegimeDetector;
use cds_core::table::ScheduleTable;
use taskgraph::{AppState, TaskId};

use crate::error::{RuntimeHealth, Stage};

/// Pack a publication epoch: generation in the high 32 bits, `FP` and `MP`
/// in the two low 16-bit halves. One atomic load yields a consistent
/// `(generation, FP, MP)` triple — the torn-read-freedom the swap path
/// relies on.
fn pack(generation: u32, fp: u32, mp: u32) -> u64 {
    (u64::from(generation) << 32) | (u64::from(fp as u16) << 16) | u64::from(mp as u16)
}

fn unpack(v: u64) -> (u32, (u32, u32)) {
    (
        (v >> 32) as u32,
        (((v >> 16) & 0xFFFF) as u32, (v & 0xFFFF) as u32),
    )
}

/// Construction-time errors of [`RegimeController`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RegimeError {
    /// The decomposition table has no entries: there is no regime to run
    /// in, so the controller cannot be built.
    EmptyTable,
}

impl fmt::Display for RegimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegimeError::EmptyTable => f.write_str("decomposition table must be non-empty"),
        }
    }
}

impl std::error::Error for RegimeError {}

/// What [`RegimeController::install_regime`] published: the generation the
/// swap landed as and the decomposition now active.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReschedSwap {
    /// The generation of the new publication epoch.
    pub generation: u32,
    /// The `(FP, MP)` active after the swap (the installed entry if the
    /// active regime resolves to it; otherwise unchanged in value, but
    /// republished under the new generation).
    pub decomp: (u32, u32),
}

/// Maps the detected people count to the decomposition the splitter should
/// use, switching through a debounced detector, and accepting atomic
/// mid-run table swaps through [`install_regime`](Self::install_regime).
pub struct RegimeController {
    detector: Mutex<RegimeDetector>,
    /// Mutable: [`install_regime`](Self::install_regime) replaces entries at
    /// run time. Locked only on switch confirmation and install — never on
    /// the per-frame read path.
    table: Mutex<BTreeMap<u32, (u32, u32)>>,
    /// The packed `(generation, FP, MP)` publication word.
    current: AtomicU64,
    /// Model count of the last confirmed regime (what installs re-resolve).
    active_n: AtomicU64,
    switches: AtomicU64,
    clamps: AtomicU64,
    swaps: AtomicU64,
    observations: AtomicU64,
    recorder: Mutex<Option<Recorder>>,
    health: Mutex<Option<Arc<RuntimeHealth>>>,
}

impl RegimeController {
    /// Create a controller. `table` maps a model count to `(FP, MP)`;
    /// lookups take the nearest entry at or below the observed count,
    /// clamping to the smallest entry when the observation falls below
    /// every listed regime. An empty table is an error.
    pub fn new(
        initial: u32,
        confirm_after: usize,
        table: BTreeMap<u32, (u32, u32)>,
    ) -> Result<Self, RegimeError> {
        if table.is_empty() {
            return Err(RegimeError::EmptyTable);
        }
        let ctl = RegimeController {
            detector: Mutex::new(RegimeDetector::new(AppState::new(initial), confirm_after)),
            table: Mutex::new(table),
            current: AtomicU64::new(0),
            active_n: AtomicU64::new(u64::from(initial)),
            switches: AtomicU64::new(0),
            clamps: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
            observations: AtomicU64::new(0),
            recorder: Mutex::new(None),
            health: Mutex::new(None),
        };
        let (fp, mp, clamped) = ctl.lookup(initial);
        if clamped {
            ctl.note_clamp();
        }
        ctl.current.store(pack(0, fp, mp), Ordering::SeqCst);
        Ok(ctl)
    }

    /// Build a controller straight from an offline [`ScheduleTable`] (the
    /// output of `ScheduleTable::precompute_with_cache`, possibly loaded
    /// from the persistent schedule cache): for every state the table
    /// covers, the decomposition the optimal schedule chose for `dp_task`
    /// becomes that regime's `(FP, MP)` entry. States where the optimal
    /// schedule keeps `dp_task` serial map to `(1, 1)`.
    ///
    /// This is the §3.4 offline→online hand-off: the branch-and-bound
    /// search (offline, cached) decides *what* each regime runs; this
    /// controller only decides *when* to switch. A table with no states
    /// yields [`RegimeError::EmptyTable`].
    pub fn from_schedule_table(
        table: &ScheduleTable,
        dp_task: TaskId,
        initial: u32,
        confirm_after: usize,
    ) -> Result<Self, RegimeError> {
        let map: BTreeMap<u32, (u32, u32)> = table
            .states()
            .into_iter()
            .filter_map(|s| {
                // A state listed without a schedule cannot happen today, but
                // skipping it beats panicking on a half-built table.
                let sched = table.get(&s)?;
                let d = sched
                    .iteration
                    .decomp
                    .get(&dp_task)
                    .map_or((1, 1), |d| (d.fp, d.mp));
                Some((s.n_models, d))
            })
            .collect();
        Self::new(initial, confirm_after, map)
    }

    /// The `(FP, MP)` for an observed model count, plus whether the lookup
    /// clamped: nearest table entry at or below `n`, falling back to the
    /// smallest entry when `n` lies below every listed regime. The
    /// constructor guarantees the table is non-empty; the `(1, 1)` fallback
    /// is unreachable belt-and-braces.
    fn lookup(&self, n: u32) -> (u32, u32, bool) {
        let table = self.table.lock();
        if let Some((_, &(fp, mp))) = table.range(..=n).next_back() {
            // Nearest-at-or-below is the table's own semantics, not a
            // clamp: clamps are undershoots below the whole table.
            return (fp, mp, false);
        }
        let (fp, mp) = table.iter().next().map_or((1, 1), |(_, &d)| d);
        (fp, mp, true)
    }

    /// Count a clamp, locally and in the attached health ledger.
    fn note_clamp(&self) {
        self.clamps.fetch_add(1, Ordering::SeqCst);
        if let Some(h) = self.health.lock().as_ref() {
            h.record_regime_clamp();
        }
    }

    /// Publish a new `(FP, MP)` under a fresh generation; returns the new
    /// generation. The read-modify-write is a single `fetch_update`, so
    /// concurrent publishers each claim a distinct generation.
    fn publish(&self, fp: u32, mp: u32) -> u32 {
        let prev = self
            .current
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |old| {
                Some(pack((old >> 32) as u32 + 1, fp, mp))
            })
            // The closure always returns Some, so fetch_update cannot fail;
            // fall back to the current word rather than panicking.
            .unwrap_or_else(|v| v);
        (prev >> 32) as u32 + 1
    }

    /// Report confirmed switches (as [`SpanKind::Switch`] instants carrying
    /// the observation ordinal and the new `(FP, MP)`) into `rec`. Clamped
    /// confirmations additionally emit a Switch instant with *no* decomp
    /// payload — the timeline marker that an out-of-table state was mapped
    /// to its nearest neighbour.
    pub fn attach_recorder(&self, rec: Recorder) {
        *self.recorder.lock() = Some(rec);
    }

    /// Route clamped observations into the run's shared health ledger as
    /// well as the local counter.
    pub fn attach_health(&self, health: Arc<RuntimeHealth>) {
        *self.health.lock() = Some(health);
    }

    /// Feed the per-frame observation (the peak detector's people count).
    /// Updates the active decomposition when a regime change is confirmed.
    /// A confirmed state outside the table clamps to the nearest known
    /// regime instead of panicking (see [`clamps`](Self::clamps)) and leaves
    /// a clamp instant on the trace.
    pub fn observe(&self, detected: u32) {
        let ordinal = self.observations.fetch_add(1, Ordering::SeqCst);
        let mut det = self.detector.lock();
        if let Some(new_state) = det.observe(AppState::new(detected)) {
            let n = new_state.n_models;
            self.active_n.store(u64::from(n), Ordering::SeqCst);
            let (fp, mp, clamped) = self.lookup(n);
            if clamped {
                self.note_clamp();
            }
            self.publish(fp, mp);
            self.switches.fetch_add(1, Ordering::SeqCst);
            if let Some(r) = self.recorder.lock().as_ref().filter(|r| r.enabled()) {
                if clamped {
                    // Switch-style instant with no decomp payload = clamp.
                    r.instant(SpanKind::Switch, Stage::Detect.index(), ordinal, None);
                }
                r.instant(
                    SpanKind::Switch,
                    Stage::Detect.index(),
                    ordinal,
                    Some((fp as u16, mp as u16)),
                );
            }
        }
    }

    /// Atomically swap a regime's decomposition into the live table.
    /// Inserts (or replaces) the entry for `n_models`, re-resolves the
    /// active regime against the updated table, and republishes under a
    /// fresh generation — one atomic store, so concurrent frame commits
    /// observe exactly the old or the new epoch, never a mixture. Counts
    /// exactly one swap in the ledger per call.
    pub fn install_regime(&self, n_models: u32, fp: u32, mp: u32) -> ReschedSwap {
        let mut table = self.table.lock();
        table.insert(n_models, (fp, mp));
        let active = self.active_n.load(Ordering::SeqCst) as u32;
        let (afp, amp) = table
            .range(..=active)
            .next_back()
            .map(|(_, &d)| d)
            .or_else(|| table.iter().next().map(|(_, &d)| d))
            .unwrap_or((1, 1));
        drop(table);
        let generation = self.publish(afp, amp);
        self.swaps.fetch_add(1, Ordering::SeqCst);
        ReschedSwap {
            generation,
            decomp: (afp, amp),
        }
    }

    /// The decomposition the splitter should use right now.
    #[must_use]
    pub fn current_decomp(&self) -> (u32, u32) {
        unpack(self.current.load(Ordering::SeqCst)).1
    }

    /// The decomposition and the generation it was published under, read
    /// from one atomic load (never torn across a concurrent swap).
    #[must_use]
    pub fn decomp_generation(&self) -> ((u32, u32), u32) {
        let (generation, decomp) = unpack(self.current.load(Ordering::SeqCst));
        (decomp, generation)
    }

    /// Confirmed regime switches so far.
    #[must_use]
    pub fn switches(&self) -> u64 {
        self.switches.load(Ordering::SeqCst)
    }

    /// Observations that fell outside the table and were clamped to the
    /// nearest known regime.
    #[must_use]
    pub fn clamps(&self) -> u64 {
        self.clamps.load(Ordering::SeqCst)
    }

    /// Table entries atomically swapped in by
    /// [`install_regime`](Self::install_regime).
    #[must_use]
    pub fn swaps(&self) -> u64 {
        self.swaps.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> BTreeMap<u32, (u32, u32)> {
        // ≤1 model: split the frame; ≥2: split by models.
        let mut t = BTreeMap::new();
        t.insert(0, (4, 1));
        t.insert(2, (1, 8));
        t
    }

    #[test]
    fn initial_decomposition_from_table() {
        let c = RegimeController::new(1, 2, table()).unwrap();
        assert_eq!(c.current_decomp(), (4, 1));
        let c = RegimeController::new(3, 2, table()).unwrap();
        assert_eq!(c.current_decomp(), (1, 8));
    }

    #[test]
    fn confirmed_change_switches_decomposition() {
        let c = RegimeController::new(1, 2, table()).unwrap();
        c.observe(4);
        assert_eq!(c.current_decomp(), (4, 1), "one observation is not enough");
        c.observe(4);
        assert_eq!(c.current_decomp(), (1, 8));
        assert_eq!(c.switches(), 1);
    }

    #[test]
    fn blips_do_not_switch() {
        let c = RegimeController::new(1, 3, table()).unwrap();
        for _ in 0..5 {
            c.observe(4);
            c.observe(1);
        }
        assert_eq!(c.current_decomp(), (4, 1));
        assert_eq!(c.switches(), 0);
    }

    #[test]
    fn lookup_takes_nearest_at_or_below() {
        let c = RegimeController::new(0, 1, table()).unwrap();
        assert_eq!(c.current_decomp(), (4, 1));
        c.observe(7); // ≥2 → (1, 8)
        assert_eq!(c.current_decomp(), (1, 8));
    }

    #[test]
    fn empty_table_rejected_as_error() {
        // Formerly a should_panic test: an empty table is now a typed
        // constructor error, never a live panic.
        match RegimeController::new(0, 1, BTreeMap::new()) {
            Err(e) => assert_eq!(e, RegimeError::EmptyTable),
            Ok(_) => panic!("empty table must be rejected"),
        }
    }

    #[test]
    fn out_of_table_state_clamps_to_nearest_regime() {
        // Table starts at 1: an observed state of 0 lies below every listed
        // regime. The old `expect` is gone — the controller clamps to the
        // smallest entry and counts the clamp.
        let mut t = BTreeMap::new();
        t.insert(1, (4, 1));
        t.insert(2, (1, 8));
        let c = RegimeController::new(1, 1, t).unwrap();
        assert_eq!(c.clamps(), 0);
        c.observe(0); // confirm_after = 1: switches immediately
        assert_eq!(c.current_decomp(), (4, 1), "clamped to the smallest regime");
        assert_eq!(c.switches(), 1);
        assert_eq!(c.clamps(), 1);
    }

    #[test]
    fn switch_is_recorded_and_clamp_reaches_health() {
        use crate::error::RuntimeHealth;
        use obs::TraceMode;

        let mut t = BTreeMap::new();
        t.insert(1, (4, 1));
        t.insert(2, (1, 8));
        let c = RegimeController::new(1, 1, t).unwrap();
        let rec = Recorder::new(TraceMode::Full, Stage::names());
        let health = Arc::new(RuntimeHealth::default());
        c.attach_recorder(rec.clone());
        c.attach_health(Arc::clone(&health));

        c.observe(0); // below the table: clamps AND switches (confirm=1)
        c.observe(5); // switches to the ≥2 regime
        assert_eq!(c.switches(), 2);
        assert_eq!(c.clamps(), 1);
        assert_eq!(health.report().regime_clamps, 1);

        let dump = rec.drain();
        // Switch instants carrying a decomp payload are the switches…
        let switches: Vec<_> = dump
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Switch && s.chunk.is_some())
            .collect();
        assert_eq!(switches.len(), 2);
        assert_eq!(switches[0].frame, 0, "first switch on observation 0");
        assert_eq!(switches[1].frame, 1);
        assert_eq!(switches[1].chunk, Some((1, 8)), "carries the new decomp");
        // …and the payload-free Switch instant is the clamp marker.
        let clamp_marks: Vec<_> = dump
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Switch && s.chunk.is_none())
            .collect();
        assert_eq!(clamp_marks.len(), 1, "clamp leaves a timeline instant");
        assert_eq!(clamp_marks[0].frame, 0, "on the clamping observation");
    }

    #[test]
    fn install_regime_swaps_generation() {
        let mut t = BTreeMap::new();
        t.insert(1, (4, 1));
        let c = RegimeController::new(1, 1, t).unwrap();
        let (d0, g0) = c.decomp_generation();
        assert_eq!(d0, (4, 1));

        // A confirmed out-of-table state above the table: nearest-below
        // covers it, which is not a clamp.
        c.observe(3);
        assert_eq!(c.clamps(), 0);

        // An entry for 3 lands: the active regime (3) now resolves to it,
        // under a fresh generation.
        let swap = c.install_regime(3, 2, 2);
        assert_eq!(swap.decomp, (2, 2));
        assert_eq!(c.current_decomp(), (2, 2));
        assert_eq!(c.swaps(), 1);
        let (_, g1) = c.decomp_generation();
        assert!(g1 > g0, "swap must bump the generation");

        // Installing an entry the active regime does not resolve to keeps
        // the decomp but still republishes and counts.
        let swap2 = c.install_regime(10, 8, 8);
        assert_eq!(swap2.decomp, (2, 2), "active regime 3 still wins");
        assert_eq!(c.swaps(), 2);
    }

    #[test]
    fn concurrent_reads_never_observe_torn_swap() {
        // A writer swaps generations while readers hammer the packed word:
        // every observed (generation, decomp) pair must be one the writer
        // actually published. This is the cheap unit-level version of the
        // proptest in tests/regime_swap.rs.
        let mut t = BTreeMap::new();
        t.insert(1, (1, 1));
        let c = Arc::new(RegimeController::new(1, 1, t).unwrap());
        let published: Arc<Mutex<BTreeMap<u32, (u32, u32)>>> =
            Arc::new(Mutex::new(BTreeMap::new()));
        published.lock().insert(0, (1, 1));

        std::thread::scope(|s| {
            let w = Arc::clone(&c);
            let plog = Arc::clone(&published);
            s.spawn(move || {
                for i in 1..200u32 {
                    let (fp, mp) = (i % 7 + 1, i % 5 + 1);
                    // Record the epoch before publishing: a reader may see
                    // it the instant the store lands.
                    plog.lock().insert(i, (fp, mp));
                    let swap = w.install_regime(1, fp, mp);
                    assert_eq!(swap.generation, i);
                }
            });
            for _ in 0..2 {
                let r = Arc::clone(&c);
                let plog = Arc::clone(&published);
                s.spawn(move || {
                    for _ in 0..10_000 {
                        let (decomp, generation) = r.decomp_generation();
                        let expected = plog.lock().get(&generation).copied();
                        // The writer logs before publishing, so a seen
                        // generation is always logged.
                        assert_eq!(
                            expected,
                            Some(decomp),
                            "torn read at generation {generation}"
                        );
                    }
                });
            }
        });
        assert_eq!(c.swaps(), 199);
    }

    #[test]
    fn controller_from_offline_schedule_table() {
        use cds_core::optimal::OptimalConfig;
        use cds_core::table::ScheduleTable;
        use cluster::ClusterSpec;
        use taskgraph::builders;

        let g = builders::color_tracker();
        let c = ClusterSpec::single_node(4);
        let states: Vec<AppState> = [1u32, 8].iter().map(|&n| AppState::new(n)).collect();
        let table = ScheduleTable::precompute(&g, &c, &states, &OptimalConfig::default());
        let t4 = g.task_by_name("Target Detection").unwrap();

        let ctl = RegimeController::from_schedule_table(&table, t4, 1, 2).unwrap();
        // At 1 model the optimal schedule decomposes T4 by frame (MP
        // clamps to 1); observe a regime change to 8 models and the
        // controller must hand out the 8-model optimum's decomposition.
        let pair = |s: &ScheduleTable, n: u32| {
            s.get(&AppState::new(n))
                .unwrap()
                .iteration
                .decomp
                .get(&t4)
                .map_or((1, 1), |d| (d.fp, d.mp))
        };
        let at1 = ctl.current_decomp();
        assert_eq!(at1, pair(&table, 1));
        ctl.observe(8);
        ctl.observe(8);
        let at8 = ctl.current_decomp();
        assert_eq!(at8, pair(&table, 8));
        assert_eq!(ctl.switches(), 1);
        assert_ne!(at1, at8, "regimes 1 and 8 should use different decomps");
    }
}
