//! Deterministic fault injection for the live pipeline.
//!
//! The whole point of the panic-free runtime is unprovable without faults
//! to survive, so this module injects them *deterministically*: a
//! [`FaultPlan`] names exactly which faults hit which `(stage, frame)`
//! coordinates (or which worker-pool job ordinals), either hand-built or
//! seeded from a PRNG, and the built [`FaultInjector`] fires each planned
//! fault exactly once while counting what it actually injected. A harness
//! can then assert the run's health ledger equals the injected counts —
//! fault-for-fault, not approximately.
//!
//! Four fault kinds, mirroring the stream-failure taxonomy of the
//! stream-scheduling literature (stragglers, task failures, misreported
//! state):
//!
//! * **STM errors** — a stage's input `get` is made to fail with an error
//!   end-of-stream semantics don't cover; the stage must drop the frame.
//! * **Task delays** — a stage sleeps before processing a frame
//!   (a straggler); delays under the latency budget must be absorbed
//!   bit-identically, delays over it must cost exactly one frame.
//! * **Worker panics** — the shared data-parallel pool's handler panics on
//!   chosen job ordinals; the pool must contain the panic and the joiner
//!   must recompute the lost chunk.
//! * **Regime misreads** — the people-count fed to the regime controller is
//!   falsified for chosen frames; decompositions may switch but output must
//!   not change, and out-of-table states must clamp.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::Stage;

/// Which of a plan's fault kinds a fired-once key belongs to.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Kind {
    Stm,
    Delay,
}

/// A deterministic fault schedule. Build one by hand for targeted tests or
/// with [`FaultPlan::seeded`] for randomized (but reproducible) mixes, then
/// [`build`](FaultPlan::build) it into the injector the tracker consumes.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    stm_errors: BTreeSet<(Stage, u64)>,
    delays: BTreeMap<(Stage, u64), Duration>,
    panic_jobs: BTreeSet<u64>,
    misreads: BTreeMap<u64, u32>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Fail the input `get` of `stage` at frame `ts` with an unexpected STM
    /// error. The stage must drop exactly that frame.
    #[must_use]
    pub fn stm_error(mut self, stage: Stage, ts: u64) -> Self {
        self.stm_errors.insert((stage, ts));
        self
    }

    /// Sleep `d` before `stage` processes frame `ts` (a straggler).
    #[must_use]
    pub fn delay(mut self, stage: Stage, ts: u64, d: Duration) -> Self {
        self.delays.insert((stage, ts), d);
        self
    }

    /// Panic the worker-pool handler on its `ordinal`-th job (0-based,
    /// counted across all submissions in arrival order at the handler).
    #[must_use]
    pub fn panic_job(mut self, ordinal: u64) -> Self {
        self.panic_jobs.insert(ordinal);
        self
    }

    /// Report `count` people to the regime controller at frame `ts`
    /// instead of the detector's real observation. The tracker's own
    /// output log keeps the true count — only the controller is lied to.
    #[must_use]
    pub fn misread(mut self, ts: u64, count: u32) -> Self {
        self.misreads.insert(ts, count);
        self
    }

    /// A reproducible random mix over `n_frames` frames: `n_stm` STM
    /// errors, `n_delays` sub-budget delays (≤ `max_delay`), `n_panics`
    /// worker panics on early job ordinals, and `n_misreads` falsified
    /// counts. Each faulted frame receives at most one frame-dropping
    /// fault, so drop accounting stays exact.
    #[must_use]
    pub fn seeded(
        seed: u64,
        n_frames: u64,
        n_stm: usize,
        n_delays: usize,
        n_panics: usize,
        n_misreads: usize,
        max_delay: Duration,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        // Injectable stages for get-side faults (the digitizer has no input
        // gets; its only injectable fault is a delay).
        const GET_STAGES: [Stage; 5] = [
            Stage::Histogram,
            Stage::Change,
            Stage::Detect,
            Stage::Peak,
            Stage::Face,
        ];
        let mut free_ts: Vec<u64> = (0..n_frames).collect();
        let take_ts = |rng: &mut StdRng, free: &mut Vec<u64>| -> Option<u64> {
            if free.is_empty() {
                return None;
            }
            let i = rng.random_range(0..free.len());
            Some(free.swap_remove(i))
        };
        for _ in 0..n_stm {
            if let Some(ts) = take_ts(&mut rng, &mut free_ts) {
                let stage = GET_STAGES[rng.random_range(0..GET_STAGES.len())];
                plan = plan.stm_error(stage, ts);
            }
        }
        for _ in 0..n_delays {
            // Delays stay on distinct frames too, so an absorbed delay can
            // never race a dropping fault at the same coordinate.
            if let Some(ts) = take_ts(&mut rng, &mut free_ts) {
                let stage = GET_STAGES[rng.random_range(0..GET_STAGES.len())];
                let d = Duration::from_micros(rng.random_range(1..=max_delay.as_micros() as u64));
                plan = plan.delay(stage, ts, d);
            }
        }
        for k in 0..n_panics {
            // Early, distinct ordinals: every plan's panics actually fire
            // as long as the run submits a handful of jobs per frame.
            let ordinal = k as u64 * 3 + rng.random_range(0..3u64);
            plan = plan.panic_job(ordinal);
        }
        for _ in 0..n_misreads {
            if let Some(ts) = take_ts(&mut rng, &mut free_ts) {
                plan = plan.misread(ts, rng.random_range(0..16u32));
            }
        }
        plan
    }

    /// Frames a run of this plan will fail to complete, assuming every
    /// planned delay is below the latency budget: exactly the STM-error
    /// frames (panics are recomputed inline, misreads don't drop, absorbed
    /// delays don't drop).
    #[must_use]
    pub fn dropped_frames(&self) -> BTreeSet<u64> {
        self.stm_errors.iter().map(|&(_, ts)| ts).collect()
    }

    /// Expected cascaded deadline skips: a frame dropped at stage `k`
    /// starves each stage strictly downstream of `k` once.
    #[must_use]
    pub fn expected_deadline_skips(&self) -> u64 {
        self.stm_errors
            .iter()
            .map(|&(stage, _)| stage.downstream_depth())
            .sum()
    }

    /// Number of planned STM errors.
    #[must_use]
    pub fn n_stm_errors(&self) -> u64 {
        self.stm_errors.len() as u64
    }

    /// Number of planned worker panics.
    #[must_use]
    pub fn n_panics(&self) -> u64 {
        self.panic_jobs.len() as u64
    }

    /// Number of planned misreads.
    #[must_use]
    pub fn n_misreads(&self) -> u64 {
        self.misreads.len() as u64
    }

    /// Number of planned delays.
    #[must_use]
    pub fn n_delays(&self) -> u64 {
        self.delays.len() as u64
    }

    /// Largest planned panic ordinal, if any (the run must submit more
    /// pool jobs than this for every planned panic to fire).
    #[must_use]
    pub fn max_panic_ordinal(&self) -> Option<u64> {
        self.panic_jobs.iter().next_back().copied()
    }

    /// Freeze the plan into a shareable injector.
    #[must_use]
    pub fn build(self) -> Arc<FaultInjector> {
        Arc::new(FaultInjector {
            plan: self,
            job_ordinal: AtomicU64::new(0),
            fired: Mutex::new(BTreeSet::new()),
            injected_stm: AtomicU64::new(0),
            injected_delays: AtomicU64::new(0),
            injected_panics: AtomicU64::new(0),
            injected_misreads: AtomicU64::new(0),
        })
    }
}

/// Counts of faults an injector has actually fired so far.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct InjectedCounts {
    /// STM get errors synthesized.
    pub stm_errors: u64,
    /// Delays slept.
    pub delays: u64,
    /// Worker-pool jobs panicked.
    pub panics: u64,
    /// Regime observations falsified.
    pub misreads: u64,
}

/// A frozen [`FaultPlan`] plus fired-once bookkeeping. The runtime probes
/// it at each injection point; every planned fault fires at most once, and
/// [`injected`](Self::injected) reports exact counts for the harness.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    job_ordinal: AtomicU64,
    fired: Mutex<BTreeSet<(Kind, Stage, u64)>>,
    injected_stm: AtomicU64,
    injected_delays: AtomicU64,
    injected_panics: AtomicU64,
    injected_misreads: AtomicU64,
}

impl FaultInjector {
    fn fire_once(&self, kind: Kind, stage: Stage, ts: u64) -> bool {
        self.fired.lock().insert((kind, stage, ts))
    }

    /// Should `stage`'s input get at frame `ts` fail with an injected STM
    /// error? True exactly once per planned coordinate.
    pub fn stm_error(&self, stage: Stage, ts: u64) -> bool {
        if self.plan.stm_errors.contains(&(stage, ts)) && self.fire_once(Kind::Stm, stage, ts) {
            self.injected_stm.fetch_add(1, Ordering::SeqCst);
            return true;
        }
        false
    }

    /// Apply any planned delay for `stage` at frame `ts` (sleeps inline,
    /// once per coordinate).
    pub fn delay(&self, stage: Stage, ts: u64) {
        if let Some(&d) = self.plan.delays.get(&(stage, ts)) {
            if self.fire_once(Kind::Delay, stage, ts) {
                self.injected_delays.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(d);
            }
        }
    }

    /// The falsified people-count for frame `ts`, if planned (fires every
    /// time it is consulted; the sink consults once per frame).
    pub fn misread(&self, ts: u64) -> Option<u32> {
        let bogus = self.plan.misreads.get(&ts).copied();
        if bogus.is_some() {
            self.injected_misreads.fetch_add(1, Ordering::SeqCst);
        }
        bogus
    }

    /// Called by the pool handler wrapper on every job; panics on planned
    /// ordinals. The panic happens *after* the count is recorded, so the
    /// ledger survives the unwind.
    pub fn maybe_panic_job(&self) {
        let ordinal = self.job_ordinal.fetch_add(1, Ordering::SeqCst);
        if self.plan.panic_jobs.contains(&ordinal) {
            self.injected_panics.fetch_add(1, Ordering::SeqCst);
            // fault-injection: this panic is the *input* of the containment
            // test, deliberately thrown inside the pool handler.
            panic!("injected worker panic at job ordinal {ordinal}");
        }
    }

    /// Exact counts of faults fired so far.
    #[must_use]
    pub fn injected(&self) -> InjectedCounts {
        InjectedCounts {
            stm_errors: self.injected_stm.load(Ordering::SeqCst),
            delays: self.injected_delays.load(Ordering::SeqCst),
            panics: self.injected_panics.load(Ordering::SeqCst),
            misreads: self.injected_misreads.load(Ordering::SeqCst),
        }
    }

    /// The plan this injector was built from.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stm_errors_fire_exactly_once() {
        let inj = FaultPlan::new()
            .stm_error(Stage::Histogram, 3)
            .stm_error(Stage::Peak, 5)
            .build();
        assert!(!inj.stm_error(Stage::Histogram, 2));
        assert!(inj.stm_error(Stage::Histogram, 3));
        assert!(!inj.stm_error(Stage::Histogram, 3), "fires once");
        assert!(inj.stm_error(Stage::Peak, 5));
        assert_eq!(inj.injected().stm_errors, 2);
    }

    #[test]
    fn delays_sleep_once() {
        let inj = FaultPlan::new()
            .delay(Stage::Detect, 1, Duration::from_millis(5))
            .build();
        let t0 = std::time::Instant::now();
        inj.delay(Stage::Detect, 1);
        assert!(t0.elapsed() >= Duration::from_millis(5));
        let t1 = std::time::Instant::now();
        inj.delay(Stage::Detect, 1); // second call: no sleep
        assert!(t1.elapsed() < Duration::from_millis(5));
        assert_eq!(inj.injected().delays, 1);
    }

    #[test]
    fn job_ordinals_panic_as_planned() {
        let inj = FaultPlan::new().panic_job(1).build();
        inj.maybe_panic_job(); // ordinal 0: fine
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| inj.maybe_panic_job()));
        assert!(r.is_err(), "ordinal 1 panics");
        inj.maybe_panic_job(); // ordinal 2: fine
        assert_eq!(inj.injected().panics, 1);
    }

    #[test]
    fn misreads_report_bogus_counts() {
        let inj = FaultPlan::new().misread(4, 11).build();
        assert_eq!(inj.misread(3), None);
        assert_eq!(inj.misread(4), Some(11));
        assert_eq!(inj.injected().misreads, 1);
    }

    #[test]
    fn seeded_plans_are_reproducible_and_disjoint() {
        let a = FaultPlan::seeded(42, 64, 4, 3, 2, 2, Duration::from_millis(2));
        let b = FaultPlan::seeded(42, 64, 4, 3, 2, 2, Duration::from_millis(2));
        assert_eq!(a.stm_errors, b.stm_errors);
        assert_eq!(a.delays, b.delays);
        assert_eq!(a.panic_jobs, b.panic_jobs);
        assert_eq!(a.misreads, b.misreads);
        assert_eq!(a.n_stm_errors(), 4);
        assert_eq!(a.n_panics(), 2);
        // Frame-dropping faults, delays, and misreads live on distinct
        // frames.
        let mut all: Vec<u64> = a
            .stm_errors
            .iter()
            .map(|&(_, ts)| ts)
            .chain(a.delays.keys().map(|&(_, ts)| ts))
            .chain(a.misreads.keys().copied())
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "faulted frames are distinct");
        let c = FaultPlan::seeded(43, 64, 4, 3, 2, 2, Duration::from_millis(2));
        assert_ne!(a.stm_errors, c.stm_errors, "different seed, different plan");
    }

    #[test]
    fn drop_accounting_matches_plan() {
        let plan = FaultPlan::new()
            .stm_error(Stage::Histogram, 2) // cascades 3 skips
            .stm_error(Stage::Peak, 7); // cascades 1 skip
        assert_eq!(
            plan.dropped_frames().into_iter().collect::<Vec<_>>(),
            vec![2, 7]
        );
        assert_eq!(plan.expected_deadline_skips(), 4);
        assert_eq!(plan.max_panic_ordinal(), None);
    }
}
