//! Torn-schedule freedom for the regime controller's atomic swap path.
//!
//! A mid-run table swap publishes its decomposition through
//! `RegimeController::install_regime`, which repacks `(generation, FP, MP)`
//! into one atomic word. The two claims under test, for *any* install
//! sequence a writer could produce:
//!
//! 1. **No torn schedule**: a concurrent reader (standing in for the
//!    splitter's once-per-frame lookup) always observes a `(generation,
//!    decomp)` pair the writer actually published — exactly the old or
//!    exactly the new epoch, never a mixture of the two.
//! 2. **Exact ledger**: `swaps()` counts one swap per install, no more, no
//!    fewer, regardless of interleaving.
//!
//! A final deterministic test drives the *real* pipeline — frame commits on
//! live task threads — while a writer installs regimes mid-run, proving the
//! swap path never corrupts output or drops a frame.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use runtime::{OnlineExecutor, RegimeController, TrackerApp, TrackerConfig};

/// One regime landing per element: insert `(n_models →
/// (fp, mp))` and republish. FP/MP stay within the 16-bit halves of the
/// packed word.
fn install_seq() -> impl Strategy<Value = Vec<(u32, u32, u32)>> {
    proptest::collection::vec((1u32..=8, 1u32..=16, 1u32..=16), 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Readers hammering the packed word during an arbitrary install
    /// sequence only ever see published epochs — and see them with the
    /// decomposition that was actually published under that generation —
    /// while the ledger counts the sequence exactly.
    #[test]
    fn swaps_are_never_torn_and_ledger_is_exact(
        installs in install_seq(),
        active in 1u32..=8,
    ) {
        // Seed entry at 1 guarantees every lookup at-or-below `active`
        // resolves, matching the controller's own table semantics.
        let mut t = BTreeMap::new();
        t.insert(1, (1, 1));
        let ctl = Arc::new(RegimeController::new(active, 1, t.clone()).unwrap());

        // Generation → decomp published under it. Generation 0 is the
        // constructor's publication. The writer predicts each install's
        // resolved decomp by replaying the table locally and logs it
        // *before* calling install_regime, so any generation a reader can
        // observe is already logged with the right decomposition.
        let published: Arc<Mutex<BTreeMap<u32, (u32, u32)>>> =
            Arc::new(Mutex::new(BTreeMap::new()));
        published.lock().unwrap().insert(0, ctl.current_decomp());
        let done = Arc::new(AtomicBool::new(false));

        let n_installs = installs.len() as u64;
        std::thread::scope(|s| {
            let w = Arc::clone(&ctl);
            let plog = Arc::clone(&published);
            let wdone = Arc::clone(&done);
            let installs = &installs;
            s.spawn(move || {
                let mut shadow = t;
                for (i, &(n, fp, mp)) in installs.iter().enumerate() {
                    let generation = i as u32 + 1;
                    // Replay install_regime's resolution rule: insert, then
                    // take the nearest entry at or below the active regime
                    // (entry 1 makes the range non-empty for active ≥ 1).
                    shadow.insert(n, (fp, mp));
                    let expect = shadow
                        .range(..=active)
                        .next_back()
                        .map(|(_, &d)| d)
                        .unwrap_or((1, 1));
                    plog.lock().unwrap().insert(generation, expect);
                    let swap = w.install_regime(n, fp, mp);
                    assert_eq!(swap.generation, generation);
                    assert_eq!(swap.decomp, expect, "replay predicts the install");
                }
                wdone.store(true, Ordering::SeqCst);
            });
            for _ in 0..3 {
                let r = Arc::clone(&ctl);
                let plog = Arc::clone(&published);
                let rdone = Arc::clone(&done);
                s.spawn(move || {
                    let mut last_gen = 0u32;
                    // Keep reading until the writer finishes, then once
                    // more so the final epoch is always checked.
                    let mut finished = false;
                    while !finished {
                        finished = rdone.load(Ordering::SeqCst);
                        let (decomp, generation) = r.decomp_generation();
                        assert!(
                            generation >= last_gen,
                            "generations are monotone per reader"
                        );
                        last_gen = generation;
                        let logged = plog.lock().unwrap().get(&generation).copied();
                        assert_eq!(
                            logged,
                            Some(decomp),
                            "torn read at generation {generation}"
                        );
                    }
                });
            }
        });

        prop_assert_eq!(ctl.swaps(), n_installs, "ledger counts installs exactly");
        prop_assert_eq!(
            u64::from(ctl.decomp_generation().1),
            n_installs,
            "final generation equals the number of installs"
        );
    }
}

/// The real thing: live frame commits racing mid-run installs. The sink
/// commits frames on its own thread while a writer swaps regimes under it;
/// every frame must still complete with a sane decomposition, and the
/// ledger must count exactly the installs that ran.
#[test]
fn live_frame_commits_race_installs_without_corruption() {
    let n_frames = 16u64;
    let mut cfg = TrackerConfig::small(2, n_frames);
    cfg.channel_capacity = n_frames as usize + 2;

    let mut t = BTreeMap::new();
    t.insert(1, (2, 1));
    let ctl = Arc::new(RegimeController::new(1, 2, t).unwrap());

    let app = TrackerApp::build(&cfg, Some(Arc::clone(&ctl)));
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let ctl = Arc::clone(&ctl);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut n = 0u64;
            while !stop.load(Ordering::SeqCst) {
                // Alternate two decomps for the active regime: frames pick
                // up whichever epoch is current when their splitter reads.
                let (fp, mp) = if n.is_multiple_of(2) { (2, 1) } else { (1, 2) };
                ctl.install_regime(1, fp, mp);
                n += 1;
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            n
        })
    };

    let stats = OnlineExecutor::run(&app, 0);
    stop.store(true, Ordering::SeqCst);
    let installs = writer.join().expect("writer thread");

    assert_eq!(
        stats.frames_completed, n_frames,
        "pipeline survives mid-run swaps"
    );
    let locs = app.face.locations();
    assert_eq!(locs.len() as u64, n_frames, "no frame lost to a swap");
    assert!(app.health.report().is_clean(), "swaps are not faults");
    assert_eq!(ctl.swaps(), installs, "ledger equals the writer's count");
    // Whatever epoch is final, it is one the writer published.
    let (fp, mp) = ctl.current_decomp();
    assert!(
        (fp, mp) == (2, 1) || (fp, mp) == (1, 2),
        "final decomp is a published one"
    );
}
