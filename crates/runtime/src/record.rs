//! Record a live tracker run's nondeterminism and replay it
//! deterministically through the real pipeline.
//!
//! [`record_run`] executes a configuration with a [`RecordTap`] attached to
//! every stage: the digitized frames, every skip the degradation ladder
//! settled, every sink commit (with a content hash over its model
//! locations), and the regime controller's confirmed switches are captured
//! into a [`Recording`].
//!
//! [`replay_run`] re-drives the *same* task bodies and STM channels from
//! that recording: the digitizer plays the recorded pixels back unpaced
//! (virtual time), recorded digitizer skips are re-marked at the source,
//! and recorded downstream skips are re-injected as planned STM faults at
//! their exact `(stage, frame)` coordinates. Injected faults fire only on
//! successful gets, so skips that were *cascades* of an upstream skip
//! reproduce naturally through the channel's skip marks instead — which is
//! why re-injecting the complete recorded skip set is safe. Everything
//! between those pinned points is pure computation over STM inputs, so the
//! replay commits bit-identically — verified per frame against the
//! recorded location hashes.

use std::sync::Arc;
use std::time::Duration;

use obs::{SpanDump, SpanKind, TraceMode};
use replay::{Header, RecordTap, Recording, ReplaySource};
use vision::BackendKind;

use crate::app::{TrackerApp, TrackerConfig};
use crate::error::Stage;
use crate::exec_online::OnlineExecutor;
use crate::faults::FaultPlan;
use crate::measure::RunStats;
use crate::regime_rt::RegimeController;

/// The replay-format header describing `cfg` (the knobs a replay needs to
/// rebuild the pipeline shape).
#[must_use]
fn header_for(cfg: &TrackerConfig) -> Header {
    Header {
        seed: cfg.seed,
        width: cfg.width as u32,
        height: cfg.height as u32,
        n_targets: cfg.n_targets as u32,
        n_frames: cfg.n_frames,
        period_ns: u64::try_from(cfg.period.as_nanos()).unwrap_or(u64::MAX),
        channel_capacity: cfg.channel_capacity as u32,
        decomp: cfg.decomposition,
        min_score_bits: cfg.min_score.to_bits(),
        pool_workers: cfg.pool_workers as u32,
    }
}

/// Confirmed regime switches in a drained span dump, as
/// `(observation ordinal, packed (FP << 16) | MP)` rows. Clamp markers
/// (payload-free Switch instants) are excluded.
#[must_use]
fn switches_of(dump: &SpanDump) -> Vec<(u64, u32)> {
    dump.spans
        .iter()
        .filter(|s| s.kind == SpanKind::Switch)
        .filter_map(|s| {
            s.chunk
                .map(|(fp, mp)| (s.frame, (u32::from(fp) << 16) | u32::from(mp)))
        })
        .collect()
}

/// A completed recording run: the portable [`Recording`], the run's
/// wall-clock statistics, and the drained span dump (for live-vs-replay
/// trace diffing).
pub struct RecordedRun {
    /// The recorded nondeterminism, ready to serialize or replay.
    pub recording: Recording,
    /// Wall-clock statistics of the live run.
    pub stats: RunStats,
    /// The live run's full span dump.
    pub dump: SpanDump,
}

/// Run `cfg` live with a record tap on every stage and return the
/// [`Recording`]. Tracing is forced to [`TraceMode::Full`] (regime
/// switches are extracted from the span dump); any `cfg.record`/
/// `cfg.source` already set are replaced.
#[must_use]
pub fn record_run(cfg: &TrackerConfig, controller: Option<Arc<RegimeController>>) -> RecordedRun {
    let scene = vision::Scene::demo(cfg.width, cfg.height, cfg.n_targets, cfg.seed);
    record_run_with_scene(cfg, scene, controller)
}

/// [`record_run`] with an explicit scene (e.g. one whose population changes
/// over time, so a regime controller has something to switch on). A replay
/// never renders — it plays the recorded pixels back — but it *does*
/// rebuild the scene's enrolled target models (which feed detection) from
/// the header, so the scene passed here must share `cfg.seed`,
/// `cfg.n_targets`, and the frame dimensions; only the visit timeline may
/// differ from the default demo scene.
#[must_use]
pub fn record_run_with_scene(
    cfg: &TrackerConfig,
    scene: vision::Scene,
    controller: Option<Arc<RegimeController>>,
) -> RecordedRun {
    let mut cfg = cfg.clone();
    let tap = Arc::new(RecordTap::new());
    cfg.record = Some(Arc::clone(&tap));
    cfg.source = None;
    cfg.trace = Some(TraceMode::Full);
    let app = TrackerApp::build_with_scene(&cfg, scene, controller);
    let stats = OnlineExecutor::run(&app, 0);
    let dump = app
        .recorder
        .as_ref()
        // INVARIANT: cfg.trace was set to Full a few lines up, so the app
        // always builds a recorder.
        .expect("record_run attaches a recorder")
        .drain();
    let recording = tap.into_recording(header_for(&cfg), switches_of(&dump));
    RecordedRun {
        recording,
        stats,
        dump,
    }
}

/// The configuration a replay of `rec` runs under: same pipeline shape as
/// the recorded run, but unpaced (zero period — the source pins frame
/// identity, so wall time is irrelevant) and with the recorded downstream
/// skips re-injected as planned STM faults.
#[must_use]
pub fn replay_config(rec: &Recording) -> TrackerConfig {
    let h = &rec.header;
    let digitizer = Stage::Digitizer.index();
    let mut plan = FaultPlan::new();
    let mut any = false;
    for &(stage_idx, ts) in &rec.skips {
        if stage_idx == digitizer {
            continue; // the source replays its own skips
        }
        if let Some(&stage) = Stage::ALL.get(stage_idx as usize) {
            plan = plan.stm_error(stage, ts);
            any = true;
        }
    }
    TrackerConfig {
        width: h.width as usize,
        height: h.height as usize,
        n_targets: h.n_targets as usize,
        seed: h.seed,
        n_frames: h.n_frames,
        period: Duration::ZERO,
        channel_capacity: h.channel_capacity as usize,
        decomposition: h.decomp,
        pool_workers: h.pool_workers as usize,
        recycle_buffers: true,
        min_score: f32::from_bits(h.min_score_bits),
        digitizer_dies_after: None,
        frame_deadline: None,
        faults: any.then(|| plan.build()),
        trace: Some(TraceMode::Full),
        backend: BackendKind::Simd,
        record: None,
        source: Some(Arc::new(ReplaySource::new(rec, digitizer))),
    }
}

/// A completed replay: its re-recording (byte-comparable against another
/// replay of the same recording), statistics, span dump, and the commit
/// verdict against the recording replayed from.
pub struct ReplayOutcome {
    /// What the replay re-recorded through its own tap. Two replays of one
    /// recording produce byte-identical re-recordings (`to_bytes`) — the
    /// determinism witness.
    pub recording: Recording,
    /// Wall-clock statistics of the replay run.
    pub stats: RunStats,
    /// The replay run's full span dump.
    pub dump: SpanDump,
    /// Whether the replay's commit column (frame, count, location hash)
    /// exactly equals the recorded one — bit-identical sink output.
    pub commits_match: bool,
    /// Frames whose commit row differs (or exists on only one side).
    pub mismatched_frames: Vec<u64>,
}

/// Replay `rec` through the real pipeline and verify its commits against
/// the recording. A fresh `controller` (same table as the recorded run)
/// re-derives the regime decisions from the replayed observation sequence.
#[must_use]
pub fn replay_run(rec: &Recording, controller: Option<Arc<RegimeController>>) -> ReplayOutcome {
    let mut cfg = replay_config(rec);
    let tap = Arc::new(RecordTap::new());
    cfg.record = Some(Arc::clone(&tap));
    let app = TrackerApp::build(&cfg, controller);
    let stats = OnlineExecutor::run(&app, 0);
    let dump = app
        .recorder
        .as_ref()
        // INVARIANT: replay_config sets trace to Full, so the app always
        // builds a recorder.
        .expect("replay_config turns tracing on")
        .drain();
    // Re-record under the *original* header: a re-recording replays (and
    // byte-compares) exactly like its ancestor.
    let recording = tap.into_recording(rec.header, switches_of(&dump));
    let mismatched_frames = commit_diff(&rec.commits, &recording.commits);
    ReplayOutcome {
        commits_match: mismatched_frames.is_empty(),
        recording,
        stats,
        dump,
        mismatched_frames,
    }
}

/// Frames whose `(ts, count, hash)` commit row is not present identically
/// on both sides (both inputs sorted by construction).
fn commit_diff(a: &[(u64, u32, u64)], b: &[(u64, u32, u64)]) -> Vec<u64> {
    let mut out: Vec<u64> = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                out.push(a[i].0);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j].0);
                j += 1;
            }
        }
    }
    out.extend(a[i..].iter().map(|r| r.0));
    out.extend(b[j..].iter().map(|r| r.0));
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_then_replay_commits_bit_identically() {
        let cfg = TrackerConfig::small(2, 8);
        let rec = record_run(&cfg, None);
        assert_eq!(
            rec.recording.commits.len(),
            8,
            "clean run commits every frame"
        );
        assert_eq!(rec.recording.frames.len(), 8);

        let outcome = replay_run(&rec.recording, None);
        assert!(
            outcome.commits_match,
            "mismatched frames: {:?}",
            outcome.mismatched_frames
        );
        assert_eq!(outcome.stats.frames_completed, 8);
    }

    #[test]
    fn replay_twice_is_byte_identical() {
        let cfg = TrackerConfig::small(2, 6);
        let rec = record_run(&cfg, None);
        let a = replay_run(&rec.recording, None);
        let b = replay_run(&rec.recording, None);
        assert!(a.commits_match && b.commits_match);
        assert_eq!(
            a.recording.to_bytes(),
            b.recording.to_bytes(),
            "two replays must re-record identically"
        );
        let names = Stage::names();
        assert_eq!(
            a.recording.canonical_trace_json(&names),
            b.recording.canonical_trace_json(&names)
        );
    }

    #[test]
    fn recorded_faults_replay_as_the_same_skips() {
        let mut cfg = TrackerConfig::small(2, 8);
        cfg.faults = Some(
            FaultPlan::new()
                .stm_error(Stage::Histogram, 2)
                .stm_error(Stage::Peak, 5)
                .build(),
        );
        let rec = record_run(&cfg, None);
        // Frame 2 skipped at histogram (cascading downstream), frame 5 at
        // peak: neither commits.
        let committed: Vec<u64> = rec.recording.commits.iter().map(|c| c.0).collect();
        assert!(!committed.contains(&2) && !committed.contains(&5));
        assert!(rec.recording.skips.contains(&(Stage::Histogram.index(), 2)));

        let outcome = replay_run(&rec.recording, None);
        assert!(
            outcome.commits_match,
            "mismatched frames: {:?}",
            outcome.mismatched_frames
        );
        // The replay reproduces the recorded skip set exactly.
        assert_eq!(outcome.recording.skips, rec.recording.skips);
    }

    #[test]
    fn regime_switches_replay_identically() {
        use std::collections::BTreeMap;

        let mut cfg = TrackerConfig::small(3, 16);
        cfg.pool_workers = 2;
        // The replay rebuilds its scene (whose enrolled models feed target
        // detection) from the header seed, so the recorded scene must use
        // that same seed; only the visit timeline may differ.
        cfg.seed = 13;
        // Population jumps from 1 to 3 at frame 6; ≤1 person splits the
        // frame, ≥2 splits by models.
        let scene = vision::Scene::demo(cfg.width, cfg.height, 3, cfg.seed)
            .with_visit(0, 0, u64::MAX)
            .with_visit(1, 6, u64::MAX)
            .with_visit(2, 6, u64::MAX);
        let mut table = BTreeMap::new();
        table.insert(0, (2, 1));
        table.insert(2, (1, 3));
        let controller = Arc::new(RegimeController::new(1, 2, table.clone()).unwrap());
        let rec = record_run_with_scene(&cfg, scene, Some(controller));
        assert!(
            !rec.recording.switches.is_empty(),
            "population change must confirm a switch"
        );

        // A *fresh* controller over the same table re-derives the same
        // switch sequence from the replayed observations.
        let replay_ctl = Arc::new(RegimeController::new(1, 2, table).unwrap());
        let outcome = replay_run(&rec.recording, Some(replay_ctl));
        assert!(
            outcome.commits_match,
            "mismatched frames: {:?}",
            outcome.mismatched_frames
        );
        assert_eq!(outcome.recording.switches, rec.recording.switches);
    }

    #[test]
    fn recording_round_trips_through_the_file_format() {
        let cfg = TrackerConfig::small(1, 4);
        let rec = record_run(&cfg, None).recording;
        let bytes = rec.to_bytes();
        let back = Recording::from_bytes(&bytes).expect("wire format round-trips");
        assert_eq!(back, rec);
        let outcome = replay_run(&back, None);
        assert!(outcome.commits_match);
    }
}
