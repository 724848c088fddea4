//! Kernel calibration: measure the real tracker stages on the host and
//! produce a [`taskgraph::TaskGraph`] whose cost models describe *this*
//! machine — "execution times for each operation including its data
//! parallel variants" (Fig. 6) obtained by measurement rather than
//! assumption.

use std::time::Instant;

use taskgraph::{CostModel, DataParallelSpec, Micros, SizeModel, TaskGraph, TaskGraphBuilder};

use crate::change::{change_detection, DEFAULT_THRESHOLD};
use crate::color::ColorHist;
use crate::detect::target_detection;
use crate::detect::{detect_chunks, target_detection_chunk, DetectChunk, ScoreMap};
use crate::frame::{BitMask, Frame};
use crate::histogram::image_histogram;
use crate::peak::peak_detection;
use crate::synth::Scene;

/// Measured serial kernel times for one model count.
#[derive(Clone, Copy, Debug)]
pub struct KernelTimes {
    /// Model count measured.
    pub n_models: u32,
    /// T1: frame synthesis (digitizer stand-in).
    pub digitize: Micros,
    /// T2: image histogram.
    pub histogram: Micros,
    /// T3: change detection.
    pub change: Micros,
    /// T4: serial target detection.
    pub detect: Micros,
    /// T5: peak detection.
    pub peak: Micros,
    /// A single chunk of T4 at FP=4, MP=1 (for overhead estimation).
    pub detect_chunk_fp4: Micros,
}

/// The time of one run, at least a microsecond.
fn time_once<R>(f: impl FnOnce() -> R) -> Micros {
    let start = Instant::now();
    std::hint::black_box(f());
    Micros((start.elapsed().as_micros() as u64).max(1))
}

/// What the kernels of one model count run on.
struct Inputs {
    scene: Scene,
    models: Vec<ColorHist>,
    prev: Frame,
    frame: Frame,
    hist: ColorHist,
    mask: BitMask,
    scores: Vec<ScoreMap>,
    chunk: DetectChunk,
}

impl Inputs {
    fn new(width: usize, height: usize, n: u32) -> Inputs {
        let scene = Scene::demo(width, height, n.max(1) as usize, 0xCA11B);
        let models = scene.models()[..n as usize].to_vec();
        let prev = scene.render(0);
        let frame = scene.render(1);
        let hist = image_histogram(&frame);
        // T4 costs what its mask selects, so it is timed against the mask
        // the pipeline would hand it, not an all-set one.
        let mask = change_detection(&frame, Some(&prev), u16::from(DEFAULT_THRESHOLD));
        let scores = target_detection(&frame, &hist, &models, &mask);
        let chunk = detect_chunks(width, height, n as usize, 4, 1)[0];
        Inputs {
            scene,
            models,
            prev,
            frame,
            hist,
            mask,
            scores,
            chunk,
        }
    }

    /// Time every kernel once, keeping the fastest run in `t`.
    fn time_into(&self, t: &mut KernelTimes) {
        let keep = |slot: &mut Micros, m: Micros| *slot = (*slot).min(m);
        let (frame, hist, mask) = (&self.frame, &self.hist, &self.mask);
        let threshold = u16::from(DEFAULT_THRESHOLD);
        keep(&mut t.digitize, time_once(|| self.scene.render(2)));
        keep(&mut t.histogram, time_once(|| image_histogram(frame)));
        keep(
            &mut t.change,
            time_once(|| change_detection(frame, Some(&self.prev), threshold)),
        );
        if self.models.is_empty() {
            t.detect = Micros(1);
            t.detect_chunk_fp4 = Micros(1);
        } else {
            let models = &self.models;
            keep(
                &mut t.detect,
                time_once(|| target_detection(frame, hist, models, mask)),
            );
            keep(
                &mut t.detect_chunk_fp4,
                time_once(|| target_detection_chunk(frame, hist, models, mask, self.chunk)),
            );
        }
        keep(&mut t.peak, time_once(|| peak_detection(&self.scores, 1.0)));
    }
}

/// Measure every kernel at each model count in `model_counts`: the fastest
/// of `reps` runs each. Interference from the rest of the host only ever
/// adds time, so the minimum is the estimate least disturbed by it — and
/// kernels that take tens of microseconds are disturbed easily. The model
/// counts are compared with each other, so their repetitions are
/// interleaved: a slow spell of the host lands on every count alike.
#[must_use]
pub fn measure_kernels(
    width: usize,
    height: usize,
    model_counts: &[u32],
    reps: u32,
) -> Vec<KernelTimes> {
    assert!(reps >= 1);
    let inputs: Vec<Inputs> = model_counts
        .iter()
        .map(|&n| Inputs::new(width, height, n))
        .collect();
    let slowest = Micros(u64::MAX);
    let mut times: Vec<KernelTimes> = model_counts
        .iter()
        .map(|&n_models| KernelTimes {
            n_models,
            digitize: slowest,
            histogram: slowest,
            change: slowest,
            detect: slowest,
            peak: slowest,
            detect_chunk_fp4: slowest,
        })
        .collect();
    for _ in 0..reps {
        for (t, input) in times.iter_mut().zip(&inputs) {
            input.time_into(t);
        }
    }
    times
}

/// Build a task graph with measured cost tables, structurally identical to
/// [`taskgraph::builders::color_tracker`] but carrying this machine's
/// timings. The T4 per-chunk overheads are estimated from the FP=4 chunk
/// measurement: `overhead ≈ chunk_time − serial/4`.
#[must_use]
pub fn calibrated_tracker(width: usize, height: usize, times: &[KernelTimes]) -> TaskGraph {
    assert!(!times.is_empty(), "need at least one measurement");
    let table = |f: &dyn Fn(&KernelTimes) -> Micros| -> CostModel {
        CostModel::Table(times.iter().map(|t| (t.n_models, f(t))).collect())
    };
    // Overhead estimate from the largest measured state.
    let biggest = times.iter().max_by_key(|t| t.n_models).unwrap();
    let per_chunk_overhead = biggest
        .detect_chunk_fp4
        .saturating_sub(biggest.detect / 4)
        .max(Micros(1));
    let per_model_overhead =
        Micros(per_chunk_overhead.0 / u64::from(biggest.n_models.max(1))).max(Micros(1));

    let mut b = TaskGraphBuilder::new();
    let frame_bytes = (width * height * 3) as u64;
    let frame = b.channel("Frame", SizeModel::Const(frame_bytes));
    let color_model = b.channel("Color Model", SizeModel::Const(4 * 4096));
    let motion_mask = b.channel("Motion Mask", SizeModel::Const((width * height / 8) as u64));
    let back_proj = b.channel(
        "Back Projections",
        SizeModel::PerModel {
            base: 0,
            per_model: (width * height * 4) as u64,
        },
    );
    let locations = b.channel(
        "Model Locations",
        SizeModel::PerModel {
            base: 16,
            per_model: 24,
        },
    );

    let t1 = b.task("Digitizer", table(&|t| t.digitize));
    let t2 = b.task("Histogram", table(&|t| t.histogram));
    let t3 = b.task("Change Detection", table(&|t| t.change));
    let t4 = b.dp_task(
        "Target Detection",
        table(&|t| t.detect),
        DataParallelSpec::new(vec![1, 2, 4], vec![1, 2, 4, 8], per_chunk_overhead)
            .with_model_overhead(per_model_overhead),
    );
    let t5 = b.task("Peak Detection", table(&|t| t.peak));
    let face = b.task("DECface Update", CostModel::Const(Micros(100)));

    b.produces(t1, frame);
    b.consumes(t2, frame);
    b.consumes(t3, frame);
    b.consumes(t4, frame);
    b.produces(t2, color_model);
    b.consumes(t4, color_model);
    b.produces(t3, motion_mask);
    b.consumes(t4, motion_mask);
    b.produces(t4, back_proj);
    b.consumes(t5, back_proj);
    b.produces(t5, locations);
    b.consumes(face, locations);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskgraph::AppState;

    #[test]
    fn measurement_produces_positive_times() {
        // Fastest of 5, for the same load-tolerance reason as the
        // state-dependence test below.
        let times = measure_kernels(64, 48, &[1, 2], 5);
        assert_eq!(times.len(), 2);
        for t in &times {
            assert!(t.histogram.0 >= 1);
            assert!(t.detect.0 >= 1);
            assert!(t.peak.0 >= 1);
        }
        // Detection cost grows with model count.
        assert!(times[1].detect >= times[0].detect);
    }

    #[test]
    fn calibrated_graph_is_valid_and_state_dependent() {
        // Fastest of 5: T4 takes tens of microseconds at this size, and a
        // single rep (or a mean that includes one preempted rep) lets the
        // 1-model measurement out-measure the 4-model one when the whole
        // workspace suite shares the host.
        let times = measure_kernels(64, 48, &[1, 4], 5);
        let g = calibrated_tracker(64, 48, &times);
        g.validate().unwrap();
        let t4 = g.task(g.task_by_name("Target Detection").unwrap());
        assert!(t4.cost.eval(&AppState::new(4)) >= t4.cost.eval(&AppState::new(1)));
        assert!(t4.dp.is_some());
    }
}
