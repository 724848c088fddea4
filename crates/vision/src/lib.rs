//! # Synthetic Smart Kiosk vision pipeline
//!
//! The paper's driving application is the CRL Smart Kiosk color tracker
//! (Fig. 2), fed by live NTSC video of kiosk customers. Neither the camera
//! nor the customers are available here, so this crate substitutes the
//! closest synthetic equivalent that exercises the same code paths:
//!
//! * [`synth`] renders frames of a textured scene with colored moving
//!   targets ("people" in distinctly colored clothing, per Rehg et al.'s
//!   tracker) plus sensor noise, all deterministically seeded;
//! * [`kiosk`] generates customer arrival/departure processes (Poisson
//!   arrivals, exponential dwell), producing the regime dynamics of §2.1 —
//!   "this number will typically be from one to five and will change
//!   infrequently relative to the processing rate";
//! * the five tracker stages are real compute kernels with the paper's cost
//!   structure: [`histogram`] (T2) and [`change`] (T3) are independent of
//!   the number of targets; [`detect`] (T4, Swain–Ballard color-histogram
//!   back projection + box filtering) and [`peak`] (T5) are linear in the
//!   number of models with very different constants;
//! * T4 is decomposable exactly as in Table 1: by frame regions (FP), by
//!   model subsets (MP), or both; and
//! * [`calibrate`] measures the kernels on the host to produce a
//!   [`taskgraph`] cost model matching this machine.
//!
//! ```
//! use vision::{synth::Scene, tracker::Tracker};
//!
//! let scene = Scene::demo(160, 120, 2, 42);
//! let mut tracker = Tracker::new(&scene.models(), 160, 120);
//! let frame = scene.render(5);
//! let locs = tracker.process(&frame);
//! assert_eq!(locs.len(), 2);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod backend;
pub mod calibrate;
pub mod change;
pub mod color;
pub mod detect;
pub mod frame;
pub mod histogram;
pub mod kiosk;
pub mod peak;
pub(crate) mod simd;
pub mod synth;
pub mod tracker;

pub use backend::{active, BackendKind, ComputeBackend};
pub use change::{change_detection, change_detection_into, change_detection_scalar};
pub use color::ColorHist;
pub use detect::{
    detect_chunks, merge_partials, target_detection, target_detection_chunk,
    target_detection_chunk_scalar, DetectChunk, PartialScores, ScoreMap,
};
pub use frame::{BitMask, Frame, Region};
pub use histogram::{image_histogram, image_histogram_scalar};
pub use kiosk::{occupancy_track, KioskConfig, Visit};
pub use peak::{peak_detection, ModelLocation};
pub use synth::{Scene, TargetSpec};
pub use tracker::Tracker;
