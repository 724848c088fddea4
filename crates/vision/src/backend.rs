//! Runtime-dispatched compute backends for the vision hot kernels.
//!
//! The tracker's per-frame kernels (T1 render, T2 histogram, T3 change
//! detection) each have two implementation tiers behind one
//! [`ComputeBackend`] trait:
//!
//! * [`BackendKind::Scalar`] — the in-tree pixel-at-a-time oracles, kept as
//!   the bit-identity gate for everything wider;
//! * [`BackendKind::Simd`] — explicit `std::arch` SIMD (SSE2/SSSE3/AVX2 on
//!   x86_64 selected with `is_x86_feature_detected!`, NEON on aarch64),
//!   falling back per kernel to the u32/u64 word-load kernels
//!   ([`change_detection_into`], [`ColorHist::of_region`]) where the host
//!   or the input doesn't qualify, and rendering with
//!   [`Scene::render_into_fast`].
//!
//! Both produce **bit-identical** output (integer histogram counts in any
//! order, exact mask bits, an unchanged RNG draw order for the renderer),
//! so the choice is purely a speed decision. [`active`] is the `Simd` tier;
//! `TrackerConfig::backend` picks a tier per app.

use crate::change::{change_detection_into, change_detection_scalar};
use crate::color::ColorHist;
use crate::frame::{BitMask, Frame, Region};
use crate::synth::Scene;

/// Which kernel implementation tier to run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum BackendKind {
    /// Pixel-at-a-time reference kernels (the oracles).
    Scalar,
    /// Explicit wide SIMD with runtime feature detection.
    Simd,
}

impl BackendKind {
    /// Every tier, oracle first.
    pub const ALL: [BackendKind; 2] = [BackendKind::Scalar, BackendKind::Simd];

    /// Stable lower-case name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Scalar => "scalar",
            BackendKind::Simd => "simd",
        }
    }

    /// The backend implementation for this tier.
    #[must_use]
    pub fn get(self) -> &'static dyn ComputeBackend {
        static SCALAR: Scalar = Scalar;
        static SIMD: Simd = Simd;
        match self {
            BackendKind::Scalar => &SCALAR,
            BackendKind::Simd => &SIMD,
        }
    }
}

/// The default backend: the `Simd` tier (which itself degrades to the word
/// kernels wherever the host lacks the features).
#[must_use]
pub fn active() -> &'static dyn ComputeBackend {
    BackendKind::Simd.get()
}

/// One implementation tier of the tracker's per-frame kernels. All
/// implementations are bit-identical; see the module docs.
pub trait ComputeBackend: Send + Sync {
    /// Which tier this is.
    fn kind(&self) -> BackendKind;

    /// The instruction features this backend will actually use on this
    /// host (e.g. `"sse2+ssse3+avx2"`); `"portable"` for the scalar tier.
    fn features(&self) -> String {
        String::from("portable")
    }

    /// T2 on a frame region.
    fn region_histogram(&self, frame: &Frame, region: Region) -> ColorHist;

    /// T2 on a whole frame.
    fn image_histogram(&self, frame: &Frame) -> ColorHist {
        self.region_histogram(frame, frame.region())
    }

    /// T3 into a caller-provided mask buffer (every bit overwritten; final-
    /// word padding clear, or set on the `prev = None` search-everywhere
    /// path — identical across tiers so recycled masks compare equal).
    fn change_detection_into(
        &self,
        frame: &Frame,
        prev: Option<&Frame>,
        threshold: u16,
        out: &mut BitMask,
    );

    /// T3 into a fresh mask.
    fn change_detection(&self, frame: &Frame, prev: Option<&Frame>, threshold: u16) -> BitMask {
        let mut mask = BitMask::new(frame.width, frame.height);
        self.change_detection_into(frame, prev, threshold, &mut mask);
        mask
    }

    /// T1 — render `frame` of `scene` into a (possibly recycled) buffer.
    fn render_into(&self, scene: &Scene, frame: u64, out: &mut Frame);
}

/// The pixel-at-a-time oracle tier.
struct Scalar;

impl ComputeBackend for Scalar {
    fn kind(&self) -> BackendKind {
        BackendKind::Scalar
    }

    fn region_histogram(&self, frame: &Frame, region: Region) -> ColorHist {
        ColorHist::of_region_scalar(frame, region)
    }

    fn change_detection_into(
        &self,
        frame: &Frame,
        prev: Option<&Frame>,
        threshold: u16,
        out: &mut BitMask,
    ) {
        assert_eq!(
            (frame.width, frame.height),
            (out.width, out.height),
            "mask size must match frame"
        );
        *out = change_detection_scalar(frame, prev, threshold);
    }

    fn render_into(&self, scene: &Scene, frame: u64, out: &mut Frame) {
        scene.render_into(frame, out);
    }
}

/// The explicit-SIMD tier with per-kernel runtime dispatch.
struct Simd;

/// Arch-resolved SIMD change-detection entry (`thr < 255`, sizes already
/// checked, `prev` present); the no-SIMD arch falls back to the word
/// kernel.
#[cfg(target_arch = "x86_64")]
fn simd_change(frame: &Frame, prev: &Frame, thr: u8, out: &mut BitMask) {
    crate::simd::x86::change_detection_into(frame, prev, thr, out);
}

#[cfg(target_arch = "aarch64")]
fn simd_change(frame: &Frame, prev: &Frame, thr: u8, out: &mut BitMask) {
    crate::simd::neon::change_detection_into(frame, prev, thr, out);
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
fn simd_change(frame: &Frame, prev: &Frame, thr: u8, out: &mut BitMask) {
    change_detection_into(frame, Some(prev), u16::from(thr), out);
}

/// Arch-resolved SIMD region histogram; `None` means "no qualifying SIMD
/// path on this host" and the caller uses the word kernel.
#[cfg(target_arch = "x86_64")]
fn simd_region_histogram(frame: &Frame, region: Region) -> Option<ColorHist> {
    crate::simd::x86::region_histogram(frame, region)
}

#[cfg(not(target_arch = "x86_64"))]
fn simd_region_histogram(_frame: &Frame, _region: Region) -> Option<ColorHist> {
    None
}

#[cfg(target_arch = "x86_64")]
fn simd_features() -> String {
    crate::simd::x86::feature_string()
}

#[cfg(target_arch = "aarch64")]
fn simd_features() -> String {
    String::from("neon")
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
fn simd_features() -> String {
    String::from("portable (no simd path for this arch)")
}

impl ComputeBackend for Simd {
    fn kind(&self) -> BackendKind {
        BackendKind::Simd
    }

    fn features(&self) -> String {
        simd_features()
    }

    fn region_histogram(&self, frame: &Frame, region: Region) -> ColorHist {
        match simd_region_histogram(frame, region) {
            Some(h) => h,
            // No SSSE3 (or no port for this arch): the word kernel is the
            // fastest correct path.
            None => ColorHist::of_region(frame, region),
        }
    }

    fn change_detection_into(
        &self,
        frame: &Frame,
        prev: Option<&Frame>,
        threshold: u16,
        out: &mut BitMask,
    ) {
        assert_eq!(
            (frame.width, frame.height),
            (out.width, out.height),
            "mask size must match frame"
        );
        let Some(prev) = prev else {
            out.fill_all();
            return;
        };
        assert_eq!(
            (frame.width, frame.height),
            (prev.width, prev.height),
            "frame sizes must match"
        );
        // The SIMD sum saturates at 255; min(D, 255) > T is exact only for
        // T ≤ 254, so larger thresholds take the word path.
        if threshold >= 255 {
            change_detection_into(frame, Some(prev), threshold, out);
        } else {
            simd_change(frame, prev, threshold as u8, out);
        }
    }

    fn render_into(&self, scene: &Scene, frame: u64, out: &mut Frame) {
        // T1 is RNG-serial (every channel consumes one sequential draw), so
        // the row-sliced fast path is the widest bit-identical form.
        scene.render_into_fast(frame, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn textured(w: usize, h: usize) -> Frame {
        let mut f = Frame::new(w, h);
        for y in 0..h {
            for x in 0..w {
                f.set_pixel(x, y, [(x * 11) as u8, (y * 15) as u8, ((x + y) * 7) as u8]);
            }
        }
        f
    }

    #[test]
    fn kinds_round_trip_names() {
        for k in BackendKind::ALL {
            assert_eq!(k.get().kind(), k);
        }
    }

    #[test]
    fn every_backend_matches_the_scalar_oracle() {
        let (w, h) = (37, 29);
        let cur = textured(w, h);
        let mut prev = textured(w, h);
        prev.set_pixel(5, 7, [250, 250, 250]);
        prev.set_pixel(36, 28, [0, 128, 0]);
        let scalar = BackendKind::Scalar.get();
        let simd = BackendKind::Simd.get();
        let want = scalar.image_histogram(&cur);
        assert_eq!(simd.image_histogram(&cur), want, "simd histogram");
        assert_eq!(
            ColorHist::of_region(&cur, cur.region()),
            want,
            "word histogram"
        );
        // Thresholds straddling the SIMD saturation boundary, the
        // no-previous-frame path, and a dirty recycled mask.
        for thr in [0u16, 24, 254, 255, 400] {
            let mut slow = BitMask::all_set(w, h);
            scalar.change_detection_into(&cur, Some(&prev), thr, &mut slow);
            let mut fast = BitMask::all_set(w, h);
            simd.change_detection_into(&cur, Some(&prev), thr, &mut fast);
            assert_eq!(fast, slow, "simd change thr {thr}");
            let mut word = BitMask::all_set(w, h);
            change_detection_into(&cur, Some(&prev), thr, &mut word);
            assert_eq!(word, slow, "word change thr {thr}");
        }
        assert_eq!(
            simd.change_detection(&cur, None, 24),
            scalar.change_detection(&cur, None, 24),
            "simd no-prev"
        );
        let scene = Scene::demo(w, h, 2, 11);
        let mut fast = Frame::new(w, h);
        let mut slow = Frame::new(w, h);
        simd.render_into(&scene, 6, &mut fast);
        scalar.render_into(&scene, 6, &mut slow);
        assert_eq!(fast, slow, "simd render");
    }

    #[test]
    fn active_backend_resolves() {
        let b = active();
        assert_eq!(b.kind(), BackendKind::Simd);
        assert!(!b.features().is_empty());
    }
}
