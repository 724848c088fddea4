//! Property tests for the compute-backend contract: every tier — the
//! portable word kernels and whatever SIMD paths the host dispatches to —
//! is **bit-identical** to the in-tree scalar oracles over randomized
//! shapes, including widths below one SIMD lane, ragged tails, offset
//! sub-regions, thresholds straddling the u8 saturation boundary, and the
//! no-previous-frame path. Speed is the only permitted difference between
//! tiers; this file is where that claim is enforced.

use proptest::prelude::*;
use vision::{BackendKind, BitMask, Frame, Region, Scene};

/// A deterministic pseudo-random frame: xorshift-mixed bytes so SIMD
/// lanes see dense, uncorrelated patterns (gradients would never exercise
/// carry/saturation edge cases).
fn noise_frame(w: usize, h: usize, mut seed: u64) -> Frame {
    let mut f = Frame::new(w, h);
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        (seed >> 24) as u8
    };
    for y in 0..h {
        for x in 0..w {
            f.set_pixel(x, y, [next(), next(), next()]);
        }
    }
    f
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Change detection: every backend, every shape, every threshold —
    /// same mask bits as the scalar oracle, written into a dirty recycled
    /// buffer.
    #[test]
    fn change_detection_matches_scalar_everywhere(
        w in 1usize..70,
        h in 1usize..12,
        thr in prop_oneof![0u16..300, Just(254u16), Just(255u16)],
        seed in 0u64..1_000_000,
    ) {
        let cur = noise_frame(w, h, seed.wrapping_mul(2) + 1);
        let prev = noise_frame(w, h, seed.wrapping_mul(3) + 2);
        let scalar = BackendKind::Scalar.get();
        let mut want = BitMask::all_set(w, h);
        scalar.change_detection_into(&cur, Some(&prev), thr, &mut want);
        for kind in [BackendKind::Word, BackendKind::Simd] {
            let mut got = BitMask::all_set(w, h);
            kind.get().change_detection_into(&cur, Some(&prev), thr, &mut got);
            prop_assert_eq!(&got, &want, "{:?} w={} h={} thr={}", kind, w, h, thr);
            // First frame (no previous): everything is change, exactly.
            let no_prev = kind.get().change_detection(&cur, None, thr);
            prop_assert_eq!(&no_prev, &BitMask::all_set(w, h), "{:?} no-prev", kind);
        }
    }

    /// Region histograms: random sub-regions — including sub-lane widths
    /// and misaligned x offsets — bin for bin equal across backends, and
    /// whole-image histograms equal the whole-image oracle.
    #[test]
    fn histograms_match_scalar_over_random_regions(
        w in 1usize..64,
        h in 1usize..16,
        x0 in 0usize..40,
        y0 in 0usize..10,
        seed in 0u64..1_000_000,
    ) {
        let frame = noise_frame(w, h, seed + 7);
        let x0 = x0.min(w - 1);
        let y0 = y0.min(h - 1);
        let region = Region { x0, y0, x1: w, y1: h };
        let scalar = BackendKind::Scalar.get();
        let want_region = scalar.region_histogram(&frame, region);
        let want_image = scalar.image_histogram(&frame);
        for kind in [BackendKind::Word, BackendKind::Simd] {
            let b = kind.get();
            prop_assert_eq!(
                &b.region_histogram(&frame, region), &want_region,
                "{:?} region {:?}", kind, region
            );
            prop_assert_eq!(&b.image_histogram(&frame), &want_image, "{:?} image", kind);
        }
    }

    /// The digitizer kernel: the row-sliced fast renderer draws the exact
    /// same RNG stream as the oracle for any scene/frame, so recycled
    /// buffers hold bit-identical pixels.
    #[test]
    fn render_matches_scalar_for_random_scenes(
        w in 32usize..72,
        h in 24usize..48,
        targets in 0usize..4,
        frame_no in 0u64..20,
        seed in 0u64..1_000_000,
    ) {
        let scene = Scene::demo(w, h, targets.max(1), seed);
        let scalar = BackendKind::Scalar.get();
        let mut want = Frame::new(w, h);
        scalar.render_into(&scene, frame_no, &mut want);
        for kind in [BackendKind::Word, BackendKind::Simd] {
            // Dirty buffer: render must overwrite every byte.
            let mut got = noise_frame(w, h, seed + 99);
            kind.get().render_into(&scene, frame_no, &mut got);
            prop_assert_eq!(&got, &want, "{:?} frame {}", kind, frame_no);
        }
    }
}
