//! Property tests for the compute-backend contract: the `Simd` tier
//! (whatever SIMD paths the host dispatches to) and the portable word
//! kernels it falls back to are **bit-identical** to the in-tree scalar
//! oracles over randomized
//! shapes, including widths below one SIMD lane, ragged tails, offset
//! sub-regions, thresholds straddling the u8 saturation boundary, and the
//! no-previous-frame path. The word kernels are called directly, because
//! `Simd` takes them only where the host or the input doesn't qualify.
//! Speed is the only permitted difference between tiers; this file is
//! where that claim is enforced.

use proptest::prelude::*;
use vision::{
    change_detection, change_detection_into, image_histogram, BackendKind, BitMask, ColorHist,
    Frame, Region, Scene,
};

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

    /// Change detection: `Simd` and the word kernel, every shape, every
    /// threshold — same mask bits as the scalar oracle, written into a dirty recycled
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
        let simd = BackendKind::Simd.get();
        let mut got = BitMask::all_set(w, h);
        simd.change_detection_into(&cur, Some(&prev), thr, &mut got);
        prop_assert_eq!(&got, &want, "simd w={} h={} thr={}", w, h, thr);
        let mut word = BitMask::all_set(w, h);
        change_detection_into(&cur, Some(&prev), thr, &mut word);
        prop_assert_eq!(&word, &want, "word w={} h={} thr={}", w, h, thr);
        // First frame (no previous): everything is change, exactly.
        let all = BitMask::all_set(w, h);
        prop_assert_eq!(&simd.change_detection(&cur, None, thr), &all, "simd no-prev");
        prop_assert_eq!(&change_detection(&cur, None, thr), &all, "word no-prev");
    }

    /// Region histograms: random sub-regions — including sub-lane widths
    /// and misaligned x offsets — bin for bin equal for `Simd` and the word
    /// kernel, and
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
        let simd = BackendKind::Simd.get();
        prop_assert_eq!(
            &simd.region_histogram(&frame, region), &want_region,
            "simd region {:?}", region
        );
        prop_assert_eq!(&simd.image_histogram(&frame), &want_image, "simd image");
        prop_assert_eq!(
            &ColorHist::of_region(&frame, region), &want_region,
            "word region {:?}", region
        );
        prop_assert_eq!(&image_histogram(&frame), &want_image, "word image");
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
        // Dirty buffers: render must overwrite every byte.
        let mut got = noise_frame(w, h, seed + 99);
        BackendKind::Simd.get().render_into(&scene, frame_no, &mut got);
        prop_assert_eq!(&got, &want, "simd frame {}", frame_no);
        let mut fast = noise_frame(w, h, seed + 99);
        scene.render_into_fast(frame_no, &mut fast);
        prop_assert_eq!(&fast, &want, "render_into_fast frame {}", frame_no);
    }
}
