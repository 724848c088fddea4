//! T2 — Histogram: the whole-image color histogram feeding the "Color
//! Model" channel. Its cost depends only on the frame size, never on the
//! number of tracked models ("the time for tasks T1, T2, and T3 do not
//! depend on the number of models being tracked", §1). The runtime computes
//! it whole and serially: the task graph declares only T4 data parallel,
//! and at ~15 µs for a 96×72 frame the histogram costs less than one
//! worker-pool round trip.

use crate::color::ColorHist;
use crate::frame::Frame;

/// Compute the image histogram of a whole frame (row-sliced fast path).
#[must_use]
pub fn image_histogram(frame: &Frame) -> ColorHist {
    ColorHist::of_region(frame, frame.region())
}

/// Reference pixel-at-a-time implementation of [`image_histogram`]; the
/// before/after oracle for the data-path benchmarks and equality tests.
#[must_use]
pub fn image_histogram_scalar(frame: &Frame) -> ColorHist {
    ColorHist::of_region_scalar(frame, frame.region())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn textured(width: usize, height: usize) -> Frame {
        let mut f = Frame::new(width, height);
        for y in 0..height {
            for x in 0..width {
                f.set_pixel(
                    x,
                    y,
                    [(x * 16) as u8, (y * 16) as u8, ((x * y) % 251) as u8],
                );
            }
        }
        f
    }

    #[test]
    fn histogram_total_is_pixel_count() {
        let f = Frame::new(32, 24);
        let h = image_histogram(&f);
        assert_eq!(h.total(), (32 * 24) as f64);
    }

    #[test]
    fn histogram_is_deterministic() {
        let f = textured(16, 16);
        let a = image_histogram(&f);
        let b = image_histogram(&f);
        assert_eq!(a, b);
    }

    #[test]
    fn fast_and_scalar_agree_exactly() {
        let f = textured(31, 23);
        assert_eq!(image_histogram(&f), image_histogram_scalar(&f));
    }
}
