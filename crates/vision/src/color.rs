//! Quantized RGB color histograms — the "Color Model" data of the tracker,
//! after Swain & Ballard, *Color Indexing*, IJCV 1991 (reference 14 of the paper).

use crate::frame::{Frame, Region};

/// Bits of quantization per channel (4 → 16³ = 4096 bins), matching the
/// coarse histograms color-indexing trackers use for robustness.
pub const QUANT_BITS: u32 = 4;

/// Number of bins along one channel.
pub const BINS_PER_CHANNEL: usize = 1 << QUANT_BITS;

/// Total bins.
pub const N_BINS: usize = BINS_PER_CHANNEL * BINS_PER_CHANNEL * BINS_PER_CHANNEL;

/// Map a pixel to its histogram bin.
#[inline]
#[must_use]
pub fn bin_of(rgb: [u8; 3]) -> usize {
    let shift = 8 - QUANT_BITS;
    let r = (rgb[0] >> shift) as usize;
    let g = (rgb[1] >> shift) as usize;
    let b = (rgb[2] >> shift) as usize;
    (r << (2 * QUANT_BITS)) | (g << QUANT_BITS) | b
}

/// Integer bank counter for [`ColorHist::of_region`]: `u16` when the region
/// is small enough that a bank cannot overflow, `u32` otherwise.
trait Counter: Copy {
    const ZERO: Self;
    fn bump(&mut self);
    fn widen(self) -> u32;
}

impl Counter for u16 {
    const ZERO: Self = 0;
    #[inline]
    fn bump(&mut self) {
        *self += 1;
    }
    #[inline]
    fn widen(self) -> u32 {
        u32::from(self)
    }
}

impl Counter for u32 {
    const ZERO: Self = 0;
    #[inline]
    fn bump(&mut self) {
        *self += 1;
    }
    #[inline]
    fn widen(self) -> u32 {
        self
    }
}

/// A quantized color histogram.
#[derive(Clone, PartialEq, Debug)]
pub struct ColorHist {
    bins: Box<[f32]>,
    total: f64,
}

impl ColorHist {
    /// An empty histogram.
    #[must_use]
    pub fn empty() -> ColorHist {
        ColorHist {
            bins: vec![0.0; N_BINS].into_boxed_slice(),
            total: 0.0,
        }
    }

    /// Histogram of a frame region.
    ///
    /// Three changes over the naive [`of_region_scalar`](Self::of_region_scalar)
    /// loop, all invisible in the result:
    ///
    /// * each row is one slice of the flat pixel buffer (`chunks_exact(3)`),
    ///   hoisting the per-pixel bounds checks;
    /// * accumulation is integer (a `+= 1.0` into the `f32` bin chains a
    ///   load/add/store through the FPU on every pixel);
    /// * counters are banked four ways — real frames have long same-color
    ///   runs, and rotating banks breaks the store-to-load dependency chain
    ///   of repeated increments to one bin.
    ///
    /// Counts stay far below 2²⁴, so integer accumulation and the final
    /// conversion are exact: the result is bit-identical to the scalar path
    /// in any accumulation order.
    #[must_use]
    pub fn of_region(frame: &Frame, region: Region) -> ColorHist {
        // Each row spreads its pixel quads over the four banks evenly and
        // sends at most 3 remainder pixels to bank 0, so no bank exceeds
        // area/4 + 3·height. Below that bound u16 banks cannot overflow,
        // and they halve the zero/merge traffic of the scratch space.
        if region.area() / 4 + 3 * region.height() <= usize::from(u16::MAX) {
            Self::of_region_banked::<u16>(frame, region)
        } else {
            Self::of_region_banked::<u32>(frame, region)
        }
    }

    fn of_region_banked<C: Counter>(frame: &Frame, region: Region) -> ColorHist {
        let mut counts = [C::ZERO; 4 * N_BINS];
        let (b0, rest) = counts.split_at_mut(N_BINS);
        let (b1, rest) = rest.split_at_mut(N_BINS);
        let (b2, b3) = rest.split_at_mut(N_BINS);
        let m = N_BINS - 1; // no-op mask (bins < N_BINS by construction)
                            // that lets the compiler drop bounds checks
        for y in region.y0..region.y1 {
            let row = frame.row_range(y, region.x0, region.x1);
            // Four pixels (12 bytes) per iteration as three u32 words:
            // wa = r0 g0 b0 r1, wb = g1 b1 r2 g2, wc = b2 r3 g3 b3.
            // Each bin is (r>>4)<<8 | (g>>4)<<4 | (b>>4), extracted from the
            // words by shift+mask instead of per-byte loads.
            let mut quads = row.chunks_exact(12);
            for q in quads.by_ref() {
                // INVARIANT: `chunks_exact(12)` yields 12-byte slices, so
                // each 4-byte sub-slice converts to `[u8; 4]`.
                let wa = u32::from_le_bytes(q[0..4].try_into().expect("4 bytes"));
                // INVARIANT: as above.
                let wb = u32::from_le_bytes(q[4..8].try_into().expect("4 bytes"));
                // INVARIANT: as above.
                let wc = u32::from_le_bytes(q[8..12].try_into().expect("4 bytes"));
                let p0 = ((wa & 0xF0) << 4) | ((wa >> 8) & 0xF0) | ((wa >> 20) & 0xF);
                let p1 = (((wa >> 24) & 0xF0) << 4) | (wb & 0xF0) | ((wb >> 12) & 0xF);
                let p2 = (((wb >> 16) & 0xF0) << 4) | ((wb >> 24) & 0xF0) | ((wc >> 4) & 0xF);
                let p3 = (((wc >> 8) & 0xF0) << 4) | ((wc >> 16) & 0xF0) | (wc >> 28);
                // Separate banks break the store-to-load dependency chain of
                // long same-color runs.
                b0[p0 as usize & m].bump();
                b1[p1 as usize & m].bump();
                b2[p2 as usize & m].bump();
                b3[p3 as usize & m].bump();
            }
            for px in quads.remainder().chunks_exact(3) {
                b0[bin_of([px[0], px[1], px[2]]) & m].bump();
            }
        }
        let mut h = ColorHist::empty();
        for (i, b) in h.bins.iter_mut().enumerate() {
            let c = b0[i].widen() + b1[i].widen() + b2[i].widen() + b3[i].widen();
            *b = c as f32;
        }
        h.total = region.area() as f64;
        h
    }

    /// Build a histogram from raw integer bin counts and a pixel total —
    /// the assembly point for the SIMD backend's bank merge. Counts must be
    /// exact pixel tallies (they are converted to `f32` exactly below 2²⁴,
    /// the same argument as [`of_region`](Self::of_region)).
    pub(crate) fn from_counts(counts: &[u32], total: f64) -> ColorHist {
        let mut h = ColorHist::empty();
        for (b, &c) in h.bins.iter_mut().zip(counts) {
            *b = c as f32;
        }
        h.total = total;
        h
    }

    /// Reference pixel-at-a-time implementation of
    /// [`of_region`](Self::of_region); kept as the before/after oracle for
    /// the data-path benchmarks and equality tests.
    #[must_use]
    pub fn of_region_scalar(frame: &Frame, region: Region) -> ColorHist {
        let mut h = ColorHist::empty();
        for y in region.y0..region.y1 {
            for x in region.x0..region.x1 {
                h.bins[bin_of(frame.pixel(x, y))] += 1.0;
            }
        }
        h.total = region.area() as f64;
        h
    }

    /// Histogram count in a bin.
    #[inline]
    #[must_use]
    pub fn bin(&self, i: usize) -> f32 {
        self.bins[i]
    }

    /// Total mass (pixels counted).
    #[must_use]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Swain–Ballard histogram intersection similarity in `[0, 1]`:
    /// `Σ min(h1, h2) / Σ h2`.
    #[must_use]
    pub fn intersection(&self, other: &ColorHist) -> f64 {
        if other.total == 0.0 {
            return 0.0;
        }
        let s: f64 = self
            .bins
            .iter()
            .zip(other.bins.iter())
            .map(|(&a, &b)| f64::from(a.min(b)))
            .sum();
        s / other.total
    }

    /// The Swain–Ballard ratio histogram `min(model / image, 1)` used by
    /// back projection: how diagnostic each color is for this model given
    /// the current image.
    #[must_use]
    pub fn ratio(&self, image: &ColorHist) -> Box<[f32]> {
        let mut r = vec![0.0f32; N_BINS].into_boxed_slice();
        for i in 0..N_BINS {
            let m = self.bins[i];
            if m > 0.0 {
                let im = image.bins[i];
                r[i] = if im > 0.0 { (m / im).min(1.0) } else { 1.0 };
            }
        }
        r
    }

    /// Merge another histogram into this one (used by the data-parallel
    /// joiner to combine per-region histograms).
    pub fn merge(&mut self, other: &ColorHist) {
        for (a, b) in self.bins.iter_mut().zip(other.bins.iter()) {
            *a += b;
        }
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solid(width: usize, height: usize, rgb: [u8; 3]) -> Frame {
        let mut f = Frame::new(width, height);
        for y in 0..height {
            for x in 0..width {
                f.set_pixel(x, y, rgb);
            }
        }
        f
    }

    #[test]
    fn bins_partition_color_space() {
        assert_eq!(bin_of([0, 0, 0]), 0);
        assert_eq!(bin_of([255, 255, 255]), N_BINS - 1);
        // Nearby colors share a bin at 4-bit quantization.
        assert_eq!(bin_of([100, 100, 100]), bin_of([103, 97, 101]));
        assert_ne!(bin_of([255, 0, 0]), bin_of([0, 255, 0]));
    }

    #[test]
    fn solid_frame_histogram_is_one_bin() {
        let f = solid(10, 10, [200, 40, 40]);
        let h = ColorHist::of_region(&f, f.region());
        assert_eq!(h.total(), 100.0);
        assert_eq!(h.bin(bin_of([200, 40, 40])), 100.0);
        let other: f32 = (0..N_BINS)
            .filter(|&i| i != bin_of([200, 40, 40]))
            .map(|i| h.bin(i))
            .sum();
        assert_eq!(other, 0.0);
    }

    #[test]
    fn intersection_is_one_for_identical() {
        let f = solid(8, 8, [10, 200, 30]);
        let h = ColorHist::of_region(&f, f.region());
        assert!((h.intersection(&h) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn intersection_is_zero_for_disjoint() {
        let a = ColorHist::of_region(&solid(8, 8, [255, 0, 0]), Region::full(8, 8));
        let b = ColorHist::of_region(&solid(8, 8, [0, 0, 255]), Region::full(8, 8));
        assert_eq!(a.intersection(&b), 0.0);
    }

    #[test]
    fn ratio_caps_at_one_and_flags_diagnostic_colors() {
        let model = ColorHist::of_region(&solid(4, 4, [255, 0, 0]), Region::full(4, 4));
        let mut image = ColorHist::of_region(&solid(8, 8, [0, 255, 0]), Region::full(8, 8));
        // Image has a little red too.
        image.bins[bin_of([255, 0, 0])] = 32.0;
        let r = model.ratio(&image);
        assert!((r[bin_of([255, 0, 0])] - 0.5).abs() < 1e-6); // 16 / 32
        assert_eq!(r[bin_of([0, 255, 0])], 0.0);
        // Model color absent from image → maximally diagnostic.
        let empty_image = ColorHist::empty();
        let r2 = model.ratio(&empty_image);
        assert_eq!(r2[bin_of([255, 0, 0])], 1.0);
    }

    #[test]
    fn sliced_histogram_matches_scalar_exactly() {
        let mut f = Frame::new(23, 17); // odd sizes exercise slice edges
        for y in 0..17 {
            for x in 0..23 {
                f.set_pixel(x, y, [(x * 11) as u8, (y * 15) as u8, ((x + y) * 7) as u8]);
            }
        }
        // Full frame and an interior sub-region.
        for region in [
            f.region(),
            Region {
                x0: 3,
                y0: 2,
                x1: 20,
                y1: 15,
            },
        ] {
            let fast = ColorHist::of_region(&f, region);
            let slow = ColorHist::of_region_scalar(&f, region);
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn merge_equals_whole_region_histogram() {
        let mut f = Frame::new(10, 10);
        for y in 0..10 {
            for x in 0..10 {
                f.set_pixel(x, y, [(x * 25) as u8, (y * 25) as u8, 128]);
            }
        }
        let whole = ColorHist::of_region(&f, f.region());
        let mut merged = ColorHist::empty();
        for part in f.region().split_rows(3) {
            merged.merge(&ColorHist::of_region(&f, part));
        }
        assert_eq!(merged.total(), whole.total());
        for i in 0..N_BINS {
            assert_eq!(merged.bin(i), whole.bin(i));
        }
    }
}
