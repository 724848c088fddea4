//! Image buffers: RGB frames, rectangular regions, and bit masks.

/// A half-open rectangular region `[x0, x1) × [y0, y1)` of a frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Region {
    /// Left edge (inclusive).
    pub x0: usize,
    /// Top edge (inclusive).
    pub y0: usize,
    /// Right edge (exclusive).
    pub x1: usize,
    /// Bottom edge (exclusive).
    pub y1: usize,
}

impl Region {
    /// The full frame.
    #[must_use]
    pub fn full(width: usize, height: usize) -> Region {
        Region {
            x0: 0,
            y0: 0,
            x1: width,
            y1: height,
        }
    }

    /// Region width.
    #[must_use]
    pub fn width(&self) -> usize {
        self.x1 - self.x0
    }

    /// Region height.
    #[must_use]
    pub fn height(&self) -> usize {
        self.y1 - self.y0
    }

    /// Pixel count.
    #[must_use]
    pub fn area(&self) -> usize {
        self.width() * self.height()
    }

    /// Split into `n` horizontal strips of near-equal height — the frame
    /// partitioning (FP) axis of Table 1. The first `height % n` strips are
    /// one row taller.
    #[must_use]
    pub fn split_rows(&self, n: usize) -> Vec<Region> {
        assert!(
            n >= 1 && n <= self.height().max(1),
            "cannot split {} rows into {n}",
            self.height()
        );
        let base = self.height() / n;
        let extra = self.height() % n;
        let mut out = Vec::with_capacity(n);
        let mut y = self.y0;
        for i in 0..n {
            let h = base + usize::from(i < extra);
            out.push(Region {
                x0: self.x0,
                y0: y,
                x1: self.x1,
                y1: y + h,
            });
            y += h;
        }
        out
    }

    /// Whether `(x, y)` lies inside.
    #[must_use]
    pub fn contains(&self, x: usize, y: usize) -> bool {
        x >= self.x0 && x < self.x1 && y >= self.y0 && y < self.y1
    }
}

/// An interleaved 8-bit RGB frame.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Frame {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    data: Vec<u8>,
}

impl Frame {
    /// A black frame.
    #[must_use]
    pub fn new(width: usize, height: usize) -> Frame {
        assert!(width > 0 && height > 0, "frame must be non-empty");
        Frame {
            width,
            height,
            data: vec![0; width * height * 3],
        }
    }

    /// Read one pixel.
    #[inline]
    #[must_use]
    pub fn pixel(&self, x: usize, y: usize) -> [u8; 3] {
        let i = (y * self.width + x) * 3;
        [self.data[i], self.data[i + 1], self.data[i + 2]]
    }

    /// Write one pixel.
    #[inline]
    pub fn set_pixel(&mut self, x: usize, y: usize, rgb: [u8; 3]) {
        let i = (y * self.width + x) * 3;
        self.data[i] = rgb[0];
        self.data[i + 1] = rgb[1];
        self.data[i + 2] = rgb[2];
    }

    /// Raw interleaved bytes.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// One row of interleaved RGB bytes (`3 * width` long). The row-slice
    /// entry point of the kernel fast paths: iterating
    /// `row(y).chunks_exact(3)` hoists the per-pixel bounds checks of
    /// [`pixel`](Self::pixel) out of the inner loop.
    #[inline]
    #[must_use]
    pub fn row(&self, y: usize) -> &[u8] {
        let w = self.width * 3;
        &self.data[y * w..(y + 1) * w]
    }

    /// The interleaved bytes of the pixel range `[x0, x1)` of row `y`.
    #[inline]
    #[must_use]
    pub fn row_range(&self, y: usize, x0: usize, x1: usize) -> &[u8] {
        &self.row(y)[x0 * 3..x1 * 3]
    }

    /// Mutable row slice — the write-side twin of [`row`](Self::row), so
    /// producers (the renderer's background pass) can stream a row without
    /// per-pixel index math.
    #[inline]
    pub fn row_mut(&mut self, y: usize) -> &mut [u8] {
        let w = self.width * 3;
        &mut self.data[y * w..(y + 1) * w]
    }

    /// Overwrite the whole pixel buffer from raw interleaved bytes (the
    /// inverse of [`bytes`](Self::bytes)); `bytes` must be exactly
    /// `width * height * 3` long. Lets replay refill a recycled buffer
    /// without a per-pixel loop.
    pub fn copy_from_bytes(&mut self, bytes: &[u8]) {
        assert_eq!(
            bytes.len(),
            self.data.len(),
            "byte slice must match frame dimensions"
        );
        self.data.copy_from_slice(bytes);
    }

    /// Size in bytes (the channel item size of the "Frame" channel).
    #[must_use]
    pub fn byte_len(&self) -> usize {
        self.data.len()
    }

    /// The full-frame region.
    #[must_use]
    pub fn region(&self) -> Region {
        Region::full(self.width, self.height)
    }
}

/// A 1-bit-per-pixel mask (the "Motion Mask" channel item).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BitMask {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    bits: Vec<u64>,
}

impl BitMask {
    /// An all-clear mask.
    #[must_use]
    pub fn new(width: usize, height: usize) -> BitMask {
        BitMask {
            width,
            height,
            bits: vec![0; (width * height).div_ceil(64)],
        }
    }

    /// An all-set mask (no motion information: search everywhere).
    #[must_use]
    pub fn all_set(width: usize, height: usize) -> BitMask {
        let mut m = BitMask::new(width, height);
        m.fill_all();
        m
    }

    /// Clear every bit in place (buffer-reuse equivalent of
    /// [`new`](Self::new)).
    pub fn clear(&mut self) {
        self.bits.fill(0);
    }

    /// Set every bit in place (buffer-reuse equivalent of
    /// [`all_set`](Self::all_set); padding bits are set too, exactly as
    /// there).
    pub fn fill_all(&mut self) {
        self.bits.fill(u64::MAX);
    }

    /// The backing words, row-major and continuous (`bit = y * width + x`),
    /// for kernels that stream a whole frame linearly.
    #[inline]
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.bits
    }

    #[inline]
    fn index(&self, x: usize, y: usize) -> (usize, u64) {
        let bit = y * self.width + x;
        (bit / 64, 1u64 << (bit % 64))
    }

    /// Read one bit.
    #[inline]
    #[must_use]
    pub fn get(&self, x: usize, y: usize) -> bool {
        let (w, m) = self.index(x, y);
        self.bits[w] & m != 0
    }

    /// Call `f(x)` for every set bit of row `y`, in ascending `x`. Walks
    /// the row's words with `trailing_zeros`, so a sparse mask costs one
    /// test per word plus one step per set bit. Rows are not word-aligned
    /// (`bit = y * width + x`): bits a word shares with the neighbouring
    /// rows, and the padding past the last row, are masked off.
    #[inline]
    pub(crate) fn for_each_set_in_row(&self, y: usize, mut f: impl FnMut(usize)) {
        let start = y * self.width;
        let end = start + self.width;
        for wi in start / 64..end.div_ceil(64) {
            let base = wi * 64;
            let mut word = self.bits[wi];
            if base < start {
                word &= u64::MAX << (start - base);
            }
            if base + 64 > end {
                word &= u64::MAX >> (base + 64 - end);
            }
            while word != 0 {
                f(base + word.trailing_zeros() as usize - start);
                word &= word - 1;
            }
        }
    }

    /// Set one bit.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: bool) {
        let (w, m) = self.index(x, y);
        if v {
            self.bits[w] |= m;
        } else {
            self.bits[w] &= !m;
        }
    }

    /// Number of set bits (within the logical area; padding bits in the
    /// last word are excluded by construction of `set`).
    #[must_use]
    pub fn count_set(&self) -> usize {
        // Mask off padding of the final word before counting.
        let total_bits = self.width * self.height;
        let mut count = 0usize;
        for (i, w) in self.bits.iter().enumerate() {
            let mut word = *w;
            if (i + 1) * 64 > total_bits {
                let valid = total_bits - i * 64;
                if valid < 64 {
                    word &= (1u64 << valid) - 1;
                }
            }
            count += word.count_ones() as usize;
        }
        count
    }

    /// Size in bytes.
    #[must_use]
    pub fn byte_len(&self) -> usize {
        self.bits.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pixel_roundtrip() {
        let mut f = Frame::new(8, 4);
        f.set_pixel(7, 3, [1, 2, 3]);
        assert_eq!(f.pixel(7, 3), [1, 2, 3]);
        assert_eq!(f.pixel(0, 0), [0, 0, 0]);
        assert_eq!(f.byte_len(), 8 * 4 * 3);
    }

    #[test]
    fn region_split_covers_exactly() {
        let r = Region::full(320, 240);
        for n in [1, 2, 3, 4, 7] {
            let parts = r.split_rows(n);
            assert_eq!(parts.len(), n);
            assert_eq!(parts.iter().map(Region::area).sum::<usize>(), r.area());
            // Contiguous, non-overlapping.
            for w in parts.windows(2) {
                assert_eq!(w[0].y1, w[1].y0);
            }
            assert_eq!(parts[0].y0, 0);
            assert_eq!(parts[n - 1].y1, 240);
        }
    }

    #[test]
    fn region_split_uneven_heights_differ_by_one() {
        let r = Region::full(10, 10);
        let parts = r.split_rows(3);
        let hs: Vec<usize> = parts.iter().map(Region::height).collect();
        assert_eq!(hs, vec![4, 3, 3]);
    }

    #[test]
    fn region_contains() {
        let r = Region {
            x0: 2,
            y0: 3,
            x1: 5,
            y1: 6,
        };
        assert!(r.contains(2, 3));
        assert!(r.contains(4, 5));
        assert!(!r.contains(5, 5));
        assert!(!r.contains(4, 6));
        assert_eq!(r.area(), 9);
    }

    #[test]
    fn bitmask_set_get_count() {
        let mut m = BitMask::new(100, 3);
        assert_eq!(m.count_set(), 0);
        m.set(0, 0, true);
        m.set(99, 2, true);
        m.set(50, 1, true);
        assert!(m.get(0, 0) && m.get(99, 2) && m.get(50, 1));
        assert!(!m.get(1, 0));
        assert_eq!(m.count_set(), 3);
        m.set(50, 1, false);
        assert_eq!(m.count_set(), 2);
    }

    #[test]
    fn bitmask_all_set_counts_area_only() {
        let m = BitMask::all_set(33, 3);
        assert_eq!(m.count_set(), 99);
    }

    #[test]
    fn rows_slice_the_flat_buffer() {
        let mut f = Frame::new(4, 3);
        f.set_pixel(0, 1, [1, 2, 3]);
        f.set_pixel(3, 1, [7, 8, 9]);
        let row = f.row(1);
        assert_eq!(row.len(), 12);
        assert_eq!(&row[..3], &[1, 2, 3]);
        assert_eq!(&row[9..], &[7, 8, 9]);
        assert_eq!(f.row_range(1, 3, 4), &[7, 8, 9]);
        // Rows tile the byte buffer exactly.
        let rebuilt: Vec<u8> = (0..3).flat_map(|y| f.row(y).to_vec()).collect();
        assert_eq!(rebuilt, f.bytes());
    }

    #[test]
    fn bitmask_clear_and_fill_match_constructors() {
        let mut m = BitMask::all_set(33, 3);
        m.clear();
        assert_eq!(m, BitMask::new(33, 3));
        m.fill_all();
        assert_eq!(m, BitMask::all_set(33, 3));
    }

    #[test]
    fn row_walk_visits_exactly_the_rows_set_bits() {
        // Widths below, at, and straddling the word size; the all-set mask
        // also has its padding bits set, which the last row must not see.
        for (w, h) in [(5, 4), (33, 3), (64, 2), (100, 3), (130, 2)] {
            let mut m = BitMask::new(w, h);
            for y in 0..h {
                for x in 0..w {
                    m.set(x, y, (x * 7 + y * 3) % 5 < 2);
                }
            }
            for mask in [m, BitMask::all_set(w, h), BitMask::new(w, h)] {
                for y in 0..h {
                    let mut walked = Vec::new();
                    mask.for_each_set_in_row(y, |x| walked.push(x));
                    let want: Vec<usize> = (0..w).filter(|&x| mask.get(x, y)).collect();
                    assert_eq!(walked, want, "{w}x{h} row {y}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_frame_rejected() {
        let _ = Frame::new(0, 10);
    }
}
