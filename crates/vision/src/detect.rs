//! T4 — Target Detection: Swain–Ballard histogram back projection of every
//! model over the frame, masked by motion, with a horizontal box filter.
//! This is "highly compute intensive and a good candidate for
//! parallelization" (§2.2), and the work decomposes along exactly the two
//! axes of Table 1:
//!
//! * **FP** — the frame splits into full-width row strips, so the
//!   horizontal box filter stays exact per strip;
//! * **MP** — the model set splits into contiguous ranges.
//!
//! A pixel's score is the model's `16³` ratio histogram
//! ([`ColorHist::ratio`]) read at the pixel's 6-bit-per-channel colour by
//! trilinear interpolation. The live kernel ([`target_detection_chunk`])
//! evaluates that interpolation only at the pixels the change mask selects,
//! so its cost is `O(masked pixels × models)` plus a box filter over the
//! strip's masked rows; the only per-model-per-chunk set-up left is the
//! ratio histogram itself (4,096 divisions). [`ratio_lut`] tabulates the
//! same function over all `64³` colours; it and
//! [`target_detection_chunk_scalar`] are the dense oracle the kernel is
//! tested bit-identical against, not part of the frame path. On this host
//! that means frame partitioning no longer loses to model partitioning at
//! eight models (see the `table1` report): the set-up term that produced
//! the paper's Table 1 crossover survives only in the paper-scale cost
//! model (`taskgraph::builders::color_tracker`).
//!
//! The joiner ([`join_partials`]) takes the partials by value: a partial
//! that covers the whole frame becomes its model's [`ScoreMap`] without a
//! copy, and row strips are copied in one block each, after a check that
//! they tile every model's rows exactly once.
//!
//! The complementary vertical pass lives in T5 ([`crate::peak`]), keeping
//! the separable smoothing exact under decomposition.

use crate::color::{ColorHist, BINS_PER_CHANNEL, QUANT_BITS};
use crate::frame::{BitMask, Frame, Region};

/// Horizontal box-filter half-width (full window = `2*HALF + 1` pixels).
pub const HALF_WINDOW: usize = 7;

/// Bits per channel at which a pixel's colour is read for back projection
/// (finer than the histogram quantization; values between coarse bins are
/// trilinearly interpolated).
pub const LUT_BITS: u32 = 6;

/// Colour levels per channel at [`LUT_BITS`] (entries per axis of
/// [`ratio_lut`]).
pub const LUT_SIZE: usize = 1 << LUT_BITS;

/// Where one [`LUT_BITS`] colour level falls on the coarse histogram axis:
/// the two bins it lies between and its fractional distance from the lower.
type AxisCoord = (usize, usize, f32);

/// [`AxisCoord`] of every colour level — the same coordinates
/// [`ratio_lut`] computes per cell, so both interpolate identically.
fn axis_coords() -> [AxisCoord; LUT_SIZE] {
    let scale = BINS_PER_CHANNEL as f32 / LUT_SIZE as f32;
    let max_bin = (BINS_PER_CHANNEL - 1) as f32;
    std::array::from_fn(|v| {
        let c = ((v as f32 + 0.5) * scale - 0.5).clamp(0.0, max_bin);
        let lo = c.floor() as usize;
        let hi = (lo + 1).min(BINS_PER_CHANNEL - 1);
        (lo, hi, c - lo as f32)
    })
}

/// Back-project one pixel: `ratio` (a [`ColorHist::ratio`] grid) read at
/// the pixel's colour by trilinear interpolation. The expression and its
/// operand order are those of [`ratio_lut`]'s inner loop, so the result is
/// bit-identical to `ratio_lut(..)[lut_index(rgb)]` — eight reads of a
/// 16 KiB grid instead of a 1 MiB table built to be read once.
#[inline]
fn back_project(ratio: &[f32], axis: &[AxisCoord; LUT_SIZE], rgb: [u8; 3]) -> f32 {
    let shift = 8 - LUT_BITS;
    let (r0, r1, fr) = axis[(rgb[0] >> shift) as usize];
    let (g0, g1, fg) = axis[(rgb[1] >> shift) as usize];
    let (b0, b1, fb) = axis[(rgb[2] >> shift) as usize];
    let at = |r: usize, g: usize, b: usize| -> f32 {
        ratio[(r << (2 * QUANT_BITS)) | (g << QUANT_BITS) | b]
    };
    let c00 = at(r0, g0, b0) * (1.0 - fb) + at(r0, g0, b1) * fb;
    let c01 = at(r0, g1, b0) * (1.0 - fb) + at(r0, g1, b1) * fb;
    let c10 = at(r1, g0, b0) * (1.0 - fb) + at(r1, g0, b1) * fb;
    let c11 = at(r1, g1, b0) * (1.0 - fb) + at(r1, g1, b1) * fb;
    let c0 = c00 * (1.0 - fg) + c01 * fg;
    let c1 = c10 * (1.0 - fg) + c11 * fg;
    c0 * (1.0 - fr) + c1 * fr
}

/// The dense form of the back projection: one model's ratio histogram
/// against the current image histogram, upsampled from the coarse `16³`
/// grid to a `64³` table by trilinear interpolation. Building it costs
/// 262,144 cells however few pixels are then looked up, so the frame path
/// does not call it; it is the oracle [`target_detection_chunk`] is tested
/// against (through [`target_detection_chunk_scalar`]).
#[must_use]
pub fn ratio_lut(model: &ColorHist, image: &ColorHist) -> Box<[f32]> {
    let ratio = model.ratio(image);
    let mut lut = vec![0.0f32; LUT_SIZE * LUT_SIZE * LUT_SIZE].into_boxed_slice();
    let scale = BINS_PER_CHANNEL as f32 / LUT_SIZE as f32;
    let max_bin = (BINS_PER_CHANNEL - 1) as f32;
    // Continuous coordinate of LUT cell center on the coarse grid, then
    // trilinear interpolation between the eight surrounding coarse bins.
    let coord = |v: usize| -> (usize, usize, f32) {
        let c = ((v as f32 + 0.5) * scale - 0.5).clamp(0.0, max_bin);
        let lo = c.floor() as usize;
        let hi = (lo + 1).min(BINS_PER_CHANNEL - 1);
        (lo, hi, c - lo as f32)
    };
    let at = |r: usize, g: usize, b: usize| -> f32 {
        ratio[(r << (2 * QUANT_BITS)) | (g << QUANT_BITS) | b]
    };
    let mut i = 0usize;
    for r in 0..LUT_SIZE {
        let (r0, r1, fr) = coord(r);
        for g in 0..LUT_SIZE {
            let (g0, g1, fg) = coord(g);
            for b in 0..LUT_SIZE {
                let (b0, b1, fb) = coord(b);
                let c00 = at(r0, g0, b0) * (1.0 - fb) + at(r0, g0, b1) * fb;
                let c01 = at(r0, g1, b0) * (1.0 - fb) + at(r0, g1, b1) * fb;
                let c10 = at(r1, g0, b0) * (1.0 - fb) + at(r1, g0, b1) * fb;
                let c11 = at(r1, g1, b0) * (1.0 - fb) + at(r1, g1, b1) * fb;
                let c0 = c00 * (1.0 - fg) + c01 * fg;
                let c1 = c10 * (1.0 - fg) + c11 * fg;
                lut[i] = c0 * (1.0 - fr) + c1 * fr;
                i += 1;
            }
        }
    }
    lut
}

/// LUT index of a pixel at [`LUT_BITS`] quantization.
#[inline]
#[must_use]
pub fn lut_index(rgb: [u8; 3]) -> usize {
    let shift = 8 - LUT_BITS;
    let r = (rgb[0] >> shift) as usize;
    let g = (rgb[1] >> shift) as usize;
    let b = (rgb[2] >> shift) as usize;
    (r << (2 * LUT_BITS)) | (g << LUT_BITS) | b
}

/// A dense per-model score map (one plane of the "Back Projections"
/// channel).
#[derive(Clone, PartialEq, Debug)]
pub struct ScoreMap {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    data: Vec<f32>,
}

impl ScoreMap {
    /// An all-zero map.
    #[must_use]
    pub fn new(width: usize, height: usize) -> ScoreMap {
        ScoreMap {
            width,
            height,
            data: vec![0.0; width * height],
        }
    }

    /// Read one score.
    #[inline]
    #[must_use]
    pub fn get(&self, x: usize, y: usize) -> f32 {
        self.data[y * self.width + x]
    }

    /// Write one score.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: f32) {
        self.data[y * self.width + x] = v;
    }

    /// One row as a slice.
    #[must_use]
    pub fn row(&self, y: usize) -> &[f32] {
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// The location and value of the maximum score.
    #[must_use]
    pub fn argmax(&self) -> (usize, usize, f32) {
        let mut best = (0, 0, f32::NEG_INFINITY);
        for y in 0..self.height {
            for x in 0..self.width {
                let v = self.get(x, y);
                if v > best.2 {
                    best = (x, y, v);
                }
            }
        }
        best
    }
}

/// One unit of data-parallel work: a row-strip region × a model range.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DetectChunk {
    /// Full-width row strip to process.
    pub region: Region,
    /// First model index (inclusive).
    pub model_lo: usize,
    /// Last model index (exclusive).
    pub model_hi: usize,
}

/// Partition the detection work into `fp × min(mp, n_models)` chunks — the
/// splitter of the paper's Fig. 9, with the decomposition chosen per regime.
#[must_use]
pub fn detect_chunks(
    width: usize,
    height: usize,
    n_models: usize,
    fp: usize,
    mp: usize,
) -> Vec<DetectChunk> {
    assert!(fp >= 1 && mp >= 1, "factors must be positive");
    let mp = mp.min(n_models.max(1));
    let regions = Region::full(width, height).split_rows(fp);
    let mut chunks = Vec::with_capacity(fp * mp);
    let base = n_models / mp;
    let extra = n_models % mp;
    for region in regions {
        let mut lo = 0usize;
        for i in 0..mp {
            let len = base + usize::from(i < extra);
            chunks.push(DetectChunk {
                region,
                model_lo: lo,
                model_hi: lo + len,
            });
            lo += len;
        }
    }
    chunks
}

/// The partial result of one chunk: smoothed, masked back-projection rows
/// for each model in the chunk's range.
#[derive(Clone, PartialEq, Debug)]
pub struct PartialScores {
    /// Model index.
    pub model: usize,
    /// The strip these rows cover.
    pub region: Region,
    /// Row-major scores, `region.area()` long.
    pub data: Vec<f32>,
}

/// Execute one chunk (the worker of Fig. 9): for every model in range,
/// back-project the strip's masked pixels and box-filter its rows. Per-model
/// set-up is the model's ratio histogram; the back projection is
/// proportional to the mask population, the filter to the strip area.
/// Bit-identical to [`target_detection_chunk_scalar`].
#[must_use]
pub fn target_detection_chunk(
    frame: &Frame,
    image_hist: &ColorHist,
    models: &[ColorHist],
    mask: &BitMask,
    chunk: DetectChunk,
) -> Vec<PartialScores> {
    let region = chunk.region;
    assert_eq!(
        region.width(),
        frame.width,
        "chunks must be full-width strips"
    );
    let w = region.width();
    let axis = axis_coords();
    // One raw (unfiltered) row, shared by every row and model of the chunk:
    // all zeros whenever a row starts, masked pixels written, filtered into
    // the output plane, zeroed again.
    let mut raw_row = vec![0.0f32; w];
    let mut out = Vec::with_capacity(chunk.model_hi - chunk.model_lo);
    for (m, model) in models
        .iter()
        .enumerate()
        .take(chunk.model_hi)
        .skip(chunk.model_lo)
    {
        let ratio = model.ratio(image_hist);
        let mut data = vec![0.0f32; region.area()];
        for (y, out_row) in (region.y0..region.y1).zip(data.chunks_exact_mut(w)) {
            let row = frame.row(y);
            let mut masked = false;
            mask.for_each_set_in_row(y, |x| {
                let rgb = [row[3 * x], row[3 * x + 1], row[3 * x + 2]];
                raw_row[x] = back_project(&ratio, &axis, rgb);
                masked = true;
            });
            // A running sum over zeros is +0.0 at every pixel: a row with
            // nothing masked keeps the plane's zeros.
            if masked {
                box_filter_row(&raw_row, out_row);
                raw_row.fill(0.0);
            }
        }
        out.push(PartialScores {
            model: m,
            region,
            data,
        });
    }
    out
}

/// Horizontal box filter of one row (running sum over a `2 * HALF_WINDOW + 1`
/// window, clipped at the row ends), in the oracle's operation order.
fn box_filter_row(raw: &[f32], out: &mut [f32]) {
    let w = raw.len();
    let mut acc = 0.0f32;
    // Initial window [0, HALF].
    for &v in &raw[..=HALF_WINDOW.min(w - 1)] {
        acc += v;
    }
    for x in 0..w {
        out[x] = acc;
        // Slide: add x + HALF + 1, drop x - HALF.
        let add = x + HALF_WINDOW + 1;
        if add < w {
            acc += raw[add];
        }
        if x >= HALF_WINDOW {
            acc -= raw[x - HALF_WINDOW];
        }
    }
}

/// Reference pixel-at-a-time implementation of [`target_detection_chunk`];
/// the before/after oracle for the data-path benchmarks and equality tests.
#[must_use]
pub fn target_detection_chunk_scalar(
    frame: &Frame,
    image_hist: &ColorHist,
    models: &[ColorHist],
    mask: &BitMask,
    chunk: DetectChunk,
) -> Vec<PartialScores> {
    let region = chunk.region;
    assert_eq!(
        region.width(),
        frame.width,
        "chunks must be full-width strips"
    );
    let mut out = Vec::with_capacity(chunk.model_hi - chunk.model_lo);
    for (m, model) in models
        .iter()
        .enumerate()
        .take(chunk.model_hi)
        .skip(chunk.model_lo)
    {
        let lut = ratio_lut(model, image_hist);
        let w = region.width();
        let mut raw = vec![0.0f32; region.area()];
        for (ry, y) in (region.y0..region.y1).enumerate() {
            for x in 0..w {
                if mask.get(x, y) {
                    raw[ry * w + x] = lut[lut_index(frame.pixel(x, y))];
                }
            }
        }
        let mut data = vec![0.0f32; region.area()];
        for ry in 0..region.height() {
            let row = &raw[ry * w..(ry + 1) * w];
            let mut acc = 0.0f32;
            for &v in &row[..=HALF_WINDOW.min(w - 1)] {
                acc += v;
            }
            for x in 0..w {
                data[ry * w + x] = acc;
                let add = x + HALF_WINDOW + 1;
                if add < w {
                    acc += row[add];
                }
                if x >= HALF_WINDOW {
                    acc -= row[x - HALF_WINDOW];
                }
            }
        }
        out.push(PartialScores {
            model: m,
            region,
            data,
        });
    }
    out
}

/// Assemble chunk outputs into per-model score maps (the joiner of Fig. 9):
/// [`join_partials`] on a copy of `partials`.
/// Panics if the partials do not tile the frame exactly once per model.
#[must_use]
pub fn merge_partials(
    width: usize,
    height: usize,
    n_models: usize,
    partials: &[PartialScores],
) -> Vec<ScoreMap> {
    join_partials(width, height, n_models, partials.to_vec())
}

/// The joiner of Fig. 9, by value. Each model's strips, in row order, must
/// tile the frame exactly: full width, every row covered once. The strip
/// that starts at row 0 becomes the model's plane and the strips below it
/// are appended to its buffer, one row block each, so a partial that
/// already covers the frame (any split by models only) is moved into its
/// [`ScoreMap`] without a copy.
/// Panics if the partials do not tile the frame exactly once per model.
#[must_use]
pub fn join_partials(
    width: usize,
    height: usize,
    n_models: usize,
    mut partials: Vec<PartialScores>,
) -> Vec<ScoreMap> {
    partials.sort_unstable_by_key(|p| (p.model, p.region.y0, p.region.y1));
    let mut parts = partials.into_iter().peekable();
    let mut maps = Vec::with_capacity(n_models);
    for m in 0..n_models {
        let mut plane = Vec::new();
        let mut next_row = 0;
        while let Some(p) = parts.next_if(|p| p.model == m) {
            let r = p.region;
            assert!(
                r.x0 == 0
                    && r.x1 == width
                    && r.y0 == next_row
                    && r.y1 <= height
                    && p.data.len() == r.area(),
                "model {m}: strip {r:?} does not continue the tiling at row {next_row}"
            );
            // The plane holds rows 0..next_row: a strip at row 0 starts it,
            // and each strip below goes on its end.
            if r.y0 == 0 {
                plane = p.data;
            } else {
                plane.extend_from_slice(&p.data);
            }
            next_row = r.y1;
        }
        assert!(next_row == height, "model {m} not fully covered");
        maps.push(ScoreMap {
            width,
            height,
            data: plane,
        });
    }
    assert!(
        parts.next().is_none(),
        "a partial names a model past the {n_models} enrolled"
    );
    maps
}

/// The whole serial task: one chunk covering everything, then merge.
#[must_use]
pub fn target_detection(
    frame: &Frame,
    image_hist: &ColorHist,
    models: &[ColorHist],
    mask: &BitMask,
) -> Vec<ScoreMap> {
    let chunk = DetectChunk {
        region: frame.region(),
        model_lo: 0,
        model_hi: models.len(),
    };
    let partials = target_detection_chunk(frame, image_hist, models, mask, chunk);
    join_partials(frame.width, frame.height, models.len(), partials)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::image_histogram;

    fn red_square_frame() -> (Frame, Vec<ColorHist>) {
        let mut f = Frame::new(64, 48);
        // Gray background.
        for y in 0..48 {
            for x in 0..64 {
                f.set_pixel(x, y, [90, 90, 90]);
            }
        }
        // Red square at (40..52, 20..32).
        for y in 20..32 {
            for x in 40..52 {
                f.set_pixel(x, y, [220, 30, 30]);
            }
        }
        // Model: pure red patch.
        let mut patch = Frame::new(8, 8);
        for y in 0..8 {
            for x in 0..8 {
                patch.set_pixel(x, y, [220, 30, 30]);
            }
        }
        let model = ColorHist::of_region(&patch, patch.region());
        (f, vec![model])
    }

    #[test]
    fn detection_peaks_on_planted_target() {
        let (f, models) = red_square_frame();
        let hist = image_histogram(&f);
        let mask = BitMask::all_set(f.width, f.height);
        let maps = target_detection(&f, &hist, &models, &mask);
        assert_eq!(maps.len(), 1);
        let (x, y, score) = maps[0].argmax();
        assert!(score > 0.0);
        assert!((40..52).contains(&x), "x={x}");
        assert!((20..32).contains(&y), "y={y}");
    }

    #[test]
    fn motion_mask_suppresses_static_target() {
        let (f, models) = red_square_frame();
        let hist = image_histogram(&f);
        let empty = BitMask::new(f.width, f.height);
        let maps = target_detection(&f, &hist, &models, &empty);
        let (_, _, score) = maps[0].argmax();
        assert_eq!(score, 0.0, "nothing moving → nothing detected");
    }

    #[test]
    fn chunk_grid_shapes() {
        let chunks = detect_chunks(64, 48, 8, 4, 8);
        assert_eq!(chunks.len(), 32);
        let chunks = detect_chunks(64, 48, 8, 1, 8);
        assert_eq!(chunks.len(), 8);
        assert!(chunks.iter().all(|c| c.model_hi - c.model_lo == 1));
        // MP clamps to the model count.
        let chunks = detect_chunks(64, 48, 1, 1, 8);
        assert_eq!(chunks.len(), 1);
        // Uneven model split: 5 models over 2 → 3 + 2.
        let chunks = detect_chunks(64, 48, 5, 1, 2);
        assert_eq!(chunks[0].model_hi - chunks[0].model_lo, 3);
        assert_eq!(chunks[1].model_hi - chunks[1].model_lo, 2);
    }

    #[test]
    fn decomposed_detection_is_exact() {
        // Any FP × MP decomposition reproduces the serial result bit-for-bit
        // — the invariant that lets the splitter pick its decomposition
        // per regime without changing semantics.
        let (mut f, _) = red_square_frame();
        // A second, blue target.
        for y in 5..15 {
            for x in 5..15 {
                f.set_pixel(x, y, [20, 40, 210]);
            }
        }
        let mut patch = Frame::new(8, 8);
        for y in 0..8 {
            for x in 0..8 {
                patch.set_pixel(x, y, [20, 40, 210]);
            }
        }
        let models = vec![
            {
                let mut p = Frame::new(8, 8);
                for y in 0..8 {
                    for x in 0..8 {
                        p.set_pixel(x, y, [220, 30, 30]);
                    }
                }
                ColorHist::of_region(&p, p.region())
            },
            ColorHist::of_region(&patch, patch.region()),
        ];
        let hist = image_histogram(&f);
        let mask = BitMask::all_set(f.width, f.height);
        let serial = target_detection(&f, &hist, &models, &mask);
        for (fp, mp) in [(1, 2), (2, 1), (3, 2), (4, 2)] {
            let chunks = detect_chunks(f.width, f.height, models.len(), fp, mp);
            let partials: Vec<PartialScores> = chunks
                .iter()
                .flat_map(|&c| target_detection_chunk(&f, &hist, &models, &mask, c))
                .collect();
            let merged = merge_partials(f.width, f.height, models.len(), &partials);
            assert_eq!(merged, serial, "FP={fp} MP={mp} diverged");
        }
    }

    #[test]
    fn sliced_chunk_matches_scalar_exactly() {
        let (f, models) = red_square_frame();
        let hist = image_histogram(&f);
        // A structured motion mask (not all-set) so the mask word walk is
        // exercised on both bit values.
        let mut mask = BitMask::new(f.width, f.height);
        for y in 0..f.height {
            for x in 0..f.width {
                mask.set(x, y, (x / 3 + y / 2) % 2 == 0);
            }
        }
        for chunk in detect_chunks(f.width, f.height, models.len(), 3, 1) {
            let fast = target_detection_chunk(&f, &hist, &models, &mask, chunk);
            let slow = target_detection_chunk_scalar(&f, &hist, &models, &mask, chunk);
            assert_eq!(fast, slow);
        }
    }

    #[test]
    #[should_panic(expected = "not fully covered")]
    fn incomplete_merge_panics() {
        let (f, models) = red_square_frame();
        let hist = image_histogram(&f);
        let mask = BitMask::all_set(f.width, f.height);
        let chunks = detect_chunks(f.width, f.height, 1, 2, 1);
        let partials = target_detection_chunk(&f, &hist, &models, &mask, chunks[0]);
        let _ = merge_partials(f.width, f.height, 1, &partials);
    }

    /// Two models over the red-square frame, with a mask that leaves some
    /// rows empty and sets scattered pixels in the others.
    fn two_model_scene() -> (Frame, ColorHist, Vec<ColorHist>, BitMask) {
        let (f, mut models) = red_square_frame();
        models.push(ColorHist::of_region(
            &f,
            Region {
                x0: 0,
                y0: 0,
                x1: 16,
                y1: 16,
            },
        ));
        let hist = image_histogram(&f);
        let mut mask = BitMask::new(f.width, f.height);
        for y in (0..f.height).filter(|y| y % 5 != 0) {
            for x in 0..f.width {
                mask.set(x, y, (3 * x + y) % 4 == 0);
            }
        }
        (f, hist, models, mask)
    }

    #[test]
    fn models_only_join_moves_every_partial_into_its_map() {
        let (f, hist, models, mask) = two_model_scene();
        let partials: Vec<PartialScores> = detect_chunks(f.width, f.height, 2, 1, 2)
            .into_iter()
            .flat_map(|c| target_detection_chunk(&f, &hist, &models, &mask, c))
            .collect();
        let ptrs: Vec<*const f32> = partials.iter().map(|p| p.data.as_ptr()).collect();
        let maps = join_partials(f.width, f.height, 2, partials);
        for (m, ptr) in ptrs.into_iter().enumerate() {
            assert_eq!(maps[m].data.as_ptr(), ptr, "model {m}'s plane was copied");
        }
        assert_eq!(maps, target_detection(&f, &hist, &models, &mask));
    }

    #[test]
    fn strip_join_equals_the_merge_of_clones() {
        let (f, hist, models, mask) = two_model_scene();
        for (fp, mp) in [(2, 1), (3, 2), (5, 1)] {
            let partials: Vec<PartialScores> = detect_chunks(f.width, f.height, 2, fp, mp)
                .into_iter()
                .flat_map(|c| target_detection_chunk(&f, &hist, &models, &mask, c))
                .collect();
            let merged = merge_partials(f.width, f.height, 2, &partials);
            assert_eq!(join_partials(f.width, f.height, 2, partials), merged);
            assert_eq!(merged, target_detection(&f, &hist, &models, &mask));
        }
    }

    #[test]
    #[should_panic(expected = "does not continue the tiling")]
    fn duplicated_strip_with_a_missing_one_panics() {
        // Strip 0 twice and no strip 1: the same area as a full tiling, so a
        // check that only sums areas lets rows 36..72 through as zeros.
        let (f, hist, models, mask) = two_model_scene();
        let chunks = detect_chunks(f.width, f.height, 1, 2, 1);
        let mut partials = target_detection_chunk(&f, &hist, &models[..1], &mask, chunks[0]);
        partials.extend(partials.clone());
        let _ = merge_partials(f.width, f.height, 1, &partials);
    }

    #[test]
    fn ratio_lut_interpolates_ratio_histogram() {
        use crate::color::bin_of;
        // Model: pure red; image: mixture.
        let mut red = Frame::new(8, 8);
        for y in 0..8 {
            for x in 0..8 {
                red.set_pixel(x, y, [220, 30, 30]);
            }
        }
        let model = ColorHist::of_region(&red, red.region());
        let mut img = Frame::new(8, 8);
        for y in 0..8 {
            for x in 0..8 {
                img.set_pixel(x, y, if x < 4 { [220, 30, 30] } else { [30, 220, 30] });
            }
        }
        let image = ColorHist::of_region(&img, img.region());
        let lut = ratio_lut(&model, &image);
        let ratio = model.ratio(&image);
        // At the model color the LUT carries substantial mass (trilinear
        // smoothing of an isolated coarse bin attenuates the peak, but it
        // stays well above background), and it never exceeds the bin value.
        let got = lut[lut_index([220, 30, 30])];
        let want = ratio[bin_of([220, 30, 30])];
        assert!(
            got > 0.2 && got <= want + 1e-6,
            "got {got}, bin value {want}"
        );
        // Far from the model color, the LUT is near zero.
        assert!(lut[lut_index([30, 220, 30])] < 0.05);
        assert!(got > 10.0 * lut[lut_index([30, 220, 30])].max(1e-9));
        assert_eq!(lut.len(), LUT_SIZE * LUT_SIZE * LUT_SIZE);
    }

    #[test]
    fn per_pixel_back_projection_equals_the_table_at_every_colour() {
        // A model/image pair with many occupied bins, so interpolation
        // between unequal neighbours is exercised along all three axes.
        let scene = crate::synth::Scene::demo(64, 48, 2, 9);
        let model = &scene.models()[0];
        let image = image_histogram(&scene.render(1));
        let lut = ratio_lut(model, &image);
        let ratio = model.ratio(&image);
        let axis = axis_coords();
        let shift = 8 - LUT_BITS;
        for r in 0..LUT_SIZE as u8 {
            for g in 0..LUT_SIZE as u8 {
                for b in 0..LUT_SIZE as u8 {
                    // Low bits set: they must not reach the result.
                    let rgb = [(r << shift) | 3, (g << shift) | 1, (b << shift) | 2];
                    let got = back_project(&ratio, &axis, rgb);
                    assert_eq!(
                        got.to_bits(),
                        lut[lut_index(rgb)].to_bits(),
                        "colour {rgb:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn lut_index_covers_range() {
        assert_eq!(lut_index([0, 0, 0]), 0);
        assert_eq!(lut_index([255, 255, 255]), LUT_SIZE.pow(3) - 1);
        assert_ne!(lut_index([255, 0, 0]), lut_index([0, 0, 255]));
    }

    #[test]
    fn score_map_accessors() {
        let mut m = ScoreMap::new(4, 3);
        m.set(2, 1, 5.0);
        assert_eq!(m.get(2, 1), 5.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0, 0.0]);
        assert_eq!(m.argmax(), (2, 1, 5.0));
    }
}
