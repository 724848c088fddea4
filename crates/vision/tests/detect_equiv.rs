//! Property test for the T4 kernel contract: the live
//! `target_detection_chunk` — back projection evaluated per masked pixel,
//! mask walked by word — is **bit-identical** to the dense oracle
//! `target_detection_chunk_scalar` (a `64³` table per model, one mask probe
//! per pixel) over randomized frame shapes, masks, model sets and
//! decompositions, and over every split that hands chunks unequal model
//! counts. Past eight models a chunk runs as several lane groups of
//! different widths.

use proptest::prelude::*;
use vision::detect::join_partials;
use vision::{
    detect_chunks, target_detection_chunk, target_detection_chunk_scalar, BitMask, ColorHist,
    DetectChunk, Frame, Region,
};

fn xorshift(seed: &mut u64) -> u64 {
    *seed ^= *seed << 13;
    *seed ^= *seed >> 7;
    *seed ^= *seed << 17;
    *seed
}

/// A frame of a few jittered palette colours: histogram bins hold many
/// pixels each, so model/image ratios land strictly between 0 and 1 and the
/// trilinear interpolation mixes unequal neighbours (uniform noise would
/// leave almost every ratio at 0 or 1).
fn palette_frame(w: usize, h: usize, mut seed: u64) -> Frame {
    seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let palette: Vec<[u8; 3]> = (0..5)
        .map(|_| xorshift(&mut seed).to_le_bytes())
        .map(|b| [b[1], b[3], b[5]])
        .collect();
    let mut f = Frame::new(w, h);
    for y in 0..h {
        for x in 0..w {
            let r = xorshift(&mut seed).to_le_bytes();
            let base = palette[r[0] as usize % palette.len()];
            let jitter = |c: u8, j: u8| c.wrapping_add(j % 24);
            f.set_pixel(
                x,
                y,
                [
                    jitter(base[0], r[1]),
                    jitter(base[1], r[2]),
                    jitter(base[2], r[3]),
                ],
            );
        }
    }
    f
}

/// `kind` 0: empty, 1: all set (padding bits included), 2: about half the
/// pixels, 3: about one pixel in thirty.
fn mask_of(kind: u8, w: usize, h: usize, mut seed: u64) -> BitMask {
    seed = seed.wrapping_mul(0xD134_2543_DE82_EF95) | 1;
    match kind {
        0 => BitMask::new(w, h),
        1 => BitMask::all_set(w, h),
        _ => {
            let one_in = if kind == 2 { 2 } else { 30 };
            let mut m = BitMask::new(w, h);
            for y in 0..h {
                for x in 0..w {
                    m.set(x, y, (xorshift(&mut seed) >> 33).is_multiple_of(one_in));
                }
            }
            m
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Widths below the box filter's half-window, widths that are not a
    /// multiple of 64 (mask words straddle rows), single-row frames, every
    /// mask kind, 1–17 models, any `(fp, mp)`: every chunk's planes equal
    /// the oracle's bit for bit.
    #[test]
    fn live_chunk_matches_dense_oracle_bitwise(
        w in prop_oneof![1usize..8, 8usize..150],
        h in 1usize..12,
        n_models in 1usize..18,
        fp in 1usize..5,
        mp in 1usize..9,
        mask_kind in 0u8..4,
        seed in 0u64..1_000_000,
    ) {
        let frame = palette_frame(w, h, seed);
        let image = ColorHist::of_region(&frame, frame.region());
        // Models: histograms of sub-regions of a sibling frame, so some of
        // their colours are present in the image and some are not.
        let sibling = palette_frame(w, h, seed / 2);
        let models: Vec<ColorHist> = (0..n_models)
            .map(|i| {
                let region = Region { x0: i % w, y0: i % h, x1: w, y1: h };
                ColorHist::of_region(if i % 2 == 0 { &frame } else { &sibling }, region)
            })
            .collect();
        let mask = mask_of(mask_kind, w, h, seed);
        for chunk in detect_chunks(w, h, n_models, fp.min(h), mp) {
            let live = target_detection_chunk(&frame, &image, &models, &mask, chunk);
            let oracle = target_detection_chunk_scalar(&frame, &image, &models, &mask, chunk);
            prop_assert_eq!(live.len(), oracle.len());
            for (l, o) in live.iter().zip(&oracle) {
                prop_assert_eq!((l.model, l.region), (o.model, o.region));
                let bits = |p: &[f32]| p.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
                prop_assert_eq!(
                    bits(&l.data), bits(&o.data),
                    "{}x{} models={} chunk={:?} mask_kind={}", w, h, n_models, chunk, mask_kind
                );
            }
        }
    }
}

fn bits(p: &[f32]) -> Vec<u32> {
    p.iter().map(|v| v.to_bits()).collect()
}

/// Every `(fp, mp)` that splits 1–17 models unevenly (past eight, one chunk
/// runs as two lane groups of different widths): each chunk's planes equal
/// the oracle's bit for bit, and so does the join. A model's scores in a row do not depend
/// on which strip or model range computed them, so one whole-frame oracle
/// plane per model serves every split.
#[test]
fn every_uneven_split_matches_the_oracle() {
    let (w, h, max_models) = (37, 9, 17);
    let frame = palette_frame(w, h, 11);
    let sibling = palette_frame(w, h, 5);
    let image = ColorHist::of_region(&frame, frame.region());
    let models: Vec<ColorHist> = (0..max_models)
        .map(|i| {
            let region = Region {
                x0: i % w,
                y0: i % h,
                x1: w,
                y1: h,
            };
            ColorHist::of_region(if i % 2 == 0 { &frame } else { &sibling }, region)
        })
        .collect();
    let mask = mask_of(2, w, h, 11);
    let whole = DetectChunk {
        region: frame.region(),
        model_lo: 0,
        model_hi: max_models,
    };
    let oracle = target_detection_chunk_scalar(&frame, &image, &models, &mask, whole);
    let mut splits = 0;
    for n in 1..=max_models {
        for mp in (2..n).filter(|mp| n % mp != 0) {
            for fp in 1..=4 {
                let mut partials = Vec::new();
                for chunk in detect_chunks(w, h, n, fp, mp) {
                    for p in target_detection_chunk(&frame, &image, &models[..n], &mask, chunk) {
                        let rows = &oracle[p.model].data[p.region.y0 * w..p.region.y1 * w];
                        assert_eq!(bits(&p.data), bits(rows), "n={n} fp={fp} {chunk:?}");
                        partials.push(p);
                    }
                }
                for (m, map) in join_partials(w, h, n, partials).iter().enumerate() {
                    let joined: Vec<f32> = (0..h).flat_map(|y| map.row(y).to_vec()).collect();
                    assert_eq!(
                        bits(&joined),
                        bits(&oracle[m].data),
                        "n={n} fp={fp} mp={mp}"
                    );
                }
                splits += 1;
            }
        }
    }
    assert!(splits > 100, "only {splits} splits exercised");
}
