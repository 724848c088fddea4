//! Property test for the T5 kernel contract: the live row-wise
//! `peak_detection` — vertical running sum advanced a whole row at a time,
//! argmax taken per row — reports **bit-identical** `ModelLocation`s to the
//! column scan it replaced, kept here as the oracle. Maps are drawn from a
//! few small integer levels so plateaus and exact ties are the common case,
//! not the exception; heights at or below the half-window, single-column
//! maps and 1–8 maps per call are all in range.

use proptest::prelude::*;
use vision::detect::HALF_WINDOW;
use vision::{peak_detection, ModelLocation, ScoreMap};

/// The column scan `peak_detection` used before it went row-wise: a running
/// sum per column, every cell visited in `(y, x)` order, the first cell to
/// exceed `best` resetting the plateau box and every cell equal to it
/// widening the box.
fn peak_detection_column_scan(scores: &[ScoreMap], min_score: f32) -> Vec<ModelLocation> {
    scores
        .iter()
        .enumerate()
        .map(|(m, map)| {
            let w = map.width;
            let h = map.height;
            let mut best = f32::NEG_INFINITY;
            let mut bbox = (0usize, 0usize, 0usize, 0usize);
            let mut acc: Vec<f32> = vec![0.0; w];
            for y in 0..=HALF_WINDOW.min(h - 1) {
                for (x, a) in acc.iter_mut().enumerate() {
                    *a += map.get(x, y);
                }
            }
            for y in 0..h {
                for (x, a) in acc.iter().enumerate() {
                    if *a > best {
                        best = *a;
                        bbox = (x, x, y, y);
                    } else if *a == best {
                        bbox.0 = bbox.0.min(x);
                        bbox.1 = bbox.1.max(x);
                        bbox.3 = bbox.3.max(y);
                    }
                }
                let add = y + HALF_WINDOW + 1;
                if add < h {
                    for (x, a) in acc.iter_mut().enumerate() {
                        *a += map.get(x, add);
                    }
                }
                if y >= HALF_WINDOW {
                    for (x, a) in acc.iter_mut().enumerate() {
                        *a -= map.get(x, y - HALF_WINDOW);
                    }
                }
            }
            ModelLocation {
                model: m,
                x: (bbox.0 + bbox.1) / 2,
                y: (bbox.2 + bbox.3) / 2,
                score: best,
                detected: best >= min_score,
            }
        })
        .collect()
}

fn xorshift(seed: &mut u64) -> u64 {
    *seed ^= *seed << 13;
    *seed ^= *seed >> 7;
    *seed ^= *seed << 17;
    *seed
}

/// `kind` 0: all zero (one plateau over the whole map), 1: levels
/// {0, 1, 2} (ties everywhere), 2: a few isolated impulses on zero,
/// 3: arbitrary fractions (rounding in the running sum), 4: like 1 with
/// some cells `-0.0` and `-1.0`.
fn map_of(kind: u8, w: usize, h: usize, mut seed: u64) -> ScoreMap {
    seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut map = ScoreMap::new(w, h);
    for y in 0..h {
        for x in 0..w {
            let r = xorshift(&mut seed);
            let v = match kind {
                0 => 0.0,
                1 => (r % 3) as f32,
                2 => {
                    if r.is_multiple_of(17) {
                        5.0
                    } else {
                        0.0
                    }
                }
                3 => (r >> 40) as f32 / (1u64 << 20) as f32,
                _ => match r % 5 {
                    0 => -0.0,
                    1 => -1.0,
                    n => (n % 3) as f32,
                },
            };
            map.set(x, y, v);
        }
    }
    map
}

fn bits(locs: &[ModelLocation]) -> Vec<(usize, usize, usize, u32, bool)> {
    locs.iter()
        .map(|l| (l.model, l.x, l.y, l.score.to_bits(), l.detected))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn row_wise_peak_matches_column_scan_bitwise(
        w in prop_oneof![1usize..4, 4usize..40],
        h in prop_oneof![1usize..=HALF_WINDOW, (HALF_WINDOW + 1)..40],
        n_maps in 1usize..9,
        kind in 0u8..5,
        min_score in 0u32..12,
        seed in 0u64..1_000_000,
    ) {
        let maps: Vec<ScoreMap> = (0..n_maps)
            .map(|i| map_of((kind + i as u8) % 5, w, h, seed + i as u64))
            .collect();
        let min_score = min_score as f32;
        let live = peak_detection(&maps, min_score);
        let oracle = peak_detection_column_scan(&maps, min_score);
        prop_assert_eq!(bits(&live), bits(&oracle), "{}x{} kind={}", w, h, kind);
    }
}
