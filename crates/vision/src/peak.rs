//! T5 — Peak Detection: the vertical half of the separable box filter plus
//! per-model argmax, producing the "Model Locations" channel that drives
//! DECface's gaze behaviour. Linear in the number of models, with a much
//! smaller constant than T4. Both halves run a row at a time: the running
//! sum is a slice add and a slice subtract per row, and the argmax looks
//! inside a row only when the row's maximum reaches the best so far. Cells
//! are still ranked in `(y, x)` order, so ties and plateaus resolve exactly
//! as a cell-by-cell scan would.

use crate::detect::{ScoreMap, HALF_WINDOW};

/// One detected target location.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ModelLocation {
    /// Which model (person) this is.
    pub model: usize,
    /// Peak x.
    pub x: usize,
    /// Peak y.
    pub y: usize,
    /// Peak response.
    pub score: f32,
    /// Whether the response clears the detection threshold — the per-frame
    /// people-count observation the regime detector consumes.
    pub detected: bool,
}

/// Vertical box filter (half-width [`HALF_WINDOW`]) followed by argmax, per
/// model. `min_score` is the absolute response threshold for `detected`.
#[must_use]
pub fn peak_detection(scores: &[ScoreMap], min_score: f32) -> Vec<ModelLocation> {
    scores
        .iter()
        .enumerate()
        .map(|(m, map)| {
            let (best, bbox) = peak_of(map);
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

/// The best filtered response of one map, and the bounding box
/// `(x0, x1, y0, y1)` of the cells achieving it: reporting the box center
/// de-biases plateau ties (a uniform blob's response plateaus across the
/// whole window overlap).
///
/// The running sum keeps one column total per pixel and slides a whole row
/// at a time: add row `y + HALF + 1`, drop row `y - HALF`, each a slice
/// add. The argmax is taken a row at a time in `(y, x)` order: a row whose
/// maximum falls short of `best` is passed over, and only a row that
/// reaches it is scanned for where that maximum lies.
fn peak_of(map: &ScoreMap) -> (f32, (usize, usize, usize, usize)) {
    let h = map.height;
    let mut best = f32::NEG_INFINITY;
    let mut bbox = (0usize, 0usize, 0usize, 0usize);
    let mut acc: Vec<f32> = vec![0.0; map.width];
    for y in 0..h.min(HALF_WINDOW + 1) {
        add_row(&mut acc, map.row(y));
    }
    for y in 0..h {
        let top = row_max(&acc);
        if top >= best {
            // The first and last cells of the row equal to its maximum. A
            // row of NaN alone has no maximum and ties nothing.
            if let (Some(x0), Some(x1)) = (
                acc.iter().position(|&a| a == top),
                acc.iter().rposition(|&a| a == top),
            ) {
                if top > best {
                    best = top;
                    bbox = (x0, x1, y, y);
                } else {
                    bbox.0 = bbox.0.min(x0);
                    bbox.1 = bbox.1.max(x1);
                    bbox.3 = y;
                }
            }
        }
        let add = y + HALF_WINDOW + 1;
        if add < h {
            add_row(&mut acc, map.row(add));
        }
        if y >= HALF_WINDOW {
            for (a, v) in acc.iter_mut().zip(map.row(y - HALF_WINDOW)) {
                *a -= v;
            }
        }
    }
    (best, bbox)
}

fn add_row(acc: &mut [f32], row: &[f32]) {
    for (a, v) in acc.iter_mut().zip(row) {
        *a += v;
    }
}

/// The largest value of `row` by `>`, NaN passed over (`-inf` for an empty
/// or all-NaN row). Eight running maxima, one per lane of a 256-bit
/// register, so the compares do not wait on each other. (Which zero comes
/// back would depend on the lanes if a row held both; a running sum that
/// starts at `+0.0` never yields `-0.0`.)
fn row_max(row: &[f32]) -> f32 {
    let mut lanes = [f32::NEG_INFINITY; 8];
    let mut blocks = row.chunks_exact(8);
    for block in &mut blocks {
        for (m, &v) in lanes.iter_mut().zip(block) {
            if v > *m {
                *m = v;
            }
        }
    }
    lanes
        .iter()
        .chain(blocks.remainder())
        .fold(f32::NEG_INFINITY, |m, &v| if v > m { v } else { m })
}

/// Count how many models were confidently detected — the state observation
/// for constrained dynamism ("the state corresponds to the number of people
/// currently interacting with the kiosk").
#[must_use]
pub fn detected_count(locations: &[ModelLocation]) -> u32 {
    locations.iter().filter(|l| l.detected).count() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_found_at_concentration() {
        let mut map = ScoreMap::new(40, 40);
        // A blob of mass around (30, 10).
        for y in 8..13 {
            for x in 28..33 {
                map.set(x, y, 1.0);
            }
        }
        let locs = peak_detection(&[map], 0.5);
        assert_eq!(locs.len(), 1);
        let l = locs[0];
        assert!(l.detected);
        assert!((26..=34).contains(&l.x), "x={}", l.x);
        assert!((6..=14).contains(&l.y), "y={}", l.y);
    }

    #[test]
    fn threshold_separates_detection_from_noise() {
        let mut strong = ScoreMap::new(20, 20);
        strong.set(5, 5, 10.0);
        let mut weak = ScoreMap::new(20, 20);
        weak.set(5, 5, 0.01);
        let locs = peak_detection(&[strong, weak], 1.0);
        assert!(locs[0].detected);
        assert!(!locs[1].detected);
        assert_eq!(detected_count(&locs), 1);
    }

    #[test]
    fn vertical_filter_sums_window() {
        // Mass 1.0 at y = 0..=2 of one column: peak response is 3 once the
        // window covers all three rows.
        let mut map = ScoreMap::new(4, 32);
        map.set(1, 0, 1.0);
        map.set(1, 1, 1.0);
        map.set(1, 2, 1.0);
        let locs = peak_detection(&[map], 0.0);
        assert_eq!(locs[0].x, 1);
        assert!((locs[0].score - 3.0).abs() < 1e-6);
    }

    #[test]
    fn empty_map_is_not_detected() {
        let map = ScoreMap::new(10, 10);
        let locs = peak_detection(&[map], 0.1);
        assert!(!locs[0].detected);
        assert_eq!(detected_count(&locs), 0);
    }

    #[test]
    fn per_model_results_are_independent() {
        // Maps larger than the vertical window so impulses localize exactly.
        let mut a = ScoreMap::new(40, 40);
        a.set(12, 20, 5.0);
        let mut b = ScoreMap::new(40, 40);
        b.set(30, 25, 5.0);
        let locs = peak_detection(&[a, b], 1.0);
        assert_eq!((locs[0].x, locs[0].y), (12, 20));
        assert_eq!((locs[1].x, locs[1].y), (30, 25));
        assert_eq!(locs[0].model, 0);
        assert_eq!(locs[1].model, 1);
    }
}
