//! Reducers: every reported number is a median over repetitions (or over
//! interleaved probe batches) with its inter-quartile spread, because on a
//! small shared host single runs wander while medians of repetitions hold.

/// A reduced metric: the median over `samples` per-repetition values and the
/// inter-quartile range as a share of that median.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reduced {
    pub value: f64,
    pub spread: f64,
    pub samples: usize,
}

impl Reduced {
    /// A value read once (an exact count, or a single traced run).
    pub fn single(value: f64) -> Reduced {
        Reduced {
            value,
            spread: 0.0,
            samples: 1,
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle values for an even count. 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`p` in 0..=100): the smallest value with at least
/// `p` percent of the samples at or below it. 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((v.len() as f64) * p / 100.0).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them, so the spread printed here is the one the
/// acceptance procedure computes. Needs two values; `(x, x)` for one.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => (0.0, 0.0),
        1 => (v[0], v[0]),
        _ => {
            let at = |i: usize| {
                let pos = (i * (n + 1)) as f64 / 4.0;
                let j = (pos.floor() as usize).clamp(1, n - 1);
                let frac = pos - j as f64;
                v[j - 1] + (v[j] - v[j - 1]) * frac
            };
            (at(1), at(3))
        }
    }
}

/// Inter-quartile range as a share of the median (0 when the median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// Median, spread and count of per-repetition values.
pub fn reduce(values: &[f64]) -> Reduced {
    Reduced {
        value: median(values),
        spread: spread(values),
        samples: values.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 190.0); // ten samples beyond it
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert_eq!(percentile(&[], 95.0), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let (q1, q3) = quartiles(&[20.0, 10.0]);
        assert!((q1 - 7.5).abs() < 1e-12 && (q3 - 22.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let (q1, q3) = quartiles(&[4.0, 1.0, 2.0]);
        assert!((q1 - 1.0).abs() < 1e-12 && (q3 - 4.0).abs() < 1e-12);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
        let r = reduce(&[2.0, 2.0, 2.0, 2.0]);
        assert_eq!((r.value, r.spread, r.samples), (2.0, 0.0, 4));
    }
}
