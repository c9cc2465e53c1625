//! Order statistics for round timings and latency samples.

/// First quartile, median and third quartile of `values`, computed the way
/// Python's `statistics.quantiles(values, n=4)` does (the exclusive method),
/// because that is the rule the acceptance check of this benchmark applies to
/// the spread between runs. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    if n == 1 {
        return (data[0], data[0], data[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Distance between the quartiles as a share of the median: the spread the
/// acceptance check holds against a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of an ascending sample.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A reported value, with the quartiles and the count of the per-round values
/// it was taken from printed beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub q1: f64,
    pub value: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// The median of per-round values.
    pub fn of(values: &[f64]) -> Summary {
        let (q1, value, q3) = quartiles(values);
        Summary {
            q1,
            value,
            q3,
            n: values.len(),
        }
    }

    /// The best of per-round values: the smallest, or the largest of a metric
    /// that is better when higher. What shares the box only ever adds time,
    /// so of a fixed number of rounds of identical work the best one is the
    /// closest to the undisturbed program (README, "How a timing is
    /// reported").
    pub fn best(values: &[f64], higher_is_better: bool) -> Summary {
        let best = if higher_is_better {
            values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        } else {
            values.iter().copied().fold(f64::INFINITY, f64::min)
        };
        Summary {
            value: best,
            ..Summary::of(values)
        }
    }

    /// A value measured once (counts, one-off probes).
    pub fn single(value: f64) -> Summary {
        Summary {
            q1: value,
            value,
            q3: value,
            n: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 90.0), 90);
        assert_eq!(percentile_sorted(&v, 100.0), 100);
        assert_eq!(percentile_sorted(&[7], 99.0), 7);
    }
}
