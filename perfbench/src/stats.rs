//! Order statistics over runs, passes and request lists.

/// The `q`-quantile (nearest rank) of weighted values: the smallest value
/// at or below which lies at least `q` of the total weight. With unit
/// weights this is the ⌈q·n⌉-th smallest of n samples. Sorts in place.
pub fn weighted_quantile(values: &mut [(f64, f64)], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    values.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: f64 = values.iter().map(|v| v.1).sum();
    let mut below = 0.0;
    for &(value, weight) in values.iter() {
        below += weight;
        // The tolerance keeps q·n from overshooting an exact rank by one
        // rounding error.
        if below >= q * total * (1.0 - 1e-12) {
            return value;
        }
    }
    values[values.len() - 1].0
}

/// Median with the mean of the middle pair for even counts.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) gives them — the rule the benchmark's
/// acceptance check uses. A single value is its own quartiles.
pub fn quartiles(values: &mut [f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 1 {
        return (values[0], values[0]);
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        values[j - 1] + (values[j] - values[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median: the run-to-run spread.
pub fn spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    let (q1, q3) = quartiles(&mut v);
    let m = median(&mut v);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Geometric mean of positive values; 0 for an empty input.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0f64, 0u64);
    for v in values {
        sum += v.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_of_a_thousand_samples_leaves_ten_beyond() {
        let mut v: Vec<(f64, f64)> = (1..=1000).map(|i| (f64::from(i), 1.0)).collect();
        v.reverse();
        assert_eq!(990.0, weighted_quantile(&mut v, 0.99));
        assert_eq!(10, v.iter().filter(|s| s.0 > 990.0).count());
        assert_eq!(500.0, weighted_quantile(&mut v, 0.5));
        assert_eq!(1.0, weighted_quantile(&mut v, 0.0));
        assert_eq!(1000.0, weighted_quantile(&mut v, 1.0));
        assert_eq!(7.0, weighted_quantile(&mut [(7.0, 3.0)], 0.99));
    }

    #[test]
    fn weights_count_as_repeated_samples() {
        // 399 hits at 10 and one miss at 500: the miss is the top 0.25%.
        let mut v = vec![(500.0, 1.0), (10.0, 399.0)];
        assert_eq!(10.0, weighted_quantile(&mut v, 0.5));
        assert_eq!(10.0, weighted_quantile(&mut v, 0.99));
        assert_eq!(500.0, weighted_quantile(&mut v, 0.999));
        // The same as writing the samples out.
        let mut flat: Vec<(f64, f64)> = vec![(1.0, 1.0), (1.0, 1.0), (2.0, 1.0), (3.0, 1.0)];
        let mut packed = vec![(3.0, 1.0), (1.0, 2.0), (2.0, 1.0)];
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
            assert_eq!(
                weighted_quantile(&mut flat, q),
                weighted_quantile(&mut packed, q),
                "{q}"
            );
        }
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(2.5, median(&mut [4.0, 1.0, 3.0, 2.0]));
        assert_eq!(3.0, median(&mut [5.0, 1.0, 3.0]));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!((2.75, 8.25), quartiles(&mut v));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!((1.0, 3.0), quartiles(&mut [3.0, 1.0, 2.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!((0.75, 2.25), quartiles(&mut [1.0, 2.0]));
        assert_eq!(0.0, spread(&[7.0]));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_weighs_ratios_not_differences() {
        assert!((geomean([50.0, 500_000.0]) - 5000.0).abs() < 1e-6);
        assert_eq!(0.0, geomean([]));
        assert!((geomean([2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }
}
