//! Order statistics the ledger reports: nearest-rank percentiles, medians
//! and the quartiles the benchmark driver uses to judge run-to-run spread.

/// Sorts a sample in place (total order; the ledger never produces NaN).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.total_cmp(b));
}

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least `p` of the sample at or below it. `p` is a fraction in `(0, 1]`.
/// Returns 0 for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) computes them — the rule the benchmark driver
/// applies to ten runs. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The highest of p50/p90/p99/p99.9 that still has at least ten samples
/// beyond it, as `(label, fraction)`; a percentile with fewer samples in
/// its tail is a guess, not a measurement.
pub fn highest_supported_percentile(samples: usize) -> (&'static str, f64) {
    [("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9)]
        .into_iter()
        .find(|&(_, p)| (samples as f64) * (1.0 - p) >= 10.0)
        .unwrap_or(("p50", 0.5))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.001), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 20.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn supported_percentile_needs_ten_samples_in_the_tail() {
        assert_eq!(highest_supported_percentile(16_000).0, "p99.9");
        assert_eq!(highest_supported_percentile(4_000).0, "p99");
        assert_eq!(highest_supported_percentile(999).0, "p90");
        assert_eq!(highest_supported_percentile(50).0, "p50");
    }
}
