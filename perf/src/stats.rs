//! Order statistics used for every reported timing.

/// Sort a sample in place (timings are never NaN).
pub fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are not NaN"));
}

/// 1-based nearest rank of percentile `p` (0 < p ≤ 100) in `n` samples.
pub fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending sample; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Number of samples strictly beyond the nearest rank of `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p).min(n)
}

/// A percentile is supported by the sample when at least ten samples lie
/// beyond it.
pub fn supported(n: usize, p: f64) -> bool {
    beyond(n, p) >= 10
}

/// Median (mean of the middle pair for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method); `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    sort(&mut v);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let q = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile distance as a share of the median; `None` when it cannot
/// be formed (fewer than two samples, or a zero median).
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 95.0), 10.0);
        assert_eq!(percentile(&v, 10.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        let one = [3.0];
        assert_eq!(percentile(&one, 95.0), 3.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p95 of 200 samples is rank 190: exactly ten beyond.
        assert_eq!(beyond(200, 95.0), 10);
        assert!(supported(200, 95.0));
        assert!(!supported(199, 95.0));
        // p99 needs a thousand.
        assert!(supported(1000, 99.0));
        assert!(!supported(999, 99.0));
        assert!(!supported(40, 95.0));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        assert_eq!(spread(&v), Some(1.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&[0.0, 0.0]), None);
    }
}
