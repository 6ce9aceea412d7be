//! Order statistics: the percentile rule of the latency metrics and the
//! quartile spread of the noise study.

/// Percentiles a tail may be reported at, highest first. p99 is the top:
/// one run yields 10^3..10^6 samples, and a higher percentile of so few
/// does not repeat between runs.
pub const TAIL_LADDER: [f64; 4] = [99.0, 95.0, 90.0, 75.0];

/// Samples a percentile must leave beyond itself to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] samples beyond it, as `(percentile, value)`; `None`
/// when even the lowest rung has fewer.
pub fn tail(sorted: &[u64]) -> Option<(f64, u64)> {
    TAIL_LADDER.iter().copied().find_map(|p| {
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        (sorted.len().saturating_sub(rank) >= MIN_BEYOND).then(|| (p, percentile(sorted, p)))
    })
}

/// Median and tail of a latency sample, in the sample's unit. With too
/// few samples for any rung (fewer than 40) no tail can be stated and the
/// median stands in for it: the maximum of a handful of ops is whatever
/// the host did to the unluckiest one.
pub struct Latency {
    pub samples: usize,
    pub p50: f64,
    pub tail_percentile: f64,
    pub tail: f64,
}

pub fn latency(samples: &mut [u64]) -> Latency {
    samples.sort_unstable();
    let p50 = percentile(samples, 50.0);
    let (tail_percentile, tail) = tail(samples).unwrap_or((50.0, p50));
    Latency { samples: samples.len(), p50: p50 as f64, tail_percentile, tail: tail as f64 }
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method), which is what the driver uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs().max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let s: Vec<u64> = (1..=1000).collect();
        // p99 of 1000 leaves exactly 10 beyond.
        assert_eq!(tail(&s), Some((99.0, 990)));
        let s: Vec<u64> = (1..=999).collect();
        // One fewer: p99 leaves 9, so the rule steps down to p95.
        assert_eq!(tail(&s), Some((95.0, 950)));
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(tail(&s), Some((90.0, 90)));
        let s: Vec<u64> = (1..=40).collect();
        assert_eq!(tail(&s), Some((75.0, 30)));
        let s: Vec<u64> = (1..=39).collect();
        assert_eq!(tail(&s), None);
    }

    #[test]
    fn latency_falls_back_to_the_median() {
        let mut s = vec![7, 3, 5, 9];
        let l = latency(&mut s);
        assert_eq!((l.samples, l.p50, l.tail_percentile, l.tail), (4, 5.0, 50.0, 5.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
    }
}
