//! Order statistics for the benchmark's reported timings.

/// Median of `xs` (mean of the middle pair for even lengths); `NaN` when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Minimum number of samples that must lie beyond a reported tail
/// percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile a sample of `xs` supports with at least
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in percent: `100 · rank / samples`.
    pub percentile: f64,
    /// The value at that percentile (nearest rank).
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// Picks the nearest-rank percentile at 1-based rank `n − 10`, the highest
/// rank with ten samples strictly above it. `None` when `xs` holds ten
/// samples or fewer, which support no tail at all.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND;
    Some(Tail { percentile: 100.0 * rank as f64 / n as f64, value: v[rank - 1], samples: n })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        // 34 devices (one Table-1 campaign): rank 24 of 34, p70.6.
        let xs: Vec<f64> = (1..=34).rev().map(f64::from).collect();
        let t = tail(&xs).expect("34 samples support a tail");
        assert_eq!(t.value, 24.0);
        assert_eq!(t.samples, 34);
        assert!((t.percentile - 100.0 * 24.0 / 34.0).abs() < 1e-12);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_of_a_large_fleet_is_a_high_percentile() {
        let xs: Vec<f64> = (0..20_000).map(f64::from).collect();
        let t = tail(&xs).expect("tail");
        assert_eq!(t.percentile, 99.95);
        assert_eq!(t.value, 19_989.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&eleven).expect("11 samples support rank 1");
        assert_eq!((t.value, t.samples), (0.0, 11));
    }
}
