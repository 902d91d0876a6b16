//! Order statistics for latency samples.

/// Percentiles a tail is reported at, highest first. No workload comes
/// near the 10,000 samples p99.9 would need, and a tail that switched
/// percentile between runs would not compare.
const TAIL_LADDER: [f64; 3] = [99.0, 90.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] that has at least ten samples
/// beyond it, or `None` when even the median has fewer than ten.
pub fn tail_percentile(samples: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|p| samples as f64 * (100.0 - p) / 100.0 >= 10.0)
}

/// Linear-interpolation quantile of `sorted` (ascending) at `p` percent.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 50.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// A latency distribution summarised as the median, the p90, and the
/// tail the sample count supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub samples: usize,
    pub p50: f64,
    pub p90: f64,
    /// Percentile of `tail`; `100` when fewer than ten samples lie beyond
    /// the median, in which case `tail` is the slowest sample.
    pub tail_pct: f64,
    pub tail: f64,
}

pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted(samples);
    let tail_pct = tail_percentile(s.len()).unwrap_or(100.0);
    Summary {
        samples: s.len(),
        p50: quantile(&s, 50.0),
        p90: quantile(&s, 90.0),
        tail_pct,
        tail: quantile(&s, tail_pct),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(1_000_000), Some(99.0));
    }

    #[test]
    fn quantiles_interpolate() {
        let s = sorted(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 50.0), 2.5);
        assert_eq!(quantile(&s, 100.0), 4.0);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn summary_falls_back_to_the_slowest_sample() {
        let few = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((few.tail_pct, few.tail), (100.0, 3.0));
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&many);
        assert_eq!(s.samples, 1000);
        assert!((s.p90 - 900.1).abs() < 1e-9);
        assert_eq!(s.tail_pct, 99.0);
        assert!((s.tail - 990.01).abs() < 1e-9);
    }
}
