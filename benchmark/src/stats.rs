//! Order statistics over timing samples. Every summary carries its sample
//! count, because a percentile without one cannot be judged.

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 { s[n / 2] } else { (s[n / 2 - 1] + s[n / 2]) / 2.0 })
}

/// Nearest-rank percentile (`q` in [0, 1]): the smallest sample with at
/// least `⌈q·n⌉` samples ≤ it, so every returned value was observed.
/// `None` when empty.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    Some(s[rank - 1])
}

/// Median, extremes and count of one metric's repeats.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// `None` when `xs` is empty.
    pub fn of(xs: &[f64]) -> Option<Summary> {
        let median = median(xs)?;
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Some(Summary { median, min, max, n: xs.len() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&xs, 0.99), Some(99.0));
        assert_eq!(percentile(&xs, 1.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0, 9.0], 0.95), Some(9.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn summary_carries_the_sample_count() {
        let s = Summary::of(&[2.0, 8.0, 4.0]).unwrap();
        assert_eq!(s, Summary { median: 4.0, min: 2.0, max: 8.0, n: 3 });
        assert_eq!(Summary::of(&[]), None);
    }
}
