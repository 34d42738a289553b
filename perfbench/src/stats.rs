//! Order statistics of timing samples.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        0.5 * (s[mid - 1] + s[mid])
    }
}

/// The tail of a sample set: the highest percentile that still has at
/// least [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// Share of samples at or below `value`, in percent.
    pub percentile: f64,
    /// Samples strictly beyond it in the sorted order.
    pub beyond: usize,
    /// Samples taken.
    pub samples: usize,
}

/// Samples a reported tail must have beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The tail of `xs`, or `None` when fewer than `TAIL_BEYOND + 1` samples
/// exist (no sample then has enough beyond it).
pub fn tail(xs: &[f64]) -> Option<Tail> {
    if xs.len() <= TAIL_BEYOND {
        return None;
    }
    let s = sorted(xs);
    let k = s.len() - 1 - TAIL_BEYOND;
    Some(Tail {
        value: s[k],
        percentile: 100.0 * (k + 1) as f64 / s.len() as f64,
        beyond: s.len() - 1 - k,
        samples: s.len(),
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN timing sample"));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_of_one_hundred_samples_is_p90_with_ten_beyond() {
        // Reverse order: the function must sort.
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 100);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_needs_eleven_samples() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&eleven).unwrap();
        assert_eq!(t.value, 0.0);
        assert_eq!(t.beyond, 10);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_rises_with_sample_count() {
        let t = tail(&(0..1000).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 989.0);
    }
}
