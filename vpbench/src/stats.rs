//! Order statistics for the benchmark's reported timings.
//!
//! Every percentile is taken by the nearest-rank rule and carries its
//! sample count and its *tail count*: the number of samples strictly
//! beyond the reported rank. A percentile is only trustworthy when its
//! tail holds at least [`MIN_TAIL`] samples.

/// Samples a reported percentile should have beyond it.
pub const MIN_TAIL: usize = 10;

/// A nearest-rank percentile with the counts that back it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the nearest rank.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond the reported rank.
    pub tail: usize,
}

impl Percentile {
    /// Whether at least [`MIN_TAIL`] samples lie beyond the rank.
    pub fn tail_ok(&self) -> bool {
        self.tail >= MIN_TAIL
    }
}

/// The `q`-quantile (`0 < q <= 1`) of `samples` by the nearest-rank rule:
/// the sample at rank `⌈q·n⌉` of the sorted list. `None` when empty.
pub fn percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        tail: n - rank,
    })
}

/// The median (nearest-rank 0.5 quantile); `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).map_or(f64::NAN, |p| p.value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        let p50 = percentile(&s, 0.5).unwrap();
        assert_eq!((p50.value, p50.samples, p50.tail), (5.0, 10, 5));
        let p90 = percentile(&s, 0.9).unwrap();
        assert_eq!((p90.value, p90.tail), (9.0, 1));
        assert_eq!(percentile(&s, 1.0).unwrap().value, 10.0);
        // Rank never drops below one.
        assert_eq!(percentile(&s, 0.0).unwrap().value, 1.0);
    }

    #[test]
    fn order_of_samples_does_not_matter() {
        let a = [3.0, 1.0, 2.0, 5.0, 4.0];
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&a, 0.5), percentile(&b, 0.5));
        assert_eq!(median(&a), 3.0);
    }

    #[test]
    fn p90_needs_a_hundred_samples_for_ten_in_its_tail() {
        let s99: Vec<f64> = (0..99).map(f64::from).collect();
        let p = percentile(&s99, 0.9).unwrap();
        assert_eq!(p.tail, 9);
        assert!(!p.tail_ok());
        let s100: Vec<f64> = (0..100).map(f64::from).collect();
        let p = percentile(&s100, 0.9).unwrap();
        assert_eq!((p.value, p.tail), (89.0, 10));
        assert!(p.tail_ok());
    }

    #[test]
    fn empty_input_has_no_percentile() {
        assert!(percentile(&[], 0.5).is_none());
        assert!(median(&[]).is_nan());
    }
}
