//! Order statistics over measured samples.

/// Nearest-rank percentile: the smallest sample such that at least `p`
/// percent of all samples are at or below it. Order of `samples` does
/// not matter; `p` is clamped to `0..=100`.
///
/// # Panics
///
/// Panics on an empty sample set (every caller measures at least once).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample set");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 100.0) / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank median (the lower middle sample on even counts, so the
/// result is always a value that was actually measured).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Arithmetic mean; 0 for an empty set.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        // The classic worked example: 15, 20, 35, 40, 50.
        let s = [40.0, 15.0, 50.0, 35.0, 20.0];
        assert_eq!(percentile(&s, 5.0), 15.0);
        assert_eq!(percentile(&s, 30.0), 20.0);
        assert_eq!(percentile(&s, 40.0), 20.0);
        assert_eq!(percentile(&s, 50.0), 35.0);
        assert_eq!(percentile(&s, 100.0), 50.0);
        assert_eq!(percentile(&s, 0.0), 15.0);
    }

    #[test]
    fn median_is_a_measured_sample() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn p99_leaves_one_percent_above() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 99.0), 990.0);
        assert_eq!(s.iter().filter(|&&v| v > 990.0).count(), 10);
    }

    #[test]
    fn mean_of_nothing_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_percentile_panics() {
        percentile(&[], 50.0);
    }
}
