//! Order statistics for latency samples.

/// Nearest-rank percentile of an ascending-sorted sample; `p` in `(0, 1]`.
/// Panics on an empty sample: every caller has counted its samples first.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank `p` percentile position.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the figure is one or two outliers, not a tail.
pub const MIN_BEYOND: usize = 10;

/// The highest of the usual percentiles that `n` samples support, or
/// `None` when even the median has fewer than [`MIN_BEYOND`] beyond it.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.9, 0.5]
        .into_iter()
        .find(|&p| supports(n, p))
}

/// Whether `n` samples support reporting percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_BEYOND
}

pub fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("latencies are never NaN"));
}

/// A tail percentile that one scheduling hiccup cannot move: cut the
/// samples, in arrival order, into consecutive windows of `window`, take
/// percentile `p` of each full window, and return the median of those.
/// On this sandbox a load thread is now and then not scheduled for tens of
/// milliseconds; every request due in that gap is late, and on a short
/// run the overall p99 is then the size of the gap and nothing else. A
/// gap lands in one or two windows and the median across windows ignores
/// it. Falls back to the plain percentile when no window is full.
pub fn windowed_percentile(in_order: &[f64], window: usize, p: f64) -> f64 {
    let per_window: Vec<f64> = in_order
        .chunks_exact(window.max(1))
        .map(|chunk| {
            let mut sorted = chunk.to_vec();
            sort(&mut sorted);
            percentile(&sorted, p)
        })
        .collect();
    median(&per_window).unwrap_or_else(|| {
        let mut sorted = in_order.to_vec();
        sort(&mut sorted);
        percentile(&sorted, p)
    })
}

/// Median (mean of the middle pair for an even count) of an unsorted
/// sample; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sort(&mut sorted);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (exclusive method), so `compare` judges spread the way the driver does.
/// Needs at least two values.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    if samples.len() < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sort(&mut sorted);
    let n = sorted.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some([cut(1), cut(2), cut(3)])
}

/// Interquartile range as a share of the median.
pub fn relative_iqr(samples: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(samples)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), 50.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn a_tail_percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples leaves exactly 10 beyond; 999 leaves 9.
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert_eq!(highest_supported_percentile(1000), Some(0.99));
        assert_eq!(highest_supported_percentile(999), Some(0.95));
        assert_eq!(highest_supported_percentile(200), Some(0.95));
        assert_eq!(highest_supported_percentile(199), Some(0.9));
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
    }

    #[test]
    fn one_stall_moves_the_overall_p99_but_not_the_windowed_one() {
        // 5000 requests at 1 ms; a 60 ms stall makes 60 consecutive ones late.
        let mut in_order = vec![1.0; 5000];
        for (i, late) in in_order[2000..2060].iter_mut().enumerate() {
            *late = 60.0 - i as f64;
        }
        let mut sorted = in_order.clone();
        sort(&mut sorted);
        assert_eq!(percentile(&sorted, 0.99), 10.0);
        assert_eq!(windowed_percentile(&in_order, 1000, 0.99), 1.0);
        // Fewer samples than one window: the plain percentile.
        assert_eq!(windowed_percentile(&[3.0, 1.0, 2.0], 1000, 0.5), 2.0);
    }

    #[test]
    fn median_and_quartiles_match_pythons_statistics_module() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        assert_eq!(relative_iqr(&ten), Some(1.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
    }
}
