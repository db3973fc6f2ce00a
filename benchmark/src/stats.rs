//! Order statistics for latency samples and for repetitions of a metric.

/// The `q`-quantile (nearest rank) of `sorted`, which must be ascending
/// and non-empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` in place and returns its `q`-quantile; 0 when empty, so
/// a class a run never issued reports 0 rather than aborting the run.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    quantile_sorted(samples, q)
}

/// The tail of a latency sample: its 95th percentile, or — where there
/// are fewer than 200 samples — the highest percentile that still has ten
/// samples beyond it (never below the median). A p95 over the 35 passes an
/// evaluation repetition completes would be its second-slowest pass.
pub fn tail(samples: &mut [f64]) -> f64 {
    let q = (1.0 - 10.0 / samples.len().max(1) as f64).clamp(0.5, 0.95);
    quantile(samples, q)
}

/// Median with the mean of the two middle values for even counts (what
/// `statistics.median` gives, so our numbers match the driver's).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `(max − min) / median` over the repetitions of one metric.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    (hi - lo) / m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.50), 50.0);
        assert_eq!(quantile(&mut v, 0.95), 95.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(quantile(&mut [7.0], 0.95), 7.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
        // 20 samples: p95 is the 19th, leaving one sample beyond it.
        let mut w: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quantile(&mut w, 0.95), 19.0);
    }

    #[test]
    fn tail_is_p95_when_ten_samples_lie_beyond_it() {
        let mut many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&mut many), 950.0);
        let mut exactly: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&mut exactly), 190.0);
        // 40 samples: ten beyond the 30th.
        let mut few: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&mut few), 30.0);
        // Too few for any tail: the median.
        let mut tiny: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&mut tiny), 6.0);
        assert_eq!(tail(&mut []), 0.0);
    }

    #[test]
    fn median_of_repetitions_and_spread() {
        assert_eq!(median(&[5.0, 1.0, 9.0, 3.0, 7.0]), 5.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
        // One disturbed repetition moves the spread, not the median.
        assert_eq!(median(&[10.0, 10.0, 50.0, 10.0, 10.0]), 10.0);
        assert_eq!(spread(&[10.0, 10.0, 50.0, 10.0, 10.0]), 4.0);
        assert_eq!(spread(&[8.0, 10.0, 12.0]), 0.4);
        assert_eq!(spread(&[3.0]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
