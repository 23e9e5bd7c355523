//! Order statistics over per-quantum timings.

/// Quantile `q` in `[0, 1]` of `samples` by linear interpolation between
/// order statistics (the "type 7" rule of R and numpy). Panics on an empty
/// slice: a workload that timed nothing has no number to report.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let h = (sorted.len() - 1) as f64 * q;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

/// The lower decile: the benchmark's estimate of undisturbed quantum time.
/// On a shared host a neighbour can only add time to a quantum, so the low
/// tail repeats between runs where the mean and the median do not.
pub fn p10(samples: &[f64]) -> f64 {
    quantile(samples, 0.10)
}

/// Median.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Smallest of `samples` (min-of-N for repeated one-shot measurements).
pub fn min_of(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "min of no samples");
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// `(p50 − p10) / p10`: how far the typical quantum sat above the
/// undisturbed one — the run's own measure of neighbour interference.
pub fn disturbance(samples: &[f64]) -> f64 {
    let lo = p10(samples);
    (median(samples) - lo) / lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(median(&v), 3.0);
        // (n-1)q = 0.4 → 1 + 0.4·(2−1).
        assert!((p10(&v) - 1.4).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.1), 7.0);
    }

    #[test]
    fn p10_ignores_a_slow_tail() {
        let mut v: Vec<f64> = (0..100).map(|i| 10.0 + 0.001 * i as f64).collect();
        let clean = p10(&v);
        for x in v.iter_mut().skip(60) {
            *x *= 3.0; // a neighbour slows 40 % of the quanta
        }
        assert!((p10(&v) - clean).abs() < 1e-9);
        assert!(median(&v) > clean);
        assert!(disturbance(&v) > 0.0);
    }

    #[test]
    fn min_of_picks_the_smallest() {
        assert_eq!(min_of(&[3.0, 1.5, 2.0]), 1.5);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_input_is_a_bug() {
        p10(&[]);
    }
}
