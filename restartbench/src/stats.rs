//! Order statistics with the sample-count rule (noise rule 2) and one
//! query class per series (noise rule 1).
//!
//! A percentile `q` is printed only when at least ten samples lie beyond
//! it: `n * (1 - q) >= 10`. So a p50 needs 20 samples, a p90 100 and a
//! p99 1,000. A [`Series`] is named for the one class it measures at
//! construction and offers no way to merge another series in, so two
//! classes can never be pooled into one percentile.

/// Timings of exactly one operation class, in milliseconds.
#[derive(Debug, Clone)]
pub struct Series {
    class: &'static str,
    values: Vec<f64>,
}

impl Series {
    /// An empty series for `class`.
    pub fn new(class: &'static str) -> Series {
        Series {
            class,
            values: Vec::new(),
        }
    }

    /// Record one sample.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// Samples recorded.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// The `q` quantile (nearest rank), or an error when the series is too
    /// small to support it.
    pub fn percentile(&self, q: f64) -> Result<f64, String> {
        percentile(&self.values, q).map_err(|e| format!("{}: {e}", self.class))
    }
}

/// Fewest samples that support quantile `q`: ten samples beyond it.
pub fn min_samples(q: f64) -> usize {
    assert!((0.0..1.0).contains(&q), "quantile {q} outside [0, 1)");
    // The epsilon keeps 10 / (1 - 0.9) at 100 despite rounding.
    (10.0 / (1.0 - q) - 1e-9).ceil() as usize
}

/// Nearest-rank `q` quantile of `values`, refused below [`min_samples`].
pub fn percentile(values: &[f64], q: f64) -> Result<f64, String> {
    let need = min_samples(q);
    if values.len() < need {
        return Err(format!(
            "p{} needs at least {need} samples, have {}",
            q * 100.0,
            values.len()
        ));
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Ok(sorted[rank - 1])
}

/// Median of a handful of repetitions (set-up time, host ceilings). Not
/// a reported percentile, so no sample-count rule; empty input is 0.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_count_rule() {
        assert_eq!(min_samples(0.5), 20);
        assert_eq!(min_samples(0.9), 100);
        assert_eq!(min_samples(0.99), 1000);
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(percentile(&v, 0.9).is_err());
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9).unwrap(), 90.0);
        assert!(percentile(&v, 0.99).is_err());
        assert_eq!(percentile(&v, 0.5).unwrap(), 50.0);
        assert!(percentile(&v[..19], 0.5).is_err());
    }

    #[test]
    fn nearest_rank_ignores_input_order() {
        let mut v: Vec<f64> = (0..1000).map(|i| f64::from((i * 7919) % 1000)).collect();
        assert_eq!(percentile(&v, 0.99).unwrap(), 989.0);
        v.reverse();
        assert_eq!(percentile(&v, 0.99).unwrap(), 989.0);
    }

    #[test]
    fn refusals_name_the_class() {
        let mut probe = Series::new("probe");
        for i in 0..20 {
            probe.push(f64::from(i));
        }
        assert_eq!(probe.len(), 20);
        assert_eq!(probe.percentile(0.5).unwrap(), 9.0);
        assert!(probe.percentile(0.9).unwrap_err().starts_with("probe:"));
    }

    #[test]
    fn median_of_repetitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
