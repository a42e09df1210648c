//! The method of batch means — an alternative to lag spacing.
//!
//! BigHouse handles autocorrelation by *thinning* (keep every l-th
//! observation, §2.3); the classical alternative from the simulation
//! literature the paper cites (Conway; Pawlikowski's survey) is **batch
//! means**: partition the stream into contiguous batches, average each
//! batch, and treat the batch means as approximately independent. Neither
//! approach dominates — thinning discards data but gives clean marginal
//! quantiles, batch means keeps all data but only directly estimates the
//! mean. This module provides batch means for cross-checking BigHouse's
//! lag-spaced mean estimates.

use crate::confidence::z_value;

/// A batch-means accumulator with fixed batch size.
///
/// # Examples
///
/// ```
/// use bighouse_stats::BatchMeans;
///
/// let mut bm = BatchMeans::new(100);
/// let mut x = 0.0f64;
/// for _ in 0..10_000 {
///     x = (x + 0.754877666).fract();
///     bm.push(1.0 + x);
/// }
/// let (mean, half_width) = bm.estimate(0.95).unwrap();
/// assert!((mean - 1.5).abs() < 0.05);
/// assert!(half_width < 0.1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BatchMeans {
    batch_size: usize,
    current_sum: f64,
    current_count: usize,
    batch_means: Vec<f64>,
}

bighouse_json::json_struct!(BatchMeans {
    batch_size,
    current_sum,
    current_count,
    batch_means
});

impl BatchMeans {
    /// Minimum number of complete batches before an estimate is offered
    /// (below this the normal approximation on batch means is untrustworthy).
    const MIN_BATCHES: usize = 20;

    /// Creates an accumulator with the given batch size.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    #[must_use]
    pub fn new(batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be at least 1");
        BatchMeans {
            batch_size,
            current_sum: 0.0,
            current_count: 0,
            batch_means: Vec::new(),
        }
    }

    /// Adds one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "cannot record NaN observation");
        self.current_sum += x;
        self.current_count += 1;
        if self.current_count == self.batch_size {
            self.batch_means
                .push(self.current_sum / self.batch_size as f64);
            self.current_sum = 0.0;
            self.current_count = 0;
        }
    }

    /// Total observations in complete batches.
    #[must_use]
    pub fn observations(&self) -> u64 {
        (self.batch_means.len() * self.batch_size) as u64
    }

    /// The grand mean over complete batches.
    ///
    /// Returns `None` before the first batch completes.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.batch_means.is_empty() {
            return None;
        }
        Some(self.batch_means.iter().sum::<f64>() / self.batch_means.len() as f64)
    }

    /// The `(mean, confidence-half-width)` estimate at the given confidence
    /// level, treating batch means as i.i.d. normal.
    ///
    /// Returns `None` until 20 batches have completed.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < confidence < 1`.
    #[must_use]
    pub fn estimate(&self, confidence: f64) -> Option<(f64, f64)> {
        if self.batch_means.len() < Self::MIN_BATCHES {
            return None;
        }
        let n = self.batch_means.len() as f64;
        let mean = self.mean().expect("batches exist");
        let var = self
            .batch_means
            .iter()
            .map(|m| (m - mean) * (m - mean))
            .sum::<f64>()
            / (n - 1.0);
        let half = z_value(confidence) * (var / n).sqrt();
        Some((mean, half))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg_stream(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    #[test]
    fn no_estimate_before_min_batches() {
        let mut bm = BatchMeans::new(10);
        for x in lcg_stream(1, 10 * (BatchMeans::MIN_BATCHES - 1)) {
            bm.push(x);
        }
        assert_eq!(bm.batch_means.len(), BatchMeans::MIN_BATCHES - 1);
        assert!(bm.estimate(0.95).is_none());
        bm.push(1.0); // still mid-batch
        assert!(bm.estimate(0.95).is_none());
    }

    #[test]
    fn iid_estimate_is_accurate() {
        let mut bm = BatchMeans::new(100);
        for x in lcg_stream(2, 100_000) {
            bm.push(x);
        }
        let (mean, half) = bm.estimate(0.95).unwrap();
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        assert!(half < 0.01, "half-width {half}");
        // The true mean should be inside the interval (w.h.p.).
        assert!((mean - 0.5).abs() < 3.0 * half);
    }

    #[test]
    fn grand_mean_equals_overall_mean_of_complete_batches() {
        let data = lcg_stream(3, 1000);
        let mut bm = BatchMeans::new(100);
        for &x in &data {
            bm.push(x);
        }
        let direct: f64 = data.iter().sum::<f64>() / data.len() as f64;
        assert!((bm.mean().unwrap() - direct).abs() < 1e-12);
        assert_eq!(bm.observations(), 1000);
    }

    #[test]
    fn incomplete_batch_is_excluded() {
        let mut bm = BatchMeans::new(100);
        for x in lcg_stream(4, 150) {
            bm.push(x);
        }
        assert_eq!(bm.batch_means.len(), 1);
        assert_eq!(bm.observations(), 100);
    }

    #[test]
    fn autocorrelated_data_widens_interval() {
        // AR(1): batch means capture the inflated variance that naive
        // i.i.d. analysis on raw observations would miss.
        let noise = lcg_stream(5, 100_000);
        let mut bm_raw_like = BatchMeans::new(1); // effectively raw
        let mut bm_batched = BatchMeans::new(1000);
        let mut x = 0.5;
        for &e in &noise {
            x = 0.95 * x + 0.05 * e;
            bm_raw_like.push(x);
            bm_batched.push(x);
        }
        let (_, half_raw) = bm_raw_like.estimate(0.95).unwrap();
        let (_, half_batched) = bm_batched.estimate(0.95).unwrap();
        assert!(
            half_batched > half_raw * 2.0,
            "batched {half_batched} should be much wider than naive {half_raw}"
        );
    }

    #[test]
    #[should_panic(expected = "batch size must be at least 1")]
    fn zero_batch_size_rejected() {
        let _ = BatchMeans::new(0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        BatchMeans::new(10).push(f64::NAN);
    }
}
