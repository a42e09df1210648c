//! Numerically stable running moments.

/// Welford's online algorithm for count, mean, variance, min and max.
///
/// Every observation stream in BigHouse (per-metric samples, calibration
/// buffers, merged slave results) summarizes through this accumulator; it is
/// numerically stable for the long streams (10⁶–10⁹ observations) a
/// simulation produces, where a naive sum-of-squares would lose precision.
///
/// # Examples
///
/// ```
/// use bighouse_stats::RunningStats;
///
/// let mut stats = RunningStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     stats.push(x);
/// }
/// assert_eq!(stats.count(), 8);
/// assert_eq!(stats.mean(), 5.0);
/// assert!((stats.std_dev().powi(2) - 32.0 / 7.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

bighouse_json::json_struct!(RunningStats {
    count,
    mean,
    m2,
    min,
    max
});

impl RunningStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN; a NaN observation would silently poison every
    /// later estimate.
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "cannot record NaN observation");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no observations have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sample mean. Returns 0 for an empty accumulator.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (divides by `n - 1`).
    ///
    /// Returns 0 with fewer than two observations.
    #[must_use]
    pub(crate) fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// The sum of squared deviations from the mean, Σ(x − x̄)²: the
    /// numerator of both variances, read undivided by the stopping rule's
    /// screen.
    pub(crate) fn m2(&self) -> f64 {
        self.m2
    }

    /// Sample standard deviation (square root of the unbiased sample
    /// variance).
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Coefficient of variation C_v = σ/μ, the shape statistic BigHouse uses
    /// throughout (Table 1, Figure 8). Returns 0 when the mean is 0.
    #[must_use]
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std_dev() / self.mean.abs()
        }
    }

    /// Smallest observation, or `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.mean * self.count as f64
    }

    /// Merges another accumulator into this one (Chan et al. parallel
    /// update), as the parallel runner does when combining slave results.
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.count as f64 / total as f64;
        self.m2 += other.m2 + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.mean = new_mean;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Default for RunningStats {
    fn default() -> Self {
        RunningStats::new()
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut stats = RunningStats::new();
        for x in iter {
            stats.push(x);
        }
        stats
    }
}

impl Extend<f64> for RunningStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_sane() {
        let stats = RunningStats::new();
        assert!(stats.is_empty());
        assert_eq!(stats.mean(), 0.0);
        assert_eq!(stats.sample_variance(), 0.0);
        assert_eq!(stats.min(), None);
        assert_eq!(stats.max(), None);
    }

    #[test]
    fn single_observation() {
        let stats: RunningStats = [3.5].into_iter().collect();
        assert_eq!(stats.count(), 1);
        assert_eq!(stats.mean(), 3.5);
        assert_eq!(stats.sample_variance(), 0.0);
        assert_eq!(stats.min(), Some(3.5));
        assert_eq!(stats.max(), Some(3.5));
    }

    #[test]
    fn known_variance() {
        let stats: RunningStats = [1.0, 2.0, 3.0, 4.0, 5.0].into_iter().collect();
        assert_eq!(stats.mean(), 3.0);
        assert_eq!(stats.sample_variance(), 2.5);
        assert_eq!(stats.sum(), 15.0);
    }

    #[test]
    fn cv_matches_definition() {
        let stats: RunningStats = [1.0, 3.0].into_iter().collect();
        // mean 2, sample std sqrt(2).
        assert!((stats.cv() - (2.0f64).sqrt() / 2.0).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_sequential() {
        let all: Vec<f64> = (0..100).map(|i| (i as f64) * 0.37 % 7.0).collect();
        let (left, right) = all.split_at(37);
        let mut merged: RunningStats = left.iter().copied().collect();
        let other: RunningStats = right.iter().copied().collect();
        merged.merge(&other);
        let direct: RunningStats = all.iter().copied().collect();
        assert_eq!(merged.count(), direct.count());
        assert!((merged.mean() - direct.mean()).abs() < 1e-12);
        assert!((merged.sample_variance() - direct.sample_variance()).abs() < 1e-9);
        assert_eq!(merged.min(), direct.min());
        assert_eq!(merged.max(), direct.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut stats: RunningStats = [1.0, 2.0].into_iter().collect();
        let before = stats;
        stats.merge(&RunningStats::new());
        assert_eq!(stats, before);

        let mut empty = RunningStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn push_rejects_nan() {
        RunningStats::new().push(f64::NAN);
    }

    #[test]
    fn extend_adds_observations() {
        let mut stats = RunningStats::new();
        stats.extend([1.0, 2.0, 3.0]);
        assert_eq!(stats.count(), 3);
    }

    #[test]
    fn stability_with_large_offset() {
        // 10^9 offset with unit variance: naive sum-of-squares would explode.
        let offset = 1e9;
        let stats: RunningStats = (0..1000)
            .map(|i| offset + f64::from(i % 2 == 0) * 2.0 - 1.0)
            .collect();
        assert!((stats.sample_variance() - 1000.0 / 999.0).abs() < 1e-6);
    }
}
