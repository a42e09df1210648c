//! Fixed-bin histograms for latency and timing telemetry.

/// A histogram with a fixed number of bins over a fixed range, sized once at
/// construction so [`observe`](FixedBinHistogram::observe) never allocates.
///
/// Bins are equal-width. Samples outside the range land in dedicated
/// underflow/overflow counters instead of being dropped, and the exact
/// min/max/sum/count are tracked so the mean is not a binning artifact.
/// `min`/`max` are `None` when no finite sample was recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedBinHistogram {
    /// Lower bound of the binned range.
    pub lo: f64,
    /// Upper bound of the binned range.
    pub hi: f64,
    /// Per-bin sample counts.
    pub bins: Vec<u64>,
    /// Samples below `lo`.
    pub underflow: u64,
    /// Samples at or above `hi`, plus non-finite samples.
    pub overflow: u64,
    /// Total samples, including under/overflow.
    pub count: u64,
    /// Sum of all finite samples.
    pub sum: f64,
    /// Smallest finite sample.
    pub min: Option<f64>,
    /// Largest finite sample.
    pub max: Option<f64>,
}

bighouse_json::json_struct!(FixedBinHistogram {
    lo,
    hi,
    bins,
    underflow,
    overflow,
    count,
    sum,
    min,
    max,
});

impl FixedBinHistogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is zero, the bounds are not finite, or `lo >= hi`.
    #[must_use]
    pub fn linear(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "bad bounds");
        FixedBinHistogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
            count: 0,
            sum: 0.0,
            min: None,
            max: None,
        }
    }

    /// Records one sample. O(1), allocation-free. Non-finite samples count
    /// toward overflow (they are telemetry, not statistics — nothing here
    /// should ever panic a run).
    #[inline]
    pub fn observe(&mut self, x: f64) {
        self.count += 1;
        if x.is_finite() {
            self.sum += x;
            self.min = Some(self.min.map_or(x, |m| m.min(x)));
            self.max = Some(self.max.map_or(x, |m| m.max(x)));
        }
        if !x.is_finite() || x >= self.hi {
            self.overflow += 1;
        } else if x < self.lo {
            self.underflow += 1;
        } else {
            let n = self.bins.len() as f64;
            let frac = (x - self.lo) / (self.hi - self.lo);
            let idx = ((frac * n) as usize).min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Mean of the recorded finite samples, or `None` when none was
    /// recorded. The non-finite count is not kept, so a histogram that saw
    /// any finite sample divides by `count`.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        let finite = if self.min.is_none() { 0 } else { self.count };
        (finite > 0).then(|| self.sum / finite as f64)
    }

    /// Merges another histogram of the **same shape** (bounds and bin
    /// count) into this one, bin-wise. Returns `false` (and changes
    /// nothing) when the shapes differ.
    pub fn merge(&mut self, other: &FixedBinHistogram) -> bool {
        let same_shape =
            self.lo == other.lo && self.hi == other.hi && self.bins.len() == other.bins.len();
        if !same_shape {
            return false;
        }
        for (slot, add) in self.bins.iter_mut().zip(&other.bins) {
            *slot += add;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum += other.sum;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_binning_places_samples() {
        let mut h = FixedBinHistogram::linear(0.0, 10.0, 10);
        h.observe(0.5);
        h.observe(9.99);
        h.observe(-1.0);
        h.observe(10.0);
        assert_eq!(h.bins[0], 1);
        assert_eq!(h.bins[9], 1);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow, 1);
        assert_eq!(h.count, 4);
    }

    #[test]
    fn non_finite_goes_to_overflow_not_panic() {
        let mut h = FixedBinHistogram::linear(0.0, 1.0, 4);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        assert_eq!(h.overflow, 2);
        assert_eq!(h.min, None);
        assert_eq!(h.mean(), None);
    }

    #[test]
    fn snapshot_round_trips_through_serde() {
        let mut h = FixedBinHistogram::linear(1e-3, 1e3, 12);
        for i in 1..100 {
            h.observe(f64::from(i) * 0.1);
        }
        let json = bighouse_json::to_string(&h);
        let back: FixedBinHistogram = bighouse_json::from_str(&json).unwrap();
        assert_eq!(back, h);
    }
}
