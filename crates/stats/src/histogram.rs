//! Mergeable fixed-bin histograms for space-efficient quantile estimation.
//!
//! BigHouse follows Chen & Kelton ("Quantile and histogram estimation", WSC
//! 2001): recording and sorting the full observation sequence to extract
//! quantiles would cost gigabytes, so each output metric instead populates a
//! histogram whose binning parameters are fixed during the calibration phase.
//! Because bins are fixed, histograms from different simulation slaves merge
//! bin-wise — the operation at the heart of the parallel runner's reduce step
//! (Figure 3 of the paper).

use crate::welford::RunningStats;

/// The binning scheme of a [`Histogram`]: `bins` equal-width bins covering
/// `[low, low + bins * width)`.
///
/// In a parallel simulation the master determines the spec during its
/// calibration phase and broadcasts it to every slave, so that all samples
/// land in compatible bins.
///
/// # Examples
///
/// ```
/// use bighouse_stats::HistogramSpec;
///
/// let spec = HistogramSpec::new(0.0, 0.5, 20).unwrap();
/// assert_eq!(spec.width() * spec.bins() as f64, 10.0);
/// ```
///
/// A spec is usually derived from a calibration sample:
///
/// ```
/// use bighouse_stats::HistogramSpec;
///
/// let sample: Vec<f64> = (0..1000).map(|i| i as f64 / 100.0).collect();
/// let spec = HistogramSpec::from_calibration_sample_with_bins(&sample, 1000).unwrap();
/// assert!(spec.low() <= 0.0 && spec.low() + spec.width() * 1000.0 >= 9.99);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSpec {
    low: f64,
    width: f64,
    bins: usize,
}

bighouse_json::json_struct!(HistogramSpec { low, width, bins });

/// Error constructing a [`HistogramSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HistogramSpecError {
    /// `width` was zero, negative, or non-finite.
    InvalidWidth,
    /// `bins` was zero.
    NoBins,
    /// `low` was non-finite.
    InvalidLow,
    /// The calibration sample was empty.
    EmptySample,
}

impl std::fmt::Display for HistogramSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HistogramSpecError::InvalidWidth => write!(f, "bin width must be finite and positive"),
            HistogramSpecError::NoBins => write!(f, "histogram needs at least one bin"),
            HistogramSpecError::InvalidLow => write!(f, "lower bound must be finite"),
            HistogramSpecError::EmptySample => {
                write!(f, "cannot derive a histogram spec from an empty sample")
            }
        }
    }
}

impl std::error::Error for HistogramSpecError {}

impl HistogramSpec {
    /// Default number of bins used when deriving a spec from a calibration
    /// sample. Chen & Kelton recommend on the order of hundreds-to-thousands
    /// of bins; 1000 keeps each histogram well under the paper's "less than
    /// 1 MB" footprint while giving ~0.1% quantile resolution in-range.
    const DEFAULT_BINS: usize = 1000;

    /// Fraction of the calibration sample's range added as padding on each
    /// side, to catch steady-state observations beyond the calibration
    /// extremes.
    const RANGE_PADDING: f64 = 0.5;

    /// Creates a spec with `bins` equal-width bins starting at `low`.
    ///
    /// # Errors
    ///
    /// Returns an error if `width` is not positive and finite, `bins` is
    /// zero, or `low` is not finite.
    pub fn new(low: f64, width: f64, bins: usize) -> Result<Self, HistogramSpecError> {
        if !width.is_finite() || width <= 0.0 {
            return Err(HistogramSpecError::InvalidWidth);
        }
        if bins == 0 {
            return Err(HistogramSpecError::NoBins);
        }
        if !low.is_finite() {
            return Err(HistogramSpecError::InvalidLow);
        }
        Ok(HistogramSpec { low, width, bins })
    }

    /// As [`Self::from_calibration_sample_with_bins`] with 1000 bins.
    ///
    /// # Errors
    ///
    /// Returns [`HistogramSpecError::EmptySample`] if `sample` is empty.
    pub(crate) fn from_calibration_sample(sample: &[f64]) -> Result<Self, HistogramSpecError> {
        Self::from_calibration_sample_with_bins(sample, Self::DEFAULT_BINS)
    }

    /// Derives a spec with `bins` bins from a calibration sample, padding
    /// the observed range by half its width on each side (clamped at zero
    /// below, since BigHouse metrics — times, powers — are non-negative
    /// when the sample is).
    ///
    /// # Errors
    ///
    /// Returns an error if `sample` is empty or `bins` is zero.
    pub fn from_calibration_sample_with_bins(
        sample: &[f64],
        bins: usize,
    ) -> Result<Self, HistogramSpecError> {
        let stats: RunningStats = sample.iter().copied().collect();
        let (Some(min), Some(max)) = (stats.min(), stats.max()) else {
            return Err(HistogramSpecError::EmptySample);
        };
        // Floor the range relative to the data's magnitude so a constant (or
        // near-constant) calibration sample still yields usable bins.
        let magnitude = max.abs().max(min.abs());
        let range = (max - min).max(magnitude * 1e-9).max(1e-12);
        let pad = range * Self::RANGE_PADDING;
        let mut low = min - pad;
        if min >= 0.0 && low < 0.0 {
            low = 0.0;
        }
        let high = max + pad;
        let width = (high - low) / bins as f64;
        Self::new(low, width, bins)
    }

    /// Lower edge of the first bin.
    #[must_use]
    pub fn low(&self) -> f64 {
        self.low
    }

    /// Bin width.
    #[must_use]
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Number of bins.
    #[must_use]
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Index of the bin containing `x`, or `None` if `x` falls outside
    /// `[low, high)`.
    #[must_use]
    pub(crate) fn bin_index(&self, x: f64) -> Option<usize> {
        if x < self.low {
            return None;
        }
        let idx = ((x - self.low) / self.width) as usize;
        (idx < self.bins).then_some(idx)
    }

    /// Lower edge of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i > bins`.
    #[must_use]
    pub(crate) fn bin_low(&self, i: usize) -> f64 {
        assert!(i <= self.bins, "bin index {i} out of range");
        self.low + self.width * i as f64
    }
}

/// A fixed-bin histogram with under/overflow tracking and exact moments.
///
/// Exact mean/variance are kept in a parallel [`RunningStats`] so that mean
/// estimates are not quantized by binning; bins serve quantile estimation
/// only, via linear interpolation inside the quantile's bin.
///
/// # Examples
///
/// ```
/// use bighouse_stats::{Histogram, HistogramSpec};
///
/// let spec = HistogramSpec::new(0.0, 0.01, 1000).unwrap();
/// let mut hist = Histogram::new(spec);
/// for i in 0..10_000 {
///     hist.record(i as f64 / 10_000.0 * 10.0); // uniform on [0, 10)
/// }
/// let p95 = hist.quantile(0.95).unwrap();
/// assert!((p95 - 9.5).abs() < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    spec: HistogramSpec,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    moments: RunningStats,
}

bighouse_json::json_struct!(Histogram {
    spec,
    counts,
    underflow,
    overflow,
    moments
});

impl Histogram {
    /// Creates an empty histogram with the given binning scheme.
    #[must_use]
    pub fn new(spec: HistogramSpec) -> Self {
        Histogram {
            counts: vec![0; spec.bins()],
            spec,
            underflow: 0,
            overflow: 0,
            moments: RunningStats::new(),
        }
    }

    /// The binning scheme.
    #[must_use]
    pub fn spec(&self) -> &HistogramSpec {
        &self.spec
    }

    /// Records one observation.
    ///
    /// Out-of-range observations are tallied as under/overflow; they still
    /// contribute to the exact moments, and quantile estimates account for
    /// them (an overflowed quantile clamps to the histogram's top edge).
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    pub fn record(&mut self, x: f64) {
        self.moments.push(x);
        match self.spec.bin_index(x) {
            Some(i) => self.counts[i] += 1,
            None if x < self.spec.low() => self.underflow += 1,
            None => self.overflow += 1,
        }
    }

    /// Total observations recorded, including under/overflow.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.moments.count()
    }

    /// Observations below the first bin.
    #[must_use]
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the last bin's upper edge.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Exact running moments of all recorded observations.
    #[must_use]
    pub fn moments(&self) -> &RunningStats {
        &self.moments
    }

    /// Exact sample mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.moments.mean()
    }

    /// Estimates the `q`-quantile by linear interpolation within its bin.
    ///
    /// Returns `None` when the histogram is empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile must be in [0, 1], got {q}"
        );
        let total = self.count();
        if total == 0 {
            return None;
        }
        let min = self.moments.min().expect("non-empty");
        let max = self.moments.max().expect("non-empty");
        let target = q * total as f64;
        let mut cumulative = self.underflow as f64;
        if target <= cumulative {
            // Quantile sits at/below the underflowed observations; the true
            // minimum (tracked exactly) is the tightest bounded answer.
            return Some(min);
        }
        for (i, &c) in self.counts.iter().enumerate() {
            let next = cumulative + c as f64;
            if target <= next && c > 0 {
                let frac = (target - cumulative) / c as f64;
                let interpolated = self.spec.bin_low(i) + frac * self.spec.width();
                // Bin interpolation can stray outside the observed range
                // (sparse bins); the exact extremes are tighter bounds.
                return Some(interpolated.clamp(min, max));
            }
            cumulative = next;
        }
        // Quantile is in the overflow region: clamp to the observed maximum.
        Some(max)
    }

    /// Estimated probability density at `x`: the containing bin's count
    /// divided by `total · bin_width`. Returns 0 outside the binned range
    /// or when the histogram is empty.
    ///
    /// Used for value-space quantile confidence intervals (Chen & Kelton):
    /// the sampling error of an estimated quantile in *value* units is the
    /// probability-space error divided by the density at the quantile.
    #[must_use]
    pub(crate) fn density_at(&self, x: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        match self.spec.bin_index(x) {
            Some(i) => self.counts[i] as f64 / (total as f64 * self.spec.width()),
            None => 0.0,
        }
    }

    /// Merges another histogram recorded under the **same spec**.
    ///
    /// This is the parallel runner's reduce step: slave histograms share the
    /// master-broadcast spec and combine bin-wise.
    ///
    /// # Panics
    ///
    /// Panics if the specs differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.spec, other.spec,
            "cannot merge histograms with different bin schemes"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.moments.merge(&other.moments);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_histogram(n: u64) -> Histogram {
        let spec = HistogramSpec::new(0.0, 0.01, 100).unwrap();
        let mut hist = Histogram::new(spec);
        for i in 0..n {
            hist.record(i as f64 / n as f64);
        }
        hist
    }

    #[test]
    fn spec_validation() {
        assert!(HistogramSpec::new(0.0, 0.0, 10).is_err());
        assert!(HistogramSpec::new(0.0, -1.0, 10).is_err());
        assert!(HistogramSpec::new(0.0, 1.0, 0).is_err());
        assert!(HistogramSpec::new(f64::NAN, 1.0, 10).is_err());
        assert!(HistogramSpec::new(0.0, 1.0, 10).is_ok());
    }

    #[test]
    fn spec_bin_index_edges() {
        let spec = HistogramSpec::new(1.0, 0.5, 4).unwrap(); // [1, 3)
        assert_eq!(spec.bin_index(1.0), Some(0));
        assert_eq!(spec.bin_index(1.49), Some(0));
        assert_eq!(spec.bin_index(1.5), Some(1));
        assert_eq!(spec.bin_index(2.99), Some(3));
        assert_eq!(spec.bin_index(3.0), None);
        assert_eq!(spec.bin_index(0.99), None);
    }

    #[test]
    fn spec_from_sample_covers_and_pads() {
        let sample = vec![10.0, 20.0, 15.0];
        let spec = HistogramSpec::from_calibration_sample(&sample).unwrap();
        assert!(spec.low() <= 5.0 + 1e-9);
        assert!(spec.low() + spec.width() * spec.bins() as f64 >= 25.0 - 1e-9);
        assert_eq!(spec.bins(), HistogramSpec::DEFAULT_BINS);
    }

    #[test]
    fn spec_from_nonnegative_sample_clamps_low_at_zero() {
        let sample = vec![0.1, 0.2, 0.3];
        let spec = HistogramSpec::from_calibration_sample(&sample).unwrap();
        assert!(
            spec.low() >= 0.0,
            "non-negative data must not get a negative low"
        );
        assert!(spec.low() < 0.05, "padding should reach (nearly) to zero");
    }

    #[test]
    fn spec_from_constant_sample_still_works() {
        let sample = vec![5.0; 100];
        let spec = HistogramSpec::from_calibration_sample(&sample).unwrap();
        assert!(spec.bin_index(5.0).is_some());
    }

    #[test]
    fn spec_from_empty_sample_errors() {
        assert_eq!(
            HistogramSpec::from_calibration_sample(&[]),
            Err(HistogramSpecError::EmptySample)
        );
    }

    #[test]
    fn quantiles_of_uniform_data() {
        let hist = uniform_histogram(100_000);
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99] {
            let est = hist.quantile(q).unwrap();
            assert!((est - q).abs() < 0.02, "quantile {q} estimated as {est}");
        }
    }

    #[test]
    fn quantile_of_empty_histogram_is_none() {
        let hist = Histogram::new(HistogramSpec::new(0.0, 1.0, 10).unwrap());
        assert_eq!(hist.quantile(0.5), None);
    }

    #[test]
    fn mean_is_exact_not_binned() {
        let spec = HistogramSpec::new(0.0, 10.0, 2).unwrap(); // very coarse bins
        let mut hist = Histogram::new(spec);
        hist.record(1.0);
        hist.record(2.0);
        assert_eq!(hist.mean(), 1.5);
    }

    #[test]
    fn overflow_and_underflow_tracked() {
        let spec = HistogramSpec::new(0.0, 1.0, 10).unwrap();
        let mut hist = Histogram::new(spec);
        hist.record(-5.0);
        hist.record(5.0);
        hist.record(100.0);
        assert_eq!(hist.underflow(), 1);
        assert_eq!(hist.overflow(), 1);
    }

    #[test]
    fn overflow_quantile_clamps_to_observed_max() {
        let spec = HistogramSpec::new(0.0, 1.0, 10).unwrap();
        let mut hist = Histogram::new(spec);
        for _ in 0..10 {
            hist.record(100.0);
        }
        assert_eq!(hist.quantile(0.99), Some(100.0));
    }

    #[test]
    fn underflow_quantile_clamps_to_observed_min() {
        let spec = HistogramSpec::new(0.0, 1.0, 10).unwrap();
        let mut hist = Histogram::new(spec);
        for _ in 0..10 {
            hist.record(-3.0);
        }
        hist.record(0.5);
        assert_eq!(hist.quantile(0.1), Some(-3.0));
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let spec = HistogramSpec::new(0.0, 0.01, 100).unwrap();
        let mut a = Histogram::new(spec);
        let mut b = Histogram::new(spec);
        let mut whole = Histogram::new(spec);
        for i in 0..1000 {
            let x = (i as f64 * 0.618_033_988_75).fract();
            whole.record(x);
            if i % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.quantile(0.5), whole.quantile(0.5));
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "different bin schemes")]
    fn merge_rejects_mismatched_specs() {
        let mut a = Histogram::new(HistogramSpec::new(0.0, 1.0, 10).unwrap());
        let b = Histogram::new(HistogramSpec::new(0.0, 2.0, 10).unwrap());
        a.merge(&b);
    }

    #[test]
    fn density_integrates_to_one() {
        let hist = uniform_histogram(100_000);
        // Uniform on [0,1) binned over [0,1): density ≈ 1 everywhere inside.
        for x in [0.1, 0.5, 0.9] {
            let d = hist.density_at(x);
            assert!((d - 1.0).abs() < 0.15, "density at {x}: {d}");
        }
        assert_eq!(hist.density_at(-1.0), 0.0);
        assert_eq!(hist.density_at(2.0), 0.0);
    }

    #[test]
    fn density_of_empty_histogram_is_zero() {
        let hist = Histogram::new(HistogramSpec::new(0.0, 1.0, 10).unwrap());
        assert_eq!(hist.density_at(0.5), 0.0);
    }

    #[test]
    fn quantile_extremes() {
        let hist = uniform_histogram(1000);
        assert!(hist.quantile(0.0).unwrap() <= 0.01);
        assert!(hist.quantile(1.0).unwrap() >= 0.99);
    }
}
