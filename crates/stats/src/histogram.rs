//! The one mergeable histogram: log buckets for space-efficient quantiles.
//!
//! BigHouse follows Chen & Kelton ("Quantile and histogram estimation", WSC
//! 2001): recording and sorting the full observation sequence to extract
//! quantiles would cost gigabytes, so each output metric instead populates
//! a histogram, and histograms from different simulation slaves merge
//! bucket-wise — the reduce step of the parallel runner (Figure 3 of the
//! paper).
//!
//! One departure from the paper: the buckets are not fitted to a
//! calibration sample. They are fixed at one relative accuracy (as in
//! DDSketch, Masson et al., VLDB 2019, and HdrHistogram), so every
//! histogram has the same buckets, any two merge, and no master has to
//! choose and broadcast a scheme. Fitted linear bins put a high-C_v
//! stream's p50 more than 100 % away from the exact quantile of the kept
//! sample; these stay within one bucket of it (DESIGN.md, "One
//! log-bucketed histogram").

/// Mantissa bits a bucket index keeps: HdrHistogram's log-linear index on
/// the f64 bit pattern, 2^8 = 256 linear buckets an octave. A bucket's
/// width is at most 1/256 ≈ 0.39 % of its lower edge, within
/// γ − 1 ≈ 0.4 % for γ = (1 + a)/(1 − a) at a relative accuracy a = 0.2 %.
/// One shift per observation: an `ln` per observation cost a kept one
/// ~9 ns more on `fcfs_small` (DESIGN.md).
const SUB_BITS: u32 = 8;

/// Bits below a bucket index in an f64's bit pattern.
const SHIFT: u32 = 52 - SUB_BITS;

/// Buckets in 30 octaves: everything more than a factor of 2^30 ≈ 1.07e9
/// below the highest bucket in use is collapsed into the lowest bucket
/// kept, so a histogram never holds more than `SPAN + 1` buckets.
const SPAN: i32 = 30 << SUB_BITS;

/// The bucket of `x > 0`, infinity included.
#[inline]
fn bucket_index(x: f64) -> i32 {
    ((x.to_bits() - 1) >> SHIFT) as i32
}

/// Bucket `i`'s edges (lo, hi]: it holds the values above `lo` and at
/// most `hi`, and `hi` is `f64::MAX` for the top bucket, which holds
/// infinity too.
fn edges(i: i32) -> (f64, f64) {
    let edge = |i: i32| f64::from_bits((i as u64) << SHIFT);
    (edge(i), edge(i + 1).min(f64::MAX))
}

/// A log-bucketed histogram of non-negative observations.
///
/// - an exact bucket for 0.0, which waiting times and capping levels hit;
/// - 256 buckets an octave, each (lo, hi] with hi ≤ lo · (1 + 1/256), so a
///   value reported from a bucket is within γ − 1 ≈ 0.4 % of any value in
///   it (γ = 1.002/0.998);
/// - counts are dense between the lowest and highest bucket in use;
/// - all mass more than 30 octaves (a factor of ~1e9) below the highest
///   bucket in use is collapsed into one bucket. The rule depends on the
///   highest bucket alone, so recording a stream whole, or in parts merged
///   in any order, gives the same histogram, bit for bit.
///
/// It holds counts only: [`RunningStats`](crate::RunningStats) keeps the
/// exact moments beside it wherever a mean is wanted.
///
/// # Examples
///
/// ```
/// use bighouse_stats::Histogram;
///
/// let mut hist = Histogram::new();
/// for i in 0..10_000 {
///     hist.record(i as f64 / 10_000.0 * 10.0); // uniform on [0, 10)
/// }
/// let p95 = hist.quantile(0.95).unwrap();
/// assert!((p95 / 9.5 - 1.0).abs() < 0.005);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Histogram {
    /// Observations recorded, zeros included.
    count: u64,
    /// Observations equal to 0.0.
    zeros: u64,
    /// The bucket of `counts[0]`.
    offset: i32,
    /// Counts of buckets `offset..offset + counts.len()`: empty, or with
    /// both ends non-zero.
    counts: Vec<u64>,
}

bighouse_json::json_struct!(Histogram {
    count,
    zeros,
    offset,
    counts
});

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN or negative: every metric BigHouse measures is
    /// a time, a power or a fraction.
    #[inline]
    pub fn record(&mut self, x: f64) {
        assert!(
            x >= 0.0,
            "cannot record {x}: histogram observations are non-negative"
        );
        self.count += 1;
        if x == 0.0 {
            self.zeros += 1;
            return;
        }
        let index = bucket_index(x);
        match self
            .counts
            .get_mut(index.wrapping_sub(self.offset) as usize)
        {
            Some(count) => *count += 1,
            None => self.add_outside(index),
        }
    }

    /// Counts one observation in bucket `index`, which lies outside the
    /// buckets in use: widens the dense range to take it and collapses
    /// what falls more than [`SPAN`] below the new top.
    #[cold]
    fn add_outside(&mut self, index: i32) {
        let (low, top) = match self.top() {
            None => (index, index),
            Some(top) => {
                let top = top.max(index);
                (self.offset.min(index).max(top - SPAN), top)
            }
        };
        self.reshape(low, top);
        self.counts[(index.max(low) - low) as usize] += 1;
    }

    /// The highest bucket in use.
    fn top(&self) -> Option<i32> {
        let len = i32::try_from(self.counts.len()).ok()?;
        (len > 0).then(|| self.offset + len - 1)
    }

    /// Makes the dense range `low..=top`, folding every count below `low`
    /// into bucket `low`.
    fn reshape(&mut self, low: i32, top: i32) {
        let len = (top - low + 1) as usize;
        if low == self.offset || self.counts.is_empty() {
            self.offset = low;
            self.counts.resize(len, 0);
            return;
        }
        let mut counts = vec![0; len];
        for (index, &c) in (self.offset..).zip(&self.counts) {
            counts[(index.max(low) - low) as usize] += c;
        }
        self.offset = low;
        self.counts = counts;
    }

    /// Total observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Estimates the `q`-quantile: the bucket holding the ⌈q·n⌉-th smallest
    /// observation, interpolated linearly inside it (0.0 when that
    /// observation is a zero). The estimate lies in the same bucket as
    /// that order statistic, so within γ − 1 ≈ 0.4 % of it, unless the
    /// order statistic was collapsed ~1e9 below the maximum.
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
        if self.count == 0 {
            return None;
        }
        let target = q * self.count as f64;
        let mut cumulative = self.zeros as f64;
        if self.zeros > 0 && target <= cumulative {
            return Some(0.0);
        }
        for (index, &c) in (self.offset..).zip(&self.counts) {
            if c == 0 {
                continue;
            }
            let next = cumulative + c as f64;
            if target <= next {
                let frac = ((target - cumulative) / c as f64).max(0.0);
                let (low, high) = edges(index);
                return Some(low + frac * (high - low));
            }
            cumulative = next;
        }
        // Only a sum of counts rounded below `q·n` reaches here.
        self.top().map(|top| edges(top).1).or(Some(0.0))
    }

    /// Estimated probability density at `x`: the count of `x`'s bucket
    /// divided by `total · bucket_width`. Returns 0 at a zero (the exact
    /// zero bucket is an atom, with no width), outside the buckets in use,
    /// or when the histogram is empty.
    ///
    /// Used for value-space quantile confidence intervals (Chen & Kelton):
    /// the sampling error of an estimated quantile in *value* units is the
    /// probability-space error divided by the density at the quantile.
    #[must_use]
    pub(crate) fn density_at(&self, x: f64) -> f64 {
        if self.count == 0 || x <= 0.0 {
            return 0.0;
        }
        let index = bucket_index(x);
        match self.counts.get(index.wrapping_sub(self.offset) as usize) {
            Some(&c) => {
                let (low, high) = edges(index);
                c as f64 / (self.count as f64 * (high - low))
            }
            None => 0.0,
        }
    }

    /// Merges another histogram into this one: the parallel runner's
    /// reduce step, and the telemetry stitching of epochs and configs.
    /// Any two histograms merge, and the result does not depend on the
    /// order of the merges.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.zeros += other.zeros;
        let Some(other_top) = other.top() else {
            return;
        };
        let top = self.top().map_or(other_top, |top| top.max(other_top));
        let low = match self.top() {
            None => other.offset,
            Some(_) => self.offset.min(other.offset),
        }
        .max(top - SPAN);
        self.reshape(low, top);
        for (index, &c) in (other.offset..).zip(&other.counts) {
            self.counts[(index.max(low) - low) as usize] += c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_histogram(n: u64) -> Histogram {
        let mut hist = Histogram::new();
        for i in 0..n {
            hist.record(i as f64 / n as f64);
        }
        hist
    }

    #[test]
    fn the_constants_follow_from_the_accuracy() {
        // Every bucket is narrower than γ − 1 of its lower edge, and 30
        // octaves span more than 1e9.
        let gamma: f64 = 1.002 / 0.998;
        assert!(1.0 + 1.0 / f64::from(1 << SUB_BITS) < gamma);
        assert!(2f64.powi(SPAN >> SUB_BITS) > 1e9);
    }

    #[test]
    fn non_finite_goes_to_overflow_not_panic() {
        // Infinity, the one non-finite value a histogram takes (NaN is
        // refused), counts in the top bucket, with f64::MAX.
        let mut hist = Histogram::new();
        hist.record(1.0);
        hist.record(f64::INFINITY);
        hist.record(f64::MAX);
        assert_eq!(hist.count(), 3);
        assert_eq!(bucket_index(f64::INFINITY), bucket_index(f64::MAX));
        assert_eq!(hist.offset, bucket_index(f64::MAX) - SPAN);
        assert_eq!(hist.counts[0], 1, "1.0 collapses under f64::MAX");
        assert_eq!(hist.counts[SPAN as usize], 2);
        assert_eq!(hist.quantile(1.0), Some(f64::MAX));
    }

    #[test]
    fn snapshot_round_trips_through_serde() {
        let mut hist = Histogram::new();
        for i in 0..100 {
            hist.record(f64::from(i) * 0.1);
        }
        let json = bighouse_json::to_string(&hist);
        assert!(
            json.starts_with(r#"{"count":100,"zeros":1,"offset":"#),
            "{json}"
        );
        let back: Histogram = bighouse_json::from_str(&json).unwrap();
        assert_eq!(back, hist);
    }

    #[test]
    fn buckets_are_half_open_below() {
        for x in [1e-300, 0.3, 1.0, 1.5, 1e10, 1e300] {
            let i = bucket_index(x);
            let (low, high) = edges(i);
            assert!(low < x && x <= high, "{x} outside ({low}, {high}]");
            assert!(high / low - 1.0 <= 1.0 / 256.0);
            assert_eq!(bucket_index(high), i);
            assert_eq!(bucket_index(high * (1.0 + 1e-15)), i + 1);
        }
    }

    #[test]
    fn quantiles_of_uniform_data() {
        let hist = uniform_histogram(100_000);
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99] {
            let est = hist.quantile(q).unwrap();
            assert!(
                (est / q - 1.0).abs() < 0.005,
                "quantile {q} estimated as {est}"
            );
        }
    }

    #[test]
    fn quantile_of_empty_histogram_is_none() {
        assert_eq!(Histogram::new().quantile(0.5), None);
    }

    #[test]
    fn mean_is_exact_not_binned() {
        // The histogram holds counts only: an estimate's mean comes from the
        // exact moments kept beside it, its quantiles from the buckets.
        let (mut hist, mut moments) = (Histogram::new(), crate::RunningStats::new());
        for x in [1.3, 2.7] {
            hist.record(x);
            moments.push(x);
        }
        let est = crate::MetricEstimate::from_histogram("m", &moments, &hist, 0.95, &[0.5], 1, 2);
        assert_eq!(est.mean, 2.0);
        let median = est.quantiles[0].value;
        assert!(
            median != 1.3 && (median / 1.3 - 1.0).abs() < 0.004,
            "{median}"
        );
    }

    #[test]
    fn zeros_are_exact() {
        let mut hist = Histogram::new();
        for _ in 0..60 {
            hist.record(0.0);
        }
        for _ in 0..40 {
            hist.record(2.0);
        }
        assert_eq!(hist.quantile(0.0), Some(0.0));
        assert_eq!(hist.quantile(0.6), Some(0.0));
        let p70 = hist.quantile(0.7).unwrap();
        assert!((p70 / 2.0 - 1.0).abs() < 0.004, "{p70}");
        assert_eq!(hist.density_at(0.0), 0.0, "an atom has no density");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_observations_are_refused() {
        Histogram::new().record(-1e-300);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn nan_is_refused() {
        Histogram::new().record(f64::NAN);
    }

    #[test]
    fn mass_far_below_the_maximum_collapses_into_one_bucket() {
        let mut hist = Histogram::new();
        for x in [1e-5, 1e-3, 1.0] {
            hist.record(x);
        }
        assert_eq!(
            hist.counts.len(),
            1 + (bucket_index(1.0) - bucket_index(1e-5)) as usize
        );
        hist.record(1e7);
        // 1e-5 and 1e-3 both sit more than 1e9 below 1e7 now.
        assert_eq!(hist.counts.len(), SPAN as usize + 1);
        assert_eq!(hist.offset, bucket_index(1e7) - SPAN);
        assert_eq!(hist.counts[0], 2);
        assert_eq!(hist.count(), 4);
        // A new low value lands in the collapsed bucket too.
        hist.record(1e-300);
        assert_eq!(hist.counts[0], 3);
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for i in 0..1000 {
            let x = (i as f64 * 0.618_033_988_75).fract() * 10f64.powi(i % 13 - 3);
            whole.record(x);
            if i % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
        }
        let mut ba = b.clone();
        ba.merge(&a);
        a.merge(&b);
        assert_eq!(a, whole);
        assert_eq!(ba, whole);
    }

    #[test]
    fn density_integrates_to_one() {
        let hist = uniform_histogram(100_000);
        for x in [0.1, 0.5, 0.9] {
            let d = hist.density_at(x);
            assert!((d - 1.0).abs() < 0.15, "density at {x}: {d}");
        }
        assert_eq!(hist.density_at(-1.0), 0.0);
        assert_eq!(hist.density_at(2.0), 0.0);
    }

    #[test]
    fn density_at_a_quantile_reads_its_bucket() {
        // A quantile interpolated to its bucket's upper edge reads that
        // bucket's density, not its empty neighbour's.
        let mut hist = Histogram::new();
        for _ in 0..50 {
            hist.record(1.0);
        }
        for _ in 0..50 {
            hist.record(5.0);
        }
        let p50 = hist.quantile(0.5).unwrap();
        assert_eq!(p50, 1.0, "1.0 tops its bucket");
        assert_eq!(p50, edges(bucket_index(1.0)).1);
        assert!(hist.density_at(p50) > 0.0);
    }

    #[test]
    fn density_of_empty_histogram_is_zero() {
        assert_eq!(Histogram::new().density_at(0.5), 0.0);
    }

    #[test]
    fn quantile_extremes() {
        let hist = uniform_histogram(1000);
        assert_eq!(hist.quantile(0.0), Some(0.0));
        assert!(hist.quantile(1.0).unwrap() >= 0.999 * 0.996);
    }
}
