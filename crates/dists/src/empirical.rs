//! Empirical distributions: the heart of the BigHouse workload model.

use bighouse_des::SimRng;
use bighouse_json::{FromJson, ObjectWriter, ToJson, Value};

use crate::error::DistributionError;
use crate::traits::Distribution;

/// An empirically measured distribution, stored as a compact quantile table.
///
/// BigHouse workloads are "empirically measured distributions of arrival and
/// service times … represented via fine-grained histograms" (§2.2). We store
/// the equivalent inverse form — a table of `(q, value)` quantile points —
/// which supports O(log n) inverse-CDF sampling with linear interpolation
/// between adjacent points. The grid is uniform over the body of the
/// distribution and **geometrically refined toward q = 1**, because measured
/// service distributions are extremely heavy-tailed (Table 1's Shell has
/// C_v = 15: more than half the mean lives in the top 0.2% of the mass) and
/// a uniform grid would silently truncate that tail.
///
/// The paper's footprint claim holds: at the default resolution a
/// distribution serializes to tens of kilobytes, versus multi-gigabyte
/// event traces.
///
/// The declared [`Distribution::mean`]/[`Distribution::variance`] are the
/// *exact* moments of the sampler (the piecewise-linear quantile function),
/// so moment-based reasoning about simulations driven by this distribution
/// is self-consistent.
///
/// # Examples
///
/// ```
/// use bighouse_dists::{Distribution, Empirical};
///
/// let observations: Vec<f64> = (1..=1000).map(|i| i as f64 / 1000.0).collect();
/// let d = Empirical::from_samples(&observations)?;
/// assert!((d.mean() - 0.5).abs() < 0.01);
///
/// // Scaling models QPS load changes: "Load can be varied by scaling the
/// // inter-arrival distribution" (§3.1).
/// let slower = d.scaled(2.0)?;
/// assert!((slower.mean() - 1.0).abs() < 0.02);
/// # Ok::<(), bighouse_dists::DistributionError>(())
/// ```
///
/// A deserialized table is checked against the invariant below and its
/// moments are recomputed from its points, so a hand-edited file cannot
/// carry stale ones.
#[derive(Debug, Clone, PartialEq)]
pub struct Empirical {
    /// Quantile points `(q, value)`: `q` strictly ascending within [0, 1]
    /// (from 0 to 1 in every table this crate builds), values non-negative
    /// and non-decreasing. `mean` and `variance` are always
    /// `piecewise_linear_moments` of these points.
    points: Vec<(f64, f64)>,
    mean: f64,
    variance: f64,
}

impl ToJson for Empirical {
    fn write_json(&self, out: &mut String) {
        let Empirical {
            points,
            mean,
            variance,
        } = self;
        let mut object = ObjectWriter::new(out);
        object.field("points", points);
        object.field("mean", mean);
        object.field("variance", variance);
        object.end();
    }
}

impl FromJson for Empirical {
    /// Reads `points` alone: a written `mean` and `variance` are ignored
    /// and recomputed, and a table breaking the invariant is refused.
    fn from_json(value: &Value) -> Result<Self, bighouse_json::Error> {
        let points = bighouse_json::field(bighouse_json::object(value)?, "points")?;
        Self::from_table(points).map_err(bighouse_json::Error::invalid)
    }
}

impl Empirical {
    /// Number of uniform grid points over the body of the distribution.
    pub(crate) const DEFAULT_RESOLUTION: usize = 1024;

    /// Number of geometric refinement points in the upper tail.
    const TAIL_POINTS: usize = 64;

    /// The tail refinement starts where the uniform grid leaves off
    /// resolving, at `q = 1 - TAIL_START`.
    const TAIL_START: f64 = 2e-3;

    /// Builds an empirical distribution from raw observations at the
    /// default resolution.
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError::EmptySample`] for an empty slice,
    /// [`DistributionError::NonFiniteSample`] if any observation is NaN or
    /// infinite, or an error if any observation is negative.
    ///
    /// # Panics
    ///
    /// For more than `u32::MAX` observations.
    pub fn from_samples(samples: &[f64]) -> Result<Self, DistributionError> {
        Self::from_samples_with_resolution(samples, Self::DEFAULT_RESOLUTION)
    }

    /// Builds an empirical distribution with an explicit body resolution.
    ///
    /// # Errors
    ///
    /// As [`Empirical::from_samples`]; additionally errors if
    /// `resolution < 2`.
    pub(crate) fn from_samples_with_resolution(
        samples: &[f64],
        resolution: usize,
    ) -> Result<Self, DistributionError> {
        Self::tabulate_in_place(&mut samples.to_vec(), resolution)
    }

    /// As [`Empirical::from_samples`], tabulating the caller's buffer
    /// instead of a copy of it: a caller that fills one buffer per table
    /// (workload synthesis, trace characterization) builds each table
    /// without a second allocation. On success the buffer holds the same
    /// samples in an unspecified order; on error it is left as it was.
    ///
    /// # Errors
    ///
    /// As [`Empirical::from_samples`].
    ///
    /// # Panics
    ///
    /// As [`Empirical::from_samples`].
    pub fn from_samples_in_place(samples: &mut [f64]) -> Result<Self, DistributionError> {
        Self::tabulate_in_place(samples, Self::DEFAULT_RESOLUTION)
    }

    /// The one tabulation path: validate, select the order statistics the
    /// grid reads, and interpolate the grid's quantiles between them.
    fn tabulate_in_place(
        samples: &mut [f64],
        resolution: usize,
    ) -> Result<Self, DistributionError> {
        if samples.is_empty() {
            return Err(DistributionError::EmptySample);
        }
        if resolution < 2 {
            return Err(DistributionError::InvalidParameter {
                name: "resolution",
                value: resolution as f64,
                requirement: "must be at least 2",
            });
        }
        let mut keys = (u64::MAX, 0);
        for (index, &x) in samples.iter().enumerate() {
            if !x.is_finite() {
                return Err(DistributionError::NonFiniteSample {
                    index,
                    value: format!("{x}"),
                });
            }
            if x < 0.0 {
                return Err(DistributionError::InvalidParameter {
                    name: "sample",
                    value: x,
                    requirement: "must be non-negative",
                });
            }
            let key = order_key(x);
            keys = (keys.0.min(key), keys.1.max(key));
        }
        let n = samples.len();
        let grid = Self::grid(resolution, n);
        let ranks = ranks_read(&grid, n);
        let values = order_statistics(samples, keys, &ranks);
        let at = |rank: usize| values[ranks.binary_search(&rank).expect("a selected rank")];
        let quantile_of = |q: f64| -> f64 {
            let (lo, frac) = position(q, n);
            if lo + 1 < n {
                at(lo) * (1.0 - frac) + at(lo + 1) * frac
            } else {
                at(lo)
            }
        };
        let points: Vec<(f64, f64)> = grid.into_iter().map(|q| (q, quantile_of(q))).collect();
        Ok(Self::from_points(points))
    }

    /// The probability grid: uniform over `[0, 1 - TAIL_START]`, then
    /// geometrically refined toward 1 down to the sample's own resolution
    /// (`1/n`), ending exactly at 1.
    fn grid(resolution: usize, n_samples: usize) -> Vec<f64> {
        let mut grid: Vec<f64> = (0..resolution)
            .map(|i| i as f64 / (resolution - 1) as f64 * (1.0 - Self::TAIL_START))
            .collect();
        let floor = (1.0 / n_samples as f64).min(Self::TAIL_START / 2.0);
        let steps = Self::TAIL_POINTS;
        let ratio = (floor / Self::TAIL_START).powf(1.0 / steps as f64);
        let mut gap = Self::TAIL_START;
        for _ in 0..steps {
            gap *= ratio;
            grid.push(1.0 - gap);
        }
        grid.push(1.0);
        grid
    }

    fn from_points(mut points: Vec<(f64, f64)>) -> Self {
        // Enforce monotonicity in both coordinates (interpolation artifacts
        // can produce tiny inversions) and clamp values at zero.
        let mut prev_v = 0.0f64;
        for (_, v) in &mut points {
            if *v < prev_v {
                *v = prev_v;
            }
            prev_v = *v;
        }
        points.dedup_by(|a, b| a.0 == b.0);
        Self::with_moments(points)
    }

    /// Checks a quantile table read from a file against the invariant and
    /// wraps it with its moments.
    fn from_table(points: Vec<(f64, f64)>) -> Result<Self, DistributionError> {
        if points.is_empty() {
            return Err(DistributionError::EmptySample);
        }
        let mut prev = (f64::NEG_INFINITY, 0.0);
        for (index, &(q, v)) in points.iter().enumerate() {
            let requirement = if !q.is_finite() || !v.is_finite() {
                "must have a finite q and value"
            } else if !(0.0..=1.0).contains(&q) {
                "must have q in [0, 1]"
            } else if q <= prev.0 {
                "must have q above the previous point's"
            } else if v < prev.1 {
                "must have a non-negative value no less than the previous point's"
            } else {
                prev = (q, v);
                continue;
            };
            return Err(DistributionError::InvalidQuantileTable { index, requirement });
        }
        Ok(Self::with_moments(points))
    }

    /// Wraps points that already satisfy the invariant, with their moments.
    fn with_moments(points: Vec<(f64, f64)>) -> Self {
        let (mean, variance) = Self::piecewise_linear_moments(&points);
        Empirical {
            points,
            mean,
            variance,
        }
    }

    /// Exact mean and variance of the piecewise-linear inverse-CDF sampler.
    fn piecewise_linear_moments(points: &[(f64, f64)]) -> (f64, f64) {
        let mut mean = 0.0;
        let mut second = 0.0;
        for pair in points.windows(2) {
            let ((q0, a), (q1, b)) = (pair[0], pair[1]);
            let w = q1 - q0;
            mean += w * (a + b) / 2.0;
            second += w * (a * a + a * b + b * b) / 3.0;
        }
        (mean, (second - mean * mean).max(0.0))
    }

    /// The quantile points `(q, value)` backing this distribution.
    #[must_use]
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// The `q`-quantile of the represented distribution.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= q <= 1`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile must be in [0, 1], got {q}"
        );
        let idx = self.points.partition_point(|&(pq, _)| pq < q);
        if idx == 0 {
            return self.points[0].1;
        }
        if idx >= self.points.len() {
            return self.points[self.points.len() - 1].1;
        }
        let (q0, v0) = self.points[idx - 1];
        let (q1, v1) = self.points[idx];
        if q1 == q0 {
            return v1;
        }
        let frac = (q - q0) / (q1 - q0);
        v0 * (1.0 - frac) + v1 * frac
    }

    /// Returns a copy with every value multiplied by `factor` — BigHouse's
    /// load-scaling operation for inter-arrival distributions and slowdown
    /// scaling (S_CPU) for service distributions.
    ///
    /// # Errors
    ///
    /// Returns an error unless `factor` is finite and positive.
    pub fn scaled(&self, factor: f64) -> Result<Empirical, DistributionError> {
        if !factor.is_finite() || factor <= 0.0 {
            return Err(DistributionError::InvalidParameter {
                name: "factor",
                value: factor,
                requirement: "must be finite and positive",
            });
        }
        // The moments are recomputed rather than scaled, so that they stay
        // the function of the points a deserialized table recomputes.
        Ok(Self::with_moments(
            self.points.iter().map(|&(q, v)| (q, v * factor)).collect(),
        ))
    }
}

impl Distribution for Empirical {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        let u = rng.half_open01();
        self.quantile(u)
    }

    fn mean(&self) -> f64 {
        self.mean
    }

    fn variance(&self) -> f64 {
        self.variance
    }
}

/// Where `q` reads among `n` sorted samples: `frac` of the way from rank
/// `lo` to rank `lo + 1`.
fn position(q: f64, n: usize) -> (usize, f64) {
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    (lo, pos - lo as f64)
}

/// The ranks, ascending and distinct, that a table over `grid` reads among
/// `n` samples.
fn ranks_read(grid: &[f64], n: usize) -> Vec<usize> {
    let mut ranks: Vec<usize> = grid
        .iter()
        .flat_map(|&q| {
            let (lo, _) = position(q, n);
            [lo, (lo + 1).min(n - 1)]
        })
        .collect();
    ranks.sort_unstable();
    ranks.dedup();
    ranks
}

/// A sample's place in the order a table reads: `-0.0`, then `+0.0`, then
/// every finite positive double by value, as `f64::total_cmp` orders them.
/// The sign bit moves to the bottom and is inverted, so `-0.0` keys 0,
/// `+0.0` keys 1 and a positive double keys its bit pattern shifted up one,
/// plus 1. Equal keys are equal bits. Defined for finite non-negative
/// samples only.
fn order_key(x: f64) -> u64 {
    x.to_bits().rotate_left(1) ^ 1
}

/// At most `2^BUCKET_BITS` buckets count the samples for the selection.
const BUCKET_BITS: u32 = 16;

/// The samples counted into equal-width buckets of order keys that span
/// the samples' own `[min, max]`, so the count adapts to where the data
/// lies rather than to the keys' top bits.
struct Buckets {
    min: u64,
    shift: u32,
    /// `starts[b]` is the rank of bucket `b`'s first sample in sorted
    /// order, and the last entry is the sample count: one more entry than
    /// there are buckets.
    starts: Vec<u32>,
}

impl Buckets {
    /// Counts `samples`, whose order keys lie in `[min, max]`.
    ///
    /// # Panics
    ///
    /// For more than `u32::MAX` samples.
    fn count(samples: &[f64], (min, max): (u64, u64)) -> Self {
        assert!(
            u32::try_from(samples.len()).is_ok(),
            "cannot tabulate more than u32::MAX samples"
        );
        let shift = (64 - (max - min).leading_zeros()).saturating_sub(BUCKET_BITS);
        let mut buckets = Buckets {
            min,
            shift,
            starts: vec![0; ((max - min) >> shift) as usize + 2],
        };
        for &x in samples {
            let b = buckets.of(x);
            buckets.starts[b + 1] += 1;
        }
        for b in 1..buckets.starts.len() {
            buckets.starts[b] += buckets.starts[b - 1];
        }
        buckets
    }

    /// The bucket `x` counts in.
    fn of(&self, x: f64) -> usize {
        ((order_key(x) - self.min) >> self.shift) as usize
    }
}

/// The samples at `ranks` (ascending and distinct) of `samples` in
/// `f64::total_cmp` order, bit for bit, without sorting them all. `keys` is
/// the least and greatest [`order_key`] among the samples.
///
/// Counting the samples into [`Buckets`] gives each bucket's rank range, so
/// the buckets holding a wanted rank are known. Their samples are moved to
/// the front of the buffer and only that front is sorted; a rank's sample
/// then sits at its offset within its bucket, past the wanted buckets below
/// it. The buffer ends as the same samples in an unspecified order.
fn order_statistics(samples: &mut [f64], keys: (u64, u64), ranks: &[usize]) -> Vec<f64> {
    let buckets = Buckets::count(samples, keys);
    let starts = &buckets.starts;
    let mut wanted = vec![0u64; starts.len().div_ceil(64)];
    let mut b = 0;
    for &rank in ranks {
        while starts[b + 1] as usize <= rank {
            b += 1;
        }
        wanted[b / 64] |= 1 << (b % 64);
    }
    let is_wanted = |b: usize| wanted[b / 64] >> (b % 64) & 1 == 1;
    // Every sample in `front..i` is unwanted, so swapping unconditionally
    // and advancing `front` past a wanted one partitions without a branch
    // on the data.
    let mut front = 0;
    for i in 0..samples.len() {
        let x = samples[i];
        samples.swap(front, i);
        front += usize::from(is_wanted(buckets.of(x)));
    }
    let front = &mut samples[..front];
    front.sort_unstable_by_key(|&x| order_key(x));
    let mut values = Vec::with_capacity(ranks.len());
    let (mut b, mut below) = (0, 0);
    for &rank in ranks {
        while starts[b + 1] as usize <= rank {
            if is_wanted(b) {
                below += (starts[b + 1] - starts[b]) as usize;
            }
            b += 1;
        }
        values.push(front[below + rank - starts[b] as usize]);
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::test_support::{assert_moments_match, assert_samples_valid};
    use crate::{Exponential, HyperExponential};
    use bighouse_des::check::{cases, check, Gen};

    fn exponential_sample(n: usize, seed: u64) -> Vec<f64> {
        let d = Exponential::new(1.0).unwrap();
        let mut rng = SimRng::from_seed(seed);
        (0..n).map(|_| d.sample(&mut rng)).collect()
    }

    #[test]
    fn declared_moments_match_sampling() {
        let d = Empirical::from_samples(&exponential_sample(50_000, 81)).unwrap();
        assert_moments_match(&d, 200_000, 82, 0.03);
        assert_samples_valid(&d, 10_000, 83);
    }

    #[test]
    fn moments_approximate_source_sample() {
        let src = exponential_sample(100_000, 84);
        let n = src.len() as f64;
        let src_mean: f64 = src.iter().sum::<f64>() / n;
        let d = Empirical::from_samples(&src).unwrap();
        assert!(
            (d.mean() - src_mean).abs() / src_mean < 0.05,
            "empirical mean {} vs source {}",
            d.mean(),
            src_mean
        );
    }

    #[test]
    fn heavy_tail_mean_is_preserved() {
        // Shell-like service distribution: Cv = 15. Most of the mean lives
        // in the extreme tail; the geometric grid must capture it.
        let h2 = HyperExponential::from_mean_cv(0.046, 15.0).unwrap();
        let mut rng = SimRng::from_seed(89);
        let src: Vec<f64> = (0..400_000).map(|_| h2.sample(&mut rng)).collect();
        let src_mean = src.iter().sum::<f64>() / src.len() as f64;
        let d = Empirical::from_samples(&src).unwrap();
        let err = (d.mean() - src_mean).abs() / src_mean;
        assert!(
            err < 0.10,
            "heavy-tail mean error {err}: {} vs {src_mean}",
            d.mean()
        );
    }

    #[test]
    fn quantiles_of_uniform_source() {
        let src: Vec<f64> = (0..10_000).map(|i| i as f64 / 10_000.0).collect();
        let d = Empirical::from_samples(&src).unwrap();
        for q in [0.1, 0.5, 0.9, 0.95, 0.999] {
            assert!(
                (d.quantile(q) - q).abs() < 0.01,
                "q={q} -> {}",
                d.quantile(q)
            );
        }
    }

    /// The tabulation as it was before it selected ranks: a copy of the
    /// samples, stably sorted by `total_cmp`. Returns the table and the
    /// sorted copy.
    fn stable_sort_tabulation(samples: &[f64], resolution: usize) -> (Empirical, Vec<f64>) {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let quantile_of = |q: f64| -> f64 {
            let pos = q * (sorted.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let frac = pos - lo as f64;
            if lo + 1 < sorted.len() {
                sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac
            } else {
                sorted[lo]
            }
        };
        let grid = Empirical::grid(resolution, sorted.len());
        let points = grid.into_iter().map(|q| (q, quantile_of(q))).collect();
        (Empirical::from_points(points), sorted)
    }

    /// Every bit of a table: its points, mean and variance.
    fn table_bits(d: &Empirical) -> (Vec<[u64; 2]>, [u64; 2]) {
        let points = d.points().iter().map(|&(q, v)| [q.to_bits(), v.to_bits()]);
        (
            points.collect(),
            [d.mean().to_bits(), d.variance().to_bits()],
        )
    }

    #[test]
    fn in_place_tabulation_matches_the_stable_sort() {
        for case in 0..u64::from(cases(64)) {
            let mut rng = SimRng::from_seed(0x7AB_0000 ^ case);
            let mut below = |n: u64| rng.raw_u64() % n;
            let resolution = 2 + below(4095) as usize;
            let n = 1 + below(100_000) as usize;
            let family = below(4);
            // 0: none; 1: a sprinkling; 2: about half the samples.
            let specials = below(3) as usize;
            let mut samples: Vec<f64> = match family {
                0 => {
                    let d = Exponential::new(1.0).unwrap();
                    (0..n).map(|_| d.sample(&mut rng)).collect()
                }
                // Pareto, x_m = 1e-3 and α = 2.1, by inversion.
                1 => (0..n)
                    .map(|_| 1e-3 * rng.open01().powf(-1.0 / 2.1))
                    .collect(),
                // A handful of distinct values: long runs of ties.
                2 => (0..n).map(|_| (rng.raw_u64() % 4) as f64).collect(),
                _ => vec![0.25; n],
            };
            let sprinkled = [0, n / 16, n / 2][specials];
            for _ in 0..sprinkled {
                let at = (rng.raw_u64() % n as u64) as usize;
                let subnormal = f64::from_bits(1 + rng.raw_u64() % ((1 << 52) - 1));
                samples[at] = [-0.0, 0.0, subnormal, f64::MIN_POSITIVE][rng.raw_u64() as usize % 4];
            }
            let what = format!(
                "case {case}: family {family}, n {n}, resolution {resolution}, {sprinkled} zeros and subnormals"
            );

            let (expected, sorted) = stable_sort_tabulation(&samples, resolution);
            let copied = Empirical::from_samples_with_resolution(&samples, resolution).unwrap();
            let mut buffer = samples;
            let in_place = Empirical::tabulate_in_place(&mut buffer, resolution).unwrap();
            assert_eq!(table_bits(&in_place), table_bits(&expected), "{what}");
            assert_eq!(table_bits(&copied), table_bits(&expected), "{what}");
            assert_eq!(
                bit_multiset(&buffer),
                bit_multiset(&sorted),
                "{what}: the buffer lost or changed a sample"
            );
        }
    }

    /// The samples' bit patterns, sorted: equal for two buffers that hold
    /// the same samples bit for bit, in whatever order.
    fn bit_multiset(samples: &[f64]) -> Vec<u64> {
        let mut bits: Vec<u64> = samples.iter().map(|x| x.to_bits()).collect();
        bits.sort_unstable();
        bits
    }

    #[test]
    fn the_buffer_is_kept_on_error_and_permuted_on_success() {
        let mut buffer = vec![3.0, 1.0, -2.0, 0.5];
        assert!(Empirical::from_samples_in_place(&mut buffer).is_err());
        assert_eq!(buffer, [3.0, 1.0, -2.0, 0.5]);
        let mut buffer = vec![3.0, -0.0, 1.0, 0.0];
        Empirical::from_samples_in_place(&mut buffer).unwrap();
        assert_eq!(bit_multiset(&buffer), bit_multiset(&[3.0, -0.0, 1.0, 0.0]));
    }

    /// The sample whose [`order_key`] is `key`.
    fn keyed(key: u64) -> f64 {
        f64::from_bits((key ^ 1).rotate_right(1))
    }

    /// `2^k` for `k` in `-1074..=1023`, subnormal below `-1022`.
    fn pow2(k: i32) -> f64 {
        if k < -1022 {
            f64::from_bits(1 << (k + 1074))
        } else {
            f64::from_bits(((k + 1023) as u64) << 52)
        }
    }

    /// Samples that stress the bucketing, and what they are.
    fn adversarial_samples(g: &mut Gen) -> (Vec<f64>, &'static str) {
        let spread = |g: &mut Gen, n: std::ops::Range<usize>, centre: f64| {
            g.vec(n, |g| centre * g.range(0.5..2.0))
        };
        match g.range(0..9) {
            0 => {
                let mut samples = spread(g, 1..5000, 1.0);
                let at = g.range(0..samples.len());
                samples[at] = 1e300;
                (samples, "one 1e300 among values near 1")
            }
            1 => {
                let mut samples = spread(g, 1..5000, 1e6);
                let at = g.range(0..samples.len());
                samples[at] = f64::from_bits(g.range(1..1 << 52));
                (samples, "one subnormal among values near 1e6")
            }
            2 => {
                let x = g.range(0.0..1e6);
                (vec![x; g.range(1..5000)], "all equal")
            }
            3 => {
                let zeros = g.vec(1..5000, |g| if g.any() { 0.0 } else { -0.0 });
                (zeros, "only ±0.0")
            }
            4 => {
                let any = |g: &mut Gen| keyed(g.range(0..order_key(f64::MAX) / 2) * 2 + 1);
                (g.vec(1..4, any), "n in {1, 2, 3}")
            }
            5 => {
                let powers = g.vec(1..5000, |g| pow2(g.range(-1074..1024)));
                (powers, "2^k across the exponent range")
            }
            6 => {
                let n = (1 << 16) - 2 + g.range(0..5);
                (spread(g, n..n + 1, 1.0), "n next to 2^16")
            }
            7 => {
                // Keys `min + m 2^shift`, a bucket's first, and two below,
                // its predecessor's last; `max` sets the width to
                // `BUCKET_BITS + shift` bits, so the shift is `shift`.
                let shift = g.range(1..47);
                let min = order_key(g.range(1e-300..1.0));
                let max = min + (((1 << BUCKET_BITS) - 1) << shift);
                let edges = g.vec(1..64, |g| {
                    let edge = min + (g.range(0..1u64 << BUCKET_BITS) << shift);
                    edge.saturating_sub(2 * g.range(0..2)).clamp(min, max)
                });
                let mut keys = g.vec(1..5000, |g| edges[g.range(0..edges.len())]);
                keys.extend([min, max]);
                assert_eq!(
                    Buckets::count(
                        &keys.iter().map(|&k| keyed(k)).collect::<Vec<_>>(),
                        (min, max)
                    )
                    .shift,
                    shift
                );
                (
                    keys.into_iter().map(keyed).collect(),
                    "ties on bucket edges",
                )
            }
            _ => {
                let d = Exponential::new(1.0).unwrap();
                let mut rng = SimRng::from_seed(g.any());
                let n = g.range(1..100_000);
                ((0..n).map(|_| d.sample(&mut rng)).collect(), "exponential")
            }
        }
    }

    #[test]
    fn selection_matches_a_full_sort_at_every_rank() {
        check("selection_matches_a_full_sort_at_every_rank", 64, |g| {
            let (samples, what) = adversarial_samples(g);
            let n = samples.len();
            let mut sorted = samples.clone();
            sorted.sort_by(f64::total_cmp);
            let ranks = match g.range(0..3) {
                0 => (0..n).collect(),
                1 => ranks_read(&Empirical::grid(g.range(2..4097), n), n),
                _ => {
                    let mut ranks = g.vec(1..64, |g| g.range(0..n));
                    ranks.sort_unstable();
                    ranks.dedup();
                    ranks
                }
            };
            let keys = samples.iter().map(|&x| order_key(x));
            let keys = (keys.clone().min().unwrap(), keys.max().unwrap());
            let counters = Buckets::count(&samples, keys).starts.len();
            assert!(
                counters <= (1 << BUCKET_BITS) + 1,
                "{what}: {counters} counters"
            );
            let mut buffer = samples.clone();
            let values = order_statistics(&mut buffer, keys, &ranks);
            assert_eq!(values.len(), ranks.len(), "{what}");
            for (&rank, value) in ranks.iter().zip(values) {
                assert_eq!(
                    value.to_bits(),
                    sorted[rank].to_bits(),
                    "{what}: n {n}, rank {rank}"
                );
            }
            assert_eq!(bit_multiset(&buffer), bit_multiset(&samples), "{what}");
        });
    }

    #[test]
    fn single_observation_degenerates_gracefully() {
        let d = Empirical::from_samples(&[2.5]).unwrap();
        let mut rng = SimRng::from_seed(85);
        assert_eq!(d.sample(&mut rng), 2.5);
        assert!((d.mean() - 2.5).abs() < 1e-12);
        assert!(d.variance().abs() < 1e-12);
    }

    #[test]
    fn scaling_scales_moments() {
        let d = Empirical::from_samples(&exponential_sample(10_000, 86)).unwrap();
        let s = d.scaled(3.0).unwrap();
        assert!((s.mean() - 3.0 * d.mean()).abs() < 1e-9);
        assert!((s.variance() - 9.0 * d.variance()).abs() < 1e-9);
        assert!((s.cv() - d.cv()).abs() < 1e-9, "scaling must preserve Cv");
    }

    #[test]
    fn serde_round_trip() {
        let d = Empirical::from_samples(&exponential_sample(1000, 88)).unwrap();
        let json = bighouse_json::to_string(&d);
        let back: Empirical = bighouse_json::from_str(&json).unwrap();
        assert_eq!(d, back);
        // Footprint check: the paper's "less than 1 MB" claim.
        assert!(
            json.len() < 1_000_000,
            "serialized size {} too large",
            json.len()
        );
        // A rescaled table's moments are its points' own too, so it reads
        // back bit-identical as well.
        let scaled = d.scaled(0.37).unwrap();
        let back: Empirical = bighouse_json::from_str(&bighouse_json::to_string(&scaled)).unwrap();
        assert_eq!(scaled, back);
    }

    /// Why `points` is refused: the typed error, checked to be the one a
    /// JSON file holding the same table fails with (non-finite values
    /// included, which the file spells `"inf"` and `"NaN"`).
    fn refusal(points: &[(f64, f64)]) -> DistributionError {
        let err = Empirical::from_table(points.to_vec()).unwrap_err();
        let json = format!(
            r#"{{"points":{},"mean":1.0,"variance":1.0}}"#,
            bighouse_json::to_string(points)
        );
        let parsed = bighouse_json::from_str::<Empirical>(&json).unwrap_err();
        assert!(parsed.to_string().contains(&err.to_string()), "{parsed}");
        err
    }

    /// The point a table is refused at.
    fn refused_at(points: &[(f64, f64)]) -> usize {
        match refusal(points) {
            DistributionError::InvalidQuantileTable { index, .. } => index,
            other => panic!("refused as a whole: {other}"),
        }
    }

    #[test]
    fn an_empty_table_is_refused() {
        assert_eq!(refusal(&[]), DistributionError::EmptySample);
    }

    #[test]
    fn a_non_finite_point_is_refused() {
        assert_eq!(refused_at(&[(0.0, 1.0), (1.0, f64::NAN)]), 1);
        assert_eq!(refused_at(&[(0.0, 1.0), (f64::NAN, 2.0)]), 1);
        assert_eq!(refused_at(&[(0.0, f64::INFINITY)]), 0);
    }

    #[test]
    fn a_q_outside_the_unit_interval_is_refused() {
        assert_eq!(refused_at(&[(-0.5, 1.0), (1.0, 2.0)]), 0);
        assert_eq!(refused_at(&[(0.0, 1.0), (1.5, 2.0)]), 1);
    }

    #[test]
    fn a_q_not_strictly_ascending_is_refused() {
        assert_eq!(refused_at(&[(0.0, 1.0), (0.5, 2.0), (0.5, 3.0)]), 2);
        assert_eq!(refused_at(&[(0.6, 1.0), (0.4, 2.0)]), 1);
    }

    #[test]
    fn a_negative_value_is_refused() {
        assert_eq!(refused_at(&[(0.0, -1.0), (1.0, 2.0)]), 0);
    }

    #[test]
    fn a_decreasing_value_is_refused() {
        assert_eq!(refused_at(&[(0.0, 2.0), (1.0, 1.0)]), 1);
    }

    #[test]
    fn stale_moments_in_a_file_are_replaced_by_the_points_own() {
        let edited = r#"{"points":[[0.0,1.0],[1.0,3.0]],"mean":42.0,"variance":-1.0}"#;
        let d: Empirical = bighouse_json::from_str(edited).unwrap();
        assert_eq!(d.mean(), 2.0);
        assert!((d.variance() - 1.0 / 3.0).abs() < 1e-12, "{}", d.variance());
    }

    #[test]
    fn quantile_grid_is_valid() {
        let d = Empirical::from_samples(&exponential_sample(5000, 90)).unwrap();
        let pts = d.points();
        assert_eq!(pts[0].0, 0.0);
        assert_eq!(pts[pts.len() - 1].0, 1.0);
        for w in pts.windows(2) {
            assert!(w[0].0 < w[1].0, "grid must be strictly ascending in q");
            assert!(w[0].1 <= w[1].1, "values must be non-decreasing");
        }
    }

    #[test]
    fn validation() {
        assert!(matches!(
            Empirical::from_samples(&[]),
            Err(DistributionError::EmptySample)
        ));
        assert!(Empirical::from_samples(&[1.0, -2.0]).is_err());
        assert!(matches!(
            Empirical::from_samples(&[1.0, f64::NAN]),
            Err(DistributionError::NonFiniteSample { index: 1, .. })
        ));
        assert!(matches!(
            Empirical::from_samples(&[f64::INFINITY]),
            Err(DistributionError::NonFiniteSample { index: 0, .. })
        ));
        assert!(Empirical::from_samples_with_resolution(&[1.0, 2.0], 1).is_err());
        let d = Empirical::from_samples(&[1.0, 2.0]).unwrap();
        assert!(d.scaled(0.0).is_err());
    }
}
