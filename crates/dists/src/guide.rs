//! Bucket-guided inverse-CDF evaluation for [`Empirical`] distributions.
//!
//! [`Empirical::sample`] binary-searches the whole quantile table per draw.
//! [`QuantileGuide`] splits `[0, 1)` into `G` buckets and records where the
//! search can land in each; at the default `G` a body bucket holds at most
//! one point, so a draw is one compare, and only the few tail buckets that
//! hold more run the *same* `partition_point` over their sub-slice. The
//! interpolation is the *same* too, so a guided draw is **bit-identical** to
//! the unguided one for every input; the tests here hold that on random
//! tables, `bighouse-workloads` on every standard workload's tables.

use crate::empirical::Empirical;

/// Scale factor mapping the top 53 bits of a `u64` onto `[0, 1)` — must
/// match [`Empirical`]'s sampling convention exactly.
const U53_SCALE: f64 = 1.0 / (1u64 << 53) as f64;

/// Tag on `lo[b]` for a bucket whose candidates need a search.
const WIDE: u32 = 1 << 31;

/// A precomputed search accelerator over one [`Empirical`]'s quantile
/// table. Bit-identical to [`Empirical::quantile`] for all `q` in `[0, 1]`,
/// and to [`sample`](crate::Distribution::sample) on the same raw `u64` draw.
#[derive(Debug, Clone)]
pub struct QuantileGuide {
    /// The quantile points `(q, value)`, cloned from the source, then the
    /// sentinel `(+inf, last value)`, so a compare at index `len` is in bounds.
    points: Vec<(f64, f64)>,
    /// For `b` in `0..=G`, the full-table `partition_point(pq < q)` at
    /// `q = b / G`: bucket `b`'s answers lie in `lo[b]..=lo[b + 1]`, and
    /// `lo[b]` is tagged [`WIDE`] when that range holds more than one point.
    lo: Vec<u32>,
    /// `53 - log2(G)`: the 53 sampled bits shifted right by this are the bucket.
    shift: u32,
}

impl QuantileGuide {
    /// Default bucket count: twice [`Empirical::DEFAULT_RESOLUTION`], the
    /// smallest power of two whose buckets are narrower than the body's
    /// grid spacing, so every body bucket holds at most one point.
    pub(crate) const DEFAULT_BUCKETS: usize = 2048;

    /// Builds a guide over `dist`'s quantile table with the default bucket
    /// count.
    #[must_use]
    pub fn new(dist: &Empirical) -> Self {
        Self::with_buckets(dist, Self::DEFAULT_BUCKETS)
    }

    /// Builds a guide with an explicit bucket count.
    ///
    /// # Panics
    ///
    /// Panics unless `buckets` is a power of two.
    pub(crate) fn with_buckets(dist: &Empirical, buckets: usize) -> Self {
        assert!(
            buckets.is_power_of_two(),
            "guide needs a power-of-two bucket count"
        );
        let mut points = dist.points().to_vec();
        // `partition_point(pq < q)` is non-decreasing in q, so bucket b's answers
        // lie in lo[b]..=lo[b+1] and a search there finds the *same* index.
        let mut lo: Vec<u32> = (0..=buckets)
            .map(|b| points.partition_point(|&(pq, _)| pq < b as f64 / buckets as f64) as u32)
            .collect();
        for b in 0..buckets {
            lo[b] |= if lo[b + 1] - lo[b] > 1 { WIDE } else { 0 };
        }
        points.push((f64::INFINITY, points[points.len() - 1].1));
        let shift = 53 - buckets.trailing_zeros();
        QuantileGuide { points, lo, shift }
    }

    /// The `q`-quantile, bit-identical to [`Empirical::quantile`] on the
    /// source distribution.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= q <= 1`.
    #[must_use]
    #[inline]
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile must be in [0, 1], got {q}"
        );
        let buckets = self.lo.len() - 1;
        self.interpolate(((q * buckets as f64) as usize).min(buckets - 1), q)
    }

    /// Evaluates the sampler on a raw `SimRng::raw_u64()` draw, bit-identical
    /// to what [`sample`](crate::Distribution::sample) computes from it.
    #[must_use]
    #[inline]
    pub fn sample_from_bits(&self, bits: u64) -> f64 {
        // G is a power of two, so `floor(m · 2⁻⁵³ · G)` is exactly `m >> shift`.
        let m = bits >> 11;
        self.interpolate((m >> self.shift) as usize, m as f64 * U53_SCALE)
    }

    /// The quantile at `q`, which lies in bucket `b`.
    #[inline]
    fn interpolate(&self, b: usize, q: f64) -> f64 {
        let lo = self.lo[b];
        let idx = if lo & WIDE == 0 {
            lo as usize + usize::from(self.points[lo as usize].0 < q)
        } else {
            self.search(b, q)
        };
        let len = self.points.len() - 1;
        if idx == 0 {
            return self.points[0].1;
        }
        if idx >= len {
            return self.points[len - 1].1;
        }
        let (q0, v0) = self.points[idx - 1];
        let (q1, v1) = self.points[idx];
        if q1 == q0 {
            return v1;
        }
        let frac = (q - q0) / (q1 - q0);
        v0 * (1.0 - frac) + v1 * frac
    }

    /// The full-table index for `q` in a [`WIDE`] bucket `b`.
    #[cold]
    #[inline(never)]
    fn search(&self, b: usize, q: f64) -> usize {
        let [lo, hi] = [self.lo[b], self.lo[b + 1]].map(|i| (i & !WIDE) as usize);
        lo + self.points[lo..hi].partition_point(|&(pq, _)| pq < q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Distribution, Exponential};
    use bighouse_des::check::cases;
    use bighouse_des::SimRng;

    fn exp_empirical(seed: u64) -> Empirical {
        let d = Exponential::new(1.0).unwrap();
        let mut rng = SimRng::from_seed(seed);
        let samples: Vec<f64> = (0..20_000).map(|_| d.sample(&mut rng)).collect();
        Empirical::from_samples(&samples).unwrap()
    }

    #[test]
    fn guided_quantile_is_bit_identical() {
        let d = exp_empirical(301);
        let guide = QuantileGuide::new(&d);
        // Dense uniform sweep plus every grid point and bucket boundary.
        let mut probes: Vec<f64> = (0..=10_000).map(|i| i as f64 / 10_000.0).collect();
        probes.extend(d.points().iter().map(|&(q, _)| q));
        for b in 0..=QuantileGuide::DEFAULT_BUCKETS {
            probes.push(b as f64 / QuantileGuide::DEFAULT_BUCKETS as f64);
        }
        for q in probes {
            let full = d.quantile(q);
            let guided = guide.quantile(q);
            assert_eq!(
                full.to_bits(),
                guided.to_bits(),
                "q={q}: full {full} vs guided {guided}"
            );
        }
    }

    #[test]
    fn guided_sampling_matches_unguided_draw_for_draw() {
        let d = exp_empirical(302);
        let guide = QuantileGuide::new(&d);
        let mut rng_a = SimRng::from_seed(7);
        let mut rng_b = SimRng::from_seed(7);
        for _ in 0..50_000 {
            let full = d.sample(&mut rng_a);
            let guided = guide.sample_from_bits(rng_b.raw_u64());
            assert_eq!(full.to_bits(), guided.to_bits());
        }
    }

    #[test]
    fn randomized_guides_match_the_unguided_table() {
        for case in 0..u64::from(cases(64)) {
            let mut rng = SimRng::from_seed(0x6D1D_E000 ^ case);
            let mut below = |n: u64| rng.raw_u64() % n;
            let resolution = 2 + below(4095) as usize;
            let n = 1 + below(100_000) as usize;
            let family = below(4);
            let buckets = 1usize << below(15);
            let samples: Vec<f64> = match family {
                0 => {
                    let d = Exponential::new(1.0).unwrap();
                    (0..n).map(|_| d.sample(&mut rng)).collect()
                }
                // Pareto, x_m = 1e-3 and α = 2.1, by inversion.
                1 => (0..n)
                    .map(|_| 1e-3 * rng.open01().powf(-1.0 / 2.1))
                    .collect(),
                2 => vec![0.25; n],
                // A handful of distinct values: long runs of tied quantiles.
                _ => (0..n).map(|_| (rng.raw_u64() % 4) as f64).collect(),
            };
            let d = Empirical::from_samples_with_resolution(&samples, resolution).unwrap();
            let guide = QuantileGuide::with_buckets(&d, buckets);
            let what = format!(
                "case {case}: family {family}, n {n}, resolution {resolution}, G {buckets}"
            );

            // Random draws through `Empirical::sample` itself.
            let mut unguided = SimRng::from_seed(case);
            let mut guided = unguided.clone();
            for _ in 0..2_000 {
                assert_eq!(
                    d.sample(&mut unguided).to_bits(),
                    guide.sample_from_bits(guided.raw_u64()).to_bits(),
                    "{what}"
                );
            }
            // The edges: every bucket's first and last raw value.
            let shift = 64 - buckets.trailing_zeros();
            let mut edges = vec![0, 1 << 11, u64::MAX];
            for b in 0..buckets as u64 {
                let first = b.checked_shl(shift).unwrap_or(0);
                edges.extend([first, first | (u64::MAX >> buckets.trailing_zeros())]);
            }
            for bits in edges {
                let u = (bits >> 11) as f64 * U53_SCALE;
                assert_eq!(
                    d.quantile(u).to_bits(),
                    guide.sample_from_bits(bits).to_bits(),
                    "{what}: bits {bits:#x}"
                );
            }
            // `quantile` at 0, 1 and every bucket boundary.
            for b in 0..=buckets {
                let q = b as f64 / buckets as f64;
                assert_eq!(
                    d.quantile(q).to_bits(),
                    guide.quantile(q).to_bits(),
                    "{what}: q {q}"
                );
            }
        }
    }

    #[test]
    fn tiny_bucket_counts_stay_correct() {
        let d = exp_empirical(303);
        for buckets in [1, 2, 8] {
            let guide = QuantileGuide::with_buckets(&d, buckets);
            for i in 0..=1000 {
                let q = i as f64 / 1000.0;
                assert_eq!(d.quantile(q).to_bits(), guide.quantile(q).to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two bucket count")]
    fn non_power_of_two_bucket_counts_are_refused() {
        let _ = QuantileGuide::with_buckets(&exp_empirical(304), 7);
    }

    #[test]
    fn body_buckets_are_narrow_at_the_default_count() {
        // The default grid's body ends at q = 1 - 2e-3 whatever the sample
        // count; past it the geometric tail may crowd a bucket.
        let buckets = QuantileGuide::DEFAULT_BUCKETS;
        for n in [1, 1_000, 200_000] {
            let samples: Vec<f64> = (0..n).map(f64::from).collect();
            let guide = QuantileGuide::new(&Empirical::from_samples(&samples).unwrap());
            for b in (0..buckets).take_while(|&b| (b + 1) as f64 / buckets as f64 <= 1.0 - 2e-3) {
                assert_eq!(guide.lo[b] & WIDE, 0, "n = {n}: bucket {b}");
            }
        }
    }

    #[test]
    fn degenerate_single_point_distribution() {
        let d = Empirical::from_samples(&[3.25]).unwrap();
        let guide = QuantileGuide::new(&d);
        for q in [0.0, 0.25, 1.0] {
            assert_eq!(guide.quantile(q), 3.25);
        }
    }
}
