//! Bucket-guided inverse-CDF evaluation for [`Empirical`] distributions.
//!
//! [`Empirical::sample`] binary-searches the full quantile table on every
//! draw, and the simulator makes one or two draws per event.
//! [`QuantileGuide`] precomputes, for each of `G` uniform probability
//! buckets, the index range of quantile points the full-table search could
//! land in; a guided lookup then runs the *same* `partition_point` over
//! that (usually 0–2 element) sub-slice and applies the *same*
//! interpolation arithmetic, so it returns **bit-identical** results to the
//! unguided path for every input. That invariance is what lets the cluster
//! simulation make every workload draw through a guide without perturbing
//! estimates. The tests here hold it on one exponential table;
//! `bighouse-workloads` holds it on the tables the simulator actually
//! samples (every standard workload, plain and load-scaled).

use crate::empirical::Empirical;

/// Scale factor mapping the top 53 bits of a `u64` onto `[0, 1)` — must
/// match [`Empirical`]'s sampling convention exactly.
const U53_SCALE: f64 = 1.0 / (1u64 << 53) as f64;

/// A precomputed search accelerator over one [`Empirical`]'s quantile
/// table. Bit-identical to [`Empirical::quantile`] for all `q` in `[0, 1]`
/// and to [`Empirical::sample`] when driven with the same raw `u64` draw.
#[derive(Debug, Clone)]
pub struct QuantileGuide {
    /// The quantile points `(q, value)`, cloned from the source.
    points: Vec<(f64, f64)>,
    /// For bucket `b`, the smallest index the full-table
    /// `partition_point(pq < q)` can return for `q >= b / G`.
    lo: Vec<u32>,
    /// For bucket `b`, the largest index it can return for
    /// `q <= (b + 1) / G`.
    hi: Vec<u32>,
}

impl QuantileGuide {
    /// Default bucket count: comfortably more buckets than quantile points
    /// at [`Empirical::DEFAULT_RESOLUTION`], so almost every guided lookup
    /// narrows to at most two candidate points.
    pub const DEFAULT_BUCKETS: usize = 4096;

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
    /// Panics if `buckets` is zero.
    #[must_use]
    pub fn with_buckets(dist: &Empirical, buckets: usize) -> Self {
        assert!(buckets > 0, "guide needs at least one bucket");
        let points = dist.points().to_vec();
        let mut lo = Vec::with_capacity(buckets);
        let mut hi = Vec::with_capacity(buckets);
        for b in 0..buckets {
            // `partition_point(pq < q)` is non-decreasing in q, so for any
            // q in [b/G, (b+1)/G] the full-table answer lies in
            // [pp(b/G), pp((b+1)/G)]. A guided search over that sub-slice
            // therefore finds the *same* index.
            let q_lo = b as f64 / buckets as f64;
            let q_hi = (b + 1) as f64 / buckets as f64;
            lo.push(points.partition_point(|&(pq, _)| pq < q_lo) as u32);
            hi.push(points.partition_point(|&(pq, _)| pq < q_hi) as u32);
        }
        QuantileGuide { points, lo, hi }
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
        let buckets = self.lo.len();
        let b = ((q * buckets as f64) as usize).min(buckets - 1);
        let (lo, hi) = (self.lo[b] as usize, self.hi[b] as usize);
        let idx = lo + self.points[lo..hi].partition_point(|&(pq, _)| pq < q);
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

    /// Evaluates the sampler on a raw RNG draw: bit-identical to what
    /// [`Empirical::sample`] computes from the same `next_u64()` output.
    #[must_use]
    #[inline]
    pub fn sample_from_bits(&self, bits: u64) -> f64 {
        let u = (bits >> 11) as f64 * U53_SCALE;
        self.quantile(u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Distribution, Exponential};
    use bighouse_des::SimRng;
    use rand::RngCore;

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
            probes.push((b as f64 / QuantileGuide::DEFAULT_BUCKETS as f64).min(1.0));
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
            let guided = guide.sample_from_bits(rng_b.next_u64());
            assert_eq!(full.to_bits(), guided.to_bits());
        }
    }

    #[test]
    fn tiny_bucket_counts_stay_correct() {
        let d = exp_empirical(303);
        for buckets in [1, 2, 7] {
            let guide = QuantileGuide::with_buckets(&d, buckets);
            for i in 0..=1000 {
                let q = i as f64 / 1000.0;
                assert_eq!(d.quantile(q).to_bits(), guide.quantile(q).to_bits());
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
