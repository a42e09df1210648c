//! The core [`Distribution`] trait and shared sampling helpers.

use std::fmt::Debug;
use std::sync::Arc;

use bighouse_des::SimRng;

/// A type-erased distribution: what [`crate::fit::fit_mean_cv`] returns,
/// since the family it picks depends on the requested C_v.
pub(crate) type DynDistribution = Arc<dyn Distribution>;

/// A univariate, continuous, non-negative random variable with known
/// moments.
///
/// All BigHouse quantities drawn from distributions — inter-arrival times,
/// service demands, transition latencies — are non-negative reals, and the
/// workload machinery needs first and second moments for moment-matching
/// and reporting (Table 1 reports avg, σ and C_v for every workload).
///
/// The trait is object-safe, so a fitted family can be tabulated through
/// `&dyn Distribution`. No model holds one: workloads hold
/// [`crate::Empirical`] tables, the cluster draws through their
/// [`crate::QuantileGuide`]s, and fault processes hold their family by value.
/// Every sample is drawn from the engine's deterministic [`SimRng`], the
/// workspace's one generator.
pub trait Distribution: Debug + Send + Sync {
    /// Draws one sample.
    fn sample(&self, rng: &mut SimRng) -> f64;

    /// The distribution's mean.
    fn mean(&self) -> f64;

    /// The distribution's variance.
    fn variance(&self) -> f64;

    /// Standard deviation (square root of [`Distribution::variance`]).
    fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation C_v = σ/μ (0 when the mean is 0).
    fn cv(&self) -> f64 {
        let mean = self.mean();
        if mean == 0.0 {
            0.0
        } else {
            self.std_dev() / mean.abs()
        }
    }
}

/// Draws a standard normal variate via the Box–Muller transform.
pub(crate) fn standard_normal(rng: &mut SimRng) -> f64 {
    let u1 = rng.open01();
    let u2 = rng.open01();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::Distribution;
    use bighouse_des::SimRng;

    /// Draws `n` samples and returns (mean, variance) of the sample.
    pub fn sample_moments(dist: &dyn Distribution, n: usize, seed: u64) -> (f64, f64) {
        let mut rng = SimRng::from_seed(seed);
        let mut mean = 0.0;
        let mut m2 = 0.0;
        for i in 0..n {
            let x = dist.sample(&mut rng);
            let delta = x - mean;
            mean += delta / (i + 1) as f64;
            m2 += delta * (x - mean);
        }
        (mean, m2 / (n - 1) as f64)
    }

    /// Asserts sampled moments agree with the declared closed-form moments
    /// within `tol` relative error.
    pub fn assert_moments_match(dist: &dyn Distribution, n: usize, seed: u64, tol: f64) {
        let (mean, var) = sample_moments(dist, n, seed);
        let rel_mean = (mean - dist.mean()).abs() / dist.mean().abs().max(1e-12);
        assert!(
            rel_mean < tol,
            "sample mean {mean} vs declared {} (rel err {rel_mean}) for {dist:?}",
            dist.mean()
        );
        if dist.variance() > 0.0 {
            let rel_var = (var - dist.variance()).abs() / dist.variance();
            assert!(
                rel_var < tol * 4.0,
                "sample variance {var} vs declared {} (rel err {rel_var}) for {dist:?}",
                dist.variance()
            );
        }
    }

    /// Asserts all samples are non-negative and finite.
    pub fn assert_samples_valid(dist: &dyn Distribution, n: usize, seed: u64) {
        let mut rng = SimRng::from_seed(seed);
        for _ in 0..n {
            let x = dist.sample(&mut rng);
            assert!(
                x.is_finite() && x >= 0.0,
                "invalid sample {x} from {dist:?}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_normal_moments() {
        let mut rng = SimRng::from_seed(13);
        let n = 100_000;
        let mut mean = 0.0;
        let mut m2 = 0.0;
        for i in 0..n {
            let z = standard_normal(&mut rng);
            let delta = z - mean;
            mean += delta / (i + 1) as f64;
            m2 += delta * (z - mean);
        }
        let var = m2 / (n - 1) as f64;
        assert!(mean.abs() < 0.02, "normal mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "normal variance {var}");
    }

    #[test]
    fn standard_normal_symmetry() {
        let mut rng = SimRng::from_seed(17);
        let n = 100_000;
        let positives = (0..n).filter(|_| standard_normal(&mut rng) > 0.0).count();
        let frac = positives as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "positive fraction {frac}");
    }
}
