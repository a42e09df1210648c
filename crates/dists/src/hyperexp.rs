//! The two-phase hyperexponential distribution.

use bighouse_des::SimRng;

use crate::error::{require_positive, DistributionError};
use crate::traits::Distribution;

/// Two-phase hyperexponential distribution H₂ (C_v ≥ 1).
///
/// A probabilistic mixture of two exponentials — the classical model for
/// bursty, heavy-tailed service processes. BigHouse's measured workloads
/// have service C_v up to 15 (Table 1: Shell) which no light-tailed family
/// reaches; [`HyperExponential::from_mean_cv`] produces the **balanced
/// means** fit (p₁/λ₁ = p₂/λ₂), the standard two-moment match.
///
/// # Examples
///
/// ```
/// use bighouse_dists::{Distribution, HyperExponential};
///
/// // Shell's service distribution: mean 46 ms, Cv = 15 (Table 1).
/// let d = HyperExponential::from_mean_cv(0.046, 15.0)?;
/// assert!((d.mean() - 0.046).abs() < 1e-9);
/// assert!((d.cv() - 15.0).abs() < 1e-6);
/// # Ok::<(), bighouse_dists::DistributionError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HyperExponential {
    p1: f64,
    rate1: f64,
    rate2: f64,
}

bighouse_json::json_struct!(HyperExponential { p1, rate1, rate2 });

impl HyperExponential {
    /// Creates an H₂ distribution: with probability `p1` sample
    /// `Exp(rate1)`, otherwise `Exp(rate2)`.
    ///
    /// # Errors
    ///
    /// Returns an error unless `0 < p1 < 1` and both rates are finite and
    /// positive.
    pub fn new(p1: f64, rate1: f64, rate2: f64) -> Result<Self, DistributionError> {
        if !(p1 > 0.0 && p1 < 1.0) {
            return Err(DistributionError::InvalidParameter {
                name: "p1",
                value: p1,
                requirement: "must be strictly between 0 and 1",
            });
        }
        Ok(HyperExponential {
            p1,
            rate1: require_positive("rate1", rate1)?,
            rate2: require_positive("rate2", rate2)?,
        })
    }

    /// Balanced-means two-moment fit: produces an H₂ with exactly the given
    /// mean and coefficient of variation.
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError::UnfittableMoments`] if `cv <= 1` (an H₂
    /// cannot have C_v ≤ 1; [`crate::fit::fit_mean_cv`] picks a gamma
    /// there, and [`crate::Erlang`] has C_v = 1/√k),
    /// or an error if `mean` is not positive and finite.
    pub fn from_mean_cv(mean: f64, cv: f64) -> Result<Self, DistributionError> {
        let mean = require_positive("mean", mean)?;
        if !cv.is_finite() || cv <= 1.0 {
            return Err(DistributionError::UnfittableMoments { mean, cv });
        }
        let cv2 = cv * cv;
        let p1 = 0.5 * (1.0 + ((cv2 - 1.0) / (cv2 + 1.0)).sqrt());
        let rate1 = 2.0 * p1 / mean;
        let rate2 = 2.0 * (1.0 - p1) / mean;
        Self::new(p1, rate1, rate2)
    }
}

impl Distribution for HyperExponential {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        let pick = rng.open01();
        let rate = if pick < self.p1 {
            self.rate1
        } else {
            self.rate2
        };
        -rng.open01().ln() / rate
    }

    fn mean(&self) -> f64 {
        self.p1 / self.rate1 + (1.0 - self.p1) / self.rate2
    }

    fn variance(&self) -> f64 {
        // E[X²] = 2(p₁/λ₁² + p₂/λ₂²).
        let second_moment = 2.0
            * (self.p1 / (self.rate1 * self.rate1) + (1.0 - self.p1) / (self.rate2 * self.rate2));
        second_moment - self.mean() * self.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::test_support::{assert_moments_match, assert_samples_valid};
    use bighouse_des::check::check;

    #[test]
    fn balanced_fit_hits_moments_exactly() {
        for (mean, cv) in [(1.0, 1.5), (0.075, 3.4), (0.046, 15.0), (0.186, 4.2)] {
            let d = HyperExponential::from_mean_cv(mean, cv).unwrap();
            assert!((d.mean() - mean).abs() / mean < 1e-12, "mean for cv={cv}");
            assert!(
                (d.cv() - cv).abs() / cv < 1e-9,
                "cv for cv={cv}: {}",
                d.cv()
            );
        }
    }

    #[test]
    fn balanced_means_property() {
        let d = HyperExponential::from_mean_cv(2.0, 3.0).unwrap();
        let m1 = d.p1 / d.rate1;
        let m2 = (1.0 - d.p1) / d.rate2;
        assert!(
            (m1 - m2).abs() < 1e-12,
            "phase means not balanced: {m1} vs {m2}"
        );
    }

    /// Balanced-means fit across its parameter space: phase means equal,
    /// mean hit.
    #[test]
    fn h2_balanced_fit() {
        check("h2_balanced_fit", 256, |g| {
            let mean = g.range(1e-3..1e3);
            let d = HyperExponential::from_mean_cv(mean, g.range(1.001..30.0)).unwrap();
            let m1 = d.p1 / d.rate1;
            let m2 = (1.0 - d.p1) / d.rate2;
            assert!((m1 - m2).abs() <= 1e-9 * m1.max(m2));
            assert!((d.mean() - mean).abs() <= 1e-9 * mean);
        });
    }

    #[test]
    fn moments_match_samples() {
        let d = HyperExponential::from_mean_cv(1.0, 2.0).unwrap();
        assert_moments_match(&d, 400_000, 41, 0.03);
        assert_samples_valid(&d, 10_000, 42);
    }

    #[test]
    fn rejects_low_cv() {
        assert!(matches!(
            HyperExponential::from_mean_cv(1.0, 0.8),
            Err(DistributionError::UnfittableMoments { .. })
        ));
        assert!(HyperExponential::from_mean_cv(1.0, 1.0).is_err());
    }

    #[test]
    fn validation() {
        assert!(HyperExponential::new(0.0, 1.0, 1.0).is_err());
        assert!(HyperExponential::new(1.0, 1.0, 1.0).is_err());
        assert!(HyperExponential::new(0.5, 0.0, 1.0).is_err());
        assert!(HyperExponential::new(0.5, 1.0, -1.0).is_err());
    }
}
