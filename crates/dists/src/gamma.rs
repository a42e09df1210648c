//! The gamma distribution.

use bighouse_des::SimRng;

use crate::error::{require_positive, DistributionError};
use crate::traits::{standard_normal, Distribution};

/// Gamma distribution with shape α and scale θ (mean αθ, C_v = 1/√α).
///
/// The workhorse of moment matching for C_v < 1: unlike Erlang, its shape is
/// continuous, so *any* (mean, C_v) pair with C_v ≤ 1 can be hit exactly.
/// Sampling uses the Marsaglia–Tsang squeeze method.
///
/// # Examples
///
/// It is crate-private: callers reach it through
/// [`fit_mean_cv`](crate::fit::fit_mean_cv), which picks it for
/// 0 < C_v < 1.
///
/// ```
/// use bighouse_dists::fit::fit_mean_cv;
///
/// let d = fit_mean_cv(0.194, 0.7)?; // DNS-like service, lower Cv
/// assert!((d.mean() - 0.194).abs() < 1e-12);
/// assert!((d.cv() - 0.7).abs() < 1e-12);
/// # Ok::<(), bighouse_dists::DistributionError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Gamma {
    shape: f64,
    scale: f64,
}

bighouse_json::json_struct!(Gamma { shape, scale });

impl Gamma {
    /// Creates a gamma distribution with shape `shape` and scale `scale`.
    ///
    /// # Errors
    ///
    /// Returns an error unless both parameters are finite and positive.
    pub fn new(shape: f64, scale: f64) -> Result<Self, DistributionError> {
        Ok(Gamma {
            shape: require_positive("shape", shape)?,
            scale: require_positive("scale", scale)?,
        })
    }

    /// Creates a gamma distribution matching a mean and coefficient of
    /// variation exactly: α = 1/C_v², θ = mean·C_v².
    ///
    /// # Errors
    ///
    /// Returns an error unless both `mean` and `cv` are finite and positive.
    pub fn from_mean_cv(mean: f64, cv: f64) -> Result<Self, DistributionError> {
        let mean = require_positive("mean", mean)?;
        let cv = require_positive("cv", cv)?;
        let shape = 1.0 / (cv * cv);
        Self::new(shape, mean / shape)
    }

    /// Marsaglia–Tsang sampler for shape ≥ 1, unit scale.
    fn sample_shape_ge1(shape: f64, rng: &mut SimRng) -> f64 {
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = standard_normal(rng);
            let v = 1.0 + c * x;
            if v <= 0.0 {
                continue;
            }
            let v = v * v * v;
            let u = rng.open01();
            if u < 1.0 - 0.0331 * x.powi(4) {
                return d * v;
            }
            if u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
                return d * v;
            }
        }
    }
}

impl Distribution for Gamma {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        // Shape boost for α < 1: Gamma(α) = Gamma(α+1) · U^{1/α}.
        let raw = if self.shape >= 1.0 {
            Self::sample_shape_ge1(self.shape, rng)
        } else {
            let g = Self::sample_shape_ge1(self.shape + 1.0, rng);
            g * rng.open01().powf(1.0 / self.shape)
        };
        raw * self.scale
    }

    fn mean(&self) -> f64 {
        self.shape * self.scale
    }

    fn variance(&self) -> f64 {
        self.shape * self.scale * self.scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::test_support::{assert_moments_match, assert_samples_valid};

    #[test]
    fn moments_match_samples_high_shape() {
        let d = Gamma::new(9.0, 0.5).unwrap();
        assert_moments_match(&d, 200_000, 31, 0.02);
        assert_samples_valid(&d, 10_000, 32);
    }

    #[test]
    fn moments_match_samples_low_shape() {
        let d = Gamma::new(0.5, 2.0).unwrap();
        assert_moments_match(&d, 300_000, 33, 0.03);
        assert_samples_valid(&d, 10_000, 34);
    }

    #[test]
    fn from_mean_cv_is_exact() {
        for (mean, cv) in [(1.0, 0.1), (0.05, 0.5), (2.0, 0.9), (1.0, 1.5)] {
            let d = Gamma::from_mean_cv(mean, cv).unwrap();
            assert!((d.mean() - mean).abs() < 1e-12);
            assert!((d.cv() - cv).abs() < 1e-12);
        }
    }

    #[test]
    fn shape_one_matches_exponential_moments() {
        let d = Gamma::new(1.0, 0.25).unwrap();
        assert!((d.mean() - 0.25).abs() < 1e-12);
        assert!((d.cv() - 1.0).abs() < 1e-12);
    }

    /// Finite, non-negative samples and the exact mean across the whole
    /// parameter space, shapes below 1 included.
    #[test]
    fn gamma_valid() {
        bighouse_des::check::check("gamma_valid", 256, |g| {
            let (shape, scale) = (g.range(0.05..50.0), g.range(1e-3..1e3));
            let d = Gamma::new(shape, scale).unwrap();
            assert!((d.mean() - shape * scale).abs() < 1e-9 * shape * scale);
            assert_samples_valid(&d, 200, g.any());
        });
    }

    #[test]
    fn validation() {
        assert!(Gamma::new(0.0, 1.0).is_err());
        assert!(Gamma::new(1.0, 0.0).is_err());
        assert!(Gamma::from_mean_cv(1.0, 0.0).is_err());
        assert!(Gamma::from_mean_cv(f64::INFINITY, 0.5).is_err());
    }
}
