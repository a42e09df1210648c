//! Moment-matching fitters.
//!
//! We do not have the proprietary traces behind BigHouse's Table 1 workload
//! distributions, but we do have the moments the paper publishes (avg, σ,
//! C_v). [`fit_mean_cv`] chooses the classical distribution family whose
//! shape spans the requested C_v and matches both moments exactly — exactly
//! the substitution documented in DESIGN.md.

use std::sync::Arc;

use crate::error::{require_non_negative, require_positive, DistributionError};
use crate::{Deterministic, DynDistribution, Exponential, Gamma, HyperExponential};

/// Tolerance inside which a C_v is treated as exactly 1 (exponential).
const CV_ONE_TOLERANCE: f64 = 1e-9;

/// Fits a non-negative distribution with the given mean and coefficient of
/// variation, matching both exactly:
///
/// | C_v        | family                                         |
/// |------------|------------------------------------------------|
/// | 0          | [`Deterministic`]                              |
/// | (0, 1)     | gamma (continuous-shape Erlang)                |
/// | 1          | [`Exponential`]                                |
/// | (1, ∞)     | [`HyperExponential`] (balanced means)          |
///
/// # Errors
///
/// Returns an error if `mean` is not positive and finite, or `cv` is
/// negative or non-finite.
///
/// # Examples
///
/// ```
/// use bighouse_dists::fit::fit_mean_cv;
///
/// // The Google service distribution of Table 1: 4.2 ms, Cv = 1.1.
/// let d = fit_mean_cv(0.0042, 1.1)?;
/// assert!((d.mean() - 0.0042).abs() < 1e-12);
/// assert!((d.cv() - 1.1).abs() < 1e-6);
/// # Ok::<(), bighouse_dists::DistributionError>(())
/// ```
pub fn fit_mean_cv(mean: f64, cv: f64) -> Result<DynDistribution, DistributionError> {
    let mean = require_positive("mean", mean)?;
    let cv = require_non_negative("cv", cv)?;
    if cv == 0.0 {
        return Ok(Arc::new(Deterministic::new(mean)?));
    }
    if (cv - 1.0).abs() <= CV_ONE_TOLERANCE {
        return Ok(Arc::new(Exponential::from_mean(mean)?));
    }
    if cv < 1.0 {
        return Ok(Arc::new(Gamma::from_mean_cv(mean, cv)?));
    }
    Ok(Arc::new(HyperExponential::from_mean_cv(mean, cv)?))
}

/// As [`fit_mean_cv`], but parameterized by standard deviation.
///
/// # Errors
///
/// Returns an error if `mean` is not positive and finite, or `sigma` is
/// negative or non-finite.
pub fn fit_mean_sigma(mean: f64, sigma: f64) -> Result<DynDistribution, DistributionError> {
    let mean = require_positive("mean", mean)?;
    let sigma = require_non_negative("sigma", sigma)?;
    fit_mean_cv(mean, sigma / mean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::test_support::assert_moments_match;

    #[test]
    fn fits_are_exact_across_regimes() {
        for (mean, cv) in [
            (1.0, 0.0),
            (0.05, 0.3),
            (0.0042, 1.1),
            (1.1, 1.0),
            (0.046, 15.0),
            (0.186, 4.2),
        ] {
            let d = fit_mean_cv(mean, cv).unwrap();
            assert!(
                (d.mean() - mean).abs() / mean < 1e-9,
                "mean mismatch at cv={cv}: {}",
                d.mean()
            );
            assert!(
                (d.cv() - cv).abs() < 1e-6 * cv.max(1.0),
                "cv mismatch at cv={cv}: {}",
                d.cv()
            );
        }
    }

    #[test]
    fn fit_by_sigma_matches() {
        // Table 1 "Web": interarrival avg 186 ms, σ 380 ms.
        let d = fit_mean_sigma(0.186, 0.380).unwrap();
        assert!((d.mean() - 0.186).abs() < 1e-12);
        assert!((d.std_dev() - 0.380).abs() < 1e-9);
    }

    #[test]
    fn fitted_distributions_sample_correctly() {
        let d = fit_mean_cv(1.0, 2.0).unwrap();
        assert_moments_match(&*d, 400_000, 111, 0.05);
        let d = fit_mean_cv(1.0, 0.5).unwrap();
        assert_moments_match(&*d, 200_000, 112, 0.03);
    }

    #[test]
    fn validation() {
        assert!(fit_mean_cv(0.0, 1.0).is_err());
        assert!(fit_mean_cv(-1.0, 1.0).is_err());
        assert!(fit_mean_cv(1.0, -0.5).is_err());
        assert!(fit_mean_cv(1.0, f64::INFINITY).is_err());
        assert!(fit_mean_sigma(1.0, -1.0).is_err());
    }
}
