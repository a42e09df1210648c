//! Error type for distribution construction.

use std::fmt;

/// Error returned when constructing a distribution with invalid parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum DistributionError {
    /// A parameter violated its validity requirement.
    InvalidParameter {
        /// Parameter name (e.g. `"rate"`).
        name: &'static str,
        /// The offending value.
        value: f64,
        /// Human-readable requirement (e.g. `"must be positive"`).
        requirement: &'static str,
    },
    /// An empirical distribution was built from an empty sample.
    EmptySample,
    /// An empirical sample contained a NaN or infinite observation.
    NonFiniteSample {
        /// Index of the first offending observation.
        index: usize,
        /// The offending value, rendered as text (NaN/inf survive `Display`
        /// but not JSON).
        value: String,
    },
    /// A deserialized empirical quantile table broke the table invariant.
    InvalidQuantileTable {
        /// Index of the first offending point.
        index: usize,
        /// What that point must satisfy (e.g. `"must have q in [0, 1]"`).
        requirement: &'static str,
    },
    /// A moment-matching fit was requested for unreachable moments.
    UnfittableMoments {
        /// Requested mean.
        mean: f64,
        /// Requested coefficient of variation.
        cv: f64,
    },
}

impl fmt::Display for DistributionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistributionError::InvalidParameter {
                name,
                value,
                requirement,
            } => write!(f, "parameter `{name}` = {value:?} {requirement}"),
            DistributionError::EmptySample => {
                write!(
                    f,
                    "cannot build an empirical distribution from an empty sample"
                )
            }
            DistributionError::NonFiniteSample { index, value } => {
                write!(f, "sample[{index}] = {value} is not finite")
            }
            DistributionError::InvalidQuantileTable { index, requirement } => {
                write!(f, "quantile point [{index}] {requirement}")
            }
            DistributionError::UnfittableMoments { mean, cv } => {
                write!(
                    f,
                    "no supported distribution has mean {mean:?} and cv {cv:?}"
                )
            }
        }
    }
}

impl std::error::Error for DistributionError {}

/// Validates that `value` is finite and strictly positive.
pub(crate) fn require_positive(name: &'static str, value: f64) -> Result<f64, DistributionError> {
    if value.is_finite() && value > 0.0 {
        Ok(value)
    } else {
        Err(DistributionError::InvalidParameter {
            name,
            value,
            requirement: "must be finite and positive",
        })
    }
}

/// Validates that `value` is finite and non-negative.
pub(crate) fn require_non_negative(
    name: &'static str,
    value: f64,
) -> Result<f64, DistributionError> {
    if value.is_finite() && value >= 0.0 {
        Ok(value)
    } else {
        Err(DistributionError::InvalidParameter {
            name,
            value,
            requirement: "must be finite and non-negative",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validators_accept_good_values() {
        assert_eq!(require_positive("x", 1.0), Ok(1.0));
        assert_eq!(require_non_negative("x", 0.0), Ok(0.0));
    }

    #[test]
    fn validators_reject_bad_values() {
        assert!(require_positive("x", 0.0).is_err());
        assert!(require_positive("x", f64::NAN).is_err());
        assert!(require_non_negative("x", -1.0).is_err());
    }

    #[test]
    fn display_is_informative() {
        let err = require_positive("rate", -2.0).unwrap_err();
        assert_eq!(
            err.to_string(),
            "parameter `rate` = -2.0 must be finite and positive"
        );
        assert_eq!(
            DistributionError::EmptySample.to_string(),
            "cannot build an empirical distribution from an empty sample"
        );
        let nan = DistributionError::NonFiniteSample {
            index: 3,
            value: format!("{}", f64::NAN),
        };
        assert_eq!(nan.to_string(), "sample[3] = NaN is not finite");
    }
}
