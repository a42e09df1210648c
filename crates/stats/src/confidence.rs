//! CLT-based confidence intervals and required-sample-size formulas.
//!
//! These are Equations 1–3 of the BigHouse paper. An estimate has accuracy ε
//! (confidence-interval half-width) and confidence level 1−α; accuracy is
//! normalized by the mean, E = ε/X̄, so "±5%" is comparable across metrics.

use std::cell::Cell;

use crate::math::normal_inverse_cdf;

thread_local! {
    // The stopping rule's screen (`MetricSpec::satisfied_by`) reads the
    // critical value on every kept sample, and Eqs. 2–3, the estimates and
    // the half-widths on the rarer samples that reach them, always at the
    // run's one configured confidence level; `normal_inverse_cdf` costs
    // ~0.6 µs per call. A one-entry memo keyed by the input bits reduces the
    // steady-state cost to a load and a compare.
    // The cached value is this function's own prior output for identical
    // input bits, so results are bit-identical with or without the memo.
    static LAST_Z: Cell<(u64, f64)> = const { Cell::new((0, 0.0)) };
}

/// The two-sided standard-normal critical value `z_{1-α/2}` for a confidence
/// level `1 - α`.
///
/// # Panics
///
/// Panics if `confidence` is not in `(0, 1)`.
///
/// # Examples
///
/// The public formulas apply it: with σ = 1 and one observation, the
/// half-width is the critical value itself.
///
/// ```
/// use bighouse_stats::half_width_mean;
///
/// assert!((half_width_mean(0.95, 1.0, 1) - 1.96).abs() < 1e-2);
/// assert!((half_width_mean(0.99, 1.0, 1) - 2.576).abs() < 1e-3);
/// ```
#[must_use]
pub(crate) fn z_value(confidence: f64) -> f64 {
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0, 1), got {confidence}"
    );
    let bits = confidence.to_bits();
    let (last_bits, last_z) = LAST_Z.with(Cell::get);
    if bits == last_bits {
        return last_z;
    }
    let z = normal_inverse_cdf(1.0 - (1.0 - confidence) / 2.0);
    LAST_Z.with(|cell| cell.set((bits, z)));
    z
}

/// Sample size needed for a mean estimate (paper Eq. 2):
/// `N_m = z²σ² / ε²`, where ε is the absolute half-width.
///
/// Returns at least 2 (a variance needs two observations).
///
/// # Panics
///
/// Panics if `epsilon` is not positive or `std_dev` is negative.
#[must_use]
pub(crate) fn required_samples_mean(confidence: f64, std_dev: f64, epsilon: f64) -> u64 {
    assert!(epsilon > 0.0, "epsilon must be positive, got {epsilon}");
    assert!(std_dev >= 0.0, "standard deviation cannot be negative");
    let z = z_value(confidence);
    let n = (z * std_dev / epsilon).powi(2);
    (n.ceil() as u64).max(2)
}

/// Sample size needed for a `q`-quantile estimate (paper Eq. 3):
/// `N_q = z² q(1−q) / ε_q²`, with `ε_q` the half-width in
/// quantile-probability units (Chen & Kelton's CLT result for quantiles).
///
/// # Panics
///
/// Panics if `q` is not in `(0, 1)` or `epsilon` is not positive.
#[must_use]
pub(crate) fn required_samples_quantile(confidence: f64, q: f64, epsilon: f64) -> u64 {
    assert!(q > 0.0 && q < 1.0, "quantile must be in (0, 1), got {q}");
    assert!(epsilon > 0.0, "epsilon must be positive, got {epsilon}");
    let z = z_value(confidence);
    let n = z * z * q * (1.0 - q) / (epsilon * epsilon);
    (n.ceil() as u64).max(2)
}

/// Confidence-interval half-width for a mean estimated from `n` observations
/// with sample standard deviation `std_dev`: `ε = z·σ/√n`.
///
/// Returns infinity for `n == 0` (no data ⇒ no confidence).
#[must_use]
pub fn half_width_mean(confidence: f64, std_dev: f64, n: u64) -> f64 {
    if n == 0 {
        return f64::INFINITY;
    }
    z_value(confidence) * std_dev / (n as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bighouse_des::check::check;

    #[test]
    fn z_values_match_tables() {
        assert!((z_value(0.90) - 1.644_853_626_951).abs() < 1e-6);
        assert!((z_value(0.95) - 1.959_963_984_540).abs() < 1e-6);
        assert!((z_value(0.99) - 2.575_829_303_549).abs() < 1e-6);
    }

    #[test]
    fn paper_eq2_example() {
        // σ = 1, ε = 0.05, 95%: N = (1.96/0.05)² ≈ 1537.
        let n = required_samples_mean(0.95, 1.0, 0.05);
        assert_eq!(n, 1537);
    }

    #[test]
    fn paper_eq3_example() {
        // q = 0.95, ε = 0.01, 95%: N = 1.96² · 0.0475 / 0.0001 ≈ 1825.
        let n = required_samples_quantile(0.95, 0.95, 0.01);
        assert_eq!(n, 1825);
    }

    #[test]
    fn sample_size_grows_quadratically_with_accuracy() {
        // The Figure 8 phenomenon: halving E quadruples N.
        let coarse = required_samples_mean(0.95, 2.0, 0.1);
        let fine = required_samples_mean(0.95, 2.0, 0.05);
        let ratio = fine as f64 / coarse as f64;
        assert!((ratio - 4.0).abs() < 0.01, "ratio {ratio} should be ~4");
    }

    #[test]
    fn sample_size_grows_quadratically_with_std_dev() {
        // The Figure 8 phenomenon, other axis: doubling σ quadruples N.
        let low = required_samples_mean(0.95, 1.0, 0.05);
        let high = required_samples_mean(0.95, 2.0, 0.05);
        let ratio = high as f64 / low as f64;
        assert!((ratio - 4.0).abs() < 0.01);
    }

    #[test]
    fn zero_variance_needs_minimum_samples() {
        assert_eq!(required_samples_mean(0.95, 0.0, 0.05), 2);
    }

    #[test]
    fn half_width_shrinks_with_root_n() {
        let w100 = half_width_mean(0.95, 1.0, 100);
        let w400 = half_width_mean(0.95, 1.0, 400);
        assert!((w100 / w400 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn half_width_infinite_without_data() {
        assert!(half_width_mean(0.95, 1.0, 0).is_infinite());
    }

    #[test]
    fn half_width_consistent_with_required_samples() {
        // If we take exactly N_m samples, the half-width should be ~ε.
        let sigma = 3.0;
        let eps = 0.1;
        let n = required_samples_mean(0.95, sigma, eps);
        let w = half_width_mean(0.95, sigma, n);
        assert!(w <= eps * 1.001, "half-width {w} exceeds target {eps}");
        assert!(w >= eps * 0.95, "half-width {w} suspiciously small");
    }

    #[test]
    #[should_panic(expected = "confidence must be in (0, 1)")]
    fn rejects_bad_confidence() {
        let _ = z_value(1.0);
    }

    #[test]
    fn memo_hit_is_bit_identical_to_fresh_computation() {
        let cold = z_value(0.951);
        let hit = z_value(0.951); // served from the one-entry memo
        let _evict = z_value(0.991); // different bits displace the entry
        let recomputed = z_value(0.951); // full recomputation
        assert_eq!(cold.to_bits(), hit.to_bits());
        assert_eq!(cold.to_bits(), recomputed.to_bits());
    }

    #[test]
    #[should_panic(expected = "quantile must be in (0, 1)")]
    fn rejects_bad_quantile() {
        let _ = required_samples_quantile(0.95, 1.0, 0.05);
    }

    /// Required sample sizes are monotone: tighter accuracy or higher
    /// variance can never need fewer samples.
    #[test]
    fn required_samples_monotone() {
        check("required_samples_monotone", 256, |g| {
            let (sigma, eps) = (g.range(0.01..100.0), g.range(0.001..1.0));
            let factor = g.range(1.0..10.0);
            let base = required_samples_mean(0.95, sigma, eps);
            assert!(required_samples_mean(0.95, sigma * factor, eps) >= base);
            assert!(required_samples_mean(0.95, sigma, eps / factor) >= base);
        });
    }

    /// Quantile sample sizes peak at the median and are symmetric.
    #[test]
    fn quantile_samples_symmetric() {
        check("quantile_samples_symmetric", 256, |g| {
            let q = g.range(0.01..0.5);
            let lo = required_samples_quantile(0.95, q, 0.01);
            let hi = required_samples_quantile(0.95, 1.0 - q, 0.01);
            let median = required_samples_quantile(0.95, 0.5, 0.01);
            assert_eq!(lo, hi);
            assert!(median >= lo);
        });
    }
}
