//! Property-based tests for the statistics package.

use bighouse_des::check::{check, Gen};
use bighouse_stats::{Histogram, HistogramSpec, MetricSpec, OutputMetric, RunningStats};

fn observations(g: &mut Gen) -> Vec<f64> {
    g.vec(1..500, |g| g.range(0.0..1e6))
}

/// Welford merge equals sequential accumulation for any split point.
#[test]
fn welford_merge_equals_sequential() {
    check("welford_merge_equals_sequential", 256, |g| {
        welford_merge_is_sequential(&observations(g), g.range(0.0..1.0));
    });
}

fn welford_merge_is_sequential(data: &[f64], split_frac: f64) {
    let split = ((data.len() as f64) * split_frac) as usize;
    let (left, right) = data.split_at(split.min(data.len()));
    let mut merged: RunningStats = left.iter().copied().collect();
    let other: RunningStats = right.iter().copied().collect();
    merged.merge(&other);
    let direct: RunningStats = data.iter().copied().collect();
    assert_eq!(merged.count(), direct.count());
    assert!((merged.mean() - direct.mean()).abs() <= 1e-6 * direct.mean().abs().max(1.0));
    let (merged_var, direct_var) = (merged.std_dev().powi(2), direct.std_dev().powi(2));
    assert!((merged_var - direct_var).abs() <= 1e-4 * direct_var.max(1.0));
}

/// Welford min/max are exact under merging.
#[test]
fn welford_extremes_exact() {
    check("welford_extremes_exact", 256, |g| {
        welford_extremes_are_exact(&observations(g))
    });
}

fn welford_extremes_are_exact(data: &[f64]) {
    let stats: RunningStats = data.iter().copied().collect();
    let min = data.iter().copied().fold(f64::INFINITY, f64::min);
    let max = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    assert_eq!(stats.min(), Some(min));
    assert_eq!(stats.max(), Some(max));
}

/// Histogram quantiles are monotone in q and bounded by observed range.
#[test]
fn histogram_quantiles_monotone() {
    check("histogram_quantiles_monotone", 256, |g| {
        quantiles_are_monotone(&observations(g))
    });
}

fn quantiles_are_monotone(data: &[f64]) {
    let spec = HistogramSpec::from_calibration_sample_with_bins(data, 1000).unwrap();
    let mut hist = Histogram::new(spec);
    for &x in data {
        hist.record(x);
    }
    let mut last = f64::NEG_INFINITY;
    for i in 0..=20 {
        let q = i as f64 / 20.0;
        let v = hist.quantile(q).unwrap();
        assert!(v >= last - 1e-9, "quantile not monotone at q={q}");
        last = v;
    }
    let min = data.iter().copied().fold(f64::INFINITY, f64::min);
    let max = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    assert!(hist.quantile(0.0).unwrap() >= min - spec.width() - 1e-9);
    assert!(hist.quantile(1.0).unwrap() <= max + spec.width() + 1e-9);
}

/// Histogram merge is equivalent to recording the union, for any split.
#[test]
fn histogram_merge_equals_union() {
    check("histogram_merge_equals_union", 256, |g| {
        histogram_merge_is_union(&observations(g), g.range(0.0..1.0));
    });
}

fn histogram_merge_is_union(data: &[f64], split_frac: f64) {
    let spec = HistogramSpec::from_calibration_sample_with_bins(data, 1000).unwrap();
    let split = ((data.len() as f64) * split_frac) as usize;
    let (left, right) = data.split_at(split.min(data.len()));
    let mut a = Histogram::new(spec);
    let mut b = Histogram::new(spec);
    let mut whole = Histogram::new(spec);
    for &x in left {
        a.record(x);
        whole.record(x);
    }
    for &x in right {
        b.record(x);
        whole.record(x);
    }
    a.merge(&b);
    assert_eq!(a.count(), whole.count());
    for i in 0..=10 {
        let q = i as f64 / 10.0;
        assert_eq!(a.quantile(q), whole.quantile(q));
    }
}

/// Two recorded failing inputs of an `observations()` property, which one
/// unrecorded: each runs through all four.
#[test]
fn observation_regressions() {
    for data in [
        &[775399.0749164536][..],
        &[80547.17552629413, 971525.583411089],
    ] {
        for split_frac in [0.0, 0.5, 0.999] {
            welford_merge_is_sequential(data, split_frac);
            histogram_merge_is_union(data, split_frac);
        }
        welford_extremes_are_exact(data);
        quantiles_are_monotone(data);
    }
}

/// The metric phase machine never loses observations: total observed
/// equals the number of records.
#[test]
fn metric_conserves_observations() {
    check("metric_conserves_observations", 256, |g| {
        let data = g.vec(1..2000, |g| g.range(0.0..100.0));
        let spec = MetricSpec::new("prop")
            .with_warmup(10)
            .with_calibration(100);
        let mut metric = OutputMetric::new(spec);
        for &x in &data {
            metric.record(x);
        }
        assert_eq!(metric.total_observed(), data.len() as u64);
        // Once the 100 calibration observations are in, every post-warm-up
        // observation, the calibration sample included, passes the lag
        // filter: ⌈(N_c + m) / l⌉ are kept, never more than were measured.
        let measured = data.len().saturating_sub(10) as u64;
        if measured < 100 {
            assert_eq!(metric.kept_count(), 0);
        } else {
            assert_eq!(metric.measurement_seen(), measured);
            assert_eq!(metric.kept_count(), measured.div_ceil(metric.lag() as u64));
            assert!(metric.kept_count() <= measured);
        }
    });
}
