//! Property-based tests for the statistics package.

use bighouse_des::check::{check, Gen};
use bighouse_des::SimRng;
use bighouse_stats::{Histogram, MetricSpec, OutputMetric, RunningStats};

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

/// Histogram quantiles are monotone in q and bounded by the observed range
/// to within a bucket.
#[test]
fn histogram_quantiles_monotone() {
    check("histogram_quantiles_monotone", 256, |g| {
        quantiles_are_monotone(&observations(g))
    });
}

fn quantiles_are_monotone(data: &[f64]) {
    let hist = recorded(data);
    let mut last = f64::NEG_INFINITY;
    for i in 0..=20 {
        let q = i as f64 / 20.0;
        let v = hist.quantile(q).unwrap();
        assert!(v >= last, "quantile not monotone at q={q}");
        last = v;
    }
    let min = data.iter().copied().fold(f64::INFINITY, f64::min);
    let max = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    assert!(hist.quantile(0.0).unwrap() >= min / GAMMA / (1.0 + 1e-12));
    assert!(hist.quantile(1.0).unwrap() <= max * GAMMA * (1.0 + 1e-12));
}

/// Histogram merge is equivalent to recording the union, for any split.
#[test]
fn histogram_merge_equals_union() {
    check("histogram_merge_equals_union", 256, |g| {
        histogram_merge_is_union(&observations(g), g.range(0.0..1.0));
    });
}

fn histogram_merge_is_union(data: &[f64], split_frac: f64) {
    let split = ((data.len() as f64) * split_frac) as usize;
    let (left, right) = data.split_at(split.min(data.len()));
    let mut a = recorded(left);
    a.merge(&recorded(right));
    assert_eq!(a, recorded(data));
}

/// γ = (1 + a)/(1 − a) at a = 0.2 %: the ratio of a bucket's edges, so a
/// reported quantile lies within γ − 1 ≈ 0.4 % of its order statistic.
const GAMMA: f64 = 1.002 / 0.998;

fn recorded(data: &[f64]) -> Histogram {
    let mut hist = Histogram::new();
    for &x in data {
        hist.record(x);
    }
    hist
}

/// One observation of a stream that has everything the buckets must
/// survive: exact zeros, ties, tiny values, a heavy tail, and (with
/// `wide`) values spanning more than 1e9, so that the collapse of the
/// lowest buckets fires.
fn awkward(g: &mut Gen, wide: bool) -> f64 {
    match g.range(0..6) {
        0 => 0.0,
        1 => 3.0, // ties
        2 => g.range(1e-7..1e-6),
        3 => g.range(0.5..2.0),
        // Pareto α = 1.1, capped so that one draw cannot outspan the rest.
        4 => g.range(1e-9..1.0f64).powf(-1.0 / 1.1).min(1e5),
        _ if wide => g.range(1e-300..1e-200),
        _ => g.range(0.01..0.1),
    }
}

/// Merging is order-free: a stream split into up to 8 parts, recorded
/// apart and merged in a random order, gives the histogram of the whole
/// stream — every bucket count and every quantile, bit for bit — however
/// far its span has collapsed.
#[test]
fn merged_parts_equal_the_whole_stream_bit_for_bit() {
    check(
        "merged_parts_equal_the_whole_stream_bit_for_bit",
        256,
        |g| {
            let wide = g.any();
            let data = g.vec(1..3000, |g| awkward(g, wide));
            let whole = recorded(&data);
            let mut parts: Vec<Histogram> = vec![Histogram::new(); g.range(1..9)];
            for &x in &data {
                let part = g.range(0..parts.len());
                parts[part].record(x);
            }
            let mut merged = Histogram::new();
            while !parts.is_empty() {
                let next = parts.swap_remove(g.range(0..parts.len()));
                merged.merge(&next);
            }
            assert_eq!(merged, whole);
            assert_eq!(
                bighouse_json::to_string(&merged),
                bighouse_json::to_string(&whole)
            );
            for i in 0..=100 {
                let q = f64::from(i) / 100.0;
                assert_eq!(
                    merged.quantile(q).map(f64::to_bits),
                    whole.quantile(q).map(f64::to_bits),
                    "q = {q}"
                );
            }
        },
    );
}

/// The `q`-quantile of `data` the histogram reports against: its
/// ⌈q·n⌉-th smallest value.
fn order_statistic(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank - 1]
}

/// Asserts that `hist`'s p50, p95 and p99 each lie within one bucket of
/// the order statistic of `data`, whose span stays below the collapse.
fn quantiles_within_one_bucket(hist: &Histogram, data: &[f64], what: &str) {
    let mut sorted = data.to_vec();
    sorted.sort_by(f64::total_cmp);
    for q in [0.5, 0.95, 0.99] {
        let exact = order_statistic(&sorted, q);
        let reported = hist.quantile(q).unwrap();
        if exact == 0.0 {
            assert_eq!(reported, 0.0, "{what}: p{q}");
        } else {
            let error = (reported / exact - 1.0).abs();
            assert!(
                error < GAMMA - 1.0 + 1e-12,
                "{what}: p{q} reported {reported}, exact {exact}, error {error}"
            );
        }
    }
}

/// Every reported p50, p95 and p99 lies within one bucket of the exact
/// order statistic of the recorded values.
#[test]
fn reported_quantiles_lie_within_one_bucket_of_the_order_statistic() {
    check(
        "reported_quantiles_lie_within_one_bucket_of_the_order_statistic",
        256,
        |g| {
            let data = g.vec(1..3000, |g| awkward(g, false));
            quantiles_within_one_bucket(&recorded(&data), &data, "awkward");
        },
    );
}

/// A metric's reported quantiles are those of the sample it kept, on the
/// two streams fitted bins got wrong: a Shell-like one with C_v ≈ 15,
/// whose rare tail stretched the fitted range over the body, and a
/// DNS-like one whose tail outruns its first 5 000 values, which
/// overflowed the fitted range and were clamped to the maximum.
#[test]
fn a_metric_reports_the_quantiles_of_its_kept_sample() {
    // Balanced-means H2 with C_v = 15 and mean 1.
    let cv2: f64 = 15.0 * 15.0;
    let p = 0.5 * (1.0 + ((cv2 - 1.0) / (cv2 + 1.0)).sqrt());
    let mut rng = SimRng::from_seed(2012);
    let shell: Vec<f64> = (0..40_000)
        .map(|_| {
            let rate = if rng.half_open01() < p {
                2.0 * p
            } else {
                2.0 * (1.0 - p)
            };
            -rng.open01().ln() / rate
        })
        .collect();
    // Exponential with mean 1 for the 5 000 values calibration sees, then
    // one value in ten from a tail twenty times as long.
    let dns: Vec<f64> = (0..40_000)
        .map(|i| {
            let scale = if i >= 5_000 && rng.half_open01() < 0.1 {
                20.0
            } else {
                1.0
            };
            -rng.open01().ln() * scale
        })
        .collect();
    for (what, stream) in [("shell", &shell), ("dns", &dns)] {
        // Lag 1 and no warm-up: the kept sample is the whole stream.
        let spec = MetricSpec::new(what)
            .with_warmup(0)
            .with_max_lag(1)
            .with_quantiles(&[0.5, 0.95, 0.99]);
        let mut metric = OutputMetric::new(spec);
        for &x in stream {
            metric.record(x);
        }
        assert_eq!(metric.kept_count(), stream.len() as u64);
        let estimate = metric.estimate().unwrap();
        let mut sorted = stream.clone();
        sorted.sort_by(f64::total_cmp);
        for reported in &estimate.quantiles {
            let exact = order_statistic(&sorted, reported.q);
            let error = (reported.value / exact - 1.0).abs();
            assert!(
                error < GAMMA - 1.0,
                "{what}: p{} reported {}, exact {exact}, error {error}",
                reported.q,
                reported.value
            );
        }
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
