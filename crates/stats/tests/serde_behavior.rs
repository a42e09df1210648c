//! JSON round-trip property tests for every checkpointable statistics type.
//!
//! The checkpoint contract is stronger than "equal fields after
//! deserialize(serialize(x))": a restored accumulator must exhibit
//! **bit-identical subsequent behavior** — feed both copies the same
//! future observations and every derived estimate must match exactly.
//! That is what lets a killed-and-resumed simulation reproduce the
//! uninterrupted run's report bit for bit.

use bighouse_des::check::check;
use bighouse_stats::{
    BatchMeans, Histogram, MetricSpec, OutputMetric, Phase, RunningStats, StatsCollection,
};

/// Serializes any value to its canonical JSON string. Every float prints
/// at its shortest round-trip text (non-finite ones as `"inf"`, `"-inf"`,
/// `"NaN"`), so string equality is bit equality.
fn json<T: bighouse_json::ToJson>(value: &T) -> String {
    bighouse_json::to_string(value)
}

fn round_trip<T>(value: &T) -> T
where
    T: bighouse_json::ToJson + bighouse_json::FromJson,
{
    bighouse_json::from_str(&json(value)).expect("deserialize")
}

/// Deterministic observation stream, so a case is its seed alone.
fn noise(seed: u64) -> impl Iterator<Item = f64> {
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    std::iter::from_fn(move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        Some((state >> 11) as f64 / (1u64 << 53) as f64)
    })
}

/// Welford accumulator: a restored copy continues with bit-identical
/// count, mean, and variance trajectories.
#[test]
fn welford_round_trip_preserves_behavior() {
    check("welford_round_trip_preserves_behavior", 256, |g| {
        let observed = g.vec(0..200, |g| g.range(-1e6..1e6));
        let future = g.vec(1..100, |g| g.range(-1e6..1e6));
        let mut stats = RunningStats::new();
        for &x in &observed {
            stats.push(x);
        }
        let mut restored: RunningStats = round_trip(&stats);
        assert_eq!(json(&stats), json(&restored));
        for &x in &future {
            stats.push(x);
            restored.push(x);
            assert_eq!(stats.count(), restored.count());
            assert_eq!(stats.mean().to_bits(), restored.mean().to_bits());
            assert_eq!(stats.std_dev().to_bits(), restored.std_dev().to_bits());
        }
    });
}

/// Histogram: restored copy bins every future observation identically
/// and reports bit-identical quantiles.
#[test]
fn histogram_round_trip_preserves_behavior() {
    check("histogram_round_trip_preserves_behavior", 256, |g| {
        let (seed, observed, future) = (g.any(), g.range(0..500), g.range(1..200));
        let mut hist = Histogram::new();
        // Exact zeros, and a span the collapse folds.
        let mut stream = noise(seed).map(|u| if u < 0.1 { 0.0 } else { u.powi(-4) * 1e-3 });
        for _ in 0..observed {
            hist.record(stream.next().unwrap());
        }
        let mut restored: Histogram = round_trip(&hist);
        assert_eq!(&hist, &restored);
        for _ in 0..future {
            let x = stream.next().unwrap();
            hist.record(x);
            restored.record(x);
        }
        assert_eq!(&hist, &restored);
        for &q in &[0.5, 0.95, 0.99] {
            assert_eq!(
                hist.quantile(q).map(f64::to_bits),
                restored.quantile(q).map(f64::to_bits)
            );
        }
    });
}

/// Batch-means: restored copy fills batches at the same boundaries and
/// produces bit-identical interval estimates.
#[test]
fn batch_means_round_trip_preserves_behavior() {
    check("batch_means_round_trip_preserves_behavior", 256, |g| {
        let (seed, batch_size) = (g.any(), g.range(1..50));
        let (observed, future) = (g.range(0..400), g.range(1..600));
        let mut bm = BatchMeans::new(batch_size);
        let mut stream = noise(seed);
        for _ in 0..observed {
            bm.push(stream.next().unwrap());
        }
        let mut restored: BatchMeans = round_trip(&bm);
        assert_eq!(json(&bm), json(&restored));
        for _ in 0..future {
            let x = stream.next().unwrap();
            bm.push(x);
            restored.push(x);
        }
        assert_eq!(bm.observations(), restored.observations());
        assert_eq!(json(&bm.estimate(0.95)), json(&restored.estimate(0.95)));
    });
}

/// The full Figure 2 phase machine: snapshot a metric at an arbitrary
/// point of warm-up/calibration/measurement, restore it, and the copy
/// tracks the original through phase transitions, lag-spaced keeps, and
/// estimates — bit for bit.
#[test]
fn output_metric_round_trip_preserves_behavior() {
    check("output_metric_round_trip_preserves_behavior", 256, |g| {
        let (seed, observed, future) = (g.any(), g.range(0..1500), g.range(1..1500));
        let spec = MetricSpec::new("m")
            .with_warmup(10)
            .with_calibration(50)
            .with_quantile(0.95)
            .with_target_accuracy(0.05);
        let mut metric = OutputMetric::new(spec);
        let mut stream = noise(seed);
        for _ in 0..observed {
            metric.record(stream.next().unwrap());
        }
        let mut restored: OutputMetric = round_trip(&metric);
        assert_eq!(metric.phase(), restored.phase());
        for _ in 0..future {
            let x = stream.next().unwrap();
            metric.record(x);
            restored.record(x);
        }
        assert_eq!(metric.phase(), restored.phase());
        assert_eq!(metric.lag(), restored.lag());
        assert_eq!(metric.kept_count(), restored.kept_count());
        assert_eq!(metric.total_observed(), restored.total_observed());
        assert_eq!(metric.is_converged(), restored.is_converged());
        assert_eq!(json(&metric.estimate()), json(&restored.estimate()));
    });
}

/// A whole StatsCollection — several metrics plus the global warm-up
/// gate — survives the round trip with identical aggregate behavior.
#[test]
fn collection_round_trip_preserves_behavior() {
    check("collection_round_trip_preserves_behavior", 256, |g| {
        let (seed, observed, future) = (g.any(), g.range(0..800), g.range(1..2000));
        let mut stats = StatsCollection::new();
        let a = stats.add_metric(MetricSpec::new("a").with_warmup(20).with_calibration(60));
        let b = stats.add_metric(
            MetricSpec::new("b")
                .with_warmup(5)
                .with_calibration(40)
                .with_quantile(0.9),
        );
        let mut stream = noise(seed);
        for i in 0..observed {
            if i % 3 == 0 {
                stats.record(b, stream.next().unwrap());
            } else {
                stats.record(a, stream.next().unwrap());
            }
        }
        let mut restored: StatsCollection = round_trip(&stats);
        assert_eq!(json(&stats), json(&restored));
        for i in 0..future {
            let x = stream.next().unwrap();
            if i % 3 == 0 {
                stats.record(b, x);
                restored.record(b, x);
            } else {
                stats.record(a, x);
                restored.record(a, x);
            }
        }
        assert_eq!(json(&stats), json(&restored));
        assert_eq!(stats.all_converged(), restored.all_converged());
        assert_eq!(json(&stats.estimates()), json(&restored.estimates()));
    });
}

/// Non-property sanity check: a metric serialized *exactly at* a phase
/// boundary (end of calibration) resumes into measurement identically.
#[test]
fn metric_snapshot_at_calibration_boundary_resumes_identically() {
    let spec = MetricSpec::new("edge").with_warmup(10).with_calibration(50);
    let mut metric = OutputMetric::new(spec);
    let mut stream = noise(42);
    // Drive to the last observation of calibration.
    while metric.phase() == Phase::Warmup || metric.phase() == Phase::Calibration {
        metric.record(stream.next().unwrap());
        if metric.phase() == Phase::Measurement {
            break;
        }
    }
    let mut restored: OutputMetric = round_trip(&metric);
    for _ in 0..5000 {
        let x = stream.next().unwrap();
        metric.record(x);
        restored.record(x);
    }
    assert_eq!(metric.phase(), restored.phase());
    assert_eq!(
        bighouse_json::to_string(&metric.estimate()),
        bighouse_json::to_string(&restored.estimate())
    );
}
