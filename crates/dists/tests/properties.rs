//! Property-based tests for the distribution library.

use bighouse_des::check::check;
use bighouse_des::SimRng;
use bighouse_dists::fit::{fit_mean_cv, fit_mean_sigma};
use bighouse_dists::{Deterministic, Distribution, Empirical, Erlang, Exponential, Weibull};

fn assert_valid_samples(dist: &dyn Distribution, seed: u64) {
    let mut rng = SimRng::from_seed(seed);
    for _ in 0..200 {
        let x = dist.sample(&mut rng);
        assert!(x.is_finite() && x >= 0.0, "bad sample {x} from {dist:?}");
    }
}

/// Every analytic family produces finite, non-negative samples and
/// declares finite, non-negative moments, across its parameter space.
#[test]
fn exponential_valid() {
    check("exponential_valid", 256, |g| {
        let d = Exponential::new(g.range(1e-6..1e6)).unwrap();
        assert!(d.mean() > 0.0 && d.variance() > 0.0);
        assert_valid_samples(&d, g.any());
    });
}

#[test]
fn erlang_valid() {
    check("erlang_valid", 256, |g| {
        let k = g.range(1..200);
        let d = Erlang::new(k, g.range(1e-3..1e3)).unwrap();
        assert!((d.cv() - 1.0 / f64::from(k).sqrt()).abs() < 1e-9);
        assert_valid_samples(&d, g.any());
    });
}

#[test]
fn weibull_valid() {
    check("weibull_valid", 256, |g| {
        let d = Weibull::new(g.range(0.3..10.0), g.range(1e-3..1e3)).unwrap();
        assert!(d.mean() > 0.0 && d.variance() >= 0.0);
        assert_valid_samples(&d, g.any());
    });
}

#[test]
fn fit_matches_moments() {
    check("fit_matches_moments", 256, |g| {
        let (mean, cv) = (g.range(1e-6..1e3), g.range(0.0..20.0));
        let d = fit_mean_cv(mean, cv).unwrap();
        assert!(
            (d.mean() - mean).abs() <= 1e-9 * mean,
            "mean {} != {mean}",
            d.mean()
        );
        assert!(
            (d.cv() - cv).abs() <= 1e-6 * cv.max(1.0),
            "cv {} != {cv}",
            d.cv()
        );
    });
}

#[test]
fn fit_by_sigma_matches() {
    check("fit_by_sigma_matches", 256, |g| {
        let mean = g.range(1e-3..1e3);
        let sigma = mean * g.range(0.0..10.0);
        let d = fit_mean_sigma(mean, sigma).unwrap();
        assert!((d.std_dev() - sigma).abs() <= 1e-6 * sigma.max(1e-9));
    });
}

/// Empirical distributions: quantile function is monotone, samples land
/// within [min, max] of the source, and scaling preserves C_v.
#[test]
fn empirical_invariants() {
    check("empirical_invariants", 256, |g| {
        let data = g.vec(2..300, |g| g.range(0.0..1e4));
        let d = Empirical::from_samples(&data).unwrap();
        let mut last = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let v = d.quantile(q);
            assert!(v >= last - 1e-12);
            last = v;
        }
        let min = data.iter().copied().fold(f64::INFINITY, f64::min);
        let max = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut rng = SimRng::from_seed(g.any());
        for _ in 0..100 {
            let x = d.sample(&mut rng);
            assert!(x >= min - 1e-9 && x <= max + 1e-9);
        }
        let factor = g.range(0.01..100.0);
        let scaled = d.scaled(factor).unwrap();
        assert!((scaled.mean() - d.mean() * factor).abs() <= 1e-9 * scaled.mean().max(1e-12));
        assert!((scaled.cv() - d.cv()).abs() <= 1e-6);
    });
}

/// Deterministic is a fixed point of sampling.
#[test]
fn deterministic_constant() {
    check("deterministic_constant", 256, |g| {
        let value = g.range(0.0..1e6);
        let d = Deterministic::new(value).unwrap();
        let mut rng = SimRng::from_seed(g.any());
        assert_eq!(d.sample(&mut rng), value);
    });
}
