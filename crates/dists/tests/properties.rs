//! Property-based tests for the distribution library.

use bighouse_des::check::check;
use bighouse_des::SimRng;
use bighouse_dists::fit::{fit_mean_cv, fit_mean_sigma};
use bighouse_dists::{
    Deterministic, Distribution, Empirical, Erlang, Exponential, Gamma, HyperExponential,
    LogNormal, Mixture, Pareto, Scaled, Shifted, Uniform, Weibull,
};
use std::sync::Arc;

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
fn gamma_valid() {
    check("gamma_valid", 256, |g| {
        let (shape, scale) = (g.range(0.05..50.0), g.range(1e-3..1e3));
        let d = Gamma::new(shape, scale).unwrap();
        assert!((d.mean() - shape * scale).abs() < 1e-9 * shape * scale);
        assert_valid_samples(&d, g.any());
    });
}

#[test]
fn lognormal_valid() {
    check("lognormal_valid", 256, |g| {
        let d = LogNormal::new(g.range(-5.0..5.0), g.range(0.01..2.0)).unwrap();
        assert!(d.mean() > 0.0 && d.variance() > 0.0);
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
fn pareto_valid() {
    check("pareto_valid", 256, |g| {
        let min = g.range(1e-3..1e3);
        let d = Pareto::new(min, g.range(2.01..20.0)).unwrap();
        assert!(d.mean() >= min);
        let mut rng = SimRng::from_seed(g.any());
        for _ in 0..200 {
            assert!(d.sample(&mut rng) >= min);
        }
    });
}

#[test]
fn uniform_valid() {
    check("uniform_valid", 256, |g| {
        let (low, width) = (g.range(0.0..100.0), g.range(0.01..100.0));
        let d = Uniform::new(low, low + width).unwrap();
        let mut rng = SimRng::from_seed(g.any());
        for _ in 0..200 {
            let x = d.sample(&mut rng);
            assert!(x >= low && x < low + width);
        }
    });
}

/// A two-component mixture declares the weighted mean of its components
/// whatever the weights' scale, and samples only what a component can draw.
#[test]
fn mixture_valid() {
    check("mixture_valid", 256, |g| {
        let (w, scale) = (g.range(0.01..0.99), g.range(1e-3..1e3));
        let (a, b) = (g.range(1e-3..1e3), g.range(1e-3..1e3));
        let d = Mixture::new(vec![
            (w * scale, Arc::new(Deterministic::new(a).unwrap()) as _),
            (
                (1.0 - w) * scale,
                Arc::new(Deterministic::new(b).unwrap()) as _,
            ),
        ])
        .unwrap();
        let mean = w * a + (1.0 - w) * b;
        assert!(
            (d.mean() - mean).abs() <= 1e-9 * mean,
            "mean {} != {mean}",
            d.mean()
        );
        let mut rng = SimRng::from_seed(g.any());
        for _ in 0..200 {
            let x = d.sample(&mut rng);
            assert!(x == a || x == b, "sample {x} is neither component");
        }
    });
}

/// Moment fitting hits the requested (mean, C_v) exactly across the
/// entire supported space — the Table 1 synthesis guarantee.
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

/// Hyperexponential balanced-means fit: phase means equal, moments hit.
#[test]
fn h2_balanced_fit() {
    check("h2_balanced_fit", 256, |g| {
        let mean = g.range(1e-3..1e3);
        let d = HyperExponential::from_mean_cv(mean, g.range(1.001..30.0)).unwrap();
        let m1 = d.p1() / d.rate1();
        let m2 = (1.0 - d.p1()) / d.rate2();
        assert!((m1 - m2).abs() <= 1e-9 * m1.max(m2));
        assert!((d.mean() - mean).abs() <= 1e-9 * mean);
    });
}

/// Scaling is exactly linear in the factor for any inner distribution.
#[test]
fn scaled_linearity() {
    check("scaled_linearity", 256, |g| {
        let (mean, factor, seed) = (g.range(1e-3..10.0), g.range(1e-3..1e3), g.any());
        let inner = Arc::new(Exponential::from_mean(mean).unwrap());
        let scaled = Scaled::new(inner.clone() as _, factor).unwrap();
        let mut rng1 = SimRng::from_seed(seed);
        let mut rng2 = SimRng::from_seed(seed);
        for _ in 0..50 {
            let raw = inner.sample(&mut rng1);
            let s = scaled.sample(&mut rng2);
            assert!((s - raw * factor).abs() <= 1e-12 * s.abs().max(1.0));
        }
    });
}

/// Shifting adds exactly the offset to every sample.
#[test]
fn shifted_offset() {
    check("shifted_offset", 256, |g| {
        let (mean, offset, seed) = (g.range(1e-3..10.0), g.range(0.0..1e3), g.any());
        let inner = Arc::new(Exponential::from_mean(mean).unwrap());
        let shifted = Shifted::new(inner.clone() as _, offset).unwrap();
        let mut rng1 = SimRng::from_seed(seed);
        let mut rng2 = SimRng::from_seed(seed);
        for _ in 0..50 {
            let raw = inner.sample(&mut rng1);
            let s = shifted.sample(&mut rng2);
            assert!((s - (raw + offset)).abs() <= 1e-9 * s.max(1.0));
        }
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
