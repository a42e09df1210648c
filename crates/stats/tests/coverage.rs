//! Coverage of the stopping rule's intervals at the statistics layer, on
//! streams whose mean and quantiles are known in closed form.
//!
//! Each row runs `OutputMetric` with
//! `MetricSpec::new("m").with_target_accuracy(0.01).with_warmup(1000)` (the
//! default 95 % confidence, the 0.95 quantile and N_c = 5000) at seeds
//! 1000–1399, each to `is_converged()`. "Mean covers" means
//! `mean ± mean_half_width` holds the truth; "p95 covers" means
//! |F(x̂₉₅) − 0.95| ≤ `half_width_probability`, Eq. 3's own contract, on
//! the streams whose CDF F is known.
//!
//! `cargo test -p bighouse-stats --test coverage -- --nocapture` prints
//! each row as EXPERIMENTS.md records it.

use bighouse_des::SimRng;
use bighouse_stats::math::normal_cdf;
use bighouse_stats::{MetricSpec, OutputMetric};

const SEEDS: std::ops::Range<u64> = 1000..1400;

/// 95 % − 3σ of the binomial at n = 400 (σ = √(0.95 · 0.05 / 400)).
const COVERAGE_FLOOR: f64 = 0.917;

/// A stream's coverage over [`SEEDS`].
struct Row {
    means: Vec<f64>,
    mean_covers: f64,
    /// `None` for a stream without a closed-form CDF.
    p95_covers: Option<f64>,
    mean_lag: f64,
    mean_observed: f64,
}

/// Runs one metric per seed to convergence on the stream `stream` builds,
/// against the true mean `truth` and, where known, the true CDF `cdf`.
fn row(
    name: &str,
    truth: f64,
    cdf: Option<&dyn Fn(f64) -> f64>,
    stream: impl Fn(SimRng) -> Box<dyn FnMut() -> f64>,
) -> Row {
    let runs = SEEDS.end - SEEDS.start;
    let (mut means, mut mean_covers, mut p95_covers) = (Vec::new(), 0u32, 0u32);
    let (mut lags, mut observed) = (0usize, 0u64);
    for seed in SEEDS {
        let mut next = stream(SimRng::from_seed(seed));
        let mut metric = OutputMetric::new(
            MetricSpec::new("m")
                .with_target_accuracy(0.01)
                .with_warmup(1000),
        );
        while !metric.is_converged() {
            metric.record(next());
        }
        let estimate = metric
            .estimate()
            .expect("a converged metric has kept samples");
        let p95 = estimate.quantiles[0];
        assert_eq!(p95.q, 0.95);
        mean_covers += u32::from((estimate.mean - truth).abs() <= estimate.mean_half_width);
        if let Some(cdf) = cdf {
            p95_covers += u32::from((cdf(p95.value) - 0.95).abs() <= p95.half_width_probability);
        }
        means.push(estimate.mean);
        lags += estimate.lag;
        observed += estimate.total_observed;
    }
    let row = Row {
        means,
        mean_covers: f64::from(mean_covers) / runs as f64,
        p95_covers: cdf.map(|_| f64::from(p95_covers) / runs as f64),
        mean_lag: lags as f64 / runs as f64,
        mean_observed: observed as f64 / runs as f64,
    };
    let p95 = row
        .p95_covers
        .map_or("—".to_owned(), |c| format!("{:.1} %", 100.0 * c));
    println!(
        "| {name} | defaults | {:.2} | {:.0}k | {:.2} % | {p95} |",
        row.mean_lag,
        row.mean_observed / 1000.0,
        100.0 * row.mean_covers,
    );
    row
}

impl Row {
    /// Asserts that the mean of the per-seed means lies within 3 standard
    /// errors of `truth`.
    fn assert_means_center_on(&self, truth: f64) {
        let n = self.means.len() as f64;
        let grand = self.means.iter().sum::<f64>() / n;
        let spread = self.means.iter().map(|m| (m - grand).powi(2)).sum::<f64>() / (n - 1.0);
        let standard_error = (spread / n).sqrt();
        println!("  mean of means {grand:.5}, SE {standard_error:.5}, truth {truth:.5}");
        assert!(
            (grand - truth).abs() <= 3.0 * standard_error,
            "mean of means {grand}, standard error {standard_error}"
        );
    }
}

/// An Exp(rate) draw.
fn exp(rng: &mut SimRng, rate: f64) -> f64 {
    -rng.open01().ln() / rate
}

/// A standard normal draw by the Box–Muller transform.
fn normal(rng: &mut SimRng) -> f64 {
    let (u1, u2) = (rng.open01(), rng.open01());
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[test]
fn iid_exponential_covers_at_nominal() {
    let row = row(
        "i.i.d. Exp(1)",
        1.0,
        Some(&|x| 1.0 - (-x).exp()),
        |mut rng| Box::new(move || exp(&mut rng, 1.0)),
    );
    assert!(
        row.mean_covers >= COVERAGE_FLOOR,
        "mean coverage {}",
        row.mean_covers
    );
    let p95_covers = row.p95_covers.expect("the exponential CDF is known");
    assert!(p95_covers >= COVERAGE_FLOOR, "p95 coverage {p95_covers}");
}

/// M/M/1 response times by the Lindley recursion W' = max(0, W + S − A),
/// T = W + S, at λ = 0.5 and μ = 1: T ~ Exp(μ − λ), so E[T] = 2.
///
/// Its intervals under-cover (EXPERIMENTS.md records by how much); that is
/// ROADMAP item 4's to fix. Until then this gates only the point
/// estimate: the mean of the 400 means lies within 3 standard errors of 2.
#[test]
fn mm1_response_time_means_center_on_the_truth() {
    let (lambda, mu) = (0.5, 1.0);
    let row = row(
        "M/M/1 T",
        1.0 / (mu - lambda),
        Some(&|x| 1.0 - (-(mu - lambda) * x).exp()),
        |mut rng| {
            let mut wait = 0.0;
            Box::new(move || {
                let service = exp(&mut rng, mu);
                let response = wait + service;
                wait = (response - exp(&mut rng, lambda)).max(0.0);
                response
            })
        },
    );
    row.assert_means_center_on(2.0);
}

/// The AR(1) stream X' = 10 + 0.9 (X − 10) + Z, Z ~ N(0, 1), from X = 10:
/// stationary N(10, σ²) with σ² = 1 / (1 − 0.9²) = 1 / 0.19, and
/// correlated at every lag, so the stopping rule must find a lag. A metric
/// is never negative, so the row records max(X, 0): X falls below 0 with
/// probability Φ(−10/σ) ≈ 7e-6, which moves the mean by ~3e-6 and leaves
/// the CDF above 0, where the p95 is, as it was.
///
/// Like the M/M/1 row its intervals under-cover (EXPERIMENTS.md records
/// by how much), so it too gates only that the mean of the 400 means lies
/// within 3 standard errors of 10.
#[test]
fn ar1_means_center_on_the_truth() {
    let sigma = 1.0 / 0.19_f64.sqrt();
    let row = row(
        "AR(1), φ = 0.9",
        10.0,
        Some(&|x| normal_cdf((x - 10.0) / sigma)),
        |mut rng| {
            let mut x = 10.0;
            Box::new(move || {
                x = 10.0 + 0.9 * (x - 10.0) + normal(&mut rng);
                x.max(0.0)
            })
        },
    );
    row.assert_means_center_on(10.0);
}

/// M/G/1 response times by the Lindley recursion at λ = 0.5 with Pareto
/// service of mean 1 and tail index α = 5: S = x_m · U^(−1/α) with
/// x_m = (α − 1)/α. The truth is Pollaczek–Khinchine,
/// E[T] = E[S] + λ E[S²] / (2 (1 − ρ)) with E[S²] = α x_m² / (α − 2) and
/// ρ = λ E[S] = 0.5; Var(T) is finite because α > 3. T has no closed-form
/// CDF, so the row reports no p95 coverage.
///
/// Like the M/M/1 row its intervals under-cover (EXPERIMENTS.md records
/// by how much), so it gates only that the mean of the 400 means lies
/// within 3 standard errors of E[T]. At α = 3.5 the same row misses that
/// gate too (its means sit 3.2 standard errors low), so EXPERIMENTS.md
/// records it and no test runs it.
#[test]
fn mg1_pareto_means_center_on_the_truth() {
    let (lambda, alpha) = (0.5, 5.0);
    let minimum = (alpha - 1.0) / alpha;
    let second_moment = alpha * minimum * minimum / (alpha - 2.0);
    let truth = 1.0 + lambda * second_moment / (2.0 * (1.0 - lambda));
    let row = row(
        &format!("M/G/1 T, Pareto α = {alpha}"),
        truth,
        None,
        |mut rng| {
            let mut wait = 0.0;
            Box::new(move || {
                let service = minimum * rng.open01().powf(-1.0 / alpha);
                let response = wait + service;
                wait = (response - exp(&mut rng, lambda)).max(0.0);
                response
            })
        },
    );
    row.assert_means_center_on(truth);
}
