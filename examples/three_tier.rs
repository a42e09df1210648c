//! Multi-tier extension: a three-tier web service.
//!
//! The paper notes its sample workloads "all model simple client-server
//! round-trip interactions" and that "the BigHouse object model must be
//! extended if a user wishes to model … all three tiers of a three-tier
//! web service" (§2.2). This example exercises exactly that extension: a
//! web → application → database pipeline, with per-tier residence times
//! and end-to-end latency, swept over offered load to find the bottleneck.
//! The pipeline is one `ExperimentConfig`: the base cluster is the web
//! tier, and each `with_tier` appends the next.
//!
//! Run with: `cargo run --release --example three_tier`

use bighouse::prelude::*;
use bighouse::sim::TierConfig;

fn empirical(mean: f64, cv: f64, seed: u64) -> Empirical {
    let dist = fit_mean_cv(mean, cv).expect("fittable moments");
    let mut rng = SimRng::from_seed(seed);
    let samples: Vec<f64> = (0..100_000)
        .map(|_| dist.sample(&mut rng).max(1e-12))
        .collect();
    Empirical::from_samples(&samples).expect("non-empty")
}

fn main() {
    // Tier capacities: web 2×2/2ms = 2000/s, app 2×4/10ms = 800/s,
    // db 1×8/15ms ≈ 533/s — the database is the bottleneck by design.
    println!("Three-tier service: web (2x2c, 2ms) -> app (2x4c, 10ms) -> db (1x8c, 15ms)");
    println!("db tier capacity ~533 req/s is the designed bottleneck");
    println!();
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "req/s", "e2e p95(ms)", "e2e mean", "web (ms)", "app (ms)", "db (ms)"
    );

    for rate in [100.0, 200.0, 300.0, 400.0, 450.0] {
        let web = Workload::new(
            "three-tier",
            empirical(1.0 / rate, 1.0, 4),
            empirical(0.002, 1.5, 1),
        );
        let config = ExperimentConfig::new(web)
            .with_servers(2)
            .with_cores(2)
            .with_arrival_mode(ArrivalMode::LoadBalanced(BalancerPolicy::JoinShortestQueue))
            .with_tier(TierConfig::new(2, 4, empirical(0.010, 2.0, 2)))
            .with_tier(TierConfig::new(1, 8, empirical(0.015, 1.2, 3)))
            .with_target_accuracy(0.05)
            .with_warmup(500)
            .with_calibration(2000)
            .with_max_events(100_000_000);
        let report = run_serial(&config, 11).expect("valid config");
        assert!(
            report.converged,
            "three-tier run should converge at {rate} req/s"
        );
        let mean = |name: &str| report.metric(name).unwrap().mean * 1e3;
        let (web, db) = (mean("tier_0_response"), mean("tier_2_response"));
        if rate == 400.0 {
            assert!(db > web, "the db tier should dominate at {rate} req/s");
        }
        println!(
            "{:>8.0} {:>12.2} {:>12.2} {:>12.2} {:>12.2} {:>12.2}",
            rate,
            report.quantile("response_time", 0.95).unwrap() * 1e3,
            mean("response_time"),
            web,
            mean("tier_1_response"),
            db,
        );
    }

    println!();
    println!("As offered load approaches the db tier's capacity, its residence time —");
    println!("and therefore the end-to-end tail — dominates, while the overprovisioned");
    println!("web tier stays flat.");
}
