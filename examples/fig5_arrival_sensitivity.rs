//! Regenerates **Figure 5**: the inter-arrival distribution has a large
//! effect on tail latency.
//!
//! Three arrival processes with identical means drive the same Google
//! search service distribution: a low-C_v (Erlang-16) process typical of
//! load testers, the exponential process "typically assumed in analytic
//! modeling", and the bursty empirical process. The paper's point: the
//! convenient assumptions systematically underestimate the 95th-percentile
//! latency of real traffic, increasingly so at high load.
//!
//! Run with: `cargo run --release --example fig5_arrival_sensitivity`

use bighouse::prelude::*;

fn synth_arrivals(dist: &dyn Distribution, base: &Workload, name: &str) -> Workload {
    let mut rng = SimRng::from_seed(0xA881_7A15);
    let samples: Vec<f64> = (0..200_000)
        .map(|_| dist.sample(&mut rng).max(1e-12))
        .collect();
    Workload::new(
        name,
        Empirical::from_samples(&samples).expect("non-empty"),
        base.service().clone(),
    )
}

fn main() {
    let accuracy: f64 = 0.05;
    let seed: u64 = 11;
    let google = Workload::standard(StandardWorkload::Google);
    let cores = 4u32;
    let service_mean = google.service().mean();
    let qps_values = [0.55, 0.60, 0.65, 0.70, 0.75, 0.80];

    println!("Figure 5: 95th-percentile latency (normalized to 1/mu) vs QPS");
    println!();
    println!(
        "{:>8} {:>12} {:>14} {:>12}",
        "QPS(%)", "Low Cv", "Exponential", "Empirical"
    );

    for qps in qps_values {
        let interarrival_mean = service_mean / (qps * f64::from(cores));
        let low_cv = synth_arrivals(
            &Erlang::from_mean(16, interarrival_mean).unwrap(),
            &google,
            "lowcv",
        );
        let exponential = synth_arrivals(
            &Exponential::from_mean(interarrival_mean).unwrap(),
            &google,
            "exp",
        );
        let empirical = google.at_utilization(qps, cores);

        let mut row = Vec::new();
        for workload in [low_cv, exponential, empirical] {
            let config = ExperimentConfig::new(workload)
                .with_cores(cores as usize)
                .with_target_accuracy(accuracy);
            let report = run_serial(&config, seed).expect("valid config");
            row.push(report.quantile("response_time", 0.95).unwrap() / service_mean);
        }
        println!(
            "{:>8.0} {:>12.2} {:>14.2} {:>12.2}",
            qps * 100.0,
            row[0],
            row[1],
            row[2]
        );
    }

    println!();
    println!("Expected shape (paper): Empirical >= Exponential >= Low Cv at every load,");
    println!("with the gap widening as QPS grows — poor arrival assumptions lead to");
    println!("large estimation errors.");
}
