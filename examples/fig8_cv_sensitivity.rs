//! Regenerates **Figure 8**: sensitivity to workload distribution variance
//! — the achieved accuracy E of the response-time estimate as a function
//! of simulated events, for service distributions with C_v ∈ {1, 2, 4}.
//!
//! The paper's point is Eq. 2 made visible: required sample size grows
//! with σ², so pushing E from 0.1 to 0.05 costs disproportionately more
//! simulation for high-variance workloads.
//!
//! Run with: `cargo run --release --example fig8_cv_sensitivity`

use bighouse::des::{Calendar, Engine};
use bighouse::prelude::*;
use bighouse::sim::ClusterSim;

fn synth(mean: f64, cv: f64, interarrival_mean: f64) -> Workload {
    let service = fit_mean_cv(mean, cv).expect("fittable");
    let arrivals = Exponential::from_mean(interarrival_mean).expect("positive mean");
    let mut rng = SimRng::from_seed(0xC0FFEE);
    let svc_samples: Vec<f64> = (0..200_000)
        .map(|_| service.sample(&mut rng).max(1e-12))
        .collect();
    let arr_samples: Vec<f64> = (0..200_000)
        .map(|_| arrivals.sample(&mut rng).max(1e-12))
        .collect();
    Workload::new(
        format!("cv{cv}"),
        Empirical::from_samples(&arr_samples).unwrap(),
        Empirical::from_samples(&svc_samples).unwrap(),
    )
}

fn main() {
    let load: f64 = 0.5;
    let seed: u64 = 23;
    let cores = 4;
    let service_mean = 0.075; // Web-like 75 ms tasks
    let targets = [0.20, 0.10, 0.05, 0.02];

    println!("Figure 8: simulated events needed to reach accuracy E, by service Cv");
    println!(
        "(single quad-core server, {:.0}% load, response-time mean)",
        load * 100.0
    );
    println!();
    print!("{:>6}", "Cv");
    for e in targets {
        print!("{:>14}", format!("E<={e:.2}"));
    }
    println!("{:>14}", "lag");

    for cv in [1.0, 2.0, 4.0] {
        let interarrival_mean = service_mean / (load * f64::from(cores));
        let workload = synth(service_mean, cv, interarrival_mean);
        // "We use the response time as the sole output metric": a
        // mean-only spec, so Eq. 2 alone governs convergence.
        let config = ExperimentConfig::new(workload)
            .with_cores(cores as usize)
            .with_metric_spec(
                MetricKind::ResponseTime,
                MetricSpec::new("response_time")
                    .with_target_accuracy(0.02)
                    .with_quantiles(&[]),
            )
            .with_max_events(2_000_000_000);
        let mut sim = ClusterSim::new(config, seed).expect("valid config");
        let mut cal = Calendar::new();
        sim.prime(&mut cal);
        let mut engine = Engine::from_parts(sim, cal);
        let mut events = 0u64;
        let mut crossings: Vec<Option<u64>> = vec![None; targets.len()];
        loop {
            let run = engine.run_with_limit(2_000);
            events += run.events_fired;
            let metric = engine
                .simulation()
                .stats()
                .metric_by_name("response_time")
                .expect("registered");
            let e_now = metric.current_relative_accuracy();
            for (i, &target) in targets.iter().enumerate() {
                if crossings[i].is_none() && e_now <= target {
                    crossings[i] = Some(events);
                }
            }
            if run.stopped_by_simulation
                || run.events_fired == 0
                || crossings[targets.len() - 1].is_some()
            {
                break;
            }
        }
        let lag = engine
            .simulation()
            .stats()
            .metric_by_name("response_time")
            .unwrap()
            .lag();
        print!("{cv:>6.1}");
        for crossing in &crossings {
            match crossing {
                Some(events) => print!("{events:>14}"),
                None => print!("{:>14}", "-"),
            }
        }
        println!("{lag:>14}");
    }

    println!();
    println!("Expected shape (paper): at loose E the curves are close, but reaching");
    println!("E = 0.05 takes disproportionately more events as Cv grows (Eq. 2:");
    println!("sample size scales with sigma^2, and lag spacing inflates it further).");
}
