//! Ablation: calibration sample size.
//!
//! The 5000-observation calibration phase is both the foundation of
//! BigHouse's independence machinery (the runs-up test needs enough data
//! to choose a lag) and the Amdahl bottleneck of parallel scaling
//! (Figure 10). This ablation sweeps the calibration size and reports the
//! lag it selects, the total events to convergence, and the resulting
//! estimate — exposing the trade the paper's constant bakes in.
//!
//! Run with: `cargo run --release --example ablation_calibration`

use bighouse::prelude::*;

fn main() {
    let load: f64 = 0.7;
    let accuracy: f64 = 0.05;
    let seed: u64 = 3;
    let workload = Workload::standard(StandardWorkload::Web);

    // Reference: a tight estimate to judge each run's error against.
    let reference = run_serial(
        &ExperimentConfig::new(workload.at_utilization(load, 4))
            .with_cores(4)
            .with_target_accuracy(0.01)
            .with_max_events(500_000_000),
        seed + 1000,
    )
    .expect("valid config");
    let truth = reference.metric("response_time").unwrap().mean;
    println!(
        "Ablation: calibration sample size (Web @ {:.0}%, E = {accuracy}); reference mean {:.2} ms",
        load * 100.0,
        truth * 1e3
    );
    println!();
    println!(
        "{:>8} {:>6} {:>12} {:>12} {:>12} {:>10}",
        "N_c", "lag", "events", "kept", "mean err%", "converged"
    );

    for calibration in [250usize, 1000, 5000, 20_000, 80_000] {
        let config = ExperimentConfig::new(workload.at_utilization(load, 4))
            .with_cores(4)
            .with_target_accuracy(accuracy)
            .with_calibration(calibration)
            .with_max_events(500_000_000);
        let report = run_serial(&config, seed).expect("valid config");
        let est = report.metric("response_time").unwrap();
        println!(
            "{:>8} {:>6} {:>12} {:>12} {:>12.2} {:>10}",
            calibration,
            est.lag,
            report.events_fired,
            est.samples_kept,
            (est.mean - truth).abs() / truth * 100.0,
            report.converged,
        );
    }

    println!();
    println!("Expected: tiny calibration samples can mis-choose the lag (under- or");
    println!("over-thinning); very large ones postpone the stopping rule's first look");
    println!("until the whole sample is in (it is kept, lag-spaced, as measured data)");
    println!("and inflate the serial fraction of parallel runs (Fig. 10).");
    println!("The paper's N_c = 5000 sits in the flat middle.");
}
