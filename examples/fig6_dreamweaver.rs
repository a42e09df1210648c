//! Regenerates **Figure 6**: validation of scheduling for idleness
//! (DreamWeaver, §3.2) — the fraction of time the entire server is idle
//! as a function of 99th-percentile latency, swept by the per-task delay
//! threshold.
//!
//! The paper compares a Solr software prototype against the BigHouse
//! simulation; we regenerate the simulation series with a search-like
//! workload (DESIGN.md substitutions 2 and 4). The expected shape: a
//! monotone trade-off curve — more permitted delay buys more coalesced
//! idleness, saturating as nap opportunities are exhausted.
//!
//! Run with: `cargo run --release --example fig6_dreamweaver`

use bighouse::prelude::*;

fn main() {
    let cores: usize = 16;
    let load: f64 = 0.3;
    let accuracy: f64 = 0.05;
    let seed: u64 = 5;
    let wake_latency = 0.001;
    let workload = Workload::standard(StandardWorkload::Google);
    let service_mean = workload.service().mean();

    println!(
        "Figure 6: idle-time fraction vs p99 latency ({}-core server, {:.0}% load)",
        cores,
        load * 100.0
    );
    println!();
    println!(
        "{:>16} {:>12} {:>16} {:>14}",
        "max delay (ms)", "p99 (ms)", "full idle (%)", "nap time (%)"
    );

    let run_point = |policy: IdlePolicy| {
        let config = ExperimentConfig::new(workload.at_utilization(load, cores as u32))
            .with_cores(cores)
            .with_idle_policy(policy)
            .with_quantile(0.99)
            .with_target_accuracy(accuracy);
        run_serial(&config, seed).expect("valid config")
    };

    let base = run_point(IdlePolicy::AlwaysOn);
    println!(
        "{:>16} {:>12.2} {:>16.1} {:>14.1}",
        "always-on",
        base.quantile("response_time", 0.99).unwrap() * 1e3,
        base.cluster.mean_full_idle_fraction * 100.0,
        base.cluster.mean_nap_fraction * 100.0
    );

    for multiple in [
        0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0,
    ] {
        let max_delay = multiple * service_mean;
        let report = run_point(IdlePolicy::DreamWeaver {
            max_delay,
            wake_latency,
        });
        println!(
            "{:>16.2} {:>12.2} {:>16.1} {:>14.1}",
            max_delay * 1e3,
            report.quantile("response_time", 0.99).unwrap() * 1e3,
            report.cluster.mean_full_idle_fraction * 100.0,
            report.cluster.mean_nap_fraction * 100.0
        );
    }

    println!();
    println!("Expected shape (paper): increasing the delay threshold trades 99th-pct");
    println!("latency for full-system idleness, with idleness saturating well below");
    println!("(1 - load) because per-core idle fragments cannot all be aligned.");
}
