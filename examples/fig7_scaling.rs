//! Regenerates **Figure 7**: simulation time scaling — wall-clock time to
//! convergence vs the number of simulated servers (10 → 10,000) for the
//! DNS, Mail, Shell, and Web workloads, on the §4.1 power-capping cluster.
//!
//! The mechanism behind the paper's linear scaling: the required *sample
//! size* barely changes with cluster size, but the epoch-paced capping
//! metric pins the simulated duration, so the number of task events the
//! engine must process grows proportionally with the server count.
//!
//! Run with: `cargo run --release --example fig7_scaling`

use bighouse::prelude::*;
use bighouse_repro::{capping_cluster, fmt_duration};

/// The cluster sizes swept. Appending `10_000` regenerates the paper's
/// 10,000-server column; its points take minutes each.
const SIZES: [usize; 3] = [10, 100, 1000];

fn main() {
    let load: f64 = 0.3;
    let budget: f64 = 0.7;
    let seed: u64 = 17;

    println!(
        "Figure 7: time to convergence vs cluster size (power capping, {:.0}% load)",
        load * 100.0
    );
    println!();
    println!(
        "{:>8} {:>10} {:>14} {:>14} {:>12} {:>10}",
        "wkld", "servers", "wall time", "events", "events/s", "converged"
    );

    for which in [
        StandardWorkload::Dns,
        StandardWorkload::Mail,
        StandardWorkload::Shell,
        StandardWorkload::Web,
    ] {
        let workload = Workload::standard(which);
        for servers in SIZES {
            let config = capping_cluster(&workload, servers, load, budget)
                .with_target_accuracy(0.05)
                // The epoch-paced metric that pins simulated duration. Its
                // targets are loosened so each point completes in minutes
                // on one host (the paper's absolute times came from their
                // Java engine; the scaling *shape* is the claim).
                .with_metric_spec(
                    MetricKind::CappingLevel,
                    MetricSpec::new("capping_level")
                        .with_target_accuracy(0.15)
                        .with_warmup(200)
                        .with_calibration(500)
                        .with_max_lag(8),
                )
                .with_max_events(4_000_000_000);
            let report = run_serial(&config, seed).expect("valid config");
            println!(
                "{:>8} {:>10} {:>14} {:>14} {:>12.0} {:>10}",
                which.name(),
                servers,
                fmt_duration(report.runtime.wall_seconds),
                report.events_fired,
                report.events_per_second(),
                report.converged,
            );
        }
        println!();
    }

    println!("Expected shape (paper): wall time grows roughly linearly with the number");
    println!("of servers (one order of magnitude per decade of servers), with the");
    println!("workload shifting the curve but not its slope.");
}
