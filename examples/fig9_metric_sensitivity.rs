//! Regenerates **Figure 9**: sensitivity to accuracy and target metrics —
//! wall-clock runtime of the power-capping simulation for metric sets
//! {Response, +Waiting, +Capping} at accuracies E ∈ {0.1, 0.05, 0.01}.
//!
//! Two effects compose (both from §4.1): tightening E inflates the sample
//! quadratically (Eqs. 2–3), and rarer observables pay more simulation per
//! observation — waiting observations occur only when requests queue, and
//! capping observations only once per simulated second.
//!
//! Run with: `cargo run --release --example fig9_metric_sensitivity`

use bighouse::prelude::*;
use bighouse_repro::{capping_cluster, fmt_duration};

#[derive(Clone, Copy)]
enum MetricSet {
    Response,
    PlusWaiting,
    PlusCapping,
}

impl MetricSet {
    fn label(self) -> &'static str {
        match self {
            MetricSet::Response => "Response",
            MetricSet::PlusWaiting => "+Waiting",
            MetricSet::PlusCapping => "+Capping",
        }
    }
}

fn main() {
    let servers: usize = 16;
    let load: f64 = 0.5;
    let budget: f64 = 0.7;
    let seed: u64 = 29;
    let workload = Workload::standard(StandardWorkload::Web);
    let accuracies = [0.1, 0.05, 0.01];

    println!(
        "Figure 9: runtime vs accuracy and metric set ({servers} servers, {:.0}% load, {:.0}% budget)",
        load * 100.0,
        budget * 100.0
    );
    println!();
    println!(
        "{:>10} {:>8} {:>12} {:>14} {:>10}",
        "metrics", "E", "wall time", "events", "converged"
    );

    for set in [
        MetricSet::Response,
        MetricSet::PlusWaiting,
        MetricSet::PlusCapping,
    ] {
        for e in accuracies {
            let mut config = capping_cluster(&workload, servers, load, budget)
                .with_target_accuracy(e)
                .with_max_events(4_000_000_000);
            config = match set {
                MetricSet::Response => config,
                MetricSet::PlusWaiting => config.with_metric(MetricKind::WaitingTime),
                MetricSet::PlusCapping => config
                    .with_metric(MetricKind::WaitingTime)
                    .with_metric(MetricKind::CappingLevel),
            };
            let report = run_serial(&config, seed).expect("valid config");
            println!(
                "{:>10} {:>8.2} {:>12} {:>14} {:>10}",
                set.label(),
                e,
                fmt_duration(report.runtime.wall_seconds),
                report.events_fired,
                report.converged,
            );
        }
        println!();
    }

    println!("Expected shape (paper, log time axis): runtime rises steeply as E tightens;");
    println!("adding the waiting-time metric raises every point (waiting observations are");
    println!("rare), and adding capping raises it further (one observation per second).");
}
