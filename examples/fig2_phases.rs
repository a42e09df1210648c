//! Regenerates **Figure 2**: the sequence of phases in a BigHouse
//! simulation — warm-up, calibration, measurement, convergence — as an
//! observation ledger for one output metric.
//!
//! Where the paper draws the timeline schematically, we print the actual
//! transition points of a live metric fed by an M/G/1-style server
//! simulation: how many observations each phase consumed, the lag spacing
//! chosen by the runs-up test, and the final estimates with confidence.
//!
//! Run with: `cargo run --release --example fig2_phases`

use bighouse::prelude::*;

fn main() {
    let workload = Workload::standard(StandardWorkload::Web).at_utilization(0.7, 1);
    let spec = MetricSpec::new("response_time")
        .with_warmup(1000)
        .with_calibration(5000)
        .with_target_accuracy(0.05)
        .with_confidence(0.95)
        .with_quantile(0.95);
    let mut metric = OutputMetric::new(spec);

    // A single-core server driven directly: the simplest queuing system.
    let mut server = Server::new(1);
    let mut rng = SimRng::from_seed(2012);
    let mut now = Time::ZERO;
    let mut next_id = 0u64;
    let mut phase = metric.phase();
    let mut transitions: Vec<(u64, Phase)> = vec![(0, phase)];

    println!("Figure 2: phases of a BigHouse simulation (live ledger)");
    println!();
    while !metric.is_converged() {
        now += workload.interarrival().sample(&mut rng);
        let job = Job::new(
            JobId::new(next_id),
            now,
            workload.service().sample(&mut rng).max(1e-12),
        );
        next_id += 1;
        for finished in server.arrive(job, now) {
            metric.record(finished.response_time());
            if metric.phase() != phase {
                phase = metric.phase();
                transitions.push((metric.total_observed(), phase));
            }
        }
    }
    // Drain remaining jobs.
    while let Some(eta) = server.next_event() {
        for finished in server.sync(eta) {
            metric.record(finished.response_time());
        }
        if server.outstanding() == 0 {
            break;
        }
    }

    println!("{:>14} {:>16}", "observation #", "phase entered");
    for (at, phase) in &transitions {
        println!("{at:>14} {phase:>16}");
    }
    println!();
    println!("lag spacing l (runs-up test): {}", metric.lag());
    println!(
        "observations: {} total = {} warm-up (discarded) + {} calibration + {} measured after it",
        metric.total_observed(),
        metric.spec().warmup(),
        metric.spec().calibration(),
        metric.measurement_seen() - metric.spec().calibration() as u64,
    );
    println!(
        "kept (every {}th): {} of the {} post-warm-up, the calibration sample included",
        metric.lag(),
        metric.kept_count(),
        metric.measurement_seen(),
    );
    println!(
        "steady-state inflation factor: x{} (the paper's l-fold cost of independence)",
        metric.lag()
    );
    let est = metric.estimate().expect("converged");
    println!();
    println!(
        "mean = {:.2} ms +/- {:.2}% at 95% confidence",
        est.mean * 1e3,
        est.relative_accuracy * 100.0
    );
    for q in &est.quantiles {
        println!(
            "p{:.0} = {:.2} ms (+/- {:.3} in quantile probability)",
            q.q * 100.0,
            q.value * 1e3,
            q.half_width_probability
        );
    }
}
