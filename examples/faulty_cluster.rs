//! Fault injection: a load-balanced cluster whose servers fail and get
//! repaired, with request timeouts and retry.
//!
//! Sweeps the MTBF of a 16-server cluster and reports the measured
//! availability against the alternating-renewal prediction
//! MTBF / (MTBF + MTTR), plus the request-accounting ledger: every admitted
//! request ends as goodput, a timeout drop, or in flight at the end.
//!
//! Run with: `cargo run --release --example faulty_cluster`

use bighouse::prelude::*;

fn main() {
    let workload = Workload::standard(StandardWorkload::Web);
    let service_mean = workload.service().mean();
    let mttr = 2.0;

    println!("Fault injection: 16-server JSQ cluster, Web workload @ 50% load, MTTR {mttr} s");
    println!("Timeout = 20x mean service time, up to 3 retries with jittered backoff.");
    println!();
    println!(
        "{:>9} {:>10} {:>10} {:>10} {:>10} {:>10} {:>9} {:>9}",
        "MTBF (s)",
        "predicted",
        "measured",
        "failures",
        "admitted",
        "goodput",
        "timeout",
        "retries"
    );

    for mtbf in [10.0, 30.0, 100.0, 300.0] {
        let faults = FaultProcess::exponential(mtbf, mttr).unwrap();
        let predicted = faults.availability();
        // One central arrival stream must carry all 16 servers: compress
        // the per-server 50%-load stream's inter-arrivals by 16x.
        let cluster_stream = workload
            .at_utilization(0.5, 4)
            .with_interarrival_scale(1.0 / 16.0)
            .expect("positive scale");
        let config = ExperimentConfig::new(cluster_stream)
            .with_servers(16)
            .with_cores(4)
            .with_arrival_mode(ArrivalMode::LoadBalanced(BalancerPolicy::JoinShortestQueue))
            .with_faults(faults)
            .with_retry(RetryPolicy::new(service_mean * 20.0).with_max_retries(3))
            .with_metric(MetricKind::Availability)
            .with_target_accuracy(0.05)
            .with_max_events(200_000_000);
        let report = run_serial(&config, 2012).expect("valid config");
        let availability = report.metric("availability").expect("tracked");
        let fs = report.cluster.faults.expect("fault mode on");
        assert_eq!(
            fs.goodput + fs.timed_out + fs.in_flight_at_end,
            fs.admitted,
            "request conservation violated"
        );
        println!(
            "{:>9.0} {:>10.4} {:>10.4} {:>10} {:>10} {:>10} {:>9} {:>9}",
            mtbf,
            predicted,
            availability.mean,
            fs.server_failures,
            fs.admitted,
            fs.goodput,
            fs.timed_out,
            fs.retries,
        );
    }

    println!();
    println!("Expected: measured availability tracks MTBF/(MTBF+MTTR); as MTBF grows,");
    println!("failures (and the retries they trigger) fade, and goodput approaches the");
    println!("admitted count with nothing lost to timeouts.");
}
