//! Regenerates **Figure 4**: validation of Google Web-search performance
//! scaling — 95th-percentile latency vs load (QPS as % of peak) at CPU
//! slowdown settings S_CPU ∈ {1.0, 1.1, 1.3, 1.6, 2.0}.
//!
//! The paper overlays hardware measurements (which we cannot re-measure;
//! DESIGN.md substitution 2) on BigHouse-simulated lines; this binary
//! regenerates the lines. The expected shape: latency rises with S_CPU at
//! every load, and each line's knee moves left as the slowdown eats the
//! server's headroom.
//!
//! Run with: `cargo run --release --example fig4_google_scaling`

use bighouse::prelude::*;

fn main() {
    let accuracy: f64 = 0.05;
    let seed: u64 = 7;
    let google = Workload::standard(StandardWorkload::Google);
    let cores = 4;
    let scpu_values = [1.0, 1.1, 1.3, 1.6, 2.0];
    let qps_values = [0.20, 0.30, 0.40, 0.50, 0.60, 0.70];

    println!("Figure 4: 95th-percentile latency (ms) vs QPS, by S_CPU (Google search)");
    println!();
    print!("{:>8}", "QPS(%)");
    for s in scpu_values {
        print!("{:>12}", format!("S={s:.1}"));
    }
    println!();

    for qps in qps_values {
        print!("{:>8.0}", qps * 100.0);
        for s_cpu in scpu_values {
            let utilization = qps * s_cpu;
            if utilization >= 0.95 {
                print!("{:>12}", "-");
                continue;
            }
            let slowed = google.with_service_scale(s_cpu).expect("positive scale");
            let config = ExperimentConfig::new(slowed.at_utilization(utilization, cores))
                .with_cores(cores as usize)
                .with_target_accuracy(accuracy);
            let report = run_serial(&config, seed).expect("valid config");
            let p95 = report.quantile("response_time", 0.95).unwrap();
            print!("{:>12.2}", p95 * 1e3);
        }
        println!();
    }

    println!();
    println!("Expected shape (paper): latency grows with S_CPU at fixed QPS, and the");
    println!("latency knee moves to lower QPS as S_CPU increases. The paper reports");
    println!("9.2% average error against production hardware for these lines.");
}
