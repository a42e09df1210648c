//! Regenerates **Table 1**: the five workload models included with
//! BigHouse — inter-arrival and service moments (avg, σ, C_v) — comparing
//! the paper's published values against our synthesized empirical
//! distributions.
//!
//! Run with: `cargo run --release --example table1`

use bighouse::prelude::*;

fn fmt_time(seconds: f64) -> String {
    if seconds < 1e-3 {
        format!("{:.0}us", seconds * 1e6)
    } else if seconds < 1.0 {
        format!("{:.0}ms", seconds * 1e3)
    } else {
        format!("{seconds:.1}s")
    }
}

fn main() {
    println!("Table 1: Workload models included with BigHouse");
    println!("(paper value / synthesized empirical value)");
    println!();
    println!(
        "{:<8} | {:>13} {:>13} {:>11} | {:>13} {:>13} {:>11}",
        "", "Interarrival", "", "", "Service", "", ""
    );
    println!(
        "{:<8} | {:>13} {:>13} {:>11} | {:>13} {:>13} {:>11}",
        "Workload", "Avg", "sigma", "Cv", "Avg", "sigma", "Cv"
    );
    println!("{}", "-".repeat(96));

    for which in StandardWorkload::ALL {
        let workload = Workload::standard(which);
        let inter_paper = which.interarrival_moments();
        let svc_paper = which.service_moments();
        let inter = workload.interarrival();
        let svc = workload.service();
        println!(
            "{:<8} | {:>6}/{:<6} {:>6}/{:<6} {:>5.1}/{:<5.1} | {:>6}/{:<6} {:>6}/{:<6} {:>5.1}/{:<5.1}",
            which.name(),
            fmt_time(inter_paper.mean()),
            fmt_time(inter.mean()),
            fmt_time(inter_paper.sigma()),
            fmt_time(inter.std_dev()),
            inter_paper.cv(),
            inter.cv(),
            fmt_time(svc_paper.mean()),
            fmt_time(svc.mean()),
            fmt_time(svc_paper.sigma()),
            fmt_time(svc.std_dev()),
            svc_paper.cv(),
            svc.cv(),
        );
    }

    println!();
    for which in StandardWorkload::ALL {
        println!("{:<8} {}", which.name(), which.description());
    }
    println!();
    println!("Synthesized distributions are moment-fit (Gamma / Exponential / H2) to the");
    println!("published values and tabulated as empirical quantile tables; see DESIGN.md");
    println!("substitution 1 for why this preserves the relevant behavior.");
}
