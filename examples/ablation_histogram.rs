//! Ablation: histogram resolution vs quantile fidelity and footprint.
//!
//! BigHouse replaces record-and-sort quantile estimation with fixed-bin
//! histograms (Chen & Kelton, §2.3) to keep memory bounded. This ablation
//! quantifies the trade: for the heavy-tailed Web response distribution,
//! how much quantile error does each bin budget cost relative to the exact
//! sorted-sample answer, and how many bytes does it spend?
//!
//! Run with: `cargo run --release --example ablation_histogram`

use bighouse::prelude::*;
use bighouse_repro::response_stream;

fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    if lo + 1 < sorted.len() {
        sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac
    } else {
        sorted[lo]
    }
}

fn main() {
    let load: f64 = 0.7;
    let n: usize = 500_000;
    let quantiles = [0.5, 0.9, 0.95, 0.99, 0.999];

    println!(
        "Ablation: histogram bins vs quantile error (Web @ {:.0}%, n = {n})",
        load * 100.0
    );
    let data = response_stream(load, n, 77);
    let calibration = &data[..5000.min(n)];
    let mut sorted = data.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));

    println!();
    print!("{:>8} {:>12}", "bins", "bytes");
    for q in quantiles {
        print!("{:>12}", format!("p{:.1}err%", q * 100.0));
    }
    println!();

    for bins in [10usize, 50, 100, 500, 1000, 10_000] {
        let spec = HistogramSpec::from_calibration_sample_with_bins(calibration, bins)
            .expect("non-empty calibration");
        let mut hist = Histogram::new(spec);
        for &x in &data {
            hist.record(x);
        }
        print!("{bins:>8} {:>12}", bins * 8);
        for q in quantiles {
            let exact = exact_quantile(&sorted, q);
            let approx = hist.quantile(q).expect("non-empty");
            print!("{:>12.2}", (approx - exact).abs() / exact * 100.0);
        }
        println!();
    }

    println!();
    println!(
        "exact (record-and-sort) footprint for comparison: {} bytes",
        n * 8
    );
    println!();
    println!("Expected: ~1000 bins (BigHouse's operating point) holds body quantiles");
    println!(
        "to ~1% at a ~{}x memory saving; the extreme tail (p99.9) is where",
        n * 8 / 8000
    );
    println!("binning error concentrates, and where more bins keep paying off.");
}
