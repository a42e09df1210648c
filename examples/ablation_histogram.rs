//! Ablation: how far a histogram's reported quantiles lie from the exact
//! quantiles of the observations it recorded, and what it spends.
//!
//! BigHouse replaces record-and-sort quantile estimation with histograms
//! (Chen & Kelton, §2.3) to keep memory bounded. The paper fits linear bins
//! to a calibration sample; this reproduction uses one log-bucketed
//! [`Histogram`] at a fixed 0.2 % relative accuracy instead (DESIGN.md "One
//! log-bucketed histogram"). This ablation measures both on the five Table 1
//! workloads at three loads and two seeds: the log buckets as the library
//! records them, and, as the reference they replaced, 1000 linear bins
//! fitted to the first 5000 observations (range padded by half on each
//! side, clamped at zero; overflow clamped to the observed extremes).
//!
//! Run with: `cargo run --release --example ablation_histogram`

use bighouse::prelude::*;
use bighouse_repro::response_stream;

const QUANTILES: [f64; 4] = [0.5, 0.95, 0.99, 0.999];

/// The ⌈q·n⌉-th smallest value, the quantile both histograms estimate.
fn order_statistic(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank - 1]
}

/// The replaced scheme's quantile: `bins` linear bins over the range of
/// `calibration` padded by half of it on each side, holding all of `data`.
fn fitted_linear_quantile(calibration: &[f64], data: &[f64], bins: usize, q: f64) -> f64 {
    let (min_c, max_c) = extremes(calibration);
    let pad = (max_c - min_c).max(max_c * 1e-9) * 0.5;
    let low = (min_c - pad).max(0.0);
    let width = (max_c + pad - low) / bins as f64;
    let (mut counts, mut under) = (vec![0u64; bins], 0u64);
    for &x in data {
        if x < low {
            under += 1;
        } else if let Some(c) = counts.get_mut(((x - low) / width) as usize) {
            *c += 1;
        }
    }
    let (min, max) = extremes(data);
    let target = q * data.len() as f64;
    let mut cumulative = under as f64;
    if target <= cumulative {
        return min;
    }
    for (i, &c) in counts.iter().enumerate() {
        let next = cumulative + c as f64;
        if target <= next && c > 0 {
            let frac = (target - cumulative) / c as f64;
            return (low + (i as f64 + frac) * width).clamp(min, max);
        }
        cumulative = next;
    }
    max
}

fn extremes(data: &[f64]) -> (f64, f64) {
    data.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

/// Buckets the histogram stores: its dense counts, as it serializes them.
fn buckets_stored(hist: &Histogram) -> usize {
    bighouse_json::to_value(hist).expect("a histogram serializes")["counts"]
        .as_array()
        .map_or(0, Vec::len)
}

fn error_percent(estimate: f64, exact: f64) -> f64 {
    (estimate / exact - 1.0).abs() * 100.0
}

fn main() {
    let n: usize = 100_000;
    let calibration = 5_000;
    println!("Ablation: reported vs exact quantiles of the recorded sample (n = {n})");
    println!("log: the library's log buckets at a = 0.2 %");
    println!("linear: 1000 linear bins fitted to the first {calibration} observations");
    println!();
    print!("{:<7} {:>5} {:>5} {:>8}", "work", "load", "seed", "buckets");
    for scheme in ["log", "linear"] {
        for q in QUANTILES {
            print!("{:>13}", format!("{scheme} p{}", q * 100.0));
        }
    }
    println!();

    let (mut worst_body, mut worst_tail) = ([0.0f64; 2], [0.0f64; 2]);
    let (mut fewest, mut most) = (usize::MAX, 0usize);
    for workload in StandardWorkload::ALL {
        for load in [0.3, 0.7, 0.9] {
            for seed in [77, 2012] {
                let data = response_stream(workload, load, n, seed);
                let mut hist = Histogram::new();
                for &x in &data {
                    hist.record(x);
                }
                let mut sorted = data.clone();
                sorted.sort_by(f64::total_cmp);
                let buckets = buckets_stored(&hist);
                (fewest, most) = (fewest.min(buckets), most.max(buckets));
                print!("{:<7} {load:>5.1} {seed:>5} {buckets:>8}", workload.name());
                let estimates: [&dyn Fn(f64) -> f64; 2] =
                    [&|q| hist.quantile(q).expect("non-empty"), &|q| {
                        fitted_linear_quantile(&data[..calibration], &data, 1000, q)
                    }];
                for (scheme, estimate) in estimates.iter().enumerate() {
                    for q in QUANTILES {
                        let error = error_percent(estimate(q), order_statistic(&sorted, q));
                        let worst = if q < 0.999 {
                            &mut worst_body[scheme]
                        } else {
                            &mut worst_tail[scheme]
                        };
                        *worst = worst.max(error);
                        print!("{error:>12.3}%");
                    }
                }
                println!();
            }
        }
    }

    println!();
    println!(
        "{:<8} {:>14} {:>14} {:>16}",
        "scheme", "worst p50-p99", "worst p99.9", "counts (bytes)"
    );
    println!(
        "{:<8} {:>13.3}% {:>13.3}% {:>16}",
        "log",
        worst_body[0],
        worst_tail[0],
        format!("{}-{}", fewest * 8, most * 8)
    );
    println!(
        "{:<8} {:>13.3}% {:>13.3}% {:>16}",
        "linear",
        worst_body[1],
        worst_tail[1],
        1000 * 8
    );
    println!();
    println!(
        "exact (record-and-sort) footprint for comparison: {} bytes",
        n * 8
    );
    println!();
    println!("Expected: the log buckets stay within γ − 1 ≈ 0.4 % of every exact");
    println!("quantile on every workload; the fitted linear bins miss Shell's body,");
    println!("whose rare long jobs stretch the fitted range over it.");
}
