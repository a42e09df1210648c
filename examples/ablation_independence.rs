//! Ablation: how BigHouse's lag-spacing compares with the alternatives —
//! naive i.i.d. analysis (what you get if you skip calibration) and the
//! classical batch-means method.
//!
//! For a fixed simulation length we compute a 95% confidence interval on
//! mean response time three ways over many independent replications, then
//! measure **coverage**: how often the interval actually contains the true
//! value (estimated from one very long reference run). Honest methods
//! cover ~95%; naive analysis of autocorrelated data covers far less —
//! the reason the calibration phase exists (§2.3).
//!
//! Run with: `cargo run --release --example ablation_independence`

use bighouse::prelude::*;
use bighouse::stats::{find_lag, half_width_mean, BatchMeans, RunsUpTest};
use bighouse_repro::response_stream;

fn main() {
    let replications: usize = 30;
    let load: f64 = 0.8;
    let n: usize = 60_000;

    println!(
        "Ablation: CI methods on autocorrelated response times (Web @ {:.0}%)",
        load * 100.0
    );
    println!();

    // Reference truth from one very long run (warm prefix discarded).
    let reference = {
        let long = response_stream(load, 3_000_000, 999);
        long[100_000..].iter().sum::<f64>() / (long.len() - 100_000) as f64
    };
    println!("reference mean: {:.4} ms", reference * 1e3);
    println!();

    let warm = 5_000;
    let mut covered = [0usize; 3]; // naive, lag-spaced, batch means
    let mut widths = [0.0f64; 3];
    let test = RunsUpTest::default();

    for rep in 0..replications {
        let data = &response_stream(load, n + warm, rep as u64 * 7 + 1)[warm..];

        // Method 1: naive i.i.d. CI on every observation.
        let stats: RunningStats = data.iter().copied().collect();
        let naive_half = half_width_mean(0.95, stats.std_dev(), stats.count());

        // Method 2: BigHouse — runs-up lag from a 5000-observation
        // calibration prefix, CI from the thinned remainder.
        let lag = find_lag(&data[..5000], 32, &test);
        let thinned: RunningStats = data[5000..].iter().copied().step_by(lag).collect();
        let lag_half = half_width_mean(0.95, thinned.std_dev(), thinned.count());

        // Method 3: batch means with 50 batches.
        let mut bm = BatchMeans::new(data.len() / 50);
        for &x in data {
            bm.push(x);
        }
        let (bm_mean, bm_half) = bm.estimate(0.95).expect("50 batches");

        for (i, (mean, half)) in [
            (stats.mean(), naive_half),
            (thinned.mean(), lag_half),
            (bm_mean, bm_half),
        ]
        .into_iter()
        .enumerate()
        {
            if (mean - reference).abs() <= half {
                covered[i] += 1;
            }
            widths[i] += half / reference;
        }
    }

    println!(
        "{:>14} {:>20} {:>20}",
        "method", "coverage (want 95%)", "mean CI width (rel)"
    );
    for (i, name) in ["naive i.i.d.", "lag-spacing", "batch means"]
        .iter()
        .enumerate()
    {
        println!(
            "{:>14} {:>19.0}% {:>19.1}%",
            name,
            covered[i] as f64 / replications as f64 * 100.0,
            widths[i] / replications as f64 * 100.0,
        );
    }

    println!();
    println!("Finding: naive analysis catastrophically under-covers. Lag-spacing via");
    println!("the runs-up test improves markedly but still under-covers on a SINGLE");
    println!("server's response stream: runs-up detects short-range up/down pattern");
    println!("dependence, while queueing responses carry long-range *level* dependence");
    println!("(the slowly varying queue length) that survives thinning. Batch means");
    println!("with long batches absorbs that dependence and restores coverage at the");
    println!("price of much wider intervals. In cluster-scale BigHouse runs the issue");
    println!("fades: interleaving observations from many servers whitens the recorded");
    println!("stream (Figure 7 runs select lag 1 and validate against closed forms).");
}
