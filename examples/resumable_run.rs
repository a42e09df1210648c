//! Resumable runs: checkpoint a simulation, "kill" it mid-flight, and
//! resume it from disk with bit-identical final estimates.
//!
//! Long convergence runs (tight accuracy targets, high quantiles, rare
//! events) can take hours; a crash or preemption should not throw that
//! work away. `run_resumable` structures the run into epochs, snapshots
//! the calendar-free inter-epoch state atomically, and — because the
//! trajectory depends only on (config, master seed, epoch size) — a
//! resumed run lands on exactly the same estimates as an uninterrupted
//! one.
//!
//! Run with: `cargo run --release --example resumable_run`

use bighouse::prelude::*;

fn main() {
    let config = ExperimentConfig::new(Workload::standard(StandardWorkload::Web))
        .with_cores(4)
        .with_utilization(0.5)
        .with_target_accuracy(0.05);
    let seed = 2012;
    let epoch_events = 100_000;

    // The uninterrupted reference.
    let reference = run_resumable(
        &config,
        seed,
        &RunOptions {
            epoch_events,
            ..RunOptions::default()
        },
    )
    .expect("valid config");
    println!(
        "reference:  {} events, mean {:.3} ms ({})",
        reference.events_fired,
        reference.metric("response_time").unwrap().mean * 1e3,
        reference.termination,
    );

    // The same run, checkpointed and stopped after two epochs — standing in
    // for a SIGKILL, OOM, or node preemption at an arbitrary point.
    let dir = std::env::temp_dir().join(format!("bighouse-resumable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let partial = run_resumable(
        &config,
        seed,
        &RunOptions {
            epoch_events,
            checkpoint: Some(CheckpointConfig::new(&dir)),
            max_epochs: Some(2),
            ..RunOptions::default()
        },
    )
    .expect("valid config");
    println!(
        "interrupted: {} events after 2 epochs ({}); snapshot in {}",
        partial.events_fired,
        partial.termination,
        dir.display(),
    );

    // A "fresh process" picks the snapshot up and finishes the job. On the
    // command line this is `bighouse run ... checkpoint-dir=DIR --resume`.
    let resumed = run_resumable(
        &config,
        seed,
        &RunOptions {
            epoch_events,
            checkpoint: Some(CheckpointConfig::new(&dir)),
            resume: true,
            ..RunOptions::default()
        },
    )
    .expect("resume from checkpoint");
    println!(
        "resumed:    {} events, mean {:.3} ms ({})",
        resumed.events_fired,
        resumed.metric("response_time").unwrap().mean * 1e3,
        resumed.termination,
    );

    assert_eq!(reference.events_fired, resumed.events_fired);
    assert_eq!(
        reference.metric("response_time").unwrap().mean.to_bits(),
        resumed.metric("response_time").unwrap().mean.to_bits(),
    );
    println!();
    println!("kill-and-resume matched the uninterrupted run bit for bit.");

    let _ = std::fs::remove_dir_all(&dir);
}
