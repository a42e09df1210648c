//! Fault-tolerant experiment sweeps: run a whole utilization grid on a
//! worker pool, survive a mid-flight kill, and resume to the
//! identical aggregate report.
//!
//! The paper's methodology is never one experiment — it is *curves*:
//! response time vs. load, power vs. capping budget. `run_sweep` turns a
//! list of `(id, config)` entries into one supervised batch: every config
//! gets a deterministic seed derived from its id, panics are contained,
//! configs that keep failing are quarantined instead of sinking the
//! sweep, and with a checkpoint directory the completed-config ledger
//! survives a SIGKILL.
//!
//! Run with: `cargo run --release --example sweep`

use std::time::Duration;

use bighouse::prelude::*;

fn grid() -> Vec<SweepEntry> {
    [0.2, 0.35, 0.5, 0.65, 0.8]
        .into_iter()
        .map(|u| {
            let config = ExperimentConfig::new(Workload::standard(StandardWorkload::Web))
                .with_cores(4)
                .with_utilization(u)
                .with_target_accuracy(0.1)
                .with_warmup(200)
                .with_calibration(1_000);
            SweepEntry::new(format!("utilization={u}"), config)
        })
        .collect()
}

fn main() {
    let master_seed = 2012;
    let dir = std::env::temp_dir().join(format!("bighouse-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // The uninterrupted reference sweep.
    let opts = SweepOptions {
        epoch_events: 50_000,
        deadline: Some(Duration::from_secs(120)),
        ..SweepOptions::default()
    };
    let reference = run_sweep(&grid(), master_seed, &opts).expect("valid grid");
    println!(
        "response time vs. load ({} workers):",
        reference.runtime.workers
    );
    for outcome in &reference.completed {
        let mean = outcome.report.metric("response_time").unwrap().mean;
        println!(
            "  {:<18} seed {:>20}  mean {:>7.3} ms  ({} events)",
            outcome.id,
            outcome.seed,
            mean * 1e3,
            outcome.report.events_fired,
        );
    }

    // The same sweep, checkpointed and stopped after two decided configs —
    // standing in for a SIGKILL or preemption mid-batch.
    let partial = run_sweep(
        &grid(),
        master_seed,
        &SweepOptions {
            checkpoint: Some(dir.clone()),
            max_decided: Some(2),
            ..opts.clone()
        },
    )
    .expect("valid grid");
    println!(
        "\ninterrupted after {} configs; ledger in {}",
        partial.completed.len(),
        dir.display(),
    );

    // A "fresh process" resumes the sweep: already-decided configs come
    // back from the ledger, the rest are simulated.
    let resumed = run_sweep(
        &grid(),
        master_seed,
        &SweepOptions {
            checkpoint: Some(dir.clone()),
            resume: true,
            ..opts.clone()
        },
    )
    .expect("resume from ledger");
    println!(
        "resumed: {} completed ({} from the ledger), {} quarantined",
        resumed.completed.len(),
        resumed.runtime.resumed,
        resumed.quarantined.len(),
    );

    // The aggregate result is identical, however the sweep was scheduled
    // or interrupted: trajectories depend only on (config, derived seed).
    let canonical = |r: &SweepReport| bighouse_json::to_string(&r.canonical());
    assert_eq!(
        canonical(&reference),
        canonical(&resumed),
        "killed-and-resumed sweep must match the uninterrupted one"
    );
    println!("\nkill-and-resume matched the uninterrupted sweep bit for bit.");

    let _ = std::fs::remove_dir_all(&dir);
}
