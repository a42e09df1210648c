//! Regenerates **Figure 10**: parallel simulation speedup vs the number of
//! slaves, with the per-slave 5000-observation calibration phase as the
//! Amdahl bottleneck.
//!
//! The paper ran slaves across 4 hosts; this host runs them as threads
//! (DESIGN.md substitution 3), so on a single-core machine the *wall-clock*
//! series shows little speedup. We therefore report both wall time and the
//! **work-model speedup** — serial events divided by the parallel critical
//! path (the slowest slave; the master simulates nothing) — which isolates
//! exactly the protocol overheads the paper discusses: every slave must
//! warm up and calibrate before contributing samples (its calibration
//! sample is then kept), so scalability saturates once per-slave warm-up
//! and calibration rival each slave's share of the measurement.
//! The master decides at chunk barriers, so the critical-path and
//! work-speedup columns are the same on every run of a given seed; only the
//! wall columns vary.
//!
//! Run with: `cargo run --release --example fig10_parallel`

use bighouse::prelude::*;
use bighouse_repro::fmt_duration;

fn main() {
    let accuracy: f64 = 0.02;
    let seed: u64 = 31;
    let max_slaves: usize = 16;
    let workload = Workload::standard(StandardWorkload::Web);

    // The paper runs the power-capping example with E = .01 "so that it is
    // sufficiently long to gain benefit from parallel execution"; we run
    // at E = .02 to keep the sweep minutes-scale.
    let config = || {
        ExperimentConfig::new(workload.at_utilization(0.5, 4))
            .with_cores(4)
            .with_target_accuracy(accuracy)
            .with_max_events(2_000_000_000)
    };

    println!("Figure 10: parallel speedup vs number of slaves (E = {accuracy})");
    println!();
    let serial = run_serial(&config(), seed).expect("valid config");
    let serial_wall = serial.runtime.wall_seconds;
    println!(
        "serial baseline: {} , {} events",
        fmt_duration(serial_wall),
        serial.events_fired
    );
    println!();
    println!(
        "{:>8} {:>12} {:>14} {:>16} {:>14} {:>10}",
        "slaves", "wall time", "wall speedup", "critical events", "work speedup", "ideal"
    );

    let mut slaves = 1usize;
    while slaves <= max_slaves {
        let outcome = ParallelRunner::new(config(), slaves)
            .run(seed)
            .expect("valid config");
        let wall = outcome.wall_seconds;
        let critical = outcome.slave_events.iter().copied().max().unwrap_or(0);
        let work_speedup = serial.events_fired as f64 / critical as f64;
        println!(
            "{:>8} {:>12} {:>14.2} {:>16} {:>14.2} {:>10}",
            slaves,
            fmt_duration(wall),
            serial_wall / wall,
            critical,
            work_speedup,
            slaves,
        );
        slaves *= 2;
    }

    println!();
    println!("Expected shape (paper): near-ideal speedup to ~8 slaves, then Amdahl");
    println!("saturation as each slave's fixed warm-up + 5000-observation calibration");
    println!("becomes comparable to its share of the required sample. (Here a slave");
    println!("keeps its calibration sample, so only the wait for it is serial.)");
}
