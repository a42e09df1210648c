//! Tracked performance baseline for the hot simulation loop.
//!
//! Runs three fixed-seed scenarios end to end, plus a calendar
//! schedule/pop microbenchmark, and writes the measured throughput to
//! `BENCH_current.json` in the working directory (or the path given as
//! the first positional argument):
//!
//! 1. **mmk_balanced** — an M/M/16 cluster behind a join-shortest-queue
//!    load balancer: per-arrival routing with no fault machinery. At 17
//!    pending events the runner puts it on the analytic fast path.
//! 2. **mmk_faults** — the same cluster with an exponential
//!    failure/repair process and the availability metric, exercising
//!    cancellations (timeout cancels, repair reschedules) and the
//!    stranded-job path.
//! 3. **mmk_resilience** — the same cluster behind bounded-queue
//!    admission control with hedged requests, exercising the per-arrival
//!    admission check and the hedge launch/cancel churn.
//! 4. **sweep** — a 6-config grid (utilization × cluster size) through
//!    the work-stealing sweep orchestrator with a fixed worker count,
//!    measuring aggregate grid throughput.
//!
//! Each scenario is additionally re-run with telemetry enabled to
//! measure the instrumentation overhead (tracked, non-gating: the
//! acceptance bar is < 3%). Peak RSS is read from `/proc/self/status`
//! on Linux.
//!
//! Every scenario uses a hard-coded seed, so the event count and every
//! estimate are reproducible bit-for-bit; only the wall-clock numbers
//! vary between machines. CI runs `--check` (each scenario twice, plus
//! once with telemetry on, comparing serialized estimates) as a gating
//! determinism test and treats the throughput numbers as a non-gating
//! tracked artifact.
//!
//! Run with: `cargo run --release -p bighouse-bench --bin perf_baseline`
//! (add `--check` for the determinism self-check).

use std::process::ExitCode;
use std::time::Instant;

use bighouse::des::Calendar;
use bighouse::prelude::*;

/// One measured scenario: configuration plus its fixed seed.
struct Scenario {
    name: &'static str,
    seed: u64,
    config: ExperimentConfig,
}

fn mmk_workload() -> Workload {
    // Exponential interarrival and service (sigma = mean): moment fitting
    // recovers the M/M/k model. The synthesis seed is part of the model,
    // not the run: it only tabulates the empirical inverse CDF.
    Workload::synthesize(
        "mmk",
        TaskMoments::new(0.002, 0.002),
        TaskMoments::new(0.02, 0.02),
        2012,
    )
    .expect("exponential moments always fit")
}

fn scenarios() -> Vec<Scenario> {
    let workload = mmk_workload();
    let base = ExperimentConfig::new(workload.at_utilization(0.7, 1))
        .with_servers(16)
        .with_arrival_mode(ArrivalMode::LoadBalanced(BalancerPolicy::JoinShortestQueue))
        .with_target_accuracy(0.002)
        .with_warmup(500)
        .with_calibration(2_000)
        .with_max_events(2_000_000);
    vec![
        Scenario {
            name: "mmk_balanced",
            seed: 42,
            config: base.clone(),
        },
        Scenario {
            name: "mmk_faults",
            seed: 43,
            config: base
                .clone()
                .with_faults(FaultProcess::exponential(50.0, 2.0).expect("valid fault process"))
                .with_metric(MetricKind::Availability),
        },
        Scenario {
            name: "mmk_resilience",
            seed: 44,
            config: base
                .with_resilience(
                    ResilienceConfig::new()
                        .with_admission(AdmissionPolicy::BoundedQueue { capacity: 64 })
                        .with_hedge(0.02),
                )
                .with_metric(MetricKind::ShedRate),
        },
    ]
}

/// Fixed worker count for the sweep scenario: throughput numbers stay
/// comparable across machines with different core counts.
const SWEEP_WORKERS: usize = 4;
/// Epoch granularity inside each sweep config; also the granularity the
/// per-config bit-identity check reruns with.
const SWEEP_EPOCH_EVENTS: u64 = 100_000;
/// Master seed of the sweep scenario.
const SWEEP_SEED: u64 = 2012;

/// The sweep scenario's grid: utilization {0.5, 0.6, 0.7} × servers
/// {8, 16} over the same M/M/k workload, each config bounded so the
/// whole grid stays a benchmark, not an experiment.
fn sweep_entries() -> Vec<SweepEntry> {
    let workload = mmk_workload();
    let mut entries = Vec::new();
    for servers in [8usize, 16] {
        for tenths in [5u32, 6, 7] {
            let utilization = f64::from(tenths) / 10.0;
            let config = ExperimentConfig::new(workload.at_utilization(utilization, 1))
                .with_servers(servers)
                .with_arrival_mode(ArrivalMode::LoadBalanced(BalancerPolicy::JoinShortestQueue))
                .with_target_accuracy(0.005)
                .with_warmup(500)
                .with_calibration(2_000)
                .with_max_events(500_000);
            entries.push(SweepEntry::new(
                format!("servers={servers},utilization=0.{tenths}"),
                config,
            ));
        }
    }
    entries
}

fn sweep_opts() -> SweepOptions {
    SweepOptions {
        workers: SWEEP_WORKERS,
        epoch_events: SWEEP_EPOCH_EVENTS,
        ..SweepOptions::default()
    }
}

fn run(scenario: &Scenario) -> SimulationReport {
    run_serial(&scenario.config, scenario.seed).expect("baseline scenario config is valid")
}

fn run_instrumented(scenario: &Scenario) -> SimulationReport {
    run_serial(&scenario.config.clone().with_telemetry(true), scenario.seed)
        .expect("baseline scenario config is valid")
}

/// Calendar schedule/pop microbenchmark: `n` events scheduled at
/// LCG-scrambled times, then drained. Returns (schedule, pop) throughput
/// in operations per second. Pure calendar cost — no distributions, no
/// statistics, no cluster model.
fn calendar_microbench(n: u64) -> (f64, f64) {
    let mut cal = Calendar::<u64>::new();
    // Warm-up pass so the timed pass sees grown slabs and hot caches.
    for pass in 0..2 {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let t0 = Instant::now();
        // Each pass schedules into a disjoint 1-second window past the
        // clock the previous drain advanced to (never into the past).
        let base = f64::from(pass);
        for i in 0..n {
            // Deterministic pseudo-random times without an RNG dependency.
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let at = base + (x >> 11) as f64 / (1u64 << 53) as f64;
            cal.schedule(Time::from_seconds(at), i);
        }
        let schedule_secs = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        while cal.pop().is_some() {}
        let pop_secs = t1.elapsed().as_secs_f64();
        if pass == 1 {
            return (
                n as f64 / schedule_secs.max(1e-9),
                n as f64 / pop_secs.max(1e-9),
            );
        }
    }
    unreachable!("loop returns on the second pass")
}

/// Peak resident set size in kB from `/proc/self/status` (Linux only;
/// `None` elsewhere or when the field is missing).
fn peak_rss_kb() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                return rest.trim().trim_end_matches("kB").trim().parse().ok();
            }
        }
        None
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// `--check`: run every scenario twice (and once instrumented) and fail
/// on any estimate drift. The instrumented comparison is the telemetry
/// bit-identity gate: observation must not perturb the simulation.
fn determinism_check() -> ExitCode {
    let mut ok = true;
    for scenario in &scenarios() {
        let a = run(scenario);
        let b = run(scenario);
        let t = run_instrumented(scenario);
        let a_json = serde_json::to_string(&a.estimates).expect("estimates serialize");
        let b_json = serde_json::to_string(&b.estimates).expect("estimates serialize");
        let t_json = serde_json::to_string(&t.estimates).expect("estimates serialize");
        if a.events_fired != b.events_fired
            || a.simulated_seconds.to_bits() != b.simulated_seconds.to_bits()
            || a_json != b_json
        {
            eprintln!(
                "DETERMINISM FAILURE in {}: events {} vs {}, estimates\n  {}\nvs\n  {}",
                scenario.name, a.events_fired, b.events_fired, a_json, b_json
            );
            ok = false;
        } else if a.events_fired != t.events_fired || a_json != t_json {
            eprintln!(
                "TELEMETRY PERTURBATION in {}: events {} vs {} (instrumented), estimates\n  {}\nvs\n  {}",
                scenario.name, a.events_fired, t.events_fired, a_json, t_json
            );
            ok = false;
        } else {
            println!(
                "{}: deterministic ({} events, {} estimates bit-identical, telemetry neutral)",
                scenario.name,
                a.events_fired,
                a.estimates.len()
            );
        }
    }
    // Sweep determinism: two sweeps of the same grid and master seed must
    // agree canonically (wall-clock scrubbed), and every config's result
    // must match an individual run of the same derived seed bit for bit —
    // the orchestrator must be pure scheduling, never perturbation.
    let entries = sweep_entries();
    let a = run_sweep(&entries, SWEEP_SEED, &sweep_opts()).expect("sweep grid is valid");
    let b = run_sweep(&entries, SWEEP_SEED, &sweep_opts()).expect("sweep grid is valid");
    let a_json = serde_json::to_string(&a.canonical()).expect("report serializes");
    let b_json = serde_json::to_string(&b.canonical()).expect("report serializes");
    if a_json != b_json {
        eprintln!("DETERMINISM FAILURE in sweep: two runs of the same grid disagree");
        ok = false;
    } else if !a.quarantined.is_empty() {
        eprintln!(
            "SWEEP FAILURE: {} healthy configs quarantined",
            a.quarantined.len()
        );
        ok = false;
    } else {
        let mut identical = true;
        for outcome in &a.completed {
            let entry = entries
                .iter()
                .find(|e| e.id == outcome.id)
                .expect("completed id comes from the grid");
            let opts = RunOptions {
                epoch_events: SWEEP_EPOCH_EVENTS,
                ..RunOptions::default()
            };
            let solo = run_resumable(&entry.config, outcome.seed, &opts)
                .expect("sweep config runs individually");
            let sweep_est =
                serde_json::to_string(&outcome.report.estimates).expect("estimates serialize");
            let solo_est = serde_json::to_string(&solo.estimates).expect("estimates serialize");
            if sweep_est != solo_est || outcome.report.events_fired != solo.events_fired {
                eprintln!(
                    "SWEEP PERTURBATION in {}: events {} vs {} (solo)",
                    outcome.id, outcome.report.events_fired, solo.events_fired
                );
                identical = false;
            }
        }
        if identical {
            println!(
                "sweep: deterministic ({} configs, per-config results bit-identical to solo runs)",
                a.completed.len()
            );
        } else {
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--check") {
        return determinism_check();
    }
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_current.json".to_string());

    const MICRO_N: u64 = 1_000_000;
    let (schedule_per_s, pop_per_s) = calendar_microbench(MICRO_N);
    println!(
        "      calendar: {:>9} events  schedule {:>12.0} ops/s  pop {:>12.0} ops/s",
        MICRO_N, schedule_per_s, pop_per_s
    );

    let mut entries = Vec::new();
    for scenario in &scenarios() {
        // One untimed warm-up run so the timed run sees hot caches and a
        // grown heap, then the measured run, then the instrumented run
        // for the (non-gating) telemetry overhead figure.
        let _ = run(scenario);
        let report = run(scenario);
        let instrumented = run_instrumented(scenario);
        let wall = report.runtime.wall_seconds;
        let tel_wall = instrumented.runtime.wall_seconds;
        let overhead_pct = if wall > 0.0 {
            (tel_wall - wall) / wall * 100.0
        } else {
            0.0
        };
        println!(
            "{:>14}: {:>9} events  {:>8.3} wall-s  {:>12.0} events/s  converged={}  telemetry overhead {:+.2}%",
            scenario.name,
            report.events_fired,
            wall,
            report.events_per_second(),
            report.converged,
            overhead_pct,
        );
        entries.push(format!(
            concat!(
                "    {{\n",
                "      \"scenario\": \"{}\",\n",
                "      \"seed\": {},\n",
                "      \"events_fired\": {},\n",
                "      \"wall_seconds\": {:.6},\n",
                "      \"events_per_second\": {:.1},\n",
                "      \"simulated_seconds\": {:.6},\n",
                "      \"converged\": {},\n",
                "      \"telemetry_wall_seconds\": {:.6},\n",
                "      \"telemetry_overhead_pct\": {:.2}\n",
                "    }}"
            ),
            scenario.name,
            scenario.seed,
            report.events_fired,
            wall,
            report.events_per_second(),
            report.simulated_seconds,
            report.converged,
            tel_wall,
            overhead_pct,
        ));
    }

    // The sweep scenario: aggregate grid throughput through the
    // work-stealing orchestrator at a fixed worker count.
    let sweep_grid = sweep_entries();
    let sweep_report =
        run_sweep(&sweep_grid, SWEEP_SEED, &sweep_opts()).expect("sweep grid is valid");
    let sweep_events: u64 = sweep_report
        .completed
        .iter()
        .map(|o| o.report.events_fired)
        .sum();
    let sweep_wall = sweep_report.runtime.wall_seconds;
    let sweep_rate = sweep_events as f64 / sweep_wall.max(1e-9);
    println!(
        "{:>14}: {:>9} events  {:>8.3} wall-s  {:>12.0} events/s  ({} configs, {} workers)",
        "sweep",
        sweep_events,
        sweep_wall,
        sweep_rate,
        sweep_report.completed.len(),
        sweep_report.runtime.workers,
    );

    let rss = peak_rss_kb().map_or_else(|| "null".to_string(), |kb| kb.to_string());
    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"perf_baseline\",\n",
            "  \"calendar\": {{\n",
            "    \"events\": {},\n",
            "    \"schedule_per_second\": {:.1},\n",
            "    \"pop_per_second\": {:.1}\n",
            "  }},\n",
            "  \"sweep\": {{\n",
            "    \"configs\": {},\n",
            "    \"completed\": {},\n",
            "    \"workers\": {},\n",
            "    \"events_fired\": {},\n",
            "    \"wall_seconds\": {:.6},\n",
            "    \"events_per_second\": {:.1}\n",
            "  }},\n",
            "  \"peak_rss_kb\": {},\n",
            "  \"scenarios\": [\n{}\n  ]\n",
            "}}\n"
        ),
        MICRO_N,
        schedule_per_s,
        pop_per_s,
        sweep_report.total_configs,
        sweep_report.completed.len(),
        sweep_report.runtime.workers,
        sweep_events,
        sweep_wall,
        sweep_rate,
        rss,
        entries.join(",\n")
    );
    if let Err(err) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {err}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");
    ExitCode::SUCCESS
}
