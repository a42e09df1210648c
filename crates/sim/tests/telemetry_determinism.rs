//! Telemetry bit-identity: instrumentation must be a pure observer.
//!
//! Two contracts, both load-bearing for CI:
//!
//! 1. A fixed-seed run with telemetry ON produces **bit-identical**
//!    estimates (and event counts, and simulated time) to the same run
//!    with telemetry OFF — the same guarantee the runtime auditor proved
//!    in the previous PR, extended to the instrumentation layer.
//! 2. Two instrumented runs of the same seed produce **identical
//!    telemetry snapshots** once wall-clock values are stripped — the
//!    counters and histograms are themselves deterministic facts.
//!
//! Comparisons use struct equality and `f64::to_bits`, never formatted
//! strings, so nothing here depends on a JSON library's float rendering.

use bighouse_faults::{FaultProcess, RetryPolicy};
use bighouse_sim::{
    run_resumable, run_serial, run_sweep, AdmissionPolicy, ArrivalMode, AuditConfig,
    ExperimentConfig, MetricKind, ParallelRunner, ResilienceConfig, RunOptions, SweepEntry,
    SweepOptions,
};
use bighouse_telemetry::TelemetrySnapshot;
use bighouse_workloads::{StandardWorkload, Workload};

fn quick_config() -> ExperimentConfig {
    ExperimentConfig::new(Workload::standard(StandardWorkload::Web))
        .with_utilization(0.5)
        .with_target_accuracy(0.2)
        .with_warmup(50)
        .with_calibration(500)
}

/// Bit-exact estimate comparison without going through serialization.
fn assert_estimates_bit_identical(
    a: &bighouse_sim::SimulationReport,
    b: &bighouse_sim::SimulationReport,
    context: &str,
) {
    assert_eq!(a.events_fired, b.events_fired, "{context}: events differ");
    assert_eq!(
        a.simulated_seconds.to_bits(),
        b.simulated_seconds.to_bits(),
        "{context}: simulated time differs"
    );
    assert_eq!(
        a.estimates.len(),
        b.estimates.len(),
        "{context}: metric count differs"
    );
    for (ea, eb) in a.estimates.iter().zip(&b.estimates) {
        assert_eq!(ea.name, eb.name, "{context}");
        assert_eq!(
            ea.mean.to_bits(),
            eb.mean.to_bits(),
            "{context}: {}",
            ea.name
        );
        assert_eq!(
            ea.std_dev.to_bits(),
            eb.std_dev.to_bits(),
            "{context}: {}",
            ea.name
        );
        assert_eq!(
            ea.mean_half_width.to_bits(),
            eb.mean_half_width.to_bits(),
            "{context}: {}",
            ea.name
        );
        assert_eq!(ea.samples_kept, eb.samples_kept, "{context}: {}", ea.name);
        assert_eq!(ea.lag, eb.lag, "{context}: {}", ea.name);
        assert_eq!(
            ea.quantiles.len(),
            eb.quantiles.len(),
            "{context}: {}",
            ea.name
        );
        for (qa, qb) in ea.quantiles.iter().zip(&eb.quantiles) {
            assert_eq!(
                qa.value.to_bits(),
                qb.value.to_bits(),
                "{context}: {}",
                ea.name
            );
        }
    }
}

/// The deterministic projection of a snapshot: wall values stripped, phase
/// wall-stamps zeroed. Everything that remains must be a pure function of
/// the configuration and seed.
fn deterministic(snap: &TelemetrySnapshot) -> TelemetrySnapshot {
    snap.without_wall_times()
}

#[test]
fn telemetry_on_matches_telemetry_off_bit_for_bit() {
    let configs = [
        quick_config(),
        quick_config()
            .with_servers(4)
            .with_arrival_mode(ArrivalMode::LoadBalanced(
                bighouse_models::BalancerPolicy::JoinShortestQueue,
            )),
        quick_config()
            .with_servers(2)
            .with_faults(FaultProcess::exponential(20.0, 2.0).unwrap())
            .with_retry(RetryPolicy::new(1.0))
            .with_metric(MetricKind::Availability)
            .with_calibration(200),
        quick_config()
            .with_servers(4)
            .with_arrival_mode(ArrivalMode::LoadBalanced(
                bighouse_models::BalancerPolicy::JoinShortestQueue,
            ))
            .with_resilience(
                ResilienceConfig::new()
                    .with_admission(AdmissionPolicy::BoundedQueue { capacity: 64 })
                    .with_hedge(0.02),
            )
            .with_metric(MetricKind::ShedRate),
    ];
    for (i, config) in configs.iter().enumerate() {
        let seed = 70 + i as u64;
        let plain = run_serial(config, seed).unwrap();
        let instrumented = run_serial(&config.clone().with_telemetry(true), seed).unwrap();
        assert_estimates_bit_identical(&plain, &instrumented, &format!("config {i}"));
        assert!(plain.runtime.telemetry.is_none());
        let snap = instrumented
            .runtime
            .telemetry
            .as_ref()
            .expect("instrumented run must carry telemetry");
        assert_eq!(
            snap.counters["des.events_fired"], instrumented.events_fired,
            "config {i}: calendar counter disagrees with the engine"
        );
        assert!(snap.counters["stats.samples_recorded"] > 0, "config {i}");
    }
}

#[test]
fn two_instrumented_runs_produce_identical_snapshots() {
    let config = quick_config().with_telemetry(true);
    let a = run_serial(&config, 81).unwrap();
    let b = run_serial(&config, 81).unwrap();
    let snap_a = a.runtime.telemetry.expect("telemetry on");
    let snap_b = b.runtime.telemetry.expect("telemetry on");
    // Deterministic sections agree exactly: counters, gauges, histogram
    // bin counts, and the phase-transition log (minus wall stamps).
    assert_eq!(deterministic(&snap_a), deterministic(&snap_b));
    // And the non-deterministic part is really confined to `wall`: both
    // snapshots carry it, it just may differ.
    assert!(snap_a.wall.contains_key("wall_seconds"));
    assert!(snap_b.wall.contains_key("wall_seconds"));
}

#[test]
fn snapshot_carries_every_layer() {
    let config = quick_config()
        .with_servers(2)
        .with_telemetry(true)
        .with_faults(FaultProcess::exponential(20.0, 2.0).unwrap())
        .with_metric(MetricKind::Availability)
        .with_calibration(200);
    let report = run_serial(&config, 82).unwrap();
    let snap = report.runtime.telemetry.expect("telemetry on");
    // des layer
    assert!(snap.counters["des.events_scheduled"] >= snap.counters["des.events_fired"]);
    assert!(snap.counters["des.sift_steps"] > 0);
    assert!(snap.gauges["des.calendar_depth_high_water"] >= 1.0);
    // stats layer
    assert!(snap.counters["stats.response_time.samples_kept"] > 0);
    assert!(snap.gauges.contains_key("stats.response_time.lag"));
    assert!(!snap.phases.is_empty(), "phase transitions must be logged");
    assert!(snap
        .phases
        .iter()
        .any(|p| p.metric == "response_time" && p.from == "warm-up"));
    // sim layer
    assert!(snap.histograms["sim.queue_depth"].count() > 0);
    assert!(snap.histograms["sim.server_utilization"].count() > 0);
    assert!(snap.counters["sim.server_failures"] > 0);
    // wall quarantine
    assert!(snap.wall.contains_key("des.events_per_second"));
}

#[test]
fn resumable_telemetry_spans_epochs_and_stays_observational() {
    let config = quick_config();
    let opts = RunOptions {
        epoch_events: 2_000,
        ..RunOptions::default()
    };
    let plain = run_resumable(&config, 83, &opts).unwrap();
    let instrumented = run_resumable(&config.clone().with_telemetry(true), 83, &opts).unwrap();
    assert_estimates_bit_identical(&plain, &instrumented, "resumable");
    let snap = instrumented.runtime.telemetry.expect("telemetry on");
    assert!(
        snap.counters["sim.epochs"] > 1,
        "run must span several epochs"
    );
    assert_eq!(snap.counters["des.events_fired"], instrumented.events_fired);
    // Epoch stitching preserves snapshot determinism too.
    let again = run_resumable(&config.clone().with_telemetry(true), 83, &opts).unwrap();
    assert_eq!(
        deterministic(&snap),
        deterministic(&again.runtime.telemetry.expect("telemetry on"))
    );
}

#[test]
fn fastpath_counters_are_deterministic_and_sit_outside_the_wall_quarantine() {
    // The fast-path counters are facts about engine selection and batch
    // sizes — pure functions of the configuration and seed — so they
    // belong to the deterministic split, not the wall quarantine.
    let config = quick_config().with_telemetry(true);
    let a = run_serial(&config, 85).unwrap();
    let b = run_serial(&config, 85).unwrap();
    let snap_a = a.runtime.telemetry.expect("telemetry on");
    let snap_b = b.runtime.telemetry.expect("telemetry on");
    for key in [
        "fastpath.entries",
        "fastpath.bailouts",
        "fastpath.batched_departures",
    ] {
        assert!(snap_a.counters.contains_key(key), "{key} must be a counter");
        assert!(
            !snap_a.wall.contains_key(key),
            "{key} must not be wall-quarantined"
        );
        assert_eq!(snap_a.counters[key], snap_b.counters[key], "{key}");
    }
    // quick_config is an eligible plain FCFS scenario.
    assert_eq!(snap_a.counters["fastpath.entries"], 1);
    assert_eq!(snap_a.counters["fastpath.bailouts"], 0);
    assert!(snap_a.counters["fastpath.batched_departures"] > 0);
}

#[test]
fn every_emitted_fastpath_key_is_documented() {
    // An eligible and an ineligible run between them emit every
    // `fastpath.*` key; TELEMETRY.md must name each one.
    let documented = include_str!("../../../TELEMETRY.md");
    let eligible = quick_config().with_telemetry(true);
    let ineligible = eligible
        .clone()
        .with_servers(2)
        .with_faults(FaultProcess::exponential(20.0, 2.0).unwrap())
        .with_metric(MetricKind::Availability)
        .with_calibration(200);
    let mut seen = 0;
    for (config, bailouts) in [(eligible, 0), (ineligible, 1)] {
        let snap = run_serial(&config, 86)
            .unwrap()
            .runtime
            .telemetry
            .expect("telemetry on");
        assert_eq!(snap.counters["fastpath.bailouts"], bailouts);
        assert_eq!(snap.counters["fastpath.entries"], 1 - bailouts);
        let keys = (snap.counters.keys())
            .chain(snap.gauges.keys())
            .chain(snap.histograms.keys())
            .chain(snap.wall.keys());
        for key in keys.filter(|k| k.starts_with("fastpath.")) {
            seen += 1;
            assert!(
                documented.contains(&format!("`{key}`")),
                "{key} is emitted but absent from TELEMETRY.md"
            );
        }
    }
    assert!(seen >= 6, "both runs emit the three fastpath counters");
}

#[test]
fn parallel_snapshots_are_deterministic_and_every_key_is_documented() {
    // The parallel runner decides at chunk barriers, so its telemetry is
    // under the same contract as a serial run's; and TELEMETRY.md must
    // name every `parallel.*` / `procslave.*` key it emits (per-slave keys
    // under their `<i>` placeholder).
    let documented = include_str!("../../../TELEMETRY.md");
    let run = || {
        ParallelRunner::new(quick_config().with_telemetry(true), 3)
            .run(87)
            .unwrap()
            .telemetry
            .expect("telemetry on")
    };
    let snap = run();
    assert_eq!(deterministic(&snap), deterministic(&run()));
    assert!(snap.wall.contains_key("wall_seconds"));
    let keys = (snap.counters.keys())
        .chain(snap.gauges.keys())
        .chain(snap.histograms.keys())
        .chain(snap.wall.keys());
    let mut seen = 0;
    for key in keys.filter(|k| k.starts_with("parallel.") || k.starts_with("procslave.")) {
        seen += 1;
        let per_slave = key
            .strip_prefix("parallel.slave")
            .and_then(|rest| rest.split_once('.'))
            .filter(|(index, _)| index.parse::<usize>().is_ok());
        let listed = match per_slave {
            Some((_, fact)) => format!("parallel.slave<i>.{fact}"),
            None => key.clone(),
        };
        assert!(
            documented.contains(&format!("`{listed}`")),
            "{key} is emitted but absent from TELEMETRY.md"
        );
    }
    assert!(seen >= 14, "eleven fixed keys and one per slave: {seen}");
}

#[test]
fn every_emitted_sweep_key_is_documented() {
    // A sweep with a quarantined config and a retry emits every `sweep.*`
    // key at a value that says so; TELEMETRY.md must name each one.
    let documented = include_str!("../../../TELEMETRY.md");
    let storm = AuditConfig {
        storm_budget_events_per_sim_second: 0.5,
        storm_window_events: 1000,
        ..AuditConfig::default()
    };
    let entries = [
        SweepEntry::new("healthy", quick_config().with_telemetry(true)),
        SweepEntry::new("storm", quick_config().with_audit(storm)),
    ];
    let opts = SweepOptions {
        max_retries: 1,
        ..SweepOptions::default()
    };
    let snap = run_sweep(&entries, 88, &opts)
        .unwrap()
        .telemetry
        .expect("one config was instrumented");
    assert_eq!(snap.counters["sweep.configs_completed"], 1);
    assert_eq!(snap.counters["sweep.configs_quarantined"], 1);
    assert_eq!(snap.counters["sweep.retries"], 1);
    let keys = (snap.counters.keys())
        .chain(snap.gauges.keys())
        .chain(snap.histograms.keys())
        .chain(snap.wall.keys());
    let mut seen = 0;
    for key in keys.filter(|k| k.starts_with("sweep.")) {
        seen += 1;
        assert!(
            documented.contains(&format!("`{key}`")),
            "{key} is emitted but absent from TELEMETRY.md"
        );
    }
    assert_eq!(seen, 4, "three counters and the wall time");
}

#[test]
fn every_emitted_fault_resilience_and_capping_key_is_documented() {
    // Faults, retries, admission, hedging and a capper, every metric they
    // make observable, run resumably over several epochs: TELEMETRY.md must
    // name every key the snapshot carries (per-metric keys under their
    // `<metric>` placeholder).
    let documented = include_str!("../../../TELEMETRY.md");
    let capper = bighouse_models::PowerCapper::new(
        bighouse_models::LinearPowerModel::typical_server(),
        bighouse_models::DvfsModel::default(),
        500.0,
    );
    let config = MetricKind::ALL.into_iter().fold(
        quick_config()
            .with_servers(4)
            .with_arrival_mode(ArrivalMode::LoadBalanced(
                bighouse_models::BalancerPolicy::JoinShortestQueue,
            ))
            .with_faults(FaultProcess::exponential(20.0, 2.0).unwrap())
            .with_retry(RetryPolicy::new(1.0))
            .with_resilience(ResilienceConfig {
                slo_deadline: Some(0.5),
                ..ResilienceConfig::new()
                    .with_admission(AdmissionPolicy::BoundedQueue { capacity: 64 })
                    .with_hedge(0.02)
            })
            .with_capper(capper)
            .with_max_events(100_000)
            .with_telemetry(true),
        ExperimentConfig::with_metric,
    );
    let opts = RunOptions {
        epoch_events: 20_000,
        ..RunOptions::default()
    };
    let snap = run_resumable(&config, 89, &opts)
        .unwrap()
        .runtime
        .telemetry
        .expect("telemetry on");
    assert!(snap.counters["sim.epochs"] >= 2, "run must span epochs");
    assert!(snap.counters["sim.server_failures"] > 0);
    assert!(snap.counters["sim.retries"] > 0);
    let keys = (snap.counters.keys())
        .chain(snap.gauges.keys())
        .chain(snap.histograms.keys())
        .chain(snap.wall.keys());
    let undocumented: Vec<&String> = keys
        .filter(|key| {
            let per_metric = key
                .strip_prefix("stats.")
                .and_then(|rest| rest.split_once('.'))
                .filter(|(name, _)| MetricKind::ALL.iter().any(|kind| kind.name() == *name));
            let listed = match per_metric {
                Some((_, fact)) => format!("stats.<metric>.{fact}"),
                None => key.to_string(),
            };
            !documented.contains(&format!("`{listed}`"))
        })
        .collect();
    assert!(
        undocumented.is_empty(),
        "emitted but absent from TELEMETRY.md: {undocumented:?}"
    );
}

#[test]
fn checkpointed_telemetry_counts_writes() {
    let dir = std::env::temp_dir().join(format!("bighouse-telemetry-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = quick_config().with_telemetry(true);
    let opts = RunOptions {
        epoch_events: 10_000,
        checkpoint: Some(bighouse_sim::CheckpointConfig::new(&dir)),
        ..RunOptions::default()
    };
    let report = run_resumable(&config, 84, &opts).unwrap();
    let snap = report.runtime.telemetry.expect("telemetry on");
    assert!(snap.counters["sim.checkpoint_writes"] >= 1);
    assert!(snap.wall.contains_key("sim.checkpoint_write_seconds_total"));
    let _ = std::fs::remove_dir_all(&dir);
}
