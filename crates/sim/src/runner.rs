//! The serial simulation runner (Figure 2's phase sequence, end to end).

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bighouse_des::CalendarStats;
use bighouse_stats::StatsCollection;
use bighouse_telemetry::TelemetrySnapshot;

use crate::audit::AuditConfig;
use crate::checkpoint::{config_fingerprint, CheckpointConfig, CheckpointStore, RunState};
use crate::config::ExperimentConfig;
use crate::error::SimError;
use crate::fastpath::{epoch_step, Epoch};
use crate::report::{RuntimeStats, SimulationReport, TerminationReason};
use crate::telemetry::assemble_snapshot;

/// Runs a complete serial simulation: warm-up, calibration, measurement,
/// and convergence, terminating when every metric meets its target (or the
/// configured event cap is hit).
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] if the configuration is internally
/// inconsistent.
///
/// # Examples
///
/// See the [crate-level documentation](crate).
pub fn run_serial(config: &ExperimentConfig, seed: u64) -> Result<SimulationReport, SimError> {
    let start = Instant::now();
    let mut guard = config.audit().map(AuditConfig::progress_guard);
    let mut epoch = Epoch::start(config, seed, false, None, guard.as_mut())?;
    let budget = config.max_events;
    epoch.advance(budget, budget, guard.as_mut(), |_, _| Ok(true))?;
    let mut state = RunState::fresh(seed, 0);
    let (calendar, telemetry) = epoch.finish(&mut state);
    state.wall_seconds = start.elapsed().as_secs_f64();
    let telemetry = telemetry.map(|snap| {
        assemble_snapshot(
            snap,
            state.stats.as_ref(),
            &calendar,
            state.events_done,
            state.wall_seconds,
        )
    });
    let termination = TerminationReason::classify(state.audit.as_ref(), false, state.converged());
    Ok(report_from_state(config, &state, termination, telemetry))
}

/// Options for [`run_resumable`]: epoch structure, checkpointing, resume,
/// and graceful interruption.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Event budget per epoch (0 means the default of one million).
    ///
    /// The run's trajectory depends on the epoch size — two runs only
    /// produce bit-identical estimates if they use the same `epoch_events`
    /// — but **not** on the checkpoint interval, the number of
    /// interruptions, or where a resume happened.
    pub epoch_events: u64,
    /// Where and how often to write checkpoints (`None` disables them).
    pub checkpoint: Option<CheckpointConfig>,
    /// Resume from the checkpoint directory instead of starting fresh.
    /// Requires `checkpoint` to be set and a loadable snapshot to exist.
    pub resume: bool,
    /// Stop (with [`TerminationReason::Interrupted`]) after this many
    /// epochs — a programmatic pause point, used by tests to simulate a
    /// kill at a deterministic spot.
    pub max_epochs: Option<u64>,
    /// Cooperative interrupt flag: set it (e.g. from a SIGINT handler) and
    /// the run winds down at the next epoch boundary, writing a final
    /// checkpoint and an honest partial report.
    pub interrupt: Option<Arc<AtomicBool>>,
}

impl RunOptions {
    /// Default epoch size: large enough that checkpoint overhead is noise,
    /// small enough that a kill loses at most a few seconds of work.
    pub const DEFAULT_EPOCH_EVENTS: u64 = 1_000_000;

    pub(crate) fn epoch_budget(&self) -> u64 {
        if self.epoch_events == 0 {
            Self::DEFAULT_EPOCH_EVENTS
        } else {
            self.epoch_events
        }
    }

    fn interrupted(&self) -> bool {
        self.interrupt
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Relaxed))
    }
}

/// Builds the final report from accumulated run state.
fn report_from_state(
    config: &ExperimentConfig,
    state: &RunState,
    termination: TerminationReason,
    telemetry: Option<TelemetrySnapshot>,
) -> SimulationReport {
    SimulationReport {
        converged: state.converged() && !state.audit_failed(),
        termination,
        estimates: state
            .stats
            .as_ref()
            .map(StatsCollection::estimates)
            .unwrap_or_default(),
        events_fired: state.events_done,
        simulated_seconds: state.totals.simulated_seconds,
        runtime: RuntimeStats {
            wall_seconds: state.wall_seconds,
            telemetry,
        },
        cluster: state.totals.summary(config.total_servers()),
        audit: state.audit.clone(),
    }
}

/// Runs an **epoch-structured, resumable** simulation.
///
/// The run is divided into epochs of `opts.epoch_events` events. Each
/// epoch builds a fresh cluster from the next seed in a [`SeedStream`]
/// (serialized in the checkpoint), restores the statistics accumulated so
/// far, simulates its budget, and folds the results back. Between epochs
/// the state is calendar-free, which is what makes it checkpointable
/// without serializing in-flight events.
///
/// **Determinism contract:** the trajectory depends only on the
/// configuration, master seed, and epoch size — never on the checkpoint
/// interval or on *where* the run was killed and resumed. A killed and
/// resumed run produces bit-identical estimates, event counts, and
/// simulated time to an uninterrupted run of the same seed.
///
/// [`SeedStream`]: bighouse_des::SeedStream
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for an inconsistent configuration,
/// [`SimError::Checkpoint`] for resume/checkpoint failures (no snapshot,
/// corrupt snapshots, or a snapshot from a different experiment), and
/// [`SimError::CalendarDrained`] if an epoch fires no events.
pub fn run_resumable(
    config: &ExperimentConfig,
    master_seed: u64,
    opts: &RunOptions,
) -> Result<SimulationReport, SimError> {
    let start = Instant::now();
    let fingerprint = config_fingerprint(config, master_seed);
    let store = opts
        .checkpoint
        .as_ref()
        .map(|ckpt| CheckpointStore::new(&ckpt.dir).map(|s| (s, ckpt.interval_epochs)))
        .transpose()?;

    let mut state = if opts.resume {
        let Some((store, _)) = &store else {
            return Err(SimError::Checkpoint(
                "resume requested without a checkpoint directory".into(),
            ));
        };
        let Some(state) = store.load::<RunState>()? else {
            return Err(SimError::Checkpoint(format!(
                "resume requested but no checkpoint exists in {}",
                store
                    .current_path()
                    .parent()
                    .unwrap_or(Path::new("."))
                    .display()
            )));
        };
        if state.config_fingerprint != fingerprint {
            return Err(SimError::Checkpoint(
                "stale checkpoint: it was written by a different experiment \
                 configuration or master seed"
                    .into(),
            ));
        }
        state
    } else {
        RunState::fresh(master_seed, fingerprint)
    };

    if opts.resume && state.converged() {
        // The previous incarnation already finished; re-emit its report.
        return Ok(report_from_state(
            config,
            &state,
            TerminationReason::Resumed,
            None,
        ));
    }

    // Telemetry accumulators: each epoch's snapshot and calendar counters
    // are folded in here so the final snapshot spans the whole run.
    let mut tel_acc = config
        .telemetry_enabled()
        .then(|| (TelemetrySnapshot::default(), CalendarStats::default()));

    let base_wall = state.wall_seconds;
    let start_epoch = state.next_epoch;
    // The livelock/storm circuit breaker spans epochs: a run that advances
    // one event per epoch is just a slow livelock, and the default storm
    // window is longer than an epoch. (The guard is process-local — a
    // resume restarts its windows, which only makes it *more* lenient,
    // never spuriously trips it.)
    let mut guard = config.audit().map(AuditConfig::progress_guard);
    let interrupted = loop {
        if state.audit_failed() || state.converged() || state.events_done >= config.max_events {
            break false;
        }
        // A stop request only counts while there is work left to stop.
        if opts.interrupted()
            || opts
                .max_epochs
                .is_some_and(|max| state.next_epoch - start_epoch >= max)
        {
            break true;
        }

        // One chunk per epoch: nothing happens between an epoch's events.
        let budget = opts.epoch_budget();
        let end = epoch_step(
            config,
            &mut state,
            false,
            budget,
            budget,
            guard.as_mut(),
            |_, _| Ok(true),
        )?;
        if let Some((snap, cal_acc)) = tel_acc.as_mut() {
            cal_acc.absorb(&end.calendar);
            snap.counter_add("sim.epochs", 1);
            if let Some(epoch_snap) = end.telemetry {
                snap.absorb(&epoch_snap);
            }
        }

        if let Some((store, interval)) = &store {
            if state.next_epoch.is_multiple_of(*interval) {
                state.wall_seconds = base_wall + start.elapsed().as_secs_f64();
                timed_save(store, &state, tel_acc.as_mut().map(|(snap, _)| snap))?;
            }
        }
    };

    state.wall_seconds = base_wall + start.elapsed().as_secs_f64();
    if let Some((store, _)) = &store {
        // Always persist the final state, whatever the interval: a
        // graceful wind-down must never lose the tail of the run.
        timed_save(store, &state, tel_acc.as_mut().map(|(snap, _)| snap))?;
    }
    let telemetry = tel_acc.map(|(snap, cal_acc)| {
        assemble_snapshot(
            snap,
            state.stats.as_ref(),
            &cal_acc,
            state.events_done,
            state.wall_seconds,
        )
    });
    let termination =
        TerminationReason::classify(state.audit.as_ref(), interrupted, state.converged());
    Ok(report_from_state(config, &state, termination, telemetry))
}

/// Saves a checkpoint, folding its write latency into the run's telemetry
/// (wall-clock values land in the quarantined `wall` namespace; only the
/// deterministic *count* of writes is a counter).
fn timed_save(
    store: &CheckpointStore,
    state: &RunState,
    snap: Option<&mut TelemetrySnapshot>,
) -> Result<(), SimError> {
    let t0 = Instant::now();
    store.save(state)?;
    if let Some(snap) = snap {
        let secs = t0.elapsed().as_secs_f64();
        snap.counter_add("sim.checkpoint_writes", 1);
        snap.wall
            .insert("sim.checkpoint_last_write_seconds".into(), secs);
        *snap
            .wall
            .entry("sim.checkpoint_write_seconds_total".into())
            .or_insert(0.0) += secs;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MetricKind;
    use bighouse_workloads::{StandardWorkload, Workload};

    fn quick_config() -> ExperimentConfig {
        ExperimentConfig::new(Workload::standard(StandardWorkload::Web))
            .with_utilization(0.5)
            .with_target_accuracy(0.2)
            .with_warmup(50)
            .with_calibration(500)
    }

    #[test]
    fn serial_run_produces_full_report() {
        let report = run_serial(&quick_config(), 21).unwrap();
        assert!(report.converged);
        assert!(report.runtime.wall_seconds > 0.0);
        assert!(report.runtime.telemetry.is_none(), "telemetry is opt-in");
        assert!(report.simulated_seconds > 0.0);
        assert!(report.events_fired > 0);
        let est = report.metric(MetricKind::ResponseTime.name()).unwrap();
        assert!(est.relative_accuracy <= 0.2 * 1.05);
        assert!(report.quantile("response_time", 0.95).unwrap() > est.mean);
    }

    /// `quick_config` with an accuracy 5 000 events cannot reach (E = 0.05
    /// needs ~19k kept samples at Web's C_v ≈ 3.5), so the cap decides,
    /// not the synthesized table: at E = 0.2 some tables converge sooner.
    fn capped_config() -> ExperimentConfig {
        quick_config()
            .with_target_accuracy(0.05)
            .with_max_events(5_000)
    }

    #[test]
    fn event_cap_reports_unconverged() {
        let config = capped_config();
        let report = run_serial(&config, 22).unwrap();
        assert!(!report.converged);
        assert_eq!(report.events_fired, 5_000);
    }

    #[test]
    fn a_run_whose_metrics_never_finish_calibrating_reports_no_estimates() {
        // 100 events leave every metric in warm-up: no estimate, no error.
        let report = run_serial(&quick_config().with_max_events(100), 25).unwrap();
        assert!(!report.converged);
        assert!(report.estimates.is_empty());
        assert_eq!(report.events_fired, 100);
    }

    #[test]
    fn invalid_config_surfaces_as_error() {
        let bad = quick_config().with_metric(MetricKind::CappingLevel);
        assert!(matches!(
            run_serial(&bad, 1),
            Err(SimError::InvalidConfig(_))
        ));
    }

    #[test]
    fn fixed_seed_estimates_are_bit_identical() {
        // The hot-path optimizations (slab calendar, closure-based routing,
        // fast-hash request maps) must be pure perf: two runs of the same
        // seed must agree on every estimate down to the last f64 bit. JSON
        // round-trips f64s losslessly, so string equality is bit equality.
        use crate::config::ArrivalMode;
        use crate::resilience::{AdmissionPolicy, ResilienceConfig};
        use bighouse_faults::FaultProcess;
        use bighouse_models::BalancerPolicy;
        let configs = [
            quick_config(),
            quick_config()
                .with_servers(4)
                .with_arrival_mode(ArrivalMode::LoadBalanced(BalancerPolicy::JoinShortestQueue)),
            quick_config()
                .with_servers(2)
                .with_faults(FaultProcess::exponential(20.0, 2.0).unwrap())
                .with_metric(MetricKind::Availability)
                .with_calibration(200),
            quick_config()
                .with_servers(4)
                .with_arrival_mode(ArrivalMode::LoadBalanced(BalancerPolicy::JoinShortestQueue))
                .with_resilience(
                    ResilienceConfig::new()
                        .with_admission(AdmissionPolicy::BoundedQueue { capacity: 64 })
                        .with_hedge(0.02),
                )
                .with_metric(MetricKind::ShedRate),
        ];
        for (i, config) in configs.iter().enumerate() {
            let a = run_serial(config, 40 + i as u64).unwrap();
            let b = run_serial(config, 40 + i as u64).unwrap();
            assert_eq!(a.events_fired, b.events_fired, "config {i}");
            assert_eq!(
                a.simulated_seconds.to_bits(),
                b.simulated_seconds.to_bits(),
                "config {i}"
            );
            assert_eq!(
                bighouse_json::to_string(&a.estimates),
                bighouse_json::to_string(&b.estimates),
                "config {i}: estimates differ between identical seeded runs"
            );
        }
    }

    #[test]
    fn tighter_accuracy_needs_more_events() {
        let coarse = run_serial(&quick_config().with_target_accuracy(0.2), 23).unwrap();
        let fine = run_serial(&quick_config().with_target_accuracy(0.05), 23).unwrap();
        assert!(
            fine.events_fired > coarse.events_fired,
            "E=0.05 ({}) should outlast E=0.2 ({})",
            fine.events_fired,
            coarse.events_fired
        );
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bighouse-runner-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn estimates_json(report: &SimulationReport) -> String {
        bighouse_json::to_string(&report.estimates)
    }

    #[test]
    fn resumable_run_converges() {
        let report = run_resumable(&quick_config(), 31, &RunOptions::default()).unwrap();
        assert!(report.converged);
        assert_eq!(report.termination, TerminationReason::Converged);
        assert!(report.events_fired > 0);
        assert!(report.simulated_seconds > 0.0);
        assert!(report.metric("response_time").is_some());
        assert!(report.cluster.jobs_completed > 0);
    }

    #[test]
    fn resumable_run_respects_event_cap() {
        let config = capped_config();
        let opts = RunOptions {
            epoch_events: 2_000,
            ..RunOptions::default()
        };
        let report = run_resumable(&config, 32, &opts).unwrap();
        assert!(!report.converged);
        assert_eq!(report.termination, TerminationReason::Deadline);
        assert_eq!(report.events_fired, 5_000);
    }

    #[test]
    fn checkpoint_timing_does_not_change_estimates() {
        // The trajectory may depend on the epoch size but must NOT depend
        // on whether (or how often) checkpoints are written.
        let config = quick_config();
        let plain = RunOptions {
            epoch_events: 10_000,
            ..RunOptions::default()
        };
        let a = run_resumable(&config, 33, &plain).unwrap();
        let dir = temp_dir("timing");
        let with_ckpt = RunOptions {
            epoch_events: 10_000,
            checkpoint: Some(crate::checkpoint::CheckpointConfig::new(&dir)),
            ..RunOptions::default()
        };
        let b = run_resumable(&config, 33, &with_ckpt).unwrap();
        assert_eq!(a.events_fired, b.events_fired);
        assert_eq!(a.simulated_seconds.to_bits(), b.simulated_seconds.to_bits());
        assert_eq!(estimates_json(&a), estimates_json(&b));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn killed_and_resumed_run_is_bit_identical() {
        // The robustness contract of the checkpoint subsystem: interrupt a
        // run at an epoch boundary, drop everything, resume from disk, and
        // the final estimates — mean, CI half-width, quantiles — match the
        // uninterrupted same-seed run bit for bit.
        let config = quick_config().with_target_accuracy(0.05);
        let uninterrupted = RunOptions {
            epoch_events: 10_000,
            ..RunOptions::default()
        };
        let reference = run_resumable(&config, 34, &uninterrupted).unwrap();
        assert!(
            reference.converged,
            "reference must converge for the test to bite"
        );

        let dir = temp_dir("kill-resume");
        let interrupted = RunOptions {
            epoch_events: 10_000,
            checkpoint: Some(crate::checkpoint::CheckpointConfig::new(&dir)),
            max_epochs: Some(2),
            ..RunOptions::default()
        };
        let partial = run_resumable(&config, 34, &interrupted).unwrap();
        assert_eq!(partial.termination, TerminationReason::Interrupted);
        assert!(
            !partial.converged,
            "two epochs must not satisfy 5% accuracy"
        );

        // "Process restart": nothing carried over but the files on disk.
        let resumed_opts = RunOptions {
            epoch_events: 10_000,
            checkpoint: Some(crate::checkpoint::CheckpointConfig::new(&dir)),
            resume: true,
            ..RunOptions::default()
        };
        let resumed = run_resumable(&config, 34, &resumed_opts).unwrap();
        assert!(resumed.converged);
        assert_eq!(resumed.termination, TerminationReason::Converged);
        assert_eq!(reference.events_fired, resumed.events_fired);
        assert_eq!(
            reference.simulated_seconds.to_bits(),
            resumed.simulated_seconds.to_bits()
        );
        assert_eq!(estimates_json(&reference), estimates_json(&resumed));
        assert_eq!(
            bighouse_json::to_string(&reference.cluster),
            bighouse_json::to_string(&resumed.cluster)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_of_finished_run_reports_resumed() {
        let config = quick_config();
        let dir = temp_dir("finished");
        let opts = RunOptions {
            epoch_events: 10_000,
            checkpoint: Some(crate::checkpoint::CheckpointConfig::new(&dir)),
            ..RunOptions::default()
        };
        let first = run_resumable(&config, 35, &opts).unwrap();
        assert!(first.converged);
        let resumed_opts = RunOptions {
            resume: true,
            ..opts
        };
        let again = run_resumable(&config, 35, &resumed_opts).unwrap();
        assert_eq!(again.termination, TerminationReason::Resumed);
        assert!(again.converged);
        assert_eq!(estimates_json(&first), estimates_json(&again));
        assert_eq!(first.events_fired, again.events_fired);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_checkpoint_is_rejected() {
        let config = quick_config();
        let dir = temp_dir("stale");
        let opts = RunOptions {
            epoch_events: 10_000,
            checkpoint: Some(crate::checkpoint::CheckpointConfig::new(&dir)),
            max_epochs: Some(1),
            ..RunOptions::default()
        };
        run_resumable(&config, 36, &opts).unwrap();
        // Same directory, different master seed: the fingerprint differs.
        let resume_opts = RunOptions {
            epoch_events: 10_000,
            checkpoint: Some(crate::checkpoint::CheckpointConfig::new(&dir)),
            resume: true,
            ..RunOptions::default()
        };
        let err = run_resumable(&config, 99, &resume_opts).unwrap_err();
        assert!(
            matches!(&err, SimError::Checkpoint(msg) if msg.contains("stale")),
            "got: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_without_checkpoint_errors() {
        let no_dir = RunOptions {
            resume: true,
            ..RunOptions::default()
        };
        assert!(matches!(
            run_resumable(&quick_config(), 37, &no_dir),
            Err(SimError::Checkpoint(_))
        ));
        let dir = temp_dir("empty");
        let empty_dir = RunOptions {
            resume: true,
            checkpoint: Some(crate::checkpoint::CheckpointConfig::new(&dir)),
            ..RunOptions::default()
        };
        let err = run_resumable(&quick_config(), 37, &empty_dir).unwrap_err();
        assert!(
            matches!(&err, SimError::Checkpoint(msg) if msg.contains("no checkpoint")),
            "got: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupt_flag_stops_and_writes_final_checkpoint() {
        let config = quick_config().with_target_accuracy(0.05);
        let dir = temp_dir("interrupt");
        let flag = Arc::new(AtomicBool::new(true)); // pre-armed: stop at once
        let opts = RunOptions {
            epoch_events: 10_000,
            checkpoint: Some(crate::checkpoint::CheckpointConfig::new(&dir)),
            interrupt: Some(Arc::clone(&flag)),
            ..RunOptions::default()
        };
        let report = run_resumable(&config, 38, &opts).unwrap();
        assert_eq!(report.termination, TerminationReason::Interrupted);
        assert!(!report.converged);
        assert_eq!(report.events_fired, 0);
        // The wind-down wrote a resumable snapshot; a fresh process picks
        // it up and finishes bit-identically to the uninterrupted run.
        let resume_opts = RunOptions {
            epoch_events: 10_000,
            checkpoint: Some(crate::checkpoint::CheckpointConfig::new(&dir)),
            resume: true,
            ..RunOptions::default()
        };
        let resumed = run_resumable(&config, 38, &resume_opts).unwrap();
        assert!(resumed.converged);
        let reference = run_resumable(
            &config,
            38,
            &RunOptions {
                epoch_events: 10_000,
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(estimates_json(&reference), estimates_json(&resumed));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn audited_run_is_bit_identical_and_clean() {
        // Paranoid mode is purely observational: same seed, same events,
        // same estimates down to the last bit — plus a clean audit report.
        let plain = run_serial(&quick_config(), 61).unwrap();
        let audited_cfg = quick_config().with_audit(crate::audit::AuditConfig::default());
        let audited = run_serial(&audited_cfg, 61).unwrap();
        assert_eq!(plain.events_fired, audited.events_fired);
        assert_eq!(
            plain.simulated_seconds.to_bits(),
            audited.simulated_seconds.to_bits()
        );
        assert_eq!(estimates_json(&plain), estimates_json(&audited));
        assert!(plain.audit.is_none());
        let audit = audited.audit.expect("audited run must carry a report");
        assert!(audit.enabled);
        assert!(audit.passed(), "violations: {:?}", audit.violations);
        assert!(audit.checks_run > 0);
        assert!(audit.observations_checked > 0);
    }

    #[test]
    fn resumable_audit_merges_across_epochs_and_stays_clean() {
        // Several epochs under the one guard that spans them: every
        // epoch's clock starts again at zero, which is no time regression.
        let opts = RunOptions {
            epoch_events: 10_000,
            ..RunOptions::default()
        };
        let config = quick_config().with_target_accuracy(0.05);
        let plain = run_resumable(&config, 63, &opts).unwrap();
        let audited_cfg = config.with_audit(crate::audit::AuditConfig::default());
        let audited = run_resumable(&audited_cfg, 63, &opts).unwrap();
        assert!(audited.events_fired > 2 * opts.epoch_events);
        assert_eq!(audited.termination, TerminationReason::Converged);
        assert_eq!(plain.events_fired, audited.events_fired);
        assert_eq!(estimates_json(&plain), estimates_json(&audited));
        let audit = audited.audit.expect("audited run must carry a report");
        assert!(audit.passed(), "violations: {:?}", audit.violations);
        assert!(audit.checks_run > 1, "every epoch contributes sweeps");
        assert!(plain.audit.is_none());
    }

    #[test]
    fn audited_faulty_retry_run_passes_conservation() {
        // The request ledger is only exercised in fault mode with retries;
        // a clean run through that machinery must satisfy conservation.
        use bighouse_faults::{FaultProcess, RetryPolicy};
        let config = quick_config()
            .with_servers(2)
            .with_faults(FaultProcess::exponential(20.0, 2.0).unwrap())
            .with_retry(RetryPolicy::new(1.0))
            .with_audit(crate::audit::AuditConfig::default());
        let report = run_serial(&config, 64).unwrap();
        let audit = report.audit.expect("audited run must carry a report");
        assert!(audit.passed(), "violations: {:?}", audit.violations);
    }

    #[test]
    fn a_capping_run_converges_when_its_calibration_ends() {
        // The §4.1 capping cluster at 10 servers. `capping_level` is
        // observed once per simulated second and varies little, so its 100
        // calibration observations alone meet E = 0.15: kept as measured
        // data, they end the serial run at the observation that ends
        // calibration. (At 10 servers the response time needs E = 0.1 to
        // be done by then too.)
        use bighouse_models::{DvfsModel, LinearPowerModel, PowerCapper};
        use bighouse_stats::MetricSpec;
        let servers = 10;
        let model = LinearPowerModel::typical_server();
        let capper = PowerCapper::new(
            model,
            DvfsModel::new(0.9),
            model.peak_watts() * servers as f64 * 0.7,
        );
        let config = ExperimentConfig::new(
            Workload::standard(StandardWorkload::Mail).at_utilization(0.3, 4),
        )
        .with_servers(servers)
        .with_cores(4)
        .with_capper(capper)
        .with_target_accuracy(0.1)
        .with_metric_spec(
            MetricKind::CappingLevel,
            MetricSpec::new(MetricKind::CappingLevel.name())
                .with_target_accuracy(0.15)
                .with_warmup(85)
                .with_calibration(100)
                .with_max_lag(1),
        );
        let report = run_serial(&config, 26).unwrap();
        assert!(report.converged);
        // A metric that converged earlier would have kept on recording.
        let capping = report.metric(MetricKind::CappingLevel.name()).unwrap();
        assert_eq!(capping.samples_kept, 100);
    }
}
