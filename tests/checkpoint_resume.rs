//! Whole-pipeline kill-and-resume tests: a run interrupted at an epoch
//! boundary and resumed from its on-disk checkpoint must finish with
//! **bit-identical** estimates to an uninterrupted run of the same master
//! seed — through the public API, exactly as the CLI drives it.

use bighouse::prelude::*;
use bighouse::sim::TierConfig;

fn config() -> ExperimentConfig {
    ExperimentConfig::new(Workload::standard(StandardWorkload::Web))
        .with_cores(2)
        .with_utilization(0.5)
        .with_target_accuracy(0.05)
        .with_warmup(100)
        .with_calibration(500)
}

/// [`config`] with a second tier behind it: its residence metric and its
/// servers ride the same epochs and checkpoints.
fn tiered() -> ExperimentConfig {
    let service = Workload::standard(StandardWorkload::Web).service().clone();
    config().with_tier(TierConfig::new(2, 2, service))
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("bighouse-resume-e2e-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn estimates_json(report: &SimulationReport) -> String {
    // Floats print at their shortest round-trip text: string equality on
    // the serialized estimates is f64 bit equality.
    bighouse_json::to_string(&report.estimates)
}

/// The determinism contract end to end: reference run vs. a run that is
/// interrupted after two epochs, "killed" (all in-memory state dropped),
/// and resumed from disk by what is effectively a fresh process. Under
/// the auditor, both ends of the audited case must also come out clean.
#[test]
fn killed_and_resumed_run_matches_reference_bit_for_bit() {
    kill_and_resume(&config(), "kill");
    kill_and_resume(&tiered(), "kill-tiered");
    kill_and_resume(&config().with_audit(AuditConfig::default()), "kill-audited");
}

fn kill_and_resume(config: &ExperimentConfig, tag: &str) {
    const SEED: u64 = 2012;
    const EPOCH: u64 = 10_000;

    let reference = run_resumable(
        config,
        SEED,
        &RunOptions {
            epoch_events: EPOCH,
            ..RunOptions::default()
        },
    )
    .unwrap();
    assert!(reference.converged);
    assert_eq!(reference.termination, TerminationReason::Converged);

    let dir = temp_dir(tag);
    let partial = run_resumable(
        config,
        SEED,
        &RunOptions {
            epoch_events: EPOCH,
            checkpoint: Some(CheckpointConfig::new(&dir)),
            max_epochs: Some(2),
            ..RunOptions::default()
        },
    )
    .unwrap();
    assert_eq!(partial.termination, TerminationReason::Interrupted);
    assert!(
        !partial.converged,
        "{tag}: two small epochs must not already meet the 5% target"
    );
    assert!(partial.events_fired < reference.events_fired);

    // Nothing survives the "kill" except the checkpoint directory.
    drop(partial);
    let resumed = run_resumable(
        config,
        SEED,
        &RunOptions {
            epoch_events: EPOCH,
            checkpoint: Some(CheckpointConfig::new(&dir)),
            resume: true,
            ..RunOptions::default()
        },
    )
    .unwrap();
    assert!(resumed.converged);
    assert_eq!(resumed.termination, TerminationReason::Converged);

    assert_eq!(reference.events_fired, resumed.events_fired);
    assert_eq!(
        reference.simulated_seconds.to_bits(),
        resumed.simulated_seconds.to_bits()
    );
    assert_eq!(
        estimates_json(&reference),
        estimates_json(&resumed),
        "{tag}: resumed estimates (means, CIs, quantiles) must be bit-identical"
    );
    assert_eq!(
        bighouse_json::to_string(&reference.cluster),
        bighouse_json::to_string(&resumed.cluster),
        "{tag}: cluster summary (energy, utilization, fractions) must match too"
    );
    if config.audit().is_some() {
        for report in [&reference, &resumed] {
            let audit = report.audit.as_ref().expect("audited run");
            assert!(audit.passed(), "{tag}: {:?}", audit.violations);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two interruptions in a row (kill, resume, kill again, resume again)
/// still land on the reference trajectory: resumability composes.
#[test]
fn double_interruption_still_matches_reference() {
    const SEED: u64 = 77;
    const EPOCH: u64 = 10_000;

    let reference = run_resumable(
        &config(),
        SEED,
        &RunOptions {
            epoch_events: EPOCH,
            ..RunOptions::default()
        },
    )
    .unwrap();
    assert!(reference.converged);

    let dir = temp_dir("double");
    for _ in 0..2 {
        let partial = run_resumable(
            &config(),
            SEED,
            &RunOptions {
                epoch_events: EPOCH,
                checkpoint: Some(CheckpointConfig::new(&dir)),
                resume: dir.join("bighouse.ckpt").exists(),
                max_epochs: Some(1),
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(partial.termination, TerminationReason::Interrupted);
    }
    let resumed = run_resumable(
        &config(),
        SEED,
        &RunOptions {
            epoch_events: EPOCH,
            checkpoint: Some(CheckpointConfig::new(&dir)),
            resume: true,
            ..RunOptions::default()
        },
    )
    .unwrap();
    assert!(resumed.converged);
    assert_eq!(reference.events_fired, resumed.events_fired);
    assert_eq!(estimates_json(&reference), estimates_json(&resumed));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A report (with its termination reason) survives the JSON round trip the
/// CLI uses for `out=`, and a finished run re-resumed reports `Resumed`.
#[test]
fn report_serialization_and_finished_resume() {
    const SEED: u64 = 9;
    let dir = temp_dir("finished");
    let opts = RunOptions {
        epoch_events: 10_000,
        checkpoint: Some(CheckpointConfig::new(&dir)),
        ..RunOptions::default()
    };
    let report = run_resumable(&config(), SEED, &opts).unwrap();
    assert!(report.converged);

    let json = bighouse_json::to_string(&report);
    let back: SimulationReport = bighouse_json::from_str(&json).unwrap();
    assert_eq!(back.termination, TerminationReason::Converged);
    assert_eq!(estimates_json(&report), estimates_json(&back));

    let again = run_resumable(
        &config(),
        SEED,
        &RunOptions {
            resume: true,
            ..opts
        },
    )
    .unwrap();
    assert_eq!(again.termination, TerminationReason::Resumed);
    assert_eq!(estimates_json(&report), estimates_json(&again));
    let _ = std::fs::remove_dir_all(&dir);
}
