//! Acceptance test for the fault-tolerant sweep orchestrator: a grid
//! containing a deliberately panicking config and a deliberately
//! stalling config must complete with both quarantined after bounded
//! retries, every healthy config bit-identical to an individual run of
//! its derived seed, and a killed-and-resumed sweep must reproduce the
//! identical aggregate report.

use std::time::Duration;

use bighouse::prelude::*;
use bighouse::sim::SweepFaultInjection;

const MASTER_SEED: u64 = 2012;
const EPOCH_EVENTS: u64 = 50_000;

/// Three healthy utilization points plus two poison entries. The poison
/// configs are structurally valid — the injection hook is what makes
/// them panic or stall, standing in for the real-world config that only
/// misbehaves at runtime.
fn grid() -> Vec<SweepEntry> {
    let healthy = |u: f64| {
        ExperimentConfig::new(Workload::standard(StandardWorkload::Web))
            .with_utilization(u)
            .with_target_accuracy(0.15)
            .with_warmup(100)
            .with_calibration(500)
    };
    vec![
        SweepEntry::new("utilization=0.3", healthy(0.3)),
        SweepEntry::new("utilization=0.5", healthy(0.5)),
        SweepEntry::new("utilization=0.7", healthy(0.7)),
        SweepEntry::new("poison-panic", healthy(0.4)),
        SweepEntry::new("poison-stall", healthy(0.4)),
    ]
}

fn opts() -> SweepOptions {
    SweepOptions {
        epoch_events: EPOCH_EVENTS,
        max_retries: 1,
        deadline: Some(Duration::from_secs(1)),
        fault_injection: Some(SweepFaultInjection {
            panic_ids: vec!["poison-panic".into()],
            stall_ids: vec!["poison-stall".into()],
        }),
        ..SweepOptions::default()
    }
}

#[test]
fn poison_configs_are_quarantined_and_the_sweep_is_crash_resumable() {
    let reference = run_sweep(&grid(), MASTER_SEED, &opts()).expect("sweep runs");

    // The healthy configs all completed; the poison configs were retried
    // (max_retries = 1 → exactly two attempts) and quarantined with
    // typed errors telling panic and stall apart.
    assert_eq!(reference.completed.len(), 3, "healthy configs complete");
    assert_eq!(reference.quarantined.len(), 2, "poison configs quarantined");
    assert!(!reference.interrupted, "all configs were decided");
    for q in &reference.quarantined {
        assert_eq!(q.attempts, 2, "{}: bounded retries", q.id);
        match q.id.as_str() {
            "poison-panic" => assert!(
                matches!(q.error, SweepError::Panicked { .. }),
                "{:?}",
                q.error
            ),
            "poison-stall" => assert!(
                matches!(q.error, SweepError::DeadlineExceeded { .. }),
                "{:?}",
                q.error
            ),
            other => panic!("unexpected quarantined config {other}"),
        }
    }
    // Retries are counted: two poison configs, one retry each.
    assert_eq!(reference.retries, 2);

    // Every healthy result is bit-identical to running that config alone
    // with its derived seed — the pool, the retries, and the poison
    // neighbors perturbed nothing.
    for outcome in &reference.completed {
        let entry = grid()
            .into_iter()
            .find(|e| e.id == outcome.id)
            .expect("completed id comes from the grid");
        assert_eq!(outcome.seed, config_seed(MASTER_SEED, &outcome.id));
        let solo = run_resumable(
            &entry.config,
            outcome.seed,
            &RunOptions {
                epoch_events: EPOCH_EVENTS,
                ..RunOptions::default()
            },
        )
        .expect("healthy config runs solo");
        assert_eq!(
            outcome.report.events_fired, solo.events_fired,
            "{}",
            outcome.id
        );
        assert_eq!(
            bighouse_json::to_string(&outcome.report.estimates),
            bighouse_json::to_string(&solo.estimates),
            "{}: sweep result must match the solo run bit for bit",
            outcome.id
        );
    }

    // Kill the same sweep after two decided configs (the deterministic
    // stand-in for a SIGKILL), then resume from the ledger: the final
    // report is identical to the uninterrupted reference.
    let dir = std::env::temp_dir().join(format!("bighouse-sweep-accept-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let partial = run_sweep(
        &grid(),
        MASTER_SEED,
        &SweepOptions {
            checkpoint: Some(dir.clone()),
            max_decided: Some(2),
            ..opts()
        },
    )
    .expect("partial sweep runs");
    assert!(
        partial.completed.len() + partial.quarantined.len() >= 2,
        "at least the two decided configs are in the ledger"
    );
    let resumed = run_sweep(
        &grid(),
        MASTER_SEED,
        &SweepOptions {
            checkpoint: Some(dir.clone()),
            resume: true,
            ..opts()
        },
    )
    .expect("resume from ledger");
    assert!(
        resumed.runtime.resumed > 0,
        "some configs came from the ledger"
    );
    assert_eq!(
        bighouse_json::to_string(&reference.canonical()),
        bighouse_json::to_string(&resumed.canonical()),
        "killed-and-resumed sweep must reproduce the identical report"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A SIGKILL can land mid-write and tear the sweep ledger in half. The
/// checkpoint store keeps the previous snapshot as a fallback, so a
/// resume from a torn `bighouse.sweep` must silently recover from
/// `bighouse.sweep.prev` and still reproduce the identical report; only
/// when *every* snapshot is corrupt may it refuse — with a typed
/// checkpoint error, never a panic.
#[test]
fn torn_ledger_falls_back_to_prev_and_double_corruption_is_typed() {
    let healthy = |u: f64| {
        ExperimentConfig::new(Workload::standard(StandardWorkload::Web))
            .with_utilization(u)
            .with_target_accuracy(0.15)
            .with_warmup(100)
            .with_calibration(500)
    };
    let entries = vec![
        SweepEntry::new("utilization=0.35", healthy(0.35)),
        SweepEntry::new("utilization=0.55", healthy(0.55)),
        SweepEntry::new("utilization=0.65", healthy(0.65)),
    ];
    let base = SweepOptions {
        epoch_events: EPOCH_EVENTS,
        workers: 2,
        ..SweepOptions::default()
    };
    let reference = run_sweep(&entries, MASTER_SEED, &base).expect("reference sweep");

    let dir = std::env::temp_dir().join(format!("bighouse-torn-ledger-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let partial = run_sweep(
        &entries,
        MASTER_SEED,
        &SweepOptions {
            checkpoint: Some(dir.clone()),
            max_decided: Some(2),
            ..base.clone()
        },
    )
    .expect("partial sweep");
    assert!(partial.completed.len() >= 2);

    // Tear the current ledger mid-frame, as a crash during a write
    // would: the length/checksum framing no longer validates.
    let ledger = dir.join("bighouse.sweep");
    let prev = dir.join("bighouse.sweep.prev");
    let bytes = std::fs::read(&ledger).expect("ledger exists");
    assert!(prev.exists(), "interval saves must have rotated a fallback");
    std::fs::write(&ledger, &bytes[..bytes.len() / 2]).expect("tear ledger");

    let resumed = run_sweep(
        &entries,
        MASTER_SEED,
        &SweepOptions {
            checkpoint: Some(dir.clone()),
            resume: true,
            ..base.clone()
        },
    )
    .expect("resume must fall back to the .prev snapshot");
    assert!(!resumed.interrupted);
    assert_eq!(
        bighouse_json::to_string(&reference.canonical()),
        bighouse_json::to_string(&resumed.canonical()),
        "torn-ledger resume must reproduce the identical report"
    );

    // Corrupt every snapshot: the orchestrator must refuse with a typed
    // checkpoint error instead of silently restarting (or panicking).
    std::fs::write(&ledger, b"not a ledger").unwrap();
    std::fs::write(&prev, b"also not a ledger").unwrap();
    let err = run_sweep(
        &entries,
        MASTER_SEED,
        &SweepOptions {
            checkpoint: Some(dir.clone()),
            resume: true,
            ..base
        },
    )
    .expect_err("doubly-corrupt ledger must be a typed error");
    assert!(
        matches!(err, SimError::Checkpoint(ref msg) if msg.contains("corrupt")),
        "unexpected error: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
