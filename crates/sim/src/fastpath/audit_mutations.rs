//! Mutation tests for the runtime invariant auditor.
//!
//! Each test arms one deliberately seeded bug (`ClusterSim::seed_bug`) and
//! proves the auditor *catches* it — stopping the run with the right
//! violation instead of hanging, panicking, or silently converging on
//! corrupt accounting. A clean control run proves the same auditor stays
//! quiet on a healthy simulation, and a bit-identity check proves paranoid
//! mode never perturbs the estimates it vets.

use bighouse_des::Calendar;
use bighouse_dists::Distribution;
use bighouse_workloads::{StandardWorkload, Workload};

use super::{Epoch, Store};
use crate::audit::SeededBug;
use crate::checkpoint::RunState;
use crate::{
    run_serial, AuditConfig, AuditReport, AuditViolation, ClusterSim, ExperimentConfig,
    TerminationReason,
};

/// The event cap a seeded bug must stop the run before.
const EVENT_CAP: u64 = 500_000;

fn base_config() -> ExperimentConfig {
    ExperimentConfig::new(Workload::standard(StandardWorkload::Web))
        .with_utilization(0.5)
        .with_target_accuracy(0.2)
        .with_warmup(50)
        .with_calibration(500)
}

/// Runs `config` audited by `audit` at seed 7 with `bug` armed, as one
/// calendar epoch under the audit's progress guard the way the runners
/// drive it, and returns the audit report.
fn audited_run_with_bug(
    config: ExperimentConfig,
    bug: SeededBug,
    audit: AuditConfig,
) -> AuditReport {
    let mut sim = ClusterSim::new(config.with_audit(audit.clone()), 7).unwrap();
    sim.seed_bug(bug);
    let mut cal = Calendar::new();
    sim.prime(&mut cal);
    let mut epoch = Epoch {
        sim,
        pending: Store::Calendar(cal),
        fired: 0,
    };
    let mut guard = audit.progress_guard();
    let adv = epoch
        .advance(EVENT_CAP, EVENT_CAP, Some(&mut guard), |_, _| Ok(true))
        .unwrap();
    assert!(
        adv.fired < EVENT_CAP,
        "a seeded bug must stop the run before the event cap ({} events fired)",
        adv.fired
    );
    let mut state = RunState::fresh(7, 0);
    epoch.finish(&mut state);
    state.audit.expect("auditing was enabled")
}

#[test]
fn dropped_completion_is_caught_by_the_cross_check() {
    // A lost completion leaves the server's own books balanced — only the
    // auditor's independent completion count can see the drift.
    let report = audited_run_with_bug(
        base_config(),
        SeededBug::DropCompletion,
        AuditConfig::default(),
    );
    assert!(!report.passed(), "the drop must not go unnoticed");
    assert!(
        report.violations.iter().any(|v| matches!(
            v,
            AuditViolation::CompletionMismatch { server_completed, observed }
                if server_completed != observed
        )),
        "expected a completion mismatch, got: {:?}",
        report.violations
    );
    assert!(!report.livelocked());
}

#[test]
fn nan_observation_trips_the_tripwire_without_panicking() {
    // The seeded NaN must be intercepted before it reaches an estimator
    // (StatsCollection::record panics on NaN — reaching it fails the test
    // by panic) and must surface as a typed violation.
    let report = audited_run_with_bug(
        base_config(),
        SeededBug::NanObservation,
        AuditConfig::default(),
    );
    assert!(!report.passed());
    assert!(
        report.violations.iter().any(|v| matches!(
            v,
            AuditViolation::NonFiniteObservation { metric, value }
                if metric == "response_time" && value == "NaN"
        )),
        "expected a NaN tripwire hit, got: {:?}",
        report.violations
    );
}

#[test]
fn zero_advance_livelock_is_broken_not_hung() {
    // The seeded livelock reschedules an event at the current timestamp on
    // every dispatch: simulated time stops advancing while events keep
    // firing. The circuit breaker must terminate the run (this test
    // completing at all is the no-hang assertion).
    let audit = AuditConfig {
        stall_limit_events: 2_000, // tight limit: fail fast in tests
        ..AuditConfig::default()
    };
    let report = audited_run_with_bug(base_config(), SeededBug::Livelock, audit);
    assert!(!report.passed());
    assert!(
        report.livelocked(),
        "expected a livelock violation, got: {:?}",
        report.violations
    );
    assert!(report
        .violations
        .iter()
        .any(|v| matches!(v, AuditViolation::Livelock { events } if *events >= 2_000)));
}

#[test]
fn double_hedge_completion_is_caught_by_the_request_ledger() {
    // The seeded bug retires the first hedged primary completion twice:
    // once directly (without clearing the hedge pair) and once again when
    // the live hedge finishes. Only the tracked-request ledger can see the
    // extra retirement — goodput outruns admissions.
    use crate::ResilienceConfig;
    let service_mean = Workload::standard(StandardWorkload::Web).service().mean();
    let config = base_config().with_servers(4).with_resilience(
        // An aggressive deadline so hedge pairs form early and often.
        ResilienceConfig::new().with_hedge(0.5 * service_mean),
    );
    let report = audited_run_with_bug(
        config,
        SeededBug::DoubleHedgeCompletion,
        AuditConfig::default(),
    );
    assert!(
        !report.passed(),
        "the double completion must not go unnoticed"
    );
    assert!(
        report
            .violations
            .iter()
            .any(|v| matches!(v, AuditViolation::RequestLedger { .. })),
        "expected a request-ledger imbalance, got: {:?}",
        report.violations
    );
}

#[test]
fn clean_run_passes_the_same_auditor() {
    // The control: the exact checks that catch the seeded bugs stay quiet
    // on a healthy run, end to end through the serial runner.
    let config = base_config().with_audit(AuditConfig::default());
    let report = run_serial(&config, 7).unwrap();
    assert!(report.converged);
    assert_eq!(report.termination, TerminationReason::Converged);
    let audit = report.audit.expect("auditing was enabled");
    assert!(audit.passed(), "false positives: {:?}", audit.violations);
    assert!(audit.checks_run > 0, "the auditor must actually have swept");
    assert!(audit.observations_checked > 0);
}

#[test]
fn zombie_work_passes_the_completion_cross_check() {
    // Abandon-on-timeout clients leave zombie attempts completing on the
    // servers after the request ledger has already moved on. The
    // auditor's independent completion count must still reconcile with
    // the server books — a missed zombie would surface as a
    // CompletionMismatch.
    use bighouse_faults::RetryPolicy;
    let service_mean = Workload::standard(StandardWorkload::Web).service().mean();
    // Subcritical zombie load (0.25 x 2 attempts < 1): the run converges
    // instead of collapsing, but the heavy service tail still drives
    // plenty of attempts past the timeout.
    let config = base_config()
        .with_utilization(0.25)
        .with_retry(
            RetryPolicy::new(service_mean * 0.5)
                .with_max_retries(1)
                .with_cancel_on_timeout(false),
        )
        .with_max_events(1_000_000)
        .with_audit(AuditConfig::default());
    let report = run_serial(&config, 7).unwrap();
    let fs = report.cluster.faults.expect("retry implies fault mode");
    assert!(
        fs.timed_out > 20,
        "the scenario must produce zombies: {fs:?}"
    );
    let audit = report.audit.expect("auditing was enabled");
    assert!(audit.passed(), "false positives: {:?}", audit.violations);
    assert!(audit.checks_run > 0);
}

#[test]
fn paranoid_mode_is_bit_identical_to_plain_runs() {
    // Auditing must be purely observational: same seed, same trajectory,
    // same estimates to the last f64 bit (JSON round-trips f64 losslessly,
    // so string equality is bit equality).
    let plain = run_serial(&base_config(), 11).unwrap();
    let audited = run_serial(&base_config().with_audit(AuditConfig::default()), 11).unwrap();
    assert_eq!(plain.events_fired, audited.events_fired);
    assert_eq!(
        plain.simulated_seconds.to_bits(),
        audited.simulated_seconds.to_bits()
    );
    assert_eq!(
        bighouse_json::to_string(&plain.estimates),
        bighouse_json::to_string(&audited.estimates),
        "paranoid mode perturbed the estimates"
    );
}
