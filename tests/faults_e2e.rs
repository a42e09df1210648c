//! End-to-end fault-injection tests: availability, request accounting, and
//! graceful degradation of the parallel runner, all through the public API.

use bighouse::prelude::*;

fn faulty_config(mtbf: f64, mttr: f64) -> ExperimentConfig {
    ExperimentConfig::new(Workload::standard(StandardWorkload::Web))
        .with_servers(4)
        .with_cores(4)
        .with_utilization(0.5)
        .with_faults(FaultProcess::exponential(mtbf, mttr).unwrap())
        .with_metric(MetricKind::Availability)
        .with_target_accuracy(0.1)
        .with_warmup(100)
        .with_calibration(500)
        .with_max_events(100_000_000)
}

/// The alternating renewal process's steady state, recovered through the
/// full pipeline: measured availability matches MTBF / (MTBF + MTTR) within
/// the reported confidence interval (plus slack for finite-run bias), and
/// the estimate converges through the standard statistics engine.
#[test]
fn measured_availability_matches_renewal_theory() {
    let mtbf = 20.0;
    let mttr = 2.0;
    let analytic = mtbf / (mtbf + mttr);

    let report = run_serial(&faulty_config(mtbf, mttr), 17).expect("valid config");
    assert!(report.converged, "fault run should converge normally");

    let availability = report.metric("availability").expect("tracked");
    assert!(availability.samples_kept > 0);
    let tolerance = (2.0 * availability.mean_half_width).max(0.05);
    assert!(
        (availability.mean - analytic).abs() < tolerance,
        "availability {} vs MTBF/(MTBF+MTTR) = {analytic} (tolerance {tolerance})",
        availability.mean
    );

    // Response time still converges alongside the fault machinery.
    assert!(report.metric("response_time").is_some());
}

/// Conservation of requests: with timeouts and retries active, every
/// admitted request ends in exactly one bucket — goodput, timed out, or
/// still in flight when the run stops.
#[test]
fn goodput_and_timeouts_account_for_all_requests() {
    let service_mean = Workload::standard(StandardWorkload::Web).service().mean();
    let config = faulty_config(15.0, 1.5)
        .with_arrival_mode(ArrivalMode::LoadBalanced(BalancerPolicy::JoinShortestQueue))
        .with_retry(RetryPolicy::new(service_mean * 20.0).with_max_retries(3));

    let report = run_serial(&config, 18).expect("valid config");
    let fs = report.cluster.faults.expect("fault mode on");

    assert!(fs.server_failures > 0, "no failures injected: {fs:?}");
    assert!(fs.goodput > 0, "no requests completed: {fs:?}");
    assert_eq!(
        fs.goodput + fs.timed_out + fs.in_flight_at_end,
        fs.admitted,
        "request conservation violated: {fs:?}"
    );
    // Retries only happen after a timeout fires with budget remaining.
    if fs.retries > 0 {
        assert!(fs.admitted > fs.goodput || fs.in_flight_at_end > 0 || fs.timed_out > 0);
    }
}

/// A slave that panics mid-run is contained: the supervisor resurrects it
/// from its last checkpoint, nobody is dropped, and the merge still
/// produces estimates.
#[test]
fn parallel_run_survives_a_panicking_slave() {
    let config = ExperimentConfig::new(Workload::standard(StandardWorkload::Web))
        .with_cores(4)
        .with_utilization(0.4)
        .with_target_accuracy(0.1)
        .with_warmup(100)
        .with_calibration(500)
        .with_max_events(100_000_000);

    let outcome = ParallelRunner::new(config, 3)
        .with_proc_chaos(bighouse::sim::ProcChaos::PanicOnSpawn { slave: 1 })
        .run(29)
        .expect("survivors should carry the run");

    assert!(
        outcome.dead_slaves.is_empty(),
        "a transiently panicking slave is resurrected, not dropped: {:?}",
        outcome.dead_slaves
    );
    assert!(outcome.resurrections >= 1, "the panic forced a restart");
    assert!(!outcome.estimates.is_empty(), "no merged estimates");
    let response = outcome
        .estimates
        .iter()
        .find(|e| e.name == "response_time")
        .expect("merged response-time estimate");
    assert!(response.mean > 0.0);
}

/// Satellite check for paranoid mode: under *heavy* fault injection with
/// timeouts and retries — the regime where accounting bugs would hide —
/// the runtime auditor sweeps the same conservation invariant the fault
/// summary reports, and both agree the books balance.
#[test]
fn paranoid_audit_passes_under_heavy_faults_and_retries() {
    let service_mean = Workload::standard(StandardWorkload::Web).service().mean();
    let config = faulty_config(10.0, 2.0)
        .with_arrival_mode(ArrivalMode::LoadBalanced(BalancerPolicy::JoinShortestQueue))
        .with_retry(RetryPolicy::new(service_mean * 10.0).with_max_retries(3))
        .with_audit(AuditConfig::default());

    let report = run_serial(&config, 19).expect("valid config");
    let fs = report.cluster.faults.expect("fault mode on");
    assert!(fs.server_failures > 0, "no failures injected: {fs:?}");
    assert_eq!(
        fs.goodput + fs.timed_out + fs.in_flight_at_end,
        fs.admitted,
        "request conservation violated: {fs:?}"
    );

    let audit = report.audit.expect("paranoid mode was on");
    assert!(
        audit.passed(),
        "auditor flagged a healthy (if battered) run: {:?}",
        audit.violations
    );
    assert!(audit.enabled);
    assert!(audit.checks_run > 0, "the request ledger was never swept");
    assert!(
        audit.observations_checked > 0,
        "no observations were vetted"
    );
    // An unaudited same-seed run agrees bit-for-bit: paranoia is free.
    let plain_config = faulty_config(10.0, 2.0)
        .with_arrival_mode(ArrivalMode::LoadBalanced(BalancerPolicy::JoinShortestQueue))
        .with_retry(RetryPolicy::new(service_mean * 10.0).with_max_retries(3));
    let plain = run_serial(&plain_config, 19).expect("valid config");
    assert_eq!(plain.events_fired, report.events_fired);
    assert_eq!(
        plain.simulated_seconds.to_bits(),
        report.simulated_seconds.to_bits()
    );
}
