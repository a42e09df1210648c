//! The idle low-power policies of the paper's §3 (Figs. 5–6) against
//! closed forms, as `queueing_theory.rs` holds the queueing half. A
//! PowerNap server sleeps whenever it is empty and pays `wake_latency` s
//! before serving the arrival that wakes it: on one core, an M/G/1 queue
//! whose busy periods open with an exceptional first service D = s, whose
//! mean wait Welch (1964) gives as
//! E[W] = λE[S²]/(2(1−ρ)) + (2E[D] + λE[D²])/(2(1 + λE[D])).

mod common;

use bighouse::prelude::*;
use common::workload;

/// M/M/1 tables at ρ ≈ 0.5, E[S] = 10 ms.
fn mm1_half_load() -> Workload {
    let (arrivals, service) = (Exponential::new(50.0), Exponential::new(100.0));
    workload(&arrivals.unwrap(), &service.unwrap(), 11)
}

/// E[X] and E[X²] of a table's piecewise-linear inverse CDF, exactly: the
/// distribution the simulator draws from, not the one it was cut from.
fn moments(table: &Empirical) -> (f64, f64) {
    let (mut m1, mut m2) = (0.0, 0.0);
    for pair in table.points().windows(2) {
        let ((q0, a), (q1, b)) = (pair[0], pair[1]);
        m1 += (q1 - q0) * (a + b) / 2.0;
        m2 += (q1 - q0) * (a * a + a * b + b * b) / 3.0;
    }
    (m1, m2)
}

/// A one-server, one-core run to E = 0.005 on mean response time.
fn run(w: &Workload, policy: IdlePolicy, seed: u64) -> SimulationReport {
    let config = ExperimentConfig::new(w.clone())
        .with_cores(1)
        .with_idle_policy(policy)
        .with_metric_spec(
            MetricKind::ResponseTime,
            MetricSpec::new("response_time")
                .with_target_accuracy(0.005)
                .with_quantiles(&[]),
        )
        .with_max_events(200_000_000);
    let report = run_serial(&config, seed).expect("valid config");
    assert!(report.converged, "{policy:?} must converge");
    report
}

/// The wake latencies checked: a tenth of a service time, and a whole one.
const WAKE_LATENCIES: [f64; 2] = [0.001, 0.01];

/// DreamWeaver that may delay nothing, on one core, is PowerNap.
#[test]
fn dreamweaver_without_delay_on_one_core_is_powernap() {
    let w = mm1_half_load();
    for s in WAKE_LATENCIES {
        let nap = run(&w, IdlePolicy::PowerNap { wake_latency: s }, 3);
        let weaver = IdlePolicy::DreamWeaver {
            max_delay: 0.0,
            wake_latency: s,
        };
        let dream = run(&w, weaver, 3);
        assert_eq!(nap.estimates, dream.estimates, "s = {s}");
        assert_eq!(nap.events_fired, dream.events_fired, "s = {s}");
    }
}

/// PowerNap's mean response time is Welch's with D = s:
/// E[T] = E[S] + λE[S²]/(2(1−ρ)) + (2s + λs²)/(2(1 + λs)). It is checked
/// on `response_time`: `waiting_time` records only the tasks that waited,
/// so its mean is conditional and is not Welch's E[W].
#[test]
fn powernap_mean_response_matches_welch() {
    let w = mm1_half_load();
    let (mean_gap, _) = moments(w.interarrival());
    let (es, es2) = moments(w.service());
    let lambda = 1.0 / mean_gap;
    let rho = lambda * es;
    for s in WAKE_LATENCIES {
        let theory = es
            + lambda * es2 / (2.0 * (1.0 - rho))
            + (2.0 * s + lambda * s * s) / (2.0 * (1.0 + lambda * s));
        let report = run(&w, IdlePolicy::PowerNap { wake_latency: s }, 4);
        let simulated = report.metric("response_time").unwrap().mean;
        let err = (simulated - theory).abs() / theory;
        assert!(
            err < 0.01,
            "PowerNap s={s} rho={rho:.4}: simulated {simulated:.6}, Welch {theory:.6}, err {err:.4}"
        );
    }
}
