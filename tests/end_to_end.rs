//! Cross-crate integration tests: whole-pipeline behaviors that no single
//! crate can check in isolation.

use bighouse::prelude::*;
use bighouse_repro::capping_cluster;

fn quick(workload: Workload) -> ExperimentConfig {
    ExperimentConfig::new(workload)
        .with_target_accuracy(0.1)
        .with_warmup(100)
        .with_calibration(1000)
        .with_max_events(50_000_000)
}

/// The Figure 1 flow end to end: characterize (synthesize a workload from
/// moments), persist it, reload it, simulate it, and get a sane estimate.
#[test]
fn characterize_save_load_simulate() {
    let dir = std::env::temp_dir().join("bighouse-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("custom.json");

    let workload = Workload::synthesize(
        "custom-service",
        TaskMoments::new(0.010, 0.012),
        TaskMoments::new(0.004, 0.006),
        99,
    )
    .unwrap();
    workload.save(&path).unwrap();
    let loaded = Workload::load(&path).unwrap();
    assert_eq!(workload, loaded);

    let report = run_serial(&quick(loaded.at_utilization(0.5, 4)), 1).expect("valid config");
    assert!(report.converged);
    let response = report.metric("response_time").unwrap();
    assert!(response.mean >= 0.004 * 0.9, "response below service mean");
    std::fs::remove_file(&path).unwrap();
}

/// Figure 5's headline claim as an assertion: bursty (empirical) arrivals
/// produce a worse tail than exponential arrivals at the same mean load.
#[test]
fn bursty_arrivals_hurt_the_tail() {
    let google = Workload::standard(StandardWorkload::Google);
    let qps = 0.75;
    let cores = 4u32;
    let interarrival_mean = google.service().mean() / (qps * f64::from(cores));

    let mut rng = SimRng::from_seed(3);
    let exp = Exponential::from_mean(interarrival_mean).unwrap();
    let samples: Vec<f64> = (0..200_000)
        .map(|_| exp.sample(&mut rng).max(1e-12))
        .collect();
    let exp_workload = Workload::new(
        "exp",
        Empirical::from_samples(&samples).unwrap(),
        google.service().clone(),
    );

    let config = |w: Workload| {
        ExperimentConfig::new(w)
            .with_cores(cores as usize)
            .with_target_accuracy(0.05)
            .with_max_events(100_000_000)
    };
    let exponential = run_serial(&config(exp_workload), 4).expect("valid config");
    let empirical =
        run_serial(&config(google.at_utilization(qps, cores)), 4).expect("valid config");
    let p95_exp = exponential.quantile("response_time", 0.95).unwrap();
    let p95_emp = empirical.quantile("response_time", 0.95).unwrap();
    assert!(
        p95_emp > p95_exp * 0.95,
        "empirical tail ({p95_emp}) should not beat exponential ({p95_exp}) meaningfully"
    );
}

/// DreamWeaver end to end, over Figure 6's grid (`examples/fig6_dreamweaver.rs`:
/// 16 cores at 30% load, E = 0.05, seed 5): every delay threshold buys more
/// full-system idleness than always-on, idleness never falls by more than
/// 0.05 from one threshold to the next, and at 8x the mean service time it
/// delivers strictly more idleness at strictly higher p99.
#[test]
fn dreamweaver_trades_latency_for_idleness() {
    let workload = Workload::standard(StandardWorkload::Google);
    let service_mean = workload.service().mean();
    let run_point = |policy: IdlePolicy| {
        let config = ExperimentConfig::new(workload.at_utilization(0.3, 16))
            .with_cores(16)
            .with_idle_policy(policy)
            .with_quantile(0.99)
            .with_target_accuracy(0.05);
        run_serial(&config, 5).expect("valid config")
    };
    let always_on = run_point(IdlePolicy::AlwaysOn);
    let idle_on = always_on.cluster.mean_full_idle_fraction;
    let p99_on = always_on.quantile("response_time", 0.99).unwrap();

    let mut last_idle = idle_on;
    for multiple in [
        0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0,
    ] {
        let dreamweaver = run_point(IdlePolicy::DreamWeaver {
            max_delay: multiple * service_mean,
            wake_latency: 0.001,
        });
        let idle = dreamweaver.cluster.mean_full_idle_fraction;
        assert!(
            idle > idle_on,
            "at {multiple}x DreamWeaver idleness {idle} vs always-on {idle_on}"
        );
        assert!(
            idle >= last_idle - 0.05,
            "at {multiple}x idleness fell from {last_idle} to {idle}"
        );
        last_idle = idle;
        if multiple == 8.0 {
            assert!(
                idle > idle_on + 0.1,
                "DreamWeaver idleness {idle} vs always-on {idle_on}"
            );
            let p99_dw = dreamweaver.quantile("response_time", 0.99).unwrap();
            assert!(
                p99_dw > p99_on,
                "DreamWeaver p99 {p99_dw} vs always-on {p99_on}"
            );
        }
    }
}

/// Power capping end to end: a capped cluster must consume less energy per
/// simulated second and exhibit a positive capping level.
#[test]
fn power_capping_reduces_power() {
    let workload = Workload::standard(StandardWorkload::Web);
    let model = LinearPowerModel::typical_server();
    let servers = 8;

    let uncapped_config = quick(workload.at_utilization(0.6, 4))
        .with_servers(servers)
        .with_power_model(model);
    let uncapped = run_serial(&uncapped_config, 6).expect("valid config");

    let capper = PowerCapper::new(
        model,
        DvfsModel::new(0.9),
        model.peak_watts() * servers as f64 * 0.6,
    );
    let capped_config = quick(workload.at_utilization(0.6, 4))
        .with_servers(servers)
        .with_capper(capper)
        .with_metric_spec(
            MetricKind::CappingLevel,
            MetricSpec::new("capping_level")
                .with_target_accuracy(0.15)
                .with_warmup(100)
                .with_calibration(500)
                .with_max_lag(8),
        );
    let capped = run_serial(&capped_config, 6).expect("valid config");

    assert!(
        capped.cluster.average_power_watts < uncapped.cluster.average_power_watts,
        "capped {} W vs uncapped {} W",
        capped.cluster.average_power_watts,
        uncapped.cluster.average_power_watts
    );
    assert!(capped.metric("capping_level").unwrap().mean > 0.0);
    let p95_capped = capped.quantile("response_time", 0.95).unwrap();
    let p95_uncapped = uncapped.quantile("response_time", 0.95).unwrap();
    assert!(
        p95_capped > p95_uncapped,
        "throttling must cost latency: {p95_capped} vs {p95_uncapped}"
    );
}

/// The parallel runner agrees with a tight serial reference on a standard
/// workload (the Figure 3 protocol end to end, via the umbrella crate).
#[test]
fn parallel_protocol_end_to_end() {
    let workload = Workload::standard(StandardWorkload::Dns);
    let config = ExperimentConfig::new(workload.at_utilization(0.5, 4))
        .with_target_accuracy(0.05)
        .with_warmup(100)
        .with_calibration(1000)
        .with_max_events(50_000_000);
    let reference =
        run_serial(&config.clone().with_target_accuracy(0.01), 7).expect("valid config");
    let outcome = ParallelRunner::new(config, 4).run(7).expect("valid config");
    assert!(outcome.converged);
    let r = reference.metric("response_time").unwrap().mean;
    let p = outcome.metric("response_time").unwrap().mean;
    let err = (r - p).abs() / r;
    assert!(err < 0.1, "parallel {p} vs reference {r} (err {err})");
}

/// Determinism across the whole stack: identical seeds give identical
/// reports (modulo wall-clock).
#[test]
fn full_stack_determinism() {
    let config = quick(Workload::standard(StandardWorkload::Mail).at_utilization(0.5, 4));
    let a = run_serial(&config, 8).expect("valid config");
    let b = run_serial(&config, 8).expect("valid config");
    assert_eq!(a.estimates, b.estimates);
    assert_eq!(a.events_fired, b.events_fired);
    assert_eq!(a.simulated_seconds, b.simulated_seconds);
    assert_eq!(a.cluster, b.cluster);
}

/// All five Table 1 workloads run to convergence through the public API.
#[test]
fn all_standard_workloads_simulate() {
    for which in StandardWorkload::ALL {
        let workload = Workload::standard(which);
        let report = run_serial(&quick(workload.at_utilization(0.4, 4)), 9).expect("valid config");
        assert!(report.converged, "{which} did not converge");
        assert!(
            report.metric("response_time").unwrap().mean > 0.0,
            "{which} produced nonsense"
        );
    }
}

/// Figure 4 (`examples/fig4_google_scaling.rs`, E = 0.05, seed 7): in every
/// QPS row, p95 latency rises strictly with the CPU slowdown S_CPU.
#[test]
fn fig4_latency_rises_with_cpu_slowdown() {
    let google = Workload::standard(StandardWorkload::Google);
    for qps in [0.20, 0.30, 0.40, 0.50, 0.60, 0.70] {
        let mut last = 0.0;
        for s_cpu in [1.0, 1.1, 1.3, 1.6, 2.0] {
            let utilization = qps * s_cpu;
            if utilization >= 0.95 {
                continue;
            }
            let slowed = google.with_service_scale(s_cpu).expect("positive scale");
            let config = ExperimentConfig::new(slowed.at_utilization(utilization, 4))
                .with_cores(4)
                .with_target_accuracy(0.05);
            let p95 = run_serial(&config, 7)
                .expect("valid config")
                .quantile("response_time", 0.95)
                .unwrap();
            assert!(
                p95 > last,
                "QPS {qps}, S_CPU {s_cpu}: p95 {p95} after {last}"
            );
            last = p95;
        }
    }
}

/// Figure 7 (`examples/fig7_scaling.rs`, DNS, seed 17): the events to
/// convergence on the capping cluster grow by 5x to 20x from 10 to 100
/// servers, the paper's one decade of work per decade of servers.
#[test]
fn fig7_events_scale_with_cluster_size() {
    let dns = Workload::standard(StandardWorkload::Dns);
    let events = |servers| {
        let config = capping_cluster(&dns, servers, 0.3, 0.7)
            .with_target_accuracy(0.05)
            .with_metric_spec(
                MetricKind::CappingLevel,
                MetricSpec::new("capping_level")
                    .with_target_accuracy(0.15)
                    .with_warmup(200)
                    .with_calibration(500)
                    .with_max_lag(8),
            )
            .with_max_events(4_000_000_000);
        let report = run_serial(&config, 17).expect("valid config");
        assert!(report.converged);
        report.events_fired as f64
    };
    let ratio = events(100) / events(10);
    assert!(
        (5.0..=20.0).contains(&ratio),
        "10 -> 100 servers: {ratio}x events"
    );
}

/// Figure 8 (`examples/fig8_cv_sensitivity.rs`, 50% load, seed 23): reaching
/// E = 0.02 on the response-time mean takes strictly more events as the
/// service C_v grows over {1, 2, 4}, and C_v = 4 at least twice C_v = 1.
#[test]
fn fig8_events_grow_with_service_cv() {
    let service_mean = 0.075;
    let interarrival_mean = service_mean / (0.5 * 4.0);
    let events: Vec<u64> = [1.0, 2.0, 4.0]
        .into_iter()
        .map(|cv| {
            // The example's tables: 200 000 draws each from one stream.
            let service = fit_mean_cv(service_mean, cv).expect("fittable");
            let arrivals = Exponential::from_mean(interarrival_mean).unwrap();
            let mut rng = SimRng::from_seed(0xC0FFEE);
            let mut table = |dist: &dyn Distribution| {
                let samples: Vec<f64> = (0..200_000)
                    .map(|_| dist.sample(&mut rng).max(1e-12))
                    .collect();
                Empirical::from_samples(&samples).unwrap()
            };
            let svc = table(&*service);
            let arr = table(&arrivals);
            let config = ExperimentConfig::new(Workload::new(format!("cv{cv}"), arr, svc))
                .with_cores(4)
                .with_metric_spec(
                    MetricKind::ResponseTime,
                    MetricSpec::new("response_time")
                        .with_target_accuracy(0.02)
                        .with_quantiles(&[]),
                )
                .with_max_events(2_000_000_000);
            let report = run_serial(&config, 23).expect("valid config");
            assert!(report.converged, "C_v {cv} did not converge");
            report.events_fired
        })
        .collect();
    assert!(
        events[0] < events[1] && events[1] < events[2],
        "events by C_v: {events:?}"
    );
    assert!(events[2] >= 2 * events[0], "events by C_v: {events:?}");
}

/// Figure 9 (`examples/fig9_metric_sensitivity.rs`, E = 0.1, seed 29): the
/// events to convergence are ordered Response < +Waiting < +Capping, and
/// the once-per-second capping metric costs at least 10x +Waiting.
#[test]
fn fig9_rarer_metrics_cost_more_events() {
    let web = Workload::standard(StandardWorkload::Web);
    let base = capping_cluster(&web, 16, 0.5, 0.7)
        .with_target_accuracy(0.1)
        .with_max_events(4_000_000_000);
    let waiting = base.clone().with_metric(MetricKind::WaitingTime);
    let capping = waiting.clone().with_metric(MetricKind::CappingLevel);
    let events: Vec<u64> = [base, waiting, capping]
        .iter()
        .map(|config| {
            let report = run_serial(config, 29).expect("valid config");
            assert!(report.converged);
            report.events_fired
        })
        .collect();
    assert!(
        events[0] < events[1] && events[1] < events[2],
        "events by metric set: {events:?}"
    );
    assert!(
        events[2] >= 10 * events[1],
        "events by metric set: {events:?}"
    );
}

/// Figure 10 (`examples/fig10_parallel.rs`, E = 0.02, seed 31): the
/// work-model speedup (serial events over master calibration plus the
/// slowest slave) rises strictly over 1, 2, 4, 8 and 16 slaves, and is at
/// least 6 at 8 slaves.
#[test]
fn fig10_work_speedup_rises_with_slaves() {
    let config =
        ExperimentConfig::new(Workload::standard(StandardWorkload::Web).at_utilization(0.5, 4))
            .with_cores(4)
            .with_target_accuracy(0.02)
            .with_max_events(2_000_000_000);
    let serial = run_serial(&config, 31).expect("valid config").events_fired as f64;
    let speedups: Vec<f64> = [1, 2, 4, 8, 16]
        .into_iter()
        .map(|slaves| {
            let outcome = ParallelRunner::new(config.clone(), slaves)
                .run(31)
                .expect("valid config");
            let slowest = outcome.slave_events.iter().copied().max().unwrap_or(0);
            serial / (outcome.master_calibration_events + slowest) as f64
        })
        .collect();
    assert!(
        speedups.windows(2).all(|w| w[0] < w[1]),
        "speedups {speedups:?}"
    );
    assert!(speedups[3] >= 6.0, "speedups {speedups:?}");
}
