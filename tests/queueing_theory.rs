//! End-to-end validation of the full simulation stack against closed-form
//! queueing theory.
//!
//! BigHouse's raison d'être is that G/G/k queues have no closed form — but
//! the special cases that *do* (M/M/1, M/D/1, M/G/1 via Pollaczek–Khinchine,
//! M/M/k via Erlang-C) give us exact targets the whole pipeline (engine →
//! server model → statistics engine) must hit. Any bias in the event loop,
//! the service accounting, or the sampling machinery shows up here. A
//! tandem of M/M/1 tiers is held to the Jackson-network closed form, and
//! trace replay to an FCFS recursion that shares no code with the
//! simulator.

mod common;

use bighouse::prelude::*;
use bighouse::sim::{replay_trace, TierConfig, Trace};
use common::{table, workload};

/// Runs a single-server experiment at tight accuracy and returns the mean
/// response time estimate.
fn simulate_mean_response(w: Workload, cores: usize, seed: u64) -> f64 {
    let config = ExperimentConfig::new(w)
        .with_cores(cores)
        .with_metric_spec(
            MetricKind::ResponseTime,
            MetricSpec::new("response_time")
                .with_target_accuracy(0.01)
                .with_quantiles(&[]),
        )
        .with_max_events(100_000_000);
    let report = run_serial(&config, seed).expect("valid config");
    assert!(report.converged, "validation run must converge");
    report.metric("response_time").unwrap().mean
}

/// M/M/1: E[T] = 1 / (µ − λ).
#[test]
fn mm1_mean_response_matches_theory() {
    let mu = 10.0;
    for rho in [0.3, 0.6, 0.8] {
        let lambda = rho * mu;
        let w = workload(
            &Exponential::new(lambda).unwrap(),
            &Exponential::new(mu).unwrap(),
            1,
        );
        let simulated = simulate_mean_response(w, 1, 2);
        let theory = bighouse::analytic::mm1::mean_response(lambda, mu);
        let err = (simulated - theory).abs() / theory;
        assert!(
            err < 0.08,
            "M/M/1 rho={rho}: simulated {simulated:.5}, theory {theory:.5}, err {err:.3}"
        );
    }
}

/// M/D/1 via Pollaczek–Khinchine: E[W] = ρ/(2(1−ρ)) · E[S], E[T] = E[W] + E[S].
#[test]
fn md1_mean_response_matches_pollaczek_khinchine() {
    let service = 0.1;
    for rho in [0.4, 0.7] {
        let lambda = rho / service;
        let w = workload(
            &Exponential::new(lambda).unwrap(),
            &Deterministic::new(service).unwrap(),
            3,
        );
        let simulated = simulate_mean_response(w, 1, 4);
        let theory = bighouse::analytic::mg1::mean_response(lambda, service, 0.0);
        let err = (simulated - theory).abs() / theory;
        assert!(
            err < 0.08,
            "M/D/1 rho={rho}: simulated {simulated:.5}, theory {theory:.5}, err {err:.3}"
        );
    }
}

/// M/G/1 with a heavy-tailed (H2, C_v = 2) service distribution:
/// E[W] = λ·E[S²] / (2(1−ρ)).
#[test]
fn mg1_heavy_tail_matches_pollaczek_khinchine() {
    let mean_s = 0.05;
    let cv = 2.0;
    let h2 = HyperExponential::from_mean_cv(mean_s, cv).unwrap();
    let second_moment = h2.variance() + mean_s * mean_s;
    for rho in [0.4, 0.6] {
        let lambda = rho / mean_s;
        let w = workload(&Exponential::new(lambda).unwrap(), &h2, 5);
        let simulated = simulate_mean_response(w, 1, 6);
        let theory = mean_s + lambda * second_moment / (2.0 * (1.0 - rho));
        // Cross-check our arithmetic against the analytic crate.
        let crate_theory = bighouse::analytic::mg1::mean_response(lambda, mean_s, cv);
        assert!((theory - crate_theory).abs() < 1e-12);
        let err = (simulated - theory).abs() / theory;
        assert!(
            err < 0.10,
            "M/G/1 rho={rho}: simulated {simulated:.5}, theory {theory:.5}, err {err:.3}"
        );
    }
}

/// M/M/k via Erlang-C: E[T] = E[S] + C(k, a)/(kµ − λ) with
/// C the Erlang-C delay probability and a = λ/µ the offered load.
#[test]
fn mmk_mean_response_matches_erlang_c() {
    let mu = 20.0; // per-core service rate
    let k = 4;
    for rho in [0.5, 0.8] {
        let lambda = rho * k as f64 * mu;
        let w = workload(
            &Exponential::new(lambda).unwrap(),
            &Exponential::new(mu).unwrap(),
            7,
        );
        let simulated = simulate_mean_response(w, k, 8);
        let theory = bighouse::analytic::mmk::mean_response(lambda, mu, k as u32);
        let err = (simulated - theory).abs() / theory;
        assert!(
            err < 0.08,
            "M/M/{k} rho={rho}: simulated {simulated:.5}, theory {theory:.5}, err {err:.3}"
        );
    }
}

/// M/M/1 tail: the response time is exponential with rate µ − λ, so its
/// 95th percentile is −ln(0.05)/(µ−λ). This validates the whole
/// histogram-quantile pipeline, not just means.
#[test]
fn mm1_p95_matches_exponential_response() {
    let (lambda, mu) = (6.0, 10.0);
    let w = workload(
        &Exponential::new(lambda).unwrap(),
        &Exponential::new(mu).unwrap(),
        11,
    );
    let config = ExperimentConfig::new(w)
        .with_cores(1)
        .with_target_accuracy(0.01)
        .with_quantile(0.95)
        .with_max_events(100_000_000);
    let report = run_serial(&config, 12).expect("valid config");
    assert!(report.converged);
    let simulated = report.quantile("response_time", 0.95).unwrap();
    let theory = bighouse::analytic::mm1::response_quantile(lambda, mu, 0.95);
    let err = (simulated - theory).abs() / theory;
    assert!(
        err < 0.08,
        "M/M/1 p95: simulated {simulated:.5}, theory {theory:.5}, err {err:.3}"
    );
}

/// Little's law cross-check: completed jobs per simulated second must match
/// the offered arrival rate (work conservation end to end).
#[test]
fn throughput_matches_offered_load() {
    let lambda = 50.0;
    let w = workload(
        &Exponential::new(lambda).unwrap(),
        &Exponential::new(100.0).unwrap(),
        9,
    );
    let config = ExperimentConfig::new(w)
        .with_cores(1)
        .with_target_accuracy(0.02)
        .with_max_events(50_000_000);
    let report = run_serial(&config, 10).expect("valid config");
    assert!(report.converged);
    let throughput = report.cluster.jobs_completed as f64 / report.simulated_seconds;
    let err = (throughput - lambda).abs() / lambda;
    assert!(
        err < 0.05,
        "throughput {throughput:.2} vs offered {lambda:.2} (err {err:.3})"
    );
}

/// The simulated utilization must equal ρ = λ·E[S]/k.
#[test]
fn utilization_matches_rho() {
    let w = Workload::standard(StandardWorkload::Web);
    for rho in [0.25, 0.5, 0.75] {
        let config = ExperimentConfig::new(w.at_utilization(rho, 4))
            .with_cores(4)
            .with_target_accuracy(0.05)
            .with_max_events(50_000_000);
        let report = run_serial(&config, 11).expect("valid config");
        let err = (report.cluster.mean_utilization - rho).abs();
        assert!(
            err < 0.05,
            "utilization {} vs rho {rho}",
            report.cluster.mean_utilization
        );
    }
}

/// Three single-core M/M/1 tiers in series (a Jackson network without
/// feedback): by Burke's theorem each tier is M/M/1 at the same λ, so tier
/// i's mean residence is 1/(µᵢ − λ) and the end-to-end mean their sum.
#[test]
fn tandem_mm1_tiers_match_jackson() {
    let lambda = 6.0;
    let mus = [10.0, 12.0, 9.0]; // ρ = 0.6, 0.5, 0.67
    let mut rng = SimRng::from_seed(21);
    let tier = |mu: f64, rng: &mut SimRng| {
        TierConfig::new(1, 1, table(&Exponential::new(mu).unwrap(), rng))
    };
    let config = ExperimentConfig::new(workload(
        &Exponential::new(lambda).unwrap(),
        &Exponential::new(mus[0]).unwrap(),
        20,
    ))
    .with_cores(1)
    .with_tier(tier(mus[1], &mut rng))
    .with_tier(tier(mus[2], &mut rng))
    .with_target_accuracy(0.02)
    .with_max_events(200_000_000)
    // Free bit for bit; its job conservation counts every tier's visits.
    .with_audit(AuditConfig::default());
    let report = run_serial(&config, 22).expect("valid config");
    assert!(report.converged);
    let audit = report.audit.as_ref().expect("audited run");
    assert!(audit.passed(), "{:?}", audit.violations);
    let check = |name: &str, theory: f64| {
        let simulated = report.metric(name).unwrap().mean;
        let err = (simulated - theory).abs() / theory;
        assert!(
            err < 0.08,
            "{name}: simulated {simulated:.5}, theory {theory:.5}, err {err:.3}"
        );
    };
    check(
        "response_time",
        bighouse::analytic::tandem::mean_response(lambda, &mus),
    );
    for (i, &mu) in mus.iter().enumerate() {
        check(
            &format!("tier_{i}_response"),
            bighouse::analytic::mm1::mean_response(lambda, mu),
        );
    }
}

/// G/G/k FCFS by the Kiefer–Wolfowitz recursion (Ebert et al.'s
/// queuecomputer): in arrival order, each job starts on the core that
/// frees first, no earlier than it arrives. No event calendar, no server
/// model. Returns each job's response and wait, in arrival order.
fn fcfs_recursion(trace: &Trace, cores: usize) -> (Vec<f64>, Vec<f64>) {
    let mut free = vec![0.0f64; cores];
    trace
        .entries()
        .iter()
        .map(|e| {
            let core = (0..cores)
                .min_by(|&a, &b| free[a].total_cmp(&free[b]))
                .unwrap();
            let start = free[core].max(e.arrival);
            free[core] = start + e.size;
            (free[core] - e.arrival, start - e.arrival)
        })
        .unzip()
}

/// Replay on one k-core server is the FCFS recursion: the response mean,
/// extremes and exact quantiles, and the mean wait, agree to rounding.
#[test]
fn replay_matches_the_fcfs_recursion() {
    let close = |what: &str, sim: f64, oracle: f64| {
        let scale = sim.abs().max(oracle.abs());
        assert!(
            (sim - oracle).abs() <= 1e-9 * scale,
            "{what}: replay {sim:e} vs recursion {oracle:e}"
        );
    };
    for cores in [1usize, 4, 16] {
        let workload = Workload::standard(StandardWorkload::Web).at_utilization(0.7, cores as u32);
        let trace = Trace::synthesize(&workload, 20_000, 30 + cores as u64);
        let report = replay_trace(&trace, 1, cores, IdlePolicy::AlwaysOn, 1);
        let (mut responses, waits) = fcfs_recursion(&trace, cores);
        assert_eq!(report.jobs_completed, responses.len() as u64);
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        close(
            &format!("k={cores} mean"),
            report.response.mean(),
            mean(&responses),
        );
        close(
            &format!("k={cores} mean wait"),
            report.waiting.mean(),
            mean(&waits),
        );
        responses.sort_by(f64::total_cmp);
        close(
            &format!("k={cores} min"),
            report.response.min().unwrap(),
            responses[0],
        );
        close(
            &format!("k={cores} max"),
            report.response.max().unwrap(),
            responses[responses.len() - 1],
        );
        for &(q, value) in &report.response_quantiles {
            let pos = q * (responses.len() - 1) as f64;
            let (lo, frac) = (pos.floor() as usize, pos.fract());
            let exact = responses[lo] * (1.0 - frac) + responses[lo + 1] * frac;
            close(&format!("k={cores} p{q}"), value, exact);
        }
    }
}
