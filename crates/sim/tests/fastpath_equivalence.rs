//! Differential fast-path-vs-DES equivalence: the analytic fast path must
//! be **bit-identical** to the calendar engine, not statistically close.
//!
//! Four contracts:
//!
//! 1. For every eligible G/G/k FCFS configuration, the runners (which put
//!    it on the fast path) and a hand-driven calendar engine produce
//!    bit-identical estimates, event counts, and simulated time — the fast
//!    engine consumes the same RNG stream in the same order, so every
//!    per-request departure time matches.
//! 2. Ineligible configurations (faults armed, hedging on, auditing on,
//!    downstream tiers, or more than [`SLOT_CAP`] pending-event slots)
//!    never enter the fast path: the telemetry counters prove the engine
//!    selection, and the runner's calendar matches the hand-driven one.
//! 3. The selection flips exactly at the slot cap, with identical
//!    estimates on both sides of it.
//! 4. Fast-path M/M/k estimates agree with the closed forms in
//!    `bighouse-analytic` — the same oracle the calendar engine is
//!    validated against.

mod common;

use bighouse_analytic::mmk;
use bighouse_dists::Empirical;
use bighouse_faults::FaultProcess;
use bighouse_models::BalancerPolicy;
use bighouse_sim::{
    run_resumable, run_serial, ArrivalMode, AuditConfig, ExperimentConfig, MetricKind,
    ResilienceConfig, RunOptions, TierConfig,
};
use bighouse_workloads::{StandardWorkload, TaskMoments, Workload};

use common::{
    assert_bit_identical, calendar_run, calendar_run_resumable, fastpath_counters, Outcome,
};

/// The most pending events the fast path's fixed slots hold (the crate's
/// `FAST_PATH_MAX_SLOTS`). The slot-cap test pins it: a change to the cap
/// fails there.
const SLOT_CAP: usize = 32;

/// A synthesized G/G/k workload with the given service-time shape
/// (`cv` = σ/mean): 0.3 is nearly deterministic, 1.0 is exponential
/// (M/M/k), 2.5 is heavy-tailed — spanning the service families the
/// moment fitter selects (low-CV Erlang, exponential, hyperexponential).
fn ggk_workload(service_cv: f64) -> Workload {
    let mean = 0.02;
    Workload::synthesize(
        "ggk",
        TaskMoments::new(0.002, 0.002),
        TaskMoments::new(mean, service_cv * mean),
        2012,
    )
    .expect("moment pairs are fittable")
}

/// Event cap of [`eligible_config`] runs.
const MAX_EVENTS: u64 = 400_000;

fn eligible_config(service_cv: f64, utilization: f64, servers: usize) -> ExperimentConfig {
    ExperimentConfig::new(ggk_workload(service_cv).at_utilization(utilization, 4))
        .with_servers(servers)
        .with_target_accuracy(0.05)
        .with_warmup(100)
        .with_calibration(500)
        .with_max_events(MAX_EVENTS)
}

/// Runs `config` through `run_serial` and through the hand-driven calendar
/// engine and asserts the two agree bit for bit.
fn assert_runner_matches_calendar(config: &ExperimentConfig, seed: u64, context: &str) {
    let runner = run_serial(config, seed).expect("config is valid");
    assert_bit_identical(
        &Outcome::of(&runner),
        &calendar_run(config, seed, MAX_EVENTS),
        context,
    );
}

#[test]
fn fast_path_and_calendar_are_bit_identical_across_ggk_shapes() {
    // Service shape × cluster size × load, per-server and load-balanced:
    // every combination must agree engine-vs-engine down to the last bit.
    let mut case = 0u64;
    for service_cv in [0.3, 1.0, 2.5] {
        for (servers, utilization) in [(1usize, 0.5), (4, 0.7), (8, 0.3)] {
            let configs = [
                eligible_config(service_cv, utilization, servers),
                eligible_config(service_cv, utilization, servers).with_arrival_mode(
                    ArrivalMode::LoadBalanced(BalancerPolicy::JoinShortestQueue),
                ),
            ];
            for config in configs {
                case += 1;
                assert_runner_matches_calendar(
                    &config,
                    9000 + case,
                    &format!("cv={service_cv} servers={servers} u={utilization} case={case}"),
                );
            }
        }
    }
}

#[test]
fn exact_arrival_attention_ties_stay_bit_identical() {
    // Deterministic gaps of 0.25 s and demands of 0.5 s on four cores
    // (powers of two, so every draw and every sum is exact): from the
    // third on, each arrival lands exactly on the instant a completion is
    // due, and the pending completion it finds does not move. Ties break by
    // scheduling order, so both stores must pop them identically, and a
    // second run must repeat the first.
    let constant = |x: f64| Empirical::from_samples(&[x]).expect("one finite sample");
    let ties = Workload::new("ties", constant(0.25), constant(0.5));
    let per_server = ExperimentConfig::new(ties.clone())
        .with_servers(3)
        .with_cores(4)
        .with_target_accuracy(0.05)
        .with_warmup(100)
        .with_calibration(500)
        .with_max_events(MAX_EVENTS);
    let balanced = ExperimentConfig::new(ties.with_interarrival_scale(0.5).unwrap())
        .with_servers(2)
        .with_cores(4)
        .with_arrival_mode(ArrivalMode::LoadBalanced(BalancerPolicy::JoinShortestQueue))
        .with_target_accuracy(0.05)
        .with_warmup(100)
        .with_calibration(500)
        .with_max_events(MAX_EVENTS);
    for (name, config) in [("per-server", per_server), ("balanced", balanced)] {
        assert_runner_matches_calendar(&config, 31, name);
        let first = run_serial(&config, 31).expect("config is valid");
        let again = run_serial(&config, 31).expect("config is valid");
        assert!(first.events_fired > 1_000, "{name}");
        assert_bit_identical(&Outcome::of(&first), &Outcome::of(&again), name);
    }
}

#[test]
fn waiting_time_metric_stays_bit_identical() {
    // The waiting-time observation path has its own conditional record
    // (only positive waits are observed); it must match exactly too.
    let config = eligible_config(1.0, 0.7, 2).with_metric(MetricKind::WaitingTime);
    assert_runner_matches_calendar(&config, 77, "waiting-time");
}

#[test]
fn eligible_run_enters_fast_path_and_batches_departures() {
    let (entries, bailouts, batched) = fastpath_counters(&eligible_config(1.0, 0.6, 2), 5);
    assert_eq!(entries, 1, "an eligible run must enter the fast path");
    assert_eq!(bailouts, 0);
    assert!(batched > 0, "departures must be batch-recorded");
}

#[test]
fn ineligible_configs_never_enter_fast_path() {
    let faulty = eligible_config(1.0, 0.6, 2)
        .with_faults(FaultProcess::exponential(20.0, 2.0).unwrap())
        .with_metric(MetricKind::Availability);
    let hedged =
        eligible_config(1.0, 0.6, 2).with_resilience(ResilienceConfig::new().with_hedge(0.05));
    let audited = eligible_config(1.0, 0.6, 2).with_audit(AuditConfig::default());
    let service = ggk_workload(1.0).service().clone();
    let tiered = eligible_config(1.0, 0.6, 2).with_tier(TierConfig::new(2, 4, service));
    let configs = [
        ("faults", faulty),
        ("hedging", hedged),
        ("audit", audited),
        ("tiers", tiered.clone()),
    ];
    for (name, config) in configs {
        let (entries, bailouts, batched) = fastpath_counters(&config, 6);
        assert_eq!(entries, 0, "{name}: must not enter the fast path");
        assert_eq!(bailouts, 1, "{name}: the bailout must be counted");
        assert_eq!(batched, 0, "{name}");
    }
    // Two tiers of two servers would fit the slot cap: the tier component,
    // not the size, keeps them on the calendar the hand-driven run uses.
    assert_runner_matches_calendar(&tiered, 6, "tiers");
}

#[test]
fn engine_selection_flips_at_the_slot_cap_with_identical_estimates() {
    // Per-server arrivals occupy two slots per server (its stream, its
    // attention event): half the cap in servers sits exactly on it, one
    // more is past it.
    let at_cap = SLOT_CAP / 2;
    for (servers, fast) in [(at_cap, true), (at_cap + 1, false)] {
        let config = eligible_config(1.0, 0.6, servers);
        let (entries, bailouts, _) = fastpath_counters(&config, 64);
        if fast {
            assert!(entries >= 1, "{servers} servers fit the fast path");
            assert_eq!(bailouts, 0);
        } else {
            assert_eq!(entries, 0, "{servers} servers exceed the slot cap");
            assert!(bailouts >= 1);
        }
        assert_runner_matches_calendar(&config, 64, &format!("{servers} servers"));
    }
}

#[test]
fn fault_arming_falls_back_with_estimates_bit_identical_to_pure_des() {
    // A configuration that would be eligible except for an armed fault
    // process: the runner's calendar is the hand-driven calendar.
    let config = eligible_config(1.0, 0.7, 4)
        .with_faults(FaultProcess::exponential(30.0, 1.0).unwrap())
        .with_metric(MetricKind::Availability);
    assert_runner_matches_calendar(&config, 91, "fault-fallback");
}

#[test]
fn resumable_epochs_stay_bit_identical_to_the_calendar() {
    // The epoch-structured runner rebuilds an engine per epoch on top of
    // restored statistics; the fast path must follow the same trajectory.
    let config = eligible_config(1.0, 0.6, 2);
    let opts = RunOptions {
        epoch_events: 20_000,
        ..RunOptions::default()
    };
    let fast = run_resumable(&config, 17, &opts).expect("valid config");
    let calendar = calendar_run_resumable(&config, 17, opts.epoch_events, MAX_EVENTS);
    assert_bit_identical(&Outcome::of(&fast), &calendar, "resumable");
}

#[test]
fn fast_path_mmk_estimates_agree_with_closed_forms() {
    // M/M/4: one server with 4 cores is a single FCFS station with 4
    // parallel service channels. The workload tabulates exponential
    // draws into an empirical inverse CDF, so the simulated mean carries
    // sampling error (±2% target accuracy here — looser targets stop the
    // run too early for an oracle check, since queueing samples are
    // positively correlated and the CI undercovers on short runs) plus
    // the tabulation's modeling error; 10% total headroom against the
    // exact closed form.
    let mean_service = 0.02;
    let utilization = 0.7;
    let cores = 4u32;
    let workload = ggk_workload(1.0).at_utilization(utilization, cores);
    let config = ExperimentConfig::new(workload)
        .with_cores(cores as usize)
        .with_target_accuracy(0.02)
        .with_warmup(500)
        .with_calibration(2_000)
        .with_max_events(8_000_000);
    let report = run_serial(&config, 2012).expect("valid config");
    assert!(
        report.converged,
        "the oracle comparison needs a converged run"
    );
    let est = report.metric("response_time").expect("metric tracked");

    let mu = 1.0 / mean_service;
    let lambda = utilization * f64::from(cores) * mu;
    let analytic = mmk::mean_response(lambda, mu, cores);
    let rel_err = (est.mean - analytic).abs() / analytic;
    assert!(
        rel_err < 0.10,
        "fast-path M/M/{cores} mean {:.6} vs closed form {analytic:.6} (rel err {:.3})",
        est.mean,
        rel_err
    );
    // And the exact same estimate must come off the calendar engine.
    let calendar = calendar_run(&config, 2012, 8_000_000);
    assert_bit_identical(&Outcome::of(&report), &calendar, "mmk-oracle");
}

#[test]
fn standard_workloads_are_eligible_and_bit_identical() {
    // The Table 1 workloads with plain FCFS service are exactly the
    // segments the fast path exists for.
    for (i, which) in [StandardWorkload::Web, StandardWorkload::Dns]
        .into_iter()
        .enumerate()
    {
        let config = ExperimentConfig::new(Workload::standard(which))
            .with_utilization(0.5)
            .with_target_accuracy(0.1)
            .with_warmup(50)
            .with_calibration(500);
        let runner = run_serial(&config, 300 + i as u64).expect("config is valid");
        let calendar = calendar_run(&config, 300 + i as u64, u64::MAX);
        assert_bit_identical(&Outcome::of(&runner), &calendar, which.name());
    }
}
