use super::*;
use crate::pending::FixedSlots;
use crate::resilience::AdmissionPolicy;
use bighouse_des::{drive, CalendarStats, Engine, RunStats};
use bighouse_dists::Distribution;
use bighouse_faults::{FaultProcess, RetryPolicy};
use bighouse_models::PowerCapper;
use bighouse_workloads::{StandardWorkload, Workload};

fn quick_config() -> ExperimentConfig {
    ExperimentConfig::new(Workload::standard(StandardWorkload::Web))
        .with_utilization(0.5)
        .with_target_accuracy(0.2)
        .with_warmup(50)
        .with_calibration(500)
}

fn run(config: ExperimentConfig, seed: u64) -> (ClusterSim, Time, u64) {
    let mut sim = ClusterSim::new(config, seed).expect("valid config");
    let mut cal = Calendar::new();
    sim.prime(&mut cal);
    let mut engine = Engine::from_parts(sim, cal);
    let stats = engine.run_with_limit(20_000_000);
    let now = engine.now();
    (engine.into_simulation(), now, stats.events_fired)
}

/// Primes an eligible `sim` on fixed slots and runs it through the
/// epoch driver's loop for at most `max_events`.
fn run_on_slots(mut sim: ClusterSim, max_events: u64) -> (ClusterSim, FixedSlots, RunStats) {
    assert!(sim.fastpath_eligible(), "config must be eligible");
    let balanced = matches!(sim.config.arrival_mode, ArrivalMode::LoadBalanced(_));
    let mut slots = FixedSlots::new(sim.servers.len(), balanced);
    sim.prime(&mut slots);
    let run = drive(&mut slots, max_events, None, |now, event, slots| {
        sim.handle_on(now, event, slots)
    });
    (sim, slots, run)
}

/// Runs `config` on the calendar engine and on fixed slots with the
/// same seed and asserts bit-identical outcomes: event counts, clocks,
/// job counters, RNG stream position, per-metric sample bookkeeping,
/// and every estimate down to the last mantissa bit.
fn assert_engines_bit_identical(config: ExperimentConfig, seed: u64) {
    let (mut cal_sim, cal_now, cal_events) = run(config.clone(), seed);
    let fast_sim = ClusterSim::new(config, seed).expect("valid config");
    let (mut fast_sim, slots, fast_stats) = run_on_slots(fast_sim, 20_000_000);
    let fast_now = slots.now();

    assert_eq!(cal_events, fast_stats.events_fired, "event count differs");
    assert_eq!(
        cal_now.as_seconds().to_bits(),
        fast_now.as_seconds().to_bits(),
        "final clock differs"
    );
    assert_eq!(cal_sim.job_counter, fast_sim.job_counter);
    // Both runs must have consumed the RNG stream draw-for-draw:
    // the next raw output matches only if every position did.
    assert_eq!(cal_sim.rng.raw_u64(), fast_sim.rng.raw_u64());
    for (a, b) in cal_sim.stats.iter().zip(fast_sim.stats.iter()) {
        assert_eq!(a.kept_count(), b.kept_count());
        assert_eq!(a.lag(), b.lag());
        assert_eq!(a.total_observed(), b.total_observed());
        assert_eq!(a.measurement_seen(), b.measurement_seen());
        assert_eq!(a.is_converged(), b.is_converged());
        let (ea, eb) = match (a.estimate(), b.estimate()) {
            (Some(ea), Some(eb)) => (ea, eb),
            (None, None) => continue,
            _ => panic!("one engine produced an estimate, the other none"),
        };
        assert_eq!(ea.mean.to_bits(), eb.mean.to_bits(), "mean differs");
        assert_eq!(ea.std_dev.to_bits(), eb.std_dev.to_bits());
        assert_eq!(ea.mean_half_width.to_bits(), eb.mean_half_width.to_bits());
        assert_eq!(ea.quantiles.len(), eb.quantiles.len());
        for (qa, qb) in ea.quantiles.iter().zip(eb.quantiles.iter()) {
            assert_eq!(qa.value.to_bits(), qb.value.to_bits(), "q{} differs", qa.q);
        }
    }
}

#[test]
fn fast_engine_bit_identical_single_server() {
    assert_engines_bit_identical(quick_config(), 11);
}

#[test]
fn fast_engine_bit_identical_per_server_cluster_with_waiting() {
    assert_engines_bit_identical(
        quick_config()
            .with_servers(4)
            .with_metric(MetricKind::WaitingTime),
        12,
    );
}

#[test]
fn fast_engine_bit_identical_load_balanced_jsq() {
    use bighouse_models::BalancerPolicy;
    let config = ExperimentConfig::new(
        quick_config()
            .workload()
            .with_interarrival_scale(0.25)
            .unwrap(),
    )
    .with_servers(4)
    .with_arrival_mode(ArrivalMode::LoadBalanced(BalancerPolicy::JoinShortestQueue))
    .with_target_accuracy(0.2)
    .with_warmup(50)
    .with_calibration(500);
    assert_engines_bit_identical(config, 13);
}

#[test]
fn fast_engine_bit_identical_load_balanced_random_policy() {
    // Random placement draws from the RNG inside the balancer; the fast
    // path must keep even those draws in the identical stream position.
    use bighouse_models::BalancerPolicy;
    let config = ExperimentConfig::new(
        quick_config()
            .workload()
            .with_interarrival_scale(0.25)
            .unwrap(),
    )
    .with_servers(4)
    .with_arrival_mode(ArrivalMode::LoadBalanced(BalancerPolicy::Random))
    .with_target_accuracy(0.2)
    .with_warmup(50)
    .with_calibration(500);
    assert_engines_bit_identical(config, 14);
}

#[test]
fn fast_engine_emulated_calendar_stats_match() {
    let config = quick_config().with_servers(2);
    let mut sim = ClusterSim::new(config.clone(), 15).expect("valid config");
    let mut cal = Calendar::new();
    sim.prime(&mut cal);
    let mut engine = Engine::from_parts(sim, cal);
    engine.run_with_limit(20_000_000);
    let real = engine.calendar().stats();

    let fast_sim = ClusterSim::new(config, 15).expect("valid config");
    let (_, slots, _) = run_on_slots(fast_sim, 20_000_000);
    let emulated = slots.stats();

    assert_eq!(real.scheduled, emulated.scheduled);
    assert_eq!(real.fired, emulated.fired);
    assert_eq!(real.cancelled, emulated.cancelled);
    assert_eq!(real.depth_high_water, emulated.depth_high_water);
    assert_eq!(emulated.sift_steps, 0, "virtual calendar never searches");
}

/// Four single-core servers behind join-the-shortest-queue.
fn single_core_jsq() -> ExperimentConfig {
    use bighouse_models::BalancerPolicy;
    ExperimentConfig::new(
        quick_config()
            .workload()
            .with_interarrival_scale(0.25)
            .unwrap(),
    )
    .with_servers(4)
    .with_cores(1)
    .with_arrival_mode(ArrivalMode::LoadBalanced(BalancerPolicy::JoinShortestQueue))
    .with_target_accuracy(0.2)
    .with_warmup(50)
    .with_calibration(500)
}

/// Lands two jobs at once on server 0: the first finds it idle and files
/// its attention event, the second finds its one core busy.
fn busy_arrival_leaves_the_pending_set_untouched(pending: &mut impl Pending<ClusterEvent>) {
    let mut sim = ClusterSim::new(single_core_jsq(), 22).unwrap();
    let job = |id| bighouse_models::Job::new(bighouse_models::JobId::new(id), Time::ZERO, 1.0);
    sim.place(0, job(0), Time::ZERO, pending);
    let filed = pending.stats();
    assert_eq!((filed.scheduled, filed.cancelled), (1, 0));
    sim.place(0, job(1), Time::ZERO, pending);
    assert_eq!(
        pending.stats(),
        filed,
        "the completion instant did not move"
    );
}

#[test]
fn an_unmoved_attention_event_is_neither_cancelled_nor_refiled() {
    // On a single core an arrival either finds its server idle, with no
    // attention event pending, or busy, with the running job's completion
    // unmoved, so a run cancels no attention event on either store. (Only
    // rounding can move it: folding the remaining work forward to the
    // arrival may land the recomputed completion an ulp away, and that
    // instant is re-filed, as it must be for bit-identical completions. At
    // this seed no fold does; at others a few in a thousand do.)
    let mut sim = ClusterSim::new(single_core_jsq(), 7).unwrap();
    let mut cal = Calendar::new();
    sim.prime(&mut cal);
    let mut engine = Engine::from_parts(sim, cal);
    let events = engine.run_with_limit(20_000_000).events_fired;
    let on_calendar = engine.calendar().stats();
    let fast_sim = ClusterSim::new(single_core_jsq(), 7).unwrap();
    let (_, slots, fast_run) = run_on_slots(fast_sim, 20_000_000);
    assert_eq!(fast_run.events_fired, events);
    assert!(events > 1_000);
    assert_eq!(on_calendar.cancelled, 0);
    assert_eq!(
        slots.stats(),
        CalendarStats {
            sift_steps: 0,
            ..on_calendar
        }
    );

    busy_arrival_leaves_the_pending_set_untouched(&mut Calendar::new());
    busy_arrival_leaves_the_pending_set_untouched(&mut FixedSlots::new(4, true));
}

#[test]
fn restored_converged_stats_stop_both_engines_at_the_first_event() {
    // A resumed epoch can start on statistics that already converged:
    // the shared handler tests convergence after every event, so one
    // event is handled and the run stops, on either store.
    let (converged, ..) = run(quick_config(), 16);
    assert!(converged.stats().all_converged());
    let stats = converged.into_stats();

    let mut cal_sim = ClusterSim::new(quick_config(), 17).unwrap();
    cal_sim.restore_stats(stats.clone()).unwrap();
    let mut cal = Calendar::new();
    cal_sim.prime(&mut cal);
    let mut engine = Engine::from_parts(cal_sim, cal);
    let cal_run = engine.run_with_limit(1_000);

    let mut fast_sim = ClusterSim::new(quick_config(), 17).unwrap();
    fast_sim.restore_stats(stats).unwrap();
    let (_, slots, fast_run) = run_on_slots(fast_sim, 1_000);

    assert_eq!(cal_run.events_fired, 1);
    assert_eq!(fast_run.events_fired, 1);
    assert!(cal_run.stopped_by_simulation && fast_run.stopped_by_simulation);
    assert_eq!(engine.now(), slots.now());
}

#[test]
fn fastpath_eligibility_tracks_config_features() {
    use crate::audit::AuditConfig;
    use crate::config::TierConfig;
    use crate::resilience::ResilienceConfig;
    use bighouse_models::{DvfsModel, LinearPowerModel};

    // Which optional components `build` installs for each feature —
    // (requests, epochs, tiers, audit) — and that the run is eligible
    // exactly when it installs none.
    let power = LinearPowerModel::typical_server();
    let capper = PowerCapper::new(power, DvfsModel::default(), 250.0);
    let faults = || FaultProcess::exponential(50.0, 2.0).unwrap();
    let inputs = [
        ("plain", quick_config(), (false, false, false, false)),
        (
            "faults",
            quick_config().with_faults(faults()),
            (true, false, false, false),
        ),
        (
            "retries",
            quick_config().with_retry(RetryPolicy::new(1.0)),
            (true, false, false, false),
        ),
        (
            "resilience",
            quick_config().with_resilience(ResilienceConfig::new()),
            (true, false, false, false),
        ),
        (
            "the capper",
            quick_config().with_capper(capper),
            (false, true, false, false),
        ),
        (
            "an epoch-paced metric without a capper",
            quick_config()
                .with_power_model(power)
                .with_metric(MetricKind::ServerPower),
            (false, true, false, false),
        ),
        (
            "availability under faults",
            quick_config()
                .with_faults(faults())
                .with_metric(MetricKind::Availability),
            (true, true, false, false),
        ),
        (
            "a downstream tier",
            quick_config().with_tier(TierConfig::new(
                1,
                4,
                quick_config().workload().service().clone(),
            )),
            (false, false, true, false),
        ),
        (
            "the auditor",
            quick_config().with_audit(AuditConfig::default()),
            (false, false, false, true),
        ),
    ];
    for (what, config, components) in inputs {
        let sim = ClusterSim::new(config, 1).unwrap();
        let installed = (
            sim.requests.is_some(),
            sim.epochs.is_some(),
            sim.tiers.is_some(),
            sim.audit.is_some(),
        );
        assert_eq!(installed, components, "components installed for {what}");
        assert_eq!(
            sim.fastpath_eligible(),
            installed == (false, false, false, false),
            "{what} must disarm the fast path, and nothing else may"
        );
    }

    let mut bugged = ClusterSim::new(quick_config(), 1).unwrap();
    bugged.seed_bug(SeededBug::DropCompletion);
    assert!(
        !bugged.fastpath_eligible(),
        "seeded bugs disarm the fast path"
    );

    // A per-server stream and a server are two slots: half the cap in
    // servers fills it exactly.
    let servers = FAST_PATH_MAX_SLOTS / 2;
    let at_cap = ClusterSim::new(quick_config().with_servers(servers), 1).unwrap();
    assert!(at_cap.fastpath_eligible());
    let over_cap = ClusterSim::new(quick_config().with_servers(servers + 1), 1).unwrap();
    assert!(!over_cap.fastpath_eligible(), "two slots over the scan cap");
}

#[test]
fn single_server_run_converges() {
    let (sim, now, events) = run(quick_config(), 1);
    assert!(
        sim.stats().all_converged(),
        "did not converge in event budget"
    );
    assert!(events > 1000);
    let summary = sim.summary(now);
    assert!(summary.jobs_completed > 1000);
    // No fault machinery engaged without faults/retry configured.
    assert!(summary.faults.is_none());
    // Utilization should be near the configured 50%.
    assert!(
        (summary.mean_utilization - 0.5).abs() < 0.1,
        "utilization {}",
        summary.mean_utilization
    );
}

#[test]
fn response_estimate_exceeds_service_mean() {
    // Tight accuracy: with the Web workload's Cv = 3.4 service times, a
    // coarse sample's mean fluctuates far too much for this check.
    let (sim, _, _) = run(quick_config().with_target_accuracy(0.05), 2);
    let est = sim
        .stats()
        .metric_by_name("response_time")
        .unwrap()
        .estimate()
        .unwrap();
    let service_mean = Workload::standard(StandardWorkload::Web).service().mean();
    assert!(
        est.mean >= service_mean * 0.9,
        "response {} cannot be below service mean {service_mean}",
        est.mean
    );
}

#[test]
fn multi_server_per_stream_mode() {
    let (sim, now, _) = run(quick_config().with_servers(4), 3);
    assert!(sim.stats().all_converged());
    let summary = sim.summary(now);
    assert_eq!(summary.servers, 4);
}

#[test]
fn load_balanced_mode_distributes_work() {
    use bighouse_models::BalancerPolicy;
    let config = quick_config()
        .with_servers(4)
        .with_arrival_mode(ArrivalMode::LoadBalanced(BalancerPolicy::JoinShortestQueue));
    // Balanced mode shares one arrival stream; rescale it so the whole
    // cluster (not each server) sees 50% load: the per-server stream is
    // already at 0.5 for 4 cores, so divide inter-arrivals by 4.
    let config = ExperimentConfig::new(config.workload().with_interarrival_scale(0.25).unwrap())
        .with_servers(4)
        .with_arrival_mode(ArrivalMode::LoadBalanced(BalancerPolicy::JoinShortestQueue))
        .with_target_accuracy(0.2)
        .with_warmup(50)
        .with_calibration(500);
    let (sim, now, _) = run(config, 4);
    assert!(sim.stats().all_converged());
    let summary = sim.summary(now);
    for s in &sim.servers {
        assert!(
            s.completed_jobs() > 100,
            "server starved: {}",
            s.completed_jobs()
        );
    }
    assert!((summary.mean_utilization - 0.5).abs() < 0.15);
}

#[test]
fn capping_epoch_throttles_overloaded_cluster() {
    use bighouse_models::{DvfsModel, LinearPowerModel};
    // Budget below what two busy servers want: capping must engage.
    let capper = PowerCapper::new(
        LinearPowerModel::typical_server(),
        DvfsModel::default(),
        250.0,
    );
    let config = quick_config()
        .with_servers(2)
        .with_utilization(0.8)
        .with_capper(capper)
        .with_metric(MetricKind::CappingLevel)
        .with_warmup(100)
        .with_calibration(300)
        .with_max_events(5_000_000);
    let (sim, _, _) = run(config, 5);
    let capping = sim.stats().metric_by_name("capping_level").unwrap();
    let est = capping.estimate().expect("capping metric observed");
    assert!(est.mean > 0.0, "tight budget must produce capping");
}

#[test]
fn power_metric_without_capper_uses_observation_epochs() {
    use bighouse_models::LinearPowerModel;
    let config = quick_config()
        .with_power_model(LinearPowerModel::typical_server())
        .with_metric(MetricKind::ServerPower)
        .with_warmup(20)
        .with_calibration(200)
        .with_max_events(10_000_000);
    let (sim, now, _) = run(config, 6);
    let power = sim.stats().metric_by_name("server_power").unwrap();
    assert!(power.total_observed() > 0, "power epochs must fire");
    let summary = sim.summary(now);
    assert!(summary.average_power_watts > 100.0);
    assert!(summary.average_power_watts < 200.0);
}

#[test]
fn timeout_nap_policy_accumulates_nap_time() {
    use bighouse_models::IdlePolicy;
    // Light load on a big server: long idle gaps exceed the timeout.
    let config = quick_config()
        .with_cores(8)
        .with_utilization(0.1)
        .with_idle_policy(IdlePolicy::TimeoutNap {
            idle_timeout: 0.02,
            wake_latency: 0.001,
        });
    let (sim, now, _) = run(config, 12);
    let summary = sim.summary(now);
    assert!(
        summary.mean_nap_fraction > 0.1,
        "timeout policy should nap at 10% load, got {}",
        summary.mean_nap_fraction
    );
    // Napping never exceeds full idleness.
    assert!(summary.mean_nap_fraction <= summary.mean_full_idle_fraction + 1e-9);
}

#[test]
fn quantile_value_ci_is_reported() {
    let (sim, _, _) = run(quick_config(), 13);
    let est = sim
        .stats()
        .metric_by_name("response_time")
        .unwrap()
        .estimate()
        .unwrap();
    let p95 = est.quantiles.iter().find(|q| q.q == 0.95).unwrap();
    let hv = p95.half_width_value.expect("density is estimable");
    assert!(
        hv > 0.0 && hv < p95.value,
        "value CI {hv} vs p95 {}",
        p95.value
    );
}

#[test]
fn deterministic_given_seed() {
    let (a, now_a, ev_a) = run(quick_config(), 7);
    let (b, now_b, ev_b) = run(quick_config(), 7);
    assert_eq!(now_a, now_b);
    assert_eq!(ev_a, ev_b);
    let ea = a
        .stats()
        .metric_by_name("response_time")
        .unwrap()
        .estimate()
        .unwrap();
    let eb = b
        .stats()
        .metric_by_name("response_time")
        .unwrap()
        .estimate()
        .unwrap();
    assert_eq!(ea.mean, eb.mean);
}

#[test]
fn different_seeds_differ() {
    let (a, ..) = run(quick_config(), 8);
    let (b, ..) = run(quick_config(), 9);
    let ea = a
        .stats()
        .metric_by_name("response_time")
        .unwrap()
        .estimate()
        .unwrap();
    let eb = b
        .stats()
        .metric_by_name("response_time")
        .unwrap()
        .estimate()
        .unwrap();
    assert_ne!(ea.mean, eb.mean);
}

#[test]
fn slave_does_not_stop_on_convergence() {
    let mut master = ClusterSim::new(quick_config(), 10).unwrap();
    let mut cal = Calendar::new();
    master.prime(&mut cal);
    let mut engine = Engine::from_parts(master, cal);
    engine.run_with_limit(20_000_000);
    let specs = engine.simulation().histogram_specs();
    assert!(!specs.is_empty());

    let mut slave = ClusterSim::new_slave(quick_config(), 11, &specs).unwrap();
    let mut cal = Calendar::new();
    slave.prime(&mut cal);
    let mut engine = Engine::from_parts(slave, cal);
    let stats = engine.run_with_limit(2_000_000);
    assert!(
        !stats.stopped_by_simulation,
        "slaves must keep simulating until told to stop"
    );
    // The slave adopted the master's bin scheme.
    let slave_specs = engine.simulation().histogram_specs();
    assert_eq!(slave_specs["response_time"], specs["response_time"]);
}

#[test]
fn invalid_config_is_an_error_not_a_panic() {
    let bad = quick_config().with_metric(MetricKind::CappingLevel);
    assert!(matches!(
        ClusterSim::new(bad, 1),
        Err(SimError::InvalidConfig(_))
    ));
}

#[test]
fn fault_injection_tracks_availability() {
    // MTBF 20 s, MTTR 2 s: analytic availability 10/11 ≈ 0.909.
    let faults = FaultProcess::exponential(20.0, 2.0).unwrap();
    let analytic = faults.availability();
    let config = quick_config()
        .with_servers(4)
        .with_faults(faults)
        .with_metric(MetricKind::Availability)
        .with_calibration(200);
    let (sim, now, _) = run(config, 21);
    let est = sim
        .stats()
        .metric_by_name("availability")
        .unwrap()
        .estimate()
        .expect("availability epochs observed");
    let tolerance = (2.0 * est.mean_half_width).max(0.08);
    assert!(
        (est.mean - analytic).abs() < tolerance,
        "availability {} vs analytic {analytic} (tolerance {tolerance})",
        est.mean
    );
    let summary = sim.summary(now);
    let fs = summary.faults.expect("fault mode on");
    assert!(fs.server_failures > 0, "no failures injected");
    assert!(fs.mean_failed_fraction > 0.0 && fs.mean_failed_fraction < 0.3);
}

#[test]
fn retry_accounting_is_exact() {
    use bighouse_models::BalancerPolicy;
    let service_mean = Workload::standard(StandardWorkload::Web).service().mean();
    let config = ExperimentConfig::new(
        quick_config()
            .workload()
            .with_interarrival_scale(0.25)
            .unwrap(),
    )
    .with_servers(4)
    .with_arrival_mode(ArrivalMode::LoadBalanced(BalancerPolicy::JoinShortestQueue))
    // Long enough for the assertions below whatever the table or seed: at
    // E = 0.2 a run can end after one failure (which preempts nothing if
    // its server is idle) and before 1000 completions; at E = 0.05 sixty
    // seeds all saw ≥ 9 failures and ≥ 5000 completions.
    .with_target_accuracy(0.05)
    .with_warmup(50)
    .with_calibration(500)
    .with_faults(FaultProcess::exponential(20.0, 2.0).unwrap())
    .with_retry(RetryPolicy::new(service_mean * 50.0));
    let (sim, now, _) = run(config, 22);
    let summary = sim.summary(now);
    let fs = summary.faults.expect("fault mode on");
    assert!(fs.goodput > 1000, "goodput {}", fs.goodput);
    assert!(fs.server_failures > 0);
    assert!(fs.preempted_jobs > 0, "failures should preempt work");
    // Every admitted request is accounted for exactly once.
    assert_eq!(
        fs.goodput + fs.timed_out + fs.in_flight_at_end,
        fs.admitted,
        "{fs:?}"
    );
}

#[test]
fn tight_timeouts_exhaust_retry_budget() {
    let service_mean = Workload::standard(StandardWorkload::Web).service().mean();
    // A timeout well below the mean service time dooms most requests.
    let retry = RetryPolicy::new(service_mean * 0.1).with_max_retries(2);
    let config = quick_config().with_retry(retry).with_max_events(2_000_000);
    let (sim, now, _) = run(config, 23);
    let summary = sim.summary(now);
    let fs = summary.faults.expect("retry implies fault mode");
    assert!(fs.timed_out > 100, "timed_out {}", fs.timed_out);
    // Each dropped request consumed its full retry budget.
    assert!(fs.retries >= fs.timed_out * 2, "{fs:?}");
    assert_eq!(fs.goodput + fs.timed_out + fs.in_flight_at_end, fs.admitted);
    assert_eq!(fs.server_failures, 0, "no fault process configured");
}

#[test]
fn abandoned_attempts_finish_as_zombie_work() {
    let service_mean = Workload::standard(StandardWorkload::Web).service().mean();
    // Timeouts fire while attempts hold cores, and the client walks
    // away instead of cancelling: the abandoned attempts must run to
    // completion as zombies, so the servers complete strictly more
    // jobs than the request ledger retires as goodput. The load is
    // kept low enough that zombie amplification stays subcritical
    // (0.25 x 2 attempts < 1) — the run must still converge.
    let retry = RetryPolicy::new(service_mean * 0.5)
        .with_max_retries(1)
        .with_cancel_on_timeout(false);
    let config = quick_config()
        .with_utilization(0.25)
        .with_retry(retry)
        .with_max_events(2_000_000);
    let (sim, now, _) = run(config, 23);
    let summary = sim.summary(now);
    let fs = summary.faults.expect("retry implies fault mode");
    assert!(fs.timed_out > 50, "timed_out {}", fs.timed_out);
    // The request ledger still balances exactly — zombies are server
    // work, not tracked requests.
    assert_eq!(fs.goodput + fs.timed_out + fs.in_flight_at_end, fs.admitted);
    assert!(
        summary.jobs_completed > fs.goodput + fs.timed_out / 2,
        "zombie completions missing from the server books: {} jobs for {fs:?}",
        summary.jobs_completed
    );
}

#[test]
fn zombies_lost_to_a_server_failure_are_forgotten() {
    use bighouse_models::JobId;
    let service_mean = Workload::standard(StandardWorkload::Web).service().mean();
    // Abandon-on-timeout under frequent failures: some abandoned attempts
    // die with their server and never complete. Whatever is still marked a
    // zombie when the run stops must really be on a server.
    let retry = RetryPolicy::new(service_mean * 0.5)
        .with_max_retries(1)
        .with_cancel_on_timeout(false);
    let config = quick_config()
        .with_servers(2)
        .with_utilization(0.25)
        .with_faults(FaultProcess::exponential(2.0, 0.2).unwrap())
        .with_retry(retry)
        .with_max_events(300_000);
    let (mut sim, now, _) = run(config, 25);
    let fs = sim.summary(now).faults.expect("fault mode on");
    assert!(fs.server_failures > 10 && fs.timed_out > 50, "{fs:?}");
    assert!(fs.preempted_jobs > 0, "{fs:?}");
    let zombies: Vec<u64> = sim
        .requests
        .as_deref()
        .unwrap()
        .zombies
        .iter()
        .copied()
        .collect();
    for id in zombies {
        let resident = sim.servers.iter_mut().any(|server| {
            let (finished, cancelled) = server.cancel_job(JobId::new(id), now);
            cancelled || finished.iter().any(|f| f.id.raw() == id)
        });
        assert!(
            resident,
            "zombie {id} is on no server and was never forgotten"
        );
    }
}

#[test]
fn fault_injection_is_deterministic_given_seed() {
    let make = || {
        quick_config()
            .with_servers(2)
            .with_faults(FaultProcess::exponential(15.0, 1.5).unwrap())
            .with_retry(RetryPolicy::new(1.0))
            .with_metric(MetricKind::Availability)
            .with_calibration(200)
    };
    let (a, now_a, ev_a) = run(make(), 31);
    let (b, now_b, ev_b) = run(make(), 31);
    assert_eq!(now_a, now_b);
    assert_eq!(ev_a, ev_b);
    assert_eq!(a.summary(now_a).faults, b.summary(now_b).faults);
}

#[test]
fn bounded_queue_sheds_and_ledger_balances() {
    use crate::resilience::ResilienceConfig;
    // One quad-core server at 90% load with only 6 requests allowed in
    // flight: the queue saturates and the front door must shed.
    let config = quick_config()
        .with_utilization(0.9)
        .with_resilience(
            ResilienceConfig::new().with_admission(AdmissionPolicy::BoundedQueue { capacity: 6 }),
        )
        .with_max_events(2_000_000);
    let (sim, now, _) = run(config, 41);
    let summary = sim.summary(now);
    assert!(summary.faults.is_none(), "no fault process configured");
    let rs = summary.resilience.expect("resilience mode on");
    assert!(rs.offered > 1000, "offered {}", rs.offered);
    assert!(rs.shed > 0, "a saturated bounded queue must shed");
    assert_eq!(rs.admitted + rs.shed, rs.offered, "{rs:?}");
    assert_eq!(rs.goodput + rs.timed_out + rs.in_flight_at_end, rs.admitted);
    assert_eq!(rs.timed_out, 0, "no retry policy, nothing can time out");
    // In-flight can never exceed the admission capacity.
    assert!(rs.in_flight_at_end <= 6, "{rs:?}");
}

#[test]
fn hedged_requests_win_and_cancel_losers() {
    use crate::resilience::ResilienceConfig;
    let service_mean = Workload::standard(StandardWorkload::Web).service().mean();
    // Hedge aggressively (deadline well below the mean) on a 4-server
    // cluster: plenty of duplicates, and with the Web workload's heavy
    // tail some of them must beat their stragglers.
    let config = quick_config()
        .with_servers(4)
        .with_utilization(0.3)
        .with_resilience(ResilienceConfig::new().with_hedge(service_mean * 0.5))
        .with_metric(MetricKind::HedgeWinRate)
        .with_calibration(200)
        .with_max_events(4_000_000);
    let (sim, now, _) = run(config, 42);
    let summary = sim.summary(now);
    let rs = summary.resilience.expect("resilience mode on");
    assert!(rs.hedges_launched > 100, "{rs:?}");
    assert!(rs.hedge_wins > 0, "some hedges must win: {rs:?}");
    assert!(rs.hedge_wins <= rs.hedges_launched);
    // Every resolved hedged pair cancelled its loser mid-service (ties
    // where the loser completed in the same instant are the exception).
    assert!(rs.hedge_cancelled > 0, "{rs:?}");
    assert_eq!(rs.admitted + rs.shed, rs.offered);
    assert_eq!(rs.goodput + rs.timed_out + rs.in_flight_at_end, rs.admitted);
}

#[test]
fn class_shedding_drops_lowest_class_first() {
    use crate::resilience::ResilienceConfig;
    // Class 1 is shed at depth 2; class 0 effectively never. Under 90%
    // load the queue regularly sits at depth >= 2.
    let config = quick_config()
        .with_utilization(0.9)
        .with_resilience(
            ResilienceConfig::new()
                .with_classes(2, vec![1.0, 1.0])
                .with_shedding(vec![1_000_000, 2]),
        )
        .with_max_events(2_000_000);
    let (sim, now, _) = run(config, 43);
    let rs = sim.summary(now).resilience.expect("resilience mode on");
    assert_eq!(rs.per_class.len(), 2);
    let [c0, c1] = [rs.per_class[0], rs.per_class[1]];
    assert!(c0.offered > 100 && c1.offered > 100, "{rs:?}");
    assert_eq!(c0.shed, 0, "class 0's threshold is unreachable: {rs:?}");
    assert!(c1.shed > 0, "class 1 must be shed at depth 2: {rs:?}");
    assert_eq!(c0.offered + c1.offered, rs.offered);
    assert_eq!(c0.shed + c1.shed, rs.shed);
    assert_eq!(c0.goodput + c1.goodput, rs.goodput);
}

#[test]
fn token_bucket_caps_admission_rate() {
    use crate::resilience::ResilienceConfig;
    // The config rescales the interarrival for the target utilization,
    // so measure the offered rate from the finished config. Refill at
    // half that rate: about half the arrivals drain the burst and the
    // rest are shed.
    let base = quick_config();
    let rate = 0.5 / base.workload().interarrival().mean();
    let config = base
        .with_resilience(
            ResilienceConfig::new()
                .with_admission(AdmissionPolicy::TokenBucket { rate, burst: 5.0 }),
        )
        .with_metric(MetricKind::ShedRate)
        .with_calibration(200)
        .with_max_events(2_000_000);
    let (sim, now, _) = run(config, 44);
    let rs = sim.summary(now).resilience.expect("resilience mode on");
    assert_eq!(rs.admitted + rs.shed, rs.offered);
    let shed_fraction = rs.shed as f64 / rs.offered as f64;
    assert!(
        (0.3..0.7).contains(&shed_fraction),
        "token bucket at half rate should shed about half, got {shed_fraction}"
    );
}

#[test]
fn slo_attainment_is_tracked_per_completion() {
    use crate::resilience::ResilienceConfig;
    let service_mean = Workload::standard(StandardWorkload::Web).service().mean();
    let config = quick_config()
        .with_resilience(ResilienceConfig {
            slo_deadline: Some(service_mean * 2.0),
            ..ResilienceConfig::new()
        })
        .with_metric(MetricKind::SloAttainment)
        .with_calibration(200)
        .with_max_events(2_000_000);
    let (sim, now, _) = run(config, 45);
    let rs = sim.summary(now).resilience.expect("resilience mode on");
    assert!(rs.goodput > 100);
    assert!(rs.slo_met > 0 && rs.slo_met <= rs.goodput, "{rs:?}");
    let slo = sim.stats().metric_by_name("slo_attainment").unwrap();
    assert_eq!(slo.total_observed(), rs.goodput);
}

#[test]
fn resilience_mode_is_deterministic_given_seed() {
    use crate::resilience::ResilienceConfig;
    let service_mean = Workload::standard(StandardWorkload::Web).service().mean();
    let make = || {
        quick_config()
            .with_servers(2)
            .with_faults(FaultProcess::exponential(15.0, 1.5).unwrap())
            .with_retry(RetryPolicy::new(service_mean * 20.0))
            .with_resilience(ResilienceConfig {
                slo_deadline: Some(service_mean * 4.0),
                ..ResilienceConfig::new()
                    .with_admission(AdmissionPolicy::BoundedQueue { capacity: 32 })
                    .with_classes(2, vec![3.0, 1.0])
                    .with_shedding(vec![32, 8])
                    .with_hedge(service_mean * 2.0)
                    .with_ramp(5.0, 10.0, 2.0)
            })
            .with_max_events(2_000_000)
    };
    let (a, now_a, ev_a) = run(make(), 46);
    let (b, now_b, ev_b) = run(make(), 46);
    assert_eq!(now_a, now_b);
    assert_eq!(ev_a, ev_b);
    assert_eq!(a.summary(now_a).resilience, b.summary(now_b).resilience);
    assert_eq!(a.summary(now_a).faults, b.summary(now_b).faults);
}

#[test]
fn per_server_mode_strands_requests_while_home_is_down() {
    // One server, frequent failures, no retry: arrivals during downtime
    // must strand and then complete after the repair.
    let config = quick_config()
        .with_faults(FaultProcess::exponential(5.0, 1.0).unwrap())
        .with_metric(MetricKind::Availability)
        .with_calibration(200);
    let (sim, now, _) = run(config, 24);
    let summary = sim.summary(now);
    let fs = summary.faults.expect("fault mode on");
    assert!(fs.server_failures > 0);
    assert!(fs.goodput > 0);
    assert_eq!(fs.timed_out, 0, "no retry policy, nothing can time out");
    assert_eq!(fs.goodput + fs.in_flight_at_end, fs.admitted);
}
