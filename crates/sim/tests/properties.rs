//! Property-based tests for the simulation orchestration layer.

mod common;

use proptest::prelude::*;

use bighouse_des::{Calendar, Engine};
use bighouse_dists::Distribution;
use bighouse_sim::{run_serial, AdmissionPolicy, ClusterSim, ExperimentConfig, ResilienceConfig};
use bighouse_workloads::{StandardWorkload, Workload};

fn capped_config(utilization: f64, servers: usize, cores: usize) -> ExperimentConfig {
    ExperimentConfig::new(Workload::standard(StandardWorkload::Web))
        .with_servers(servers)
        .with_cores(cores)
        .with_utilization(utilization)
        .with_target_accuracy(0.2)
        .with_warmup(20)
        .with_calibration(200)
        .with_max_events(200_000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases()))]

    /// For any seed and any reasonable configuration, a (possibly
    /// event-capped) run yields internally consistent results: response
    /// times above the service floor, utilization in range, counters sane.
    #[test]
    fn reports_are_internally_consistent(
        seed in any::<u64>(),
        utilization in 0.1f64..0.8,
        servers in 1usize..4,
        cores in 1usize..8,
    ) {
        let report = run_serial(&capped_config(utilization, servers, cores), seed).unwrap();
        prop_assert!(report.events_fired > 0);
        prop_assert!(report.simulated_seconds > 0.0);
        prop_assert!(report.cluster.mean_utilization >= 0.0);
        prop_assert!(report.cluster.mean_utilization <= 1.0 + 1e-9);
        prop_assert!(report.cluster.jobs_completed > 0);
        if let Some(est) = report.metric("response_time") {
            prop_assert!(est.mean > 0.0);
            for q in &est.quantiles {
                prop_assert!(q.value >= 0.0);
            }
        }
    }

    /// Determinism holds for arbitrary seeds and configurations.
    #[test]
    fn determinism_for_any_seed(seed in any::<u64>(), utilization in 0.1f64..0.8) {
        let config = capped_config(utilization, 2, 4);
        let a = run_serial(&config, seed).unwrap();
        let b = run_serial(&config, seed).unwrap();
        prop_assert_eq!(a.events_fired, b.events_fired);
        prop_assert_eq!(a.simulated_seconds, b.simulated_seconds);
        prop_assert_eq!(a.estimates, b.estimates);
    }

    /// Hedged cancellation never double-completes and never leaks a
    /// request: for any seed and any hedge deadline, the final disposition
    /// ledger balances exactly — every admitted request is goodput, timed
    /// out, or still in flight at the cap, and every offered arrival is
    /// admitted or shed. A double completion (the loser landing after the
    /// winner already retired the pair) or a leaked hedge pair would break
    /// the balance.
    #[test]
    fn hedged_requests_never_double_complete_or_leak(
        seed in any::<u64>(),
        utilization in 0.2f64..0.8,
        deadline_scale in 0.1f64..3.0,
        servers in 2usize..5,
    ) {
        let service_mean = Workload::standard(StandardWorkload::Web).service().mean();
        let config = capped_config(utilization, servers, 4)
            .with_resilience(ResilienceConfig::new().with_hedge(deadline_scale * service_mean));
        let report = run_serial(&config, seed).unwrap();
        let rs = report.cluster.resilience.expect("resilience mode on");
        prop_assert_eq!(rs.admitted + rs.shed, rs.offered);
        prop_assert_eq!(
            rs.goodput + rs.timed_out + rs.in_flight_at_end,
            rs.admitted,
            "disposition ledger out of balance: {:?}",
            rs
        );
        prop_assert!(rs.hedge_wins <= rs.hedges_launched);
        prop_assert!(rs.hedge_cancelled <= rs.hedges_launched);
        // Goodput can never exceed total completed work on the servers.
        prop_assert!(rs.goodput <= report.cluster.jobs_completed);
    }

    /// Admission control composed with hedging stays exactly conservative:
    /// the shed and disposition ledgers both balance for any bounded-queue
    /// capacity, and the in-flight census respects the queue bound.
    #[test]
    fn admission_and_hedging_compose_without_losing_requests(
        seed in any::<u64>(),
        utilization in 0.5f64..0.95,
        capacity in 2usize..32,
    ) {
        let service_mean = Workload::standard(StandardWorkload::Web).service().mean();
        let config = capped_config(utilization, 3, 4)
            .with_resilience(
                ResilienceConfig::new()
                    .with_admission(AdmissionPolicy::BoundedQueue { capacity })
                    .with_hedge(service_mean),
            );
        let report = run_serial(&config, seed).unwrap();
        let rs = report.cluster.resilience.expect("resilience mode on");
        prop_assert_eq!(rs.admitted + rs.shed, rs.offered);
        prop_assert_eq!(rs.goodput + rs.timed_out + rs.in_flight_at_end, rs.admitted);
        prop_assert!(
            rs.in_flight_at_end as usize <= capacity,
            "in-flight census {} exceeds the queue bound {}",
            rs.in_flight_at_end,
            capacity
        );
    }

    /// Hedging never leaks calendar handles: after heavy hedge churn the
    /// pending-event census is bounded by the live requests (at most a
    /// timeout and a hedge-fire handle each) plus the per-server attention
    /// events, the arrival event, and the observation epoch — dead
    /// hedge-fire events for retired requests must have been cancelled,
    /// not left to accumulate.
    #[test]
    fn hedge_churn_leaves_no_dangling_calendar_events(
        seed in any::<u64>(),
        deadline_scale in 0.05f64..1.0,
        servers in 2usize..5,
    ) {
        let service_mean = Workload::standard(StandardWorkload::Web).service().mean();
        let config = capped_config(0.7, servers, 4)
            .with_resilience(ResilienceConfig::new().with_hedge(deadline_scale * service_mean));
        let mut sim = ClusterSim::new(config, seed).unwrap();
        let mut cal = Calendar::new();
        sim.prime(&mut cal);
        let mut engine = Engine::from_parts(sim, cal);
        engine.run_with_limit(100_000);
        let stats = engine.calendar().stats();
        let pending = engine.calendar().pending();
        let now = engine.now();
        let sim = engine.into_simulation();
        let rs = sim.summary(now).resilience.expect("resilience mode on");
        // Conservation: every scheduled event either fired, was cancelled,
        // or is still pending.
        prop_assert_eq!(
            stats.scheduled,
            stats.fired + stats.cancelled + pending as u64
        );
        let bound = 2 * rs.in_flight_at_end as usize + servers + 2;
        prop_assert!(
            pending <= bound,
            "{} pending events for {} in-flight requests on {} servers: \
             hedge handles are leaking",
            pending,
            rs.in_flight_at_end,
            servers
        );
    }
}
