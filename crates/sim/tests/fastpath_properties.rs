//! Property-based fast-path equivalence: for *randomized* G/G/k FCFS
//! configurations — exponential-ish, near-deterministic, and heavy-tailed
//! service shapes, varying core counts, server counts, and loads — the
//! analytic fast path (which the runner selects for them) must produce
//! estimates bit-identical to a hand-driven event calendar, and ineligible
//! configurations must never enter it.
//!
//! The fixed-matrix companion lives in `fastpath_equivalence.rs`; this
//! file explores the configuration space proptest-style.

mod common;

use proptest::prelude::*;

use bighouse_faults::FaultProcess;
use bighouse_sim::{run_serial, ExperimentConfig, MetricKind, ResilienceConfig};
use bighouse_workloads::{TaskMoments, Workload};

use common::{calendar_run, cases, fastpath_counters};

/// Event cap of [`ggk_config`] runs.
const MAX_EVENTS: u64 = 150_000;

/// A synthesized G/G/k workload: `service_cv` sweeps the moment fitter
/// across its low-CV (Erlang, near-deterministic), exponential, and
/// hyperexponential (Pareto-ish heavy-tail) families.
fn ggk_config(service_cv: f64, utilization: f64, servers: usize, cores: usize) -> ExperimentConfig {
    let mean = 0.02;
    let workload = Workload::synthesize(
        "ggk-prop",
        TaskMoments::new(0.002, 0.002),
        TaskMoments::new(mean, service_cv * mean),
        2012,
    )
    .expect("moment pairs are fittable");
    ExperimentConfig::new(workload.at_utilization(utilization, cores as u32))
        .with_servers(servers)
        .with_cores(cores)
        .with_target_accuracy(0.2)
        .with_warmup(20)
        .with_calibration(200)
        .with_max_events(MAX_EVENTS)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// For any seed, load, cluster shape, and service-time family, the
    /// fast path and the calendar engine agree bit-for-bit: identical
    /// event counts, identical simulated time (hence identical
    /// per-request departure times — the clock advances only through
    /// them), and identical final estimates.
    #[test]
    fn fast_and_calendar_estimates_are_bit_identical(
        seed in any::<u64>(),
        service_cv in 0.2f64..3.0,
        utilization in 0.1f64..0.85,
        servers in 1usize..4,
        cores in 1usize..6,
    ) {
        let config = ggk_config(service_cv, utilization, servers, cores);
        let fast = run_serial(&config, seed).expect("config is valid");
        let calendar = calendar_run(&config, seed, MAX_EVENTS);
        prop_assert_eq!(fast.events_fired, calendar.events_fired);
        prop_assert_eq!(
            fast.simulated_seconds.to_bits(),
            calendar.simulated_seconds.to_bits()
        );
        prop_assert_eq!(fast.cluster.jobs_completed, calendar.jobs_completed);
        prop_assert_eq!(
            fast.cluster.total_energy_joules.to_bits(),
            calendar.total_energy_joules.to_bits()
        );
        prop_assert_eq!(fast.estimates, calendar.estimates);
    }

    /// Ineligible configurations never enter the fast path, no matter the
    /// seed or load: a run with faults armed or hedging on must bail out
    /// to the calendar, and what the runner's calendar produces is what
    /// the hand-driven one does.
    #[test]
    fn ineligible_configs_never_enter_fast_path(
        seed in any::<u64>(),
        utilization in 0.2f64..0.8,
        hedged in any::<bool>(),
    ) {
        let base = ggk_config(1.0, utilization, 2, 4);
        let config = if hedged {
            base.with_resilience(ResilienceConfig::new().with_hedge(0.05))
        } else {
            base.with_faults(FaultProcess::exponential(20.0, 2.0).unwrap())
                .with_metric(MetricKind::Availability)
        };
        let (entries, bailouts, _) = fastpath_counters(&config, seed);
        prop_assert_eq!(entries, 0, "ineligible config entered the fast path");
        prop_assert_eq!(bailouts, 1);
        let runner = run_serial(&config, seed).expect("config is valid");
        let calendar = calendar_run(&config, seed, MAX_EVENTS);
        prop_assert_eq!(runner.events_fired, calendar.events_fired);
        prop_assert_eq!(runner.estimates, calendar.estimates);
    }
}
