//! The five frozen workloads.
//!
//! Each is a function from a [`Scale`] to an [`ExperimentConfig`]; the
//! accuracy targets were sized once on the reference machine (see the
//! table in this crate's README) and are not to be retuned by a change
//! that claims a gain. Every metric caps its lag at a value the runs test
//! reaches on every seed tried, so the run length does not ride on which
//! lag one seed's calibration sample happens to certify — a two- or
//! three-fold lottery that would drown any host-speed signal.

use bighouse::analytic;
use bighouse::prelude::*;

/// How much work a workload is sized for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The frozen benchmark size: one operation takes 1.5–2.5 s on the
    /// reference machine.
    Full,
    /// Accuracy loosened and the 1000-server clusters cut to 50, so one
    /// operation takes milliseconds. For this crate's own test only; the
    /// numbers mean nothing.
    Smoke,
}

impl Scale {
    /// `full` at full scale, `smoke` otherwise.
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

/// How a workload's configuration is run to convergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runner {
    /// `run_serial`.
    Serial,
    /// `ParallelRunner` with this many lockstep slaves.
    Lockstep(usize),
}

/// One benchmark workload.
#[derive(Debug)]
pub struct WorkloadSpec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line on why it is in the set.
    pub why: &'static str,
    /// How an operation runs the configuration.
    pub runner: Runner,
    /// The front end's policy, if one arrival stream is balanced over the
    /// servers; `None` where every server has its own stream.
    pub front_end: Option<BalancerPolicy>,
    /// Builds the configuration from scratch, workload synthesis included.
    pub config: fn(Scale) -> ExperimentConfig,
    /// Closed-form mean response time for the configuration, where one
    /// exists.
    pub oracle: Option<fn(&ExperimentConfig) -> f64>,
}

/// Every run is capped, so a convergence bug fails instead of hanging.
/// No workload needs a tenth of this.
pub const MAX_EVENTS: u64 = 400_000_000;

/// The only front-end policy the benchmark uses.
pub const JSQ: BalancerPolicy = BalancerPolicy::JoinShortestQueue;

/// The five workloads, in the order the README lists them.
pub static WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "fcfs_small",
        why: "M/M/16 behind JSQ, 17 pending events: statistics, sampling and the server model do the work, the calendar none",
        runner: Runner::Serial,
        front_end: Some(JSQ),
        config: fcfs_small,
        oracle: None,
    },
    WorkloadSpec {
        name: "fcfs_1k",
        why: "the same M/M jobs on 1000 quad-core servers: the pending set at ~2000 entries, with a closed-form M/M/4 oracle",
        runner: Runner::Serial,
        front_end: None,
        config: fcfs_1k,
        oracle: Some(mm4_mean_response),
    },
    WorkloadSpec {
        name: "capping_1k",
        why: "the Fig. 7 point: Mail on 1000 capped servers, heap calendar at depth ~2000 with a 1000-server frequency burst per epoch",
        runner: Runner::Serial,
        front_end: None,
        config: capping_1k,
        oracle: None,
    },
    WorkloadSpec {
        name: "tracked_faults",
        why: "faults, timeouts, admission and hedging on M/M/16: every request tracked, cancel as frequent as pop",
        runner: Runner::Serial,
        front_end: Some(JSQ),
        config: tracked_faults,
        oracle: None,
    },
    WorkloadSpec {
        name: "parallel_2",
        why: "the Fig. 10 configuration on two lockstep slaves: calibration, broadcast, barriers and merge, with a lag that skips most samples",
        runner: Runner::Lockstep(2),
        front_end: None,
        config: parallel_2,
        oracle: None,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The exponential-interarrival, exponential-service job stream of
/// `perf_baseline`'s `mmk_*` scenarios. Synthesis is part of set-up: 400k
/// draws, two sorts and two tabulations.
pub fn mm_jobs() -> Workload {
    Workload::synthesize(
        "mmk",
        TaskMoments::new(0.002, 0.002),
        TaskMoments::new(0.02, 0.02),
        2012,
    )
    .expect("exponential moments always fit")
}

/// A response- or waiting-time spec whose lag is pinned to 1.
fn unit_lag(kind: MetricKind, accuracy: f64) -> MetricSpec {
    MetricSpec::new(kind.name())
        .with_target_accuracy(accuracy)
        .with_max_lag(1)
}

/// Sixteen single-core servers behind one join-shortest-queue front end at
/// ρ = 0.7. Response time gates; waiting time (one completion in 27
/// waits) converges about half-way through.
fn fcfs_small(scale: Scale) -> ExperimentConfig {
    ExperimentConfig::new(mm_jobs().at_utilization(0.7, 16))
        .with_servers(16)
        .with_cores(1)
        .with_arrival_mode(ArrivalMode::LoadBalanced(JSQ))
        .with_metric_spec(
            MetricKind::ResponseTime,
            unit_lag(MetricKind::ResponseTime, scale.pick(0.0008, 0.02)),
        )
        .with_metric_spec(
            MetricKind::WaitingTime,
            unit_lag(MetricKind::WaitingTime, scale.pick(0.004, 0.1)),
        )
        .with_max_events(MAX_EVENTS)
}

/// A thousand independent M/M/4 queues at ρ = 0.7.
fn fcfs_1k(scale: Scale) -> ExperimentConfig {
    ExperimentConfig::new(mm_jobs().at_utilization(0.7, 4))
        .with_servers(scale.pick(1000, 50))
        .with_cores(4)
        .with_metric_spec(
            MetricKind::ResponseTime,
            unit_lag(MetricKind::ResponseTime, scale.pick(0.00255, 0.02)),
        )
        .with_max_events(MAX_EVENTS)
}

/// Mean response time of one of `fcfs_1k`'s servers, from the workload's
/// own tabulated means.
fn mm4_mean_response(config: &ExperimentConfig) -> f64 {
    let lambda = 1.0 / config.workload().interarrival().mean();
    let mu = 1.0 / config.workload().service().mean();
    analytic::mmk::mean_response(lambda, mu, config.cores_per_server() as u32)
}

/// The §4.1 capping cluster of `fig7_scaling`. `capping_level` is observed
/// once per simulated second and varies so little that it converges at
/// the 30-sample floor, so the run lasts warm-up + calibration + 30
/// epochs whatever the seed.
fn capping_1k(scale: Scale) -> ExperimentConfig {
    let servers = scale.pick(1000, 50);
    let model = LinearPowerModel::typical_server();
    let capper = PowerCapper::new(
        model,
        DvfsModel::new(0.9),
        model.peak_watts() * servers as f64 * 0.7,
    );
    ExperimentConfig::new(Workload::standard(StandardWorkload::Mail).at_utilization(0.3, 4))
        .with_servers(servers)
        .with_cores(4)
        .with_capper(capper)
        .with_target_accuracy(0.05)
        .with_metric_spec(
            MetricKind::CappingLevel,
            MetricSpec::new(MetricKind::CappingLevel.name())
                .with_target_accuracy(0.15)
                .with_warmup(scale.pick(85, 2))
                .with_calibration(scale.pick(100, 8))
                .with_max_lag(1),
        )
        .with_max_events(MAX_EVENTS)
}

/// `fcfs_small`'s cluster with every tracked-request feature on.
fn tracked_faults(scale: Scale) -> ExperimentConfig {
    ExperimentConfig::new(mm_jobs().at_utilization(0.7, 16))
        .with_servers(16)
        .with_cores(1)
        .with_arrival_mode(ArrivalMode::LoadBalanced(JSQ))
        .with_faults(FaultProcess::exponential(50.0, 2.0).expect("positive means"))
        .with_retry(RetryPolicy::new(0.1))
        .with_resilience(
            ResilienceConfig::new()
                .with_admission(AdmissionPolicy::BoundedQueue { capacity: 64 })
                .with_hedge(0.02),
        )
        .with_metric_spec(
            MetricKind::ResponseTime,
            unit_lag(MetricKind::ResponseTime, scale.pick(0.00104, 0.02)),
        )
        .with_max_events(MAX_EVENTS)
}

/// `fig10_parallel`'s configuration. Web's C_v ≈ 3.4 service keeps the
/// runs test failing well past lag 4 on a 20 000-sample calibration, so
/// the cap of 4 is reached on the master and on both slaves.
fn parallel_2(scale: Scale) -> ExperimentConfig {
    ExperimentConfig::new(Workload::standard(StandardWorkload::Web).at_utilization(0.5, 4))
        .with_cores(4)
        .with_metric_spec(
            MetricKind::ResponseTime,
            MetricSpec::new(MetricKind::ResponseTime.name())
                .with_target_accuracy(scale.pick(0.0027, 0.05))
                .with_calibration(scale.pick(20_000, 2_000))
                .with_max_lag(4),
        )
        .with_max_events(MAX_EVENTS)
}
