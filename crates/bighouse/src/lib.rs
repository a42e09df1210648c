//! # BigHouse
//!
//! A simulation infrastructure for data center systems — a from-scratch
//! Rust reproduction of Meisner, Wu & Wenisch, *BigHouse: A simulation
//! infrastructure for data center systems*, ISPASS 2012.
//!
//! Instead of simulating servers with detailed microarchitectural models,
//! BigHouse raises the level of abstraction: a data center is a network of
//! queues driven by **empirically measured distributions** of task
//! inter-arrival and service times, coupled to power/performance models.
//! A distributed discrete-event simulation samples output metrics (mean and
//! quantile response time, power, capping level, …) and terminates at the
//! minimum runtime that achieves a user-specified accuracy and confidence —
//! minutes instead of hours.
//!
//! ## Crate map
//!
//! | module | contents |
//! |--------|----------|
//! | [`des`] | discrete-event engine: time, cancellable calendar, RNG streams |
//! | [`stats`] | histograms, runs-up test, phases, CLT convergence |
//! | [`dists`] | analytic + empirical distributions, moment fitters |
//! | [`workloads`] | the five Table 1 workloads, load scaling, file I/O |
//! | [`models`] | servers, sleep states, DreamWeaver, DVFS, power capping |
//! | [`faults`] | failure/repair processes, request timeout + retry policies |
//! | [`sim`] | experiments, serial runner, master/slave parallel runner |
//! | [`analytic`] | closed-form M/M/1, M/M/k, M/G/1, Erlang B/C baselines |
//! | [`telemetry`] | counters, gauges, fixed-bin histograms, run snapshots |
//!
//! ## Quickstart
//!
//! Estimate mean and 95th-percentile response time of a departmental web
//! server at 30% load, to ±5% at 95% confidence:
//!
//! ```
//! use bighouse::prelude::*;
//!
//! let config = ExperimentConfig::new(Workload::standard(StandardWorkload::Web))
//!     .with_cores(4)
//!     .with_utilization(0.3)
//!     .with_target_accuracy(0.1); // keep the doc test quick
//! let report = run_serial(&config, 1).unwrap();
//! assert!(report.converged);
//! let response = report.metric("response_time").unwrap();
//! println!(
//!     "mean {:.1} ms, p95 {:.1} ms (±{:.1}%)",
//!     response.mean * 1e3,
//!     report.quantile("response_time", 0.95).unwrap() * 1e3,
//!     response.relative_accuracy * 1e2,
//! );
//! ```

#![warn(missing_docs)]

pub use bighouse_analytic as analytic;
pub use bighouse_des as des;
pub use bighouse_dists as dists;
pub use bighouse_faults as faults;
pub use bighouse_models as models;
pub use bighouse_sim as sim;
pub use bighouse_stats as stats;
pub use bighouse_telemetry as telemetry;
pub use bighouse_workloads as workloads;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use bighouse_analytic::{erlang_b, erlang_c};
    pub use bighouse_des::{Calendar, Control, Engine, SeedStream, SimRng, Simulation, Time};
    pub use bighouse_dists::{
        fit::fit_mean_cv, fit::fit_mean_sigma, Deterministic, Distribution, DynDistribution,
        Empirical, Erlang, Exponential, Gamma, HyperExponential, LogNormal, Mixture, Pareto,
        Scaled, Shifted, Uniform, Weibull,
    };
    pub use bighouse_faults::{FaultProcess, RetryPolicy};
    pub use bighouse_models::{
        BalancerPolicy, CappingOutcome, DvfsModel, FinishedJob, IdlePolicy, Job, JobId,
        LinearPowerModel, LoadBalancer, PowerCapper, Server, SleepState,
    };
    pub use bighouse_sim::{
        config_seed, run_resumable, run_serial, run_sweep, run_until_calibrated, AdmissionPolicy,
        ArrivalMode, AuditConfig, AuditReport, AuditViolation, AuditWarning, CheckpointConfig,
        ClassDisposition, ClusterSim, ConfigOutcome, ExecBackend, ExperimentConfig, FaultSummary,
        HedgePolicy, MetricKind, OverloadRamp, ParallelOutcome, ParallelRunner, ProcLimits,
        ProcSlaveConfig, QuarantinedConfig, ResilienceConfig, ResilienceSummary, RunOptions,
        RuntimeStats, SheddingPolicy, SimError, SimulationReport, SweepEntry, SweepError,
        SweepEvent, SweepEventHook, SweepOptions, SweepReport, SweepRuntime, TerminationReason,
    };
    pub use bighouse_stats::{
        Histogram, HistogramSpec, MetricEstimate, MetricSpec, OutputMetric, Phase, RunningStats,
        RunsUpTest, StatsCollection,
    };
    pub use bighouse_telemetry::{FixedBinHistogram, MemoryRecorder, TelemetrySnapshot};
    pub use bighouse_workloads::{StandardWorkload, TaskMoments, Workload};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_links_all_crates() {
        use crate::prelude::*;
        let _ = Time::ZERO;
        let _ = MetricSpec::new("x");
        let _ = StandardWorkload::ALL;
        let _ = IdlePolicy::AlwaysOn;
        let _ = Exponential::new(1.0).unwrap();
    }
}
