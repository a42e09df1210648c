//! BigHouse simulation orchestration.
//!
//! This crate assembles the substrates — the discrete-event engine, the
//! statistics package, workloads, and the data-center object model — into
//! runnable experiments:
//!
//! - [`ExperimentConfig`] describes a simulated cluster, its workload, and
//!   the output metrics (with accuracy/confidence targets) to observe.
//!   The metrics are one table, [`MetricKind`] (name, pace, default
//!   targets, prerequisite), and each is sampled until
//!   [`bighouse_stats::MetricSpec::satisfied_by`] — paper Eqs. 2–3 with a
//!   30-sample floor — holds of its kept sample or, in a parallel run, of
//!   the slaves' merged one,
//! - [`run_serial`] executes the Figure 2 phase sequence on one thread and
//!   terminates at convergence,
//! - [`ParallelRunner`] executes the Figure 3 master/slave protocol across
//!   threads: each slave simulates with a unique seed, and the master
//!   monitors aggregate sample size, merges slave histograms, and reports.
//!   Slave panics are contained, and an interrupt flag winds a run down
//!   with partial estimates.
//! - Fault injection ([`ExperimentConfig::with_faults`]) subjects servers
//!   to failure/repair processes; [`ExperimentConfig::with_retry`] adds
//!   client-side request timeouts with capped-exponential-backoff retries.
//!   Exact accounting lands in [`FaultSummary`].
//! - Overload resilience ([`ExperimentConfig::with_resilience`]) composes
//!   admission control, priority-class load shedding, hedged requests, and
//!   deterministic overload ramps per cluster — enough to reproduce
//!   metastable retry storms and show admission control restoring goodput.
//!   Exact request disposition lands in [`ResilienceSummary`].
//! - [`run_resumable`] executes the same statistics epoch-structured, so
//!   the run can checkpoint itself ([`CheckpointConfig`]), survive a kill
//!   (`--resume` restores bit-identical estimates), and wind down
//!   gracefully on SIGINT/SIGTERM. [`ParallelRunner`] doubles as a
//!   supervisor: crashed slaves are resurrected from in-memory epoch
//!   checkpoints before the runner falls back to dropping them.
//! - Paranoid mode ([`ExperimentConfig::with_audit`]) threads a runtime
//!   invariant auditor through the hot loop: conservation and energy
//!   accounting are swept on an event cadence, every observation is vetted
//!   before it can poison an estimator, and livelocks/event storms are
//!   broken with an honest partial report ([`AuditReport`]) instead of a
//!   hang. With auditing off the estimates are bit-identical.
//! - [`ClusterSim`] is a G/G/k FCFS core plus optional components (request
//!   tracking, epochs, downstream tiers, the auditor) installed as the
//!   configuration needs them. It is the one cluster simulation: a
//!   multi-tier pipeline is an [`ExperimentConfig::with_tier`] config run
//!   like any other, and [`replay_trace`] runs it with a [`Trace`] as the
//!   arrival-and-size source. With no component installed and at most
//!   32 pending events, the runners hold those in
//!   fixed slots instead of the event calendar (there is nothing to
//!   set). The
//!   handlers are the same over either store and both pop in the same
//!   order, so every estimate is bit-identical.
//! - [`run_sweep`] orchestrates whole experiment *grids* across a
//!   thread pool fed from one shared cursor: per-config panic isolation
//!   and deadlines, bounded retry with quarantine of poison configs,
//!   deterministic per-config seeds, and a crash-resumable
//!   completed-config ledger aggregated into one [`SweepReport`].
//!
//! # Examples
//!
//! Estimate the 95th-percentile response time of a Web server at 50% load:
//!
//! ```
//! use bighouse_sim::{ExperimentConfig, MetricKind, run_serial};
//! use bighouse_workloads::{StandardWorkload, Workload};
//!
//! let config = ExperimentConfig::new(Workload::standard(StandardWorkload::Web))
//!     .with_utilization(0.5)
//!     .with_target_accuracy(0.10); // coarse target: fast doc-test
//! let report = run_serial(&config, 42).unwrap();
//! let response = report.metric(MetricKind::ResponseTime.name()).unwrap();
//! assert!(response.mean > 0.0);
//! assert!(report.converged);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod audit;
mod checkpoint;
mod cluster;
mod config;
mod error;
mod fastpath;
mod parallel;
mod pending;
mod procslave;
mod report;
mod resilience;
mod runner;
mod sweep;
mod telemetry;
mod trace;

pub use audit::{AuditConfig, AuditReport, AuditViolation, AuditWarning};
pub use checkpoint::CheckpointConfig;
pub use cluster::ClusterSim;
pub use config::{ArrivalMode, ExperimentConfig, MetricKind, TierConfig};
pub use error::SimError;
#[doc(hidden)]
pub use parallel::ProcChaos;
pub use parallel::{ExecBackend, ParallelOutcome, ParallelRunner};
pub use procslave::{slave_main, ProcLimits, ProcSlaveConfig};
pub use report::{ClusterSummary, FaultSummary, RuntimeStats, SimulationReport, TerminationReason};
pub use resilience::{
    AdmissionPolicy, ClassDisposition, HedgePolicy, OverloadRamp, ResilienceConfig,
    ResilienceSummary, SheddingPolicy,
};
pub use runner::{run_resumable, run_serial, RunOptions};
#[doc(hidden)]
pub use sweep::SweepFaultInjection;
pub use sweep::{
    config_seed, run_sweep, ConfigOutcome, QuarantinedConfig, SweepEntry, SweepError, SweepEvent,
    SweepOptions, SweepReport, SweepRuntime,
};
pub use trace::{replay_trace, Trace, TraceEntry, TraceError, TraceReplayReport};
