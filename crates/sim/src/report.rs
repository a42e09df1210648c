//! Simulation output reports.

use serde::{Deserialize, Serialize};

use bighouse_stats::MetricEstimate;
use bighouse_telemetry::TelemetrySnapshot;

use crate::audit::AuditReport;
use crate::resilience::ResilienceSummary;

/// The report section that is allowed to differ between two runs of the
/// same seed: wall-clock timing and the telemetry snapshot (whose `wall`
/// map and phase wall-stamps are likewise non-deterministic).
///
/// Everything *outside* this section is a pure function of the
/// configuration and the seed, which is what lets CI compare reports
/// bit-for-bit after dropping `runtime` (or via
/// [`TelemetrySnapshot::without_wall_times`] for the telemetry part).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RuntimeStats {
    /// Wall-clock runtime of the run in seconds.
    #[serde(default)]
    pub wall_seconds: f64,
    /// Telemetry snapshot (`None` when telemetry is off). Deterministic
    /// except for its `wall` map and phase wall-stamps.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub telemetry: Option<TelemetrySnapshot>,
}

/// Exact bookkeeping of a fault-injected run: how every admitted request
/// was disposed of, and how much machine time was lost to failures.
///
/// Invariant: `goodput + timed_out + in_flight_at_end == admitted`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultSummary {
    /// Server failure events injected.
    pub server_failures: u64,
    /// Requests admitted to the cluster (excludes retries of the same
    /// request).
    pub admitted: u64,
    /// Requests that completed within their timeout budget.
    pub goodput: u64,
    /// Requests dropped after exhausting the retry budget.
    pub timed_out: u64,
    /// Retry dispatches performed (a request retried twice counts twice).
    pub retries: u64,
    /// Job executions preempted by a server failure (a request preempted
    /// on two servers counts twice).
    pub preempted_jobs: u64,
    /// Requests still queued or running when the run stopped.
    pub in_flight_at_end: u64,
    /// Mean over servers of the lifetime fraction of time spent failed.
    pub mean_failed_fraction: f64,
}

/// Cluster-level facts accumulated outside the statistics engine: ratios
/// and totals that are exact functions of the run rather than sampled
/// estimates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSummary {
    /// Number of servers simulated.
    pub servers: usize,
    /// Jobs completed across the cluster.
    pub jobs_completed: u64,
    /// Mean over servers of the fraction of time the entire server was
    /// idle (the Figure 6 y-axis).
    pub mean_full_idle_fraction: f64,
    /// Mean over servers of the fraction of time spent napping.
    pub mean_nap_fraction: f64,
    /// Mean over servers of lifetime utilization.
    pub mean_utilization: f64,
    /// Total energy consumed in joules (0 without a power model).
    pub total_energy_joules: f64,
    /// Cluster-average power in watts (0 without a power model).
    pub average_power_watts: f64,
    /// Fault/retry bookkeeping (`None` when fault injection is off).
    #[serde(default)]
    pub faults: Option<FaultSummary>,
    /// Overload-resilience bookkeeping — offered/shed/goodput disposition,
    /// hedging outcomes, SLO attainment (`None` when resilience is off).
    #[serde(default)]
    pub resilience: Option<ResilienceSummary>,
}

/// Why a simulation run stopped producing observations.
///
/// `converged` alone cannot distinguish "hit the event cap" from "the
/// operator pressed Ctrl+C" — but the two demand very different trust in
/// the reported confidence intervals. Interrupted runs carry honest but
/// *wider* CIs: the estimates are unbiased, there are simply fewer samples
/// behind them than the accuracy target asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TerminationReason {
    /// Every metric reached its accuracy/confidence target.
    Converged,
    /// The configured event cap (or epoch limit) was exhausted first.
    Deadline,
    /// A SIGINT/SIGTERM (or programmatic interrupt flag) wound the run
    /// down early; a final checkpoint and partial report were written.
    Interrupted,
    /// `--resume` found a checkpoint of an already-finished run and
    /// re-emitted its report without simulating further.
    Resumed,
    /// The runtime invariant auditor recorded a violation (conservation,
    /// energy accounting, a poisoned observation, an event storm, …); the
    /// run stopped with an honest partial report.
    AuditViolation,
    /// The progress circuit breaker detected a zero-advance livelock —
    /// events kept firing with no simulated-time progress — and stopped
    /// the run instead of hanging.
    Livelock,
}

impl TerminationReason {
    /// Classifies a finished run, for every runner. Audit violations
    /// dominate — a run must never claim convergence on corrupt accounting
    /// — with livelocks called out distinctly; then an interrupt, which
    /// the caller reports only if it cut the run short; and otherwise the
    /// convergence flag decides.
    pub(crate) fn classify(
        audit: Option<&AuditReport>,
        interrupted: bool,
        converged: bool,
    ) -> TerminationReason {
        match audit {
            Some(report) if !report.passed() => {
                if report.livelocked() {
                    TerminationReason::Livelock
                } else {
                    TerminationReason::AuditViolation
                }
            }
            _ if interrupted => TerminationReason::Interrupted,
            _ if converged => TerminationReason::Converged,
            _ => TerminationReason::Deadline,
        }
    }
}

impl std::fmt::Display for TerminationReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TerminationReason::Converged => write!(f, "converged"),
            TerminationReason::Deadline => write!(f, "deadline"),
            TerminationReason::Interrupted => write!(f, "interrupted"),
            TerminationReason::Resumed => write!(f, "resumed"),
            TerminationReason::AuditViolation => write!(f, "audit-violation"),
            TerminationReason::Livelock => write!(f, "livelock"),
        }
    }
}

/// `termination` default for reports serialized before the field existed:
/// `Deadline` is the conservative reading (never over-claims convergence).
fn legacy_termination() -> TerminationReason {
    TerminationReason::Deadline
}

/// The result of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationReport {
    /// Whether every metric reached its accuracy/confidence target (as
    /// opposed to hitting the event cap).
    pub converged: bool,
    /// Why the run stopped.
    #[serde(default = "legacy_termination")]
    pub termination: TerminationReason,
    /// Final estimates for each registered metric.
    pub estimates: Vec<MetricEstimate>,
    /// Total discrete events dispatched.
    pub events_fired: u64,
    /// Final simulated time in seconds.
    pub simulated_seconds: f64,
    /// Non-deterministic facts about the run (wall-clock timing,
    /// telemetry), quarantined so everything else stays bit-comparable
    /// across runs of the same seed. Defaulted so reports written before
    /// this section existed still parse (their top-level `wall_seconds` is
    /// ignored as an unknown field).
    #[serde(default)]
    pub runtime: RuntimeStats,
    /// Cluster-level summary facts.
    pub cluster: ClusterSummary,
    /// What the runtime invariant auditor found (`None` when paranoid
    /// mode is off; absent in reports written before auditing existed).
    #[serde(default)]
    pub audit: Option<AuditReport>,
}

impl SimulationReport {
    /// Looks up a metric estimate by name.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<&MetricEstimate> {
        self.estimates.iter().find(|e| e.name == name)
    }

    /// The estimate of quantile `q` for metric `name`, if tracked.
    #[must_use]
    pub fn quantile(&self, name: &str, q: f64) -> Option<f64> {
        self.metric(name)?
            .quantiles
            .iter()
            .find(|e| (e.q - q).abs() < 1e-12)
            .map(|e| e.value)
    }

    /// Simulated events per wall-clock second — the engine-throughput
    /// figure of merit behind Figure 7's runtime scaling.
    #[must_use]
    pub fn events_per_second(&self) -> f64 {
        if self.runtime.wall_seconds > 0.0 {
            self.events_fired as f64 / self.runtime.wall_seconds
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bighouse_stats::QuantileEstimate;

    fn report() -> SimulationReport {
        SimulationReport {
            converged: true,
            termination: TerminationReason::Converged,
            estimates: vec![MetricEstimate {
                name: "response_time".into(),
                mean: 0.1,
                std_dev: 0.05,
                mean_half_width: 0.004,
                relative_accuracy: 0.04,
                quantiles: vec![QuantileEstimate {
                    q: 0.95,
                    value: 0.2,
                    half_width_probability: 0.01,
                    half_width_value: Some(0.02),
                }],
                samples_kept: 1000,
                lag: 2,
                total_observed: 10_000,
            }],
            events_fired: 50_000,
            simulated_seconds: 1234.5,
            runtime: RuntimeStats {
                wall_seconds: 0.5,
                telemetry: None,
            },
            cluster: ClusterSummary {
                servers: 4,
                jobs_completed: 10_000,
                mean_full_idle_fraction: 0.3,
                mean_nap_fraction: 0.1,
                mean_utilization: 0.5,
                total_energy_joules: 100.0,
                average_power_watts: 80.0,
                faults: None,
                resilience: None,
            },
            audit: None,
        }
    }

    #[test]
    fn metric_lookup() {
        let r = report();
        assert!(r.metric("response_time").is_some());
        assert!(r.metric("nope").is_none());
        assert_eq!(r.quantile("response_time", 0.95), Some(0.2));
        assert_eq!(r.quantile("response_time", 0.99), None);
    }

    #[test]
    fn throughput_math() {
        let r = report();
        assert_eq!(r.events_per_second(), 100_000.0);
    }

    #[test]
    fn serde_round_trip() {
        let r = report();
        let json = serde_json::to_string(&r).unwrap();
        let back: SimulationReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn fault_summary_round_trips_and_defaults() {
        let mut r = report();
        r.cluster.faults = Some(FaultSummary {
            server_failures: 3,
            admitted: 100,
            goodput: 95,
            timed_out: 4,
            retries: 7,
            preempted_jobs: 5,
            in_flight_at_end: 1,
            mean_failed_fraction: 0.02,
        });
        let json = serde_json::to_string(&r).unwrap();
        let back: SimulationReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
        // Reports written before fault injection existed still parse.
        let legacy = serde_json::to_string(&report())
            .unwrap()
            .replace(",\"faults\":null", "");
        let back: SimulationReport = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.cluster.faults, None);
    }

    #[test]
    fn resilience_summary_round_trips_and_defaults() {
        use crate::resilience::ClassDisposition;
        let mut r = report();
        r.cluster.resilience = Some(ResilienceSummary {
            offered: 120,
            admitted: 100,
            shed: 20,
            goodput: 96,
            timed_out: 3,
            in_flight_at_end: 1,
            hedges_launched: 10,
            hedge_wins: 4,
            hedge_cancelled: 9,
            slo_met: 90,
            per_class: vec![
                ClassDisposition {
                    offered: 80,
                    shed: 5,
                    goodput: 70,
                    slo_met: 65,
                },
                ClassDisposition {
                    offered: 40,
                    shed: 15,
                    goodput: 26,
                    slo_met: 25,
                },
            ],
        });
        let json = serde_json::to_string(&r).unwrap();
        let back: SimulationReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
        // Reports written before the resilience subsystem existed still
        // parse.
        let legacy = serde_json::to_string(&report())
            .unwrap()
            .replace(",\"resilience\":null", "");
        assert!(
            !legacy.contains("resilience"),
            "field must be stripped for the test"
        );
        let back: SimulationReport = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.cluster.resilience, None);
    }

    #[test]
    fn termination_reason_round_trips_and_defaults() {
        let mut r = report();
        r.termination = TerminationReason::Interrupted;
        let json = serde_json::to_string(&r).unwrap();
        let back: SimulationReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.termination, TerminationReason::Interrupted);
        // Reports written before the field existed parse as Deadline —
        // the reading that never over-claims convergence.
        let legacy = serde_json::to_string(&report())
            .unwrap()
            .replace("\"termination\":\"Converged\",", "");
        assert!(
            !legacy.contains("termination"),
            "field must be stripped for the test"
        );
        let back: SimulationReport = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.termination, TerminationReason::Deadline);
    }

    #[test]
    fn termination_reason_displays() {
        assert_eq!(TerminationReason::Converged.to_string(), "converged");
        assert_eq!(TerminationReason::Deadline.to_string(), "deadline");
        assert_eq!(TerminationReason::Interrupted.to_string(), "interrupted");
        assert_eq!(TerminationReason::Resumed.to_string(), "resumed");
        assert_eq!(
            TerminationReason::AuditViolation.to_string(),
            "audit-violation"
        );
        assert_eq!(TerminationReason::Livelock.to_string(), "livelock");
    }

    #[test]
    fn classification_precedence() {
        use crate::audit::AuditViolation;
        use TerminationReason as T;
        let with = |violations| AuditReport {
            enabled: true,
            violations,
            ..AuditReport::default()
        };
        let clean = with(vec![]);
        let broken = with(vec![AuditViolation::CompletionMismatch {
            server_completed: 10,
            observed: 9,
        }]);
        let stuck = with(vec![AuditViolation::Livelock { events: 100_000 }]);
        // (audit, interrupted, converged) → reason: each input outranks
        // every one to its right.
        let table = [
            (Some(&stuck), true, true, T::Livelock),
            (Some(&stuck), false, false, T::Livelock),
            (Some(&broken), true, true, T::AuditViolation),
            (Some(&broken), false, true, T::AuditViolation),
            (Some(&clean), true, true, T::Interrupted),
            (None, true, true, T::Interrupted),
            (None, true, false, T::Interrupted),
            (Some(&clean), false, true, T::Converged),
            (None, false, true, T::Converged),
            (Some(&clean), false, false, T::Deadline),
            (None, false, false, T::Deadline),
        ];
        for (audit, interrupted, converged, expected) in table {
            assert_eq!(
                T::classify(audit, interrupted, converged),
                expected,
                "audit {audit:?}, interrupted {interrupted}, converged {converged}"
            );
        }
    }

    #[test]
    fn audit_report_round_trips_and_defaults() {
        use crate::audit::AuditViolation;
        let mut r = report();
        r.converged = false;
        r.termination = TerminationReason::AuditViolation;
        r.audit = Some(AuditReport {
            enabled: true,
            checks_run: 12,
            observations_checked: 900,
            violations: vec![AuditViolation::CompletionMismatch {
                server_completed: 10,
                observed: 9,
            }],
            warnings: Vec::new(),
        });
        let json = serde_json::to_string(&r).unwrap();
        let back: SimulationReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
        // Reports written before the auditor existed still parse.
        let legacy = serde_json::to_string(&report())
            .unwrap()
            .replace(",\"audit\":null", "");
        assert!(
            !legacy.contains("audit"),
            "field must be stripped for the test"
        );
        let back: SimulationReport = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.audit, None);
    }

    #[test]
    fn runtime_section_round_trips_and_legacy_reports_parse() {
        let mut r = report();
        r.runtime.telemetry = Some(TelemetrySnapshot::default());
        let json = serde_json::to_string(&r).unwrap();
        let back: SimulationReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
        // Reports written before the runtime section existed carried a
        // top-level wall_seconds; they still parse (the unknown field is
        // ignored, wall time defaults to zero).
        let legacy = serde_json::to_string(&report()).unwrap().replace(
            "\"runtime\":{\"wall_seconds\":0.5},",
            "\"wall_seconds\":0.5,",
        );
        assert!(
            !legacy.contains("runtime"),
            "section must be stripped for the test"
        );
        let back: SimulationReport = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.runtime.wall_seconds, 0.0);
        assert_eq!(back.runtime.telemetry, None);
        assert_eq!(back.estimates, report().estimates);
    }

    #[test]
    fn telemetry_section_is_omitted_when_absent() {
        let json = serde_json::to_string(&report()).unwrap();
        assert!(!json.contains("telemetry"));
    }
}
