//! Runtime invariant auditing — "paranoid mode".
//!
//! A long simulation can go wrong in ways that neither panic nor fail a
//! test: a lost completion quietly deflates the sample pool, a NaN poisons
//! a running mean, an event feedback loop spins forever at one timestamp.
//! The auditor rides along the hot loop behind one cheap branch and checks,
//! every [`AuditConfig::check_interval_events`] events:
//!
//! - **Conservation** — every injected job is accounted for: completed on
//!   some server or still in the system (and, under fault injection, the
//!   request ledger `goodput + timed_out + in_flight == admitted`), plus a
//!   cross-check of the auditor's own completion count against the servers'
//!   `completed_jobs` truth, which catches dropped completions that leave
//!   the ledger itself balanced.
//! - **Energy/residency** — per-server integrated energy never decreases,
//!   never exceeds `peak_watts × simulated time`, and idle/nap/utilization/
//!   failed residency fractions stay in `[0, 1]` with `nap ≤ idle`.
//! - **Little's law** (non-fault runs) — the time-averaged number in
//!   system is compared against `λ·W` at finalization; a mismatch beyond
//!   tolerance is reported as a *warning*, not a violation, because both
//!   sides are estimates.
//!
//! Every observation entering the statistics engine is additionally checked
//! finite and non-negative *before* it can poison an estimator. Progress
//! pathologies (livelock, event storm, time regression) are detected by a
//! [`ProgressGuard`] the runners thread through the one event loop
//! ([`bighouse_des::drive`]); each epoch records a trip in the same
//! [`AuditReport`].
//!
//! The auditor is **purely observational**: it consumes no randomness and
//! never reorders events, so a run with auditing on produces bit-identical
//! estimates to the same seed with auditing off (it can only end *earlier*,
//! on a violation).

use bighouse_des::{ProgressGuard, ProgressViolation, Time};
use bighouse_models::Server;

/// Tuning knobs for the runtime invariant auditor.
///
/// The defaults are deliberately loose: they flag only genuine accounting
/// or progress bugs, never a healthy-but-extreme workload.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditConfig {
    /// Events between invariant sweeps (conservation, energy, residency,
    /// Little's-law sampling). Observation tripwires run on every single
    /// observation regardless.
    pub check_interval_events: u64,
    /// Consecutive same-timestamp events tolerated before the livelock
    /// breaker trips.
    pub stall_limit_events: u64,
    /// Event-rate budget in events per simulated second; exceeding it over
    /// a full window trips the event-storm breaker.
    pub storm_budget_events_per_sim_second: f64,
    /// Window, in events, over which the storm budget is evaluated.
    pub storm_window_events: u64,
}

// Each threshold a file leaves out reads as its default, so
// `"audit": {}` is `AuditConfig::default()`.
bighouse_json::json_struct!(AuditConfig {
    check_interval_events = Self::DEFAULT_CHECK_INTERVAL,
    stall_limit_events = ProgressGuard::DEFAULT_STALL_LIMIT,
    storm_budget_events_per_sim_second = ProgressGuard::DEFAULT_STORM_BUDGET,
    storm_window_events = ProgressGuard::DEFAULT_STORM_WINDOW,
});

/// Relative tolerance of the Little's-law probe (`|L − λW| / λW`). Both
/// sides of `L = λW` are sampled estimates, so the probe is a sanity band,
/// not an equality.
const LITTLES_LAW_TOLERANCE: f64 = 0.25;

/// Relative slack on the energy upper bound (`peak × elapsed`).
const ENERGY_TOLERANCE: f64 = 1e-6;

impl AuditConfig {
    /// Default events between invariant sweeps.
    pub(crate) const DEFAULT_CHECK_INTERVAL: u64 = 4_096;

    /// Builds the [`ProgressGuard`] configured by this audit.
    #[must_use]
    pub(crate) fn progress_guard(&self) -> ProgressGuard {
        ProgressGuard::new()
            .with_stall_limit(self.stall_limit_events)
            .with_storm_budget(
                self.storm_budget_events_per_sim_second,
                self.storm_window_events,
            )
    }

    fn check_interval(&self) -> u64 {
        self.check_interval_events.max(1)
    }
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            check_interval_events: Self::DEFAULT_CHECK_INTERVAL,
            stall_limit_events: ProgressGuard::DEFAULT_STALL_LIMIT,
            storm_budget_events_per_sim_second: ProgressGuard::DEFAULT_STORM_BUDGET,
            storm_window_events: ProgressGuard::DEFAULT_STORM_WINDOW,
        }
    }
}

/// One invariant the auditor found broken. Violations are hard failures:
/// the run stops and reports instead of converging on corrupt data.
///
/// Floating-point payloads are carried as text so they keep their exact
/// bits, NaN payloads included — precisely the values the tripwires exist
/// to catch — which the codec's `"NaN"` does not preserve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditViolation {
    /// The tracked-request ledger failed to balance:
    /// `goodput + timed_out + in_flight` must equal `admitted`.
    RequestLedger {
        /// Requests admitted to the cluster.
        admitted: u64,
        /// Requests that completed within their timeout budget.
        goodput: u64,
        /// Requests dropped after exhausting retries.
        timed_out: u64,
        /// Requests still tracked in flight.
        in_flight: u64,
    },
    /// The shed ledger failed to balance: every offered arrival must be
    /// either admitted or shed (`admitted + shed == offered`).
    ShedConservation {
        /// Arrivals offered to the cluster.
        offered: u64,
        /// Arrivals admitted past admission control and shedding.
        admitted: u64,
        /// Arrivals shed at the front door.
        shed: u64,
    },
    /// Job conservation failed: every injected job must be completed on
    /// some server or still in the system.
    JobConservation {
        /// Jobs injected so far, counting a job once per tier it entered.
        injected: u64,
        /// Jobs completed across all servers.
        completed: u64,
        /// Jobs queued or running across all servers.
        in_system: u64,
    },
    /// The servers' completed-job count disagrees with the number of
    /// completions the simulation actually processed — a completion was
    /// dropped (or double-delivered) between a server and the statistics.
    CompletionMismatch {
        /// Completions according to the servers.
        server_completed: u64,
        /// Completions the simulation processed.
        observed: u64,
    },
    /// A NaN or infinite value was about to enter a metric.
    NonFiniteObservation {
        /// The metric that would have been poisoned.
        metric: String,
        /// The offending value, rendered as text.
        value: String,
    },
    /// A negative value was about to enter a metric that must be
    /// non-negative (times, watts, levels).
    NegativeObservation {
        /// The metric that would have been poisoned.
        metric: String,
        /// The offending value, rendered as text.
        value: String,
    },
    /// A server's integrated energy decreased between sweeps.
    EnergyRegression {
        /// The server whose energy ran backwards.
        server: usize,
        /// Energy at the previous sweep (joules), rendered as text.
        from_joules: String,
        /// Energy at this sweep (joules), rendered as text.
        to_joules: String,
    },
    /// A server's integrated energy exceeds what running at peak power for
    /// the whole simulated time could produce.
    EnergyBudget {
        /// The server over budget.
        server: usize,
        /// Integrated energy (joules), rendered as text.
        joules: String,
        /// The physical bound (joules), rendered as text.
        bound_joules: String,
    },
    /// A server's residency accounting produced a fraction outside `[0, 1]`
    /// (or napping exceeded total idleness).
    ResidencyFraction {
        /// The server with inconsistent residency accounting.
        server: usize,
        /// Which fraction broke ("idle", "nap", "utilization", "failed",
        /// "nap>idle").
        fraction: String,
        /// The offending value, rendered as text.
        value: String,
    },
    /// Zero-advance livelock: events kept firing with no simulated-time
    /// progress.
    Livelock {
        /// Consecutive events dispatched at one identical timestamp.
        events: u64,
    },
    /// The event rate exceeded the configured budget.
    EventStorm {
        /// Events dispatched in the measurement window.
        events: u64,
        /// Simulated seconds covered by that window, rendered as text.
        window_seconds: String,
    },
    /// The calendar dispatched an event earlier than one already handled.
    TimeRegression {
        /// Timestamp of the previously handled event, rendered as text.
        from_seconds: String,
        /// Timestamp of the out-of-order event, rendered as text.
        to_seconds: String,
    },
}

bighouse_json::json_enum!(AuditViolation {
    RequestLedger { admitted, goodput, timed_out, in_flight },
    ShedConservation { offered, admitted, shed },
    JobConservation { injected, completed, in_system },
    CompletionMismatch { server_completed, observed },
    NonFiniteObservation { metric, value },
    NegativeObservation { metric, value },
    EnergyRegression { server, from_joules, to_joules },
    EnergyBudget { server, joules, bound_joules },
    ResidencyFraction { server, fraction, value },
    Livelock { events },
    EventStorm { events, window_seconds },
    TimeRegression { from_seconds, to_seconds },
});

impl std::fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditViolation::RequestLedger {
                admitted,
                goodput,
                timed_out,
                in_flight,
            } => write!(
                f,
                "request ledger out of balance: goodput {goodput} + timed-out {timed_out} \
                 + in-flight {in_flight} != admitted {admitted}"
            ),
            AuditViolation::ShedConservation {
                offered,
                admitted,
                shed,
            } => write!(
                f,
                "shed ledger out of balance: admitted {admitted} + shed {shed} \
                 != offered {offered}"
            ),
            AuditViolation::JobConservation {
                injected,
                completed,
                in_system,
            } => write!(
                f,
                "job conservation broken: completed {completed} + in-system {in_system} \
                 != injected {injected}"
            ),
            AuditViolation::CompletionMismatch {
                server_completed,
                observed,
            } => write!(
                f,
                "completion mismatch: servers report {server_completed} completions \
                 but the simulation processed {observed}"
            ),
            AuditViolation::NonFiniteObservation { metric, value } => {
                write!(f, "non-finite observation {value} for metric '{metric}'")
            }
            AuditViolation::NegativeObservation { metric, value } => {
                write!(f, "negative observation {value} for metric '{metric}'")
            }
            AuditViolation::EnergyRegression {
                server,
                from_joules,
                to_joules,
            } => write!(
                f,
                "server {server} energy regressed from {from_joules} J to {to_joules} J"
            ),
            AuditViolation::EnergyBudget {
                server,
                joules,
                bound_joules,
            } => write!(
                f,
                "server {server} energy {joules} J exceeds the peak-power bound {bound_joules} J"
            ),
            AuditViolation::ResidencyFraction {
                server,
                fraction,
                value,
            } => write!(
                f,
                "server {server} residency fraction '{fraction}' out of range: {value}"
            ),
            AuditViolation::Livelock { events } => {
                write!(
                    f,
                    "livelock: {events} events with no simulated-time progress"
                )
            }
            AuditViolation::EventStorm {
                events,
                window_seconds,
            } => write!(
                f,
                "event storm: {events} events advanced simulated time by only {window_seconds} s"
            ),
            AuditViolation::TimeRegression {
                from_seconds,
                to_seconds,
            } => write!(
                f,
                "time regression: event at {to_seconds} s dispatched after {from_seconds} s"
            ),
        }
    }
}

impl From<ProgressViolation> for AuditViolation {
    fn from(v: ProgressViolation) -> Self {
        match v {
            ProgressViolation::ZeroAdvance { events } => AuditViolation::Livelock { events },
            ProgressViolation::EventStorm {
                events,
                window_seconds,
            } => AuditViolation::EventStorm {
                events,
                window_seconds: format!("{window_seconds:.3e}"),
            },
            ProgressViolation::TimeRegression {
                from_seconds,
                to_seconds,
            } => AuditViolation::TimeRegression {
                from_seconds: format!("{from_seconds:.9}"),
                to_seconds: format!("{to_seconds:.9}"),
            },
        }
    }
}

/// A soft finding: suspicious but legitimately possible, so it never fails
/// the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditWarning {
    /// The Little's-law probe `L ≈ λW` missed its tolerance band.
    LittlesLaw {
        /// Time-averaged number of jobs in the system, rendered as text.
        mean_in_system: String,
        /// Arrival rate λ in jobs per simulated second, rendered as text.
        arrival_rate: String,
        /// Mean response time W in seconds, rendered as text.
        mean_response: String,
        /// `|L − λW| / λW`, rendered as text.
        relative_error: String,
    },
}

bighouse_json::json_enum!(AuditWarning {
    LittlesLaw { mean_in_system, arrival_rate, mean_response, relative_error },
});

impl std::fmt::Display for AuditWarning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditWarning::LittlesLaw {
                mean_in_system,
                arrival_rate,
                mean_response,
                relative_error,
            } => write!(
                f,
                "Little's law probe: L = {mean_in_system} vs λW = {arrival_rate} × \
                 {mean_response} (relative error {relative_error})"
            ),
        }
    }
}

/// Everything the auditor found, threaded through [`crate::SimulationReport`]
/// (and merged across epochs, resumes, and parallel slaves).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditReport {
    /// Whether auditing was enabled for (any part of) the run.
    pub enabled: bool,
    /// Invariant sweeps performed.
    pub checks_run: u64,
    /// Individual observations vetted by the numerical tripwires.
    pub observations_checked: u64,
    /// Hard invariant violations (empty on a clean run).
    pub violations: Vec<AuditViolation>,
    /// Soft findings (the run still counts as passed).
    pub warnings: Vec<AuditWarning>,
}

bighouse_json::json_struct!(AuditReport {
    enabled,
    checks_run,
    observations_checked,
    violations,
    warnings,
});

impl AuditReport {
    /// Whether the audited run is clean: no violations (warnings are
    /// allowed).
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Whether any violation is a zero-advance livelock (drives the
    /// [`crate::TerminationReason::Livelock`] classification).
    #[must_use]
    pub(crate) fn livelocked(&self) -> bool {
        self.violations
            .iter()
            .any(|v| matches!(v, AuditViolation::Livelock { .. }))
    }

    /// Folds another report (a later epoch, a parallel slave) into this
    /// one.
    pub fn merge(&mut self, other: &AuditReport) {
        self.enabled |= other.enabled;
        self.checks_run += other.checks_run;
        self.observations_checked += other.observations_checked;
        self.violations.extend(other.violations.iter().cloned());
        self.warnings.extend(other.warnings.iter().cloned());
    }
}

/// Test hook: a deliberately seeded accounting bug, used by the mutation
/// suite to prove the auditor actually catches what it claims to.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SeededBug {
    /// Silently drop the first completion before it reaches the statistics
    /// and the request ledger.
    DropCompletion,
    /// Replace the first response-time observation with NaN.
    NanObservation,
    /// Schedule a same-timestamp event from every handler: a zero-advance
    /// livelock.
    Livelock,
    /// Retire a hedged request twice: when its primary completes first,
    /// count goodput but leave the request tracked so the hedge completion
    /// retires it again. The request ledger must catch the double credit.
    DoubleHedgeCompletion,
}

/// The cluster-side ledger snapshot handed to each invariant sweep.
#[derive(Default)]
pub(crate) struct AuditLedger {
    /// Whether per-request tracking is on (faults, retries, or resilience):
    /// the request ledger replaces raw job conservation then.
    pub tracked: bool,
    /// Whether the resilience subsystem is on (enables the shed ledger).
    pub resilience: bool,
    /// External arrivals: the Little's-law probe's λ.
    pub injected: u64,
    /// Jobs a downstream tier took over from the one before it: each is
    /// one more visit for job conservation, not one more arrival.
    pub forwarded: u64,
    pub offered: u64,
    pub admitted: u64,
    pub shed: u64,
    pub goodput: u64,
    pub timed_out: u64,
    pub in_flight: u64,
}

impl AuditLedger {
    /// A cluster that tracks no requests: raw job conservation applies.
    pub(crate) fn untracked(injected: u64) -> Self {
        AuditLedger {
            injected,
            ..AuditLedger::default()
        }
    }
}

/// The in-simulation auditor state. Owned by `ClusterSim` when auditing is
/// on; absent (one null check per event) when off.
#[derive(Debug, Clone)]
pub(crate) struct Auditor {
    config: AuditConfig,
    report: AuditReport,
    /// Events since the last sweep.
    events_since_sweep: u64,
    /// Completions the simulation processed (the auditor's own count,
    /// cross-checked against server truth).
    completions_seen: u64,
    /// Per-server energy at the previous sweep, for monotonicity.
    prev_energy: Vec<f64>,
    /// `peak_watts` bound for the energy budget (None without a power
    /// model — energy is identically zero then).
    peak_watts: Option<f64>,
    /// Little's-law probe: time-weighted integral of jobs in system.
    littles_integral: f64,
    littles_start: Option<f64>,
    littles_last: f64,
}

impl Auditor {
    pub(crate) fn new(config: AuditConfig, servers: usize, peak_watts: Option<f64>) -> Self {
        Auditor {
            config,
            report: AuditReport {
                enabled: true,
                ..AuditReport::default()
            },
            events_since_sweep: 0,
            completions_seen: 0,
            prev_energy: vec![0.0; servers],
            peak_watts,
            littles_integral: 0.0,
            littles_start: None,
            littles_last: 0.0,
        }
    }

    /// Whether a violation has been recorded (the run should stop).
    pub(crate) fn failed(&self) -> bool {
        !self.report.violations.is_empty()
    }

    pub(crate) fn note_completion(&mut self) {
        self.completions_seen += 1;
    }

    /// Vets one observation before it enters the statistics. Returns
    /// `false` (and records a violation) if the value must not be
    /// recorded.
    pub(crate) fn check_observation(&mut self, metric: &str, x: f64) -> bool {
        self.report.observations_checked += 1;
        if !x.is_finite() {
            self.report
                .violations
                .push(AuditViolation::NonFiniteObservation {
                    metric: metric.to_owned(),
                    value: format!("{x}"),
                });
            return false;
        }
        if x < 0.0 {
            self.report
                .violations
                .push(AuditViolation::NegativeObservation {
                    metric: metric.to_owned(),
                    value: format!("{x}"),
                });
            return false;
        }
        true
    }

    pub(crate) fn record_progress_violation(&mut self, v: ProgressViolation) {
        self.report.violations.push(v.into());
    }

    /// Counts one handled event; returns `true` when an invariant sweep is
    /// due. Kept trivially inlineable: this is the only per-event cost.
    #[inline]
    pub(crate) fn event_due(&mut self) -> bool {
        self.events_since_sweep += 1;
        if self.events_since_sweep >= self.config.check_interval() {
            self.events_since_sweep = 0;
            true
        } else {
            false
        }
    }

    /// One invariant sweep. Conservation sums are invariant under the
    /// servers' lazy synchronization (a job moves between the `outstanding`
    /// and `completed` buckets at sync, but their sum does not change), so
    /// sweeps are valid at any event boundary and never force a sync —
    /// forcing one would reorder statistics and break bit-identity with
    /// unaudited runs.
    pub(crate) fn sweep(&mut self, now: Time, servers: &[Server], ledger: &AuditLedger) {
        self.report.checks_run += 1;
        let completed: u64 = servers.iter().map(Server::completed_jobs).sum();
        let in_system: u64 = servers.iter().map(|s| s.outstanding() as u64).sum();

        if ledger.tracked {
            if ledger.goodput + ledger.timed_out + ledger.in_flight != ledger.admitted {
                self.report.violations.push(AuditViolation::RequestLedger {
                    admitted: ledger.admitted,
                    goodput: ledger.goodput,
                    timed_out: ledger.timed_out,
                    in_flight: ledger.in_flight,
                });
            }
            if ledger.resilience && ledger.admitted + ledger.shed != ledger.offered {
                self.report
                    .violations
                    .push(AuditViolation::ShedConservation {
                        offered: ledger.offered,
                        admitted: ledger.admitted,
                        shed: ledger.shed,
                    });
            }
        } else if completed + in_system != ledger.injected + ledger.forwarded {
            self.report
                .violations
                .push(AuditViolation::JobConservation {
                    injected: ledger.injected + ledger.forwarded,
                    completed,
                    in_system,
                });
        }
        if completed != self.completions_seen {
            self.report
                .violations
                .push(AuditViolation::CompletionMismatch {
                    server_completed: completed,
                    observed: self.completions_seen,
                });
        }

        self.check_energy(now, servers);
        self.sample_littles(now, ledger, in_system);
    }

    fn check_energy(&mut self, now: Time, servers: &[Server]) {
        let seconds = now.as_seconds();
        for (s, server) in servers.iter().enumerate() {
            let energy = server.energy_joules();
            if energy < self.prev_energy[s] - 1e-9 {
                self.report
                    .violations
                    .push(AuditViolation::EnergyRegression {
                        server: s,
                        from_joules: format!("{:.6}", self.prev_energy[s]),
                        to_joules: format!("{energy:.6}"),
                    });
            }
            self.prev_energy[s] = energy;
            if let Some(peak) = self.peak_watts {
                let bound = peak * seconds * (1.0 + ENERGY_TOLERANCE) + 1e-6;
                if energy > bound {
                    self.report.violations.push(AuditViolation::EnergyBudget {
                        server: s,
                        joules: format!("{energy:.6}"),
                        bound_joules: format!("{bound:.6}"),
                    });
                }
            }

            const EPS: f64 = 1e-9;
            let idle = server.full_idle_fraction(now);
            let nap = server.nap_fraction(now);
            let checks: [(&str, f64); 4] = [
                ("idle", idle),
                ("nap", nap),
                ("utilization", server.average_utilization(now)),
                ("failed", server.failed_fraction(now)),
            ];
            for (name, value) in checks {
                if !value.is_finite() || !(-EPS..=1.0 + EPS).contains(&value) {
                    self.report
                        .violations
                        .push(AuditViolation::ResidencyFraction {
                            server: s,
                            fraction: name.to_owned(),
                            value: format!("{value}"),
                        });
                }
            }
            if nap > idle + EPS {
                self.report
                    .violations
                    .push(AuditViolation::ResidencyFraction {
                        server: s,
                        fraction: "nap>idle".to_owned(),
                        value: format!("{nap} > {idle}"),
                    });
            }
        }
    }

    /// Time-weighted sampling of L (jobs in system) between sweeps. Only
    /// meaningful without faults/retries/shedding: timeouts, drops, and
    /// rejected arrivals muddy both λ and W, so the probe is skipped in
    /// tracked mode.
    fn sample_littles(&mut self, now: Time, ledger: &AuditLedger, in_system: u64) {
        if ledger.tracked {
            return;
        }
        let seconds = now.as_seconds();
        match self.littles_start {
            None => self.littles_start = Some(seconds),
            Some(_) => {
                let dt = (seconds - self.littles_last).max(0.0);
                self.littles_integral += in_system as f64 * dt;
            }
        }
        self.littles_last = seconds;
    }

    /// Final evaluation at the end of a run: the Little's-law probe
    /// compares the time-averaged L against `λW`. A mismatch is a warning
    /// — both sides are estimates with their own noise.
    pub(crate) fn finalize(
        &mut self,
        now: Time,
        servers: &[Server],
        ledger: &AuditLedger,
        mean_response: Option<f64>,
    ) {
        self.sweep(now, servers, ledger);
        // Demand a minimum of data before judging L ≈ λW: short calibration
        // runs legitimately miss the band.
        const MIN_JOBS: u64 = 5_000;
        let (Some(start), Some(w)) = (self.littles_start, mean_response) else {
            return;
        };
        let elapsed = self.littles_last - start;
        if ledger.tracked || ledger.injected < MIN_JOBS || elapsed <= 0.0 || w <= 0.0 {
            return;
        }
        let l = self.littles_integral / elapsed;
        let lambda = ledger.injected as f64 / now.as_seconds();
        let expected = lambda * w;
        if expected <= 0.0 {
            return;
        }
        let rel = (l - expected).abs() / expected;
        if rel > LITTLES_LAW_TOLERANCE {
            self.report.warnings.push(AuditWarning::LittlesLaw {
                mean_in_system: format!("{l:.4}"),
                arrival_rate: format!("{lambda:.4}"),
                mean_response: format!("{w:.6}"),
                relative_error: format!("{rel:.3}"),
            });
        }
    }

    pub(crate) fn into_report(self) -> AuditReport {
        self.report
    }

    #[cfg(test)]
    fn report(&self) -> &AuditReport {
        &self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_loose() {
        let cfg = AuditConfig::default();
        assert_eq!(
            cfg.check_interval_events,
            AuditConfig::DEFAULT_CHECK_INTERVAL
        );
        assert_eq!(cfg.stall_limit_events, ProgressGuard::DEFAULT_STALL_LIMIT);
        assert_eq!(
            cfg.storm_budget_events_per_sim_second,
            ProgressGuard::DEFAULT_STORM_BUDGET
        );
        assert_eq!(cfg.storm_window_events, ProgressGuard::DEFAULT_STORM_WINDOW);
    }

    #[test]
    fn tripwire_rejects_nan_and_negative() {
        let mut auditor = Auditor::new(AuditConfig::default(), 1, None);
        assert!(auditor.check_observation("response_time", 0.25));
        assert!(!auditor.check_observation("response_time", f64::NAN));
        assert!(!auditor.check_observation("response_time", -1.0));
        assert!(auditor.failed());
        let report = auditor.report();
        assert_eq!(report.observations_checked, 3);
        assert_eq!(report.violations.len(), 2);
        assert!(matches!(
            &report.violations[0],
            AuditViolation::NonFiniteObservation { metric, value }
                if metric == "response_time" && value == "NaN"
        ));
        assert!(matches!(
            &report.violations[1],
            AuditViolation::NegativeObservation { .. }
        ));
    }

    #[test]
    fn clean_sweep_on_empty_cluster_passes() {
        let mut auditor = Auditor::new(AuditConfig::default(), 0, None);
        auditor.sweep(Time::from_seconds(1.0), &[], &AuditLedger::untracked(0));
        assert!(!auditor.failed());
        assert_eq!(auditor.report().checks_run, 1);
    }

    #[test]
    fn job_conservation_mismatch_is_flagged() {
        let mut auditor = Auditor::new(AuditConfig::default(), 0, None);
        // 5 jobs injected, but no server holds or completed any.
        auditor.sweep(Time::from_seconds(1.0), &[], &AuditLedger::untracked(5));
        assert!(auditor.failed());
        assert!(matches!(
            auditor.report().violations[0],
            AuditViolation::JobConservation {
                injected: 5,
                completed: 0,
                in_system: 0
            }
        ));
    }

    #[test]
    fn request_ledger_mismatch_is_flagged() {
        let mut auditor = Auditor::new(AuditConfig::default(), 0, None);
        let bad = AuditLedger {
            tracked: true,
            injected: 10,
            admitted: 10,
            goodput: 7,
            timed_out: 1,
            in_flight: 1, // 7 + 1 + 1 != 10
            ..AuditLedger::untracked(10)
        };
        auditor.sweep(Time::from_seconds(1.0), &[], &bad);
        assert!(matches!(
            auditor.report().violations[0],
            AuditViolation::RequestLedger { admitted: 10, .. }
        ));
    }

    #[test]
    fn shed_conservation_mismatch_is_flagged() {
        let mut auditor = Auditor::new(AuditConfig::default(), 0, None);
        let bad = AuditLedger {
            tracked: true,
            resilience: true,
            offered: 20,
            admitted: 15,
            shed: 4, // 15 + 4 != 20
            goodput: 14,
            timed_out: 0,
            in_flight: 1,
            ..AuditLedger::untracked(20)
        };
        auditor.sweep(Time::from_seconds(1.0), &[], &bad);
        assert!(matches!(
            auditor.report().violations[0],
            AuditViolation::ShedConservation {
                offered: 20,
                admitted: 15,
                shed: 4
            }
        ));
        // A balanced shed ledger passes.
        let mut auditor = Auditor::new(AuditConfig::default(), 0, None);
        let good = AuditLedger {
            tracked: true,
            resilience: true,
            offered: 20,
            admitted: 15,
            shed: 5,
            goodput: 14,
            timed_out: 0,
            in_flight: 1,
            ..AuditLedger::untracked(20)
        };
        auditor.sweep(Time::from_seconds(1.0), &[], &good);
        assert!(!auditor.failed());
    }

    #[test]
    fn completion_count_cross_check() {
        let mut auditor = Auditor::new(AuditConfig::default(), 0, None);
        auditor.note_completion(); // claims 1 completion; servers show 0
        auditor.sweep(Time::from_seconds(1.0), &[], &AuditLedger::untracked(0));
        assert!(matches!(
            auditor.report().violations[0],
            AuditViolation::CompletionMismatch {
                server_completed: 0,
                observed: 1
            }
        ));
    }

    #[test]
    fn event_due_fires_on_interval() {
        let cfg = AuditConfig {
            check_interval_events: 3,
            ..AuditConfig::default()
        };
        let mut auditor = Auditor::new(cfg, 0, None);
        assert!(!auditor.event_due());
        assert!(!auditor.event_due());
        assert!(auditor.event_due());
        assert!(!auditor.event_due());
    }

    #[test]
    fn progress_violations_convert() {
        let v: AuditViolation = ProgressViolation::ZeroAdvance { events: 42 }.into();
        assert_eq!(v, AuditViolation::Livelock { events: 42 });
        let v: AuditViolation = ProgressViolation::EventStorm {
            events: 10,
            window_seconds: 1e-9,
        }
        .into();
        assert!(matches!(v, AuditViolation::EventStorm { events: 10, .. }));
        let v: AuditViolation = ProgressViolation::TimeRegression {
            from_seconds: 2.0,
            to_seconds: 1.0,
        }
        .into();
        assert!(matches!(v, AuditViolation::TimeRegression { .. }));
    }

    #[test]
    fn report_merge_accumulates() {
        let mut a = AuditReport {
            enabled: true,
            checks_run: 2,
            observations_checked: 10,
            violations: vec![AuditViolation::Livelock { events: 3 }],
            warnings: Vec::new(),
        };
        let b = AuditReport {
            enabled: true,
            checks_run: 1,
            observations_checked: 5,
            violations: Vec::new(),
            warnings: vec![AuditWarning::LittlesLaw {
                mean_in_system: "1".into(),
                arrival_rate: "1".into(),
                mean_response: "1".into(),
                relative_error: "0.5".into(),
            }],
        };
        a.merge(&b);
        assert_eq!(a.checks_run, 3);
        assert_eq!(a.observations_checked, 15);
        assert_eq!(a.violations.len(), 1);
        assert_eq!(a.warnings.len(), 1);
        assert!(!a.passed());
        assert!(a.livelocked());
    }

    #[test]
    fn displays_are_informative() {
        let v = AuditViolation::CompletionMismatch {
            server_completed: 9,
            observed: 8,
        };
        assert!(v.to_string().contains('9') && v.to_string().contains('8'));
        let v = AuditViolation::NonFiniteObservation {
            metric: "response_time".into(),
            value: "NaN".into(),
        };
        assert!(v.to_string().contains("NaN"));
        let w = AuditWarning::LittlesLaw {
            mean_in_system: "3.2".into(),
            arrival_rate: "10".into(),
            mean_response: "0.3".into(),
            relative_error: "0.07".into(),
        };
        assert!(w.to_string().contains("Little's law"));
    }

    #[test]
    fn serde_round_trip_preserves_nan_payloads() {
        let report = AuditReport {
            enabled: true,
            checks_run: 1,
            observations_checked: 2,
            violations: vec![AuditViolation::NonFiniteObservation {
                metric: "response_time".into(),
                value: "NaN".into(),
            }],
            warnings: Vec::new(),
        };
        let json = bighouse_json::to_string(&report);
        let back: AuditReport = bighouse_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }
}
