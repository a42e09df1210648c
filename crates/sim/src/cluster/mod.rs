//! The cluster simulation: the queuing network exercised by the engine.
//!
//! A [`ClusterSim`] is a plain G/G/k FCFS core — arrival streams, servers,
//! one attention event per server, handled in `core.rs` — onto which
//! `build` installs optional components, each an `Option<Box<_>>` that owns
//! its state: tracked requests (`requests.rs`: faults, retries, resilience),
//! epochs (`epoch.rs`: the capper, epoch-paced metrics), downstream tiers
//! (`tiers.rs`), the auditor and telemetry; `replaying` installs a trace as
//! the arrival source (`replay.rs`). A handler that needs both the core and
//! a component is an `impl ClusterSim` block in the component's file. With
//! nothing installed the cluster is the arrival/service-determined FCFS
//! recursion, and a small one runs on fixed slots
//! ([`ClusterSim::fastpath_eligible`]).

mod core;
mod epoch;
mod replay;
mod requests;
mod tiers;

use std::collections::BTreeMap;

use bighouse_des::{
    Calendar, Control, EventHandle, Pending, ProgressViolation, SimRng, Simulation, Time,
};
use bighouse_dists::QuantileGuide;
use bighouse_models::{FinishedJob, IdlePolicy, LoadBalancer, Server};
use bighouse_stats::{HistogramSpec, MetricId, MetricSpec, Phase, StatsCollection};

#[cfg(test)]
use crate::audit::SeededBug;
use crate::audit::{AuditLedger, AuditReport, Auditor};
use crate::checkpoint::RunTotals;
use crate::config::{ArrivalMode, ExperimentConfig, MetricKind};
use crate::error::SimError;
use crate::fastpath::FAST_PATH_MAX_SLOTS;
use crate::report::ClusterSummary;
use crate::telemetry::ClusterTelemetry;

use self::epoch::Epochs;
use self::replay::Replay;
use self::requests::Requests;
use self::tiers::Tiers;

/// Events dispatched by a [`ClusterSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterEvent {
    /// A new task arrives at a specific server (per-server streams).
    Arrival {
        /// Target server index.
        server: usize,
    },
    /// A new task arrives at the cluster front-end (load-balanced mode).
    BalancedArrival,
    /// The next request of a replayed trace arrives at the front-end.
    TraceArrival {
        /// Index of the request in the trace.
        index: usize,
    },
    /// A server's own next event (completion, wake, threshold) is due.
    Attention {
        /// Server index.
        server: usize,
    },
    /// An epoch boundary: the power capper re-budgets (§4.1: every second)
    /// and the epoch-paced metrics are observed.
    Epoch,
    /// A server goes down (fault injection: end of an uptime period).
    ServerFailure {
        /// Server index.
        server: usize,
    },
    /// A failed server comes back into service (end of a repair period).
    ServerRepair {
        /// Server index.
        server: usize,
    },
    /// A request's client-side timeout expires ([`bighouse_faults::RetryPolicy`]).
    RequestTimeout {
        /// Raw [`bighouse_models::JobId`] of the request.
        job: u64,
    },
    /// A timed-out request's backoff delay expires: dispatch the retry.
    Redispatch {
        /// Raw [`bighouse_models::JobId`] of the request.
        job: u64,
    },
    /// A request's hedge deadline expires: duplicate it to a second server
    /// ([`crate::HedgePolicy`]).
    HedgeFire {
        /// Raw [`bighouse_models::JobId`] of the *primary* request.
        job: u64,
    },
}

/// The simulated cluster: servers, arrival processes, the statistics engine
/// observing them, and whatever optional components the configuration
/// calls for — tracked requests (faults, retries, resilience), epochs (the
/// power capper, epoch-paced metrics), downstream tiers, the auditor,
/// telemetry.
///
/// Implements [`Simulation`] for the discrete-event [`bighouse_des::Engine`];
/// use [`crate::run_serial`] unless you need custom control.
#[derive(Debug)]
pub struct ClusterSim {
    config: ExperimentConfig,
    servers: Vec<Server>,
    /// Each server's pending attention event and the (clamped) instant it
    /// was filed at; `None` while none is pending.
    attention: Vec<Option<(EventHandle, Time)>>,
    balancer: Option<LoadBalancer>,
    rng: SimRng,
    /// Guided samplers over the workload's two tables: bit-identical to
    /// `Empirical::sample` on the same raw draw, with one compare in place
    /// of the full-table binary search everywhere below the tail. Every
    /// workload draw goes through them.
    service_guide: QuantileGuide,
    interarrival_guide: QuantileGuide,
    /// The one completion buffer `Server::arrive_into`/`sync_into` fill,
    /// reused across events instead of a fresh `Vec` per arrival.
    finished: Vec<FinishedJob>,
    stats: StatsCollection,
    /// Where each tracked kind records, indexed by `kind as usize`.
    metric_ids: [Option<MetricId>; MetricKind::ALL.len()],
    job_counter: u64,
    stop_on_convergence: bool,
    /// Request tracking (`None` without faults, retries and resilience:
    /// an arrival is then one job on one server and nothing is remembered).
    requests: Option<Box<Requests>>,
    /// The periodic tick (`None` without a capper and epoch-paced metrics).
    epochs: Option<Box<Epochs>>,
    /// The tiers past the base cluster (`None` for one cluster).
    tiers: Option<Box<Tiers>>,
    /// The replayed trace (`None` unless built by `replaying`).
    replay: Option<Box<Replay>>,
    /// The runtime invariant auditor (`None` when paranoid mode is off —
    /// the entire audit machinery then costs one null check per event).
    audit: Option<Box<Auditor>>,
    /// Telemetry context (`None` when telemetry is off — same one-null-check
    /// cost structure as the auditor).
    telemetry: Option<Box<ClusterTelemetry>>,
    /// Deliberately seeded accounting bug (mutation-test hook); a one-shot
    /// bug clears it when it fires.
    #[cfg(test)]
    seeded_bug: Option<SeededBug>,
}

impl ClusterSim {
    /// Builds the simulation from a validated config and an RNG seed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the configuration is
    /// internally inconsistent (see [`ExperimentConfig`]).
    pub fn new(config: ExperimentConfig, seed: u64) -> Result<Self, SimError> {
        Self::build(config, seed, &BTreeMap::new())
    }

    /// Builds a *slave* simulation: histogram bin schemes are forced to the
    /// master's broadcast values (Figure 3) and the simulation does not
    /// stop on its own convergence — the master decides when the aggregate
    /// sample suffices.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the configuration is
    /// internally inconsistent.
    pub fn new_slave(
        config: ExperimentConfig,
        seed: u64,
        histogram_specs: &BTreeMap<String, HistogramSpec>,
    ) -> Result<Self, SimError> {
        let mut sim = Self::build(config, seed, histogram_specs)?;
        sim.stop_on_convergence = false;
        Ok(sim)
    }

    fn build(
        config: ExperimentConfig,
        seed: u64,
        forced_histograms: &BTreeMap<String, HistogramSpec>,
    ) -> Result<Self, SimError> {
        config.validate()?;
        let mut servers: Vec<Server> = (0..config.servers)
            .map(|_| new_server(&config, config.cores_per_server, config.idle_policy))
            .collect();
        let balancer = match config.arrival_mode {
            ArrivalMode::PerServer => None,
            ArrivalMode::LoadBalanced(policy) => Some(LoadBalancer::new(policy, config.servers)),
        };
        let mut stats = StatsCollection::new();
        let mut register = |spec: MetricSpec| match forced_histograms.get(spec.name()) {
            Some(&hist) => stats.add_metric_with_histogram(spec, hist),
            None => stats.add_metric(spec),
        };
        let mut metric_ids = [None; MetricKind::ALL.len()];
        let mut epoch_paced = false;
        for (kind, spec) in config.metric_specs() {
            epoch_paced |= kind.is_epoch_paced();
            metric_ids[kind as usize] = Some(register(spec));
        }
        if metric_ids[MetricKind::ResponseTime as usize].is_none() {
            return Err(SimError::InvalidConfig(
                "response time metric missing".into(),
            ));
        }
        let tiers = Tiers::install(&config, &mut servers, register);
        let n = servers.len();
        let requests = Requests::install(&config);
        let epochs = Epochs::install(&config, epoch_paced);
        let audit = config.audit.as_ref().map(|cfg| {
            // The energy budget bound must cover every power state a
            // server can occupy, not just nominal peak.
            let peak = config
                .power_model
                .as_ref()
                .map(|m| m.peak_watts().max(m.failed_watts()).max(m.nap_watts()));
            Box::new(Auditor::new(cfg.clone(), n, peak))
        });
        let telemetry = config.telemetry.then(|| {
            let mut t = Box::new(ClusterTelemetry::new());
            t.prime_phases(&stats);
            t
        });
        Ok(ClusterSim {
            servers,
            attention: vec![None; n],
            balancer,
            rng: SimRng::from_seed(seed),
            service_guide: QuantileGuide::new(config.workload.service()),
            interarrival_guide: QuantileGuide::new(config.workload.interarrival()),
            finished: Vec::new(),
            stats,
            metric_ids,
            job_counter: 0,
            stop_on_convergence: true,
            requests,
            epochs,
            tiers,
            replay: None,
            audit,
            telemetry,
            #[cfg(test)]
            seeded_bug: None,
            config,
        })
    }

    /// Schedules the initial events: first arrivals (a replay's first
    /// request), the first failure of each server (if faults are
    /// configured), and, if needed, the first epoch. Call exactly once
    /// before running.
    pub fn prime(&mut self, cal: &mut impl Pending<ClusterEvent>) {
        let now = cal.now();
        match (self.replay.as_deref(), self.config.arrival_mode) {
            (Some(replay), _) => {
                cal.schedule(replay.arrival(0), ClusterEvent::TraceArrival { index: 0 });
            }
            (None, ArrivalMode::PerServer) => {
                for s in 0..self.config.servers {
                    let dt = self.next_interarrival(now);
                    cal.schedule_in(dt, ClusterEvent::Arrival { server: s });
                }
            }
            (None, ArrivalMode::LoadBalanced(_)) => {
                let dt = self.next_interarrival(now);
                cal.schedule_in(dt, ClusterEvent::BalancedArrival);
            }
        }
        self.prime_failures(cal);
        if self.epochs.is_some() {
            cal.schedule_in(epoch::PERIOD, ClusterEvent::Epoch);
        }
    }

    /// The statistics engine (read access).
    #[must_use]
    pub fn stats(&self) -> &StatsCollection {
        &self.stats
    }

    /// Consumes the simulation, yielding its statistics collection — the
    /// epoch-boundary hand-off of resumable runs: the calendar and all
    /// in-flight requests are discarded, the accumulated statistics are
    /// carried into the next epoch (or into a checkpoint).
    #[must_use]
    pub fn into_stats(self) -> StatsCollection {
        self.stats
    }

    /// Replaces this simulation's (fresh) statistics with a collection
    /// carried over from an earlier epoch or restored from a checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] if the restored collection does not
    /// match the configured metric set (different count, names, or order) —
    /// the signature of resuming against the wrong experiment.
    pub fn restore_stats(&mut self, stats: StatsCollection) -> Result<(), SimError> {
        let matches = stats.len() == self.stats.len()
            && self
                .stats
                .iter()
                .zip(stats.iter())
                .all(|(mine, theirs)| mine.spec().name() == theirs.spec().name());
        if !matches {
            return Err(SimError::Checkpoint(
                "restored statistics do not match the configured metric set".into(),
            ));
        }
        self.stats = stats;
        // Restored metrics resume mid-phase; re-baseline so the next
        // genuine transition (not the restore itself) is what gets logged.
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.prime_phases(&self.stats);
        }
        Ok(())
    }

    /// Whether every metric has finished calibration (reached measurement
    /// or convergence) — the master's hand-off point in Figure 3.
    #[must_use]
    pub(crate) fn all_calibrated(&self) -> bool {
        self.stats
            .iter()
            .all(|m| matches!(m.phase(), Phase::Measurement | Phase::Converged))
    }

    /// The histogram bin schemes chosen during calibration, keyed by metric
    /// name — the payload the master broadcasts to slaves.
    #[must_use]
    pub(crate) fn histogram_specs(&self) -> BTreeMap<String, HistogramSpec> {
        self.stats
            .iter()
            .filter_map(|m| {
                m.histogram()
                    .map(|h| (m.spec().name().to_owned(), *h.spec()))
            })
            .collect()
    }

    /// The cluster-level facts of the run up to `now`, each time-fraction
    /// (mean over servers) weighted by the seconds it covers.
    #[must_use]
    pub(crate) fn totals(&self, now: Time) -> RunTotals {
        let mean = |of: fn(&Server, Time) -> f64| {
            self.servers.iter().map(|s| of(s, now)).sum::<f64>() / self.servers.len() as f64
        };
        let seconds = now.as_seconds();
        let requests = self.requests.as_deref();
        RunTotals {
            simulated_seconds: seconds,
            jobs_completed: self.servers.iter().map(Server::completed_jobs).sum(),
            energy_joules: self.servers.iter().map(Server::energy_joules).sum(),
            idle_weight: mean(Server::full_idle_fraction) * seconds,
            nap_weight: mean(Server::nap_fraction) * seconds,
            utilization_weight: mean(Server::average_utilization) * seconds,
            faults: requests
                .filter(|_| self.config.faults.is_some() || self.config.retry.is_some())
                .map(|rq| rq.fault_totals(mean(Server::failed_fraction) * seconds)),
            resilience: requests.and_then(Requests::resilience_summary),
        }
    }

    /// The cluster-level summary at time `now`: the run totals as the
    /// report shows them.
    #[must_use]
    pub fn summary(&self, now: Time) -> ClusterSummary {
        self.totals(now).summary(self.servers.len())
    }

    /// The current ledger snapshot for an audit sweep.
    fn ledger(&self) -> AuditLedger {
        match self.requests.as_deref() {
            Some(rq) => rq.ledger(self.job_counter),
            None => AuditLedger {
                forwarded: self.tiers.as_deref().map_or(0, |t| t.forwarded),
                ..AuditLedger::untracked(self.job_counter)
            },
        }
    }

    /// Whether the auditor has recorded an invariant violation.
    #[must_use]
    pub(crate) fn audit_failed(&self) -> bool {
        self.audit.as_deref().is_some_and(Auditor::failed)
    }

    /// Folds a progress-guard violation (livelock, event storm, time
    /// regression) into the audit report. No-op when auditing is off.
    pub(crate) fn record_progress_violation(&mut self, violation: ProgressViolation) {
        if let Some(audit) = self.audit.as_deref_mut() {
            audit.record_progress_violation(violation);
        }
    }

    /// Runs the final audit sweep and the Little's-law probe. Call once
    /// when the run stops, before taking the report.
    pub(crate) fn finalize_audit(&mut self, now: Time) {
        if self.audit.is_none() {
            return;
        }
        let mean_response = self.metric_ids[MetricKind::ResponseTime as usize]
            .and_then(|id| self.stats.metric(id).estimate())
            .map(|e| e.mean);
        let ledger = self.ledger();
        if let Some(audit) = self.audit.as_deref_mut() {
            audit.finalize(now, &self.servers, &ledger, mean_response);
        }
    }

    /// Takes the audit report (`None` when paranoid mode is off). The
    /// auditor is consumed; call after [`ClusterSim::finalize_audit`].
    #[must_use]
    pub(crate) fn take_audit(&mut self) -> Option<AuditReport> {
        self.audit.take().map(|a| a.into_report())
    }

    /// Takes the telemetry context (`None` when telemetry is off). Called
    /// by the runners when the run (or epoch) ends.
    pub(crate) fn take_telemetry(&mut self) -> Option<Box<ClusterTelemetry>> {
        self.telemetry.take()
    }

    /// Whether this configuration runs on fixed slots rather than the
    /// calendar, with bit-identical estimates either way: no optional
    /// component is installed, so the only events are the arrival/attention
    /// pair of a plain G/G/k FCFS segment, each with a slot of its own, and
    /// there are few enough slots — one per arrival stream and one per
    /// server, at most [`FAST_PATH_MAX_SLOTS`] — that scanning them all
    /// beats the calendar queue.
    ///
    /// What has no slot is what the components schedule: the failure,
    /// repair, timeout, redispatch and hedge events of request tracking,
    /// the epoch, the downstream tiers' attention events, and the seeded
    /// livelock's second attention event. Audited runs stay on the calendar
    /// as well. Idle policies, DVFS, power models and both arrival modes
    /// live inside [`Server`]'s own state fold and are all allowed.
    #[must_use]
    pub(crate) fn fastpath_eligible(&self) -> bool {
        #[cfg(test)]
        if self.seeded_bug.is_some() {
            return false;
        }
        let streams = self.balancer.as_ref().map_or(self.servers.len(), |_| 1);
        self.requests.is_none()
            && self.epochs.is_none()
            && self.tiers.is_none()
            && self.audit.is_none()
            && streams + self.servers.len() <= FAST_PATH_MAX_SLOTS
    }

    /// Mutation-test hook: arms a deliberately seeded accounting bug. The
    /// audit test suite uses this to prove the auditor catches real
    /// corruption, not just synthetic inputs.
    #[cfg(test)]
    pub(crate) fn seed_bug(&mut self, bug: SeededBug) {
        self.seeded_bug = Some(bug);
    }
}

/// A server of `cores` cores under `policy`, on the experiment's DVFS and
/// power models.
fn new_server(config: &ExperimentConfig, cores: usize, policy: IdlePolicy) -> Server {
    let server = Server::new(cores)
        .with_policy(policy)
        .with_dvfs(config.dvfs);
    match config.power_model {
        Some(model) => server.with_power_model(model),
        None => server,
    }
}

impl Simulation for ClusterSim {
    type Event = ClusterEvent;

    fn handle(
        &mut self,
        now: Time,
        event: ClusterEvent,
        cal: &mut Calendar<ClusterEvent>,
    ) -> Control {
        self.handle_on(now, event, cal)
    }
}

#[cfg(test)]
mod tests;
