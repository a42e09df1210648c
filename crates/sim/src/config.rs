//! Experiment configuration.

use bighouse_faults::{FaultProcess, RetryPolicy};
use bighouse_models::{BalancerPolicy, DvfsModel, IdlePolicy, LinearPowerModel, PowerCapper};
use bighouse_stats::MetricSpec;
use bighouse_workloads::Workload;

use crate::audit::AuditConfig;
use crate::error::SimError;
use crate::resilience::ResilienceConfig;

/// How arrivals reach the cluster's servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ArrivalMode {
    /// Every server has its own independent arrival stream drawn from the
    /// workload (the paper's cluster-scaling experiments, where each
    /// server's load is statistically identical).
    PerServer,
    /// One central arrival stream dispatched by a load balancer.
    LoadBalanced(BalancerPolicy),
}

/// The built-in observables an experiment can track.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum MetricKind {
    /// Per-task sojourn time (always tracked).
    ResponseTime,
    /// Per-task queueing delay, recorded **only when a task actually
    /// waited** — which is why Figure 9's "+Waiting" runs take so much
    /// longer: "wait events are much less frequent than request completion
    /// events".
    WaitingTime,
    /// Cluster-total capping level in watts, one observation per budgeting
    /// epoch (requires a capper) — Figure 9's "+Capping" observable, rarer
    /// still than waiting since "capping epochs occur less frequently than
    /// request completions". Being epoch-paced, this metric pins the
    /// *simulated duration* regardless of cluster size, which is what makes
    /// Figure 7's runtime grow linearly with the number of servers.
    CappingLevel,
    /// Per-server, per-epoch average power in watts (requires a power
    /// model).
    ServerPower,
    /// Per-server, per-epoch fraction of the epoch the server was up
    /// (requires fault injection). Epoch-paced like power; its long-run
    /// mean converges to the analytic `MTBF / (MTBF + MTTR)`.
    Availability,
    /// Per-epoch fraction of offered arrivals shed by admission control or
    /// class thresholds (requires a resilience config). Under a bounded
    /// queue its long-run mean converges to the analytic M/M/k/K blocking
    /// probability (Erlang-B when K = k).
    ShedRate,
    /// Per-epoch fraction of launched hedges that finished before their
    /// primary (requires a hedge policy).
    HedgeWinRate,
    /// Per-epoch goodput / (goodput + timed-out + shed): the fraction of
    /// disposed offered load that produced a useful completion (requires a
    /// resilience config). This is the goodput-vs-throughput observable —
    /// under a retry storm it collapses while raw throughput stays busy.
    GoodputFraction,
    /// Per-completion indicator that response time met the SLO deadline
    /// (requires `resilience.slo_deadline`). Request-paced; its mean is
    /// SLO attainment.
    SloAttainment,
}

/// What must be configured for a metric to be observable: how to say it,
/// and how to check it.
type Prerequisite = Option<(&'static str, fn(&ExperimentConfig) -> bool)>;

impl MetricKind {
    /// Every kind, in declaration order (`ALL[kind as usize] == kind`).
    pub const ALL: [MetricKind; 9] = [
        MetricKind::ResponseTime,
        MetricKind::WaitingTime,
        MetricKind::CappingLevel,
        MetricKind::ServerPower,
        MetricKind::Availability,
        MetricKind::ShedRate,
        MetricKind::HedgeWinRate,
        MetricKind::GoodputFraction,
        MetricKind::SloAttainment,
    ];

    /// The metric table, one row a kind: registered name; whether it is
    /// observed once per budgeting/observation epoch, not per request;
    /// whether its quantiles are degenerate (mass on {0, 1}, or a bounded
    /// epoch fraction), so that by default only the mean carries an
    /// accuracy target; and its prerequisite.
    fn row(self) -> (&'static str, bool, bool, Prerequisite) {
        let capper: Prerequisite = Some(("a PowerCapper", |c| c.capper.is_some()));
        let power: Prerequisite = Some(("a power model", |c| c.power_model.is_some()));
        let faults: Prerequisite = Some(("fault injection (with_faults)", |c| c.faults.is_some()));
        let resilience: Prerequisite = Some(("a resilience config (with_resilience)", |c| {
            c.resilience.is_some()
        }));
        let hedge: Prerequisite = Some(("a hedge policy (resilience.hedge)", |c| {
            c.resilience.as_ref().is_some_and(|r| r.hedge.is_some())
        }));
        let slo: Prerequisite = Some(("resilience.slo_deadline", |c| {
            let deadline = c.resilience.as_ref().and_then(|r| r.slo_deadline);
            deadline.is_some()
        }));
        match self {
            MetricKind::ResponseTime => ("response_time", false, false, None),
            MetricKind::WaitingTime => ("waiting_time", false, false, None),
            MetricKind::CappingLevel => ("capping_level", true, false, capper),
            MetricKind::ServerPower => ("server_power", true, false, power),
            MetricKind::Availability => ("availability", true, true, faults),
            MetricKind::ShedRate => ("shed_rate", true, true, resilience),
            MetricKind::HedgeWinRate => ("hedge_win_rate", true, true, hedge),
            MetricKind::GoodputFraction => ("goodput_fraction", true, true, resilience),
            MetricKind::SloAttainment => ("slo_attainment", false, true, slo),
        }
    }

    /// The metric's registered name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.row().0
    }

    /// The kind registered under `name`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<MetricKind> {
        Self::ALL.into_iter().find(|kind| kind.name() == name)
    }

    /// Whether observations arrive once per budgeting/observation epoch —
    /// paced by simulated time — and not once per request.
    #[must_use]
    pub fn is_epoch_paced(&self) -> bool {
        self.row().1
    }

    /// Whether only the mean carries an accuracy target by default.
    #[must_use]
    pub fn is_mean_only(&self) -> bool {
        self.row().2
    }

    /// What `config` lacks for this metric to be observable, if anything.
    fn missing_prerequisite(self, config: &ExperimentConfig) -> Option<&'static str> {
        let (what, configured) = self.row().3?;
        (!configured(config)).then_some(what)
    }
}

/// Everything needed to run one BigHouse experiment.
///
/// Construct with [`ExperimentConfig::new`] and refine with the builder
/// methods; all defaults mirror the paper (§4: quad-core servers, 95%
/// confidence, E = 0.05 on the mean and the 95th percentile).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ExperimentConfig {
    pub(crate) workload: Workload,
    pub(crate) servers: usize,
    pub(crate) cores_per_server: usize,
    pub(crate) idle_policy: IdlePolicy,
    pub(crate) dvfs: DvfsModel,
    pub(crate) power_model: Option<LinearPowerModel>,
    pub(crate) capper: Option<PowerCapper>,
    pub(crate) arrival_mode: ArrivalMode,
    /// Tracked metrics; `None` means "inherit the experiment-wide targets",
    /// `Some(spec)` is used verbatim.
    pub(crate) metrics: Vec<(MetricKind, Option<MetricSpec>)>,
    pub(crate) target_accuracy: f64,
    pub(crate) confidence: f64,
    pub(crate) quantile: f64,
    pub(crate) warmup: u64,
    pub(crate) calibration: usize,
    pub(crate) max_events: u64,
    pub(crate) faults: Option<FaultProcess>,
    pub(crate) retry: Option<RetryPolicy>,
    pub(crate) resilience: Option<ResilienceConfig>,
    pub(crate) audit: Option<AuditConfig>,
    pub(crate) telemetry: bool,
}

impl ExperimentConfig {
    /// Creates a single quad-core-server experiment at the workload's
    /// as-measured load, observing response time.
    #[must_use]
    pub fn new(workload: Workload) -> Self {
        ExperimentConfig {
            workload,
            servers: 1,
            cores_per_server: 4,
            idle_policy: IdlePolicy::AlwaysOn,
            dvfs: DvfsModel::default(),
            power_model: None,
            capper: None,
            arrival_mode: ArrivalMode::PerServer,
            metrics: vec![(MetricKind::ResponseTime, None)],
            target_accuracy: 0.05,
            confidence: 0.95,
            quantile: 0.95,
            warmup: 1000,
            calibration: MetricSpec::DEFAULT_CALIBRATION,
            max_events: u64::MAX,
            faults: None,
            retry: None,
            resilience: None,
            audit: None,
            telemetry: false,
        }
    }

    /// Sets the number of servers.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is zero.
    #[must_use]
    pub fn with_servers(mut self, servers: usize) -> Self {
        assert!(servers > 0, "cluster needs at least one server");
        self.servers = servers;
        self
    }

    /// Sets cores per server (paper default: quad-core).
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    #[must_use]
    pub fn with_cores(mut self, cores: usize) -> Self {
        assert!(cores > 0, "server needs at least one core");
        self.cores_per_server = cores;
        self
    }

    /// Scales the workload's arrival process so each server runs at the
    /// given fraction of peak load.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < utilization < 1`.
    #[must_use]
    pub fn with_utilization(mut self, utilization: f64) -> Self {
        self.workload = self
            .workload
            .at_utilization(utilization, self.cores_per_server as u32);
        self
    }

    /// Sets the idle low-power policy for every server.
    #[must_use]
    pub fn with_idle_policy(mut self, policy: IdlePolicy) -> Self {
        self.idle_policy = policy;
        self
    }

    /// Sets the DVFS performance model.
    #[must_use]
    pub fn with_dvfs(mut self, dvfs: DvfsModel) -> Self {
        self.dvfs = dvfs;
        self
    }

    /// Attaches a power model to every server (enables energy accounting
    /// and the [`MetricKind::ServerPower`] observable).
    #[must_use]
    pub fn with_power_model(mut self, model: LinearPowerModel) -> Self {
        self.power_model = Some(model);
        self
    }

    /// Enables global power capping (§4.1). Implies the power model used by
    /// the capper.
    #[must_use]
    pub fn with_capper(mut self, capper: PowerCapper) -> Self {
        self.power_model = Some(*capper.power_model());
        self.dvfs = *capper.dvfs();
        self.capper = Some(capper);
        self
    }

    /// Sets the arrival mode (per-server streams or load-balanced).
    #[must_use]
    pub fn with_arrival_mode(mut self, mode: ArrivalMode) -> Self {
        self.arrival_mode = mode;
        self
    }

    /// Adds an observable with the experiment-wide targets.
    ///
    /// Response time is always present; adding it again is a no-op.
    #[must_use]
    pub fn with_metric(mut self, kind: MetricKind) -> Self {
        if !self.metrics.iter().any(|(k, _)| *k == kind) {
            self.metrics.push((kind, None));
        }
        self
    }

    /// Adds (or replaces) an observable with a fully custom [`MetricSpec`]
    /// that overrides the experiment-wide targets — e.g. a looser accuracy
    /// or a shorter calibration for a rare, epoch-paced metric.
    ///
    /// # Panics
    ///
    /// Panics if the spec's name differs from `kind.name()`; the simulation
    /// wires observations by that name.
    #[must_use]
    pub fn with_metric_spec(mut self, kind: MetricKind, spec: MetricSpec) -> Self {
        assert_eq!(
            spec.name(),
            kind.name(),
            "metric spec must be named after its kind"
        );
        if let Some(entry) = self.metrics.iter_mut().find(|(k, _)| *k == kind) {
            entry.1 = Some(spec);
        } else {
            self.metrics.push((kind, Some(spec)));
        }
        self
    }

    /// Sets the relative accuracy target E for **all** metrics (Eq. 1).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < e < 1`.
    #[must_use]
    pub fn with_target_accuracy(mut self, e: f64) -> Self {
        assert!(e > 0.0 && e < 1.0, "accuracy must be in (0, 1), got {e}");
        self.target_accuracy = e;
        self
    }

    /// Sets the confidence level for all metrics.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < confidence < 1`.
    #[must_use]
    pub fn with_confidence(mut self, confidence: f64) -> Self {
        assert!(
            confidence > 0.0 && confidence < 1.0,
            "confidence must be in (0, 1), got {confidence}"
        );
        self.confidence = confidence;
        self
    }

    /// Sets the quantile tracked by every metric (default: 0.95).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < q < 1`.
    #[must_use]
    pub fn with_quantile(mut self, q: f64) -> Self {
        assert!(q > 0.0 && q < 1.0, "quantile must be in (0, 1), got {q}");
        self.quantile = q;
        self
    }

    /// Sets the warm-up observation count N_w per metric.
    #[must_use]
    pub fn with_warmup(mut self, warmup: u64) -> Self {
        self.warmup = warmup;
        self
    }

    /// Sets the calibration sample size per metric.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    #[must_use]
    pub fn with_calibration(mut self, calibration: usize) -> Self {
        assert!(calibration > 0, "calibration sample must be non-empty");
        self.calibration = calibration;
        self
    }

    /// Caps total simulated events (safety valve for unstable configs).
    #[must_use]
    pub fn with_max_events(mut self, max_events: u64) -> Self {
        self.max_events = max_events;
        self
    }

    /// Enables fault injection: every server alternates between up and
    /// down phases drawn from the given renewal process. Down servers
    /// preempt their in-flight jobs (progress is lost), are skipped by the
    /// load balancer, and draw failed-state power.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultProcess) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Enables client-side request timeouts with retry: a request not
    /// completed within the policy's timeout is cancelled at its server and
    /// redispatched after a jittered backoff, up to the retry budget.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = Some(retry);
        self
    }

    /// Enables the overload-resilience subsystem: admission control,
    /// priority-class load shedding, hedged requests, and/or a
    /// deterministic overload ramp, per the given config. With the config
    /// absent the simulation draws the identical RNG sequence and takes
    /// identical branches, so estimates are bit-identical to runs built
    /// before this subsystem existed.
    #[must_use]
    pub fn with_resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.resilience = Some(resilience);
        self
    }

    /// The resilience configuration, if overload protection is enabled.
    #[must_use]
    pub fn resilience(&self) -> Option<&ResilienceConfig> {
        self.resilience.as_ref()
    }

    /// Enables the runtime invariant auditor ("paranoid mode"): every
    /// observation is vetted before entering the statistics, conservation
    /// and energy accounting are swept on an event cadence, and the
    /// runners break livelocks and event storms with an honest partial
    /// report instead of hanging. Purely observational: estimates are
    /// bit-identical with auditing on or off.
    #[must_use]
    pub fn with_audit(mut self, audit: AuditConfig) -> Self {
        self.audit = Some(audit);
        self
    }

    /// The audit configuration, if paranoid mode is enabled.
    #[must_use]
    pub fn audit(&self) -> Option<&AuditConfig> {
        self.audit.as_ref()
    }

    /// Enables telemetry: counters, gauges, latency histograms, and the
    /// statistics phase-transition log are collected during the run and
    /// surfaced on the report's `runtime.telemetry` section. Like the
    /// auditor, telemetry is purely observational — it reads values the
    /// simulation already computes and never draws randomness — so
    /// estimates are bit-identical with telemetry on or off.
    #[must_use]
    pub fn with_telemetry(mut self, enabled: bool) -> Self {
        self.telemetry = enabled;
        self
    }

    /// Whether telemetry collection is enabled.
    #[must_use]
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry
    }

    /// The configured workload.
    #[must_use]
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Number of servers.
    #[must_use]
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// Cores per server.
    #[must_use]
    pub fn cores_per_server(&self) -> usize {
        self.cores_per_server
    }

    /// The configured fault process, if fault injection is enabled.
    #[must_use]
    pub fn faults(&self) -> Option<&FaultProcess> {
        self.faults.as_ref()
    }

    /// The configured retry policy, if request timeouts are enabled.
    #[must_use]
    pub fn retry(&self) -> Option<&RetryPolicy> {
        self.retry.as_ref()
    }

    /// The metric specs this experiment will register, with experiment-wide
    /// targets applied.
    #[must_use]
    pub fn metric_specs(&self) -> Vec<(MetricKind, MetricSpec)> {
        self.metrics
            .iter()
            .map(|(kind, custom)| {
                let spec = match custom {
                    Some(spec) => spec.clone(),
                    None => {
                        let spec = MetricSpec::new(kind.name())
                            .with_target_accuracy(self.target_accuracy)
                            .with_confidence(self.confidence)
                            .with_warmup(self.warmup)
                            .with_calibration(self.calibration);
                        if kind.is_mean_only() {
                            spec.with_quantiles(&[])
                        } else {
                            spec.with_quantiles(&[self.quantile])
                        }
                    }
                };
                (*kind, spec)
            })
            .collect()
    }

    /// Validates cross-field constraints.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if a metric requires a model
    /// that is not configured (capping level without a capper, power
    /// without a power model, availability without fault injection).
    pub(crate) fn validate(&self) -> Result<(), SimError> {
        for (kind, _) in &self.metrics {
            if let Some(what) = kind.missing_prerequisite(self) {
                return Err(SimError::InvalidConfig(format!(
                    "{} metric requires {what}",
                    kind.name()
                )));
            }
        }
        if let Some(resilience) = &self.resilience {
            resilience.validate(self.servers)?;
        }
        Ok(())
    }

    /// Whether the configuration can be sent to a child process.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a fault process built from
    /// distributions no [`bighouse_faults::FaultSpec`] describes: it does
    /// not serialize, and the child must not run without it.
    pub(crate) fn check_wire(&self) -> Result<(), SimError> {
        match &self.faults {
            Some(faults) if faults.spec().is_none() => Err(SimError::InvalidConfig(
                "the process transport cannot carry a fault process built from custom \
                 distributions; use FaultProcess::exponential or an equal-shape weibull"
                    .into(),
            )),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bighouse_dists::Distribution;
    use bighouse_workloads::StandardWorkload;

    fn base() -> ExperimentConfig {
        ExperimentConfig::new(Workload::standard(StandardWorkload::Web))
    }

    #[test]
    fn defaults_match_paper() {
        let c = base();
        assert_eq!(c.servers(), 1);
        assert_eq!(c.cores_per_server(), 4);
        assert_eq!(c.target_accuracy, 0.05);
        assert_eq!(c.confidence, 0.95);
        assert_eq!(c.quantile, 0.95);
        assert_eq!(c.calibration, 5000);
    }

    #[test]
    fn only_a_fault_process_a_spec_describes_goes_on_the_wire() {
        use bighouse_faults::FaultProcess;
        assert!(base().check_wire().is_ok());
        let spec_built = base().with_faults(FaultProcess::exponential(50.0, 2.0).unwrap());
        assert!(spec_built.check_wire().is_ok());
        let custom = base().with_faults(FaultProcess::weibull(0.7, 50.0, 2.0, 2.0).unwrap());
        assert!(matches!(
            custom.check_wire(),
            Err(SimError::InvalidConfig(msg)) if msg.contains("custom distributions")
        ));
    }

    #[test]
    fn metric_specs_inherit_targets() {
        let c = base()
            .with_metric(MetricKind::WaitingTime)
            .with_target_accuracy(0.01)
            .with_quantile(0.99);
        let specs = c.metric_specs();
        assert_eq!(specs.len(), 2);
        for (_, spec) in &specs {
            assert_eq!(spec.target_accuracy(), 0.01);
            assert_eq!(spec.quantiles(), &[0.99]);
        }
    }

    #[test]
    fn duplicate_metric_is_noop() {
        let c = base().with_metric(MetricKind::ResponseTime);
        assert_eq!(c.metric_specs().len(), 1);
    }

    #[test]
    fn metric_table_is_consistent_and_guards_every_prerequisite() {
        use crate::resilience::ResilienceConfig;
        use bighouse_models::{DvfsModel, LinearPowerModel, PowerCapper};
        for (i, kind) in MetricKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "ALL is in declaration order");
            assert_eq!(MetricKind::from_name(kind.name()), Some(kind));
            let same_name = MetricKind::ALL.iter().filter(|k| k.name() == kind.name());
            assert_eq!(same_name.count(), 1, "{} is not unique", kind.name());
        }
        assert_eq!(MetricKind::from_name("latency"), None);

        // Everything any metric needs, every metric tracked: valid.
        let equipped = base()
            .with_servers(2)
            .with_capper(PowerCapper::new(
                LinearPowerModel::typical_server(),
                DvfsModel::default(),
                500.0,
            ))
            .with_faults(FaultProcess::exponential(100.0, 10.0).unwrap())
            .with_resilience(
                ResilienceConfig::new()
                    .with_hedge(0.1)
                    .with_slo_deadline(0.5),
            );
        let all = MetricKind::ALL
            .into_iter()
            .fold(equipped.clone(), ExperimentConfig::with_metric);
        all.validate().unwrap();
        assert_eq!(all.metric_specs().len(), MetricKind::ALL.len());
        for (kind, spec) in all.metric_specs() {
            // Availability and the four kinds declared after it.
            let mean_only = kind as usize >= MetricKind::Availability as usize;
            assert_eq!(spec.quantiles().is_empty(), mean_only, "{}", kind.name());
        }

        // Take away the one thing a kind needs and the error names it.
        for kind in MetricKind::ALL {
            let mut config = equipped.clone().with_metric(kind);
            match kind {
                MetricKind::ResponseTime | MetricKind::WaitingTime => {
                    base().with_metric(kind).validate().unwrap();
                    continue;
                }
                MetricKind::CappingLevel => config.capper = None,
                MetricKind::ServerPower => (config.capper, config.power_model) = (None, None),
                MetricKind::Availability => config.faults = None,
                MetricKind::ShedRate | MetricKind::GoodputFraction => config.resilience = None,
                MetricKind::HedgeWinRate => config.resilience.as_mut().unwrap().hedge = None,
                MetricKind::SloAttainment => {
                    config.resilience.as_mut().unwrap().slo_deadline = None;
                }
            }
            match config.validate() {
                Err(SimError::InvalidConfig(msg)) => {
                    assert!(msg.starts_with(kind.name()), "{}: {msg}", kind.name());
                }
                other => panic!("{} without its prerequisite: {other:?}", kind.name()),
            }
        }
    }

    #[test]
    fn capper_implies_power_model() {
        use bighouse_models::{DvfsModel, LinearPowerModel, PowerCapper};
        let c = base().with_capper(PowerCapper::new(
            LinearPowerModel::typical_server(),
            DvfsModel::default(),
            500.0,
        ));
        assert!(c.power_model.is_some());
        c.with_metric(MetricKind::CappingLevel).validate().unwrap();
    }

    #[test]
    fn resilience_metrics_require_resilience_config() {
        use crate::resilience::ResilienceConfig;
        for kind in [MetricKind::ShedRate, MetricKind::GoodputFraction] {
            let err = base().with_metric(kind).validate();
            assert!(matches!(err, Err(SimError::InvalidConfig(_))), "{err:?}");
            base()
                .with_metric(kind)
                .with_resilience(ResilienceConfig::new())
                .validate()
                .unwrap();
        }
        // Hedge-win rate needs a hedge policy, not just any resilience.
        let err = base()
            .with_metric(MetricKind::HedgeWinRate)
            .with_resilience(ResilienceConfig::new())
            .validate();
        assert!(matches!(err, Err(SimError::InvalidConfig(_))), "{err:?}");
        base()
            .with_servers(2)
            .with_metric(MetricKind::HedgeWinRate)
            .with_resilience(ResilienceConfig::new().with_hedge(0.1))
            .validate()
            .unwrap();
        // SLO attainment needs a deadline.
        let err = base()
            .with_metric(MetricKind::SloAttainment)
            .with_resilience(ResilienceConfig::new())
            .validate();
        assert!(matches!(err, Err(SimError::InvalidConfig(_))), "{err:?}");
    }

    #[test]
    fn resilience_validation_runs_against_cluster() {
        use crate::resilience::ResilienceConfig;
        // Hedging on a single-server cluster has nowhere to hedge to.
        let err = base()
            .with_resilience(ResilienceConfig::new().with_hedge(0.1))
            .validate();
        assert!(matches!(err, Err(SimError::InvalidConfig(_))), "{err:?}");
    }

    #[test]
    fn utilization_rescales_workload() {
        let c = base();
        let scaled = base().with_utilization(0.5);
        assert!(scaled.workload().interarrival().mean() != c.workload().interarrival().mean());
    }
}
