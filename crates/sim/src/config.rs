//! Experiment configuration.

use std::fmt::{Debug, Display};

use bighouse_des::Time;
use bighouse_dists::Empirical;
use bighouse_faults::{FaultProcess, RetryPolicy};
use bighouse_json::{FromJson, Value};
use bighouse_models::{BalancerPolicy, DvfsModel, IdlePolicy, LinearPowerModel, PowerCapper};
use bighouse_stats::MetricSpec;
use bighouse_workloads::{Workload, WorkloadError, WorkloadRef};

use crate::audit::AuditConfig;
use crate::error::SimError;
use crate::resilience::ResilienceConfig;

/// How arrivals reach the cluster's servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalMode {
    /// Every server has its own independent arrival stream drawn from the
    /// workload (the paper's cluster-scaling experiments, where each
    /// server's load is statistically identical).
    PerServer,
    /// One central arrival stream dispatched by a load balancer.
    LoadBalanced(BalancerPolicy),
}

bighouse_json::json_enum!(ArrivalMode { PerServer, LoadBalanced(BalancerPolicy) });

/// The built-in observables an experiment can track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

bighouse_json::json_enum!(MetricKind {
    ResponseTime,
    WaitingTime,
    CappingLevel,
    ServerPower,
    Availability,
    ShedRate,
    HedgeWinRate,
    GoodputFraction,
    SloAttainment,
});

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
    pub(crate) fn from_name(name: &str) -> Option<MetricKind> {
        Self::ALL.into_iter().find(|kind| kind.name() == name)
    }

    /// Whether observations arrive once per budgeting/observation epoch —
    /// paced by simulated time — and not once per request.
    #[must_use]
    pub(crate) fn is_epoch_paced(&self) -> bool {
        self.row().1
    }

    /// Whether only the mean carries an accuracy target by default.
    #[must_use]
    pub(crate) fn is_mean_only(&self) -> bool {
        self.row().2
    }

    /// What `config` lacks for this metric to be observable, if anything.
    fn missing_prerequisite(self, config: &ExperimentConfig) -> Option<&'static str> {
        let (what, configured) = self.row().3?;
        (!configured(config)).then_some(what)
    }
}

/// A downstream tier of a pipeline ([`ExperimentConfig::with_tier`]): a
/// load-balanced cluster with its own service-demand table. The servers
/// share the experiment's DVFS and power models.
#[derive(Debug, Clone)]
pub struct TierConfig {
    pub(crate) servers: usize,
    pub(crate) cores: usize,
    pub(crate) service: Empirical,
    pub(crate) idle_policy: IdlePolicy,
}

bighouse_json::json_struct!(TierConfig {
    servers,
    cores,
    service,
    idle_policy
});

impl TierConfig {
    /// A tier of `servers` always-on servers with `cores` cores each,
    /// behind a join-shortest-queue balancer.
    ///
    /// # Panics
    ///
    /// Panics if `servers` or `cores` is zero.
    #[must_use]
    pub fn new(servers: usize, cores: usize, service: Empirical) -> Self {
        assert!(servers > 0, "tier needs at least one server");
        assert!(cores > 0, "tier servers need at least one core");
        TierConfig {
            servers,
            cores,
            service,
            idle_policy: IdlePolicy::AlwaysOn,
        }
    }

    /// Sets the tier's idle low-power policy.
    #[must_use]
    pub fn with_idle_policy(mut self, policy: IdlePolicy) -> Self {
        self.idle_policy = policy;
        self
    }
}

/// Everything needed to run one BigHouse experiment.
///
/// Construct with [`ExperimentConfig::new`] and refine with the builder
/// methods; all defaults mirror the paper (§4: quad-core servers, 95%
/// confidence, E = 0.05 on the mean and the 95th percentile).
#[derive(Debug, Clone)]
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
    /// Downstream tiers, front to back; the base cluster is tier 0.
    pub(crate) tiers: Vec<TierConfig>,
}

// An absent key reads as what `ExperimentConfig::new` sets
// (`absent_keys_read_as_new_sets_them` holds the two lists together).
bighouse_json::json_struct!(ExperimentConfig {
    workload,
    servers = 1,
    cores_per_server = 4,
    idle_policy = IdlePolicy::AlwaysOn,
    dvfs = DvfsModel::default(),
    power_model,
    capper,
    arrival_mode = ArrivalMode::PerServer,
    metrics = vec![(MetricKind::ResponseTime, None)],
    target_accuracy = 0.05,
    confidence = 0.95,
    quantile = 0.95,
    warmup = 1000,
    calibration = MetricSpec::DEFAULT_CALIBRATION,
    max_events = u64::MAX,
    faults,
    retry,
    resilience,
    audit,
    telemetry = false,
    tiers = Vec::new(); skip_if Vec::is_empty,
});

/// Keys of the experiment files `bighouse run` read before they took this
/// type's JSON, with what replaced each. A file still naming one is
/// refused: read with the key ignored, it would silently run another
/// experiment.
const RENAMED_KEYS: [(&str, &str); 6] = [
    ("cores", "`cores_per_server`"),
    ("accuracy", "`target_accuracy`"),
    ("paranoid", "`audit`"),
    ("capping", "`capper.total_budget_watts`"),
    ("slaves", "the `slaves=N` argument of `bighouse run`"),
    ("resilience.hedge_deadline", "`resilience.hedge.deadline`"),
];

/// One `metrics` entry of an experiment file: a registered name, or the
/// `[kind, spec]` pair the config writes.
struct MetricEntry(MetricKind, Option<MetricSpec>);

impl FromJson for MetricEntry {
    fn from_json(value: &Value) -> Result<Self, bighouse_json::Error> {
        let Some(name) = value.as_str() else {
            let (kind, spec) = FromJson::from_json(value)?;
            return Ok(MetricEntry(kind, spec));
        };
        let kind = MetricKind::from_name(name).ok_or_else(|| {
            bighouse_json::Error::invalid(format!(
                "unknown metric `{name}` (expected one of: {})",
                MetricKind::ALL.map(|kind| kind.name()).join(", ")
            ))
        })?;
        Ok(MetricEntry(kind, None))
    }
}

/// `Ok` if `ok`, else an [`SimError::InvalidConfig`] naming `field`, its
/// value and what it must be. The value prints as `{:?}`, so a float reads
/// in its shortest round-trip form (`1.7976931348623157e308`, not 309
/// digits).
fn check(ok: bool, field: impl Display, value: impl Debug, must: &str) -> Result<(), SimError> {
    if ok {
        Ok(())
    } else {
        Err(SimError::InvalidConfig(format!(
            "{field} = {value:?}: must be {must}"
        )))
    }
}

/// `value` must be at least `min`.
fn check_min(field: impl Display, value: u64, min: u64) -> Result<(), SimError> {
    check(value >= min, field, value, &format!("at least {min}"))
}

/// A positive, finite amount.
fn check_positive(field: impl Display, value: f64) -> Result<(), SimError> {
    check(
        value.is_finite() && value > 0.0,
        field,
        value,
        "positive and finite",
    )
}

/// A count of servers or cores: at least 1, and within the `u32` that
/// [`Workload::at_utilization`] takes cores as (no allocation holds more
/// servers).
fn check_count(field: impl Display, value: usize) -> Result<(), SimError> {
    check(
        (1..=u32::MAX as usize).contains(&value),
        field,
        value,
        "at least 1 and at most 2^32 - 1",
    )
}

/// A span of simulated seconds: in `[0, Time::MAX_SPAN]`.
fn check_span(field: impl Display, value: f64) -> Result<(), SimError> {
    check(
        (0.0..=Time::MAX_SPAN).contains(&value),
        field,
        value,
        "in [0, 1e12] seconds",
    )
}

/// A quantile table's values are spans: its largest must be one.
fn check_table(field: &str, table: &Empirical) -> Result<(), SimError> {
    let largest = table.points().last().map_or(0.0, |&(_, v)| v);
    check_span(format_args!("{field} (its largest value)"), largest)
}

/// `value` must lie in the open unit interval.
fn check_unit(field: impl Display, value: f64) -> Result<(), SimError> {
    check(value > 0.0 && value < 1.0, field, value, "in (0, 1)")
}

/// An accuracy target E or a confidence level: in (0, 1) and no finer
/// than an `f64` resolves against 1, so that neither the half-width
/// `E · mean` underflows to zero nor `1 − confidence` rounds to 1.
fn check_target(field: impl Display, value: f64) -> Result<(), SimError> {
    check(
        (f64::EPSILON..1.0).contains(&value),
        field,
        value,
        "in [2^-52, 1)",
    )
}

/// The ranges [`LinearPowerModel::new`] and `with_failed_watts` assert.
fn check_power_model(path: &str, model: &LinearPowerModel) -> Result<(), SimError> {
    let watts = [
        ("idle_watts", model.idle_watts()),
        ("dynamic_watts", model.dynamic_watts()),
        ("nap_watts", model.nap_watts()),
        ("failed_watts", model.failed_watts()),
    ];
    for (name, v) in watts {
        check(
            v.is_finite() && v >= 0.0,
            format_args!("{path}.{name}"),
            v,
            "finite and non-negative",
        )?;
    }
    check(
        model.nap_watts() <= model.idle_watts(),
        format_args!("{path}.nap_watts"),
        model.nap_watts(),
        "at most idle_watts",
    )
}

/// The range [`DvfsModel::new`] asserts.
fn check_dvfs(path: &str, dvfs: &DvfsModel) -> Result<(), SimError> {
    let alpha = dvfs.alpha();
    check(
        (0.0..=1.0).contains(&alpha),
        format_args!("{path}.alpha"),
        alpha,
        "in [0, 1]",
    )
}

/// The ranges the [`MetricSpec`] `with_*` methods assert, and the name the
/// simulation wires a kind's observations by.
fn check_metric_spec(path: &str, kind: MetricKind, spec: &MetricSpec) -> Result<(), SimError> {
    check(
        spec.name() == kind.name(),
        format_args!("{path}.name"),
        format_args!("{}", spec.name()),
        kind.name(),
    )?;
    check_target(
        format_args!("{path}.target_accuracy"),
        spec.target_accuracy(),
    )?;
    check_target(format_args!("{path}.confidence"), spec.confidence())?;
    for (i, &q) in spec.quantiles().iter().enumerate() {
        check_unit(format_args!("{path}.quantiles[{i}]"), q)?;
    }
    let calibration = spec.calibration() as u64;
    check_min(format_args!("{path}.calibration"), calibration, 1)?;
    check_min(format_args!("{path}.max_lag"), spec.max_lag() as u64, 1)
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
            tiers: Vec::new(),
        }
    }

    /// The keys of an experiment file: every key the config writes, then
    /// the load-time `utilization`.
    pub const KEYS: [&'static str; 22] = [
        "workload",
        "servers",
        "cores_per_server",
        "idle_policy",
        "dvfs",
        "power_model",
        "capper",
        "arrival_mode",
        "metrics",
        "target_accuracy",
        "confidence",
        "quantile",
        "warmup",
        "calibration",
        "max_events",
        "faults",
        "retry",
        "resilience",
        "audit",
        "telemetry",
        "tiers",
        "utilization",
    ];

    /// Reads an experiment file: the JSON this type writes, with every key
    /// but `workload` optional (an absent key is what
    /// [`ExperimentConfig::new`] sets) and three load-time forms:
    ///
    /// - `workload` is a [`WorkloadRef`], which `resolve` turns into the
    ///   workload (a sweep memoizes it);
    /// - `utilization` rescales the resolved workload at
    ///   `cores_per_server`, as [`ExperimentConfig::with_utilization`]
    ///   does. It is not a field: the config writes the scaled workload;
    /// - a `metrics` entry is a registered name (`"waiting_time"`) or the
    ///   `[kind, spec]` pair the config writes, added as
    ///   [`ExperimentConfig::with_metric`] and
    ///   [`ExperimentConfig::with_metric_spec`] add them, so
    ///   `response_time` stays first.
    ///
    /// A `capper` brings its power and DVFS models, as
    /// [`ExperimentConfig::with_capper`] does. The config returned has
    /// passed [`ExperimentConfig::validate`], and one written by
    /// `bighouse_json::to_string` loads back to itself.
    ///
    /// # Examples
    ///
    /// ```
    /// use bighouse_sim::{ExperimentConfig, MetricKind};
    /// use bighouse_workloads::WorkloadRef;
    ///
    /// let json = bighouse_json::parse(
    ///     r#"{
    ///         "workload": {"standard": "Web"},
    ///         "servers": 4,
    ///         "utilization": 0.5,
    ///         "metrics": ["response_time", "waiting_time"],
    ///         "target_accuracy": 0.05
    ///     }"#,
    /// )?;
    /// let config = ExperimentConfig::load(&json, WorkloadRef::resolve)?;
    /// assert_eq!(config.servers(), 4);
    /// assert_eq!(config.metric_specs()[1].0, MetricKind::WaitingTime);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] naming the field path of a
    /// value the codec, `resolve` or [`ExperimentConfig::validate`]
    /// refuses, or a key of the old experiment-file schema with what
    /// replaced it.
    pub fn load(
        value: &Value,
        mut resolve: impl FnMut(&WorkloadRef) -> Result<Workload, WorkloadError>,
    ) -> Result<Self, SimError> {
        let invalid = |e: bighouse_json::Error| SimError::InvalidConfig(e.to_string());
        let object = bighouse_json::object(value).map_err(invalid)?;
        let renamed = RENAMED_KEYS.into_iter().find(|(old, _)| {
            old.split('.')
                .try_fold(value, |v, key| v.get(key))
                .is_some()
        });
        if let Some((old, new)) = renamed {
            return Err(SimError::InvalidConfig(format!(
                "`{old}` is no longer read: use {new}"
            )));
        }
        let reference: WorkloadRef = bighouse_json::field(object, "workload").map_err(invalid)?;
        let workload =
            resolve(&reference).map_err(|e| SimError::InvalidConfig(format!("workload: {e}")))?;
        let utilization: Option<f64> =
            bighouse_json::field(object, "utilization").map_err(invalid)?;
        let metrics: Vec<MetricEntry> =
            bighouse_json::field_or(object, "metrics", Vec::new).map_err(invalid)?;
        let mut fields: bighouse_json::Map = object
            .iter()
            .filter(|(key, _)| !matches!(key.as_str(), "workload" | "metrics"))
            .map(|(key, v)| (key.clone(), v.clone()))
            .collect();
        fields.insert(
            "workload",
            bighouse_json::to_value(&workload).map_err(invalid)?,
        );
        let mut config = Self::from_json(&Value::Object(fields)).map_err(invalid)?;
        config.workload = workload;
        for MetricEntry(kind, spec) in metrics {
            config.put_metric(kind, spec);
        }
        if let Some(capper) = &config.capper {
            config.power_model = Some(*capper.power_model());
            config.dvfs = *capper.dvfs();
        }
        if let Some(u) = utilization {
            check_unit("utilization", u)?;
            check_count("cores_per_server", config.cores_per_server)?;
            config.workload = config
                .workload
                .try_at_utilization(u, config.cores_per_server as u32)
                .map_err(|e| SimError::InvalidConfig(format!("utilization = {u:?}: {e}")))?;
        }
        config.validate()?;
        Ok(config)
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
        self.put_metric(kind, None);
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
        self.put_metric(kind, Some(spec));
        self
    }

    /// Tracks `kind`: a custom `spec` replaces the one it has, `None`
    /// leaves a tracked kind as it is.
    fn put_metric(&mut self, kind: MetricKind, spec: Option<MetricSpec>) {
        match self.metrics.iter_mut().find(|(k, _)| *k == kind) {
            Some(entry) => {
                if spec.is_some() {
                    entry.1 = spec;
                }
            }
            None => self.metrics.push((kind, spec)),
        }
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
    pub(crate) fn telemetry_enabled(&self) -> bool {
        self.telemetry
    }

    /// Appends a downstream tier (§2.2: "all three tiers of a three-tier
    /// web service"). The base cluster — servers, cores, idle policy,
    /// arrival mode, workload — is tier 0; a job finishing at tier i
    /// enters tier i + 1 at that instant. `response_time` is then the
    /// end-to-end sojourn, and each tier i reports its residence as
    /// `tier_<i>_response`.
    #[must_use]
    pub fn with_tier(mut self, tier: TierConfig) -> Self {
        self.tiers.push(tier);
        self
    }

    /// Servers over all tiers.
    pub(crate) fn total_servers(&self) -> usize {
        self.servers + self.tiers.iter().map(|t| t.servers).sum::<usize>()
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
                    None => self.inherited_spec(kind.name(), kind.is_mean_only()),
                };
                (*kind, spec)
            })
            .collect()
    }

    /// The per-tier residence metrics, registered after
    /// [`ExperimentConfig::metric_specs`]: `tier_<i>_response` for every
    /// tier i, with the experiment-wide targets. Empty without downstream
    /// tiers.
    pub(crate) fn tier_specs(&self) -> Vec<MetricSpec> {
        let tiers = if self.tiers.is_empty() {
            0
        } else {
            self.tiers.len() + 1
        };
        (0..tiers)
            .map(|i| self.inherited_spec(&format!("tier_{i}_response"), false))
            .collect()
    }

    fn inherited_spec(&self, name: &str, mean_only: bool) -> MetricSpec {
        let spec = MetricSpec::new(name)
            .with_target_accuracy(self.target_accuracy)
            .with_confidence(self.confidence)
            .with_warmup(self.warmup)
            .with_calibration(self.calibration);
        if mean_only {
            spec.with_quantiles(&[])
        } else {
            spec.with_quantiles(&[self.quantile])
        }
    }

    /// Checks every value a `with_*` method or model constructor would
    /// assert on, naming its field path, then the cross-field constraints.
    /// A config read from JSON bypasses those asserts, and runs build only
    /// configs that pass.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a value out of its range,
    /// a metric requiring a model that is not configured (capping level
    /// without a capper, power without a power model, availability
    /// without fault injection), an invalid resilience config, or a
    /// downstream tier that is empty or shares the run with request
    /// tracking or a capper, which act on one cluster.
    pub fn validate(&self) -> Result<(), SimError> {
        check_count("servers", self.servers)?;
        check_count("cores_per_server", self.cores_per_server)?;
        check_table("workload.interarrival", self.workload.interarrival())?;
        check_table("workload.service", self.workload.service())?;
        check_target("target_accuracy", self.target_accuracy)?;
        check_target("confidence", self.confidence)?;
        check_unit("quantile", self.quantile)?;
        check_min("calibration", self.calibration as u64, 1)?;
        for (i, (kind, spec)) in self.metrics.iter().enumerate() {
            if let Some(spec) = spec {
                check_metric_spec(&format!("metrics[{i}]"), *kind, spec)?;
            }
        }
        self.idle_policy
            .validate()
            .map_err(SimError::InvalidConfig)?;
        // The capper first: a loaded config copies its models.
        if let Some(capper) = &self.capper {
            check_positive("capper.total_budget_watts", capper.total_budget_watts())?;
            check_power_model("capper.power_model", capper.power_model())?;
            check_dvfs("capper.dvfs", capper.dvfs())?;
        }
        check_dvfs("dvfs", &self.dvfs)?;
        if let Some(model) = &self.power_model {
            check_power_model("power_model", model)?;
        }
        if let Some(faults) = &self.faults {
            check_span("faults.mtbf", faults.mtbf())?;
            check_span("faults.mttr", faults.mttr())?;
        }
        if let Some(retry) = &self.retry {
            check_span("retry.timeout", retry.timeout())?;
            check_span("retry.backoff_cap", retry.backoff_ceiling(u32::MAX))?;
        }
        if let Some(audit) = &self.audit {
            check_min(
                "audit.check_interval_events",
                audit.check_interval_events,
                1,
            )?;
            check_min("audit.stall_limit_events", audit.stall_limit_events, 2)?;
            check_positive(
                "audit.storm_budget_events_per_sim_second",
                audit.storm_budget_events_per_sim_second,
            )?;
            check_min("audit.storm_window_events", audit.storm_window_events, 2)?;
        }
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
        if self.tiers.is_empty() {
            return Ok(());
        }
        let conflicts = [
            (self.faults.is_some(), "fault injection"),
            (self.retry.is_some(), "a retry policy"),
            (self.resilience.is_some(), "a resilience config"),
            (self.capper.is_some(), "a PowerCapper"),
        ];
        if let Some((_, what)) = conflicts.into_iter().find(|&(on, _)| on) {
            return Err(SimError::InvalidConfig(format!(
                "downstream tiers cannot be combined with {what}"
            )));
        }
        for (i, tier) in self.tiers.iter().enumerate() {
            if tier.servers == 0 || tier.cores == 0 {
                return Err(SimError::InvalidConfig(format!(
                    "tier {} needs at least one server and one core",
                    i + 1
                )));
            }
            check_count(format_args!("tiers[{i}].servers"), tier.servers)?;
            check_count(format_args!("tiers[{i}].cores"), tier.cores)?;
            check_table(&format!("tiers[{i}].service"), &tier.service)?;
            tier.idle_policy
                .validate()
                .map_err(|e| SimError::InvalidConfig(format!("tiers[{i}].{e}")))?;
        }
        Ok(())
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
            .with_resilience(ResilienceConfig {
                slo_deadline: Some(0.5),
                ..ResilienceConfig::new().with_hedge(0.1)
            });
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
    fn tiers_refuse_what_acts_on_one_cluster() {
        use crate::resilience::ResilienceConfig;
        use bighouse_models::{DvfsModel, LinearPowerModel, PowerCapper};
        let tiered =
            || base().with_tier(TierConfig::new(1, 2, base().workload().service().clone()));
        tiered().validate().unwrap();
        let names: Vec<String> = tiered()
            .tier_specs()
            .iter()
            .map(|s| s.name().to_owned())
            .collect();
        assert_eq!(names, ["tier_0_response", "tier_1_response"]);
        assert!(base().tier_specs().is_empty());
        assert_eq!(tiered().total_servers(), 2);

        let capper = PowerCapper::new(
            LinearPowerModel::typical_server(),
            DvfsModel::default(),
            500.0,
        );
        let conflicts = [
            (
                tiered().with_faults(FaultProcess::exponential(50.0, 2.0).unwrap()),
                "fault injection",
            ),
            (tiered().with_retry(RetryPolicy::new(1.0)), "a retry policy"),
            (
                tiered().with_resilience(ResilienceConfig::new()),
                "a resilience config",
            ),
            (tiered().with_capper(capper), "a PowerCapper"),
        ];
        for (config, what) in conflicts {
            match config.validate() {
                Err(SimError::InvalidConfig(msg)) => {
                    assert_eq!(
                        msg,
                        format!("downstream tiers cannot be combined with {what}")
                    );
                }
                other => panic!("tiers with {what}: {other:?}"),
            }
        }

        // A tier read from a file has no constructor to refuse it.
        let mut empty = tiered();
        empty.tiers[0].cores = 0;
        assert!(matches!(
            empty.validate(),
            Err(SimError::InvalidConfig(msg)) if msg == "tier 1 needs at least one server and one core"
        ));
    }

    #[test]
    fn utilization_rescales_workload() {
        let c = base();
        let scaled = base().with_utilization(0.5);
        assert!(scaled.workload().interarrival().mean() != c.workload().interarrival().mean());
    }

    /// Loads `value` with standard names resolved.
    fn load(value: &Value) -> Result<ExperimentConfig, SimError> {
        ExperimentConfig::load(value, WorkloadRef::resolve)
    }

    #[test]
    fn absent_keys_read_as_new_sets_them() {
        let web = bighouse_json::to_value(base().workload()).unwrap();
        let mut object = bighouse_json::Map::new();
        object.insert("workload", web);
        let read = ExperimentConfig::from_json(&Value::Object(object)).unwrap();
        assert_eq!(
            bighouse_json::to_string(&read),
            bighouse_json::to_string(&base())
        );
    }

    #[test]
    fn keys_are_what_the_config_writes_and_utilization() {
        let tiered = base().with_tier(TierConfig::new(1, 2, base().workload().service().clone()));
        let json = bighouse_json::to_value(&tiered).unwrap();
        let written: Vec<&str> = json
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(written, ExperimentConfig::KEYS[..21]);
        assert_eq!(ExperimentConfig::KEYS[21], "utilization");
    }

    #[test]
    fn a_written_config_loads_back_to_itself() {
        use crate::checkpoint::config_fingerprint;
        use crate::resilience::ResilienceConfig;
        use bighouse_models::{DvfsModel, LinearPowerModel, PowerCapper};
        let spec = MetricSpec::new("waiting_time")
            .with_target_accuracy(0.1)
            .with_quantiles(&[0.5, 0.99]);
        let equipped = base()
            .with_servers(3)
            .with_cores(2)
            .with_utilization(0.4)
            .with_idle_policy(IdlePolicy::PowerNap {
                wake_latency: 0.001,
            })
            .with_capper(PowerCapper::new(
                LinearPowerModel::typical_server().with_failed_watts(20.0),
                DvfsModel::new(0.7),
                450.0,
            ))
            .with_metric_spec(MetricKind::WaitingTime, spec)
            .with_metric(MetricKind::CappingLevel)
            .with_faults(FaultProcess::exponential(500.0, 5.0).unwrap())
            .with_retry(RetryPolicy::new(1.0).with_max_retries(2))
            .with_resilience(ResilienceConfig::new().with_hedge(0.1))
            .with_audit(AuditConfig::default())
            .with_max_events(1_000_000);
        let tiered = base()
            .with_arrival_mode(ArrivalMode::LoadBalanced(BalancerPolicy::JoinShortestQueue))
            .with_tier(TierConfig::new(2, 4, base().workload().service().clone()));
        for config in [base(), equipped, tiered] {
            let written = bighouse_json::to_value(&config).unwrap();
            let loaded = load(&written).unwrap();
            assert_eq!(
                bighouse_json::to_string(&loaded),
                bighouse_json::to_string(&config)
            );
            assert_eq!(
                config_fingerprint(&loaded, 2012),
                config_fingerprint(&config, 2012)
            );
        }
    }

    #[test]
    fn load_matches_the_same_config_built_in_code() {
        let value = bighouse_json::parse(
            r#"{"workload": {"standard": "WEB"}, "servers": 4, "cores_per_server": 2,
                "utilization": 0.3, "metrics": ["waiting_time", "response_time"],
                "capper": {"total_budget_watts": 600.0}, "target_accuracy": 0.1}"#,
        )
        .unwrap();
        let built = base()
            .with_servers(4)
            .with_cores(2)
            .with_utilization(0.3)
            .with_metric(MetricKind::WaitingTime)
            .with_capper(PowerCapper::new(
                LinearPowerModel::typical_server(),
                DvfsModel::default(),
                600.0,
            ))
            .with_target_accuracy(0.1);
        assert_eq!(
            bighouse_json::to_string(&load(&value).unwrap()),
            bighouse_json::to_string(&built)
        );
    }

    #[test]
    fn validate_names_the_path_of_every_value_an_assert_guards() {
        use crate::resilience::ResilienceConfig;
        let web = base();
        let tier = || TierConfig::new(1, 2, web.workload().service().clone());
        let mut cases: Vec<(ExperimentConfig, &str)> = Vec::new();
        let mut case = |edit: &dyn Fn(&mut ExperimentConfig), path| {
            let mut config = base();
            edit(&mut config);
            cases.push((config, path));
        };
        case(&|c| c.servers = 0, "servers = 0");
        case(
            &|c| c.cores_per_server = 1 << 32,
            "cores_per_server = 4294967296",
        );
        case(&|c| c.target_accuracy = f64::NAN, "target_accuracy = NaN");
        case(&|c| c.target_accuracy = 1e-300, "target_accuracy = ");
        case(&|c| c.confidence = 1.0, "confidence = 1");
        case(&|c| c.quantile = -0.5, "quantile = -0.5");
        case(&|c| c.calibration = 0, "calibration = 0");
        case(
            &|c| c.metrics[0].1 = Some(MetricSpec::new("waiting_time")),
            "metrics[0].name = waiting_time",
        );
        case(
            &|c| c.metrics[0].1 = Some(MetricSpec::new("response_time").with_max_lag(1)),
            "",
        );
        case(
            &|c| {
                c.idle_policy = IdlePolicy::TimeoutNap {
                    idle_timeout: 2e12,
                    wake_latency: 0.0,
                }
            },
            "idle_policy.idle_timeout = 2000000000000",
        );
        case(
            &|c| c.dvfs = bighouse_json::from_str(r#"{"alpha": 2.0}"#).unwrap(),
            "dvfs.alpha = 2",
        );
        case(
            &|c| {
                c.power_model = Some(
                    bighouse_json::from_str(
                        r#"{"idle_watts": "inf", "dynamic_watts": 1.0, "nap_watts": 0.0}"#,
                    )
                    .unwrap(),
                )
            },
            "power_model.idle_watts = inf",
        );
        case(
            &|c| {
                c.capper = Some(bighouse_json::from_str(r#"{"total_budget_watts": -1.0}"#).unwrap())
            },
            "capper.total_budget_watts = -1",
        );
        case(
            &|c| {
                c.audit = Some(AuditConfig {
                    stall_limit_events: 1,
                    ..AuditConfig::default()
                })
            },
            "audit.stall_limit_events = 1",
        );
        case(
            &|c| c.retry = Some(RetryPolicy::new(2e12)),
            "retry.timeout = 2000000000000",
        );
        case(
            &|c| c.faults = Some(FaultProcess::exponential(2e12, 1.0).unwrap()),
            "faults.mtbf = 2000000000000",
        );
        case(
            &|c| c.resilience = Some(ResilienceConfig::new().with_ramp(0.0, 1.0, 1e-13)),
            "resilience.ramp.multiplier",
        );
        case(
            &|c| {
                let tables = bighouse_json::to_value(c.workload()).unwrap();
                let scaled = c.workload().with_service_scale(1e12).unwrap();
                assert_ne!(bighouse_json::to_value(&scaled).unwrap(), tables);
                c.workload = scaled;
            },
            "workload.service (its largest value)",
        );
        case(
            &|c| {
                c.tiers.push(tier().with_idle_policy(IdlePolicy::PowerNap {
                    wake_latency: f64::NAN,
                }));
            },
            "tiers[0].idle_policy.wake_latency = NaN",
        );
        case(
            &|c| {
                let mut t = tier();
                t.servers = usize::MAX;
                c.tiers.push(t);
            },
            "tiers[0].servers",
        );
        for (config, path) in cases {
            if path.is_empty() {
                config.validate().unwrap();
                continue;
            }
            match config.validate() {
                Err(SimError::InvalidConfig(msg)) => {
                    assert!(msg.starts_with(path), "{path}: {msg}");
                }
                other => panic!("{path}: {other:?}"),
            }
        }
    }

    #[test]
    fn a_refused_float_prints_in_shortest_form() {
        // `Display` would spell f64::MAX as a 309-digit integer.
        let json = r#"{"workload": {"standard": "web"}, "utilization": 1.7976931348623157e308}"#;
        match load(&bighouse_json::parse(json).unwrap()) {
            Err(SimError::InvalidConfig(msg)) => {
                assert_eq!(
                    msg,
                    "utilization = 1.7976931348623157e308: must be in (0, 1)"
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn a_refused_retry_float_prints_in_shortest_form() {
        let json =
            r#"{"workload": {"standard": "web"}, "retry": {"timeout": -1.7976931348623157e308}}"#;
        match load(&bighouse_json::parse(json).unwrap()) {
            Err(SimError::InvalidConfig(msg)) => {
                assert_eq!(
                    msg,
                    "retry timeout must be positive and finite, got -1.7976931348623157e308 at `retry`"
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn a_refused_fault_mean_names_its_phase_in_shortest_form() {
        let json = r#"{"workload": {"standard": "web"},
            "faults": {"spec": {"mtbf": -1.7976931348623157e308, "mttr": 1}}}"#;
        match load(&bighouse_json::parse(json).unwrap()) {
            Err(SimError::InvalidConfig(msg)) => {
                assert!(msg.contains("mtbf"), "{msg}");
                assert!(msg.contains("-1.7976931348623157e308"), "{msg}");
                assert!(!msg.contains('\n'), "{msg}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn every_fault_process_goes_on_the_wire() {
        use bighouse_faults::FaultProcess;
        for faults in [
            FaultProcess::exponential(50.0, 2.0),
            FaultProcess::weibull(0.7, 50.0, 0.7, 2.0),
            FaultProcess::weibull(0.7, 50.0, 2.0, 2.0),
        ] {
            let config = base().with_faults(faults.unwrap());
            let json = bighouse_json::to_value(&config).unwrap();
            let back = load(&json).unwrap();
            assert_eq!(back.faults(), config.faults());
            assert_eq!(
                bighouse_json::to_string(&back),
                bighouse_json::to_string(&config)
            );
        }
    }

    #[test]
    fn load_refuses_the_old_schema_keys_by_their_new_names() {
        for (old, new) in RENAMED_KEYS {
            let mut json = String::from(r#"{"workload": {"standard": "web"}, "#);
            match old.split_once('.') {
                Some((outer, inner)) => json.push_str(&format!(r#""{outer}": {{"{inner}": 1}}}}"#)),
                None => json.push_str(&format!(r#""{old}": 1}}"#)),
            }
            match load(&bighouse_json::parse(&json).unwrap()) {
                Err(SimError::InvalidConfig(msg)) => {
                    assert_eq!(msg, format!("`{old}` is no longer read: use {new}"));
                }
                other => panic!("{old}: {other:?}"),
            }
        }
    }
}
