//! The JSON experiment schema.

use serde::{Deserialize, Serialize};

use bighouse::faults::{FaultSpec, RetrySpec};
use bighouse::models::{DvfsModel, IdlePolicy, LinearPowerModel, PowerCapper};
use bighouse::sim::{
    AdmissionPolicy, AuditConfig, ExperimentConfig, HedgePolicy, MetricKind, OverloadRamp,
    ResilienceConfig, SheddingPolicy,
};
use bighouse::workloads::{StandardWorkload, Workload};

/// Error decoding or resolving an experiment specification.
#[derive(Debug)]
pub enum SpecError {
    /// The JSON could not be parsed.
    Format(serde_json::Error),
    /// A referenced file could not be read.
    Io(std::io::Error),
    /// The spec referenced an unknown name or carried an invalid value.
    Invalid(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Format(e) => write!(f, "experiment spec is malformed: {e}"),
            SpecError::Io(e) => write!(f, "experiment spec I/O failed: {e}"),
            SpecError::Invalid(msg) => write!(f, "experiment spec is invalid: {msg}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<serde_json::Error> for SpecError {
    fn from(e: serde_json::Error) -> Self {
        SpecError::Format(e)
    }
}
impl From<std::io::Error> for SpecError {
    fn from(e: std::io::Error) -> Self {
        SpecError::Io(e)
    }
}

/// How the spec names its workload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum WorkloadRef {
    /// One of the five Table 1 workloads, by name (case-insensitive).
    Standard(String),
    /// A workload JSON file written by `Workload::save`.
    File(String),
}

impl WorkloadRef {
    /// Resolves the reference to a concrete workload.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown standard names or unreadable files.
    pub fn resolve(&self) -> Result<Workload, SpecError> {
        match self {
            WorkloadRef::Standard(name) => {
                let which = StandardWorkload::ALL
                    .into_iter()
                    .find(|w| w.name().eq_ignore_ascii_case(name))
                    .ok_or_else(|| {
                        SpecError::Invalid(format!(
                            "unknown standard workload `{name}` (expected one of: {})",
                            StandardWorkload::ALL.map(|w| w.name()).join(", ")
                        ))
                    })?;
                Ok(Workload::standard(which))
            }
            WorkloadRef::File(path) => Workload::load(path)
                .map_err(|e| SpecError::Invalid(format!("could not load workload {path}: {e}"))),
        }
    }
}

/// Optional power-capping block of the spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CappingSpec {
    /// Cluster budget as a fraction of aggregate peak power.
    pub budget_fraction: f64,
    /// CPU-boundedness α of the DVFS model (default 0.9).
    #[serde(default = "default_alpha")]
    pub alpha: f64,
}

fn default_alpha() -> f64 {
    DvfsModel::DEFAULT_ALPHA
}

/// Optional paranoid-mode block of the spec: overrides for the runtime
/// invariant auditor's circuit-breaker thresholds. Every field is
/// optional; omitted fields keep [`AuditConfig`]'s defaults. Presence of
/// the block (even empty, `"paranoid": {}`) turns auditing on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditSpec {
    /// Events between invariant sweeps (default 4096).
    #[serde(default)]
    pub check_interval_events: Option<u64>,
    /// Consecutive zero-advance events tolerated before the livelock
    /// breaker trips (default 100 000, minimum 2).
    #[serde(default)]
    pub stall_limit_events: Option<u64>,
    /// Event-rate budget, in events per simulated second, that trips the
    /// event-storm breaker (default 1e9; must be positive and finite).
    #[serde(default)]
    pub storm_budget_events_per_sim_second: Option<f64>,
    /// Window, in events, over which the storm budget is evaluated
    /// (default 1 048 576, minimum 2).
    #[serde(default)]
    pub storm_window_events: Option<u64>,
}

impl AuditSpec {
    /// Range-checks the override values, naming the offending field.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Invalid`] naming the field and its requirement.
    pub fn validate(&self) -> Result<(), SpecError> {
        fn check(
            ok: bool,
            field: &str,
            value: &dyn std::fmt::Display,
            requirement: &str,
        ) -> Result<(), SpecError> {
            if ok {
                Ok(())
            } else {
                Err(SpecError::Invalid(format!(
                    "{field} = {value}: must be {requirement}"
                )))
            }
        }
        if let Some(v) = self.check_interval_events {
            check(v >= 1, "paranoid.check_interval_events", &v, "at least 1")?;
        }
        if let Some(v) = self.stall_limit_events {
            check(v >= 2, "paranoid.stall_limit_events", &v, "at least 2")?;
        }
        if let Some(v) = self.storm_budget_events_per_sim_second {
            check(
                v.is_finite() && v > 0.0,
                "paranoid.storm_budget_events_per_sim_second",
                &v,
                "positive and finite",
            )?;
        }
        if let Some(v) = self.storm_window_events {
            check(v >= 2, "paranoid.storm_window_events", &v, "at least 2")?;
        }
        Ok(())
    }

    /// Applies the overrides onto the default [`AuditConfig`].
    #[must_use]
    pub fn resolve(&self) -> AuditConfig {
        let mut audit = AuditConfig::default();
        if let Some(v) = self.check_interval_events {
            audit.check_interval_events = v;
        }
        if let Some(v) = self.stall_limit_events {
            audit.stall_limit_events = v;
        }
        if let Some(v) = self.storm_budget_events_per_sim_second {
            audit.storm_budget_events_per_sim_second = v;
        }
        if let Some(v) = self.storm_window_events {
            audit.storm_window_events = v;
        }
        audit
    }
}

/// Optional overload-resilience block of the spec: admission control,
/// priority-class shedding, hedged requests, a deterministic overload
/// ramp, and SLO tracking. Every field is optional; presence of the block
/// (even empty, `"resilience": {}`) turns request tracking on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilienceSpec {
    /// Front-door admission control, e.g.
    /// `{"BoundedQueue": {"capacity": 64}}` or
    /// `{"TokenBucket": {"rate": 500.0, "burst": 32.0}}`.
    #[serde(default)]
    pub admission: Option<AdmissionPolicy>,
    /// Per-class queue-depth shedding thresholds (class 0 first).
    #[serde(default)]
    pub shedding: Option<Vec<usize>>,
    /// Hedge launch deadline in seconds (requires at least 2 servers).
    #[serde(default)]
    pub hedge_deadline: Option<f64>,
    /// Number of priority classes (default 1).
    #[serde(default = "default_classes")]
    pub classes: usize,
    /// Relative arrival weight per class; empty means uniform.
    #[serde(default)]
    pub class_weights: Vec<f64>,
    /// Deterministic overload interval multiplying the arrival rate.
    #[serde(default)]
    pub ramp: Option<OverloadRamp>,
    /// Per-request SLO deadline in seconds.
    #[serde(default)]
    pub slo_deadline: Option<f64>,
}

fn default_classes() -> usize {
    1
}

impl ResilienceSpec {
    /// Builds the simulator-level config (unvalidated — see
    /// [`ResilienceSpec::validate`]).
    #[must_use]
    pub fn to_config(&self) -> ResilienceConfig {
        ResilienceConfig {
            admission: self.admission,
            shedding: self
                .shedding
                .clone()
                .map(|depth_thresholds| SheddingPolicy { depth_thresholds }),
            hedge: self.hedge_deadline.map(|deadline| HedgePolicy { deadline }),
            classes: self.classes,
            class_weights: self.class_weights.clone(),
            ramp: self.ramp,
            slo_deadline: self.slo_deadline,
        }
    }

    /// Range-checks the block against the cluster size, naming the
    /// offending field (`resilience.…`) on failure.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Invalid`] naming the field and its requirement.
    pub fn validate(&self, servers: usize) -> Result<(), SpecError> {
        self.to_config()
            .validate(servers)
            .map_err(|e| SpecError::Invalid(e.to_string()))
    }
}

fn default_servers() -> usize {
    1
}
fn default_cores() -> usize {
    4
}
fn default_accuracy() -> f64 {
    0.05
}
fn default_confidence() -> f64 {
    0.95
}
fn default_quantile() -> f64 {
    0.95
}
fn default_warmup() -> u64 {
    1000
}
fn default_calibration() -> usize {
    5000
}
fn default_max_events() -> u64 {
    u64::MAX
}
fn default_metrics() -> Vec<String> {
    vec!["response_time".to_owned()]
}

/// A complete experiment description, decodable from JSON.
///
/// # Examples
///
/// ```
/// use bighouse_cli::ExperimentSpec;
///
/// let json = r#"{
///     "workload": { "standard": "Web" },
///     "servers": 4,
///     "utilization": 0.5,
///     "metrics": ["response_time", "waiting_time"],
///     "accuracy": 0.05
/// }"#;
/// let spec = ExperimentSpec::from_json(json)?;
/// let config = spec.resolve()?;
/// assert_eq!(config.servers(), 4);
/// # Ok::<(), bighouse_cli::SpecError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// The workload to simulate.
    pub workload: WorkloadRef,
    /// Number of servers (default 1).
    #[serde(default = "default_servers")]
    pub servers: usize,
    /// Cores per server (default 4, the paper's quad-core).
    #[serde(default = "default_cores")]
    pub cores: usize,
    /// Per-server load as a fraction of peak (omit to use the workload's
    /// as-measured arrival process).
    #[serde(default)]
    pub utilization: Option<f64>,
    /// Idle low-power policy (default always-on).
    #[serde(default)]
    pub idle_policy: Option<IdlePolicy>,
    /// Optional global power capping.
    #[serde(default)]
    pub capping: Option<CappingSpec>,
    /// Optional server fault injection (MTBF/MTTR in seconds).
    #[serde(default)]
    pub faults: Option<FaultSpec>,
    /// Optional request timeout + retry policy (seconds).
    #[serde(default)]
    pub retry: Option<RetrySpec>,
    /// Metrics to observe, by name (default: response_time).
    #[serde(default = "default_metrics")]
    pub metrics: Vec<String>,
    /// Relative accuracy target E (default 0.05).
    #[serde(default = "default_accuracy")]
    pub accuracy: f64,
    /// Confidence level (default 0.95).
    #[serde(default = "default_confidence")]
    pub confidence: f64,
    /// Tracked quantile (default 0.95).
    #[serde(default = "default_quantile")]
    pub quantile: f64,
    /// Warm-up observations per metric (default 1000).
    #[serde(default = "default_warmup")]
    pub warmup: u64,
    /// Calibration sample size per metric (default 5000).
    #[serde(default = "default_calibration")]
    pub calibration: usize,
    /// Event cap (default unlimited).
    #[serde(default = "default_max_events")]
    pub max_events: u64,
    /// Run with this many parallel slaves instead of serially (optional).
    #[serde(default)]
    pub slaves: Option<usize>,
    /// Optional paranoid-mode auditing with threshold overrides. Presence
    /// of the block turns the runtime invariant auditor on.
    #[serde(default)]
    pub paranoid: Option<AuditSpec>,
    /// Optional overload-resilience block: admission control, shedding,
    /// hedged requests, overload ramp, SLO tracking.
    #[serde(default)]
    pub resilience: Option<ResilienceSpec>,
}

impl ExperimentSpec {
    /// Parses a spec from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Format`] for malformed JSON.
    pub fn from_json(json: &str) -> Result<Self, SpecError> {
        Ok(serde_json::from_str(json)?)
    }

    /// Loads a spec from a JSON file.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O or parse failure.
    pub fn from_file(path: impl AsRef<std::path::Path>) -> Result<Self, SpecError> {
        Self::from_json(&std::fs::read_to_string(path)?)
    }

    /// A template spec users can start from (`bighouse example-config`).
    #[must_use]
    pub fn template() -> Self {
        ExperimentSpec {
            workload: WorkloadRef::Standard("Web".into()),
            servers: 16,
            cores: 4,
            utilization: Some(0.5),
            idle_policy: None,
            capping: Some(CappingSpec {
                budget_fraction: 0.7,
                alpha: DvfsModel::DEFAULT_ALPHA,
            }),
            faults: None,
            retry: None,
            metrics: [MetricKind::ResponseTime, MetricKind::CappingLevel]
                .map(|kind| kind.name().to_owned())
                .to_vec(),
            accuracy: 0.05,
            confidence: 0.95,
            quantile: 0.95,
            warmup: 1000,
            calibration: 5000,
            max_events: 1_000_000_000,
            slaves: None,
            paranoid: None,
            resilience: None,
        }
    }

    /// Range-checks every numeric field **before** any config builder
    /// sees it, naming the offending field. The builders enforce the same
    /// ranges by panicking — fine for programmatic misuse, wrong for a
    /// JSON file a user (or a fuzzer) feeds the CLI: `serde_json` happily
    /// parses `1e999` as `inf` and `-0.5` as itself, and neither must
    /// ever reach an `assert!`.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Invalid`] naming the field and its requirement.
    pub fn validate(&self) -> Result<(), SpecError> {
        fn check(
            ok: bool,
            field: &str,
            value: &dyn std::fmt::Display,
            requirement: &str,
        ) -> Result<(), SpecError> {
            if ok {
                Ok(())
            } else {
                Err(SpecError::Invalid(format!(
                    "{field} = {value}: must be {requirement}"
                )))
            }
        }
        check(self.servers >= 1, "servers", &self.servers, "at least 1")?;
        check(self.cores >= 1, "cores", &self.cores, "at least 1")?;
        if let Some(u) = self.utilization {
            check(u > 0.0 && u < 1.0, "utilization", &u, "in (0, 1)")?;
        }
        check(
            self.accuracy > 0.0 && self.accuracy < 1.0,
            "accuracy",
            &self.accuracy,
            "in (0, 1)",
        )?;
        check(
            self.confidence > 0.0 && self.confidence < 1.0,
            "confidence",
            &self.confidence,
            "in (0, 1)",
        )?;
        check(
            self.quantile > 0.0 && self.quantile < 1.0,
            "quantile",
            &self.quantile,
            "in (0, 1)",
        )?;
        check(
            self.calibration >= 1,
            "calibration",
            &self.calibration,
            "at least 1",
        )?;
        if let Some(capping) = &self.capping {
            check(
                capping.budget_fraction.is_finite() && capping.budget_fraction > 0.0,
                "capping.budget_fraction",
                &capping.budget_fraction,
                "positive and finite",
            )?;
            check(
                (0.0..=1.0).contains(&capping.alpha),
                "capping.alpha",
                &capping.alpha,
                "in [0, 1]",
            )?;
        }
        if let Some(slaves) = self.slaves {
            check(slaves >= 1, "slaves", &slaves, "at least 1")?;
        }
        if let Some(paranoid) = &self.paranoid {
            paranoid.validate()?;
        }
        if let Some(resilience) = &self.resilience {
            resilience.validate(self.servers)?;
        }
        Ok(())
    }

    /// Resolves the spec into a runnable [`ExperimentConfig`].
    ///
    /// # Errors
    ///
    /// Returns an error for unknown workloads or metric names, or values
    /// outside their valid ranges (see [`ExperimentSpec::validate`]).
    pub fn resolve(&self) -> Result<ExperimentConfig, SpecError> {
        self.validate()?;
        let workload = self.workload.resolve()?;
        let mut config = ExperimentConfig::new(workload)
            .with_servers(self.servers)
            .with_cores(self.cores)
            .with_target_accuracy(self.accuracy)
            .with_confidence(self.confidence)
            .with_quantile(self.quantile)
            .with_warmup(self.warmup)
            .with_calibration(self.calibration)
            .with_max_events(self.max_events);
        if let Some(u) = self.utilization {
            config = config.with_utilization(u);
        }
        if let Some(policy) = self.idle_policy {
            config = config.with_idle_policy(policy);
        }
        if let Some(capping) = &self.capping {
            let model = LinearPowerModel::typical_server();
            let budget = model.peak_watts() * self.servers as f64 * capping.budget_fraction;
            if !budget.is_finite() {
                return Err(SpecError::Invalid(format!(
                    "capping.budget_fraction = {}: cluster budget overflows f64",
                    capping.budget_fraction
                )));
            }
            config = config.with_capper(PowerCapper::new(
                model,
                DvfsModel::new(capping.alpha),
                budget,
            ));
        }
        if let Some(faults) = &self.faults {
            let process = faults
                .build()
                .map_err(|e| SpecError::Invalid(format!("faults block: {e}")))?;
            config = config.with_faults(process);
        }
        if let Some(retry) = &self.retry {
            let policy = retry
                .build()
                .map_err(|e| SpecError::Invalid(format!("retry block: {e}")))?;
            config = config.with_retry(policy);
        }
        if let Some(paranoid) = &self.paranoid {
            config = config.with_audit(paranoid.resolve());
        }
        if let Some(resilience) = &self.resilience {
            config = config.with_resilience(resilience.to_config());
        }
        for name in &self.metrics {
            let kind = MetricKind::from_name(name).ok_or_else(|| {
                SpecError::Invalid(format!(
                    "unknown metric `{name}` (expected one of: {})",
                    MetricKind::ALL.map(|kind| kind.name()).join(", ")
                ))
            })?;
            config = config.with_metric(kind);
        }
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_spec_gets_defaults() {
        let spec = ExperimentSpec::from_json(r#"{"workload": {"standard": "dns"}}"#).unwrap();
        assert_eq!(spec.servers, 1);
        assert_eq!(spec.cores, 4);
        assert_eq!(spec.accuracy, 0.05);
        assert_eq!(spec.metrics, vec!["response_time"]);
        let config = spec.resolve().unwrap();
        assert_eq!(config.servers(), 1);
    }

    #[test]
    fn template_round_trips_and_resolves() {
        let template = ExperimentSpec::template();
        let json = serde_json::to_string_pretty(&template).unwrap();
        let back = ExperimentSpec::from_json(&json).unwrap();
        assert_eq!(template, back);
        let config = back.resolve().unwrap();
        assert_eq!(config.servers(), 16);
    }

    #[test]
    fn standard_names_are_case_insensitive() {
        for name in ["web", "WEB", "Web"] {
            let r = WorkloadRef::Standard(name.into());
            assert!(r.resolve().is_ok(), "{name} should resolve");
        }
    }

    #[test]
    fn unknown_workload_rejected() {
        let r = WorkloadRef::Standard("nope".into());
        assert!(matches!(r.resolve(), Err(SpecError::Invalid(_))));
    }

    #[test]
    fn every_metric_kind_is_a_spec_name_and_the_error_lists_them_all() {
        let resolve = |name: &str| {
            let metrics = vec![name.to_owned()];
            let spec = ExperimentSpec {
                metrics,
                ..ExperimentSpec::template()
            };
            spec.resolve()
        };
        for kind in MetricKind::ALL {
            let specs = resolve(kind.name()).unwrap().metric_specs();
            assert!(specs.iter().any(|(k, _)| *k == kind), "{}", kind.name());
        }
        let err = resolve("latency").unwrap_err().to_string();
        let (_, listed) = err.split_once("expected one of: ").expect("a name list");
        let listed: Vec<&str> = listed.trim_end_matches(')').split(", ").collect();
        assert_eq!(listed, MetricKind::ALL.map(|kind| kind.name()));
    }

    #[test]
    fn capping_metric_requires_capping_block() {
        let spec = ExperimentSpec::from_json(
            r#"{"workload": {"standard": "web"},
                "capping": {"budget_fraction": 0.7},
                "metrics": ["response_time", "capping_level"]}"#,
        )
        .unwrap();
        assert!(spec.resolve().is_ok());
    }

    #[test]
    fn fault_and_retry_blocks_resolve() {
        let spec = ExperimentSpec::from_json(
            r#"{"workload": {"standard": "web"},
                "servers": 4,
                "faults": {"mtbf": 3600.0, "mttr": 120.0},
                "retry": {"timeout": 1.0, "max_retries": 2},
                "metrics": ["response_time", "availability"]}"#,
        )
        .unwrap();
        let config = spec.resolve().unwrap();
        assert!(config.faults().is_some());
        let retry = config.retry().expect("retry configured");
        assert_eq!(retry.max_retries(), 2);
    }

    #[test]
    fn weibull_fault_shape_decodes() {
        let spec = ExperimentSpec::from_json(
            r#"{"workload": {"standard": "web"},
                "faults": {"mtbf": 1000.0, "mttr": 60.0, "shape": 0.7}}"#,
        )
        .unwrap();
        assert!(spec.resolve().is_ok());
    }

    #[test]
    fn invalid_fault_block_rejected() {
        let spec = ExperimentSpec::from_json(
            r#"{"workload": {"standard": "web"}, "faults": {"mtbf": -5.0, "mttr": 10.0}}"#,
        )
        .unwrap();
        assert!(matches!(spec.resolve(), Err(SpecError::Invalid(_))));
    }

    #[test]
    fn availability_metric_without_faults_fails_at_run_build() {
        // The spec resolves (the metric name is known); the config-level
        // validation rejects it when the simulation is built.
        let spec = ExperimentSpec::from_json(
            r#"{"workload": {"standard": "web"}, "metrics": ["availability"]}"#,
        )
        .unwrap();
        let config = spec.resolve().unwrap();
        assert!(bighouse::sim::run_serial(&config, 1).is_err());
    }

    #[test]
    fn bad_utilization_rejected() {
        let spec =
            ExperimentSpec::from_json(r#"{"workload": {"standard": "web"}, "utilization": 1.5}"#)
                .unwrap();
        assert!(matches!(spec.resolve(), Err(SpecError::Invalid(_))));
    }

    #[test]
    fn hostile_numeric_fields_are_errors_not_panics() {
        // serde_json parses `1e999` as infinity — every range check must
        // catch it (and NaN, and zeros) before a builder can assert.
        let cases = [
            (r#""accuracy": 1e999"#, "accuracy"),
            (r#""accuracy": -0.5"#, "accuracy"),
            (r#""confidence": 0.0"#, "confidence"),
            (r#""confidence": 17.0"#, "confidence"),
            (r#""quantile": 1.0"#, "quantile"),
            (r#""servers": 0"#, "servers"),
            (r#""cores": 0"#, "cores"),
            (r#""calibration": 0"#, "calibration"),
            (r#""slaves": 0"#, "slaves"),
            (r#""utilization": 1e999"#, "utilization"),
            (
                r#""capping": {"budget_fraction": 1e999}"#,
                "capping.budget_fraction",
            ),
            (
                r#""capping": {"budget_fraction": 0.7, "alpha": 1.5}"#,
                "capping.alpha",
            ),
            (
                r#""capping": {"budget_fraction": 1e308}"#,
                "capping.budget_fraction",
            ),
            (
                r#""paranoid": {"check_interval_events": 0}"#,
                "paranoid.check_interval_events",
            ),
            (
                r#""paranoid": {"stall_limit_events": 1}"#,
                "paranoid.stall_limit_events",
            ),
            (
                r#""paranoid": {"storm_budget_events_per_sim_second": 0.0}"#,
                "paranoid.storm_budget_events_per_sim_second",
            ),
            (
                r#""paranoid": {"storm_budget_events_per_sim_second": -3.0}"#,
                "paranoid.storm_budget_events_per_sim_second",
            ),
            (
                r#""paranoid": {"storm_budget_events_per_sim_second": 1e999}"#,
                "paranoid.storm_budget_events_per_sim_second",
            ),
            (
                r#""paranoid": {"storm_window_events": 1}"#,
                "paranoid.storm_window_events",
            ),
        ];
        for (field, expected) in cases {
            let json = format!(r#"{{"workload": {{"standard": "web"}}, {field}}}"#);
            let spec = ExperimentSpec::from_json(&json).expect("valid JSON shape");
            let err = spec
                .resolve()
                .expect_err(&format!("{field} must be rejected"));
            let msg = err.to_string();
            assert!(
                msg.contains(expected),
                "error for `{field}` should name `{expected}`: {msg}"
            );
        }
    }

    #[test]
    fn resilience_block_resolves_with_all_features() {
        let spec = ExperimentSpec::from_json(
            r#"{"workload": {"standard": "web"},
                "servers": 4,
                "resilience": {
                    "admission": {"BoundedQueue": {"capacity": 64}},
                    "shedding": [64, 32],
                    "hedge_deadline": 0.25,
                    "classes": 2,
                    "class_weights": [3.0, 1.0],
                    "ramp": {"start": 100.0, "duration": 50.0, "multiplier": 3.0},
                    "slo_deadline": 0.5
                },
                "metrics": ["response_time", "shed_rate", "hedge_win_rate",
                            "goodput_fraction", "slo_attainment"]}"#,
        )
        .unwrap();
        let config = spec.resolve().unwrap();
        let r = config.resilience().expect("resilience block enables it");
        assert_eq!(r.classes, 2);
        assert!(r.hedge.is_some());
    }

    #[test]
    fn empty_resilience_block_is_tracking_only() {
        let spec =
            ExperimentSpec::from_json(r#"{"workload": {"standard": "web"}, "resilience": {}}"#)
                .unwrap();
        let config = spec.resolve().unwrap();
        let r = config
            .resilience()
            .expect("block presence enables tracking");
        assert_eq!(r, &ResilienceConfig::default());
    }

    #[test]
    fn hostile_resilience_fields_are_errors_not_panics() {
        let cases = [
            (
                r#""resilience": {"admission": {"BoundedQueue": {"capacity": 0}}}"#,
                "resilience.admission.capacity",
            ),
            (
                r#""resilience": {"admission": {"TokenBucket": {"rate": 1e999, "burst": 5.0}}}"#,
                "resilience.admission.rate",
            ),
            (
                r#""resilience": {"admission": {"TokenBucket": {"rate": 10.0, "burst": 0.5}}}"#,
                "resilience.admission.burst",
            ),
            (r#""resilience": {"classes": 0}"#, "resilience.classes"),
            (
                r#""resilience": {"classes": 2, "class_weights": [1.0]}"#,
                "resilience.class_weights",
            ),
            (
                r#""resilience": {"classes": 2, "class_weights": [1.0, -2.0]}"#,
                "resilience.class_weights",
            ),
            (
                r#""resilience": {"classes": 2, "shedding": [10]}"#,
                "resilience.shedding",
            ),
            (
                r#""resilience": {"hedge_deadline": 0.0}"#,
                "resilience.hedge",
            ),
            (
                r#""resilience": {"ramp": {"start": -1.0, "duration": 5.0, "multiplier": 2.0}}"#,
                "resilience.ramp.start",
            ),
            (
                r#""resilience": {"ramp": {"start": 0.0, "duration": 0.0, "multiplier": 2.0}}"#,
                "resilience.ramp.duration",
            ),
            (
                r#""resilience": {"ramp": {"start": 0.0, "duration": 5.0, "multiplier": 1e999}}"#,
                "resilience.ramp.multiplier",
            ),
            (
                r#""resilience": {"slo_deadline": -0.5}"#,
                "resilience.slo_deadline",
            ),
        ];
        for (field, expected) in cases {
            let json = format!(r#"{{"workload": {{"standard": "web"}}, {field}}}"#);
            let spec = ExperimentSpec::from_json(&json).expect("valid JSON shape");
            let err = spec
                .resolve()
                .expect_err(&format!("{field} must be rejected"));
            let msg = err.to_string();
            assert!(
                msg.contains(expected),
                "error for `{field}` should name `{expected}`: {msg}"
            );
        }
    }

    #[test]
    fn hedging_on_one_server_is_rejected_at_spec_level() {
        // A hedge needs somewhere else to send the duplicate.
        let spec = ExperimentSpec::from_json(
            r#"{"workload": {"standard": "web"},
                "servers": 1,
                "resilience": {"hedge_deadline": 0.5}}"#,
        )
        .unwrap();
        let err = spec.resolve().unwrap_err().to_string();
        assert!(err.contains("resilience.hedge"), "{err}");
    }

    #[test]
    fn resilience_metrics_without_the_block_fail_at_run_build() {
        // Like availability-without-faults: the names resolve, the
        // config-level validation rejects them when the run is built.
        let spec = ExperimentSpec::from_json(
            r#"{"workload": {"standard": "web"}, "metrics": ["shed_rate"]}"#,
        )
        .unwrap();
        let config = spec.resolve().unwrap();
        assert!(bighouse::sim::run_serial(&config, 1).is_err());
    }

    #[test]
    fn paranoid_block_turns_auditing_on_with_overrides() {
        let spec = ExperimentSpec::from_json(
            r#"{"workload": {"standard": "web"},
                "paranoid": {"stall_limit_events": 5000,
                             "storm_budget_events_per_sim_second": 2.5e8}}"#,
        )
        .unwrap();
        let config = spec.resolve().unwrap();
        let audit = config.audit().expect("paranoid block enables auditing");
        assert_eq!(audit.stall_limit_events, 5000);
        assert_eq!(audit.storm_budget_events_per_sim_second, 2.5e8);
        // Omitted fields keep the defaults.
        let defaults = AuditConfig::default();
        assert_eq!(audit.check_interval_events, defaults.check_interval_events);
        assert_eq!(audit.storm_window_events, defaults.storm_window_events);
    }

    #[test]
    fn empty_paranoid_block_is_defaults() {
        let spec =
            ExperimentSpec::from_json(r#"{"workload": {"standard": "web"}, "paranoid": {}}"#)
                .unwrap();
        let config = spec.resolve().unwrap();
        assert_eq!(config.audit(), Some(&AuditConfig::default()));
    }

    #[test]
    fn retired_fastpath_key_still_loads_and_changes_nothing() {
        // Specs written while `fastpath` was a field keep loading: the key
        // is ignored like any unknown one, in a spec and in a sweep base —
        // as is a sweep file's retired `pin_cores`.
        let plain = r#"{"workload": {"standard": "web"}, "utilization": 0.5,
            "accuracy": 0.2, "warmup": 50, "calibration": 500"#;
        let run = |json: &str| {
            let config = ExperimentSpec::from_json(json).unwrap().resolve().unwrap();
            bighouse::sim::run_serial(&config, 2012).unwrap().estimates
        };
        let legacy = format!(r#"{plain}, "fastpath": "off"}}"#);
        assert_eq!(run(&legacy), run(&format!("{plain}}}")));
        let sweep =
            crate::SweepSpec::from_json(&format!(r#"{{"base": {legacy}, "pin_cores": true}}"#))
                .unwrap();
        assert_eq!(
            sweep,
            crate::SweepSpec::from_json(&format!(r#"{{"base": {plain}}}}}"#)).unwrap()
        );
    }

    #[test]
    fn idle_policy_decodes() {
        let spec = ExperimentSpec::from_json(
            r#"{"workload": {"standard": "google"},
                "idle_policy": {"DreamWeaver": {"max_delay": 0.02, "wake_latency": 0.001}}}"#,
        )
        .unwrap();
        assert!(matches!(
            spec.idle_policy,
            Some(IdlePolicy::DreamWeaver { .. })
        ));
        assert!(spec.resolve().is_ok());
    }

    #[test]
    fn workload_file_reference_resolves() {
        let dir = std::env::temp_dir().join("bighouse-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("w.json");
        Workload::standard(StandardWorkload::Mail)
            .save(&path)
            .unwrap();
        let r = WorkloadRef::File(path.to_string_lossy().into_owned());
        let w = r.resolve().unwrap();
        assert_eq!(w.name(), "Mail");
        std::fs::remove_file(&path).unwrap();
    }
}
