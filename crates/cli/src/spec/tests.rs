use bighouse::models::IdlePolicy;
use bighouse::sim::{AuditConfig, ExperimentConfig, MetricKind, ResilienceConfig, SimError};
use bighouse::workloads::{StandardWorkload, Workload, WorkloadError, WorkloadRef};

use crate::EXAMPLE_CONFIG;

/// Loads an experiment file's text.
fn load(json: &str) -> Result<ExperimentConfig, SimError> {
    let value = bighouse_json::parse(json).expect("valid JSON");
    ExperimentConfig::load(&value, WorkloadRef::resolve)
}

/// A Web experiment with `fields` (each with its leading comma) added.
fn web(fields: &str) -> String {
    format!(r#"{{"workload": {{"standard": "web"}}{fields}}}"#)
}

/// The message of a load error.
fn refusal(json: &str) -> String {
    match load(json) {
        Err(SimError::InvalidConfig(msg)) => msg,
        other => panic!("`{json}` must be refused: {other:?}"),
    }
}

#[test]
fn minimal_spec_gets_defaults() {
    let config = load(r#"{"workload": {"standard": "dns"}}"#).unwrap();
    let new = ExperimentConfig::new(Workload::standard(StandardWorkload::Dns));
    assert_eq!(
        bighouse_json::to_string(&config),
        bighouse_json::to_string(&new)
    );
    assert_eq!(config.servers(), 1);
    assert_eq!(config.cores_per_server(), 4);
    let specs = config.metric_specs();
    assert_eq!(specs.len(), 1);
    assert_eq!(specs[0].0, MetricKind::ResponseTime);
    assert_eq!(specs[0].1.target_accuracy(), 0.05);
}

#[test]
fn template_round_trips_and_resolves() {
    let config = load(EXAMPLE_CONFIG).unwrap();
    config.validate().unwrap();
    assert_eq!(config.servers(), 16);
    let capper = config.metric_specs();
    assert_eq!(capper[1].0, MetricKind::CappingLevel);
    // What the config writes loads back to itself.
    let written = bighouse_json::to_string_pretty(&config);
    let back = load(&written).unwrap();
    assert_eq!(
        bighouse_json::to_string(&back),
        bighouse_json::to_string(&config)
    );
    // And it runs: a bounded run stops at its cap with a report.
    let report = bighouse::sim::run_serial(&config.with_max_events(20_000), 1).unwrap();
    assert_eq!(report.events_fired, 20_000);
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
    assert!(matches!(
        r.resolve(),
        Err(WorkloadError::UnknownStandard(_))
    ));
    let msg = refusal(r#"{"workload": {"standard": "nope"}}"#);
    assert!(
        msg.starts_with("workload: unknown standard workload `nope`"),
        "{msg}"
    );
}

#[test]
fn every_metric_kind_is_a_spec_name_and_the_error_lists_them_all() {
    // Everything any metric needs is configured.
    let equipped = |metrics: &str| {
        load(&web(&format!(
            r#", "servers": 2,
            "capper": {{"total_budget_watts": 500.0}},
            "faults": {{"spec": {{"mtbf": 3600.0, "mttr": 120.0}}}},
            "resilience": {{"hedge": {{"deadline": 0.1}}, "slo_deadline": 0.5}},
            "metrics": {metrics}"#
        )))
    };
    for kind in MetricKind::ALL {
        let specs = equipped(&format!(r#"["{}"]"#, kind.name()))
            .unwrap()
            .metric_specs();
        assert!(specs.iter().any(|(k, _)| *k == kind), "{}", kind.name());
    }
    let err = equipped(r#"["latency"]"#).unwrap_err().to_string();
    let (_, listed) = err.split_once("expected one of: ").expect("a name list");
    let listed = listed.split_once(')').expect("a closed list").0;
    let listed: Vec<&str> = listed.split(", ").collect();
    assert_eq!(listed, MetricKind::ALL.map(|kind| kind.name()));
    assert!(err.contains("at `metrics[0]`"), "{err}");
}

#[test]
fn capping_metric_requires_capping_block() {
    let capped = load(&web(r#", "capper": {"total_budget_watts": 140.0},
            "metrics": ["response_time", "capping_level"]"#))
    .unwrap();
    // The capper brings its models, as `with_capper` does.
    let metrics = capped.clone().with_metric(MetricKind::ServerPower);
    metrics.validate().unwrap();
    let msg = refusal(&web(r#", "metrics": ["response_time", "capping_level"]"#));
    assert_eq!(msg, "capping_level metric requires a PowerCapper");
}

#[test]
fn fault_and_retry_blocks_resolve() {
    let config = load(&web(r#", "servers": 4,
            "faults": {"spec": {"mtbf": 3600.0, "mttr": 120.0}},
            "retry": {"timeout": 1.0, "max_retries": 2},
            "metrics": ["response_time", "availability"]"#))
    .unwrap();
    assert!(config.faults().is_some());
    let retry = config.retry().expect("retry configured");
    assert_eq!(retry.max_retries(), 2);
}

#[test]
fn weibull_fault_shape_decodes() {
    let config = load(&web(
        r#", "faults": {"spec": {"mtbf": 1000.0, "mttr": 60.0, "shape": 0.7}}"#,
    ))
    .unwrap();
    assert!(config.faults().is_some());
}

#[test]
fn invalid_fault_block_rejected() {
    let msg = refusal(&web(
        r#", "faults": {"spec": {"mtbf": -5.0, "mttr": 10.0}}"#,
    ));
    assert!(msg.contains("at `faults`"), "{msg}");
}

#[test]
fn availability_metric_without_faults_fails_at_run_build() {
    // The name is known; the missing prerequisite is refused by
    // `validate`, which loading runs, and by every runner.
    let msg = refusal(&web(r#", "metrics": ["availability"]"#));
    assert_eq!(
        msg,
        "availability metric requires fault injection (with_faults)"
    );
    let config = ExperimentConfig::new(Workload::standard(StandardWorkload::Web))
        .with_metric(MetricKind::Availability);
    assert!(bighouse::sim::run_serial(&config, 1).is_err());
}

#[test]
fn bad_utilization_rejected() {
    let msg = refusal(&web(r#", "utilization": 1.5"#));
    assert_eq!(msg, "utilization = 1.5: must be in (0, 1)");
}

/// `field` with its `"inf"` spelled as the overflowing literal `1e999` is
/// refused by the parser, before any range check, as a typed format error.
fn overflow_is_refused(field: &str) {
    let json = web(&format!(", {}", field.replace(r#""inf""#, "1e999")));
    match bighouse_json::parse(&json) {
        Err(e) => assert_eq!(
            e.kind(),
            &bighouse_json::ErrorKind::NumberOutOfRange,
            "{field}"
        ),
        Ok(_) => panic!("`{field}` must be refused as malformed"),
    }
}

/// Loads a Web experiment with each `(field, path)` case added, and
/// checks the refusal names `path`.
fn refused_naming_their_paths(cases: &[(&str, &str)]) {
    for &(field, expected) in cases {
        let msg = refusal(&web(&format!(", {field}")));
        assert!(
            msg.contains(expected),
            "error for `{field}` should name `{expected}`: {msg}"
        );
        if field.contains(r#""inf""#) {
            overflow_is_refused(field);
        }
    }
}

#[test]
fn hostile_numeric_fields_are_errors_not_panics() {
    // A file can spell infinity as `"inf"` — every range check must catch
    // it (and NaN, and zeros) before a `with_*` method can assert.
    refused_naming_their_paths(&[
        (r#""target_accuracy": "inf""#, "target_accuracy"),
        (r#""target_accuracy": -0.5"#, "target_accuracy"),
        (r#""confidence": 0.0"#, "confidence"),
        (r#""confidence": 17.0"#, "confidence"),
        (r#""quantile": 1.0"#, "quantile"),
        (r#""servers": 0"#, "servers"),
        (r#""cores_per_server": 0"#, "cores_per_server"),
        (r#""cores_per_server": 4294967296"#, "cores_per_server"),
        (r#""calibration": 0"#, "calibration"),
        (r#""slaves": 0"#, "`slaves`"),
        (r#""utilization": "inf""#, "utilization"),
        (r#""utilization": "NaN""#, "utilization"),
        (r#""utilization": 5e-324"#, "utilization"),
        (
            r#""capper": {"total_budget_watts": "inf"}"#,
            "capper.total_budget_watts",
        ),
        (
            r#""capper": {"total_budget_watts": 500.0, "dvfs": {"alpha": 1.5}}"#,
            "capper.dvfs.alpha",
        ),
        (
            r#""capper": {"total_budget_watts": 0.0}"#,
            "capper.total_budget_watts",
        ),
        (
            r#""capper": {"total_budget_watts": 500.0, "power_model":
                {"idle_watts": 100.0, "dynamic_watts": "NaN", "nap_watts": 5.0}}"#,
            "capper.power_model.dynamic_watts",
        ),
        (r#""dvfs": {"alpha": -0.1}"#, "dvfs.alpha"),
        (
            r#""power_model": {"idle_watts": 10.0, "dynamic_watts": 100.0, "nap_watts": 20.0}"#,
            "power_model.nap_watts",
        ),
        (
            r#""power_model": {"idle_watts": 10.0, "dynamic_watts": 100.0, "nap_watts": 5.0,
                "failed_watts": -1.0}"#,
            "power_model.failed_watts",
        ),
        (
            r#""idle_policy": {"PowerNap": {"wake_latency": -1.0}}"#,
            "idle_policy.wake_latency",
        ),
        (
            r#""idle_policy": {"DreamWeaver": {"max_delay": "NaN", "wake_latency": 0.001}}"#,
            "idle_policy.max_delay",
        ),
        (
            r#""metrics": [["WaitingTime", {"name": "response_time", "target_accuracy": 0.1,
                "confidence": 0.95, "quantiles": [], "warmup": 10, "calibration": 100,
                "max_lag": 8}]]"#,
            "metrics[1].name",
        ),
        (
            r#""metrics": [["ResponseTime", {"name": "response_time", "target_accuracy": 0.1,
                "confidence": 0.95, "quantiles": [0.5, 1.0], "warmup": 10, "calibration": 100,
                "max_lag": 8}]]"#,
            "metrics[0].quantiles[1]",
        ),
        (
            r#""metrics": [["ResponseTime", {"name": "response_time", "target_accuracy": 0.1,
                "confidence": 0.95, "quantiles": [], "warmup": 10, "calibration": 100,
                "max_lag": 0}]]"#,
            "metrics[0].max_lag",
        ),
        (
            r#""audit": {"check_interval_events": 0}"#,
            "audit.check_interval_events",
        ),
        (
            r#""audit": {"stall_limit_events": 1}"#,
            "audit.stall_limit_events",
        ),
        (
            r#""audit": {"storm_budget_events_per_sim_second": 0.0}"#,
            "audit.storm_budget_events_per_sim_second",
        ),
        (
            r#""audit": {"storm_budget_events_per_sim_second": -3.0}"#,
            "audit.storm_budget_events_per_sim_second",
        ),
        (
            r#""audit": {"storm_budget_events_per_sim_second": "inf"}"#,
            "audit.storm_budget_events_per_sim_second",
        ),
        (
            r#""audit": {"storm_window_events": 1}"#,
            "audit.storm_window_events",
        ),
    ]);
}

#[test]
fn resilience_block_resolves_with_all_features() {
    let config = load(&web(r#", "servers": 4,
            "resilience": {
                "admission": {"BoundedQueue": {"capacity": 64}},
                "shedding": {"depth_thresholds": [64, 32]},
                "hedge": {"deadline": 0.25},
                "classes": 2,
                "class_weights": [3.0, 1.0],
                "ramp": {"start": 100.0, "duration": 50.0, "multiplier": 3.0},
                "slo_deadline": 0.5
            },
            "metrics": ["response_time", "shed_rate", "hedge_win_rate",
                        "goodput_fraction", "slo_attainment"]"#))
    .unwrap();
    let r = config.resilience().expect("resilience block enables it");
    assert_eq!(r.classes, 2);
    assert!(r.hedge.is_some());
}

#[test]
fn empty_resilience_block_is_tracking_only() {
    let config = load(&web(r#", "resilience": {}"#)).unwrap();
    let r = config
        .resilience()
        .expect("block presence enables tracking");
    assert_eq!(r, &ResilienceConfig::default());
}

#[test]
fn hostile_resilience_fields_are_errors_not_panics() {
    refused_naming_their_paths(&[
        (
            r#""resilience": {"admission": {"BoundedQueue": {"capacity": 0}}}"#,
            "resilience.admission.capacity",
        ),
        (
            r#""resilience": {"admission": {"TokenBucket": {"rate": "inf", "burst": 5.0}}}"#,
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
            r#""resilience": {"classes": 2, "shedding": {"depth_thresholds": [10]}}"#,
            "resilience.shedding",
        ),
        (r#""resilience": {"shedding": [10]}"#, "resilience.shedding"),
        (
            r#""resilience": {"hedge": {"deadline": 0.0}}"#,
            "resilience.hedge",
        ),
        (
            r#""resilience": {"hedge_deadline": 0.5}"#,
            "resilience.hedge.deadline",
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
            r#""resilience": {"ramp": {"start": 0.0, "duration": 5.0, "multiplier": "inf"}}"#,
            "resilience.ramp.multiplier",
        ),
        (
            r#""resilience": {"slo_deadline": -0.5}"#,
            "resilience.slo_deadline",
        ),
    ]);
}

#[test]
fn hedging_on_one_server_is_rejected_at_spec_level() {
    // A hedge needs somewhere else to send the duplicate.
    let msg = refusal(&web(
        r#", "servers": 1, "resilience": {"hedge": {"deadline": 0.5}}"#,
    ));
    assert!(msg.contains("resilience.hedge"), "{msg}");
}

#[test]
fn resilience_metrics_without_the_block_fail_at_run_build() {
    // Like availability-without-faults: the names resolve, the
    // prerequisite check refuses them.
    let msg = refusal(&web(r#", "metrics": ["shed_rate"]"#));
    assert!(msg.starts_with("shed_rate metric requires"), "{msg}");
}

#[test]
fn paranoid_block_turns_auditing_on_with_overrides() {
    let config = load(&web(r#", "audit": {"stall_limit_events": 5000,
                       "storm_budget_events_per_sim_second": 2.5e8}"#))
    .unwrap();
    let audit = config.audit().expect("audit block enables auditing");
    assert_eq!(audit.stall_limit_events, 5000);
    assert_eq!(audit.storm_budget_events_per_sim_second, 2.5e8);
    // Omitted fields keep the defaults.
    let defaults = AuditConfig::default();
    assert_eq!(audit.check_interval_events, defaults.check_interval_events);
    assert_eq!(audit.storm_window_events, defaults.storm_window_events);
}

#[test]
fn empty_paranoid_block_is_defaults() {
    let config = load(&web(r#", "audit": {}"#)).unwrap();
    assert_eq!(config.audit(), Some(&AuditConfig::default()));
    // The old schema's name for the block is refused, naming the new one.
    let msg = refusal(&web(r#", "paranoid": {}"#));
    assert_eq!(msg, "`paranoid` is no longer read: use `audit`");
}

#[test]
fn retired_fastpath_key_still_loads_and_changes_nothing() {
    // Files written while `fastpath` was a field keep loading: the key is
    // ignored like any unknown one, in an experiment and in a sweep base —
    // as is a sweep file's retired `pin_cores`.
    let plain = r#"{"workload": {"standard": "web"}, "utilization": 0.5,
        "target_accuracy": 0.2, "warmup": 50, "calibration": 500"#;
    let run = |json: &str| {
        let config = load(json).unwrap();
        bighouse::sim::run_serial(&config, 2012).unwrap().estimates
    };
    let legacy = format!(r#"{plain}, "fastpath": "off"}}"#);
    assert_eq!(run(&legacy), run(&format!("{plain}}}")));
    let sweep = |json: String| -> crate::SweepSpec { bighouse_json::from_str(&json).unwrap() };
    let resolved = |json: String| {
        let configs = sweep(json).resolve().unwrap();
        bighouse_json::to_string(&configs[0].1)
    };
    assert_eq!(
        resolved(format!(r#"{{"base": {legacy}, "pin_cores": true}}"#)),
        resolved(format!(r#"{{"base": {plain}}}}}"#))
    );
}

#[test]
fn idle_policy_decodes() {
    let config = load(
        r#"{"workload": {"standard": "google"},
            "idle_policy": {"DreamWeaver": {"max_delay": 0.02, "wake_latency": 0.001}}}"#,
    )
    .unwrap();
    let json = bighouse_json::to_value(&config).unwrap();
    let policy: IdlePolicy = bighouse_json::from_value(&json["idle_policy"]).unwrap();
    assert!(matches!(policy, IdlePolicy::DreamWeaver { .. }));
}

#[test]
fn workload_file_reference_resolves() {
    let dir = std::env::temp_dir().join(format!("bighouse-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("w.json");
    let mail = Workload::standard(StandardWorkload::Mail);
    mail.save(&path).unwrap();
    let r = WorkloadRef::File(path.to_string_lossy().into_owned());
    let w = r.resolve().unwrap();
    assert_eq!(w.name(), "Mail");
    // In a file, by path or inline, the workload is the same table.
    let by_path = load(&format!(
        r#"{{"workload": {{"file": {}}}}}"#,
        bighouse_json::to_string(path.to_str().unwrap())
    ))
    .unwrap();
    let inline = load(&format!(
        r#"{{"workload": {}}}"#,
        bighouse_json::to_string(&mail)
    ))
    .unwrap();
    assert_eq!(by_path.workload(), &mail);
    assert_eq!(inline.workload(), &mail);
    std::fs::remove_dir_all(&dir).unwrap();
}
