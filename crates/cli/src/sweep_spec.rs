//! The JSON sweep schema: one base experiment plus axes whose cross
//! product spans an experiment grid.

use std::collections::{BTreeMap, HashMap};

use bighouse::sim::{ExperimentConfig, SimError};
use bighouse::workloads::{Workload, WorkloadRef};
use bighouse_json::{Map, Value};

/// Largest grid a single sweep spec may span. A cross product is easy to
/// explode by accident (`6 axes × 10 values = 10^6 configs`); past this
/// point the spec is almost certainly a typo, and the orchestrator's
/// checkpoint ledger would be better served by splitting the sweep.
pub(crate) const MAX_SWEEP_CONFIGS: usize = 100_000;

/// A complete sweep description, decodable from JSON: a base experiment,
/// in the experiment-file schema [`ExperimentConfig::load`] reads, plus
/// axes overriding its values.
///
/// An axis is a dotted path into the base's JSON (`servers`,
/// `capper.total_budget_watts`, `tiers.1.servers`) whose first segment is
/// one of [`ExperimentConfig::KEYS`], with the JSON values to substitute;
/// the sweep runs the cross product of all axes. Axis order in the file
/// does not matter — axes are applied in sorted path order and every
/// generated config carries a deterministic id like
/// `servers=2,utilization=0.5`, so the same spec always produces the same
/// grid (and the same per-config seeds).
///
/// # Examples
///
/// ```
/// use bighouse_cli::SweepSpec;
///
/// let json = r#"{
///     "base": { "workload": { "standard": "Web" }, "target_accuracy": 0.1 },
///     "axes": {
///         "utilization": [0.3, 0.5, 0.7],
///         "servers": [1, 4]
///     },
///     "workers": 2
/// }"#;
/// let sweep: SweepSpec = bighouse_json::from_str(json)?;
/// let entries = sweep.render()?;
/// assert_eq!(entries.len(), 6);
/// assert_eq!(entries[0].0, "servers=1,utilization=0.3");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// The experiment every grid point starts from.
    pub base: Value,
    /// Path → values to sweep. Empty means a single-config sweep.
    pub axes: BTreeMap<String, Vec<Value>>,
    /// Worker threads (0 = one per available core).
    pub workers: usize,
    /// Attempts beyond the first before a failing config is quarantined
    /// (default 2: three attempts total).
    pub max_retries: u32,
    /// Wall-clock deadline per config attempt, in seconds (omit for none).
    pub config_deadline_seconds: Option<f64>,
    /// Events per checkpoint epoch inside each config (0 = default).
    pub epoch_events: u64,
    /// Run every config attempt in a sandboxed child process unless the
    /// command line says otherwise (`backend=threads|processes`): poison
    /// configs that abort, segfault, or wedge mid-epoch are killed and
    /// quarantined as `crashed` instead of taking the sweep down.
    /// Estimates are bit-identical to in-thread attempts.
    pub isolate_processes: bool,
}

bighouse_json::json_struct!(SweepSpec {
    base,
    axes = BTreeMap::new(),
    workers = 0,
    max_retries = 2,
    config_deadline_seconds,
    epoch_events = 0,
    isolate_processes = false,
});

impl SweepSpec {
    /// Checks the sweep's own shape: every axis path must start at an
    /// experiment key, axis value lists must be non-empty and
    /// duplicate-free, the grid must stay within 100 000 configs,
    /// and the deadline must be a positive finite number.
    ///
    /// Per-config values are *not* checked here: each grid point is
    /// loaded and validated by [`SweepSpec::resolve`], which names the
    /// offending config id.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] naming the offending axis or
    /// field.
    pub fn validate(&self) -> Result<(), SimError> {
        let mut combos: usize = 1;
        for (axis, values) in &self.axes {
            let key = axis.split('.').next().unwrap_or_default();
            if !ExperimentConfig::KEYS.contains(&key) {
                return Err(SimError::InvalidConfig(format!(
                    "axis `{axis}` is not a path into the experiment (its first segment must \
                     be one of: {})",
                    ExperimentConfig::KEYS.join(", ")
                )));
            }
            if values.is_empty() {
                return Err(SimError::InvalidConfig(format!(
                    "axis `{axis}`: value list must be non-empty"
                )));
            }
            let mut rendered: Vec<String> = values.iter().map(render_value).collect();
            rendered.sort();
            rendered.dedup();
            if rendered.len() != values.len() {
                return Err(SimError::InvalidConfig(format!(
                    "axis `{axis}`: values must be unique"
                )));
            }
            combos = combos.saturating_mul(values.len());
        }
        if combos > MAX_SWEEP_CONFIGS {
            return Err(SimError::InvalidConfig(format!(
                "sweep spans {combos} configs: must be at most {MAX_SWEEP_CONFIGS}"
            )));
        }
        if let Some(deadline) = self.config_deadline_seconds {
            if !(deadline.is_finite() && deadline > 0.0) {
                return Err(SimError::InvalidConfig(format!(
                    "config_deadline_seconds = {deadline}: must be positive and finite"
                )));
            }
        }
        Ok(())
    }

    /// Expands the cross product into `(id, experiment JSON)` pairs,
    /// sorted by id.
    ///
    /// Ids are deterministic — `path=value` segments joined by commas in
    /// sorted path order (`"base"` for an axis-free sweep) — so the same
    /// file always yields the same grid and, through
    /// [`config_seed`](bighouse::sim::config_seed), the same per-config
    /// seeds.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the sweep shape is invalid
    /// (see [`SweepSpec::validate`]) or an axis path leads nowhere in a
    /// grid point, naming the config id.
    pub fn render(&self) -> Result<Vec<(String, Value)>, SimError> {
        self.validate()?;
        let axes: Vec<(&String, &Vec<Value>)> = self.axes.iter().collect();
        let mut entries = Vec::new();
        let mut indices = vec![0usize; axes.len()];
        loop {
            let points: Vec<(&String, &Value)> = indices
                .iter()
                .zip(&axes)
                .map(|(&slot, (axis, values))| (*axis, &values[slot]))
                .collect();
            let id = if points.is_empty() {
                "base".to_owned()
            } else {
                let segments: Vec<String> = points
                    .iter()
                    .map(|(axis, value)| format!("{axis}={}", render_value(value)))
                    .collect();
                segments.join(",")
            };
            let mut value = self.base.clone();
            for (axis, point) in points {
                set_path(&mut value, axis, point.clone()).map_err(|e| {
                    SimError::InvalidConfig(format!("config `{id}`: axis `{axis}`: {e}"))
                })?;
            }
            entries.push((id, value));
            // Odometer increment over the axis value lists.
            let mut carry = true;
            for (slot, (_, values)) in indices.iter_mut().zip(&axes).rev() {
                if !carry {
                    break;
                }
                *slot += 1;
                if *slot < values.len() {
                    carry = false;
                } else {
                    *slot = 0;
                }
            }
            if carry {
                break;
            }
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(entries)
    }

    /// Renders the grid and loads every point into a runnable config, as
    /// [`ExperimentConfig::load`] would one at a time, but synthesizing or
    /// reading each distinct workload once. Standard names match in any
    /// case, so they are memoized lower-cased.
    ///
    /// # Errors
    ///
    /// As [`SweepSpec::render`], plus any load or validation error, naming
    /// the config id.
    pub fn resolve(&self) -> Result<Vec<(String, ExperimentConfig)>, SimError> {
        let mut workloads: HashMap<String, Workload> = HashMap::new();
        let mut memoized = |reference: &WorkloadRef| {
            let key = match reference {
                WorkloadRef::Standard(name) => format!("standard:{}", name.to_ascii_lowercase()),
                WorkloadRef::File(path) => format!("file:{path}"),
                WorkloadRef::Inline(workload) => return Ok(workload.clone()),
            };
            if let Some(workload) = workloads.get(&key) {
                return Ok(workload.clone());
            }
            let workload = reference.resolve()?;
            workloads.insert(key, workload.clone());
            Ok(workload)
        };
        self.render()?
            .into_iter()
            .map(|(id, value)| {
                let config =
                    ExperimentConfig::load(&value, &mut memoized).map_err(|e| match e {
                        SimError::InvalidConfig(e) => {
                            SimError::InvalidConfig(format!("config `{id}`: {e}"))
                        }
                        other => other,
                    })?;
                Ok((id, config))
            })
            .collect()
    }
}

/// Sets the value at dotted `path` in `value`: object members by name
/// (made, with any object on the way, where absent or `null`), array
/// elements by index.
fn set_path(value: &mut Value, path: &str, point: Value) -> Result<(), String> {
    let mut slot = value;
    for key in path.split('.') {
        if slot.is_null() {
            *slot = Value::Object(Map::new());
        }
        slot = match slot {
            Value::Object(map) => {
                if map.get(key).is_none() {
                    map.insert(key, Value::Null);
                }
                map.get_mut(key).expect("member just set")
            }
            Value::Array(items) => {
                let len = items.len();
                match key.parse::<usize>().ok().and_then(|i| items.get_mut(i)) {
                    Some(item) => item,
                    None => return Err(format!("no element `{key}` in an array of {len}")),
                }
            }
            other => return Err(format!("`{key}` is a member of {other}, not an object")),
        };
    }
    *slot = point;
    Ok(())
}

/// Renders an axis value for use in a config id: strings bare, everything
/// else in compact JSON. A float takes its shortest round-trip text, which
/// is exponent form below 1e-4 (`5e-5`); the id seeds the config, so this
/// rendering is pinned by `small_float_axis_values_render_in_exponent_form`.
fn render_value(value: &Value) -> String {
    match value {
        Value::String(s) => s.clone(),
        other => other.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(json: &str) -> SweepSpec {
        bighouse_json::from_str(json).expect("valid JSON shape")
    }

    const BASE: &str = r#""base": {"workload": {"standard": "web"}, "target_accuracy": 0.2}"#;

    #[test]
    fn cross_product_is_sorted_and_deterministic() {
        let s = sweep(&format!(
            r#"{{{BASE}, "axes": {{"utilization": [0.5, 0.3], "servers": [2, 1]}}}}"#
        ));
        let entries = s.render().unwrap();
        let ids: Vec<&str> = entries.iter().map(|(id, _)| id.as_str()).collect();
        assert_eq!(
            ids,
            [
                "servers=1,utilization=0.3",
                "servers=1,utilization=0.5",
                "servers=2,utilization=0.3",
                "servers=2,utilization=0.5",
            ]
        );
        assert_eq!(entries[3].1["servers"], 2);
        assert_eq!(entries[3].1["utilization"].as_f64(), Some(0.5));
        // Rendering twice yields the identical grid.
        assert_eq!(entries, s.render().unwrap());
    }

    #[test]
    fn small_float_axis_values_render_in_exponent_form() {
        let s = sweep(&format!(
            r#"{{{BASE}, "axes": {{"utilization": [0.00005, 0.0001]}}}}"#
        ));
        let entries = s.render().unwrap();
        let ids: Vec<&str> = entries.iter().map(|(id, _)| id.as_str()).collect();
        assert_eq!(ids, ["utilization=0.0001", "utilization=5e-5"]);
    }

    #[test]
    fn axis_free_sweep_is_the_base_alone() {
        let s = sweep(&format!("{{{BASE}}}"));
        let entries = s.render().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].0, "base");
        assert_eq!(entries[0].1, s.base);
    }

    #[test]
    fn unknown_axis_is_rejected_by_name() {
        for axis in ["utilisation", "capping.budget_fraction", "paranoid"] {
            let s = sweep(&format!(r#"{{{BASE}, "axes": {{"{axis}": [0.5]}}}}"#));
            let err = s.render().unwrap_err().to_string();
            assert!(err.contains(&format!("axis `{axis}`")), "{err}");
            assert!(
                err.contains("tiers, utilization)"),
                "should list the keys: {err}"
            );
        }
    }

    #[test]
    fn nested_paths_sweep_any_value() {
        // A path makes the objects it runs through and indexes arrays.
        let s = sweep(
            r#"{"base": {"workload": {"standard": "web"}, "servers": 2,
                "tiers": [{"servers": 1, "cores": 2, "service": null, "idle_policy": "AlwaysOn"}]},
                "axes": {"capper.total_budget_watts": [300.0], "tiers.0.servers": [3, 4]}}"#,
        );
        let entries = s.render().unwrap();
        assert_eq!(
            entries[1].0,
            "capper.total_budget_watts=300.0,tiers.0.servers=4"
        );
        assert_eq!(
            entries[1].1["capper"]["total_budget_watts"].as_f64(),
            Some(300.0)
        );
        assert_eq!(entries[1].1["tiers"][0]["servers"], 4);
        // A path past the end of an array, or through a number, names its
        // axis and config.
        for axis in ["tiers.1.servers", "servers.count"] {
            let bad = sweep(&format!(
                r#"{{"base": {{"workload": {{"standard": "web"}}, "servers": 2, "tiers": []}},
                    "axes": {{"{axis}": [1]}}}}"#
            ));
            let err = bad.render().unwrap_err().to_string();
            assert!(
                err.contains(&format!("config `{axis}=1`: axis `{axis}`")),
                "{err}"
            );
        }
    }

    #[test]
    fn empty_and_duplicate_axis_values_are_rejected() {
        let empty = sweep(&format!(r#"{{{BASE}, "axes": {{"servers": []}}}}"#));
        assert!(empty
            .render()
            .unwrap_err()
            .to_string()
            .contains("non-empty"));
        let dup = sweep(&format!(r#"{{{BASE}, "axes": {{"servers": [2, 2]}}}}"#));
        assert!(dup.render().unwrap_err().to_string().contains("unique"));
    }

    #[test]
    fn slaves_cannot_be_swept_or_set_in_base() {
        // `slaves` is a run shape, an argument of `bighouse run`: no
        // experiment key, so neither an axis nor a base value.
        let axis = sweep(&format!(r#"{{{BASE}, "axes": {{"slaves": [2, 4]}}}}"#));
        assert!(axis
            .render()
            .unwrap_err()
            .to_string()
            .contains("axis `slaves`"));
        for slaves in [1, 4] {
            let base = sweep(&format!(
                r#"{{"base": {{"workload": {{"standard": "web"}}, "slaves": {slaves}}}}}"#
            ));
            let err = base.resolve().unwrap_err().to_string();
            assert!(err.contains("`slaves`"), "{err}");
        }
    }

    #[test]
    fn invalid_grid_point_names_its_config() {
        let s = sweep(&format!(
            r#"{{{BASE}, "axes": {{"utilization": [0.5, 1.5]}}}}"#
        ));
        let err = s.resolve().unwrap_err().to_string();
        assert!(err.contains("config `utilization=1.5`"), "{err}");
        assert!(err.contains("utilization"), "{err}");
    }

    #[test]
    fn hostile_deadline_is_rejected() {
        for bad in ["0.0", "-1.0", r#""inf""#, r#""NaN""#] {
            let s = sweep(&format!(r#"{{{BASE}, "config_deadline_seconds": {bad}}}"#));
            let err = s.render().unwrap_err().to_string();
            assert!(err.contains("config_deadline_seconds"), "{bad}: {err}");
        }
        // An overflowing literal never parses: a typed format error.
        let overflow = bighouse_json::from_str::<SweepSpec>(&format!(
            r#"{{{BASE}, "config_deadline_seconds": 1e999}}"#
        ))
        .expect_err("1e999 must be refused as malformed");
        assert_eq!(overflow.kind(), &bighouse_json::ErrorKind::NumberOutOfRange);
        assert_eq!(overflow.path(), "config_deadline_seconds");
    }

    #[test]
    fn oversized_grid_is_rejected() {
        let values: Vec<String> = (0..100).map(|i| format!("{}", i + 1)).collect();
        let axis = values.join(", ");
        let s = sweep(&format!(
            r#"{{{BASE}, "axes": {{"servers": [{axis}], "cores_per_server": [{axis}], "warmup": [{axis}]}}}}"#
        ));
        let err = s.render().unwrap_err().to_string();
        assert!(err.contains("at most"), "{err}");
    }

    #[test]
    fn paranoid_axis_sweeps_audit_blocks() {
        // Objects and null are legal axis values: this sweeps auditing
        // itself (off vs. a tight storm budget).
        let s = sweep(&format!(
            r#"{{{BASE}, "axes": {{"audit":
                [null, {{"storm_budget_events_per_sim_second": 0.5,
                         "storm_window_events": 1000}}]}}}}"#
        ));
        let configs = s.resolve().unwrap();
        assert_eq!(configs.len(), 2);
        let audited: Vec<_> = configs.iter().filter_map(|(_, c)| c.audit()).collect();
        assert_eq!(audited.len(), 1);
        assert_eq!(audited[0].storm_window_events, 1000);
    }

    #[test]
    fn resilience_axis_sweeps_admission_policies() {
        // The overload-protection block is an ordinary experiment field,
        // so admission policies sweep like anything else: off vs. two
        // bounded-queue capacities, with deterministic ids.
        let s = sweep(&format!(
            r#"{{{BASE}, "axes": {{"resilience":
                [null,
                 {{"admission": {{"BoundedQueue": {{"capacity": 8}}}}}},
                 {{"admission": {{"BoundedQueue": {{"capacity": 32}}}}}}]}}}}"#
        ));
        let configs = s.resolve().unwrap();
        assert_eq!(configs.len(), 3);
        assert_eq!(
            configs
                .iter()
                .filter(|(_, c)| c.resilience().is_some())
                .count(),
            2
        );
        // Hostile values inside the swept block still fail with the
        // config id attached.
        let bad = sweep(&format!(
            r#"{{{BASE}, "axes": {{"resilience":
                [{{"admission": {{"BoundedQueue": {{"capacity": 0}}}}}}]}}}}"#
        ));
        let err = bad.resolve().unwrap_err().to_string();
        assert!(err.contains("config `resilience="), "{err}");
        assert!(err.contains("resilience.admission.capacity"), "{err}");
    }

    #[test]
    fn template_like_round_trip() {
        let s = sweep(&format!(
            r#"{{{BASE}, "axes": {{"utilization": [0.3, 0.7]}},
                "workers": 2, "max_retries": 1,
                "config_deadline_seconds": 30.0, "epoch_events": 100000}}"#
        ));
        let json = bighouse_json::to_string_pretty(&s);
        let back = sweep(&json);
        assert_eq!(s, back);
        assert_eq!(back.max_retries, 1);
        assert_eq!(back.config_deadline_seconds, Some(30.0));
    }

    #[test]
    fn defaults_are_sensible() {
        let s = sweep(&format!("{{{BASE}}}"));
        assert_eq!(s.workers, 0);
        assert_eq!(s.max_retries, 2);
        assert_eq!(s.config_deadline_seconds, None);
        assert_eq!(s.epoch_events, 0);
        assert!(!s.isolate_processes);
    }

    #[test]
    fn a_grid_resolves_as_its_configs_do_one_at_a_time() {
        // Three workloads, each spelled in two cases, by two
        // utilizations: each workload is synthesized once for the grid,
        // and every config is the one a per-config `load` builds.
        let s = sweep(
            r#"{"base": {"workload": {"standard": "web"}, "target_accuracy": 0.2},
                "axes": {"workload": [{"standard": "Web"}, {"standard": "web"},
                                      {"standard": "DNS"}, {"standard": "dns"},
                                      {"standard": "Mail"}, {"standard": "mail"}],
                         "utilization": [0.3, 0.6]}}"#,
        );
        let configs = s.resolve().unwrap();
        assert_eq!(configs.len(), 12);
        for ((id, value), (resolved_id, config)) in s.render().unwrap().iter().zip(&configs) {
            assert_eq!(id, resolved_id);
            let one = ExperimentConfig::load(value, WorkloadRef::resolve).unwrap();
            assert_eq!(format!("{config:?}"), format!("{one:?}"), "{id}");
        }
        // A workload that fails to resolve is named by its config.
        let bad = sweep(
            r#"{"base": {"workload": {"standard": "web"}},
                "axes": {"workload": [{"standard": "web"}, {"standard": "nope"}]}}"#,
        );
        let err = bad.resolve().unwrap_err().to_string();
        assert!(
            err.contains("config `workload={\"standard\":\"nope\"}`"),
            "{err}"
        );
        assert!(err.contains("unknown standard workload `nope`"), "{err}");
    }

    #[test]
    fn isolate_processes_round_trips() {
        let s = sweep(&format!(r#"{{{BASE}, "isolate_processes": true}}"#));
        assert!(s.isolate_processes);
        let json = bighouse_json::to_string(&s);
        assert!(sweep(&json).isolate_processes);
    }
}
