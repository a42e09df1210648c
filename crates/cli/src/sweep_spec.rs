//! The JSON sweep schema: one base experiment plus named axes whose
//! cross product spans an experiment grid.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::spec::{ExperimentSpec, SpecError};

fn default_max_retries() -> u32 {
    2
}

/// Largest grid a single sweep spec may span. A cross product is easy to
/// explode by accident (`6 axes × 10 values = 10^6 configs`); past this
/// point the spec is almost certainly a typo, and the orchestrator's
/// checkpoint ledger would be better served by splitting the sweep.
pub const MAX_SWEEP_CONFIGS: usize = 100_000;

/// A complete sweep description, decodable from JSON: a base
/// [`ExperimentSpec`] plus axes overriding its fields.
///
/// Every axis names a field of the experiment schema and lists the JSON
/// values to substitute; the sweep runs the cross product of all axes.
/// Axis order in the file does not matter — axes are applied in sorted
/// name order and every generated config carries a deterministic id like
/// `servers=2,utilization=0.5`, so the same spec always produces the
/// same grid (and the same per-config seeds).
///
/// # Examples
///
/// ```
/// use bighouse_cli::SweepSpec;
///
/// let json = r#"{
///     "base": { "workload": { "standard": "Web" }, "accuracy": 0.1 },
///     "axes": {
///         "utilization": [0.3, 0.5, 0.7],
///         "servers": [1, 4]
///     },
///     "workers": 2
/// }"#;
/// let sweep = SweepSpec::from_json(json)?;
/// let entries = sweep.render()?;
/// assert_eq!(entries.len(), 6);
/// assert_eq!(entries[0].0, "servers=1,utilization=0.3");
/// # Ok::<(), bighouse_cli::SpecError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// The experiment every grid point starts from.
    pub base: ExperimentSpec,
    /// Field name → values to sweep. Empty means a single-config sweep.
    #[serde(default)]
    pub axes: BTreeMap<String, Vec<serde_json::Value>>,
    /// Worker threads (0 = one per available core).
    #[serde(default)]
    pub workers: usize,
    /// Attempts beyond the first before a failing config is quarantined
    /// (default 2: three attempts total).
    #[serde(default = "default_max_retries")]
    pub max_retries: u32,
    /// Wall-clock deadline per config attempt, in seconds (omit for none).
    #[serde(default)]
    pub config_deadline_seconds: Option<f64>,
    /// Events per checkpoint epoch inside each config (0 = default).
    #[serde(default)]
    pub epoch_events: u64,
    /// Run every config attempt in a sandboxed child process unless the
    /// command line says otherwise (`backend=threads|processes`): poison
    /// configs that abort, segfault, or wedge mid-epoch are killed and
    /// quarantined as `crashed` instead of taking the sweep down.
    /// Estimates are bit-identical to in-thread attempts.
    #[serde(default)]
    pub isolate_processes: bool,
}

impl SweepSpec {
    /// Parses a sweep spec from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Format`] for malformed JSON.
    pub fn from_json(json: &str) -> Result<Self, SpecError> {
        Ok(serde_json::from_str(json)?)
    }

    /// Loads a sweep spec from a JSON file.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O or parse failure.
    pub fn from_file(path: impl AsRef<std::path::Path>) -> Result<Self, SpecError> {
        Self::from_json(&std::fs::read_to_string(path)?)
    }

    /// Checks the sweep's own shape: axis names must be experiment-spec
    /// fields, axis value lists must be non-empty and duplicate-free, the
    /// grid must stay under [`MAX_SWEEP_CONFIGS`], the deadline must be a
    /// positive finite number, and the base must not ask for parallel
    /// slaves (the sweep owns the thread pool).
    ///
    /// Per-config field values are *not* range-checked here — each grid
    /// point is validated by [`ExperimentSpec::validate`] during
    /// [`SweepSpec::render`], which names the offending config id.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Invalid`] naming the offending axis or field.
    pub fn validate(&self) -> Result<(), SpecError> {
        let known: Vec<String> = match serde_json::to_value(ExperimentSpec::template()) {
            Ok(serde_json::Value::Object(map)) => map.keys().cloned().collect(),
            _ => Vec::new(),
        };
        let mut combos: usize = 1;
        for (axis, values) in &self.axes {
            if axis == "slaves" {
                return Err(SpecError::Invalid(
                    "axis `slaves`: a sweep owns the worker pool; per-config parallel \
                     slaves cannot be swept"
                        .into(),
                ));
            }
            if !known.iter().any(|k| k == axis) {
                return Err(SpecError::Invalid(format!(
                    "axis `{axis}` is not an experiment field (expected one of: {})",
                    known.join(", ")
                )));
            }
            if values.is_empty() {
                return Err(SpecError::Invalid(format!(
                    "axis `{axis}`: value list must be non-empty"
                )));
            }
            let mut rendered: Vec<String> = values.iter().map(render_value).collect();
            rendered.sort();
            rendered.dedup();
            if rendered.len() != values.len() {
                return Err(SpecError::Invalid(format!(
                    "axis `{axis}`: values must be unique"
                )));
            }
            combos = combos.saturating_mul(values.len());
        }
        if combos > MAX_SWEEP_CONFIGS {
            return Err(SpecError::Invalid(format!(
                "sweep spans {combos} configs: must be at most {MAX_SWEEP_CONFIGS}"
            )));
        }
        if let Some(deadline) = self.config_deadline_seconds {
            if !(deadline.is_finite() && deadline > 0.0) {
                return Err(SpecError::Invalid(format!(
                    "config_deadline_seconds = {deadline}: must be positive and finite"
                )));
            }
        }
        if self.base.slaves.is_some_and(|s| s > 1) {
            return Err(SpecError::Invalid(
                "base.slaves > 1: a sweep owns the worker pool; run each config \
                 serially (omit `slaves` or set it to 1)"
                    .into(),
            ));
        }
        Ok(())
    }

    /// Expands the cross product into `(id, spec)` pairs, sorted by id.
    ///
    /// Ids are deterministic — `axis=value` segments joined by commas in
    /// sorted axis order (`"base"` for an axis-free sweep) — so the same
    /// file always yields the same grid and, through
    /// [`config_seed`](bighouse::sim::config_seed), the same per-config
    /// seeds.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Invalid`] if the sweep shape is invalid (see
    /// [`SweepSpec::validate`]) or any grid point fails to decode or
    /// validate as an experiment, naming the config id.
    pub fn render(&self) -> Result<Vec<(String, ExperimentSpec)>, SpecError> {
        self.validate()?;
        let base = serde_json::to_value(&self.base)
            .map_err(|e| SpecError::Invalid(format!("base spec does not serialize: {e}")))?;
        let axes: Vec<(&String, &Vec<serde_json::Value>)> = self.axes.iter().collect();
        let mut entries = Vec::new();
        let mut indices = vec![0usize; axes.len()];
        loop {
            let mut value = base.clone();
            let mut segments = Vec::with_capacity(axes.len());
            if let serde_json::Value::Object(map) = &mut value {
                for (slot, (axis, values)) in indices.iter().zip(&axes) {
                    map.insert((*axis).clone(), values[*slot].clone());
                    segments.push(format!("{axis}={}", render_value(&values[*slot])));
                }
            }
            let id = if segments.is_empty() {
                "base".to_owned()
            } else {
                segments.join(",")
            };
            let spec: ExperimentSpec = serde_json::from_value(value)
                .map_err(|e| SpecError::Invalid(format!("config `{id}`: {e}")))?;
            spec.validate()
                .map_err(|e| SpecError::Invalid(format!("config `{id}`: {e}")))?;
            entries.push((id, spec));
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
}

/// Renders an axis value for use in a config id: strings bare, everything
/// else in JSON notation (compact, deterministic).
fn render_value(value: &serde_json::Value) -> String {
    match value {
        serde_json::Value::String(s) => s.clone(),
        other => other.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(json: &str) -> SweepSpec {
        SweepSpec::from_json(json).expect("valid JSON shape")
    }

    const BASE: &str = r#""base": {"workload": {"standard": "web"}, "accuracy": 0.2}"#;

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
        assert_eq!(entries[3].1.servers, 2);
        assert_eq!(entries[3].1.utilization, Some(0.5));
        // Rendering twice yields the identical grid.
        assert_eq!(entries, s.render().unwrap());
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
        let s = sweep(&format!(r#"{{{BASE}, "axes": {{"utilisation": [0.5]}}}}"#));
        let err = s.render().unwrap_err().to_string();
        assert!(err.contains("axis `utilisation`"), "{err}");
        assert!(err.contains("utilization"), "should list fields: {err}");
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
        let axis = sweep(&format!(r#"{{{BASE}, "axes": {{"slaves": [2, 4]}}}}"#));
        assert!(axis.render().unwrap_err().to_string().contains("slaves"));
        let mut base = sweep(&format!("{{{BASE}}}"));
        base.base.slaves = Some(4);
        assert!(base.render().unwrap_err().to_string().contains("slaves"));
        base.base.slaves = Some(1);
        assert!(base.render().is_ok(), "slaves=1 is just serial");
    }

    #[test]
    fn invalid_grid_point_names_its_config() {
        let s = sweep(&format!(
            r#"{{{BASE}, "axes": {{"utilization": [0.5, 1.5]}}}}"#
        ));
        let err = s.render().unwrap_err().to_string();
        assert!(err.contains("config `utilization=1.5`"), "{err}");
        assert!(err.contains("utilization"), "{err}");
    }

    #[test]
    fn hostile_deadline_is_rejected() {
        for bad in ["0.0", "-1.0", "1e999"] {
            let s = sweep(&format!(r#"{{{BASE}, "config_deadline_seconds": {bad}}}"#));
            let err = s.render().unwrap_err().to_string();
            assert!(err.contains("config_deadline_seconds"), "{bad}: {err}");
        }
    }

    #[test]
    fn oversized_grid_is_rejected() {
        let values: Vec<String> = (0..100).map(|i| format!("{}", i + 1)).collect();
        let axis = values.join(", ");
        let s = sweep(&format!(
            r#"{{{BASE}, "axes": {{"servers": [{axis}], "cores": [{axis}], "warmup": [{axis}]}}}}"#
        ));
        let err = s.render().unwrap_err().to_string();
        assert!(err.contains("at most"), "{err}");
    }

    #[test]
    fn paranoid_axis_sweeps_audit_blocks() {
        // Objects and null are legal axis values: this sweeps auditing
        // itself (off vs. a tight storm budget).
        let s = sweep(&format!(
            r#"{{{BASE}, "axes": {{"paranoid":
                [null, {{"storm_budget_events_per_sim_second": 0.5,
                         "storm_window_events": 1000}}]}}}}"#
        ));
        let entries = s.render().unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(
            entries.iter().filter(|(_, s)| s.paranoid.is_some()).count(),
            1
        );
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
        let entries = s.render().unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(
            entries
                .iter()
                .filter(|(_, s)| s.resilience.is_some())
                .count(),
            2
        );
        // Hostile values inside the swept block still fail with the
        // config id attached.
        let bad = sweep(&format!(
            r#"{{{BASE}, "axes": {{"resilience":
                [{{"admission": {{"BoundedQueue": {{"capacity": 0}}}}}}]}}}}"#
        ));
        let err = bad.render().unwrap_err().to_string();
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
        let json = serde_json::to_string_pretty(&s).unwrap();
        let back = SweepSpec::from_json(&json).unwrap();
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
    fn isolate_processes_round_trips() {
        let s = sweep(&format!(r#"{{{BASE}, "isolate_processes": true}}"#));
        assert!(s.isolate_processes);
        let json = serde_json::to_string(&s).unwrap();
        assert!(SweepSpec::from_json(&json).unwrap().isolate_processes);
    }
}
