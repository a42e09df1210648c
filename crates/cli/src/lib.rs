//! The BigHouse command-line front end.
//!
//! The paper's workflow drives BigHouse through "configuration files
//! "that describe how BigHouse should instantiate and connect these
//! objects and supply parameters such as number of cores, peak power,
//! etc." (§2.1). In this reproduction those files are
//! [`bighouse::sim::ExperimentConfig`]'s own JSON, read by
//! [`ExperimentConfig::load`](bighouse::sim::ExperimentConfig::load).
//! This crate adds the [`SweepSpec`] schema that spans experiment *grids*
//! for the fault-tolerant sweep orchestrator, and the template
//! `bighouse example-config` prints.

#![warn(missing_docs)]

mod sweep_spec;

pub use sweep_spec::SweepSpec;

/// The experiment file `bighouse example-config` prints: sixteen
/// quad-core Web servers at half load under a 2240 W cluster power cap
/// (70 % of their 3200 W peak), tracking response time and the capping
/// level. Every key left out takes the value
/// [`ExperimentConfig::new`](bighouse::sim::ExperimentConfig::new) sets.
pub const EXAMPLE_CONFIG: &str = r#"{
  "workload": { "standard": "web" },
  "servers": 16,
  "cores_per_server": 4,
  "utilization": 0.5,
  "idle_policy": "AlwaysOn",
  "capper": { "total_budget_watts": 2240.0 },
  "metrics": ["response_time", "capping_level"],
  "target_accuracy": 0.05,
  "confidence": 0.95,
  "quantile": 0.95,
  "warmup": 1000,
  "calibration": 5000,
  "max_events": 1000000000
}
"#;

/// The experiment schema's cases: what `bighouse run` and every sweep
/// grid point read, through `ExperimentConfig::load`.
#[cfg(test)]
mod spec {
    mod tests;
}
