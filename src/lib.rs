//! Top-level helper library for the BigHouse reproduction repository.
//!
//! The real public API lives in the [`bighouse`] crate; this package exists so
//! that `examples/` and `tests/` can live at the repository root as the
//! canonical entry points. It re-exports the umbrella crate for convenience,
//! and holds the few helpers that two or more of the per-table and
//! per-figure examples share: duration formatting matching the paper's
//! second/minute/hour axes, the standard power-capping cluster of §4.1, and
//! a raw response-time stream from one quad-core server.

pub use bighouse;

use bighouse::prelude::*;

/// Formats a duration the way the paper's log axes read: seconds, minutes,
/// or hours.
///
/// # Examples
///
/// ```
/// assert_eq!(bighouse_repro::fmt_duration(0.5), "0.50 s");
/// assert_eq!(bighouse_repro::fmt_duration(90.0), "1.50 min");
/// assert_eq!(bighouse_repro::fmt_duration(7200.0), "2.00 h");
/// ```
#[must_use]
pub fn fmt_duration(seconds: f64) -> String {
    if seconds < 60.0 {
        format!("{seconds:.2} s")
    } else if seconds < 3600.0 {
        format!("{:.2} min", seconds / 60.0)
    } else {
        format!("{:.2} h", seconds / 3600.0)
    }
}

/// The §4.1 power-capping cluster: quad-core servers with the typical
/// 200 W / 100 W linear power model, idealized DVFS with α = 0.9, and a
/// proportional-budget capper provisioned at `budget_fraction` of the
/// cluster's peak.
#[must_use]
pub fn capping_cluster(
    workload: &Workload,
    servers: usize,
    utilization: f64,
    budget_fraction: f64,
) -> ExperimentConfig {
    let model = LinearPowerModel::typical_server();
    let capper = PowerCapper::new(
        model,
        DvfsModel::new(0.9),
        model.peak_watts() * servers as f64 * budget_fraction,
    );
    ExperimentConfig::new(workload.at_utilization(utilization, 4))
        .with_servers(servers)
        .with_cores(4)
        .with_capper(capper)
}

/// Drives a quad-core server running `workload` at `load` arrival by
/// arrival, returning its first `n` response times: a raw, autocorrelated
/// observation stream for the statistics ablations.
#[must_use]
pub fn response_stream(workload: StandardWorkload, load: f64, n: usize, seed: u64) -> Vec<f64> {
    let workload = Workload::standard(workload).at_utilization(load, 4);
    let mut server = Server::new(4);
    let mut rng = SimRng::from_seed(seed);
    let mut now = Time::ZERO;
    let mut responses = Vec::with_capacity(n);
    let mut id = 0u64;
    while responses.len() < n {
        now += workload.interarrival().sample(&mut rng).max(1e-12);
        let size = workload.service().sample(&mut rng).max(1e-12);
        for f in server.arrive(Job::new(JobId::new(id), now, size), now) {
            responses.push(f.response_time());
        }
        id += 1;
    }
    responses.truncate(n);
    responses
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_format_like_paper_axes() {
        assert_eq!(fmt_duration(1.0), "1.00 s");
        assert_eq!(fmt_duration(59.9), "59.90 s");
        assert_eq!(fmt_duration(60.0), "1.00 min");
        assert_eq!(fmt_duration(3599.0), "59.98 min");
        assert_eq!(fmt_duration(3600.0), "1.00 h");
    }

    #[test]
    fn capping_cluster_wires_everything() {
        let w = Workload::standard(StandardWorkload::Dns);
        let config = capping_cluster(&w, 4, 0.5, 0.7);
        assert_eq!(config.servers(), 4);
        assert_eq!(config.cores_per_server(), 4);
    }
}
