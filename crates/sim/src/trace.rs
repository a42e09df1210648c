//! Trace replay.
//!
//! "It is possible to exercise the BigHouse discrete-event simulator by
//! replaying traces directly (which eliminates some sampling difficulties,
//! such as sample auto-correlation)" (§2.2). This module provides that
//! mode: a [`Trace`] is an explicit, ordered list of (arrival time, service
//! demand) pairs, and [`replay_trace`] drives the cluster with it verbatim
//! — no random draws, no warm-up/convergence machinery. As the paper
//! cautions, replay yields the *exact empirical* result for that one trace
//! rather than a statistically rigorous steady-state estimate, so the
//! report exposes full-sample statistics with exact (sorted) quantiles.

use bighouse_des::{drive, Calendar, SimRng};
use bighouse_dists::{Distribution, Empirical};
use bighouse_models::{BalancerPolicy, IdlePolicy};
use bighouse_stats::RunningStats;
use bighouse_workloads::Workload;

use crate::cluster::ClusterSim;
use crate::config::{ArrivalMode, ExperimentConfig};

/// One traced request: absolute arrival time and service demand (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEntry {
    /// Arrival time, seconds from trace start.
    pub arrival: f64,
    /// Service demand at nominal speed, seconds.
    pub size: f64,
}

bighouse_json::json_struct!(TraceEntry { arrival, size });

/// An explicit request trace, ordered by arrival time.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    entries: Vec<TraceEntry>,
}

bighouse_json::json_struct!(Trace { entries });

/// Error constructing or loading a trace.
#[derive(Debug)]
pub enum TraceError {
    /// Entries were empty, unsorted, or contained invalid values.
    Invalid(String),
    /// Filesystem failure.
    Io(std::io::Error),
    /// JSON parse failure.
    Format(bighouse_json::Error),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Invalid(msg) => write!(f, "invalid trace: {msg}"),
            TraceError::Io(e) => write!(f, "trace file I/O failed: {e}"),
            TraceError::Format(e) => write!(f, "trace file is malformed: {e}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Invalid(_) => None,
            TraceError::Io(e) => Some(e),
            TraceError::Format(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}
impl From<bighouse_json::Error> for TraceError {
    fn from(e: bighouse_json::Error) -> Self {
        TraceError::Format(e)
    }
}

impl Trace {
    /// Creates a trace from entries, validating order and values.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Invalid`] if the trace is empty, arrival times
    /// are not non-decreasing and non-negative, or any size is not positive
    /// and finite.
    pub fn new(entries: Vec<TraceEntry>) -> Result<Self, TraceError> {
        if entries.is_empty() {
            return Err(TraceError::Invalid("trace has no entries".into()));
        }
        let mut last = 0.0f64;
        for (i, e) in entries.iter().enumerate() {
            if !e.arrival.is_finite() || e.arrival < last {
                return Err(TraceError::Invalid(format!(
                    "arrival at index {i} ({}) is not non-decreasing",
                    e.arrival
                )));
            }
            if !e.size.is_finite() || e.size <= 0.0 {
                return Err(TraceError::Invalid(format!(
                    "size at index {i} ({}) must be finite and positive",
                    e.size
                )));
            }
            last = e.arrival;
        }
        Ok(Trace { entries })
    }

    /// Synthesizes a trace of `n` requests by random draw from a workload —
    /// the bridge between the two modes (and a convenient test fixture for
    /// the replay path itself).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn synthesize(workload: &Workload, n: usize, seed: u64) -> Self {
        assert!(n > 0, "a trace needs at least one request");
        let mut rng = SimRng::from_seed(seed);
        let mut now = 0.0;
        let entries = (0..n)
            .map(|_| {
                now += workload.interarrival().sample(&mut rng).max(1e-12);
                TraceEntry {
                    arrival: now,
                    size: workload.service().sample(&mut rng).max(1e-12),
                }
            })
            .collect();
        Trace { entries }
    }

    /// The trace entries, ordered by arrival.
    #[must_use]
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of requests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the trace has no requests (never true post-construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Time of the last arrival (seconds from trace start).
    #[must_use]
    pub fn duration(&self) -> f64 {
        self.entries.last().map_or(0.0, |e| e.arrival)
    }

    /// The trace characterized as a workload (Fig. 1's offline step): the
    /// empirical tables of its inter-arrival gaps, the first measured from
    /// t = 0, and of its sizes.
    ///
    /// # Panics
    ///
    /// Panics only for a trace that bypassed [`Trace::new`]'s validation.
    #[must_use]
    pub fn workload(&self, name: impl Into<String>) -> Workload {
        let mut last = 0.0;
        let mut buffer: Vec<f64> = self
            .entries
            .iter()
            .map(|e| {
                let gap = e.arrival - last;
                last = e.arrival;
                gap
            })
            .collect();
        let table = |samples: &mut [f64]| {
            Empirical::from_samples_in_place(samples)
                .expect("a valid trace's gaps and sizes tabulate")
        };
        let gaps = table(&mut buffer);
        buffer.clear();
        buffer.extend(self.entries.iter().map(|e| e.size));
        Workload::new(name, gaps, table(&mut buffer))
    }

    /// Serializes the trace to a JSON file.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), TraceError> {
        std::fs::write(path, bighouse_json::to_string(self))?;
        Ok(())
    }

    /// Loads a trace from a JSON file written by [`Trace::save`].
    ///
    /// # Errors
    ///
    /// Returns an error on I/O or parse failure, or if the decoded trace is
    /// invalid.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, TraceError> {
        let raw: Trace = bighouse_json::from_str(&std::fs::read_to_string(path)?)?;
        Trace::new(raw.entries)
    }
}

/// The exact, full-sample result of replaying one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReplayReport {
    /// Requests completed (always the full trace).
    pub jobs_completed: u64,
    /// Full-sample response-time moments.
    pub response: RunningStats,
    /// Full-sample waiting-time moments (zero-wait requests included).
    pub waiting: RunningStats,
    /// Exact response-time percentiles (sorted-sample): (q, value).
    pub response_quantiles: Vec<(f64, f64)>,
    /// Simulated seconds from first arrival to last completion.
    pub simulated_seconds: f64,
    /// Mean utilization across servers over the replay.
    pub mean_utilization: f64,
}

bighouse_json::json_struct!(TraceReplayReport {
    jobs_completed,
    response,
    waiting,
    response_quantiles,
    simulated_seconds,
    mean_utilization,
});

impl TraceReplayReport {
    /// The exact `q`-percentile of response time, if tabulated.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.response_quantiles
            .iter()
            .find(|(pq, _)| (pq - q).abs() < 1e-12)
            .map(|&(_, v)| v)
    }
}

/// Replays a trace through a cluster of `servers` servers with `cores`
/// cores each behind a join-shortest-queue balancer, returning exact
/// full-sample statistics. The trace is the [`ClusterSim`]'s arrival and
/// size source in place of the workload's draws, and the run drains it.
///
/// # Panics
///
/// Panics if `servers` or `cores` is zero.
///
/// # Examples
///
/// ```
/// use bighouse_sim::{replay_trace, Trace};
/// use bighouse_models::IdlePolicy;
/// use bighouse_workloads::{StandardWorkload, Workload};
///
/// let workload = Workload::standard(StandardWorkload::Web).at_utilization(0.5, 4);
/// let trace = Trace::synthesize(&workload, 5000, 1);
/// let report = replay_trace(&trace, 1, 4, IdlePolicy::AlwaysOn, 1);
/// assert_eq!(report.jobs_completed, 5000);
/// assert!(report.quantile(0.95).unwrap() >= report.response.mean());
/// ```
#[must_use]
pub fn replay_trace(
    trace: &Trace,
    servers: usize,
    cores: usize,
    policy: IdlePolicy,
    seed: u64,
) -> TraceReplayReport {
    let config = ExperimentConfig::new(trace.workload("trace"))
        .with_servers(servers)
        .with_cores(cores)
        .with_idle_policy(policy)
        .with_arrival_mode(ArrivalMode::LoadBalanced(BalancerPolicy::JoinShortestQueue));
    let mut sim = ClusterSim::replaying(config, trace, seed).expect("a replay config is valid");
    let mut cal = Calendar::new();
    sim.prime(&mut cal);
    drive(&mut cal, u64::MAX, None, |now, event, cal| {
        sim.handle_on(now, event, cal)
    });
    let now = cal.now();
    let mean_utilization = sim.summary(now).mean_utilization;
    let (responses, waiting) = sim.into_replay();

    let mut sorted = responses.clone();
    // IEEE total order: a NaN observation (however it got there) sorts to
    // the end instead of panicking mid-report.
    sorted.sort_by(f64::total_cmp);
    let response: RunningStats = responses.iter().copied().collect();
    TraceReplayReport {
        jobs_completed: sorted.len() as u64,
        response,
        waiting,
        response_quantiles: [0.5, 0.9, 0.95, 0.99, 0.999]
            .into_iter()
            .map(|q| (q, exact_quantile(&sorted, q)))
            .collect(),
        simulated_seconds: now.as_seconds(),
        mean_utilization,
    }
}

/// Linearly-interpolated exact quantile over a `total_cmp`-sorted sample.
///
/// # Panics
///
/// Panics if the sample is empty.
fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    // Only reach for the neighbor when actually interpolating: with
    // frac == 0, `sorted[lo + 1] * 0.0` would still poison an exact-index
    // quantile if the neighbor is NaN (NaN * 0.0 == NaN).
    if frac > 0.0 && lo + 1 < sorted.len() {
        sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac
    } else {
        sorted[lo]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bighouse_workloads::StandardWorkload;

    fn web_trace(n: usize) -> Trace {
        let w = Workload::standard(StandardWorkload::Web).at_utilization(0.5, 4);
        Trace::synthesize(&w, n, 42)
    }

    #[test]
    fn synthesized_trace_is_valid() {
        let trace = web_trace(1000);
        assert_eq!(trace.len(), 1000);
        assert!(trace.duration() > 0.0);
        assert!(Trace::new(trace.entries().to_vec()).is_ok());
    }

    #[test]
    fn quantiles_tolerate_nan_samples() {
        // Regression: the report sort used partial_cmp + expect and aborted
        // on any NaN response. total_cmp pushes NaNs past the finite values.
        let mut sample = vec![3.0, f64::NAN, 1.0, 2.0, f64::NAN];
        sample.sort_by(f64::total_cmp);
        assert_eq!(&sample[..3], &[1.0, 2.0, 3.0]);
        assert!(sample[3].is_nan() && sample[4].is_nan());
        // Low quantiles over the finite prefix stay finite and ordered.
        let q25 = exact_quantile(&sample, 0.25);
        let q50 = exact_quantile(&sample, 0.5);
        assert!(q25.is_finite() && q50.is_finite() && q25 <= q50);
        // The max quantile lands on a NaN rather than panicking.
        assert!(exact_quantile(&sample, 1.0).is_nan());
    }

    #[test]
    fn validation_rejects_bad_traces() {
        assert!(Trace::new(vec![]).is_err());
        assert!(Trace::new(vec![TraceEntry {
            arrival: -1.0,
            size: 1.0
        }])
        .is_err());
        assert!(Trace::new(vec![
            TraceEntry {
                arrival: 2.0,
                size: 1.0
            },
            TraceEntry {
                arrival: 1.0,
                size: 1.0
            },
        ])
        .is_err());
        assert!(Trace::new(vec![TraceEntry {
            arrival: 0.0,
            size: 0.0
        }])
        .is_err());
    }

    #[test]
    fn replay_completes_every_request() {
        let trace = web_trace(5000);
        let report = replay_trace(&trace, 2, 4, IdlePolicy::AlwaysOn, 1);
        assert_eq!(report.jobs_completed, 5000);
        assert!(report.simulated_seconds >= trace.duration());
        assert!(report.response.mean() > 0.0);
    }

    #[test]
    fn replay_is_deterministic_and_seed_free_for_jsq() {
        // With a deterministic balancer, the replay has no randomness at
        // all: seeds must not matter.
        let trace = web_trace(2000);
        let a = replay_trace(&trace, 2, 4, IdlePolicy::AlwaysOn, 1);
        let b = replay_trace(&trace, 2, 4, IdlePolicy::AlwaysOn, 999);
        assert_eq!(a, b);
    }

    #[test]
    fn replay_agrees_with_synthetic_mode_on_the_same_workload() {
        // A long trace synthesized from the workload should produce a mean
        // response close to the converged synthetic-mode estimate.
        use crate::{run_serial, ExperimentConfig};
        let workload = Workload::standard(StandardWorkload::Web).at_utilization(0.5, 4);
        let trace = Trace::synthesize(&workload, 200_000, 7);
        let replay = replay_trace(&trace, 1, 4, IdlePolicy::AlwaysOn, 1);
        let config = ExperimentConfig::new(workload)
            .with_cores(4)
            .with_target_accuracy(0.02)
            .with_max_events(50_000_000);
        let synthetic = run_serial(&config, 7).expect("valid config");
        let s = synthetic.metric("response_time").unwrap().mean;
        let r = replay.response.mean();
        let rel = (s - r).abs() / s;
        assert!(rel < 0.15, "replay {r} vs synthetic {s} (err {rel})");
    }

    #[test]
    fn exact_quantiles_are_monotone() {
        let report = replay_trace(&web_trace(10_000), 1, 4, IdlePolicy::AlwaysOn, 1);
        let mut last = 0.0;
        for &(q, v) in &report.response_quantiles {
            assert!(v >= last, "quantile {q} not monotone");
            last = v;
        }
    }

    #[test]
    fn errors_expose_their_cause() {
        use std::error::Error;
        let missing = std::env::temp_dir().join("bighouse-trace-test-no-such-file.json");
        let io = Trace::load(&missing).unwrap_err();
        assert!(matches!(io, TraceError::Io(_)));
        let cause = io.source().expect("an I/O error has a cause");
        assert!(cause.downcast_ref::<std::io::Error>().is_some());
        let format = TraceError::from(bighouse_json::from_str::<Trace>("{").unwrap_err());
        let cause = format.source().expect("a format error has a cause");
        assert!(cause.downcast_ref::<bighouse_json::Error>().is_some());
        assert!(Trace::new(vec![]).unwrap_err().source().is_none());
    }

    #[test]
    fn workload_tabulates_the_traces_own_gaps_and_sizes() {
        let trace = web_trace(20_000);
        let workload = trace.workload("traced");
        assert_eq!(workload.name(), "traced");
        // The gaps, the first from t = 0, sum to the last arrival.
        let mean_gap = trace.duration() / trace.len() as f64;
        let mean_size = trace.entries().iter().map(|e| e.size).sum::<f64>() / trace.len() as f64;
        for (table, exact) in [
            (workload.interarrival(), mean_gap),
            (workload.service(), mean_size),
        ] {
            let rel = (table.mean() - exact).abs() / exact;
            assert!(rel < 0.02, "table mean {} vs {exact}", table.mean());
        }
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join("bighouse-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let trace = web_trace(100);
        trace.save(&path).unwrap();
        let back = Trace::load(&path).unwrap();
        assert_eq!(trace, back);
        std::fs::remove_file(&path).unwrap();
    }
}
