//! Fault injection for BigHouse clusters.
//!
//! The paper's queuing network assumes servers never fail. This crate
//! relaxes that assumption with two composable pieces:
//!
//! - [`FaultProcess`]: a per-server alternating renewal process. Uptime
//!   (time to failure) and downtime (time to repair) are drawn from any
//!   [`bighouse_dists::Distribution`] — exponential for the classic
//!   memoryless MTBF/MTTR model, Weibull for wear-out (shape > 1) or
//!   infant-mortality (shape < 1) failure regimes.
//! - [`RetryPolicy`]: client-side request timeouts with capped exponential
//!   backoff and full jitter, drawn from the simulation's own seeded RNG so
//!   runs stay deterministic.
//!
//! The steady-state availability of an alternating renewal process is the
//! classic `MTBF / (MTBF + MTTR)` ratio ([`FaultProcess::availability`]),
//! which the integration tests check the simulated estimate against.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::sync::Arc;

use rand::RngCore;
use serde::{Deserialize, Serialize};

use bighouse_dists::{
    uniform_open01, Distribution, DistributionError, DynDistribution, Exponential, Weibull,
};

/// Smallest duration (seconds) a sampled uptime or downtime can take;
/// guards against degenerate zero-length failure cycles flooding the
/// calendar.
const MIN_CYCLE_SECONDS: f64 = 1e-9;

/// A per-server failure/repair alternating renewal process.
///
/// # Examples
///
/// ```
/// use bighouse_faults::FaultProcess;
///
/// // Memoryless failures: mean 1000 s up, mean 50 s down.
/// let faults = FaultProcess::exponential(1000.0, 50.0).unwrap();
/// assert!((faults.availability() - 1000.0 / 1050.0).abs() < 1e-12);
/// ```
///
/// A process serializes as the [`FaultSpec`] that describes it
/// ([`FaultProcess::spec`]); one built from arbitrary distributions has
/// none and is refused on deserialization.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(try_from = "FaultWire", into = "FaultWire")]
pub struct FaultProcess {
    time_to_failure: DynDistribution,
    time_to_repair: DynDistribution,
    /// What [`FaultSpec::build`] rebuilds this process from, if anything.
    spec: Option<FaultSpec>,
}

/// [`FaultProcess`] on the wire.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct FaultWire {
    spec: Option<FaultSpec>,
}

impl From<FaultProcess> for FaultWire {
    fn from(process: FaultProcess) -> Self {
        FaultWire { spec: process.spec }
    }
}

impl TryFrom<FaultWire> for FaultProcess {
    type Error = String;

    fn try_from(wire: FaultWire) -> Result<Self, String> {
        match wire.spec {
            Some(spec) => spec.build().map_err(|e| e.to_string()),
            None => Err("fault process was built from distributions no spec describes".into()),
        }
    }
}

impl FaultProcess {
    /// Builds a fault process from arbitrary uptime and downtime
    /// distributions.
    ///
    /// # Errors
    ///
    /// Returns an error if either distribution has a non-positive or
    /// non-finite mean.
    pub fn new(
        time_to_failure: DynDistribution,
        time_to_repair: DynDistribution,
    ) -> Result<Self, DistributionError> {
        for (name, dist) in [("mtbf", &time_to_failure), ("mttr", &time_to_repair)] {
            let m = dist.mean();
            if !(m.is_finite() && m > 0.0) {
                return Err(DistributionError::InvalidParameter {
                    name,
                    value: m,
                    requirement: "must be finite and positive",
                });
            }
        }
        Ok(FaultProcess {
            time_to_failure,
            time_to_repair,
            spec: None,
        })
    }

    /// The spec [`FaultSpec::build`] rebuilds this process from: recorded
    /// by [`FaultProcess::exponential`] and by [`FaultProcess::weibull`]
    /// with one shape for both phases, `None` for any other process.
    #[must_use]
    pub fn spec(&self) -> Option<FaultSpec> {
        self.spec
    }

    /// The memoryless model: exponential uptime with mean `mtbf` and
    /// exponential downtime with mean `mttr` (both in seconds).
    ///
    /// # Errors
    ///
    /// Returns an error if either mean is non-positive or non-finite.
    pub fn exponential(mtbf: f64, mttr: f64) -> Result<Self, DistributionError> {
        let mut process = Self::new(
            Arc::new(Exponential::from_mean(mtbf)?),
            Arc::new(Exponential::from_mean(mttr)?),
        )?;
        process.spec = Some(FaultSpec {
            mtbf,
            mttr,
            shape: None,
        });
        Ok(process)
    }

    /// Weibull uptimes/downtimes parameterized by **mean** (not scale):
    /// `shape > 1` models wear-out (hazard grows with age), `shape < 1`
    /// infant mortality, `shape == 1` recovers the exponential.
    ///
    /// # Errors
    ///
    /// Returns an error if a shape or mean is out of range.
    pub fn weibull(
        failure_shape: f64,
        mtbf: f64,
        repair_shape: f64,
        mttr: f64,
    ) -> Result<Self, DistributionError> {
        let mut process = Self::new(
            Arc::new(weibull_from_mean(failure_shape, mtbf)?),
            Arc::new(weibull_from_mean(repair_shape, mttr)?),
        )?;
        if failure_shape == repair_shape {
            process.spec = Some(FaultSpec {
                mtbf,
                mttr,
                shape: Some(failure_shape),
            });
        }
        Ok(process)
    }

    /// Mean time between failures (seconds).
    #[must_use]
    pub fn mtbf(&self) -> f64 {
        self.time_to_failure.mean()
    }

    /// Mean time to repair (seconds).
    #[must_use]
    pub fn mttr(&self) -> f64 {
        self.time_to_repair.mean()
    }

    /// Steady-state availability of the renewal process:
    /// `MTBF / (MTBF + MTTR)`.
    #[must_use]
    pub fn availability(&self) -> f64 {
        let up = self.mtbf();
        up / (up + self.mttr())
    }

    /// Draws the next uptime span (seconds until the server fails).
    pub fn sample_uptime(&self, rng: &mut dyn RngCore) -> f64 {
        self.time_to_failure.sample(rng).max(MIN_CYCLE_SECONDS)
    }

    /// Draws the next downtime span (seconds until the server is repaired).
    pub fn sample_downtime(&self, rng: &mut dyn RngCore) -> f64 {
        self.time_to_repair.sample(rng).max(MIN_CYCLE_SECONDS)
    }
}

/// Builds a Weibull distribution with the requested shape and **mean**, by
/// rescaling a unit-scale Weibull (mean of `Weibull(k, c)` is linear in the
/// scale `c`).
fn weibull_from_mean(shape: f64, mean: f64) -> Result<Weibull, DistributionError> {
    if !(mean.is_finite() && mean > 0.0) {
        return Err(DistributionError::InvalidParameter {
            name: "mean",
            value: mean,
            requirement: "must be finite and positive",
        });
    }
    let unit = Weibull::new(shape, 1.0)?;
    Weibull::new(shape, mean / unit.mean())
}

/// Client-side request timeout and retry policy.
///
/// A request that has not completed `timeout` seconds after being
/// dispatched is cancelled at its server and, if it has retries left,
/// redispatched after a backoff delay. The delay uses **capped exponential
/// backoff with full jitter**: attempt `k` waits a uniform draw from
/// `[0, min(cap, base · 2^(k−1))]`, sampled from the simulation's own
/// deterministic RNG stream.
///
/// # Examples
///
/// ```
/// use bighouse_faults::RetryPolicy;
///
/// let retry = RetryPolicy::new(0.5).with_max_retries(3).with_backoff(0.05, 1.0);
/// assert_eq!(retry.timeout(), 0.5);
/// assert_eq!(retry.max_retries(), 3);
/// // The backoff ceiling doubles per attempt until the cap.
/// assert_eq!(retry.backoff_ceiling(1), 0.05);
/// assert_eq!(retry.backoff_ceiling(2), 0.1);
/// assert_eq!(retry.backoff_ceiling(20), 1.0);
/// ```
///
/// A policy serializes as its [`RetrySpec`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "RetrySpec", into = "RetrySpec")]
pub struct RetryPolicy {
    timeout: f64,
    max_retries: u32,
    backoff_base: f64,
    backoff_cap: f64,
    cancel_on_timeout: bool,
}

impl RetryPolicy {
    /// Creates a policy with the given per-attempt timeout in seconds,
    /// 3 retries, and a default backoff of base `timeout / 10` capped at
    /// `timeout`.
    ///
    /// # Panics
    ///
    /// Panics unless `timeout` is positive and finite.
    #[must_use]
    pub fn new(timeout: f64) -> Self {
        assert!(
            timeout.is_finite() && timeout > 0.0,
            "request timeout must be positive and finite, got {timeout}"
        );
        RetryPolicy {
            timeout,
            max_retries: 3,
            backoff_base: timeout / 10.0,
            backoff_cap: timeout,
            cancel_on_timeout: true,
        }
    }

    /// Sets how many retries a request gets after its first attempt
    /// (0 means timeouts are terminal).
    #[must_use]
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Sets the backoff base (first-retry ceiling) and cap, in seconds.
    ///
    /// # Panics
    ///
    /// Panics if the base is negative, the cap non-positive, or either is
    /// non-finite.
    #[must_use]
    pub fn with_backoff(mut self, base: f64, cap: f64) -> Self {
        assert!(
            base.is_finite() && base >= 0.0,
            "backoff base must be non-negative and finite, got {base}"
        );
        assert!(
            cap.is_finite() && cap > 0.0,
            "backoff cap must be positive and finite, got {cap}"
        );
        self.backoff_base = base;
        self.backoff_cap = cap;
        self
    }

    /// Sets whether a client timeout cancels the in-flight attempt
    /// (default `true`).
    ///
    /// With `false`, giving up is invisible to the server: the abandoned
    /// attempt keeps its queue slot or core and runs to completion as
    /// wasted *zombie work*, while the retry arrives as a brand-new
    /// request. This models real RPC stacks without cross-tier
    /// cancellation — the work amplification that makes retry storms
    /// metastable. With `true` (the default) the client's timeout
    /// propagates and the attempt is cancelled wherever it is.
    #[must_use]
    pub fn with_cancel_on_timeout(mut self, cancel: bool) -> Self {
        self.cancel_on_timeout = cancel;
        self
    }

    /// Per-attempt timeout in seconds.
    #[must_use]
    pub fn timeout(&self) -> f64 {
        self.timeout
    }

    /// Whether a timeout cancels the in-flight attempt (`true`) or
    /// abandons it to complete as zombie work (`false`).
    #[must_use]
    pub fn cancels_on_timeout(&self) -> bool {
        self.cancel_on_timeout
    }

    /// Retries granted after the initial attempt.
    #[must_use]
    pub fn max_retries(&self) -> u32 {
        self.max_retries
    }

    /// The deterministic ceiling of the jittered delay before retry
    /// `attempt` (1-based): `min(cap, base · 2^(attempt−1))`.
    #[must_use]
    pub fn backoff_ceiling(&self, attempt: u32) -> f64 {
        let doublings = attempt.saturating_sub(1).min(62);
        (self.backoff_base * (1u64 << doublings) as f64).min(self.backoff_cap)
    }

    /// Draws the jittered delay before retry `attempt` (1-based): uniform
    /// in `[0, backoff_ceiling(attempt)]`.
    pub fn backoff_delay(&self, attempt: u32, rng: &mut dyn RngCore) -> f64 {
        self.backoff_ceiling(attempt) * uniform_open01(rng)
    }
}

/// Serializable description of a [`FaultProcess`] (the CLI's `faults`
/// block).
///
/// With `shape` omitted both phases are exponential; with `shape` set both
/// are Weibull with that shape (mean-parameterized).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Mean time between failures in seconds.
    pub mtbf: f64,
    /// Mean time to repair in seconds.
    pub mttr: f64,
    /// Optional Weibull shape for both uptime and downtime distributions.
    #[serde(default)]
    pub shape: Option<f64>,
}

impl FaultSpec {
    /// Resolves the spec into a runnable [`FaultProcess`].
    ///
    /// # Errors
    ///
    /// Returns an error for non-positive means or an invalid shape.
    pub fn build(&self) -> Result<FaultProcess, DistributionError> {
        match self.shape {
            None => FaultProcess::exponential(self.mtbf, self.mttr),
            Some(shape) => FaultProcess::weibull(shape, self.mtbf, shape, self.mttr),
        }
    }
}

/// Serializable description of a [`RetryPolicy`] (the CLI's `retry`
/// block).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetrySpec {
    /// Per-attempt request timeout in seconds.
    pub timeout: f64,
    /// Retries after the initial attempt (default 3).
    #[serde(default = "default_max_retries")]
    pub max_retries: u32,
    /// Backoff base in seconds (default `timeout / 10`).
    #[serde(default)]
    pub backoff_base: Option<f64>,
    /// Backoff cap in seconds (default `timeout`).
    #[serde(default)]
    pub backoff_cap: Option<f64>,
    /// Whether a timeout cancels the in-flight attempt (default `true`).
    /// `false` abandons it to complete as wasted zombie work instead.
    #[serde(default = "default_cancel_on_timeout")]
    pub cancel_on_timeout: bool,
}

impl From<RetryPolicy> for RetrySpec {
    fn from(policy: RetryPolicy) -> Self {
        RetrySpec {
            timeout: policy.timeout,
            max_retries: policy.max_retries,
            backoff_base: Some(policy.backoff_base),
            backoff_cap: Some(policy.backoff_cap),
            cancel_on_timeout: policy.cancel_on_timeout,
        }
    }
}

impl TryFrom<RetrySpec> for RetryPolicy {
    type Error = String;

    fn try_from(spec: RetrySpec) -> Result<Self, String> {
        spec.build()
    }
}

fn default_max_retries() -> u32 {
    3
}

fn default_cancel_on_timeout() -> bool {
    true
}

impl RetrySpec {
    /// Resolves the spec into a [`RetryPolicy`].
    ///
    /// # Errors
    ///
    /// Returns an error (as a message) for out-of-range values.
    pub fn build(&self) -> Result<RetryPolicy, String> {
        if !(self.timeout.is_finite() && self.timeout > 0.0) {
            return Err(format!(
                "retry timeout must be positive and finite, got {}",
                self.timeout
            ));
        }
        let mut policy = RetryPolicy::new(self.timeout).with_max_retries(self.max_retries);
        let base = self.backoff_base.unwrap_or(self.timeout / 10.0);
        let cap = self.backoff_cap.unwrap_or(self.timeout);
        if !(base.is_finite() && base >= 0.0) {
            return Err(format!("backoff base must be non-negative, got {base}"));
        }
        if !(cap.is_finite() && cap > 0.0) {
            return Err(format!("backoff cap must be positive, got {cap}"));
        }
        policy = policy
            .with_backoff(base, cap)
            .with_cancel_on_timeout(self.cancel_on_timeout);
        Ok(policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bighouse_des::SimRng;

    #[test]
    fn exponential_availability_is_analytic() {
        let f = FaultProcess::exponential(900.0, 100.0).unwrap();
        assert!((f.availability() - 0.9).abs() < 1e-12);
        assert!((f.mtbf() - 900.0).abs() < 1e-9);
        assert!((f.mttr() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn weibull_mean_parameterization_round_trips() {
        for shape in [0.5, 1.0, 2.5] {
            let f = FaultProcess::weibull(shape, 500.0, shape, 20.0).unwrap();
            assert!(
                (f.mtbf() - 500.0).abs() < 1e-6,
                "shape {shape}: mtbf {}",
                f.mtbf()
            );
            assert!((f.mttr() - 20.0).abs() < 1e-6);
        }
    }

    #[test]
    fn sampled_means_converge_to_parameters() {
        let f = FaultProcess::exponential(100.0, 10.0).unwrap();
        let mut rng = SimRng::from_seed(7);
        let n = 20_000;
        let up: f64 = (0..n).map(|_| f.sample_uptime(&mut rng)).sum::<f64>() / n as f64;
        let down: f64 = (0..n).map(|_| f.sample_downtime(&mut rng)).sum::<f64>() / n as f64;
        assert!((up - 100.0).abs() < 3.0, "sampled MTBF {up}");
        assert!((down - 10.0).abs() < 0.3, "sampled MTTR {down}");
    }

    #[test]
    fn samples_are_strictly_positive() {
        let f = FaultProcess::exponential(1e-6, 1e-6).unwrap();
        let mut rng = SimRng::from_seed(3);
        for _ in 0..1000 {
            assert!(f.sample_uptime(&mut rng) > 0.0);
            assert!(f.sample_downtime(&mut rng) > 0.0);
        }
    }

    #[test]
    fn bad_means_rejected() {
        assert!(FaultProcess::exponential(0.0, 10.0).is_err());
        assert!(FaultProcess::exponential(10.0, -1.0).is_err());
        assert!(FaultProcess::exponential(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn backoff_ceiling_doubles_then_caps() {
        let r = RetryPolicy::new(1.0).with_backoff(0.1, 0.5);
        assert!((r.backoff_ceiling(1) - 0.1).abs() < 1e-12);
        assert!((r.backoff_ceiling(2) - 0.2).abs() < 1e-12);
        assert!((r.backoff_ceiling(3) - 0.4).abs() < 1e-12);
        assert!((r.backoff_ceiling(4) - 0.5).abs() < 1e-12, "capped");
        assert!((r.backoff_ceiling(63) - 0.5).abs() < 1e-12, "no overflow");
    }

    #[test]
    fn backoff_delay_is_jittered_within_ceiling() {
        let r = RetryPolicy::new(1.0).with_backoff(0.1, 10.0);
        let mut rng = SimRng::from_seed(11);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..100 {
            let d = r.backoff_delay(3, &mut rng);
            assert!(d >= 0.0 && d <= r.backoff_ceiling(3));
            distinct.insert(d.to_bits());
        }
        assert!(distinct.len() > 50, "jitter must vary");
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let r = RetryPolicy::new(1.0);
        let a: Vec<f64> = {
            let mut rng = SimRng::from_seed(42);
            (1..10).map(|k| r.backoff_delay(k, &mut rng)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = SimRng::from_seed(42);
            (1..10).map(|k| r.backoff_delay(k, &mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn specs_build() {
        let f = FaultSpec {
            mtbf: 100.0,
            mttr: 5.0,
            shape: None,
        };
        assert!((f.build().unwrap().availability() - 100.0 / 105.0).abs() < 1e-12);
        let w = FaultSpec {
            mtbf: 100.0,
            mttr: 5.0,
            shape: Some(0.7),
        };
        assert!((w.build().unwrap().mtbf() - 100.0).abs() < 1e-6);

        let r = RetrySpec {
            timeout: 0.5,
            max_retries: 2,
            backoff_base: None,
            backoff_cap: None,
            cancel_on_timeout: true,
        };
        let policy = r.build().unwrap();
        assert_eq!(policy.max_retries(), 2);
        assert!((policy.backoff_ceiling(1) - 0.05).abs() < 1e-12);
        assert!(policy.cancels_on_timeout());
    }

    #[test]
    fn retry_policy_round_trips_through_its_spec() {
        for policy in [
            RetryPolicy::new(0.5),
            RetryPolicy::new(2.0)
                .with_max_retries(0)
                .with_backoff(0.0, 7.5)
                .with_cancel_on_timeout(false),
        ] {
            assert_eq!(RetryPolicy::try_from(RetrySpec::from(policy)), Ok(policy));
        }
    }

    #[test]
    fn fault_process_round_trips_through_the_spec_it_was_built_from() {
        for process in [
            FaultProcess::exponential(900.0, 100.0).unwrap(),
            FaultProcess::weibull(0.7, 500.0, 0.7, 20.0).unwrap(),
        ] {
            let spec = process.spec().expect("a spec constructor was used");
            assert_eq!(spec.build().unwrap().spec(), Some(spec));
            let back = FaultProcess::try_from(FaultWire::from(process.clone())).unwrap();
            assert_eq!(back.spec(), Some(spec));
            // The rebuilt process draws what the original draws.
            let (mut a, mut b) = (SimRng::from_seed(9), SimRng::from_seed(9));
            for _ in 0..100 {
                assert_eq!(process.sample_uptime(&mut a), back.sample_uptime(&mut b));
                assert_eq!(
                    process.sample_downtime(&mut a),
                    back.sample_downtime(&mut b)
                );
            }
        }
    }

    #[test]
    fn fault_process_no_spec_describes_is_refused_on_the_wire() {
        let unequal = FaultProcess::weibull(0.7, 500.0, 2.0, 20.0).unwrap();
        let custom = FaultProcess::new(
            Arc::new(Exponential::from_mean(10.0).unwrap()),
            Arc::new(Exponential::from_mean(1.0).unwrap()),
        )
        .unwrap();
        for process in [unequal, custom] {
            assert_eq!(process.spec(), None);
            let refused = FaultProcess::try_from(FaultWire::from(process));
            assert!(refused.unwrap_err().contains("no spec describes"));
        }
    }

    #[test]
    fn processes_and_policies_round_trip_as_json() {
        let policy = RetryPolicy::new(0.5).with_max_retries(1);
        let json = serde_json::to_string(&policy).unwrap();
        assert_eq!(serde_json::from_str::<RetryPolicy>(&json).unwrap(), policy);

        let process = FaultProcess::weibull(1.5, 300.0, 1.5, 30.0).unwrap();
        let json = serde_json::to_string(&process).unwrap();
        let back: FaultProcess = serde_json::from_str(&json).unwrap();
        assert_eq!(back.spec(), process.spec());

        let custom = FaultProcess::weibull(0.7, 500.0, 2.0, 20.0).unwrap();
        let json = serde_json::to_string(&custom).unwrap();
        let refused = serde_json::from_str::<FaultProcess>(&json).unwrap_err();
        assert!(refused.to_string().contains("no spec describes"));
    }

    #[test]
    fn bad_specs_rejected() {
        assert!(FaultSpec {
            mtbf: -1.0,
            mttr: 5.0,
            shape: None
        }
        .build()
        .is_err());
        assert!(RetrySpec {
            timeout: 0.0,
            max_retries: 0,
            backoff_base: None,
            backoff_cap: None,
            cancel_on_timeout: true
        }
        .build()
        .is_err());
    }
}
