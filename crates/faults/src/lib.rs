//! Fault injection for BigHouse clusters.
//!
//! The paper's queuing network assumes servers never fail. This crate
//! relaxes that assumption with two composable pieces:
//!
//! - [`FaultProcess`]: a per-server alternating renewal process. Uptime
//!   (time to failure) and downtime (time to repair) are exponential for
//!   the classic memoryless MTBF/MTTR model, or Weibull for wear-out
//!   (shape > 1) or infant-mortality (shape < 1) failure regimes, with a
//!   shape per phase.
//! - [`RetryPolicy`]: client-side request timeouts with capped exponential
//!   backoff and full jitter, drawn from the simulation's own seeded RNG so
//!   runs stay deterministic.
//!
//! Both are their parameters: each writes them as JSON and reads them
//! back into the same process or policy, so every configuration
//! serializes and runs wherever a config is sent.
//!
//! The steady-state availability of an alternating renewal process is the
//! classic `MTBF / (MTBF + MTTR)` ratio ([`FaultProcess::availability`]),
//! which the integration tests check the simulated estimate against.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use bighouse_json::{Error, FromJson, ObjectWriter, ToJson, Value};

use bighouse_des::SimRng;
use bighouse_dists::{Distribution, DistributionError, Exponential, Weibull};

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
/// A process serializes as `{"spec": {"mtbf", "mttr", "shape"}}`, with
/// `shape` null for exponential phases, plus `"repair_shape"` when the
/// downtime's Weibull shape differs from the uptime's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProcess {
    mtbf: f64,
    mttr: f64,
    uptime: Phase,
    downtime: Phase,
}

/// The sampler of one phase, built from its mean and optional shape.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Exponential(Exponential),
    Weibull(Weibull),
}

impl Phase {
    /// The phase with mean `mean`: exponential without a shape, Weibull
    /// (rescaled to that mean) with one. A refused mean is reported under
    /// `name`, the phase's own (`mtbf` or `mttr`).
    fn new(name: &'static str, mean: f64, shape: Option<f64>) -> Result<Self, DistributionError> {
        if !(mean.is_finite() && mean > 0.0) {
            return Err(DistributionError::InvalidParameter {
                name,
                value: mean,
                requirement: "must be finite and positive",
            });
        }
        let phase = match shape {
            None => Phase::Exponential(Exponential::from_mean(mean)?),
            Some(shape) => Phase::Weibull(weibull_from_mean(shape, mean)?),
        };
        let m = phase.mean();
        if !(m.is_finite() && m > 0.0) {
            return Err(DistributionError::InvalidParameter {
                name,
                value: m,
                requirement: "must be finite and positive",
            });
        }
        Ok(phase)
    }

    fn shape(&self) -> Option<f64> {
        match self {
            Phase::Exponential(_) => None,
            Phase::Weibull(d) => Some(d.shape()),
        }
    }

    fn mean(&self) -> f64 {
        match self {
            Phase::Exponential(d) => d.mean(),
            Phase::Weibull(d) => d.mean(),
        }
    }

    fn sample(&self, rng: &mut SimRng) -> f64 {
        let span = match self {
            Phase::Exponential(d) => d.sample(rng),
            Phase::Weibull(d) => d.sample(rng),
        };
        span.max(MIN_CYCLE_SECONDS)
    }
}

impl ToJson for FaultProcess {
    fn write_json(&self, out: &mut String) {
        out.push_str(r#"{"spec":"#);
        let mut spec = ObjectWriter::new(out);
        spec.field("mtbf", &self.mtbf);
        spec.field("mttr", &self.mttr);
        let (shape, repair_shape) = (self.uptime.shape(), self.downtime.shape());
        spec.field("shape", &shape);
        if repair_shape != shape {
            spec.field("repair_shape", &repair_shape);
        }
        spec.end();
        out.push('}');
    }
}

impl FromJson for FaultProcess {
    /// Reads what [`ToJson`] writes; an absent `repair_shape` is `shape`,
    /// and one without a `shape` is refused.
    fn from_json(value: &Value) -> Result<Self, Error> {
        let spec: Value = bighouse_json::field(bighouse_json::object(value)?, "spec")?;
        let read = |spec| -> Result<_, Error> {
            let spec = bighouse_json::object(spec)?;
            Ok((
                bighouse_json::field(spec, "mtbf")?,
                bighouse_json::field(spec, "mttr")?,
                bighouse_json::field::<Option<f64>>(spec, "shape")?,
                bighouse_json::field::<Option<f64>>(spec, "repair_shape")?,
            ))
        };
        let (mtbf, mttr, shape, repair_shape) = read(&spec).map_err(|e| e.within("spec"))?;
        match (shape, repair_shape) {
            (None, None) => FaultProcess::exponential(mtbf, mttr),
            (Some(shape), repair_shape) => {
                FaultProcess::weibull(shape, mtbf, repair_shape.unwrap_or(shape), mttr)
            }
            (None, Some(_)) => return Err(Error::invalid("repair_shape needs a shape")),
        }
        .map_err(Error::invalid)
    }
}

impl FaultProcess {
    /// The memoryless model: exponential uptime with mean `mtbf` and
    /// exponential downtime with mean `mttr` (both in seconds).
    ///
    /// # Errors
    ///
    /// Returns an error if either mean is non-positive or non-finite.
    pub fn exponential(mtbf: f64, mttr: f64) -> Result<Self, DistributionError> {
        Ok(FaultProcess {
            mtbf,
            mttr,
            uptime: Phase::new("mtbf", mtbf, None)?,
            downtime: Phase::new("mttr", mttr, None)?,
        })
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
        Ok(FaultProcess {
            mtbf,
            mttr,
            uptime: Phase::new("mtbf", mtbf, Some(failure_shape))?,
            downtime: Phase::new("mttr", mttr, Some(repair_shape))?,
        })
    }

    /// Mean time between failures (seconds).
    #[must_use]
    pub fn mtbf(&self) -> f64 {
        self.mtbf
    }

    /// Mean time to repair (seconds).
    #[must_use]
    pub fn mttr(&self) -> f64 {
        self.mttr
    }

    /// Steady-state availability of the renewal process:
    /// `MTBF / (MTBF + MTTR)`.
    #[must_use]
    pub fn availability(&self) -> f64 {
        self.mtbf / (self.mtbf + self.mttr)
    }

    /// Draws the next uptime span (seconds until the server fails).
    pub fn sample_uptime(&self, rng: &mut SimRng) -> f64 {
        self.uptime.sample(rng)
    }

    /// Draws the next downtime span (seconds until the server is repaired).
    pub fn sample_downtime(&self, rng: &mut SimRng) -> f64 {
        self.downtime.sample(rng)
    }
}

/// Builds a Weibull distribution with the requested shape and finite
/// positive **mean**, by rescaling a unit-scale Weibull (mean of
/// `Weibull(k, c)` is linear in the scale `c`).
fn weibull_from_mean(shape: f64, mean: f64) -> Result<Weibull, DistributionError> {
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
/// let retry = RetryPolicy::new(0.5).with_max_retries(2);
/// assert_eq!(retry.timeout(), 0.5);
/// assert_eq!(retry.max_retries(), 2);
/// // The backoff ceiling starts at a tenth of the timeout and doubles per
/// // attempt until it reaches the timeout.
/// assert_eq!(retry.backoff_ceiling(1), 0.05);
/// assert_eq!(retry.backoff_ceiling(2), 0.1);
/// assert_eq!(retry.backoff_ceiling(20), 0.5);
/// ```
///
/// A policy serializes as the JSON block `{"timeout", "max_retries",
/// "backoff_base", "backoff_cap", "cancel_on_timeout"}`.
#[derive(Debug, Clone, Copy, PartialEq)]
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
            "request timeout must be positive and finite, got {timeout:?}"
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
    pub fn backoff_delay(&self, attempt: u32, rng: &mut SimRng) -> f64 {
        self.backoff_ceiling(attempt) * rng.open01()
    }
}

impl ToJson for RetryPolicy {
    fn write_json(&self, out: &mut String) {
        let mut object = ObjectWriter::new(out);
        object.field("timeout", &self.timeout);
        object.field("max_retries", &self.max_retries);
        object.field("backoff_base", &self.backoff_base);
        object.field("backoff_cap", &self.backoff_cap);
        object.field("cancel_on_timeout", &self.cancel_on_timeout);
        object.end();
    }
}

impl FromJson for RetryPolicy {
    /// Reads what [`ToJson`] writes. Only `timeout` is required: an absent
    /// (or null) key is what [`RetryPolicy::new`] sets.
    fn from_json(value: &Value) -> Result<Self, Error> {
        let object = bighouse_json::object(value)?;
        let timeout: f64 = bighouse_json::field(object, "timeout")?;
        if !(timeout.is_finite() && timeout > 0.0) {
            return Err(Error::invalid(format!(
                "retry timeout must be positive and finite, got {timeout:?}"
            )));
        }
        let default = RetryPolicy::new(timeout);
        let read_or = |name, default: f64| {
            bighouse_json::field::<Option<f64>>(object, name).map(|v| v.unwrap_or(default))
        };
        let backoff_base = read_or("backoff_base", default.backoff_base)?;
        if !(backoff_base.is_finite() && backoff_base >= 0.0) {
            return Err(Error::invalid(format!(
                "backoff base must be non-negative and finite, got {backoff_base:?}"
            )));
        }
        let backoff_cap = read_or("backoff_cap", default.backoff_cap)?;
        if !(backoff_cap.is_finite() && backoff_cap > 0.0) {
            return Err(Error::invalid(format!(
                "backoff cap must be positive and finite, got {backoff_cap:?}"
            )));
        }
        Ok(RetryPolicy {
            timeout,
            max_retries: bighouse_json::field_or(object, "max_retries", || default.max_retries)?,
            backoff_base,
            backoff_cap,
            cancel_on_timeout: bighouse_json::field_or(object, "cancel_on_timeout", || {
                default.cancel_on_timeout
            })?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// A policy with the given backoff base and cap, as a `retry` block
    /// with those keys reads.
    fn with_backoff(timeout: f64, base: f64, cap: f64) -> RetryPolicy {
        RetryPolicy {
            backoff_base: base,
            backoff_cap: cap,
            ..RetryPolicy::new(timeout)
        }
    }

    #[test]
    fn backoff_ceiling_doubles_then_caps() {
        let r = with_backoff(1.0, 0.1, 0.5);
        assert!((r.backoff_ceiling(1) - 0.1).abs() < 1e-12);
        assert!((r.backoff_ceiling(2) - 0.2).abs() < 1e-12);
        assert!((r.backoff_ceiling(3) - 0.4).abs() < 1e-12);
        assert!((r.backoff_ceiling(4) - 0.5).abs() < 1e-12, "capped");
        assert!((r.backoff_ceiling(63) - 0.5).abs() < 1e-12, "no overflow");
    }

    #[test]
    fn backoff_delay_is_jittered_within_ceiling() {
        let r = with_backoff(1.0, 0.1, 10.0);
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
        let f: FaultProcess = bighouse_json::from_str(r#"{"spec":{"mtbf":100,"mttr":5}}"#).unwrap();
        assert_eq!(f, FaultProcess::exponential(100.0, 5.0).unwrap());
        assert!((f.availability() - 100.0 / 105.0).abs() < 1e-12);
        let w: FaultProcess =
            bighouse_json::from_str(r#"{"spec":{"mtbf":100,"mttr":5,"shape":0.7}}"#).unwrap();
        assert_eq!(w, FaultProcess::weibull(0.7, 100.0, 0.7, 5.0).unwrap());
        let u: FaultProcess = bighouse_json::from_str(
            r#"{"spec":{"mtbf":100,"mttr":5,"shape":0.7,"repair_shape":2}}"#,
        )
        .unwrap();
        assert_eq!(u, FaultProcess::weibull(0.7, 100.0, 2.0, 5.0).unwrap());

        let policy: RetryPolicy =
            bighouse_json::from_str(r#"{"timeout":0.5,"max_retries":2}"#).unwrap();
        assert_eq!(policy, RetryPolicy::new(0.5).with_max_retries(2));
        assert!((policy.backoff_ceiling(1) - 0.05).abs() < 1e-12);
        assert!(policy.cancels_on_timeout());
        let nulls: RetryPolicy =
            bighouse_json::from_str(r#"{"timeout":0.5,"backoff_base":null,"backoff_cap":null}"#)
                .unwrap();
        assert_eq!(nulls, RetryPolicy::new(0.5));
    }

    #[test]
    fn retry_policy_round_trips_through_its_spec() {
        for policy in [
            RetryPolicy::new(0.5),
            with_backoff(2.0, 0.0, 7.5)
                .with_max_retries(0)
                .with_cancel_on_timeout(false),
        ] {
            let json = bighouse_json::to_string(&policy);
            assert_eq!(bighouse_json::from_str(&json), Ok(policy));
        }
    }

    #[test]
    fn fault_process_round_trips_through_the_spec_it_was_built_from() {
        for process in [
            FaultProcess::exponential(900.0, 100.0).unwrap(),
            FaultProcess::weibull(0.7, 500.0, 0.7, 20.0).unwrap(),
            FaultProcess::weibull(0.7, 500.0, 2.0, 20.0).unwrap(),
        ] {
            let json = bighouse_json::to_string(&process);
            let back: FaultProcess = bighouse_json::from_str(&json).unwrap();
            assert_eq!(back, process);
            assert_eq!(bighouse_json::to_string(&back), json);
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
    fn unequal_shapes_add_a_repair_shape_key() {
        let unequal = FaultProcess::weibull(0.7, 500.0, 2.0, 20.0).unwrap();
        assert_eq!(
            bighouse_json::to_string(&unequal),
            r#"{"spec":{"mtbf":500.0,"mttr":20.0,"shape":0.7,"repair_shape":2.0}}"#
        );
        for (refused, message) in [
            (r#"{"spec":null}"#, "expected an object at `spec`"),
            (
                r#"{"spec":{"mtbf":500.0,"mttr":20.0,"repair_shape":2.0}}"#,
                "repair_shape needs a shape",
            ),
        ] {
            let error = bighouse_json::from_str::<FaultProcess>(refused).unwrap_err();
            assert_eq!(error.to_string(), message);
        }
    }

    #[test]
    fn printed_bytes_are_pinned() {
        // Config files, checkpoints and sweep ledgers hold these bytes, and
        // `config_fingerprint` hashes them: they must not move.
        let processes = [
            (
                FaultProcess::exponential(1000.0, 50.0),
                r#"{"spec":{"mtbf":1000.0,"mttr":50.0,"shape":null}}"#,
            ),
            (
                FaultProcess::exponential(3600.0, 120.0),
                r#"{"spec":{"mtbf":3600.0,"mttr":120.0,"shape":null}}"#,
            ),
            (
                FaultProcess::exponential(0.1, 1e-3),
                r#"{"spec":{"mtbf":0.1,"mttr":0.001,"shape":null}}"#,
            ),
            (
                FaultProcess::weibull(0.7, 500.0, 0.7, 20.0),
                r#"{"spec":{"mtbf":500.0,"mttr":20.0,"shape":0.7}}"#,
            ),
            (
                FaultProcess::weibull(2.5, 1e6, 2.5, 0.3),
                r#"{"spec":{"mtbf":1000000.0,"mttr":0.3,"shape":2.5}}"#,
            ),
        ];
        for (process, text) in processes {
            assert_eq!(bighouse_json::to_string(&process.unwrap()), text);
        }
        let policies = [
            (
                RetryPolicy::new(0.5),
                r#"{"timeout":0.5,"max_retries":3,"backoff_base":0.05,"backoff_cap":0.5,"cancel_on_timeout":true}"#,
            ),
            (
                RetryPolicy::new(1.5)
                    .with_max_retries(5)
                    .with_cancel_on_timeout(false),
                r#"{"timeout":1.5,"max_retries":5,"backoff_base":0.15,"backoff_cap":1.5,"cancel_on_timeout":false}"#,
            ),
            (
                RetryPolicy::new(0.3).with_max_retries(0),
                r#"{"timeout":0.3,"max_retries":0,"backoff_base":0.03,"backoff_cap":0.3,"cancel_on_timeout":true}"#,
            ),
            (
                with_backoff(2.0, 0.0, 7.5).with_max_retries(1),
                r#"{"timeout":2.0,"max_retries":1,"backoff_base":0.0,"backoff_cap":7.5,"cancel_on_timeout":true}"#,
            ),
            (
                RetryPolicy::new(0.1),
                r#"{"timeout":0.1,"max_retries":3,"backoff_base":0.01,"backoff_cap":0.1,"cancel_on_timeout":true}"#,
            ),
        ];
        for (policy, text) in policies {
            assert_eq!(bighouse_json::to_string(&policy), text);
        }
    }

    #[test]
    fn processes_and_policies_round_trip_as_json() {
        let policy = RetryPolicy::new(0.5).with_max_retries(1);
        let json = bighouse_json::to_string(&policy);
        assert_eq!(
            bighouse_json::from_str::<RetryPolicy>(&json).unwrap(),
            policy
        );

        for process in [
            FaultProcess::weibull(1.5, 300.0, 1.5, 30.0).unwrap(),
            FaultProcess::weibull(0.7, 500.0, 2.0, 20.0).unwrap(),
        ] {
            let json = bighouse_json::to_string(&process);
            assert_eq!(bighouse_json::from_str(&json), Ok(process));
        }
    }

    #[test]
    fn bad_specs_rejected() {
        for spec in [
            r#"{"spec":{"mtbf":-1,"mttr":5}}"#,
            r#"{"spec":{"mtbf":1,"mttr":0}}"#,
            r#"{"spec":{"mtbf":1,"mttr":5,"shape":-2}}"#,
            r#"{"spec":{"mtbf":1,"mttr":5,"shape":2,"repair_shape":0}}"#,
        ] {
            assert!(
                bighouse_json::from_str::<FaultProcess>(spec).is_err(),
                "{spec}"
            );
        }
        for (retry, message) in [
            (
                r#"{"timeout":0}"#,
                "retry timeout must be positive and finite, got 0.0",
            ),
            (
                r#"{"timeout":-1.7976931348623157e308}"#,
                "retry timeout must be positive and finite, got -1.7976931348623157e308",
            ),
            (
                r#"{"timeout":1,"backoff_base":-1e300}"#,
                "backoff base must be non-negative and finite, got -1e300",
            ),
            (
                r#"{"timeout":1,"backoff_cap":0}"#,
                "backoff cap must be positive and finite, got 0.0",
            ),
        ] {
            let error = bighouse_json::from_str::<RetryPolicy>(retry).unwrap_err();
            assert_eq!(error.to_string(), message);
        }
    }

    #[test]
    fn a_refused_mean_names_its_phase_in_shortest_form() {
        for (spec, message) in [
            (
                r#"{"spec":{"mtbf":-1.7976931348623157e308,"mttr":5}}"#,
                "parameter `mtbf` = -1.7976931348623157e308 must be finite and positive",
            ),
            (
                r#"{"spec":{"mtbf":1,"mttr":0,"shape":2}}"#,
                "parameter `mttr` = 0.0 must be finite and positive",
            ),
        ] {
            let error = bighouse_json::from_str::<FaultProcess>(spec).unwrap_err();
            assert!(error.to_string().contains(message), "{spec}: {error}");
        }
    }

    #[test]
    #[should_panic(expected = "request timeout must be positive and finite, got -1e300")]
    fn a_bad_timeout_panics_in_shortest_form() {
        let _ = RetryPolicy::new(-1e300);
    }
}
