//! Simulated overload-protection mechanisms — the machinery every
//! production data center runs between its clients and its queues.
//!
//! BigHouse's fault layer models *failures*; this module models the other
//! half of degraded operation: what the cluster does to protect itself
//! when offered load exceeds capacity. Four mechanisms compose per
//! cluster, each individually optional:
//!
//! - **Admission control** ([`AdmissionPolicy`]): arrivals are rejected at
//!   the front door when the cluster is saturated — either a bounded queue
//!   (at most `capacity` requests in flight, the M/M/k/K discipline whose
//!   blocking probability `crates/analytic`'s `mmkk` module predicts in
//!   closed form) or a token bucket (a rate limiter with burst credit).
//!   Rejected arrivals are **shed**, a first-class terminal state in the
//!   request ledger — not lost, not failed.
//! - **Priority-class load shedding** ([`SheddingPolicy`]): arrivals carry
//!   a priority class drawn from [`ResilienceConfig::class_weights`]; each
//!   class has a queue-depth threshold above which its arrivals are shed.
//!   Giving lower classes lower thresholds sheds the least important
//!   traffic first as congestion builds.
//! - **Hedged requests** ([`HedgePolicy`]): a request still unfinished
//!   `deadline` seconds after placement is duplicated to the least-loaded
//!   other live server; the first completion wins and the loser is
//!   cancelled (exercising the calendar's O(1) `cancel`). The classic
//!   tail-at-scale tactic: burn a little capacity to cut the tail.
//! - **An overload ramp** ([`OverloadRamp`]): a deterministic interval
//!   during which the arrival rate is multiplied — the stressor that,
//!   combined with client-side retries ([`ExperimentConfig::with_retry`]),
//!   reproduces **metastable failure**: retry amplification keeps the
//!   cluster congested after the ramp ends, and goodput only recovers when
//!   admission control bounds the queue. See `examples/retry_storm.rs`.
//!
//! All of it is gated on [`ExperimentConfig::with_resilience`]: with the
//! config absent, the simulation draws the identical RNG sequence and
//! takes identical branches, so estimates are bit-identical to pre-
//! resilience builds.
//!
//! [`ExperimentConfig::with_resilience`]: crate::ExperimentConfig::with_resilience
//! [`ExperimentConfig::with_retry`]: crate::ExperimentConfig::with_retry

use bighouse_des::{SimRng, Time};
use serde::{Deserialize, Serialize};

use crate::config::MetricKind;
use crate::error::SimError;

/// How arrivals are admitted to (or rejected from) the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AdmissionPolicy {
    /// Reject arrivals while `capacity` requests are already in flight
    /// (queued + running, cluster-wide). An M/M/k cluster under this
    /// policy is the M/M/k/K queue of `bighouse_analytic::mmkk`.
    BoundedQueue {
        /// Maximum requests in flight; arrivals beyond it are shed.
        capacity: usize,
    },
    /// A token bucket: tokens accrue at `rate` per simulated second up to
    /// `burst`; each admitted arrival consumes one token, and an arrival
    /// finding the bucket empty is shed.
    TokenBucket {
        /// Sustained admission rate in requests per simulated second.
        rate: f64,
        /// Bucket depth: the largest burst admitted at once.
        burst: f64,
    },
}

/// Queue-depth thresholds for priority-class load shedding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SheddingPolicy {
    /// One threshold per priority class (index = class). An arrival of
    /// class `c` is shed when the cluster-wide in-flight count has reached
    /// `depth_thresholds[c]`. Class 0 is the most important; give it the
    /// highest threshold.
    pub depth_thresholds: Vec<usize>,
}

/// Hedged-request policy: duplicate slow requests, first completion wins.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HedgePolicy {
    /// Seconds after placement before the hedge is launched. Pick a high
    /// percentile of service time so only stragglers are duplicated.
    pub deadline: f64,
}

/// A deterministic overload interval: offered load is multiplied while
/// `start ≤ now < start + duration`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverloadRamp {
    /// Simulated second at which the ramp begins.
    pub start: f64,
    /// Ramp length in simulated seconds.
    pub duration: f64,
    /// Arrival-rate multiplier during the ramp (inter-arrival gaps are
    /// divided by this).
    pub multiplier: f64,
}

impl OverloadRamp {
    /// Whether the ramp is active at simulated second `t`.
    #[must_use]
    pub fn active_at(&self, t: f64) -> bool {
        t >= self.start && t < self.start + self.duration
    }
}

/// The composable overload-protection configuration of a cluster.
///
/// Plain data by design: the CLI builds it straight from untrusted JSON,
/// so nothing here panics — all range checking lives in
/// [`ResilienceConfig::validate`], surfaced through
/// [`crate::SimError::InvalidConfig`] when the experiment is built.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilienceConfig {
    /// Front-door admission control (`None` = admit everything).
    pub admission: Option<AdmissionPolicy>,
    /// Priority-class shedding thresholds (`None` = never shed by class).
    pub shedding: Option<SheddingPolicy>,
    /// Hedged-request policy (`None` = never hedge).
    pub hedge: Option<HedgePolicy>,
    /// Number of priority classes (≥ 1). With one class, arrivals skip the
    /// class draw entirely.
    pub classes: usize,
    /// Relative arrival weight of each class; empty means uniform. When
    /// non-empty its length must equal `classes`.
    pub class_weights: Vec<f64>,
    /// Deterministic overload interval (`None` = steady offered load).
    pub ramp: Option<OverloadRamp>,
    /// Per-request SLO deadline in seconds: a goodput completion whose
    /// response time is within it counts as SLO-attained (`None` = no SLO
    /// tracking).
    pub slo_deadline: Option<f64>,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            admission: None,
            shedding: None,
            hedge: None,
            classes: 1,
            class_weights: Vec::new(),
            ramp: None,
            slo_deadline: None,
        }
    }
}

impl ResilienceConfig {
    /// A config with everything off (admit all, one class, no hedging).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the admission policy.
    #[must_use]
    pub fn with_admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = Some(policy);
        self
    }

    /// Sets per-class shedding thresholds (one per class, class 0 first).
    #[must_use]
    pub fn with_shedding(mut self, depth_thresholds: Vec<usize>) -> Self {
        self.shedding = Some(SheddingPolicy { depth_thresholds });
        self
    }

    /// Enables hedged requests with the given launch deadline in seconds.
    #[must_use]
    pub fn with_hedge(mut self, deadline: f64) -> Self {
        self.hedge = Some(HedgePolicy { deadline });
        self
    }

    /// Sets the number of priority classes and their arrival weights
    /// (empty = uniform).
    #[must_use]
    pub fn with_classes(mut self, classes: usize, weights: Vec<f64>) -> Self {
        self.classes = classes;
        self.class_weights = weights;
        self
    }

    /// Adds a deterministic overload ramp.
    #[must_use]
    pub fn with_ramp(mut self, start: f64, duration: f64, multiplier: f64) -> Self {
        self.ramp = Some(OverloadRamp {
            start,
            duration,
            multiplier,
        });
        self
    }

    /// Sets the per-request SLO deadline in seconds.
    #[must_use]
    pub fn with_slo_deadline(mut self, deadline: f64) -> Self {
        self.slo_deadline = Some(deadline);
        self
    }

    /// Validates every field, including cross-field constraints against
    /// the cluster (`servers`): hedging needs somewhere to hedge *to*.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] naming the offending field.
    pub fn validate(&self, servers: usize) -> Result<(), SimError> {
        let bad = |msg: String| Err(SimError::InvalidConfig(msg));
        if self.classes == 0 {
            return bad("resilience.classes must be at least 1".into());
        }
        if self.classes > 64 {
            return bad(format!(
                "resilience.classes = {}: must be at most 64",
                self.classes
            ));
        }
        if !self.class_weights.is_empty() {
            if self.class_weights.len() != self.classes {
                return bad(format!(
                    "resilience.class_weights has {} entries for {} classes",
                    self.class_weights.len(),
                    self.classes
                ));
            }
            if !self.class_weights.iter().all(|w| w.is_finite() && *w > 0.0) {
                return bad("resilience.class_weights entries must be finite and positive".into());
            }
        }
        match self.admission {
            Some(AdmissionPolicy::BoundedQueue { capacity: 0 }) => {
                return bad("resilience.admission.capacity must be at least 1".into());
            }
            Some(AdmissionPolicy::TokenBucket { rate, .. })
                if !(rate.is_finite() && rate > 0.0) =>
            {
                return bad(format!(
                    "resilience.admission.rate = {rate}: must be finite and positive"
                ));
            }
            Some(AdmissionPolicy::TokenBucket { burst, .. })
                if !(burst.is_finite() && burst >= 1.0) =>
            {
                return bad(format!(
                    "resilience.admission.burst = {burst}: must be finite and at least 1"
                ));
            }
            _ => {}
        }
        if let Some(shedding) = &self.shedding {
            if shedding.depth_thresholds.len() != self.classes {
                return bad(format!(
                    "resilience.shedding has {} thresholds for {} classes",
                    shedding.depth_thresholds.len(),
                    self.classes
                ));
            }
        }
        if let Some(hedge) = &self.hedge {
            if !(hedge.deadline.is_finite() && hedge.deadline > 0.0) {
                return bad(format!(
                    "resilience.hedge.deadline = {}: must be finite and positive",
                    hedge.deadline
                ));
            }
            if servers < 2 {
                return bad("resilience.hedge requires at least 2 servers".into());
            }
        }
        if let Some(ramp) = &self.ramp {
            if !(ramp.start.is_finite() && ramp.start >= 0.0) {
                return bad(format!(
                    "resilience.ramp.start = {}: must be finite and non-negative",
                    ramp.start
                ));
            }
            if !(ramp.duration.is_finite() && ramp.duration > 0.0) {
                return bad(format!(
                    "resilience.ramp.duration = {}: must be finite and positive",
                    ramp.duration
                ));
            }
            if !(ramp.multiplier.is_finite() && ramp.multiplier > 0.0) {
                return bad(format!(
                    "resilience.ramp.multiplier = {}: must be finite and positive",
                    ramp.multiplier
                ));
            }
        }
        if let Some(slo) = self.slo_deadline {
            if !(slo.is_finite() && slo > 0.0) {
                return bad(format!(
                    "resilience.slo_deadline = {slo}: must be finite and positive"
                ));
            }
        }
        Ok(())
    }
}

/// Per-class request disposition counters, used in both the live summary
/// and the resumable-run totals (pure counts, so they add across epochs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassDisposition {
    /// Arrivals of this class offered to the cluster.
    pub offered: u64,
    /// Arrivals of this class shed (by admission control or thresholds).
    pub shed: u64,
    /// Requests of this class that completed.
    pub goodput: u64,
    /// Goodput completions of this class within the SLO deadline.
    pub slo_met: u64,
}

/// Exact bookkeeping of a resilience-enabled run: how offered load was
/// disposed of and what the hedging machinery did.
///
/// Invariants: `admitted + shed == offered` and
/// `goodput + timed_out + in_flight_at_end == admitted` (both swept by the
/// auditor in paranoid mode).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilienceSummary {
    /// Arrivals offered to the cluster (admitted + shed).
    pub offered: u64,
    /// Arrivals admitted past admission control and shedding.
    pub admitted: u64,
    /// Arrivals rejected by admission control or class thresholds.
    pub shed: u64,
    /// Admitted requests that completed (goodput).
    pub goodput: u64,
    /// Admitted requests dropped after exhausting the retry budget.
    pub timed_out: u64,
    /// Admitted requests still in flight when the run stopped.
    pub in_flight_at_end: u64,
    /// Hedge duplicates launched.
    pub hedges_launched: u64,
    /// Requests whose hedge finished first.
    pub hedge_wins: u64,
    /// Losing duplicates cancelled mid-service (the calendar-cancel path).
    pub hedge_cancelled: u64,
    /// Goodput completions within the SLO deadline (0 without one).
    pub slo_met: u64,
    /// Per-class dispositions (empty when running a single class).
    pub per_class: Vec<ClassDisposition>,
}

/// Live runtime state of the resilience machinery, held by the tracked-
/// request component only when a [`ResilienceConfig`] is present.
#[derive(Debug, Default)]
pub(crate) struct ResilienceState {
    pub offered: u64,
    pub shed: u64,
    pub hedges_launched: u64,
    pub hedge_wins: u64,
    pub hedge_cancelled: u64,
    pub slo_met: u64,
    pub per_class: Vec<ClassDisposition>,
    /// Token-bucket level; refilled lazily at each arrival.
    tokens: f64,
    /// Simulated second of the last token refill.
    tokens_at: f64,
    /// Cumulative-weight table for the class draw (empty for one class).
    class_cdf: Vec<f64>,
    /// The cumulative counts the epoch rates are deltas of, as they stood
    /// at the last tick ([`ResilienceState::epoch_rates`]).
    epoch_marks: [u64; 6],
}

impl ResilienceState {
    pub(crate) fn new(config: &ResilienceConfig) -> Self {
        let burst = match config.admission {
            Some(AdmissionPolicy::TokenBucket { burst, .. }) => burst,
            _ => 0.0,
        };
        let class_cdf = if config.classes > 1 {
            let weights: Vec<f64> = if config.class_weights.is_empty() {
                vec![1.0; config.classes]
            } else {
                config.class_weights.clone()
            };
            let total: f64 = weights.iter().sum();
            let mut acc = 0.0;
            weights
                .iter()
                .map(|w| {
                    acc += w / total;
                    acc
                })
                .collect()
        } else {
            Vec::new()
        };
        ResilienceState {
            per_class: vec![ClassDisposition::default(); config.classes],
            tokens: burst,
            class_cdf,
            ..ResilienceState::default()
        }
    }

    /// Draws an arrival's priority class against the cumulative weights
    /// (one RNG draw, only with two or more classes).
    pub(crate) fn draw_class(&self, rng: &mut SimRng) -> u8 {
        if self.class_cdf.is_empty() {
            return 0;
        }
        let u = rng.half_open01();
        let last = self.class_cdf.len() - 1;
        self.class_cdf.iter().position(|&c| u < c).unwrap_or(last) as u8
    }

    /// The front door: counts the offered arrival and decides whether to
    /// admit it with `in_flight` requests already tracked. Returns `false`
    /// when the arrival is shed — by the bounded queue, the token bucket,
    /// or the class's depth threshold.
    pub(crate) fn admit_gate(
        &mut self,
        policy: &ResilienceConfig,
        class: u8,
        in_flight: usize,
        now: Time,
    ) -> bool {
        let admission_sheds = match policy.admission {
            Some(AdmissionPolicy::BoundedQueue { capacity }) => in_flight >= capacity,
            Some(AdmissionPolicy::TokenBucket { rate, burst }) => {
                let t = now.as_seconds();
                self.tokens = (self.tokens + rate * (t - self.tokens_at).max(0.0)).min(burst);
                self.tokens_at = t;
                let empty = self.tokens < 1.0;
                if !empty {
                    self.tokens -= 1.0;
                }
                empty
            }
            None => false,
        };
        let threshold = policy
            .shedding
            .as_ref()
            .and_then(|s| s.depth_thresholds.get(class as usize));
        let shed = admission_sheds || threshold.is_some_and(|&t| in_flight >= t);
        self.offered += 1;
        self.shed += u64::from(shed);
        if let Some(c) = self.per_class.get_mut(class as usize) {
            c.offered += 1;
            c.shed += u64::from(shed);
        }
        !shed
    }

    /// Per-class and SLO bookkeeping for one goodput retirement. Returns
    /// whether `response` met `deadline`, when there is one.
    pub(crate) fn note_goodput_slo(
        &mut self,
        deadline: Option<f64>,
        class: u8,
        response: f64,
    ) -> Option<bool> {
        let met = deadline.map(|d| response <= d);
        let hit = u64::from(met == Some(true));
        self.slo_met += hit;
        if let Some(c) = self.per_class.get_mut(class as usize) {
            c.goodput += 1;
            c.slo_met += hit;
        }
        met
    }

    /// One epoch's resilience rates from the counter deltas since the last
    /// tick (`None` for a rate whose denominator did not move). `goodput`
    /// and `timed_out` are the request ledger's running totals.
    pub(crate) fn epoch_rates(
        &mut self,
        goodput: u64,
        timed_out: u64,
    ) -> [(MetricKind, Option<f64>); 3] {
        let totals = [
            self.offered,
            self.shed,
            self.hedges_launched,
            self.hedge_wins,
            goodput,
            timed_out,
        ];
        let [offered, shed, launched, wins, goodput, timed_out] =
            std::array::from_fn(|i| totals[i] - self.epoch_marks[i]);
        self.epoch_marks = totals;
        let ratio = |num: u64, den: u64| (den > 0).then(|| num as f64 / den as f64);
        [
            (MetricKind::ShedRate, ratio(shed, offered)),
            (MetricKind::HedgeWinRate, ratio(wins, launched)),
            (
                MetricKind::GoodputFraction,
                ratio(goodput, goodput + timed_out + shed),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_everything_off() {
        let c = ResilienceConfig::new();
        assert_eq!(c.classes, 1);
        assert!(c.admission.is_none() && c.hedge.is_none() && c.shedding.is_none());
        c.validate(1).unwrap();
    }

    #[test]
    fn builders_compose() {
        let c = ResilienceConfig::new()
            .with_admission(AdmissionPolicy::BoundedQueue { capacity: 8 })
            .with_classes(2, vec![3.0, 1.0])
            .with_shedding(vec![16, 8])
            .with_hedge(0.05)
            .with_ramp(10.0, 5.0, 3.0)
            .with_slo_deadline(0.5);
        c.validate(4).unwrap();
    }

    #[test]
    fn zero_classes_rejected() {
        let c = ResilienceConfig {
            classes: 0,
            ..ResilienceConfig::new()
        };
        assert!(c.validate(1).is_err());
    }

    #[test]
    fn weight_count_mismatch_rejected() {
        let c = ResilienceConfig::new().with_classes(3, vec![1.0, 2.0]);
        let err = c.validate(1).unwrap_err();
        assert!(err.to_string().contains("class_weights"), "{err}");
    }

    #[test]
    fn hostile_weights_rejected() {
        for w in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            let c = ResilienceConfig::new().with_classes(2, vec![1.0, w]);
            assert!(c.validate(1).is_err(), "weight {w} must be rejected");
        }
    }

    #[test]
    fn threshold_count_mismatch_rejected() {
        let c = ResilienceConfig::new()
            .with_classes(2, vec![])
            .with_shedding(vec![10]);
        let err = c.validate(1).unwrap_err();
        assert!(err.to_string().contains("thresholds"), "{err}");
    }

    #[test]
    fn hostile_hedge_deadlines_rejected() {
        for d in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let c = ResilienceConfig::new().with_hedge(d);
            assert!(c.validate(4).is_err(), "deadline {d} must be rejected");
        }
    }

    #[test]
    fn hedging_needs_a_second_server() {
        let c = ResilienceConfig::new().with_hedge(0.1);
        let err = c.validate(1).unwrap_err();
        assert!(err.to_string().contains("2 servers"), "{err}");
        c.validate(2).unwrap();
    }

    #[test]
    fn hostile_admission_rejected() {
        let zero_cap =
            ResilienceConfig::new().with_admission(AdmissionPolicy::BoundedQueue { capacity: 0 });
        assert!(zero_cap.validate(1).is_err());
        for (rate, burst) in [
            (0.0, 5.0),
            (-1.0, 5.0),
            (f64::NAN, 5.0),
            (10.0, 0.5),
            (10.0, f64::INFINITY),
        ] {
            let c = ResilienceConfig::new()
                .with_admission(AdmissionPolicy::TokenBucket { rate, burst });
            assert!(
                c.validate(1).is_err(),
                "token bucket rate {rate} burst {burst} must be rejected"
            );
        }
    }

    #[test]
    fn hostile_ramp_rejected() {
        for (start, duration, multiplier) in [
            (-1.0, 1.0, 2.0),
            (f64::NAN, 1.0, 2.0),
            (0.0, 0.0, 2.0),
            (0.0, -5.0, 2.0),
            (0.0, 1.0, 0.0),
            (0.0, 1.0, f64::INFINITY),
        ] {
            let c = ResilienceConfig::new().with_ramp(start, duration, multiplier);
            assert!(
                c.validate(1).is_err(),
                "ramp ({start}, {duration}, {multiplier}) must be rejected"
            );
        }
    }

    #[test]
    fn hostile_slo_rejected() {
        for slo in [0.0, -0.1, f64::NAN] {
            let c = ResilienceConfig::new().with_slo_deadline(slo);
            assert!(c.validate(1).is_err(), "slo {slo} must be rejected");
        }
    }

    #[test]
    fn ramp_window_is_half_open() {
        let r = OverloadRamp {
            start: 10.0,
            duration: 5.0,
            multiplier: 2.0,
        };
        assert!(!r.active_at(9.999));
        assert!(r.active_at(10.0));
        assert!(r.active_at(14.999));
        assert!(!r.active_at(15.0));
    }

    #[test]
    fn class_cdf_is_normalized_and_ordered() {
        let c = ResilienceConfig::new().with_classes(3, vec![6.0, 3.0, 1.0]);
        let state = ResilienceState::new(&c);
        assert_eq!(state.class_cdf.len(), 3);
        assert!((state.class_cdf[0] - 0.6).abs() < 1e-12);
        assert!((state.class_cdf[1] - 0.9).abs() < 1e-12);
        assert!((state.class_cdf[2] - 1.0).abs() < 1e-12);
        // Uniform when no weights are given.
        let u = ResilienceState::new(&ResilienceConfig::new().with_classes(2, vec![]));
        assert!((u.class_cdf[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn token_bucket_starts_full() {
        let c = ResilienceConfig::new().with_admission(AdmissionPolicy::TokenBucket {
            rate: 100.0,
            burst: 16.0,
        });
        let state = ResilienceState::new(&c);
        assert_eq!(state.tokens, 16.0);
    }

    #[test]
    fn serde_round_trip() {
        let c = ResilienceConfig::new()
            .with_admission(AdmissionPolicy::TokenBucket {
                rate: 50.0,
                burst: 10.0,
            })
            .with_classes(2, vec![2.0, 1.0])
            .with_shedding(vec![30, 10])
            .with_hedge(0.02)
            .with_slo_deadline(0.25);
        let json = serde_json::to_string(&c).unwrap();
        let back: ResilienceConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
