//! The per-metric phase machine of Figure 2.
//!
//! Every output metric in a BigHouse simulation proceeds through four
//! phases: **warm-up** (observations discarded to avoid cold-start bias),
//! **calibration** (a small sample determines the lag spacing *l* and the
//! histogram binning), **measurement** (every *l*-th observation is kept),
//! and **convergence** (the kept sample reached the size demanded by the
//! CLT formulas for the requested accuracy and confidence).
//!
//! One departure from the paper's Figure 2: the N_c calibration
//! observations are measured data, not a cost. Once they have chosen *l*
//! and the bins, they are replayed through the lag filter into the kept
//! sample, and the stopping rule looks once at the whole of it; a metric
//! whose calibration sample already meets its targets converges there.

use crate::confidence::{
    half_width_mean, required_samples_mean, required_samples_quantile, z_value,
};
use crate::histogram::{Histogram, HistogramSpec};
use crate::runs_test::{find_lag, RunsUpTest};
use crate::welford::RunningStats;

/// Which phase of the Figure 2 sequence a metric is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Observations are discarded; the model is still biased by its initial
    /// state.
    Warmup,
    /// Observations are buffered to determine lag spacing and histogram
    /// binning; the buffer then becomes the first N_c measurement
    /// observations.
    Calibration,
    /// Every *l*-th observation is kept into the sample.
    Measurement,
    /// The kept sample satisfies the accuracy/confidence target.
    Converged,
}

bighouse_json::json_enum!(Phase {
    Warmup,
    Calibration,
    Measurement,
    Converged
});

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Phase::Warmup => "warm-up",
            Phase::Calibration => "calibration",
            Phase::Measurement => "measurement",
            Phase::Converged => "converged",
        };
        f.write_str(s)
    }
}

/// Configuration for one output metric.
///
/// The defaults mirror the paper: 95% confidence, E = 0.05, a mean and a
/// 95th-percentile target, N_w = 1000 warm-up observations, and a
/// 5000-observation calibration sample (the constant named in Figure 10).
///
/// # Examples
///
/// ```
/// use bighouse_stats::MetricSpec;
///
/// let spec = MetricSpec::new("response_time")
///     .with_target_accuracy(0.01)
///     .with_quantile(0.99);
/// assert_eq!(spec.name(), "response_time");
/// assert_eq!(spec.quantiles(), &[0.95, 0.99]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    name: String,
    target_accuracy: f64,
    confidence: f64,
    quantiles: Vec<f64>,
    warmup: u64,
    calibration: usize,
    max_lag: usize,
}

bighouse_json::json_struct!(MetricSpec {
    name,
    target_accuracy,
    confidence,
    quantiles,
    warmup,
    calibration,
    max_lag,
});

impl MetricSpec {
    /// Default calibration sample size (paper, Figure 10: "a
    /// 5000-observation calibration phase").
    pub const DEFAULT_CALIBRATION: usize = 5000;

    /// Default warm-up observation count N_w. The paper notes no rigorous
    /// automatic method exists; this is the explicit user knob.
    const DEFAULT_WARMUP: u64 = 1000;

    /// Default cap on the lag-spacing search.
    const DEFAULT_MAX_LAG: usize = 32;

    /// Creates a spec with the paper's default targets: mean + 95th
    /// percentile at E = 0.05, 95% confidence.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        assert!(!name.is_empty(), "metric name cannot be empty");
        MetricSpec {
            name,
            target_accuracy: 0.05,
            confidence: 0.95,
            quantiles: vec![0.95],
            warmup: Self::DEFAULT_WARMUP,
            calibration: Self::DEFAULT_CALIBRATION,
            max_lag: Self::DEFAULT_MAX_LAG,
        }
    }

    /// Sets the relative accuracy E (paper Eq. 1). `0.05` means ±5%.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < e < 1`.
    #[must_use]
    pub fn with_target_accuracy(mut self, e: f64) -> Self {
        assert!(
            e > 0.0 && e < 1.0,
            "target accuracy must be in (0, 1), got {e}"
        );
        self.target_accuracy = e;
        self
    }

    /// Sets the confidence level 1−α (e.g. 0.95).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < confidence < 1`.
    #[must_use]
    pub fn with_confidence(mut self, confidence: f64) -> Self {
        assert!(
            confidence > 0.0 && confidence < 1.0,
            "confidence must be in (0, 1), got {confidence}"
        );
        self.confidence = confidence;
        self
    }

    /// Adds a quantile target (e.g. `0.99` for the 99th percentile).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < q < 1`.
    #[must_use]
    pub fn with_quantile(mut self, q: f64) -> Self {
        assert!(q > 0.0 && q < 1.0, "quantile must be in (0, 1), got {q}");
        if !self.quantiles.contains(&q) {
            self.quantiles.push(q);
        }
        self
    }

    /// Replaces the quantile target list entirely (may be empty).
    ///
    /// # Panics
    ///
    /// Panics if any quantile is outside `(0, 1)`.
    #[must_use]
    pub fn with_quantiles(mut self, quantiles: &[f64]) -> Self {
        for &q in quantiles {
            assert!(q > 0.0 && q < 1.0, "quantile must be in (0, 1), got {q}");
        }
        self.quantiles = quantiles.to_vec();
        self
    }

    /// Sets the number of warm-up observations N_w to discard.
    #[must_use]
    pub fn with_warmup(mut self, warmup: u64) -> Self {
        self.warmup = warmup;
        self
    }

    /// Sets the calibration sample size.
    ///
    /// # Panics
    ///
    /// Panics if `calibration` is zero.
    #[must_use]
    pub fn with_calibration(mut self, calibration: usize) -> Self {
        assert!(calibration > 0, "calibration sample must be non-empty");
        self.calibration = calibration;
        self
    }

    /// Caps the lag-spacing search.
    ///
    /// # Panics
    ///
    /// Panics if `max_lag` is zero.
    #[must_use]
    pub fn with_max_lag(mut self, max_lag: usize) -> Self {
        assert!(max_lag >= 1, "max_lag must be at least 1");
        self.max_lag = max_lag;
        self
    }

    /// Metric name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Relative accuracy target E.
    #[must_use]
    pub fn target_accuracy(&self) -> f64 {
        self.target_accuracy
    }

    /// Confidence level 1−α.
    #[must_use]
    pub fn confidence(&self) -> f64 {
        self.confidence
    }

    /// Quantile targets.
    #[must_use]
    pub fn quantiles(&self) -> &[f64] {
        &self.quantiles
    }

    /// Warm-up observation count N_w.
    #[must_use]
    pub fn warmup(&self) -> u64 {
        self.warmup
    }

    /// Calibration sample size.
    #[must_use]
    pub fn calibration(&self) -> usize {
        self.calibration
    }

    /// Lag-search cap.
    #[must_use]
    pub fn max_lag(&self) -> usize {
        self.max_lag
    }

    /// The sample size this spec's accuracy targets demand (paper
    /// Eqs. 2–3), at the mean and σ that `sample` — one metric's kept
    /// observations, or the merge of every slave's — estimates so far.
    /// `None` before two observations exist.
    #[must_use]
    pub fn required_samples(&self, sample: &RunningStats) -> Option<u64> {
        if sample.count() < 2 {
            return None;
        }
        let mut required =
            required_samples_mean(self.confidence, sample.std_dev(), self.mean_epsilon(sample))
                .max(2);
        for &q in &self.quantiles {
            required = required.max(required_samples_quantile(
                self.confidence,
                q,
                self.target_accuracy,
            ));
        }
        Some(required)
    }

    /// The stopping rule, for a serial metric and for the master's
    /// aggregate alike: `sample` holds [`MetricSpec::required_samples`] of
    /// it, and no fewer than 30 observations — so that a lucky early
    /// variance estimate cannot end a run prematurely.
    ///
    /// The rule is asked after every kept observation but can hold only at
    /// the end of a run. So a division-free screen answers `false` first
    /// wherever it proves the mean target alone demands more than the
    /// sample holds, and every other sample gets Eqs. 2–3 exactly: each
    /// verdict is the unscreened rule's, bit for bit.
    #[must_use]
    pub fn satisfied_by(&self, sample: &RunningStats) -> bool {
        if sample.count() < 30 {
            return false;
        }
        if self.mean_rules_out(sample) {
            debug_assert!(
                !self.exactly_satisfied_by(sample),
                "the screen rejected {sample:?}, which the exact rule accepts"
            );
            return false;
        }
        self.exactly_satisfied_by(sample)
    }

    /// Eqs. 2–3 and the floor of 30, unscreened.
    fn exactly_satisfied_by(&self, sample: &RunningStats) -> bool {
        self.required_samples(sample)
            .is_some_and(|required| sample.count() >= required.max(30))
    }

    /// Whether the mean target provably demands more than the `n`
    /// observations `sample` holds: `A > B` with `A = z²·m2` and
    /// `B = n(n−1)·ε²·(1+δ)`, Eq. 2 multiplied through by `(n−1)·ε²`.
    ///
    /// The exact rule computes `r = fl(fl(fl(z·s)/ε)²)` with
    /// `s = fl(√fl(m2/(n−1)))`, within 8 ulp of the real `N_m`; `A` carries
    /// 2 ulp and `B` 4, and `ε` is the same float on both paths. So `A > B`
    /// implies `r > n`, and the exact rule's `false`, whenever
    /// `δ ≥ 15·2⁻⁵³ ≈ 1.7e-15`. `δ = 1e-9` leaves six orders of magnitude
    /// of margin; while the mean target gates, the exact rule runs only
    /// within 1e-9 of its threshold: in practice, on the converging
    /// observation. The ulp bound needs normal floats, so a zero,
    /// subnormal, infinite or NaN operand (`ε²` underflowing for values
    /// near 1e-160, `z²·m2` overflowing for values near 1e152, poisoned
    /// moments) proves nothing and leaves the verdict, and any panic, to
    /// the exact rule.
    fn mean_rules_out(&self, sample: &RunningStats) -> bool {
        const ONE_PLUS_DELTA: f64 = 1.0 + 1e-9;
        let z = z_value(self.confidence);
        let n = sample.count() as f64;
        let eps = self.mean_epsilon(sample);
        let (z2, eps2) = (z * z, eps * eps);
        let a = z2 * sample.m2();
        let b = n * (n - 1.0) * eps2 * ONE_PLUS_DELTA;
        z2.is_normal() && eps2.is_normal() && a.is_normal() && b.is_normal() && a > b
    }

    /// The mean target's absolute half-width ε. E is relative to the mean
    /// (paper Eq. 1); a zero mean makes the relative target meaningless, so
    /// it falls back to absolute E.
    fn mean_epsilon(&self, sample: &RunningStats) -> f64 {
        let mean = sample.mean().abs();
        if mean > 0.0 {
            self.target_accuracy * mean
        } else {
            self.target_accuracy
        }
    }
}

/// Point estimate with confidence information for one quantile target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantileEstimate {
    /// The quantile (e.g. 0.95).
    pub q: f64,
    /// The estimated value of the quantile.
    pub value: f64,
    /// Half-width of the confidence interval in quantile-probability units.
    pub half_width_probability: f64,
    /// Half-width of the confidence interval in the metric's own units
    /// (Chen & Kelton: probability half-width / density at the quantile),
    /// when the local density can be estimated from the histogram.
    pub half_width_value: Option<f64>,
}

bighouse_json::json_struct!(QuantileEstimate {
    q,
    value,
    half_width_probability,
    half_width_value,
});

/// The reported result for one converged (or in-progress) metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricEstimate {
    /// Metric name.
    pub name: String,
    /// Sample mean of the kept observations.
    pub mean: f64,
    /// Sample standard deviation of the kept observations.
    pub std_dev: f64,
    /// Half-width of the mean's confidence interval (same units as the mean).
    pub mean_half_width: f64,
    /// Achieved relative accuracy E = half-width / mean.
    pub relative_accuracy: f64,
    /// Quantile estimates.
    pub quantiles: Vec<QuantileEstimate>,
    /// Number of kept (lag-spaced) observations in the sample, the
    /// calibration sample's included.
    pub samples_kept: u64,
    /// Lag spacing chosen by calibration.
    pub lag: usize,
    /// Total observations seen, across all phases.
    pub total_observed: u64,
}

bighouse_json::json_struct!(MetricEstimate {
    name,
    mean,
    std_dev,
    mean_half_width,
    relative_accuracy,
    quantiles,
    samples_kept,
    lag,
    total_observed,
});

impl MetricEstimate {
    /// Builds an estimate directly from a (possibly merged) histogram, as
    /// the parallel runner's master does after the reduce step.
    #[must_use]
    pub fn from_histogram(
        name: impl Into<String>,
        histogram: &Histogram,
        confidence: f64,
        quantiles: &[f64],
        lag: usize,
        total_observed: u64,
    ) -> Self {
        let moments = histogram.moments();
        let n = moments.count();
        let half = half_width_mean(confidence, moments.std_dev(), n);
        let z = z_value(confidence);
        MetricEstimate {
            name: name.into(),
            mean: moments.mean(),
            std_dev: moments.std_dev(),
            mean_half_width: half,
            relative_accuracy: if moments.mean() != 0.0 {
                half / moments.mean().abs()
            } else {
                f64::INFINITY
            },
            quantiles: quantiles
                .iter()
                .filter_map(|&q| {
                    histogram.quantile(q).map(|value| {
                        let half_prob = if n > 0 {
                            z * (q * (1.0 - q) / n as f64).sqrt()
                        } else {
                            f64::INFINITY
                        };
                        let density = histogram.density_at(value);
                        QuantileEstimate {
                            q,
                            value,
                            half_width_probability: half_prob,
                            half_width_value: (density > 0.0 && half_prob.is_finite())
                                .then(|| half_prob / density),
                        }
                    })
                })
                .collect(),
            samples_kept: n,
            lag,
            total_observed,
        }
    }
}

/// One output metric moving through the Figure 2 phase sequence.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
///
/// The whole phase machine serializes to JSON: a checkpointed metric —
/// mid-warm-up, mid-calibration, or mid-measurement — resumes with exactly
/// the behavior the uninterrupted metric would have had. States written
/// while the kept sample had a second accumulator carry `kept` and
/// `min_kept` keys, which are ignored: the histogram's moments are equal.
#[derive(Debug, Clone)]
pub struct OutputMetric {
    spec: MetricSpec,
    phase: Phase,
    self_gating: bool,
    warmup_seen: u64,
    calibration_buffer: Vec<f64>,
    forced_histogram: Option<HistogramSpec>,
    lag: usize,
    measurement_seen: u64,
    /// The kept sample: bins for the quantiles, exact moments for the mean
    /// and for the stopping rule.
    histogram: Option<Histogram>,
    total_observed: u64,
}

bighouse_json::json_struct!(OutputMetric {
    spec,
    phase,
    self_gating,
    warmup_seen,
    calibration_buffer,
    forced_histogram,
    lag,
    measurement_seen,
    histogram,
    total_observed,
});

impl OutputMetric {
    /// Creates a self-gating metric: it leaves warm-up on its own once N_w
    /// observations have been discarded. Use this when the metric is the
    /// only one in the simulation.
    #[must_use]
    pub fn new(spec: MetricSpec) -> Self {
        Self::build(spec, true)
    }

    /// Creates an externally gated metric: it stays in warm-up until
    /// [`OutputMetric::end_warmup`] is called, implementing the paper's
    /// constraint that no metric may calibrate until **all** metrics are
    /// warm. [`crate::StatsCollection`] uses this constructor.
    #[must_use]
    pub(crate) fn new_gated(spec: MetricSpec) -> Self {
        Self::build(spec, false)
    }

    fn build(spec: MetricSpec, self_gating: bool) -> Self {
        let phase = if self_gating && spec.warmup == 0 {
            Phase::Calibration
        } else {
            Phase::Warmup
        };
        OutputMetric {
            spec,
            phase,
            self_gating,
            warmup_seen: 0,
            calibration_buffer: Vec::new(),
            forced_histogram: None,
            lag: 1,
            measurement_seen: 0,
            histogram: None,
            total_observed: 0,
        }
    }

    /// Forces the histogram binning instead of deriving it from this
    /// metric's own calibration sample. This is how slaves adopt the bin
    /// scheme broadcast by the master (Figure 3): the slave still runs its
    /// own warm-up and calibration, which chooses its lag and whose
    /// lag-spaced observations it keeps, but not histogram setup.
    #[must_use]
    pub(crate) fn with_forced_histogram(mut self, spec: HistogramSpec) -> Self {
        self.forced_histogram = Some(spec);
        self
    }

    /// The metric's configuration.
    #[must_use]
    pub fn spec(&self) -> &MetricSpec {
        &self.spec
    }

    /// Current phase.
    #[must_use]
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Whether N_w warm-up observations have been seen (the metric may still
    /// be held in warm-up by external gating).
    #[must_use]
    pub(crate) fn warmup_complete(&self) -> bool {
        self.warmup_seen >= self.spec.warmup
    }

    /// Ends the warm-up phase immediately (idempotent).
    pub(crate) fn end_warmup(&mut self) {
        if self.phase == Phase::Warmup {
            self.phase = Phase::Calibration;
        }
    }

    /// Lag spacing *l* chosen by calibration (1 until calibration ends).
    #[must_use]
    pub fn lag(&self) -> usize {
        self.lag
    }

    /// Number of kept observations: every *l*-th post-warm-up observation,
    /// the calibration sample's included, once calibration has ended (0
    /// before).
    #[must_use]
    pub fn kept_count(&self) -> u64 {
        self.histogram.as_ref().map_or(0, Histogram::count)
    }

    /// Total observations recorded across all phases.
    #[must_use]
    pub fn total_observed(&self) -> u64 {
        self.total_observed
    }

    /// Observations that have passed the lag filter, kept or discarded:
    /// the N_c calibration observations, replayed when calibration ends,
    /// and every one since (0 before calibration ends).
    ///
    /// `measurement_seen() - kept_count()` is the number of samples the
    /// lag-spacing filter dropped to de-correlate the kept stream — the
    /// price paid for independence (§2.3), surfaced by telemetry.
    #[must_use]
    pub fn measurement_seen(&self) -> u64 {
        self.measurement_seen
    }

    /// Whether this metric has reached its accuracy/confidence target.
    #[must_use]
    pub fn is_converged(&self) -> bool {
        self.phase == Phase::Converged
    }

    /// The measurement histogram, once calibration has configured it.
    #[must_use]
    pub fn histogram(&self) -> Option<&Histogram> {
        self.histogram.as_ref()
    }

    /// Records one observation, advancing the phase machine as needed.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "cannot record NaN observation");
        self.total_observed += 1;
        match self.phase {
            Phase::Warmup => {
                self.warmup_seen += 1;
                if self.self_gating && self.warmup_seen >= self.spec.warmup {
                    self.phase = Phase::Calibration;
                }
            }
            Phase::Calibration => {
                self.calibration_buffer.push(x);
                if self.calibration_buffer.len() >= self.spec.calibration {
                    self.finish_calibration();
                }
            }
            Phase::Measurement | Phase::Converged => {
                self.measurement_seen += 1;
                if lag_keeps(self.lag as u64, self.measurement_seen - 1) {
                    self.keep(x);
                }
            }
        }
    }

    /// Runs once per metric, so it stays out of `record`'s hot path.
    #[cold]
    #[inline(never)]
    fn finish_calibration(&mut self) {
        let test = RunsUpTest::new(1.0 - self.spec.confidence);
        self.lag = find_lag(&self.calibration_buffer, self.spec.max_lag, &test);
        let hist_spec = match self.forced_histogram {
            Some(spec) => spec,
            None => HistogramSpec::from_calibration_sample(&self.calibration_buffer)
                .expect("calibration buffer is non-empty"),
        };
        // The buffer is the first N_c measurement observations: replay it
        // through the lag filter, then let the stopping rule look once.
        let mut hist = Histogram::new(hist_spec);
        let buffer = std::mem::take(&mut self.calibration_buffer);
        for (index, &x) in (0..).zip(&buffer) {
            if lag_keeps(self.lag as u64, index) {
                hist.record(x);
            }
        }
        self.measurement_seen = buffer.len() as u64;
        self.phase = if self.spec.satisfied_by(hist.moments()) {
            Phase::Converged
        } else {
            Phase::Measurement
        };
        self.histogram = Some(hist);
    }

    fn keep(&mut self, x: f64) {
        let Some(hist) = &mut self.histogram else {
            return;
        };
        hist.record(x);
        if self.phase == Phase::Measurement && self.spec.satisfied_by(hist.moments()) {
            self.phase = Phase::Converged;
        }
    }

    /// The kept-sample size currently demanded by the accuracy targets
    /// ([`MetricSpec::required_samples`] of the kept sample). `None` before
    /// measurement begins or before two observations exist.
    #[must_use]
    pub fn required_samples(&self) -> Option<u64> {
        let hist = self.histogram.as_ref()?;
        self.spec.required_samples(hist.moments())
    }

    /// The achieved relative accuracy E of the mean estimate so far
    /// (infinite before two observations are kept). This is the quantity
    /// Figure 8 plots against simulated events.
    #[must_use]
    pub fn current_relative_accuracy(&self) -> f64 {
        let Some(kept) = self.histogram.as_ref().map(Histogram::moments) else {
            return f64::INFINITY;
        };
        let n = kept.count();
        if n < 2 || kept.mean() == 0.0 {
            return f64::INFINITY;
        }
        half_width_mean(self.spec.confidence, kept.std_dev(), n) / kept.mean().abs()
    }

    /// Point estimates with confidence information.
    ///
    /// `None` until at least one observation has been kept.
    #[must_use]
    pub fn estimate(&self) -> Option<MetricEstimate> {
        let hist = self.histogram.as_ref()?;
        if hist.count() == 0 {
            return None;
        }
        Some(MetricEstimate::from_histogram(
            self.spec.name.clone(),
            hist,
            self.spec.confidence,
            &self.spec.quantiles,
            self.lag,
            self.total_observed,
        ))
    }
}

/// Whether the measurement observation at `index` (from 0) is kept: every
/// `lag`-th one, `index.is_multiple_of(lag)`. Lag 1 and every power-of-two
/// lag test a mask instead of dividing; a lag of 0, which only a hostile
/// checkpoint can hold, keeps index 0 alone, as `is_multiple_of` does.
fn lag_keeps(lag: u64, index: u64) -> bool {
    if lag.is_power_of_two() {
        index & (lag - 1) == 0
    } else {
        index.is_multiple_of(lag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bighouse_des::SimRng;

    fn lcg_stream(seed: u64) -> impl Iterator<Item = f64> {
        let mut state = seed;
        std::iter::from_fn(move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            Some((state >> 11) as f64 / (1u64 << 53) as f64)
        })
    }

    fn quick_spec() -> MetricSpec {
        MetricSpec::new("test")
            .with_warmup(50)
            .with_calibration(500)
            .with_target_accuracy(0.05)
    }

    #[test]
    fn spec_builder_round_trips() {
        let spec = MetricSpec::new("latency")
            .with_target_accuracy(0.01)
            .with_confidence(0.99)
            .with_quantile(0.99)
            .with_warmup(123)
            .with_calibration(456)
            .with_max_lag(7);
        assert_eq!(spec.name(), "latency");
        assert_eq!(spec.target_accuracy(), 0.01);
        assert_eq!(spec.confidence(), 0.99);
        assert_eq!(spec.quantiles(), &[0.95, 0.99]);
        assert_eq!(spec.warmup(), 123);
        assert_eq!(spec.calibration(), 456);
        assert_eq!(spec.max_lag(), 7);
    }

    #[test]
    fn duplicate_quantile_not_added() {
        let spec = MetricSpec::new("m").with_quantile(0.95);
        assert_eq!(spec.quantiles(), &[0.95]);
    }

    #[test]
    #[should_panic(expected = "name cannot be empty")]
    fn rejects_empty_name() {
        let _ = MetricSpec::new("");
    }

    #[test]
    fn phases_progress_in_order() {
        let mut metric = OutputMetric::new(quick_spec().with_target_accuracy(0.01));
        assert_eq!(metric.phase(), Phase::Warmup);
        let mut stream = lcg_stream(1);
        for _ in 0..50 {
            metric.record(stream.next().unwrap());
        }
        assert_eq!(metric.phase(), Phase::Calibration);
        for _ in 0..499 {
            metric.record(stream.next().unwrap());
        }
        assert_eq!(metric.phase(), Phase::Calibration);
        metric.record(stream.next().unwrap());
        // E = 0.01 needs more than the 500 calibration observations, so the
        // one look at the end of calibration leaves the metric measuring.
        let kept = metric.histogram().unwrap().moments();
        assert!(!metric.spec().satisfied_by(kept));
        assert_eq!(metric.phase(), Phase::Measurement);
        assert!(metric.lag() >= 1);
        while !metric.is_converged() {
            metric.record(stream.next().unwrap());
        }
        assert_eq!(metric.phase(), Phase::Converged);
    }

    #[test]
    fn warmup_observations_are_discarded() {
        let mut metric = OutputMetric::new(quick_spec());
        for _ in 0..50 {
            metric.record(1_000_000.0); // biased "cold start" values
        }
        let mut stream = lcg_stream(2);
        while !metric.is_converged() {
            metric.record(stream.next().unwrap());
        }
        let est = metric.estimate().unwrap();
        // The huge warm-up values must not contaminate the estimate.
        assert!(est.mean < 1.0, "warm-up leaked into estimate: {}", est.mean);
    }

    #[test]
    fn gated_metric_waits_for_end_warmup() {
        let mut metric = OutputMetric::new_gated(quick_spec());
        let mut stream = lcg_stream(3);
        for _ in 0..500 {
            metric.record(stream.next().unwrap());
        }
        assert_eq!(metric.phase(), Phase::Warmup);
        assert!(metric.warmup_complete());
        metric.end_warmup();
        assert_eq!(metric.phase(), Phase::Calibration);
    }

    #[test]
    fn converged_estimate_meets_accuracy_target() {
        let mut metric = OutputMetric::new(quick_spec());
        let mut stream = lcg_stream(4);
        while !metric.is_converged() {
            metric.record(0.5 + stream.next().unwrap());
        }
        let est = metric.estimate().unwrap();
        assert!(
            est.relative_accuracy <= 0.05 * 1.05,
            "E achieved {} > target",
            est.relative_accuracy
        );
        // Uniform on [0.5, 1.5): mean 1.0.
        assert!((est.mean - 1.0).abs() < 0.05);
        let p95 = est.quantiles.iter().find(|q| q.q == 0.95).unwrap();
        assert!((p95.value - 1.45).abs() < 0.05, "p95 {}", p95.value);
    }

    #[test]
    fn required_samples_none_before_measurement() {
        let metric = OutputMetric::new(quick_spec());
        assert_eq!(metric.required_samples(), None);
    }

    /// The stopping rule without `satisfied_by`'s screen: Eqs. 2–3 and the
    /// floor, as the reference the screened rule must equal.
    fn unscreened(spec: &MetricSpec, sample: &RunningStats) -> bool {
        spec.required_samples(sample)
            .is_some_and(|required| sample.count() >= required.max(30))
    }

    type Stream = Box<dyn FnMut(&mut SimRng, u64) -> f64>;

    #[test]
    fn convergence_is_the_first_kept_count_the_spec_is_satisfied_by() {
        // The phase machine owns no stopping rule of its own: it converges
        // on the kept observation where the unscreened rule first holds of
        // the kept sample, and on none before it.
        let streams: [(&str, MetricSpec, Stream); 4] = [
            (
                "uniform",
                quick_spec(),
                Box::new(|rng, _| rng.half_open01()),
            ),
            // Pareto α = 2.5: finite variance, infinite fourth moment.
            (
                "pareto",
                quick_spec(),
                Box::new(|rng, _| rng.open01().powf(-1.0 / 2.5)),
            ),
            (
                "negative",
                quick_spec(),
                Box::new(|rng, _| -0.5 - rng.half_open01()),
            ),
            (
                "ar(1)",
                quick_spec().with_calibration(2000),
                Box::new({
                    let mut x = 0.5;
                    move |rng, _| {
                        x = 0.97 * x + 0.03 * rng.half_open01();
                        x
                    }
                }),
            ),
        ];
        for (seed, (name, spec, mut next)) in (11..).zip(streams) {
            let mut rng = SimRng::from_seed(seed);
            let mut metric = OutputMetric::new(spec);
            for i in 0.. {
                metric.record(next(&mut rng, i));
                let accepted = metric
                    .histogram()
                    .is_some_and(|kept| unscreened(metric.spec(), kept.moments()));
                assert_eq!(
                    metric.is_converged(),
                    accepted,
                    "{name} at {} kept",
                    metric.kept_count()
                );
                if accepted {
                    break;
                }
            }
            assert!(
                metric.kept_count() >= 30,
                "{name}: the floor is part of the rule"
            );
            assert!(metric.kept_count() >= metric.required_samples().unwrap());
            if name == "ar(1)" {
                assert!(metric.lag() > 1, "the AR(1) stream calibrates to lag > 1");
            }
        }
    }

    #[test]
    fn the_screen_never_changes_a_verdict() {
        // At every n, on a pushed sample and on the master's merge of two
        // interleaved halves, `satisfied_by` equals the unscreened rule for
        // every stream × spec pair; wherever ε² or z²·m2 is not a normal
        // float, the screen stays silent.
        const N: u64 = 3000;
        let hyper_p = 0.5 * (1.0 + ((3.4f64.powi(2) - 1.0) / (3.4f64.powi(2) + 1.0)).sqrt());
        let streams: [(&str, Stream); 9] = [
            ("exponential", Box::new(|rng, _| -rng.open01().ln())),
            (
                "pareto 1.5",
                Box::new(|rng, _| rng.open01().powf(-1.0 / 1.5)),
            ),
            (
                // Balanced-means H2 with C_v = 3.4, mean 1.
                "hyperexponential",
                Box::new(move |rng, _| {
                    let rate = if rng.half_open01() < hyper_p {
                        2.0 * hyper_p
                    } else {
                        2.0 * (1.0 - hyper_p)
                    };
                    -rng.open01().ln() / rate
                }),
            ),
            ("constant", Box::new(|_, _| 2.5)),
            ("zeros", Box::new(|_, _| 0.0)),
            ("negative", Box::new(|rng, _| rng.open01().ln() - 1.0)),
            (
                "alternating",
                Box::new(|_, i| if i % 2 == 0 { 1.0 } else { -1.0 }),
            ),
            ("tiny", Box::new(|rng, _| -1e-160 * rng.open01().ln())),
            ("huge", Box::new(|rng, _| -2e152 * rng.open01().ln())),
        ];
        let mut specs = Vec::new();
        for e in [0.0008, 0.05, 0.5] {
            for confidence in [0.9, 0.95, 0.99] {
                for quantiles in [&[][..], &[0.95], &[0.5, 0.99]] {
                    specs.push(
                        MetricSpec::new("m")
                            .with_target_accuracy(e)
                            .with_confidence(confidence)
                            .with_quantiles(quantiles),
                    );
                }
            }
        }

        let (mut screened, mut accepted) = (0u64, 0u64);
        for (seed, (name, mut next)) in (0..).zip(streams) {
            let mut rng = SimRng::from_seed(seed);
            let (mut pushed, mut halves) = (RunningStats::new(), [RunningStats::new(); 2]);
            let mut fallbacks = 0u64;
            for i in 0..N {
                let x = next(&mut rng, i);
                pushed.push(x);
                halves[(i % 2) as usize].push(x);
                let mut merged = RunningStats::new();
                merged.merge(&halves[0]);
                merged.merge(&halves[1]);
                for sample in [&pushed, &merged] {
                    for spec in &specs {
                        let verdict = spec.satisfied_by(sample);
                        assert_eq!(
                            verdict,
                            unscreened(spec, sample),
                            "{name}: {spec:?} on {sample:?}"
                        );
                        let rules_out = spec.mean_rules_out(sample);
                        let z = z_value(spec.confidence());
                        let eps = spec.mean_epsilon(sample);
                        if !(eps * eps).is_normal() || !(z * z * sample.m2()).is_normal() {
                            assert!(!rules_out, "{name}: screened a non-normal operand");
                            fallbacks += 1;
                        }
                        screened += u64::from(rules_out);
                        accepted += u64::from(verdict);
                    }
                }
            }
            if matches!(name, "tiny" | "huge" | "constant" | "zeros") {
                assert!(fallbacks > 0, "{name} never reached the fallback");
            }
        }
        assert!(
            screened > 0 && accepted > 0,
            "{screened} screened, {accepted} accepted"
        );
    }

    #[test]
    #[should_panic(expected = "standard deviation cannot be negative")]
    fn poisoned_moments_still_panic_in_the_exact_rule() {
        // An infinite observation leaves the mean infinite and m2 NaN: the
        // screen proves nothing, and the exact rule panics as it always has.
        let mut sample: RunningStats = (0..40).map(f64::from).collect();
        sample.push(f64::INFINITY);
        let _ = MetricSpec::new("m").satisfied_by(&sample);
    }

    #[test]
    fn forced_histogram_spec_is_used() {
        let forced = HistogramSpec::new(0.0, 0.001, 2000).unwrap();
        let mut metric = OutputMetric::new(quick_spec()).with_forced_histogram(forced);
        let mut stream = lcg_stream(5);
        for _ in 0..600 {
            metric.record(stream.next().unwrap());
        }
        assert_eq!(metric.histogram().unwrap().spec(), &forced);
    }

    #[test]
    fn lag_spacing_thins_the_kept_sample() {
        // Strongly autocorrelated input should select lag > 1 and keep
        // exactly ⌈(N_c + m) / l⌉ of the N_c calibration and m later
        // observations.
        let mut metric = OutputMetric::new(quick_spec().with_calibration(2000));
        let mut stream = lcg_stream(6);
        let mut x = 0.5;
        let mut next = move || {
            x = 0.97 * x + 0.03 * stream.next().unwrap();
            x
        };
        for _ in 0..50 + 2000 {
            metric.record(next());
        }
        assert!(metric.lag() > 1, "expected lag > 1 for AR(1) data");
        for _ in 0..1000 {
            metric.record(next());
        }
        assert_eq!(metric.measurement_seen(), 2000 + 1000);
        assert_eq!(
            metric.kept_count(),
            (2000 + 1000u64).div_ceil(metric.lag() as u64)
        );
    }

    #[test]
    fn lag_filter_keeps_the_multiples_of_the_lag() {
        for lag in 0..10u64 {
            let mut metric = OutputMetric::new(quick_spec());
            let mut stream = lcg_stream(8);
            for _ in 0..50 + 500 {
                metric.record(stream.next().unwrap());
            }
            // The lag spacing continues from the 500 replayed calibration
            // observations: the next live one has measurement index 500.
            assert_eq!(metric.measurement_seen(), 500);
            metric.lag = lag as usize;
            let kept_before = metric.kept_count();
            let mut expected = 0;
            for index in 500..10_500u64 {
                assert_eq!(
                    lag_keeps(lag, index),
                    index.is_multiple_of(lag),
                    "lag {lag}, index {index}"
                );
                expected += u64::from(index.is_multiple_of(lag));
                metric.record(stream.next().unwrap());
            }
            assert_eq!(metric.kept_count() - kept_before, expected, "lag {lag}");
        }
    }

    #[test]
    fn calibration_sample_is_replayed_through_the_lag_filter() {
        // Right after calibration the kept sample is exactly the buffer's
        // lag-spaced elements: ⌈N_c / l⌉ of them, in one histogram equal
        // bit for bit to one built from those elements alone.
        let mut metric = OutputMetric::new(quick_spec().with_calibration(2000));
        let mut stream = lcg_stream(6);
        let mut x = 0.5;
        for _ in 0..50 {
            metric.record(x);
        }
        let mut buffer = Vec::new();
        while metric.phase() == Phase::Calibration {
            x = 0.97 * x + 0.03 * stream.next().unwrap();
            buffer.push(x);
            metric.record(x);
        }
        assert_eq!(buffer.len(), 2000);
        let lag = metric.lag();
        assert!(lag > 1, "expected lag > 1 for AR(1) data");
        assert_eq!(metric.measurement_seen(), 2000);
        assert_eq!(metric.kept_count(), 2000u64.div_ceil(lag as u64));
        let kept = metric.histogram().unwrap();
        let mut rebuilt = Histogram::new(*kept.spec());
        for &x in buffer.iter().step_by(lag) {
            rebuilt.record(x);
        }
        assert_eq!(
            bighouse_json::to_string(kept),
            bighouse_json::to_string(&rebuilt)
        );
    }

    #[test]
    fn the_stopping_rule_looks_once_when_calibration_ends() {
        // A spec the buffered sample satisfies converges on the N_c-th
        // post-warm-up observation, within its accuracy target.
        let mut metric = OutputMetric::new(quick_spec().with_target_accuracy(0.2));
        let mut stream = lcg_stream(12);
        for _ in 0..50 + 499 {
            metric.record(0.5 + stream.next().unwrap());
        }
        assert_eq!(metric.phase(), Phase::Calibration);
        metric.record(0.5 + stream.next().unwrap());
        assert_eq!(metric.phase(), Phase::Converged);
        let est = metric.estimate().unwrap();
        assert!(
            est.relative_accuracy <= 0.2,
            "E achieved {}",
            est.relative_accuracy
        );

        // One the buffer does not satisfy keeps measuring.
        let mut metric = OutputMetric::new(quick_spec().with_target_accuracy(0.001));
        for _ in 0..50 + 500 {
            metric.record(0.5 + stream.next().unwrap());
        }
        assert_eq!(metric.phase(), Phase::Measurement);

        // The look is at the whole buffer, not at each prefix: 250 tight
        // observations satisfy E = 0.05 on their own, and the 250 spread
        // ones after them need ~2 000 more.
        let spec = MetricSpec::new("m")
            .with_warmup(0)
            .with_calibration(500)
            .with_max_lag(1)
            .with_quantiles(&[]);
        let mut metric = OutputMetric::new(spec.clone());
        let mut prefix = RunningStats::new();
        for i in 0..500 {
            let u = stream.next().unwrap();
            let x = if i < 250 { 0.99 + 0.02 * u } else { 100.0 * u };
            if i < 250 {
                prefix.push(x);
            }
            metric.record(x);
        }
        assert!(spec.satisfied_by(&prefix));
        assert_eq!(metric.kept_count(), 500);
        assert_eq!(metric.phase(), Phase::Measurement);
    }

    #[test]
    fn converged_metric_keeps_recording() {
        let mut metric = OutputMetric::new(quick_spec());
        let mut stream = lcg_stream(7);
        while !metric.is_converged() {
            metric.record(stream.next().unwrap());
        }
        let kept_at_convergence = metric.kept_count();
        for _ in 0..10_000 {
            metric.record(stream.next().unwrap());
        }
        assert!(metric.kept_count() > kept_at_convergence);
        assert!(metric.is_converged());
    }

    #[test]
    fn accuracy_improves_with_observations() {
        let mut metric = OutputMetric::new(quick_spec());
        let mut stream = lcg_stream(8);
        for _ in 0..50 + 500 + 200 {
            metric.record(stream.next().unwrap());
        }
        let early = metric.current_relative_accuracy();
        for _ in 0..5000 {
            metric.record(stream.next().unwrap());
        }
        let late = metric.current_relative_accuracy();
        assert!(late < early, "accuracy should tighten: {early} -> {late}");
    }

    #[test]
    fn estimate_none_before_any_kept() {
        let metric = OutputMetric::new(quick_spec());
        assert!(metric.estimate().is_none());
    }

    #[test]
    fn estimate_from_histogram_matches_direct() {
        let spec = HistogramSpec::new(0.0, 0.01, 200).unwrap();
        let mut hist = Histogram::new(spec);
        let mut stream = lcg_stream(9);
        for _ in 0..10_000 {
            hist.record(stream.next().unwrap());
        }
        let est = MetricEstimate::from_histogram("m", &hist, 0.95, &[0.5], 3, 12_345);
        assert!((est.mean - 0.5).abs() < 0.02);
        assert_eq!(est.lag, 3);
        assert_eq!(est.total_observed, 12_345);
        assert_eq!(est.samples_kept, 10_000);
        let median = &est.quantiles[0];
        assert!((median.value - 0.5).abs() < 0.02);
        assert!(median.half_width_probability < 0.02);
    }

    #[test]
    fn quantile_value_ci_scales_with_density() {
        // Uniform data on [0,1): density 1, so the value half-width should
        // approximately equal the probability half-width.
        let spec = HistogramSpec::new(0.0, 0.001, 1000).unwrap();
        let mut hist = Histogram::new(spec);
        let mut stream = lcg_stream(10);
        for _ in 0..100_000 {
            hist.record(stream.next().unwrap());
        }
        let est = MetricEstimate::from_histogram("m", &hist, 0.95, &[0.5], 1, 100_000);
        let q = &est.quantiles[0];
        let hv = q.half_width_value.expect("density is positive");
        assert!(
            (hv / q.half_width_probability - 1.0).abs() < 0.2,
            "value half-width {hv} vs probability {}",
            q.half_width_probability
        );
    }

    #[test]
    fn zero_warmup_skips_straight_to_calibration() {
        let metric = OutputMetric::new(quick_spec().with_warmup(0));
        assert_eq!(metric.phase(), Phase::Calibration);
    }
}
