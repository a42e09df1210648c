//! The per-metric phase machine of Figure 2.
//!
//! Every output metric in a BigHouse simulation proceeds through four
//! phases: **warm-up** (observations discarded to avoid cold-start bias),
//! **calibration** (a small sample determines the lag spacing *l* and the
//! histogram binning), **measurement** (every *l*-th observation is kept),
//! and **convergence** (the kept sample reached the size demanded by the
//! CLT formulas for the requested accuracy and confidence).

use serde::{Deserialize, Serialize};

use crate::confidence::{
    half_width_mean, required_samples_mean, required_samples_quantile, z_value,
};
use crate::histogram::{Histogram, HistogramSpec};
use crate::runs_test::{find_lag, RunsUpTest};
use crate::welford::RunningStats;

/// A rejected observation: NaN or infinite. Returned by
/// [`OutputMetric::try_record`] and
/// [`crate::StatsCollection::try_record`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NonFiniteObservation {
    /// The offending value rendered as text (NaN and infinities survive
    /// `Display` but not JSON).
    pub value: String,
}

impl std::fmt::Display for NonFiniteObservation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "non-finite observation {}", self.value)
    }
}

impl std::error::Error for NonFiniteObservation {}

/// Which phase of the Figure 2 sequence a metric is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// Observations are discarded; the model is still biased by its initial
    /// state.
    Warmup,
    /// Observations are buffered to determine lag spacing and histogram
    /// binning.
    Calibration,
    /// Every *l*-th observation is kept into the sample.
    Measurement,
    /// The kept sample satisfies the accuracy/confidence target.
    Converged,
}

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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricSpec {
    name: String,
    target_accuracy: f64,
    confidence: f64,
    track_mean: bool,
    quantiles: Vec<f64>,
    warmup: u64,
    calibration: usize,
    max_lag: usize,
    histogram_bins: usize,
}

impl MetricSpec {
    /// Default calibration sample size (paper, Figure 10: "a
    /// 5000-observation calibration phase").
    pub const DEFAULT_CALIBRATION: usize = 5000;

    /// Default warm-up observation count N_w. The paper notes no rigorous
    /// automatic method exists; this is the explicit user knob.
    pub const DEFAULT_WARMUP: u64 = 1000;

    /// Default cap on the lag-spacing search.
    pub const DEFAULT_MAX_LAG: usize = 32;

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
            track_mean: true,
            quantiles: vec![0.95],
            warmup: Self::DEFAULT_WARMUP,
            calibration: Self::DEFAULT_CALIBRATION,
            max_lag: Self::DEFAULT_MAX_LAG,
            histogram_bins: HistogramSpec::DEFAULT_BINS,
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

    /// Enables or disables the mean-accuracy target.
    #[must_use]
    pub fn with_mean_tracking(mut self, track: bool) -> Self {
        self.track_mean = track;
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

    /// Sets the histogram bin count.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is zero.
    #[must_use]
    pub fn with_histogram_bins(mut self, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        self.histogram_bins = bins;
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

    /// Whether the mean has an accuracy target.
    #[must_use]
    pub fn tracks_mean(&self) -> bool {
        self.track_mean
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
        let mut required = 2u64;
        if self.track_mean {
            let mean = sample.mean().abs();
            // E is relative to the mean (paper Eq. 1); a zero mean makes the
            // relative target meaningless, so fall back to absolute E.
            let eps = if mean > 0.0 {
                self.target_accuracy * mean
            } else {
                self.target_accuracy
            };
            required = required.max(required_samples_mean(
                self.confidence,
                sample.std_dev(),
                eps,
            ));
        }
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
    #[must_use]
    pub fn satisfied_by(&self, sample: &RunningStats) -> bool {
        self.required_samples(sample)
            .is_some_and(|required| sample.count() >= required.max(30))
    }
}

/// Point estimate with confidence information for one quantile target.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
    #[serde(default)]
    pub half_width_value: Option<f64>,
}

/// The reported result for one converged (or in-progress) metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// Number of kept (lag-spaced) observations in the sample.
    pub samples_kept: u64,
    /// Lag spacing chosen by calibration.
    pub lag: usize,
    /// Total observations seen, across all phases.
    pub total_observed: u64,
}

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
/// The whole phase machine serializes with serde: a checkpointed metric —
/// mid-warm-up, mid-calibration, or mid-measurement — resumes with exactly
/// the behavior the uninterrupted metric would have had. States written
/// while the kept sample had a second accumulator carry `kept` and
/// `min_kept` keys, which are ignored: the histogram's moments are equal.
#[derive(Debug, Clone, Serialize, Deserialize)]
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
    pub fn new_gated(spec: MetricSpec) -> Self {
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
    /// own warm-up and lag calibration, but not histogram setup.
    #[must_use]
    pub fn with_forced_histogram(mut self, spec: HistogramSpec) -> Self {
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
    pub fn warmup_complete(&self) -> bool {
        self.warmup_seen >= self.spec.warmup
    }

    /// Ends the warm-up phase immediately (idempotent).
    pub fn end_warmup(&mut self) {
        if self.phase == Phase::Warmup {
            self.phase = Phase::Calibration;
        }
    }

    /// Lag spacing *l* chosen by calibration (1 until calibration ends).
    #[must_use]
    pub fn lag(&self) -> usize {
        self.lag
    }

    /// Number of kept (lag-spaced, post-calibration) observations.
    #[must_use]
    pub fn kept_count(&self) -> u64 {
        self.histogram.as_ref().map_or(0, Histogram::count)
    }

    /// Total observations recorded across all phases.
    #[must_use]
    pub fn total_observed(&self) -> u64 {
        self.total_observed
    }

    /// Observations seen during the measurement phase (kept or discarded).
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

    /// As [`OutputMetric::record`], but rejects non-finite observations
    /// with a typed error instead of panicking (or, for infinities, instead
    /// of silently poisoning the running moments). The metric is unchanged
    /// when an error is returned.
    ///
    /// # Errors
    ///
    /// Returns [`NonFiniteObservation`] if `x` is NaN or infinite.
    pub fn try_record(&mut self, x: f64) -> Result<(), NonFiniteObservation> {
        if !x.is_finite() {
            return Err(NonFiniteObservation {
                value: format!("{x}"),
            });
        }
        self.record(x);
        Ok(())
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
                if (self.measurement_seen - 1).is_multiple_of(self.lag as u64) {
                    self.keep(x);
                }
            }
        }
    }

    fn finish_calibration(&mut self) {
        let test = RunsUpTest::new(1.0 - self.spec.confidence);
        self.lag = find_lag(&self.calibration_buffer, self.spec.max_lag, &test);
        let hist_spec = match self.forced_histogram {
            Some(spec) => spec,
            None => HistogramSpec::from_calibration_sample_with_bins(
                &self.calibration_buffer,
                self.spec.histogram_bins,
            )
            .expect("calibration buffer is non-empty"),
        };
        self.histogram = Some(Histogram::new(hist_spec));
        self.calibration_buffer = Vec::new();
        self.phase = Phase::Measurement;
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

#[cfg(test)]
mod tests {
    use super::*;

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
            .with_max_lag(7)
            .with_histogram_bins(99);
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
        let mut metric = OutputMetric::new(quick_spec());
        assert_eq!(metric.phase(), Phase::Warmup);
        let mut stream = lcg_stream(1);
        for _ in 0..50 {
            metric.record(stream.next().unwrap());
        }
        assert_eq!(metric.phase(), Phase::Calibration);
        for _ in 0..500 {
            metric.record(stream.next().unwrap());
        }
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

    #[test]
    fn convergence_is_the_first_kept_count_the_spec_is_satisfied_by() {
        // The phase machine owns no stopping rule of its own: it converges
        // on the record where `MetricSpec::satisfied_by` first holds of the
        // kept sample, and on none before it.
        let mut metric = OutputMetric::new(quick_spec());
        let mut stream = lcg_stream(11);
        loop {
            metric.record(stream.next().unwrap());
            let satisfied = metric
                .histogram()
                .is_some_and(|kept| metric.spec().satisfied_by(kept.moments()));
            assert_eq!(metric.is_converged(), satisfied);
            if satisfied {
                break;
            }
        }
        assert!(metric.kept_count() >= 30, "the floor is part of the rule");
        assert!(metric.kept_count() >= metric.required_samples().unwrap());
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
        // roughly measurement_seen / lag observations.
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
        let expected = 1000 / metric.lag() as u64;
        assert!(metric.kept_count().abs_diff(expected) <= 1);
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
