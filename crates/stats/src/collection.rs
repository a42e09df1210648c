//! Multi-metric bookkeeping with the paper's global phase constraints.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::metric::{MetricEstimate, MetricSpec, NonFiniteObservation, OutputMetric, Phase};

/// A cheap, copyable handle to a metric inside a [`StatsCollection`].
///
/// Obtained from [`StatsCollection::add_metric`]; lets hot simulation loops
/// record observations without a name lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MetricId(usize);

impl MetricId {
    /// Position of the metric in its collection (insertion order) —
    /// usable as a dense index into per-metric side tables.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Aggregate phase of a whole simulation's metric set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectionPhase {
    /// At least one metric has not finished warm-up, so all metrics are
    /// still discarding (the paper's first global constraint).
    Warmup,
    /// All metrics are warm; calibration/measurement in progress.
    Running,
    /// Every metric has converged (the paper's second global constraint for
    /// simulation termination).
    Converged,
}

/// The registry of a simulation's output metrics.
///
/// `StatsCollection` enforces the two simulation-wide rules of §2.3:
///
/// 1. No metric leaves warm-up until **every** metric has collected its N_w
///    observations — the model must be warm in its entirety.
/// 2. The simulation is only finished when **every** metric has converged;
///    the slowest metric determines runtime (the Figure 9 phenomenon).
///
/// # Examples
///
/// ```
/// use bighouse_stats::{MetricSpec, StatsCollection};
///
/// let mut stats = StatsCollection::new();
/// let response = stats.add_metric(
///     MetricSpec::new("response_time").with_warmup(10).with_calibration(200),
/// );
///
/// let mut x = 0.1f64;
/// while !stats.all_converged() {
///     x = (x + 0.754877666).fract();
///     stats.record(response, 1.0 + x);
/// }
/// let estimates = stats.estimates();
/// assert_eq!(estimates.len(), 1);
/// assert!((estimates[0].mean - 1.5).abs() < 0.1);
/// ```
/// The collection serializes with serde so a checkpointed simulation can
/// carry its entire statistical state — every metric's phase machine and
/// the global warm-up gate — across a process restart.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StatsCollection {
    metrics: Vec<OutputMetric>,
    by_name: HashMap<String, MetricId>,
    warm: bool,
}

impl StatsCollection {
    /// Creates an empty collection.
    #[must_use]
    pub fn new() -> Self {
        StatsCollection::default()
    }

    /// Registers a new output metric.
    ///
    /// # Panics
    ///
    /// Panics if a metric with the same name is already registered.
    pub fn add_metric(&mut self, spec: MetricSpec) -> MetricId {
        assert!(
            !self.by_name.contains_key(spec.name()),
            "duplicate metric name: {}",
            spec.name()
        );
        let id = MetricId(self.metrics.len());
        self.by_name.insert(spec.name().to_owned(), id);
        self.metrics.push(OutputMetric::new_gated(spec));
        self.warm = false;
        id
    }

    /// Registers a metric whose histogram binning is forced (parallel
    /// slaves adopting the master's broadcast bin scheme).
    ///
    /// # Panics
    ///
    /// Panics if a metric with the same name is already registered.
    pub fn add_metric_with_histogram(
        &mut self,
        spec: MetricSpec,
        histogram: crate::HistogramSpec,
    ) -> MetricId {
        assert!(
            !self.by_name.contains_key(spec.name()),
            "duplicate metric name: {}",
            spec.name()
        );
        let id = MetricId(self.metrics.len());
        self.by_name.insert(spec.name().to_owned(), id);
        self.metrics
            .push(OutputMetric::new_gated(spec).with_forced_histogram(histogram));
        self.warm = false;
        id
    }

    /// Looks up a metric handle by name.
    #[must_use]
    pub fn id(&self, name: &str) -> Option<MetricId> {
        self.by_name.get(name).copied()
    }

    /// Records an observation for the metric, applying the global warm-up
    /// gate.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN or the id is stale (from another collection).
    pub fn record(&mut self, id: MetricId, x: f64) {
        self.metrics[id.0].record(x);
        if !self.warm {
            self.check_warmup();
        }
    }

    /// As [`StatsCollection::record`], but rejects NaN and infinite
    /// observations with a typed error instead of panicking; the
    /// collection is unchanged when an error is returned.
    ///
    /// # Errors
    ///
    /// Returns [`NonFiniteObservation`] if `x` is not finite.
    ///
    /// # Panics
    ///
    /// Panics if the id is stale (from another collection).
    pub fn try_record(&mut self, id: MetricId, x: f64) -> Result<(), NonFiniteObservation> {
        self.metrics[id.0].try_record(x)?;
        if !self.warm {
            self.check_warmup();
        }
        Ok(())
    }

    /// Records an observation by metric name.
    ///
    /// # Panics
    ///
    /// Panics if no metric has this name.
    pub fn record_by_name(&mut self, name: &str, x: f64) {
        let id = self
            .id(name)
            .unwrap_or_else(|| panic!("unknown metric: {name}"));
        self.record(id, x);
    }

    fn check_warmup(&mut self) {
        if self.metrics.iter().all(OutputMetric::warmup_complete) {
            self.warm = true;
            for metric in &mut self.metrics {
                metric.end_warmup();
            }
        }
    }

    /// Whether all metrics have left warm-up.
    #[must_use]
    pub fn all_warm(&self) -> bool {
        self.warm
    }

    /// Whether every metric has converged (and at least one exists).
    #[must_use]
    pub fn all_converged(&self) -> bool {
        !self.metrics.is_empty() && self.metrics.iter().all(OutputMetric::is_converged)
    }

    /// The aggregate phase across all metrics.
    #[must_use]
    pub fn phase(&self) -> CollectionPhase {
        if self.all_converged() {
            CollectionPhase::Converged
        } else if self.warm {
            CollectionPhase::Running
        } else {
            CollectionPhase::Warmup
        }
    }

    /// Access a metric by handle.
    #[must_use]
    pub fn metric(&self, id: MetricId) -> &OutputMetric {
        &self.metrics[id.0]
    }

    /// Access a metric by name.
    #[must_use]
    pub fn metric_by_name(&self, name: &str) -> Option<&OutputMetric> {
        self.id(name).map(|id| self.metric(id))
    }

    /// Iterates over all metrics in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &OutputMetric> {
        self.metrics.iter()
    }

    /// Number of registered metrics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether no metrics are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Current estimates for every metric that has kept at least one
    /// observation.
    #[must_use]
    pub fn estimates(&self) -> Vec<MetricEstimate> {
        self.metrics
            .iter()
            .filter_map(OutputMetric::estimate)
            .collect()
    }

    /// The phase of the *least advanced* metric, a useful progress signal.
    #[must_use]
    pub fn slowest_phase(&self) -> Option<Phase> {
        self.metrics
            .iter()
            .map(OutputMetric::phase)
            .min_by_key(|p| match p {
                Phase::Warmup => 0,
                Phase::Calibration => 1,
                Phase::Measurement => 2,
                Phase::Converged => 3,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, warmup: u64) -> MetricSpec {
        MetricSpec::new(name)
            .with_warmup(warmup)
            .with_calibration(300)
    }

    fn noise(seed: u64) -> impl Iterator<Item = f64> {
        let mut state = seed;
        std::iter::from_fn(move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            Some((state >> 11) as f64 / (1u64 << 53) as f64)
        })
    }

    #[test]
    fn warmup_gate_waits_for_all_metrics() {
        let mut stats = StatsCollection::new();
        let fast = stats.add_metric(spec("fast", 10));
        let slow = stats.add_metric(spec("slow", 100));
        let mut rng = noise(1);
        for _ in 0..50 {
            stats.record(fast, rng.next().unwrap());
        }
        // `fast` has 50 >= 10 warm-up observations but `slow` has none.
        assert!(!stats.all_warm());
        assert_eq!(stats.metric(fast).phase(), Phase::Warmup);
        for _ in 0..100 {
            stats.record(slow, rng.next().unwrap());
        }
        assert!(stats.all_warm());
        assert_eq!(stats.metric(fast).phase(), Phase::Calibration);
        assert_eq!(stats.metric(slow).phase(), Phase::Calibration);
    }

    #[test]
    fn convergence_requires_all_metrics() {
        let mut stats = StatsCollection::new();
        let a = stats.add_metric(spec("a", 10));
        let b = stats.add_metric(spec("b", 10));
        let mut rng = noise(2);
        // Feed `a` much more than `b`.
        loop {
            stats.record(a, rng.next().unwrap());
            if rng.next().unwrap() < 0.05 {
                stats.record(b, rng.next().unwrap());
            }
            if stats.metric(a).is_converged() {
                break;
            }
        }
        assert!(!stats.all_converged(), "b cannot have converged yet");
        while !stats.all_converged() {
            stats.record(b, rng.next().unwrap());
        }
        assert_eq!(stats.phase(), CollectionPhase::Converged);
    }

    #[test]
    fn empty_collection_is_not_converged() {
        let stats = StatsCollection::new();
        assert!(!stats.all_converged());
        assert!(stats.is_empty());
        assert_eq!(stats.slowest_phase(), None);
    }

    #[test]
    #[should_panic(expected = "duplicate metric name")]
    fn duplicate_names_rejected() {
        let mut stats = StatsCollection::new();
        stats.add_metric(spec("x", 1));
        stats.add_metric(spec("x", 1));
    }

    #[test]
    fn record_by_name_works() {
        let mut stats = StatsCollection::new();
        stats.add_metric(spec("m", 0));
        stats.record_by_name("m", 1.0);
        assert_eq!(stats.metric_by_name("m").unwrap().total_observed(), 1);
    }

    #[test]
    #[should_panic(expected = "unknown metric")]
    fn record_unknown_name_panics() {
        let mut stats = StatsCollection::new();
        stats.add_metric(spec("m", 0));
        stats.record_by_name("nope", 1.0);
    }

    #[test]
    fn estimates_cover_converged_metrics() {
        let mut stats = StatsCollection::new();
        let m = stats.add_metric(spec("m", 10));
        let mut rng = noise(3);
        while !stats.all_converged() {
            stats.record(m, rng.next().unwrap());
        }
        let estimates = stats.estimates();
        assert_eq!(estimates.len(), 1);
        assert_eq!(estimates[0].name, "m");
        assert!((estimates[0].mean - 0.5).abs() < 0.05);
    }

    #[test]
    fn legacy_state_with_retired_kept_keys_continues_bit_identically() {
        // Checkpoints and `EpochDone` frames written while `OutputMetric`
        // kept a second Welford accumulator carry `kept` and `min_kept`
        // per metric; they must load and change nothing.
        let mut stats = StatsCollection::new();
        let m = stats.add_metric(spec("m", 10));
        let mut rng = noise(5);
        for _ in 0..400 {
            stats.record(m, rng.next().unwrap());
        }
        assert_eq!(stats.metric(m).phase(), Phase::Measurement);
        let current = serde_json::to_string(&stats).unwrap();
        let mut legacy: serde_json::Value = serde_json::from_str(&current).unwrap();
        for metric in legacy["metrics"].as_array_mut().unwrap() {
            metric["kept"] = metric["histogram"]["moments"].clone();
            metric["min_kept"] = 30.into();
        }
        let mut plain: StatsCollection = serde_json::from_str(&current).unwrap();
        let mut restored: StatsCollection = serde_json::from_value(legacy).unwrap();
        while !plain.all_converged() {
            let x = rng.next().unwrap();
            plain.record(m, x);
            restored.record(m, x);
            assert_eq!(plain.all_converged(), restored.all_converged());
        }
        // One metric, so the name map serializes in one order.
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&restored).unwrap()
        );
    }

    #[test]
    fn slowest_phase_reports_laggard() {
        let mut stats = StatsCollection::new();
        let a = stats.add_metric(spec("a", 5));
        let _b = stats.add_metric(spec("b", 5));
        let mut rng = noise(4);
        for _ in 0..10 {
            stats.record(a, rng.next().unwrap());
        }
        assert_eq!(stats.slowest_phase(), Some(Phase::Warmup));
    }
}
