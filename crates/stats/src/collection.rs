//! Multi-metric bookkeeping with the paper's global phase constraints.

use std::collections::HashMap;

use bighouse_json::{FromJson, ObjectWriter, ToJson, Value};

use crate::metric::{MetricEstimate, MetricSpec, OutputMetric};

/// A cheap, copyable handle to a metric inside a [`StatsCollection`].
///
/// Obtained from [`StatsCollection::add_metric`]; lets hot simulation loops
/// record observations without a name lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MetricId(usize);

bighouse_json::json_newtype!(MetricId);

impl MetricId {
    /// Position of the metric in its collection (insertion order) —
    /// usable as a dense index into per-metric side tables.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
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
/// The collection serializes to JSON so a checkpointed simulation can
/// carry its entire statistical state — every metric's phase machine and
/// the global warm-up gate — across a process restart. The name index is
/// derived from the metrics, so it is rebuilt on read and never written:
/// the same collection always prints the same bytes.
#[derive(Debug, Clone, Default)]
pub struct StatsCollection {
    metrics: Vec<OutputMetric>,
    by_name: HashMap<String, MetricId>,
    warm: bool,
}

impl ToJson for StatsCollection {
    fn write_json(&self, out: &mut String) {
        let StatsCollection {
            metrics,
            by_name: _,
            warm,
        } = self;
        let mut object = ObjectWriter::new(out);
        object.field("metrics", metrics);
        object.field("warm", warm);
        object.end();
    }
}

impl FromJson for StatsCollection {
    /// Reads `metrics` and `warm`; a `by_name` key in an older file is
    /// ignored and the index rebuilt. Two metrics of one name are refused.
    fn from_json(value: &Value) -> Result<Self, bighouse_json::Error> {
        let object = bighouse_json::object(value)?;
        let metrics: Vec<OutputMetric> = bighouse_json::field(object, "metrics")?;
        let mut by_name = HashMap::with_capacity(metrics.len());
        for (i, metric) in metrics.iter().enumerate() {
            let name = metric.spec().name();
            if by_name.insert(name.to_owned(), MetricId(i)).is_some() {
                return Err(bighouse_json::Error::invalid(format!(
                    "duplicate metric name: {name}"
                )));
            }
        }
        Ok(StatsCollection {
            metrics,
            by_name,
            warm: bighouse_json::field(object, "warm")?,
        })
    }
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
    /// Panics if `x` is NaN or negative, or the id is stale (from another
    /// collection).
    pub fn record(&mut self, id: MetricId, x: f64) {
        self.metrics[id.0].record(x);
        if !self.warm {
            self.check_warmup();
        }
    }

    fn check_warmup(&mut self) {
        if self.metrics.iter().all(OutputMetric::warmup_complete) {
            self.warm = true;
            for metric in &mut self.metrics {
                metric.end_warmup();
            }
        }
    }

    /// Whether every metric has converged (and at least one exists).
    #[must_use]
    pub fn all_converged(&self) -> bool {
        !self.metrics.is_empty() && self.metrics.iter().all(OutputMetric::is_converged)
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Phase;

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
        assert!(!stats.warm);
        assert_eq!(stats.metric(fast).phase(), Phase::Warmup);
        for _ in 0..100 {
            stats.record(slow, rng.next().unwrap());
        }
        assert!(stats.warm);
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
    }

    #[test]
    fn empty_collection_is_not_converged() {
        let stats = StatsCollection::new();
        assert!(!stats.all_converged());
        assert!(stats.is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate metric name")]
    fn duplicate_names_rejected() {
        let mut stats = StatsCollection::new();
        stats.add_metric(spec("x", 1));
        stats.add_metric(spec("x", 1));
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
        // States written while `OutputMetric` kept a second Welford
        // accumulator carried `kept` and `min_kept` per metric. Unknown
        // keys are ignored: with them added, a state loads and changes
        // nothing.
        let mut stats = StatsCollection::new();
        let m = stats.add_metric(spec("m", 10));
        let mut rng = noise(5);
        for _ in 0..400 {
            stats.record(m, rng.next().unwrap());
        }
        assert_eq!(stats.metric(m).phase(), Phase::Measurement);
        let current = bighouse_json::to_string(&stats);
        let mut legacy = bighouse_json::parse(&current).unwrap();
        let metrics = legacy.as_object_mut().unwrap().get_mut("metrics").unwrap();
        for metric in metrics.as_array_mut().unwrap() {
            let kept = metric["moments"].clone();
            let fields = metric.as_object_mut().unwrap();
            fields.insert("kept", kept);
            fields.insert("min_kept", Value::Number(bighouse_json::Number::PosInt(30)));
        }
        let mut plain: StatsCollection = bighouse_json::from_str(&current).unwrap();
        let mut restored: StatsCollection = bighouse_json::from_value(&legacy).unwrap();
        while !plain.all_converged() {
            let x = rng.next().unwrap();
            plain.record(m, x);
            restored.record(m, x);
            assert_eq!(plain.all_converged(), restored.all_converged());
        }
        assert_eq!(
            bighouse_json::to_string(&plain),
            bighouse_json::to_string(&restored)
        );
    }

    #[test]
    fn identical_collections_print_identical_bytes() {
        let build = || {
            let mut stats = StatsCollection::new();
            let ids: Vec<MetricId> = (0..8)
                .map(|i| stats.add_metric(spec(&format!("metric_{i}"), 5)))
                .collect();
            let mut rng = noise(6);
            for _ in 0..50 {
                for &id in &ids {
                    stats.record(id, rng.next().unwrap());
                }
            }
            stats
        };
        let (a, b) = (build(), build());
        let json = bighouse_json::to_string(&a);
        assert_eq!(json, bighouse_json::to_string(&b));
        assert!(!json.contains("by_name"), "{json}");

        let back: StatsCollection = bighouse_json::from_str(&json).unwrap();
        assert_eq!(bighouse_json::to_string(&back), json);
        for i in 0..8 {
            assert_eq!(
                back.id(&format!("metric_{i}")).map(MetricId::index),
                Some(i)
            );
        }
    }

    #[test]
    fn a_state_naming_one_metric_twice_is_refused() {
        let mut stats = StatsCollection::new();
        stats.add_metric(spec("m", 5));
        let mut state = bighouse_json::to_value(&stats).unwrap();
        let fields = state.as_object_mut().unwrap();
        let metrics = fields.get_mut("metrics").unwrap().as_array_mut().unwrap();
        metrics.push(metrics[0].clone());
        let err = bighouse_json::from_value::<StatsCollection>(&state).unwrap_err();
        assert!(
            err.to_string().contains("duplicate metric name: m"),
            "{err}"
        );
    }
}
