//! The in-memory recorder instrumented runs write into.

use std::collections::BTreeMap;

use crate::histogram::FixedBinHistogram;
use crate::snapshot::{PhaseTransition, TelemetrySnapshot};

/// An in-memory recorder backed by `BTreeMap`s: the sink for instrumentation
/// events. It only receives values; it cannot perturb the simulation, draw
/// randomness, or fail, so instrumented runs produce the same estimates as
/// plain runs by construction. Telemetry that is off is an absent recorder
/// (an `Option`, one branch per call site), not a second type.
///
/// Counter and gauge inserts intern `&'static str` names, so steady-state
/// recording touches no allocator; histograms are fixed-bin and registered
/// up front. The frozen output is a [`TelemetrySnapshot`].
#[derive(Debug, Clone, Default)]
pub struct MemoryRecorder {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, FixedBinHistogram>,
    phases: Vec<PhaseTransition>,
    wall: BTreeMap<&'static str, f64>,
}

impl MemoryRecorder {
    /// Creates an empty recorder.
    #[must_use]
    pub fn new() -> Self {
        MemoryRecorder::default()
    }

    /// Registers a histogram under `name`. Samples observed against an
    /// unregistered name are counted under `telemetry.dropped_samples`
    /// rather than silently lost.
    #[must_use]
    pub fn with_histogram(mut self, name: &'static str, histogram: FixedBinHistogram) -> Self {
        self.histograms.insert(name, histogram);
        self
    }

    /// Registers a histogram on an existing recorder.
    pub fn register_histogram(&mut self, name: &'static str, histogram: FixedBinHistogram) {
        self.histograms.insert(name, histogram);
    }

    /// Records a wall-clock-derived value (seconds, rates). Kept in a
    /// separate namespace from [`gauge_set`](MemoryRecorder::gauge_set) because
    /// wall values are non-deterministic and must never leak into the
    /// deterministic sections compared by CI.
    pub fn wall_set(&mut self, name: &'static str, value: f64) {
        self.wall.insert(name, value);
    }

    /// Current value of a counter (0 if never touched).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a wall-clock entry, if set.
    #[must_use]
    pub fn wall(&self, name: &str) -> Option<f64> {
        self.wall.get(name).copied()
    }

    /// Merges another recorder's counters and phase log into this one —
    /// used when a run is stitched from epochs or parallel slaves. Gauges
    /// take the other recorder's value (last writer wins), `gauge_max`-style
    /// merging is the caller's job via the names it chooses.
    pub fn absorb(&mut self, other: &MemoryRecorder) {
        for (&name, &delta) in &other.counters {
            *self.counters.entry(name).or_insert(0) += delta;
        }
        for (&name, &value) in &other.gauges {
            self.gauges.insert(name, value);
        }
        for (&name, &value) in &other.wall {
            self.wall.insert(name, value);
        }
        self.phases.extend(other.phases.iter().cloned());
        for (&name, hist) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => {
                    if !mine.merge(hist) {
                        // Shape mismatch: keep ours, note the loss.
                        *self
                            .counters
                            .entry("telemetry.dropped_samples")
                            .or_insert(0) += hist.count();
                    }
                }
                None => {
                    self.histograms.insert(name, hist.clone());
                }
            }
        }
    }

    /// Freezes everything recorded so far into a [`TelemetrySnapshot`].
    #[must_use]
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| ((*k).to_string(), *v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(k, v)| ((*k).to_string(), *v))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.snapshot()))
                .collect(),
            phases: self.phases.clone(),
            wall: self
                .wall
                .iter()
                .map(|(k, v)| ((*k).to_string(), *v))
                .collect(),
        }
    }
}

impl MemoryRecorder {
    /// Adds `delta` to the named monotonic counter.
    #[inline]
    pub fn counter_add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Sets the named gauge to `value`.
    #[inline]
    pub fn gauge_set(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(name, value);
    }

    /// Raises the named gauge to `value` if larger (high-water marks).
    #[inline]
    pub fn gauge_max(&mut self, name: &'static str, value: f64) {
        let slot = self.gauges.entry(name).or_insert(f64::NEG_INFINITY);
        if value > *slot {
            *slot = value;
        }
    }

    /// Records one sample into the named histogram. Histograms must be
    /// registered up front (see [`MemoryRecorder::with_histogram`]) so this
    /// stays allocation-free.
    #[inline]
    pub fn observe(&mut self, name: &'static str, value: f64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.observe(value),
            None => {
                *self
                    .counters
                    .entry("telemetry.dropped_samples")
                    .or_insert(0) += 1
            }
        }
    }

    /// Records a statistics phase-machine transition.
    #[inline]
    pub fn phase_transition(&mut self, transition: PhaseTransition) {
        self.phases.push(transition);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_recorder_counts_every_event() {
        let mut rec = MemoryRecorder::new();
        for _ in 0..1000 {
            rec.counter_add("loop.iterations", 1);
        }
        rec.gauge_set("loop.final", 499_500.0);
        assert_eq!(rec.counter("loop.iterations"), 1000);
        let snap = rec.snapshot();
        assert_eq!(snap.counters["loop.iterations"], 1000);
        assert_eq!(snap.gauges["loop.final"], 499_500.0);
    }

    #[test]
    fn identical_runs_produce_identical_snapshots() {
        let run = || {
            let mut rec = MemoryRecorder::new()
                .with_histogram("lat", FixedBinHistogram::log_spaced(1e-6, 1.0, 24));
            for i in 1..500u32 {
                rec.counter_add("events", 1);
                rec.observe("lat", f64::from(i) * 1e-4);
                rec.gauge_max("depth", f64::from(i % 37));
            }
            rec.snapshot()
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn unregistered_histogram_counts_dropped_samples() {
        let mut rec = MemoryRecorder::new();
        rec.observe("missing", 1.0);
        assert_eq!(rec.counter("telemetry.dropped_samples"), 1);
    }

    #[test]
    fn gauge_max_keeps_high_water() {
        let mut rec = MemoryRecorder::new();
        rec.gauge_max("hw", 3.0);
        rec.gauge_max("hw", 1.0);
        rec.gauge_max("hw", 7.0);
        assert_eq!(rec.snapshot().gauges["hw"], 7.0);
    }

    #[test]
    fn absorb_sums_counters_and_appends_phases() {
        let mut a = MemoryRecorder::new();
        a.counter_add("n", 2);
        let mut b = MemoryRecorder::new();
        b.counter_add("n", 3);
        b.phase_transition(PhaseTransition {
            metric: "m".into(),
            from: "warm-up".into(),
            to: "calibration".into(),
            simulated_seconds: 1.0,
            wall_seconds: 0.0,
            total_observed: 10,
        });
        a.absorb(&b);
        assert_eq!(a.counter("n"), 5);
        assert_eq!(a.snapshot().phases.len(), 1);
    }
}
