//! The one telemetry record: what instrumented runs write and report.

use std::collections::BTreeMap;

use crate::histogram::FixedBinHistogram;

/// One statistics phase-machine transition (§2.3 of the paper: warm-up →
/// calibration → measurement → converged), stamped with both clocks.
///
/// `simulated_seconds` is deterministic; `wall_seconds` (seconds since the
/// run started) is not, and is zeroed by
/// [`TelemetrySnapshot::without_wall_times`].
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTransition {
    /// Metric whose phase machine advanced.
    pub metric: String,
    /// Phase the metric left.
    pub from: String,
    /// Phase the metric entered.
    pub to: String,
    /// Simulated time of the observation that caused the transition.
    pub simulated_seconds: f64,
    /// Wall-clock seconds since the run started (non-deterministic).
    pub wall_seconds: f64,
    /// Observations the metric had seen at the transition.
    pub total_observed: u64,
}

bighouse_json::json_struct!(PhaseTransition {
    metric,
    from,
    to,
    simulated_seconds,
    wall_seconds,
    total_observed,
});

/// Everything a run's instrumentation captured, in plain data. Runs write
/// into it directly, and it is what they report.
///
/// All maps are `BTreeMap`s so serialized JSON is deterministically ordered;
/// two instrumented runs at the same seed produce byte-identical snapshots
/// once wall-clock fields are stripped with
/// [`without_wall_times`](TelemetrySnapshot::without_wall_times).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetrySnapshot {
    /// Monotonic event counts, e.g. `des.events_cancelled`.
    pub counters: BTreeMap<String, u64>,
    /// Point-in-time values, e.g. `stats.response_time.lag`.
    pub gauges: BTreeMap<String, f64>,
    /// Fixed-bin distributions, e.g. `sim.queue_depth`.
    pub histograms: BTreeMap<String, FixedBinHistogram>,
    /// Phase-machine transitions in observation order.
    pub phases: Vec<PhaseTransition>,
    /// Wall-clock gauges (seconds, rates) — non-deterministic by nature,
    /// kept apart from `gauges` so determinism checks never see them.
    pub wall: BTreeMap<String, f64>,
}

bighouse_json::json_struct!(TelemetrySnapshot {
    counters = BTreeMap::new(),
    gauges = BTreeMap::new(),
    histograms = BTreeMap::new(),
    phases = Vec::new(),
    wall = BTreeMap::new(),
});

impl TelemetrySnapshot {
    /// Returns a copy with every wall-clock-derived value removed: the
    /// `wall` map cleared and each phase transition's `wall_seconds` zeroed.
    /// What remains is a pure function of (config, seed) and is compared
    /// bit-for-bit by the determinism tests and CI.
    #[must_use]
    pub fn without_wall_times(&self) -> TelemetrySnapshot {
        let mut clean = self.clone();
        clean.wall.clear();
        for p in &mut clean.phases {
            p.wall_seconds = 0.0;
        }
        clean
    }

    /// Adds `delta` to the named monotonic counter, creating it at zero.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        match self.counters.get_mut(name) {
            Some(count) => *count += delta,
            None => {
                self.counters.insert(name.to_owned(), delta);
            }
        }
    }

    /// Merges another snapshot into this one — the one merge, used when a
    /// run is stitched from epochs and when a sweep aggregates per-config
    /// snapshots. Counters sum; gauges and wall entries take the other
    /// snapshot's value (last writer wins); phase logs append in call
    /// order; histograms of matching shape merge bin-wise, and a shape
    /// mismatch keeps ours while noting the loss under the
    /// `telemetry.dropped_samples` counter.
    pub fn absorb(&mut self, other: &TelemetrySnapshot) {
        for (name, &delta) in &other.counters {
            self.counter_add(name, delta);
        }
        for (name, value) in &other.gauges {
            self.gauges.insert(name.clone(), *value);
        }
        for (name, value) in &other.wall {
            self.wall.insert(name.clone(), *value);
        }
        self.phases.extend(other.phases.iter().cloned());
        for (name, hist) in &other.histograms {
            let merged = match self.histograms.get_mut(name) {
                Some(mine) => mine.merge(hist),
                None => {
                    self.histograms.insert(name.clone(), hist.clone());
                    true
                }
            };
            if !merged {
                self.counter_add("telemetry.dropped_samples", hist.count);
            }
        }
    }

    /// True when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.phases.is_empty()
            && self.wall.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_empty_and_round_trips() {
        let snap = TelemetrySnapshot::default();
        assert!(snap.is_empty());
        let json = bighouse_json::to_string(&snap);
        let back: TelemetrySnapshot = bighouse_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn without_wall_times_strips_all_nondeterminism() {
        let mut snap = TelemetrySnapshot::default();
        snap.counters.insert("des.events_fired".into(), 10);
        snap.wall.insert("wall_seconds".into(), 1.23);
        snap.phases.push(PhaseTransition {
            metric: "response_time".into(),
            from: "warm-up".into(),
            to: "calibration".into(),
            simulated_seconds: 4.5,
            wall_seconds: 0.011,
            total_observed: 1000,
        });
        let clean = snap.without_wall_times();
        assert!(clean.wall.is_empty());
        assert_eq!(clean.phases[0].wall_seconds, 0.0);
        assert_eq!(clean.phases[0].simulated_seconds, 4.5);
        assert_eq!(clean.counters["des.events_fired"], 10);
    }

    fn hist(bins: usize, samples: &[f64]) -> FixedBinHistogram {
        let mut h = FixedBinHistogram::linear(0.0, 8.0, bins);
        for &s in samples {
            h.observe(s);
        }
        h
    }

    #[test]
    fn snapshot_absorb_matches_recorder_absorb_semantics() {
        let mut a = TelemetrySnapshot::default();
        a.counters.insert("n".into(), 2);
        a.gauges.insert("g".into(), 1.0);
        a.histograms.insert("h".into(), hist(4, &[1.0, 3.0]));
        let mut b = TelemetrySnapshot::default();
        b.counters.insert("n".into(), 3);
        b.gauges.insert("g".into(), 9.0);
        b.histograms.insert("h".into(), hist(4, &[5.0]));
        b.phases.push(PhaseTransition {
            metric: "m".into(),
            from: "warm-up".into(),
            to: "calibration".into(),
            simulated_seconds: 1.0,
            wall_seconds: 0.0,
            total_observed: 10,
        });
        a.absorb(&b);
        assert_eq!(a.counters["n"], 5);
        assert_eq!(a.phases, b.phases, "phase logs append");
        assert_eq!(a.gauges["g"], 9.0, "gauges are last-writer-wins");
        assert_eq!(a.histograms["h"].count, 3);
        assert_eq!(a.histograms["h"].sum, 9.0);
        assert_eq!(a.histograms["h"].min, Some(1.0));
        assert_eq!(a.histograms["h"].max, Some(5.0));
    }

    #[test]
    fn absorb_sums_counters_and_appends_phases() {
        let mut a = TelemetrySnapshot::default();
        a.counter_add("n", 2);
        let mut b = TelemetrySnapshot::default();
        b.counter_add("n", 3);
        b.phases.push(PhaseTransition {
            metric: "m".into(),
            from: "warm-up".into(),
            to: "calibration".into(),
            simulated_seconds: 1.0,
            wall_seconds: 0.0,
            total_observed: 10,
        });
        a.absorb(&b);
        assert_eq!(a.counters["n"], 5);
        assert_eq!(a.phases.len(), 1);
    }

    #[test]
    fn snapshot_absorb_drops_mismatched_histograms_loudly() {
        let mut a = TelemetrySnapshot::default();
        a.histograms.insert("h".into(), hist(4, &[1.0]));
        let mut b = TelemetrySnapshot::default();
        b.histograms.insert("h".into(), hist(8, &[1.0, 2.0]));
        a.absorb(&b);
        assert_eq!(a.histograms["h"].bins.len(), 4, "ours is kept");
        assert_eq!(a.counters["telemetry.dropped_samples"], 2);
    }

    #[test]
    fn histogram_merge_handles_empty_min_max() {
        let mut empty = hist(4, &[]);
        let full = hist(4, &[2.0]);
        assert!(empty.merge(&full));
        assert_eq!(empty.min, Some(2.0));
        assert_eq!(empty.max, Some(2.0));
        assert_eq!(empty.count, 1);
    }

    #[test]
    fn json_keys_are_sorted() {
        let mut snap = TelemetrySnapshot::default();
        snap.counters.insert("z.last".into(), 1);
        snap.counters.insert("a.first".into(), 2);
        let json = bighouse_json::to_string(&snap);
        assert!(json.find("a.first").unwrap() < json.find("z.last").unwrap());
    }

    #[test]
    fn counter_add_counts_every_event() {
        let mut snap = TelemetrySnapshot::default();
        snap.counter_add("loop.idle", 0);
        for _ in 0..1000 {
            snap.counter_add("loop.iterations", 1);
        }
        assert_eq!(snap.counters["loop.iterations"], 1000);
        assert_eq!(
            snap.counters["loop.idle"], 0,
            "a zero add still creates the key"
        );
    }

    #[test]
    fn json_shape_is_pinned() {
        let mut snap = TelemetrySnapshot::default();
        snap.counters.insert("des.events_fired".into(), 7);
        snap.gauges.insert("stats.response_time.lag".into(), 2.0);
        snap.phases.push(PhaseTransition {
            metric: "response_time".into(),
            from: "warm-up".into(),
            to: "calibration".into(),
            simulated_seconds: 1.5,
            wall_seconds: 0.25,
            total_observed: 1000,
        });
        snap.wall.insert("wall_seconds".into(), 0.5);
        let empty = FixedBinHistogram::linear(0.0, 64.0, 64);
        let mut three = FixedBinHistogram::linear(0.0, 1.0, 4);
        for x in [0.125, 0.5, 2.0] {
            three.observe(x);
        }
        snap.histograms.insert("sim.queue_depth".into(), empty);
        snap.histograms
            .insert("sim.server_utilization".into(), three);
        let zeros = ["0"; 64].join(",");
        let expected = format!(
            concat!(
                r#"{{"counters":{{"des.events_fired":7}},"#,
                r#""gauges":{{"stats.response_time.lag":2.0}},"#,
                r#""histograms":{{"#,
                r#""sim.queue_depth":{{"lo":0.0,"hi":64.0,"bins":[{zeros}],"#,
                r#""underflow":0,"overflow":0,"count":0,"sum":0.0,"min":null,"max":null}},"#,
                r#""sim.server_utilization":{{"lo":0.0,"hi":1.0,"bins":[1,0,1,0],"#,
                r#""underflow":0,"overflow":1,"count":3,"sum":2.625,"min":0.125,"max":2.0}}}},"#,
                r#""phases":[{{"metric":"response_time","from":"warm-up","to":"calibration","#,
                r#""simulated_seconds":1.5,"wall_seconds":0.25,"total_observed":1000}}],"#,
                r#""wall":{{"wall_seconds":0.5}}}}"#,
            ),
            zeros = zeros
        );
        assert_eq!(bighouse_json::to_string(&snap), expected);
    }
}
