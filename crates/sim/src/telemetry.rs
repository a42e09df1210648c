//! Cluster-side telemetry plumbing.
//!
//! [`ClusterTelemetry`] is the per-run instrumentation context. It lives
//! behind `Option<Box<_>>` on [`ClusterSim`], exactly like the runtime
//! auditor, so a plain run pays one null check per instrumented site and
//! nothing else. The *hot* facts — samples recorded, queue depths,
//! per-metric phase state — are plain struct fields and a dense `Vec`
//! indexed by `MetricId`, not name-keyed map entries: recording on the
//! per-observation path is a couple of integer ops. The name-keyed
//! [`MemoryRecorder`] is reserved for rare events (phase transitions, the
//! once-per-epoch totals) and everything is folded into one recorder by
//! [`ClusterTelemetry::into_recorder`] when the run ends.
//!
//! Everything recorded here is a pure function of values the simulation
//! already computes — queue depths, utilizations, phase-machine state. No
//! randomness is drawn, no simulation state is mutated, so instrumented
//! runs are bit-identical to plain runs at the same seed. Wall-clock
//! values (the one unavoidable source of nondeterminism) are quarantined
//! in the snapshot's `wall` map and in `PhaseTransition::wall_seconds`,
//! which [`TelemetrySnapshot::without_wall_times`] strips for CI
//! comparison.
//!
//! [`ClusterSim`]: crate::cluster::ClusterSim

use std::time::Instant;

use bighouse_des::{CalendarStats, Time};
use bighouse_stats::{MetricId, Phase, StatsCollection};
use bighouse_telemetry::{FixedBinHistogram, MemoryRecorder, PhaseTransition, TelemetrySnapshot};

use crate::report::ClusterSummary;

/// Per-run instrumentation context carried by `ClusterSim`.
#[derive(Debug)]
pub(crate) struct ClusterTelemetry {
    /// Name-keyed sink for *rare* events only (phase transitions, the
    /// once-per-epoch notes) — never touched per observation.
    rec: MemoryRecorder,
    /// When this context was created — phase transitions are stamped with
    /// elapsed wall time (quarantined, see module docs).
    started: Instant,
    /// Last known phase per metric (indexed by `MetricId::index`), so a
    /// transition is recorded exactly once when a metric advances.
    last_phases: Vec<Phase>,
    /// Observations accepted into estimators (hot: plain field).
    samples_recorded: u64,
    /// Observations vetoed by the auditor before recording.
    samples_rejected: u64,
    /// Queue depth observed at each dispatch decision. Depths are small
    /// integers; 64 unit-wide bins cover any sane cluster and the
    /// overflow bucket absorbs pathologies.
    queue_depth: FixedBinHistogram,
    /// Deepest queue ever observed.
    queue_depth_high_water: usize,
    /// Per-server busy fraction sampled once per observation epoch.
    server_utilization: FixedBinHistogram,
    /// Observation epochs sampled.
    utilization_snapshots: u64,
    /// Mean utilization over the most recent epoch.
    last_epoch_utilization_mean: Option<f64>,
}

impl ClusterTelemetry {
    /// Creates a context with the standard cluster histograms registered.
    pub(crate) fn new() -> Self {
        ClusterTelemetry {
            rec: MemoryRecorder::new(),
            started: Instant::now(),
            last_phases: Vec::new(),
            samples_recorded: 0,
            samples_rejected: 0,
            queue_depth: FixedBinHistogram::linear(0.0, 64.0, 64),
            queue_depth_high_water: 0,
            server_utilization: FixedBinHistogram::linear(0.0, 1.0, 20),
            utilization_snapshots: 0,
            last_epoch_utilization_mean: None,
        }
    }

    /// Captures the current phase of every metric without recording
    /// transitions. Called right after the statistics collection is built
    /// (or restored from a checkpoint) so the first genuine transition is
    /// attributed correctly.
    pub(crate) fn prime_phases(&mut self, stats: &StatsCollection) {
        self.last_phases = stats.iter().map(|m| m.phase()).collect();
    }

    /// Counts an observation accepted into an estimator.
    #[inline]
    pub(crate) fn note_sample_recorded(&mut self) {
        self.samples_recorded += 1;
    }

    /// Counts an observation the auditor vetoed.
    #[inline]
    pub(crate) fn note_sample_rejected(&mut self) {
        self.samples_rejected += 1;
    }

    /// Records, once per epoch, which pending-set store it ran on (all
    /// three keys always, even at zero: which store ran is part of every
    /// run's deterministic record) and the summary's fault and retry totals
    /// (a key only once its count is non-zero).
    pub(crate) fn note_epoch_end(&mut self, fixed_slots: bool, cluster: &ClusterSummary) {
        let slots = u64::from(fixed_slots);
        self.rec.counter_add("fastpath.entries", slots);
        self.rec.counter_add("fastpath.bailouts", 1 - slots);
        self.rec.counter_add(
            "fastpath.batched_departures",
            slots * cluster.jobs_completed,
        );
        let Some(faults) = &cluster.faults else {
            return;
        };
        for (key, count) in [
            ("sim.server_failures", faults.server_failures),
            ("sim.retries", faults.retries),
            ("sim.timeouts", faults.timed_out),
        ] {
            if count > 0 {
                self.rec.counter_add(key, count);
            }
        }
    }

    /// Records a queue-depth sample at a dispatch decision.
    #[inline]
    pub(crate) fn note_queue_depth(&mut self, depth: usize) {
        self.queue_depth.observe(depth as f64);
        if depth > self.queue_depth_high_water {
            self.queue_depth_high_water = depth;
        }
    }

    /// Records one epoch's per-server utilization snapshot.
    pub(crate) fn note_epoch_utilizations(&mut self, utilizations: &[f64]) {
        if utilizations.is_empty() {
            return;
        }
        self.utilization_snapshots += 1;
        let mut sum = 0.0;
        for &u in utilizations {
            self.server_utilization.observe(u);
            sum += u;
        }
        self.last_epoch_utilization_mean = Some(sum / utilizations.len() as f64);
    }

    /// Detects and records a phase-machine transition of the metric that
    /// just received an observation. `now` is simulated time; wall time is
    /// stamped from this context's epoch. Checking only the touched metric
    /// keeps the per-observation cost O(1); a metric whose phase was
    /// advanced by the *global* warm-up gate logs its transition on its own
    /// next observation.
    #[inline]
    pub(crate) fn sync_phase(&mut self, stats: &StatsCollection, id: MetricId, now: Time) {
        // Metrics are only ever appended, so growth means new metrics:
        // adopt their current phase silently (no transition to report).
        while self.last_phases.len() < stats.len() {
            let idx = self.last_phases.len();
            let phase = stats.iter().nth(idx).map_or(Phase::Warmup, |m| m.phase());
            self.last_phases.push(phase);
        }
        let idx = id.index();
        let metric = stats.metric(id);
        let phase = metric.phase();
        if phase != self.last_phases[idx] {
            self.rec.counter_add("stats.phase_transitions", 1);
            self.rec.phase_transition(PhaseTransition {
                metric: metric.spec().name().to_string(),
                from: self.last_phases[idx].to_string(),
                to: phase.to_string(),
                simulated_seconds: now.as_seconds(),
                wall_seconds: self.started.elapsed().as_secs_f64(),
                total_observed: metric.total_observed(),
            });
            self.last_phases[idx] = phase;
        }
    }

    /// Folds the hot-path fields into the recorder and returns it — the
    /// single name-keyed view the snapshot assembly works from.
    pub(crate) fn into_recorder(self) -> MemoryRecorder {
        let ClusterTelemetry {
            mut rec,
            samples_recorded,
            samples_rejected,
            queue_depth,
            queue_depth_high_water,
            server_utilization,
            utilization_snapshots,
            last_epoch_utilization_mean,
            ..
        } = self;
        rec.counter_add("stats.samples_recorded", samples_recorded);
        if samples_rejected > 0 {
            rec.counter_add("stats.samples_rejected", samples_rejected);
        }
        if queue_depth.count() > 0 {
            rec.gauge_set("sim.queue_depth_high_water", queue_depth_high_water as f64);
        }
        rec.register_histogram("sim.queue_depth", queue_depth);
        if utilization_snapshots > 0 {
            rec.counter_add("sim.utilization_snapshots", utilization_snapshots);
        }
        if let Some(mean) = last_epoch_utilization_mean {
            rec.gauge_set("sim.last_epoch_utilization_mean", mean);
        }
        rec.register_histogram("sim.server_utilization", server_utilization);
        rec
    }
}

/// Assembles the final [`TelemetrySnapshot`] for a run: everything the
/// in-sim recorder gathered, plus the engine counters, per-metric
/// statistics facts, and (quarantined) wall-clock throughput figures.
///
/// `stats` is the final collection (if still available), `cal` the summed
/// calendar counters, `events_fired` the engine total, and `wall_seconds`
/// the run's wall-clock duration.
pub(crate) fn assemble_snapshot(
    rec: &MemoryRecorder,
    stats: Option<&StatsCollection>,
    cal: &CalendarStats,
    events_fired: u64,
    wall_seconds: f64,
) -> TelemetrySnapshot {
    let mut snap = rec.snapshot();

    // Engine layer: deterministic counters straight off the calendar.
    snap.counters
        .insert("des.events_scheduled".into(), cal.scheduled);
    snap.counters.insert("des.events_fired".into(), cal.fired);
    snap.counters
        .insert("des.events_cancelled".into(), cal.cancelled);
    snap.counters
        .insert("des.sift_steps".into(), cal.sift_steps);
    snap.gauges.insert(
        "des.calendar_depth_high_water".into(),
        cal.depth_high_water as f64,
    );

    // Statistics layer: per-metric facts with dynamic (metric-named) keys.
    if let Some(stats) = stats {
        for metric in stats.iter() {
            let name = metric.spec().name();
            let kept = metric.kept_count();
            let seen = metric.measurement_seen();
            snap.gauges
                .insert(format!("stats.{name}.lag"), metric.lag() as f64);
            snap.counters
                .insert(format!("stats.{name}.samples_kept"), kept);
            snap.counters.insert(
                format!("stats.{name}.samples_discarded"),
                seen.saturating_sub(kept),
            );
            snap.counters.insert(
                format!("stats.{name}.total_observed"),
                metric.total_observed(),
            );
            let accuracy = metric.current_relative_accuracy();
            if accuracy.is_finite() {
                snap.gauges
                    .insert(format!("stats.{name}.relative_accuracy"), accuracy);
                snap.gauges.insert(
                    format!("stats.{name}.convergence_margin"),
                    metric.spec().target_accuracy() - accuracy,
                );
            }
        }
    }

    // Wall-clock throughput: quarantined so deterministic sections stay
    // bit-comparable across runs.
    snap.wall.insert("wall_seconds".into(), wall_seconds);
    if wall_seconds > 0.0 {
        let events_per_second = events_fired as f64 / wall_seconds;
        snap.wall
            .insert("des.events_per_second".into(), events_per_second);
        snap.wall.insert(
            "des.wall_seconds_per_1m_events".into(),
            wall_seconds * 1.0e6 / events_fired.max(1) as f64,
        );
    }
    snap
}

#[cfg(test)]
mod tests {
    use super::*;
    use bighouse_stats::MetricSpec;

    #[test]
    fn phase_sync_records_each_transition_once() {
        let mut stats = StatsCollection::new();
        let id = stats.add_metric(
            MetricSpec::new("m")
                .with_warmup(2)
                .with_calibration(3)
                .with_quantiles(&[]),
        );
        let mut tel = ClusterTelemetry::new();
        tel.prime_phases(&stats);
        for i in 0..64 {
            stats.record(id, 1.0 + f64::from(i % 7) * 0.1);
            tel.sync_phase(&stats, id, Time::from_seconds(f64::from(i)));
        }
        let snap = tel.into_recorder().snapshot();
        let froms: Vec<&str> = snap.phases.iter().map(|p| p.from.as_str()).collect();
        assert!(froms.contains(&"warm-up"), "phases: {froms:?}");
        assert!(froms.contains(&"calibration"), "phases: {froms:?}");
        // Each edge recorded at most once per metric.
        let n_warmup_exits = froms.iter().filter(|f| **f == "warm-up").count();
        assert_eq!(n_warmup_exits, 1);
        assert_eq!(
            snap.counters["stats.phase_transitions"],
            snap.phases.len() as u64
        );
    }

    #[test]
    fn assemble_adds_engine_and_stats_sections() {
        let mut stats = StatsCollection::new();
        let id = stats.add_metric(
            MetricSpec::new("m")
                .with_warmup(1)
                .with_calibration(100)
                .with_quantiles(&[]),
        );
        for i in 0..2000 {
            stats.record(id, 1.0 + f64::from(i % 11) * 0.01);
        }
        let rec = MemoryRecorder::new();
        let cal = CalendarStats {
            scheduled: 10,
            fired: 8,
            cancelled: 2,
            depth_high_water: 5,
            sift_steps: 17,
        };
        let snap = assemble_snapshot(&rec, Some(&stats), &cal, 8, 0.5);
        assert_eq!(snap.counters["des.events_fired"], 8);
        assert_eq!(snap.counters["des.events_cancelled"], 2);
        assert_eq!(snap.gauges["des.calendar_depth_high_water"], 5.0);
        assert!(snap.counters["stats.m.samples_kept"] > 0);
        assert!(snap.gauges.contains_key("stats.m.lag"));
        assert_eq!(snap.wall["wall_seconds"], 0.5);
        assert_eq!(snap.wall["des.events_per_second"], 16.0);
        // Wall values vanish under the determinism-comparison projection.
        assert!(snap.without_wall_times().wall.is_empty());
    }

    #[test]
    fn queue_depth_and_utilization_feed_histograms() {
        let mut tel = ClusterTelemetry::new();
        tel.note_queue_depth(3);
        tel.note_queue_depth(70); // beyond hi: lands in overflow, no panic
        tel.note_epoch_utilizations(&[0.25, 0.75]);
        let snap = tel.into_recorder().snapshot();
        assert_eq!(snap.histograms["sim.queue_depth"].count, 2);
        assert_eq!(snap.histograms["sim.server_utilization"].count, 2);
        assert_eq!(snap.gauges["sim.queue_depth_high_water"], 70.0);
        assert_eq!(snap.gauges["sim.last_epoch_utilization_mean"], 0.5);
        assert_eq!(snap.counters["sim.utilization_snapshots"], 1);
    }
}
