//! Every metric name the harness emits, with its unit. `BENCHMARK.json`
//! lists the same names; `tests/smoke.rs` keeps the two from drifting.

/// Which way an end-to-end metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `lower` or `higher`, as `BENCHMARK.json` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the median by which it may worsen before it counts as a
    /// regression. Sized to the reference machine's own run-to-run spread
    /// (see the README), not to what one would like to detect.
    pub bound: f64,
}

/// The five end-to-end metrics every workload reports.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "converge_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "events_per_s",
        unit: "events/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "events_to_converge",
        unit: "events",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
];

/// The per-layer metrics of the traced run, outside in.
pub const PER_LAYER: [(&str, &str); 47] = [
    // The run fabric.
    ("sim.runner.default_over_calendar", "ratio"),
    ("sim.parallel.master_calibration_events", "events"),
    ("sim.parallel.critical_path_events", "events"),
    ("sim.parallel.work_speedup", "ratio"),
    ("sim.parallel.wall_speedup", "ratio"),
    ("sim.parallel.default_backend_wall_s", "s"),
    ("sim.parallel.lockstep_over_default", "ratio"),
    ("sim.sweep.configs_per_s", "1/s"),
    ("sim.sweep.events_per_s", "events/s"),
    // The event loop and the cluster's handlers.
    ("des.engine.loop_s", "s"),
    ("des.engine.self_frac", "ratio"),
    ("sim.cluster.handle_frac", "ratio"),
    ("sim.cluster.handle_ns", "ns"),
    ("sim.cluster.glue_frac", "ratio"),
    ("sim.cluster.retries", "count"),
    ("sim.cluster.timeouts", "count"),
    // The calendar.
    ("des.calendar.share", "ratio"),
    ("des.calendar.scheduled", "count"),
    ("des.calendar.fired", "count"),
    ("des.calendar.cancelled", "count"),
    ("des.calendar.sift_steps", "count"),
    ("des.calendar.depth_high_water", "count"),
    ("des.calendar.schedule_ns", "ns"),
    ("des.calendar.pop_ns", "ns"),
    ("des.calendar.cancel_ns", "ns"),
    // Sampling.
    ("dists.share", "ratio"),
    ("des.rng.next_ns", "ns"),
    ("dists.empirical.sample_ns", "ns"),
    ("dists.guide.sample_ns", "ns"),
    // The server and front-end models.
    ("models.share", "ratio"),
    ("models.server.jobs_completed", "count"),
    ("models.server.arrive_ns", "ns"),
    ("models.server.sync_ns", "ns"),
    ("models.balancer.pick_ns", "ns"),
    // Statistics.
    ("stats.share", "ratio"),
    ("stats.metric.recorded", "count"),
    ("stats.metric.kept", "count"),
    ("stats.metric.lag_discarded", "count"),
    ("stats.metric.max_lag", "count"),
    ("stats.metric.record_kept_ns", "ns"),
    ("stats.metric.record_skipped_ns", "ns"),
    ("stats.metric.required_samples_ns", "ns"),
    ("stats.collection.all_converged_ns", "ns"),
    ("stats.calibration.find_lag_ms", "ms"),
    // Set-up and the instruments themselves.
    ("workloads.synthesize_ms", "ms"),
    ("telemetry.overhead_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];
