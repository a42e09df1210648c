//! The reference the fast-path tests compare against: the calendar engine,
//! hand-driven through the public `ClusterSim::new` + `prime` +
//! `Engine::from_parts` — the runners choose the engine themselves, so this
//! is the only way to put a fast-path-sized configuration on the calendar.
//! Also the case count the property tests share.

#![allow(dead_code)] // each test file uses its own subset

use bighouse_des::{Calendar, Engine, SeedStream};
use bighouse_sim::{run_serial, ClusterSim, ExperimentConfig, SimulationReport};
use bighouse_stats::{MetricEstimate, StatsCollection};

/// Cases per property: `PROPTEST_CASES` when set (CI runs 128), else few,
/// because every case is one or two full (event-capped) runs.
pub fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8)
}

/// Everything derived from per-request departure times that the two
/// engines must agree on.
#[derive(Debug, Default)]
pub struct Outcome {
    pub events_fired: u64,
    pub simulated_seconds: f64,
    pub converged: bool,
    pub jobs_completed: u64,
    pub total_energy_joules: f64,
    pub estimates: Vec<MetricEstimate>,
}

impl Outcome {
    pub fn of(report: &SimulationReport) -> Self {
        Outcome {
            events_fired: report.events_fired,
            simulated_seconds: report.simulated_seconds,
            converged: report.converged,
            jobs_completed: report.cluster.jobs_completed,
            total_energy_joules: report.cluster.total_energy_joules,
            estimates: report.estimates.clone(),
        }
    }

    /// Runs one calendar-engine epoch of at most `budget` events on top of
    /// `carried` statistics and folds it in, as `run_resumable` does.
    fn absorb_epoch(
        &mut self,
        config: &ExperimentConfig,
        seed: u64,
        budget: u64,
        carried: Option<StatsCollection>,
    ) -> StatsCollection {
        let mut sim = ClusterSim::new(config.clone(), seed).expect("config is valid");
        if let Some(stats) = carried {
            sim.restore_stats(stats).expect("same metric set");
        }
        let mut calendar = Calendar::new();
        sim.prime(&mut calendar);
        let mut engine = Engine::from_parts(sim, calendar);
        self.events_fired += engine.run_with_limit(budget).events_fired;
        let now = engine.now();
        let sim = engine.into_simulation();
        let summary = sim.summary(now);
        self.simulated_seconds += now.as_seconds();
        self.jobs_completed += summary.jobs_completed;
        self.total_energy_joules += summary.total_energy_joules;
        self.converged = sim.stats().all_converged();
        self.estimates = sim.stats().estimates();
        sim.into_stats()
    }
}

/// `run_serial` on the calendar engine.
pub fn calendar_run(config: &ExperimentConfig, seed: u64, max_events: u64) -> Outcome {
    let mut outcome = Outcome::default();
    outcome.absorb_epoch(config, seed, max_events, None);
    outcome
}

/// `run_resumable` on the calendar engine: a fresh cluster per epoch from
/// the master seed's stream, statistics carried across.
pub fn calendar_run_resumable(
    config: &ExperimentConfig,
    master_seed: u64,
    epoch_events: u64,
    max_events: u64,
) -> Outcome {
    let mut outcome = Outcome::default();
    let mut seeds = SeedStream::new(master_seed);
    let mut carried = None;
    while !outcome.converged && outcome.events_fired < max_events {
        let budget = epoch_events.min(max_events - outcome.events_fired);
        carried = Some(outcome.absorb_epoch(config, seeds.next_seed(), budget, carried));
    }
    outcome
}

/// Bit-exact comparison: every number by name, floats as `f64::to_bits`
/// patterns (never formatted strings).
pub fn assert_bit_identical(a: &Outcome, b: &Outcome, context: &str) {
    fn bits(o: &Outcome) -> Vec<(String, u64)> {
        let mut bits = vec![
            ("events_fired".to_owned(), o.events_fired),
            ("sim_seconds".to_owned(), o.simulated_seconds.to_bits()),
            ("converged".to_owned(), u64::from(o.converged)),
            ("jobs_completed".to_owned(), o.jobs_completed),
            ("energy_joules".to_owned(), o.total_energy_joules.to_bits()),
        ];
        for e in &o.estimates {
            let name = &e.name;
            bits.push((format!("{name}.mean"), e.mean.to_bits()));
            bits.push((format!("{name}.std_dev"), e.std_dev.to_bits()));
            bits.push((format!("{name}.half_width"), e.mean_half_width.to_bits()));
            bits.push((format!("{name}.samples_kept"), e.samples_kept));
            bits.push((format!("{name}.lag"), e.lag as u64));
            for q in &e.quantiles {
                bits.push((format!("{name}.q{}", q.q), q.value.to_bits()));
            }
        }
        bits
    }
    assert_eq!(bits(a), bits(b), "{context}");
}

/// Telemetry proof of engine selection: `(fastpath.entries,
/// fastpath.bailouts, fastpath.batched_departures)` of a serial run.
pub fn fastpath_counters(config: &ExperimentConfig, seed: u64) -> (u64, u64, u64) {
    let report = run_serial(&config.clone().with_telemetry(true), seed).expect("valid config");
    let counters = report.runtime.telemetry.expect("telemetry on").counters;
    (
        counters["fastpath.entries"],
        counters["fastpath.bailouts"],
        counters["fastpath.batched_departures"],
    )
}
