//! Multi-tier queuing networks.
//!
//! The sample workloads "all model simple client-server round-trip
//! interactions. The BigHouse object model must be extended if a user
//! wishes to model a workload with more complicated communication patterns
//! (e.g., modeling all three tiers of a three-tier web service)" (§2.2).
//! This module is that extension: requests flow through a pipeline of
//! tiers (each a load-balanced cluster of multi-core servers with its own
//! service distribution), and the statistics engine observes both the
//! end-to-end response time and each tier's residence time.

use bighouse_des::{Calendar, Control, Engine, EventHandle, FastMap, SimRng, Simulation, Time};
use bighouse_dists::{Distribution, Empirical};
use bighouse_models::{BalancerPolicy, FinishedJob, IdlePolicy, Job, JobId, LoadBalancer, Server};
use bighouse_stats::{MetricId, MetricSpec, StatsCollection};

use crate::report::{ClusterSummary, SimulationReport};

/// One tier of the pipeline: a load-balanced cluster with its own service
/// demand distribution.
#[derive(Debug, Clone)]
pub struct TierConfig {
    name: String,
    servers: usize,
    cores: usize,
    service: Empirical,
    balancer: BalancerPolicy,
    idle_policy: IdlePolicy,
}

impl TierConfig {
    /// Creates a tier with the given cluster shape and service demand.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty or `servers`/`cores` is zero.
    #[must_use]
    pub fn new(name: impl Into<String>, servers: usize, cores: usize, service: Empirical) -> Self {
        let name = name.into();
        assert!(!name.is_empty(), "tier name cannot be empty");
        assert!(servers > 0, "tier needs at least one server");
        assert!(cores > 0, "tier servers need at least one core");
        TierConfig {
            name,
            servers,
            cores,
            service,
            balancer: BalancerPolicy::JoinShortestQueue,
            idle_policy: IdlePolicy::AlwaysOn,
        }
    }

    /// Sets the tier's load-balancing discipline.
    #[must_use]
    pub fn with_balancer(mut self, policy: BalancerPolicy) -> Self {
        self.balancer = policy;
        self
    }

    /// Sets the tier's idle low-power policy.
    #[must_use]
    pub fn with_idle_policy(mut self, policy: IdlePolicy) -> Self {
        self.idle_policy = policy;
        self
    }

    /// The tier name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tier's per-request mean service demand in seconds.
    #[must_use]
    pub fn mean_service(&self) -> f64 {
        self.service.mean()
    }
}

/// A multi-tier experiment: an arrival process feeding a tier pipeline.
#[derive(Debug, Clone)]
pub struct MultiTierConfig {
    interarrival: Empirical,
    tiers: Vec<TierConfig>,
    target_accuracy: f64,
    confidence: f64,
    quantile: f64,
    warmup: u64,
    calibration: usize,
    max_events: u64,
}

impl MultiTierConfig {
    /// Creates a pipeline experiment.
    ///
    /// # Panics
    ///
    /// Panics if `tiers` is empty.
    #[must_use]
    pub fn new(interarrival: Empirical, tiers: Vec<TierConfig>) -> Self {
        assert!(!tiers.is_empty(), "a pipeline needs at least one tier");
        MultiTierConfig {
            interarrival,
            tiers,
            target_accuracy: 0.05,
            confidence: 0.95,
            quantile: 0.95,
            warmup: 1000,
            calibration: MetricSpec::DEFAULT_CALIBRATION,
            max_events: u64::MAX,
        }
    }

    /// Sets the relative accuracy target E for all metrics.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < e < 1`.
    #[must_use]
    pub fn with_target_accuracy(mut self, e: f64) -> Self {
        assert!(e > 0.0 && e < 1.0, "accuracy must be in (0, 1), got {e}");
        self.target_accuracy = e;
        self
    }

    /// Sets the tracked quantile (default 0.95).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < q < 1`.
    #[must_use]
    pub fn with_quantile(mut self, q: f64) -> Self {
        assert!(q > 0.0 && q < 1.0, "quantile must be in (0, 1), got {q}");
        self.quantile = q;
        self
    }

    /// Sets warm-up observations per metric.
    #[must_use]
    pub fn with_warmup(mut self, warmup: u64) -> Self {
        self.warmup = warmup;
        self
    }

    /// Sets the calibration sample size per metric.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    #[must_use]
    pub fn with_calibration(mut self, calibration: usize) -> Self {
        assert!(calibration > 0, "calibration sample must be non-empty");
        self.calibration = calibration;
        self
    }

    /// Caps total simulated events.
    #[must_use]
    pub fn with_max_events(mut self, max_events: u64) -> Self {
        self.max_events = max_events;
        self
    }

    /// The configured tiers.
    #[must_use]
    pub fn tiers(&self) -> &[TierConfig] {
        &self.tiers
    }

    fn metric_spec(&self, name: &str) -> MetricSpec {
        MetricSpec::new(name)
            .with_target_accuracy(self.target_accuracy)
            .with_confidence(self.confidence)
            .with_quantiles(&[self.quantile])
            .with_warmup(self.warmup)
            .with_calibration(self.calibration)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TierEvent {
    Arrival,
    Attention { tier: usize, server: usize },
}

#[derive(Debug)]
struct TierNetworkSim {
    config: MultiTierConfig,
    tiers: Vec<Vec<Server>>,
    balancers: Vec<LoadBalancer>,
    attention: Vec<Vec<Option<EventHandle>>>,
    /// Original (tier-0) arrival time of each in-flight request; touched on
    /// every admission and completion, so it uses the deterministic fast
    /// hasher (never iterated).
    in_flight: FastMap<JobId, Time>,
    rng: SimRng,
    stats: StatsCollection,
    end_to_end: MetricId,
    tier_metrics: Vec<MetricId>,
    job_counter: u64,
}

impl TierNetworkSim {
    fn new(config: MultiTierConfig, seed: u64) -> Self {
        let tiers: Vec<Vec<Server>> = config
            .tiers
            .iter()
            .map(|t| {
                (0..t.servers)
                    .map(|_| Server::new(t.cores).with_policy(t.idle_policy))
                    .collect()
            })
            .collect();
        let balancers = config
            .tiers
            .iter()
            .map(|t| LoadBalancer::new(t.balancer, t.servers))
            .collect();
        let attention = config.tiers.iter().map(|t| vec![None; t.servers]).collect();
        let mut stats = StatsCollection::new();
        let end_to_end = stats.add_metric(config.metric_spec("response_time"));
        let tier_metrics = config
            .tiers
            .iter()
            .map(|t| stats.add_metric(config.metric_spec(&format!("tier_{}_response", t.name))))
            .collect();
        TierNetworkSim {
            tiers,
            balancers,
            attention,
            in_flight: FastMap::default(),
            rng: SimRng::from_seed(seed),
            stats,
            end_to_end,
            tier_metrics,
            job_counter: 0,
            config,
        }
    }

    fn prime(&mut self, cal: &mut Calendar<TierEvent>) {
        let dt = self.config.interarrival.sample(&mut self.rng);
        cal.schedule_in(dt, TierEvent::Arrival);
    }

    fn dispatch(&mut self, tier: usize, id: JobId, now: Time, cal: &mut Calendar<TierEvent>) {
        let size = self.config.tiers[tier]
            .service
            .sample(&mut self.rng)
            .max(1e-12);
        // Route straight off server state — no per-dispatch queue-length
        // snapshot Vec (this runs once per request per tier).
        let server = {
            let servers = &self.tiers[tier];
            self.balancers[tier].pick_by(|i| servers[i].outstanding(), &mut self.rng)
        };
        let finished = self.tiers[tier][server].arrive(Job::new(id, now, size), now);
        self.handle_finished(tier, finished, now, cal);
        self.reschedule(tier, server, now, cal);
    }

    fn handle_finished(
        &mut self,
        tier: usize,
        finished: Vec<FinishedJob>,
        now: Time,
        cal: &mut Calendar<TierEvent>,
    ) {
        for f in finished {
            self.stats
                .record(self.tier_metrics[tier], f.response_time());
            if tier + 1 < self.tiers.len() {
                self.dispatch(tier + 1, f.id, now, cal);
            } else {
                let origin = self
                    .in_flight
                    .remove(&f.id)
                    .expect("every completed request was admitted");
                self.stats.record(self.end_to_end, now - origin);
            }
        }
    }

    fn reschedule(&mut self, tier: usize, server: usize, now: Time, cal: &mut Calendar<TierEvent>) {
        if let Some(handle) = self.attention[tier][server].take() {
            cal.cancel(handle);
        }
        if let Some(t) = self.tiers[tier][server].next_event() {
            self.attention[tier][server] =
                Some(cal.schedule(t.max(now), TierEvent::Attention { tier, server }));
        }
    }

    fn summary(&self, now: Time) -> ClusterSummary {
        let all: Vec<&Server> = self.tiers.iter().flatten().collect();
        let n = all.len() as f64;
        ClusterSummary {
            servers: all.len(),
            jobs_completed: all.iter().map(|s| s.completed_jobs()).sum(),
            mean_full_idle_fraction: all.iter().map(|s| s.full_idle_fraction(now)).sum::<f64>() / n,
            mean_nap_fraction: all.iter().map(|s| s.nap_fraction(now)).sum::<f64>() / n,
            mean_utilization: all.iter().map(|s| s.average_utilization(now)).sum::<f64>() / n,
            total_energy_joules: all.iter().map(|s| s.energy_joules()).sum(),
            average_power_watts: 0.0,
            faults: None,
            resilience: None,
        }
    }
}

impl Simulation for TierNetworkSim {
    type Event = TierEvent;

    fn handle(&mut self, now: Time, event: TierEvent, cal: &mut Calendar<TierEvent>) -> Control {
        match event {
            TierEvent::Arrival => {
                let id = JobId::new(self.job_counter);
                self.job_counter += 1;
                self.in_flight.insert(id, now);
                self.dispatch(0, id, now, cal);
                let dt = self.config.interarrival.sample(&mut self.rng);
                cal.schedule_in(dt, TierEvent::Arrival);
            }
            TierEvent::Attention { tier, server } => {
                self.attention[tier][server] = None;
                let finished = self.tiers[tier][server].sync(now);
                self.handle_finished(tier, finished, now, cal);
                self.reschedule(tier, server, now, cal);
            }
        }
        if self.stats.all_converged() {
            Control::Stop
        } else {
            Control::Continue
        }
    }
}

/// Runs a multi-tier pipeline experiment to convergence.
///
/// The report's `response_time` metric is the **end-to-end** response
/// (admission at tier 0 to completion at the last tier); each tier also
/// reports its own residence time as `tier_<name>_response`.
///
/// # Panics
///
/// Panics if the configuration is invalid.
///
/// # Examples
///
/// ```
/// use bighouse_dists::{Distribution, Empirical, Exponential};
/// use bighouse_des::SimRng;
/// use bighouse_sim::{run_multi_tier, MultiTierConfig, TierConfig};
///
/// fn empirical(mean: f64, seed: u64) -> Empirical {
///     let d = Exponential::from_mean(mean).unwrap();
///     let mut rng = SimRng::from_seed(seed);
///     let samples: Vec<f64> = (0..50_000).map(|_| d.sample(&mut rng)).collect();
///     Empirical::from_samples(&samples).unwrap()
/// }
///
/// let config = MultiTierConfig::new(
///     empirical(0.010, 1), // 100 requests/s
///     vec![
///         TierConfig::new("web", 2, 2, empirical(0.002, 2)),
///         TierConfig::new("app", 2, 4, empirical(0.010, 3)),
///         TierConfig::new("db", 1, 8, empirical(0.015, 4)),
///     ],
/// )
/// .with_target_accuracy(0.2)
/// .with_warmup(100)
/// .with_calibration(500);
/// let report = run_multi_tier(&config, 7);
/// assert!(report.converged);
/// // End-to-end response must dominate the sum of mean service demands.
/// assert!(report.metric("response_time").unwrap().mean > 0.025);
/// ```
#[must_use]
pub fn run_multi_tier(config: &MultiTierConfig, seed: u64) -> SimulationReport {
    let start = std::time::Instant::now();
    let mut sim = TierNetworkSim::new(config.clone(), seed);
    let mut cal = Calendar::new();
    sim.prime(&mut cal);
    let mut engine = Engine::from_parts(sim, cal);
    let run = engine.run_with_limit(config.max_events);
    let now = engine.now();
    let sim = engine.into_simulation();
    let converged = sim.stats.all_converged();
    let mut report = SimulationReport {
        converged,
        termination: crate::report::TerminationReason::classify(None, false, converged),
        estimates: sim.stats.estimates(),
        events_fired: run.events_fired,
        simulated_seconds: now.as_seconds(),
        runtime: crate::report::RuntimeStats {
            wall_seconds: start.elapsed().as_secs_f64(),
            telemetry: None,
        },
        cluster: sim.summary(now),
        audit: None,
    };
    report.cluster.average_power_watts = if now.as_seconds() > 0.0 {
        report.cluster.total_energy_joules / now.as_seconds()
    } else {
        0.0
    };
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use bighouse_dists::Exponential;

    fn empirical(mean: f64, seed: u64) -> Empirical {
        let d = Exponential::from_mean(mean).unwrap();
        let mut rng = SimRng::from_seed(seed);
        let samples: Vec<f64> = (0..100_000)
            .map(|_| d.sample(&mut rng).max(1e-12))
            .collect();
        Empirical::from_samples(&samples).unwrap()
    }

    fn three_tier(load_interarrival: f64) -> MultiTierConfig {
        MultiTierConfig::new(
            empirical(load_interarrival, 1),
            vec![
                TierConfig::new("web", 2, 2, empirical(0.002, 2)),
                TierConfig::new("app", 2, 4, empirical(0.010, 3)),
                TierConfig::new("db", 1, 8, empirical(0.015, 4)),
            ],
        )
        .with_target_accuracy(0.1)
        .with_warmup(100)
        .with_calibration(1000)
        .with_max_events(50_000_000)
    }

    #[test]
    fn pipeline_converges_and_reports_all_tiers() {
        let report = run_multi_tier(&three_tier(0.010), 5);
        assert!(report.converged);
        assert!(report.metric("response_time").is_some());
        for name in ["tier_web_response", "tier_app_response", "tier_db_response"] {
            assert!(report.metric(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn end_to_end_exceeds_sum_of_tier_services() {
        let report = run_multi_tier(&three_tier(0.010), 6);
        let total_service = 0.002 + 0.010 + 0.015;
        let e2e = report.metric("response_time").unwrap().mean;
        assert!(
            e2e >= total_service * 0.9,
            "end-to-end {e2e} below service floor {total_service}"
        );
        // And the tiers must roughly add up to the end-to-end mean.
        let tier_sum: f64 = ["tier_web_response", "tier_app_response", "tier_db_response"]
            .iter()
            .map(|n| report.metric(n).unwrap().mean)
            .sum();
        let rel = (e2e - tier_sum).abs() / e2e;
        assert!(rel < 0.2, "tiers sum to {tier_sum}, end-to-end {e2e}");
    }

    #[test]
    fn bottleneck_tier_dominates_under_load() {
        // The db tier (1 server, 8 cores, 15 ms) saturates first:
        // capacity 8/0.015 ≈ 533/s vs web 2000/s and app 800/s.
        let report = run_multi_tier(&three_tier(0.0025), 7); // 400 req/s
        let db = report.metric("tier_db_response").unwrap().mean;
        let web = report.metric("tier_web_response").unwrap().mean;
        assert!(db > web, "db tier {db} should dominate web tier {web}");
    }

    #[test]
    fn requests_are_conserved() {
        let report = run_multi_tier(&three_tier(0.010), 8);
        // Every admitted request passes all three tiers exactly once.
        assert!(report.cluster.jobs_completed > 0);
        let e2e = report.metric("response_time").unwrap();
        let web = report.metric("tier_web_response").unwrap();
        // Tier completions can exceed end-to-end completions only by
        // requests still in flight downstream.
        assert!(web.total_observed >= e2e.total_observed);
    }

    #[test]
    #[should_panic(expected = "at least one tier")]
    fn empty_pipeline_rejected() {
        let _ = MultiTierConfig::new(empirical(0.01, 1), vec![]);
    }
}
