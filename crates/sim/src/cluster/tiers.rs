//! Downstream tiers (§2.2: "all three tiers of a three-tier web service"):
//! the component installed when the configuration has
//! [`ExperimentConfig::with_tier`] tiers. Each tier's servers are appended
//! to the cluster's; a job that finishes at tier i is placed on tier i + 1
//! at that instant, drawn a fresh size from that tier's service table, and
//! `response_time` is observed only when it leaves the last tier.

use std::collections::VecDeque;

use bighouse_des::{FastMap, Pending, Time};
use bighouse_dists::QuantileGuide;
use bighouse_models::{BalancerPolicy, FinishedJob, Job, JobId, LoadBalancer, Server};
use bighouse_stats::{MetricId, MetricSpec};

use super::{new_server, ClusterEvent, ClusterSim};
use crate::config::{ExperimentConfig, MetricKind};

/// One tier past the base cluster.
#[derive(Debug)]
struct Stage {
    /// Index of the tier's first server in the cluster's `servers`.
    first: usize,
    balancer: LoadBalancer,
    service: QuantileGuide,
}

/// The tier component.
#[derive(Debug)]
pub(super) struct Tiers {
    stages: Vec<Stage>,
    /// `tier_<i>_response` for every tier i, the base cluster's first.
    residence: Vec<MetricId>,
    /// Each job past tier 0: when it entered tier 0, and the tier it is at.
    in_flight: FastMap<JobId, (Time, usize)>,
    /// Visits queued by completions, placed once the completion buffer is
    /// back: the job and the tier it enters.
    due: VecDeque<(JobId, usize)>,
    /// Visits placed past tier 0.
    pub(super) forwarded: u64,
}

impl Tiers {
    /// The component, if the configuration has downstream tiers: appends
    /// their servers to `servers` and registers the residence metrics.
    pub(super) fn install(
        config: &ExperimentConfig,
        servers: &mut Vec<Server>,
        register: impl FnMut(MetricSpec) -> MetricId,
    ) -> Option<Box<Tiers>> {
        if config.tiers.is_empty() {
            return None;
        }
        let stages = config
            .tiers
            .iter()
            .map(|tier| {
                let first = servers.len();
                servers.extend(
                    (0..tier.servers).map(|_| new_server(config, tier.cores, tier.idle_policy)),
                );
                Stage {
                    first,
                    balancer: LoadBalancer::new(BalancerPolicy::JoinShortestQueue, tier.servers),
                    service: QuantileGuide::new(&tier.service),
                }
            })
            .collect();
        Some(Box::new(Tiers {
            stages,
            residence: config.tier_specs().into_iter().map(register).collect(),
            in_flight: FastMap::default(),
            due: VecDeque::new(),
            forwarded: 0,
        }))
    }
}

/// The component, for its own handlers: each is reached only because
/// `build` installed it.
fn installed(tiers: &mut Option<Box<Tiers>>) -> &mut Tiers {
    tiers
        .as_deref_mut()
        .expect("tier handlers run only with the component installed")
}

impl ClusterSim {
    /// Records one completed visit: its residence at the tier it finished,
    /// and its wait if it queued; then either queues the job for the next
    /// tier or, at the last, observes its end-to-end response.
    #[inline(never)]
    pub(super) fn record_visit(&mut self, f: &FinishedJob, residence: f64, now: Time) {
        let tiers = installed(&mut self.tiers);
        let (origin, tier) = tiers.in_flight.remove(&f.id).unwrap_or((f.arrival, 0));
        let metric = tiers.residence[tier];
        let last = tier == tiers.stages.len();
        if !last {
            tiers.in_flight.insert(f.id, (origin, tier + 1));
            tiers.due.push_back((f.id, tier + 1));
        }
        self.observe_metric(metric, residence, now);
        if last {
            self.observe(MetricKind::ResponseTime, now - origin, now);
        }
        let wait = f.waiting_time();
        if wait > 0.0 {
            self.observe(MetricKind::WaitingTime, wait, now);
        }
    }

    /// Places every queued visit on its tier: a balancer pick within the
    /// tier's servers, then a draw from its service table. A placement that
    /// completes other jobs queues their visits behind these.
    pub(super) fn forward_due(&mut self, cal: &mut impl Pending<ClusterEvent>) {
        let now = cal.now();
        while let Some((id, tier)) = installed(&mut self.tiers).due.pop_front() {
            let tiers = installed(&mut self.tiers);
            let stage = &mut tiers.stages[tier - 1];
            let servers = &self.servers[stage.first..];
            let pick = stage
                .balancer
                .pick_by(|i| servers[i].outstanding(), &mut self.rng);
            let size = stage
                .service
                .sample_from_bits(self.rng.raw_u64())
                .max(1e-12);
            let server = stage.first + pick;
            tiers.forwarded += 1;
            self.place(server, Job::new(id, now, size), now, cal);
        }
    }
}

#[cfg(test)]
mod tests {
    use bighouse_des::SimRng;
    use bighouse_dists::{Distribution, Empirical, Exponential};
    use bighouse_models::BalancerPolicy;
    use bighouse_workloads::Workload;

    use crate::config::{ArrivalMode, ExperimentConfig, TierConfig};
    use crate::{run_serial, AuditConfig, SimulationReport};

    fn empirical(mean: f64, seed: u64) -> Empirical {
        let d = Exponential::from_mean(mean).unwrap();
        let mut rng = SimRng::from_seed(seed);
        let samples: Vec<f64> = (0..100_000)
            .map(|_| d.sample(&mut rng).max(1e-12))
            .collect();
        Empirical::from_samples(&samples).unwrap()
    }

    /// web (2 × 2 cores, 2 ms) → app (2 × 4, 10 ms) → db (1 × 8, 15 ms),
    /// each tier behind join-shortest-queue.
    fn three_tier(mean_interarrival: f64) -> ExperimentConfig {
        let web = Workload::new("web", empirical(mean_interarrival, 1), empirical(0.002, 2));
        ExperimentConfig::new(web)
            .with_servers(2)
            .with_cores(2)
            .with_arrival_mode(ArrivalMode::LoadBalanced(BalancerPolicy::JoinShortestQueue))
            .with_tier(TierConfig::new(2, 4, empirical(0.010, 3)))
            .with_tier(TierConfig::new(1, 8, empirical(0.015, 4)))
            .with_target_accuracy(0.1)
            .with_warmup(100)
            .with_calibration(1000)
            .with_max_events(50_000_000)
    }

    const TIERS: [&str; 3] = ["tier_0_response", "tier_1_response", "tier_2_response"];

    fn mean(report: &SimulationReport, name: &str) -> f64 {
        report.metric(name).unwrap().mean
    }

    #[test]
    fn pipeline_converges_and_reports_all_tiers() {
        let report = run_serial(&three_tier(0.010), 5).unwrap();
        assert!(report.converged);
        assert!(report.metric("response_time").is_some());
        for name in TIERS {
            assert!(report.metric(name).is_some(), "missing {name}");
        }
        assert_eq!(report.cluster.servers, 5);
    }

    #[test]
    fn end_to_end_exceeds_sum_of_tier_services() {
        let report = run_serial(&three_tier(0.010), 6).unwrap();
        let total_service = 0.002 + 0.010 + 0.015;
        let e2e = mean(&report, "response_time");
        assert!(
            e2e >= total_service * 0.9,
            "end-to-end {e2e} below service floor {total_service}"
        );
        // And the tiers must roughly add up to the end-to-end mean.
        let tier_sum: f64 = TIERS.iter().map(|n| mean(&report, n)).sum();
        let rel = (e2e - tier_sum).abs() / e2e;
        assert!(rel < 0.2, "tiers sum to {tier_sum}, end-to-end {e2e}");
    }

    #[test]
    fn bottleneck_tier_dominates_under_load() {
        // The db tier (1 server, 8 cores, 15 ms) saturates first:
        // capacity 8/0.015 ≈ 533/s vs web 2000/s and app 800/s.
        let report = run_serial(&three_tier(0.0025), 7).unwrap(); // 400 req/s
        let (web, db) = (mean(&report, TIERS[0]), mean(&report, TIERS[2]));
        assert!(db > web, "db tier {db} should dominate web tier {web}");
    }

    #[test]
    fn parallel_run_merges_every_tier() {
        let outcome = crate::ParallelRunner::new(three_tier(0.010), 2)
            .run(9)
            .unwrap();
        assert!(outcome.converged);
        let names: Vec<&str> = outcome.estimates.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["response_time", TIERS[0], TIERS[1], TIERS[2]]);
        assert_eq!(outcome.cluster.servers, 5);
    }

    #[test]
    fn requests_are_conserved() {
        // The auditor's job conservation counts each forwarded visit once
        // more, and its Little's-law probe takes external arrivals against
        // the end-to-end response.
        let config = three_tier(0.010).with_audit(AuditConfig::default());
        let report = run_serial(&config, 8).unwrap();
        let audit = report.audit.as_ref().unwrap();
        assert!(audit.passed(), "{:?}", audit.violations);
        assert!(audit.checks_run > 0);
        assert!(audit.warnings.is_empty(), "{:?}", audit.warnings);
        // Every admitted request passes the tiers in order: a tier has
        // completed at least as many visits as the one behind it, and the
        // last tier's completions are exactly the end-to-end observations.
        let observed = |name| report.metric(name).unwrap().total_observed;
        assert!(observed(TIERS[0]) >= observed(TIERS[1]));
        assert!(observed(TIERS[1]) >= observed(TIERS[2]));
        assert_eq!(observed(TIERS[2]), observed("response_time"));
    }
}
