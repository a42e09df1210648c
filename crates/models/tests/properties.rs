//! Property-based tests for the data-center object model.

use bighouse_des::check::{check, Gen};
use bighouse_des::Time;
use bighouse_models::{DvfsModel, IdlePolicy, Job, JobId, LinearPowerModel, PowerCapper, Server};

/// An arbitrary arrival schedule: (inter-arrival gap, job size) pairs.
fn schedule(g: &mut Gen) -> Vec<(f64, f64)> {
    g.vec(1..60, |g| (g.range(0.0..2.0), g.range(0.001..2.0)))
}

/// Drains a server completely, returning all finished jobs.
fn drain(server: &mut Server) -> Vec<bighouse_models::FinishedJob> {
    let mut finished = Vec::new();
    while let Some(eta) = server.next_event() {
        finished.extend(server.sync(eta));
        if server.outstanding() == 0 && server.next_event().is_none() {
            break;
        }
    }
    finished
}

/// Every job that enters a server eventually leaves, exactly once, with
/// sane timestamps (completion >= first_service >= arrival).
#[test]
fn jobs_are_conserved() {
    check("jobs_are_conserved", 256, |g| {
        let (arrivals, cores) = (schedule(g), g.range(1..8));
        let mut server = Server::new(cores);
        let mut now = Time::ZERO;
        let mut finished = Vec::new();
        for (i, &(gap, size)) in arrivals.iter().enumerate() {
            now += gap;
            finished.extend(server.arrive(Job::new(JobId::new(i as u64), now, size), now));
        }
        finished.extend(drain(&mut server));
        assert_eq!(finished.len(), arrivals.len());
        let mut ids: Vec<u64> = finished.iter().map(|f| f.id.raw()).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..arrivals.len() as u64).collect::<Vec<_>>());
        for f in &finished {
            assert!(f.first_service >= f.arrival);
            assert!(f.completion >= f.first_service);
            // At nominal speed, service span >= demand.
            assert!(f.completion - f.first_service >= f.size - 1e-9);
        }
    });
}

/// Single-core FCFS: completion order equals arrival order.
#[test]
fn single_core_is_fcfs() {
    check("single_core_is_fcfs", 256, |g| {
        let arrivals = schedule(g);
        let mut server = Server::new(1);
        let mut now = Time::ZERO;
        let mut finished = Vec::new();
        for (i, &(gap, size)) in arrivals.iter().enumerate() {
            now += gap;
            finished.extend(server.arrive(Job::new(JobId::new(i as u64), now, size), now));
        }
        finished.extend(drain(&mut server));
        let order: Vec<u64> = finished.iter().map(|f| f.id.raw()).collect();
        assert_eq!(order, (0..arrivals.len() as u64).collect::<Vec<_>>());
    });
}

/// Work conservation at nominal speed: total busy core-time equals
/// total service demand.
#[test]
fn work_is_conserved() {
    check("work_is_conserved", 256, |g| {
        let (arrivals, cores) = (schedule(g), g.range(1..8));
        let mut server = Server::new(cores);
        let mut now = Time::ZERO;
        for (i, &(gap, size)) in arrivals.iter().enumerate() {
            now += gap;
            server.arrive(Job::new(JobId::new(i as u64), now, size), now);
        }
        drain(&mut server);
        let total_demand: f64 = arrivals.iter().map(|&(_, s)| s).sum();
        let end = server.next_event().map_or(now + 1.0, |t| t);
        let busy = server.average_utilization(end) * (end - Time::ZERO) * cores as f64;
        assert!(
            (busy - total_demand).abs() <= 1e-6 * total_demand.max(1.0),
            "busy {busy} vs demand {total_demand}"
        );
    });
}

/// DreamWeaver never violates its per-task delay bound by more than the
/// wake latency: waiting_time <= max_delay + wake_latency + epsilon for
/// jobs that start on a server with spare cores.
#[test]
fn dreamweaver_bounds_added_delay() {
    check("dreamweaver_bounds_added_delay", 256, |g| {
        let arrivals = g.vec(1..40, |g| (g.range(0.05..2.0), g.range(0.001..0.05)));
        let max_delay = g.range(0.01..0.5);
        let wake_latency = 0.005;
        let cores = 8; // ample: queueing from contention is negligible
        let mut server = Server::new(cores).with_policy(IdlePolicy::DreamWeaver {
            max_delay,
            wake_latency,
        });
        let mut now = Time::ZERO;
        let mut finished = Vec::new();
        for (i, &(gap, size)) in arrivals.iter().enumerate() {
            now += gap;
            finished.extend(server.arrive(Job::new(JobId::new(i as u64), now, size), now));
        }
        finished.extend(drain(&mut server));
        assert_eq!(finished.len(), arrivals.len());
        for f in &finished {
            assert!(
                f.waiting_time() <= max_delay + wake_latency + 1e-6,
                "job waited {} > bound {}",
                f.waiting_time(),
                max_delay + wake_latency
            );
        }
    });
}

/// The power capper always exhausts exactly its budget pool, assigns
/// frequencies within [0.5, 1], and reports non-negative capping.
#[test]
fn capper_invariants() {
    check("capper_invariants", 256, |g| {
        let utilizations = g.vec(1..100, |g| g.range(0.0..1.0));
        let budget = g.range(50.0..100_000.0);
        let capper = PowerCapper::new(
            LinearPowerModel::typical_server(),
            DvfsModel::default(),
            budget,
        );
        let outcome = capper.rebudget(&utilizations);
        let total: f64 = outcome.budgets.iter().sum();
        assert!((total - budget).abs() <= 1e-6 * budget);
        for &f in &outcome.frequencies {
            assert!((0.5..=1.0).contains(&f));
        }
        for &level in &outcome.capping_levels {
            assert!(level >= 0.0);
        }
        // Monotone fairness: a busier server never gets a smaller budget.
        for i in 0..utilizations.len() {
            for j in 0..utilizations.len() {
                if utilizations[i] > utilizations[j] {
                    assert!(outcome.budgets[i] >= outcome.budgets[j] - 1e-9);
                }
            }
        }
    });
}

/// Energy accounting is additive in time: never decreases, and awake
/// power is bounded by [idle, peak].
#[test]
fn energy_is_monotone() {
    check("energy_is_monotone", 256, |g| {
        let arrivals = schedule(g);
        let model = LinearPowerModel::typical_server();
        let mut server = Server::new(2).with_power_model(model);
        let mut now = Time::ZERO;
        let mut last_energy = 0.0;
        for (i, &(gap, size)) in arrivals.iter().enumerate() {
            now += gap;
            server.arrive(Job::new(JobId::new(i as u64), now, size), now);
            let e = server.energy_joules();
            assert!(e >= last_energy);
            last_energy = e;
        }
        drain(&mut server);
        // Past any possible completion: last arrival + total backlog.
        let backlog: f64 = arrivals.iter().map(|&(_, s)| s).sum();
        let end = now + backlog + 10.0;
        server.sync(end);
        let avg_power = server.energy_joules() / (end - Time::ZERO);
        assert!(avg_power >= model.idle_watts() * 0.99 - 1e-9);
        assert!(avg_power <= model.peak_watts() * 1.01);
    });
}

/// DVFS speedup is monotone in frequency and bounded by (1-α, 1].
#[test]
fn dvfs_speedup_monotone() {
    check("dvfs_speedup_monotone", 256, |g| {
        let (alpha, f1, f2) = (g.range(0.0..1.0), g.range(0.01..1.0), g.range(0.01..1.0));
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        let speed_at = |f| {
            let mut server = Server::new(1).with_dvfs(DvfsModel::new(alpha));
            server.set_frequency(f, Time::ZERO);
            server.speed()
        };
        assert!(speed_at(lo) <= speed_at(hi) + 1e-12);
        assert!(speed_at(lo) >= 1.0 - alpha - 1e-12);
        assert!(speed_at(hi) <= 1.0 + 1e-12);
    });
}
