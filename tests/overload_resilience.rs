//! End-to-end validation of the overload-resilience subsystem.
//!
//! Three pillars:
//!
//! 1. **Analytic oracle** — a cluster under bounded-queue admission with
//!    capacity equal to its core count is exactly an M/M/k/k loss system,
//!    so the measured shed fraction must match the Erlang-B blocking
//!    probability.
//! 2. **Metastability** — an overload ramp combined with client-side
//!    timeout/retry drives the cluster into a retry storm that persists
//!    *after* the offered load returns to normal (goodput hysteresis),
//!    reproducing the signature failure mode of real serving systems.
//! 3. **Recovery** — the same scenario with admission control sheds the
//!    excess at the front door instead of queueing it, and goodput
//!    recovers to its pre-ramp level as soon as the ramp ends.
//!
//! The phase-windowed runs drive the engine manually (via the slave
//! constructor, which never stops on its own convergence) so goodput can
//! be sampled at exact simulated-time boundaries.

use bighouse::prelude::*;

/// Builds a workload from explicit arrival/service distributions, the way
/// all BigHouse workloads are tabulated (matches `queueing_theory.rs`).
fn workload(arrivals: &dyn Distribution, service: &dyn Distribution, seed: u64) -> Workload {
    let mut rng = SimRng::from_seed(seed);
    let arr: Vec<f64> = (0..400_000)
        .map(|_| arrivals.sample(&mut rng).max(1e-12))
        .collect();
    let svc: Vec<f64> = (0..400_000)
        .map(|_| service.sample(&mut rng).max(1e-12))
        .collect();
    Workload::new(
        "validation",
        Empirical::from_samples(&arr).unwrap(),
        Empirical::from_samples(&svc).unwrap(),
    )
}

/// Advances the engine until simulated time reaches `t` seconds. The
/// batch size bounds the overshoot past `t`: phase-windowed runs need
/// fine batches so snapshots land close to their window boundaries.
fn drive_to(engine: &mut Engine<ClusterSim>, t: f64, batch: u64) {
    while engine.now().as_seconds() < t {
        let stats = engine.run_with_limit(batch);
        assert!(
            stats.events_fired > 0,
            "calendar drained at {} before reaching {t}",
            engine.now().as_seconds()
        );
    }
}

/// Snapshot of the resilience ledger at the current simulated time.
fn ledger(engine: &Engine<ClusterSim>) -> ResilienceSummary {
    let now = engine.now();
    engine
        .simulation()
        .summary(now)
        .resilience
        .expect("resilience mode on")
}

/// M/M/k/k: a 4-core server behind a bounded queue of exactly 4 slots
/// admits a job only onto an idle core — arrivals beyond that are shed.
/// The shed fraction is the Erlang-B blocking probability, one of the few
/// closed forms a loss system has.
#[test]
fn bounded_queue_blocking_matches_erlang_b() {
    let mu = 10.0; // per-core service rate
    let k = 4u32;
    let a = 3.0; // offered load in erlangs
    let lambda = a * mu;
    let w = workload(
        &Exponential::new(lambda).unwrap(),
        &Exponential::new(mu).unwrap(),
        21,
    );
    let config = ExperimentConfig::new(w)
        .with_cores(k as usize)
        .with_target_accuracy(0.05)
        .with_resilience(
            ResilienceConfig::new().with_admission(AdmissionPolicy::BoundedQueue {
                capacity: k as usize,
            }),
        )
        .with_max_events(20_000_000);
    let mut sim = ClusterSim::new_slave(config, 22).unwrap();
    let mut cal = Calendar::new();
    sim.prime(&mut cal);
    let mut engine = Engine::from_parts(sim, cal);
    // ~300k arrivals give a ±0.2% confidence band around B ≈ 0.206.
    drive_to(&mut engine, 300_000.0 / lambda, 50_000);
    let rs = ledger(&engine);
    assert!(rs.offered > 250_000, "expected a large sample: {rs:?}");
    assert_eq!(rs.admitted + rs.shed, rs.offered, "{rs:?}");
    let measured = rs.shed as f64 / rs.offered as f64;
    let theory = bighouse::analytic::erlang_b(a, k);
    let cross = bighouse::analytic::mmkk::blocking_probability(a, k, k);
    assert!(
        (theory - cross).abs() < 1e-12,
        "Erlang-B and M/M/k/K (K=k) must agree: {theory} vs {cross}"
    );
    let err = (measured - theory).abs() / theory;
    assert!(
        err < 0.05,
        "M/M/{k}/{k} blocking: measured {measured:.4}, Erlang-B {theory:.4}, err {err:.3}"
    );
}

/// The retry-storm scenario shared by the two phase-windowed tests: a
/// 4-core server at 40% baseline load, clients whose timeouts abandon
/// (rather than cancel) the in-flight attempt, and a 5× overload ramp in
/// the middle of the run.
struct Storm {
    config: ExperimentConfig,
    ia: f64,
    ramp_start: f64,
    ramp_end: f64,
}

fn storm_scenario(admission: Option<AdmissionPolicy>) -> Storm {
    let base = ExperimentConfig::new(Workload::standard(StandardWorkload::Web))
        .with_cores(4)
        .with_utilization(0.4);
    let ia = base.workload().interarrival().mean();
    let svc = base.workload().service().mean();
    let ramp_start = 2_500.0 * ia;
    let ramp_end = ramp_start + 1_500.0 * ia;
    let mut resilience = ResilienceConfig::new().with_ramp(ramp_start, ramp_end - ramp_start, 5.0);
    if let Some(policy) = admission {
        resilience = resilience.with_admission(policy);
    }
    // The timeout sits far above any wait the baseline load can produce
    // (the uncongested state is solidly stable, even against the Web
    // workload's heavy service tail) but far below the waits the ramp
    // produces (the congested state triggers every client).
    let timeout = 20.0 * svc;
    let config = base
        // The classic retry-storm client: when it gives up on an attempt
        // the server never hears about it, so the abandoned attempt keeps
        // burning a core as zombie work while the retry arrives as fresh
        // load. Once waits exceed the timeout, every admitted request
        // amplifies into up to six server jobs, of which at most one is
        // useful — the offered *work* stays far above capacity even after
        // the arrival rate drops back, which is exactly the metastable
        // trap.
        .with_retry(
            RetryPolicy::new(timeout)
                .with_max_retries(5)
                .with_cancel_on_timeout(false),
        )
        .with_resilience(resilience);
    Storm {
        config,
        ia,
        ramp_start,
        ramp_end,
    }
}

/// Goodput observed in the windows before and after the overload ramp.
struct Phased {
    baseline_rate: f64,
    recovery_rate: f64,
    during_ramp: ResilienceSummary,
    end: ResilienceSummary,
}

fn run_phases(storm: &Storm, seed: u64) -> Phased {
    let sim = ClusterSim::new_slave(storm.config.clone(), seed).unwrap();
    let mut cal = Calendar::new();
    let mut sim = sim;
    sim.prime(&mut cal);
    let mut engine = Engine::from_parts(sim, cal);
    // Fine-grained batches: a snapshot may overshoot its window boundary
    // by at most 128 events (a couple dozen jobs), noise against the
    // 1500–2000-interarrival windows.
    let batch = 128;
    // Baseline window [500·ia, ramp_start): past warm-up, before the ramp.
    let baseline_window = storm.ramp_start - 500.0 * storm.ia;
    drive_to(&mut engine, 500.0 * storm.ia, batch);
    let at_warm = ledger(&engine);
    drive_to(&mut engine, storm.ramp_start, batch);
    let at_ramp_start = ledger(&engine);
    drive_to(&mut engine, storm.ramp_end, batch);
    let during_ramp = ledger(&engine);
    // Recovery window [ramp_end + 200·ia, ramp_end + 900·ia): offered
    // load has been back to baseline for 200 interarrivals when it opens.
    drive_to(&mut engine, storm.ramp_end + 200.0 * storm.ia, batch);
    let at_recovery_open = ledger(&engine);
    drive_to(&mut engine, storm.ramp_end + 900.0 * storm.ia, batch);
    let end = ledger(&engine);
    Phased {
        baseline_rate: (at_ramp_start.goodput - at_warm.goodput) as f64 / baseline_window,
        recovery_rate: (end.goodput - at_recovery_open.goodput) as f64 / (700.0 * storm.ia),
        during_ramp,
        end,
    }
}

/// Without admission control, the ramp's backlog plus retry amplification
/// keeps the cluster congested long after the offered load returns to
/// normal: goodput in the recovery window stays far below the pre-ramp
/// baseline. This is the metastable retry storm.
#[test]
fn retry_storm_is_metastable_without_admission_control() {
    let storm = storm_scenario(None);
    let phased = run_phases(&storm, 31);
    assert!(
        phased.baseline_rate > 0.0,
        "baseline must complete work: {:.4}",
        phased.baseline_rate
    );
    // The ramp itself must have congested the cluster.
    assert!(
        phased.during_ramp.in_flight_at_end > 100,
        "the ramp must build a backlog: {:?}",
        phased.during_ramp
    );
    assert!(
        phased.recovery_rate < 0.5 * phased.baseline_rate,
        "goodput hysteresis expected: baseline {:.4}/s, post-ramp {:.4}/s",
        phased.baseline_rate,
        phased.recovery_rate
    );
    // Exact disposition accounting holds even mid-collapse.
    let rs = &phased.end;
    assert_eq!(rs.admitted + rs.shed, rs.offered, "{rs:?}");
    assert_eq!(
        rs.goodput + rs.timed_out + rs.in_flight_at_end,
        rs.admitted,
        "{rs:?}"
    );
}

/// The same storm behind a bounded queue: the excess is shed at the front
/// door instead of queueing, so when the ramp ends the cluster drains in
/// a few service times and goodput returns to its pre-ramp level.
#[test]
fn admission_control_restores_goodput_after_the_ramp() {
    let storm = storm_scenario(Some(AdmissionPolicy::BoundedQueue { capacity: 12 }));
    let phased = run_phases(&storm, 31);
    assert!(phased.baseline_rate > 0.0);
    assert!(
        phased.during_ramp.shed > 0,
        "the ramp must trip admission control: {:?}",
        phased.during_ramp
    );
    assert!(
        phased.recovery_rate > 0.8 * phased.baseline_rate,
        "admission control must restore goodput: baseline {:.4}/s, post-ramp {:.4}/s",
        phased.baseline_rate,
        phased.recovery_rate
    );
    let rs = &phased.end;
    assert_eq!(rs.admitted + rs.shed, rs.offered, "{rs:?}");
    assert_eq!(
        rs.goodput + rs.timed_out + rs.in_flight_at_end,
        rs.admitted,
        "{rs:?}"
    );
    // The queue bound holds at every sampled instant.
    assert!(rs.in_flight_at_end <= 12, "{rs:?}");
}

/// An empty resilience block only turns request *tracking* on — it must
/// not perturb the simulation trajectory: same events, same simulated
/// time, same estimates to the last bit.
#[test]
fn tracking_only_resilience_is_bit_identical_to_plain_runs() {
    let base = ExperimentConfig::new(Workload::standard(StandardWorkload::Web))
        .with_cores(4)
        .with_utilization(0.6)
        .with_target_accuracy(0.1)
        .with_max_events(5_000_000);
    let plain = run_serial(&base, 77).unwrap();
    let tracked = run_serial(&base.with_resilience(ResilienceConfig::new()), 77).unwrap();
    assert_eq!(plain.events_fired, tracked.events_fired);
    assert_eq!(
        plain.simulated_seconds.to_bits(),
        tracked.simulated_seconds.to_bits()
    );
    assert_eq!(
        plain.estimates, tracked.estimates,
        "request tracking perturbed the estimates"
    );
    // And the tracked run's ledger still balances exactly.
    let rs = tracked.cluster.resilience.expect("tracking on");
    assert_eq!(rs.shed, 0);
    assert_eq!(rs.goodput + rs.timed_out + rs.in_flight_at_end, rs.admitted);
}
