//! Metastable retry storm: an overload ramp that outlives its cause, and
//! the admission control that prevents it.
//!
//! A 4-core web server runs at a comfortable 40% load, but its clients
//! time out and retry — and when a client gives up on an attempt the
//! server never hears about it, so the abandoned attempt keeps burning a
//! core as *zombie work* while the retry arrives as fresh load. A 5×
//! traffic ramp pushes waits past the timeout; from then on every
//! admitted request amplifies into up to six server jobs of which at
//! most one is useful, and the cluster stays congested long after the
//! ramp ends. That is the metastable failure mode of real serving
//! systems: the overload is gone, the goodput is not coming back.
//!
//! The same scenario behind a 12-slot bounded queue sheds the excess at
//! the front door instead of queueing it, and goodput snaps back to the
//! pre-ramp baseline within a couple of service times of the ramp end.
//!
//! Run with: `cargo run --release --example retry_storm`

use bighouse::prelude::*;

/// Advances an engine until simulated time reaches `t` seconds.
fn drive_to(engine: &mut Engine<ClusterSim>, t: f64) {
    while engine.now().as_seconds() < t {
        let stats = engine.run_with_limit(32);
        assert!(stats.events_fired > 0, "calendar drained early");
    }
}

/// Resilience ledger at the engine's current simulated time.
fn ledger(engine: &Engine<ClusterSim>) -> ResilienceSummary {
    let now = engine.now();
    engine
        .simulation()
        .summary(now)
        .resilience
        .expect("resilience mode on")
}

fn main() {
    let base = ExperimentConfig::new(Workload::standard(StandardWorkload::Web))
        .with_cores(4)
        .with_utilization(0.4);
    let ia = base.workload().interarrival().mean();
    let svc = base.workload().service().mean();
    let ramp_start = 2_500.0 * ia;
    let ramp_duration = 1_500.0 * ia;
    let ramp_end = ramp_start + ramp_duration;
    let timeout = 20.0 * svc;

    let scenario = |admission: Option<AdmissionPolicy>| {
        let mut resilience = ResilienceConfig::new().with_ramp(ramp_start, ramp_duration, 5.0);
        if let Some(policy) = admission {
            resilience = resilience.with_admission(policy);
        }
        base.clone()
            .with_retry(
                RetryPolicy::new(timeout)
                    .with_max_retries(5)
                    .with_cancel_on_timeout(false),
            )
            .with_resilience(resilience)
    };
    let engine_for = |config: ExperimentConfig| {
        let mut sim = ClusterSim::new_slave(config, 31).expect("valid config");
        let mut cal = Calendar::new();
        sim.prime(&mut cal);
        Engine::from_parts(sim, cal)
    };
    let mut unprotected = engine_for(scenario(None));
    let mut protected = engine_for(scenario(Some(AdmissionPolicy::BoundedQueue {
        capacity: 12,
    })));

    println!("Metastable retry storm: 4-core web server @ 40% load, timeout 20x mean");
    println!("service, 5 retries, abandoned attempts finish as zombie work.");
    println!("Overload ramp: 5x offered load over t = {ramp_start:.1} s .. {ramp_end:.1} s.");
    println!();
    println!(
        "{:>16}  {:>14} {:>14} {:>10}  {:<8}",
        "window (s)", "unprot gp/s", "admctl gp/s", "shed", "phase"
    );

    let window = 250.0 * ia;
    let end = ramp_end + 1_000.0 * ia;
    let mut t = window;
    let mut prev_u = 0u64;
    let mut prev_p = ledger(&protected);
    while t <= end + 1e-9 {
        drive_to(&mut unprotected, t);
        drive_to(&mut protected, t);
        let u = ledger(&unprotected);
        let p = ledger(&protected);
        let phase = if t <= ramp_start {
            "baseline"
        } else if t - window < ramp_end {
            "RAMP"
        } else {
            "recovery"
        };
        println!(
            "{:>7.1} ..{:>6.1}  {:>14.1} {:>14.1} {:>10}  {:<8}",
            t - window,
            t,
            (u.goodput - prev_u) as f64 / window,
            (p.goodput - prev_p.goodput) as f64 / window,
            p.shed - prev_p.shed,
            phase
        );
        prev_u = u.goodput;
        prev_p = p;
        t += window;
    }

    let u = ledger(&unprotected);
    let p = ledger(&protected);
    assert_eq!(u.admitted + u.shed, u.offered, "ledger out of balance");
    assert_eq!(u.goodput + u.timed_out + u.in_flight_at_end, u.admitted);
    assert_eq!(p.admitted + p.shed, p.offered, "ledger out of balance");
    assert_eq!(p.goodput + p.timed_out + p.in_flight_at_end, p.admitted);

    println!();
    println!(
        "Final ledgers — unprotected: {} offered, {} goodput, {} timed out, {} in flight;",
        u.offered, u.goodput, u.timed_out, u.in_flight_at_end
    );
    println!(
        "                protected:   {} offered, {} goodput, {} timed out, {} shed.",
        p.offered, p.goodput, p.timed_out, p.shed
    );
    println!();
    println!("Expected: both variants track each other during the baseline. After the ramp");
    println!("ends the unprotected server never recovers — retry amplification keeps offered");
    println!("*work* above capacity even though offered *load* is back to 40% (metastability).");
    println!("The bounded queue sheds during the ramp and restores full goodput right after.");
}
