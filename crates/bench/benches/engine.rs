//! Criterion micro-benchmarks for the discrete-event engine: the per-event
//! costs behind Figure 7's runtime scaling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bighouse::prelude::*;

/// Pure calendar throughput: schedule + pop, at several pending-set sizes
/// (flat in the size for a calendar queue, until the slab leaves the cache).
fn calendar_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("calendar");
    group.sample_size(20);
    for pending in [16usize, 1024, 65_536] {
        group.bench_with_input(
            BenchmarkId::new("schedule_pop", pending),
            &pending,
            |b, &pending| {
                b.iter(|| {
                    let mut cal: Calendar<u64> = Calendar::new();
                    let mut rng = SimRng::from_seed(1);
                    for i in 0..pending as u64 {
                        cal.schedule(Time::from_seconds(rng.open01()), i);
                    }
                    // Steady-state churn: pop one, push one.
                    for i in 0..10_000u64 {
                        let (now, _) = cal.pop().expect("non-empty");
                        cal.schedule(now + rng.open01(), i);
                    }
                    while cal.pop().is_some() {}
                })
            },
        );
    }
    group.finish();
}

/// `peek_time` makes the bounded search `pop` makes, without unlinking:
/// usually the bucket under the cursor, so flat across pending-set sizes.
/// Nothing on a run's hot path calls it.
fn calendar_peek(c: &mut Criterion) {
    let mut group = c.benchmark_group("calendar");
    for pending in [16usize, 1024, 65_536] {
        group.bench_with_input(BenchmarkId::new("peek_time", pending), &pending, |b, &n| {
            let mut cal: Calendar<u64> = Calendar::new();
            let mut rng = SimRng::from_seed(4);
            for i in 0..n as u64 {
                cal.schedule(Time::from_seconds(rng.open01()), i);
            }
            b.iter(|| std::hint::black_box(&cal).peek_time());
        });
    }
    group.finish();
}

/// Cancellation-heavy churn, as produced by DVFS rescheduling. The cancel
/// path removes events in place (no tombstones), so backing storage must
/// stay bounded by the peak live set no matter how many rounds run —
/// asserted here so the bench doubles as a memory-steadiness regression
/// test.
fn calendar_cancellation(c: &mut Criterion) {
    c.bench_function("calendar/cancel_reschedule", |b| {
        b.iter(|| {
            let mut cal: Calendar<u64> = Calendar::new();
            let mut rng = SimRng::from_seed(2);
            let mut handles = Vec::new();
            for i in 0..1000u64 {
                handles.push(cal.schedule(Time::from_seconds(1.0 + rng.open01()), i));
            }
            for round in 0..10u64 {
                for h in handles.drain(..) {
                    cal.cancel(h);
                }
                for i in 0..1000u64 {
                    handles.push(
                        cal.schedule(Time::from_seconds(1.0 + rng.open01()), round * 1000 + i),
                    );
                }
            }
            assert!(
                cal.backing_events() <= 1000 && cal.slot_capacity() <= 1000,
                "cancel churn leaked: {} linked nodes / {} slots for 1000 live events",
                cal.backing_events(),
                cal.slot_capacity(),
            );
            while cal.pop().is_some() {}
        })
    });
}

/// End-to-end simulation event throughput: events per second through the
/// full cluster simulation (the figure of merit for wall-clock estimates).
fn simulation_event_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation");
    group.sample_size(10);
    for servers in [1usize, 16, 256] {
        group.bench_with_input(
            BenchmarkId::new("events_100k", servers),
            &servers,
            |b, &servers| {
                let workload = Workload::standard(StandardWorkload::Web);
                b.iter(|| {
                    let config = ExperimentConfig::new(workload.at_utilization(0.5, 4))
                        .with_servers(servers)
                        .with_cores(4)
                        .with_max_events(100_000);
                    run_serial(&config, 3).expect("valid config")
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    calendar_throughput,
    calendar_peek,
    calendar_cancellation,
    simulation_event_throughput
);
criterion_main!(benches);
