//! Property-based tests for the discrete-event engine.

use std::collections::HashSet;

use bighouse_des::check::{check, Gen};
use bighouse_des::{Calendar, SeedStream, SimRng, Time};

/// Events pop in non-decreasing time order for any schedule.
#[test]
fn calendar_pops_sorted() {
    check("calendar_pops_sorted", 256, |g| {
        let times = g.vec(1..200, |g| g.range(0.0..1e6));
        let mut cal = Calendar::new();
        for (i, &t) in times.iter().enumerate() {
            cal.schedule(Time::from_seconds(t), i);
        }
        let mut last = Time::ZERO;
        let mut popped = 0;
        while let Some((t, _)) = cal.pop() {
            assert!(t >= last, "out of order: {t} after {last}");
            last = t;
            popped += 1;
        }
        assert_eq!(popped, times.len());
    });
}

/// Equal-time events preserve scheduling order (determinism).
#[test]
fn calendar_fifo_at_equal_times() {
    check("calendar_fifo_at_equal_times", 256, |g| {
        let n = g.range(1usize..100);
        let mut cal = Calendar::new();
        let t = Time::from_seconds(1.0);
        for i in 0..n {
            cal.schedule(t, i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| cal.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..n).collect::<Vec<_>>());
    });
}

/// Cancelling an arbitrary subset removes exactly that subset.
#[test]
fn calendar_cancellation_is_exact() {
    check("calendar_cancellation_is_exact", 256, |g| {
        let times = g.vec(1..100, |g| g.range(0.0..1e3));
        let cancel_mask: Vec<bool> = g.vec(1..100, Gen::any);
        let mut cal = Calendar::new();
        let handles: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (i, cal.schedule(Time::from_seconds(t), i)))
            .collect();
        let mut expected: Vec<usize> = Vec::new();
        for (i, handle) in &handles {
            let cancel = cancel_mask.get(*i).copied().unwrap_or(false);
            if cancel {
                assert!(cal.cancel(*handle));
            } else {
                expected.push(*i);
            }
        }
        let mut popped: Vec<usize> = std::iter::from_fn(|| cal.pop()).map(|(_, e)| e).collect();
        popped.sort_unstable();
        expected.sort_unstable();
        assert_eq!(popped, expected);
    });
}

/// Arming and then cancelling random timeouts never fires a cancelled
/// event, and the survivors keep deterministic FIFO tie-breaking: the
/// pop order is exactly the schedule order stably sorted by time, with
/// the cancelled subset deleted. Times are drawn from a coarse grid so
/// ties are common — the regime request-timeout cancellation runs in.
#[test]
fn cancelled_timeouts_never_fire_and_ties_stay_deterministic() {
    check(
        "cancelled_timeouts_never_fire_and_ties_stay_deterministic",
        256,
        |g| {
            let slots = g.vec(1..120, |g| f64::from(g.range(0u8..8)));
            let cancel_mask: Vec<bool> = g.vec(1..120, Gen::any);
            let mut cal = Calendar::new();
            let handles: Vec<_> = slots
                .iter()
                .enumerate()
                .map(|(i, &at)| (i, at, cal.schedule(Time::from_seconds(at), i)))
                .collect();
            let mut survivors: Vec<(f64, usize)> = Vec::new();
            let mut cancelled: HashSet<usize> = HashSet::new();
            for (i, at, handle) in &handles {
                if cancel_mask.get(*i).copied().unwrap_or(false) {
                    assert!(
                        cal.cancel(*handle),
                        "first cancel of a pending event succeeds"
                    );
                    assert!(!cal.cancel(*handle), "second cancel is a stale no-op");
                    cancelled.insert(*i);
                } else {
                    survivors.push((*at, *i));
                }
            }
            // Expected order: stable sort by time preserves schedule order
            // within each tie group.
            survivors.sort_by(|a, b| a.0.total_cmp(&b.0));
            let popped: Vec<usize> = std::iter::from_fn(|| cal.pop()).map(|(_, e)| e).collect();
            for id in &popped {
                assert!(!cancelled.contains(id), "cancelled timeout {id} fired");
            }
            let expected: Vec<usize> = survivors.iter().map(|&(_, i)| i).collect();
            assert_eq!(popped, expected);
        },
    );
}

/// pending() always equals scheduled − fired − cancelled.
#[test]
fn calendar_counters_are_consistent() {
    check("calendar_counters_are_consistent", 256, |g| {
        counters_stay_consistent(&g.vec(1..300, |g| g.range(0..3)));
    });
}

/// A recorded failing list: schedule, pop, then cancel a fired event.
#[test]
fn calendar_counters_regression_schedule_pop_cancel() {
    counters_stay_consistent(&[0, 2, 1]);
}

/// Replays `ops` (0 schedule, 1 cancel the newest unfired, else pop) and
/// checks the counters after each.
fn counters_stay_consistent(ops: &[u8]) {
    let mut cal = Calendar::new();
    let mut live_handles: Vec<(usize, bighouse_des::EventHandle)> = Vec::new();
    let mut fired: HashSet<usize> = HashSet::new();
    let mut cancelled = 0u64;
    for (i, op) in ops.iter().enumerate() {
        match op {
            0 => {
                live_handles.push((i, cal.schedule(Time::from_seconds(1e3 + i as f64), i)));
            }
            1 => {
                // Cancel the most recent handle whose event hasn't fired.
                while let Some((id, h)) = live_handles.pop() {
                    if fired.contains(&id) {
                        assert!(!cal.cancel(h), "cancel of fired event must be a no-op");
                        continue;
                    }
                    assert!(cal.cancel(h));
                    cancelled += 1;
                    break;
                }
            }
            _ => {
                if let Some((_, id)) = cal.pop() {
                    fired.insert(id);
                }
            }
        }
        let expected = cal.stats().scheduled as i64 - cal.events_fired() as i64 - cancelled as i64;
        assert_eq!(cal.pending() as i64, expected);
    }
}

/// Time arithmetic: (t + a) + b == t + (a + b) up to float assoc.
#[test]
fn time_addition_is_consistent() {
    check("time_addition_is_consistent", 256, |g| {
        let t0 = Time::from_seconds(g.range(0.0..1e9));
        let (a, b) = (g.range(0.0..1e3), g.range(0.0..1e3));
        let lhs = (t0 + a) + b;
        let rhs = t0 + (a + b);
        assert!((lhs - rhs).abs() < 1e-6);
    });
}

/// SimRng streams are reproducible and open01 stays in (0, 1).
#[test]
fn rng_reproducible_and_bounded() {
    check("rng_reproducible_and_bounded", 256, |g| {
        let seed = g.any();
        let mut a = SimRng::from_seed(seed);
        let mut b = SimRng::from_seed(seed);
        for _ in 0..100 {
            assert_eq!(a.raw_u64(), b.raw_u64());
        }
        for _ in 0..100 {
            let u = a.open01();
            assert!(u > 0.0 && u < 1.0);
        }
    });
}

/// Seed streams never repeat within a reasonable horizon.
#[test]
fn seed_stream_unique() {
    check("seed_stream_unique", 256, |g| {
        let mut stream = SeedStream::new(g.any());
        let seeds: Vec<u64> = (0..64).map(|_| stream.next_seed()).collect();
        let unique: HashSet<_> = seeds.iter().collect();
        assert_eq!(unique.len(), seeds.len());
    });
}

/// A JSON round trip of a mid-stream RNG preserves *behavior*, not just
/// fields: the restored generator emits the exact same subsequent
/// sequence. This is the contract checkpoint/resume depends on.
#[test]
fn rng_serde_round_trip_is_behavior_identical() {
    check("rng_serde_round_trip_is_behavior_identical", 256, |g| {
        let mut rng = SimRng::from_seed(g.any());
        for _ in 0..g.range(0..256) {
            let _ = rng.raw_u64();
        }
        let json = bighouse_json::to_string(&rng);
        let mut restored: SimRng = bighouse_json::from_str(&json).unwrap();
        assert_eq!(&rng, &restored);
        for _ in 0..64 {
            assert_eq!(rng.raw_u64(), restored.raw_u64());
        }
    });
}

/// A JSON round trip of a mid-stream SeedStream continues the identical
/// seed sequence a never-interrupted stream would have produced.
#[test]
fn seed_stream_serde_round_trip_is_behavior_identical() {
    check(
        "seed_stream_serde_round_trip_is_behavior_identical",
        256,
        |g| {
            let mut stream = SeedStream::new(g.any());
            for _ in 0..g.range(0..64) {
                stream.next_seed();
            }
            let json = bighouse_json::to_string(&stream);
            let mut restored: SeedStream = bighouse_json::from_str(&json).unwrap();
            for _ in 0..64 {
                assert_eq!(stream.next_seed(), restored.next_seed());
            }
        },
    );
}
