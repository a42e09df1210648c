//! Property-based tests for the discrete-event engine.

use proptest::prelude::*;

use bighouse_des::{Calendar, CalendarStats, SeedStream, SimRng, Time};
use rand::RngCore;

/// One calendar operation: a kind (0 schedule, 1 cancel, 2 pop, else
/// peek), the delay a schedule uses and the handle a cancel picks.
type Op = (u8, f64, u16);

/// Delays on a quarter-second grid: ties are the common case.
fn grid_delay() -> impl Strategy<Value = f64> {
    (0u8..12).prop_map(|slot| f64::from(slot) / 4.0)
}

/// The grid, gaps spread evenly in the exponent from a microsecond to an
/// hour, and one delay in sixteen a million times longer than the grid's.
fn wide_delay() -> impl Strategy<Value = f64> {
    prop_oneof![
        6 => grid_delay(),
        9 => (-20i32..12, 1.0f64..2.0).prop_map(|(exp, mantissa)| mantissa * 2f64.powi(exp)),
        1 => (1.0f64..2.0).prop_map(|mantissa| mantissa * 1e6),
    ]
}

/// The four kinds equally likely, so the pending set stays small.
fn tie_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..4, grid_delay(), any::<u16>()), 1..400)
}

/// Five schedules to one cancel, two pops and one peek: the pending set
/// grows through every resize threshold up to ~2000 buckets, and the
/// final drain crosses them all again on the way down.
fn wide_ops() -> impl Strategy<Value = Vec<Op>> {
    let kind = prop_oneof![5 => Just(0u8), 1 => Just(1u8), 2 => Just(2u8), 1 => Just(3u8)];
    prop::collection::vec((kind, wide_delay(), any::<u16>()), 1..4000)
}

/// Replays `ops` on a [`Calendar`] and on a naive reference model — a flat
/// `Vec<(time, seq, id)>` where pop scans for the minimum `(time, seq)`
/// and cancel is a linear remove — and returns the calendar's counters.
/// Any divergence in pop results, cancel outcomes, `peek_time`, or
/// `pending` falsifies the calendar's bookkeeping (slot reuse, generation
/// stamps, bucket links, the cursor, resizes).
fn replay_against_reference(ops: &[Op]) -> Result<CalendarStats, TestCaseError> {
    let mut cal: Calendar<u64> = Calendar::new();
    // Reference model: unordered pending list + every handle ever
    // issued (kept after pop/cancel so stale cancels get exercised).
    let mut model: Vec<(Time, u64, u64)> = Vec::new();
    let mut handles: Vec<(u64, bighouse_des::EventHandle)> = Vec::new();
    let mut next_seq = 0u64;
    let model_min = |model: &[(Time, u64, u64)]| {
        model
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.0.cmp(&b.0).then(a.1.cmp(&b.1)))
            .map(|(pos, _)| pos)
    };
    for &(op, delay, pick) in ops {
        match op {
            0 => {
                let at = cal.now() + delay;
                let id = next_seq;
                let handle = cal.schedule_in(delay, id);
                model.push((at, next_seq, id));
                handles.push((next_seq, handle));
                next_seq += 1;
            }
            1 => {
                if !handles.is_empty() {
                    let (seq, handle) = handles[pick as usize % handles.len()];
                    let expect = model.iter().position(|&(_, s, _)| s == seq);
                    prop_assert_eq!(
                        cal.cancel(handle),
                        expect.is_some(),
                        "cancel outcome diverged for seq {}",
                        seq
                    );
                    if let Some(pos) = expect {
                        model.swap_remove(pos);
                    }
                }
            }
            2 => {
                let got = cal.pop();
                let expect = model_min(&model).map(|pos| {
                    let (at, _, id) = model.remove(pos);
                    (at, id)
                });
                prop_assert_eq!(got, expect, "pop diverged");
            }
            _ => {
                let expect = model_min(&model).map(|pos| model[pos].0);
                prop_assert_eq!(cal.peek_time(), expect, "peek_time diverged");
                prop_assert_eq!(cal.backing_events(), model.len(), "bucket lists diverged");
            }
        }
        prop_assert_eq!(cal.pending(), model.len());
        prop_assert_eq!(cal.peek_time(), model_min(&model).map(|pos| model[pos].0));
    }
    // Drain: the tail must replay the reference order exactly.
    while let Some(pos) = model_min(&model) {
        let (at, _, id) = model.remove(pos);
        prop_assert_eq!(cal.pop(), Some((at, id)), "drain diverged");
    }
    prop_assert_eq!(cal.pop(), None);
    prop_assert!(cal.is_empty());
    Ok(cal.stats())
}

proptest! {
    /// Events pop in non-decreasing time order for any schedule.
    #[test]
    fn calendar_pops_sorted(times in prop::collection::vec(0.0f64..1e6, 1..200)) {
        let mut cal = Calendar::new();
        for (i, &t) in times.iter().enumerate() {
            cal.schedule(Time::from_seconds(t), i);
        }
        let mut last = Time::ZERO;
        let mut popped = 0;
        while let Some((t, _)) = cal.pop() {
            prop_assert!(t >= last, "out of order: {t} after {last}");
            last = t;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Equal-time events preserve scheduling order (determinism).
    #[test]
    fn calendar_fifo_at_equal_times(n in 1usize..100) {
        let mut cal = Calendar::new();
        let t = Time::from_seconds(1.0);
        for i in 0..n {
            cal.schedule(t, i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| cal.pop()).map(|(_, e)| e).collect();
        prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
    }

    /// Cancelling an arbitrary subset removes exactly that subset.
    #[test]
    fn calendar_cancellation_is_exact(
        times in prop::collection::vec(0.0f64..1e3, 1..100),
        cancel_mask in prop::collection::vec(any::<bool>(), 1..100),
    ) {
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
                prop_assert!(cal.cancel(*handle));
            } else {
                expected.push(*i);
            }
        }
        let mut popped: Vec<usize> = std::iter::from_fn(|| cal.pop()).map(|(_, e)| e).collect();
        popped.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(popped, expected);
    }

    /// Arming and then cancelling random timeouts never fires a cancelled
    /// event, and the survivors keep deterministic FIFO tie-breaking: the
    /// pop order is exactly the schedule order stably sorted by time, with
    /// the cancelled subset deleted. Times are drawn from a coarse grid so
    /// ties are common — the regime request-timeout cancellation runs in.
    #[test]
    fn cancelled_timeouts_never_fire_and_ties_stay_deterministic(
        slots in prop::collection::vec(0u8..8, 1..120),
        cancel_mask in prop::collection::vec(any::<bool>(), 1..120),
    ) {
        let mut cal = Calendar::new();
        let handles: Vec<_> = slots
            .iter()
            .enumerate()
            .map(|(i, &slot)| (i, f64::from(slot), cal.schedule(Time::from_seconds(f64::from(slot)), i)))
            .collect();
        let mut survivors: Vec<(f64, usize)> = Vec::new();
        let mut cancelled: std::collections::HashSet<usize> = std::collections::HashSet::new();
        for (i, at, handle) in &handles {
            if cancel_mask.get(*i).copied().unwrap_or(false) {
                prop_assert!(cal.cancel(*handle), "first cancel of a pending event succeeds");
                prop_assert!(!cal.cancel(*handle), "second cancel is a stale no-op");
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
            prop_assert!(!cancelled.contains(id), "cancelled timeout {id} fired");
        }
        let expected: Vec<usize> = survivors.iter().map(|&(_, i)| i).collect();
        prop_assert_eq!(popped, expected);
    }

    /// pending() always equals scheduled − fired − cancelled.
    #[test]
    fn calendar_counters_are_consistent(ops in prop::collection::vec(0u8..3, 1..300)) {
        let mut cal = Calendar::new();
        let mut live_handles: Vec<(usize, bighouse_des::EventHandle)> = Vec::new();
        let mut fired: std::collections::HashSet<usize> = std::collections::HashSet::new();
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
                            prop_assert!(!cal.cancel(h), "cancel of fired event must be a no-op");
                            continue;
                        }
                        prop_assert!(cal.cancel(h));
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
            let expected = cal.events_scheduled() as i64
                - cal.events_fired() as i64
                - cancelled as i64;
            prop_assert_eq!(cal.pending() as i64, expected);
        }
    }

    /// Differential check against [`replay_against_reference`]'s naive
    /// model, under two operation strategies: short lists with delays on
    /// a coarse grid, so equal-time ties are common, and long, growing
    /// ones whose delays span twelve orders of magnitude, so the bucket
    /// array doubles and halves, the width is refitted, and the next
    /// event is at times a "year" or more away.
    #[test]
    fn calendar_matches_sorted_vec_reference(ops in prop_oneof![tie_ops(), wide_ops()]) {
        replay_against_reference(&ops)?;
    }

    /// The counters are a pure function of the operation list: bucket
    /// count, width and every refit included, two replays agree.
    #[test]
    fn calendar_stats_repeat_across_replays(ops in wide_ops()) {
        prop_assert_eq!(replay_against_reference(&ops)?, replay_against_reference(&ops)?);
    }

    /// Time arithmetic: (t + a) + b == t + (a + b) up to float assoc.
    #[test]
    fn time_addition_is_consistent(t in 0.0f64..1e9, a in 0.0f64..1e3, b in 0.0f64..1e3) {
        let t0 = Time::from_seconds(t);
        let lhs = (t0 + a) + b;
        let rhs = t0 + (a + b);
        prop_assert!((lhs - rhs).abs() < 1e-6);
    }

    /// SimRng streams are reproducible and open01 stays in (0, 1).
    #[test]
    fn rng_reproducible_and_bounded(seed in any::<u64>()) {
        let mut a = SimRng::from_seed(seed);
        let mut b = SimRng::from_seed(seed);
        for _ in 0..100 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
        for _ in 0..100 {
            let u = a.open01();
            prop_assert!(u > 0.0 && u < 1.0);
        }
    }

    /// Seed streams never repeat within a reasonable horizon.
    #[test]
    fn seed_stream_unique(master in any::<u64>()) {
        let mut stream = SeedStream::new(master);
        let seeds: Vec<u64> = (0..64).map(|_| stream.next_seed()).collect();
        let unique: std::collections::HashSet<_> = seeds.iter().collect();
        prop_assert_eq!(unique.len(), seeds.len());
    }

    /// Serde round trip of a mid-stream RNG preserves *behavior*, not just
    /// fields: the restored generator emits the exact same subsequent
    /// sequence. This is the contract checkpoint/resume depends on.
    #[test]
    fn rng_serde_round_trip_is_behavior_identical(
        seed in any::<u64>(),
        warm in 0usize..256,
    ) {
        let mut rng = SimRng::from_seed(seed);
        for _ in 0..warm {
            rng.next_u64();
        }
        let json = serde_json::to_string(&rng).unwrap();
        let mut restored: SimRng = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&rng, &restored);
        for _ in 0..64 {
            prop_assert_eq!(rng.next_u64(), restored.next_u64());
        }
    }

    /// Serde round trip of a mid-stream SeedStream continues the identical
    /// seed sequence a never-interrupted stream would have produced.
    #[test]
    fn seed_stream_serde_round_trip_is_behavior_identical(
        master in any::<u64>(),
        warm in 0usize..64,
    ) {
        let mut stream = SeedStream::new(master);
        for _ in 0..warm {
            stream.next_seed();
        }
        let json = serde_json::to_string(&stream).unwrap();
        let mut restored: SeedStream = serde_json::from_str(&json).unwrap();
        for _ in 0..64 {
            prop_assert_eq!(stream.next_seed(), restored.next_seed());
        }
    }
}
