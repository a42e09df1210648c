//! [`FixedSlots`], the second store [`ClusterSim`](crate::ClusterSim)'s
//! handlers run over.
//!
//! The handlers are written once, against [`Pending`]. Which store holds
//! their events is a fact about the configuration
//! (`ClusterSim::fastpath_eligible`): [`Calendar`] holds any population,
//! [`FixedSlots`] only one in which every event has a slot of its own, and
//! is the faster of the two while a scan of all slots is cheaper than the
//! calendar queue's links. Both pop in the one total order on packed
//! `(time, seq)` keys, so the choice never reaches an estimate.
//!
//! [`Calendar`]: bighouse_des::Calendar

use bighouse_des::{CalendarStats, EventHandle, Pending, Time};

use crate::cluster::ClusterEvent;

/// A vacant slot. No real key can collide with it: the high 64 bits of a
/// key are the bit pattern of a finite timestamp, and all-ones would be NaN.
const VACANT: u128 = u128::MAX;

/// The store for a plain G/G/k FCFS cluster, whose pending set is one
/// arrival per stream plus at most one attention event per server — a
/// fixed, statically known population. Each of those events has a slot of
/// its own holding its packed `(time, seq)` key (the format [`Calendar`]
/// sorts by), the next event is a linear minimum scan, and an event's
/// payload is its slot index: no slab, no links, no buckets.
///
/// Sequence numbers and counters advance exactly as [`Calendar`]'s do, so
/// time ties break identically and [`Pending::stats`] matches except for
/// `sift_steps` (always zero: there are no buckets to search).
///
/// [`Calendar`]: bighouse_des::Calendar
#[derive(Debug)]
pub(crate) struct FixedSlots {
    now: Time,
    /// The arrival streams' slots — each server's stream, or the balanced
    /// front end alone — then one attention slot per server.
    keys: Vec<u128>,
    streams: usize,
    /// Whether the one stream is [`ClusterEvent::BalancedArrival`].
    balanced: bool,
    next_seq: u64,
    pending: usize,
    scheduled: u64,
    fired: u64,
    cancelled: u64,
    depth_high_water: usize,
}

impl FixedSlots {
    /// An empty store for `servers` servers fed by one balanced front end
    /// or by a stream each, with the clock at [`Time::ZERO`].
    pub(crate) fn new(servers: usize, balanced: bool) -> Self {
        let streams = if balanced { 1 } else { servers };
        FixedSlots {
            now: Time::ZERO,
            keys: vec![VACANT; streams + servers],
            streams,
            balanced,
            next_seq: 0,
            pending: 0,
            scheduled: 0,
            fired: 0,
            cancelled: 0,
            depth_high_water: 0,
        }
    }

    fn slot_of(&self, event: ClusterEvent) -> usize {
        match (event, self.balanced) {
            (ClusterEvent::Arrival { server }, false) if server < self.streams => server,
            (ClusterEvent::BalancedArrival, true) => 0,
            (ClusterEvent::Attention { server }, _) => self.streams + server,
            _ => unreachable!("{event:?} has no fixed slot"),
        }
    }

    fn event_of(&self, slot: usize) -> ClusterEvent {
        if slot >= self.streams {
            ClusterEvent::Attention {
                server: slot - self.streams,
            }
        } else if self.balanced {
            ClusterEvent::BalancedArrival
        } else {
            ClusterEvent::Arrival { server: slot }
        }
    }
}

impl Pending<ClusterEvent> for FixedSlots {
    #[inline]
    fn now(&self) -> Time {
        self.now
    }

    #[inline]
    fn schedule(&mut self, at: Time, event: ClusterEvent) -> EventHandle {
        assert!(
            at >= self.now,
            "cannot schedule event at {at} before current time {}",
            self.now
        );
        let slot = self.slot_of(event);
        debug_assert!(
            self.keys[slot] == VACANT,
            "{event:?} scheduled while one is pending"
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled += 1;
        self.pending += 1;
        if self.pending > self.depth_high_water {
            self.depth_high_water = self.pending;
        }
        // `+ 0.0` normalizes -0.0 to +0.0, as the calendar's packing does.
        self.keys[slot] = (u128::from((at.as_seconds() + 0.0).to_bits()) << 64) | u128::from(seq);
        // The slot, stamped with its key's low sequence bits: a handle
        // goes stale when its event fires, is cancelled or is superseded.
        EventHandle::from_raw(((seq & 0xFFFF_FFFF) << 32) | slot as u64)
    }

    #[inline]
    fn cancel(&mut self, handle: EventHandle) -> bool {
        let raw = handle.raw();
        let slot = (raw & 0xFFFF_FFFF) as usize;
        match self.keys.get(slot) {
            Some(&key) if key != VACANT && key as u32 == (raw >> 32) as u32 => {
                self.keys[slot] = VACANT;
                self.pending -= 1;
                self.cancelled += 1;
                true
            }
            _ => false,
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<(Time, ClusterEvent)> {
        let (mut best, mut slot) = (VACANT, 0);
        for (i, &key) in self.keys.iter().enumerate() {
            if key < best {
                (best, slot) = (key, i);
            }
        }
        if best == VACANT {
            return None;
        }
        self.keys[slot] = VACANT;
        self.now = Time::from_seconds(f64::from_bits((best >> 64) as u64));
        self.pending -= 1;
        self.fired += 1;
        Some((self.now, self.event_of(slot)))
    }

    fn stats(&self) -> CalendarStats {
        CalendarStats {
            scheduled: self.scheduled,
            fired: self.fired,
            cancelled: self.cancelled,
            depth_high_water: self.depth_high_water,
            sift_steps: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bighouse_des::{Calendar, SimRng};

    /// Applies one random slot-shaped operation sequence to both stores and
    /// holds them to the same answers at every step.
    fn differential(servers: usize, balanced: bool, seed: u64, ops: usize) {
        let mut rng = SimRng::from_seed(seed);
        let mut slots = FixedSlots::new(servers, balanced);
        let mut cal: Calendar<ClusterEvent> = Calendar::new();
        let n = slots.keys.len();
        // Per slot: the live handle pair, and the last pair to go stale.
        let mut live: Vec<Option<(EventHandle, EventHandle)>> = vec![None; n];
        let mut stale: Vec<Option<(EventHandle, EventHandle)>> = vec![None; n];
        // A few delays only, zero among them, so timestamps tie often.
        let delays = [0.0, 0.0, -0.0, 0.25, 0.5, 1.0, 1.0, 3.0];
        let mut pops = 0usize;
        for _ in 0..ops {
            let slot = (rng.raw_u64() % n as u64) as usize;
            let event = slots.event_of(slot);
            let delay = delays[(rng.raw_u64() % delays.len() as u64) as usize];
            match rng.raw_u64() % 8 {
                // Schedule into a vacant slot, relative or absolute; an
                // occupied one is cancelled and rescheduled at that instant.
                0..=3 => {
                    if let Some((a, b)) = live[slot].take() {
                        assert!(slots.cancel(a) && Calendar::cancel(&mut cal, b));
                        stale[slot] = Some((a, b));
                    }
                    let pair = if rng.raw_u64().is_multiple_of(2) {
                        (
                            slots.schedule_in(delay, event),
                            cal.schedule_in(delay, event),
                        )
                    } else {
                        // `-0.0` itself is a legal absolute time at zero.
                        let at = if slots.now == Time::ZERO && delay == 0.0 {
                            Time::from_seconds(delay)
                        } else {
                            slots.now + delay
                        };
                        (
                            slots.schedule(at, event),
                            Calendar::schedule(&mut cal, at, event),
                        )
                    };
                    live[slot] = Some(pair);
                }
                // Cancel: a live handle once, or a stale one to no effect.
                4 => {
                    if let Some((a, b)) = live[slot].take() {
                        assert!(slots.cancel(a) && Calendar::cancel(&mut cal, b));
                        stale[slot] = Some((a, b));
                    } else if let Some((a, b)) = stale[slot] {
                        assert!(!slots.cancel(a) && !Calendar::cancel(&mut cal, b));
                    }
                }
                _ => {
                    let popped = slots.pop();
                    assert_eq!(popped, Calendar::pop(&mut cal));
                    if let Some((_, event)) = popped {
                        pops += 1;
                        let fired = slots.slot_of(event);
                        stale[fired] = live[fired].take();
                        assert!(stale[fired].is_some(), "popped a slot never scheduled");
                    }
                }
            }
            // A handle a newer event in the same slot superseded is stale
            // on both stores too.
            if let (Some(_), Some((a, b))) = (live[slot], stale[slot]) {
                assert!(!slots.cancel(a) && !Calendar::cancel(&mut cal, b));
            }
            assert_eq!(slots.now, Calendar::now(&cal));
            assert_eq!(
                slots.stats(),
                CalendarStats {
                    sift_steps: 0,
                    ..Calendar::stats(&cal)
                }
            );
        }
        assert!(pops > ops / 8, "the sequence must exercise pop");
        // Drain: what is left comes out in the same order.
        loop {
            let popped = slots.pop();
            assert_eq!(popped, Calendar::pop(&mut cal));
            if popped.is_none() {
                break;
            }
        }
    }

    #[test]
    fn fixed_slots_and_calendar_agree_on_random_slot_shaped_operations() {
        // 2…32 slots in both arrival modes, ≥ 10⁵ operations in all.
        let mut total = 0;
        for servers in 1..=16 {
            differential(servers, false, 100 + servers as u64, 4_000);
            total += 4_000;
        }
        for servers in 1..=31 {
            differential(servers, true, 200 + servers as u64, 2_000);
            total += 2_000;
        }
        assert!(total >= 100_000);
    }

    const EVENT: ClusterEvent = ClusterEvent::Attention { server: 0 };

    /// Runs `breach` on a store whose clock reads 10 s and returns the
    /// message it panics with.
    fn breach_message(breach: impl FnOnce(&mut FixedSlots)) -> String {
        let mut slots = FixedSlots::new(2, false);
        slots.schedule(Time::from_seconds(10.0), EVENT);
        slots.pop();
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| breach(&mut slots)))
            .expect_err("the contract was broken without a panic");
        *panic.downcast::<String>().expect("a formatted message")
    }

    #[test]
    fn fixed_slots_refuse_bad_delays_and_past_times() {
        // A negative, NaN or infinite delay, then a time before `now`.
        for delay in [
            -0.5,
            -f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            let message = breach_message(|s| _ = s.schedule_in(delay, EVENT));
            assert!(
                message.contains("finite and non-negative"),
                "{delay}: {message}"
            );
        }
        let message = breach_message(|s| _ = s.schedule(Time::from_seconds(5.0), EVENT));
        assert!(message.contains("before current time"), "{message}");
    }

    #[test]
    #[should_panic(expected = "has no fixed slot")]
    fn an_event_without_a_slot_is_refused() {
        FixedSlots::new(2, false).schedule_in(1.0, ClusterEvent::Epoch);
    }

    #[test]
    #[should_panic(expected = "has no fixed slot")]
    fn a_per_server_arrival_has_no_slot_behind_a_balancer() {
        FixedSlots::new(2, true).schedule_in(1.0, ClusterEvent::Arrival { server: 1 });
    }
}
