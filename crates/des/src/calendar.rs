//! The pending-event calendar.
//!
//! Implemented as a self-sizing calendar queue (Brown 1988; see DESIGN.md
//! "The event calendar"): simulated time is cut into buckets of one width,
//! a power-of-two array of them is reused "year" after "year", and each
//! bucket is an ordered intrusive list threaded through a slab of stable,
//! generation-stamped slots recycled through a free list. `schedule` and
//! `cancel` are an O(1) link and unlink, and `pop` reads the head of the
//! bucket under its cursor — no tombstones, no hashing, and no storage
//! beyond the peak live set. Bucket count and width follow the pending set,
//! but the pop order never depends on them: it is the total order on the
//! packed `(time, seq)` keys.

use std::fmt;

use crate::time::Time;

/// "No node" in a bucket list — and slab slot 0, which is never handed out.
/// Its node keeps key 0, below or equal to every real key, so an ordered
/// insert's walk stops there without testing for the list's end, and its
/// links soak up the stores a list end would otherwise have to branch
/// around (whether a random bucket is empty is a coin toss to the
/// predictor).
const NIL: u32 = 0;

/// Fewest buckets a non-empty calendar keeps; below this a lap of the
/// array is cheaper than resizing it.
const MIN_BUCKETS: usize = 4;

/// Bucket width as a multiple of the mean gap between the nearer half of
/// the pending timestamps. With two to four buckets per pending event a
/// "year" then spans one to two pending sets of that density. A quarter of
/// a gap and a whole one measured the same end to end.
const WIDTH_GAPS: f64 = 0.5;

/// Fewest pops in a window over which the search cost is summed; the
/// window is this or one pop per bucket, whichever is longer.
const DRIFT_WINDOW: usize = 64;

/// Mean steps per pop of a whole window which, once a window has spent
/// them, has the width fitted again: the pending set's spacing has drifted
/// away from the buckets'. The refit costs less than the steps that earned
/// it, so a pending set no width suits (half of it tied at the front, say)
/// at worst doubles its own cost.
const DRIFT_STEPS_PER_POP: u64 = 16;

/// A handle to a scheduled event, used to cancel it before it fires.
///
/// A handle encodes the event's slab slot plus a per-slot generation stamp;
/// the stamp is bumped every time a slot is vacated, so a handle for an
/// event that already fired (or was already cancelled) is simply stale, and
/// cancelling it is a no-op that returns `false` — even after the slot has
/// been recycled for a newer event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventHandle(u64);

impl EventHandle {
    /// A handle carrying `raw`, for a pending-event store other than
    /// [`Calendar`] that mints its own. Only the store that minted a handle
    /// can interpret it.
    #[inline]
    #[must_use]
    pub fn from_raw(raw: u64) -> Self {
        EventHandle(raw)
    }

    /// The bits given to [`EventHandle::from_raw`].
    #[inline]
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }

    #[inline]
    fn new(slot: u32, generation: u32) -> Self {
        EventHandle((u64::from(generation) << 32) | u64::from(slot))
    }

    #[inline]
    fn slot(self) -> u32 {
        self.0 as u32
    }

    #[inline]
    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// Packs a timestamp and a schedule sequence number into one totally
/// ordered 128-bit sort key.
///
/// `Time` is guaranteed finite and non-negative, so the IEEE-754 bit
/// pattern of its `f64` is monotone in its numeric value (after collapsing
/// `-0.0` to `+0.0`), and the packed keys compare exactly like
/// `(time, seq)` tuples: earlier events first, ties broken by scheduling
/// order. Keys are unique because `seq` never repeats.
#[inline]
fn pack_key(time: Time, seq: u64) -> u128 {
    // `+ 0.0` normalizes -0.0 (which from_seconds admits) to +0.0 so its
    // bit pattern sorts first, matching numeric comparison.
    let time_bits = (time.as_seconds() + 0.0).to_bits();
    (u128::from(time_bits) << 64) | u128::from(seq)
}

/// Recovers the timestamp from a packed sort key.
#[inline]
fn key_time(key: u128) -> Time {
    Time::from_seconds(f64::from_bits((key >> 64) as u64))
}

/// One pending event's place in the queue: its sort key, the virtual
/// bucket it was filed under, and its neighbours in that bucket's list.
/// 32 bytes, so a pop or an unlink touches one cache line per node.
#[derive(Debug, Clone, Copy)]
struct Node {
    key: u128,
    /// `floor(time / width)` under the width in force when the node was
    /// (re)filed, saturating. `virt & (buckets - 1)` is its bucket.
    virt: u64,
    prev: u32,
    next: u32,
}

/// First and last node of one bucket's list, which is kept in key order.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

/// A cancellable pending-event calendar ordered by simulated time.
///
/// The calendar is the heart of a discrete-event simulator: events are
/// scheduled for future instants and popped in non-decreasing time order,
/// advancing the simulation clock. Two properties matter for BigHouse:
///
/// - **Determinism** — events at equal timestamps fire in scheduling order,
///   so a run is exactly reproducible from its seed.
/// - **Cancellation** — DVFS transitions, DreamWeaver preemptions, and
///   request timeouts must reschedule in-flight events;
///   [`Calendar::cancel`] unlinks the superseded event immediately (O(1)),
///   so cancellation churn cannot grow the calendar beyond the live
///   pending set.
///
/// # Examples
///
/// ```
/// use bighouse_des::{Calendar, Time};
///
/// let mut cal: Calendar<&str> = Calendar::new();
/// cal.schedule(Time::from_seconds(2.0), "late");
/// let h = cal.schedule(Time::from_seconds(1.0), "early");
/// cal.cancel(h);
/// assert_eq!(cal.pop(), Some((Time::from_seconds(2.0), "late")));
/// assert_eq!(cal.pop(), None);
/// ```
pub struct Calendar<E> {
    /// Slab, indexed by slot. `nodes[s]` is meaningful while
    /// `slot_payload[s]` is `Some`; `slot_gen` is the generation stamp
    /// checked against [`EventHandle`]s.
    nodes: Vec<Node>,
    slot_gen: Vec<u32>,
    slot_payload: Vec<Option<E>>,
    /// Vacant slab slots available for reuse.
    free: Vec<u32>,
    /// First and last node of each bucket's list, which is kept in key
    /// order. The length is zero or a power of two.
    buckets: Vec<Bucket>,
    /// Buckets per simulated second (1 / width).
    per_second: f64,
    /// Virtual bucket `pop` looks at first. Never past the virtual bucket
    /// of any pending event: it is that of the last event popped, events
    /// are never scheduled before that one, and `virt_of` is monotone.
    cursor: u64,
    pending: usize,
    /// Pops, and steps taken on their and the schedules' behalf, since the
    /// search cost was last looked at.
    window_pops: usize,
    window_steps: u64,
    next_seq: u64,
    now: Time,
    fired: u64,
    scheduled: u64,
    cancelled: u64,
    /// Largest pending set ever held — "calendar pressure" telemetry.
    depth_high_water: usize,
    /// Buckets visited and list nodes examined, in total: the work `pop`
    /// does to find the next event and `schedule` to keep a bucket
    /// ordered. `sift_steps / fired` is what the hot loop pays per event
    /// on top of the constant link/unlink.
    sift_steps: u64,
}

/// A point-in-time copy of the calendar's activity counters.
///
/// All counters are pure functions of the event sequence — they advance
/// identically on every run of the same seed — so telemetry built from them
/// never perturbs and never differs across instrumented runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CalendarStats {
    /// Total events ever scheduled.
    pub scheduled: u64,
    /// Total events fired.
    pub fired: u64,
    /// Total events cancelled before firing.
    pub cancelled: u64,
    /// High-water mark of concurrent pending events.
    pub depth_high_water: usize,
    /// Total buckets visited and entries examined by `pop`'s search, plus
    /// entries `schedule` stepped over to keep a bucket ordered.
    pub sift_steps: u64,
}

impl CalendarStats {
    /// Accumulates another calendar's counters into this one — used when a
    /// run is stitched from epochs, each with a fresh calendar. Totals sum;
    /// the depth high-water mark takes the maximum.
    pub fn absorb(&mut self, other: &CalendarStats) {
        self.scheduled += other.scheduled;
        self.fired += other.fired;
        self.cancelled += other.cancelled;
        self.sift_steps += other.sift_steps;
        self.depth_high_water = self.depth_high_water.max(other.depth_high_water);
    }
}

impl<E> Calendar<E> {
    /// Creates an empty calendar with the clock at [`Time::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        Calendar {
            nodes: Vec::new(),
            slot_gen: Vec::new(),
            slot_payload: Vec::new(),
            free: Vec::new(),
            buckets: Vec::new(),
            per_second: 1.0,
            cursor: 0,
            pending: 0,
            window_pops: 0,
            window_steps: 0,
            next_seq: 0,
            now: Time::ZERO,
            fired: 0,
            scheduled: 0,
            cancelled: 0,
            depth_high_water: 0,
            sift_steps: 0,
        }
    }

    /// The current simulated time: the timestamp of the last popped event.
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// Returns a handle usable with [`Calendar::cancel`].
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current simulated time; a
    /// discrete-event simulation must never schedule into its own past.
    pub fn schedule(&mut self, at: Time, payload: E) -> EventHandle {
        assert!(
            at >= self.now,
            "cannot schedule event at {at} before current time {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled += 1;
        if self.pending * 2 >= self.buckets.len() {
            self.rebuild((self.buckets.len() * 2).max(MIN_BUCKETS));
        }
        let node = Node {
            key: pack_key(at, seq),
            virt: self.virt_of(at),
            prev: NIL,
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                let p = &mut self.slot_payload[slot as usize];
                debug_assert!(p.is_none(), "free list returned an occupied slot");
                *p = Some(payload);
                self.nodes[slot as usize] = node;
                slot
            }
            None => {
                assert!(
                    self.slot_payload.len() < u32::MAX as usize,
                    "calendar exceeded {} concurrent pending events",
                    u32::MAX - 1
                );
                self.nodes.push(node);
                self.slot_gen.push(0);
                self.slot_payload.push(Some(payload));
                (self.slot_payload.len() - 1) as u32
            }
        };
        let steps = self.link(slot);
        self.sift_steps += steps;
        self.window_steps += steps;
        self.pending += 1;
        if self.pending > self.depth_high_water {
            self.depth_high_water = self.pending;
        }
        EventHandle::new(slot, self.slot_gen[slot as usize])
    }

    /// Schedules `payload` to fire `delay` seconds from the current time.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is negative, NaN, or infinite.
    pub fn schedule_in(&mut self, delay: f64, payload: E) -> EventHandle {
        assert!(
            delay.is_finite() && delay >= 0.0,
            "event delay must be finite and non-negative, got {delay}"
        );
        self.schedule(self.now + delay, payload)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending, `false` if it already
    /// fired or was already cancelled (stale handle). A live cancellation
    /// unlinks the event from its bucket in O(1) and returns its slot to
    /// the free list.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        let slot = handle.slot() as usize;
        let Some(p) = self.slot_payload.get(slot) else {
            return false;
        };
        if p.is_none() || self.slot_gen[slot] != handle.generation() {
            return false; // stale: already fired, cancelled, or recycled
        }
        self.unlink(handle.slot());
        self.slot_payload[slot] = None;
        self.vacate(handle.slot());
        self.cancelled += 1;
        self.shrink_if_sparse();
        true
    }

    /// Removes and returns the next event, advancing the clock to its time.
    ///
    /// Returns `None` when the calendar is empty.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let (slot, steps) = self.find_next()?;
        self.sift_steps += steps;
        self.window_steps += steps;
        let Node { key, virt, .. } = self.nodes[slot as usize];
        self.unlink(slot);
        self.cursor = virt;
        let time = key_time(key);
        let payload = self.slot_payload[slot as usize]
            .take()
            .expect("bucket list pointed at a vacant slot");
        self.vacate(slot);
        debug_assert!(time >= self.now, "calendar produced out-of-order event");
        self.now = time;
        self.fired += 1;
        self.window_pops += 1;
        self.shrink_if_sparse();
        let window = self.buckets.len().max(DRIFT_WINDOW);
        if self.window_steps > DRIFT_STEPS_PER_POP * window as u64 {
            self.rebuild(self.buckets.len());
        } else if self.window_pops >= window {
            self.window_pops = 0;
            self.window_steps = 0;
        }
        Some((time, payload))
    }

    /// Returns the timestamp of the next pending event, by the same bounded
    /// search [`Calendar::pop`] makes (usually the bucket under the cursor).
    #[must_use]
    pub fn peek_time(&self) -> Option<Time> {
        self.find_next()
            .map(|(slot, _)| key_time(self.nodes[slot as usize].key))
    }

    /// Number of pending events.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Whether no events remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Total events fired so far.
    #[must_use]
    pub fn events_fired(&self) -> u64 {
        self.fired
    }

    /// Total events ever scheduled.
    #[must_use]
    pub fn events_scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Total events cancelled before they fired.
    #[must_use]
    pub fn events_cancelled(&self) -> u64 {
        self.cancelled
    }

    /// Snapshot of the calendar's deterministic activity counters.
    #[must_use]
    pub fn stats(&self) -> CalendarStats {
        CalendarStats {
            scheduled: self.scheduled,
            fired: self.fired,
            cancelled: self.cancelled,
            depth_high_water: self.depth_high_water,
            sift_steps: self.sift_steps,
        }
    }

    /// Number of nodes linked into the buckets, counted by walking every
    /// list (O(buckets + pending); for tests and benches).
    ///
    /// Always equals [`Calendar::pending`]: cancellation unlinks nodes
    /// eagerly, so there are no tombstones to accumulate. Exposed so benches
    /// and tests can assert that cancel/reschedule churn keeps the backing
    /// storage bounded.
    #[must_use]
    pub fn backing_events(&self) -> usize {
        self.buckets
            .iter()
            .map(|b| self.bucket(b.head).count())
            .sum()
    }

    /// Number of slab slots ever allocated — the high-water mark of
    /// concurrent pending events. Stays flat under churn because vacated
    /// slots are recycled through the free list.
    #[must_use]
    pub fn slot_capacity(&self) -> usize {
        self.slot_payload.len().saturating_sub(1) // slot 0 is `NIL`
    }

    /// The virtual bucket of `time` under the current width. Monotone in
    /// `time` (a product with a positive constant, floored by a saturating
    /// cast), which is all the pop order asks of it.
    #[inline]
    fn virt_of(&self, time: Time) -> u64 {
        (time.as_seconds() * self.per_second) as u64
    }

    /// The slots of one bucket's list, from `head` on.
    fn bucket(&self, head: u32) -> impl Iterator<Item = u32> + '_ {
        std::iter::successors((head != NIL).then_some(head), |&slot| {
            let next = self.nodes[slot as usize].next;
            (next != NIL).then_some(next)
        })
    }

    /// Files `slot` (whose key and virtual bucket are set) in its bucket,
    /// keeping the list in key order, and returns the nodes stepped over.
    /// The walk starts at the tail, so an event no earlier than everything
    /// in its bucket — every tie, every constant-delay timer — costs none.
    #[inline]
    fn link(&mut self, slot: u32) -> u64 {
        let Node { key, virt, .. } = self.nodes[slot as usize];
        let b = virt as usize & (self.buckets.len() - 1);
        let mut steps = 0;
        let Bucket { head, tail } = self.buckets[b];
        let mut after = tail;
        while self.nodes[after as usize].key > key {
            after = self.nodes[after as usize].prev;
            steps += 1;
        }
        let next = self.nodes[after as usize].next;
        let before = if after == NIL { head } else { next };
        self.nodes[after as usize].next = slot;
        self.nodes[before as usize].prev = slot;
        self.buckets[b] = Bucket {
            head: if after == NIL { slot } else { head },
            tail: if before == NIL { slot } else { tail },
        };
        let node = &mut self.nodes[slot as usize];
        node.prev = after;
        node.next = before;
        steps
    }

    /// Takes `slot` out of its bucket's list. The caller owns the slot.
    #[inline]
    fn unlink(&mut self, slot: u32) {
        let Node {
            virt, prev, next, ..
        } = self.nodes[slot as usize];
        let b = virt as usize & (self.buckets.len() - 1);
        self.nodes[prev as usize].next = next;
        self.nodes[next as usize].prev = prev;
        let Bucket { head, tail } = self.buckets[b];
        self.buckets[b] = Bucket {
            head: if prev == NIL { next } else { head },
            tail: if next == NIL { prev } else { tail },
        };
        self.pending -= 1;
    }

    /// Marks `slot` vacant: bumps its generation (invalidating outstanding
    /// handles) and returns it to the free list.
    #[inline]
    fn vacate(&mut self, slot: u32) {
        let s = slot as usize;
        debug_assert!(self.slot_payload[s].is_none(), "vacating an occupied slot");
        self.slot_gen[s] = self.slot_gen[s].wrapping_add(1);
        self.free.push(slot);
    }

    /// The slot of the pending event with the smallest key, and the steps
    /// (buckets visited + heads examined) it took to find.
    ///
    /// One lap of the bucket array from the cursor. Lists are in key order
    /// and the virtual index is monotone in time, so a head filed under
    /// exactly the virtual bucket being visited is the minimum of
    /// everything pending: nothing is filed under an earlier one. The test
    /// is on the stored index — never on a time against a bucket boundary,
    /// which rounding could decide differently from `virt_of`. A lap that
    /// matches nothing has seen every head, and the smallest of them is
    /// the answer (the next event is a "year" or more away).
    #[inline]
    fn find_next(&self) -> Option<(u32, u64)> {
        if self.pending == 0 {
            return None;
        }
        let mask = self.buckets.len() - 1;
        let mut steps = 0;
        let (mut best, mut best_key) = (NIL, u128::MAX);
        for lap in 0..self.buckets.len() as u64 {
            // Wrapping: past a saturated cursor nothing can match, and the
            // lap still visits every bucket once.
            let virt = self.cursor.wrapping_add(lap);
            let head = self.buckets[virt as usize & mask].head;
            steps += 1;
            if head == NIL {
                continue;
            }
            steps += 1;
            let node = &self.nodes[head as usize];
            if node.virt == virt {
                return Some((head, steps));
            }
            if node.key < best_key {
                (best, best_key) = (head, node.key);
            }
        }
        debug_assert!(best != NIL, "pending events but every bucket empty");
        Some((best, steps))
    }

    /// Halves the bucket array while it has more than 16 buckets per
    /// pending event; `schedule` doubles it at 2. Either leaves it a
    /// factor of four from the other, so a pending set that swings less
    /// than fourfold is resized once.
    #[inline]
    fn shrink_if_sparse(&mut self) {
        let mut buckets = self.buckets.len();
        while buckets > MIN_BUCKETS && self.pending * 16 < buckets {
            buckets /= 2;
        }
        if buckets < self.buckets.len() {
            self.rebuild(buckets);
        }
    }

    /// Refiles every pending event into `buckets` buckets (a power of two)
    /// of a width fitted to the pending set: [`WIDTH_GAPS`] times the mean
    /// gap between the nearer half of the timestamps, the half `pop` will
    /// meet first. A fit that is zero or not finite — fewer than two
    /// distinct times in that half — keeps the previous width. Everything
    /// here is a function of the pending keys alone.
    #[cold]
    fn rebuild(&mut self, buckets: usize) {
        debug_assert!(buckets.is_power_of_two());
        if self.nodes.is_empty() {
            // First use: slot 0, the `NIL` sentinel.
            self.nodes.push(Node {
                key: 0,
                virt: 0,
                prev: NIL,
                next: NIL,
            });
            self.slot_gen.push(0);
            self.slot_payload.push(None);
        }
        let mut order: Vec<(u128, u32)> = Vec::with_capacity(self.pending);
        for b in &self.buckets {
            order.extend(
                self.bucket(b.head)
                    .map(|slot| (self.nodes[slot as usize].key, slot)),
            );
        }
        order.sort_unstable();
        if let Some(&(first, _)) = order.first() {
            let half = order.len() / 2;
            let span = key_time(order[half].0) - key_time(first);
            let per_second = half as f64 / (WIDTH_GAPS * span);
            if per_second.is_finite() && per_second > 0.0 {
                self.per_second = per_second;
            }
        }
        self.buckets.clear();
        self.buckets.resize(
            buckets,
            Bucket {
                head: NIL,
                tail: NIL,
            },
        );
        self.cursor = self.virt_of(self.now);
        self.window_pops = 0;
        self.window_steps = 0;
        // In key order every node is its bucket's new tail.
        for (key, slot) in order {
            let virt = self.virt_of(key_time(key));
            let b = virt as usize & (buckets - 1);
            let tail = std::mem::replace(&mut self.buckets[b].tail, slot);
            if tail == NIL {
                self.buckets[b].head = slot;
            } else {
                self.nodes[tail as usize].next = slot;
            }
            let node = &mut self.nodes[slot as usize];
            node.virt = virt;
            node.prev = tail;
            node.next = NIL;
        }
    }
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Calendar::new()
    }
}

impl<E> fmt::Debug for Calendar<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Calendar")
            .field("now", &self.now)
            .field("pending", &self.pending())
            .field("fired", &self.fired)
            .field("scheduled", &self.scheduled)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn pops_in_time_order() {
        let mut cal = Calendar::new();
        cal.schedule(Time::from_seconds(3.0), "c");
        cal.schedule(Time::from_seconds(1.0), "a");
        cal.schedule(Time::from_seconds(2.0), "b");
        let order: Vec<_> = std::iter::from_fn(|| cal.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut cal = Calendar::new();
        let t = Time::from_seconds(1.0);
        cal.schedule(t, 1);
        cal.schedule(t, 2);
        cal.schedule(t, 3);
        let order: Vec<_> = std::iter::from_fn(|| cal.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn pop_advances_clock() {
        let mut cal = Calendar::new();
        cal.schedule(Time::from_seconds(5.0), ());
        assert_eq!(cal.now(), Time::ZERO);
        cal.pop();
        assert_eq!(cal.now(), Time::from_seconds(5.0));
    }

    #[test]
    fn cancel_removes_event() {
        let mut cal = Calendar::new();
        let h = cal.schedule(Time::from_seconds(1.0), "x");
        cal.schedule(Time::from_seconds(2.0), "y");
        assert!(cal.cancel(h));
        assert_eq!(cal.pending(), 1);
        assert_eq!(cal.pop().map(|(_, e)| e), Some("y"));
    }

    #[test]
    fn double_cancel_returns_false() {
        let mut cal = Calendar::new();
        let h = cal.schedule(Time::from_seconds(1.0), ());
        assert!(cal.cancel(h));
        assert!(!cal.cancel(h));
    }

    #[test]
    fn cancelling_fired_event_returns_false() {
        let mut cal = Calendar::new();
        let h = cal.schedule(Time::from_seconds(1.0), ());
        cal.pop();
        assert!(!cal.cancel(h));
    }

    #[test]
    fn stale_handle_misses_recycled_slot() {
        let mut cal = Calendar::new();
        let h1 = cal.schedule(Time::from_seconds(1.0), "old");
        assert!(cal.cancel(h1));
        // The new event reuses h1's slab slot; the stale handle must not
        // cancel it.
        let h2 = cal.schedule(Time::from_seconds(2.0), "new");
        assert!(!cal.cancel(h1));
        assert_eq!(cal.pop(), Some((Time::from_seconds(2.0), "new")));
        assert!(!cal.cancel(h2));
    }

    #[test]
    fn schedule_in_uses_current_time() {
        let mut cal = Calendar::new();
        cal.schedule(Time::from_seconds(10.0), "first");
        cal.pop();
        cal.schedule_in(2.5, "second");
        assert_eq!(cal.pop(), Some((Time::from_seconds(12.5), "second")));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_into_the_past_panics() {
        let mut cal = Calendar::new();
        cal.schedule(Time::from_seconds(10.0), ());
        cal.pop();
        cal.schedule(Time::from_seconds(5.0), ());
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn schedule_in_rejects_negative_delay() {
        let mut cal: Calendar<()> = Calendar::new();
        cal.schedule_in(-0.5, ());
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut cal = Calendar::new();
        let h = cal.schedule(Time::from_seconds(1.0), ());
        cal.schedule(Time::from_seconds(2.0), ());
        cal.cancel(h);
        assert_eq!(cal.peek_time(), Some(Time::from_seconds(2.0)));
    }

    #[test]
    fn peek_time_matches_next_pop() {
        let mut cal = Calendar::new();
        for i in 0..50u64 {
            cal.schedule(Time::from_seconds(((i * 37) % 19) as f64), i);
        }
        while let Some(peeked) = cal.peek_time() {
            let (t, _) = cal.pop().expect("peek implied non-empty");
            assert_eq!(peeked, t);
        }
        assert_eq!(cal.peek_time(), None);
    }

    #[test]
    fn counters_track_activity() {
        let mut cal = Calendar::new();
        let h = cal.schedule(Time::from_seconds(1.0), ());
        cal.schedule(Time::from_seconds(2.0), ());
        cal.cancel(h);
        cal.pop();
        assert_eq!(cal.events_scheduled(), 2);
        assert_eq!(cal.events_fired(), 1);
        assert_eq!(cal.events_cancelled(), 1);
        assert!(cal.is_empty());
    }

    #[test]
    fn stats_snapshot_is_deterministic_and_tracks_high_water() {
        let run = || {
            let mut cal = Calendar::new();
            let mut handles = Vec::new();
            for i in 0..200u64 {
                handles.push(cal.schedule(Time::from_seconds(((i * 37) % 101) as f64), i));
            }
            for h in handles.iter().step_by(4) {
                cal.cancel(*h);
            }
            while cal.pop().is_some() {}
            cal.stats()
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "same event sequence must yield identical stats");
        assert_eq!(a.scheduled, 200);
        assert_eq!(a.cancelled, 50);
        assert_eq!(a.fired, 150);
        assert_eq!(a.depth_high_water, 200);
        assert!(a.sift_steps >= a.fired, "every pop visits a bucket");
    }

    #[test]
    fn interleaved_cancel_and_reschedule() {
        // Models a DVFS transition: departure rescheduled twice.
        let mut cal = Calendar::new();
        let h1 = cal.schedule(Time::from_seconds(10.0), "dep-v1");
        cal.cancel(h1);
        let h2 = cal.schedule(Time::from_seconds(8.0), "dep-v2");
        cal.cancel(h2);
        cal.schedule(Time::from_seconds(9.0), "dep-v3");
        let order: Vec<_> = std::iter::from_fn(|| cal.pop()).collect();
        assert_eq!(order, vec![(Time::from_seconds(9.0), "dep-v3")]);
    }

    #[test]
    fn churn_keeps_backing_storage_bounded() {
        // The tombstone failure mode: cancel + reschedule loops that leave a
        // dead node behind per cancellation. The bucket lists must hold
        // exactly the live pending set, and the slab must stop growing once
        // the free list can satisfy every reuse.
        let mut cal = Calendar::new();
        let mut handles: Vec<EventHandle> = (0..100u64)
            .map(|i| cal.schedule(Time::from_seconds(1.0 + i as f64), i))
            .collect();
        for round in 0..50u64 {
            for h in handles.drain(..) {
                assert!(cal.cancel(h));
            }
            for i in 0..100u64 {
                handles.push(cal.schedule(Time::from_seconds(1.0 + i as f64), round * 100 + i));
            }
            assert_eq!(cal.pending(), 100);
            assert_eq!(cal.backing_events(), 100);
            assert_eq!(cal.slot_capacity(), 100);
        }
    }

    #[test]
    fn minus_zero_time_sorts_with_zero() {
        // from_seconds admits -0.0 (it satisfies >= 0.0); the packed key
        // must treat it as 0.0, keeping FIFO order among the ties.
        let mut cal = Calendar::new();
        cal.schedule(Time::from_seconds(0.0), 1);
        cal.schedule(Time::from_seconds(-0.0), 2);
        cal.schedule(Time::from_seconds(0.0), 3);
        let order: Vec<_> = std::iter::from_fn(|| cal.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn cancel_in_the_middle_keeps_pop_order() {
        let mut cal = Calendar::new();
        let handles: Vec<_> = (0..64u64)
            .map(|i| cal.schedule(Time::from_seconds(((i * 29) % 31) as f64), i))
            .collect();
        // Cancel every third event, then verify the rest pop in exact
        // (time, seq) order.
        for (i, h) in handles.iter().enumerate() {
            if i % 3 == 0 {
                assert!(cal.cancel(*h));
            }
        }
        let mut expected: Vec<(f64, u64)> = (0..64u64)
            .filter(|i| i % 3 != 0)
            .map(|i| (((i * 29) % 31) as f64, i))
            .collect();
        expected.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let popped: Vec<(f64, u64)> = std::iter::from_fn(|| cal.pop())
            .map(|(t, e)| (t.as_seconds(), e))
            .collect();
        assert_eq!(popped, expected);
    }

    /// Fails unless `pop`'s search and `schedule`'s ordered insert cost at
    /// most `bound` steps per fired event over the calendar's whole life.
    fn assert_steps_per_fired<E>(cal: &Calendar<E>, bound: f64) {
        let steps = cal.sift_steps as f64 / cal.fired as f64;
        assert!(steps <= bound, "{steps} steps per event, over {bound}");
    }

    /// Pops everything, checking the exact `(time, seq)` order against the
    /// times each payload (an index into `times`) was scheduled at.
    fn drain_in_order(cal: &mut Calendar<usize>, times: &[f64]) {
        let mut expected: Vec<usize> = (0..times.len()).collect();
        expected.sort_by(|&a, &b| times[a].total_cmp(&times[b]).then(a.cmp(&b)));
        for want in expected {
            assert_eq!(cal.pop(), Some((Time::from_seconds(times[want]), want)));
        }
        assert_eq!(cal.pop(), None);
    }

    #[test]
    fn tie_bursts_cost_constant_steps_per_event() {
        // Deterministic inter-arrivals on 1000 servers: every period all
        // 1000 arrivals tie, and each schedules the next period's arrival
        // (one more tie) and a completion somewhere inside the period.
        const SERVERS: u64 = 1000;
        const PERIOD: f64 = 0.01;
        let mut rng = SimRng::from_seed(1);
        let mut cal = Calendar::new();
        for server in 0..SERVERS {
            cal.schedule(Time::from_seconds(PERIOD), server);
        }
        let mut last = (Time::ZERO, 0);
        for _ in 0..200_000 {
            let (now, id) = cal.pop().expect("arrivals never stop");
            assert!(now >= last.0, "{now} popped after {}", last.0);
            if id < SERVERS {
                // Ties fire in schedule order, which is server order.
                assert!(now > last.0 || last.1 >= SERVERS || id > last.1);
                cal.schedule_in(PERIOD, id);
                cal.schedule_in(PERIOD * 0.7 * rng.open01(), SERVERS + id);
            }
            last = (now, id);
        }
        assert_eq!(cal.backing_events(), cal.pending());
        assert_steps_per_fired(&cal, 8.0);
    }

    #[test]
    fn all_equal_timestamps_keep_the_width_and_the_order() {
        // No two distinct times to fit a width to, through every doubling
        // and halving: the first width stays, nothing divides by zero.
        let mut cal = Calendar::new();
        let width = cal.per_second;
        for i in 0..5000u64 {
            cal.schedule(Time::from_seconds(3.0), i);
        }
        for i in 0..5000u64 {
            assert_eq!(cal.pop(), Some((Time::from_seconds(3.0), i)));
        }
        assert_eq!(cal.per_second, width);
        assert_steps_per_fired(&cal, 3.0);
    }

    #[test]
    fn an_event_a_year_away_is_found_by_the_direct_search() {
        // Buckets fitted to microsecond gaps, then a lone timer that keeps
        // re-arming itself a million seconds ahead: every pop laps the
        // (by then shrunken) array without a match and takes the minimum.
        let mut cal = Calendar::new();
        for i in 0..1000u64 {
            cal.schedule(Time::from_seconds(i as f64 * 1e-6), i);
        }
        cal.schedule(Time::from_seconds(1e6), 1000);
        for i in 0..1000u64 {
            assert_eq!(cal.pop().map(|(_, e)| e), Some(i));
        }
        let before = cal.stats();
        for lap in 1..=1000u64 {
            assert_eq!(cal.peek_time(), Some(Time::from_seconds(lap as f64 * 1e6)));
            let (now, _) = cal.pop().expect("the timer is pending");
            assert_eq!(now, Time::from_seconds(lap as f64 * 1e6));
            cal.schedule_in(1e6, 1000 + lap);
        }
        let steps = cal.sift_steps - before.sift_steps;
        // Each pop empties the calendar, which halves it to the floor.
        assert_eq!(cal.buckets.len(), MIN_BUCKETS);
        assert!(steps <= 6 * 1000, "{steps} steps for 1000 pops");
    }

    #[test]
    fn huge_timestamps_stay_exactly_ordered() {
        // At 1e12 s neighbouring f64s are 1.2e-4 s apart, so many of these
        // tie outright; the order is still the (time, seq) one.
        let mut rng = SimRng::from_seed(2);
        let times: Vec<f64> = (0..4000).map(|_| 1e12 + rng.open01()).collect();
        let mut cal = Calendar::new();
        for (i, &t) in times.iter().enumerate() {
            cal.schedule(Time::from_seconds(t), i);
        }
        drain_in_order(&mut cal, &times);
        assert_steps_per_fired(&cal, 8.0);
    }

    #[test]
    fn a_saturated_virtual_index_keeps_the_order() {
        // A width fitted to nanosecond gaps puts 1e12 s past the last
        // virtual bucket a u64 can name: everything out there shares one
        // list, which is ordered like any other.
        let mut rng = SimRng::from_seed(3);
        let mut times: Vec<f64> = (0..256).map(|i| f64::from(i) * 1e-9).collect();
        times.extend((0..100).map(|_| 1e12 + (rng.open01() * 50.0).floor()));
        let mut cal = Calendar::new();
        for (i, &t) in times.iter().enumerate() {
            cal.schedule(Time::from_seconds(t), i);
        }
        assert_eq!(cal.virt_of(Time::from_seconds(1e12)), u64::MAX);
        drain_in_order(&mut cal, &times);
        assert_steps_per_fired(&cal, 16.0);
    }

    #[test]
    fn cancelled_fifo_timers_are_never_ordered() {
        // The tracked-request pattern: every arrival arms a constant-delay
        // timeout far beyond the arrival gaps and disarms the one armed 20
        // arrivals earlier. Constant delays arrive in key order, so each
        // is a tail append, and a cancel never searches.
        let mut rng = SimRng::from_seed(4);
        let mut cal = Calendar::new();
        let mut timers = std::collections::VecDeque::new();
        cal.schedule(Time::ZERO, ());
        for _ in 0..100_000 {
            cal.pop().expect("the arrival stream never stops");
            cal.schedule_in(-0.002 * rng.open01().ln(), ());
            timers.push_back(cal.schedule_in(0.1, ()));
            if timers.len() > 20 {
                assert!(cal.cancel(timers.pop_front().expect("non-empty")));
            }
        }
        assert_eq!(cal.pending(), 21);
        assert_eq!(cal.backing_events(), 21);
        assert!(cal.slot_capacity() <= 22);
        assert_steps_per_fired(&cal, 4.0);
    }

    #[test]
    fn grow_drain_grow_crosses_every_resize_with_storage_bounded() {
        const PEAK: usize = 5000;
        let mut rng = SimRng::from_seed(5);
        let mut cal = Calendar::new();
        let mut most_buckets = 0;
        for _ in 0..3 {
            let start = cal.now().as_seconds();
            let times: Vec<f64> = (0..PEAK).map(|_| start + rng.open01()).collect();
            for (i, &t) in times.iter().enumerate() {
                cal.schedule(Time::from_seconds(t), i);
                assert!(2 * cal.pending() <= cal.buckets.len());
            }
            most_buckets = most_buckets.max(cal.buckets.len());
            assert_eq!(cal.backing_events(), PEAK);
            drain_in_order(&mut cal, &times);
            assert_eq!(cal.backing_events(), 0);
            assert_eq!(cal.buckets.len(), MIN_BUCKETS);
        }
        assert_eq!(most_buckets, (4 * PEAK).next_power_of_two() / 2);
        assert_eq!(cal.slot_capacity(), PEAK);
        assert_eq!(cal.stats().depth_high_water, PEAK);
        assert_steps_per_fired(&cal, 8.0);
    }
}
