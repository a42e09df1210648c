//! The event loop, [`drive`], and the pending-set contract it runs over,
//! [`Pending`].

use std::fmt;

use crate::calendar::{Calendar, CalendarStats, EventHandle};
use crate::progress::ProgressGuard;
use crate::time::Time;

/// What the simulation wants the engine to do after handling an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep dispatching events.
    Continue,
    /// Stop the run; remaining events stay in the calendar.
    Stop,
}

/// A pending-event set of payloads `E`: [`Calendar`]'s own contract,
/// method for method. Handlers written against it run unchanged over any
/// store, and [`drive`] pops any store into them. A store pops in the one
/// total order on `(time, seq)` keys — earliest first, ties in scheduling
/// order — so which one holds a run's events never shows in the run.
pub trait Pending<E> {
    /// The timestamp of the last popped event.
    fn now(&self) -> Time;

    /// Schedules `event` at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes [`Pending::now`].
    fn schedule(&mut self, at: Time, event: E) -> EventHandle;

    /// Schedules `event` `delay` seconds from now.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is negative, NaN, or infinite.
    #[inline]
    fn schedule_in(&mut self, delay: f64, event: E) -> EventHandle {
        assert!(
            delay.is_finite() && delay >= 0.0,
            "event delay must be finite and non-negative, got {delay}"
        );
        self.schedule(self.now() + delay, event)
    }

    /// Cancels a pending event; `false` through a handle whose event
    /// already fired or was cancelled.
    fn cancel(&mut self, handle: EventHandle) -> bool;

    /// Removes the earliest event and advances the clock to it.
    fn pop(&mut self) -> Option<(Time, E)>;

    /// The deterministic activity counters.
    fn stats(&self) -> CalendarStats;
}

impl<E> Pending<E> for Calendar<E> {
    #[inline]
    fn now(&self) -> Time {
        Calendar::now(self)
    }

    #[inline]
    fn schedule(&mut self, at: Time, event: E) -> EventHandle {
        Calendar::schedule(self, at, event)
    }

    #[inline]
    fn cancel(&mut self, handle: EventHandle) -> bool {
        Calendar::cancel(self, handle)
    }

    #[inline]
    fn pop(&mut self) -> Option<(Time, E)> {
        Calendar::pop(self)
    }

    #[inline]
    fn stats(&self) -> CalendarStats {
        Calendar::stats(self)
    }
}

/// A model that reacts to events popped from the [`Calendar`].
///
/// Implementors hold the simulated system state (servers, queues, power
/// models); the engine owns the clock and dispatch loop. Handlers receive
/// `&mut Calendar` so they can schedule and cancel follow-up events.
pub trait Simulation {
    /// The event payload type dispatched by this simulation.
    type Event;

    /// Handles one event at simulated time `now`.
    fn handle(&mut self, now: Time, event: Self::Event, cal: &mut Calendar<Self::Event>)
        -> Control;
}

/// Aggregate statistics for one [`drive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Events dispatched during this run.
    pub events_fired: u64,
    /// Whether the run ended because the handler returned [`Control::Stop`]
    /// (as opposed to draining the pending set or hitting the event limit).
    pub stopped_by_simulation: bool,
    /// Whether the run ended because the event limit was reached.
    pub hit_event_limit: bool,
    /// Whether the run ended because a [`ProgressGuard`] tripped; the
    /// violation itself stays on the guard.
    pub stopped_by_guard: bool,
}

/// The event loop: pops `pending` into `handle` until the set drains,
/// `handle` returns [`Control::Stop`] or `budget` events have fired,
/// whichever comes first.
///
/// A `guard` observes each timestamp *before* its handler runs; if it
/// trips, the run stops with [`RunStats::stopped_by_guard`] set, the
/// offending event undispatched and uncounted (the run is being abandoned,
/// so the lost event is moot) and the violation on the guard
/// ([`ProgressGuard::violation`]). The guard never touches simulation
/// state or randomness: up to the trip point a guarded run fires the
/// identical event sequence as an unguarded one.
///
/// The guard is borrowed, not owned, so one guard can span several calls
/// (a chunked run) or several pending sets (an epoch-structured run; tell
/// it with [`ProgressGuard::clock_restarted`] when the next set's clock
/// starts again at zero) and accumulate progress state across them.
///
/// # Examples
///
/// See the [crate-level documentation](crate).
pub fn drive<E, P: Pending<E>>(
    pending: &mut P,
    budget: u64,
    mut guard: Option<&mut ProgressGuard>,
    mut handle: impl FnMut(Time, E, &mut P) -> Control,
) -> RunStats {
    let mut run = RunStats::default();
    while run.events_fired < budget {
        let Some((now, event)) = pending.pop() else {
            return run;
        };
        if guard
            .as_deref_mut()
            .is_some_and(|g| g.observe(now).is_some())
        {
            run.stopped_by_guard = true;
            return run;
        }
        run.events_fired += 1;
        if handle(now, event, pending) == Control::Stop {
            run.stopped_by_simulation = true;
            return run;
        }
    }
    run.hit_event_limit = true;
    run
}

/// A [`Calendar`] plus a [`Simulation`], driven by [`drive`].
pub struct Engine<S: Simulation> {
    calendar: Calendar<S::Event>,
    simulation: S,
}

impl<S: Simulation> Engine<S> {
    /// Creates an engine from a simulation and an already-primed calendar.
    #[must_use]
    pub fn from_parts(simulation: S, calendar: Calendar<S::Event>) -> Self {
        Engine {
            calendar,
            simulation,
        }
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.calendar.now()
    }

    /// Shared access to the simulation state.
    #[must_use]
    pub fn simulation(&self) -> &S {
        &self.simulation
    }

    /// Shared access to the calendar.
    #[must_use]
    pub fn calendar(&self) -> &Calendar<S::Event> {
        &self.calendar
    }

    /// Consumes the engine, returning the simulation state.
    #[must_use]
    pub fn into_simulation(self) -> S {
        self.simulation
    }

    /// Runs until the calendar drains, the simulation requests a stop, or
    /// `max_events` events have fired — whichever comes first ([`drive`]).
    pub fn run_with_limit(&mut self, max_events: u64) -> RunStats {
        drive(&mut self.calendar, max_events, None, |now, event, cal| {
            self.simulation.handle(now, event, cal)
        })
    }

    /// As [`Engine::run_with_limit`], with every dispatch timestamp fed
    /// through a [`ProgressGuard`] circuit breaker ([`drive`]).
    #[cfg(test)]
    pub(crate) fn run_guarded(&mut self, max_events: u64, guard: &mut ProgressGuard) -> RunStats {
        drive(
            &mut self.calendar,
            max_events,
            Some(guard),
            |now, event, cal| self.simulation.handle(now, event, cal),
        )
    }
}

impl<S: Simulation + fmt::Debug> fmt::Debug for Engine<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("calendar", &self.calendar)
            .field("simulation", &self.simulation)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fires a chain of `target` events, each scheduling the next.
    struct Chain {
        seen: u64,
        target: u64,
    }

    impl Simulation for Chain {
        type Event = ();

        fn handle(&mut self, _now: Time, _event: (), cal: &mut Calendar<()>) -> Control {
            self.seen += 1;
            if self.seen < self.target {
                cal.schedule_in(1.0, ());
                Control::Continue
            } else {
                Control::Stop
            }
        }
    }

    /// A calendar holding one event at time zero.
    fn primed() -> Calendar<()> {
        let mut cal = Calendar::new();
        cal.schedule(Time::ZERO, ());
        cal
    }

    fn chain_engine(target: u64) -> Engine<Chain> {
        Engine::from_parts(Chain { seen: 0, target }, primed())
    }

    #[test]
    fn run_drains_until_stop() {
        let mut engine = chain_engine(5);
        let stats = engine.run_with_limit(u64::MAX);
        assert_eq!(stats.events_fired, 5);
        assert!(stats.stopped_by_simulation);
        assert!(!stats.hit_event_limit);
        assert_eq!(engine.simulation().seen, 5);
        assert_eq!(engine.now(), Time::from_seconds(4.0));
    }

    #[test]
    fn run_with_limit_stops_early() {
        let mut engine = chain_engine(100);
        let stats = engine.run_with_limit(10);
        assert_eq!(stats.events_fired, 10);
        assert!(stats.hit_event_limit);
        assert!(!stats.stopped_by_simulation);
    }

    #[test]
    fn run_on_empty_calendar_is_noop() {
        let mut engine = Engine::from_parts(Chain { seen: 0, target: 1 }, Calendar::new());
        let stats = engine.run_with_limit(u64::MAX);
        assert_eq!(stats.events_fired, 0);
        assert!(!stats.stopped_by_simulation);
    }

    /// Schedules every follow-up at the *current* time: a zero-advance
    /// livelock that would spin an unguarded run forever.
    struct Livelock;

    impl Simulation for Livelock {
        type Event = ();

        fn handle(&mut self, now: Time, _event: (), cal: &mut Calendar<()>) -> Control {
            cal.schedule(now, ());
            Control::Continue
        }
    }

    #[test]
    fn guard_breaks_zero_advance_livelock() {
        let mut engine = Engine::from_parts(Livelock, primed());
        let mut guard = crate::ProgressGuard::new().with_stall_limit(1000);
        let stats = engine.run_guarded(u64::MAX, &mut guard);
        assert!(stats.stopped_by_guard);
        assert!(!stats.stopped_by_simulation);
        assert!(!stats.hit_event_limit);
        assert!(stats.events_fired <= 1001);
        assert!(matches!(
            guard.violation(),
            Some(crate::ProgressViolation::ZeroAdvance { .. })
        ));
    }

    #[test]
    fn guarded_run_matches_unguarded_on_healthy_simulation() {
        let mut plain = chain_engine(50);
        let plain_stats = plain.run_with_limit(u64::MAX);

        let mut guarded = chain_engine(50);
        let mut guard = crate::ProgressGuard::new();
        let guarded_stats = guarded.run_guarded(u64::MAX, &mut guard);

        assert_eq!(plain_stats.events_fired, guarded_stats.events_fired);
        assert_eq!(plain.now(), guarded.now());
        assert!(!guarded_stats.stopped_by_guard);
        assert_eq!(guard.violation(), None);
    }

    #[test]
    fn guard_state_spans_chunked_runs() {
        let mut engine = Engine::from_parts(Livelock, primed());
        let mut guard = crate::ProgressGuard::new().with_stall_limit(1000);
        let mut total = 0u64;
        let mut tripped = false;
        for _ in 0..100 {
            let stats = engine.run_guarded(100, &mut guard);
            total += stats.events_fired;
            if stats.stopped_by_guard {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "chunked livelock escaped the guard");
        assert!(total <= 1001);
    }

    /// Runs `breach` on a calendar whose clock reads 10 s and returns the
    /// message it panics with.
    fn breach_message(breach: impl FnOnce(&mut Calendar<()>)) -> String {
        let mut cal = Calendar::new();
        cal.schedule(Time::from_seconds(10.0), ());
        cal.pop();
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| breach(&mut cal)))
            .expect_err("the contract was broken without a panic");
        *panic.downcast::<String>().expect("a formatted message")
    }

    #[test]
    fn calendar_refuses_bad_delays_and_past_times() {
        // A negative, NaN or infinite delay, then a time before `now`.
        for delay in [
            -0.5,
            -f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            let message = breach_message(|s| _ = s.schedule_in(delay, ()));
            assert!(
                message.contains("finite and non-negative"),
                "{delay}: {message}"
            );
        }
        let message = breach_message(|s| _ = s.schedule(Time::from_seconds(5.0), ()));
        assert!(message.contains("before current time"), "{message}");
    }

    #[test]
    fn into_simulation_returns_state() {
        let mut engine = chain_engine(2);
        engine.run_with_limit(u64::MAX);
        let chain = engine.into_simulation();
        assert_eq!(chain.seen, 2);
    }
}
