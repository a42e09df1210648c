//! The generic event loop.

use std::fmt;

use crate::calendar::Calendar;
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

/// Aggregate statistics for one engine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Events dispatched during this run.
    pub events_fired: u64,
    /// Whether the run ended because the simulation returned [`Control::Stop`]
    /// (as opposed to draining the calendar or hitting the event limit).
    pub stopped_by_simulation: bool,
    /// Whether the run ended because the event limit was reached.
    pub hit_event_limit: bool,
    /// Whether the run ended because a [`ProgressGuard`] tripped (see
    /// [`Engine::run_guarded`]); the violation itself stays on the guard.
    pub stopped_by_guard: bool,
}

/// The discrete-event engine: a [`Calendar`] plus a [`Simulation`].
///
/// # Examples
///
/// See the [crate-level documentation](crate) for a complete example.
pub struct Engine<S: Simulation> {
    calendar: Calendar<S::Event>,
    simulation: S,
}

impl<S: Simulation> Engine<S> {
    /// Creates an engine around `simulation` with an empty calendar.
    #[must_use]
    pub fn new(simulation: S) -> Self {
        Engine {
            calendar: Calendar::new(),
            simulation,
        }
    }

    /// Creates an engine from a simulation and an already-primed calendar.
    ///
    /// Useful when initial events must be scheduled while the simulation
    /// state is still being constructed.
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

    /// Exclusive access to the simulation state.
    pub fn simulation_mut(&mut self) -> &mut S {
        &mut self.simulation
    }

    /// Shared access to the calendar.
    #[must_use]
    pub fn calendar(&self) -> &Calendar<S::Event> {
        &self.calendar
    }

    /// Exclusive access to the calendar (e.g. to seed initial events).
    pub fn calendar_mut(&mut self) -> &mut Calendar<S::Event> {
        &mut self.calendar
    }

    /// Consumes the engine, returning the simulation state.
    #[must_use]
    pub fn into_simulation(self) -> S {
        self.simulation
    }

    /// Runs until the calendar drains or the simulation requests a stop.
    pub fn run(&mut self) -> RunStats {
        self.run_with_limit(u64::MAX)
    }

    /// Runs until the calendar drains, the simulation requests a stop, or
    /// `max_events` events have fired — whichever comes first.
    pub fn run_with_limit(&mut self, max_events: u64) -> RunStats {
        let mut stats = RunStats::default();
        while stats.events_fired < max_events {
            let Some((now, event)) = self.calendar.pop() else {
                return stats;
            };
            stats.events_fired += 1;
            if self.simulation.handle(now, event, &mut self.calendar) == Control::Stop {
                stats.stopped_by_simulation = true;
                return stats;
            }
        }
        stats.hit_event_limit = true;
        stats
    }

    /// As [`Engine::run_with_limit`], with every dispatch timestamp fed
    /// through a [`ProgressGuard`] circuit breaker.
    ///
    /// The guard observes the timestamp *before* the handler runs; if it
    /// trips, the run stops with [`RunStats::stopped_by_guard`] set and the
    /// offending event undispatched (the run is being abandoned, so the
    /// lost event is moot). The guard never touches simulation state or
    /// randomness: up to the trip point a guarded run fires the identical
    /// event sequence as an unguarded one.
    ///
    /// The guard is borrowed, not owned, so one guard can span several
    /// invocations (a chunked run) or several engines (an epoch-structured
    /// run; tell it with [`ProgressGuard::clock_restarted`] when the next
    /// engine's clock starts again at zero) and accumulate progress state
    /// across them.
    pub fn run_guarded(&mut self, max_events: u64, guard: &mut ProgressGuard) -> RunStats {
        let mut stats = RunStats::default();
        while stats.events_fired < max_events {
            let Some((now, event)) = self.calendar.pop() else {
                return stats;
            };
            if guard.observe(now).is_some() {
                stats.stopped_by_guard = true;
                return stats;
            }
            stats.events_fired += 1;
            if self.simulation.handle(now, event, &mut self.calendar) == Control::Stop {
                stats.stopped_by_simulation = true;
                return stats;
            }
        }
        stats.hit_event_limit = true;
        stats
    }

    /// Dispatches exactly one event, if any is pending.
    ///
    /// Returns the [`Control`] produced by the handler, or `None` if the
    /// calendar was empty.
    pub fn step(&mut self) -> Option<Control> {
        let (now, event) = self.calendar.pop()?;
        Some(self.simulation.handle(now, event, &mut self.calendar))
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

    fn chain_engine(target: u64) -> Engine<Chain> {
        let mut engine = Engine::new(Chain { seen: 0, target });
        engine.calendar_mut().schedule(Time::ZERO, ());
        engine
    }

    #[test]
    fn run_drains_until_stop() {
        let mut engine = chain_engine(5);
        let stats = engine.run();
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
        let mut engine = Engine::new(Chain { seen: 0, target: 1 });
        let stats = engine.run();
        assert_eq!(stats.events_fired, 0);
        assert!(!stats.stopped_by_simulation);
    }

    #[test]
    fn step_dispatches_one_event() {
        let mut engine = chain_engine(3);
        assert_eq!(engine.step(), Some(Control::Continue));
        assert_eq!(engine.simulation().seen, 1);
        assert_eq!(engine.step(), Some(Control::Continue));
        assert_eq!(engine.step(), Some(Control::Stop));
        assert_eq!(engine.step(), None);
    }

    /// Schedules every follow-up at the *current* time: a zero-advance
    /// livelock that would spin `run()` forever.
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
        let mut engine = Engine::new(Livelock);
        engine.calendar_mut().schedule(Time::ZERO, ());
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
        let plain_stats = plain.run();

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
        let mut engine = Engine::new(Livelock);
        engine.calendar_mut().schedule(Time::ZERO, ());
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

    #[test]
    fn into_simulation_returns_state() {
        let mut engine = chain_engine(2);
        engine.run();
        let chain = engine.into_simulation();
        assert_eq!(chain.seen, 2);
    }
}
