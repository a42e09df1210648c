//! Progress circuit breakers for the event loop.
//!
//! A discrete-event simulation can fail to make progress in ways that
//! never panic and never stop: a handler that keeps rescheduling work at
//! the current timestamp (zero-advance livelock), a feedback loop that
//! floods the calendar faster than simulated time moves (event storm), or
//! a corrupted calendar that hands back events out of order. A
//! [`ProgressGuard`] watches the stream of dispatch timestamps from
//! outside the model — it holds no reference to simulation state and
//! consumes no randomness, so enabling it cannot perturb a run — and
//! trips with a structured [`ProgressViolation`] instead of letting the
//! run hang.

use crate::time::Time;

/// Why a [`ProgressGuard`] stopped a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProgressViolation {
    /// `events` consecutive events fired without simulated time advancing.
    ZeroAdvance {
        /// Consecutive events dispatched at one identical timestamp.
        events: u64,
    },
    /// The event rate exceeded the configured budget: `events` fired while
    /// simulated time advanced only `window_seconds`.
    EventStorm {
        /// Events dispatched in the measurement window.
        events: u64,
        /// Simulated seconds covered by that window.
        window_seconds: f64,
    },
    /// The calendar dispatched an event earlier than one already handled.
    TimeRegression {
        /// Timestamp of the previously handled event (seconds).
        from_seconds: f64,
        /// Timestamp of the out-of-order event (seconds).
        to_seconds: f64,
    },
}

impl std::fmt::Display for ProgressViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgressViolation::ZeroAdvance { events } => {
                write!(f, "livelock: {events} events with no simulated-time progress")
            }
            ProgressViolation::EventStorm {
                events,
                window_seconds,
            } => write!(
                f,
                "event storm: {events} events advanced simulated time by only {window_seconds:.3e} s"
            ),
            ProgressViolation::TimeRegression {
                from_seconds,
                to_seconds,
            } => write!(
                f,
                "time regression: event at {to_seconds:.9} s dispatched after {from_seconds:.9} s"
            ),
        }
    }
}

/// Watches dispatch timestamps for livelock, event storms, and time
/// regressions.
///
/// The guard is purely observational: it inspects only the timestamps the
/// engine was going to dispatch anyway, so a guarded run and an unguarded
/// run of the same simulation fire the identical event sequence up to the
/// point (if any) where the guard trips.
#[derive(Debug, Clone)]
pub struct ProgressGuard {
    stall_limit: u64,
    storm_window: u64,
    storm_budget: f64,
    /// `None` until the current clock's first event.
    last_time: Option<Time>,
    stalled: u64,
    /// Where on the current clock the storm window began.
    window_start: Time,
    /// Simulated seconds the storm window covered on clocks that have
    /// since restarted.
    window_carried: f64,
    window_events: u64,
    violation: Option<ProgressViolation>,
}

impl ProgressGuard {
    /// Default consecutive same-timestamp events tolerated before the
    /// zero-advance breaker trips. Legitimate simultaneous bursts (batch
    /// arrivals, mass preemption on a server failure) are orders of
    /// magnitude smaller.
    pub const DEFAULT_STALL_LIMIT: u64 = 100_000;

    /// Default event-storm window, in events.
    pub const DEFAULT_STORM_WINDOW: u64 = 1 << 20;

    /// Default event-rate budget, in events per simulated second. Healthy
    /// queueing simulations run at most a few hundred events per simulated
    /// second per server; 10⁹ flags only runaway feedback loops.
    pub const DEFAULT_STORM_BUDGET: f64 = 1e9;

    /// A guard with the default thresholds.
    #[must_use]
    pub fn new() -> Self {
        ProgressGuard {
            stall_limit: Self::DEFAULT_STALL_LIMIT,
            storm_window: Self::DEFAULT_STORM_WINDOW,
            storm_budget: Self::DEFAULT_STORM_BUDGET,
            last_time: None,
            stalled: 0,
            window_start: Time::ZERO,
            window_carried: 0.0,
            window_events: 0,
            violation: None,
        }
    }

    /// Overrides the zero-advance limit (consecutive events at one
    /// timestamp). Clamped to at least 2.
    #[must_use]
    pub fn with_stall_limit(mut self, events: u64) -> Self {
        self.stall_limit = events.max(2);
        self
    }

    /// Overrides the event-storm budget (events per simulated second) and
    /// measurement window (events). Non-finite or non-positive budgets
    /// disable the storm breaker.
    #[must_use]
    pub fn with_storm_budget(mut self, events_per_sim_second: f64, window_events: u64) -> Self {
        self.storm_budget = events_per_sim_second;
        self.storm_window = window_events.max(2);
        self
    }

    /// The violation that tripped this guard, if any.
    #[must_use]
    pub fn violation(&self) -> Option<ProgressViolation> {
        self.violation
    }

    /// Tells the guard that the timestamps to come are from a clock that
    /// starts again at zero (the next epoch's fresh engine). The next event
    /// is no time regression, and the stall count and storm window carry
    /// over: reset at every boundary, windows longer than an epoch — both
    /// defaults — would never close.
    pub fn clock_restarted(&mut self) {
        if let Some(last) = self.last_time.take() {
            self.window_carried += (last.as_seconds() - self.window_start.as_seconds()).max(0.0);
            self.window_start = Time::ZERO;
        }
    }

    /// Observes one dispatch timestamp. Returns the violation on the
    /// observation that trips the guard; a tripped guard stays tripped.
    pub fn observe(&mut self, now: Time) -> Option<ProgressViolation> {
        if self.violation.is_some() {
            return self.violation;
        }
        match self.last_time {
            Some(last) if now < last => {
                self.violation = Some(ProgressViolation::TimeRegression {
                    from_seconds: last.as_seconds(),
                    to_seconds: now.as_seconds(),
                });
                return self.violation;
            }
            Some(last) if now > last => self.stalled = 1,
            // The same timestamp again — or a clock's first event, which
            // shows no progress either: one event per epoch is a livelock.
            _ => {
                self.stalled += 1;
                if self.stalled >= self.stall_limit {
                    self.violation = Some(ProgressViolation::ZeroAdvance {
                        events: self.stalled,
                    });
                    return self.violation;
                }
            }
        }
        self.last_time = Some(now);

        self.window_events += 1;
        if self.window_events >= self.storm_window {
            let elapsed =
                self.window_carried + (now.as_seconds() - self.window_start.as_seconds()).max(0.0);
            if self.storm_budget.is_finite()
                && self.storm_budget > 0.0
                && (self.window_events as f64) > self.storm_budget * elapsed
            {
                self.violation = Some(ProgressViolation::EventStorm {
                    events: self.window_events,
                    window_seconds: elapsed,
                });
                return self.violation;
            }
            self.window_start = now;
            self.window_carried = 0.0;
            self.window_events = 0;
        }
        None
    }
}

impl Default for ProgressGuard {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advancing_time_never_trips() {
        let mut guard = ProgressGuard::new().with_stall_limit(10);
        for i in 0..100_000u64 {
            assert_eq!(guard.observe(Time::from_seconds(i as f64 * 1e-3)), None);
        }
        assert_eq!(guard.violation(), None);
    }

    #[test]
    fn zero_advance_trips_at_limit() {
        let mut guard = ProgressGuard::new().with_stall_limit(100);
        let t = Time::from_seconds(5.0);
        let mut tripped_at = None;
        for i in 0..1000u64 {
            if guard.observe(t).is_some() {
                tripped_at = Some(i);
                break;
            }
        }
        // The first observation seeds last_time with stalled = 1; the
        // counter hits the limit of 100 on observation index 99.
        assert_eq!(tripped_at, Some(99));
        assert!(matches!(
            guard.violation(),
            Some(ProgressViolation::ZeroAdvance { events: 100 })
        ));
    }

    #[test]
    fn simultaneous_bursts_below_limit_are_tolerated() {
        let mut guard = ProgressGuard::new().with_stall_limit(50);
        for batch in 0..100u64 {
            let t = Time::from_seconds(batch as f64);
            for _ in 0..49 {
                assert_eq!(guard.observe(t), None, "burst within limit tripped");
            }
        }
    }

    #[test]
    fn event_storm_trips_on_runaway_rate() {
        // 1000-event window, budget 10 events/sim-second, but time crawls
        // at 1 microsecond per event: ~10⁶ events per simulated second.
        let mut guard = ProgressGuard::new()
            .with_stall_limit(u64::MAX)
            .with_storm_budget(10.0, 1000);
        let mut violation = None;
        for i in 0..10_000u64 {
            violation = guard.observe(Time::from_seconds(i as f64 * 1e-6));
            if violation.is_some() {
                break;
            }
        }
        assert!(
            matches!(
                violation,
                Some(ProgressViolation::EventStorm { events: 1000, .. })
            ),
            "expected storm, got {violation:?}"
        );
    }

    #[test]
    fn healthy_rate_passes_storm_check() {
        let mut guard = ProgressGuard::new().with_storm_budget(1000.0, 100);
        for i in 0..10_000u64 {
            // 100 events per simulated second: well under budget.
            assert_eq!(guard.observe(Time::from_seconds(i as f64 * 1e-2)), None);
        }
    }

    #[test]
    fn time_regression_trips_immediately() {
        let mut guard = ProgressGuard::new();
        assert_eq!(guard.observe(Time::from_seconds(2.0)), None);
        let v = guard.observe(Time::from_seconds(1.0));
        assert!(matches!(v, Some(ProgressViolation::TimeRegression { .. })));
    }

    #[test]
    fn restarted_clock_is_no_regression_and_the_windows_span_it() {
        // Two 500-event epochs of one simulated second each, both clocks
        // starting at zero: no regression at the boundary, and the
        // 1000-event storm window — longer than either epoch — still
        // closes, over the two seconds both covered.
        let mut guard = ProgressGuard::new()
            .with_stall_limit(u64::MAX)
            .with_storm_budget(10.0, 1000);
        let mut violation = None;
        for i in 0..1000u64 {
            assert_eq!(violation, None);
            if i % 500 == 0 {
                guard.clock_restarted();
            }
            violation = guard.observe(Time::from_seconds((i % 500 + 1) as f64 * 2e-3));
        }
        assert!(
            matches!(violation, Some(ProgressViolation::EventStorm { events: 1000, window_seconds })
                if (window_seconds - 2.0).abs() < 1e-9),
            "expected the storm window to close over 2 s, got {violation:?}"
        );
    }

    #[test]
    fn one_timestamp_per_epoch_is_a_livelock() {
        // Four events per epoch, all at one timestamp: no epoch reaches the
        // stall limit on its own, the run as a whole does.
        let mut guard = ProgressGuard::new().with_stall_limit(10);
        let tripped_at = (0..100u64).find(|i| {
            if i % 4 == 0 {
                guard.clock_restarted();
            }
            guard.observe(Time::from_seconds(1.0)).is_some()
        });
        assert_eq!(tripped_at, Some(9));
        assert_eq!(
            guard.violation(),
            Some(ProgressViolation::ZeroAdvance { events: 10 })
        );
    }

    #[test]
    fn tripped_guard_stays_tripped() {
        let mut guard = ProgressGuard::new().with_stall_limit(2);
        let t = Time::from_seconds(1.0);
        guard.observe(t);
        guard.observe(t);
        let v = guard.observe(t);
        assert!(v.is_some());
        assert_eq!(guard.observe(Time::from_seconds(99.0)), v);
    }

    #[test]
    fn display_is_informative() {
        let v = ProgressViolation::ZeroAdvance { events: 7 };
        assert_eq!(
            v.to_string(),
            "livelock: 7 events with no simulated-time progress"
        );
    }
}
