//! Discrete-event simulation engine for the BigHouse reproduction.
//!
//! BigHouse (Meisner, Wu & Wenisch, ISPASS 2012) exercises generalized queuing
//! networks with a distributed discrete-event simulation. This crate provides
//! the engine layer that everything else builds on:
//!
//! - [`Time`], a total-ordered simulated-time newtype (seconds),
//! - [`Calendar`], a cancellable pending-event calendar — a self-sizing
//!   calendar queue, O(1) per operation — with deterministic FIFO
//!   tie-breaking,
//! - [`Pending`], the contract every pending-event store keeps (the
//!   calendar, and `bighouse-sim`'s fixed slots), and [`drive`], the one
//!   event loop, which pops any of them into a handler,
//! - [`SeedStream`] and [`SimRng`], deterministic per-component random number
//!   streams (each slave in a parallel simulation must use a unique seed,
//!   §2.4 of the paper),
//! - [`FastMap`]/[`FastSet`], deterministic fast-hash containers for
//!   hot-path bookkeeping keyed by trusted ids,
//! - [`ProgressGuard`], a circuit breaker that stops zero-advance
//!   livelocks, event storms, and time regressions instead of hanging
//!   ([`drive`] consults it per event),
//! - [`check`], the workspace's property-test harness: seeded cases drawn
//!   from [`SimRng`], replayable from the seed a failing case prints.
//!
//! [`Engine`] and the [`Simulation`] trait wrap [`drive`] over a
//! [`Calendar`] for callers that hold a model and its calendar together.
//!
//! # Examples
//!
//! A two-event "hello" simulation:
//!
//! ```
//! use bighouse_des::{drive, Calendar, Control, Time};
//!
//! let mut cal = Calendar::new();
//! cal.schedule(Time::from_seconds(0.5), "first");
//! let mut seen = 0;
//! let stats = drive(&mut cal, u64::MAX, None, |_now, event, cal| {
//!     seen += 1;
//!     if event == "first" {
//!         cal.schedule_in(1.0, "second");
//!     }
//!     Control::Continue
//! });
//! assert_eq!(seen, 2);
//! assert_eq!(stats.events_fired, 2);
//! assert_eq!(cal.now(), Time::from_seconds(1.5));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod calendar;
pub mod check;
mod engine;
pub mod hash;
mod progress;
mod rng;
mod time;

pub use calendar::{Calendar, CalendarStats, EventHandle};
pub use engine::{drive, Control, Engine, Pending, RunStats, Simulation};
pub use hash::{FastMap, FastSet};
pub use progress::{ProgressGuard, ProgressViolation};
pub use rng::{SeedStream, SimRng};
pub use time::Time;
