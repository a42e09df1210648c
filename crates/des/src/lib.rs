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
//! - [`Engine`] and the [`Simulation`] trait, the generic event loop,
//! - [`SeedStream`] and [`SimRng`], deterministic per-component random number
//!   streams (each slave in a parallel simulation must use a unique seed,
//!   §2.4 of the paper),
//! - [`FastMap`]/[`FastSet`], deterministic fast-hash containers for
//!   hot-path bookkeeping keyed by trusted ids,
//! - [`ProgressGuard`], a circuit breaker that stops zero-advance
//!   livelocks, event storms, and time regressions instead of hanging
//!   ([`Engine::run_guarded`] consults it per event; `bighouse-sim`'s
//!   runners do the same from their own loop, `fastpath::drive`).
//!
//! # Examples
//!
//! A two-event "hello" simulation:
//!
//! ```
//! use bighouse_des::{Calendar, Control, Engine, Simulation, Time};
//!
//! struct Counter(u32);
//!
//! impl Simulation for Counter {
//!     type Event = &'static str;
//!     fn handle(&mut self, _now: Time, event: &str, cal: &mut Calendar<&'static str>) -> Control {
//!         self.0 += 1;
//!         if event == "first" {
//!             cal.schedule_in(1.0, "second");
//!         }
//!         Control::Continue
//!     }
//! }
//!
//! let mut engine = Engine::new(Counter(0));
//! engine.calendar_mut().schedule(Time::from_seconds(0.5), "first");
//! let stats = engine.run();
//! assert_eq!(engine.simulation().0, 2);
//! assert_eq!(stats.events_fired, 2);
//! assert_eq!(engine.now(), Time::from_seconds(1.5));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod calendar;
mod engine;
pub mod hash;
mod progress;
mod rng;
mod time;

pub use calendar::{Calendar, CalendarStats, EventHandle};
pub use engine::{Control, Engine, RunStats, Simulation};
pub use hash::{FastBuildHasher, FastHasher, FastMap, FastSet};
pub use progress::{ProgressGuard, ProgressViolation};
pub use rng::{SeedStream, SimRng};
pub use time::Time;
