//! The BigHouse data-center object model.
//!
//! BigHouse represents the systems of a compute cluster "as a generalized
//! queuing network … coupled to power/performance models that modulate the
//! service rate and generate output variables of interest" (§2 of the
//! paper). This crate is that object model:
//!
//! - [`Job`]/[`FinishedJob`] — the unit of work (a request, query, …),
//! - [`Server`] — a multi-core FCFS server whose service rate can be
//!   modulated mid-job (exact remaining-work tracking), with pluggable idle
//!   low-power behavior ([`IdlePolicy`]): always-on, PowerNap-style
//!   sleep-when-idle, or the DreamWeaver idleness-coalescing scheduler of
//!   the paper's second case study (§3.2),
//! - [`LinearPowerModel`] and [`DvfsModel`] — the power (Eqs. 4–5) and
//!   performance (Eq. 6) models of the power-capping study (§4.1),
//! - [`PowerCapper`] — the global, proportional-budget power capping
//!   coordinator with one-second epochs,
//! - [`LoadBalancer`] — random / round-robin / join-shortest-queue task
//!   placement.
//!
//! Servers are pure state machines driven by a discrete-event loop: after
//! any interaction the caller asks [`Server::next_event`] when the server
//! next needs attention (an O(1) read of a cached instant) and keeps
//! exactly one calendar event for it, re-aimed only when that instant moves.
//! The simulation orchestration in `bighouse-sim` does precisely that.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod capping;
mod job;
mod loadbalancer;
mod policy;
mod power;
mod server;

pub use capping::{CappingOutcome, PowerCapper};
pub use job::{FinishedJob, Job, JobId};
pub use loadbalancer::{BalancerPolicy, LoadBalancer};
pub use policy::IdlePolicy;
pub use power::{DvfsModel, LinearPowerModel};
pub use server::Server;
