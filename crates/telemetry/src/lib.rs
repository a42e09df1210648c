//! One-branch-when-off instrumentation for the BigHouse reproduction.
//!
//! The simulator's value is its statistics engine, yet a run is otherwise a
//! black box between "started" and "converged". This crate provides the
//! observability record: **monotonic counters**, **gauges**, **histograms**
//! (the statistics package's one [`Histogram`](bighouse_stats::Histogram))
//! and the statistics phase log ([`PhaseTransition`]), all in one
//! [`TelemetrySnapshot`] that runs write into directly and report as is.
//!
//! Two properties are load-bearing and tested:
//!
//! 1. **One branch when off.** Telemetry that is off is an absent snapshot:
//!    the simulation layer holds an `Option` and pays exactly one null
//!    check per call site — the same budget the runtime auditor proved
//!    acceptable ("paranoia is free").
//! 2. **Observation never perturbs.** A snapshot receives values; it
//!    cannot reach back into the simulation, and nothing here draws
//!    randomness or reads wall clocks. Instrumented runs are therefore
//!    bit-identical to plain runs at the same seed — CI gates on it.
//!
//! A [`TelemetrySnapshot`] is plain data that serializes to JSON, with
//! `BTreeMap` keys so its JSON form is deterministically ordered.
//! Wall-clock fields are the only non-deterministic values and are kept
//! separable via [`TelemetrySnapshot::without_wall_times`] so determinism
//! tests can compare everything else bit-for-bit.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod snapshot;

pub use snapshot::{PhaseTransition, TelemetrySnapshot};
