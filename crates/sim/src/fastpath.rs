//! The analytic fast path: engine selection for plain G/G/k FCFS segments.
//!
//! BigHouse pays per-event calendar cost even when a cluster segment is a
//! plain G/G/k FCFS station where nothing interesting can happen — no
//! fault process, no power-cap epochs, no resilience actions. For those
//! segments the departure process is fully determined by the arrival and
//! service draws (the queuecomputer observation), so the simulator can
//! batch-compute departures with a handful of integer operations per event
//! instead of running the full binary-heap calendar.
//!
//! The contract is strict **bit-identity**: the fast engine consumes the
//! RNG stream draw-for-draw, fires the same logical events in the same
//! order, records the same observations in the same sequence, and checks
//! convergence at the same event boundaries as the calendar engine — so
//! every estimate (mean, quantiles, confidence intervals) comes out
//! bit-identical, not merely statistically equivalent. The engine is
//! chosen once per engine build from the configuration alone (see
//! `ClusterSim::fastpath_eligible`), never by the user: any feature that
//! makes remaining-work tracking matter — faults, retries, resilience,
//! auditing, epoch-paced metrics — and any cluster with more than
//! [`FAST_PATH_MAX_SLOTS`] pending-event slots runs on the calendar engine.

use bighouse_des::{Calendar, CalendarStats, Engine, ProgressGuard, RunStats, Time};

use crate::cluster::{ClusterSim, FastEngine};

/// The largest pending-event population (`streams + servers`: one arrival
/// slot per stream, one attention slot per server) the fast path is chosen
/// for. Its next-event search scans every slot, so its per-event cost grows
/// with the cluster while the heap calendar's grows with its logarithm.
/// Measured on per-server M/M/4 at `2N` slots, fast-path ÷ calendar
/// events/s: 16 slots 1.20, 32 → 1.17, 64 → 1.05, 128 → 0.79, 256 → 0.61,
/// 512 → 0.44 (DESIGN.md "Analytic fast path").
pub const FAST_PATH_MAX_SLOTS: usize = 64;

/// A primed engine, ready to run: either the full calendar engine or the
/// analytic fast path. Built by [`AnyEngine::build`], which applies the
/// eligibility decision exactly once per engine and notes the outcome on
/// the telemetry counters (`fastpath.entries` / `fastpath.bailouts`).
#[derive(Debug)]
pub(crate) enum AnyEngine {
    /// The full discrete-event calendar engine.
    Cal(Engine<ClusterSim>),
    /// The batched fast-path engine for eligible FCFS segments.
    Fast(FastEngine),
}

impl AnyEngine {
    /// Primes `sim` and wraps it in the engine its configuration selects.
    pub(crate) fn build(mut sim: ClusterSim) -> AnyEngine {
        if sim.fastpath_eligible() {
            AnyEngine::Fast(FastEngine::new(sim))
        } else {
            sim.note_fastpath_bailout();
            let mut cal = Calendar::new();
            sim.prime(&mut cal);
            AnyEngine::Cal(Engine::from_parts(sim, cal))
        }
    }

    /// Runs until a stop condition or the event budget, whichever first.
    pub(crate) fn run_with_limit(&mut self, max_events: u64) -> RunStats {
        match self {
            AnyEngine::Cal(engine) => engine.run_with_limit(max_events),
            AnyEngine::Fast(engine) => engine.run_with_limit(max_events),
        }
    }

    /// As [`AnyEngine::run_with_limit`], under a progress guard. Guarded
    /// runs only exist in paranoid (audited) mode, which is ineligible for
    /// the fast path, so the `Fast` arm is unreachable by construction.
    pub(crate) fn run_guarded(&mut self, max_events: u64, guard: &mut ProgressGuard) -> RunStats {
        match self {
            AnyEngine::Cal(engine) => engine.run_guarded(max_events, guard),
            AnyEngine::Fast(_) => {
                unreachable!("guarded runs imply auditing, which is fast-path ineligible")
            }
        }
    }

    /// Current simulated time.
    pub(crate) fn now(&self) -> Time {
        match self {
            AnyEngine::Cal(engine) => engine.now(),
            AnyEngine::Fast(engine) => engine.now(),
        }
    }

    /// The underlying simulation (read access).
    pub(crate) fn simulation(&self) -> &ClusterSim {
        match self {
            AnyEngine::Cal(engine) => engine.simulation(),
            AnyEngine::Fast(engine) => engine.simulation(),
        }
    }

    /// The underlying simulation (mutable access).
    pub(crate) fn simulation_mut(&mut self) -> &mut ClusterSim {
        match self {
            AnyEngine::Cal(engine) => engine.simulation_mut(),
            AnyEngine::Fast(engine) => engine.simulation_mut(),
        }
    }

    /// Calendar health counters: real ones from the calendar engine,
    /// emulated ones (identical schedule/fire/cancel accounting, zero sift
    /// steps) from the fast path.
    pub(crate) fn calendar_stats(&self) -> CalendarStats {
        match self {
            AnyEngine::Cal(engine) => engine.calendar().stats(),
            AnyEngine::Fast(engine) => engine.calendar_stats(),
        }
    }

    /// Consumes the engine, yielding the simulation.
    pub(crate) fn into_simulation(self) -> ClusterSim {
        match self {
            AnyEngine::Cal(engine) => engine.into_simulation(),
            AnyEngine::Fast(engine) => engine.into_simulation(),
        }
    }
}
