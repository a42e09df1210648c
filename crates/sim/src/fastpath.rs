//! The epoch driver ([`Epoch`]) and the engine selection it owns: the
//! analytic fast path for plain G/G/k FCFS segments, the calendar engine
//! for everything else.
//!
//! BigHouse pays per-event calendar cost even when a cluster segment is a
//! plain G/G/k FCFS station where nothing interesting can happen — no
//! fault process, no power-cap epochs, no resilience actions. For those
//! segments the departure process is fully determined by the arrival and
//! service draws (the queuecomputer observation), so the simulator can
//! batch-compute departures with a handful of integer operations per event
//! instead of running the full calendar queue.
//!
//! The contract is strict **bit-identity**: the fast engine consumes the
//! RNG stream draw-for-draw, fires the same logical events in the same
//! order, records the same observations in the same sequence, and checks
//! convergence at the same event boundaries as the calendar engine — so
//! every estimate (mean, quantiles, confidence intervals) comes out
//! bit-identical, not merely statistically equivalent. The engine is
//! chosen once per epoch from the configuration alone (see
//! `ClusterSim::fastpath_eligible`), never by the user: any feature that
//! makes remaining-work tracking matter — faults, retries, resilience,
//! auditing, epoch-paced metrics — and any cluster with more than
//! [`FAST_PATH_MAX_SLOTS`] pending-event slots runs on the calendar engine.

use std::collections::HashMap;

use bighouse_des::{Calendar, CalendarStats, Engine, ProgressGuard, RunStats, Time};
use bighouse_stats::{HistogramSpec, StatsCollection};
use bighouse_telemetry::MemoryRecorder;

use crate::audit::AuditReport;
use crate::cluster::{ClusterSim, FastEngine};
use crate::config::ExperimentConfig;
use crate::error::SimError;
use crate::report::ClusterSummary;

/// The largest pending-event population (`streams + servers`: one arrival
/// slot per stream, one attention slot per server) the fast path is chosen
/// for. Its next-event search scans every slot, so its per-event cost grows
/// with the cluster while the calendar queue's does not.
/// Measured on per-server M/M/4 at `2N` slots, fast-path ÷ calendar
/// events/s: 16 slots 1.24, 32 → 1.10, 64 → 0.93, 128 → 0.71, 256 → 0.51,
/// 512 → 0.35; the two cross near 48 (DESIGN.md "Analytic fast path").
pub const FAST_PATH_MAX_SLOTS: usize = 32;

/// One build → run → audit → hand-off pass over a fresh cluster: the unit
/// every runner is made of. The serial run is one epoch with the whole
/// event budget, the master's calibration one epoch advanced until the
/// bin schemes are fixed, a resumable run and a slave session loops of
/// epochs that carry the statistics from one to the next.
///
/// [`Epoch::start`] is the only place the engine is picked (and noted on
/// the telemetry counters `fastpath.entries` / `fastpath.bailouts`) and
/// a run's progress guard learns of a new clock, [`Epoch::advance`] the
/// only place the guard meets an engine, and
/// [`Epoch::finish`] the only place the audit is closed and the
/// simulation taken apart.
#[derive(Debug)]
pub(crate) enum Epoch {
    /// On the full discrete-event calendar engine.
    Cal(Engine<ClusterSim>),
    /// On the fixed-slot engine for eligible FCFS segments.
    Fast(FastEngine),
}

/// What a finished [`Epoch`] hands back.
#[derive(Debug)]
pub(crate) struct EpochEnd {
    /// Simulated time of the last fired event.
    pub(crate) now: Time,
    /// Calendar health counters: real ones from the calendar engine,
    /// emulated ones (identical schedule/fire/cancel accounting, zero sift
    /// steps) from the fast path.
    pub(crate) calendar: CalendarStats,
    /// Exact cluster-level facts up to `now`.
    pub(crate) cluster: ClusterSummary,
    /// Finalized, with any guard violation already in it (`None` when
    /// paranoid mode is off).
    pub(crate) audit: Option<AuditReport>,
    /// `None` when telemetry is off.
    pub(crate) telemetry: Option<MemoryRecorder>,
    /// The statistics, to report or to carry into the next epoch.
    pub(crate) stats: StatsCollection,
}

impl Epoch {
    /// Builds and primes the cluster for one epoch: a slave's when
    /// `slave_bins` carries the master's broadcast bin schemes, and with
    /// `carried` statistics in place of fresh ones when an earlier epoch
    /// (or a checkpoint) left some. The run's `guard`, whose windows span
    /// epochs, is told here that this epoch's clock starts at zero.
    pub(crate) fn start(
        config: &ExperimentConfig,
        seed: u64,
        slave_bins: Option<&HashMap<String, HistogramSpec>>,
        carried: Option<StatsCollection>,
        guard: Option<&mut ProgressGuard>,
    ) -> Result<Epoch, SimError> {
        if let Some(guard) = guard {
            guard.clock_restarted();
        }
        let mut sim = match slave_bins {
            Some(bins) => ClusterSim::new_slave(config.clone(), seed, bins)?,
            None => ClusterSim::new(config.clone(), seed)?,
        };
        if let Some(stats) = carried {
            sim.restore_stats(stats)?;
        }
        Ok(if sim.fastpath_eligible() {
            Epoch::Fast(FastEngine::new(sim))
        } else {
            sim.note_fastpath_bailout();
            let mut cal = Calendar::new();
            sim.prime(&mut cal);
            Epoch::Cal(Engine::from_parts(sim, cal))
        })
    }

    /// Runs until a stop condition or `budget` events, whichever first. A
    /// guard that trips has its violation recorded on the audit report
    /// here, so no caller can stop on it and forget to.
    pub(crate) fn advance(&mut self, budget: u64, guard: Option<&mut ProgressGuard>) -> RunStats {
        match self {
            Epoch::Fast(engine) => {
                debug_assert!(
                    guard.is_none(),
                    "guards imply auditing, which is fast-path ineligible"
                );
                engine.run_with_limit(budget)
            }
            Epoch::Cal(engine) => match guard {
                Some(guard) => {
                    let run = engine.run_guarded(budget, guard);
                    if let (true, Some(violation)) = (run.stopped_by_guard, guard.violation()) {
                        engine.simulation_mut().record_progress_violation(violation);
                    }
                    run
                }
                None => engine.run_with_limit(budget),
            },
        }
    }

    /// The simulation mid-epoch (read access).
    pub(crate) fn simulation(&self) -> &ClusterSim {
        match self {
            Epoch::Cal(engine) => engine.simulation(),
            Epoch::Fast(engine) => engine.simulation(),
        }
    }

    /// Whether the last [`Epoch::advance`] ended on broken invariants — a
    /// tripped guard or an audit sweep's violation — and the run must stop.
    pub(crate) fn tripped(&self, run: &RunStats) -> bool {
        run.stopped_by_guard || self.simulation().audit_failed()
    }

    /// Ends the epoch: final audit sweep, then the simulation is taken
    /// apart. The calendar and every in-flight request are discarded.
    pub(crate) fn finish(self) -> EpochEnd {
        let (now, calendar, mut sim) = match self {
            Epoch::Cal(engine) => (
                engine.now(),
                engine.calendar().stats(),
                engine.into_simulation(),
            ),
            Epoch::Fast(engine) => (
                engine.now(),
                engine.calendar_stats(),
                engine.into_simulation(),
            ),
        };
        sim.finalize_audit(now);
        EpochEnd {
            now,
            calendar,
            cluster: sim.summary(now),
            audit: sim.take_audit(),
            telemetry: sim.take_telemetry().map(|t| t.into_recorder()),
            stats: sim.into_stats(),
        }
    }
}
