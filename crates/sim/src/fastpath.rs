//! The epoch driver ([`Epoch`]) and the store selection it owns: fixed
//! slots for plain G/G/k FCFS segments, the calendar for everything else.
//!
//! BigHouse pays per-event calendar cost even when a cluster segment is a
//! plain G/G/k FCFS station where nothing interesting can happen — no
//! fault process, no power-cap epochs, no resilience actions. For those
//! segments the departure process is fully determined by the arrival and
//! service draws (the queuecomputer observation) and the pending set is a
//! fixed population — one arrival per stream, at most one attention event
//! per server — so it can live in [`FixedSlots`] instead of a calendar
//! queue.
//!
//! The handlers are `ClusterSim`'s own on either store: the same RNG draws,
//! the same observations in the same order, the same convergence checks at
//! the same event boundaries. Both stores pop in the one total order on
//! `(time, seq)` keys, so every estimate is bit-identical, not merely
//! statistically equivalent. The store is chosen once per epoch from the
//! configuration alone (`ClusterSim::fastpath_eligible`), never by the
//! user: any feature whose events have no fixed slot, and any cluster with
//! more than [`FAST_PATH_MAX_SLOTS`] of them, runs on the calendar.

use std::collections::HashMap;

use bighouse_des::{Calendar, CalendarStats, Control, ProgressGuard, RunStats, Time};
use bighouse_stats::{HistogramSpec, StatsCollection};
use bighouse_telemetry::MemoryRecorder;

use crate::audit::AuditReport;
use crate::cluster::{ClusterEvent, ClusterSim};
use crate::config::{ArrivalMode, ExperimentConfig};
use crate::error::SimError;
use crate::pending::{FixedSlots, Pending};
use crate::report::ClusterSummary;

/// The largest pending-event population (`streams + servers`: one arrival
/// slot per stream, one attention slot per server) held in fixed slots.
/// Their next-event search scans every slot, so its per-event cost grows
/// with the cluster while the calendar queue's does not.
/// Measured on per-server M/M/4 at `2N` slots, fixed-slot ÷ calendar
/// events/s: 16 slots 1.24, 32 → 1.10, 64 → 0.93, 128 → 0.71, 256 → 0.51,
/// 512 → 0.35; the two cross near 48 (DESIGN.md "Analytic fast path").
pub const FAST_PATH_MAX_SLOTS: usize = 32;

/// Where an epoch's pending events are held.
#[derive(Debug)]
enum Store {
    Calendar(Calendar<ClusterEvent>),
    Slots(FixedSlots),
}

/// One build → run → audit → hand-off pass over a fresh cluster: the unit
/// every runner is made of. The serial run is one epoch with the whole
/// event budget, the master's calibration one epoch advanced until the
/// bin schemes are fixed, a resumable run and a slave session loops of
/// epochs that carry the statistics from one to the next.
///
/// [`Epoch::start`] is the only place the store is picked and a run's
/// progress guard learns of a new clock, [`Epoch::advance`] the only event
/// loop, and [`Epoch::finish`] the only place the audit is closed, the
/// store noted on the telemetry counters (`fastpath.*`) and the simulation
/// taken apart.
#[derive(Debug)]
pub(crate) struct Epoch {
    sim: ClusterSim,
    pending: Store,
}

/// What a finished [`Epoch`] hands back.
#[derive(Debug)]
pub(crate) struct EpochEnd {
    /// Simulated time of the last fired event.
    pub(crate) now: Time,
    /// The store's activity counters: the two stores count schedules,
    /// fires, cancels and depth identically; fixed slots take no sift
    /// steps.
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

/// The event loop: pops `pending` into `sim`'s handlers until a stop
/// condition or `budget` events, whichever first.
///
/// A `guard` sees each timestamp *before* its handler runs; if it trips,
/// the offending event stays undispatched (the run is being abandoned) and
/// the violation is recorded on the audit report here, so no caller can
/// stop on it and forget to. It touches neither state nor randomness: up
/// to the trip a guarded run fires the unguarded one's events.
pub(crate) fn drive(
    sim: &mut ClusterSim,
    pending: &mut impl Pending,
    budget: u64,
    mut guard: Option<&mut ProgressGuard>,
) -> RunStats {
    let mut run = RunStats::default();
    while run.events_fired < budget {
        let Some((now, event)) = pending.pop() else {
            return run;
        };
        if let Some(violation) = guard.as_deref_mut().and_then(|g| g.observe(now)) {
            sim.record_progress_violation(violation);
            run.stopped_by_guard = true;
            return run;
        }
        run.events_fired += 1;
        if sim.handle_on(now, event, pending) == Control::Stop {
            run.stopped_by_simulation = true;
            return run;
        }
    }
    run.hit_event_limit = true;
    run
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
        let pending = if sim.fastpath_eligible() {
            let balanced = matches!(config.arrival_mode, ArrivalMode::LoadBalanced(_));
            let mut slots = FixedSlots::new(config.servers, balanced);
            sim.prime_on(&mut slots);
            Store::Slots(slots)
        } else {
            let mut cal = Calendar::new();
            sim.prime_on(&mut cal);
            Store::Calendar(cal)
        };
        Ok(Epoch { sim, pending })
    }

    /// Runs until a stop condition or `budget` events, whichever first
    /// ([`drive`]).
    pub(crate) fn advance(&mut self, budget: u64, guard: Option<&mut ProgressGuard>) -> RunStats {
        match &mut self.pending {
            Store::Calendar(cal) => drive(&mut self.sim, cal, budget, guard),
            Store::Slots(slots) => drive(&mut self.sim, slots, budget, guard),
        }
    }

    /// The simulation mid-epoch (read access).
    pub(crate) fn simulation(&self) -> &ClusterSim {
        &self.sim
    }

    /// Whether the last [`Epoch::advance`] ended on broken invariants — a
    /// tripped guard or an audit sweep's violation — and the run must stop.
    pub(crate) fn tripped(&self, run: &RunStats) -> bool {
        run.stopped_by_guard || self.sim.audit_failed()
    }

    /// Ends the epoch: final audit sweep, then the simulation is taken
    /// apart. The pending set and every in-flight request are discarded.
    pub(crate) fn finish(self) -> EpochEnd {
        let Epoch { mut sim, pending } = self;
        let (fixed_slots, now, calendar) = match &pending {
            Store::Calendar(cal) => (false, Pending::now(cal), Pending::stats(cal)),
            Store::Slots(slots) => (true, slots.now(), slots.stats()),
        };
        sim.finalize_audit(now);
        let cluster = sim.summary(now);
        let telemetry = sim.take_telemetry().map(|mut t| {
            // Every completion of a fixed-slot epoch was recorded.
            t.note_epoch_end(fixed_slots, &cluster);
            t.into_recorder()
        });
        EpochEnd {
            now,
            calendar,
            cluster,
            audit: sim.take_audit(),
            telemetry,
            stats: sim.into_stats(),
        }
    }
}
