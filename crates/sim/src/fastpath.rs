//! The epoch driver ([`Epoch`]) and the store selection it owns: fixed
//! slots for plain G/G/k FCFS segments, the calendar for everything else.
//! Every epoch, whichever runner drives it, ends folded into a
//! [`RunState`] ([`Epoch::finish`]); [`epoch_step`] is the loop of them a
//! resumable run and a slave session share.
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
//! The handlers are `ClusterSim`'s own on either store, and the one event
//! loop, [`bighouse_des::drive`], pops either into them: the same RNG draws,
//! the same observations in the same order, the same convergence checks at
//! the same event boundaries. Both stores pop in the one total order on
//! `(time, seq)` keys, so every estimate is bit-identical, not merely
//! statistically equivalent. The store is chosen once per epoch from the
//! configuration alone (`ClusterSim::fastpath_eligible`), never by the
//! user: any feature whose events have no fixed slot, and any cluster with
//! more than [`FAST_PATH_MAX_SLOTS`] of them, runs on the calendar.

use bighouse_des::{drive, Calendar, CalendarStats, Pending, ProgressGuard};
use bighouse_stats::StatsCollection;
use bighouse_telemetry::TelemetrySnapshot;

use crate::audit::AuditReport;
use crate::checkpoint::RunState;
use crate::cluster::{ClusterEvent, ClusterSim};
use crate::config::{ArrivalMode, ExperimentConfig};
use crate::error::SimError;
use crate::pending::FixedSlots;

/// The largest pending-event population (`streams + servers`: one arrival
/// slot per stream, one attention slot per server) held in fixed slots.
/// Their next-event search scans every slot, so its per-event cost grows
/// with the cluster while the calendar queue's does not.
/// Measured on per-server M/M/4 at `2N` slots, fixed-slot ÷ calendar
/// events/s: 16 slots 1.24, 32 → 1.10, 64 → 0.93, 128 → 0.71, 256 → 0.51,
/// 512 → 0.35; the two cross near 48 (DESIGN.md "Analytic fast path").
pub(crate) const FAST_PATH_MAX_SLOTS: usize = 32;

/// Where an epoch's pending events are held.
#[derive(Debug)]
enum Store {
    Calendar(Calendar<ClusterEvent>),
    Slots(FixedSlots),
}

/// One build → run → audit → fold pass over a fresh cluster: the unit
/// every runner is made of. The serial run is one epoch with the whole
/// event budget, a resumable run and a slave session one loop of epochs
/// that carry the statistics from one to the next ([`epoch_step`]: one
/// step, two callers).
///
/// [`Epoch::start`] is the only place the store is picked and a run's
/// progress guard learns of a new clock, [`Epoch::advance`] the only loop
/// over the event loop, and [`Epoch::finish`] the only place the audit is
/// closed, the store noted on the telemetry counters (`fastpath.*`) and
/// the simulation folded into a [`RunState`].
#[derive(Debug)]
pub(crate) struct Epoch {
    sim: ClusterSim,
    pending: Store,
    /// Events fired over every [`Epoch::advance`].
    fired: u64,
}

/// What [`Epoch::advance`] reports.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Advanced {
    /// Events fired over all chunks.
    pub(crate) fired: u64,
    /// The last chunk ended on broken invariants — a tripped guard or an
    /// audit sweep's violation — and the run must stop.
    pub(crate) tripped: bool,
    /// The last chunk fired nothing: the pending set is empty.
    pub(crate) drained: bool,
}

/// What an [`epoch_step`] hands back beside the [`RunState`] it folded into.
#[derive(Debug)]
pub(crate) struct StepEnd {
    /// The epoch ran its whole budget with every invariant intact.
    pub(crate) complete: bool,
    /// The store's activity counters: the two stores count schedules,
    /// fires, cancels and depth identically; fixed slots take no sift
    /// steps.
    pub(crate) calendar: CalendarStats,
    /// `None` when telemetry is off.
    pub(crate) telemetry: Option<TelemetrySnapshot>,
}

impl Epoch {
    /// Builds and primes the cluster for one epoch: a slave's, which does
    /// not stop on its own convergence, when `slave` is set, and with
    /// `carried` statistics in place of fresh ones when an earlier epoch
    /// (or a checkpoint) left some. The run's `guard`, whose windows span
    /// epochs, is told here that this epoch's clock starts at zero.
    pub(crate) fn start(
        config: &ExperimentConfig,
        seed: u64,
        slave: bool,
        carried: Option<StatsCollection>,
        guard: Option<&mut ProgressGuard>,
    ) -> Result<Epoch, SimError> {
        if let Some(guard) = guard {
            guard.clock_restarted();
        }
        let mut sim = if slave {
            ClusterSim::new_slave(config.clone(), seed)?
        } else {
            ClusterSim::new(config.clone(), seed)?
        };
        if let Some(stats) = carried {
            sim.restore_stats(stats)?;
        }
        let pending = if sim.fastpath_eligible() {
            let balanced = matches!(config.arrival_mode, ArrivalMode::LoadBalanced(_));
            let mut slots = FixedSlots::new(config.servers, balanced);
            sim.prime(&mut slots);
            Store::Slots(slots)
        } else {
            let mut cal = Calendar::new();
            sim.prime(&mut cal);
            Store::Calendar(cal)
        };
        Ok(Epoch {
            sim,
            pending,
            fired: 0,
        })
    }

    /// Runs until a stop condition or `budget` events, whichever first, at
    /// most `chunk` events at a time ([`drive`]). A tripped `guard`'s
    /// violation is recorded on the audit report here, so no caller can
    /// stop on it and forget to. After every chunk that leaves the epoch
    /// able to go on, `between` sees the epoch and the events fired so far
    /// and says whether to. The chunk size never shows in the trajectory:
    /// an event fires the same whichever chunk it is in.
    pub(crate) fn advance(
        &mut self,
        budget: u64,
        chunk: u64,
        mut guard: Option<&mut ProgressGuard>,
        mut between: impl FnMut(&Epoch, u64) -> Result<bool, SimError>,
    ) -> Result<Advanced, SimError> {
        let mut adv = Advanced::default();
        while adv.fired < budget {
            let (limit, sim) = (chunk.min(budget - adv.fired), &mut self.sim);
            let run = match &mut self.pending {
                Store::Calendar(cal) => drive(cal, limit, guard.as_deref_mut(), |now, e, cal| {
                    sim.handle_on(now, e, cal)
                }),
                Store::Slots(slots) => {
                    drive(slots, limit, guard.as_deref_mut(), |now, e, slots| {
                        sim.handle_on(now, e, slots)
                    })
                }
            };
            if run.stopped_by_guard {
                if let Some(violation) = guard.as_deref().and_then(ProgressGuard::violation) {
                    self.sim.record_progress_violation(violation);
                }
            }
            adv.fired += run.events_fired;
            self.fired += run.events_fired;
            adv.tripped = run.stopped_by_guard || self.sim.audit_failed();
            adv.drained = run.events_fired == 0 && !adv.tripped;
            if adv.tripped || adv.drained || run.stopped_by_simulation || !between(self, adv.fired)?
            {
                break;
            }
        }
        Ok(adv)
    }

    /// The simulation mid-epoch (read access).
    pub(crate) fn simulation(&self) -> &ClusterSim {
        &self.sim
    }

    /// Ends the epoch: final audit sweep, then the simulation is taken
    /// apart and folded into `state` — its statistics, its cluster totals
    /// ([`RunTotals::merge`](crate::RunTotals::merge)), its audit, the
    /// events it fired and one more epoch. The pending set and every
    /// in-flight request are discarded; the store's counters and the
    /// telemetry (`None` when off) come back.
    pub(crate) fn finish(self, state: &mut RunState) -> (CalendarStats, Option<TelemetrySnapshot>) {
        let Epoch {
            mut sim,
            pending,
            fired,
        } = self;
        let (fixed_slots, now, calendar) = match &pending {
            Store::Calendar(cal) => (false, cal.now(), cal.stats()),
            Store::Slots(slots) => (true, slots.now(), slots.stats()),
        };
        sim.finalize_audit(now);
        let totals = sim.totals(now);
        let telemetry = sim.take_telemetry().map(|mut t| {
            // Every completion of a fixed-slot epoch was recorded.
            t.note_epoch_end(fixed_slots, &totals);
            t.into_snapshot()
        });
        state.totals.merge(&totals);
        if let Some(audit) = sim.take_audit() {
            state
                .audit
                .get_or_insert_with(AuditReport::default)
                .merge(&audit);
        }
        state.stats = Some(sim.into_stats());
        state.events_done += fired;
        state.next_epoch += 1;
        (calendar, telemetry)
    }
}

/// One epoch of an epoch-structured run: the next seed of the carried
/// stream builds a fresh cluster (a slave's when `slave` is set)
/// around the carried statistics, it advances `epoch_events` events — fewer
/// if the run's event cap comes first — in chunks ([`Epoch::advance`]), and
/// statistics, cluster totals, audit, event count and epoch index go back
/// into `state`. `run_resumable` calls it with one chunk per epoch, a slave
/// session with the barrier chunk and its heartbeat-and-park hook.
///
/// # Errors
///
/// [`SimError::InvalidConfig`] from the build, [`SimError::CalendarDrained`]
/// if a chunk fires nothing, and whatever `between` fails with.
pub(crate) fn epoch_step(
    config: &ExperimentConfig,
    state: &mut RunState,
    slave: bool,
    epoch_events: u64,
    chunk: u64,
    mut guard: Option<&mut ProgressGuard>,
    between: impl FnMut(&Epoch, u64) -> Result<bool, SimError>,
) -> Result<StepEnd, SimError> {
    let seed = state.seeds.next_seed();
    let mut epoch = Epoch::start(
        config,
        seed,
        slave,
        state.stats.take(),
        guard.as_deref_mut(),
    )?;
    let budget = epoch_events.min(config.max_events - state.events_done);
    let adv = epoch.advance(budget, chunk, guard, between)?;
    if adv.drained {
        return Err(SimError::CalendarDrained {
            phase: "measurement",
        });
    }
    let (calendar, telemetry) = epoch.finish(state);
    Ok(StepEnd {
        complete: adv.fired == budget && !adv.tripped,
        calendar,
        telemetry,
    })
}

#[cfg(test)]
mod audit_mutations;

#[cfg(test)]
mod tests {
    use super::*;
    use bighouse_workloads::{StandardWorkload, Workload};

    /// Three epochs of a slave-shaped run (no self-stop), the
    /// last one cut short by the event cap, advanced `chunk` at a time.
    fn run_chunked(chunk: u64) -> (RunState, Vec<u64>) {
        let config = ExperimentConfig::new(Workload::standard(StandardWorkload::Web))
            .with_utilization(0.5)
            .with_target_accuracy(0.05)
            .with_warmup(50)
            .with_calibration(500)
            .with_max_events(130_000);
        let mut state = RunState::fresh(11, 0);
        let mut barriers = Vec::new();
        while state.events_done < config.max_events {
            let step = epoch_step(
                &config,
                &mut state,
                true,
                50_000,
                chunk,
                None,
                |_, fired| {
                    barriers.push(fired);
                    Ok(true)
                },
            )
            .unwrap();
            assert!(step.complete);
        }
        (state, barriers)
    }

    #[test]
    fn a_tripped_guard_is_recorded_on_the_audit_report() {
        // The loop leaves the violation on the guard; `Epoch::advance`
        // files it, once, whichever chunk the trip lands in.
        let audit = crate::AuditConfig {
            stall_limit_events: 2_000,
            ..crate::AuditConfig::default()
        };
        let config = ExperimentConfig::new(Workload::standard(StandardWorkload::Web))
            .with_utilization(0.5)
            .with_audit(audit.clone());
        let mut sim = ClusterSim::new(config, 7).unwrap();
        sim.seed_bug(crate::audit::SeededBug::Livelock);
        let mut cal = Calendar::new();
        sim.prime(&mut cal);
        let mut epoch = Epoch {
            sim,
            pending: Store::Calendar(cal),
            fired: 0,
        };
        let mut guard = audit.progress_guard();
        let adv = epoch
            .advance(u64::MAX, 300, Some(&mut guard), |_, _| Ok(true))
            .unwrap();
        assert!(adv.tripped && !adv.drained);
        assert!(adv.fired <= 2_001);
        let mut state = RunState::fresh(7, 0);
        epoch.finish(&mut state);
        let report = state.audit.expect("auditing was on");
        let livelocks = report
            .violations
            .iter()
            .filter(|v| matches!(v, crate::audit::AuditViolation::Livelock { .. }));
        assert_eq!(livelocks.count(), 1);
    }

    #[test]
    fn chunking_is_invisible() {
        // What the lockstep determinism contract rests on: where the
        // barriers fall decides when a run stops, never what it simulated.
        let (whole, barriers) = run_chunked(50_000);
        assert_eq!(barriers, [50_000, 50_000, 30_000]);
        assert_eq!((whole.next_epoch, whole.events_done), (3, 130_000));
        assert!(whole.totals.jobs_completed > 0);
        for chunk in [20_000, 7_001] {
            let (chunked, barriers) = run_chunked(chunk);
            assert!(barriers.len() > 3 && barriers.contains(&chunk));
            assert_eq!(chunked.events_done, whole.events_done);
            assert_eq!(chunked.next_epoch, whole.next_epoch);
            assert_eq!(
                chunked.stats.as_ref().unwrap().estimates(),
                whole.stats.as_ref().unwrap().estimates(),
                "chunk {chunk}"
            );
            assert_eq!(
                chunked.totals.simulated_seconds.to_bits(),
                whole.totals.simulated_seconds.to_bits(),
                "chunk {chunk}"
            );
            assert_eq!(
                format!("{:?}", chunked.totals),
                format!("{:?}", whole.totals),
                "chunk {chunk}"
            );
        }
    }
}
