//! Epochs: the component installed when something is paced by simulated
//! time and not by requests — the power capper's re-budgeting (§4.1) and
//! the epoch-paced metrics ([`MetricKind::is_epoch_paced`]). It schedules
//! one event, [`ClusterEvent::Epoch`], every [`PERIOD`].

use bighouse_des::{Pending, Time};
use bighouse_models::PowerCapper;

use super::{ClusterEvent, ClusterSim};
use crate::config::{ExperimentConfig, MetricKind};

/// Seconds between ticks: the paper's budgeting interval, with or without
/// a capper.
pub(super) const PERIOD: f64 = PowerCapper::DEFAULT_EPOCH_SECONDS;

/// The epoch component: the capper and the per-server marks the per-epoch
/// deltas are taken against.
#[derive(Debug)]
pub(super) struct Epochs {
    capper: Option<PowerCapper>,
    energy_marks: Vec<f64>,
    failed_marks: Vec<f64>,
    /// Scratch for the per-server utilizations, reused across ticks.
    utilizations: Vec<f64>,
}

impl Epochs {
    /// The component, if there is a capper or an `epoch_paced` metric.
    pub(super) fn install(config: &ExperimentConfig, epoch_paced: bool) -> Option<Box<Epochs>> {
        let capper = config.capper.clone();
        (capper.is_some() || epoch_paced).then(|| {
            Box::new(Epochs {
                capper,
                energy_marks: vec![0.0; config.total_servers()],
                failed_marks: vec![0.0; config.total_servers()],
                utilizations: Vec::new(),
            })
        })
    }
}

impl ClusterSim {
    /// One epoch boundary. The component is lent out for the call: nothing
    /// the tick reaches reads it.
    #[inline(never)]
    pub(super) fn epoch_tick(&mut self, now: Time, cal: &mut impl Pending<ClusterEvent>) {
        let Some(mut epochs) = self.epochs.take() else {
            return;
        };
        epochs.utilizations.clear();
        for s in 0..self.servers.len() {
            self.sync_server(s, now, cal);
            epochs
                .utilizations
                .push(self.servers[s].take_epoch_utilization(now));
        }
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.note_epoch_utilizations(&epochs.utilizations);
        }
        if let Some(capper) = epochs.capper.as_ref() {
            let outcome = capper.rebudget(&epochs.utilizations);
            for s in 0..self.servers.len() {
                let finished = self.servers[s].set_frequency(outcome.frequencies[s], now);
                self.record_finished(&finished, cal);
            }
            // One cluster-level observation per budgeting epoch: the
            // metric's pace is set by simulated time, not request rate.
            self.observe(MetricKind::CappingLevel, outcome.total_capping_level(), now);
        }
        if self.tracks(MetricKind::ServerPower) {
            for s in 0..self.servers.len() {
                let energy = self.servers[s].energy_joules();
                let watts = (energy - epochs.energy_marks[s]) / PERIOD;
                epochs.energy_marks[s] = energy;
                self.observe(MetricKind::ServerPower, watts, now);
            }
        }
        if self.tracks(MetricKind::Availability) {
            // Per-server per-epoch fraction of the epoch spent up; the mean
            // converges on MTBF / (MTBF + MTTR) for an alternating renewal
            // failure process.
            for s in 0..self.servers.len() {
                let failed = self.servers[s].failed_seconds();
                let delta = failed - epochs.failed_marks[s];
                epochs.failed_marks[s] = failed;
                let up = (1.0 - delta / PERIOD).clamp(0.0, 1.0);
                self.observe(MetricKind::Availability, up, now);
            }
        }
        // Resilience rates are epoch-paced like power and availability.
        let rates = self.requests.as_deref_mut().and_then(|rq| rq.epoch_rates());
        for (kind, rate) in rates.into_iter().flatten() {
            if let Some(x) = rate {
                self.observe(kind, x, now);
            }
        }
        for s in 0..self.servers.len() {
            self.reschedule_attention(s, cal);
        }
        cal.schedule_in(PERIOD, ClusterEvent::Epoch);
        self.epochs = Some(epochs);
    }
}
